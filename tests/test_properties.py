"""Property tests of the graph invariants the losses and the sampler rely on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pugraph.graph import (build_graph, multi_source_bfs, normalize_adjacency,
                           partition_unlabeled)
from pugraph.train import NegativeSampler

from conftest import dense_adjacency, neighbors

# derandomized so that every run of the suite checks the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def edge_lists(draw, max_nodes=30):
    """(num_nodes, edges) with self-loops, duplicates and reversed duplicates."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


@st.composite
def graphs(draw, max_nodes=30):
    n, edges = draw(edge_lists(max_nodes))
    return build_graph(edges, n)


@given(edge_lists())
@PROPERTY
def test_build_graph_is_symmetric_deduplicated_and_loop_free(case):
    n, edges = case
    g = build_graph(edges, n)
    src, dst = g.directed_edges()
    assert not (src == dst).any()
    for i in range(n):
        assert (np.diff(neighbors(g, i)) > 0).all()  # sorted, so no duplicates
    assert set(zip(src.tolist(), dst.tolist())) == (
        {(i, j) for i, j in edges if i != j} | {(j, i) for i, j in edges if i != j})


@given(graphs(), st.data(), st.integers(1, 5))
@PROPERTY
def test_partition_is_a_disjoint_cover_with_near_nodes_within_delta(g, data, delta):
    labeled = data.draw(st.sets(st.integers(0, g.num_nodes - 1), min_size=1))
    part = partition_unlabeled(g, labeled, delta)
    cover = np.concatenate([part.labeled, part.near_unlabeled, part.far_unlabeled])
    assert np.array_equal(np.sort(cover), np.arange(g.num_nodes))
    assert part.labeled.tolist() == sorted(labeled)
    dist = multi_source_bfs(g, labeled)
    assert (dist[part.near_unlabeled] <= delta).all()
    assert (dist[part.near_unlabeled] >= 1).all()
    assert (dist[part.far_unlabeled] > delta).all()


@given(graphs(), st.integers(0, 2**32 - 1), st.integers(1, 8))
@PROPERTY
def test_edge_negatives_avoid_the_query_and_its_neighbors(g, seed, k):
    sampler = NegativeSampler(g, seed)
    src, _ = g.directed_edges()
    ok = sampler.non_neighbor_counts[src] > 0
    src = src[ok]
    draws = sampler.edge_negatives(src, k)
    assert draws.shape == (src.size, k)
    for query, row in zip(src, draws):
        assert query not in row
        assert not np.isin(row, neighbors(g, query)).any()


@given(graphs(), st.integers(1, 40), st.integers(0, 2**32 - 1))
@PROPERTY
def test_matmul_matches_the_dense_product(g, width, seed):
    adj = normalize_adjacency(g)
    x = np.random.default_rng(seed).normal(size=(g.num_nodes, width))
    # the sparse product sums each row in another order than the dense one
    np.testing.assert_allclose(adj.matmul(x), dense_adjacency(adj) @ x, rtol=1e-12, atol=1e-12)
