"""Property tests of the graph invariants the losses and the sampler rely on,
and the checkable parts of the paper's theorem: minimizing the PU loss also
minimizes the expected loss under positive and negative labels.

The theorem's checks are
- test_true_rates_give_the_true_labels_zero_distance_aware_loss: with the
  true near and far rates as priors, the true-label scores reach the loss's
  minimum, 0, and no other priors do;
- test_uncorrected_nnpu_risk_averages_to_the_pn_risk: the unbiased PU risk
  (Kiryo et al., NeurIPS 2017) is the PN risk in expectation over labeled draws;
- test_reduction_to_distpu_is_bit_exact (tests/test_losses.py): with one
  nonempty subset, the distance-aware loss is Dist-PU's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pugraph.data import make_pu_split
from pugraph.graph import (build_graph, generate_sbm, multi_source_bfs,
                           normalize_adjacency, partition_unlabeled)
from pugraph.losses import distance_aware_loss, nnpu_loss
from pugraph.train import NegativeSampler

from conftest import dense_adjacency, labeled_partition, neighbors

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


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0.01, 0.5))
@PROPERTY
def test_true_rates_give_the_true_labels_zero_distance_aware_loss(seed, delta, shift):
    graph, positive = generate_sbm(40, 40, 0.1, 0.01, seed)
    labeled = np.random.default_rng(seed).choice(40, size=3, replace=False)
    part = partition_unlabeled(graph, labeled, delta)
    y = positive.astype(np.float64)  # the true-label indicator scores
    subsets = (part.near_unlabeled, part.far_unlabeled)
    rates = [float(np.mean(y[ids])) if ids.size else 0.5 for ids in subsets]
    # the labeled mean is 1, so the supervised part is 0 whatever its coefficient
    assert distance_aware_loss(y, part, *rates)[0].total == 0.0
    for which, ids in enumerate(subsets):
        if ids.size:
            priors = list(rates)
            priors[which] += shift if rates[which] + shift <= 1.0 else -shift
            assert distance_aware_loss(y, part, *priors)[0].total > 0.0


@pytest.mark.parametrize("draws", [100, 1000])
def test_uncorrected_nnpu_risk_averages_to_the_pn_risk(draws):
    n_pos, n_neg, n_labeled = 120, 180, 12
    n = n_pos + n_neg
    truth = (np.arange(n) < n_pos).astype(np.int64)
    rng = np.random.default_rng(0)
    y = np.where(truth == 1, rng.uniform(0.55, 0.95, n), rng.uniform(0.05, 0.45, n))
    # every draw's unlabeled set holds the same share of positives
    pi_u = (n_pos - n_labeled) / (n - n_labeled)
    pn_risk = pi_u * np.mean(1.0 - y[:n_pos]) + (1.0 - pi_u) * np.mean(y[n_pos:])
    risks = []
    for seed in range(draws):
        labeled = make_pu_split(truth, np.ones(n, dtype=bool), n_labeled / n, seed)
        value, _ = nnpu_loss(y, labeled_partition(np.isin(np.arange(n), labeled)), pi_u)
        assert value.parts["unlabeled"] > 0.0  # no clamp, so this is the uncorrected risk
        risks.append(value.total)
    # a draw's risk is a constant minus c * mean_L(y), and mean_L(y) over n_labeled
    # positives has a standard deviation of at most spread / (2 sqrt(n_labeled));
    # allow five standard deviations of the mean of `draws` independent draws
    c = n_labeled / (n - n_labeled) + 2.0 * pi_u
    spread = np.ptp(y[:n_pos])
    tolerance = 5.0 * c * spread / (2.0 * np.sqrt(n_labeled * draws))
    assert abs(np.mean(risks) - pn_risk) < tolerance
