import numpy as np
import pytest

from pugraph import graph as graph_module
from pugraph.errors import InputError
from pugraph.graph import (NormalizedAdjacency, build_graph, generate_sbm,
                           multi_source_bfs, normalize_adjacency,
                           partition_unlabeled)

from conftest import floyd_warshall, random_graph, traced_peak


def assert_bit_equal(a, b, arrays=("indptr", "indices")):
    """Same node count and the same dtype and values in each named array."""
    assert a.num_nodes == b.num_nodes
    for name in arrays:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def hub_graph(rng, n, p):
    """Random graph plus a hub joined to most nodes and a 12-clique, so some
    rows are longer than numpy's pairwise-summation block of 128."""
    g = random_graph(rng, n, p)
    src, dst = g.directed_edges()
    extra = [(0, j) for j in range(1, n - 3)]
    extra += [(i, j) for i in range(1, 13) for j in range(i + 1, 13)]
    return build_graph(np.concatenate([np.column_stack([src, dst]), extra]), n)


class TestBuildGraph:
    def test_dedup_and_self_loops(self):
        g = build_graph([(0, 1), (1, 0), (1, 1)], 3)
        assert g.num_edges == 1
        assert list(g.degrees) == [1, 1, 0]
        assert list(g.neighbors(0)) == [1]

    def test_empty_edge_list(self):
        g = build_graph([], 2)
        assert g.num_edges == 0
        assert list(g.degrees) == [0, 0]

    def test_path_graph(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert list(g.degrees) == [1, 2, 2, 2, 1]

    def test_out_of_range_edge_names_pair(self):
        with pytest.raises(InputError, match=r"\(1, 5\)"):
            build_graph([(0, 1), (1, 5)], 3)

    def test_symmetry_and_sorted_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, 12, 0.3)
            for i in range(g.num_nodes):
                row = g.neighbors(i)
                assert (np.diff(row) > 0).all()
                for j in row:
                    assert g.has_edge(j, i)


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        na = normalize_adjacency(build_graph([], 1))
        assert na.to_dense().tolist() == [[1.0]]

    def test_single_edge_all_half(self):
        na = normalize_adjacency(build_graph([(0, 1)], 2))
        assert np.array_equal(na.to_dense(), np.full((2, 2), 0.5))

    def test_path_weights(self):
        d = normalize_adjacency(build_graph([(0, 1), (1, 2)], 3)).to_dense()
        assert d[0, 0] == 0.5
        assert d[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)
        assert d[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = normalize_adjacency(random_graph(rng, 15, 0.3)).to_dense()
            assert np.array_equal(d, d.T)

    def test_row_nnz_is_degree_plus_one(self):
        g = random_graph(np.random.default_rng(2), 20, 0.2)
        na = normalize_adjacency(g)
        assert np.array_equal(np.diff(na.indptr), g.degrees + 1)

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, 13, 0.25)
            na = normalize_adjacency(g)
            x = rng.normal(size=(13, 7))
            assert np.allclose(na.matmul(x), na.to_dense() @ x, atol=1e-12)


def reference_normalize_adjacency(g):
    """The per-node loop normalize_adjacency replaced, kept verbatim."""
    d = g.degrees.astype(np.float64) + 1.0
    n = g.num_nodes
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(g.degrees + 1)
    indices = np.empty(indptr[-1], dtype=np.int64)
    weights = np.empty(indptr[-1], dtype=np.float64)
    for i in range(n):
        row = np.empty(g.degrees[i] + 1, dtype=np.int64)
        nbrs = g.neighbors(i)
        pos = np.searchsorted(nbrs, i)
        row[:pos] = nbrs[:pos]
        row[pos] = i
        row[pos + 1:] = nbrs[pos:]
        s, e = indptr[i], indptr[i + 1]
        indices[s:e] = row
        weights[s:e] = 1.0 / np.sqrt(d[i] * d[row])
    return NormalizedAdjacency(n, indptr, indices, weights)


def reference_matmul(adj, dense, block=256):
    """The 256-column matmul that the element-bounded gather replaced; its
    loop is kept verbatim."""
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    out = np.empty((adj.num_nodes, dense.shape[1]), dtype=np.float64)
    starts = adj.indptr[:-1]
    for lo in range(0, dense.shape[1], block):
        hi = min(lo + block, dense.shape[1])
        prod = adj.weights[:, None] * dense[adj.indices, lo:hi]
        out[:, lo:hi] = np.add.reduceat(prod, starts, axis=0)
    return out[:, 0] if squeeze else out


def reference_multi_source_bfs(g, sources):
    """The per-node concatenate BFS that the CSR gather replaced, kept verbatim."""
    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    dist = np.full(g.num_nodes, np.inf)
    dist[src] = 0.0
    frontier = src
    hop = 0.0
    while frontier.size:
        hop += 1.0
        cand = np.unique(np.concatenate([g.neighbors(v) for v in frontier]))
        frontier = cand[np.isinf(dist[cand])]
        dist[frontier] = hop
    return dist


class TestAgainstReplacedImplementations:
    def test_multi_source_bfs_bit_equal_to_per_node_concatenate(self):
        rng = np.random.default_rng(14)
        two_paths_and_isolated = build_graph([(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)], 10)
        sbm = generate_sbm(400, 600, 0.02, 0.001, 3)[0]
        cases = [(build_graph([], 1), [0]), (build_graph([], 5), [1, 3]),
                 (two_paths_and_isolated, [0]), (two_paths_and_isolated, [3]),
                 (two_paths_and_isolated, [2, 3, 9]),
                 (two_paths_and_isolated, range(10)),
                 (sbm, [0]), (sbm, rng.choice(1000, size=300, replace=False)),
                 (sbm, range(1000))]
        for _ in range(30):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.2)))
            cases.append((g, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
        for g, sources in cases:
            got = multi_source_bfs(g, sources)
            assert np.array_equal(got, reference_multi_source_bfs(g, sources))

    def test_normalize_adjacency_bit_equal_to_per_node_loop(self):
        rng = np.random.default_rng(11)
        clique_and_isolated = build_graph(
            [(i, j) for i in range(6) for j in range(i + 1, 6)], 9)
        graphs = [build_graph([], 1), build_graph([], 4), clique_and_isolated,
                  generate_sbm(30, 20, 1.0, 0.0, 0)[0],
                  generate_sbm(700, 800, 0.01, 0.002, 1)[0]]
        graphs += [random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0, 0.6)))
                   for _ in range(20)]
        for g in graphs:
            assert_bit_equal(normalize_adjacency(g), reference_normalize_adjacency(g),
                             ("indptr", "indices", "weights"))

    @pytest.mark.parametrize("gather_elems", [None, 5_000, 1])
    def test_matmul_bit_equal_to_256_column_blocks(self, monkeypatch, gather_elems):
        # None keeps the module's bound; 5,000 splits every width into blocks
        # of a few columns; 1 (below nnz) forces one column per block
        if gather_elems is not None:
            monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", gather_elems)
        rng = np.random.default_rng(12)
        adj = normalize_adjacency(hub_graph(rng, 300, 0.05))
        for width in (1, 7, 16, 255, 256, 300, 600):
            x = rng.normal(size=(300, width))
            assert np.array_equal(adj.matmul(x), reference_matmul(adj, x)), width
        x = rng.normal(size=300)
        assert np.array_equal(adj.matmul(x), reference_matmul(adj, x))

    def test_matmul_wide_operand_gathers_a_bounded_block(self):
        # reference_matmul peaks at 280 MB here: a (nnz x 256) gather and its weighted copy
        g, _ = generate_sbm(4000, 4000, 1.0 / 1000, 1.0 / 8000, 101)
        adj = normalize_adjacency(g)
        x = np.random.default_rng(13).normal(size=(8000, 500))
        out, peak = traced_peak(adj.matmul, x)
        assert peak < 2 * out.nbytes + 32 * 2**20


class TestRowBlockedMatmul:
    """The row-blocked matmul against the 256-column oracle, at the edges of
    its blocking: rows longer than the gather bound, width 1 and 1-D
    operands, and one row per block."""

    def test_hub_row_longer_than_the_gather_bound(self):
        rng = np.random.default_rng(15)
        adj = normalize_adjacency(hub_graph(rng, 2000, 0.002))
        longest = int(np.diff(adj.indptr).max())
        for width in (33, 64, 200):
            assert longest * width > graph_module._GATHER_ELEMS
            x = rng.normal(size=(2000, width))
            assert np.array_equal(adj.matmul(x), reference_matmul(adj, x)), width

    @pytest.mark.parametrize("gather_elems", [None, 1])
    def test_width_one_and_one_dimensional(self, monkeypatch, gather_elems):
        if gather_elems is not None:
            monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", gather_elems)
        rng = np.random.default_rng(16)
        for g in (hub_graph(rng, 700, 0.02), build_graph([], 3), random_graph(rng, 50, 0.1)):
            adj = normalize_adjacency(g)
            for x in (rng.normal(size=(g.num_nodes, 1)), rng.normal(size=g.num_nodes)):
                got = adj.matmul(x)
                assert got.shape == x.shape
                assert np.array_equal(got, reference_matmul(adj, x))

    def test_one_row_per_block_at_a_bound_of_one(self, monkeypatch):
        monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", 1)
        rng = np.random.default_rng(17)
        adj = normalize_adjacency(hub_graph(rng, 400, 0.05))
        longest = int(np.diff(adj.indptr).max())
        for width in (2, 16, 300):
            x = rng.normal(size=(400, width))
            out, peak = traced_peak(adj.matmul, x)
            assert np.array_equal(out, reference_matmul(adj, x)), width
            # one row's gather at a time, plus numpy's 64 KB ufunc buffer
            assert peak < out.nbytes + 8 * longest * width + 2**17, width

    def test_gather_holds_at_most_the_bound_or_the_longest_row(self):
        rng = np.random.default_rng(18)
        g, _ = generate_sbm(4000, 4000, 1.0 / 1000, 1.0 / 8000, 101)
        cases = [(normalize_adjacency(g), 500), (normalize_adjacency(g), 16),
                 (normalize_adjacency(hub_graph(rng, 2000, 0.002)), 64)]
        for adj, width in cases:
            longest = int(np.diff(adj.indptr).max())
            x = rng.normal(size=(adj.num_nodes, width))
            out, peak = traced_peak(adj.matmul, x)
            gather = 8 * max(graph_module._GATHER_ELEMS, longest * width)
            assert peak < out.nbytes + gather + 2**17, width


class TestMultiSourceBfs:
    def test_path_single_source(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert multi_source_bfs(g, {0}).tolist() == [0, 1, 2, 3, 4]

    def test_path_two_sources(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert multi_source_bfs(g, {0, 4}).tolist() == [0, 1, 2, 1, 0]

    def test_unreachable_is_inf(self):
        g = build_graph([(0, 1)], 3)
        assert multi_source_bfs(g, {0})[2] == np.inf

    def test_empty_sources_rejected(self):
        with pytest.raises(InputError):
            multi_source_bfs(build_graph([(0, 1)], 2), set())

    def test_matches_floyd_warshall(self):
        # exhaustive oracle over small random graphs, mixed density
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(2, 16))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            k = int(rng.integers(1, n + 1))
            sources = rng.choice(n, size=k, replace=False)
            expected = floyd_warshall(g)[sources].min(axis=0)
            assert np.array_equal(multi_source_bfs(g, sources), expected)


class TestPartitionUnlabeled:
    def test_path_example(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        p = partition_unlabeled(g, {0}, 2)
        assert p.near_unlabeled.tolist() == [1, 2]
        assert p.far_unlabeled.tolist() == [3, 4]

    def test_star_center_labeled(self):
        g = build_graph([(0, i) for i in range(1, 7)], 7)
        p = partition_unlabeled(g, {0}, 1)
        assert p.near_unlabeled.tolist() == list(range(1, 7))
        assert p.far_unlabeled.size == 0

    def test_delta_at_least_diameter_empties_far(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        p = partition_unlabeled(g, {0}, 6)
        assert p.far_unlabeled.size == 0

    def test_unreachable_goes_far(self):
        g = build_graph([(0, 1)], 4)
        p = partition_unlabeled(g, {0}, 3)
        assert set(p.far_unlabeled) == {2, 3}

    def test_disjoint_cover_property(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 20))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.5)))
            labeled = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            delta = int(rng.integers(1, 5))
            p = partition_unlabeled(g, labeled, delta)
            combined = np.concatenate([p.labeled, p.near_unlabeled, p.far_unlabeled])
            assert np.array_equal(np.sort(combined), np.arange(n))
            assert (p.min_dist[p.labeled] == 0).all()
            assert (p.min_dist[p.near_unlabeled] <= delta).all()
            assert (p.min_dist[p.far_unlabeled] > delta).all()

    def test_near_monotone_in_delta(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_graph(rng, 15, 0.2)
            labeled = rng.choice(15, size=2, replace=False)
            sizes = [partition_unlabeled(g, labeled, d).near_unlabeled.size
                     for d in range(1, 7)]
            assert sizes == sorted(sizes)

    def test_invalid_inputs(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(InputError):
            partition_unlabeled(g, set(), 1)
        with pytest.raises(InputError):
            partition_unlabeled(g, {0}, 0)


def reference_generate_sbm(n_pos, n_neg, p_intra, p_inter, seed):
    """The all-pairs draw that generate_sbm replaced, kept verbatim; graph only."""
    n = n_pos + n_neg
    rng = np.random.Generator(np.random.Philox(seed))
    iu, ju = np.triu_indices(n, k=1)
    same = (iu < n_pos) == (ju < n_pos)
    p_edge = np.where(same, p_intra, p_inter)
    keep = rng.random(iu.size) < p_edge
    return build_graph(np.column_stack([iu[keep], ju[keep]]), n)


class TestGenerateSbm:
    def test_degenerate_probabilities_give_cliques(self):
        g, labels = generate_sbm(50, 50, 1.0, 0.0, 0)
        assert g.num_edges == 2 * (50 * 49 // 2)
        assert labels.sum() == 50
        src, dst = g.directed_edges()
        assert ((src < 50) == (dst < 50)).all()

    def test_equal_probabilities_half_homophily(self):
        g, _ = generate_sbm(150, 150, 0.1, 0.1, 1)
        src, dst = g.directed_edges()
        intra = ((src < 150) == (dst < 150)).mean()
        assert abs(intra - 0.5) < 0.05

    def test_intra_count_within_three_sigma(self):
        n = 200
        g, _ = generate_sbm(n, n, 0.05, 0.005, 0)
        src, dst = g.directed_edges()
        intra = int(((src < n) == (dst < n)).sum()) // 2
        inter = g.num_edges - intra
        pairs_intra = 2 * (n * (n - 1) // 2)
        pairs_inter = n * n
        for count, pairs, p in ((intra, pairs_intra, 0.05), (inter, pairs_inter, 0.005)):
            sigma = np.sqrt(pairs * p * (1.0 - p))
            assert abs(count - pairs * p) <= 3.0 * sigma

    def test_deterministic_given_seed(self):
        g1, l1 = generate_sbm(60, 40, 0.08, 0.01, 42)
        g2, l2 = generate_sbm(60, 40, 0.08, 0.01, 42)
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(l1, l2)
        g3, _ = generate_sbm(60, 40, 0.08, 0.01, 43)
        assert not np.array_equal(g1.indices, g3.indices)

    @pytest.mark.parametrize("args", [
        (50, 50, 1.0, 0.0, 0),      # p = 1 within blocks, p = 0 between
        (30, 45, 0.0, 0.0, 3),      # no edges
        (20, 25, 1.0, 1.0, 4),      # complete graph
        (1, 1, 0.5, 0.5, 9),        # a single pair
        (60, 40, 0.08, 0.01, 42),
        (37, 1463, 0.01, 0.003, 5),  # unequal blocks, 1.12M pairs: two chunks
        (1000, 1000, 0.004, 0.004, 6),  # two chunks, p_inter = p_intra
    ])
    def test_bit_equal_to_all_pairs_draw(self, args):
        assert_bit_equal(generate_sbm(*args)[0], reference_generate_sbm(*args))

    def test_bit_equal_with_chunks_that_split_rows(self, monkeypatch):
        # 4,950 pairs in chunks of 97: boundaries fall mid-row, last chunk short
        monkeypatch.setattr("pugraph.graph._PAIR_CHUNK", 97)
        for args in ((55, 45, 0.2, 0.05, 8), (70, 30, 1.0, 0.0, 2)):
            assert_bit_equal(generate_sbm(*args)[0], reference_generate_sbm(*args))

    def test_memory_is_linear_in_nodes_and_edges(self):
        # reference_generate_sbm allocates about 1 GB of all-pairs arrays here
        _, peak = traced_peak(generate_sbm, 4000, 4000, 1.0 / 1000, 1.0 / 8000, 101)
        assert peak < 64 * 2**20

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            generate_sbm(10, 10, 1.5, 0.1, 0)
        with pytest.raises(InputError):
            generate_sbm(10, 10, 0.1, 0.5, 0)
