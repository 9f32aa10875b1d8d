import re

import numpy as np
import pytest

from pugraph import graph as graph_module
from pugraph.errors import InputError
from pugraph.graph import (CSRMatrix, NormalizedAdjacency, build_graph, generate_sbm,
                           multi_source_bfs, normalize_adjacency,
                           partition_unlabeled)

from conftest import (dense_adjacency, floyd_warshall, has_edge, neighbors,
                      random_graph, sparse_features, traced_peak)


def assert_bit_equal(a, b, arrays=("indptr", "indices")):
    """Same node count and the same dtype and values in each named array."""
    assert a.num_nodes == b.num_nodes
    for name in arrays:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def hub_graph(rng, n, p):
    """Random graph plus a hub joined to most nodes and a 12-clique, so rows
    run from one entry to most of the graph."""
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
        assert list(neighbors(g, 0)) == [1]

    def test_empty_edge_list(self):
        g = build_graph([], 2)
        assert g.num_edges == 0
        assert list(g.degrees) == [0, 0]

    def test_path_graph(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert list(g.degrees) == [1, 2, 2, 2, 1]

    def test_array_list_and_generator_give_bit_equal_graphs(self):
        graph, _ = generate_sbm(60, 40, 0.2, 0.02, 3)
        src, dst = graph.directed_edges()
        pairs = np.column_stack([src, dst])
        pairs = np.concatenate([pairs, pairs[:5, ::-1], [[7, 7]]])  # duplicates, a loop
        built = [build_graph(pairs, 100),
                 build_graph([tuple(p) for p in pairs.tolist()], 100),
                 build_graph((tuple(p) for p in pairs.tolist()), 100)]
        for other in built:
            assert np.array_equal(other.indptr, graph.indptr)
            assert np.array_equal(other.indices, graph.indices)
            assert other.indptr.dtype == other.indices.dtype == np.int64

    def test_no_nodes_rejected(self):
        with pytest.raises(InputError, match="num_nodes must be >= 1, got 0"):
            build_graph([], 0)

    def test_out_of_range_edge_names_pair(self):
        with pytest.raises(InputError, match=r"\(1, 5\)"):
            build_graph([(0, 1), (1, 5)], 3)

    def test_symmetry_and_sorted_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, 12, 0.3)
            for i in range(g.num_nodes):
                row = neighbors(g, i)
                assert (np.diff(row) > 0).all()
                for j in row:
                    assert has_edge(g, j, i)


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        na = normalize_adjacency(build_graph([], 1))
        assert dense_adjacency(na).tolist() == [[1.0]]

    def test_single_edge_all_half(self):
        na = normalize_adjacency(build_graph([(0, 1)], 2))
        assert np.array_equal(dense_adjacency(na), np.full((2, 2), 0.5))

    def test_path_weights(self):
        d = dense_adjacency(normalize_adjacency(build_graph([(0, 1), (1, 2)], 3)))
        assert d[0, 0] == 0.5
        assert d[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)
        assert d[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = dense_adjacency(normalize_adjacency(random_graph(rng, 15, 0.3)))
            assert np.array_equal(d, d.T)

    def test_row_nnz_is_degree_plus_one(self):
        g = random_graph(np.random.default_rng(2), 20, 0.2)
        na = normalize_adjacency(g)
        assert np.array_equal(np.diff(na.indptr), g.degrees + 1)

    def test_matmul_rejects_an_operand_of_another_row_count(self):
        na = normalize_adjacency(build_graph([(0, 1)], 3))
        with pytest.raises(InputError, match="dense operand has 2 rows, the matrix has 3 columns"):
            na.matmul(np.ones((2, 4)))

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)])
    def test_matmul_rejects_an_operand_that_is_not_2d(self, shape):
        # a 1-D operand of the right length once failed with an IndexError
        na = normalize_adjacency(build_graph([(0, 1)], 3))
        with pytest.raises(InputError, match=re.escape(f"dense operand has shape {shape},")):
            na.matmul(np.ones(shape))

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, 13, 0.25)
            na = normalize_adjacency(g)
            x = rng.normal(size=(13, 7))
            assert np.allclose(na.matmul(x), dense_adjacency(na) @ x, atol=1e-12)


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
        nbrs = neighbors(g, i)
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
    loop is kept verbatim. It sums in np.add.reduceat's pairwise order, so
    matmul matches it within a few ulp of |A| |x|, not bit for bit."""
    out = np.empty((adj.num_nodes, dense.shape[1]), dtype=np.float64)
    starts = adj.indptr[:-1]
    for lo in range(0, dense.shape[1], block):
        hi = min(lo + block, dense.shape[1])
        prod = adj.weights[:, None] * dense[adj.indices, lo:hi]
        out[:, lo:hi] = np.add.reduceat(prod, starts, axis=0)
    return out


def sequential_matmul(adj, dense):
    """matmul's contract as a plain loop: each row summed in CSR entry order,
    from +0.0, one weighted term at a time."""
    out = np.empty((adj.indptr.size - 1, dense.shape[1]))
    for row in range(out.shape[0]):
        acc = np.zeros(dense.shape[1])
        for entry in range(adj.indptr[row], adj.indptr[row + 1]):
            acc = acc + adj.weights[entry] * dense[adj.indices[entry]]
        out[row] = acc
    return out


def assert_within_ulps_of_reduceat(adj, dense, got, ulps=8):
    """|got - reference_matmul| <= ulps x eps x (|A| |x|), entry by entry."""
    magnitude = CSRMatrix(adj.num_cols, adj.indptr, adj.indices,
                          np.abs(adj.weights)).matmul(np.abs(dense))
    error = np.abs(got - reference_matmul(adj, dense))
    assert np.all(error <= ulps * np.finfo(np.float64).eps * magnitude)


def assert_same_bits(got, expected, label):
    # array_equal counts -0.0 == +0.0, so compare the sign bits too
    assert np.array_equal(got, expected), label
    assert np.array_equal(np.signbit(got), np.signbit(expected)), label


def layouts(rng, x):
    """x as a C-ordered, a Fortran-ordered and a column-sliced operand."""
    padded = rng.normal(size=(x.shape[0], 2 * x.shape[1] + 1))
    padded[:, 1::2] = x
    return (("C", x), ("F", np.asfortranarray(x)), ("sliced", padded[:, 1::2]))


def reference_multi_source_bfs(g, sources):
    """The per-node concatenate BFS that the CSR gather replaced, kept verbatim."""
    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    dist = np.full(g.num_nodes, np.inf)
    dist[src] = 0.0
    frontier = src
    hop = 0.0
    while frontier.size:
        hop += 1.0
        cand = np.unique(np.concatenate([neighbors(g, v) for v in frontier]))
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
    def test_matmul_bit_equal_to_a_sequential_row_loop(self, monkeypatch, gather_elems):
        # None keeps the module's bound; 5,000 splits every group into blocks
        # of a few rows; 1 forces one row per block
        if gather_elems is not None:
            monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", gather_elems)
        rng = np.random.default_rng(12)
        adj = normalize_adjacency(hub_graph(rng, 300, 0.05))
        for width in (2, 7, 16, 255, 256, 300, 600):
            x = rng.normal(size=(300, width))
            expected = sequential_matmul(adj, x)
            # the gather reads C-ordered, Fortran-ordered and column-sliced operands
            for layout, operand in layouts(rng, x):
                assert_same_bits(adj.matmul(operand), expected, (width, layout))
            assert_within_ulps_of_reduceat(adj, x, expected)

    def test_matmul_wide_operand_gathers_a_bounded_block(self):
        # reference_matmul peaks at 280 MB here: a (nnz x 256) gather and its weighted copy
        g, _ = generate_sbm(4000, 4000, 1.0 / 1000, 1.0 / 8000, 101)
        adj = normalize_adjacency(g)
        x = np.random.default_rng(13).normal(size=(8000, 500))
        out, peak = traced_peak(adj.matmul, x)
        assert peak < 2 * out.nbytes + 32 * 2**20


class TestRowBlockedMatmul:
    """The row-blocked matmul against the sequential row loop, at the edges
    of its blocking: rows longer than the gather bound, (n, 1) operands, one
    row per block and every row length from 1 to 1,001."""

    def test_hub_row_longer_than_the_gather_bound(self):
        rng = np.random.default_rng(15)
        adj = normalize_adjacency(hub_graph(rng, 2000, 0.002))
        longest = int(np.diff(adj.indptr).max())
        for width in (33, 64, 200):
            assert longest * width > graph_module._GATHER_ELEMS
            x = rng.normal(size=(2000, width))
            assert_same_bits(adj.matmul(x), sequential_matmul(adj, x), width)

    def test_width_one_is_the_same_at_every_bound_and_layout(self, monkeypatch):
        # at width 1 einsum sums in another order than the row loop; the bits
        # still depend on neither the block size nor the layout
        rng = np.random.default_rng(16)
        for g in (hub_graph(rng, 700, 0.02), build_graph([], 3), random_graph(rng, 50, 0.1)):
            adj = normalize_adjacency(g)
            x = rng.normal(size=(g.num_nodes, 1))
            expected = adj.matmul(x)
            assert expected.shape == x.shape
            assert_within_ulps_of_reduceat(adj, x, expected)
            for gather_elems in (5_000, 1):
                monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", gather_elems)
                for layout, operand in layouts(rng, x):
                    assert_same_bits(adj.matmul(operand), expected, (gather_elems, layout))
            monkeypatch.undo()

    def test_one_row_per_block_at_a_bound_of_one(self, monkeypatch):
        monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", 1)
        rng = np.random.default_rng(17)
        adj = normalize_adjacency(hub_graph(rng, 400, 0.05))
        longest = int(np.diff(adj.indptr).max())
        for width in (2, 16, 300):
            x = rng.normal(size=(400, width))
            out, peak = traced_peak(adj.matmul, x)
            assert_same_bits(out, sequential_matmul(adj, x), width)
            # one row's gather at a time, plus numpy's 64 KB ufunc buffer
            assert peak < out.nbytes + 8 * longest * width + 2**17, width

    @pytest.mark.parametrize("gather_elems", [None, 5_000, 1])
    def test_bit_equal_to_a_sequential_sum_at_every_row_length(self, monkeypatch,
                                                               gather_elems):
        # rows of 1 to 40, 120 to 300 and 1,001 entries, across numpy's
        # pairwise-summation thresholds of 8 and 128 that the kernel once replayed
        if gather_elems is not None:
            monkeypatch.setattr("pugraph.graph._GATHER_ELEMS", gather_elems)
        rng = np.random.default_rng(19)
        lengths = np.concatenate([[1, 1, 1], np.arange(2, 41), np.arange(120, 137),
                                  rng.integers(137, 301, size=4), [1001]])
        n = lengths.size
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = rng.integers(0, n, size=indptr[-1])
        adj = NormalizedAdjacency(n, indptr, indices, rng.uniform(0.01, 1.0, indptr[-1]))
        all_negative_zero = indices[indptr[20]:indptr[21]]  # the terms of row 20
        for width in (1, 2, 16, 500, 600):
            x = np.maximum(rng.normal(size=(n, width)), 0.0)  # ReLU zeros are +0.0
            x[::3] *= -1.0  # and -0.0 in these rows
            x[rng.random(n) < 0.2] = 0.0
            x[all_negative_zero] = -0.0
            expected = adj.matmul(x) if width == 1 else sequential_matmul(adj, x)
            for layout, operand in layouts(rng, x):
                assert_same_bits(adj.matmul(operand), expected, (width, layout))
            assert_within_ulps_of_reduceat(adj, x, expected)
            # the sum starts at +0.0, and +0.0 + -0.0 is +0.0, so a row whose
            # every term is -0.0 gives +0.0 (reduceat gave -0.0)
            assert expected[20].tobytes() == bytes(8 * width)

    def test_a_constructed_adjacency_holds_its_plan(self):
        # the plan is built with the object, not by the first matmul: each row
        # once, in the group of its entry count, with its CSR columns and weights
        adj = reference_normalize_adjacency(hub_graph(np.random.default_rng(20), 300, 0.05))
        rows = np.concatenate([group[0] for group in adj._groups])
        assert np.array_equal(np.sort(rows), np.arange(adj.num_nodes))
        for group_rows, cols, weights in adj._groups:
            assert cols.shape == weights.shape == (cols.shape[0], group_rows.size)
            for row, row_cols, row_weights in zip(group_rows, cols.T, weights.T):
                lo, hi = adj.indptr[row], adj.indptr[row + 1]
                assert np.array_equal(row_cols, adj.indices[lo:hi])
                assert np.array_equal(row_weights, adj.weights[lo:hi])

    def test_a_row_without_entries_is_rejected_when_built(self):
        # every row of A_hat holds at least its self-loop
        with pytest.raises(InputError, match="row 1 "):
            NormalizedAdjacency(3, np.array([0, 1, 1, 2]), np.array([0, 2]),
                                np.array([1.0, 2.0]))

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


class TestCSRMatrix:
    """The rectangular sparse matrix that sparse features train through; its
    matmul runs NormalizedAdjacency's plan, and an empty row gives zeros."""

    def test_from_dense_keeps_each_nonzero_in_row_order(self):
        x = sparse_features(np.random.default_rng(30), 9, 7, 0.3)
        x[4, 2] = np.nan  # nonzero, so kept
        x[5, 1] = -0.0  # zero, so dropped
        m = CSRMatrix.from_dense(x)
        assert m.shape == (9, 7) and m.indptr[0] == 0 and m.indptr[1] == m.indptr[0]
        rows = np.repeat(np.arange(9), np.diff(m.indptr))
        dense = np.zeros((9, 7))
        dense[rows, m.indices] = m.weights
        np.testing.assert_array_equal(dense, np.where(x == 0.0, 0.0, x))
        for r in range(9):
            assert np.all(np.diff(m.indices[m.indptr[r]:m.indptr[r + 1]]) > 0)

    def test_transpose_is_the_csr_of_the_transpose(self):
        x = sparse_features(np.random.default_rng(31), 40, 25, 0.15)
        t, expected = CSRMatrix.from_dense(x).transpose(), CSRMatrix.from_dense(x.T)
        assert t.shape == (25, 40)
        for name in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(t, name), getattr(expected, name)), name

    def test_products_match_the_dense_ones_and_empty_rows_are_exact_zeros(self):
        # row 0 of x is empty, and so is the last row of its transpose
        rng = np.random.default_rng(32)
        x = sparse_features(rng, 300, 120, 0.05)
        m = CSRMatrix.from_dense(x)
        for matrix, dense in ((m, x), (m.transpose(), x.T)):
            empty = np.flatnonzero(np.diff(matrix.indptr) == 0)
            assert empty.size
            for width in (1, 16, 90):
                operand = rng.normal(size=(dense.shape[1], width))
                got = matrix.matmul(operand)
                np.testing.assert_allclose(got, dense @ operand, rtol=1e-12, atol=1e-14)
                assert got[empty].tobytes() == bytes(8 * empty.size * width)  # +0.0 each

    def test_an_all_zero_matrix_gives_zeros(self):
        m = CSRMatrix.from_dense(np.zeros((4, 3)))
        assert m.indices.size == 0
        assert m.matmul(np.ones((3, 2))).tobytes() == bytes(8 * 4 * 2)

    def test_an_operand_of_the_wrong_height_is_rejected(self):
        with pytest.raises(InputError, match="dense operand has 4 rows, the matrix has 3 columns"):
            CSRMatrix.from_dense(np.eye(2, 3)).matmul(np.ones((4, 2)))


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
        for out_of_range in ({2}, {-1}):
            with pytest.raises(InputError):
                partition_unlabeled(g, out_of_range, 1)

    def test_repeated_unsorted_labeled_ids_come_back_sorted_and_unique(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 6)
        p = partition_unlabeled(g, [4, 0, 4, 0, 4], 1)
        assert p.labeled.tolist() == [0, 4]
        assert p.labeled.dtype == np.int64
        assert p.near_unlabeled.tolist() == [1, 3]
        assert p.far_unlabeled.tolist() == [2, 5]


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
        (50, 50, 1.0, 0.0, 0),        # two cliques, no edge between them
        (60, 40, 0.08, 0.01, 42),
        (55, 45, 0.2, 0.05, 8),
        (1000, 1000, 0.004, 0.004, 6),  # p_inter = p_intra
        (37, 1463, 0.01, 0.003, 5),   # unequal blocks
    ])
    @pytest.mark.parametrize("chunk", [7, 97])
    def test_bit_equal_whatever_the_batch_size(self, monkeypatch, args, chunk):
        default = generate_sbm(*args)[0]
        monkeypatch.setattr("pugraph.graph._PAIR_CHUNK", chunk)
        assert_bit_equal(generate_sbm(*args)[0], default)

    def test_p_intra_zero_gives_no_edges(self):
        for seed in range(5):
            g, _ = generate_sbm(30, 45, 0.0, 0.0, seed)
            assert g.num_edges == 0

    def test_p_one_gives_the_complete_graph(self):
        n = 45
        g, _ = generate_sbm(20, 25, 1.0, 1.0, 4)
        assert_bit_equal(g, build_graph(np.column_stack(np.triu_indices(n, k=1)), n))

    def test_one_pair_at_p_one_gives_its_edge(self):
        g, labels = generate_sbm(1, 1, 1.0, 1.0, 0)
        assert g.indptr.tolist() == [0, 1, 2]
        assert g.indices.tolist() == [1, 0]
        assert labels.tolist() == [1, 0]

    @staticmethod
    def pair_edges(n_pos, n_neg, p_intra, p_inter, seeds):
        """(seeds, pairs) bool matrix: whether each upper-triangle pair, in
        row-major pair-index order, is an edge of the graph of each seed."""
        n = n_pos + n_neg
        iu, ju = np.triu_indices(n, k=1)
        hits = np.zeros((len(seeds), iu.size), dtype=bool)
        for row, seed in enumerate(seeds):
            g, _ = generate_sbm(n_pos, n_neg, p_intra, p_inter, seed)
            src, dst = g.directed_edges()
            adj = np.zeros((n, n), dtype=bool)
            adj[src, dst] = True
            hits[row] = adj[iu, ju]
        return hits, iu, ju

    def test_each_pair_is_an_edge_at_its_own_rate(self):
        # 55 pairs over 4,000 seeds; a binomial count is within 4.5 sigma of
        # its mean (a two-sided miss has probability 7e-6 per pair)
        seeds = range(4000)
        hits, iu, ju = self.pair_edges(6, 5, 0.3, 0.1, seeds)
        assert (iu[0], ju[0]) == (0, 1) and (iu[-1], ju[-1]) == (9, 10)
        p = np.where((iu < 6) == (ju < 6), 0.3, 0.1)
        sigma = np.sqrt(len(seeds) * p * (1.0 - p))
        z = (hits.sum(axis=0) - len(seeds) * p) / sigma
        assert np.abs(z).max() <= 4.5

    def test_consecutive_pairs_are_both_edges_at_rate_p_squared(self):
        # a gap that is off by one would make pairs t and t + 1 both edges
        # never, or at a rate other than p^2; the pairs (t, t + 1) with t even
        # are disjoint, and so are those with t odd, so each count is binomial
        p, seeds = 0.3, range(2000)
        hits, _, _ = self.pair_edges(5, 5, p, p, seeds)
        both = hits[:, :-1] & hits[:, 1:]
        for start in (0, 1):
            trials = both[:, start::2].size
            sigma = np.sqrt(trials * p * p * (1.0 - p * p))
            assert abs(both[:, start::2].sum() - trials * p * p) <= 4.5 * sigma

    def test_pubmed_sized_memory(self):
        # 19,717 nodes, 194M pairs, about 44k edges: only O(n + E) arrays
        _, peak = traced_peak(generate_sbm, 9859, 9858, 8 / 19717, 1 / 19717, 11)
        assert peak < 16 * 2**20

    def test_memory_is_linear_in_nodes_and_edges(self):
        # reference_generate_sbm allocates about 1 GB of all-pairs arrays here
        _, peak = traced_peak(generate_sbm, 4000, 4000, 1.0 / 1000, 1.0 / 8000, 101)
        assert peak < 64 * 2**20

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            generate_sbm(10, 10, 1.5, 0.1, 0)
        with pytest.raises(InputError):
            generate_sbm(10, 10, 0.1, 0.5, 0)

    @pytest.mark.parametrize("n_pos, n_neg", [(0, 10), (10, 0)])
    def test_an_empty_block_is_rejected(self, n_pos, n_neg):
        with pytest.raises(InputError, match="both blocks need at least one node"):
            generate_sbm(n_pos, n_neg, 0.1, 0.05, 0)
