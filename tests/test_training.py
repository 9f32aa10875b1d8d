import logging
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy import stats

from pugraph import train as train_module
from pugraph.data import build_dataset
from pugraph.errors import ConfigError, InputError, NumericError, TrainingAbort
from pugraph.graph import build_graph, normalize_adjacency
from pugraph.losses import LossConfig, distpu_loss
from pugraph.nn import (Y_EPS, SparseFeatures, forward_from_propagated, gcn_backward,
                        init_params, save_checkpoint)
from pugraph.train import SPARSE_DENSITY, Adam, NegativeSampler, TrainConfig, train

from conftest import citation_manifest, random_graph, save_jsonl, small_manifest, traced_peak


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        params = init_params(5, 0)
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(learning_rate=0.1, weight_decay=0.0)
        for _ in range(3):
            params = opt.step(params, zero_grads(params))
        for name in params:
            assert np.array_equal(params[name], before[name])

    def test_first_step_magnitude_is_learning_rate(self):
        params = init_params(5, 0)
        w0 = params["W1"].copy()
        grads = zero_grads(params)
        grads["W1"][...] = 3.7  # constant gradient
        params = Adam(learning_rate=0.01).step(params, grads)
        delta = np.abs(params["W1"] - w0)
        assert np.allclose(delta, 0.01, atol=1e-6)

    def test_opposite_gradients_damp_second_step(self):
        # oracle: evaluate the Adam recurrences by hand for g then -g
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 2.0
        m1, v1 = (1 - b1) * g, (1 - b2) * g * g
        step1 = lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        m2, v2 = b1 * m1 + (1 - b1) * (-g), b2 * v1 + (1 - b2) * g * g
        step2 = lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)
        assert abs(step2) < abs(step1)

        params = init_params(5, 0)
        w0 = params["W1"][0, 0]
        opt = Adam(learning_rate=lr)
        grads = zero_grads(params)
        grads["W1"][0, 0] = g
        params = opt.step(params, grads)
        w1 = params["W1"][0, 0]
        grads = zero_grads(params)
        grads["W1"][0, 0] = -g
        params = opt.step(params, grads)
        w2 = params["W1"][0, 0]
        assert w1 - w0 == pytest.approx(-step1, abs=1e-12)
        assert w2 - w1 == pytest.approx(-step2, abs=1e-12)

    def test_weight_decay_skips_biases(self):
        params = init_params(5, 0)
        params["b1"][...] = 1.0
        params["b_head"][...] = 2.0
        params = Adam(learning_rate=0.1, weight_decay=0.5).step(params, zero_grads(params))
        assert (params["b1"] == 1.0).all()
        assert params["b_head"] == 2.0
        # weights decay even with zero gradient
        params2 = init_params(5, 0)
        w0 = params2["W1"].copy()
        params2 = Adam(learning_rate=0.1, weight_decay=0.5).step(params2, zero_grads(params2))
        assert np.allclose(params2["W1"], w0 * (1.0 - 0.1 * 0.5), atol=1e-12)

    def test_step_returns_new_arrays_and_writes_no_input(self):
        rng = np.random.default_rng(7)
        params = init_params(5, 0)
        opt = Adam(learning_rate=0.1, weight_decay=0.5)
        for _ in range(3):  # the later steps start from stepped parameters
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            saved = [{k: v.tobytes() for k, v in d.items()} for d in (params, grads)]
            stepped = opt.step(params, grads)
            assert [{k: v.tobytes() for k, v in d.items()} for d in (params, grads)] == saved
            assert list(stepped) == list(params)
            for name, new in stepped.items():
                assert type(new) is np.ndarray and new.dtype == np.float64
                assert new.shape == params[name].shape
                assert not np.shares_memory(new, params[name])
                assert not np.shares_memory(new, grads[name])
                assert not np.array_equal(new, params[name])
            params = stepped
        assert params["b_head"].shape == ()
        params["b_head"].reshape(-1)[0] = 1.5  # a 0-d array, so a view writes through
        assert params["b_head"] == 1.5


class ReferenceRejectionSampler:
    """The rejection loop NegativeSampler._draw replaced, kept verbatim."""

    def __init__(self, graph, seed):
        self.graph = graph
        self.rng = np.random.default_rng(seed)
        src, dst = graph.directed_edges()
        self._edge_keys = src * graph.num_nodes + dst

    def _draw(self, queries: np.ndarray) -> np.ndarray:
        n = self.graph.num_nodes
        out = np.empty(queries.size, dtype=np.int64)
        pending = np.arange(queries.size)
        while pending.size:
            cand = self.rng.integers(0, n, size=pending.size)
            q = queries[pending]
            if self._edge_keys.size:
                keys = q * n + cand
                pos = np.searchsorted(self._edge_keys, keys)
                pos_c = np.minimum(pos, self._edge_keys.size - 1)
                is_neighbor = self._edge_keys[pos_c] == keys
            else:
                is_neighbor = np.zeros(pending.size, dtype=bool)
            ok = (cand != q) & ~is_neighbor
            out[pending[ok]] = cand[ok]
            pending = pending[~ok]
        return out


def node_negatives(sampler, node, k):
    """k draws for one node, through edge_negatives with a one-source array."""
    one = np.array([node])
    return sampler.edge_negatives(one, k)[0]


def searchsorted_mask(graph, queries, cand):
    """The plain rejection mask: self draws plus a searchsorted over every
    edge key. The hashed prefilter must reproduce it exactly."""
    src, dst = graph.directed_edges()
    edge_keys = src * graph.num_nodes + dst
    bad = cand == queries
    if edge_keys.size:
        keys = queries * graph.num_nodes + cand
        pos = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
        bad |= edge_keys[pos] == keys
    return bad


class TestHashedPrefilter:
    def test_rejected_equals_searchsorted_mask(self):
        rng = np.random.default_rng(24)
        path_and_isolated = build_graph([(0, 1), (1, 2), (2, 3)], 8)  # 4..7 isolated
        graphs = [build_graph([], 1), build_graph([], 6), path_and_isolated,
                  build_graph([(0, i) for i in range(1, 40)], 41),
                  random_graph(rng, 64, 0.2),  # keys src * 64 + dst: bits line up
                  build_graph(rng.integers(0, 1024, size=(6000, 2)), 1024),
                  random_graph(rng, 300, 0.05)]
        for g in graphs:
            sampler = NegativeSampler(g, 0)
            n = g.num_nodes
            src, dst = g.directed_edges()
            nodes = np.arange(n, dtype=np.int64)
            pairs = [(src, dst), (dst, src), (nodes, nodes),
                     (np.repeat(nodes, n), np.tile(nodes, n)),
                     (rng.integers(0, n, size=5000), rng.integers(0, n, size=5000))]
            for queries, cand in pairs:
                q, c = queries.copy(), cand.copy()
                got = sampler._rejected(queries, cand)
                assert np.array_equal(got, searchsorted_mask(g, q, c))
                assert np.array_equal(queries, q) and np.array_equal(cand, c)
            assert sampler._rejected(src, dst).all()
            assert sampler._rejected(nodes, nodes).all()

    def test_table_size_and_exact_check_share(self):
        rng = np.random.default_rng(25)
        g = build_graph(rng.integers(0, 2708, size=(5429, 2)), 2708)  # Cora-sized
        sampler = NegativeSampler(g, 0)
        edges = g.indices.size
        assert sampler._marked.size == 2 ** max(10, int(np.ceil(np.log2(32 * edges))))
        assert 32 * edges <= sampler._marked.size < 64 * edges
        src, _ = g.directed_edges()
        sampler.edge_negatives(src, 50)
        counts = sampler.counts
        # the edges plus at most about 1/32 of the other draws reach the exact check
        assert counts["exact_checks"] < 0.05 * counts["draws"]
        assert counts["draws"] >= 50 * src.size

    def test_every_draw_checked_when_the_table_is_full(self, monkeypatch):
        monkeypatch.setattr("pugraph.train._SLOTS_PER_EDGE", 2.0 ** -20)
        rng = np.random.default_rng(26)
        g = random_graph(rng, 300, 0.3)  # about 27k directed edges in 1,024 slots
        sampler, ref = NegativeSampler(g, 5), ReferenceRejectionSampler(g, 5)
        assert sampler._marked.size == 1024 and sampler._marked.all()
        src, _ = g.directed_edges()
        want = ref._draw(np.repeat(src, 7)).reshape(src.size, 7)
        assert np.array_equal(sampler.edge_negatives(src, 7), want)
        assert sampler.counts["exact_checks"] == sampler.counts["draws"]
        queries, cand = rng.integers(0, 300, size=(2, 5000))
        assert np.array_equal(sampler._rejected(queries, cand),
                              searchsorted_mask(g, queries, cand))

    def test_sampler_memory_is_linear_in_edges(self):
        rng = np.random.default_rng(23)
        n = 20_000
        g = build_graph(rng.integers(0, n, size=(25_000, 2)), n)  # about 50k directed edges
        sampler, peak = traced_peak(NegativeSampler, g, 0)
        # a table of 32-64 bytes per directed edge, the int64 edge keys and
        # a hashed copy; an n x n bitmap would take n^2 / 8 = 50 MB
        assert peak < 128 * g.indices.size
        assert peak < n * n / 8 / 8

    def test_edge_negatives_tests_its_draws_in_blocks(self):
        # the first rejection test runs over blocks of whole edges, so no
        # array but the output is E * k long; a whole-array test peaks at
        # about 3.3x the output
        rng = np.random.default_rng(27)
        g = build_graph(rng.integers(0, 2708, size=(5429, 2)), 2708)  # Cora-sized
        sampler = NegativeSampler(g, 0)
        src, _ = g.directed_edges()
        draws, peak = traced_peak(sampler.edge_negatives, src, 50)
        assert draws.shape == (src.size, 50)
        assert peak < 2 * draws.nbytes


class TestNegativeSampler:
    def test_draw_stream_bit_equal_to_rejection_loop(self):
        rng = np.random.default_rng(21)
        star = build_graph([(0, i) for i in range(1, 40)], 41)  # leaves reject often
        # node 0 has one non-neighbor: its draws take many rounds
        near_complete = build_graph(
            [(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) != (0, 11)], 12)
        graphs = [star, near_complete, build_graph([], 6), random_graph(rng, 80, 0.1)]
        for g in graphs:
            new, ref = NegativeSampler(g, 5), ReferenceRejectionSampler(g, 5)
            src, dst = g.directed_edges()
            ok = new.non_neighbor_counts[src] > 0
            src = src[ok]
            # consecutive calls continue one stream
            for k in (1, 7, 30):
                want = ref._draw(np.repeat(src, k)).reshape(src.size, k)
                assert np.array_equal(new.edge_negatives(src, k), want)
            for node in (0, g.num_nodes - 1):
                want = ref._draw(np.full(200, node, dtype=np.int64))
                assert np.array_equal(node_negatives(new, node, 200), want)

    def test_edge_negatives_memory_is_a_few_times_its_output(self):
        # the reference rejection loop peaks at about 10x the returned array
        rng = np.random.default_rng(22)
        g = build_graph(rng.integers(0, 5000, size=(12_500, 2)), 5000)
        sampler = NegativeSampler(g, 0)
        src, _ = g.directed_edges()
        draws, peak = traced_peak(sampler.edge_negatives, src, 50)
        assert peak < 6 * draws.nbytes

    def test_star_leaf_excludes_center_and_self(self):
        g = build_graph([(0, i) for i in range(1, 6)], 6)
        sampler = NegativeSampler(g, 0)
        draws = node_negatives(sampler, 1, 500)
        assert set(np.unique(draws)).issubset({2, 3, 4, 5})

    def test_uniform_by_chi_squared(self):
        g = build_graph([(i, (i + 1) % 8) for i in range(8)], 8)  # 8-cycle
        sampler = NegativeSampler(g, 123)
        draws = node_negatives(sampler, 0, 1_000_000)
        support = np.setdiff1d(np.arange(8), [0, 1, 7])
        counts = np.array([(draws == v).sum() for v in support])
        assert counts.sum() == 1_000_000
        expected = 1_000_000 / support.size
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # level 1 - 1e-6: false-alarm rate 1e-6; power 0.97 against a 1.5% bias on one node
        assert chi2 < stats.chi2.ppf(1.0 - 1e-6, support.size - 1)

    def test_deterministic_given_seed_and_queries(self):
        g = build_graph([(i, (i + 1) % 10) for i in range(10)], 10)
        a, b = NegativeSampler(g, 9), NegativeSampler(g, 9)
        queries = [(3, 4), (7, 2), (3, 8)]
        for node, k in queries:
            assert np.array_equal(node_negatives(a, node, k), node_negatives(b, node, k))
        src, _ = g.directed_edges()
        assert np.array_equal(a.edge_negatives(src, 5),
                              b.edge_negatives(src, 5))

    def test_no_non_neighbors_raises(self):
        g = build_graph([(0, 1), (0, 2), (1, 2)], 3)  # complete
        sampler = NegativeSampler(g, 0)
        with pytest.raises(InputError):
            node_negatives(sampler, 0, 3)

    def test_counts_field(self):
        g = build_graph([(0, 1), (1, 2)], 4)
        sampler = NegativeSampler(g, 0)
        assert sampler.non_neighbor_counts.tolist() == [2, 1, 2, 3]


class TestTrain:
    def test_same_seed_identical_runs(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=25, seed=3,
                          loss=LossConfig(kind="distance_aware", delta=2, k=5))
        params1, log1 = train(ds, cfg)
        params2, log2 = train(ds, cfg)
        for name in params1:
            assert np.array_equal(params1[name], params2[name])
        wall = ("wall_time_ms", "phase_ms")
        strip = [{k: v for k, v in rec.items() if k not in wall} for rec in log1]
        strip2 = [{k: v for k, v in rec.items() if k not in wall} for rec in log2]
        assert strip == strip2

    def test_different_seed_differs(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        loss = LossConfig(kind="distance_aware", delta=2, k=5)
        p1, _ = train(ds, TrainConfig(epochs=10, seed=0, loss=loss))
        p2, _ = train(ds, TrainConfig(epochs=10, seed=1, loss=loss))
        assert not np.array_equal(p1["W1"], p2["W1"])

    def test_labeled_score_driven_to_one(self):
        manifest = small_manifest(n_pos=20, n_neg=20, p_intra=0.3, p_inter=0.05,
                                  train_fraction=0.5, name="sbm40")
        ds = build_dataset(manifest, 1.0 / 40, 0, 2)
        assert ds.partition.labeled.size == 1
        cfg = TrainConfig(epochs=400, loss=LossConfig(
            kind="distance_aware", delta=2, alpha=0.0))
        params, _ = train(ds, cfg)
        adj = normalize_adjacency(ds.graph)
        cache = forward_from_propagated(adj, adj.matmul(ds.features), params)
        assert cache.y_hat[ds.partition.labeled][0] > 0.95

    def test_delta_mismatch_rejected(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=5, loss=LossConfig(kind="distance_aware", delta=3))
        with pytest.raises(ConfigError):
            train(ds, cfg)

    def test_loss_finite_every_epoch(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=30, loss=LossConfig(kind="nnpu", pi_p=0.5,
                                                     delta=2, alpha=0.0))
        _, log = train(ds, cfg)
        assert all(np.isfinite(rec["total"]) for rec in log)
        assert len(log) == 30

    def test_abort_on_divergence_keeps_last_good(self, tmp_path):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=200, learning_rate=1e18, weight_decay=0.0,
                          loss=LossConfig(kind="distance_aware", delta=2, k=5))
        with pytest.raises(TrainingAbort) as info:
            train(ds, cfg)
        assert info.value.last_good is not None
        assert all(np.isfinite(v).all() for v in info.value.last_good.values())
        save_checkpoint(tmp_path / "abort.bin", info.value.last_good)

    def test_an_abort_carries_the_parameters_of_the_last_good_epoch(self, monkeypatch):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=10, seed=3,
                          loss=LossConfig(kind="distance_aware", delta=2, k=5))
        after_three, _ = train(ds, replace(cfg, epochs=3))
        objective, calls = train_module.combined_objective, []

        def fails_at_epoch_5(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise NumericError("injected")
            return objective(*args, **kwargs)

        monkeypatch.setattr(train_module, "combined_objective", fails_at_epoch_5)
        with pytest.raises(TrainingAbort, match="injected at epoch 5") as info:
            train(ds, cfg)
        # epoch 5's forward pass ran on the parameters after four steps; the last
        # good ones are epoch 4's, the parameters after three steps
        last_good = info.value.last_good
        assert sorted(last_good) == sorted(after_three)
        for name, arr in after_three.items():
            assert last_good[name].tobytes() == arr.tobytes()
        assert [r["epoch"] for r in info.value.records] == [1, 2, 3, 4]

    def test_a_non_finite_loss_aborts_with_the_last_good_parameters(self, monkeypatch):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=10, seed=3,
                          loss=LossConfig(kind="distance_aware", delta=2, k=5))
        after_three, _ = train(ds, replace(cfg, epochs=3))
        objective, calls = train_module.combined_objective, []

        def nan_at_epoch_5(*args, **kwargs):
            calls.append(None)
            value, grad_y, grad_z = objective(*args, **kwargs)
            if len(calls) == 5:
                value.total = float("nan")
            return value, grad_y, grad_z

        monkeypatch.setattr(train_module, "combined_objective", nan_at_epoch_5)
        with pytest.raises(TrainingAbort, match="non-finite loss nan at epoch 5") as info:
            train(ds, cfg)
        for name, arr in after_three.items():
            assert info.value.last_good[name].tobytes() == arr.tobytes()
        assert [r["epoch"] for r in info.value.records] == [1, 2, 3, 4]

    def test_partly_clipped_run_is_not_divergence(self):
        # divergence means every score on the clip; this run ends with some,
        # not all, of its scores there and must complete
        ds = build_dataset(small_manifest(), 0.02, 1, 3)
        cfg = TrainConfig(epochs=400, seed=1,
                          loss=LossConfig(kind="naive", delta=3, alpha=0.0))
        params, log = train(ds, cfg)
        assert len(log) == 400
        adj = normalize_adjacency(ds.graph)
        y = forward_from_propagated(adj, adj.matmul(ds.features), params).y_hat
        clipped = np.mean((y <= Y_EPS) | (y >= 1.0 - Y_EPS))
        assert 0.0 < clipped < 1.0

    def test_distpu_trajectory_matches_reference_loop(self):
        # alpha=0, kind=distpu must equal a plain Dist-PU training loop
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        pi = ds.positive_prior
        cfg = TrainConfig(epochs=20, seed=4, loss=LossConfig(
            kind="distpu", pi_p=pi, delta=2, alpha=0.0))
        params, _ = train(ds, cfg)

        ref = init_params(ds.features.shape[1], 4)
        adj = normalize_adjacency(ds.graph)
        ax = adj.matmul(ds.features)
        opt = Adam(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
        for _ in range(20):
            cache = forward_from_propagated(adj, ax, ref)
            _, grad_y = distpu_loss(cache.y_hat, ds.partition, pi)
            grads = gcn_backward(cache, grad_y, np.zeros_like(cache.z), ref)
            ref = opt.step(ref, grads)
        for name in params:
            assert np.array_equal(params[name], ref[name])

    def test_cora_shaped_trajectory_matches_reference_loop(self, tmp_path):
        # sparse features train through X's CSR plans; the run must equal a
        # plain loop over the same forward and backward on those plans
        ds = build_dataset(citation_manifest(tmp_path), 0.05, 0, 2)
        pi = ds.positive_prior
        cfg = TrainConfig(epochs=20, seed=4, loss=LossConfig(
            kind="distpu", pi_p=pi, delta=2, alpha=0.0))
        params, _ = train(ds, cfg)
        assert isinstance(ds.prepared.sparse_features, SparseFeatures)

        ref = init_params(ds.features.shape[1], 4)
        adj = normalize_adjacency(ds.graph)
        features = SparseFeatures.of(ds.features)
        opt = Adam(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
        for _ in range(20):
            cache = forward_from_propagated(adj, features, ref)
            _, grad_y = distpu_loss(cache.y_hat, ds.partition, pi)
            grads = gcn_backward(cache, grad_y, np.zeros_like(cache.z), ref)
            ref = opt.step(ref, grads)
        for name in params:
            assert np.array_equal(params[name], ref[name])

    def test_sparse_features_take_the_csr_path_and_dense_ones_the_dense_path(self, tmp_path):
        # Cora's 18 words of 1,433 and the sparse citation files sit below the
        # threshold; SBM features, whose bits fire at rate 0.2 or 0.65, above
        assert 18 / 1433 < SPARSE_DENSITY < 0.2
        sparse = build_dataset(citation_manifest(tmp_path), 0.05, 0, 2)
        dense = build_dataset(small_manifest(), 0.02, 0, 2)
        assert sparse.prepared.feature_density < SPARSE_DENSITY < dense.prepared.feature_density
        adj, operand = train_module.propagate(sparse, sparse=True)
        assert isinstance(operand, SparseFeatures) and sparse.prepared.propagated is None
        assert np.array_equal(operand.x.matmul(np.eye(400)), sparse.features)
        # scoring's operand stays A_hat @ X, built once on the same A_hat
        assert train_module.propagate(sparse)[0] is adj
        assert np.array_equal(train_module.propagate(sparse)[1], adj.matmul(sparse.features))
        adj, operand = train_module.propagate(dense, sparse=True)
        assert type(operand) is np.ndarray and operand is dense.prepared.propagated
        assert dense.prepared.sparse_features is None
        assert np.array_equal(operand, adj.matmul(dense.features))

    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_a_nan_feature_aborts_in_layer1_on_both_paths(self, tmp_path, form):
        manifest = (small_manifest(normalize_features=False) if form == "dense"
                    else citation_manifest(tmp_path, normalize_features=False))
        ds = build_dataset(manifest, 0.05, 0, 2)
        ds.features[7, 3] = np.nan
        with pytest.raises(TrainingAbort,
                           match="^non-finite values produced in layer1 at epoch 1$") as info:
            train(ds, TrainConfig(epochs=3, loss=LossConfig(kind="naive", delta=2, alpha=0.0)))
        assert info.value.records == []
        assert (ds.prepared.sparse_features is None) == (form == "dense")

    def test_log_records_clip_positive_and_sampler_counts(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        cfg = TrainConfig(epochs=3, seed=3,
                          loss=LossConfig(kind="distance_aware", delta=2, k=5))
        _, log = train(ds, cfg)
        # epoch 1 scores come from the initial parameters
        adj = normalize_adjacency(ds.graph)
        y = forward_from_propagated(adj, adj.matmul(ds.features),
                                    init_params(ds.features.shape[1], 3)).y_hat
        assert log[0]["frac_positive"] == np.mean(y >= 0.5)
        assert log[0]["frac_clipped"] == np.mean((y <= Y_EPS) | (y >= 1.0 - Y_EPS))
        # each epoch's counts are those of one edge_negatives call
        ref = NegativeSampler(ds.graph, 3)
        src, _ = ds.graph.directed_edges()
        ok = ref.non_neighbor_counts[src] > 0
        for rec in log:
            assert 0.0 <= rec["frac_clipped"] <= 1.0
            assert 0.0 <= rec["frac_positive"] <= 1.0
            before = dict(ref.counts)
            ref.edge_negatives(src[ok], 5)
            assert rec["sampler"] == {k: v - before[k] for k, v in ref.counts.items()}
            assert rec["sampler"]["draws"] >= 5 * ok.sum()
            # the epoch's wall time split into phases, none overlapping, and
            # the objective's time split into its parts
            phases = rec["phase_ms"]
            assert sorted(phases) == ["adam", "backward", "forward", "objective",
                                      "pu_loss", "regularizer", "sampler"]
            assert all(v >= 0.0 for v in phases.values())
            assert sum(phases[p] for p in ("forward", "objective", "backward", "adam")) \
                <= rec["wall_time_ms"]
            parts = [phases[p] for p in ("pu_loss", "sampler", "regularizer")]
            assert all(p <= phases["objective"] for p in parts)
            assert sum(parts) <= phases["objective"]
            assert rec["pairs"] == src.size + 5 * ok.sum()
            assert rec["skipped_edges"] == (~ok).sum()
        cfg = replace(cfg, loss=replace(cfg.loss, alpha=0.0))
        _, log = train(ds, cfg)
        assert all(rec["sampler"] == {"draws": 0, "redraw_rounds": 0, "exact_checks": 0}
                   for rec in log)
        assert all(rec["pairs"] == 0 and rec["skipped_edges"] == 0 for rec in log)

    def test_log_counts_the_edges_of_a_node_adjacent_to_all(self, tmp_path, caplog):
        # node 0 has no non-neighbors: its 59 directed edges skip their negatives
        n, k = 60, 3
        rng = np.random.default_rng(8)
        edges = np.vstack([rng.integers(1, n, size=(90, 2)), [(0, j) for j in range(1, n)]])
        graph = build_graph(edges, n)
        labels = ["pos" if i % 2 else "neg" for i in range(n)]
        save_jsonl(tmp_path / "hub.jsonl", graph, rng.random((n, 4)), labels)
        manifest = {"name": "hub", "format": "jsonl", "path": str(tmp_path / "hub.jsonl"),
                    "positive_classes": ["pos"], "train_fraction": 0.5, "split_seed": 0}
        ds = build_dataset(manifest, 0.2, 0, 2)
        cfg = TrainConfig(epochs=2, loss=LossConfig(kind="distance_aware", delta=2, k=k))
        with caplog.at_level(logging.WARNING, logger="pugraph"):
            _, log = train(ds, cfg)
        # one warning per run, not one per epoch
        assert [r.getMessage() for r in caplog.records] == [
            f"structural_regularizer skips the negative terms of {n - 1} directed "
            "edges whose source has no non-neighbors"]
        src, _ = graph.directed_edges()
        for rec in log:
            assert rec["skipped_edges"] == n - 1 > 0
            assert rec["pairs"] == src.size + k * (src.size - (n - 1))

    def test_invalid_config_rejected(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        with pytest.raises(ConfigError):
            train(ds, TrainConfig(epochs=0))
        with pytest.raises(ConfigError):
            train(ds, TrainConfig(learning_rate=-1.0))
        with pytest.raises(ConfigError, match="train.seed"):
            train(ds, TrainConfig(seed=-1))
        # every config int is a count or a seed, so k >= 0 even when alpha = 0
        with pytest.raises(ConfigError, match="loss.k"):
            train(ds, TrainConfig(loss=LossConfig(k=-1, alpha=0.0)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls, name", [
        (LossConfig, "pi_p"), (LossConfig, "pi_hat"), (LossConfig, "pi_breve"),
        (LossConfig, "alpha"), (TrainConfig, "learning_rate"), (TrainConfig, "weight_decay")])
    def test_a_non_finite_value_is_a_config_error(self, cls, name, value):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})

    def test_a_built_config_cannot_change(self):
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.epochs = 2
        with pytest.raises(FrozenInstanceError):
            cfg.loss.alpha = 0.0
