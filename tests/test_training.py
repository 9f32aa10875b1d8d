import importlib

import numpy as np
import pytest
from scipy import stats

from pugraph.data import build_dataset
from pugraph.errors import ConfigError, InputError, TrainingAbort
from pugraph.graph import build_graph, normalize_adjacency
from pugraph.losses import LossConfig, distpu_loss
from pugraph.nn import (Y_EPS, forward_from_propagated, gcn_backward,
                        init_params, save_checkpoint)
from pugraph.train import Adam, NegativeSampler, TrainConfig, train

from conftest import random_graph, small_manifest, traced_peak


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        params = init_params(5, 0)
        before = {k: v.copy() for k, v in params.values.items()}
        opt = Adam(learning_rate=0.1, weight_decay=0.0)
        for _ in range(3):
            params.zero_grad()
            opt.step(params)
        for name in params.values:
            assert np.array_equal(params.values[name], before[name])

    def test_first_step_magnitude_is_learning_rate(self):
        params = init_params(5, 0)
        w0 = params.values["W1"].copy()
        params.zero_grad()
        params.grads["W1"][...] = 3.7  # constant gradient
        Adam(learning_rate=0.01).step(params)
        delta = np.abs(params.values["W1"] - w0)
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
        w0 = params.values["W1"][0, 0]
        opt = Adam(learning_rate=lr)
        params.zero_grad()
        params.grads["W1"][0, 0] = g
        opt.step(params)
        w1 = params.values["W1"][0, 0]
        params.zero_grad()
        params.grads["W1"][0, 0] = -g
        opt.step(params)
        w2 = params.values["W1"][0, 0]
        assert w1 - w0 == pytest.approx(-step1, abs=1e-12)
        assert w2 - w1 == pytest.approx(-step2, abs=1e-12)

    def test_weight_decay_skips_biases(self):
        params = init_params(5, 0)
        params.values["b1"][...] = 1.0
        params.values["b_head"][...] = 2.0
        params.zero_grad()
        Adam(learning_rate=0.1, weight_decay=0.5).step(params)
        assert (params.values["b1"] == 1.0).all()
        assert params.values["b_head"] == 2.0
        # weights decay even with zero gradient
        params2 = init_params(5, 0)
        w0 = params2.values["W1"].copy()
        params2.zero_grad()
        Adam(learning_rate=0.1, weight_decay=0.5).step(params2)
        assert np.allclose(params2.values["W1"], w0 * (1.0 - 0.1 * 0.5), atol=1e-12)


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
        src, dst = g.directed_edges()
        sampler.edge_negatives(src, dst, 50)
        counts = sampler.counts
        # the edges plus at most about 1/32 of the other draws reach the exact check
        assert counts["exact_checks"] < 0.05 * counts["draws"]
        assert counts["draws"] >= 50 * src.size

    def test_every_draw_checked_when_the_table_is_full(self, monkeypatch):
        # pugraph.train names the function; the module is in sys.modules
        monkeypatch.setattr(importlib.import_module("pugraph.train"), "_SLOTS_PER_EDGE",
                            2.0 ** -20)
        rng = np.random.default_rng(26)
        g = random_graph(rng, 300, 0.3)  # about 27k directed edges in 1,024 slots
        sampler, ref = NegativeSampler(g, 5), ReferenceRejectionSampler(g, 5)
        assert sampler._marked.size == 1024 and sampler._marked.all()
        src, dst = g.directed_edges()
        want = ref._draw(np.repeat(src, 7)).reshape(src.size, 7)
        assert np.array_equal(sampler.edge_negatives(src, dst, 7), want)
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
            src, dst = src[ok], dst[ok]
            # consecutive calls continue one stream
            for k in (1, 7, 30):
                want = ref._draw(np.repeat(src, k)).reshape(src.size, k)
                assert np.array_equal(new.edge_negatives(src, dst, k), want)
            for node in (0, g.num_nodes - 1):
                want = ref._draw(np.full(200, node, dtype=np.int64))
                assert np.array_equal(new.sample(node, 200), want)

    def test_edge_negatives_memory_is_a_few_times_its_output(self):
        # the reference rejection loop peaks at about 10x the returned array
        rng = np.random.default_rng(22)
        g = build_graph(rng.integers(0, 5000, size=(12_500, 2)), 5000)
        sampler = NegativeSampler(g, 0)
        src, dst = g.directed_edges()
        draws, peak = traced_peak(sampler.edge_negatives, src, dst, 50)
        assert peak < 6 * draws.nbytes

    def test_star_leaf_excludes_center_and_self(self):
        g = build_graph([(0, i) for i in range(1, 6)], 6)
        sampler = NegativeSampler(g, 0)
        draws = sampler.sample(1, 500)
        assert set(np.unique(draws)).issubset({2, 3, 4, 5})

    def test_uniform_by_chi_squared(self):
        g = build_graph([(i, (i + 1) % 8) for i in range(8)], 8)  # 8-cycle
        sampler = NegativeSampler(g, 123)
        draws = sampler.sample(0, 1_000_000)
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
            assert np.array_equal(a.sample(node, k), b.sample(node, k))
        src, dst = g.directed_edges()
        assert np.array_equal(a.edge_negatives(src, dst, 5),
                              b.edge_negatives(src, dst, 5))

    def test_no_non_neighbors_raises(self):
        g = build_graph([(0, 1), (0, 2), (1, 2)], 3)  # complete
        sampler = NegativeSampler(g, 0)
        with pytest.raises(InputError):
            sampler.sample(0, 3)

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
        for name in params1.values:
            assert np.array_equal(params1.values[name], params2.values[name])
        strip = [{k: v for k, v in rec.items() if k != "wall_time_ms"} for rec in log1]
        strip2 = [{k: v for k, v in rec.items() if k != "wall_time_ms"} for rec in log2]
        assert strip == strip2

    def test_different_seed_differs(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        loss = LossConfig(kind="distance_aware", delta=2, k=5)
        p1, _ = train(ds, TrainConfig(epochs=10, seed=0, loss=loss))
        p2, _ = train(ds, TrainConfig(epochs=10, seed=1, loss=loss))
        assert not np.array_equal(p1.values["W1"], p2.values["W1"])

    def test_labeled_score_driven_to_one(self):
        manifest = small_manifest(n_pos=20, n_neg=20, p_intra=0.3, p_inter=0.05,
                                  train_fraction=0.5, name="sbm40")
        ds = build_dataset(manifest, 1.0 / 40, 0, 2)
        assert ds.labeled_mask.sum() == 1
        cfg = TrainConfig(epochs=400, loss=LossConfig(
            kind="distance_aware", delta=2, alpha=0.0))
        params, _ = train(ds, cfg)
        adj = normalize_adjacency(ds.graph)
        cache = forward_from_propagated(adj, adj.matmul(ds.features), params)
        assert cache.y_hat[ds.labeled_mask][0] > 0.95

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
        assert all(np.isfinite(v).all() for v in info.value.last_good.values.values())
        save_checkpoint(tmp_path / "abort.bin", info.value.last_good)

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
            _, grad_y = distpu_loss(cache.y_hat, ds.labeled_mask, pi)
            ref.zero_grad()
            gcn_backward(cache, grad_y, np.zeros_like(cache.z), ref)
            opt.step(ref)
        for name in params.values:
            assert np.array_equal(params.values[name], ref.values[name])

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
        src, dst = ds.graph.directed_edges()
        ok = ref.non_neighbor_counts[src] > 0
        for rec in log:
            assert 0.0 <= rec["frac_clipped"] <= 1.0
            assert 0.0 <= rec["frac_positive"] <= 1.0
            before = dict(ref.counts)
            ref.edge_negatives(src[ok], dst[ok], 5)
            assert rec["sampler"] == {k: v - before[k] for k, v in ref.counts.items()}
            assert rec["sampler"]["draws"] >= 5 * ok.sum()
        cfg.loss.alpha = 0.0
        _, log = train(ds, cfg)
        assert all(rec["sampler"] == {"draws": 0, "redraw_rounds": 0, "exact_checks": 0}
                   for rec in log)

    def test_invalid_config_rejected(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 2)
        with pytest.raises(ConfigError):
            train(ds, TrainConfig(epochs=0))
        with pytest.raises(ConfigError):
            train(ds, TrainConfig(learning_rate=-1.0))
