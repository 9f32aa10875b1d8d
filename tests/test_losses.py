import tracemalloc

import numpy as np
import pytest

from pugraph import losses
from pugraph.errors import ConfigError, InputError
from pugraph.graph import DistancePartition, build_graph, normalize_adjacency
from pugraph.losses import (LossConfig, combined_objective,
                            distance_aware_loss, distpu_loss, naive_loss,
                            nnpu_loss, structural_regularizer)
from pugraph.nn import gcn_forward, init_params
from pugraph.train import NegativeSampler

from conftest import (ReplaySampler, assert_grad_close, labeled_partition,
                      numeric_grad_array, random_graph, reference_regularizer,
                      traced_peak)


def make_partition(labeled, near, far, delta=3):
    ids = np.concatenate([labeled, near, far]) if len(near) or len(far) else np.asarray(labeled)
    n = int(ids.max()) + 1 if ids.size else 0
    dist = np.zeros(n)
    return DistancePartition(
        labeled=np.asarray(labeled, dtype=np.int64),
        near_unlabeled=np.asarray(near, dtype=np.int64),
        far_unlabeled=np.asarray(far, dtype=np.int64),
        min_dist=dist, delta=delta)


def dense_regularizer(z, graph, negs, can_sample):
    """Brute-force oracle: pair multiplicities as n x n counts over sigmoid(Z Z^T)."""
    n = z.shape[0]
    src, dst = graph.directed_edges()
    s = 1.0 / (1.0 + np.exp(-(z @ z.T)))
    pos = np.zeros((n, n))
    np.add.at(pos, (src, dst), 1.0)
    neg = np.zeros((n, n))
    np.add.at(neg, (np.repeat(src[can_sample], negs.shape[1]), negs.ravel()), 1.0)
    value = np.sum(pos * (s - 1.0) ** 2) + np.sum(neg * s ** 2)
    coef = (2.0 * pos * (s - 1.0) + 2.0 * neg * s) * s * (1.0 - s)  # d value / d dot
    return value, coef @ z + coef.T @ z


def away_from_kinks(y, labeled_mask, priors, margin=1e-6):
    """True when no |.|-style term sits within `margin` of its kink."""
    means = [abs(np.mean(y[labeled_mask]) - 1.0)]
    means += [abs(np.mean(y[~labeled_mask]) - p) for p in priors]
    return all(m > margin for m in means)


class TestNaiveLoss:
    def test_half_scores_give_ln2(self):
        y = np.full(6, 0.5)
        mask = np.zeros(6, dtype=bool)
        mask[0] = True
        value, _ = naive_loss(y, labeled_partition(mask))
        assert value.total == pytest.approx(np.log(2.0), abs=1e-12)

    def test_limit_to_zero(self):
        mask = np.array([True, False, False])
        prev = np.inf
        for eps in (1e-2, 1e-4, 1e-6):
            y = np.where(mask, 1.0 - eps, eps)
            value, _ = naive_loss(y, labeled_partition(mask))
            assert value.total < prev
            prev = value.total
        assert prev < 1e-5

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.05, 0.95, size=9)
        mask = np.zeros(9, dtype=bool)
        mask[rng.choice(9, size=3, replace=False)] = True
        part = labeled_partition(mask)
        _, grad = naive_loss(y, part)
        numeric = numeric_grad_array(lambda: naive_loss(y, part)[0].total, y)
        assert_grad_close(grad, numeric, label="naive")

    def test_empty_labeled_rejected(self):
        with pytest.raises(InputError):
            naive_loss(np.full(4, 0.5), labeled_partition(np.zeros(4, dtype=bool)))

    def test_bit_equal_to_the_target_vector_form(self):
        # the oracle: BCE against the 0/1 target vector t of the labeled set
        rng = np.random.default_rng(6)
        y = rng.uniform(1e-9, 1.0 - 1e-9, size=50)
        mask = rng.random(50) < 0.3
        mask[0] = True
        t = mask.astype(np.float64)
        value, grad = naive_loss(y, labeled_partition(mask))
        assert value.total == float(-np.mean(t * np.log(y) + (1.0 - t) * np.log(1.0 - y)))
        assert np.array_equal(grad, (-t / y + (1.0 - t) / (1.0 - y)) / 50)


class TestNnpuLoss:
    def test_half_scores_half_prior(self):
        y = np.full(8, 0.5)
        mask = np.zeros(8, dtype=bool)
        mask[:2] = True
        value, _ = nnpu_loss(y, labeled_partition(mask), 0.5)
        # risks: P+ = P- = U- = 0.5 -> 0.5*0.5 + max(0, 0.5 - 0.25) = 0.5
        assert value.total == pytest.approx(0.5, abs=1e-12)
        assert value.parts["supervised"] == pytest.approx(0.25, abs=1e-12)
        assert value.parts["unlabeled"] == pytest.approx(0.25, abs=1e-12)

    def test_separated_scores_clamp(self):
        mask = np.array([True, True, False, False, False, False])
        y = np.where(mask, 0.99, 0.01)
        value, grad = nnpu_loss(y, labeled_partition(mask), 0.5)
        assert value.parts["unlabeled"] == 0.0   # correction negative, clamped
        assert value.total == pytest.approx(0.5 * 0.01, abs=1e-12)
        assert not grad[~mask].any()             # clamped branch has zero gradient

    def test_nonnegative_property(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(3, 30))
            y = rng.uniform(1e-6, 1.0 - 1e-6, size=n)
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
            pi = float(rng.uniform(0.05, 0.95))
            value, _ = nnpu_loss(y, labeled_partition(mask), pi)
            assert value.total >= 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 20:
            n = int(rng.integers(4, 12))
            y = rng.uniform(0.05, 0.95, size=n)
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False)] = True
            pi = float(rng.uniform(0.1, 0.9))
            correction = np.mean(y[~mask]) - pi * np.mean(y[mask])
            if abs(correction) < 1e-6:  # max() kink
                continue
            part = labeled_partition(mask)
            _, grad = nnpu_loss(y, part, pi)
            numeric = numeric_grad_array(lambda: nnpu_loss(y, part, pi)[0].total, y)
            assert_grad_close(grad, numeric, label="nnpu")
            checked += 1

    def test_empty_sets_rejected(self):
        with pytest.raises(InputError):
            nnpu_loss(np.full(3, 0.5), labeled_partition(np.ones(3, dtype=bool)), 0.5)
        with pytest.raises(InputError):
            nnpu_loss(np.full(3, 0.5), labeled_partition(np.zeros(3, dtype=bool)), 0.5)


class TestDistpuLoss:
    def test_worked_example(self):
        y = np.array([0.8, 0.6, 0.2, 0.4, 0.9])
        mask = np.array([True, True, False, False, False])
        value, _ = distpu_loss(y, labeled_partition(mask), 0.5)
        assert value.total == pytest.approx(0.3, abs=1e-12)

    def test_zero_at_matched_distributions(self):
        y = np.array([1.0, 1.0, 0.5, 0.5])
        mask = np.array([True, True, False, False])
        value, _ = distpu_loss(y, labeled_partition(mask), 0.5)
        assert value.total == 0.0

    def test_labeled_gradient_closed_form(self):
        y = np.array([0.8, 0.6, 0.2, 0.4, 0.9])
        mask = np.array([True, True, False, False, False])
        _, grad = distpu_loss(y, labeled_partition(mask), 0.5)
        assert np.allclose(grad[mask], -2.0 * 0.5 / 2, atol=1e-15)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            n = int(rng.integers(4, 12))
            y = rng.uniform(0.05, 0.95, size=n)
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False)] = True
            pi = float(rng.uniform(0.1, 0.9))
            if not away_from_kinks(y, mask, [pi]):
                continue
            part = labeled_partition(mask)
            _, grad = distpu_loss(y, part, pi)
            numeric = numeric_grad_array(lambda: distpu_loss(y, part, pi)[0].total, y)
            assert_grad_close(grad, numeric, label="distpu")
            checked += 1

    def test_every_node_labeled_rejected(self):
        with pytest.raises(InputError, match="nonempty unlabeled set"):
            distpu_loss(np.full(3, 0.5), labeled_partition(np.ones(3, dtype=bool)), 0.5)


@pytest.mark.parametrize("loss", [naive_loss, lambda y, part: nnpu_loss(y, part, 0.4),
                                  lambda y, part: distpu_loss(y, part, 0.4)],
                         ids=["naive", "nnpu", "distpu"])
def test_baselines_read_only_the_labeled_set(loss):
    # moving unlabeled nodes between near and far changes no bit of value or gradient
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        y = rng.uniform(1e-9, 1.0 - 1e-9, size=n)
        ids = rng.permutation(n)
        cut = int(rng.integers(1, n))
        labeled, unlabeled = np.sort(ids[:cut]), ids[cut:]
        split = int(rng.integers(0, unlabeled.size + 1))
        all_near = DistancePartition(labeled, np.sort(unlabeled), unlabeled[:0],
                                     np.zeros(n), delta=3)
        moved = DistancePartition(labeled, np.sort(unlabeled[:split]),
                                  np.sort(unlabeled[split:]), np.zeros(n), delta=3)
        (value_a, grad_a), (value_b, grad_b) = loss(y, all_near), loss(y, moved)
        assert value_a.total == value_b.total and value_a.parts == value_b.parts
        assert np.array_equal(grad_a, grad_b)


class TestDistanceAwareLoss:
    def test_worked_example(self):
        part = make_partition([0], [1, 2], [3, 4])
        y = np.array([0.9, 0.5, 0.9, 0.0, 0.2])
        value, _ = distance_aware_loss(y, part, 0.6, 0.3)
        assert value.total == pytest.approx(0.48, abs=1e-12)
        assert value.parts["supervised"] == pytest.approx(0.18, abs=1e-12)
        assert value.parts["near"] == pytest.approx(0.1, abs=1e-12)
        assert value.parts["far"] == pytest.approx(0.2, abs=1e-12)

    def test_zero_at_matched_distributions(self):
        part = make_partition([0], [1, 2], [3, 4])
        y = np.array([1.0, 0.6, 0.6, 0.3, 0.3])
        value, _ = distance_aware_loss(y, part, 0.6, 0.3)
        assert value.total == 0.0

    def test_reduction_to_distpu_is_bit_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            y = rng.uniform(1e-9, 1.0 - 1e-9, size=n)
            n_lab = int(rng.integers(1, n))
            labeled = np.sort(rng.choice(n, size=n_lab, replace=False))
            unlabeled = np.setdiff1d(np.arange(n), labeled)
            pi = float(rng.uniform(0.01, 0.99))
            part = DistancePartition(labeled, unlabeled, unlabeled[:0],
                                     np.zeros(n), delta=3)
            da_value, da_grad = distance_aware_loss(y, part, pi, pi / 2)
            dp_value, dp_grad = distpu_loss(y, part, pi)
            assert da_value.total == dp_value.total  # exact, no tolerance
            assert np.array_equal(da_grad, dp_grad)

    def test_empty_near_symmetric_convention(self):
        labeled = np.array([0])
        far = np.array([1, 2, 3])
        part = DistancePartition(labeled, far[:0], far, np.zeros(4), delta=1)
        y = np.array([0.9, 0.1, 0.2, 0.3])
        value, _ = distance_aware_loss(y, part, 0.6, 0.3)
        expected = 2.0 * 0.3 * abs(0.9 - 1.0) + abs(0.2 - 0.3)
        assert value.total == pytest.approx(expected, abs=1e-12)
        assert "near" not in value.parts

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            n = int(rng.integers(6, 14))
            y = rng.uniform(0.05, 0.95, size=n)
            ids = rng.permutation(n)
            labeled = np.sort(ids[:2])
            near = np.sort(ids[2:n // 2 + 2])
            far = np.sort(ids[n // 2 + 2:])
            part = DistancePartition(labeled, near, far, np.zeros(n), delta=2)
            ph, pb = 0.7, 0.25
            if (abs(np.mean(y[labeled]) - 1.0) < 1e-6
                    or abs(np.mean(y[near]) - ph) < 1e-6
                    or (far.size and abs(np.mean(y[far]) - pb) < 1e-6)):
                continue
            _, grad = distance_aware_loss(y, part, ph, pb)
            numeric = numeric_grad_array(
                lambda: distance_aware_loss(y, part, ph, pb)[0].total, y)
            assert_grad_close(grad, numeric, label="distance_aware")
            checked += 1

    def test_no_labeled_nodes_rejected(self):
        part = make_partition(np.empty(0, dtype=np.int64), [0, 1], [2])
        with pytest.raises(InputError, match="require labeled nodes"):
            distance_aware_loss(np.full(3, 0.5), part, 0.6, 0.3)

    def test_both_subsets_empty_rejected(self):
        part = DistancePartition(np.array([0]), np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=np.int64), np.zeros(1), delta=1)
        with pytest.raises(InputError):
            distance_aware_loss(np.array([0.5]), part, 0.6, 0.3)

    def test_bounded_and_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(4, 25))
            y = rng.uniform(1e-9, 1.0 - 1e-9, size=n)
            ids = rng.permutation(n)
            labeled, near, far = ids[:1], np.sort(ids[1:n // 2]), np.sort(ids[n // 2:])
            part = DistancePartition(np.sort(labeled), near, far, np.zeros(n), delta=2)
            pb = float(rng.uniform(0.01, 0.5))
            ph = float(rng.uniform(pb + 0.01, 0.99))
            value, _ = distance_aware_loss(y, part, ph, pb)
            assert 0.0 <= value.total <= 2.0 * (ph + pb) + 2.0

    def test_supervised_term_never_drops_when_labeled_score_drops(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(0.1, 0.9, size=10)
            part = make_partition([0, 1], [2, 3, 4, 5], [6, 7, 8, 9])
            before, _ = distance_aware_loss(y, part, 0.6, 0.3)
            y2 = y.copy()
            pick = int(rng.integers(0, 2))
            y2[pick] = y[pick] * rng.uniform(0.1, 0.9)  # push below the mean
            after, _ = distance_aware_loss(y2, part, 0.6, 0.3)
            assert after.parts["supervised"] >= before.parts["supervised"] - 1e-15


class TestStructuralRegularizer:
    def test_single_edge_hand_value(self):
        # edge (0,1) plus an isolated node as the only possible negative draw
        g = build_graph([(0, 1)], 3)
        z = np.zeros((3, 16))
        sampler = ReplaySampler(g, np.full((2, 1), 2, dtype=np.int64))
        value, _ = structural_regularizer(z, g, sampler, 1)
        assert value.total == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_when_targets_met(self):
        g = build_graph([(0, 1)], 3)
        z = np.zeros((3, 16))
        z[0, 0] = z[1, 0] = 40.0   # S_01 ~ 1
        z[2, 0] = -40.0            # S_02 = S_12 ~ 0
        sampler = ReplaySampler(g, np.full((2, 1), 2, dtype=np.int64))
        value, _ = structural_regularizer(z, g, sampler, 1)
        assert value.total < 1e-9

    def test_gradient_matches_fd_frozen_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_graph(rng, 8, 0.35)
            if g.num_edges == 0:
                continue
            z = rng.normal(size=(8, 16)) * 0.5
            src, _ = g.directed_edges()
            real = NegativeSampler(g, 11)
            negs = real.edge_negatives(src, 3)
            sampler = ReplaySampler(g, negs)
            _, grad = structural_regularizer(z, g, sampler, 3)
            numeric = numeric_grad_array(
                lambda: structural_regularizer(z, g, sampler, 3)[0].total, z)
            assert_grad_close(grad, numeric, label="regularizer")

    def test_complete_graph_skips_negative_terms(self):
        g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
        z = np.zeros((3, 16))
        sampler = NegativeSampler(g, 0)
        stats: dict = {}
        value, _ = structural_regularizer(z, g, sampler, 2, stats=stats)
        assert stats["skipped_edges"] == 6 and stats["pairs"] == 6
        assert value.total == pytest.approx(6 * 0.25, abs=1e-12)  # only (S-1)^2 terms

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 9, 0.4)
        z = rng.normal(size=(9, 16))
        src, dst = g.directed_edges()
        real = NegativeSampler(g, 5)
        negs = real.edge_negatives(src, 4)
        value, grad = structural_regularizer(z, g, ReplaySampler(g, negs), 4)

        perm = rng.permutation(9)
        g2 = build_graph(np.column_stack([perm[src], perm[dst]]), 9)
        z2 = np.empty_like(z)
        z2[perm] = z
        # each relabeled edge replays its original edge's row of draws, relabeled
        src2, dst2 = g2.directed_edges()
        inv = np.argsort(perm)
        row = np.searchsorted(src * 9 + dst, inv[src2] * 9 + inv[dst2])
        value2, grad2 = structural_regularizer(z2, g2, ReplaySampler(g2, perm[negs[row]]), 4)
        assert value2.total == pytest.approx(value.total, rel=1e-12)
        assert np.allclose(grad2[perm], grad, atol=1e-9)

    def test_matches_dense_reference_across_chunks_skips_and_repeats(self):
        rng = np.random.default_rng(10)
        n, k = 300, 4
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.035
        hub = [(0, j) for j in range(1, n)]  # node 0 has no non-neighbors
        g = build_graph(np.vstack([np.column_stack([iu[keep], ju[keep]]), hub]), n)
        src, _ = g.directed_edges()
        counts = g.num_nodes - 1 - g.degrees
        can_sample = counts[src] > 0
        assert counts[0] == 0
        assert can_sample.sum() > losses._EDGE_CHUNK  # a chunk boundary is crossed
        negs = NegativeSampler(g, 3).edge_negatives(src[can_sample], k)
        negs[0, 1] = negs[0, 0]  # one (src, negative) pair drawn twice
        z = rng.normal(size=(n, 16)) * 0.5
        stats: dict = {}
        value, grad = structural_regularizer(z, g, ReplaySampler(g, negs), k, stats=stats)
        assert stats["skipped_edges"] == n - 1
        ref_value, ref_grad = dense_regularizer(z, g, negs, can_sample)
        assert value.total == pytest.approx(ref_value, rel=1e-12)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_memory_is_linear_in_nodes_and_edges(self):
        rng = np.random.default_rng(11)
        n = 5000
        g = build_graph(rng.integers(0, n, size=(12500, 2)), n)
        z = rng.normal(size=(n, 16))
        sampler = NegativeSampler(g, 0)
        tracemalloc.start()
        try:
            structural_regularizer(z, g, sampler, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10

    def test_chunk_workspace_memory_does_not_grow_with_the_chunk_count(self):
        # replayed draws are allocated outside the trace, which then holds the
        # O((n + E) * d) arrays and one chunk's gather and workspace; at k = 50
        # a second gather alive at once would exceed the bound
        k, d = 50, 16
        chunk = 8 * losses._EDGE_CHUNK * (k * (d + 3) + 2 * d)
        slack = 256 * 1024
        peaks, linear = [], []
        for n in (4000, 8000):
            rng = np.random.default_rng(14)
            g = build_graph(rng.integers(0, n, size=(21 * n // 10, 2)), n)
            src, _ = g.directed_edges()
            assert src.size > 8 * losses._EDGE_CHUNK * n // 4000
            negs = NegativeSampler(g, 0).edge_negatives(src, k)
            z = rng.normal(size=(n, d))
            _, peak = traced_peak(structural_regularizer, z, g, ReplaySampler(g, negs), k)
            peaks.append(peak)
            linear.append(8 * (n + src.size) * (2 * d + 8))
            assert peak <= linear[-1] + chunk + slack
        assert peaks[1] - peaks[0] <= linear[1] - linear[0] + slack

    def test_peak_holds_one_tile_gather_and_the_chunk_workspaces(self):
        # sbm-8k's shape: 8,000 nodes, about 36,000 directed edges, k = 50.
        # Besides the O((n + E) * d) arrays, a call holds one tile's
        # (tile, k, d) gather, the (chunk, k) differences and coefficients
        # and the (chunk, d) sources; a chunk-wide gather (13 MB) exceeds
        # the bound
        n, k, d = 8000, 50, 16
        rng = np.random.default_rng(15)
        g = build_graph(rng.integers(0, n, size=(18000, 2)), n)
        src, _ = g.directed_edges()
        assert src.size > 17 * losses._EDGE_CHUNK
        negs = NegativeSampler(g, 0).edge_negatives(src, k)
        z = rng.normal(size=(n, d))
        _, peak = traced_peak(structural_regularizer, z, g, ReplaySampler(g, negs), k)
        linear = 8 * (n + src.size) * (2 * d + 8)
        tile = max(1, losses._TILE_FLOATS // (k * d))
        workspaces = 8 * (losses._EDGE_CHUNK * (2 * k + d) + tile * (2 * k + d))
        gather = 8 * tile * k * d
        assert peak <= linear + gather + workspaces + 256 * 1024

    def test_requires_edges_and_valid_k(self):
        g = build_graph([], 3)
        with pytest.raises(InputError):
            structural_regularizer(np.zeros((3, 16)), g, None, 1)
        g2 = build_graph([(0, 1)], 3)
        with pytest.raises(InputError):
            structural_regularizer(np.zeros((3, 16)), g2, None, 0)


def _kernel_case(name):
    """(z, graph, negatives, k) for one bit-equality case of the chunk kernel."""
    rng = np.random.default_rng(13)
    k = {"k1": 1, "tiles": 50, "single_edge_tiles": 8200}.get(name, 4)
    if name in ("chunks", "tiles"):
        n = 1200
        g = build_graph(rng.integers(0, n, size=(3600, 2)), n)
    elif name in ("below_one_tile", "single_edge_tiles"):
        n = 40
        g = build_graph(rng.integers(0, n, size=(15, 2)), n)
    else:
        n = 300
        g = random_graph(rng, n, 0.035)
    if name == "skipped":  # node 0 becomes adjacent to all: no non-neighbors
        src, dst = g.directed_edges()
        g = build_graph(np.vstack([np.column_stack([src, dst]),
                                   [(0, j) for j in range(1, n)]]), n)
    src, _ = g.directed_edges()
    ok = g.num_nodes - 1 - g.degrees[src] > 0
    negs = NegativeSampler(g, 3).edge_negatives(src[ok], k)
    if name == "repeated":
        negs[0, 1] = negs[0, 0]
        negs[5] = negs[5, 0]
    z = rng.normal(size=(n, 16)) * 0.5
    z[:10] *= 40.0  # some dots far out on both tails of the sigmoid
    if name == "fortran":
        z = np.asfortranarray(z)
    elif name == "transposed":
        z = np.ascontiguousarray(z.T).T
    return z, g, negs, k


class TestRegularizerKernelBitEquality:
    @pytest.mark.parametrize("name", ["chunks", "skipped", "repeated", "k1",
                                      "fortran", "transposed", "tiles",
                                      "below_one_tile", "single_edge_tiles"])
    def test_value_and_gradient_equal_the_reference_loop(self, name):
        z, g, negs, k = _kernel_case(name)
        rows = negs.shape[0]
        tile = max(1, losses._TILE_FLOATS // (k * z.shape[1]))
        if name in ("chunks", "tiles"):
            assert rows > 3 * losses._EDGE_CHUNK and rows % losses._EDGE_CHUNK
        if name == "tiles":  # each full chunk spans several tiles and ends in a partial one
            assert 1 < tile < losses._EDGE_CHUNK and losses._EDGE_CHUNK % tile
        if name == "below_one_tile":
            assert rows < tile
        if name == "single_edge_tiles":
            assert tile == 1 and rows > 1
        if name == "skipped":
            assert negs.shape[0] < 2 * g.num_edges
        if name in ("fortran", "transposed"):
            assert not z.flags.c_contiguous
        value, grad = structural_regularizer(z, g, ReplaySampler(g, negs), k)
        ref_value, ref_grad = reference_regularizer(z, g, ReplaySampler(g, negs), k)
        assert value.total == ref_value
        assert np.array_equal(grad, ref_grad)


class TestCombinedObjective:
    def _setup(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, 0.4)
        y = rng.uniform(0.05, 0.95, size=n)
        z = rng.normal(size=(n, 16)) * 0.5
        ids = rng.permutation(n)
        part = DistancePartition(np.sort(ids[:2]), np.sort(ids[2:n // 2]),
                                 np.sort(ids[n // 2:]), np.zeros(n), delta=3)
        return g, y, z, part

    def test_alpha_zero_is_pu_loss_alone(self):
        g, y, z, part = self._setup()
        cfg = LossConfig(kind="distance_aware", alpha=0.0)
        value, grad_y, grad_z = combined_objective(y, z, part, g, cfg, None)
        pu_value, pu_grad = distance_aware_loss(y, part, cfg.pi_hat, cfg.pi_breve)
        assert value.total == pu_value.total
        assert "regularizer" not in value.parts
        assert np.array_equal(grad_y, pu_grad)
        assert not grad_z.any()

    def test_linear_combination_of_component_oracles(self):
        # 0.48 distance-aware example plus the 1.0 single-edge regularizer
        g = build_graph([(0, 1)], 5)
        part = make_partition([0], [1, 2], [3, 4])
        y = np.array([0.9, 0.5, 0.9, 0.0, 0.2])
        z = np.zeros((5, 16))
        sampler = ReplaySampler(g, np.full((2, 1), 3, dtype=np.int64))
        cfg = LossConfig(kind="distance_aware", alpha=0.01, k=1)
        value, _, _ = combined_objective(y, z, part, g, cfg, sampler)
        assert value.total == pytest.approx(0.48 + 0.01 * 1.0, abs=1e-12)

    def test_parts_sum_to_total(self):
        g, y, z, part = self._setup(seed=1)
        sampler = NegativeSampler(g, 0)
        for kind in ("naive", "nnpu", "distpu", "distance_aware"):
            cfg = LossConfig(kind=kind, alpha=0.02, k=3, pi_p=0.4)
            value, _, _ = combined_objective(y, z, part, g, cfg, sampler)
            expected = sum(v for k, v in value.parts.items() if k != "regularizer")
            expected += cfg.alpha * value.parts["regularizer"]
            assert value.total == pytest.approx(expected, abs=1e-12)

    def test_config_validation(self):
        g, y, z, part = self._setup(seed=2)
        with pytest.raises(ConfigError, match="loss.kind must be one of"):
            combined_objective(y, z, part, g, LossConfig(kind="bogus"), None)
        with pytest.raises(ConfigError, match="loss.pi_hat must exceed loss.pi_breve"):
            combined_objective(y, z, part, g,
                               LossConfig(pi_hat=0.2, pi_breve=0.3), None)
        with pytest.raises(ConfigError, match="loss.alpha must be >= 0"):
            combined_objective(y, z, part, g, LossConfig(alpha=-0.1), None)


class TestFullModelGradient:
    def test_end_to_end_fd_distance_aware_with_regularizer(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 7, 0.5)
        adj = normalize_adjacency(g)
        x = rng.normal(size=(7, 4))
        params = init_params(4, 3)
        ids = rng.permutation(7)
        part = DistancePartition(np.sort(ids[:2]), np.sort(ids[2:5]),
                                 np.sort(ids[5:]), np.zeros(7), delta=3)
        src, _ = g.directed_edges()
        negs = NegativeSampler(g, 1).edge_negatives(src, 2)
        sampler = ReplaySampler(g, negs)
        cfg = LossConfig(kind="distance_aware", alpha=0.05, k=2)

        def objective():
            cache = gcn_forward(adj, x, params)
            value, _, _ = combined_objective(
                cache.y_hat, cache.z, part, g, cfg, sampler)
            return value.total

        from pugraph.nn import gcn_backward
        cache = gcn_forward(adj, x, params)
        value, gy, gz = combined_objective(cache.y_hat, cache.z, part, g, cfg, sampler)
        grads = gcn_backward(cache, gy, gz, params)
        from conftest import numeric_grad_params
        numeric = numeric_grad_params(objective, params)
        for name in params:
            assert_grad_close(grads[name], numeric[name], label=name)
