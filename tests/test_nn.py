import hashlib
import json
import math

import numpy as np
import pytest

from pugraph.errors import ConfigError, InputError, NumericError
from pugraph.graph import build_graph, normalize_adjacency
from pugraph.nn import (HIDDEN_DIM, SparseFeatures, forward_from_propagated, gcn_backward,
                        gcn_forward, init_params, load_checkpoint, save_checkpoint,
                        sigmoid)

from conftest import (assert_grad_close, numeric_grad_params,
                      pairwise_similarity, random_graph, sparse_features)


def zero_params(feature_dim):
    p = init_params(feature_dim, 0)
    for arr in p.values():
        arr[...] = 0.0
    return p


class TestInitParams:
    def test_deterministic(self):
        a, b = init_params(9, 3), init_params(9, 3)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a, b = init_params(9, 3), init_params(9, 4)
        assert not np.array_equal(a["W1"], b["W1"])

    def test_no_features_rejected(self):
        with pytest.raises(ConfigError, match="feature_dim must be >= 1, got 0"):
            init_params(0, 0)

    def test_glorot_bounds_and_zero_biases(self):
        p = init_params(25, 0)
        assert np.abs(p["W1"]).max() <= np.sqrt(6.0 / (25 + HIDDEN_DIM))
        assert np.abs(p["W2"]).max() <= np.sqrt(6.0 / (2 * HIDDEN_DIM))
        assert np.abs(p["w_head"]).max() <= np.sqrt(6.0 / (HIDDEN_DIM + 1))
        for name in ("b1", "b2", "b_head"):
            assert not p[name].any()


class TestForward:
    def test_zero_params_give_half(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        adj = normalize_adjacency(g)
        x = np.random.default_rng(0).normal(size=(3, 4))
        cache = gcn_forward(adj, x, zero_params(4))
        assert np.array_equal(cache.y_hat, np.full(3, 0.5))

    def test_isolated_node_hand_value(self):
        # X=[1], W1 = e1 row, W2 = I, w_head = e1 -> y = sigmoid(ReLU(1))
        adj = normalize_adjacency(build_graph([], 1))
        p = zero_params(1)
        p["W1"][0, 0] = 1.0
        p["W2"][...] = np.eye(HIDDEN_DIM)
        p["w_head"][0] = 1.0
        cache = gcn_forward(adj, np.array([[1.0]]), p)
        assert cache.y_hat[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)
        assert cache.y_hat[0] == pytest.approx(0.7310585786, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 9, 0.4)
        x = rng.normal(size=(9, 5))
        params = init_params(5, 2)
        y = gcn_forward(normalize_adjacency(g), x, params).y_hat
        perm = rng.permutation(9)
        src, dst = g.directed_edges()
        g2 = build_graph(np.column_stack([perm[src], perm[dst]]), 9)
        x2 = np.empty_like(x)
        x2[perm] = x
        y2 = gcn_forward(normalize_adjacency(g2), x2, params).y_hat
        assert np.allclose(y2[perm], y, atol=1e-12)

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8, 0.3)
        adj = normalize_adjacency(g)
        x = rng.normal(size=(8, 6))
        params = init_params(6, 0)
        a = gcn_forward(adj, x, params)
        b = gcn_forward(adj, x, params)
        assert np.array_equal(a.y_hat, b.y_hat)
        assert np.array_equal(a.z, b.z)

    def test_scores_strictly_inside_unit_interval(self):
        adj = normalize_adjacency(build_graph([], 2))
        p = zero_params(1)
        p["W1"][0, 0] = 1.0
        p["w_head"][...] = 1e6  # saturate the head
        p["W2"][...] = np.eye(HIDDEN_DIM) * 1e3
        y = gcn_forward(adj, np.array([[1.0], [-1.0]]), p).y_hat
        assert (y > 0.0).all() and (y < 1.0).all()

    def test_shape_mismatch_raises(self):
        adj = normalize_adjacency(build_graph([(0, 1)], 2))
        with pytest.raises(ConfigError):
            gcn_forward(adj, np.zeros((3, 4)), init_params(4, 0))
        with pytest.raises(ConfigError):
            gcn_forward(adj, np.zeros((2, 5)), init_params(4, 0))
        with pytest.raises(ConfigError, match="features have 5 columns, W1 expects 4"):
            forward_from_propagated(adj, np.zeros((2, 5)), init_params(4, 0))

    def test_a_non_finite_propagation_is_a_numeric_error(self):
        adj = normalize_adjacency(build_graph([(0, 1)], 2))
        ax = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NumericError, match="non-finite values produced in layer1"):
            forward_from_propagated(adj, ax, init_params(2, 0))


class TestFirstLayerProducts:
    """The first layer's products run transposed on the dense A_hat @ X and
    regrouped on SparseFeatures; both must stay the plain ones.

    The dense form matches each entry within rtol 1e-13. The regrouped form
    sums the same terms in another order, and where they cancel an entry's
    own relative error can reach 1e-12 (an entry of 1.2e-6 among terms of
    0.1), so it matches within 1e-13 of the sum of its terms' magnitudes.
    """

    @staticmethod
    def case(form):
        rng = np.random.default_rng(12)
        n, f = 300, 600
        adj = normalize_adjacency(random_graph(rng, n, 0.02))
        x = sparse_features(rng, n, f, 0.0125) if form == "sparse" else rng.random((n, f))
        operand = SparseFeatures.of(x) if form == "sparse" else adj.matmul(x)
        params = init_params(f, 2)
        params["b1"][...] = rng.normal(size=HIDDEN_DIM) * 0.1
        return rng, adj, x, operand, params

    @staticmethod
    def assert_matches(got, expected, terms, operand):
        if isinstance(operand, SparseFeatures):
            assert (np.abs(got - expected) <= 1e-13 * terms).all()
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)

    def check_pre_activation(self, form):
        _, adj, x, operand, params = self.case(form)
        cache = forward_from_propagated(adj, operand, params)
        pre1 = adj.matmul(x) @ params["W1"] + params["b1"]
        assert (pre1 > 0).any() and (pre1 < 0).any()
        terms = adj.matmul(np.abs(x)) @ np.abs(params["W1"]) + np.abs(params["b1"])
        self.assert_matches(cache.h1, np.maximum(pre1, 0.0), terms, operand)
        assert cache.h1.flags.c_contiguous and cache.z.flags.c_contiguous

    def check_w1_gradient(self, form):
        rng, adj, x, operand, params = self.case(form)
        cache = forward_from_propagated(adj, operand, params)
        d_yhat, d_z = rng.normal(size=x.shape[0]), rng.normal(size=cache.z.shape)
        grads = gcn_backward(cache, d_yhat, d_z, params)
        v, s = params, cache.y_hat
        dz = d_z + np.outer(d_yhat * s * (1.0 - s), v["w_head"])
        dpre1 = np.where(cache.h1 > 0.0, adj.matmul(dz @ v["W2"].T), 0.0)
        terms = adj.matmul(np.abs(x)).T @ np.abs(dpre1)
        self.assert_matches(grads["W1"], adj.matmul(x).T @ dpre1, terms, operand)
        assert grads["W1"].flags.c_contiguous

    def test_pre_activation_matches_the_plain_product(self):
        self.check_pre_activation("dense")

    def test_pre_activation_matches_the_plain_product_on_sparse_features(self):
        self.check_pre_activation("sparse")

    def test_w1_gradient_matches_the_plain_product(self):
        self.check_w1_gradient("dense")

    def test_w1_gradient_matches_the_plain_product_on_sparse_features(self):
        self.check_w1_gradient("sparse")

    def test_a_feature_no_node_has_gets_an_exactly_zero_gradient(self):
        # node 0 has no feature and no node has the last one: both are empty
        # rows of a plan, and the last row of W1's gradient is exact zeros
        rng = np.random.default_rng(13)
        adj = normalize_adjacency(random_graph(rng, 40, 0.1))
        x = sparse_features(rng, 40, 30, 0.1)
        features = SparseFeatures.of(x)
        params = init_params(30, 3)
        assert np.array_equal(features.x.matmul(params["W1"])[0], np.zeros(HIDDEN_DIM))
        cache = forward_from_propagated(adj, features, params)
        grads = gcn_backward(cache, rng.normal(size=40), rng.normal(size=(40, HIDDEN_DIM)),
                             params)
        assert grads["W1"].any()
        assert not np.signbit(grads["W1"][-1]).any() and not grads["W1"][-1].any()

    def test_sparse_features_of_the_wrong_width_are_rejected(self):
        adj = normalize_adjacency(build_graph([(0, 1)], 2))
        with pytest.raises(ConfigError, match="features have 5 columns, W1 expects 4"):
            forward_from_propagated(adj, SparseFeatures.of(np.eye(2, 5)), init_params(4, 0))

    def test_a_non_finite_feature_is_a_numeric_error_in_both_forms(self):
        adj = normalize_adjacency(build_graph([(0, 1), (1, 2)], 3))
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, np.nan]])
        for operand in (adj.matmul(x), SparseFeatures.of(x)):
            with pytest.raises(NumericError, match="non-finite values produced in layer1"):
                forward_from_propagated(adj, operand, init_params(2, 0))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 6, 0.4)
        adj = normalize_adjacency(g)
        x = rng.normal(size=(6, 3))
        params = init_params(3, 1)
        cache = gcn_forward(adj, x, params)
        grads = gcn_backward(cache, np.zeros(6), np.zeros_like(cache.z), params)
        for grad in grads.values():
            assert not grad.any()

    @pytest.mark.parametrize("bad", ["d_yhat", "d_z"])
    def test_an_upstream_gradient_of_the_wrong_shape_rejected(self, bad):
        adj = normalize_adjacency(build_graph([(0, 1), (1, 2)], 3))
        params = init_params(2, 0)
        cache = gcn_forward(adj, np.ones((3, 2)), params)
        upstream = {"d_yhat": np.zeros(3), "d_z": np.zeros_like(cache.z)}
        upstream[bad] = upstream[bad][:-1]
        with pytest.raises(ConfigError, match="upstream gradient shapes"):
            gcn_backward(cache, upstream["d_yhat"], upstream["d_z"], params)

    def test_matches_finite_differences(self):
        self.check_finite_differences("dense")

    def test_matches_finite_differences_on_sparse_features(self):
        self.check_finite_differences("sparse")

    @staticmethod
    def check_finite_differences(form):
        # scalar probe L = a . y_hat + <B, Z> exercises both upstream paths
        rng = np.random.default_rng(4)
        g = random_graph(rng, 6, 0.5)
        adj = normalize_adjacency(g)
        if form == "dense":
            x = rng.normal(size=(6, 4))
            operand = adj.matmul(x)
        else:
            x = sparse_features(rng, 6, 5, 0.5)
            operand = SparseFeatures.of(x)
        params = init_params(x.shape[1], 5)
        a = rng.normal(size=6)
        b = rng.normal(size=(6, HIDDEN_DIM))

        def objective():
            c = forward_from_propagated(adj, operand, params)
            return float(a @ c.y_hat + np.sum(b * c.z))

        cache = forward_from_propagated(adj, operand, params)
        grads = gcn_backward(cache, a, b, params)
        numeric = numeric_grad_params(objective, params)
        for name in params:
            assert_grad_close(grads[name], numeric[name], label=name)

    def test_relu_gate_blocks_layer1_gradient(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 5, 0.5)
        adj = normalize_adjacency(g)
        x = np.abs(rng.normal(size=(5, 3)))
        params = init_params(3, 6)
        params["W1"][...] = -np.abs(params["W1"])  # all pre-ReLU <= 0
        cache = gcn_forward(adj, x, params)
        assert not cache.h1.any()
        grads = gcn_backward(cache, rng.normal(size=5), rng.normal(size=(5, HIDDEN_DIM)),
                             params)
        assert not grads["W1"].any()
        assert not grads["b1"].any()


class TestPairwiseSimilarity:
    def test_zero_vectors_half(self):
        z = np.zeros((2, HIDDEN_DIM))
        assert pairwise_similarity(z, 0, 1) == 0.5

    def test_inverse_sigmoid_value(self):
        z = np.zeros((2, HIDDEN_DIM))
        z[0, 0] = z[1, 0] = np.sqrt(np.log(3.0))  # dot = ln 3
        assert pairwise_similarity(z, 0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_symmetric(self):
        z = np.random.default_rng(6).normal(size=(5, HIDDEN_DIM))
        for i in range(5):
            for j in range(5):
                assert pairwise_similarity(z, i, j) == pairwise_similarity(z, j, i)


class TestSigmoid:
    def test_stable_at_extremes(self):
        y = sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        assert np.isfinite(y).all()
        assert y[2] == 0.5

    def test_matches_naive_formula_in_safe_range(self):
        x = np.linspace(-30, 30, 1001)
        assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)

    def test_bit_equal_to_two_branch_formula_on_edge_values(self):
        tiny = np.finfo(np.float64).tiny
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                      5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3,
                      1.0, -1.0, 36.7, -36.7, 709.0, -709.0, 745.2, -745.2,
                      1e300, -1e300])
        x = np.concatenate([x, np.random.default_rng(12).normal(scale=20.0, size=1000)])
        e = np.exp(-np.abs(x))
        two_branch = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(sigmoid(x).view(np.uint64), two_branch.view(np.uint64))
        in_place = x.copy()  # the regularizer's kernel writes over its dots
        assert np.array_equal(sigmoid(in_place, out=in_place).view(np.uint64),
                              two_branch.view(np.uint64))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(7, 8)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params)
        restored = load_checkpoint(path)
        assert sorted(restored) == sorted(params)
        for name in params:
            assert np.array_equal(restored[name], params[name])
            assert restored[name].shape == params[name].shape

    def test_byte_deterministic(self, tmp_path):
        params = init_params(7, 8)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, params)
        save_checkpoint(p2, {k: v.copy() for k, v in params.items()})
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_a_checkpoint_that_does_not_fit_the_model(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(7, 8))
        header, payload = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        arrays = meta["arrays"]

        def header_with(param, **fields):  # one parameter's entry changed or dropped
            edited = [dict(m, **fields) if m["name"] == param else m for m in arrays
                      if m["name"] != param or fields]
            return json.dumps(dict(meta, arrays=edited)).encode()

        w1_offset = next(m["offset"] for m in arrays if m["name"] == "W1")
        cases = [
            (header, payload[:100]),                             # truncated
            (header, payload + bytes(8)),                        # trailing bytes
            (header_with("b2"), payload),                        # missing name
            (header_with("W2", name="W3"), payload),             # unknown name
            (header_with("W1", shape=[8, 14]), payload),         # wrong shape
            (header_with("W2", offset=w1_offset), payload),      # overlapping arrays
            (b"\xff not json", payload),                         # unreadable header
        ]
        for i, (head, body) in enumerate(cases):
            bad = tmp_path / f"bad{i}.bin"
            bad.write_bytes(head + b"\n" + body)
            with pytest.raises(InputError):
                load_checkpoint(bad)

    def test_the_file_format_does_not_drift(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(7, 8))
        raw = path.read_bytes()
        assert len(raw) == 3726
        assert hashlib.sha256(raw).hexdigest() == (
            "410e02e32cc84fffe352093b6185b32be4dbbac92069527a0cf5b6118d47d31d")

    def test_rejects_a_header_the_writer_never_writes(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        params = init_params(7, 8)
        save_checkpoint(path, params)
        header, payload = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        arrays = {m["name"]: m for m in meta["arrays"]}

        def edited(entries=meta["arrays"], **fields):  # compact and sorted, as written
            return json.dumps(dict(meta, arrays=entries, **fields), sort_keys=True,
                              separators=(",", ":")).encode()

        def with_entry(param, **fields):
            return edited([dict(m, **fields) if m["name"] == param else m
                           for m in meta["arrays"]])

        def with_width(width):  # every size and offset computed from it, as the writer would
            entries, offset = [], 0
            for m in meta["arrays"]:
                shape = [width, HIDDEN_DIM] if m["name"] == "W1" else m["shape"]
                entries.append(dict(m, shape=shape, offset=offset, nbytes=8 * math.prod(shape)))
                offset += entries[-1]["nbytes"]
            return edited(entries), payload[len(payload) - int(offset):]  # W1 resized

        assert edited() == header and with_width(7) == (header, payload)
        # the same arrays in reverse name order, offsets and payload to match
        reordered, body, offset = [], b"", 0
        for name in sorted(params, reverse=True):
            reordered.append(dict(arrays[name], offset=offset))
            body += params[name].astype("<f8").tobytes()
            offset += arrays[name]["nbytes"]
        cases = [
            (with_entry("W2", shape=[16.0, 16.0]), payload),
            (with_entry("W1", shape=[True, HIDDEN_DIM]), payload),
            with_width(7.0),
            with_width(0),
            (with_entry("b1", offset=float(arrays["b1"]["offset"])), payload),
            (edited(dtype=">f8"), payload),
            (edited(reordered), body),
            (edited(comment="hand-edited"), payload),
        ]
        for i, (head, data) in enumerate(cases):
            bad = tmp_path / f"bad{i}.bin"
            bad.write_bytes(head + b"\n" + data)
            with pytest.raises(InputError):
                load_checkpoint(bad)
