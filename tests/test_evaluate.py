import importlib
import time

import numpy as np
import pytest

from pugraph import evaluate
from pugraph.data import build_dataset, prepare_dataset
from pugraph.errors import InputError
from pugraph.evaluate import (SWEEPS, ExperimentResult, aggregate, macro_f1, run_grid,
                              run_sweep, score)
from pugraph.graph import normalize_adjacency
from pugraph.nn import SparseFeatures, gcn_forward
from pugraph.train import TrainConfig, train

from conftest import citation_manifest, small_manifest

FAST = TrainConfig(epochs=10)


def counting(monkeypatch, module: str, name: str, delay: float = 0.0):
    """Wrap `name` in the pugraph module `module` so that it records its calls,
    after sleeping `delay` seconds."""
    owner = importlib.import_module(f"pugraph.{module}")
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_frac_positive_counts_every_node_not_only_the_masked_ones():
    y = np.array([0.9, 0.5, 0.2, 0.1])
    metrics = macro_f1(y, np.array([1, 0, 0, 1]), np.array([False, False, True, True]))
    assert metrics.frac_positive == 0.5
    assert (metrics.confusion.tp, metrics.confusion.fp) == (0, 0)


def test_confusion_counts_equal_the_four_masked_sums():
    rng = np.random.default_rng(5)
    y, label, mask = rng.random(200), rng.integers(0, 2, 200), rng.random(200) < 0.7
    pred, truth = y[mask] >= 0.5, label[mask] == 1
    c = macro_f1(y, label, mask).confusion
    assert (c.tp, c.fp, c.tn, c.fn) == (np.sum(pred & truth), np.sum(pred & ~truth),
                                        np.sum(~pred & ~truth), np.sum(~pred & truth))
    assert c.total == mask.sum()


def test_macro_f1_rejects_an_empty_mask():
    with pytest.raises(InputError, match="nonempty evaluation mask"):
        macro_f1(np.full(3, 0.9), np.ones(3, dtype=int), np.zeros(3, dtype=bool))


def test_aggregate_counts_the_one_class_runs_of_each_cell():
    def run(method, seed, f1, frac_positive, error=None):
        return ExperimentResult(f1, f1, f1, None, frac_positive,
                                {"dataset": "d", "method": method, "ratio": 0.1}, seed,
                                1.0, error=error)

    nan = float("nan")
    rows = aggregate([
        run("a", 0, 60.0, 1.0), run("a", 1, 80.0, 0.4), run("a", 2, 40.0, 0.0),
        run("b", 0, 90.0, None), run("b", 1, nan, None, error="InputError: x"),
        run("c", 0, nan, None, error="ConfigError: y")])
    cell = {"dataset": "d", "ratio": 0.1}
    assert rows == [
        {**cell, "method": "a", "n": 3, "mean": 60.0, "std": 20.0, "one_class_runs": 2,
         "errors": []},
        {**cell, "method": "b", "n": 1, "mean": 90.0, "std": 0.0, "one_class_runs": 0,
         "errors": ["InputError: x"]},
        {**cell, "method": "c", "n": 0, "mean": None, "std": None, "one_class_runs": 0,
         "errors": ["ConfigError: y"]}]


class TestPreparedDataset:
    def test_draw_from_prepared_equals_draw_from_manifest(self):
        prepared = prepare_dataset(small_manifest())
        for seed, delta in ((0, 2), (1, 3)):
            a = build_dataset(small_manifest(), 0.02, seed, delta)
            b = build_dataset(prepared, 0.02, seed, delta)
            for name in ("features", "true_label", "test_mask"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            for name in ("labeled", "near_unlabeled", "far_unlabeled", "min_dist"):
                assert np.array_equal(getattr(a.partition, name),
                                      getattr(b.partition, name)), name
            assert b.prepared is prepared

    def test_propagation_is_lazy_and_shared_by_train_and_score(self, monkeypatch):
        calls = counting(monkeypatch, "train", "normalize_adjacency")
        prepared = prepare_dataset(small_manifest())
        runs = [build_dataset(prepared, 0.02, seed, 3) for seed in (0, 1)]
        assert (prepared.adjacency, prepared.propagated, prepared.sparse_features) == (
            None, None, None) and not calls
        for seed, ds in enumerate(runs):
            params, _ = train(ds, TrainConfig(epochs=5, seed=seed))
            metrics = score(ds, params)
            # the oracle builds its own propagation from the graph
            y = gcn_forward(normalize_adjacency(ds.graph), ds.features, params).y_hat
            assert metrics == macro_f1(y, ds.true_label, ds.test_mask)
        assert len(calls) == 1

    def test_sparse_features_train_on_their_plans_and_score_on_a_x(self, tmp_path,
                                                                    monkeypatch):
        calls = counting(monkeypatch, "train", "normalize_adjacency")
        prepared = prepare_dataset(citation_manifest(tmp_path))
        for seed in (0, 1):
            ds = build_dataset(prepared, 0.05, seed, 3)
            params, _ = train(ds, TrainConfig(epochs=5, seed=seed))
            if seed == 0:
                # training built the plans but not A_hat @ X; scoring builds that
                plans = prepared.sparse_features
                assert isinstance(plans, SparseFeatures) and prepared.propagated is None
            assert prepared.sparse_features is plans
            metrics = score(ds, params)
            y = gcn_forward(normalize_adjacency(ds.graph), ds.features, params).y_hat
            assert metrics == macro_f1(y, ds.true_label, ds.test_mask)
        assert len(calls) == 1

    def test_score_builds_the_propagation_when_nothing_trained(self):
        ds = build_dataset(small_manifest(), 0.02, 0, 3)
        params, _ = train(build_dataset(small_manifest(), 0.02, 0, 3), FAST)
        y = gcn_forward(normalize_adjacency(ds.graph), ds.features, params).y_hat
        assert score(ds, params) == macro_f1(y, ds.true_label, ds.test_mask)


def outcome(results):
    return [(r.cell, r.seed, r.macro_f1, r.f1_pos, r.f1_neg, r.confusion, r.error)
            for r in results]


class TestGrids:
    def test_two_workers_give_the_same_results_as_one(self):
        args = (small_manifest(), ("naive", "distpu", "pugnn"), (0.02,), range(2), FAST)
        one = run_grid(*args, jobs=1)
        two = run_grid(*args, jobs=2)
        assert all(r.error is None for r in one)
        assert outcome(two) == outcome(one)

    def test_two_workers_give_the_same_results_as_one_on_sparse_features(self, tmp_path):
        args = (citation_manifest(tmp_path), ("naive", "pugnn"), (0.05,), range(2), FAST)
        one = run_grid(*args, jobs=1)
        two = run_grid(*args, jobs=2)
        assert all(r.error is None for r in one)
        assert outcome(two) == outcome(one)

    @pytest.mark.parametrize("jobs, started", [(64, [4]), (3, [3]), (1, [])])
    def test_a_pool_starts_no_more_workers_than_runs(self, monkeypatch, jobs, started):
        # a pool forks all its workers at the first submit; this fake starts none
        workers = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                workers.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(evaluate, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(evaluate, "_worker_prepared", None)
        args = (small_manifest(), ("naive", "nnpu"), (0.02,), range(2), FAST)
        results = run_grid(*args, jobs=jobs)
        assert workers == started
        assert all(r.error is None for r in results)
        assert outcome(results) == outcome(run_grid(*args, jobs=1))

    @pytest.mark.parametrize("kind", ["grid", *SWEEPS])
    def test_each_sweep_loads_its_source_once(self, monkeypatch, kind):
        calls = counting(monkeypatch, "data", "load_source")
        if kind == "grid":
            results = run_grid(small_manifest(), ("naive", "nnpu"), (0.02,), range(2), FAST)
        else:
            results = run_sweep(small_manifest(), kind, (0.02,), range(1), FAST)
        assert len(results) > 1
        assert all(r.error is None for r in results)
        assert len(calls) == 1

    def test_cell_wall_time_excludes_the_shared_preparation(self, monkeypatch):
        # a cell of this grid takes milliseconds; the preparation at least a second
        counting(monkeypatch, "data", "load_source", delay=1.0)
        results = run_grid(small_manifest(), ("naive",), (0.02,), range(2), FAST)
        assert all(r.error is None and r.wall_time < 1.0 for r in results)

    def test_unknown_method_is_recorded_as_a_data_error(self):
        # the delta probe used to raise a bare KeyError, recorded with no kind
        (result,) = run_grid(small_manifest(), ("bogus",), (0.02,), range(1))
        assert result.error.startswith("InputError: unknown method 'bogus'")
        assert result.error_kind == "data"

    def test_an_unknown_loss_key_is_recorded_as_a_config_error(self):
        (result,) = run_grid(small_manifest(), ("naive",), (0.02,), range(1), FAST,
                             {"bogus": 1})
        assert result.error.startswith("ConfigError: bad 'loss' section")
        assert result.error_kind == "config"
