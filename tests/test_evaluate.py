import importlib
import time

import numpy as np
import pytest

from pugraph.data import build_dataset, prepare_dataset
from pugraph.evaluate import (macro_f1, run_ablation, run_grid,
                              run_sensitivity, score)
from pugraph.graph import normalize_adjacency
from pugraph.nn import gcn_forward
from pugraph.train import TrainConfig, train

from conftest import small_manifest

FAST = TrainConfig(epochs=10)


def counting(monkeypatch, module: str, name: str, delay: float = 0.0):
    """Wrap `name` in the pugraph module `module` so that it records its calls,
    after sleeping `delay` seconds. The module is imported by name because the
    package rebinds `pugraph.train` to the function."""
    owner = importlib.import_module(f"pugraph.{module}")
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestPreparedDataset:
    def test_draw_from_prepared_equals_draw_from_manifest(self):
        prepared = prepare_dataset(small_manifest())
        for seed, delta in ((0, 2), (1, 3)):
            a = build_dataset(small_manifest(), 0.02, seed, delta)
            b = build_dataset(prepared, 0.02, seed, delta)
            for name in ("features", "true_label", "labeled_mask", "train_mask",
                         "test_mask"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            for name in ("labeled", "near_unlabeled", "far_unlabeled", "min_dist"):
                assert np.array_equal(getattr(a.partition, name),
                                      getattr(b.partition, name)), name
            assert b.prepared is prepared

    def test_propagation_is_lazy_and_shared_by_train_and_score(self, monkeypatch):
        calls = counting(monkeypatch, "train", "normalize_adjacency")
        prepared = prepare_dataset(small_manifest())
        runs = [build_dataset(prepared, 0.02, seed, 3) for seed in (0, 1)]
        assert prepared.propagation is None and not calls
        for seed, ds in enumerate(runs):
            params, _ = train(ds, TrainConfig(epochs=5, seed=seed))
            metrics = score(ds, params)
            # the oracle builds its own propagation from the graph
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

    @pytest.mark.parametrize("sweep", [
        lambda m: run_grid(m, ("naive", "nnpu"), (0.02,), range(2), FAST),
        lambda m: run_ablation(m, (0.02,), range(1), FAST),
        lambda m: run_sensitivity(m, 0.02, range(1), FAST, pi_hats=(0.6,),
                                  pi_breves=(0.3,), deltas=(1, 2)),
    ], ids=["grid", "ablation", "sensitivity"])
    def test_each_sweep_loads_its_source_once(self, monkeypatch, sweep):
        calls = counting(monkeypatch, "data", "load_source")
        out = sweep(small_manifest())
        results = out if isinstance(out, list) else out["prior"] + out["delta"]
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
