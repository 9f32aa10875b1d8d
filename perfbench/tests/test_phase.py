"""The phase runner on a tiny SBM: output checks pass and every span fires."""

import json
import os

import pytest

import phase
from layers import load_layer_map
from workloads import make_config

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture()
def tiny(tmp_path):
    config = make_config("sbm-8k", 5, ROOT, str(tmp_path))
    config["dataset"].update(n_pos=60, n_neg=60, p_intra=0.1, p_inter=0.01,
                             feature_dim=8)
    config["train"]["epochs"] = 3
    return config


def test_plain_repeats_and_checks(tiny):
    out = phase.plain_single(tiny, budget=0.0)
    assert out["failures"] == []
    assert out["attempted"] == out["runs"] == 2
    assert set(out["end_to_end"]) == {"setup_s", "train_s", "wall_s", "macro_f1",
                                      "peak_rss_mb"}
    assert out["cells"][0]["macro_f1"] == out["end_to_end"]["macro_f1"]


def test_plain_sweep_repeats_a_cell_with_run_single(tiny):
    out = phase.plain_sweep(tiny, budget=0.0, pick=5)
    assert out["failures"] == []
    assert out["runs"] == 1
    assert out["attempted"] == len(out["cells"]) + 1
    assert out["end_to_end"]["peak_rss_mb"] > 0
    assert 0 < out["pool_efficiency"] <= 1


def test_plain_sweep_flags_a_repeat_that_differs(tiny, monkeypatch):
    real = phase.repeat_cell

    def shifted(*args):
        result, dataset, problems = real(*args)
        result.macro_f1 += 1.0
        return result, dataset, problems

    monkeypatch.setattr(phase, "repeat_cell", shifted)
    out = phase.plain_sweep(tiny, budget=0.0, pick=5)
    assert len(out["failures"]) == 1 and "repeat of cell" in out["failures"][0]


def test_traced_fires_every_span_that_applies(tiny):
    out = phase.traced("sbm-8k", tiny)
    assert out["failures"] == []
    applies = load_layer_map()["applies"]
    # the remaining metrics are derived from the untraced phase in run.py
    for name in out["layer"]:
        if "sbm-8k" in applies[name]:
            assert out["fired"][name] > 0, name
    assert out["layer"]["train.epoch.count"] == 3
    assert out["wall_s"] > 0
    assert out["layer"]["graph.generate_sbm.alloc_mb"] > 0
    assert out["layer"]["losses.regularizer.pairs"] == pytest.approx(
        out["layer"]["train.sampler.draws"] * 51 / 50)


def test_wrappers_are_removed_after_the_traced_run(tiny):
    before = phase.train.train
    phase.traced("sbm-8k", tiny)
    assert phase.train.train is before
    assert phase.evaluate.train is before


def test_traced_spans_are_written_out(tiny, tmp_path):
    out = phase.traced("sbm-8k", tiny)
    path = tmp_path / "spans.jsonl"
    out["tracer"].write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(out["tracer"].spans)
    assert rows[0]["name"] == "evaluate.cell" and rows[0]["parent"] is None
    assert {r["name"] for r in rows} >= {"train.train", "losses.regularizer"}
    assert all(r["end"] >= r["start"] for r in rows)
