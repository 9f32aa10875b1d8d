"""BENCHMARK.json and layer_map.json describe the same metrics."""

import json
import os

from layers import load_layer_map
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    assert tuple(w["name"] for w in bench()["workloads"]) == WORKLOADS


def test_every_per_layer_metric_has_a_layer_and_applies_somewhere():
    layer_map = load_layer_map()
    names = [m["name"] for m in bench()["per_layer"]]
    in_layers = [n for layer in layer_map["layers"] for n in layer["metrics"]]
    assert sorted(names) == sorted(in_layers) == sorted(layer_map["applies"])
    for where in layer_map["applies"].values():
        assert where and set(where) <= set(WORKLOADS)


def test_moves_name_end_to_end_metrics_and_workloads():
    layer_map = load_layer_map()
    end_to_end = {m["name"] for m in bench()["end_to_end"]}
    moves = [m for layer in layer_map["layers"] for m in layer["moves"]]
    for p in layer_map["predictions"]:
        moves += p["moves"] + p["no_change"]
    for move in moves:
        assert move["metric"] in end_to_end
        assert set(move["workloads"]) <= set(WORKLOADS)
