"""Which pugraph functions the traced run wraps, and the per-layer metrics.

Every wrapper sits where the calling module looks the function up, so the
real `train()` and `run_grid()` run unchanged. Times named `.s` are totals
over the traced workload; `_ms` figures are per training epoch; `self`
times exclude nested wrapped calls (a forward pass excludes its hidden-width
matmuls, the objective excludes the regularizer, the regularizer excludes
the sampler).
"""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def load_layer_map() -> dict:
    with open(os.path.join(HERE, "layer_map.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def keep_runs(tracer, owners: list, captured: list):
    """Wrap `train` on `owners`; `captured` collects the dataset and returned
    parameters of every call."""

    def keep_run(args, result):
        captured.append((args[0], result[0]))
        return {"epochs": args[1].epochs, "records": result[1]}

    tracer.wrap(owners, "train", "train.train", annotate=keep_run)


def install(tracer, mods: dict, captured: list):
    """Wrap pugraph's public functions; `captured` collects the dataset and
    returned parameters of every train() call."""
    data, graph, nn = mods["data"], mods["graph"], mods["nn"]
    losses, train, evaluate = mods["losses"], mods["train"], mods["evaluate"]
    wrap = tracer.wrap
    wrap([data, evaluate], "build_dataset", "data.build_dataset")
    wrap([data], "load_source", "data.load_source")
    wrap([data, graph], "generate_sbm", "graph.generate_sbm", memory=True)
    wrap([data, graph], "build_graph", "graph.build_graph")
    wrap([data, graph], "partition_unlabeled", "graph.partition_unlabeled")
    wrap([graph, train, evaluate], "normalize_adjacency", "graph.normalize_adjacency")
    wrap([graph.NormalizedAdjacency], "matmul", "graph.matmul",
         annotate=lambda a, r: {"width": a[1].shape[1] if a[1].ndim == 2 else 1})
    wrap([nn, train, evaluate], "forward_from_propagated", "nn.forward")
    wrap([nn, train], "gcn_backward", "nn.backward")
    wrap([losses, train], "combined_objective", "losses.objective")
    wrap([losses], "structural_regularizer", "losses.regularizer",
         annotate=lambda a, r: {"edges": int(a[1].indices.size)})
    wrap([train.NegativeSampler], "edge_negatives", "train.sampler",
         annotate=lambda a, r: {"draws": int(r.size)})
    wrap([train.Adam], "step", "train.adam")
    keep_runs(tracer, [train, evaluate], captured)
    wrap([evaluate], "run_single", "evaluate.cell",
         annotate=lambda a, r: {"method": a[1], "macro_f1": r.macro_f1})


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def layer_metrics(tracer, hidden_dim: int) -> tuple[dict, dict, dict]:
    """Per-layer metrics from the spans, the number of spans behind each,
    and notes (sample counts) for the output.

    A metric whose spans never fired reads 0 here; the caller decides
    whether that is an error for the workload.
    """
    spans = tracer.spans
    own = tracer.self_seconds()
    in_train = tracer.within("train.train")
    in_cell = tracer.within("evaluate.cell")

    def pick(name, where=None):
        return [i for i, s in enumerate(spans)
                if s.name == name and (where is None or where(i, s))]

    def hidden(i, s):
        return s.attrs["width"] == hidden_dim

    def wide(i, s):
        return s.attrs["width"] != hidden_dim

    def training(i, s):
        return in_train[i]

    runs = pick("train.train")
    epochs = sum(spans[i].attrs["epochs"] for i in runs)
    per_epoch = 1e3 / epochs if epochs else 0.0
    cells = pick("evaluate.cell")
    metrics: dict[str, float] = {}
    fired: dict[str, int] = {}

    def put(name, value, ids):
        metrics[name] = float(value)
        fired[name] = len(ids)

    def total(metric, span, where=None, scale=1.0, self_time=False):
        ids = pick(span, where)
        times = own if self_time else [s.seconds for s in spans]
        put(metric, scale * sum(times[i] for i in ids), ids)
        return ids

    def calls(metric, span, where=None):
        ids = pick(span, where)
        put(metric, len(ids), ids)

    total("data.load_source.s", "data.load_source")
    calls("data.load_source.calls", "data.load_source")
    total("data.build_dataset.s", "data.build_dataset")

    ids = total("graph.generate_sbm.s", "graph.generate_sbm")
    put("graph.generate_sbm.alloc_mb",
        max((spans[i].attrs["alloc_peak_mb"] for i in ids), default=0.0), ids)
    total("graph.build_graph.s", "graph.build_graph")
    total("graph.partition_unlabeled.s", "graph.partition_unlabeled")
    total("graph.normalize_adjacency.s", "graph.normalize_adjacency")
    calls("graph.normalize_adjacency.calls", "graph.normalize_adjacency")
    total("graph.matmul.wide.s", "graph.matmul", wide)
    calls("graph.matmul.wide.calls", "graph.matmul", wide)
    total("graph.matmul.hidden.ms", "graph.matmul",
          lambda i, s: hidden(i, s) and in_train[i], scale=per_epoch)

    total("nn.forward.self_ms", "nn.forward", training, per_epoch, self_time=True)
    total("nn.backward.self_ms", "nn.backward", training, per_epoch, self_time=True)

    total("losses.objective.self_ms", "losses.objective", training, per_epoch,
          self_time=True)
    ids = total("losses.regularizer.self_ms", "losses.regularizer", training,
                per_epoch, self_time=True)
    draws = pick("train.sampler", training)
    pairs = (sum(spans[i].attrs["edges"] for i in ids)
             + sum(spans[i].attrs["draws"] for i in draws))
    put("losses.regularizer.pairs", pairs * per_epoch / 1e3, ids)

    total("train.sampler.ms", "train.sampler", training, per_epoch)
    put("train.sampler.draws",
        sum(spans[i].attrs["draws"] for i in draws) * per_epoch / 1e3, draws)
    total("train.adam.ms", "train.adam", training, per_epoch)
    forwards = pick("nn.forward", training)
    setups = []
    for run in runs:
        first = next((i for i in forwards if i > run), None)
        if first is not None:
            setups.append(spans[first].start - spans[run].start)
    put("train.setup.s", statistics.median(setups) if setups else 0.0, runs)

    epoch_ms = [r["wall_time_ms"] for s in runs for r in spans[s].attrs["records"]]
    p50 = statistics.median(epoch_ms) if epoch_ms else 0.0
    high, pct = tail(epoch_ms) if epoch_ms else (0.0, 0.0)
    put("train.epoch.ms.p50", p50, runs)
    put("train.epoch.ms.tail", high, runs)
    put("train.epoch.count", len(epoch_ms), runs)

    cell_s = [spans[i].seconds for i in cells]
    put("evaluate.cell.s.p50", statistics.median(cell_s) if cell_s else 0.0, cells)
    prep = sum(spans[i].seconds for i in range(len(spans)) if in_cell[i] and (
        spans[i].name in ("data.build_dataset", "graph.normalize_adjacency")
        or (spans[i].name == "graph.matmul" and wide(i, spans[i]))))
    put("evaluate.cell.prep_share", prep / sum(cell_s) if cell_s else 0.0, cells)
    notes = {"epochs": len(epoch_ms), "tail_percentile": round(pct, 1),
             "cells": len(cells)}
    return metrics, fired, notes
