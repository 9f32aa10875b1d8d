"""The two phases of one benchmark run, in the calling process.

`plain_single` and `plain_sweep` repeat a workload untraced until the time
budget is spent; `traced` runs it once with the layer wrappers of
`layers.py` installed. Each returns a dict with the phase's measurements
and the problems its output checks found. The caller pins BLAS threads
before this module imports numpy.
"""

import importlib
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, peak_rss_mb  # noqa: E402
from workloads import (SETUP_REPEATS, SWEEP_JOBS, SWEEP_METHODS,  # noqa: E402
                       SWEEP_RATIO, SWEEP_SEEDS)

# import_module, not `import pugraph.train as ...`: the package rebinds the
# name `train` to the function
MODS = {name: importlib.import_module(f"pugraph.{name}")
        for name in ("data", "graph", "nn", "losses", "train", "evaluate")}
data, graph, nn = MODS["data"], MODS["graph"], MODS["nn"]
losses, train, evaluate = MODS["losses"], MODS["train"], MODS["evaluate"]


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def train_config(config: dict, positive_prior: float):
    """The run's TrainConfig, resolving pi_p="auto" the way `pugraph train` does."""
    section = dict(config["loss"])
    if section.get("pi_p") in (None, "auto"):
        section["pi_p"] = positive_prior
    return train.TrainConfig(**config["train"], loss=losses.LossConfig(**section))


def build(config: dict, ratio: float, seed: int, delta: int):
    return data.build_dataset(config["dataset"], ratio, seed, delta)


def score(dataset, params) -> float:
    """Test macro-F1 the way `pugraph train` and `run_single` score a model."""
    adj = graph.normalize_adjacency(dataset.graph)
    cache = nn.forward_from_propagated(adj, adj.matmul(dataset.features), params)
    return evaluate.macro_f1(cache.y_hat, dataset.true_label, dataset.test_mask).macro_f1


def check_run(dataset, params, reported_f1: float) -> list[str]:
    """Output checks on one finished training run; returns the problems."""
    problems = []
    adj = graph.normalize_adjacency(dataset.graph)
    y = nn.gcn_forward(adj, dataset.features, params).y_hat
    # the program clips scores to [Y_EPS, 1 - Y_EPS]; a collapsed model sits on the clip
    if not (np.isfinite(y).all() and y.min() >= nn.Y_EPS and y.max() <= 1.0 - nn.Y_EPS):
        problems.append("scores are not finite or leave [Y_EPS, 1 - Y_EPS]")
    part = dataset.partition
    cover = np.sort(np.concatenate([part.labeled, part.near_unlabeled, part.far_unlabeled]))
    if not np.array_equal(cover, np.arange(dataset.num_nodes)):
        problems.append("partition is not a disjoint cover of all nodes")
    recomputed = evaluate.macro_f1(y, dataset.true_label, dataset.test_mask).macro_f1
    if recomputed != reported_f1:
        problems.append(f"macro_f1 recomputed with gcn_forward is {recomputed!r}, "
                        f"reported {reported_f1!r}")
    return problems


def one_run(config: dict) -> tuple[dict, object, object]:
    """One training run the way `pugraph train` does it: build, train, score."""
    seed = config["train"]["seed"]
    t0 = time.perf_counter()
    dataset = build(config, config["label_ratio"], seed, config["loss"]["delta"])
    t1 = time.perf_counter()
    params, _ = train.train(dataset, train_config(config, dataset.positive_prior))
    t2 = time.perf_counter()
    f1 = score(dataset, params)
    t3 = time.perf_counter()
    unit = {"setup_s": t1 - t0, "train_s": t2 - t1, "wall_s": t3 - t0, "macro_f1": f1}
    return unit, dataset, params


def _more(started: float, durations: list[float], budget: float, minimum: int) -> bool:
    """Whether another repetition fits the budget (always, below `minimum`)."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= budget


def setup_times(config: dict, ratio: float, seed: int, delta: int,
                repeats: int = SETUP_REPEATS) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build(config, ratio, seed, delta)
        times.append(time.perf_counter() - t0)
    return times


def plain_single(config: dict, budget: float) -> dict:
    """Repeat one training run for the budget; every repeat uses the same seed.

    Peak RSS is read after the first run, before its output checks.
    """
    units, durations, failures, peak = [], [], [], None
    started = time.perf_counter()
    while _more(started, durations, budget, minimum=2):
        t0 = time.perf_counter()
        try:
            unit, dataset, params = one_run(config)
            if peak is None:
                peak = peak_rss_mb()
            problems = check_run(dataset, params, unit["macro_f1"])
            del dataset, params  # repeats never hold two datasets at once
        except Exception as exc:  # a failed run is counted, the benchmark goes on
            unit, problems = None, [_failure(exc)]
        durations.append(time.perf_counter() - t0)
        if unit is not None:
            if units and unit["macro_f1"] != units[0]["macro_f1"]:
                problems.append(f"repeat run gave macro_f1 {unit['macro_f1']!r}, "
                                f"first run {units[0]['macro_f1']!r}")
            units.append(unit)
        failures.extend(problems[:1])
    setups = [u["setup_s"] for u in units] + setup_times(
        config, config["label_ratio"], config["train"]["seed"], config["loss"]["delta"])
    end_to_end = {}
    if units:
        end_to_end = {
            "setup_s": statistics.median(setups),
            "train_s": statistics.median(u["train_s"] for u in units),
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "macro_f1": units[0]["macro_f1"],
            "peak_rss_mb": peak,
        }
    cells = [{"method": "pugnn", "seed": config["train"]["seed"], "macro_f1": u["macro_f1"],
              "wall_time": u["wall_s"]} for u in units[:1]]
    return {"end_to_end": end_to_end, "attempted": len(durations), "failures": failures,
            "runs": len(units), "cells": cells}


def run_sweep(config: dict):
    base = train.TrainConfig(**config["train"])
    return evaluate.run_grid(config["dataset"], SWEEP_METHODS, (SWEEP_RATIO,),
                             SWEEP_SEEDS, base, dict(config["loss"]), jobs=SWEEP_JOBS)


def check_cells(results, test_count: int) -> list[str]:
    """Per-cell problems, one entry per cell ('' if the cell is fine)."""
    problems = []
    for r in results:
        if r.error is not None:
            problems.append(r.error)
        elif not (math.isfinite(r.macro_f1) and 0.0 <= r.macro_f1 <= 100.0):
            problems.append(f"macro_f1 {r.macro_f1!r} is not a percentage")
        elif r.confusion.total != test_count:
            problems.append(f"confusion counts {r.confusion.total} of {test_count} test nodes")
        else:
            problems.append("")
    return problems


def repeat_cell(config: dict, method: str, seed: int):
    """Run one sweep cell in this process with `evaluate.run_single`.

    Returns the result, the dataset its train() call saw (captured by a
    wrapper) and the problems the output checks find.
    """
    tracer, captured = Tracer(), []
    layers.keep_runs(tracer, [evaluate], captured)
    try:
        result = evaluate.run_single(
            config["dataset"], method, SWEEP_RATIO, seed,
            train.TrainConfig(**config["train"]), dict(config["loss"]))
    finally:
        tracer.restore()
    dataset, params = captured[0]
    return result, dataset, check_run(dataset, params, result.macro_f1)


def cell_summary(results) -> list[dict]:
    return [{"method": r.cell["method"], "seed": r.seed, "macro_f1": r.macro_f1,
             "wall_time": r.wall_time} for r in results]


def plain_sweep(config: dict, budget: float, pick: int) -> dict:
    """Run one cell first, as warm-up and repeat check, then repeat the sweep
    grid for the budget.

    With SWEEP_JOBS = 1 every cell runs in this process, so the peak RSS,
    read right after the grids, is that of the largest cell; the warm-up is
    one of the grid's cells, run the same way.
    """
    method = SWEEP_METHODS[pick // len(SWEEP_SEEDS) % len(SWEEP_METHODS)]
    seed = SWEEP_SEEDS[pick % len(SWEEP_SEEDS)]
    repeat, test_count, delta = None, None, None
    try:
        repeat, dataset, warm_problems = repeat_cell(config, method, seed)
        test_count, delta = int(dataset.test_mask.sum()), dataset.partition.delta
        del dataset
    except Exception as exc:  # a failed run is counted, the benchmark goes on
        warm_problems = [_failure(exc)]

    grids, durations = [], []
    started = time.perf_counter()
    while _more(started, durations, budget, minimum=1):
        t0 = time.perf_counter()
        results = run_sweep(config)
        durations.append(time.perf_counter() - t0)
        grids.append(results)
    peak = peak_rss_mb()

    first = cell_summary(grids[0])
    if repeat is not None:
        twin = next(c for c in first if (c["method"], c["seed"]) == (method, seed))
        if twin["macro_f1"] != repeat.macro_f1:
            warm_problems.append(f"repeat of cell {method}/seed {seed} gave macro_f1 "
                                 f"{repeat.macro_f1!r}, sweep {twin['macro_f1']!r}")
    failures, attempted = warm_problems[:1], sum(len(g) for g in grids) + 1
    for results in grids:
        problems = check_cells(results, test_count)
        for i, (a, b) in enumerate(zip(cell_summary(results), first)):
            if a["macro_f1"] != b["macro_f1"] and not problems[i]:
                problems[i] = f"repeat sweep changed macro_f1 of cell {i}"
        failures.extend(p for p in problems if p)
    if delta is None:
        return {"end_to_end": {}, "attempted": attempted, "failures": failures,
                "runs": len(grids), "cells": first}
    setups = setup_times(config, SWEEP_RATIO, seed, delta, SETUP_REPEATS + 1)
    walls = [r.wall_time for g in grids for r in g]
    return {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "train_s": statistics.median(walls),
            "wall_s": statistics.median(durations),
            "macro_f1": statistics.fmean(c["macro_f1"] for c in first),
            "peak_rss_mb": peak,
        },
        "attempted": attempted, "failures": failures, "runs": len(grids), "cells": first,
        "pool_efficiency": statistics.median(
            sum(r.wall_time for r in g) / (SWEEP_JOBS * d) for g, d in zip(grids, durations)),
    }


def traced(workload: str, config: dict) -> dict:
    """Run the workload once with every layer wrapped; checks each train() call.

    The returned dict holds the run's wall time (None if it failed) and the
    tracer, whose spans the caller writes out.
    """
    tracer, captured, wall = Tracer(), [], None
    layers.install(tracer, MODS, captured)
    try:
        if workload == "cora-sweep":
            # SWEEP_JOBS is 1, so the cells run in this process like the untraced sweep's
            t0 = time.perf_counter()
            results = run_sweep(config)
            wall = time.perf_counter() - t0
            reported = [r.macro_f1 for r in results]
            cells = cell_summary(results)
            attempted = len(results)
            failures = [r.error for r in results if r.error is not None]
        else:
            attempted, failures, reported, cells = 1, [], [], []
            span = tracer.begin("evaluate.cell")
            try:
                unit = one_run(config)[0]
            except Exception as exc:  # counted as a failed run
                failures.append(_failure(exc))
            finally:
                tracer.end(span)
            if not failures:
                wall = span.seconds
                reported = [unit["macro_f1"]]
                cells = [{"method": "pugnn", "seed": config["train"]["seed"],
                          "macro_f1": unit["macro_f1"], "wall_time": span.seconds}]
    finally:
        tracer.restore()
    if len(captured) != len(reported):
        failures.append(f"{len(captured)} traced train() calls for {len(reported)} runs")
    for (dataset, params), f1 in zip(captured, reported):
        failures.extend(check_run(dataset, params, f1)[:1])
    metrics, fired, notes = layers.layer_metrics(tracer, nn.HIDDEN_DIM)
    return {"layer": metrics, "fired": fired, "notes": notes, "cells": cells,
            "wall_s": wall, "attempted": attempted, "failures": failures, "tracer": tracer}
