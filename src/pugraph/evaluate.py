"""Metrics and the experiment grid: main table, ablations, sensitivity sweeps.

A grid cell is one (dataset, method, ratio, extra knobs) combination; each
cell runs once per seed and aggregates to mean +/- sample std. Cells are
independent jobs, so a worker pool can execute them concurrently without
changing any result.

A grid prepares its dataset once (`data.prepare_dataset`); each cell draws
its PU mask and partition from it, so a cell's wall_time excludes the shared
preparation, apart from A_hat @ X, built by the first cell a process trains.
A failed preparation is recorded on every cell. `build_run` resolves every run,
a cell's and each `pugraph` command's; a cell's loss settings are its method's
pins (METHOD_LOSS), then its own knobs, then the grid's loss_overrides.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import PreparedDataset, PUDataset, build_dataset, prepare_dataset
from .errors import ConfigError, InputError, error_kind
from .graph import normalize_adjacency  # noqa: F401  (perfbench wraps it here)
from .losses import LossConfig
from .nn import forward_from_propagated
from .train import TrainConfig, propagate, train

MAIN_METHODS = ("naive", "nnpu", "distpu", "pugnn")
DEFAULT_RATIOS = (0.001, 0.002, 0.005, 0.01)

# Each method's pinned loss settings; they win over a cell's loss_overrides.
METHOD_LOSS = {
    "naive": {"kind": "naive", "alpha": 0.0},
    "nnpu": {"kind": "nnpu", "alpha": 0.0},
    "distpu": {"kind": "distpu", "alpha": 0.0},
    "pugnn": {"kind": "distance_aware"},
    # ablation variants
    "pugnn_noreg": {"kind": "distance_aware", "alpha": 0.0},
    "naive_reg": {"kind": "naive"},
}

# Each sweep kind's cells, (method, loss knobs, cell extra), and default label
# ratios. The ablation's regularizer-only variant falls back to the naive loss
# for supervision; prior keeps pi_hat > pi_breve.
SWEEPS = {
    "main": ([(m, {}, None) for m in MAIN_METHODS], DEFAULT_RATIOS),
    "ablation": ([(m, {}, {"variant": v}) for m, v in (
        ("pugnn", "full"), ("naive_reg", "struct_reg_only"),
        ("pugnn_noreg", "pu_loss_only"), ("naive", "gcn"))], DEFAULT_RATIOS),
    "prior": ([("pugnn", p, p) for p in (
        {"pi_hat": ph, "pi_breve": pb} for ph in (0.5, 0.6, 0.7, 0.8, 0.9)
        for pb in (0.1, 0.2, 0.3, 0.4) if ph > pb)], (0.002,)),
    "delta": ([("pugnn", {"delta": d}, {"delta": d}) for d in range(1, 6)], (0.002,)),
}


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricSummary:
    macro_f1: float  # percent
    f1_pos: float
    f1_neg: float
    confusion: ConfusionCounts
    frac_positive: float  # share of every scored node, masked or not, at >= 0.5


@dataclass
class ExperimentResult:
    cell: dict
    seed: int
    macro_f1: float
    f1_pos: float
    f1_neg: float
    confusion: ConfusionCounts | None
    wall_time: float
    error: str | None = None
    error_kind: str | None = None  # EXIT_CODES key of the error, if mapped
    frac_positive: float | None = None  # MetricSummary's; None for a failed run


def confusion_counts(y_hat: np.ndarray, true_label: np.ndarray,
                     eval_mask: np.ndarray) -> ConfusionCounts:
    """Counts at threshold 0.5 over the masked nodes (positive class = 1)."""
    pred = np.asarray(y_hat)[eval_mask] >= 0.5
    truth = np.asarray(true_label)[eval_mask] == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & truth)),
        fp=int(np.sum(pred & ~truth)),
        tn=int(np.sum(~pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
    )


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1(y_hat: np.ndarray, true_label: np.ndarray,
             eval_mask: np.ndarray) -> MetricSummary:
    """Unweighted mean of the two per-class F1 scores over the masked nodes,
    as percentages, and the share of all nodes predicted positive."""
    eval_mask = np.asarray(eval_mask)
    if not eval_mask.any():
        raise InputError("macro_f1 requires a nonempty evaluation mask")
    c = confusion_counts(y_hat, true_label, eval_mask)
    f1_pos = 100.0 * _f1(c.tp, c.fp, c.fn)
    f1_neg = 100.0 * _f1(c.tn, c.fn, c.fp)
    return MetricSummary((f1_pos + f1_neg) / 2.0, f1_pos, f1_neg, c,
                         float((np.asarray(y_hat) >= 0.5).mean()))


def build_run(prepared: PreparedDataset, loss_settings: dict, train_config: TrainConfig,
              ratio: float, seed: int) -> tuple[PUDataset, TrainConfig]:
    """One run: the PU mask drawn at `ratio` with `seed`, its partition at the
    loss's delta, and `train_config` with `seed` and the LossConfig of
    `loss_settings` (absent keys take the defaults).

    pi_p "auto" or absent becomes the true positive rate of `prepared`, an
    oracle read from the true labels. Raises ConfigError for an unknown key
    or a value of the wrong type or out of range.
    """
    section = dict(loss_settings)
    if section.get("pi_p") in (None, "auto"):
        section["pi_p"] = prepared.positive_prior
    try:
        loss = LossConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"bad 'loss' section: {exc}") from None
    return (build_dataset(prepared, ratio, seed, loss.delta),
            replace(train_config, seed=seed, loss=loss))


def score(dataset, params) -> MetricSummary:
    """Test-mask metrics of a model, from the dataset's shared propagation."""
    cache = forward_from_propagated(*propagate(dataset), params)
    return macro_f1(cache.y_hat, dataset.true_label, dataset.test_mask)


def _cell(manifest: dict, method: str, ratio: float, cell_extra: dict | None) -> dict:
    return {"dataset": manifest.get("name", "unnamed"), "method": method,
            "ratio": ratio, **(cell_extra or {})}


def run_single(source, method: str, ratio: float, seed: int,
               train_config: TrainConfig | None = None,
               loss_overrides: dict | None = None,
               cell_extra: dict | None = None) -> ExperimentResult:
    """Train one cell on a manifest or PreparedDataset and score it on the test
    mask. wall_time covers drawing the PU mask and partition, training and
    scoring, and the preparation only if `source` is a manifest."""
    if method not in METHOD_LOSS:
        raise InputError(f"unknown method {method!r}; expected one of {sorted(METHOD_LOSS)}")
    t0 = time.perf_counter()
    prepared = source if isinstance(source, PreparedDataset) else prepare_dataset(source)
    dataset, cfg = build_run(prepared, {**(loss_overrides or {}), **METHOD_LOSS[method]},
                             train_config or TrainConfig(), ratio, seed)
    params, _ = train(dataset, cfg)
    metrics = score(dataset, params)
    return ExperimentResult(_cell(prepared.manifest, method, ratio, cell_extra), seed,
                            metrics.macro_f1, metrics.f1_pos, metrics.f1_neg,
                            metrics.confusion, time.perf_counter() - t0,
                            frac_positive=metrics.frac_positive)


def _failed(manifest: dict, spec, exc: Exception) -> ExperimentResult:
    method, ratio, seed, _, _, cell_extra = spec
    return ExperimentResult(_cell(manifest, method, ratio, cell_extra), seed,
                            float("nan"), float("nan"), float("nan"), None, 0.0,
                            error=f"{type(exc).__name__}: {exc}",
                            error_kind=error_kind(exc))


def _run_cell(prepared: PreparedDataset, spec) -> ExperimentResult:
    try:
        return run_single(prepared, *spec)
    except Exception as exc:  # cell failure is recorded, the grid continues
        return _failed(prepared.manifest, spec, exc)


_worker_prepared: PreparedDataset | None = None  # a pool worker's, set by _init_worker


def _init_worker(prepared: PreparedDataset):
    global _worker_prepared
    _worker_prepared = prepared


def _run_worker_cell(spec) -> ExperimentResult:
    return _run_cell(_worker_prepared, spec)


def _run_jobs(manifest: dict, cells, ratios, seeds, train_config: TrainConfig | None,
              loss_overrides: dict | None, jobs: int) -> list[ExperimentResult]:
    """Run every (cell, ratio, seed), in that order, on the manifest prepared
    once (a pool worker gets it once, through its initializer). A cell is
    (method, loss knobs, cell extra); its knobs win over `loss_overrides`."""
    base = loss_overrides or {}
    jobs_spec = [(method, r, s, train_config, {**base, **knobs}, extra)
                 for method, knobs, extra in cells for r in ratios for s in seeds]
    try:
        prepared = prepare_dataset(manifest)
    except Exception as exc:  # as a cell failure would be
        return [_failed(manifest, spec, exc) for spec in jobs_spec]
    workers = min(jobs, len(jobs_spec))  # a pool starts every worker at once
    if workers <= 1:
        return [_run_cell(prepared, spec) for spec in jobs_spec]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(prepared,)) as pool:
        return list(pool.map(_run_worker_cell, jobs_spec))


def run_grid(manifest: dict, methods=MAIN_METHODS, ratios=DEFAULT_RATIOS,
             seeds=range(5), train_config: TrainConfig | None = None,
             loss_overrides: dict | None = None, jobs: int = 1,
             ) -> list[ExperimentResult]:
    """One result per (method, ratio, seed); failures recorded in-place."""
    return _run_jobs(manifest, [(m, {}, None) for m in methods], ratios, seeds,
                     train_config, loss_overrides, jobs)


def run_sweep(manifest: dict, kind: str, ratios=None, seeds=range(5),
              train_config: TrainConfig | None = None,
              loss_overrides: dict | None = None, jobs: int = 1,
              ) -> list[ExperimentResult]:
    """One result per (cell, ratio, seed) of a SWEEPS kind; ratios default to the kind's."""
    cells, default_ratios = SWEEPS[kind]
    return _run_jobs(manifest, cells, ratios or default_ratios, seeds,
                     train_config, loss_overrides, jobs)


def aggregate(results: list[ExperimentResult]) -> list[dict]:
    """Group by cell, report mean and sample (n-1) std of the macro F1 and
    the count of one-class runs, whose frac_positive is 0.0 or 1.0.

    A cell with no successful run has mean and std None (null in JSON).
    """
    groups: dict[tuple, list[ExperimentResult]] = {}
    for r in results:
        key = tuple(sorted(r.cell.items()))
        groups.setdefault(key, []).append(r)
    rows = []
    for key in sorted(groups, key=str):
        ok = [r for r in groups[key] if r.error is None]
        scores = np.array([r.macro_f1 for r in ok])
        std = float(scores.std(ddof=1)) if len(ok) > 1 else 0.0
        row = dict(key)
        row.update({
            "n": len(ok),
            "mean": float(scores.mean()) if ok else None,
            "std": std if ok else None,
            "one_class_runs": sum(r.frac_positive in (0.0, 1.0) for r in ok),
            "errors": [r.error for r in groups[key] if r.error is not None],
        })
        rows.append(row)
    return rows


def write_results_csv(path, results: list[ExperimentResult]):
    """CSV with one row per successful run, sorted for reproducible bytes."""
    extra_keys = sorted({k for r in results for k in r.cell} - {"dataset", "method", "ratio"})
    fields = (["dataset", "method", "ratio"] + extra_keys
              + ["seed", "macro_f1", "f1_pos", "f1_neg", "wall_time"])
    ordered = sorted((r for r in results if r.error is None),
                     key=lambda r: (str(sorted(r.cell.items())), r.seed))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in ordered:
            row = {k: r.cell.get(k, "") for k in ["dataset", "method", "ratio"] + extra_keys}
            row.update({"seed": r.seed, "macro_f1": repr(r.macro_f1),
                        "f1_pos": repr(r.f1_pos), "f1_neg": repr(r.f1_neg),
                        "wall_time": repr(r.wall_time)})
            writer.writerow(row)
