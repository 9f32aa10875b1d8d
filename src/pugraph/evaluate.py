"""Metrics and the experiment grid: main table, ablations, sensitivity sweeps.

A grid cell is one (dataset, method, ratio, extra knobs) combination; each
cell runs once per seed and aggregates to mean +/- sample std. Cells are
independent jobs, so a worker pool can execute them concurrently without
changing any result.

A grid prepares its dataset once (`data.prepare_dataset`); each cell draws
its PU mask and partition from it, so a cell's wall_time excludes the shared
preparation, apart from A_hat and the first layer's operands
(`train.propagate`), built by the first cell a process trains and scores.
A failed preparation is recorded on every cell. `build_run` resolves every run,
a cell's and each `pugraph` command's; a cell's loss settings are its method's
pins (METHOD_LOSS), then its own knobs, then the grid's loss_overrides.
"""

import csv
import logging
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

log = logging.getLogger(__name__)

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
    confusion: ConfusionCounts | None  # None for a failed run
    frac_positive: float | None  # share of every scored node, masked or not, at >= 0.5

    @property
    def one_class(self) -> bool:
        """Whether the model predicts every node positive or every node negative."""
        return self.frac_positive in (0.0, 1.0)


@dataclass
class ExperimentResult(MetricSummary):
    """One scored run of a grid cell; a failed run's metrics are NaN or None."""

    cell: dict
    seed: int
    wall_time: float
    error: str | None = None
    error_kind: str | None = None  # EXIT_CODES key of the error, if mapped


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def macro_f1(y_hat: np.ndarray, true_label: np.ndarray,
             eval_mask: np.ndarray) -> MetricSummary:
    """Unweighted mean of the two per-class F1 scores over the masked nodes,
    as percentages, from their confusion counts at threshold 0.5 (positive
    class = 1), and the share of all nodes predicted positive."""
    if not np.any(eval_mask):
        raise InputError("macro_f1 requires a nonempty evaluation mask")
    pred = np.asarray(y_hat) >= 0.5
    truth = np.asarray(true_label)[eval_mask] == 1
    tn, fp, fn, tp = np.bincount(2 * truth + pred[eval_mask], minlength=4).tolist()
    f1_pos = 100.0 * _f1(tp, fp, fn)
    f1_neg = 100.0 * _f1(tn, fn, fp)
    return MetricSummary((f1_pos + f1_neg) / 2.0, f1_pos, f1_neg,
                         ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn), float(pred.mean()))


def loss_config(loss_settings: dict, positive_prior: float) -> LossConfig:
    """The LossConfig of a loss section (absent keys take the defaults), with
    pi_p "auto" or absent set to `positive_prior`. Raises ConfigError for an
    unknown key or a value of the wrong type or out of range."""
    section = dict(loss_settings)
    if section.get("pi_p") in (None, "auto"):
        section["pi_p"] = positive_prior
    try:
        return LossConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"bad 'loss' section: {exc}") from None


def build_run(prepared: PreparedDataset, loss_settings: dict, train_config: TrainConfig,
              ratio: float, seed: int) -> tuple[PUDataset, TrainConfig]:
    """One run: the PU mask drawn at `ratio` with `seed`, its partition at the
    loss's delta, and `train_config` with `seed` and the `loss_config` of
    `loss_settings`, whose pi_p "auto" is the true positive rate of
    `prepared`, an oracle read from the true labels.
    """
    loss = loss_config(loss_settings, prepared.positive_prior)
    return (build_dataset(prepared, ratio, seed, loss.delta),
            replace(train_config, seed=seed, loss=loss))


def score(dataset, params) -> MetricSummary:
    """Test-mask metrics of a model, from the dataset's shared propagation;
    a one-class model is logged as a warning."""
    cache = forward_from_propagated(*propagate(dataset), params)
    metrics = macro_f1(cache.y_hat, dataset.true_label, dataset.test_mask)
    if metrics.one_class:
        log.warning("the trained model predicts every node %s",
                    "positive" if metrics.frac_positive else "negative")
    return metrics


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
    return ExperimentResult(**vars(score(dataset, params)),
                            cell=_cell(prepared.manifest, method, ratio, cell_extra),
                            seed=seed, wall_time=time.perf_counter() - t0)


def _failed(manifest: dict, spec, exc: Exception) -> ExperimentResult:
    method, ratio, seed, _, _, cell_extra = spec
    nan = float("nan")
    return ExperimentResult(nan, nan, nan, None, None, _cell(manifest, method, ratio, cell_extra),
                            seed, 0.0, f"{type(exc).__name__}: {exc}", error_kind(exc))


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
    jobs_spec = [(method, r, s, train_config, {**(loss_overrides or {}), **knobs}, extra)
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
    the count of one-class runs (MetricSummary.one_class).

    A cell with no successful run has mean and std None (null in JSON).
    """
    groups: dict[tuple, list[ExperimentResult]] = {}
    for r in results:
        groups.setdefault(tuple(sorted(r.cell.items())), []).append(r)
    rows = []
    for key in sorted(groups, key=str):
        ok = [r for r in groups[key] if r.error is None]
        scores = np.array([r.macro_f1 for r in ok])
        std = float(scores.std(ddof=1)) if len(ok) > 1 else 0.0
        rows.append({
            **dict(key),
            "n": len(ok),
            "mean": float(scores.mean()) if ok else None,
            "std": std if ok else None,
            "one_class_runs": sum(r.one_class for r in ok),
            "errors": [r.error for r in groups[key] if r.error is not None],
        })
    return rows


def write_results_csv(path, results: list[ExperimentResult]):
    """CSV with one row per successful run, sorted for reproducible bytes."""
    first = ["dataset", "method", "ratio"]
    cell_keys = first + sorted({k for r in results for k in r.cell} - set(first))
    scores = ["macro_f1", "f1_pos", "f1_neg", "wall_time"]
    ordered = sorted((r for r in results if r.error is None),
                     key=lambda r: (str(sorted(r.cell.items())), r.seed))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cell_keys + ["seed"] + scores)
        writer.writeheader()
        for r in ordered:
            writer.writerow({**{k: r.cell.get(k, "") for k in cell_keys}, "seed": r.seed,
                             **{k: repr(getattr(r, k)) for k in scores}})
