"""Deterministic full-graph training: Adam, negative sampling, epoch loop.

A run is a pure function of (dataset, TrainConfig): parameter init, the
negative sampler and the PU mask are all seeded, matrix products are plain
numpy, and the per-epoch log is reproducible byte-for-byte apart from the
wall-time fields.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericError, TrainingAbort, check_types
from .graph import Graph, NormalizedAdjacency, normalize_adjacency
from .losses import LossConfig, combined_objective
from .nn import (WEIGHT_NAMES, Y_EPS, SparseFeatures, forward_from_propagated, gcn_backward,
                 init_params)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run; checked when built, as LossConfig is.

    A run that diverges aborts with TrainingAbort. Divergence is a forward
    pass that puts every score on the Y_EPS clip (each one at Y_EPS or
    1 - Y_EPS), or a non-finite loss or activation. The clipped scores keep
    the loss finite and bounded, so a finite-loss check alone never sees a
    blown-up run; a partly clipped run is not divergence.
    """

    epochs: int = 400
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        check_types(self, "train")
        if self.epochs < 1:
            raise ConfigError(f"train.epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"train.learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"train.weight_decay must be >= 0, got {self.weight_decay}")


_SLOTS_PER_EDGE = 32  # sampler: membership-table slots per directed edge
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd
_CHECK_BLOCK = 2**16  # sampler: candidates per block of the first rejection test


class NegativeSampler:
    """Uniform draws over the non-neighbors of a query node, with replacement.

    Draws are produced by rejection from uniform-over-all-nodes (reject self
    and neighbors); the sequence is fully determined by (seed, query order).

    The neighbor test is prefiltered by a membership table of 2^b booleans,
    b = max(10, ceil(log2(_SLOTS_PER_EDGE * E))) for E directed edges: the
    Fibonacci hash (key * _FIBONACCI mod 2^64) >> (64 - b) of every edge key
    src * n + dst marks its slot. A draw whose slot is unmarked is no edge;
    only the rest (the edges plus about 1/_SLOTS_PER_EDGE of the others)
    reach the exact searchsorted over the sorted keys. The table takes
    _SLOTS_PER_EDGE to 2 * _SLOTS_PER_EDGE bytes per directed edge, O(E).
    The rejection mask is exactly the exact test's, so the redraw order and
    the draw stream are those of the plain searchsorted test.

    `edge_negatives` holds its (E', k) int64 output and, besides it, one
    block's queries and keys (about _CHECK_BLOCK entries each) plus the
    rejected entries: on a Cora- or sbm-8k-shaped graph at k = 50 its
    allocations peak at about 1.1 to 1.3 times the output. The block size
    changes no draw, count or bit.

    `counts` accumulates, over the sampler's life, the candidates drawn
    (redraws included), the redraw rounds and the candidates that reached
    the exact check.
    """

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.rng = np.random.default_rng(seed)
        self.non_neighbor_counts = graph.num_nodes - 1 - graph.degrees
        src, dst = graph.directed_edges()
        self._edge_keys = src * graph.num_nodes + dst  # sorted by CSR order
        bits = max(10, int(np.ceil(np.log2(max(1.0, _SLOTS_PER_EDGE * src.size)))))
        self._shift = np.uint64(64 - bits)
        self._marked = np.zeros(1 << bits, dtype=bool)
        self._marked[self._slots(self._edge_keys.copy())] = True
        self.counts = {"draws": 0, "redraw_rounds": 0, "exact_checks": 0}

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Table slot of each int64 key, hashed in place; returned as int64
        so that indexing the table makes no intp copy."""
        hashed = keys.view(np.uint64)
        hashed *= _FIBONACCI  # wraps mod 2^64
        hashed >>= self._shift
        return keys

    def _rejected(self, queries: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Mask of the draws that hit the query itself or one of its neighbors."""
        bad = cand == queries
        keys = queries * self.graph.num_nodes
        keys += cand
        check = np.flatnonzero(self._marked[self._slots(keys)])
        self.counts["exact_checks"] += check.size
        if check.size:
            keys = queries[check] * self.graph.num_nodes
            keys += cand[check]
            pos = np.searchsorted(self._edge_keys, keys)
            # "clip" maps the past-the-end position to the last key and,
            # unlike "raise", writes into pos without a buffered copy
            np.take(self._edge_keys, pos, out=pos, mode="clip")
            bad[check] |= pos == keys
        return bad

    def edge_negatives(self, src: np.ndarray, k: int) -> np.ndarray:
        """k draws from the non-neighbors of each src node, one row per entry.

        All E' * k candidates come from one draw. The first rejection test
        runs over blocks of whole edges, about _CHECK_BLOCK candidates each,
        whose queries are repeated per block; then only the rejected
        entries, in order, draw again until none is left.
        """
        if src.size and (self.non_neighbor_counts[src] == 0).any():
            raise InputError("edge_negatives called with a source that has no non-neighbors")
        n = self.graph.num_nodes
        out = self.rng.integers(0, n, size=src.size * k)
        self.counts["draws"] += out.size
        step = max(1, _CHECK_BLOCK // k)  # edges per block
        pending = np.concatenate([np.empty(0, dtype=np.int64)] + [
            lo * k + np.flatnonzero(self._rejected(np.repeat(src[lo:lo + step], k),
                                                   out[lo * k:(lo + step) * k]))
            for lo in range(0, src.size, step)])
        queries = src[pending // k]
        while pending.size:
            cand = self.rng.integers(0, n, size=pending.size)
            self.counts["draws"] += cand.size
            self.counts["redraw_rounds"] += 1
            bad = self._rejected(queries, cand)
            out[pending[~bad]] = cand[~bad]
            pending, queries = pending[bad], queries[bad]
        return out.reshape(src.size, k)


_BETAS = (0.9, 0.999)  # Adam's moment decay rates
_EPS = 1e-8


class Adam:
    """Bias-corrected Adam with decoupled weight decay on the weights only."""

    def __init__(self, learning_rate: float = 0.01, weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict = {}
        self._v: dict = {}

    def step(self, params: dict, grads: dict) -> dict[str, np.ndarray]:
        """The next parameters, as new arrays; params and grads are not written."""
        self.t += 1
        b1, b2 = _BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v = self._m, self._v
        stepped = {}
        for name, p in params.items():
            g = grads[name]
            m[name] = b1 * m.get(name, 0.0) + (1.0 - b1) * g  # both moments start at 0
            v[name] = b2 * v.get(name, 0.0) + (1.0 - b2) * g * g
            update = (m[name] / c1) / (np.sqrt(v[name] / c2) + _EPS)
            if self.weight_decay > 0.0 and name in WEIGHT_NAMES:
                update = update + self.weight_decay * p
            # asarray: on the 0-d b_head, p - x is a numpy scalar, not an array
            stepped[name] = np.asarray(p - self.learning_rate * update)
        return stepped


# Features with a smaller share of nonzeros train through CSR products. An
# epoch's forward and backward through them took 0.33-0.42 of the dense time
# at 1-1.25% density, 0.46-0.57 at 2-2.5%, 0.61-0.70 at 3% and 0.72-0.78 at
# 4% on 1,433 columns; on 500 columns, 0.54-0.82 at 1-1.5%, 0.65-0.80 at
# 2-2.5%, 0.69-0.87 at 3% and 0.69-1.11 at 4%; at 5%, 0.92-1.12 on both
# widths (2,708 rows, one BLAS thread). Cora's 1.26% is below; an
# SBM's features, above 20%, are not.
SPARSE_DENSITY = 0.03


def propagate(dataset, sparse: bool = False) -> tuple[NormalizedAdjacency,
                                                      np.ndarray | SparseFeatures]:
    """A_hat and the first layer's feature operand for the dataset, each built
    on first use and kept on its PreparedDataset, so the runs drawn from it
    and their scoring share one copy. The operand is A_hat @ X; with `sparse`
    (training) and features of density below SPARSE_DENSITY, it is X's
    SparseFeatures instead."""
    prepared = dataset.prepared
    if prepared.adjacency is None:
        prepared.adjacency = normalize_adjacency(prepared.graph)
    if sparse and prepared.feature_density < SPARSE_DENSITY:
        if prepared.sparse_features is None:
            prepared.sparse_features = SparseFeatures.of(prepared.features)
        return prepared.adjacency, prepared.sparse_features
    if prepared.propagated is None:
        prepared.propagated = prepared.adjacency.matmul(prepared.features)
    return prepared.adjacency, prepared.propagated


def train(dataset, config: TrainConfig) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Run the full training loop; returns final parameters and per-epoch log.

    Each log record holds the epoch's loss and its parts, the gradient norm,
    the shares of scores on the Y_EPS clip (`frac_clipped`) and at or above
    0.5 (`frac_positive`), the sampler's counts for the epoch (`sampler`:
    candidates drawn, redraw rounds, exact neighbor checks), the
    regularizer's pairs scored and skipped edges (`pairs`, `skipped_edges`,
    0 when alpha = 0; the first epoch's skips are also logged, as one warning
    per run), the epoch's wall time and its split (`phase_ms`):
    the forward pass, the objective (PU loss and regularizer, sampler
    included) with its parts `pu_loss`, `sampler` and `regularizer` (the
    rest of the regularizer), the backward pass with the gradient norm, and
    the Adam step. `wall_time_ms` and `phase_ms` are the
    only fields that differ between two runs of one config.

    Aborts with TrainingAbort on divergence (see TrainConfig): a forward pass
    with every score on the Y_EPS clip, or a non-finite loss or activation.
    The abort carries the parameters of the last epoch whose forward pass and
    loss passed these checks, and the records logged before it.
    """
    if dataset.partition.delta != config.loss.delta:
        raise ConfigError(
            f"dataset partition was built with delta={dataset.partition.delta}, "
            f"config requests delta={config.loss.delta}"
        )
    adj, ax = propagate(dataset, sparse=True)
    params = init_params(dataset.features.shape[1], config.seed)
    sampler = NegativeSampler(dataset.graph, config.seed)
    opt = Adam(learning_rate=config.learning_rate, weight_decay=config.weight_decay)
    records: list[dict] = []
    last_good = params
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        drawn = dict(sampler.counts)
        try:
            cache = forward_from_propagated(adj, ax, params)
            t_forward = time.perf_counter()
            stats: dict = {}
            value, grad_y, grad_z = combined_objective(
                cache.y_hat, cache.z, dataset.partition, dataset.graph,
                config.loss, sampler, stats=stats)
            t_objective = time.perf_counter()
            if not np.isfinite(value.total):
                raise NumericError(f"non-finite loss {value.total}")
        except NumericError as exc:
            raise TrainingAbort(f"{exc} at epoch {epoch}", last_good, records)
        clipped = (cache.y_hat <= Y_EPS) | (cache.y_hat >= 1.0 - Y_EPS)
        if clipped.all():
            raise TrainingAbort(
                f"diverged at epoch {epoch}: every score sits on the Y_EPS clip",
                last_good, records)
        last_good = params
        t_backward = time.perf_counter()
        grads = gcn_backward(cache, grad_y, grad_z, params)
        gnorm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        t_adam = time.perf_counter()
        params = opt.step(params, grads)
        t_end = time.perf_counter()
        records.append({
            "epoch": epoch,
            "total": value.total,
            "parts": {k: float(p) for k, p in value.parts.items()},
            "grad_norm": gnorm,
            "frac_clipped": float(clipped.mean()),
            "frac_positive": float((cache.y_hat >= 0.5).mean()),
            "sampler": {k: v - drawn[k] for k, v in sampler.counts.items()},
            "pairs": stats["pairs"],
            "skipped_edges": stats["skipped_edges"],
            "phase_ms": {"forward": (t_forward - t0) * 1e3,
                         "objective": (t_objective - t_forward) * 1e3,
                         "pu_loss": stats["pu_loss_ms"],
                         "sampler": stats["sampler_ms"],
                         "regularizer": stats["regularizer_ms"],
                         "backward": (t_adam - t_backward) * 1e3,
                         "adam": (t_end - t_adam) * 1e3},
            "wall_time_ms": (time.perf_counter() - t0) * 1e3,
        })
        if epoch == 1 and stats["skipped_edges"]:
            log.warning("structural_regularizer skips the negative terms of %d directed "
                        "edges whose source has no non-neighbors", stats["skipped_edges"])
    return params, records
