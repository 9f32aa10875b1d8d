"""Deterministic full-graph training: Adam, negative sampling, epoch loop.

A run is a pure function of (dataset, TrainConfig): parameter init, the
negative sampler and the PU mask are all seeded, matrix products are plain
numpy, and the per-epoch log is reproducible byte-for-byte apart from the
wall-time fields.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericError, TrainingAbort
from .graph import Graph, NormalizedAdjacency, normalize_adjacency
from .losses import LossConfig, combined_objective
from .nn import (WEIGHT_NAMES, Y_EPS, ParamStore, forward_from_propagated,
                 gcn_backward, init_params)


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

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
    log_every: int = 1
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")
        self.loss.validate()


_SLOTS_PER_EDGE = 32  # sampler: membership-table slots per directed edge
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


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

    def _draw(self, queries: np.ndarray) -> np.ndarray:
        """One valid draw per entry of `queries` (flat array of node ids).

        Every entry draws once; only the rejected entries draw again, in
        order, until none is left.
        """
        n = self.graph.num_nodes
        out = self.rng.integers(0, n, size=queries.size)
        self.counts["draws"] += out.size
        pending = np.flatnonzero(self._rejected(queries, out))
        while pending.size:
            cand = self.rng.integers(0, n, size=pending.size)
            self.counts["draws"] += cand.size
            self.counts["redraw_rounds"] += 1
            bad = self._rejected(queries[pending], cand)
            out[pending[~bad]] = cand[~bad]
            pending = pending[bad]
        return out

    def sample(self, node: int, k: int) -> np.ndarray:
        if not 0 <= node < self.graph.num_nodes:
            raise InputError(f"node id {node} out of range")
        if self.non_neighbor_counts[node] == 0:
            raise InputError(f"node {node} has no non-neighbors to sample from")
        return self._draw(np.full(k, node, dtype=np.int64))

    def edge_negatives(self, src: np.ndarray, dst: np.ndarray, k: int) -> np.ndarray:
        """k draws from the non-neighbors of each src node; dst is unused here
        but part of the protocol so replay samplers can key on the edge."""
        if src.size and (self.non_neighbor_counts[src] == 0).any():
            raise InputError("edge_negatives called with a source that has no non-neighbors")
        return self._draw(np.repeat(src, k)).reshape(src.size, k)


class Adam:
    """Bias-corrected Adam with decoupled weight decay on the weights only."""

    def __init__(self, learning_rate: float = 0.01, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict = {}
        self._v: dict = {}

    def step(self, params: ParamStore):
        if not self._m:
            self._m = {k: np.zeros_like(p) for k, p in params.values.items()}
            self._v = {k: np.zeros_like(p) for k, p in params.values.items()}
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v = self._m, self._v
        for name, p in params.values.items():
            g = params.grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            update = (m[name] / c1) / (np.sqrt(v[name] / c2) + self.eps)
            if self.weight_decay > 0.0 and name in WEIGHT_NAMES:
                update = update + self.weight_decay * p
            p -= self.learning_rate * update


def propagate(dataset) -> tuple[NormalizedAdjacency, np.ndarray]:
    """(A_hat, A_hat @ X) of the dataset, built on first use and kept on its
    PreparedDataset, so the runs drawn from it and their scoring share one copy."""
    prepared = dataset.prepared
    if prepared.propagation is None:
        adj = normalize_adjacency(prepared.graph)
        prepared.propagation = (adj, adj.matmul(prepared.features))
    return prepared.propagation


def _grad_norm(params: ParamStore) -> float:
    total = 0.0
    for g in params.grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def train(dataset, config: TrainConfig) -> tuple[ParamStore, list[dict]]:
    """Run the full training loop; returns final parameters and per-epoch log.

    Each log record holds the epoch's loss and its parts, the gradient norm,
    the shares of scores on the Y_EPS clip (`frac_clipped`) and at or above
    0.5 (`frac_positive`), the sampler's counts for the epoch (`sampler`:
    candidates drawn, redraw rounds, exact neighbor checks) and the epoch's
    wall time.

    Aborts with TrainingAbort on divergence (see TrainConfig): a forward pass
    with every score on the Y_EPS clip, or a non-finite loss or activation.
    The abort carries the parameters of the last epoch whose forward pass and
    loss passed these checks, and the records logged before it.
    """
    config.validate()
    if dataset.partition.delta != config.loss.delta:
        raise ConfigError(
            f"dataset partition was built with delta={dataset.partition.delta}, "
            f"config requests delta={config.loss.delta}"
        )
    adj, ax = propagate(dataset)
    params = init_params(dataset.features.shape[1], config.seed)
    sampler = NegativeSampler(dataset.graph, config.seed)
    opt = Adam(learning_rate=config.learning_rate, weight_decay=config.weight_decay)
    records: list[dict] = []
    last_good = params.copy()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        drawn = dict(sampler.counts)
        try:
            cache = forward_from_propagated(adj, ax, params)
            value, grad_y, grad_z = combined_objective(
                cache.y_hat, cache.z, dataset.partition, dataset.graph,
                config.loss, sampler)
        except NumericError as exc:
            raise TrainingAbort(f"{exc} at epoch {epoch}", epoch, last_good, records)
        if not np.isfinite(value.total):
            raise TrainingAbort(
                f"non-finite loss {value.total} at epoch {epoch}", epoch, last_good,
                records)
        clipped = (cache.y_hat <= Y_EPS) | (cache.y_hat >= 1.0 - Y_EPS)
        if clipped.all():
            raise TrainingAbort(
                f"diverged at epoch {epoch}: every score sits on the Y_EPS clip",
                epoch, last_good, records)
        last_good = params.copy()
        params.zero_grad()
        gcn_backward(cache, grad_y, grad_z, params)
        gnorm = _grad_norm(params)
        opt.step(params)
        if epoch % config.log_every == 0 or epoch == config.epochs:
            records.append({
                "epoch": epoch,
                "total": value.total,
                "parts": {k: float(p) for k, p in value.parts.items()},
                "grad_norm": gnorm,
                "frac_clipped": float(clipped.mean()),
                "frac_positive": float((cache.y_hat >= 0.5).mean()),
                "sampler": {k: v - drawn[k] for k, v in sampler.counts.items()},
                "wall_time_ms": (time.perf_counter() - t0) * 1e3,
            })
    return params, records
