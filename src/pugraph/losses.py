"""PU losses, the structural regularizer, and the combined training objective.

Every operation returns its value together with exact gradients w.r.t. the
per-node scores y_hat (and the representations Z for the regularizer). The
|.| subgradient at a kink is 0, as is the clamped branch of the nnPU max.

Every PU loss reads the run's DistancePartition: V_L is partition.labeled and
V_U every other node, in ascending order; only the distance-aware loss splits
V_U into near and far. distpu_loss and distance_aware_loss share one
distribution-matching core, so the distance-aware loss with an empty far set
and pi_hat = pi_p reduces to the Dist-PU loss bit-exactly, not just
approximately.

structural_regularizer has one path for every graph size, chunked per directed
edge, in O((n + E) * d + E * k) memory for E edges and k negatives each: no
n x n array. The E * k term is the sampler's int64 draws, held whole for the
call (about 14 MB on sbm-8k); the chunks and tiles add only fixed workspaces.
It works with two sizes. Chunks of _EDGE_CHUNK edges are fixed: the
value's vdot and the gradient's np.add.at scatter sums run over a whole
chunk, so the chunk sets their order and the bits. Tiles of a chunk are
sized for the cache (about _TILE_FLOATS gathered floats, 1 MB) and change
no bits, since every per-pair result is elementwise or an einsum over one
edge's row. Its arithmetic is that of a loop of fresh arrays per chunk, in
the same order, so the bits are too.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, check_types
from .graph import DistancePartition, Graph
from .nn import sigmoid

LOSS_KINDS = ("naive", "nnpu", "distpu", "distance_aware")


@dataclass(frozen=True)
class LossConfig:
    """Loss selector plus the priors and regularizer knobs.

    pi_p is the overall positive prior (nnpu / distpu); pi_hat and pi_breve
    are the priors assumed for the near / far unlabeled subsets. Checked when
    built (ConfigError, by check_types, then ranges); immutable after.
    """

    kind: str = "distance_aware"
    pi_p: float = 0.5
    pi_hat: float = 0.6
    pi_breve: float = 0.3
    delta: int = 3
    alpha: float = 0.01
    k: int = 50

    def __post_init__(self):
        check_types(self, "loss")
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss.kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        for name in ("pi_p", "pi_hat", "pi_breve"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"loss.{name} must lie in (0, 1), got {v}")
        if self.kind == "distance_aware" and not self.pi_hat > self.pi_breve:
            raise ConfigError(f"loss.pi_hat must exceed loss.pi_breve for distance_aware, "
                              f"got {self.pi_hat} <= {self.pi_breve}")
        if self.delta < 1:
            raise ConfigError(f"loss.delta must be >= 1, got {self.delta}")
        if self.alpha < 0.0:
            raise ConfigError(f"loss.alpha must be >= 0, got {self.alpha}")
        if self.alpha > 0.0 and self.k < 1:
            raise ConfigError(f"loss.k must be >= 1 when loss.alpha > 0, got {self.k}")


@dataclass
class LossValue:
    """Total loss plus its named parts.

    The parts sum to the total with documented coefficients: every part
    enters with coefficient 1 except "regularizer", which is stored raw and
    enters the total multiplied by alpha.
    """

    total: float
    parts: dict[str, float] = field(default_factory=dict)


def naive_loss(y_hat: np.ndarray, partition: DistancePartition) -> tuple[LossValue, np.ndarray]:
    """Mean BCE with target 1 on partition.labeled and target 0 everywhere else."""
    y = np.asarray(y_hat, dtype=np.float64)
    labeled = partition.labeled
    if labeled.size == 0:
        raise InputError("naive_loss requires a nonempty labeled set")
    log_terms = np.log(1.0 - y)
    log_terms[labeled] = np.log(y[labeled])
    value = float(-np.mean(log_terms))
    grad = 1.0 / (1.0 - y)
    grad[labeled] = -1.0 / y[labeled]
    return LossValue(value, {"supervised": value}), grad / y.shape[0]


def nnpu_loss(y_hat: np.ndarray, partition: DistancePartition,
              pi_p: float) -> tuple[LossValue, np.ndarray]:
    """Non-negative PU risk with the sigmoid surrogate; L is partition.labeled
    and U every other node.

    In score space the surrogate losses are l+(y) = 1 - y and l-(y) = y, so
    the estimator is pi_p * mean_L(1 - y) + max(0, mean_U(y) - pi_p * mean_L(y)).
    """
    y = np.asarray(y_hat, dtype=np.float64)
    labeled = partition.labeled
    unlabeled = np.delete(np.arange(y.shape[0]), labeled)
    if labeled.size == 0 or unlabeled.size == 0:
        raise InputError("nnpu_loss requires nonempty labeled and unlabeled sets")
    y_l, y_u = y[labeled], y[unlabeled]
    pos_risk = pi_p * float(np.mean(1.0 - y_l))
    correction = float(np.mean(y_u)) - pi_p * float(np.mean(y_l))
    neg_risk = max(0.0, correction)
    grad = np.zeros_like(y)
    grad[labeled] = -pi_p / y_l.size
    if correction > 0.0:
        grad[labeled] += -pi_p / y_l.size
        grad[unlabeled] = 1.0 / y_u.size
    value = pos_risk + neg_risk
    return LossValue(value, {"supervised": pos_risk, "unlabeled": neg_risk}), grad


def _distribution_match(y: np.ndarray, labeled_ids: np.ndarray,
                        subsets: list[tuple[str, np.ndarray, float]],
                        ) -> tuple[LossValue, np.ndarray]:
    """2*(sum of priors)*|mean_L - 1| plus |mean_S - prior_S| per subset.

    Shared by distpu_loss and distance_aware_loss so that both evaluate the
    same expressions in the same order when the subset structure coincides.
    """
    if labeled_ids.size == 0:
        raise InputError("distribution-matching losses require labeled nodes")
    if not subsets:
        raise InputError("at least one unlabeled subset must be nonempty")
    prior_sum = 0.0
    for _, _, prior in subsets:
        prior_sum += prior
    coef = 2.0 * prior_sum
    mean_l = float(np.mean(y[labeled_ids]))
    supervised = coef * abs(mean_l - 1.0)
    grad = np.zeros_like(y)
    grad[labeled_ids] = coef * np.sign(mean_l - 1.0) / labeled_ids.size
    parts = {"supervised": supervised}
    total = supervised
    for name, ids, prior in subsets:
        mean_s = float(np.mean(y[ids]))
        term = abs(mean_s - prior)
        parts[name] = term
        total += term
        grad[ids] = np.sign(mean_s - prior) / ids.size
    return LossValue(total, parts), grad


def distpu_loss(y_hat: np.ndarray, partition: DistancePartition,
                pi_p: float) -> tuple[LossValue, np.ndarray]:
    """Label-distribution matching, 2*pi_p*|mean_L - 1| + |mean_U - pi_p|; L is
    partition.labeled and U every other node."""
    y = np.asarray(y_hat, dtype=np.float64)
    unlabeled = np.delete(np.arange(y.shape[0]), partition.labeled)
    if unlabeled.size == 0:
        raise InputError("distpu_loss requires a nonempty unlabeled set")
    return _distribution_match(y, partition.labeled, [("unlabeled", unlabeled, pi_p)])


def distance_aware_loss(y_hat: np.ndarray, partition: DistancePartition,
                        pi_hat: float, pi_breve: float) -> tuple[LossValue, np.ndarray]:
    """Distribution matching with per-subset priors over the distance partition.

    An empty near or far set drops its term and shrinks the supervised
    coefficient to twice the surviving prior, which makes the single-subset
    case coincide exactly with distpu_loss.
    """
    y = np.asarray(y_hat, dtype=np.float64)
    subsets = []
    if partition.near_unlabeled.size:
        subsets.append(("near", partition.near_unlabeled, pi_hat))
    if partition.far_unlabeled.size:
        subsets.append(("far", partition.far_unlabeled, pi_breve))
    return _distribution_match(y, partition.labeled, subsets)


# Sampleable edges per chunk of negative pairs. Fixed, since the chunks set
# the order in which the negative terms are summed, and so the bits.
_EDGE_CHUNK = 2048
# Gathered floats per tile of a chunk's pair pass: one tile's (edges, k, d)
# gather is 1 MB, which stays in L2. Tiles do not change the bits.
_TILE_FLOATS = 2**17


def structural_regularizer(z: np.ndarray, graph: Graph, sampler, k: int,
                           stats: dict | None = None) -> tuple[LossValue, np.ndarray]:
    """Push neighbor similarity toward 1 and sampled non-neighbor similarity to 0.

    Each undirected edge contributes from both endpoints; for the directed
    pair (i, j) the sampler draws k uniform non-neighbors of i. Nodes whose
    non-neighbor set is empty (complete graphs) skip their negative term.

    The dots of (i, j) and (j, i) are bit-equal, so an edge's gradient is
    twice its source-side term. Negatives go _EDGE_CHUNK edges at a time.
    Within a chunk, tiles of max(1, _TILE_FLOATS // (k * d)) edges each
    gather their (e, k, d) negatives, take the einsum dots, the sigmoid
    terms and the source sides, and free the gather before the next tile.
    Then the chunk's vdot adds its value, and per column one np.add.at
    scatters the negative side into a zeroed (n,) buffer that is added to
    a (d, n) accumulator; one more per column over the sources adds both
    source sides. np.add.at adds each node's weights in index order,
    starting from 0.0, as np.bincount would, so the bits are bincount's.

    The two sizes differ in kind. A tile is sized for the cache and changes
    no bits: every per-pair result is elementwise, or an einsum over one
    edge's row whose order does not depend on how many edges it sees. A
    chunk is fixed, because the vdot and the scatter sums run over a whole
    chunk, so their order, and the bits of every run, depend on it.

    Rows of z (made C-contiguous) are gathered with np.take along axis 0.
    A chunk's differences s - target (later its scatter weights) and
    coefficients live in (chunk, k) workspaces, a tile's dots and source
    sides in (tile, k) and (tile, d) ones, all allocated once per call and
    written through `out=`. Memory stays O((n + E) * d + E * k) for E
    directed edges, never O(n^2): the (E, k) draws are held for the whole
    call, and the workspaces add O(_EDGE_CHUNK * k + _TILE_FLOATS).

    A `stats` dict, when given, gets the sampler's wall time (`sampler_ms`),
    the pairs scored (`pairs`: E positive plus k per sampleable edge) and
    the directed edges whose negative term was skipped (`skipped_edges`).
    """
    if graph.num_edges < 1:
        raise InputError("structural_regularizer requires a graph with at least one edge")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    z = np.ascontiguousarray(z, dtype=np.float64)
    n, d = z.shape
    src, dst = graph.directed_edges()
    can_sample = sampler.non_neighbor_counts[src] > 0
    t0 = time.perf_counter()
    negs = sampler.edge_negatives(src[can_sample], k)
    if stats is not None:
        stats.update(sampler_ms=(time.perf_counter() - t0) * 1e3,
                     pairs=src.size + negs.size, skipped_edges=src.size - len(negs))
    z_dst = np.take(z, dst, axis=0)
    diff, coef = _pair_coefs(np.einsum("ed,ed->e", np.take(z, src, axis=0), z_dst), 1.0)
    value = float(np.vdot(diff, diff))
    # (E, d) source-side gradient per edge, written over the gathered z[dst]
    to_src = np.multiply(2.0 * coef[:, None], z_dst, out=z_dst)
    grad_t, scatter = np.zeros((d, n)), np.empty(n)
    rows = np.flatnonzero(can_sample)
    m = min(rows.size, _EDGE_CHUNK)
    tile = max(1, _TILE_FLOATS // (k * d))
    diff_ws, coef_ws = np.empty((m, k)), np.empty((m, k))
    dots_ws, side_ws = np.empty((min(m, tile), k)), np.empty((min(m, tile), d))
    for lo in range(0, rows.size, _EDGE_CHUNK):
        chunk = rows[lo:lo + _EDGE_CHUNK]
        b = negs[lo:lo + _EDGE_CHUNK]
        za = np.take(z, src[chunk], axis=0)
        diff, c = diff_ws[:chunk.size], coef_ws[:chunk.size]
        for t in range(0, chunk.size, tile):
            part = slice(t, t + tile)
            zn = np.take(z, b[part], axis=0)
            dots, side = dots_ws[:zn.shape[0]], side_ws[:zn.shape[0]]
            np.einsum("ed,ekd->ek", za[part], zn, out=dots)
            _pair_coefs(dots, 0.0, diff=diff[part], coef=c[part])
            to_src[chunk[part]] += np.einsum("ek,ekd->ed", c[part], zn, out=side)
            del zn  # freed before the next tile's gather, not after it
        value += float(np.vdot(diff, diff))
        # the spent differences take each column's weights (a fresh buffer per
        # column is twice as slow); add.at sums them per node in index order
        flat_b, w = b.ravel(), diff
        for col in range(d):
            np.multiply(c, za[:, col, None], out=w)
            scatter.fill(0.0)
            np.add.at(scatter, flat_b, w.ravel())
            grad_t[col] += scatter
    for col in range(d):
        scatter.fill(0.0)
        np.add.at(scatter, src, to_src[:, col])
        grad_t[col] += scatter
    return LossValue(value, {"regularizer": value}), np.ascontiguousarray(grad_t.T)


def _pair_coefs(dots: np.ndarray, target: float, diff: np.ndarray | None = None,
                coef: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The differences s - target, whose squares sum to the value, and their
    derivatives 2 (s - target) s (1 - s) in each dot, s = sigmoid(dot).

    Works in place: `dots` is overwritten, and the results go to `diff` and
    `coef` when given (dots' shape), else to new arrays.
    """
    s = sigmoid(dots, out=dots)
    diff = np.subtract(s, target, out=diff)
    coef = np.multiply(diff, 2.0, out=coef)
    coef *= s
    np.subtract(1.0, s, out=s)
    coef *= s
    return diff, coef


def combined_objective(y_hat: np.ndarray, z: np.ndarray,
                       partition: DistancePartition, graph: Graph,
                       config: LossConfig, sampler, stats: dict | None = None,
                       ) -> tuple[LossValue, np.ndarray, np.ndarray]:
    """Selected PU loss plus alpha * structural regularizer.

    Returns (LossValue, dL/dy_hat, dL/dZ); the regularizer is attached only
    when alpha > 0, and its part is recorded raw (total adds alpha times it).

    A `stats` dict, when given, gets the wall time of the PU loss
    (`pu_loss_ms`), of the sampler and of the rest of the regularizer
    (`sampler_ms`, `regularizer_ms`), and the regularizer's `pairs` and
    `skipped_edges` (see structural_regularizer); the last three are 0 when
    alpha = 0.
    """
    t0 = time.perf_counter()
    y = np.asarray(y_hat, dtype=np.float64)
    if config.kind == "naive":
        pu_value, grad_y = naive_loss(y, partition)
    elif config.kind == "nnpu":
        pu_value, grad_y = nnpu_loss(y, partition, config.pi_p)
    elif config.kind == "distpu":
        pu_value, grad_y = distpu_loss(y, partition, config.pi_p)
    else:
        pu_value, grad_y = distance_aware_loss(y, partition, config.pi_hat, config.pi_breve)
    parts = dict(pu_value.parts)
    total = pu_value.total
    grad_z = np.zeros_like(np.asarray(z, dtype=np.float64))
    reg_stats = {"sampler_ms": 0.0, "pairs": 0, "skipped_edges": 0}
    t_pu = time.perf_counter()
    if config.alpha > 0.0:
        reg_value, reg_grad = structural_regularizer(z, graph, sampler, config.k, reg_stats)
        parts["regularizer"] = reg_value.total
        total += config.alpha * reg_value.total
        grad_z = config.alpha * reg_grad
    if stats is not None:
        reg_ms = (time.perf_counter() - t_pu) * 1e3 - reg_stats["sampler_ms"]
        stats.update(reg_stats, pu_loss_ms=(t_pu - t0) * 1e3, regularizer_ms=reg_ms)
    return LossValue(total, parts), grad_y, grad_z
