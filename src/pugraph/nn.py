"""Two-layer GCN with a scalar sigmoid head, plus exact reverse-mode gradients.

Forward:
    H1 = ReLU(A_hat @ X @ W1 + b1)        (num_nodes x 16)
    Z  = A_hat @ H1 @ W2 + b2             (num_nodes x 16, fed to the regularizer)
    y  = sigmoid(Z @ w_head + b_head)     (per-node score in (0, 1))

The parameters are a plain dict of float64 arrays (b_head is 0-d); gcn_backward
returns a new dict of gradients and writes into no parameter.

All math is float64. The ReLU subgradient at 0 is taken as 0, and sigmoid
outputs are clipped to (Y_EPS, 1 - Y_EPS) so downstream logs stay finite.

The first layer's feature operand comes in one of two forms, and the form
picks its products:

- The dense A_hat X (an ndarray), which scoring, gcn_forward and every
  direct forward_from_propagated call pass, and training passes for dense
  features. The products, (A_hat X) W1 forward and (A_hat X)^T dPre1
  backward, are computed transposed: as (W1^T (A_hat X)^T)^T and
  (dPre1^T (A_hat X))^T. They are the same products, but OpenBLAS runs this
  orientation 25-45% faster on n x f times f x 16 shapes (measured on the
  Cora shape, 2,708 x 1,433, and on 8,000 x 500, one BLAS thread). The
  summation order inside BLAS differs, so a few entries can differ from
  `ax @ W1` in the last place.
- SparseFeatures, X and X^T as CSR plans, which training passes for
  features of low density (`train.SPARSE_DENSITY`). The same products are
  regrouped: A_hat (X W1) forward and X^T (A_hat dPre1) backward, four
  sparse products of width 16 in place of two dense ones of width f. The
  sums run in another order, so the results differ from the dense form's in
  the last places.

The activations stay C-contiguous.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, NumericError
from .graph import CSRMatrix, NormalizedAdjacency

HIDDEN_DIM = 16
Y_EPS = 1e-12

WEIGHT_NAMES = ("W1", "W2", "w_head")  # weight decay applies to these only


def param_shapes(feature_dim: int) -> dict[str, tuple[int, ...]]:
    """The model's parameters, name -> shape, in the order init_params draws them."""
    return {"W1": (feature_dim, HIDDEN_DIM), "W2": (HIDDEN_DIM, HIDDEN_DIM),
            "b1": (HIDDEN_DIM,), "b2": (HIDDEN_DIM,), "w_head": (HIDDEN_DIM,), "b_head": ()}


def init_params(feature_dim: int, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, bound sqrt(6/(fan_in+fan_out)) (a vector's fan_out is 1),
    and zero biases."""
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(feature_dim).items():
        if name in WEIGHT_NAMES:
            fan_in, fan_out = (*shape, 1)[:2]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable sigmoid: numerator 1 or e = exp(-|x|) by sign, over 1 + e.

    The result goes to `out` when given (float64, x's shape), which may be x
    itself; e is then the only float temporary. The steps are the same with or
    without `out`, so the bits are too.

    The numerator is taken as max(e, [x >= 0]) with [x >= 0] as 1.0 or 0.0:
    since 0 <= e <= 1, that is 1 where x >= 0 and e elsewhere (NaN included),
    bit for bit, without a per-element select.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty(x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty(x.shape)
    np.maximum(e, x >= 0, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


@dataclass(frozen=True)
class SparseFeatures:
    """A feature matrix X and its transpose as CSR plans: the first layer's
    operand for sparse features (see the module docstring)."""

    x: CSRMatrix
    xt: CSRMatrix

    @classmethod
    def of(cls, features: np.ndarray) -> "SparseFeatures":
        x = CSRMatrix.from_dense(features)
        return cls(x, x.transpose())

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape


@dataclass
class ForwardCache:
    """Activations of one forward pass plus the operands backward needs."""

    h1: np.ndarray      # post-ReLU layer-1 output
    z: np.ndarray       # layer-2 output (representation)
    y_hat: np.ndarray   # head scores, clipped into (Y_EPS, 1 - Y_EPS)
    ax: np.ndarray | SparseFeatures  # the first layer's feature operand
    ah1: np.ndarray     # A_hat @ H1
    adj: NormalizedAdjacency


def _check_finite(arr: np.ndarray, layer: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced in {layer}")


def forward_from_propagated(adj: NormalizedAdjacency, ax: np.ndarray | SparseFeatures,
                            params: dict) -> ForwardCache:
    """Forward pass given the first layer's feature operand, constant across
    steps: the precomputed A_hat @ X, or X's SparseFeatures."""
    w1 = params["W1"]
    if ax.shape[1] != w1.shape[0]:
        raise ConfigError(f"features have {ax.shape[1]} columns, W1 expects {w1.shape[0]}")
    if isinstance(ax, SparseFeatures):
        pre1 = adj.matmul(ax.x.matmul(w1))
        pre1 += params["b1"]
    else:
        # ax @ W1 transposed: OpenBLAS runs (16 x f)(f x n) faster than (n x f)(f x 16);
        # the bias add writes a C-ordered pre1, so h1's rows stay contiguous for matmul
        pre1 = np.add((w1.T @ ax.T).T, params["b1"], out=np.empty((ax.shape[0], HIDDEN_DIM)))
    _check_finite(pre1, "layer1")
    h1 = np.maximum(pre1, 0.0)
    ah1 = adj.matmul(h1)
    z = ah1 @ params["W2"] + params["b2"]
    _check_finite(z, "layer2")
    score = z @ params["w_head"] + params["b_head"]
    y_hat = np.clip(sigmoid(score), Y_EPS, 1.0 - Y_EPS)
    return ForwardCache(h1=h1, z=z, y_hat=y_hat, ax=ax, ah1=ah1, adj=adj)


def gcn_forward(adj: NormalizedAdjacency, features: np.ndarray,
                params: dict) -> ForwardCache:
    """Full forward pass of the two-layer GCN with sigmoid head."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != adj.num_nodes:
        raise ConfigError(
            f"features shape {features.shape} does not match {adj.num_nodes} graph nodes"
        )
    return forward_from_propagated(adj, adj.matmul(features), params)


def gcn_backward(cache: ForwardCache, d_yhat: np.ndarray, d_z: np.ndarray,
                 params: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the composed forward, one new array per parameter.

    Combines two upstream paths: d_yhat through the head and d_z directly
    into the layer-2 representation.
    """
    n = cache.y_hat.shape[0]
    if d_yhat.shape != (n,) or d_z.shape != cache.z.shape:
        raise ConfigError("upstream gradient shapes do not match the forward cache")
    s = cache.y_hat
    d_score = d_yhat * s * (1.0 - s)
    dz = d_z + np.outer(d_score, params["w_head"])
    dh1 = cache.adj.matmul(dz @ params["W2"].T)  # A_hat is symmetric
    dpre1 = np.where(cache.h1 > 0.0, dh1, 0.0)
    if isinstance(cache.ax, SparseFeatures):
        dw1 = cache.ax.xt.matmul(cache.adj.matmul(dpre1))
    else:
        # ax.T @ dpre1, in OpenBLAS's faster orientation; made C-ordered like
        # W1, so that sums over it run in the same order
        dw1 = np.ascontiguousarray((dpre1.T @ cache.ax).T)
    return {"W1": dw1, "W2": cache.ah1.T @ dz,
            "b1": dpre1.sum(axis=0), "b2": dz.sum(axis=0), "w_head": cache.z.T @ d_score,
            "b_head": np.asarray(d_score.sum())}


# --- checkpoint format: one JSON header line, then raw little-endian float64 ---

def _checkpoint_header(shapes: dict) -> bytes:
    """The header line for arrays of these shapes, laid end to end in name order."""
    arrays, offset = [], 0
    for name, shape in sorted(shapes.items()):
        nbytes = 8 * math.prod(shape)
        arrays.append({"name": name, "shape": list(shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {"format": "pugraph-checkpoint-v1", "dtype": "<f8", "arrays": arrays}
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def save_checkpoint(path, params: dict):
    with open(path, "wb") as fh:
        fh.write(_checkpoint_header({name: arr.shape for name, arr in params.items()}))
        for name in sorted(params):
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by save_checkpoint.

    Raises InputError unless the header line is, byte for byte, the one
    save_checkpoint writes for param_shapes(f), f >= 1 the width of W1, and
    the payload holds exactly the arrays it lays out.
    """
    with open(path, "rb") as fh:
        line, blob = fh.readline(), fh.read()
    try:
        width = next((m["shape"][0] for m in json.loads(line)["arrays"] if m["name"] == "W1"),
                     None)
    except (ValueError, TypeError, KeyError, IndexError):
        width = None
    if type(width) is not int or width < 1:
        raise InputError(f"{path}: not a recognized checkpoint file")
    shapes = param_shapes(width)
    if line != _checkpoint_header(shapes):
        raise InputError(f"{path}: the header is not the one save_checkpoint writes "
                         f"for a model of {width} features")
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != size:
        raise InputError(f"{path}: the payload has {len(blob)} bytes, the parameters {size}")
    values, offset = {}, 0
    for name, shape in sorted(shapes.items()):
        values[name] = np.frombuffer(blob, "<f8", math.prod(shape), offset).reshape(shape).copy()
        offset += values[name].nbytes
    return values
