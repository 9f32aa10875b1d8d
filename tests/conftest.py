"""Shared fixtures and independent oracles for the test suite."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from pugraph.graph import DistancePartition, Graph, NormalizedAdjacency, build_graph
from pugraph.nn import sigmoid


def neighbors(g: Graph, i: int) -> np.ndarray:
    """The sorted neighbor ids of node i: its CSR row."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def has_edge(g: Graph, i: int, j: int) -> bool:
    """Whether j is a neighbor of i, by binary search in i's sorted row."""
    row = neighbors(g, i)
    k = np.searchsorted(row, j)
    return bool(k < row.size and row[k] == j)


def dense_adjacency(adj: NormalizedAdjacency) -> np.ndarray:
    """The n x n matrix of a NormalizedAdjacency; the matmul oracle."""
    mat = np.zeros((adj.num_nodes, adj.num_nodes))
    src = np.repeat(np.arange(adj.num_nodes), np.diff(adj.indptr))
    mat[src, adj.indices] = adj.weights
    return mat


def pairwise_similarity(z: np.ndarray, i: int, j: int) -> float:
    """sigmoid(z_i . z_j); symmetric in (i, j)."""
    return float(sigmoid(z[i] @ z[j]))


def labeled_partition(mask) -> DistancePartition:
    """A partition whose labeled set is the True nodes of a boolean mask and
    whose unlabeled nodes are all near; the baselines read only the labeled set."""
    mask = np.asarray(mask, dtype=bool)
    return DistancePartition(np.flatnonzero(mask), np.flatnonzero(~mask),
                             np.zeros(0, dtype=np.int64), np.where(mask, 0.0, 1.0), delta=1)


def save_jsonl(path, graph: Graph, features: np.ndarray, labels):
    """Write the JSON-lines format that `pugraph.data.load_jsonl` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(graph.num_nodes):
            obj = {
                "id": str(i),
                "features": [float(x) for x in features[i]],
                "label": str(labels[i]),
                "neighbors": [str(j) for j in neighbors(graph, i)],
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi graph for property tests."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return build_graph(np.column_stack([iu[keep], ju[keep]]), n)


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak, in bytes, of what it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs shortest hop counts, brute force; the BFS oracle."""
    n = g.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i in range(n):
        dist[i, neighbors(g, i)] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def numeric_grad_params(objective, params, eps: float = 1e-5) -> dict:
    """Central finite differences of a scalar objective over every parameter."""
    grads = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = objective()
            flat[i] = orig - eps
            f_minus = objective()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = g.reshape(arr.shape)
    return grads


def numeric_grad_array(objective, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar objective over one array."""
    flat = arr.reshape(-1)
    g = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = objective()
        flat[i] = orig - eps
        f_minus = objective()
        flat[i] = orig
        g[i] = (f_plus - f_minus) / (2.0 * eps)
    return g.reshape(arr.shape)


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      rel: float = 1e-4, abs_floor: float = 1e-8, label: str = ""):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    tol = np.maximum(abs_floor, rel * np.maximum(np.abs(analytic), np.abs(numeric)))
    bad = np.abs(analytic - numeric) > tol
    assert not bad.any(), (
        f"{label}: {bad.sum()} of {bad.size} gradient entries off; worst "
        f"analytic={analytic[bad].ravel()[0]} numeric={numeric[bad].ravel()[0]}"
    )


def reference_regularizer(z, graph: Graph, sampler, k: int) -> tuple[float, np.ndarray]:
    """The structural regularizer as a loop of fresh arrays per chunk: plain
    `z[ids]` gathers, out-of-place einsums and the where-select sigmoid.

    The kernel in `losses` must match it bit for bit: same pairs, same
    operations in the same order, and chunks of the same 2,048 edges, which
    set the order of the sums and so the bits of every run.
    """
    chunk_edges = 2048

    def pair_coefs(dots, target):
        e = np.exp(-np.abs(dots))
        s = np.where(dots >= 0, 1.0, e) / (1.0 + e)
        diff = s - target
        return float(np.vdot(diff, diff)), 2.0 * diff * s * (1.0 - s)

    z = np.asarray(z, dtype=np.float64)
    n, d = z.shape
    src, dst = graph.directed_edges()
    can_sample = sampler.non_neighbor_counts[src] > 0
    negs = sampler.edge_negatives(src[can_sample], k)
    z_dst = z[dst]
    value, coef = pair_coefs(np.einsum("ed,ed->e", z[src], z_dst), 1.0)
    to_src = 2.0 * coef[:, None] * z_dst
    grad_t = np.zeros((d, n))
    rows = np.flatnonzero(can_sample)
    for lo in range(0, rows.size, chunk_edges):
        chunk = rows[lo:lo + chunk_edges]
        b = negs[lo:lo + chunk_edges]
        za, zn = z[src[chunk]], z[b]
        chunk_value, c = pair_coefs(np.einsum("ed,ekd->ek", za, zn), 0.0)
        value += chunk_value
        to_src[chunk] += np.einsum("ek,ekd->ed", c, zn)
        flat_b, w = b.ravel(), np.empty_like(c)
        for col in range(d):
            np.multiply(c, za[:, col, None], out=w)
            grad_t[col] += np.bincount(flat_b, weights=w.ravel(), minlength=n)
    for col in range(d):
        grad_t[col] += np.bincount(src, weights=to_src[:, col], minlength=n)
    return value, np.ascontiguousarray(grad_t.T)


class ReplaySampler:
    """Returns pre-drawn negatives; freezes the regularizer for FD checks."""

    def __init__(self, graph: Graph, negatives: np.ndarray):
        self.non_neighbor_counts = graph.num_nodes - 1 - graph.degrees
        self._negatives = negatives

    def edge_negatives(self, src, k):
        assert self._negatives.shape == (src.size, k)
        return self._negatives


def find_dataset_dir(name: str):
    """Locate raw dataset files under $PUGRAPH_DATA or ./data; None if absent."""
    candidates = []
    env = os.environ.get("PUGRAPH_DATA")
    if env:
        candidates.append(os.path.join(env, name))
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data", name))
    candidates.append(os.path.join("data", name))
    for base in candidates:
        if os.path.isdir(base):
            return os.path.abspath(base)
    return None


def cora_manifest():
    """Dataset manifest for the raw Cora files, or None when not on disk."""
    base = find_dataset_dir("cora")
    if base is None:
        return None
    content = os.path.join(base, "cora.content")
    cites = os.path.join(base, "cora.cites")
    if not (os.path.exists(content) and os.path.exists(cites)):
        return None
    return {
        "name": "cora",
        "format": "content_cites",
        "content": content,
        "cites": cites,
        "positive_classes": ["Neural_Networks", "Probabilistic_Methods"],
        "normalize_features": True,
        "train_count": 271,
        "split_seed": 0,
    }


@pytest.fixture(scope="session")
def cora():
    manifest = cora_manifest()
    if manifest is None:
        pytest.skip("Cora raw files not found (set PUGRAPH_DATA or place them "
                    "under ./data/cora/); this check needs the real dataset")
    return manifest


SBM_MANIFEST = {
    "name": "sbm400",
    "format": "sbm",
    "n_pos": 200,
    "n_neg": 200,
    "p_intra": 0.05,
    "p_inter": 0.005,
    "graph_seed": 7,
    "feature_dim": 8,
    "positive_classes": ["pos"],
    "normalize_features": True,
    "train_fraction": 0.1,
    "split_seed": 0,
}


def small_manifest(**overrides):
    """A 100-node variant of SBM_MANIFEST for quick training runs."""
    manifest = dict(SBM_MANIFEST, n_pos=50, n_neg=50, p_intra=0.12,
                    p_inter=0.01, name="sbm100")
    manifest.update(overrides)
    return manifest


def sparse_features(rng: np.random.Generator, n: int, f: int, density: float) -> np.ndarray:
    """An (n, f) array with about `density` of its entries nonzero, whose
    first row and last column are all zero: empty rows of X's and X^T's plans."""
    x = np.where(rng.random((n, f)) < density, rng.normal(size=(n, f)), 0.0)
    x[0] = 0.0
    x[:, -1] = 0.0
    return x


def citation_manifest(directory, num_nodes: int = 300, feature_dim: int = 400,
                      words: int = 5, seed: int = 0, **overrides) -> dict:
    """Write a two-class `.content`/`.cites` pair and return its manifest.

    Each node has `words` 0/1 features, `words // 2` of them from its
    class's half of the vocabulary, so the features are as sparse as Cora's
    (5 of 400 words is 1.25%, Cora's 18 of 1,433 is 1.26%). Node 0 has no
    word and the last feature is no node's. Edges stay inside a class four
    times in five.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=num_nodes)
    half = (feature_dim - 1) // 2
    bits = np.zeros((num_nodes, feature_dim), dtype=np.int64)
    for node in range(1, num_nodes):
        own = rng.choice(half, size=words // 2, replace=False) + labels[node] * half
        rest = np.setdiff1d(np.arange(feature_dim - 1), own)
        bits[node, own] = 1
        bits[node, rng.choice(rest, size=words - own.size, replace=False)] = 1
    src = rng.integers(0, num_nodes, size=3 * num_nodes)
    dst = rng.integers(0, num_nodes, size=src.size)
    keep = (labels[src] == labels[dst]) | (rng.random(src.size) < 0.25)
    content = os.path.join(directory, "sparse.content")
    cites = os.path.join(directory, "sparse.cites")
    with open(content, "w", encoding="utf-8") as fh:
        for node in range(num_nodes):
            fh.write(f"p{node}\t" + "\t".join(map(str, bits[node]))
                     + f"\t{'pos' if labels[node] else 'neg'}\n")
    with open(cites, "w", encoding="utf-8") as fh:
        fh.writelines(f"p{a}\tp{b}\n" for a, b in zip(src[keep], dst[keep]))
    manifest = {"name": "sparse-citation", "format": "content_cites", "content": content,
                "cites": cites, "positive_classes": ["pos"], "train_fraction": 0.2,
                "split_seed": 0}
    manifest.update(overrides)
    return manifest
