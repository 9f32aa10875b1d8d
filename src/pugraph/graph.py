"""Sparse undirected graphs and the distance machinery built on them.

Graphs are stored in CSR form (row offsets + sorted column indices) and are
immutable after construction. This module provides:

- build_graph: edge list -> deduplicated, symmetrized, self-loop-free CSR
- normalize_adjacency: symmetric GCN normalization with implicit self-loops,
  weight(i, j) = 1 / sqrt((d_i + 1) (d_j + 1)); its matmul works through
  cache-sized blocks of rows (at most _GATHER_ELEMS gathered elements, or
  one row) and is bit-equal to one reduction per row
- multi_source_bfs: unweighted hop distances from a set of source nodes
- partition_unlabeled: split unlabeled nodes by hop distance to the nearest
  labeled node (threshold delta)
- generate_sbm: two-block stochastic block model with a counter-based RNG
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

UNREACHABLE = np.inf
_GATHER_ELEMS = 1 << 16  # matmul: elements of one row block's gather (512 KB)
_PAIR_CHUNK = 1 << 20    # generate_sbm: node pairs drawn per chunk


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form; no self-loops, both edge directions stored."""

    num_nodes: int
    indptr: np.ndarray   # int64, length num_nodes + 1
    indices: np.ndarray  # int64, strictly increasing within each row

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size) // 2

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        k = np.searchsorted(row, j)
        return bool(k < row.size and row[k] == j)

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All (src, dst) pairs in CSR order; each undirected edge appears twice."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return src, self.indices.copy()


@dataclass(frozen=True)
class NormalizedAdjacency:
    """CSR matrix of 1/sqrt((d_i+1)(d_j+1)) over N(i) plus the self-loop of i."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray  # float64

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Sparse-dense product over blocks of rows.

        A block is a range of CSR rows [lo, hi) whose entries, gathered as
        whole rows of the operand, hold at most _GATHER_ELEMS elements; a
        block holds at least one row, so the gather never exceeds
        max(_GATHER_ELEMS, longest row x width) elements and stays
        cache-sized. The weights scale the gather in place and one
        np.add.reduceat per block writes a contiguous slice of the output,
        so each output row is one reduction over its entries in CSR order.
        Every row has at least the self-loop entry, which np.add.reduceat
        requires (empty segments would repeat the next segment's value).
        """
        if dense.shape[0] != self.num_nodes:
            raise InputError(
                f"dense operand has {dense.shape[0]} rows, graph has {self.num_nodes} nodes"
            )
        squeeze = dense.ndim == 1
        if squeeze:
            dense = dense[:, None]
        out = np.empty((self.num_nodes, dense.shape[1]), dtype=np.float64)
        indptr = self.indptr
        entries = max(1, _GATHER_ELEMS // max(1, dense.shape[1]))
        lo = 0
        while lo < self.num_nodes:
            a = indptr[lo]
            hi = max(lo + 1, int(np.searchsorted(indptr, a + entries, side="right")) - 1)
            b = indptr[hi]
            prod = dense[self.indices[a:b]]
            prod *= self.weights[a:b, None]
            np.add.reduceat(prod, indptr[lo:hi] - a, axis=0, out=out[lo:hi])
            del prod  # the next block's gather reuses its memory
            lo = hi
        return out[:, 0] if squeeze else out

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.num_nodes, self.num_nodes))
        src = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        mat[src, self.indices] = self.weights
        return mat


@dataclass(frozen=True)
class DistancePartition:
    """Disjoint cover of all nodes: labeled, near-unlabeled, far-unlabeled.

    near holds unlabeled nodes within `delta` hops of the closest labeled
    node; far holds the rest, including unreachable nodes (min_dist = inf).
    """

    labeled: np.ndarray         # sorted node ids
    near_unlabeled: np.ndarray  # sorted node ids, min_dist <= delta
    far_unlabeled: np.ndarray   # sorted node ids, min_dist > delta
    min_dist: np.ndarray        # float64 per node, inf if unreachable
    delta: int


def build_graph(edge_list, num_nodes: int) -> Graph:
    """Build a CSR graph from (i, j) pairs.

    Duplicates, reversed duplicates and self-loops in the input are allowed;
    self-loops are dropped and each surviving edge is stored in both
    directions.
    """
    if num_nodes < 1:
        raise InputError(f"num_nodes must be >= 1, got {num_nodes}")
    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if edges.size:
        bad = (edges < 0) | (edges >= num_nodes)
        if bad.any():
            i, j = edges[bad.any(axis=1)][0]
            raise InputError(f"edge ({i}, {j}) references a node id outside [0, {num_nodes})")
        edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size == 0:
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        return Graph(num_nodes, indptr, np.empty(0, dtype=np.int64))
    # canonical undirected form, dedup, then both directions
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.unique(lo * num_nodes + hi)
    lo, hi = keys // num_nodes, keys % num_nodes
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(num_nodes, indptr, dst)


def normalize_adjacency(g: Graph) -> NormalizedAdjacency:
    """Symmetric normalization with self-loops added here, not in the graph.

    An isolated node keeps weight 1.0 on its self-loop.
    """
    n = g.num_nodes
    d = g.degrees.astype(np.float64) + 1.0
    nodes = np.arange(n, dtype=np.int64)
    src, dst = g.directed_edges()
    src, dst = np.concatenate([src, nodes]), np.concatenate([dst, nodes])
    order = np.lexsort((dst, src))
    src, indices = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(g.degrees + 1, out=indptr[1:])
    weights = 1.0 / np.sqrt(d[src] * d[indices])
    return NormalizedAdjacency(n, indptr, indices, weights)


def multi_source_bfs(g: Graph, sources) -> np.ndarray:
    """Hop distance from each node to the closest source; inf if unreachable."""
    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    if src.size == 0:
        raise InputError("multi_source_bfs requires at least one source node")
    if src[0] < 0 or src[-1] >= g.num_nodes:
        raise InputError(f"source ids must lie in [0, {g.num_nodes})")
    dist = np.full(g.num_nodes, UNREACHABLE)
    dist[src] = 0.0
    frontier = src
    hop = 0.0
    while frontier.size:
        hop += 1.0
        # CSR gather: the positions in g.indices of every frontier node's neighbors
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        pos = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        cand = np.unique(g.indices[pos])
        frontier = cand[np.isinf(dist[cand])]
        dist[frontier] = hop
    return dist


def partition_unlabeled(g: Graph, labeled, delta: int) -> DistancePartition:
    """Split non-labeled nodes by BFS distance to the nearest labeled node."""
    lab = np.unique(np.asarray(list(labeled), dtype=np.int64))
    if lab.size == 0:
        raise InputError("partition requires a nonempty labeled set")
    if delta < 1:
        raise InputError(f"delta must be >= 1, got {delta}")
    dist = multi_source_bfs(g, lab)
    is_labeled = np.zeros(g.num_nodes, dtype=bool)
    is_labeled[lab] = True
    unlabeled = np.flatnonzero(~is_labeled)
    near = unlabeled[dist[unlabeled] <= delta]
    far = unlabeled[dist[unlabeled] > delta]
    return DistancePartition(lab, near, far, dist, int(delta))


def generate_sbm(n_pos: int, n_neg: int, p_intra: float, p_inter: float,
                 seed: int) -> tuple[Graph, np.ndarray]:
    """Two-block stochastic block model; nodes [0, n_pos) form the positive block.

    Each unordered pair (i, j), i < j, draws one uniform from a Philox
    (counter-based) generator in row-major upper-triangle order, and is an
    edge if the uniform is below p_intra (same block) or p_inter (different
    blocks); the same seed always regenerates the identical graph. The
    uniforms are drawn _PAIR_CHUNK pairs at a time: consecutive draws
    continue the generator's stream, so the chunks reproduce one draw over
    all n(n-1)/2 pairs while memory stays O(n + E + chunk).
    Returns the graph and per-node binary labels (1 = positive block).
    """
    for name, p in (("p_intra", p_intra), ("p_inter", p_inter)):
        if not 0.0 <= p <= 1.0:
            raise InputError(f"{name} must lie in [0, 1], got {p}")
    if p_inter > p_intra:
        raise InputError("p_inter must not exceed p_intra")
    if n_pos < 1 or n_neg < 1:
        raise InputError("both blocks need at least one node")
    n = n_pos + n_neg
    rng = np.random.Generator(np.random.Philox(seed))
    # row i holds the pairs (i, i+1..n-1); row_start[i] is the index of its first
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=row_start[1:])
    total = n * (n - 1) // 2
    rows, cols = [], []
    for lo in range(0, total, _PAIR_CHUNK):
        u = rng.random(min(_PAIR_CHUNK, total - lo))
        # p_inter <= p_intra, so every edge is among the draws below p_intra
        hit = np.flatnonzero(u < p_intra)
        pair = hit + lo
        i = np.searchsorted(row_start, pair, side="right") - 1
        j = pair - row_start[i] + i + 1
        keep = ((i < n_pos) == (j < n_pos)) | (u[hit] < p_inter)
        rows.append(i[keep])
        cols.append(j[keep])
    graph = build_graph(np.column_stack([np.concatenate(rows), np.concatenate(cols)]), n)
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    return graph, labels
