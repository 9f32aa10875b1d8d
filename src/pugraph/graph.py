"""Sparse undirected graphs and the distance machinery built on them.

Graphs are stored in CSR form (row offsets + sorted column indices) and are
immutable after construction. This module provides:

- build_graph: edge list -> deduplicated, symmetrized, self-loop-free CSR
- CSRMatrix: a sparse matrix, such as sparse features or their transpose,
  whose matmul works on rows grouped by entry count, a cache-sized block at
  a time (gather plus sum at most _GATHER_ELEMS elements, or one row), and
  sums each row in CSR entry order from +0.0, one term at a time, so its
  bits do not depend on the block size; an empty row gives zeros
- normalize_adjacency: symmetric GCN normalization with implicit self-loops,
  weight(i, j) = 1 / sqrt((d_i + 1) (d_j + 1)), as a NormalizedAdjacency,
  a square CSRMatrix with no empty row
- multi_source_bfs: unweighted hop distances from a set of source nodes
- partition_unlabeled: split unlabeled nodes by hop distance to the nearest
  labeled node (threshold delta)
- generate_sbm: two-block stochastic block model in O(n + E), by geometric
  skips between edges over a counter-based RNG
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

UNREACHABLE = np.inf
_GATHER_ELEMS = 1 << 16  # matmul: elements of one row block's gather and sum (512 KB)
_PAIR_CHUNK = 1 << 20    # generate_sbm: most gaps drawn per batch


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

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All (src, dst) pairs in CSR order; each undirected edge appears twice."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return src, self.indices.copy()


@dataclass(frozen=True)
class CSRMatrix:
    """A (num_rows, num_cols) sparse matrix in CSR form; a row may be empty.

    Built, it also holds the matmul plan: for each entry count L, the ids of
    the rows with L entries and their (L, rows) column ids and weights,
    entry-major, 16 bytes per entry. The rows with no entry form the group
    L = 0. matmul sums each row's weighted operand rows in CSR entry order,
    a cache-sized block of one group's rows at a time.
    """

    num_cols: int
    indptr: np.ndarray   # int64, length num_rows + 1
    indices: np.ndarray  # int64 column ids
    weights: np.ndarray  # float64
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = np.diff(self.indptr)
        order = np.argsort(lengths, kind="stable")
        counts, starts = np.unique(lengths[order], return_index=True)
        groups = []
        for count, rows in zip(counts, np.split(order, starts[1:])):
            entries = self.indptr[rows] + np.arange(count)[:, None]
            groups.append((rows, self.indices[entries], self.weights[entries]))
        object.__setattr__(self, "_groups", tuple(groups))

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.num_cols

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """The nonzero entries of a 2-D array, each row's columns ascending."""
        num_rows, num_cols = dense.shape
        flat = np.flatnonzero(dense)
        indptr = np.searchsorted(flat, np.arange(num_rows + 1) * num_cols)
        return cls(num_cols, indptr, flat % num_cols, np.take(dense, flat))

    def transpose(self) -> "CSRMatrix":
        """The transpose, from a stable sort of the column ids, so that each of
        its rows lists the entries of one column in ascending row order."""
        num_rows = self.indptr.size - 1
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(num_rows, dtype=np.int64), np.diff(self.indptr))
        indptr = np.searchsorted(self.indices[order], np.arange(self.num_cols + 1))
        return CSRMatrix(num_rows, indptr, rows[order], self.weights[order])

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Product with a (num_cols, d) operand. Each row is summed in CSR
        entry order, from +0.0, one weighted term at a time, so a row with no
        entry, or whose every term is -0.0, gives +0.0 (at d = 1 einsum runs
        another loop, in a fixed order of its own); the bits depend on
        neither the block size nor the operand's memory layout.

        The rows of one entry count L are taken in blocks of r rows whose
        gather, an (L, r, d) array of operand rows, and (r, d) sum hold at
        most _GATHER_ELEMS elements together, (L + 1) d per row; a block
        holds at least one row, so it never exceeds max(_GATHER_ELEMS,
        (longest row + 1) x width) elements and stays cache-sized. One einsum
        weights and sums each block over its entry axis.
        """
        if dense.ndim != 2:
            raise InputError(f"dense operand has shape {dense.shape}, not (rows, columns)")
        if dense.shape[0] != self.num_cols:
            raise InputError(
                f"dense operand has {dense.shape[0]} rows, the matrix has {self.num_cols} columns"
            )
        out = np.empty((self.indptr.size - 1, dense.shape[1]), dtype=np.float64)
        for rows, cols, weights in self._groups:
            step = max(1, _GATHER_ELEMS // max(1, (cols.shape[0] + 1) * dense.shape[1]))
            for lo in range(0, rows.size, step):
                block = slice(lo, lo + step)
                out[rows[block]] = np.einsum("lr,lrd->rd", weights[:, block],
                                             np.take(dense, cols[:, block], axis=0))
        return out


class NormalizedAdjacency(CSRMatrix):
    """CSR matrix of 1/sqrt((d_i+1)(d_j+1)) over N(i) plus the self-loop of i,
    num_nodes square; construction checks that every row holds an entry."""

    num_nodes = property(lambda self: self.num_cols)

    def __post_init__(self):
        empty = np.flatnonzero(np.diff(self.indptr) < 1)
        if empty.size:
            raise InputError(f"adjacency row {empty[0]} has no entry, not even its self-loop")
        super().__post_init__()


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
    """Build a CSR graph from (i, j) pairs: an (E, 2) array as it is, or any iterable.

    Duplicates, reversed duplicates and self-loops in the input are allowed;
    self-loops are dropped and each surviving edge is stored in both
    directions.
    """
    if num_nodes < 1:
        raise InputError(f"num_nodes must be >= 1, got {num_nodes}")
    edges = np.asarray(edge_list if isinstance(edge_list, np.ndarray) else list(edge_list),
                       dtype=np.int64).reshape(-1, 2)
    bad = (edges < 0) | (edges >= num_nodes)
    if bad.any():
        i, j = edges[bad.any(axis=1)][0]
        raise InputError(f"edge ({i}, {j}) references a node id outside [0, {num_nodes})")
    edges = edges[edges[:, 0] != edges[:, 1]]
    # canonical undirected form, dedup, then both directions
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.unique(lo * num_nodes + hi)
    lo, hi = keys // num_nodes, keys % num_nodes
    return Graph(num_nodes, *_csr(np.concatenate([lo, hi]), np.concatenate([hi, lo]),
                                  num_nodes))


def _csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the int64 pairs (src, dst) over n nodes, each row's
    columns ascending; one sort of the keys src * n + dst."""
    keys = np.sort(src * n + dst)
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n


def normalize_adjacency(g: Graph) -> NormalizedAdjacency:
    """Symmetric normalization with self-loops added here, not in the graph.

    An isolated node keeps weight 1.0 on its self-loop.
    """
    n = g.num_nodes
    d = g.degrees.astype(np.float64) + 1.0
    nodes = np.arange(n, dtype=np.int64)
    src, dst = g.directed_edges()
    indptr, indices = _csr(np.concatenate([src, nodes]), np.concatenate([dst, nodes]), n)
    weights = 1.0 / np.sqrt(np.repeat(d, g.degrees + 1) * d[indices])  # d[row] * d[col]
    return NormalizedAdjacency(n, indptr, indices, weights)


def multi_source_bfs(g: Graph, sources) -> np.ndarray:
    """Hop distance from each node to the closest source; inf if unreachable."""
    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    if src.size == 0 or src[0] < 0 or src[-1] >= g.num_nodes:
        raise InputError(f"need at least one source, every id in [0, {g.num_nodes})")
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
    """Split non-labeled nodes by BFS distance to the nearest labeled node;
    multi_source_bfs checks the labeled ids, the only nodes at distance 0."""
    if delta < 1:
        raise InputError(f"delta must be >= 1, got {delta}")
    dist = multi_source_bfs(g, labeled)
    near = np.flatnonzero((dist > 0) & (dist <= delta))
    return DistancePartition(np.flatnonzero(dist == 0), near,
                             np.flatnonzero(dist > delta), dist, int(delta))


def generate_sbm(n_pos: int, n_neg: int, p_intra: float, p_inter: float,
                 seed: int) -> tuple[Graph, np.ndarray]:
    """Two-block stochastic block model; nodes [0, n_pos) form the positive block.

    Each pair (i, j), i < j, is an edge independently with probability p_intra
    (same block) or p_inter (different blocks), drawn in O(n + E) time and
    memory (Batagelj & Brandes, Phys. Rev. E 71, 2005): geometric gaps from
    Philox(seed) skip along the row-major upper-triangle pair index from one
    Bernoulli(p_intra) candidate to the next, and a cross-block candidate is
    kept when its uniform from Philox(seed).jumped(), times p_intra, is below
    p_inter. Both streams are read in order whatever the batch size (at most
    _PAIR_CHUNK gaps), so the same arguments always give the identical graph.
    Returns the graph and per-node binary labels (1 = positive block).
    """
    if not 0.0 <= p_inter <= p_intra <= 1.0:
        raise InputError(f"need 0 <= p_inter <= p_intra <= 1, got {p_inter}, {p_intra}")
    if n_pos < 1 or n_neg < 1:
        raise InputError("both blocks need at least one node")
    n = n_pos + n_neg
    gaps = np.random.Generator(np.random.Philox(seed))
    thin = np.random.Generator(np.random.Philox(seed).jumped())
    # row i holds the pairs (i, i+1..n-1); row_start[i] is the index of its first
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=row_start[1:])
    total = n * (n - 1) // 2
    edges = [np.empty((0, 2), dtype=np.int64)]
    last = -1 if p_intra > 0.0 else total  # pair index of the latest candidate
    while last < total:
        hits = (total - 1 - last) * p_intra  # expected candidates still to come
        gap = gaps.geometric(p_intra, min(_PAIR_CHUNK, int(hits + 6.0 * hits**0.5) + 1))
        # a gap past the last pair ends the walk; clamped, the cumsum cannot overflow
        pair = last + np.cumsum(np.minimum(gap, total + 1))
        last = pair[-1]
        pair = pair[pair < total]
        i = np.searchsorted(row_start, pair, side="right") - 1
        j = pair - row_start[i] + i + 1
        keep = ((i < n_pos) == (j < n_pos)) | (thin.random(pair.size) * p_intra < p_inter)
        edges.append(np.column_stack([i[keep], j[keep]]))
    graph = build_graph(np.concatenate(edges), n)
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    return graph, labels
