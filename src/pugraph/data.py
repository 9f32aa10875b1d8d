"""Dataset ingestion: citation-network files, JSON-lines interchange, PU masks.

Two on-disk formats are supported:

- `.content` / `.cites` plain text (whitespace separated). Content rows are
  `node_id feat_1 ... feat_d class_name`; cites rows are `citing cited`.
  Cites rows referencing unknown ids are skipped and counted in a warning.
- JSON lines, one object per node:
  `{"id": str, "features": [num], "label": str, "neighbors": [str]}`.

Both loaders read a file's lines only through `_lines`, so a data error names
the first bad line in file order, whether a malformed row or a byte that is not
UTF-8. Both produce the same triple (Graph, features, class labels) with node
order equal to file order and the adjacency symmetrized.

`prepare_dataset` does once per manifest what no run draws: load, binarize,
normalize, split. Every loader returns a new feature array, and
`normalize_features` scales it in place, so normalizing allocates no second
feature matrix. `build_dataset` draws one run's PU mask and partition from
that PreparedDataset, which also keeps the operands of the first layer that
training and scoring build on first use (`train.propagate`).
"""

import json
import logging
import os
import re
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InputError, ParseError, check_value
from .graph import (DistancePartition, Graph, NormalizedAdjacency, build_graph,
                    generate_sbm, partition_unlabeled)
from .nn import SparseFeatures

log = logging.getLogger(__name__)


@dataclass
class PreparedDataset:
    """What every run on one manifest shares.

    The last three fields are None until `train.propagate` builds them on
    first use; they are then kept, for every later run and its scoring:
    `adjacency` (A_hat) at the first training or scoring; `propagated`
    (A_hat @ X) at the first scoring, or at the first training when the
    features are dense; `sparse_features` (X and X^T as CSR plans) at the
    first training when the features are sparse. `feature_density` is
    counted at the first training.
    """

    manifest: dict
    graph: Graph
    features: np.ndarray        # num_nodes x feature_dim, float64
    true_label: np.ndarray      # per-node {0, 1}
    test_mask: np.ndarray       # bool; the train split is its complement
    adjacency: NormalizedAdjacency | None = None
    propagated: np.ndarray | None = None
    sparse_features: SparseFeatures | None = None

    @property
    def positive_prior(self) -> float:
        """Fraction of true positives over all nodes (transductive prior)."""
        return float(np.mean(self.true_label))

    @cached_property
    def feature_density(self) -> float:
        """Share of the feature entries that are nonzero."""
        return np.count_nonzero(self.features) / self.features.size


@dataclass
class PUDataset:
    """Everything one training run consumes; immutable by convention."""

    prepared: PreparedDataset
    partition: DistancePartition  # labeled: the known positives, all in the train split

    graph = property(lambda self: self.prepared.graph)
    features = property(lambda self: self.prepared.features)
    true_label = property(lambda self: self.prepared.true_label)
    test_mask = property(lambda self: self.prepared.test_mask)
    positive_prior = property(lambda self: self.prepared.positive_prior)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


def _lines(path):
    """Yield (line number, text) for each line of a dataset file, split where
    text mode splits: at LF, CRLF and CR. A byte that is not UTF-8, which
    surrogateescape reads as U+DC80-U+DCFF, is a ParseError naming its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
                raise ParseError(f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not valid UTF-8",
                                 str(path), lineno)
            yield lineno, line


def _content_error(path, width: int, read, exc) -> ParseError:
    """The ParseError naming the file line of the first row `read` rejects (or
    _lines raises at an earlier byte that is not UTF-8); run only after a
    failed parse, as loadtxt's row count skips blank lines."""
    for lineno, line in _lines(path):
        found = len(line.split())
        if not found:
            continue
        if found < 3:
            return ParseError("content row needs id, >=1 feature, class", str(path), lineno)
        if found != width:
            return ParseError(f"expected {width} columns, found {found}", str(path), lineno)
        try:
            read([line])
        except ValueError:
            return ParseError(f"non-numeric feature value: {exc}", str(path), lineno)
    return ParseError(f"unreadable content file: {exc}", str(path))


_TAB, _LF, _SPACE, _ZERO = 9, 10, 32, 48  # the bytes of a binary content file's layout


def _binary_rows(path, d: int):
    """(ids, features, labels) of a content file whose every line is
    `id SEP t_1 SEP ... t_d SEP class LF`: printable ASCII id and class, one
    tab or space per SEP and a single byte 0 or 1 per t. Any other file is
    None, and loadtxt reads it. Each row's tokens are the odd bytes of the
    2d + 1 that start at its first separator; byte - '0' is 0.0 or 1.0."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size + 1, np.uint8)
        buf[0] = _LF  # so that the first row starts after a newline, as every other does
        if fh.readinto(buf[1:]) != buf.size - 1 or buf[-1] != _LF:
            return None
    newlines = np.flatnonzero(buf == _LF)
    sep = buf == _TAB
    # every byte but a tab or LF is printable ASCII, 32-126 (byte - 32 wraps above 94 else)
    if np.count_nonzero(buf - np.uint8(_SPACE) > 94) != newlines.size + np.count_nonzero(sep):
        return None
    sep |= buf == _SPACE
    # a separator two bytes after a non-separator starts the tokens of a row
    first = np.flatnonzero(sep[2:] & ~sep[:-2]) + 2
    starts, ends = newlines[:-1] + 1, newlines[1:]
    if first.size != starts.size or not (
            (starts < first).all() and (first + 2 * d + 1 < ends).all()):
        return None
    windows = sliding_window_view(buf, 2 * d + 1)[first]
    tokens = windows[:, 1::2]
    # with d + 1 separators in each row's window and none elsewhere, the id
    # and the class hold none; a token byte - '0' that is no 0 or 1 wraps above 1
    if (np.count_nonzero(sep) != starts.size * (d + 1)
            or not ((windows[:, ::2] == _TAB) | (windows[:, ::2] == _SPACE)).all()
            or np.count_nonzero(tokens - np.uint8(_ZERO) > 1)):
        return None
    text = memoryview(buf)
    ids = [str(text[a:b], "ascii") for a, b in zip(starts.tolist(), first.tolist())]
    labels = [str(text[a:b], "ascii") for a, b in zip((first + 2 * d + 1).tolist(), ends.tolist())]
    del sep, text, buf  # so that only the windows stay beside the features
    features = np.empty(tokens.shape)
    np.subtract(tokens, np.uint8(_ZERO), out=features)
    return ids, features, labels


def _text_rows(path, width: int):
    """(ids, features, labels) of any content file, by np.loadtxt; the
    features are an (n, d) float64 view of its records."""
    # (a first row under 3 columns still gets 3 here, so loadtxt rejects it)
    dtype = np.dtype([("id", object), ("x", np.float64, (max(width - 2, 1),)), ("label", object)])
    read = partial(np.loadtxt, dtype=dtype, comments=None, encoding="utf-8", ndmin=1)
    try:
        rows = read(path)
    except ValueError as exc:  # a UnicodeDecodeError too: _lines finds its line
        raise _content_error(path, width, read, exc) from None
    return rows["id"], rows["x"], rows["label"].tolist()


def _index(ids, path) -> dict:
    """Each node id's row; a repeated id is an InputError naming the first."""
    index = {}
    for i, node_id in enumerate(ids):
        if index.setdefault(node_id, i) != i:
            raise InputError(f"{path}: duplicate node id {node_id!r}")
    return index


def load_content_cites(content_path, cites_path):
    """Parse the citation format; returns (Graph, features, class labels).

    When the first row's features are all the tokens 0 and 1, _binary_rows
    reads the file's bytes. Every file it does not take goes to one
    np.loadtxt pass, which reads every row; each row must have the first
    row's column count. Both give the same float64 (n, d) features.
    """
    first = next(filter(None, (line.split() for _, line in _lines(content_path))), [])
    width = len(first)
    if not width:
        raise InputError(f"{content_path}: content file has no rows")
    rows = width >= 3 and set(first[1:-1]) <= {"0", "1"} and _binary_rows(content_path, width - 2)
    ids, features, labels = rows or _text_rows(content_path, width)
    index = _index(ids, content_path)
    edges, skipped = [], 0
    for lineno, line in _lines(cites_path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ParseError("cites row needs exactly two ids", str(cites_path), lineno)
        a, b = fields
        if a not in index or b not in index:
            skipped += 1
            continue
        edges.append((index[a], index[b]))
    if skipped:
        log.warning("%s: skipped %d cites rows referencing unknown node ids",
                    cites_path, skipped)
    graph = build_graph(edges, len(ids))
    return graph, features, labels


def load_jsonl(path):
    """Parse the JSON-lines interchange format; same contract as load_content_cites."""
    ids, rows, labels, neighbor_lists = [], [], [], []
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", str(path), lineno) from None
        for key in ("id", "features", "label", "neighbors"):
            if not isinstance(obj, dict) or key not in obj:
                raise ParseError(f"missing key {key!r}", str(path), lineno)
            if key in ("features", "neighbors") and not isinstance(obj[key], list):
                raise ParseError(f"{key!r} must be a list", str(path), lineno)
        try:
            row = [float(x) for x in obj["features"]]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"non-numeric feature value: {exc}", str(path), lineno) from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} features, found {len(row)}",
                             str(path), lineno)
        if not row:  # the first record's count binds every other record
            raise ParseError("'features' must not be empty", str(path), lineno)
        ids.append(str(obj["id"]))
        rows.append(row)
        labels.append(str(obj["label"]))
        neighbor_lists.append([str(x) for x in obj["neighbors"]])
    if not ids:
        raise InputError(f"{path}: no records")
    index = _index(ids, path)
    edges = []
    for i, nbrs in enumerate(neighbor_lists):
        for nbr in nbrs:
            if nbr not in index:
                raise InputError(f"{path}: node {ids[i]!r} lists unknown neighbor {nbr!r}")
            edges.append((i, index[nbr]))
    graph = build_graph(edges, len(ids))
    return graph, np.asarray(rows, dtype=np.float64), labels


_NORM_ELEMS = 1 << 16  # normalize_features: elements of one row block's workspace (512 KB)


def normalize_features(features: np.ndarray) -> np.ndarray:
    """Scale each row to unit L1 norm in place and return the array; zero rows
    stay zero. A float64 argument is overwritten, any other is converted first.

    A block of at most _NORM_ELEMS elements (or one row) at a time gets its
    |x| into one reused workspace, is checked finite there and summed by row,
    each row as `np.abs(features).sum(axis=1)` sums it; then one division
    scales every row. A NaN or Inf raises InputError before anything is written.
    """
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    step = max(1, _NORM_ELEMS // max(1, d))
    work = np.empty((min(step, n), d))
    norms = np.empty((n, 1))
    for lo in range(0, n, step):
        block = np.abs(features[lo:lo + step], out=work[:min(step, n - lo)])
        if not np.isfinite(block).all():
            raise InputError("features contain NaN or Inf")
        block.sum(axis=1, keepdims=True, out=norms[lo:lo + step])
    norms[norms == 0.0] = 1.0
    return np.divide(features, norms, out=features)


def make_train_test_split(num_nodes: int, train_count: int, seed: int) -> np.ndarray:
    """The test mask of a seeded uniform train subset of the given size; the
    train split is its complement."""
    if not 0 < train_count < num_nodes:
        raise InputError(f"train_count must lie in (0, {num_nodes}), got {train_count}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(num_nodes, size=train_count, replace=False)
    test = np.ones(num_nodes, dtype=bool)
    test[chosen] = False
    return test


def make_pu_split(binary_labels: np.ndarray, train_mask: np.ndarray,
                  label_ratio: float, seed: int) -> np.ndarray:
    """The sorted ids of n_L = max(1, round(ratio * num_nodes)) training
    positives that keep their labels.

    n_L is capped at the number of positive training nodes; selection is
    uniform at random, deterministic given the seed.
    """
    if not 0.0 < label_ratio <= 1.0:
        raise InputError(f"label_ratio must lie in (0, 1], got {label_ratio}")
    binary_labels = np.asarray(binary_labels)
    candidates = np.flatnonzero(train_mask & (binary_labels == 1))
    if candidates.size == 0:
        raise InputError("no positive nodes in the training set")
    n_l = max(1, int(np.floor(label_ratio * binary_labels.size + 0.5)))
    n_l = min(n_l, candidates.size)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(candidates, size=n_l, replace=False))


_SIGNAL, _BACKGROUND = 0.65, 0.2  # planted feature rates, own block / other block


def make_sbm_dataset(n_pos: int, n_neg: int, p_intra: float, p_inter: float,
                     seed: int, feature_dim: int = 8):
    """Two-block SBM plus planted binary features; returns (graph, X, labels).

    Each node draws `feature_dim` Bernoulli bits: the first half fires at
    rate _SIGNAL for its own block and _BACKGROUND for the other block
    (mirrored for the second half), so features are informative but noisy.
    """
    graph, binary = generate_sbm(n_pos, n_neg, p_intra, p_inter, seed)
    rng = np.random.default_rng([seed, 1])
    first_half = np.arange(feature_dim) < feature_dim // 2
    features = rng.random((graph.num_nodes, feature_dim))
    # each uniform becomes 1.0 below its rate, in place; the positive block comes first
    np.less(features[:n_pos], np.where(first_half, _SIGNAL, _BACKGROUND), out=features[:n_pos])
    np.less(features[n_pos:], np.where(first_half, _BACKGROUND, _SIGNAL), out=features[n_pos:])
    labels = ["pos" if b else "neg" for b in binary]
    return graph, features, labels


# Every key a dataset manifest may hold; any other is a ConfigError.
MANIFEST_KEYS = {"name", "format", "content", "cites", "path", "positive_classes",
                 "normalize_features", "train_count", "train_fraction", "split_seed",
                 "n_pos", "n_neg", "p_intra", "p_inter", "graph_seed", "feature_dim"}


def _value(manifest: dict, key: str, default, kind=int):
    return check_value(f"dataset.{key}", manifest.get(key, default), kind)


def resolve_train_count(num_nodes: int, manifest: dict) -> int:
    """The train split's size: dataset.train_count, else train_fraction of the
    nodes, rounded and at least 1 if the fraction is positive. A size that
    leaves no train or no test node is a ConfigError naming the key."""
    if "train_count" in manifest:
        key, value = "train_count", _value(manifest, "train_count", None)
        count = value
    else:
        key, value = "train_fraction", _value(manifest, "train_fraction", 0.1, float)
        count = max(1, int(np.floor(value * num_nodes + 0.5))) if value > 0.0 else 0
    if not 0 < count < num_nodes:
        raise ConfigError(f"dataset.{key} must leave a train and a test node "
                          f"of {num_nodes}, got {value!r}")
    return count


def load_source(manifest: dict):
    """Dispatch on manifest['format'] and return (graph, features, labels)."""
    fmt = _value(manifest, "format", "content_cites", str)
    if fmt == "content_cites":
        return load_content_cites(_value(manifest, "content", None, str),
                                  _value(manifest, "cites", None, str))
    if fmt == "jsonl":
        return load_jsonl(_value(manifest, "path", None, str))
    if fmt == "sbm":
        sizes = {key: _value(manifest, key, default)
                 for key, default in (("n_pos", 200), ("n_neg", 200), ("feature_dim", 8))}
        for key, size in sizes.items():
            if size < 1:
                raise ConfigError(f"dataset.{key} must be >= 1, got {size}")
        p_intra = _value(manifest, "p_intra", 0.05, float)
        p_inter = _value(manifest, "p_inter", 0.005, float)
        if not 0.0 <= p_intra <= 1.0:
            raise ConfigError(f"dataset.p_intra must lie in [0, 1], got {p_intra!r}")
        if not 0.0 <= p_inter <= p_intra:
            raise ConfigError(f"dataset.p_inter must lie in [0, dataset.p_intra = {p_intra!r}], "
                              f"got {p_inter!r}")
        return make_sbm_dataset(p_intra=p_intra, p_inter=p_inter,
                                seed=_value(manifest, "graph_seed", 0), **sizes)
    raise ConfigError(f"dataset.format must be content_cites, jsonl or sbm, got {fmt!r}")


def prepare_dataset(manifest: dict) -> PreparedDataset:
    """Load a manifest's source and fix what no run draws: the binary labels,
    the (optionally row-normalized) features and the train/test split, which
    uses the manifest's own `split_seed` so every run shares it."""
    unknown = sorted(set(manifest) - MANIFEST_KEYS)
    if unknown:
        raise ConfigError(f"unknown dataset keys {unknown}; known: {sorted(MANIFEST_KEYS)}")
    _value(manifest, "name", "unnamed", str)
    graph, features, labels = load_source(manifest)
    positive_names = manifest.get("positive_classes")
    if not isinstance(positive_names, list) or not positive_names:
        raise ConfigError(f"dataset manifest must list positive_classes, got {positive_names!r}")
    classes, positive = set(labels), {str(c) for c in positive_names}
    unknown = [c for c in positive_names if str(c) not in classes]
    if unknown:
        raise InputError(f"positive_classes {unknown} not present in the data "
                         f"(classes: {sorted(classes)})")
    if len(positive) == len(classes):
        raise InputError("positive_classes must be a strict subset of all classes")
    binary = np.array([name in positive for name in labels], dtype=np.int64)
    if _value(manifest, "normalize_features", True, bool):
        features = normalize_features(features)  # in place: the loader's array is its own
    features = np.ascontiguousarray(features)  # a content file's is a strided view
    test_mask = make_train_test_split(
        graph.num_nodes, resolve_train_count(graph.num_nodes, manifest),
        _value(manifest, "split_seed", 0))
    return PreparedDataset(dict(manifest), graph, features, binary, test_mask)


def build_dataset(source, label_ratio: float, seed: int, delta: int) -> PUDataset:
    """Draw one run's PUDataset from a PreparedDataset or a manifest (which is
    prepared first): the PU mask with `seed`, the partition with `delta`."""
    prepared = source if isinstance(source, PreparedDataset) else prepare_dataset(source)
    labeled = make_pu_split(prepared.true_label, ~prepared.test_mask, label_ratio, seed)
    return PUDataset(prepared, partition_unlabeled(prepared.graph, labeled, delta))
