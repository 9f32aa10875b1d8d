"""Seeded writer of a Cora-shaped `content`/`cites` file pair.

Raw Cora is not in the repository, so the benchmark writes a stand-in of
the same shape: 2,708 papers in Cora's seven classes with Cora's class
sizes, 5,278 distinct undirected citations and 1,433 binary word features
with 18 words per paper. The files use the tab-separated layout of the
original (`id word_1 ... word_1433 class` and `cited citing`), so
`pugraph.data.load_content_cites` parses them like the real ones.

The signal parameters are fixed, not tuned: edges stay inside the class
with Cora's edge homophily, and half of a paper's words come from a
vocabulary slice owned by its class. The same seed gives byte-identical
files.
"""

import os

import numpy as np

CLASS_SIZES = {
    "Case_Based": 298,
    "Genetic_Algorithms": 418,
    "Neural_Networks": 818,
    "Probabilistic_Methods": 426,
    "Reinforcement_Learning": 217,
    "Rule_Learning": 180,
    "Theory": 351,
}
POSITIVE_CLASSES = ("Neural_Networks", "Probabilistic_Methods")
NUM_NODES = sum(CLASS_SIZES.values())
NUM_EDGES = 5278
FEATURE_DIM = 1433
WORDS_PER_ROW = 18
HOMOPHILY = 0.81    # share of Cora's citations that stay inside a class
TOPIC_SHARE = 0.5   # share of a paper's words drawn from its class's slice


def _labels(rng: np.random.Generator) -> np.ndarray:
    names = np.array(list(CLASS_SIZES))
    class_ids = np.repeat(np.arange(names.size), list(CLASS_SIZES.values()))
    return rng.permutation(class_ids)


def _edges(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """NUM_EDGES distinct undirected pairs, in the order they were drawn."""
    members = [np.flatnonzero(labels == c) for c in range(len(CLASS_SIZES))]
    keys: dict[int, None] = {}
    while len(keys) < NUM_EDGES:
        src = rng.integers(0, NUM_NODES, size=NUM_EDGES)
        same = rng.random(NUM_EDGES) < HOMOPHILY
        dst = rng.integers(0, NUM_NODES, size=NUM_EDGES)
        for i in np.flatnonzero(same):
            pool = members[labels[src[i]]]
            dst[i] = pool[rng.integers(0, pool.size)]
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        for key in (lo * NUM_NODES + hi)[lo != hi]:
            keys.setdefault(int(key), None)
            if len(keys) == NUM_EDGES:
                break
    flat = np.fromiter(keys, dtype=np.int64, count=NUM_EDGES)
    pairs = np.column_stack([flat // NUM_NODES, flat % NUM_NODES])
    flip = rng.random(NUM_EDGES) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    return pairs


def _features(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    vocab = rng.permutation(FEATURE_DIM)
    slices = np.array_split(vocab, len(CLASS_SIZES))
    bits = np.zeros((NUM_NODES, FEATURE_DIM), dtype=np.uint8)
    for node, c in enumerate(labels):
        n_topic = rng.binomial(WORDS_PER_ROW, TOPIC_SHARE)
        topic = rng.choice(slices[c], size=n_topic, replace=False)
        rest = np.setdiff1d(vocab, topic)
        other = rng.choice(rest, size=WORDS_PER_ROW - n_topic, replace=False)
        bits[node, topic] = 1
        bits[node, other] = 1
    return bits


def write_cora_shaped(directory, seed: int) -> dict:
    """Write `cora.content` and `cora.cites` under `directory`.

    Returns a dataset manifest fragment with the two paths, the format and
    the positive classes, ready to merge into a `pugraph` manifest.
    """
    rng = np.random.default_rng([seed, 2708])
    labels = _labels(rng)
    ids = rng.choice(np.arange(1, 1_200_000), size=NUM_NODES, replace=False)
    edges = _edges(rng, labels)
    bits = _features(rng, labels)
    names = list(CLASS_SIZES)
    os.makedirs(directory, exist_ok=True)
    content = os.path.join(directory, "cora.content")
    cites = os.path.join(directory, "cora.cites")
    row = np.full(2 * FEATURE_DIM, ord("\t"), dtype=np.uint8)
    with open(content, "wb") as fh:
        for node in range(NUM_NODES):
            row[0::2] = bits[node] + ord("0")
            fh.write(b"%d\t" % ids[node] + row[:-1].tobytes()
                     + b"\t" + names[labels[node]].encode() + b"\n")
    with open(cites, "wb") as fh:
        fh.write(b"".join(b"%d\t%d\n" % (ids[a], ids[b]) for a, b in edges))
    return {"format": "content_cites", "content": content, "cites": cites,
            "positive_classes": list(POSITIVE_CLASSES)}
