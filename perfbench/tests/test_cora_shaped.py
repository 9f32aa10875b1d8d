import hashlib

import numpy as np
import pytest

from cora_shaped import (CLASS_SIZES, FEATURE_DIM, NUM_EDGES, NUM_NODES,
                         WORDS_PER_ROW, write_cora_shaped)
from pugraph.data import load_content_cites


def digest(paths):
    return [hashlib.sha256(open(p, "rb").read()).hexdigest()
            for p in (paths["content"], paths["cites"])]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return write_cora_shaped(tmp_path_factory.mktemp("seed3"), 3)


def test_same_seed_gives_identical_bytes(written, tmp_path):
    again = write_cora_shaped(tmp_path, 3)
    assert digest(again) == digest(written)


def test_other_seed_gives_other_files(written, tmp_path):
    other = write_cora_shaped(tmp_path, 4)
    a, b = digest(other), digest(written)
    assert a[0] != b[0] and a[1] != b[1]


def test_shape_matches_cora(written):
    graph, features, labels = load_content_cites(written["content"], written["cites"])
    assert graph.num_nodes == NUM_NODES == 2708
    assert graph.num_edges == NUM_EDGES == 5278
    assert features.shape == (NUM_NODES, FEATURE_DIM)
    assert set(np.unique(features)) == {0.0, 1.0}
    assert (features.sum(axis=1) == WORDS_PER_ROW).all()
    names, counts = np.unique(labels, return_counts=True)
    assert dict(zip(names, counts)) == CLASS_SIZES
    positives = sum(CLASS_SIZES[c] for c in written["positive_classes"])
    assert positives == 1244


def test_cites_rows_are_distinct_undirected_edges(written):
    rows = [tuple(line.split()) for line in open(written["cites"])]
    assert len(rows) == NUM_EDGES
    assert len({frozenset(r) for r in rows}) == NUM_EDGES
    assert all(a != b for a, b in rows)
