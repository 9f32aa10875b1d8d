import json
import logging
import re

import numpy as np
import pytest

import pugraph.data
from pugraph.data import (build_dataset, load_content_cites, load_jsonl,
                          load_source, make_pu_split, make_sbm_dataset,
                          make_train_test_split, normalize_features,
                          prepare_dataset)
from pugraph.errors import ConfigError, InputError, ParseError
from pugraph.graph import generate_sbm

from conftest import SBM_MANIFEST, save_jsonl, traced_peak

CONTENT_3 = "n1\t1\t0\t1\tml\nn2\t0\t1\t0\ttheory\nn3\t1\t1\t0\tml\n"
CITES_1 = "n1\tn2\n"


@pytest.fixture
def tiny_files(tmp_path):
    content = tmp_path / "tiny.content"
    cites = tmp_path / "tiny.cites"
    content.write_text(CONTENT_3)
    cites.write_text(CITES_1)
    return content, cites


class TestLoadContentCites:
    def test_tiny_fixture(self, tiny_files):
        graph, features, labels = load_content_cites(*tiny_files)
        assert graph.num_nodes == 3
        assert graph.num_edges == 1
        assert features.shape == (3, 3)
        assert labels == ["ml", "theory", "ml"]
        assert features[0].tolist() == [1.0, 0.0, 1.0]

    def test_unknown_cite_ids_skipped_with_warning(self, tmp_path, caplog):
        content = tmp_path / "a.content"
        cites = tmp_path / "a.cites"
        content.write_text(CONTENT_3)
        cites.write_text("n1\tn2\nn1\tnope\nghost\tn3\n")
        with caplog.at_level(logging.WARNING):
            graph, _, _ = load_content_cites(content, cites)
        assert graph.num_edges == 1
        assert "skipped 2" in caplog.text

    def test_malformed_row_reports_line(self, tmp_path):
        content = tmp_path / "b.content"
        content.write_text("n1\t1\t0\tml\nn2\tbroken\n")
        (tmp_path / "b.cites").write_text("")
        with pytest.raises(ParseError, match="b.content:2"):
            load_content_cites(content, tmp_path / "b.cites")

    def test_non_numeric_feature_reports_line(self, tmp_path):
        content = tmp_path / "c.content"
        content.write_text("n1\t1\tx\tml\n")
        (tmp_path / "c.cites").write_text("")
        with pytest.raises(ParseError, match="c.content:1"):
            load_content_cites(content, tmp_path / "c.cites")

    def test_empty_content_rejected(self, tmp_path):
        (tmp_path / "d.content").write_text("")
        (tmp_path / "d.cites").write_text("")
        with pytest.raises(InputError):
            load_content_cites(tmp_path / "d.content", tmp_path / "d.cites")

    @pytest.mark.parametrize("row, lineno", [
        ("n2\t1\tx\tml", 6),            # non-numeric value
        ("n2\t1\t0\t1\tml", 6),         # one column too many
        ("n2\t1\tml", 6),               # one column too few
    ])
    def test_bad_row_after_blank_lines_reports_its_file_line(self, tmp_path, row, lineno):
        content = tmp_path / "e.content"
        content.write_text(f"\n\nn1\t1\t0\tml\n\n \t\n{row}\nn3\t0\t0\tml\n")
        (tmp_path / "e.cites").write_text("")
        with pytest.raises(ParseError, match=f"e.content:{lineno}:"):
            load_content_cites(content, tmp_path / "e.cites")

    def test_blank_cites_lines_are_skipped(self, tiny_files):
        content, cites = tiny_files
        cites.write_text("\nn1\tn2\n \t\nn2\tn3\n\n")
        graph, _, _ = load_content_cites(content, cites)
        assert graph.num_edges == 2

    @pytest.mark.parametrize("row", ["n1\tn2\tn3", "n1"])
    def test_a_cites_row_without_two_ids_reports_its_line(self, tiny_files, row):
        content, cites = tiny_files
        cites.write_text(f"n1\tn2\n\n{row}\n")
        with pytest.raises(ParseError, match="tiny.cites:3: cites row needs exactly two ids"):
            load_content_cites(content, cites)

    def test_duplicate_ids_rejected(self, tmp_path):
        (tmp_path / "f.content").write_text("n1\t1\tml\nn1\t0\tml\n")
        (tmp_path / "f.cites").write_text("")
        with pytest.raises(InputError, match="f.content: duplicate node id 'n1'"):
            load_content_cites(tmp_path / "f.content", tmp_path / "f.cites")

    def test_values_bit_equal_to_python_float(self, tmp_path):
        values = ["0", "1", "-2.5", "1e-3", "0.1", "3.141592653589793", "1E300",
                  "-0", "4.9e-324", "123456789.123456789", "inf", "-inf"]
        content = tmp_path / "g.content"
        content.write_text("".join(f"n{i} {' '.join(values[i:] + values[:i])} c\n"
                                   for i in range(len(values))))
        (tmp_path / "g.cites").write_text("")
        _, features, _ = load_content_cites(content, tmp_path / "g.cites")
        oracle = np.array([[float(x) for x in line.split()[1:-1]]
                           for line in content.read_text().splitlines()])
        assert np.array_equal(features.view(np.int64), oracle.view(np.int64))

    def test_parse_peak_is_a_small_multiple_of_the_features(self, tmp_path):
        rng = np.random.default_rng(0)
        bits = rng.random((1500, 400)) < 0.05
        content = tmp_path / "h.content"
        content.write_text("".join(
            f"{i}\t" + "\t".join("1" if b else "0" for b in row) + "\tc\n"
            for i, row in enumerate(bits)))
        (tmp_path / "h.cites").write_text("")
        (_, features, _), peak = traced_peak(load_content_cites, content,
                                             tmp_path / "h.cites")
        assert np.array_equal(features, bits)
        assert peak < 3 * features.nbytes

    def load_text(self, tmp_path, text):
        content = tmp_path / "t.content"
        content.write_bytes(text.encode())
        (tmp_path / "t.cites").write_text("")
        return load_content_cites(content, tmp_path / "t.cites")

    def test_crlf_line_endings(self, tmp_path):
        _, features, labels = self.load_text(tmp_path, CONTENT_3.replace("\n", "\r\n"))
        _, want, want_labels = self.load_text(tmp_path, CONTENT_3)
        assert np.array_equal(features, want)
        assert labels == want_labels == ["ml", "theory", "ml"]

    def test_mixed_tab_and_space_separators(self, tmp_path):
        _, features, labels = self.load_text(tmp_path, "n1 1\t0  1\tml\nn2\t0 1\t\t0 theory\n")
        assert features.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert labels == ["ml", "theory"]

    def test_hash_inside_an_id_and_a_class_is_text(self, tmp_path):
        _, features, labels = self.load_text(tmp_path, "#n1\t1\tc#1\nn#2\t0\t#c\n")
        assert features.tolist() == [[1.0], [0.0]]
        assert labels == ["c#1", "#c"]
        (tmp_path / "t.cites").write_text("#n1\tn#2\n")
        graph, _, _ = load_content_cites(tmp_path / "t.content", tmp_path / "t.cites")
        assert graph.num_edges == 1

    def test_whitespace_only_last_line(self, tmp_path):
        _, features, labels = self.load_text(tmp_path, CONTENT_3 + " \t ")
        assert features.shape == (3, 3)
        assert labels == ["ml", "theory", "ml"]

    @pytest.mark.parametrize("text, message", [
        ("\n n1\tml\nn2\t1\tml\n", "t.content:2: content row needs id, >=1 feature, class"),
        ("n1\t1\tml\nn2\t1\tml\nn3\t1\t2\tml\nn4\tx\tml\n",
         "t.content:3: expected 3 columns, found 4"),
        ("n1\t1\tml\n\nn2\tx\tml\nn3\t1\t2\tml\n", "t.content:3: non-numeric feature value"),
    ])
    def test_the_first_bad_row_in_file_order_is_named(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            self.load_text(tmp_path, text)

    def test_one_feature_column(self, tmp_path):
        _, features, labels = self.load_text(tmp_path, "a\t0.5\tx\nb\t-2\ty\n")
        assert features.shape == (2, 1)
        assert features[:, 0].tolist() == [0.5, -2.0]
        assert labels == ["x", "y"]

    def test_parse_holds_no_per_line_text(self, tmp_path):
        # the file's text outweighs the parsed features, so a parser that
        # keeps its lines while it converts them cannot stay under the bound
        values = np.random.default_rng(1).random((1500, 400))
        text = "".join(f"v{i}\t" + "\t".join(f"{x:.7f}" for x in row) + "\tc\n"
                       for i, row in enumerate(values))
        assert len(text) > values.nbytes
        content = tmp_path / "i.content"
        content.write_text(text)
        (tmp_path / "i.cites").write_text("")
        (_, features, _), peak = traced_peak(load_content_cites, content,
                                             tmp_path / "i.cites")
        assert np.abs(features - values).max() < 1e-7
        assert peak < 1.5 * features.nbytes

    def test_binary_parse_holds_no_per_line_text(self, tmp_path, byte_reads):
        # the twin of the test above for a file of 0/1 tokens, which is read
        # from its bytes: neither its lines nor its tokens may stay alive
        bits = np.random.default_rng(1).random((1500, 400)) < 0.5
        content = tmp_path / "j.content"
        content.write_text("".join(f"v{i}\t" + "\t".join("1" if b else "0" for b in row) + "\tc\n"
                                   for i, row in enumerate(bits)))
        (tmp_path / "j.cites").write_text("")
        (_, features, _), peak = traced_peak(load_content_cites, content,
                                             tmp_path / "j.cites")
        assert byte_reads == [True]
        assert np.array_equal(features, bits)
        assert peak < 1.5 * features.nbytes

    @pytest.mark.parametrize("bad_file, rows_before", [
        ("content", 1),
        ("content", 3000),  # past the first 8 KB that a text read decodes at once
        ("cites", 2),
    ])
    def test_invalid_utf8_is_a_parse_error_naming_its_file_line(self, tmp_path, bad_file,
                                                               rows_before):
        rows = [f"n{i}\t1\t0\tml\n".encode() for i in range(rows_before)]
        files = {"content": b"".join(rows + [b"nx\t1\t\xff\tml\n"]), "cites": b"n0\tn0\n"}
        if bad_file == "cites":
            files = {"content": b"".join(rows), "cites": b"n0\tn1\nn1\t\xffn0\n"}
        for kind, data in files.items():
            (tmp_path / f"u.{kind}").write_bytes(data)
        line = rows_before + 1 if bad_file == "content" else 2
        with pytest.raises(ParseError, match=f"u.{bad_file}:{line}: byte 0xff is not valid UTF-8"):
            load_content_cites(tmp_path / "u.content", tmp_path / "u.cites")

    @pytest.mark.parametrize("normalize", [True, False])
    def test_prepared_features_are_c_contiguous_float64(self, tiny_files, normalize):
        content, cites = tiny_files
        prepared = prepare_dataset({"format": "content_cites", "content": str(content),
                                    "cites": str(cites), "positive_classes": ["ml"],
                                    "normalize_features": normalize, "train_count": 1})
        assert prepared.features.flags.c_contiguous
        assert prepared.features.dtype == np.float64
        raw = load_content_cites(content, cites)[1]
        assert np.array_equal(prepared.features, normalize_features(raw) if normalize else raw)


@pytest.fixture
def byte_reads(monkeypatch):
    """Whether each call of the byte reader took its file, in call order."""
    taken, read = [], pugraph.data._binary_rows

    def spy(*args):
        rows = read(*args)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr("pugraph.data._binary_rows", spy)
    return taken


def load_outcome(content, cites):
    """load_content_cites' result, or the type and message of what it raised."""
    try:
        return load_content_cites(content, cites)
    except ValueError as exc:  # InputError and ParseError among them
        return type(exc), str(exc)


# content files, and whether the byte reader takes them; any file it leaves
# goes to np.loadtxt, so every case must load as loadtxt alone loads it
DIFFERENTIAL = {
    "binary": (CONTENT_3, True),
    "binary, one feature": ("n1\t1\tml\nn2\t0\ttheory\nn3\t0\tml\n", True),
    "binary, one-byte ids and classes": ("1\t1\t0\t1\ta\n2 0 1 0 b\n3\t1\t1\t0\ta\n", True),
    "mixed tabs and spaces": ("n1 1\t0 1\tml\nn2\t0 1\t0 theory\nn3 1 1 0 ml\n", True),
    "a float row in the middle": ("n1\t1\t0\t1\tml\nn2\t0.5\t1\t0\ttheory\nn3\t1\t1\t0\tml\n",
                                  False),
    "CRLF": (CONTENT_3.replace("\n", "\r\n"), False),
    "a blank line": (CONTENT_3.replace("\nn2", "\n\nn2"), False),
    "a doubled separator": (CONTENT_3.replace("n2\t0", "n2\t\t0"), False),
    "a leading separator": (" " + CONTENT_3, False),
    "a row without an id": (CONTENT_3.replace("\nn2\t", "\n\t"), False),
    "trailing whitespace": (CONTENT_3.replace("theory\n", "theory \n"), False),
    "a whitespace-only last line": (CONTENT_3 + " \t \n", False),
    "no final newline": (CONTENT_3[:-1], False),
    "an unterminated one-field last line": (CONTENT_3 + "n4", False),
    "a non-ASCII id": (CONTENT_3.replace("n2", "n\u00e92"), False),
    "a vertical tab separator": (CONTENT_3.replace("n2\t", "n2\x0b"), False),
    "a file separator byte": (CONTENT_3.replace("n2\t", "n2\x1c"), False),
    "a short row": (CONTENT_3.replace("\t0\ttheory", "\ttheory"), False),
    "a long row": (CONTENT_3.replace("\ttheory", "\t1\ttheory"), False),
    "a class-less row": (CONTENT_3.replace("\ttheory", ""), False),
    "a class-less row with a trailing tab": (CONTENT_3.replace("\ttheory", "\t"), False),
    # as many separators as three good rows, but not one per field boundary
    "a short row and a long row": ("n1\t0\t1\tml\nn2\t1\t0theory\nn3\t1\t0\tm\tx\n", False),
    "a duplicate id": (CONTENT_3.replace("n3", "n1"), True),
    "a -0 token": (CONTENT_3.replace("n2\t0", "n2\t-0"), False),
    "a 1.0 token": (CONTENT_3.replace("n2\t0\t1", "n2\t0\t1.0"), False),
    "a two-byte token": (CONTENT_3.replace("n2\t0", "n2\t01"), False),
    "a token of 2": (CONTENT_3.replace("n2\t0", "n2\t2"), False),
    "a first row of floats": (CONTENT_3.replace("n1\t1", "n1\t1.0"), None),
}


class TestBytesAndLoadtxtAgree:
    @pytest.mark.parametrize("text, takes", DIFFERENTIAL.values(), ids=DIFFERENTIAL)
    def test_the_byte_reader_loads_what_loadtxt_loads(self, tmp_path, monkeypatch,
                                                      byte_reads, text, takes):
        content, cites = tmp_path / "x.content", tmp_path / "x.cites"
        content.write_bytes(text.encode())
        cites.write_text("n1\tn2\nn3\tn1\n1\t3\n")
        got = load_outcome(content, cites)
        # a first row that is not all 0/1 tokens never reaches the byte reader
        assert byte_reads == ([] if takes is None else [takes])
        monkeypatch.setattr("pugraph.data._binary_rows", lambda *args: None)
        want = load_outcome(content, cites)
        if isinstance(want[0], type):
            assert got == want
            return
        (graph, features, labels), (want_graph, want_features, want_labels) = got, want
        assert np.array_equal(graph.indptr, want_graph.indptr)
        assert np.array_equal(graph.indices, want_graph.indices)
        assert features.dtype == want_features.dtype == np.float64
        assert features.shape == want_features.shape
        assert np.array_equal(features.view(np.int64), want_features.view(np.int64))
        assert labels == want_labels

    @pytest.mark.parametrize("seed", [1, 7])
    def test_a_citation_shaped_file_is_read_from_its_bytes_bit_for_bit(
            self, tmp_path, monkeypatch, byte_reads, seed):
        # ids of 1 to 7 digits and several class names, as in Cora
        rng = np.random.default_rng(seed)
        bits = rng.random((300, 200)) < 0.05
        ids = rng.choice(np.arange(1, 2_000_000), size=300, replace=False)
        classes = ["Neural_Networks", "Theory", "Rule_Learning"]
        content, cites = tmp_path / "s.content", tmp_path / "s.cites"
        content.write_text("".join(
            f"{node}\t" + "\t".join("1" if b else "0" for b in row)
            + f"\t{classes[node % 3]}\n" for node, row in zip(ids, bits)))
        cites.write_text("".join(f"{a}\t{b}\n" for a, b in rng.choice(ids, size=(400, 2))))
        got = load_content_cites(content, cites)
        monkeypatch.setattr("pugraph.data._binary_rows", lambda *args: None)
        want = load_content_cites(content, cites)
        assert byte_reads == [True]
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
        assert got[2] == want[2]
        assert np.array_equal(got[0].indptr, want[0].indptr)
        assert np.array_equal(got[0].indices, want[0].indices)


class TestJsonl:
    def test_round_trip_tiny(self, tiny_files, tmp_path):
        graph, features, labels = load_content_cites(*tiny_files)
        path = tmp_path / "tiny.jsonl"
        save_jsonl(path, graph, features, labels)
        graph2, features2, labels2 = load_jsonl(path)
        assert np.array_equal(graph.indptr, graph2.indptr)
        assert np.array_equal(graph.indices, graph2.indices)
        assert np.array_equal(features, features2)
        assert labels == labels2

    def test_round_trip_sbm(self, tmp_path):
        graph, features, labels = make_sbm_dataset(30, 30, 0.2, 0.02, 5)
        path = tmp_path / "sbm.jsonl"
        save_jsonl(path, graph, features, labels)
        graph2, features2, labels2 = load_jsonl(path)
        assert np.array_equal(graph.indptr, graph2.indptr)
        assert np.array_equal(graph.indices, graph2.indices)
        assert np.array_equal(features, features2)
        assert labels == labels2

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        row = '{"id": "a", "features": [1], "label": "x", "neighbors": []}\n'
        path.write_text(row + row)
        with pytest.raises(InputError, match="'a'"):
            load_jsonl(path)

    def test_dangling_neighbor_rejected(self, tmp_path):
        path = tmp_path / "dangling.jsonl"
        path.write_text('{"id": "a", "features": [1], "label": "x", "neighbors": ["zz"]}\n')
        with pytest.raises(InputError, match="zz"):
            load_jsonl(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "features": [1], "label": "x", "neighbors": []}\n{oops\n')
        with pytest.raises(ParseError, match="bad.jsonl:2"):
            load_jsonl(path)

    @pytest.mark.parametrize("record, message", [
        ('{"id": "b", "features": [1, "zz"], "label": "x", "neighbors": []}',
         "non-numeric feature value"),
        ('{"id": "b", "features": [1, null], "label": "x", "neighbors": []}',
         "non-numeric feature value"),
        ('{"id": "b", "features": [1, 2, 3], "label": "x", "neighbors": []}',
         "expected 2 features, found 3"),
        ('{"id": "b", "features": [1], "label": "x", "neighbors": []}',
         "expected 2 features, found 1"),
        ('{"id": "b", "features": "12", "label": "x", "neighbors": []}',
         "'features' must be a list"),
        ('{"id": "b", "features": [1, 2], "label": "x", "neighbors": "a"}',
         "'neighbors' must be a list"),
        ('[1, 2]', "missing key 'id'"),
    ])
    def test_bad_record_is_a_parse_error_naming_its_line(self, tmp_path, record, message):
        path = tmp_path / "rec.jsonl"
        path.write_text('{"id": "a", "features": [1, 2], "label": "x", "neighbors": []}\n\n'
                        + record + "\n")
        with pytest.raises(ParseError, match=f"rec.jsonl:3: {message}"):
            load_jsonl(path)

    def test_records_without_features_are_a_parse_error_naming_the_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n" + "".join(json.dumps({"id": str(i), "features": [], "label": "x",
                                                   "neighbors": []}) + "\n" for i in range(3)))
        with pytest.raises(ParseError, match="empty.jsonl:2: 'features' must not be empty"):
            load_jsonl(path)

    def test_a_file_with_no_records_is_rejected(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n \n")
        with pytest.raises(InputError, match="blank.jsonl: no records"):
            load_jsonl(path)

    def test_invalid_utf8_is_a_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_bytes(b'{"id": "a", "features": [1], "label": "x", "neighbors": []}\n'
                         b'{"id": "\xff", "features": [1], "label": "x", "neighbors": []}\n')
        with pytest.raises(ParseError, match="u.jsonl:2: byte 0xff is not valid UTF-8"):
            load_jsonl(path)

    def test_values_bit_equal_to_python_float(self, tmp_path):
        values = [0, 1, -2.5, 1e-3, 0.1, 3.141592653589793, 1e300, -0.0, 5e-324,
                  123456789.123456789, 2**60 + 1, "0.1", "-0", "inf"]
        path = tmp_path / "v.jsonl"
        path.write_text("".join(
            json.dumps({"id": str(i), "features": values[i:] + values[:i],
                        "label": "x", "neighbors": []}) + "\n"
            for i in range(len(values))))
        _, features, _ = load_jsonl(path)
        oracle = np.array([[float(x) for x in json.loads(line)["features"]]
                           for line in path.read_text().splitlines()])
        assert np.array_equal(features.view(np.int64), oracle.view(np.int64))


# LF files of every reader: a float token sends the content file to np.loadtxt;
# \x1c and \x85 split str.splitlines' lines but no line of a text-mode read
EOL_CONTENT = "n1\t1.5\t0\tml\n\nn2\t0\x1c1\ttheory\nn3\t1\t1\tml\n"
EOL_CITES = "n1\tn2\n\nn2\x1cn3\n"
EOL_JSONL = "".join(json.dumps({"id": f"n{i}", "features": [i, 1], "label": label,
                               "neighbors": [f"n{(i + 1) % 3}"]}, ensure_ascii=False) + "\n"
                    for i, label in enumerate(["ml", "theory\x85\u2028", "ml"]))


class TestLineReader:
    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_every_line_ending_loads_as_lf_does(self, tmp_path, eol):
        def load(ending):
            for name, text in (("e.content", EOL_CONTENT), ("e.cites", EOL_CITES),
                               ("e.jsonl", EOL_JSONL)):
                (tmp_path / name).write_bytes(text.replace("\n", ending).encode())
            return [load_content_cites(tmp_path / "e.content", tmp_path / "e.cites"),
                    load_jsonl(tmp_path / "e.jsonl")]

        want = load("\n")
        assert want[0][0].num_edges == 2 and want[1][2][1] == "theory\x85\u2028"
        for (graph, features, labels), (graph2, features2, labels2) in zip(want, load(eol)):
            assert np.array_equal(graph.indptr, graph2.indptr)
            assert np.array_equal(graph.indices, graph2.indices)
            assert np.array_equal(features, features2)
            assert labels == labels2

    @pytest.mark.parametrize("content, cites, message", [
        # a short row on line 2 comes before a bad byte on line 4
        (b"n1\t1\t0\tml\nn2\t1\tml\nn3\t0\t1\tml\nn4\t\xff\t1\tml\n", b"",
         "f.content:2: expected 4 columns, found 3"),
        # three ids on line 1 come before a bad byte on line 2
        (CONTENT_3.encode(), b"n1\tn2\tn3\nn1\t\xff\n", "f.cites:1: cites row needs exactly two ids"),
        # a first row with a bad byte is found by the column sniff
        (b"n\xff1\t1\t0\tml\n", b"", "f.content:1: byte 0xff is not valid UTF-8"),
        # a byte that starts a 3-byte sequence its next byte breaks is the bad one
        (CONTENT_3.encode(), b"n1\tn2\nn\xe2\x28\xa1\tn1\n",
         "f.cites:2: byte 0xe2 is not valid UTF-8"),
        (b"n1\t1\t0\tml\nn\xe2\x28\xa1\t1\t1\tml\n", b"",
         "f.content:2: byte 0xe2 is not valid UTF-8"),
    ], ids=["short row, then bad byte", "three ids, then bad byte", "bad byte in first row",
            "broken sequence in cites", "broken sequence in content"])
    def test_a_citation_error_names_the_first_fault_in_file_order(self, tmp_path, content,
                                                                  cites, message):
        (tmp_path / "f.content").write_bytes(content)
        (tmp_path / "f.cites").write_bytes(cites)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_content_cites(tmp_path / "f.content", tmp_path / "f.cites")

    def test_a_jsonl_error_names_the_first_fault_in_file_order(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"id": "a", "label": "x", "neighbors": []}\n'
                         b'{"id": "\xff", "features": [1], "label": "x", "neighbors": []}\n')
        with pytest.raises(ParseError, match="f.jsonl:1: missing key 'features'"):
            load_jsonl(path)


def reference_binary_labels(labels, positive_classes):
    """The class vocabulary and class-id mapping that prepare_dataset's
    name test replaced, kept as the oracle."""
    vocab = {name: i for i, name in enumerate(sorted(set(labels)))}
    positive = np.zeros(len(vocab), dtype=np.int64)
    positive[[vocab[str(c)] for c in positive_classes]] = 1
    return positive[np.array([vocab[name] for name in labels], dtype=np.int64)]


def prepare_labeled(tmp_path, labels, positive_classes):
    """prepare_dataset on edgeless content/cites files with these class names."""
    content, cites = tmp_path / "l.content", tmp_path / "l.cites"
    content.write_text("".join(f"n{i}\t1\t{name}\n" for i, name in enumerate(labels)))
    cites.write_text("")
    return prepare_dataset({"format": "content_cites", "content": str(content),
                            "cites": str(cites), "positive_classes": positive_classes})


class TestBinarize:
    def test_subset_membership(self, tmp_path):
        labels = ["a", "b", "c", "d", "c"]
        binary = prepare_labeled(tmp_path, labels, ["a", "c"]).true_label
        assert binary.tolist() == [1, 0, 1, 0, 1]
        assert np.array_equal(binary, reference_binary_labels(labels, ["a", "c"]))

    def test_partition_counts(self, tmp_path):
        # seven classes, two positive, as in Cora
        rng = np.random.default_rng(0)
        labels = [f"class{c}" for c in rng.integers(0, 7, size=200)]
        binary = prepare_labeled(tmp_path, labels, ["class1", "class3"]).true_label
        assert binary.dtype == np.int64
        assert 0 < binary.sum() < 200
        assert np.array_equal(binary, reference_binary_labels(labels, ["class1", "class3"]))

    def test_sbm_labels_match_the_class_id_mapping(self):
        labels = load_source(SBM_MANIFEST)[2]
        assert np.array_equal(prepare_dataset(SBM_MANIFEST).true_label,
                              reference_binary_labels(labels, ["pos"]))

    def test_mapping_invariants(self, tmp_path):
        with pytest.raises(ConfigError, match="must list positive_classes"):
            prepare_labeled(tmp_path, ["a", "b"], [])
        with pytest.raises(InputError, match="strict subset"):
            prepare_labeled(tmp_path, ["a", "b", "a"], ["a", "b"])


class TestPuSplit:
    def test_cora_sized_counts(self):
        # n_L follows round(ratio * total nodes): 2708 -> 3 and 27
        rng = np.random.default_rng(1)
        labels = (rng.random(2708) < 0.46).astype(int)
        train = np.zeros(2708, dtype=bool)
        train[rng.choice(2708, size=271, replace=False)] = True
        if not (train & (labels == 1)).any():
            labels[np.flatnonzero(train)[0]] = 1
        assert make_pu_split(labels, train, 0.001, 0).size == 3
        assert make_pu_split(labels, train, 0.01, 0).size == 27

    def test_deterministic_and_seed_sensitive(self):
        labels = np.ones(400, dtype=int)
        train = np.ones(400, dtype=bool)
        a = make_pu_split(labels, train, 0.05, 7)
        b = make_pu_split(labels, train, 0.05, 7)
        c = make_pu_split(labels, train, 0.05, 8)
        assert np.array_equal(a, b)
        assert a.size == c.size == 20
        assert not np.array_equal(a, c)
        # sorted ids, each once
        assert np.array_equal(a, np.unique(a)) and np.array_equal(c, np.unique(c))

    def test_only_train_positives_selected(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=100)
        train = rng.random(100) < 0.3
        if not (train & (labels == 1)).any():
            labels[np.flatnonzero(train)[0]] = 1
        labeled = make_pu_split(labels, train, 0.05, 3)
        assert (labels[labeled] == 1).all()
        assert train[labeled].all()

    def test_capped_at_available_positives(self):
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        train = np.ones(10, dtype=bool)
        assert make_pu_split(labels, train, 1.0, 0).tolist() == [0, 1]

    def test_no_positive_training_nodes_rejected(self):
        with pytest.raises(InputError):
            make_pu_split(np.zeros(10, dtype=int), np.ones(10, dtype=bool), 0.1, 0)

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_a_ratio_outside_0_1_rejected(self, ratio):
        with pytest.raises(InputError, match="label_ratio must lie in"):
            make_pu_split(np.ones(10, dtype=int), np.ones(10, dtype=bool), ratio, 0)


class TestNormalizeFeatures:
    def test_basic_rows(self):
        out = normalize_features(np.array([[2.0, 2.0, 0.0],
                                           [0.0, 0.0, 0.0],
                                           [1.0, 1.0, 1.0]]))
        assert out[0].tolist() == [0.5, 0.5, 0.0]
        assert out[1].tolist() == [0.0, 0.0, 0.0]
        assert np.allclose(out[2], 1.0 / 3.0)

    def test_all_ones_length_four(self):
        assert normalize_features(np.ones((1, 4)))[0].tolist() == [0.25] * 4

    def test_nonzero_rows_stay_nonzero_and_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = (rng.random((50, 12)) < 0.3) * rng.random((50, 12))
        out = normalize_features(x)
        nonzero = np.abs(x).sum(axis=1) > 0
        assert np.allclose(out[nonzero].sum(axis=1), 1.0)
        assert (np.abs(out[nonzero]).sum(axis=1) > 0).all()

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            normalize_features(np.array([[1.0, np.nan]]))

    @staticmethod
    def oracle(x: np.ndarray) -> np.ndarray:
        """The whole-array expression: |x| row sums, zero sums replaced by 1."""
        n = np.abs(x).sum(axis=1, keepdims=True)
        return x / np.where(n > 0, n, 1.0)

    @staticmethod
    def signed_sparse(rng, n: int, d: int) -> np.ndarray:
        """Rows of both signs, -0.0 entries and every fifth row all zero."""
        x = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
        x[rng.random((n, d)) < 0.1] = -0.0
        x[::5] = 0.0
        x[1::5] = -0.0
        return x

    @pytest.mark.parametrize("n, d, block", [(100, 1433, None), (101, 10, 64), (7, 3, 1),
                                             (3, 70_000, None), (1, 5, None)])
    def test_bit_equal_to_the_whole_array_expression(self, monkeypatch, n, d, block):
        # blocks of 45, 6 and 1 rows leave a short last block; 70,000 columns
        # exceed one workspace, so each row is a block of its own
        if block is not None:
            monkeypatch.setattr(pugraph.data, "_NORM_ELEMS", block)
        x = self.signed_sparse(np.random.default_rng(n * d), n, d)
        want = self.oracle(x)
        out = normalize_features(x)
        assert out is x
        assert np.array_equal(out.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("block", [None, 64])
    def test_a_strided_argument_is_scaled_where_it_lies(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(pugraph.data, "_NORM_ELEMS", block)
        rng = np.random.default_rng(5)
        base = self.signed_sparse(rng, 103, 40)
        before = base.copy()
        view = base[:, 1::3]  # a column slice: no row of it is contiguous
        want = self.oracle(view.copy())
        out = normalize_features(view)
        assert np.shares_memory(out, base)
        assert np.array_equal(out.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.delete(base, np.s_[1::3], axis=1).view(np.int64),
                              np.delete(before, np.s_[1::3], axis=1).view(np.int64))

    def test_a_structured_field_like_loadtxts_is_scaled_in_place(self):
        rows = np.zeros(50, dtype=[("id", object), ("x", np.float64, (9,)), ("label", object)])
        rows["x"] = self.signed_sparse(np.random.default_rng(2), 50, 9)
        want = self.oracle(rows["x"].copy())
        out = normalize_features(rows["x"])
        assert np.shares_memory(out, rows)
        assert np.array_equal(np.ascontiguousarray(rows["x"]).view(np.int64),
                              want.view(np.int64))

    def test_a_non_float64_argument_is_converted_and_left_alone(self):
        x = np.array([[2, 0, 2], [0, 0, 0]], dtype=np.int64)
        out = normalize_features(x)
        assert out.dtype == np.float64 and not np.shares_memory(out, x)
        assert out.tolist() == [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]
        assert x.tolist() == [[2, 0, 2], [0, 0, 0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_the_last_block_raises_before_any_write(self, bad):
        x = self.signed_sparse(np.random.default_rng(9), 100, 1433)  # blocks of 45 rows
        x[-1, -1] = bad
        before = x.copy()
        with pytest.raises(InputError, match="^features contain NaN or Inf$"):
            normalize_features(x)
        assert np.array_equal(x.view(np.int64), before.view(np.int64))

    def test_allocates_well_under_one_feature_matrix(self):
        # a Cora-shaped matrix, 31 MB; the whole-array expression allocates two more
        x = (np.random.default_rng(4).random((2708, 1433)) < 0.013).astype(np.float64)
        out, peak = traced_peak(normalize_features, x)
        assert out is x
        assert peak < x.nbytes / 8


class TestSbmDataset:
    def test_features_and_graph_deterministic(self):
        a = make_sbm_dataset(40, 40, 0.1, 0.01, 9)
        b = make_sbm_dataset(40, 40, 0.1, 0.01, 9)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0].indices, b[0].indices)

    def test_graph_matches_generate_sbm(self):
        graph, _, _ = make_sbm_dataset(40, 40, 0.1, 0.01, 9)
        raw, _ = generate_sbm(40, 40, 0.1, 0.01, 9)
        assert np.array_equal(graph.indices, raw.indices)

    def test_features_carry_block_signal(self):
        _, features, labels = make_sbm_dataset(200, 200, 0.05, 0.005, 0)
        pos = np.array([lab == "pos" for lab in labels])
        half = features.shape[1] // 2
        assert features[pos, :half].mean() > features[pos, half:].mean() + 0.2
        assert features[~pos, half:].mean() > features[~pos, :half].mean() + 0.2

    @pytest.mark.parametrize("feature_dim", [1, 7, 8])
    def test_features_bit_equal_to_a_rates_array_draw(self, feature_dim):
        # the oracle: one rate per node and feature, compared with the same uniforms
        graph, features, _ = make_sbm_dataset(13, 9, 0.3, 0.1, 4, feature_dim)
        _, binary = generate_sbm(13, 9, 0.3, 0.1, 4)
        half = feature_dim // 2
        rates = np.full((graph.num_nodes, feature_dim), 0.2)
        rates[binary == 1, :half] = 0.65
        rates[binary == 0, half:] = 0.65
        uniforms = np.random.default_rng([4, 1]).random((graph.num_nodes, feature_dim))
        expected = (uniforms < rates).astype(np.float64)
        assert features.dtype == np.float64 and features.flags.c_contiguous
        assert features.tobytes() == expected.tobytes()


class TestBuildDataset:
    def test_sbm_manifest_end_to_end(self):
        ds = build_dataset(SBM_MANIFEST, 0.0075, 0, 2)
        assert ds.num_nodes == 400
        assert ds.partition.labeled.size == 3
        assert (ds.true_label[ds.partition.labeled] == 1).all()
        assert not ds.test_mask[ds.partition.labeled].any()
        assert (~ds.test_mask).sum() == 40
        assert ds.partition.delta == 2
        covered = np.concatenate([ds.partition.labeled, ds.partition.near_unlabeled,
                                  ds.partition.far_unlabeled])
        assert np.array_equal(np.sort(covered), np.arange(400))
        assert np.allclose(ds.features.sum(axis=1)[np.abs(ds.features).sum(axis=1) > 0], 1.0)

    def test_mask_seed_changes_only_mask(self):
        a = build_dataset(SBM_MANIFEST, 0.0075, 0, 2)
        b = build_dataset(SBM_MANIFEST, 0.0075, 1, 2)
        assert np.array_equal(a.test_mask, b.test_mask)
        assert not np.array_equal(a.partition.labeled, b.partition.labeled)

    def test_unknown_positive_class_rejected(self):
        manifest = dict(SBM_MANIFEST, positive_classes=["nope"])
        with pytest.raises(InputError, match="nope"):
            build_dataset(manifest, 0.01, 0, 2)


class TestTrainTestSplit:
    def test_sizes_and_disjointness(self):
        test = make_train_test_split(100, 17, 0)
        assert test.dtype == bool and test.shape == (100,)
        assert (~test).sum() == 17

    def test_invalid_count(self):
        with pytest.raises(InputError):
            make_train_test_split(10, 0, 0)
        with pytest.raises(InputError):
            make_train_test_split(10, 10, 0)


class TestCoraCounts:
    def test_table_counts(self, cora):
        graph, features, labels = load_content_cites(cora["content"], cora["cites"])
        assert graph.num_nodes == 2708
        binary = prepare_dataset(cora).true_label
        assert np.array_equal(binary, reference_binary_labels(labels, cora["positive_classes"]))
        assert int(binary.sum()) == 1244
        assert int((binary == 0).sum()) == 1464
        ds = build_dataset(cora, 0.01, 0, 3)
        assert (~ds.test_mask).sum() == 271
        assert ds.test_mask.sum() == 2437
        assert ds.partition.labeled.size == 27
