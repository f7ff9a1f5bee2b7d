import json

import pytest

from segenc import records


class Bad(ValueError):
    pass


def pair(a, b):
    return int(a), float(b)


class TestReadRows:
    def test_free_form_lines(self, tmp_path):
        path = tmp_path / "pu.txt"
        path.write_text("# frame count\n\n0 1.5\n 1,2.5 \n  \n# 2 3\n2\t3.5\n")
        rows = list(records.read_rows(path, Bad, "a pair", 2, pair))
        assert rows == [(0, 1.5), (1, 2.5), (2, 3.5)]

    def test_marked_table(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#mark v1\na\tb\n0\t1.5\n\n1\t2.5\n")
        rows = list(records.read_rows(path, Bad, "a pair", 2, pair, marker=("#mark", "a table")))
        assert rows == [(0, 1.5), (1, 2.5)]

    @pytest.mark.parametrize("text, message", [
        ("other\n", "is not a table"),
        ("", "is not a table"),
        ("#mark\nhead\n0\t1\t2\n", ":3: 3 cells, a pair has 2"),
        ("#mark\nhead\n0\t1\n# 1\t2\n", ":4: invalid literal"),
        ("#mark\nhead\n0\tnan\n0\tx\n", ":4: could not convert"),
    ], ids=["marker", "empty", "cells", "comment-in-table", "convert"])
    def test_table_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        with pytest.raises(Bad, match=message) as info:
            list(records.read_rows(path, Bad, "a pair", 2, pair, marker=("#mark", "a table")))
        assert str(path) in str(info.value)

    def test_free_form_error_names_the_line(self, tmp_path):
        path = tmp_path / "pu.txt"
        path.write_text("# head\n0 1\n1 2 3\n")
        with pytest.raises(Bad, match=f"{path}:3: 3 cells, a pair has 2"):
            list(records.read_rows(path, Bad, "a pair", 2, pair))


class TestWriteTable:
    def test_replaces_the_file_with_a_table_read_rows_reads(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("old\n")
        records.write_table(path, "#mark v1", ("a", "b"), [("0", "1.5"), ["1", "2.5"]])
        assert path.read_text() == "#mark v1\na\tb\n0\t1.5\n1\t2.5\n"
        rows = list(records.read_rows(path, Bad, "a pair", 2, pair, marker=("#mark", "a table")))
        assert rows == [(0, 1.5), (1, 2.5)]
        assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]  # no temporary file left


class TestReplaceText:
    def test_writes_exactly_the_text_over_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("a longer old file\n")
        records.replace_text(path, '{"label": "zoom \u2192 tracking"}')
        assert path.read_bytes() == '{"label": "zoom \u2192 tracking"}'.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no temporary file left


class TestReadText:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_raises_the_callers_error(self, tmp_path, kind):
        path = tmp_path / "f"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe")
        with pytest.raises(Bad, match=f"cannot read {path}"):
            records.read_text(path, Bad)

    def test_json(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"a": [1, 2]}))
        assert records.load_json(path, Bad) == {"a": [1, 2]}
        path.write_text("{")
        with pytest.raises(Bad, match=f"{path} is not JSON"):
            records.load_json(path, Bad)


class TestCells:
    def test_finite(self):
        assert records.finite("2.5") == 2.5
        for cell in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="not a finite number"):
                records.finite(cell)

    def test_optional(self):
        assert records.optional(float, "-") is None
        assert records.optional(float, "1") == 1.0
