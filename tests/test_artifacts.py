import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens import artifacts, demographics


def test_formats_are_utf8_with_newline_endings(tmp_path):
    artifacts.write_csv(tmp_path / "a.csv", ["id", "text"], [["1", "é, ok"], [2, 0.5]])
    artifacts.write_json(tmp_path / "a.json", {"b": "é", "a": [1]})
    artifacts.write_ndjson(tmp_path / "a.ndjson", [{"b": "é", "a": 1}, {"a": 2, "b": ""}])
    artifacts.write_column(tmp_path / "a.txt", ["x", "y"])
    assert (tmp_path / "a.csv").read_bytes() == 'id,text\n1,"é, ok"\n2,0.5\n'.encode()
    assert (tmp_path / "a.json").read_bytes() == (
        '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'.encode())
    assert (tmp_path / "a.ndjson").read_bytes() == (
        '{"a": 1, "b": "é"}\n{"a": 2, "b": ""}\n'.encode())
    assert (tmp_path / "a.txt").read_bytes() == b"x\ny\n"

    assert list(artifacts.read_csv(tmp_path / "a.csv")) == [
        {"id": "1", "text": "é, ok"}, {"id": "2", "text": "0.5"}]
    assert artifacts.read_json(tmp_path / "a.json", {"a": (list,), "b": (str,)}) == {
        "a": [1], "b": "é"}
    assert list(artifacts.read_ndjson(tmp_path / "a.ndjson", {"a": (int,), "b": (str,)})) == [
        {"a": 1, "b": "é"}, {"a": 2, "b": ""}]
    assert list(artifacts.read_column(tmp_path / "a.txt")) == ["x", "y"]
    assert list(artifacts.read_lines(tmp_path / "a.txt")) == ["x", "y"]


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "edges.csv"
    artifacts.write_csv(path, ["src", "dst"], [["a", "b"]])
    before = path.read_bytes()

    def rows():
        yield ["c", "d"]
        raise RuntimeError("upstream failure")

    with pytest.raises(RuntimeError):
        artifacts.write_csv(path, ["src", "dst"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["edges.csv"]


def read_columns(path, names):
    """The chunks of read_csv_chunks joined into whole columns of strings,
    and the line each row starts on."""
    columns, lines = {name: [] for name in names}, []
    for chunk_lines, chunk in artifacts.read_csv_chunks(path):
        assert list(chunk) == list(names)
        assert all(len(cells) == len(chunk_lines) for cells in chunk.values())
        lines.extend(chunk_lines)
        for name, cells in chunk.items():
            columns[name].extend(cells.strings())
    return columns, lines


@pytest.mark.parametrize("rows", [
    [],
    [["u1", "u2", 3], ["u1", "", 0]],
    [["a,b", 'say "hi"', 1], ["line\nbreak", "ü", 2]],
])
def test_read_csv_chunks_matches_row_reader(tmp_path, rows):
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ["src", "dst", "n"], rows)
    by_row = list(artifacts.read_csv(path))
    columns, _ = read_columns(path, ("src", "dst", "n"))
    assert columns == {name: [row[name] for row in by_row] for name in ("src", "dst", "n")}
    assert columns["n"] == [str(row[2]) for row in rows]


def test_read_csv_chunks_skips_blank_lines_and_reads_last_unterminated_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n\n3,4", encoding="utf-8")
    assert read_columns(path, "ab") == ({"a": ["1", "3"], "b": ["2", "4"]}, [2, 5])
    path.write_text("a,b\n1,2\n3,4", encoding="utf-8")
    assert read_columns(path, "ab") == ({"a": ["1", "3"], "b": ["2", "4"]}, [2, 3])


def test_read_csv_chunks_names_a_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4,5\n6,7\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"t\.csv line 3: 3 fields, the header has 2$"):
        read_columns(path, "ab")


@pytest.mark.parametrize("text, line, fields", [
    ("a,b\n1,2\n3,4,5\n", 3, 3),
    ("a,b\n1,2\n\n3\n", 4, 1),
    ('a,b\n"x\ny",2\n3,4,5\n', 4, 3),
    ('a,b\n"x\ry",2\n3,4,5\n', 3, 3),
])
def test_read_csv_names_a_ragged_row(tmp_path, text, line, fields):
    # Blank lines are skipped but counted, and a quoted field may span lines.
    # Lines end at "\n" only: read with universal newlines, the quoted
    # carriage return moved the last row to line 4.
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"t\.csv line {line}: {fields} fields, the header "
                                         rf"has 2$"):
        list(artifacts.read_csv(path))


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('\na,b\n1,2\n\n"x\ny",4', encoding="utf-8")
    assert list(artifacts.read_csv(path)) == [{"a": "1", "b": "2"}, {"a": "x\ny", "b": "4"}]


def _plain_csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def test_lone_carriage_return_is_quoted_in_its_chunk_only(tmp_path, monkeypatch):
    # Chunks of three rows: the header and rows 0-1, rows 2-4, rows 5-7.
    monkeypatch.setattr(artifacts, "_CHUNK_ROWS", 3)
    rows = [[f"u{i}", i] for i in range(8)]
    rows[3] = ["a\rb", 'x\r\n"y"']
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ["id", "n"], rows)
    plain = _plain_csv([["id", "n"]] + rows).decode()
    assert path.read_bytes() == plain.replace("a\rb,", '"a\rb",').encode()
    assert list(artifacts.read_csv(path)) == [{"id": a, "n": str(b)} for a, b in rows]
    assert read_columns(path, ("id", "n"))[0]["id"] == [a for a, _ in rows]

    artifacts.write_column(tmp_path / "c.txt", ["\r", "", "a\r", "b"])
    assert (tmp_path / "c.txt").read_bytes() == b'"\r"\n""\n"a\r"\nb\n'
    assert list(artifacts.read_column(tmp_path / "c.txt")) == ["\r", "", "a\r", "b"]


fields = st.text(alphabet=st.sampled_from(list("a ,\"\n\r'")), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(fields, min_size=2, max_size=2), max_size=7),
       st.integers(min_value=1, max_value=4))
def test_csv_round_trips_and_keeps_bytes_without_carriage_returns(tmp_path_factory, rows,
                                                                  chunk_rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "_CHUNK_ROWS", chunk_rows)
        artifacts.write_csv(path, ["a", "b"], rows)
    assert [[row["a"], row["b"]] for row in artifacts.read_csv(path)] == rows
    assert read_columns(path, "ab")[0] == {"a": [r[0] for r in rows],
                                           "b": [r[1] for r in rows]}
    if not any("\r" in field for row in rows for field in row):
        assert path.read_bytes() == _plain_csv([["a", "b"]] + rows)


def test_unquoted_carriage_return_refused_naming_its_line(tmp_path):
    # Read with universal newlines, line 3 "b,x\rc,d" came back as two rows
    # of the 2-field file without an error.
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2\nb,x\rc,d\n")
    for read in (artifacts.read_csv, artifacts.read_csv_chunks):
        with pytest.raises(ValueError, match=r"t\.csv line 3: new-line character seen in "
                                             r"unquoted field"):
            list(read(path))


def test_cell_index_finds_fields_by_their_bytes():
    # The long strings share their first 8 bytes, and "語" is 3 bytes. "\x00"
    # and "a\x00" share their zero-padded keys with "" and "a", so they are
    # not found, and neither are strings that are not in the index.
    strings = ["", "a", "b", "é", "1234567890123456789", "1234567890123456788",
               "語" * 4, "語" * 3, "\x00", "a\x00"]
    index = artifacts.CellIndex(strings)
    fields = strings[::-1] + ["a\x00\x00", "123456789012345678", "x"]
    cells = artifacts.Cells.of(fields)
    assert index.find(cells).tolist() == [-1, -1, 7, 6, 5, 4, 3, 2, 1, 0, -1, -1, -1]
    assert cells.strings() == fields
    assert artifacts.CellIndex([]).find(cells).tolist() == [-1] * len(fields)


def test_cell_index_compares_long_fields_whose_keys_collide(monkeypatch):
    # Mixed with 0, a long field's key is its last word alone.
    monkeypatch.setattr(artifacts, "_MIX", np.uint64(0))
    a, b = "aaaaaaaa12345678", "bbbbbbbb12345678"
    keys = artifacts.Cells.of([a, b]).keys()
    assert keys[0] == keys[1]
    assert artifacts.CellIndex([a]).find(artifacts.Cells.of([b, a])).tolist() == [-1, 0]


@pytest.mark.parametrize("strings, values", [
    (["0", "7", "12", "999999999999999999"], [0, 7, 12, 999999999999999999]),
    ([], []),
    (["1", ""], None),
    (["1", "1.5"], None),
    (["1", " 1"], None),
    (["1", "١"], None),  # an Arabic-Indic digit
    (["1", "9999999999999999999"], None),
])
def test_cells_read_as_integers_only_when_plain_digits(strings, values):
    got = artifacts.Cells.of(strings).integers()
    assert (got if got is None else got.tolist()) == values


plain_fields = st.text(alphabet=st.sampled_from(list("ab é")), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([plain_fields, fields]).flatmap(
           lambda cells: st.integers(1, 4).flatmap(
               lambda k: st.lists(st.lists(cells, min_size=k, max_size=k),
                                  min_size=1, max_size=8))),
       st.data())
def test_read_csv_chunks_round_trips_and_names_a_ragged_row(tmp_path_factory, rows, data):
    # One row gains or loses a field, or one gains and another loses one, so
    # that the file as a whole still holds a multiple of the header's fields.
    # Plain fields keep every slice on the plain path unless a row is ragged;
    # the others send each slice that holds a quote or a carriage return
    # through the quote-parity split. Slices of 16 bytes put a ragged row in
    # any slice, and chunks of 2 rows split the writing.
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    names = [f"c{i}" for i in range(len(rows[0]))]
    starts = [2 + sum(1 + sum(f.count("\n") for f in row) for row in rows[:j])
              for j in range(len(rows))]
    pair = len(names) > 1 and len(rows) > 1 and data.draw(st.booleans())
    changed = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1 + pair,
                                 max_size=1 + pair, unique=True))
    longer = len(names) == 1 or data.draw(st.booleans())
    edited = list(rows)
    for j, grows in zip(changed, (longer, not longer)):
        edited[j] = rows[j] + ["x"] if grows else rows[j][:-1]
    first = min(changed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "_CHUNK_BYTES", 16)
        patch.setattr(artifacts, "_CHUNK_ROWS", 2)
        artifacts.write_csv(path, names, rows)
        assert read_columns(path, names) == (
            {name: [row[i] for row in rows] for i, name in enumerate(names)}, starts)
        artifacts.write_csv(path, names, edited)
        with pytest.raises(ValueError, match=rf"t\.csv line {starts[first]}: "
                                             rf"{len(edited[first])} fields, "
                                             rf"the header has {len(names)}$"):
            read_columns(path, names)


def csv_module_rows(path):
    """The oracle: the non-blank rows Python's csv module reads from the file."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


oracle_fields = st.text(alphabet=st.sampled_from(list(',"\n\r\x00é語a')), max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
           st.lists(oracle_fields, min_size=k, max_size=k, unique=True),
           st.lists(st.lists(oracle_fields, min_size=k, max_size=k), max_size=8))),
       st.sampled_from([16, 17]))
def test_reads_equal_the_csv_module(tmp_path_factory, table, chunk_bytes):
    # Reads of 16 or 17 bytes end anywhere, in a quoted field too, and a
    # quoted field longer than a read spans reads. The "\r\n" copy ends its
    # rows at a carriage return and a line feed that a read may split. A row
    # starts on the line after the line feeds before it, those inside quoted
    # fields included.
    header, rows = table
    tmp = tmp_path_factory.mktemp("csv")
    artifacts.write_csv(tmp / "lf.csv", header, rows)
    with open(tmp / "crlf.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([header] + rows)
    artifacts.write_column(tmp / "column.txt", [row[0] for row in [header] + rows])
    lines = [2 + sum(field.count("\n") for row in [header] + rows[:j] for field in row) + j
             for j in range(len(rows))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "_CHUNK_BYTES", chunk_bytes)
        for path in (tmp / "lf.csv", tmp / "crlf.csv"):
            names, *body = csv_module_rows(path)
            assert [names] + body == [header] + rows
            assert list(artifacts.read_csv(path)) == [dict(zip(names, row)) for row in body]
            assert read_columns(path, names) == (
                {name: [row[i] for row in body] for i, name in enumerate(names)}, lines)
        assert list(artifacts.read_column(tmp / "column.txt")) == [
            row[0] for row in csv_module_rows(tmp / "column.txt")]


def test_crlf_split_across_a_slice_boundary_and_a_long_quoted_field(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts, "_CHUNK_BYTES", 16)
    path = tmp_path / "t.csv"
    long = 'a "quoted", field\r\nlonger than a slice'
    path.write_bytes(b'a,b\r\n1234567,89\r\n3,"' + long.replace('"', '""').encode()
                     + b'"\r\n4,5\r\n')
    assert path.read_bytes()[15:17] == b"\r\n"
    assert read_columns(path, "ab") == ({"a": ["1234567", "3", "4"], "b": ["89", long, "5"]},
                                        [2, 3, 5])


def test_quoted_header_blank_lines_and_a_lone_empty_field(tmp_path):
    # Blank lines before the header are skipped; a lone "" is an empty field.
    path = tmp_path / "t.csv"
    path.write_bytes(b'\n\r\n"a""1,\n"\n""\n\nx\n')
    assert read_columns(path, ['a"1,\n']) == ({'a"1,\n': ["", "x"]}, [5, 7])
    path.write_bytes(b'"a","b c"\n"1",2\n')
    assert list(artifacts.read_csv(path)) == [{"a": "1", "b c": "2"}]


# The written file: row 2 holds a field of two lines, so row 3 starts on line
# 4 and row 4 on line 5.
WRITTEN = ['1,"x\ny"\n', '2,"say ""hi"""\n', "3,z\n"]


@pytest.mark.parametrize("row, edited, line, message", [
    (2, b'3,a"z\n', 5, "stray quote"),
    (0, b'1,"x\ny"q\n', 2, "stray quote"),
    (1, b'2,"say ""hi""" \n', 4, "stray quote"),
    (2, b'3,"z\n', 5, "stray quote"),  # never closed
    (2, b"3,z\rw\n", 5, "new-line character seen in unquoted field"),
    (1, b'2,"say ""hi""",w\n', 4, "3 fields, the header has 2"),
    (1, b'2,"say ""h\xffi"""\n', 4, "invalid UTF-8, invalid start byte"),
    (0, b'1,"x\n\xe8y"\n', 2, "invalid UTF-8, invalid continuation byte"),
])
@pytest.mark.parametrize("chunk_bytes", [16, 1 << 18])
def test_read_refuses_what_the_writer_never_writes_naming_its_line(
        tmp_path, monkeypatch, row, edited, line, message, chunk_bytes):
    monkeypatch.setattr(artifacts, "_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ["a", "b"], [["1", "x\ny"], ["2", 'say "hi"'], ["3", "z"]])
    rows = ["a,b\n"] + WRITTEN
    assert path.read_bytes() == "".join(rows).encode()
    rows[1 + row] = edited
    path.write_bytes(b"".join(r if isinstance(r, bytes) else r.encode() for r in rows))
    for read in (artifacts.read_csv, artifacts.read_csv_chunks):
        with pytest.raises(ValueError, match=rf"t\.csv line {line}: {message}$"):
            list(read(path))


@pytest.mark.parametrize("chunk_bytes", [4, 1 << 18])
def test_read_column_names_a_ragged_row_against_one_field(tmp_path, monkeypatch,
                                                           chunk_bytes):
    # A column file has no header, so the count is not the header's.
    monkeypatch.setattr(artifacts, "_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "c.txt"
    path.write_bytes(b'a\n"x\ny"\nb,c\nd\n')
    with pytest.raises(ValueError, match=r"c\.txt line 4: 2 fields, expected 1$"):
        list(artifacts.read_column(path))


def test_the_first_fault_is_named_whatever_the_slice_size(tmp_path, monkeypatch):
    # A ragged row, then bytes that are not UTF-8: one slice holds both, or
    # each is in its own.
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2,3\n\xff,4\n")
    for chunk_bytes in (4, 1 << 18):
        monkeypatch.setattr(artifacts, "_CHUNK_BYTES", chunk_bytes)
        with pytest.raises(ValueError, match=r"t\.csv line 2: 3 fields, the header has 2$"):
            list(artifacts.read_csv_chunks(path))


def test_crlf_copies_of_the_bundled_data_load_the_same(tmp_path):
    for name, load in (("gazetteer.csv", demographics.load_gazetteer),
                       ("name_lists.csv", demographics.load_name_lists)):
        bundled = demographics.default_data_path(name)
        copy = tmp_path / name
        copy.write_bytes(bundled.read_bytes().replace(b"\n", b"\r\n"))
        assert copy.read_bytes().count(b"\r\n") > 10
        assert load(copy) == load(bundled)
