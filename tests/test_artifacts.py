import pytest

from echolens import artifacts


def test_formats_are_utf8_with_newline_endings(tmp_path):
    artifacts.write_csv(tmp_path / "a.csv", ["id", "text"], [["1", "é, ok"], [2, 0.5]])
    artifacts.write_json(tmp_path / "a.json", {"b": "é", "a": [1]})
    artifacts.write_ndjson(tmp_path / "a.ndjson", [{"b": "é", "a": 1}, {}])
    artifacts.write_column(tmp_path / "a.txt", ["x", "y"])
    assert (tmp_path / "a.csv").read_bytes() == 'id,text\n1,"é, ok"\n2,0.5\n'.encode()
    assert (tmp_path / "a.json").read_bytes() == (
        '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'.encode())
    assert (tmp_path / "a.ndjson").read_bytes() == '{"a": 1, "b": "é"}\n{}\n'.encode()
    assert (tmp_path / "a.txt").read_bytes() == b"x\ny\n"

    assert list(artifacts.read_csv(tmp_path / "a.csv")) == [
        {"id": "1", "text": "é, ok"}, {"id": "2", "text": "0.5"}]
    assert artifacts.read_json(tmp_path / "a.json") == {"a": [1], "b": "é"}
    assert list(artifacts.read_ndjson(tmp_path / "a.ndjson")) == [{"a": 1, "b": "é"}, {}]
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


@pytest.mark.parametrize("rows", [
    [],
    [["u1", "u2", 3], ["u1", "", 0]],
    [["a,b", 'say "hi"', 1], ["line\nbreak", "ü", 2]],
])
def test_read_csv_columns_matches_row_reader(tmp_path, rows):
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ["src", "dst", "n"], rows)
    by_row = list(artifacts.read_csv(path))
    columns = artifacts.read_csv_columns(path)
    assert columns == {name: [row[name] for row in by_row] for name in ("src", "dst", "n")}
    assert columns["n"] == [str(row[2]) for row in rows]


def test_read_csv_columns_skips_blank_lines_and_reads_last_unterminated_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n\n3,4", encoding="utf-8")
    assert artifacts.read_csv_columns(path) == {"a": ["1", "3"], "b": ["2", "4"]}
