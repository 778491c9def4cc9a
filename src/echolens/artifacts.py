"""Reading and writing of every on-disk artifact.

This is the one module that opens intermediate and report files, so the
on-disk format is decided here and nowhere else:

- Every artifact is UTF-8 text with `\\n` line endings and a trailing newline.
- CSV: a header row, then one row per record; minimal quoting, and a field
  holding a carriage return is quoted too.
- JSON: one value, `indent=2`, sorted keys, non-ASCII kept as UTF-8.
- NDJSON: one object per line, sorted keys, non-ASCII kept as UTF-8.
- Columns: a headerless one-column CSV, one value per row.
- Line lists (read only): one entry per line.

Writes are atomic: each file is written to a temporary sibling and moved over
the target with `os.replace`. If the writer raises, the temporary file is
removed and any earlier file at the path is left untouched, so a reader never
sees a half-written artifact. `write_coded_csv` writes the bytes
`write_csv` would, from columns given as distinct cells and one integer code
per row. Readers of row formats stream rows lazily; `read_csv_chunks` streams
a CSV file column-wise, a slice at a time, as `Cells`: the fields' UTF-8
bytes, which callers turn into arrays without an object per field. Both CSV
readers refuse a row whose field count is not the header's, `read_csv` a
field its converter refuses, and the NDJSON reader a line that is not an
object of the expected fields and types, or that repeats a key field, naming
the file and the line; the JSON reader likewise refuses an object whose keys
or value types are not the expected ones, naming the file and the key.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import contextmanager
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Cells",
    "CellIndex",
    "write_csv",
    "write_coded_csv",
    "write_json",
    "write_ndjson",
    "write_column",
    "read_csv",
    "read_csv_chunks",
    "read_json",
    "read_ndjson",
    "read_column",
    "read_lines",
    "sha256",
]


@contextmanager
def _replace_atomically(path: str | Path, newline: str = "", binary: bool = False):
    """Yield a file, UTF-8 text with this newline translation or binary, that
    replaces path once the block ends."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline=newline)) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CHUNK_ROWS = 1024


def _formatted(rows: Iterable[Sequence[Any]]) -> Iterator[tuple[str, list[int]]]:
    """The CSV text of rows, _CHUNK_ROWS at a time, with each row's length in
    characters. Rows are sequences, since a chunk may be read twice.

    Python's csv writer quotes a field for the characters of its line
    terminator, not for a lone carriage return, which every reader then takes
    for the end of the row. The writer never emits a carriage return itself,
    so a chunk whose text holds one is formatted again row by row with
    "\r\n" as the terminator, which quotes those fields, and each row's
    "\r\n" is cut back to "\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        buf.seek(0)
        buf.truncate()
        lengths = list(map(writer.writerow, chunk))
        text = buf.getvalue()
        if "\r" in text:
            quoting = csv.writer(buf, lineterminator="\r\n")
            lines = []
            for row in chunk:
                buf.seek(0)
                buf.truncate()
                quoting.writerow(row)
                lines.append(buf.getvalue()[:-2] + "\n")
            text, lengths = "".join(lines), list(map(len, lines))
        yield text, lengths


def _write_rows(fh, rows: Iterable[Sequence[Any]]) -> None:
    for text, _ in _formatted(rows):
        fh.write(text)


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    with _replace_atomically(path, newline="") as fh:
        _write_rows(fh, chain([header], rows))


# Rows that write_coded_csv puts together with one gather.
_GATHER_ROWS = 1 << 12


def _cell_bytes(cells: Sequence[Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bytes, starts, lengths): the UTF-8 bytes of each cell as write_csv
    formats it in a row of several fields, followed by a ",".

    Each cell is formatted as the row [cell, ""], and the line feed is cut;
    alone in its row, an empty cell would be quoted."""
    texts, lengths = [], []
    for text, n in _formatted(zip(cells, repeat(""))):
        texts.append(text)
        lengths += n
    text = "".join(texts)
    data = text.encode("utf-8")
    lengths = np.array(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = _byte_offsets(text, data, ends - lengths)
    return np.frombuffer(data, np.uint8), starts, _byte_offsets(text, data, ends - 1) - starts


def _byte_offsets(text: str, data: bytes, offsets: np.ndarray) -> np.ndarray:
    """The offsets in data, the UTF-8 encoding of text, of text's character
    offsets."""
    if len(data) == len(text):  # ASCII
        return offsets
    chars = np.flatnonzero((np.frombuffer(data, np.uint8) & 0xC0) != 0x80)
    return np.append(chars, len(data))[offsets]


def write_coded_csv(path: str | Path, header: Sequence[str],
                    columns: Sequence[tuple[Sequence[Any], np.ndarray]]) -> None:
    """Write the bytes write_csv writes for rows given column-wise: each of
    two or more columns is (cells, codes), its distinct cells and an integer
    array of one code per row, so that row i holds cells[codes[i]].

    Each cell is formatted once by write_csv's rules, once in all for a cells
    sequence given for several columns, and kept as bytes followed by a ",".
    The rows are then put together _GATHER_ROWS at a time by one numpy
    gather from those bytes, with no object per row, and the "," that ends
    each row becomes its line feed."""
    if len(columns) < 2 or len({len(codes) for _, codes in columns}) > 1:
        raise ValueError("write_coded_csv needs two or more columns of one code per row")
    rows = len(columns[0][1])
    tables, where, placed, size = [], [], {}, 0
    for cells, codes in columns:
        if id(cells) not in placed:
            table, starts, lengths = _cell_bytes(cells)
            placed[id(cells)] = starts + size, lengths
            tables.append(table)
            size += table.size
        where.append((*placed[id(cells)], codes))
    data = np.concatenate(tables)
    with _replace_atomically(path, binary=True) as fh:
        fh.write(next(_formatted([header]))[0].encode("utf-8"))
        for a in range(0, rows, _GATHER_ROWS):
            span = slice(a, a + _GATHER_ROWS)
            starts = np.column_stack([s[codes[span]] for s, _, codes in where]).ravel()
            lengths = np.column_stack([n[codes[span]] for _, n, codes in where]).ravel()
            ends = np.cumsum(lengths)
            # Output byte k of a cell is data byte k + its start - its output start.
            index = np.repeat(starts - ends + lengths, lengths)
            index += np.arange(index.size)
            chunk = data[index]
            chunk[ends[len(columns) - 1::len(columns)] - 1] = ord("\n")
            fh.write(chunk)


def write_json(path: str | Path, value: Any) -> None:
    with _replace_atomically(path, newline="\n") as fh:
        json.dump(value, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def write_ndjson(path: str | Path, objects: Iterable[Any]) -> None:
    with _replace_atomically(path, newline="\n") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def write_column(path: str | Path, values: Iterable[str]) -> None:
    with _replace_atomically(path, newline="") as fh:
        _write_rows(fh, ((value,) for value in values))


def read_csv(path: str | Path,
             types: Mapping[str, Callable[[str], Any]] | None = None) -> Iterator[dict[str, Any]]:
    """Yield each data row as a header-keyed dict, the fields named in types
    converted by their function. Blank lines are skipped; a row whose field
    count is not the header's, or a field its function refuses with a
    ValueError, is refused, naming its line."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for names, line, row in _csv_rows(path, fh, None, 1):
            record = dict(zip(names, row))
            for name, convert in (types or {}).items():
                try:
                    record[name] = convert(record[name])
                except ValueError:
                    raise ValueError(f"{path} line {line}: {name} {record[name]!r} is not "
                                     f"{convert.__name__}") from None
            yield record


def _csv_rows(path: str | Path, fh, names: list[str] | None,
              line: int) -> Iterator[tuple[list[str], int, list[str]]]:
    """Yield (header names, start line, fields) for each non-blank data row of
    the text file fh, read from its position, the start of `line`; the first
    row is the header if names is None. fh splits lines at "\n" only, as
    they are written, so a carriage return in a quoted field starts no line.
    A ragged row, or an unquoted carriage return, raises, naming its line."""
    reader = csv.reader(fh)
    start = line
    try:
        for row in reader:
            if row and names is None:
                names = row
            elif row:
                if len(row) != len(names):
                    raise ValueError(f"{path} line {start}: {len(row)} fields, the header "
                                     f"has {len(names)}")
                yield names, start, row
            start = line + reader.line_num
    except csv.Error as exc:
        raise ValueError(f"{path} line {start}: {exc}") from None


# Big-endian masks that keep the first r bytes of 8, for r = 0 to 8.
_HEADS = np.array([(1 << 64) - (1 << (64 - 8 * r)) for r in range(9)], dtype=np.uint64)
# Odd, so that mixing a word into a key loses none of its bits.
_MIX = np.uint64(0x9E3779B97F4A7C15)


class Cells:
    """A column of CSV fields held as UTF-8 bytes, with no object per field:
    field j is data[starts[j]:starts[j] + lengths[j]] of the uint8 array data,
    which holds at least 8 bytes past the end of every field."""

    __slots__ = ("data", "starts", "lengths")

    def __init__(self, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        self.data, self.starts, self.lengths = data, starts, lengths

    @classmethod
    def of(cls, strings: Sequence[str]) -> "Cells":
        text = "".join(strings)
        data = text.encode("utf-8")
        ends = np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)))
        bounds = _byte_offsets(text, data, np.append(0, ends))
        return cls(np.frombuffer(data + bytes(8), np.uint8), bounds[:-1], np.diff(bounds))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows) -> "Cells":
        return Cells(self.data, self.starts[rows], self.lengths[rows])

    def strings(self) -> list[str]:
        view = memoryview(self.data)
        return [str(view[start:start + n], "utf-8")
                for start, n in zip(self.starts.tolist(), self.lengths.tolist())]

    def words(self, j: int) -> np.ndarray:
        """Bytes 8j to 8j + 7 of each field as a big-endian uint64, zero past
        the field's end."""
        data = self.data
        window = np.ndarray((data.size - 7,), ">u8", data, strides=(1,))
        at = np.minimum(self.starts + 8 * j, data.size - 8)
        return window[at] & _HEADS[np.clip(self.lengths - 8 * j, 0, 8)]

    def keys(self) -> np.ndarray:
        """A uint64 key per field, equal for equal fields. A field of up to 8
        bytes keys as its bytes, zero-padded, so such keys sort as the fields
        do; a longer field's later words are mixed into its key."""
        keys = self.words(0)
        rows, j = np.flatnonzero(self.lengths > 8), 1
        while rows.size:
            keys[rows] = keys[rows] * _MIX + self[rows].words(j)
            j += 1
            rows = rows[self.lengths[rows] > 8 * j]
        return keys

    def integers(self) -> np.ndarray | None:
        """The fields as int64 if each is 1 to 18 ASCII digits (18 always fit
        an int64), else None."""
        lengths = self.lengths
        values = np.zeros(len(self), np.int64)
        if lengths.size and (lengths.min() < 1 or lengths.max() > 18):
            return None
        rows, j = np.arange(len(self)), 0
        while rows.size:
            digits = self.data[self.starts[rows] + j] - 48  # wraps below "0"
            if (digits > 9).any():
                return None
            values[rows] = values[rows] * 10 + digits
            j += 1
            rows = rows[lengths[rows] > j]
        return values


class CellIndex:
    """Finds fields, by their bytes, among a sequence of distinct strings.
    Only the first string with a given key is found, so a field that is a
    later one ("a\x00" after "a": keys are zero-padded) reads as not found."""

    def __init__(self, strings: Sequence[str]):
        self.cells = Cells.of(strings)
        self.keys, self.order = np.unique(self.cells.keys(), return_index=True)

    def find(self, cells: Cells) -> np.ndarray:
        """The position among the strings of each field, or -1 where it is
        not found."""
        if not self.keys.size:
            return np.full(len(cells), -1, np.int64)
        keys = cells.keys()
        order = np.argsort(keys)  # a search in key order runs about twice as fast
        at = np.empty_like(order)
        at[order] = np.minimum(np.searchsorted(self.keys, keys[order]), self.keys.size - 1)
        found = self.order[at]
        equal = (self.keys[at] == keys) & _equal_keyed(cells, self.cells[found])
        return np.where(equal, found, -1)


def _equal_keyed(a: Cells, b: Cells) -> np.ndarray:
    """Whether field j of a is field j of b, for fields with equal keys. A
    key holds every byte of a field of up to 8; longer ones are compared."""
    equal = a.lengths == b.lengths
    rows, j = np.flatnonzero(equal & (a.lengths > 8)), 0
    while rows.size:
        same = a[rows].words(j) == b[rows].words(j)
        equal[rows[~same]] = False
        j += 1
        rows = rows[same & (a.lengths[rows] > 8 * j)]
    return equal


_CHUNK_BYTES = 1 << 18


def read_csv_chunks(path: str | Path) -> Iterator[tuple[Sequence[int], dict[str, Cells]]]:
    """Yield a CSV file's data rows column-wise, a slice of the file at a
    time, as (lines, {header name: Cells}); row j of a slice starts on line
    lines[j]. Blank lines are skipped.

    Builds no object per row or field. Each slice of _CHUNK_BYTES, read on to
    the end of its line, is split at its separators by numpy while it is
    plain: no quote or carriage return, and its separators the header's row
    pattern repeated, k - 1 commas and a line feed for k columns. With two or
    more columns that rules out a blank line too; with one, a blank line is
    an empty field, and write_csv quotes a lone empty field. The separators
    are found on the bytes, since in UTF-8 no byte of a multi-byte character
    is a comma or a line feed. From the first slice that is not plain, the
    rest of the file goes through the csv module, _CHUNK_ROWS rows at a
    time, since a quoted field may span lines; there a row whose field count
    is not the header's is refused, naming its line.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
        names, line = None, 1
        if header.strip("\n") and not any(c in header for c in '"\r'):
            names, line = header.rstrip("\n").split(","), 2
            k = len(names)
            row = np.frombuffer(b"," * (k - 1) + b"\n", np.uint8)  # the separators of one row
            while data := fh.read(_CHUNK_BYTES) + fh.readline():
                end = b"" if data.endswith(b"\n") else b"\n"  # of an unterminated last line
                buf = np.frombuffer(data + end + bytes(8), np.uint8)
                ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
                starts = np.empty_like(ends)
                starts[0], starts[1:] = 0, ends[:-1] + 1
                lengths = ends - starts
                rows = ends.size // k
                if (b'"' in data or b"\r" in data or ends.size % k
                        or not (buf[ends].reshape(rows, k) == row).all()
                        or k == 1 and not lengths.all()):
                    fh.seek(fh.tell() - len(data))
                    break
                if not data.isascii():
                    data.decode("utf-8")  # refuses what is not UTF-8, as the csv module would
                yield range(line, line + rows), {
                    name: Cells(buf, starts[i::k], lengths[i::k]) for i, name in enumerate(names)}
                line += rows
        else:
            fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="\n") as text:
            rows = _csv_rows(path, text, names, line)
            while chunk := list(islice(rows, _CHUNK_ROWS)):
                headers, lines, fields = zip(*chunk)
                yield lines, {name: Cells.of(cells)
                              for name, cells in zip(headers[0], zip(*fields))}


def read_column(path: str | Path) -> Iterator[str]:
    """Yield the values written by write_column, exactly; blank lines are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        yield from (row[0] for row in csv.reader(fh) if row)


def read_json(path: str | Path, fields: Mapping[str, tuple[type, ...]]) -> dict:
    """The JSON object in the file. It is refused, naming the file and the
    key, unless its keys are exactly the fields and its value for each field
    has one of that field's types (exactly: a bool is no int)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    if missing := sorted(fields.keys() - obj.keys()):
        raise ValueError(f"{path}: key {missing[0]} is missing")
    if extra := sorted(obj.keys() - fields.keys()):
        raise ValueError(f"{path}: key {extra[0]} is not expected")
    try:
        return _typed(obj, fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_ndjson(path: str | Path, fields: Collection[str], key: str | None = None,
                parse: Callable[[dict], Any] | None = None) -> Iterator:
    """Yield the object on each non-blank line, or parse(object). A line is
    refused, naming the file and the line, unless it is a JSON object whose
    keys are exactly the fields and whose values pass: each has one of its
    field's types (exactly: a bool is no int), or, given parse, parse raises
    no ValueError on the object, as it checks every value itself; with a key
    field, also if an earlier line has its value of that field, naming both
    lines."""
    names, first = set(fields), {}
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.rstrip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {n} column {exc.colno}: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {n}: not a JSON object")
            if obj.keys() != names:
                raise ValueError(f"{path} line {n}: keys {sorted(obj)}, "
                                 f"expected {sorted(names)}")
            try:
                value = _typed(obj, fields) if parse is None else parse(obj)
            except ValueError as exc:
                raise ValueError(f"{path} line {n}: {exc}") from None
            if key is not None and first.setdefault(obj[key], n) != n:
                raise ValueError(f"{path} line {n}: {key} {json.dumps(obj[key])} repeats "
                                 f"line {first[obj[key]]}")
            yield value


def _typed(obj: dict, fields: Mapping[str, tuple[type, ...]]) -> dict:
    """obj, if its value for each field has one of that field's types."""
    for name, types in fields.items():
        if type(obj[name]) not in types:
            raise ValueError(f"{name} {json.dumps(obj[name])} is not "
                             f"{' or '.join(t.__name__ for t in types)}")
    return obj


def read_lines(path: str | Path) -> Iterator[str]:
    """Yield each non-blank line with surrounding whitespace stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line


def sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
