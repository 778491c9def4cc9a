"""Reading and writing of every on-disk artifact.

This is the one module that opens intermediate and report files, so the
on-disk format is decided here and nowhere else:

- Every artifact is UTF-8 text with `\\n` line endings and a trailing newline.
- CSV: a header row, then one row per record; minimal quoting, `""` for a
  quote in a quoted field, and a field holding a carriage return is quoted
  too. `read_csv_chunks` states what reading accepts and refuses.
- JSON: one value, `indent=2`, sorted keys, non-ASCII kept as UTF-8.
- NDJSON: one object per line, sorted keys, non-ASCII kept as UTF-8.
- Columns: a headerless one-column CSV, one value per row.
- Line lists (read only): one entry per line.

Writes are atomic: each file is written to a temporary sibling and moved over
the target with `os.replace`. If the writer raises, the temporary file is
removed and any earlier file at the path is left untouched, so a reader never
sees a half-written artifact. `write_coded_csv` writes the bytes
`write_csv` would, from columns given as distinct cells and one integer code
per row. Every CSV file is read by `read_csv_chunks`, column-wise, a slice at
a time, as `Cells`: the fields' UTF-8 bytes, which callers turn into arrays
without an object per field; `read_csv` and `read_column` give the same read
as dicts and as values. Other readers stream rows lazily: the NDJSON reader
refuses a line, naming the file and the line, unless it is an object of the
expected keys that a record parser, if given, accepts, with values of their
JSON types, and repeats no key field; the JSON reader likewise refuses an
object whose keys or value types are not the expected ones, naming the key.
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
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

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
_QUOTE, _COMMA, _LF, _CR = b'",\n\r'


def _formatted(rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    """The CSV text of rows, _CHUNK_ROWS at a time. Rows are sequences, since
    a chunk may be read twice. Python's csv writer quotes a field for the
    characters of its line terminator, not for a lone carriage return, which
    a reader takes for the end of the row. So a chunk whose text holds one is
    formatted again with "\r\n" as the terminator, which quotes those fields,
    and each "\r\n" outside quotes, a row's end, is cut back to "\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        buf.seek(0)
        buf.truncate()
        writer.writerows(chunk)
        text = buf.getvalue()
        if "\r" in text:
            buf.seek(0)
            buf.truncate()
            csv.writer(buf, lineterminator="\r\n").writerows(chunk)
            parts = buf.getvalue().split('"')
            parts[::2] = [part.replace("\r\n", "\n") for part in parts[::2]]
            text = '"'.join(parts)
        yield text


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    with _replace_atomically(path, newline="") as fh:
        fh.writelines(_formatted(chain([header], rows)))


# Rows that write_coded_csv puts together with one gather.
_GATHER_ROWS = 1 << 12


def _cell_bytes(cells: Sequence[Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bytes, starts, lengths): the UTF-8 bytes of each cell as write_csv
    formats it in a row of several fields, followed by a ",".

    Each cell is formatted as the row [cell, ""], cut at its line feed outside
    quotes; alone in its row, an empty cell would be quoted."""
    data = np.frombuffer("".join(_formatted(zip(cells, repeat("")))).encode("utf-8"), np.uint8)
    ends = np.flatnonzero(data == _LF)
    ends = ends[np.searchsorted(np.flatnonzero(data == _QUOTE), ends) % 2 == 0]
    starts = np.append(0, ends + 1)[:-1]
    return data, starts, ends - starts


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
        fh.write(next(_formatted([header])).encode("utf-8"))
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
        fh.writelines(_formatted((value,) for value in values))


def read_csv(path: str | Path,
             types: Mapping[str, Callable[[str], Any]] | None = None) -> Iterator[dict[str, Any]]:
    """Yield read_csv_chunks' rows as header-keyed dicts, the fields named in
    types converted by their function; one it refuses (ValueError) names its line."""
    for lines, columns in read_csv_chunks(path):
        for line, row in zip(lines, zip(*(cells.strings() for cells in columns.values()))):
            record = dict(zip(columns, row))
            for name, convert in (types or {}).items():
                try:
                    record[name] = convert(record[name])
                except ValueError:
                    raise ValueError(f"{path} line {line}: {name} {record[name]!r} is not "
                                     f"{convert.__name__}") from None
            yield record


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
        data = [string.encode("utf-8") for string in strings]
        lengths = np.fromiter(map(len, data), np.int64, len(data))
        return cls(np.frombuffer(b"".join(data) + bytes(8), np.uint8),
                   np.cumsum(lengths) - lengths, lengths)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows) -> "Cells":
        return Cells(self.data, self.starts[rows], self.lengths[rows])

    def strings(self) -> list[str]:
        text = self.data.tobytes().decode("latin-1")  # a character a byte
        fields = [text[a:a + n] for a, n in zip(self.starts.tolist(), self.lengths.tolist())]
        return fields if text.isascii() else [f.encode("latin-1").decode() for f in fields]

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
    """Yield a CSV file's data rows column-wise, a slice at a time, as
    (lines, {header name: Cells}); row j of a slice starts on line lines[j],
    counting line feeds in quoted fields. One dialect is read, write_csv's:
    minimal quoting, a quote only opening, closing or doubled in a field, and
    also "\\r\\n" row ends; blank lines are skipped (a lone "" is an empty
    field). Refused, naming the line: a stray quote, a carriage return outside
    quotes that ends no row, bytes not UTF-8, and a row whose field count is
    not the header's."""
    return _chunks(path, None)


def _chunks(path: str | Path, names: list[str] | None) -> Iterator[tuple]:
    """read_csv_chunks, or, given names, that of a file with no header. Slices
    end at a line feed after an even count of quotes; `in` spares a slow count."""
    line, headed = 1, names is None
    with open(path, "rb") as fh:
        while data := fh.read(_CHUNK_BYTES) + fh.readline():
            while b'"' in data and data.count(b'"') % 2 and (more := fh.readline()):
                data += more + fh.read(_CHUNK_BYTES) + fh.readline()
            data += b"" if data.endswith(b"\n") else b"\n"
            names, lines, buf, starts, lengths, line = _split(path, data, line, names, headed)
            if len(lines):
                yield lines, {name: Cells(buf, starts[:, i], lengths[:, i])
                              for i, name in enumerate(names)}


def _split(path: str | Path, data: bytes, line: int, names: list[str] | None,
           headed: bool) -> tuple:
    """(names, lines, buf, starts, lengths, line) of data, whole rows from
    line `line` on: the names given or the header's, each data row's
    line, its fields' starts and lengths in buf as (rows, k) arrays, and the
    line after data. Plain data (no quote or carriage return, and the
    header's separators on every row) is split at each comma and line feed.
    Otherwise quote i opens a field or ends a "" pair if i is even, and
    closes a field or starts a pair if odd: so a comma or line feed
    separates only after an even count of quotes, and a quote is stray
    unless it opens or closes a field or is in a pair. No byte of a
    multi-byte UTF-8 character is a quote, comma or line feed. A ragged row
    is named against the header's count only if `headed`."""
    faults = []
    try:
        data.isascii() or data.decode("utf-8")  # ASCII is UTF-8, and decoding copies
    except UnicodeDecodeError as exc:
        faults = [(exc.start, f"invalid UTF-8, {exc.reason}")]
    plain = not faults and b'"' not in data and b"\r" not in data
    if names is None and plain and data[:1] != b"\n":
        head, data = data.split(b"\n", 1)  # a plain header
        names, line = head.decode().split(","), line + 1
    buf = np.frombuffer(data + bytes(8), np.uint8)
    if names is not None and plain:
        k = len(names)
        ends = np.flatnonzero((buf == _COMMA) | (buf == _LF))
        starts = np.append(0, ends + 1)[:-1]
        rows, row = ends.size // k, np.frombuffer(b"," * (k - 1) + b"\n", np.uint8)
        if (not ends.size % k and (buf[ends].reshape(rows, k) == row).all()
                and (k > 1 or (ends > starts).all())):  # else a blank line, as "" is written
            starts, lengths = starts.reshape(rows, k), (ends - starts).reshape(rows, k)
            return names, range(line, line + rows), buf, starts, lengths, line + rows

    quotes = np.flatnonzero(buf == _QUOTE)
    seps = np.flatnonzero((buf == _COMMA) | (buf == _LF) | (buf == _CR))
    # The last line feed ends the last row, even in a quoted field never closed.
    seps = seps[(np.searchsorted(quotes, seps) % 2 == 0) | (seps == len(data) - 1)]
    crs, seps = seps[buf[seps] == _CR], seps[buf[seps] != _CR]
    starts = np.append(0, seps + 1)[:-1]
    ends = seps - ((buf[seps] == _LF) & (buf[seps - 1] == _CR))  # "\r\n" ends a row too
    last = np.flatnonzero(buf[seps] == _LF)  # the last field of each row
    first = np.append(0, last + 1)[:-1]
    counts = last - first + 1
    rows = np.flatnonzero((counts > 1) | (ends[first] > starts[first]))  # not blank
    header = rows[0] if names is None and rows.size else None
    rows = rows[header is not None:]
    k = len(names or ()) if header is None else counts[header]
    opens, closes = quotes[0::2], quotes[1::2]
    pairs = buf[closes + 1] == _QUOTE
    stray = np.concatenate([opens[~np.isin(opens, starts) & (buf[opens - 1] != _QUOTE)],
                            closes[~np.isin(closes + 1, ends) & ~pairs],
                            quotes[quotes.size - quotes.size % 2:]])  # never closed
    ragged = rows[counts[rows] != k][:1]
    faults += [(at.min(), message) for at, message in (
        (stray, "stray quote"),
        (crs[buf[crs + 1] != _LF], "new-line character seen in unquoted field"),
        (seps[last[ragged]], f"{counts[ragged].sum()} fields, "
                             f"{'the header has' if headed else 'expected'} {k}")) if at.size]
    if faults:
        at, message = min(faults)  # the first in the data
        line += data.count(b"\n", 0, starts[first[np.searchsorted(seps[last], at)]])
        raise ValueError(f"{path} line {line}: {message}")

    feeds = np.flatnonzero(buf == _LF)
    lines = line + np.searchsorted(feeds, starts[first[rows]])
    drop = np.delete(quotes, 2 * np.flatnonzero(pairs) + 1)  # all but one quote of each pair
    buf = np.delete(buf, drop)
    starts, ends = starts - np.searchsorted(drop, starts), ends - np.searchsorted(drop, ends)
    lengths = ends - starts
    if header is not None:
        names = Cells(buf, starts, lengths)[first[header]:last[header] + 1].strings()
    fields = first[rows][:, None] + np.arange(k)
    return names, lines, buf, starts[fields], lengths[fields], line + feeds.size


def read_column(path: str | Path) -> Iterator[str]:
    """Yield the values written by write_column, exactly."""
    for _, columns in _chunks(path, [""]):
        yield from columns[""].strings()


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


def read_ndjson(path: str | Path, fields: Mapping[str, tuple[type, ...]], key: str | None = None,
                parse: Callable[[dict], Any] | None = None) -> Iterator:
    """Yield the object on each non-blank line, or parse(object). A line is
    refused, naming the file and the line, unless it is a JSON object whose
    keys are exactly the fields, on which parse, if given, raises no
    ValueError, and whose value for each field then has one of that field's
    types (exactly: a bool is no int); with a key field, also if an earlier
    line has its value of that field, naming both lines."""
    names, first = fields.keys(), {}
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
                value = obj if parse is None else parse(obj)
                _typed(obj, fields)
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
