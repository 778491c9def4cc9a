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
sees a half-written artifact. Readers of row formats stream rows lazily;
`read_csv_chunks` streams a CSV file column-wise, a slice at a time, for
callers that turn the columns into arrays. Both CSV readers refuse a row
whose field count is not the header's, and the NDJSON reader a line that is
not an object of the expected fields and types, naming the file and the line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "write_csv",
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
def _replace_atomically(path: str | Path, newline: str):
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CHUNK_ROWS = 1024


def _write_rows(fh, rows: Iterable[Sequence[Any]]) -> None:
    """Write CSV rows, formatted a chunk at a time.

    Python's csv writer quotes a field for the characters of its line
    terminator, not for a lone carriage return, which every reader then takes
    for the end of the row. The writer never emits a carriage return itself,
    so a chunk whose text holds one is formatted again row by row with
    "\r\n" as the terminator, which quotes those fields, and each row's
    "\r\n" is cut back to "\n". Rows are sequences, since a chunk may be
    read twice."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        buf.seek(0)
        buf.truncate()
        writer.writerows(chunk)
        text = buf.getvalue()
        if "\r" in text:
            quoting = csv.writer(buf, lineterminator="\r\n")
            lines = []
            for row in chunk:
                buf.seek(0)
                buf.truncate()
                quoting.writerow(row)
                lines.append(buf.getvalue()[:-2] + "\n")
            text = "".join(lines)
        fh.write(text)


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    with _replace_atomically(path, newline="") as fh:
        _write_rows(fh, chain([header], rows))


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


def read_csv(path: str | Path) -> Iterator[dict[str, str]]:
    """Yield each data row as a header-keyed dict. Blank lines are skipped; a
    row whose field count is not the header's is refused, naming its line."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        yield from (dict(zip(names, row)) for names, _, row in _csv_rows(path, fh, None, 1))


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


_CHUNK_BYTES = 1 << 18

# translate() deletes these, keeping only the separators "," and "\n".
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def read_csv_chunks(path: str | Path) -> Iterator[tuple[Sequence[int], dict[str, list[str]]]]:
    """Yield a CSV file's data rows column-wise, a slice of the file at a
    time, as (lines, {header name: field strings}); row j of a slice starts
    on line lines[j]. Blank lines are skipped.

    Builds no object per row. Each slice of _CHUNK_BYTES, read on to the end
    of its line, is split on separators directly while it is plain: no quote,
    carriage return or blank line, and the header's number of commas on every
    line. The commas are counted on the bytes, since in UTF-8 no byte of a
    multi-byte character is a comma or a line feed. From the first slice that
    is not plain, the rest of the file goes through the csv module,
    _CHUNK_ROWS rows at a time, since a quoted field may span lines; there a
    row whose field count is not the header's is refused, naming its line.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8")
        names, line = None, 1
        if header.strip("\n") and not any(c in header for c in '"\r'):
            names, line = header.rstrip("\n").split(","), 2
            row = b"," * (len(names) - 1) + b"\n"  # the separators of one row
            while data := fh.read(_CHUNK_BYTES) + fh.readline():
                separators = data.translate(None, _NOT_SEPARATORS)
                if not separators.endswith(b"\n"):  # the file's unterminated last line
                    separators += b"\n"
                rows = len(separators) // len(row)
                if (separators != row * rows or data.startswith(b"\n") or b"\n\n" in data
                        or b'"' in data or b"\r" in data):
                    fh.seek(fh.tell() - len(data))
                    break
                text = data.decode("utf-8")
                fields = text.replace("\n", ",").split(",")
                if text.endswith("\n"):
                    fields.pop()
                yield range(line, line + rows), {
                    name: fields[i::len(names)] for i, name in enumerate(names)}
                line += rows
        else:
            fh.seek(0)
        rows = _csv_rows(path, io.TextIOWrapper(fh, encoding="utf-8", newline="\n"), names, line)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            headers, lines, fields = zip(*chunk)
            yield lines, dict(zip(headers[0], map(list, zip(*fields))))


def read_column(path: str | Path) -> Iterator[str]:
    """Yield the values written by write_column, exactly; blank lines are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        yield from (row[0] for row in csv.reader(fh) if row)


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_ndjson(path: str | Path, fields: Mapping[str, tuple[type, ...]]) -> Iterator[dict]:
    """Yield the object on each non-blank line. A line is refused, naming the
    file and the line, unless it is a JSON object whose keys are exactly the
    fields and whose value for each field has one of that field's types
    (exactly: a bool is no int)."""
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
            if obj.keys() != fields.keys():
                raise ValueError(f"{path} line {n}: keys {sorted(obj)}, "
                                 f"expected {sorted(fields)}")
            for key, types in fields.items():
                if type(obj[key]) not in types:
                    raise ValueError(f"{path} line {n}: {key} {json.dumps(obj[key])} is not "
                                     f"{' or '.join(t.__name__ for t in types)}")
            yield obj


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
