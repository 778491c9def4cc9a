"""Weighted directed interaction graph built from retweets and replies.

Edge direction is interactor -> target: a retweet or reply points from the
engaging user at the author who received the engagement, so downstream
PageRank rewards accounts that receive interactions.

The graph is stored once, in integer form: node ids are kept sorted, node i
is `ids[i]`, and the out-edges of node i are positions `indptr[i]` to
`indptr[i + 1]` of the CSR arrays `indices` (target node), `retweets` and
`replies` (int64), ordered by target. String ids become integers only where
a graph is built (`from_weighted_edges`, `build_interaction_graph`,
`read_edge_csv`) and turn back into strings only where results leave a
kernel. Every graph kernel reads these arrays, and kernels hand each other
per-node values as arrays aligned with `ids`.

Every builder makes the arrays in one sort of the keys src * n + dst, which
sums repeated pairs. The keys are ordered by stable LSD passes of numpy's
16-bit radix sort, as many as n * n needs, and not sorted at all when they
are already non-decreasing, as an edge file's always are. Tuples are taken
apart a column at a time, so a build makes no Python object per edge.
"""

from __future__ import annotations

from itertools import count, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import artifacts
from .ingest import TweetRecord

__all__ = [
    "InteractionGraph",
    "build_interaction_graph",
    "write_edge_csv",
    "read_edge_csv",
]

_EDGE_HEADER = ["src", "dst", "weight", "retweets", "replies"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_EDGES = _frozen(np.zeros(0, np.int64))


# Tuples per chunk that `from_weighted_edges` turns into integer columns.
_CHUNK_EDGES = 1 << 14


def _summed(rows: np.ndarray, cols: np.ndarray, n: int, *values: np.ndarray,
            both_ways: bool = False) -> tuple[np.ndarray, ...]:
    """CSR (indptr, cols, *sums) of (row, col) entries, one per distinct pair
    in row-then-column order, the values of repeated pairs summed in input
    order and in their dtype (the entries are ordered stably by row * n + col,
    see _key_order). With both_ways, entry i also stands for (cols[i],
    rows[i]), after all the (row, col) entries; its values are read in place,
    not doubled. Each temporary is freed as soon as it is used."""
    m = rows.size
    key = np.empty(2 * m if both_ways else m, dtype=np.int64)
    np.multiply(rows, n, out=key[:m], dtype=np.int64)
    key[:m] += cols
    if both_ways:
        np.multiply(cols, n, out=key[m:], dtype=np.int64)
        key[m:] += rows
    del rows, cols
    order = _key_order(key, n * n)
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    key = key[starts]
    cols = key % n
    key //= n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n), out=indptr[1:])
    del key
    if both_ways:
        np.remainder(order, m, out=order)
    taken = [v[order] for v in values]
    del order
    return (indptr, cols, *(np.add.reduceat(t, starts) if starts.size else t
                            for t in taken))


def _key_order(key: np.ndarray, top: int) -> np.ndarray:
    """np.argsort(key, kind="stable") of int64 keys in [0, top), without a
    comparison sort: the identity when the keys are already non-decreasing
    (as an edge file's are), else LSD passes of numpy's radix sort over
    16-bit digits, as many as top needs."""
    if not np.any(key[1:] < key[:-1]):
        return np.arange(key.size)
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, (top - 1).bit_length(), 16):
        digit = (key >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
    return order


class InteractionGraph:
    """Aggregated multigraph: one edge per ordered user pair, with its weight
    split into retweet and reply counts. Self-loops are rejected.

    An immutable value: build it with `from_weighted_edges`,
    `build_interaction_graph` or `read_edge_csv`.
    `InteractionGraph()` is the empty graph. Its arrays are read-only, so
    every kernel can share them.
    """

    def __init__(self, ids: tuple[str, ...] = (), src: np.ndarray = _NO_EDGES,
                 dst: np.ndarray = _NO_EDGES, retweets: np.ndarray = _NO_EDGES,
                 replies: np.ndarray = _NO_EDGES):
        """The one build pass: node i is ids[i] (ids sorted); (src, dst) are
        int64 node indices of any order, repeated pairs are summed. Counts
        must be >= 0; the first negative one is named by its pair."""
        n = len(ids)
        if np.any(src == dst):
            raise ValueError("self-interactions are not representable")
        negative = np.flatnonzero((retweets < 0) | (replies < 0))
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"negative interaction count on ({ids[src[i]]}, {ids[dst[i]]}): "
                             f"retweets={retweets[i]}, replies={replies[i]}")
        self.ids = ids
        self.indptr, self.indices, self.retweets, self.replies = map(
            _frozen, _summed(src, dst, n, retweets, replies))

    @classmethod
    def from_weighted_edges(cls, edges: Iterable[tuple[str, str, int, int]],
                            nodes: Iterable[str] = ()) -> "InteractionGraph":
        """Bulk constructor from (src, dst, retweets, replies) tuples, read
        once, a chunk at a time. A count that is not an int (a float, str or
        bool) is refused, naming its pair."""
        return _built(nodes, _interned(_edge_chunks(edges)))

    def sources(self) -> np.ndarray:
        """Source node of every edge, aligned with `indices`."""
        indptr = self.indptr
        return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))

    def weights(self, kind: str | None = None) -> np.ndarray:
        """Per-edge weight: both kinds summed, or only "retweet" or "reply"."""
        if kind is None:
            return self.retweets + self.replies
        if kind == "retweet":
            return self.retweets
        if kind == "reply":
            return self.replies
        raise ValueError(f"unknown edge kind {kind!r}")

    def in_weights(self, kind: str | None = None,
                   edge_mask: np.ndarray | None = None) -> np.ndarray:
        """Weighted in-degree per node (int64, in id order), optionally for
        one edge kind and only over the edges where edge_mask is true."""
        dst, w = self.indices, self.weights(kind)
        if edge_mask is not None:
            dst, w = dst[edge_mask], w[edge_mask]
        return np.bincount(dst, weights=w, minlength=len(self)).astype(np.int64)

    def undirected(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR (indptr, indices, weights) of the symmetrised graph, where the
        weight of {u, v} is w(u, v) + w(v, u); neighbours sorted by index."""
        return _summed(self.sources(), self.indices, len(self), self.weights(),
                       both_ways=True)

    def __len__(self) -> int:
        return len(self.ids)

    def num_edges(self) -> int:
        return len(self.indices)

    def total_weight(self) -> int:
        return int(self.retweets.sum() + self.replies.sum())


def _indices(index: dict[str, int], ids: Sequence[str]) -> np.ndarray:
    """The integers of ids in index; ids not yet in it get the next free ones."""
    try:
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    except KeyError:
        new = set(ids).difference(index)
        index.update(zip(new, range(len(index), len(index) + len(new))))
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def _built(nodes: Iterable[str],
           parts: Callable[[dict[str, int]], Iterable[tuple]]) -> InteractionGraph:
    """Build from (src, dst, retweets, replies) int64 column chunks.

    parts(index) yields the chunks. index gives each id a provisional
    integer, the nodes first, and parts may add ids to it as it goes. The
    integers are renumbered once at the end in sorted id order, so only the
    integer columns of the chunks are kept."""
    index = dict(zip(dict.fromkeys(map(str, nodes)), count()))
    parts = list(parts(index))
    ids = tuple(sorted(map(str, index)))
    rank = np.empty(len(ids), dtype=np.int64)
    rank[_indices(index, ids)] = np.arange(len(ids))
    del index
    src, dst, retweets, replies = [np.concatenate(c) for c in zip(*parts)] or [_NO_EDGES] * 4
    del parts
    src, dst = rank[src], rank[dst]
    return InteractionGraph(ids, src, dst, retweets, replies)


def _interned(chunks: Iterable[tuple]) -> Callable[[dict[str, int]], Iterator[tuple]]:
    """The parts of _built for chunks of (src ids, dst ids, retweets, replies)."""
    return lambda index: ((_indices(index, src), _indices(index, dst), retweets, replies)
                          for src, dst, retweets, replies in chunks)


def _is_int(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool


def _edge_chunks(edges: Iterable[tuple[str, str, int, int]]) -> Iterator[tuple]:
    """Column chunks of up to _CHUNK_EDGES (src, dst, retweets, replies)
    tuples, with int64 counts. The count types are checked once a chunk."""
    edges = iter(edges)
    while chunk := list(islice(edges, _CHUNK_EDGES)):
        src, dst, retweets, replies = (list(map(itemgetter(i), chunk)) for i in range(4))
        if not all(map(_is_int, set(map(type, retweets)) | set(map(type, replies)))):
            s, d, rt, rp = next(row for row in chunk
                                if not (_is_int(type(row[2])) and _is_int(type(row[3]))))
            raise ValueError(f"interaction count is not an int on ({s}, {d}): "
                             f"retweets={rt!r}, replies={rp!r}")
        yield (src, dst, np.fromiter(retweets, np.int64, len(chunk)),
               np.fromiter(replies, np.int64, len(chunk)))


def build_interaction_graph(tweets: Sequence[TweetRecord],
                            tweet_index: Mapping[str, str]) -> tuple[InteractionGraph, dict]:
    """Build the interaction graph from cleaned tweets.

    tweet_index maps tweet_id -> author_id and is used to resolve retweet and
    reply targets; unresolvable targets and self-interactions are counted in
    the returned stats, never raised. Every tweet author becomes a node even
    when isolated. Returns (graph, stats), stats a dict of the counts
    resolved_retweets, resolved_replies, unresolved_targets and
    self_interactions.
    """
    unresolved = self_interactions = 0
    src, dst, retweets = [], [], []
    for t in tweets:
        for target_id, is_retweet in ((t.retweet_of, 1), (t.reply_to, 0)):
            if target_id is None:
                continue
            target_author = tweet_index.get(target_id)
            if target_author is None:
                unresolved += 1
                continue
            if target_author == t.author_id:
                self_interactions += 1
                continue
            src.append(t.author_id)
            dst.append(target_author)
            retweets.append(is_retweet)
    resolved_retweets = sum(retweets)
    stats = {"resolved_retweets": resolved_retweets,
             "resolved_replies": len(retweets) - resolved_retweets,
             "unresolved_targets": unresolved, "self_interactions": self_interactions}
    retweets = np.asarray(retweets, dtype=np.int64)
    g = _built((t.author_id for t in tweets), _interned([(src, dst, retweets, 1 - retweets)]))
    return g, stats


def write_edge_csv(g: InteractionGraph, path: str | Path) -> None:
    """Dump edges as `src,dst,weight,retweets,replies` in (src, dst) order.
    Each id and each distinct count is formatted once."""
    artifacts.write_coded_csv(path, _EDGE_HEADER, [
        (g.ids, g.sources()), (g.ids, g.indices),
        *map(_coded_counts, (g.weights(), g.retweets, g.replies))])


def _coded_counts(counts: np.ndarray) -> tuple[Sequence[int], np.ndarray]:
    """(distinct cells, codes) of a count column: while the largest count is
    no more than the number of rows, every count up to it, each coded by
    itself, which spares np.unique's sort and its array of codes; otherwise
    the distinct counts."""
    top = int(counts.max(initial=0))
    if top <= counts.size:
        return range(top + 1), counts
    cells, codes = np.unique(counts, return_inverse=True)
    return cells.tolist(), codes


def write_node_list(g: InteractionGraph, path: str | Path) -> None:
    """Dump every node id, isolated ones included, as a one-column CSV."""
    artifacts.write_column(path, g.ids)


def read_edge_csv(edge_path: str | Path, node_path: str | Path) -> InteractionGraph:
    """Rebuild a graph persisted by write_edge_csv and write_node_list, a
    slice of the edge file at a time. Each id cell is looked up by its bytes
    among the node file's ids; only one missing there is decoded, and it
    still becomes a node. A count cell that is not an integer is refused,
    naming its line."""
    def parts(index: dict[str, int]) -> Iterator[tuple]:
        nodes = artifacts.CellIndex(list(index))

        def indices(cells: artifacts.Cells) -> np.ndarray:
            found = nodes.find(cells)
            missing = np.flatnonzero(found < 0)
            if missing.size:
                found[missing] = _indices(index, cells[missing].strings())
            return found

        for lines, columns in artifacts.read_csv_chunks(edge_path):
            yield (indices(columns["src"]), indices(columns["dst"]),
                   *(_count_cells(columns[name], lines, name, edge_path)
                     for name in ("retweets", "replies")))

    return _built(artifacts.read_column(node_path), parts)


def _count_cells(cells: artifacts.Cells, lines: Sequence[int], name: str,
                 path: str | Path) -> np.ndarray:
    """Count cells as int64: cells of plain digits from their bytes, others as
    numpy converts their strings, which refuses a non-integer."""
    values = cells.integers()
    if values is not None:
        return values
    strings = cells.strings()
    try:
        return np.array(strings, dtype=np.int64)
    except (ValueError, OverflowError):
        for cell, line in zip(strings, lines):
            try:
                np.int64(cell)
            except (ValueError, OverflowError):
                raise ValueError(f"{path} line {line}: {name} {cell!r} is not an "
                                 "integer") from None
        raise
