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
kernel. Every graph kernel reads these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import artifacts
from .ingest import TweetRecord

__all__ = [
    "InteractionGraph",
    "GraphBuildStats",
    "DegreeStats",
    "build_interaction_graph",
    "degree_stats",
    "weighted_in_degrees",
    "induced_subgraph",
    "write_edge_csv",
    "read_edge_csv",
]

_EDGE_HEADER = ["src", "dst", "weight", "retweets", "replies"]


@dataclass
class GraphBuildStats:
    resolved_retweets: int = 0
    resolved_replies: int = 0
    unresolved_targets: int = 0
    self_interactions: int = 0


@dataclass
class DegreeStats:
    in_degree: int = 0
    out_degree: int = 0
    weighted_in: int = 0
    weighted_out: int = 0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_EDGES = _frozen(np.zeros(0, np.int64))


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer for row indices that are already sorted."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _sum_duplicates(rows: np.ndarray, cols: np.ndarray, n: int,
                   *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sort (row, col) pairs and sum the values of repeated pairs.

    Returns (rows, cols, *summed values), ordered by row then column, one
    entry per distinct pair. Equal pairs keep their input order before
    summing, and the sums stay in the values' dtype.
    """
    key = rows * n + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    sums = tuple(np.add.reduceat(v[order], starts) if starts.size else v[:0]
                 for v in values)
    return (key[starts] // n, key[starts] % n) + sums


class InteractionGraph:
    """Aggregated multigraph: one edge per ordered user pair, with its weight
    split into retweet and reply counts. Self-loops are rejected.

    An immutable value: build it with `from_weighted_edges`,
    `build_interaction_graph`, `read_edge_csv` or `induced_subgraph`.
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
        src, dst, retweets, replies = _sum_duplicates(src, dst, n, retweets, replies)
        self.ids = ids
        self.indptr = _frozen(_indptr(src, n))
        self.indices = _frozen(dst)
        self.retweets = _frozen(retweets)
        self.replies = _frozen(replies)

    @classmethod
    def from_weighted_edges(cls, edges: Iterable[tuple[str, str, int, int]],
                            nodes: Iterable[str] = ()) -> "InteractionGraph":
        """Bulk constructor from (src, dst, retweets, replies) tuples."""
        columns = tuple(zip(*edges)) or ((), (), (), ())
        return _interned(nodes, *columns)

    @cached_property
    def index(self) -> dict[str, int]:
        """Node id -> integer index."""
        return {node: i for i, node in enumerate(self.ids)}

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
        src, dst, w = self.sources(), self.indices, self.weights()
        rows, cols, sym = _sum_duplicates(np.concatenate([src, dst]),
                                         np.concatenate([dst, src]), len(self),
                                         np.concatenate([w, w]))
        return _indptr(rows, len(self)), cols, sym

    def __len__(self) -> int:
        return len(self.ids)

    def num_edges(self) -> int:
        return len(self.indices)

    def total_weight(self) -> int:
        return int(self.retweets.sum() + self.replies.sum())


def _interned(nodes: Iterable[str], src: Sequence[str], dst: Sequence[str],
              retweets, replies) -> InteractionGraph:
    """Intern string columns to sorted integer ids, then build."""
    ids = tuple(sorted(map(str, set(nodes).union(src, dst))))
    index = {node: i for i, node in enumerate(ids)}
    m = len(src)
    return InteractionGraph(ids,
                            np.fromiter(map(index.__getitem__, src), np.int64, m),
                            np.fromiter(map(index.__getitem__, dst), np.int64, m),
                            np.asarray(retweets, dtype=np.int64).reshape(m),
                            np.asarray(replies, dtype=np.int64).reshape(m))


def build_interaction_graph(tweets: Sequence[TweetRecord],
                            tweet_index: Mapping[str, str]):
    """Build the interaction graph from cleaned tweets.

    tweet_index maps tweet_id -> author_id and is used to resolve retweet and
    reply targets; unresolvable targets and self-interactions are counted in
    the returned stats, never raised. Every tweet author becomes a node even
    when isolated. Returns (graph, stats).
    """
    stats = GraphBuildStats()
    src, dst, retweets = [], [], []
    for t in tweets:
        for target_id, is_retweet in ((t.retweet_of, 1), (t.reply_to, 0)):
            if target_id is None:
                continue
            target_author = tweet_index.get(target_id)
            if target_author is None:
                stats.unresolved_targets += 1
                continue
            if target_author == t.author_id:
                stats.self_interactions += 1
                continue
            src.append(t.author_id)
            dst.append(target_author)
            retweets.append(is_retweet)
    stats.resolved_retweets = sum(retweets)
    stats.resolved_replies = len(retweets) - stats.resolved_retweets
    retweets = np.asarray(retweets, dtype=np.int64)
    g = _interned((t.author_id for t in tweets), src, dst, retweets, 1 - retweets)
    return g, stats


def degree_stats(g: InteractionGraph) -> dict[str, DegreeStats]:
    """Per-node degree summary; weighted in-degrees and out-degrees both sum
    to the total edge weight."""
    n = len(g)
    columns = (np.bincount(g.indices, minlength=n), np.diff(g.indptr),
               g.in_weights(),
               np.bincount(g.sources(), weights=g.weights(), minlength=n).astype(np.int64))
    return {node: DegreeStats(*row)
            for node, row in zip(g.ids, zip(*(c.tolist() for c in columns)))}


def weighted_in_degrees(g: InteractionGraph, kind: str | None = None) -> dict[str, int]:
    """Weighted in-degree per node, optionally restricted to one edge kind."""
    return dict(zip(g.ids, g.in_weights(kind).tolist()))


def induced_subgraph(g: InteractionGraph, nodes: Iterable[str]) -> InteractionGraph:
    """Subgraph on the given nodes, keeping exactly the edges with both
    endpoints inside the set. Unknown nodes raise."""
    nodes, index = set(nodes), g.index
    unknown = nodes - index.keys()
    if unknown:
        raise ValueError(f"nodes not in graph: {sorted(unknown)[:5]}")
    inside = np.zeros(len(g), dtype=bool)
    inside[[index[node] for node in nodes]] = True
    src, dst = g.sources(), g.indices
    edge_mask = inside[src] & inside[dst]
    renumber = np.cumsum(inside) - 1
    return InteractionGraph(
        tuple(node for node, kept in zip(g.ids, inside.tolist()) if kept),
        renumber[src[edge_mask]], renumber[dst[edge_mask]],
        g.retweets[edge_mask], g.replies[edge_mask])


def write_edge_csv(g: InteractionGraph, path: str | Path) -> None:
    """Dump edges as `src,dst,weight,retweets,replies` in (src, dst) order."""
    ids = g.ids
    artifacts.write_csv(path, _EDGE_HEADER, zip(
        [ids[i] for i in g.sources().tolist()], [ids[i] for i in g.indices.tolist()],
        g.weights().tolist(), g.retweets.tolist(), g.replies.tolist()))


def write_node_list(g: InteractionGraph, path: str | Path) -> None:
    """Dump every node id, isolated ones included, as a one-column CSV."""
    artifacts.write_column(path, g.ids)


def read_edge_csv(edge_path: str | Path, node_path: str | Path) -> InteractionGraph:
    """Rebuild a graph persisted by write_edge_csv and write_node_list."""
    nodes = artifacts.read_column(node_path)
    columns = artifacts.read_csv_columns(edge_path)
    return _interned(
        nodes, columns["src"], columns["dst"],
        np.array(columns["retweets"], dtype=np.int64),
        np.array(columns["replies"], dtype=np.int64))
