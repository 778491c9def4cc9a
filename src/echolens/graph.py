"""Weighted directed interaction graph built from retweets and replies.

Edge direction is interactor -> target: a retweet or reply points from the
engaging user at the author who received the engagement, so downstream
PageRank rewards accounts that receive interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import artifacts
from .ingest import TweetRecord

__all__ = [
    "InteractionGraph",
    "GraphBuildStats",
    "DegreeStats",
    "build_interaction_graph",
    "degree_stats",
    "induced_subgraph",
    "write_edge_csv",
    "read_edge_csv",
]


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


class InteractionGraph:
    """Aggregated multigraph: one edge per ordered user pair, with its weight
    split into retweet and reply counts. Self-loops are rejected."""

    def __init__(self):
        self._nodes: dict[str, None] = {}
        # src -> dst -> [retweet_count, reply_count]
        self._adj: dict[str, dict[str, list[int]]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node: str) -> None:
        self._nodes.setdefault(node, None)

    def add_interaction(self, src: str, dst: str, kind: str, count: int = 1) -> None:
        if src == dst:
            raise ValueError("self-interactions are not representable")
        if kind not in ("retweet", "reply"):
            raise ValueError(f"unknown interaction kind {kind!r}")
        self.add_node(src)
        self.add_node(dst)
        counts = self._adj.setdefault(src, {}).setdefault(dst, [0, 0])
        counts[0 if kind == "retweet" else 1] += count

    @classmethod
    def from_weighted_edges(cls, edges: Iterable[tuple[str, str, int, int]],
                            nodes: Iterable[str] = ()) -> "InteractionGraph":
        """Bulk constructor from (src, dst, retweets, replies) tuples."""
        g = cls()
        for node in nodes:
            g.add_node(node)
        adj = g._adj
        nd = g._nodes
        for src, dst, rt, rp in edges:
            if src == dst:
                raise ValueError("self-interactions are not representable")
            nd.setdefault(src, None)
            nd.setdefault(dst, None)
            counts = adj.setdefault(src, {}).setdefault(dst, [0, 0])
            counts[0] += rt
            counts[1] += rp
        return g

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def sorted_nodes(self) -> list[str]:
        """Canonical node ordering used by every array-based kernel."""
        return sorted(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return sum(len(d) for d in self._adj.values())

    def edges(self):
        """Yield (src, dst, weight, retweets, replies) in insertion order."""
        for src, targets in self._adj.items():
            for dst, (rt, rp) in targets.items():
                yield src, dst, rt + rp, rt, rp

    def weight(self, src: str, dst: str) -> int:
        counts = self._adj.get(src, {}).get(dst)
        return 0 if counts is None else counts[0] + counts[1]

    def edge_kind_counts(self, src: str, dst: str) -> tuple[int, int]:
        counts = self._adj.get(src, {}).get(dst)
        return (0, 0) if counts is None else (counts[0], counts[1])

    def total_weight(self) -> int:
        return sum(w for _, _, w, _, _ in self.edges())

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionGraph):
            return NotImplemented
        if set(self._nodes) != set(other._nodes):
            return False
        mine = {(s, d): tuple(c) for s, ts in self._adj.items() for d, c in ts.items()}
        theirs = {(s, d): tuple(c) for s, ts in other._adj.items() for d, c in ts.items()}
        return mine == theirs


def build_interaction_graph(tweets: Sequence[TweetRecord],
                            tweet_index: Mapping[str, str],
                            reverse_edges: bool = False):
    """Build the interaction graph from cleaned tweets.

    tweet_index maps tweet_id -> author_id and is used to resolve retweet and
    reply targets; unresolvable targets and self-interactions are counted in
    the returned stats, never raised. Every tweet author becomes a node even
    when isolated. reverse_edges flips direction to target -> interactor for
    sensitivity runs. Returns (graph, stats).
    """
    g = InteractionGraph()
    stats = GraphBuildStats()
    for t in tweets:
        g.add_node(t.author_id)
        for target_id, kind in ((t.retweet_of, "retweet"), (t.reply_to, "reply")):
            if target_id is None:
                continue
            target_author = tweet_index.get(target_id)
            if target_author is None:
                stats.unresolved_targets += 1
                continue
            if target_author == t.author_id:
                stats.self_interactions += 1
                continue
            if reverse_edges:
                g.add_interaction(target_author, t.author_id, kind)
            else:
                g.add_interaction(t.author_id, target_author, kind)
            if kind == "retweet":
                stats.resolved_retweets += 1
            else:
                stats.resolved_replies += 1
    return g, stats


def degree_stats(g: InteractionGraph) -> dict[str, DegreeStats]:
    """Per-node degree summary; weighted in-degrees and out-degrees both sum
    to the total edge weight."""
    out = {n: DegreeStats() for n in g.sorted_nodes()}
    for src, dst, w, _, _ in g.edges():
        out[src].out_degree += 1
        out[src].weighted_out += w
        out[dst].in_degree += 1
        out[dst].weighted_in += w
    return out


def weighted_in_degrees(g: InteractionGraph, kind: str | None = None) -> dict[str, int]:
    """Weighted in-degree per node, optionally restricted to one edge kind."""
    win = {n: 0 for n in g.sorted_nodes()}
    for src, dst, w, rt, rp in g.edges():
        if kind is None:
            win[dst] += w
        elif kind == "retweet":
            win[dst] += rt
        elif kind == "reply":
            win[dst] += rp
        else:
            raise ValueError(f"unknown edge kind {kind!r}")
    return win


def induced_subgraph(g: InteractionGraph, nodes: Iterable[str]) -> InteractionGraph:
    """Subgraph on the given nodes, keeping exactly the edges with both
    endpoints inside the set. Unknown nodes raise."""
    keep = set(nodes)
    unknown = keep - g.nodes
    if unknown:
        raise ValueError(f"nodes not in graph: {sorted(unknown)[:5]}")
    sub = InteractionGraph()
    for n in keep:
        sub.add_node(n)
    for src, dst, _, rt, rp in g.edges():
        if src in keep and dst in keep:
            if rt:
                sub.add_interaction(src, dst, "retweet", rt)
            if rp:
                sub.add_interaction(src, dst, "reply", rp)
    return sub


def write_edge_csv(g: InteractionGraph, path: str | Path) -> None:
    """Dump edges as `src,dst,weight,retweets,replies`, sorted for stability."""
    artifacts.write_csv(path, ["src", "dst", "weight", "retweets", "replies"],
                        sorted(g.edges()))


def write_node_list(g: InteractionGraph, path: str | Path) -> None:
    artifacts.write_lines(path, g.sorted_nodes())


def read_edge_csv(edge_path: str | Path, node_path: str | Path | None = None) -> InteractionGraph:
    """Rebuild a graph persisted by write_edge_csv (+ optional node list,
    needed to recover isolated nodes)."""
    nodes = artifacts.read_lines(node_path) if node_path is not None else ()
    edges = ((row["src"], row["dst"], int(row["retweets"]), int(row["replies"]))
             for row in artifacts.read_csv(edge_path))
    return InteractionGraph.from_weighted_edges(edges, nodes=nodes)
