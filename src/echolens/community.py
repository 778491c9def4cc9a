"""Community detection via influence-weighted label propagation.

Every node starts with its own label. Nodes are visited in a seeded random
order each round and adopt the label with the largest total vote among their
neighbors, where a neighbor's vote is edge weight times that neighbor's
importance. Edges are treated as undirected for propagation: an interaction
carries influence in both directions. Ties keep the current label when it is
among the leaders, otherwise the lowest label wins, which makes the whole
procedure deterministic for a given (graph, importance, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import artifacts
from . import influence as _influence
from .graph import InteractionGraph, induced_subgraph
from .ingest import TweetRecord, UserRecord, match_text

__all__ = [
    "Community",
    "CommunityAssignment",
    "node_importance",
    "label_propagation",
    "gate_communities",
    "anchor_user",
    "flag_offtopic",
    "write_review_flags",
]

IMPORTANCE_MODES = ("weighted_in_degree", "pagerank")


@dataclass(frozen=True)
class Community:
    community_id: int
    members: tuple[str, ...]
    size: int
    anchor: str


@dataclass
class CommunityAssignment:
    """Result of one propagation run (or of gating one).

    labels is total over the nodes it was computed on; member sets partition
    that node set. After gating, labels cover only surviving members and
    dropped_members records how many nodes were removed.
    """

    labels: dict[str, int] = field(default_factory=dict)
    communities: list[Community] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = True
    dropped_members: int = 0

    def community_map(self) -> dict[int, Community]:
        return {c.community_id: c for c in self.communities}


def node_importance(g: InteractionGraph, mode: str = "weighted_in_degree",
                    floor: float = 0.0, **pagerank_kwargs) -> dict[str, float]:
    """Per-node influence weight used to scale propagation votes.

    weighted_in_degree reads the weight straight off the graph; pagerank
    delegates to the influence module and returns raw probability mass.
    Isolated nodes get the configured floor.
    """
    if mode not in IMPORTANCE_MODES:
        raise ValueError(f"unknown importance mode {mode!r}")
    if len(g) == 0:
        return {}
    if mode == "weighted_in_degree":
        win: dict[str, float] = {n: floor for n in g.sorted_nodes()}
        for _, dst, w, _, _ in g.edges():
            win[dst] = win.get(dst, 0.0) + w
        return win
    scores = _influence.pagerank(g, **pagerank_kwargs).scores
    return {n: max(s, floor) for n, s in scores.items()}


def label_propagation(g: InteractionGraph, importance: Mapping[str, float],
                      seed: int, max_rounds: int = 100) -> CommunityAssignment:
    """Run seeded asynchronous label propagation to a stable labeling.

    Stops when a full round changes no label, or after max_rounds (reported
    via converged=False, never fatal). Communities come back canonically
    ordered by size descending then smallest member id, with ids 0..m-1.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    nodes = g.sorted_nodes()
    n = len(nodes)
    if n == 0:
        return CommunityAssignment(converged=True, iterations_run=0)
    index = {node: i for i, node in enumerate(nodes)}

    missing = [node for node in nodes if node not in importance]
    if missing:
        raise ValueError(f"importance missing for nodes: {missing[:5]}")

    # Static vote weights: und_weight(u, v) * importance(v), built in sorted
    # node order so float summation order is reproducible.
    und: list[dict[int, int]] = [dict() for _ in range(n)]
    for src, dst, w, _, _ in g.edges():
        i, j = index[src], index[dst]
        und[i][j] = und[i].get(j, 0) + w
        und[j][i] = und[j].get(i, 0) + w
    imp = [float(importance[node]) for node in nodes]
    neighbors = [
        [(j, w * imp[j]) for j, w in sorted(und[i].items())]
        for i in range(n)
    ]

    labels = list(range(n))
    rng = random.Random(seed)
    order = list(range(n))
    # A node only needs re-evaluation after a neighbor's label changed; the
    # skip is result-identical to evaluating everyone but makes late rounds
    # nearly free on large graphs.
    pending = bytearray(b"\x01") * n
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        rng.shuffle(order)
        changed = False
        for u in order:
            if not pending[u]:
                continue
            pending[u] = 0
            nbrs = neighbors[u]
            if not nbrs:
                continue
            votes: dict[int, float] = {}
            get = votes.get
            best_val = -1.0
            best_lbl = -1
            for j, vote in nbrs:
                lbl = labels[j]
                v = get(lbl, 0.0) + vote
                votes[lbl] = v
                if v > best_val:
                    best_val = v
                    best_lbl = lbl
                elif v == best_val and lbl < best_lbl:
                    best_lbl = lbl
            if get(labels[u]) == best_val:
                continue
            labels[u] = best_lbl
            changed = True
            for j, _ in nbrs:
                pending[j] = 1
        if not changed:
            converged = True
            break

    groups: dict[int, list[str]] = {}
    for i, node in enumerate(nodes):
        groups.setdefault(labels[i], []).append(node)

    # Within-community weighted in-degree for every node in one edge pass;
    # equivalent to anchor_user's induced-subgraph read but not quadratic in
    # the number of communities.
    final_label_of = {node: labels[i] for i, node in enumerate(nodes)}
    win_within = {node: 0 for node in nodes}
    for src, dst, w, _, _ in g.edges():
        if final_label_of[src] == final_label_of[dst]:
            win_within[dst] += w

    ordered = sorted(groups.values(), key=lambda members: (-len(members), min(members)))
    communities = []
    final_labels: dict[str, int] = {}
    for cid, members in enumerate(ordered):
        members = tuple(sorted(members))
        communities.append(Community(
            community_id=cid,
            members=members,
            size=len(members),
            anchor=min(members, key=lambda m: (-win_within[m], m)),
        ))
        for node in members:
            final_labels[node] = cid
    return CommunityAssignment(
        labels=final_labels,
        communities=communities,
        iterations_run=rounds,
        converged=converged,
    )


def gate_communities(assignment: CommunityAssignment, min_size: int) -> CommunityAssignment:
    """Keep only communities strictly larger than min_size ("over N members").

    Community ids are preserved; dropped member count is carried on the
    result so runs can report what the gate removed.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    kept = [c for c in assignment.communities if c.size > min_size]
    kept_ids = {c.community_id for c in kept}
    labels = {node: cid for node, cid in assignment.labels.items() if cid in kept_ids}
    return CommunityAssignment(
        labels=labels,
        communities=kept,
        iterations_run=assignment.iterations_run,
        converged=assignment.converged,
        dropped_members=len(assignment.labels) - len(labels),
    )


def anchor_user(g: InteractionGraph, members: Sequence[str]) -> str:
    """The most retweeted or replied-to member, judged inside the community.

    Maximal weighted in-degree on the induced subgraph; ties (including the
    all-isolated case) break to the lexicographically smallest user id.
    """
    members = list(members)
    if not members:
        raise ValueError("anchor_user needs a nonempty member set")
    sub = induced_subgraph(g, members)
    win = {m: 0 for m in members}
    for _, dst, w, _, _ in sub.edges():
        win[dst] += w
    return min(members, key=lambda m: (-win[m], m))


def flag_offtopic(assignment: CommunityAssignment, tweets: Sequence[TweetRecord],
                  keywords: Sequence[str],
                  users: Mapping[str, UserRecord] | None = None) -> list[tuple[int, str]]:
    """Flag communities with no on-topic signal, for manual review.

    A community stays unflagged if any member tweet contains a configured
    keyword, contains the anchor's handle, or mentions the anchor. Flagged
    communities are reported, never removed.
    """
    keywords = [k for k in keywords if k.strip()]
    if not keywords:
        raise ValueError("flag_offtopic needs a nonempty keyword list")
    needles = [match_text(k) for k in keywords]

    by_author: dict[str, list[TweetRecord]] = {}
    for t in tweets:
        by_author.setdefault(t.author_id, []).append(t)

    flags: list[tuple[int, str]] = []
    for community in assignment.communities:
        anchor = community.anchor
        anchor_handle = None
        if users and anchor in users:
            anchor_handle = match_text(users[anchor].handle)
        on_topic = False
        for member in community.members:
            for t in by_author.get(member, ()):
                text = match_text(t.text)
                if any(n in text for n in needles):
                    on_topic = True
                    break
                if anchor_handle and anchor_handle in text:
                    on_topic = True
                    break
                if anchor in t.mentions:
                    on_topic = True
                    break
            if on_topic:
                break
        if not on_topic:
            flags.append((community.community_id,
                          "no keyword or anchor mention in member tweets"))
    return flags


def write_review_flags(path: str | Path, assignment: CommunityAssignment,
                       flags: Sequence[tuple[int, str]]) -> None:
    """Persist review flags as `community_id,size,anchor,reason`."""
    by_id = assignment.community_map()
    artifacts.write_csv(path, ["community_id", "size", "anchor", "reason"],
                        ([cid, by_id[cid].size, by_id[cid].anchor, reason]
                         for cid, reason in sorted(flags)))
