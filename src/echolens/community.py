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

import numpy as np

from . import artifacts
from . import influence as _influence
from .graph import InteractionGraph, weighted_in_degrees
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
    Either way a node gets max(weight, floor), so isolated nodes get the
    floor.
    """
    if mode not in IMPORTANCE_MODES:
        raise ValueError(f"unknown importance mode {mode!r}")
    if len(g) == 0:
        return {}
    if mode == "weighted_in_degree":
        raw = weighted_in_degrees(g)
    else:
        raw = _influence.pagerank(g, **pagerank_kwargs).scores
    return {node: max(float(w), floor) for node, w in raw.items()}


def label_propagation(g: InteractionGraph, importance: Mapping[str, float],
                      seed: int, max_rounds: int = 100) -> CommunityAssignment:
    """Run seeded asynchronous label propagation to a stable labeling.

    Stops when a full round changes no label, or after max_rounds (reported
    via converged=False, never fatal). Communities come back canonically
    ordered by size descending then smallest member id, with ids 0..m-1.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    nodes = g.ids
    n = len(nodes)
    if n == 0:
        return CommunityAssignment(converged=True, iterations_run=0)

    missing = [node for node in nodes if node not in importance]
    if missing:
        raise ValueError(f"importance missing for nodes: {missing[:5]}")

    # Static vote weights: und_weight(u, v) * importance(v), each node's
    # neighbours in index order so float summation order is reproducible.
    imp = np.fromiter((float(importance[node]) for node in nodes), np.float64, n)
    indptr, cols, und = g.undirected()
    bounds = indptr.tolist()
    cols_l = cols.tolist()
    votes_l = (und * imp[cols]).tolist()
    nbr_ids = [cols_l[bounds[i]:bounds[i + 1]] for i in range(n)]
    nbr_votes = [votes_l[bounds[i]:bounds[i + 1]] for i in range(n)]

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
            nbrs = nbr_ids[u]
            if not nbrs:
                continue
            votes: dict[int, float] = {}
            get = votes.get
            best_val = -1.0
            best_lbl = -1
            for j, vote in zip(nbrs, nbr_votes[u]):
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
            for j in nbrs:
                pending[j] = 1
        if not changed:
            converged = True
            break

    # Group nodes by label (members stay in id order), then read every
    # community's anchor off one within-community in-weight pass.
    lab = np.asarray(labels)
    by_label = np.argsort(lab, kind="stable")
    starts = np.flatnonzero(np.diff(lab[by_label], prepend=-1))
    groups = np.split(by_label, starts[1:])
    groups.sort(key=lambda members: (-len(members), members[0]))
    win_within = g.in_weights(edge_mask=lab[g.sources()] == lab[g.indices])

    communities = []
    final_labels: dict[str, int] = {}
    for cid, idx in enumerate(groups):
        members = tuple(nodes[i] for i in idx.tolist())
        communities.append(Community(
            community_id=cid,
            members=members,
            size=len(members),
            anchor=_anchor(nodes, idx, win_within),
        ))
        final_labels.update(dict.fromkeys(members, cid))
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
    inside = g.node_mask(members)
    win = g.in_weights(edge_mask=inside[g.sources()] & inside[g.indices])
    return _anchor(g.ids, np.flatnonzero(inside), win)


def _anchor(ids: Sequence[str], members: np.ndarray, win_within: np.ndarray) -> str:
    """The member (sorted node indices) with the largest within-community
    weighted in-degree; argmax takes the first, so ties go to the smallest id."""
    return ids[members[np.argmax(win_within[members])]]


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
