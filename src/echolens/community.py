"""Community detection via influence-weighted label propagation.

Every node starts with its own label. Nodes are visited in a seeded random
order each round and adopt the label with the largest total vote among their
neighbors, where a neighbor's vote is edge weight times that neighbor's
importance. Edges are treated as undirected for propagation: an interaction
carries influence in both directions. Ties keep the current label when it is
among the leaders, otherwise the lowest label wins, which makes the whole
procedure deterministic for a given (graph, importance, seed).

A round runs in wavefronts over the symmetrised CSR arrays rather than one
node at a time. Pointing every edge from the endpoint earlier in the
round's order to the later one gives a DAG; its Kahn fronts hold no two
neighbours, and every earlier neighbour of a node lies in an earlier front,
every later one in a later front. A front's nodes, evaluated together, thus
read the labels and pending flags the one-by-one visit reads, so the result
is the sequential one bit for bit. Each round keeps those forward edges as a
CSR of their own: a front's later neighbours are one slice gather, and the
next front is those whose count of earlier neighbours reaches zero, each
taken once through a scratch slot per node rather than a sort. The order of
a front changes no vote sum, since each node's votes are summed in
neighbour order. That vote rule needs every vote finite and >= 0.
Interaction counts are >= 0 in every graph, so importance must be finite
and >= 0; anything else is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from . import influence as _influence
from .graph import InteractionGraph
from .ingest import TweetRecord, UserRecord, keyword_needles, match_text

__all__ = [
    "Community",
    "CommunityAssignment",
    "node_importance",
    "label_propagation",
    "gate_communities",
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


def node_importance(g: InteractionGraph, mode: str = "weighted_in_degree",
                    **pagerank_kwargs) -> np.ndarray:
    """Per-node influence weight used to scale propagation votes, as a
    float64 array aligned with g.ids.

    weighted_in_degree reads the weight straight off the graph, so isolated
    nodes get 0.0; pagerank delegates to the influence module and returns raw
    probability mass. Either way every weight is >= 0, as label_propagation
    requires of importance.
    """
    if mode not in IMPORTANCE_MODES:
        raise ValueError(f"unknown importance mode {mode!r}")
    if len(g) == 0:
        return np.zeros(0)
    if mode == "weighted_in_degree":
        return g.in_weights().astype(np.float64)
    scores = _influence.pagerank(g, **pagerank_kwargs).scores
    return np.fromiter(map(scores.__getitem__, g.ids), np.float64, len(g))


def label_propagation(g: InteractionGraph, importance: np.ndarray,
                      seed: int, max_rounds: int = 100) -> CommunityAssignment:
    """Run seeded asynchronous label propagation to a stable labeling.

    importance holds one weight per node, aligned with g.ids, as
    node_importance returns it. Stops when a full round changes no label, or
    after max_rounds (reported via converged=False, never fatal). Communities
    come back canonically ordered by size descending then smallest member
    id, with ids 0..m-1.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    nodes = g.ids
    n = len(nodes)
    imp = np.asarray(importance, dtype=np.float64)
    if imp.shape != (n,):
        raise ValueError(f"importance must hold one value per node: shape {imp.shape}, "
                         f"{n} nodes")
    if n == 0:
        return CommunityAssignment(converged=True, iterations_run=0)

    # The vote rule below needs every vote finite and >= 0; the graph's
    # counts are >= 0 by construction.
    bad = np.flatnonzero(~((imp >= 0) & (imp < np.inf)))
    if bad.size:
        raise ValueError("importance negative or not finite for nodes: "
                         f"{[nodes[i] for i in bad[:5].tolist()]}")
    indptr, cols, votes = g.undirected()
    owners = np.repeat(np.arange(n), np.diff(indptr))

    # Static vote weights: und_weight(u, v) * importance(v), each node's
    # neighbours in index order so float summation order is reproducible.
    votes = votes * imp[cols]

    labels = np.arange(n)
    rng = random.Random(seed)
    order = list(range(n))
    rank = np.empty(n, dtype=np.int64)
    # A node only needs re-evaluation after a neighbor's label changed; the
    # skip is result-identical to evaluating everyone but makes late rounds
    # nearly free on large graphs.
    pending = np.ones(n, dtype=bool)
    slot = np.empty(n, dtype=np.int64)
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        rng.shuffle(order)
        rank[order] = np.arange(n)
        # Point every edge from its endpoint earlier in `order` to the later
        # one, keep those forward edges as a CSR of their own, and peel them
        # into Kahn fronts: a node joins once all its earlier neighbours have.
        forward = rank[cols] > rank[owners]
        forward_cols = cols[forward]
        # Row starts of the forward CSR: the forward entries before each row.
        later = np.zeros(forward.size + 1, dtype=np.int64)
        np.cumsum(forward, out=later[1:])
        later = later[indptr]
        waiting = np.bincount(forward_cols, minlength=n)
        front = np.flatnonzero(waiting == 0)
        changed = False
        while front.size:
            due = _row_entries(indptr, front[pending[front]])
            pending[front] = False
            if due.size:
                moved = _relabel(due, owners, cols, votes, labels)
                pending[cols[_row_entries(indptr, moved)]] = True
                changed = changed or moved.size > 0
            after = forward_cols[_row_entries(later, front)]
            np.subtract.at(waiting, after, 1)
            # The nodes whose last earlier neighbour was in this front, each
            # once: the one position that a node's slot keeps.
            ready = after[waiting[after] == 0]
            positions = np.arange(ready.size)
            slot[ready] = positions
            front = ready[slot[ready] == positions]
        # Freed before the next round's gathers, which would otherwise
        # peak with it still held.
        del forward_cols
        if not changed:
            converged = True
            break

    # Group nodes by label (members stay in id order), then read every
    # community's anchor off one within-community in-weight pass.
    by_label = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[by_label], prepend=-1))
    groups = np.split(by_label, starts[1:])
    groups.sort(key=lambda members: (-len(members), members[0]))
    win_within = g.in_weights(edge_mask=labels[g.sources()] == labels[g.indices])

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


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """CSR entry positions of the given rows, row after row."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - ends + counts, counts)


def _relabel(entries: np.ndarray, owners: np.ndarray, cols: np.ndarray,
             votes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Move the owners of the CSR entries, pairwise non-adjacent nodes, to
    their leading labels; return the nodes that moved.

    bincount sums each (node, label) group from 0.0 in neighbour order, the
    order of a one-neighbour-at-a-time running sum, so the totals are bit-equal
    to it. With votes >= 0 every running total only grows, so a running
    maximum with ties to the lowest label ends on the lowest leading label.
    """
    n = len(labels)
    keys, group = np.unique(owners[entries] * n + labels[cols[entries]],
                            return_inverse=True)
    totals = np.bincount(group, weights=votes[entries])
    node, label = np.divmod(keys, n)
    first = np.diff(node, prepend=-1) != 0
    starts = np.flatnonzero(first)
    leads = totals == np.maximum.reduceat(totals, starts)[np.cumsum(first) - 1]
    holds = np.logical_or.reduceat(leads & (label == labels[node]), starts)
    moved = node[starts][~holds]
    labels[moved] = np.minimum.reduceat(np.where(leads, label, n), starts)[~holds]
    return moved


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
    needles = keyword_needles(keywords)

    by_author: dict[str, list[TweetRecord]] = {}
    for t in tweets:
        by_author.setdefault(t.author_id, []).append(t)

    def on_topic(t: TweetRecord, anchor: str, handle: str | None) -> bool:
        text = match_text(t.text)
        return (any(n in text for n in needles) or (handle and handle in text)
                or anchor in t.mentions)

    flags: list[tuple[int, str]] = []
    for community in assignment.communities:
        anchor = community.anchor
        handle = match_text(users[anchor].handle) if users and anchor in users else None
        if not any(on_topic(t, anchor, handle)
                   for member in community.members for t in by_author.get(member, ())):
            flags.append((community.community_id,
                          "no keyword or anchor mention in member tweets"))
    return flags


def write_review_flags(path: str | Path, assignment: CommunityAssignment,
                       flags: Sequence[tuple[int, str]]) -> None:
    """Persist review flags as `community_id,size,anchor,reason`."""
    by_id = {c.community_id: c for c in assignment.communities}
    artifacts.write_csv(path, ["community_id", "size", "anchor", "reason"],
                        ([cid, by_id[cid].size, by_id[cid].anchor, reason]
                         for cid, reason in sorted(flags)))
