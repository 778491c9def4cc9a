"""PageRank influence scoring over the interaction graph.

Raw scores are the stationary distribution of a damped random walk whose
transition probabilities are proportional to edge weights; the walk teleports
uniformly with probability 1 - damping, and a dangling node redistributes its
whole mass uniformly (retweet graphs are full of sinks, so this matters).
Raw scores are then mapped linearly onto the 0..10 presentation scale.

The matvec is numpy only: each edge's term x[src] * p(src -> dst) is summed
into its destination with np.bincount. Edges are stored in (src, dst) order,
so every destination adds its terms in ascending source order starting from
0.0, the same sequence of float operations as a CSR matvec over the
transposed transition matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph import InteractionGraph
from .ingest import TweetRecord, UserRecord

__all__ = [
    "PageRankResult",
    "pagerank",
    "scale_scores",
    "rank_tables",
]


@dataclass
class PageRankResult:
    """Raw scores plus convergence diagnostics.

    converged is the warning flag: False means max_iter was hit before the
    L1 change dropped below tol, and the scores are best-effort.
    """

    scores: dict[str, float]
    iterations: int
    converged: bool


def pagerank(g: InteractionGraph, damping: float = 0.85, tol: float = 1e-9,
             max_iter: int = 100) -> PageRankResult:
    """Power iteration on the weighted directed graph with uniform teleport.

    x' = damping * (P x + dangling_mass / n) + (1 - damping) / n, iterated
    until the L1 change is below tol. Scores sum to 1 to within float error.
    A graph without edges is its own fixed point: every node is dangling, so
    the scores are exactly 1/n, converged after 0 iterations. ValueError
    unless tol > 0 (so not NaN) and max_iter >= 1.
    """
    if len(g) == 0:
        raise ValueError("pagerank needs a nonempty graph")
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if not tol > 0.0:  # NaN included
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    n = len(g)
    if g.num_edges() == 0:
        return PageRankResult(scores=dict.fromkeys(g.ids, 1.0 / n),
                              iterations=0, converged=True)
    src, dst, w = g.sources(), g.indices, g.weights()
    out_weight = np.bincount(src, weights=w, minlength=n)
    dangling = out_weight == 0.0
    probs = w / np.where(dangling, 1.0, out_weight)[src]

    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sink_mass = x[dangling].sum()
        spread = np.bincount(dst, weights=x[src] * probs, minlength=n)
        x_next = damping * (spread + sink_mass / n) + teleport
        delta = np.abs(x_next - x).sum()
        x = x_next
        if delta < tol:
            converged = True
            break

    return PageRankResult(
        scores=dict(zip(g.ids, x.tolist())),
        iterations=iterations,
        converged=converged,
    )


def scale_scores(raw: Mapping[str, float]) -> dict[str, float]:
    """Linear min-max map of raw scores onto [0, 10].

    The minimum raw score maps to 0 and the maximum to 10; a degenerate span
    (all scores equal, including a single node) maps everything to 10.
    """
    if not raw:
        raise ValueError("scale_scores needs at least one score")
    values = list(raw.values())
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0.0:
        return {node: 10.0 for node in raw}
    # Divide before scaling: (score - lo) / span is bounded by 1.0 in IEEE
    # arithmetic, so results never stray above 10.
    return {node: 10.0 * ((score - lo) / span) for node, score in raw.items()}


def _render(user_id: str, users: Mapping[str, UserRecord], privacy: bool) -> str:
    user = users.get(user_id)
    if user is None:
        return user_id
    if privacy and user.account_kind == "individual":
        return "Individual"
    return user.display_name or user.handle or user_id


def rank_tables(g: InteractionGraph, scaled_scores: Mapping[str, float],
                tweets: Sequence[TweetRecord], users: Mapping[str, UserRecord],
                k: int = 10, privacy: bool = True) -> list[tuple[int, str, str, str]]:
    """Ranked-account rows (rank, retweeted, pagerank, tweet_volume): the
    top-k accounts by times-retweeted, by scaled PageRank, and by authored
    tweet volume, each column sorted by its own metric, ties by user id. A
    column shorter than the table is padded with "". With privacy on,
    individual accounts render as "Individual".
    """
    retweeted = zip(g.ids, g.in_weights("retweet").tolist())
    volume: dict[str, int] = {}
    for t in tweets:
        volume[t.author_id] = volume.get(t.author_id, 0) + 1
    columns = [[_render(user_id, users, privacy) for user_id, _ in
                sorted(pairs, key=lambda kv: (-kv[1], kv[0]))[:k]]
               for pairs in (retweeted, scaled_scores.items(), volume.items())]
    return [(i + 1, *(column[i] if i < len(column) else "" for column in columns))
            for i in range(max(map(len, columns)))]
