"""Demographic-disproportionality metrics over topics and report assembly.

Engagement is counted once per tweet for every axis (gender, race,
continent), as plain {cluster_id: {bucket: count}} dicts beside the corpus
counts. A representation ratio compares a demographic bucket's share inside
one topic to its share across the whole clustered corpus; 1 means
proportional representation. Ratios at or beyond the configured thresholds
are flagged as over- or under-represented. Report emission is a pure
function of its inputs: identical results and config produce byte-identical
files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import artifacts
from .demographics import DemographicAnnotation
from .ingest import TweetRecord

__all__ = [
    "RepresentationRow",
    "topic_engagement",
    "disproportionality_report",
    "emit_reports",
]


def topic_engagement(assignments: Mapping[str, int], tweets: Sequence[TweetRecord],
                     annotations: Mapping[str, DemographicAnnotation],
                     retweet_weighted: bool = False
                     ) -> dict[str, tuple[dict[int, dict[str, int]], dict[str, int]]]:
    """Aggregate engagement per (topic, bucket) along every axis in one pass.

    Returns {axis: ({cluster_id: {bucket: count}}, corpus_counts)}.
    Engagement is authorship of a tweet assigned to the topic; with retweet
    weighting on, each tweet counts 1 + its retweet count. A tweet whose
    author has no annotation, or a missing or unknown value on an axis,
    counts on no bucket of that axis.
    """
    engagement = {axis: ({}, {}) for axis in ("gender", "race", "continent")}
    by_id = {t.tweet_id: t for t in tweets}
    for tweet_id, cluster_id in assignments.items():
        tweet = by_id.get(tweet_id)
        if tweet is None:
            continue
        ann = annotations.get(tweet.author_id)
        if ann is None:
            continue
        weight = 1 + tweet.retweets if retweet_weighted else 1
        for axis, (per_topic, corpus_counts) in engagement.items():
            bucket = getattr(ann, axis)
            if bucket is None or bucket == "unknown":
                continue
            counts = per_topic.setdefault(cluster_id, {})
            counts[bucket] = counts.get(bucket, 0) + weight
            corpus_counts[bucket] = corpus_counts.get(bucket, 0) + weight
    return engagement


@dataclass
class RepresentationRow:
    axis: str
    cluster_id: int
    bucket: str
    topic_share: float
    corpus_share: float
    ratio: float  # topic_share / corpus_share
    direction: str  # "over", "under", or ""


def disproportionality_report(
        engagement: Mapping[str, tuple[Mapping[int, Mapping[str, int]], Mapping[str, int]]],
        tau_hi: float = 1.25, tau_lo: float = 0.8) -> list[RepresentationRow]:
    """Flag over-/under-represented (topic, bucket) pairs on every axis of
    `topic_engagement`'s result.

    One row per axis, topic and bucket with corpus mass, for every topic
    with mass on that axis; a bucket absent from the topic has ratio 0.
    Rows are sorted by |log ratio| descending (ratio 0 sorts first), ties by
    (axis, cluster id, bucket), so output order is deterministic.
    """
    if not (tau_hi > 1.0 > tau_lo > 0.0):
        raise ValueError("thresholds must satisfy tau_hi > 1 > tau_lo > 0")
    rows: list[RepresentationRow] = []
    for axis, (per_topic, corpus_counts) in engagement.items():
        corpus_total = sum(corpus_counts.values())
        for cluster_id, counts in per_topic.items():
            topic_total = sum(counts.values())
            if topic_total == 0:
                continue
            for bucket, corpus_count in corpus_counts.items():
                if corpus_count == 0:
                    continue
                topic_share = counts.get(bucket, 0) / topic_total
                corpus_share = corpus_count / corpus_total
                ratio = topic_share / corpus_share
                direction = ""
                if ratio >= tau_hi:
                    direction = "over"
                elif ratio <= tau_lo:
                    direction = "under"
                rows.append(RepresentationRow(axis, cluster_id, bucket, topic_share,
                                              corpus_share, ratio, direction))
    rows.sort(key=lambda r: (-(abs(math.log(r.ratio)) if r.ratio > 0 else math.inf),
                             r.axis, r.cluster_id, r.bucket))
    return rows


# ---------------------------------------------------------------------------
# Report emission


def _distribution_report(buckets: Mapping[str, tuple[int, float]], missing: int):
    rows = [[bucket, count, repr(share)] for bucket, (count, share) in buckets.items()]
    rows.append(["(missing)", missing, ""])
    value = {
        "buckets": {b: {"count": c, "share": s} for b, (c, s) in buckets.items()},
        "missing": missing,
    }
    return ["bucket", "count", "share"], rows, value


def emit_reports(out_dir: str | Path, formats: set[str],
                 rank_table: Sequence[tuple[int, str, str, str]],
                 continent_distribution: tuple[Mapping, int],
                 ethnicity_distribution: tuple[Mapping, int],
                 representation: Sequence[RepresentationRow], tau_hi: float, tau_lo: float,
                 manifest: Mapping) -> list[str]:
    """Write the report set and its manifest into out_dir.

    Emits the ranked-account table, the continent and ethnicity
    distributions as demographic_distribution gives them, the
    disproportionality report, and manifest.json: the manifest's entries
    (config hash, seed, per-stage record counts, bundled-fixture hashes) and
    a checksum for every emitted file. Returns the manifest's file list.
    Rerunning with identical inputs produces byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    unknown = set(formats) - {"csv", "json"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")

    # (file stem, CSV header, CSV rows, JSON value) per report.
    reports = [
        ("rank_table", ["rank", "retweeted", "pagerank", "tweet_volume"], rank_table,
         [{"rank": rank, "retweeted": rt, "pagerank": pr, "tweet_volume": tv}
          for rank, rt, pr, tv in rank_table]),
        ("continent_distribution", *_distribution_report(*continent_distribution)),
        ("ethnicity_distribution", *_distribution_report(*ethnicity_distribution)),
        ("disproportionality",
         ["axis", "cluster_id", "bucket", "topic_share", "corpus_share", "ratio",
          "direction"],
         [[r.axis, r.cluster_id, r.bucket, repr(r.topic_share), repr(r.corpus_share),
           repr(r.ratio), r.direction] for r in representation],
         {"tau_hi": tau_hi, "tau_lo": tau_lo,
          "rows": [vars(r) for r in representation]}),
    ]
    written: list[Path] = []
    for stem, header, rows, value in reports:
        if "csv" in formats:
            written.append(out / f"{stem}.csv")
            artifacts.write_csv(written[-1], header, rows)
        if "json" in formats:
            written.append(out / f"{stem}.json")
            artifacts.write_json(written[-1], value)

    files = {p.name: artifacts.sha256(p) for p in sorted(written)}
    files["manifest.json"] = None
    artifacts.write_json(out / "manifest.json", {**manifest, "files": files})
    return sorted(files)
