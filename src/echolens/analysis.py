"""Demographic-disproportionality metrics over topics and report assembly.

A representation ratio compares a demographic bucket's share inside one topic
to its share across the whole clustered corpus; 1 means proportional
representation. Ratios at or beyond the configured thresholds are flagged as
over- or under-represented. Report emission is a pure function of its inputs:
identical results and config produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import artifacts
from .demographics import DemographicAnnotation, DistributionResult
from .influence import RankTable
from .ingest import TweetRecord

__all__ = [
    "TopicEngagement",
    "RepresentationRow",
    "RepresentationReport",
    "topic_engagement",
    "representation_ratio",
    "disproportionality_report",
    "emit_reports",
    "ReportBundle",
]


@dataclass
class TopicEngagement:
    """Per-topic engagement counts split by demographic bucket.

    Engagement is authorship of a tweet assigned to the topic; with
    retweet weighting on, each tweet counts 1 + its retweet count.
    """

    cluster_id: int
    counts: dict[str, int] = field(default_factory=dict)
    unclassified: int = 0


def topic_engagement(assignments: Mapping[str, int], tweets: Sequence[TweetRecord],
                     annotations: Mapping[str, DemographicAnnotation], axis: str,
                     retweet_weighted: bool = False):
    """Aggregate engagement per (topic, bucket) along one demographic axis.

    Returns (engagements sorted by cluster id, corpus_counts). Tweets whose
    author has no annotation or a missing/unknown bucket value count as
    unclassified, never silently dropped.
    """
    per_topic: dict[int, TopicEngagement] = {}
    corpus_counts: dict[str, int] = {}
    by_id = {t.tweet_id: t for t in tweets}
    for tweet_id, cluster_id in assignments.items():
        tweet = by_id.get(tweet_id)
        if tweet is None:
            continue
        weight = 1 + tweet.retweets if retweet_weighted else 1
        eng = per_topic.setdefault(cluster_id, TopicEngagement(cluster_id=cluster_id))
        ann = annotations.get(tweet.author_id)
        bucket = getattr(ann, axis, None) if ann is not None else None
        if bucket is None or bucket == "unknown":
            eng.unclassified += weight
            continue
        eng.counts[bucket] = eng.counts.get(bucket, 0) + weight
        corpus_counts[bucket] = corpus_counts.get(bucket, 0) + weight
    engagements = [per_topic[cid] for cid in sorted(per_topic)]
    return engagements, corpus_counts


def representation_ratio(topic_counts: Mapping[str, int],
                         corpus_counts: Mapping[str, int], bucket: str) -> float | None:
    """(bucket share within topic) / (bucket share within corpus).

    Returns None (reported as missing) when the bucket has no corpus mass;
    a bucket absent from the topic yields 0.0.
    """
    corpus_total = sum(corpus_counts.values())
    if corpus_total <= 0:
        raise ValueError("corpus counts are empty")
    corpus_share = corpus_counts.get(bucket, 0) / corpus_total
    if corpus_share == 0.0:
        return None
    topic_total = sum(topic_counts.values())
    if topic_total == 0:
        return 0.0
    topic_share = topic_counts.get(bucket, 0) / topic_total
    return topic_share / corpus_share


@dataclass
class RepresentationRow:
    axis: str
    cluster_id: int
    bucket: str
    topic_share: float
    corpus_share: float
    ratio: float
    direction: str  # "over", "under", or ""


@dataclass
class RepresentationReport:
    rows: list[RepresentationRow] = field(default_factory=list)
    tau_hi: float = 1.25
    tau_lo: float = 0.8


def disproportionality_report(engagements: Sequence[TopicEngagement],
                              corpus_counts: Mapping[str, int], axis: str,
                              tau_hi: float = 1.25, tau_lo: float = 0.8) -> RepresentationReport:
    """Flag over-/under-represented (topic, bucket) pairs along one axis.

    Rows are sorted by |log ratio| descending (ratio 0 sorts first), ties by
    (cluster id, bucket), so output order is deterministic.
    """
    if not (tau_hi > 1.0 > tau_lo > 0.0):
        raise ValueError("thresholds must satisfy tau_hi > 1 > tau_lo > 0")
    corpus_total = sum(corpus_counts.values())
    rows: list[RepresentationRow] = []
    if corpus_total == 0:
        return RepresentationReport(rows=[], tau_hi=tau_hi, tau_lo=tau_lo)
    for eng in engagements:
        topic_total = sum(eng.counts.values())
        if topic_total == 0:
            continue
        for bucket in sorted(corpus_counts):
            ratio = representation_ratio(eng.counts, corpus_counts, bucket)
            if ratio is None:
                continue
            direction = ""
            if ratio >= tau_hi:
                direction = "over"
            elif ratio <= tau_lo:
                direction = "under"
            rows.append(RepresentationRow(
                axis=axis,
                cluster_id=eng.cluster_id,
                bucket=bucket,
                topic_share=eng.counts.get(bucket, 0) / topic_total,
                corpus_share=corpus_counts[bucket] / corpus_total,
                ratio=ratio,
                direction=direction,
            ))
    rows.sort(key=lambda r: (-(abs(math.log(r.ratio)) if r.ratio > 0 else math.inf),
                             r.cluster_id, r.bucket))
    return RepresentationReport(rows=rows, tau_hi=tau_hi, tau_lo=tau_lo)


# ---------------------------------------------------------------------------
# Report emission


@dataclass
class ReportBundle:
    """Everything the report stage writes, already computed upstream."""

    rank_table: RankTable
    continent_distribution: DistributionResult
    ethnicity_distribution: DistributionResult
    representation: RepresentationReport
    config_hash: str = ""
    seed: int = 0
    stage_counts: dict[str, int] = field(default_factory=dict)
    data_fixtures: dict[str, str] = field(default_factory=dict)


def _distribution_report(dist: DistributionResult):
    rows = [[bucket, count, repr(share)] for bucket, (count, share) in dist.buckets.items()]
    rows.append(["(missing)", dist.missing, ""])
    value = {
        "buckets": {b: {"count": c, "share": s} for b, (c, s) in dist.buckets.items()},
        "missing": dist.missing,
    }
    return ["bucket", "count", "share"], rows, value


def emit_reports(bundle: ReportBundle, out_dir: str | Path,
                 formats: set[str] = frozenset({"csv"})) -> list[str]:
    """Write the report set and its manifest into out_dir.

    Emits the ranked-account table, the continent and ethnicity
    distributions, the disproportionality report, and manifest.json carrying
    the config hash, seed, per-stage record counts, bundled-fixture hashes,
    and a checksum for every emitted file. Returns the manifest's file list.
    Rerunning with identical inputs produces byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    unknown = set(formats) - {"csv", "json"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")

    table, representation = bundle.rank_table, bundle.representation
    # (file stem, CSV header, CSV rows, JSON value) per report.
    reports = [
        ("rank_table", ["rank", "retweeted", "pagerank", "tweet_volume"], table.rows,
         [{"rank": rank, "retweeted": rt, "pagerank": pr, "tweet_volume": tv}
          for rank, rt, pr, tv in table.rows]),
        ("continent_distribution", *_distribution_report(bundle.continent_distribution)),
        ("ethnicity_distribution", *_distribution_report(bundle.ethnicity_distribution)),
        ("disproportionality",
         ["axis", "cluster_id", "bucket", "topic_share", "corpus_share", "ratio",
          "direction"],
         [[r.axis, r.cluster_id, r.bucket, repr(r.topic_share), repr(r.corpus_share),
           repr(r.ratio), r.direction] for r in representation.rows],
         {"tau_hi": representation.tau_hi, "tau_lo": representation.tau_lo,
          "rows": [vars(r) for r in representation.rows]}),
    ]
    written: list[Path] = []
    for stem, header, rows, value in reports:
        if "csv" in formats:
            written.append(out / f"{stem}.csv")
            artifacts.write_csv(written[-1], header, rows)
        if "json" in formats:
            written.append(out / f"{stem}.json")
            artifacts.write_json(written[-1], value)

    manifest = {
        "config_hash": bundle.config_hash,
        "seed": bundle.seed,
        "stage_counts": bundle.stage_counts,
        "data_fixtures": bundle.data_fixtures,
        "files": {p.name: artifacts.sha256(p) for p in sorted(written)},
    }
    manifest["files"]["manifest.json"] = None
    artifacts.write_json(out / "manifest.json", manifest)
    return sorted(manifest["files"])
