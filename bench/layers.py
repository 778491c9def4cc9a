"""Per-layer metrics from recorded spans.

A repetition's trace is a list of span dumps, one per traced child process
(see spans.py). Every metric here is derived from span names, span nesting and
the attributes recorded on a span; PER_LAYER is the single list of names and
units the benchmark reports with --trace 1.
"""

from __future__ import annotations

STAGES = ("ingest", "graph", "communities", "influence", "demographics",
          "topics", "report")

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.startup_s", "s"),
    *[(f"pipeline.stage.{s}_s", "s") for s in STAGES],
    ("pipeline.self_s", "s"),
    ("pipeline.intermediate_parses", "count"),
    ("pipeline.artifact_read_s", "s"),
    ("pipeline.artifact_write_s", "s"),
    ("pipeline.artifact_bytes", "bytes"),
    ("ingest.parse_s", "s"),
    ("ingest.select_s", "s"),
    ("ingest.filter_s", "s"),
    ("ingest.records_read", "count"),
    ("ingest.records_kept", "count"),
    ("ingest.records_rejected", "count"),
    ("graph.build_s", "s"),
    ("graph.write_s", "s"),
    ("graph.read_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("influence.pagerank_s", "s"),
    ("influence.pagerank_iters", "count"),
    ("influence.pagerank_converged", "bool"),
    ("influence.scale_scores_s", "s"),
    ("influence.rank_tables_s", "s"),
    ("community.importance_s", "s"),
    ("community.lp_s", "s"),
    ("community.lp_rounds", "count"),
    ("community.lp_converged", "bool"),
    ("community.communities_pre_gate", "count"),
    ("community.communities_post_gate", "count"),
    ("community.flag_offtopic_s", "s"),
    ("demographics.annotate_s", "s"),
    ("demographics.eligible_users", "count"),
    ("topics.normalize_s", "s"),
    ("topics.embed_fit_s", "s"),
    ("topics.embed_transform_s", "s"),
    ("topics.kmeans_s", "s"),
    ("topics.kmeans_iters", "count"),
    ("topics.kmeans_converged", "bool"),
    ("topics.nonempty_cluster_ratio", "ratio"),
    ("topics.top_terms_s", "s"),
    ("topics.word_idf_s", "s"),
    ("topics.silhouette_s", "s"),
    ("topics.studied_tweets", "count"),
    ("topics.distinct_text_ratio", "ratio"),
    ("analysis.engagement_s", "s"),
    ("analysis.disproportionality_s", "s"),
    ("analysis.emit_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.nesting_violations", "count"),
]

# Kernels whose time is summed by span name: span name -> metric.
_SUMS = {
    "ingest.select": "ingest.select_s",
    "ingest.filter": "ingest.filter_s",
    "influence.pagerank": "influence.pagerank_s",
    "influence.scale_scores": "influence.scale_scores_s",
    "influence.rank_tables": "influence.rank_tables_s",
    "community.importance": "community.importance_s",
    "community.lp": "community.lp_s",
    "community.flag_offtopic": "community.flag_offtopic_s",
    "demographics.annotate": "demographics.annotate_s",
    "topics.normalize": "topics.normalize_s",
    "topics.embed_fit": "topics.embed_fit_s",
    "topics.embed_transform": "topics.embed_transform_s",
    "topics.kmeans": "topics.kmeans_s",
    "topics.top_terms": "topics.top_terms_s",
    "topics.word_idf": "topics.word_idf_s",
    "topics.silhouette": "topics.silhouette_s",
    "analysis.engagement": "analysis.engagement_s",
    "analysis.disproportionality": "analysis.disproportionality_s",
    "analysis.emit": "analysis.emit_s",
    "read.edge_csv": "graph.read_s",
}


def _nearest(spans, i, pred):
    """Nearest strict ancestor of span i whose name satisfies pred, or None."""
    p = spans[i][3]
    while p >= 0:
        if pred(spans[p][0]):
            return spans[p][0]
        p = spans[p][3]
    return None


def _self_time(spans, children, i) -> float:
    start, end = spans[i][1], spans[i][2]
    covered, cursor = 0.0, start
    for c in sorted(children[i], key=lambda c: spans[c][1]):
        lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def _children(spans):
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    return children


def nesting_violations(spans) -> int:
    """Spans whose direct children cover more time than the span itself."""
    children = _children(spans)
    bad = 0
    for i, s in enumerate(spans):
        kids = sum(spans[c][2] - spans[c][1] for c in children[i])
        if kids > (s[2] - s[1]) + 1e-6:
            bad += 1
    return bad


def rep_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer values for one repetition, summed over its traced processes."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for dump in dumps:
        spans = dump["spans"]
        children = _children(spans)
        out["cli.import_s"] += dump.get("import_s", 0.0)
        out["cli.startup_s"] += dump.get("startup_s", 0.0)
        out["trace.spans"] += len(spans)
        out["trace.nesting_violations"] += nesting_violations(spans)
        graph_attrs = None
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            if name in _SUMS:
                out[_SUMS[name]] += dur
            stage = _nearest(spans, i, lambda n: n.startswith("pipeline.stage."))
            if name.startswith("pipeline.stage."):
                out[name + "_s"] += dur
            if name == "pipeline.run" or name.startswith("pipeline.stage."):
                out["pipeline.self_s"] += _self_time(spans, children, i)
            if name.startswith("read.") and not _nearest(spans, i, lambda n: n.startswith("read.")):
                if name == "read.parse_corpus" and stage in (None, "pipeline.stage.ingest"):
                    out["ingest.parse_s"] += dur
                else:
                    out["pipeline.intermediate_parses"] += 1
                    out["pipeline.artifact_read_s"] += dur
            if name.startswith("write.") and not _nearest(spans, i, lambda n: n.startswith("write.")):
                out["pipeline.artifact_write_s"] += dur
                if name in ("write.edge_csv", "write.node_list"):
                    out["graph.write_s"] += dur
            if name == "graph.build":
                if not _nearest(spans, i, lambda n: n.startswith("read.")):
                    out["graph.build_s"] += dur
                graph_attrs = graph_attrs or attrs
            if attrs is None:
                continue
            if name == "influence.pagerank":
                out["influence.pagerank_iters"] = attrs["iters"]
                out["influence.pagerank_converged"] = float(attrs["converged"])
            elif name == "community.lp":
                out["community.lp_rounds"] = attrs["rounds"]
                out["community.lp_converged"] = float(attrs["converged"])
            elif name == "community.gate":
                out["community.communities_pre_gate"] = attrs["pre"]
                out["community.communities_post_gate"] = attrs["post"]
            elif name == "demographics.annotate":
                out["demographics.eligible_users"] = attrs["eligible"]
            elif name == "topics.kmeans":
                out["topics.kmeans_iters"] = attrs["iters"]
                out["topics.kmeans_converged"] = float(attrs["converged"])
                out["topics.nonempty_cluster_ratio"] = attrs["nonempty_ratio"]
                out["topics.studied_tweets"] = attrs["points"]
            elif name == "topics.embed_transform" and attrs["texts"]:
                out["topics.distinct_text_ratio"] = attrs["distinct"] / attrs["texts"]
        if graph_attrs:
            out["graph.nodes"] = graph_attrs["nodes"]
            out["graph.edges"] = graph_attrs["edges"]
    return out
