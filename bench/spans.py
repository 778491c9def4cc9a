"""Span recording from outside the program.

`instrument` replaces selected echolens functions with wrappers that record a
span (name, start, end, parent) around each call. Every module-level
reference to a wrapped function is replaced, including names imported into
other modules (pipeline imports `read_edge_csv` by name) and values of
module-level dicts (the pipeline's stage table), so the wrapper sits wherever
the program actually calls through. Spans stay in memory and are written out
once, by `Recorder.dump`, when the traced process ends.

This module imports no echolens code at import time and nothing beyond the
standard library and layers.py, so importing it does not move the measured
import cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from layers import STAGES

perf = time.perf_counter


class Recorder:
    """In-memory span list for one process; spans are [name, start, end,
    parent_index, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Wrap fn so each call records a span named name. attrs, if given,
        maps (result, args) to a dict stored on the span after its end time
        is taken."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, perf(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf()
                stack.pop()
            if attrs is not None:
                entry[4] = attrs(result, args)
            return result

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def dump(self, path, extra=None) -> None:
        payload = {"run_id": self.run_id, "spans": self.spans}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _graph_attrs(result, args):
    g = result[0] if isinstance(result, tuple) else result
    return {"nodes": len(g), "edges": g.num_edges()}


def _pagerank_attrs(result, args):
    return {"iters": result.iterations, "converged": result.converged}


def _lp_attrs(result, args):
    return {"rounds": result.iterations_run, "converged": result.converged}


def _gate_attrs(result, args):
    return {"pre": len(args[0].communities), "post": len(result.communities)}


def _annotate_attrs(result, args):
    return {"eligible": sum(1 for a in result.values() if a.eligible_youth)}


def _kmeans_attrs(result, args):
    k = int(args[1])
    used = len(set(int(a) for a in result.assignments))
    return {"iters": result.iterations, "converged": result.converged,
            "nonempty_ratio": used / k, "points": len(result.assignments)}


def _transform_attrs(result, args):
    texts = args[1]
    distinct = len({tuple(t.tokens) for t in texts})
    return {"texts": len(texts), "distinct": distinct}


# (module, attribute, span name, attrs). Dotted attributes name a method on a
# class. Missing attributes are skipped, so a refactor that removes a private
# helper drops its span instead of breaking the run.
TARGETS = [
    ("echolens.pipeline", "run_pipeline", "pipeline.run", None),
    ("echolens.ingest", "parse_corpus", "read.parse_corpus", None),
    ("echolens.ingest", "select_streams", "ingest.select", None),
    ("echolens.ingest", "engagement_filter", "ingest.filter", None),
    ("echolens.ingest", "write_ndjson", "write.ndjson", None),
    ("echolens.graph", "build_interaction_graph", "graph.build", _graph_attrs),
    ("echolens.graph", "InteractionGraph.from_weighted_edges", "graph.build", _graph_attrs),
    ("echolens.graph", "read_edge_csv", "read.edge_csv", None),
    ("echolens.graph", "write_edge_csv", "write.edge_csv", None),
    ("echolens.graph", "write_node_list", "write.node_list", None),
    ("echolens.influence", "pagerank", "influence.pagerank", _pagerank_attrs),
    ("echolens.influence", "scale_scores", "influence.scale_scores", None),
    ("echolens.influence", "rank_tables", "influence.rank_tables", None),
    ("echolens.community", "node_importance", "community.importance", None),
    ("echolens.community", "label_propagation", "community.lp", _lp_attrs),
    ("echolens.community", "gate_communities", "community.gate", _gate_attrs),
    ("echolens.community", "flag_offtopic", "community.flag_offtopic", None),
    ("echolens.community", "write_review_flags", "write.review_flags", None),
    ("echolens.demographics", "annotate_users", "demographics.annotate", _annotate_attrs),
    ("echolens.demographics", "write_annotations", "write.annotations", None),
    ("echolens.demographics", "read_annotations", "read.annotations", None),
    ("echolens.topics", "normalize_text", "topics.normalize", None),
    ("echolens.topics", "BuiltinEmbedder.fit", "topics.embed_fit", None),
    ("echolens.topics", "BuiltinEmbedder.transform_many", "topics.embed_transform", _transform_attrs),
    ("echolens.topics", "cluster", "topics.kmeans", _kmeans_attrs),
    ("echolens.topics", "word_idf", "topics.word_idf", None),
    ("echolens.topics", "top_terms", "topics.top_terms", None),
    ("echolens.topics", "silhouette", "topics.silhouette", None),
    ("echolens.topics", "write_assignments", "write.assignments", None),
    ("echolens.topics", "write_cluster_csv", "write.cluster_csv", None),
    ("echolens.topics", "read_assignments", "read.assignments", None),
    ("echolens.analysis", "topic_engagement", "analysis.engagement", None),
    ("echolens.analysis", "disproportionality_report", "analysis.disproportionality", None),
    ("echolens.analysis", "emit_reports", "analysis.emit", None),
    # Inline artifact I/O in the stage runner.
    ("echolens.pipeline", "_write_json", "write.json", None),
    ("echolens.pipeline", "_read_json", "read.json", None),
    ("echolens.pipeline", "_load_tweet_index", "read.tweet_index", None),
    ("echolens.pipeline", "_load_influence", "read.influence", None),
    ("echolens.pipeline", "_load_community_members", "read.members", None),
    ("echolens.pipeline", "_load_clusters", "read.clusters", None),
]


def _replace_everywhere(original, wrapper) -> None:
    """Point every module-level reference to original (attribute or dict
    value) in loaded echolens modules at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "echolens" or mod_name.startswith("echolens.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def instrument(rec: Recorder) -> None:
    """Install span wrappers on every target that exists."""
    for mod_name in ("echolens.pipeline", "echolens.cli"):
        importlib.import_module(mod_name)
    for mod_name, attr, name, attrs in TARGETS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(name, raw.__func__, attrs)))
            else:
                setattr(cls, meth, rec.wrap(name, raw, attrs))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            continue
        _replace_everywhere(original, rec.wrap(name, original, attrs))
    pipeline = sys.modules["echolens.pipeline"]
    for stage in STAGES:
        original = getattr(pipeline, f"stage_{stage}", None)
        if original is not None:
            _replace_everywhere(original, rec.wrap(f"pipeline.stage.{stage}", original))
