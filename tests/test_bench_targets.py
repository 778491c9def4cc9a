"""The benchmark's span targets still name functions of the program.

`bench/spans.py` skips a target whose attribute is missing, so a refactor
that renames or deletes one silently zeroes the per-layer metrics built on
its span. This guard fails instead.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Targets that no longer resolve: the stage runner reads and writes its
# artifacts through echolens.artifacts, and parses an intermediate through the
# parser in pipeline._INTERMEDIATES, instead.
DEAD = {("echolens.pipeline", name) for name in (
    "_write_json", "_read_json", "_load_tweet_index", "_load_influence",
    "_load_community_members", "_load_clusters")}


def _resolves(mod_name, attr):
    mod = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and vars(cls).get(meth) is not None
    return getattr(mod, attr, None) is not None


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    unresolved = {(mod, attr) for mod, attr, _, _ in spans.TARGETS
                  if not _resolves(mod, attr)}
    assert unresolved <= DEAD, sorted(unresolved - DEAD)


def test_every_stage_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    pipeline = importlib.import_module("echolens.pipeline")
    assert tuple(layers.STAGES) == pipeline.STAGES
    for stage in layers.STAGES:
        assert callable(getattr(pipeline, f"stage_{stage}", None)), stage
