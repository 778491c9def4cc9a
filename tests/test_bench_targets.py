"""The benchmark's span targets still name functions the program calls.

`bench/spans.py` skips a target whose attribute is missing, so a refactor
that renames or deletes one silently zeroes the per-layer metrics built on
its span, and one that stops calling it zeroes them just as silently. These
guards fail instead.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from echolens.synth import write_fixture

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

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


def test_every_resolving_span_target_is_reached(monkeypatch, tmp_path):
    # A seed-7 `run` hands its intermediates on in-process; a lone `report`
    # stage afterwards parses them, so the two reach the parsers too.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    config = write_fixture(tmp_path / "fixture", seed=7, n_tweets=2000)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    reached = set()
    for command in ("run", "report"):
        dump = tmp_path / f"spans-{command}.json"
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(dump), command, "--",
                        command, "--config", str(config), "--out", str(tmp_path / "out")],
                       env=env, check=True, capture_output=True)
        reached |= {span[0] for span in json.loads(dump.read_text(encoding="utf-8"))["spans"]}
    wanted = {name for mod, attr, name, _ in spans.TARGETS if _resolves(mod, attr)}
    wanted |= {f"pipeline.stage.{stage}" for stage in layers.STAGES}
    assert sorted(wanted - reached) == []
