"""The benchmark's span targets still name functions the program calls.

`bench/spans.py` skips a target whose attribute is missing, so a refactor
that renames or deletes one silently zeroes the per-layer metrics built on
its span, and one that stops calling it zeroes them just as silently. These
guards fail instead. The graph workload's job is run too, on a tiny graph,
since it reads the results of the kernels it times.
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


def _child_env():
    """The environment of a bench script run as a child: echolens importable
    from this checkout's source."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_every_resolving_span_target_is_reached(monkeypatch, tmp_path):
    # A seed-7 `run` hands its intermediates on in-process; a lone `report`
    # stage afterwards parses them, so the two reach the parsers too.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    config = write_fixture(tmp_path / "fixture", seed=7, n_tweets=2000)
    reached = set()
    for command in ("run", "report"):
        dump = tmp_path / f"spans-{command}.json"
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(dump), command, "--",
                        command, "--config", str(config), "--out", str(tmp_path / "out")],
                       env=_child_env(), check=True, capture_output=True)
        reached |= {span[0] for span in json.loads(dump.read_text(encoding="utf-8"))["spans"]}
    wanted = {name for mod, attr, name, _ in spans.TARGETS if _resolves(mod, attr)}
    wanted |= {f"pipeline.stage.{stage}" for stage in layers.STAGES}
    assert sorted(wanted - reached) == []


def test_graph_job_runs_and_its_fingerprints_hold(monkeypatch, tmp_path):
    # bench/graph_job.py reads PageRank's scores, the scaled scores and the
    # gated labels; only the benchmark's own tests ran it before.
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    records, _ = gen.write_graph_records(
        tmp_path / "records", gen.GraphSpec(nodes=800, records=6000, blocks=4), seed=1)
    work, result = tmp_path / "work", tmp_path / "result.json"
    work.mkdir()
    subprocess.run([sys.executable, str(BENCH / "graph_job.py"), str(records), str(work),
                    str(result)], env=_child_env(), check=True, capture_output=True)
    res = json.loads(result.read_text(encoding="utf-8"))
    assert abs(res["pagerank_mass"] - 1.0) < 1e-9
    assert res["pagerank_iterations"] == 100
    assert res["communities_post_gate"] == 4
    assert res["scores_fp"] == "2899765262c5ab65a8af7b906e727c1d2492a3d57d8b7718a964aceea81520b5"
    assert res["labels_fp"] == "20611734820810c1bde03069c8056e1e9134460ea1515cacb9e60e61b1b610be"
