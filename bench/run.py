#!/usr/bin/env python3
"""echolens benchmark: one command for every workload and metric.

    python3 bench/run.py --workload {desk,graph,rerun,all} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding src/echolens).
The benchmark measures from outside: it generates the workload's inputs from
the seed (gen.py), then runs echolens in child processes, one at a time
(closed loop), for about S seconds, and checks every repetition's output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END); with
--trace 1 they are the per-layer ones (layers.PER_LAYER), taken from span
wrappers in separate traced repetitions. Lines before it give the machine,
the input properties, every metric with its unit and the output checksums.
`--workload all` runs every workload in turn and prints each one's block; its
last line then merges them, with metric names prefixed by the workload.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import layers  # noqa: E402

PY = sys.executable or "python3"
BLAS_THREADS = 1
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take
MIN_REPS = 3

END_TO_END = [
    ("wall_s", "s"),
    ("input_records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the smoke
# test to seconds. The full sizes are scaled so that every workload fits
# several repetitions into one run (see README.md, "Sizes").
SIZES = {
    "full": {
        "archive": gen.ArchiveSpec(tweets=20_000, users=2_000, communities=20,
                                   topics=16, vocab_per_topic=40),
        "graph": gen.GraphSpec(nodes=20_000, records=200_000, blocks=20),
        # (min community size, k): priming run, then every rerun repetition.
        "rerun_prime": (120, 8),
        "rerun_knobs": (20, 16),
    },
    "tiny": {
        "archive": gen.ArchiveSpec(tweets=900, users=150, communities=4, topics=4,
                                   vocab_per_topic=12, malformed_lines=4,
                                   min_community_size=10, k=6),
        "graph": gen.GraphSpec(nodes=800, records=6_000, blocks=4),
        "rerun_prime": (10, 6),
        "rerun_knobs": (6, 4),
    },
}


class SetupError(RuntimeError):
    pass


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int


@dataclass
class Rep:
    wall: float
    rss_mb: float
    ok: bool
    traced: bool
    layers: dict = field(default_factory=dict)
    dumps: list = field(default_factory=list)
    note: str = ""


class Context:
    """Paths, child environment and the run's hard deadline."""

    def __init__(self, workload: str, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]
        self.work = ROOT / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
        })
        self.log = self.work / "children.log"

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; peak RSS comes from os.wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SetupError("run deadline reached")
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_checksums(out: Path) -> dict[str, str] | None:
    """sha256 of manifest.json and of every file it lists, recomputed from
    the files. None when the manifest is missing or disagrees with a file."""
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return None
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    sums = {"manifest.json": _sha256(manifest_path)}
    for name, recorded in manifest.get("files", {}).items():
        if name == "manifest.json":
            continue
        path = out / name
        if not path.exists():
            return None
        sums[name] = _sha256(path)
        if sums[name] != recorded:
            return None
    return sums


def _file_states(out: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in out.iterdir() if p.is_file()}


def _written_bytes(before: dict, out: Path) -> int:
    after = _file_states(out)
    return sum(size for name, (size, mtime) in after.items()
               if before.get(name) != (size, mtime))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class CliWorkload:
    """Shared child handling for the workloads that drive the echolens CLI."""

    def cli(self, ctx: Context, args: list, traced: bool, tag: str):
        """Run `echolens <args>`; returns (Child, span dump or None)."""
        if not traced:
            return ctx.spawn([PY, "-m", "echolens.cli", *args]), None
        spans_path = ctx.work / f"spans-{tag}.json"
        child = ctx.spawn([PY, BENCH / "traced_cli.py", spans_path, tag, "--", *args])
        if child.code != 0 or not spans_path.exists():
            return child, None
        dump = _read_json(spans_path)
        main = [s for s in dump["spans"] if s[0] == "cli.main"]
        dump["startup_s"] = child.wall - (main[0][2] - main[0][1] if main else 0.0)
        spans_path.unlink()
        return child, dump


class Desk(CliWorkload):
    """One `echolens run` from the raw archive into a fresh directory."""

    setup_reps = 5

    def setup(self, ctx: Context) -> dict:
        spec = ctx.size["archive"]
        config, props = gen.write_archive(ctx.work / "input", spec, ctx.seed)
        return {"config": config, "records": props["raw_tweets"], "props": props,
                "inputs": {}, "reference": None}

    def rep(self, ctx, st, i, traced, tamper=None) -> Rep:
        out = ctx.work / f"rep{i}"
        child, dump = self.cli(ctx, ["run", "--config", st["config"], "--out", out],
                               traced, f"desk-rep{i}")
        if tamper:
            tamper(out)
        sums = report_checksums(out) if child.code == 0 else None
        if st["reference"] is None and sums is not None:
            st["reference"] = sums
            st["inputs"] = _pipeline_inputs(out)
        ok = sums is not None and sums == st["reference"] and (dump is not None or not traced)
        rep = Rep(child.wall, child.rss_mb, ok, traced,
                  note=f"exit {child.code}" if child.code else "")
        if traced and dump is not None:
            rep.dumps = [dump]
            rep.layers = layers.rep_metrics(rep.dumps)
            rep.layers["pipeline.artifact_bytes"] = _written_bytes({}, out)
            _add_ingest_counts(rep.layers, out)
        shutil.rmtree(out, ignore_errors=True)
        return rep


class Rerun(CliWorkload):
    """communities, topics and report as three processes on a fresh copy of
    primed intermediates, with knobs that differ from the priming run."""

    setup_reps = 2

    def setup(self, ctx: Context) -> dict:
        spec = ctx.size["archive"]
        config, props = gen.write_archive(ctx.work / "input", spec, ctx.seed)
        (prime_min, prime_k), (min_size, k) = ctx.size["rerun_prime"], ctx.size["rerun_knobs"]
        prime, ref = ctx.work / "prime", ctx.work / "ref"
        for path in (prime, ref):
            shutil.rmtree(path, ignore_errors=True)
        knobs = ["--min-community-size", min_size, "--k", k]
        for out, args in ((prime, ["--min-community-size", prime_min, "--k", prime_k]),
                          (ref, knobs)):
            child = ctx.spawn([PY, "-m", "echolens.cli", "run", "--config", config,
                               "--out", out, *args])
            if child.code != 0:
                raise SetupError(f"priming run into {out.name} exited {child.code}")
        reference = report_checksums(ref)
        if reference is None:
            raise SetupError("reference run wrote no consistent manifest")
        return {"config": config, "records": props["raw_tweets"], "props": props,
                "knobs": knobs, "prime": prime, "reference": reference,
                "inputs": _pipeline_inputs(ref)}

    def rep(self, ctx, st, i, traced, tamper=None) -> Rep:
        out = ctx.work / f"rep{i}"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(st["prime"], out, copy_function=shutil.copyfile)
        before = _file_states(out)
        wall, rss, ok, dumps, notes = 0.0, 0.0, True, [], []
        for stage in ("communities", "topics", "report"):
            child, dump = self.cli(ctx, [stage, "--config", st["config"], "--out", out,
                                         *st["knobs"]], traced, f"rerun-rep{i}-{stage}")
            wall += child.wall
            rss = max(rss, child.rss_mb)
            if child.code != 0 or (traced and dump is None):
                ok = False
                notes.append(f"{stage} exit {child.code}")
                break
            if dump is not None:
                dumps.append(dump)
        if tamper:
            tamper(out)
        ok = ok and report_checksums(out) == st["reference"]
        rep = Rep(wall, rss, ok, traced, dumps=dumps, note="; ".join(notes))
        if traced and ok:
            rep.layers = layers.rep_metrics(dumps)
            rep.layers["pipeline.artifact_bytes"] = _written_bytes(before, out)
        shutil.rmtree(out, ignore_errors=True)
        return rep


class Graph:
    """Graph kernels on an interaction-record table, in one child process."""

    setup_reps = 5

    def setup(self, ctx: Context) -> dict:
        spec = ctx.size["graph"]
        path, props = gen.write_graph_records(ctx.work / "input", spec, ctx.seed)
        return {"records_path": path, "records": props["records"], "props": props,
                "inputs": {}, "reference": None}

    def rep(self, ctx, st, i, traced, tamper=None) -> Rep:
        job = ctx.work / f"rep{i}"
        job.mkdir(parents=True, exist_ok=True)
        result_path, spans_path = job / "result.json", job / "spans.json"
        argv = [PY, BENCH / "graph_job.py", st["records_path"], job, result_path]
        if traced:
            argv += [spans_path, f"graph-rep{i}"]
        child = ctx.spawn(argv)
        if tamper:
            tamper(job)
        rep = Rep(child.wall, child.rss_mb, False, traced,
                  note=f"exit {child.code}" if child.code else "")
        if child.code == 0 and result_path.exists():
            res = _read_json(result_path)
            rep.wall = res["wall_s"]
            fingerprint = (res["scores_fp"], res["labels_fp"])
            if st["reference"] is None:
                st["reference"] = fingerprint
                st["inputs"] = {"communities_post_gate": res["communities_post_gate"]}
                st["checksums"] = dict(zip(("scores", "labels"), fingerprint))
            rep.ok = (abs(res["pagerank_mass"] - 1.0) <= 1e-9
                      and res["pagerank_iterations"] == 100
                      and fingerprint == st["reference"])
            if traced and spans_path.exists():
                rep.dumps = [_read_json(spans_path)]
                rep.layers = layers.rep_metrics(rep.dumps)
                rep.layers["pipeline.artifact_bytes"] = _written_bytes({}, job)
            elif traced:
                rep.ok = False
        shutil.rmtree(job, ignore_errors=True)
        return rep


WORKLOADS = {"desk": Desk, "graph": Graph, "rerun": Rerun}


def _pipeline_inputs(out: Path) -> dict:
    """Input properties the layers depend on, as the program reported them."""
    ingest, graph_stats, topic = (_read_json(out / f) for f in
                                  ("ingest_stats.json", "graph_stats.json",
                                   "topic_stats.json"))
    with open(out / "topic_clusters.csv", encoding="utf-8") as fh:
        k = sum(1 for _ in fh) - 1
    return {"selected_tweets": ingest["records_kept"],
            "studied_tweets": topic["clustered_tweets"],
            "graph_nodes": graph_stats["nodes"], "graph_edges": graph_stats["edges"],
            "k": k}


def _add_ingest_counts(values: dict, out: Path) -> None:
    stats = _read_json(out / "ingest_stats.json")
    values["ingest.records_read"] = stats["records_read"]
    values["ingest.records_kept"] = stats["records_kept"]
    values["ingest.records_rejected"] = stats["records_rejected"]


def machine() -> dict:
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def check_checkout(ctx: Context) -> None:
    """Fail unless echolens imports from this checkout's src/; the import also
    leaves compiled bytecode behind, so no repetition pays for compiling."""
    if not (ROOT / "src" / "echolens" / "cli.py").is_file():
        raise SetupError(f"no echolens sources under {ROOT / 'src'}")
    probe = ctx.work / "probe.txt"
    child = ctx.spawn([PY, "-c", "import pathlib, echolens.cli; pathlib.Path("
                       f"{str(probe)!r}).write_text(echolens.cli.__file__)"])
    if child.code != 0 or not probe.exists():
        raise SetupError("echolens does not import from the checkout")
    if not Path(probe.read_text()).resolve().is_relative_to(ROOT / "src"):
        raise SetupError("echolens imports from outside the checkout")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        tamper=None) -> dict:
    """Set up, measure and check one workload; returns the result object.

    tamper(rep_index, output_dir), when given, runs after each repetition's
    children and before its output check (used by the smoke test).
    """
    ctx = Context(workload, seed, size)
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        check_checkout(ctx)
        wl = WORKLOADS[workload]()
        setup_times = []
        for _ in range(wl.setup_reps):
            start = time.perf_counter()
            state = wl.setup(ctx)
            setup_times.append(time.perf_counter() - start)

        reps: list[Rep] = []
        start = time.monotonic()
        while True:
            i = len(reps)
            t0 = time.monotonic()
            # Traced runs alternate untraced and traced repetitions, so the
            # tracing overhead is measured against the same run's wall time.
            hook = (lambda out, i=i: tamper(i, out)) if tamper else None
            reps.append(wl.rep(ctx, state, i, traced=trace and i % 2 == 1, tamper=hook))
            now = time.monotonic()
            if len(reps) >= (2 if trace else MIN_REPS) and now - start + (now - t0) > seconds:
                break
        if trace:
            # Spans were kept in memory; write them out once, next to the
            # work directory, so they survive its removal.
            (ctx.work.parent / f"trace-{workload}-s{seed}.json").write_text(json.dumps(
                [{"rep": i, **d} for i, r in enumerate(reps) for d in r.dumps]))
        if not all(r.ok for r in reps):
            # Keep the evidence: the children's output goes away with the
            # work directory.
            tail = ctx.log.read_text(errors="replace").splitlines()[-20:]
            print("\n".join(["children's output (last lines):", *tail]), file=sys.stderr)
        return summarize(workload, seed, trace, state, reps, setup_times)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload, seed, trace, state, reps, setup_times) -> dict:
    for r in reps:
        if r.layers.get("trace.nesting_violations"):
            r.ok, r.note = False, "child spans cover more time than their parent"
    failed = sum(1 for r in reps if not r.ok)
    good = [r for r in reps if r.ok and not r.traced]
    walls = [r.wall for r in good]
    e2e = {
        "wall_s": _median(walls),
        "input_records_per_s": _median([state["records"] / w for w in walls if w > 0]),
        "peak_rss_mb": max((r.rss_mb for r in good), default=0.0),
        "setup_s": _median(setup_times),
    }
    lines = [f"# workload {workload} seed {seed} trace {int(trace)}",
             "# machine " + json.dumps(machine(), sort_keys=True),
             "# inputs " + json.dumps({**state["props"], **state["inputs"]},
                                      sort_keys=True),
             f"# setup_s samples {json.dumps([round(t, 4) for t in setup_times])}",
             f"# wall_s samples {json.dumps([round(w, 4) for w in walls])}"]
    for r in reps:
        if not r.ok:
            lines.append(f"# failed repetition: {r.note or 'output check failed'}")
    checksums = state.get("checksums") or state.get("reference")
    lines.append("# checksums " + json.dumps(checksums, sort_keys=True))
    units = dict(END_TO_END)
    for name, value in e2e.items():
        lines.append(f"{name} {value:.6g} {units[name]} (median of {len(walls)})"
                     if name == "wall_s" else f"{name} {value:.6g} {units[name]}")
    lines.append(f"error_rate {failed / len(reps):.6g} ratio ({failed}/{len(reps)})")

    correct = failed == 0
    if trace:
        traced = [r for r in reps if r.traced and r.ok]
        per_layer = {name: _median([r.layers[name] for r in traced]) for name, _ in layers.PER_LAYER}
        per_layer["trace.wall_s"] = _median([r.wall for r in traced])
        per_layer["trace.untraced_wall_s"] = e2e["wall_s"]
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - e2e["wall_s"]
        correct = correct and bool(traced)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.PER_LAYER}
        for name, unit in layers.PER_LAYER:
            lines.append(f"{name} {per_layer[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {"lines": lines,
            "result": {"correct": correct, "attempted": len(reps), "failed": failed,
                       "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: the running child is killed and reaped
    # and the work directory removed (see Context.spawn and run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            out = run(name, args.seed, args.seconds, bool(args.trace), args.size)
        except SetupError as exc:
            print(f"benchmark set-up failed: {exc}", file=sys.stderr)
            return 2
        print("\n".join(out["lines"]))
        result = out["result"]
        if len(names) == 1:
            merged = result
            break
        print(json.dumps(result, sort_keys=True))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
