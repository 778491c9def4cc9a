"""Graph-kernel job: one child process of the `graph` workload.

Usage: python3 bench/graph_job.py RECORDS_NPZ WORK_DIR RESULT_JSON [SPANS_JSON RUN_ID]

Turns the generated interaction records into (src, dst, retweets, replies)
tuples (untimed), then times the kernel chain the pipeline's graph,
communities and influence stages are made of: build, edge/node write, read
back, PageRank forced to 100 iterations, score scaling, node importance,
label propagation and the size gate. Writes the job time, the PageRank mass
and fingerprints of scores and labels to RESULT_JSON. With SPANS_JSON the
kernels run under span wrappers.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

MIN_COMMUNITY_SIZE = 120
LP_SEED = 1


def _fingerprint(items) -> str:
    h = hashlib.sha256()
    for key, value in items:
        h.update(f"{key}\t{value!r}\n".encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    records_path, work, result_path, *trace = sys.argv[1:]
    work = Path(work)
    data = np.load(records_path)
    n = int(data["nodes"])
    names = [f"u{i:06d}" for i in range(n)]
    edges = [(names[s], names[d], 1, 0) if rt else (names[s], names[d], 0, 1)
             for s, d, rt in zip(data["src"].tolist(), data["dst"].tolist(),
                                 data["retweet"].tolist())]

    start = time.perf_counter()
    import echolens.community as community
    import echolens.graph as graph
    import echolens.influence as influence
    import_s = time.perf_counter() - start
    rec = None
    if trace:
        import spans
        rec = spans.Recorder(trace[1])
        spans.instrument(rec)

    def job():
        g = graph.InteractionGraph.from_weighted_edges(edges, nodes=names)
        graph.write_edge_csv(g, work / "graph_edges.csv")
        graph.write_node_list(g, work / "graph_nodes.txt")
        g = graph.read_edge_csv(work / "graph_edges.csv", work / "graph_nodes.txt")
        pr = influence.pagerank(g, tol=1e-300, max_iter=100)
        scaled = influence.scale_scores(pr.scores)
        importance = community.node_importance(g)
        assignment = community.label_propagation(g, importance, seed=LP_SEED,
                                                 max_rounds=100)
        gated = community.gate_communities(assignment, MIN_COMMUNITY_SIZE)
        return pr, scaled, gated

    start = time.perf_counter()
    pr, scaled, gated = rec.call("job", job) if rec else job()
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "import_s": import_s,
        "records": len(edges),
        "pagerank_mass": float(sum(pr.scores.values())),
        "pagerank_iterations": pr.iterations,
        "scores_fp": _fingerprint((k, scaled[k]) for k in sorted(scaled)),
        "labels_fp": _fingerprint(sorted(gated.labels.items())),
        "communities_post_gate": len(gated.communities),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if rec:
        rec.dump(trace[0], {"import_s": 0.0})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
