"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and runtime bounds are asserted exactly as stated.
"""

import math
import random
import time

import numpy as np

from echolens.analysis import disproportionality_report
from echolens.community import (Community, CommunityAssignment, gate_communities,
                                label_propagation, node_importance)
from echolens.demographics import (RACE_CATEGORIES, NameModel,
                                   NgramNameClassifier, classify_race)
from echolens.graph import InteractionGraph
from echolens.influence import pagerank
from echolens.ingest import engagement_filter
from echolens.pipeline import run_pipeline
from echolens.synth import write_fixture
from echolens.topics import cluster
from echolens.config import load_config

from _oracles import best_modularity_partition, dense_pagerank, edge_table
from conftest import clique_graph, make_tweet


def _passed(n: int, detail: str) -> None:
    print(f"PASS criterion {n}: {detail}")


def random_small_graph(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    nodes = [f"n{i}" for i in range(n)]
    rows, edges = [], {}
    for _ in range(rng.randint(0, 3 * n)):
        if n < 2:
            break
        src, dst = rng.sample(nodes, 2)
        w = rng.randint(1, 5)
        rows.append(rng.choice(((src, dst, w, 0), (src, dst, 0, w))))  # retweet or reply
        edges[(src, dst)] = edges.get((src, dst), 0) + w
    return InteractionGraph.from_weighted_edges(rows, nodes=nodes), edges


def test_criterion_1_pagerank_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(50):
        g, edges = random_small_graph(seed)
        result = pagerank(g)
        assert abs(sum(result.scores.values()) - 1.0) < 1e-9, seed
        expected = dense_pagerank(g.ids, edges)
        for node in g.ids:
            assert abs(result.scores[node] - expected[node]) < 1e-6, (seed, node)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(1, f"50 random graphs match dense oracle within 1e-6 "
               f"(mass 1 +/- 1e-9) in {elapsed:.2f}s")


def test_criterion_2_pagerank_symmetry():
    g = InteractionGraph.from_weighted_edges(
        [(f"n{i}", f"n{(i + 1) % 3}", 1, 0) for i in range(3)])
    scores = pagerank(g).scores
    for score in scores.values():
        assert abs(score - 1.0 / 3.0) < 1e-9

    single = InteractionGraph.from_weighted_edges([], nodes=["only"])
    assert pagerank(single).scores["only"] == 1.0
    _passed(2, "3-cycle scores are 1/3 +/- 1e-9; single node is exactly 1.0")


def test_criterion_3_community_recovery():
    clique_a = tuple(f"a{i}" for i in range(5))
    clique_b = tuple(f"b{i}" for i in range(5))
    bridged = clique_graph(clique_a, clique_b, bridges=[("a4", "b0")])
    expected = {frozenset(clique_a), frozenset(clique_b)}

    triple = (tuple(f"x{i}" for i in range(4)),
              tuple(f"y{i}" for i in range(5)),
              tuple(f"z{i}" for i in range(6)))
    disjoint = clique_graph(*triple)
    expected_triple = {frozenset(c) for c in triple}

    start = time.perf_counter()
    for seed in range(10):
        assignment = label_propagation(bridged, node_importance(bridged), seed=seed)
        assert {frozenset(c.members) for c in assignment.communities} == expected, seed
    for seed in (0, 1, 17, 123, 4096, 99991):
        assignment = label_propagation(disjoint, node_importance(disjoint), seed=seed)
        got = {frozenset(c.members) for c in assignment.communities}
        assert got == expected_triple, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # Independent check: the expected split is the exact modularity optimum.
    edges = {e: rt + rp for e, (rt, rp) in edge_table(bridged).items()}
    oracle, _ = best_modularity_partition(bridged.ids, edges)
    assert oracle == expected
    _passed(3, f"bridged 5-cliques (10 seeds) and 3 disjoint cliques recovered "
               f"in {elapsed:.2f}s; split matches brute-force modularity optimum")


def test_criterion_4_community_gate():
    communities, labels = [], {}
    for cid, size in enumerate((120, 121)):
        members = tuple(f"c{cid}_m{i}" for i in range(size))
        communities.append(Community(community_id=cid, members=members,
                                     size=size, anchor=members[0]))
        labels.update({m: cid for m in members})
    assignment = CommunityAssignment(labels=labels, communities=communities,
                                     iterations_run=1, converged=True)
    gated = gate_communities(assignment, min_size=120)
    assert [c.size for c in gated.communities] == [121]
    assert gated.dropped_members == 120
    _passed(4, "sizes {120, 121} with min_size 120 keep only 121 (strict >)")


def test_criterion_5_engagement_filter_complement():
    rng = random.Random(99)
    tweets, zero_ids = [], set()
    for i in range(1000):
        if rng.random() < 0.3:
            zero_ids.add(f"t{i}")
            tweets.append(make_tweet(f"t{i}", likes=0, retweets=0, replies=0))
        else:
            tweets.append(make_tweet(f"t{i}", likes=rng.randint(0, 5),
                                     retweets=rng.randint(0, 3),
                                     replies=rng.randint(1, 2)))
    kept = engagement_filter(tweets)
    assert {t.tweet_id for t in kept} == {t.tweet_id for t in tweets} - zero_ids
    assert engagement_filter(kept) == kept
    _passed(5, f"1000-tweet fixture: output is exactly the complement of the "
               f"{len(zero_ids)} zero-engagement records; idempotent")


def test_criterion_6_kmeans_blob_recovery():
    rng = np.random.default_rng(2024)
    spread = 1.0
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])  # sep 40 >= 10x
    points = np.vstack([rng.normal(c, spread, size=(100, 2)) for c in centers])
    truth = np.repeat(np.arange(3), 100)
    for seed in range(5):
        result = cluster(points, k=3, seed=seed)
        groups = {lbl: frozenset(np.flatnonzero(result.assignments == lbl))
                  for lbl in np.unique(result.assignments)}
        expected = {lbl: frozenset(np.flatnonzero(truth == lbl)) for lbl in range(3)}
        assert set(groups.values()) == set(expected.values()), seed
        for earlier, later in zip(result.sse_history, result.sse_history[1:]):
            assert later <= earlier + 1e-9
    _passed(6, "3 blobs (300 points, separation 40 >= 10x spread) recovered "
               "exactly for 5 seeds; SSE non-increasing every iteration")


def test_criterion_7_name_classifier():
    model = NgramNameClassifier(ngram=3).fit(["kim", "smith"], ["asian", "white"])
    asian_likelihood = (2.0 / 11.0) ** 3   # grams of "kim" seen once each
    white_likelihood = (1.0 / 13.0) ** 3   # unseen under White
    expected = asian_likelihood / (asian_likelihood + white_likelihood)
    assert abs(model.posterior("kim")["Asian"] - expected) < 1e-9

    surnames = [f"{stem}moto" for stem in
                ("aki", "fuji", "hana", "iwa", "kawa", "kuro", "mats", "miya",
                 "naka", "nishi", "oka", "saka", "shima", "sugi", "taka",
                 "tera", "uchi", "yama", "yoshi", "waka")]
    classifier = NgramNameClassifier().fit(
        surnames + ["smith", "jones", "brown"],
        ["japanese"] * len(surnames) + ["european"] * 3)
    conflicted = NameModel(census_lists=[("White", set(surnames))],
                           classifier=classifier, tau=0.6)
    for surname in surnames:
        assert classifier.posterior(surname)["Asian"] >= 0.6
        assert classify_race(surname.title(), conflicted) == "White"

    rng = random.Random(5)
    probe_model = NameModel(census_lists=[("White", {"smith"})],
                            classifier=classifier, tau=0.6)
    for _ in range(200):
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ")
                       for _ in range(rng.randint(0, 12)))
        assert classify_race(name, probe_model) in RACE_CATEGORIES
    _passed(7, "hand-worked posterior to 1e-9; census list beats classifier on "
               "20 conflicts; output always one of the 5 categories")


def test_criterion_8_representation_math():
    engagement = {"race": ({c: {"X": 10, "Y": 30} for c in range(4)}, {"X": 40, "Y": 120})}
    rows = disproportionality_report(engagement)
    assert rows
    for row in rows:
        assert abs(row.ratio - 1.0) < 1e-9
        assert row.direction == ""

    rows = disproportionality_report({"race": ({0: {"X": 6, "other": 4}},
                                               {"X": 30, "other": 70})})
    assert next(r.ratio for r in rows if r.bucket == "X") == 2.0

    rng = random.Random(11)
    for _ in range(25):
        buckets = ["A", "B", "C", "D"][:rng.randint(2, 4)]
        corpus_counts = {b: rng.randint(1, 50) for b in buckets}
        topic_counts = {b: rng.randint(0, 20) for b in buckets}
        if sum(topic_counts.values()) == 0:
            topic_counts[buckets[0]] = 1
        rows = disproportionality_report({"race": ({0: topic_counts}, corpus_counts)})
        assert sorted(r.bucket for r in rows) == buckets
        total = sum(r.corpus_share * r.ratio for r in rows)
        assert abs(total - 1.0) < 1e-9
    _passed(8, "uniform null has all ratios 1 +/- 1e-9 with zero flags; "
               "6/10 vs 30/100 gives exactly 2.0; share-weighted identity holds")


REPORT_FILES = ("rank_table.csv", "continent_distribution.csv",
                "ethnicity_distribution.csv", "disproportionality.csv",
                "manifest.json")


def test_criterion_9_end_to_end_determinism(tmp_path):
    config_path = write_fixture(tmp_path / "fixture", seed=7, n_tweets=2000)
    cfg_a = load_config(config_path)
    cfg_a.out_dir = str(tmp_path / "run_a")
    cfg_b = load_config(config_path)
    cfg_b.out_dir = str(tmp_path / "run_b")
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    for name in REPORT_FILES:
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, name

    rows = (tmp_path / "run_a" / "disproportionality.csv").read_text().splitlines()
    header = rows[0].split(",")
    flagged_over = [dict(zip(header, line.split(","))) for line in rows[1:]
                    if line.endswith(",over")]
    assert any(r["axis"] == "gender" and r["bucket"] == "female"
               and float(r["ratio"]) >= 1.25 for r in flagged_over)
    _passed(9, "2000-tweet fixture run twice is byte-identical; engineered "
               "female over-engagement row is flagged over")


def test_criterion_10_performance_smoke():
    rng = np.random.default_rng(123)
    n, m, blocks = 100_000, 1_000_000, 100
    block = n // blocks
    src = rng.integers(0, n, size=m)
    intra = rng.random(m) < 0.9
    offset = rng.integers(1, block, size=m)
    dst = np.where(intra, (src // block) * block + (src + offset) % block,
                   rng.integers(0, n, size=m))
    keep = src != dst
    src, dst = src[keep], dst[keep]
    names = np.char.add("u", np.char.zfill(np.arange(n).astype(str), 6))
    g = InteractionGraph.from_weighted_edges(
        ((names[s], names[d], 1, 0) for s, d in zip(src, dst)),
        nodes=names.tolist())
    assert len(g) == n and g.num_edges() > 900_000

    start = time.perf_counter()
    result = pagerank(g, tol=1e-300, max_iter=100)  # force all 100 iterations
    pagerank_elapsed = time.perf_counter() - start
    assert result.iterations == 100
    assert pagerank_elapsed < 10.0

    importance = node_importance(g)
    start = time.perf_counter()
    assignment = label_propagation(g, importance, seed=1, max_rounds=100)
    lp_elapsed = time.perf_counter() - start
    assert lp_elapsed < 30.0
    assert assignment.converged
    _passed(10, f"100k nodes / ~1M edges: pagerank 100 iterations in "
                f"{pagerank_elapsed:.1f}s (<10s); label propagation in "
                f"{lp_elapsed:.1f}s (<30s)")
