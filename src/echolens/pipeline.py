"""Stage orchestration with persisted intermediates.

Every stage reads only the config plus files written by earlier stages and
persists its own output under the run directory, so any stage can be re-run
in isolation and a chained stage-by-stage run is byte-identical to a full
pipeline run: the full run calls the same stage functions in order. In a
full run each stage also hands the values it has just written to the later
stages that read them, each equal to what parsing its file returns, so the
run parses none of its own files; a single stage parses its inputs once.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from pathlib import Path

from . import analysis, artifacts, community, demographics, influence, ingest, topics
from .config import RunConfig, derive_seed
from .graph import build_interaction_graph, read_edge_csv, write_edge_csv, write_node_list

__all__ = [
    "StageError",
    "MissingInputError",
    "STAGES",
    "run_pipeline",
    "run_stage",
    "review_sample",
]

STAGES = ("ingest", "graph", "communities", "influence", "demographics",
          "topics", "report")


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception | str):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage


class MissingInputError(Exception):
    def __init__(self, path: Path | str, produced_by: str | None = None):
        hint = f"; run the {produced_by} stage first" if produced_by else ""
        super().__init__(f"missing input {path}{hint}")
        self.path = str(path)
        self.produced_by = produced_by


def _out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path, produced_by: str | None = None) -> Path:
    if not path.exists():
        raise MissingInputError(path, produced_by)
    return path


def _parse_records(path: Path, schema: str) -> list:
    records, errors = ingest.parse_corpus(path, schema=schema)
    if errors:
        raise ValueError(f"corrupt intermediate {path}: {errors[0]}")
    return records


# Every intermediate a stage reads: its files, the stage that writes them, the
# stages that read it and its parser. Parsers look their readers up when
# called, so a wrapper installed later on a module attribute
# (ingest.parse_corpus, read_edge_csv) sees each parse.
_INTERMEDIATES = {
    "tweets": (("selected_tweets.ndjson",), "ingest",
               ("graph", "communities", "demographics", "topics", "report"),
               lambda path: _parse_records(path, "tweets")),
    "users": (("users.ndjson",), "ingest", ("communities", "demographics", "report"),
              lambda path: {u.user_id: u for u in _parse_records(path, "users")}),
    "tweet_index": (("tweet_index.csv",), "ingest", ("graph",),
                    lambda path: {row["tweet_id"]: row["author_id"]
                                  for row in artifacts.read_csv(path)}),
    "ingest_stats": (("ingest_stats.json",), "ingest", ("report",),
                     lambda path: artifacts.read_json(path)),
    "graph": (("graph_edges.csv", "graph_nodes.txt"), "graph",
              ("communities", "influence", "report"),
              lambda edges, nodes: read_edge_csv(edges, nodes)),
    "graph_stats": (("graph_stats.json",), "graph", ("report",),
                    lambda path: artifacts.read_json(path)),
    "community_members": (("community_labels.csv",), "communities", ("topics",),
                          lambda path: {row["user_id"] for row in artifacts.read_csv(path)}),
    "community_stats": (("community_stats.json",), "communities", ("report",),
                        lambda path: artifacts.read_json(path)),
    "scaled_influence": (("influence.csv",), "influence", ("report",),
                         lambda path: {row["user_id"]: float(row["scaled"])
                                       for row in artifacts.read_csv(path)}),
    "annotations": (("annotations.ndjson",), "demographics", ("topics", "report"),
                    lambda path: demographics.read_annotations(path)),
    "assignments": (("topic_assignments.ndjson",), "topics", ("report",),
                    lambda path: topics.read_assignments(path)),
    "clusters": (("topic_clusters.csv",), "topics", (),
                 lambda path: [(int(row["cluster_id"]), int(row["size"]), row["top_terms"])
                               for row in artifacts.read_csv(path)]),
    "topic_stats": (("topic_stats.json",), "topics", ("report",),
                    lambda path: artifacts.read_json(path)),
}


class _Intermediates:
    """The intermediates of one run directory. A stage that writes one hands
    its value over; any other is parsed from disk the first time it is asked
    for. Either way it is returned as that same value after, until forgotten.
    One instance lives for one run_pipeline, run_stage or review_sample call,
    so no value outlives the call that made it."""

    def __init__(self, out: Path):
        self._out = out
        self._parsed: dict[str, object] = {}

    def hand(self, name: str, value) -> None:
        """Take value as name's in place of a parse of the files just written
        for it; it must equal what that parse returns, iteration order
        included."""
        self._parsed[name] = value

    def hand_json(self, name: str, path: Path, value) -> None:
        """Write value as the JSON intermediate name and hand over what
        read_json returns for it: keys sorted, tuples as lists."""
        artifacts.write_json(path, value)
        self.hand(name, json.loads(json.dumps(value, sort_keys=True)))

    def __getitem__(self, name: str):
        if name not in self._parsed:
            files, producer, _, parse = _INTERMEDIATES[name]
            self._parsed[name] = parse(*(_require(self._out / f, producer)
                                         for f in files))
        return self._parsed[name]

    def forget(self, name: str) -> None:
        self._parsed.pop(name, None)


# ---------------------------------------------------------------------------
# Stage implementations


def stage_ingest(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    tweets_path = _require(Path(cfg.tweets))
    users_path = _require(Path(cfg.users))

    tweets, tweet_errors = ingest.parse_corpus(tweets_path, schema="tweets")
    users, user_errors = ingest.parse_corpus(users_path, schema="users")
    user_index = {u.user_id: u for u in users}

    stats = ingest.CorpusStats(records_read=len(tweets) + len(tweet_errors),
                               records_rejected=len(tweet_errors))
    selected = ingest.select_streams(tweets, cfg.streams, user_index, stats)
    cleaned = ingest.engagement_filter(selected)
    stats.records_kept = len(cleaned)
    if not cleaned:
        raise ValueError(f"no records kept: {stats.records_read} read, "
                         f"{stats.records_rejected} rejected, "
                         f"{stats.records_filtered} filtered")

    artifacts.write_csv(out / "tweet_index.csv", ["tweet_id", "author_id"],
                        ([t.tweet_id, t.author_id] for t in tweets))
    inputs.hand("tweet_index", {t.tweet_id: t.author_id for t in tweets})
    ingest.write_ndjson(out / "selected_tweets.ndjson", cleaned)
    inputs.hand("tweets", cleaned)
    ingest.write_ndjson(out / "users.ndjson", users)
    inputs.hand("users", user_index)
    payload = stats.to_dict()
    payload.update({
        "engagement_removed": len(selected) - len(cleaned),
        "tweet_parse_errors": [str(e) for e in tweet_errors[:20]],
        "user_parse_errors": [str(e) for e in user_errors[:20]],
        "users_read": len(users) + len(user_errors),
        "users_kept": len(users),
    })
    inputs.hand_json("ingest_stats", out / "ingest_stats.json", payload)


def stage_graph(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    g, stats = build_interaction_graph(inputs["tweets"], inputs["tweet_index"])
    write_edge_csv(g, out / "graph_edges.csv")
    write_node_list(g, out / "graph_nodes.txt")
    inputs.hand("graph", g)
    inputs.hand_json("graph_stats", out / "graph_stats.json", {
        "nodes": len(g),
        "edges": g.num_edges(),
        "total_weight": g.total_weight(),
        "resolved_retweets": stats.resolved_retweets,
        "resolved_replies": stats.resolved_replies,
        "unresolved_targets": stats.unresolved_targets,
        "self_interactions": stats.self_interactions,
    })


def stage_communities(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    g = inputs["graph"]
    importance = community.node_importance(
        g, mode=cfg.importance_mode, damping=cfg.damping,
        tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter)
    assignment = community.label_propagation(
        g, importance, seed=derive_seed(cfg.seed, "communities"),
        max_rounds=cfg.lp_max_rounds)
    gated = community.gate_communities(assignment, cfg.min_community_size)

    keywords = cfg.effective_flag_keywords()
    flags = (community.flag_offtopic(gated, inputs["tweets"], keywords, inputs["users"])
             if keywords else [])
    community.write_review_flags(out / "review_flags.csv", gated, flags)

    labels = sorted(gated.labels.items())
    artifacts.write_csv(out / "community_labels.csv", ["user_id", "community_id"], labels)
    inputs.hand("community_members", {user_id for user_id, _ in labels})
    artifacts.write_csv(out / "communities.csv", ["community_id", "size", "anchor"],
                        ([c.community_id, c.size, c.anchor] for c in gated.communities))
    inputs.hand_json("community_stats", out / "community_stats.json", {
        "iterations_run": assignment.iterations_run,
        "converged": assignment.converged,
        "communities_pre_gate": len(assignment.communities),
        "communities_post_gate": len(gated.communities),
        "dropped_members": gated.dropped_members,
        "flagged": len(flags),
    })


def stage_influence(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    result = influence.pagerank(inputs["graph"], damping=cfg.damping,
                                tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter)
    scaled = influence.scale_scores(result.scores) if result.scores else {}
    ranked = sorted(result.scores.items())
    artifacts.write_csv(out / "influence.csv", ["user_id", "raw", "scaled"],
                        ([user_id, repr(raw), repr(scaled[user_id])] for user_id, raw in ranked))
    # float(repr(x)) == x for every float.
    inputs.hand("scaled_influence", {user_id: scaled[user_id] for user_id, _ in ranked})
    artifacts.write_json(out / "influence_stats.json", {
        "iterations": result.iterations,
        "converged": result.converged,
    })


def stage_demographics(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    gaz = demographics.load_gazetteer(_require(cfg.data_file("gazetteer")))
    names, labels = demographics.load_training_names(
        _require(cfg.data_file("classifier_names")))
    model = demographics.NameModel(
        census_lists=demographics.load_name_lists(_require(cfg.data_file("name_lists"))),
        classifier=demographics.NgramNameClassifier().fit(names, labels),
        tau=cfg.tau,
    )
    lexicon = demographics.ProperNounLexicon.from_files(
        _require(cfg.data_file("given_names")), _require(cfg.data_file("stopwords")))
    annotations = demographics.annotate_users(
        list(inputs["users"].values()), inputs["tweets"], gaz, model, lexicon)
    demographics.write_annotations(out / "annotations.ndjson", annotations)
    inputs.hand("annotations", {user_id: annotations[user_id] for user_id in sorted(annotations)})


def stage_topics(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    tweets = inputs["tweets"]
    community_members = inputs["community_members"]
    annotations = inputs["annotations"]

    studied = {uid for uid in community_members
               if uid in annotations and annotations[uid].eligible_youth}
    corpus = [t for t in tweets if t.author_id in studied]
    if not corpus:
        raise ValueError(
            f"no tweets were studied: communities past the gate have "
            f"{len(community_members)} members, {len(studied)} of them eligible "
            f"youth, and none of those wrote a tweet in the corpus")
    tweet_ids = [t.tweet_id for t in corpus]
    # Retweets copy text; copies share one NormalizedText, which nothing mutates.
    normalized = {raw: topics.normalize_text(raw) for raw in dict.fromkeys(t.text for t in corpus)}
    texts = [normalized[t.text] for t in corpus]

    if cfg.embedding_source == "external":
        vectors = topics.load_external_vectors(
            _require(Path(cfg.vectors)), tweet_ids, cfg.dim)
    else:
        vectors = topics.embed_corpus(texts, cfg.dim)

    result = topics.cluster(vectors, cfg.k, seed=derive_seed(cfg.seed, "topics"),
                            max_iter=cfg.kmeans_max_iter)

    idf = topics.word_idf(texts)
    cluster_ids = result.assignments.tolist()
    grouped = [[] for _ in range(cfg.k)]
    for text, cid in zip(texts, cluster_ids):
        grouped[cid].append(text)
    clusters = [topics.TopicCluster(
        cluster_id=cid, top_terms=topics.top_terms(members, idf) if members else [],
        size=len(members)) for cid, members in enumerate(grouped)]

    assignments = dict(zip(tweet_ids, cluster_ids))
    topics.write_assignments(out / "topic_assignments.ndjson", assignments)
    inputs.hand("assignments", {tweet_id: assignments[tweet_id]
                                for tweet_id in sorted(assignments)})
    topics.write_cluster_csv(clusters, out / "topic_clusters.csv")
    sil = (topics.silhouette(vectors, result.assignments)
           if 2 <= cfg.k < len(corpus) <= 4000 else None)
    inputs.hand_json("topic_stats", out / "topic_stats.json", {
        "clustered_tweets": len(corpus),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_sse": result.sse_history[-1] if result.sse_history else 0.0,
        "silhouette": sil,
    })


def stage_report(cfg: RunConfig, inputs: _Intermediates) -> None:
    out = _out(cfg)
    tweets = inputs["tweets"]
    annotations = inputs["annotations"]
    assignments = inputs["assignments"]

    table = influence.rank_tables(inputs["graph"], inputs["scaled_influence"], tweets,
                                  inputs["users"], k=cfg.table_rows, privacy=cfg.privacy)

    by_id = {t.tweet_id: t for t in tweets}
    studied_users = sorted({by_id[tid].author_id for tid in assignments if tid in by_id})
    studied_annotations = {uid: annotations[uid] for uid in studied_users
                           if uid in annotations}
    continent_dist = (demographics.demographic_distribution(studied_annotations, "continent")
                      if studied_annotations else demographics.DistributionResult())
    ethnicity_dist = (demographics.demographic_distribution(studied_annotations, "race")
                      if studied_annotations else demographics.DistributionResult())

    rows: list[analysis.RepresentationRow] = []
    for axis in ("gender", "race", "continent"):
        engagements, corpus_counts = analysis.topic_engagement(
            assignments, tweets, annotations, axis,
            retweet_weighted=cfg.retweet_weighted)
        report = analysis.disproportionality_report(
            engagements, corpus_counts, axis, tau_hi=cfg.tau_hi, tau_lo=cfg.tau_lo)
        rows.extend(report.rows)
    rows.sort(key=lambda r: (-(abs(math.log(r.ratio)) if r.ratio > 0 else math.inf),
                             r.axis, r.cluster_id, r.bucket))
    merged = analysis.RepresentationReport(rows=rows, tau_hi=cfg.tau_hi,
                                           tau_lo=cfg.tau_lo)

    stage_counts = {key: inputs[stats][key] for stats, keys in (
        ("ingest_stats", ("records_read", "records_rejected", "records_kept")),
        ("graph_stats", ("nodes", "edges")),
        ("community_stats", ("communities_post_gate", "dropped_members")),
        ("topic_stats", ("clustered_tweets",)),
    ) for key in keys}

    fixtures = {}
    for name in cfg.DATA_FILES:
        path = cfg.data_file(name)
        fixtures[path.name] = artifacts.sha256(path)

    bundle = analysis.ReportBundle(
        rank_table=table,
        continent_distribution=continent_dist,
        ethnicity_distribution=ethnicity_dist,
        representation=merged,
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        stage_counts=stage_counts,
        data_fixtures=fixtures,
    )
    analysis.emit_reports(bundle, out, formats=cfg.formats)


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "graph": stage_graph,
    "communities": stage_communities,
    "influence": stage_influence,
    "demographics": stage_demographics,
    "topics": stage_topics,
    "report": stage_report,
}


@contextmanager
def _failures_of(stage: str):
    """Raise any failure but a missing input as the stage's StageError."""
    try:
        yield
    except MissingInputError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _run(cfg: RunConfig, stages: tuple[str, ...]) -> None:
    inputs = _Intermediates(_out(cfg))
    for i, stage in enumerate(stages):
        with _failures_of(stage):
            _STAGE_FUNCS[stage](cfg, inputs)
        # Let go of each intermediate after the last stage that reads it.
        for name, (_, _, readers, _) in _INTERMEDIATES.items():
            if stage in readers and not set(readers) & set(stages[i + 1:]):
                inputs.forget(name)


def run_stage(cfg: RunConfig, stage: str) -> None:
    """Run one stage; upstream artifacts must already be persisted."""
    _run(cfg, (stage,))


def run_pipeline(cfg: RunConfig) -> Path:
    """Run every stage in order, each intermediate parsed at most once;
    returns the manifest path."""
    _run(cfg, STAGES)
    return _out(cfg) / "manifest.json"


def review_sample(cfg: RunConfig) -> Path:
    """Stratified random sample of cfg.review_sample_size topics for human
    validation.

    Clusters are split into small/medium/large size terciles and sampled
    in proportion to the terciles' sizes, by largest remainder, with an RNG
    seeded from cfg.seed; reruns with the same seed pick the same topics.
    The sample holds min(size, non-empty clusters) topics; the size must be
    >= 1. Writes
    review_sample.csv and returns its path; a corrupt intermediate raises
    StageError for the stage `review-sample`.
    """
    n = cfg.review_sample_size
    if n < 1:
        raise ValueError("review_sample_size: must be >= 1")
    out = _out(cfg)
    with _failures_of("review-sample"):
        inputs = _Intermediates(out)
        clusters = [c for c in inputs["clusters"] if c[1] > 0]
        assignments = inputs["assignments"]
        tweets = {t.tweet_id: t for t in inputs["tweets"]}
        rng = random.Random(derive_seed(cfg.seed, "review-sample"))

        by_size = sorted(clusters, key=lambda c: (c[1], c[0]))
        strata: list[list[tuple[int, int, str]]] = [[], [], []]
        for i, item in enumerate(by_size):
            strata[min(2, i * 3 // max(1, len(by_size)))].append(item)
        names = ("small", "medium", "large")

        # Largest-remainder quotas: min(n, total) topics in all, each stratum
        # its share rounded down, and the topics left over go one each to the
        # strata with the largest remainders, small before large on a tie. A
        # stratum with a remainder is not full, so no quota exceeds its stratum.
        total = len(by_size)
        wanted = min(n, total)
        shares = [divmod(wanted * len(stratum), max(1, total)) for stratum in strata]
        quotas = [quota for quota, _ in shares]
        for i in sorted(range(3), key=lambda i: -shares[i][1])[:wanted - sum(quotas)]:
            quotas[i] += 1
        chosen: list[tuple[str, tuple[int, int, str]]] = []
        for name, stratum, quota in zip(names, strata, quotas):
            if quota:
                chosen.extend((name, pick) for pick in rng.sample(stratum, quota))
        chosen.sort(key=lambda item: item[1][0])

        examples: dict[int, list[str]] = {}
        for tid in sorted(assignments):
            cid = assignments[tid]
            bucket = examples.setdefault(cid, [])
            if len(bucket) < 3:
                bucket.append(tid)

        def rows():
            for stratum_name, (cid, size, terms) in chosen:
                snippets = [tweets[tid].text.replace("\n", " ")
                            for tid in examples.get(cid, []) if tid in tweets]
                yield [cid, size, stratum_name, terms, " | ".join(snippets)]

        path = out / "review_sample.csv"
        artifacts.write_csv(path, ["cluster_id", "size", "stratum", "top_terms",
                                   "example_texts"], rows())
        return path
