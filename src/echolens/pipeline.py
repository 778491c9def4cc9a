"""Stage orchestration with persisted intermediates.

Every stage reads only the config plus files written by earlier stages and
persists its own output under the run directory, so any stage can be re-run
in isolation and a chained stage-by-stage run is byte-identical to a full
pipeline run: the full run calls the same stage functions in order. A stage
names the intermediates it reads as its parameters and returns the values of
those it wrote, each equal to what parsing its file returns. A full run
holds each returned value until the last later stage that names it, so it
parses none of its own files; a single stage parses its inputs once.
Each intermediate is declared once, in _INTERMEDIATES, and parsed by the
strict readers of artifacts, which refuse what its producer does not write;
the lenient raw-archive parser of ingest reads the raw archive only.
"""

from __future__ import annotations

import functools
import json
import random
import sys
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


# Every intermediate a stage reads, declared once: its files, the stage that
# writes them, its fields and its parser, called with the fields and the
# paths. A JSON or NDJSON record's keys must be exactly the fields, which map
# to their JSON types, or for tweets and users are the record's, with
# parse_tweet and parse_user checking types and values as for a raw archive.
# A CSV file is held to its own header (fields None). Parsers look their
# readers up when called, so a wrapper installed later on a module attribute
# (read_edge_csv, read_annotations) sees each parse.
_INTERMEDIATES = {
    "tweets": (("selected_tweets.ndjson",), "ingest", ingest.field_names(ingest.TweetRecord),
               lambda fields, path: list(artifacts.read_ndjson(
                   path, fields, "tweet_id", ingest.parse_tweet))),
    "users": (("users.ndjson",), "ingest", ingest.field_names(ingest.UserRecord),
              lambda fields, path: {u.user_id: u for u in artifacts.read_ndjson(
                  path, fields, "user_id", ingest.parse_user)}),
    "tweet_index": (("tweet_index.csv",), "ingest", None,
                    lambda _, path: {row["tweet_id"]: row["author_id"]
                                     for row in artifacts.read_csv(path)}),
    "ingest_stats": (("ingest_stats.json",), "ingest", {
        "records_read": (int,), "records_rejected": (int,), "records_kept": (int,),
        "records_filtered": (int,), "records_kept_per_stream": (dict,),
        "engagement_removed": (int,), "tweet_parse_errors": (list,),
        "user_parse_errors": (list,), "users_read": (int,), "users_kept": (int,),
    }, lambda fields, path: artifacts.read_json(path, fields)),
    "graph": (("graph_edges.csv", "graph_nodes.txt"), "graph", None,
              lambda _, edges, nodes: read_edge_csv(edges, nodes)),
    "graph_stats": (("graph_stats.json",), "graph", {
        "nodes": (int,), "edges": (int,), "total_weight": (int,), "resolved_retweets": (int,),
        "resolved_replies": (int,), "unresolved_targets": (int,), "self_interactions": (int,),
    }, lambda fields, path: artifacts.read_json(path, fields)),
    "community_members": (("community_labels.csv",), "communities", None,
                          lambda _, path: {row["user_id"] for row in artifacts.read_csv(path)}),
    "community_stats": (("community_stats.json",), "communities", {
        "iterations_run": (int,), "converged": (bool,), "communities_pre_gate": (int,),
        "communities_post_gate": (int,), "dropped_members": (int,), "flagged": (int,),
    }, lambda fields, path: artifacts.read_json(path, fields)),
    "scaled_influence": (("influence.csv",), "influence", None,
                         lambda _, path: {row["user_id"]: row["scaled"] for row in
                                          artifacts.read_csv(path, {"scaled": float})}),
    "annotations": (("annotations.ndjson",), "demographics", demographics.ANNOTATION_FIELDS,
                    lambda _, path: demographics.read_annotations(path)),
    "assignments": (("topic_assignments.ndjson",), "topics", topics.ASSIGNMENT_FIELDS,
                    lambda _, path: topics.read_assignments(path)),
    "clusters": (("topic_clusters.csv",), "topics", None,
                 lambda _, path: [(row["cluster_id"], row["size"], row["top_terms"])
                                  for row in artifacts.read_csv(path, {"cluster_id": int,
                                                                       "size": int})]),
    "topic_stats": (("topic_stats.json",), "topics", {
        "clustered_tweets": (int,), "iterations": (int,), "converged": (bool,),
        "final_sse": (float,), "silhouette": (float, type(None)),
    }, lambda fields, path: artifacts.read_json(path, fields)),
}

# Bundled, not configurable; its sha256 goes into the manifest with the data files.
_CONTINENTS_CSV = demographics.default_data_path("continents.csv")


def _stage(fn):
    """Make fn(cfg, <intermediates>...) callable as stage(cfg, held): each
    parameter after cfg names an intermediate, taken from held, the values
    the run holds, or else parsed from the run directory inside the call.
    stage.reads lists those names."""
    reads = fn.__code__.co_varnames[1:fn.__code__.co_argcount]

    @functools.wraps(fn)
    def stage(cfg: RunConfig, held: dict):
        return fn(cfg, *(held[name] if name in held else _parse(_out(cfg), name)
                         for name in reads))

    stage.reads = reads
    return stage


def _parse(out: Path, name: str):
    files, producer, fields, parse = _INTERMEDIATES[name]
    return parse(fields, *(_require(out / f, producer) for f in files))


def _warn(message: str) -> None:
    """One stderr line for a result the run reports anyway; no output changes."""
    print(f"warning: {message}", file=sys.stderr)


def _written_json(out: Path, name: str, value: dict) -> dict:
    """Write value as the JSON intermediate name; returns what its parser
    gives back for it: keys sorted, tuples as lists."""
    (file,), *_ = _INTERMEDIATES[name]
    artifacts.write_json(out / file, value)
    return json.loads(json.dumps(value, sort_keys=True))


# ---------------------------------------------------------------------------
# Stage implementations


@_stage
def stage_ingest(cfg: RunConfig) -> dict:
    out = _out(cfg)
    tweets_path = _require(Path(cfg.tweets))
    users_path = _require(Path(cfg.users))

    users, user_errors = ingest.parse_corpus(users_path, schema="users")
    user_index = {u.user_id: u for u in users}

    # Each tweet is decided as it is parsed: one no stream keeps leaves only its ids.
    tweet_index, tweet_errors = {}, []

    def indexed(tweets):
        for t in tweets:
            tweet_index[t.tweet_id] = t.author_id
            yield t

    selected, kept_per_stream = ingest.select_streams(
        indexed(ingest.iter_corpus(tweets_path, "tweets", tweet_errors)),
        cfg.streams, user_index)
    cleaned = ingest.engagement_filter(selected)
    # records_read = records_kept + records_rejected + records_filtered
    stats = {
        "records_read": len(tweet_index) + len(tweet_errors),
        "records_rejected": len(tweet_errors),
        "records_kept": len(cleaned),
        "records_filtered": len(tweet_index) - len(cleaned),
        "records_kept_per_stream": kept_per_stream,
        "engagement_removed": len(selected) - len(cleaned),
        "tweet_parse_errors": [str(e) for e in tweet_errors[:20]],
        "user_parse_errors": [str(e) for e in user_errors[:20]],
        "users_read": len(users) + len(user_errors),
        "users_kept": len(users),
    }
    if not cleaned:
        raise ValueError(f"no records kept: {stats['records_read']} read, "
                         f"{stats['records_rejected']} rejected, "
                         f"{stats['records_filtered']} filtered")

    artifacts.write_csv(out / "tweet_index.csv", ["tweet_id", "author_id"], tweet_index.items())
    ingest.write_ndjson(out / "selected_tweets.ndjson", cleaned)
    ingest.write_ndjson(out / "users.ndjson", users)
    return {"tweet_index": tweet_index, "tweets": cleaned,
            "users": user_index, "ingest_stats": _written_json(out, "ingest_stats", stats)}


@_stage
def stage_graph(cfg: RunConfig, tweets, tweet_index) -> dict:
    out = _out(cfg)
    g, stats = build_interaction_graph(tweets, tweet_index)
    write_edge_csv(g, out / "graph_edges.csv")
    write_node_list(g, out / "graph_nodes.txt")
    return {"graph": g, "graph_stats": _written_json(out, "graph_stats", {
        "nodes": len(g),
        "edges": g.num_edges(),
        "total_weight": g.total_weight(),
        **stats,
    })}


@_stage
def stage_communities(cfg: RunConfig, graph, tweets, users) -> dict:
    out = _out(cfg)
    importance = community.node_importance(
        graph, mode=cfg.importance_mode, damping=cfg.damping,
        tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter)
    assignment = community.label_propagation(
        graph, importance, seed=derive_seed(cfg.seed, "communities"),
        max_rounds=cfg.lp_max_rounds)
    if not assignment.converged:
        _warn(f"label propagation stopped at lp_max_rounds={cfg.lp_max_rounds} "
              "without converging")
    gated = community.gate_communities(assignment, cfg.min_community_size)
    if assignment.communities and not gated.communities:
        _warn(f"the community gate at min_community_size={cfg.min_community_size} "
              f"kept none of {len(assignment.communities)} communities")

    keywords = cfg.effective_flag_keywords()
    flags = community.flag_offtopic(gated, tweets, keywords, users) if keywords else []
    community.write_review_flags(out / "review_flags.csv", gated, flags)

    labels = sorted(gated.labels.items())
    artifacts.write_csv(out / "community_labels.csv", ["user_id", "community_id"], labels)
    artifacts.write_csv(out / "communities.csv", ["community_id", "size", "anchor"],
                        ([c.community_id, c.size, c.anchor] for c in gated.communities))
    stats = _written_json(out, "community_stats", {
        "iterations_run": assignment.iterations_run,
        "converged": assignment.converged,
        "communities_pre_gate": len(assignment.communities),
        "communities_post_gate": len(gated.communities),
        "dropped_members": gated.dropped_members,
        "flagged": len(flags),
    })
    return {"community_members": {user_id for user_id, _ in labels}, "community_stats": stats}


@_stage
def stage_influence(cfg: RunConfig, graph) -> dict:
    out = _out(cfg)
    result = influence.pagerank(graph, damping=cfg.damping,
                                tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter)
    if not result.converged:
        _warn(f"PageRank stopped at pagerank_max_iter={cfg.pagerank_max_iter} "
              "without converging")
    scaled = influence.scale_scores(result.scores)
    artifacts.write_csv(out / "influence.csv", ["user_id", "raw", "scaled"],
                        ([user_id, repr(raw), repr(scaled[user_id])]
                         for user_id, raw in result.scores.items()))
    artifacts.write_json(out / "influence_stats.json", {
        "iterations": result.iterations,
        "converged": result.converged,
    })
    # Scores are in id order; float(repr(x)) == x for every float.
    return {"scaled_influence": scaled}


@_stage
def stage_demographics(cfg: RunConfig, users, tweets) -> dict:
    out = _out(cfg)
    gaz = demographics.load_gazetteer(_require(cfg.data_file("gazetteer")))
    continents = demographics.load_continents(_require(_CONTINENTS_CSV))
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
        list(users.values()), tweets, gaz, continents, model, lexicon)
    demographics.write_annotations(out / "annotations.ndjson", annotations)
    return {"annotations": {user_id: annotations[user_id] for user_id in sorted(annotations)}}


@_stage
def stage_topics(cfg: RunConfig, tweets, community_members, annotations) -> dict:
    out = _out(cfg)
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
    if not result.converged:
        _warn(f"k-means stopped at kmeans_max_iter={cfg.kmeans_max_iter} without converging")

    idf = topics.word_idf(texts)
    cluster_ids = result.assignments.tolist()
    grouped = [[] for _ in range(cfg.k)]
    for text, cid in zip(texts, cluster_ids):
        grouped[cid].append(text)
    clusters = [(cid, len(members), " ".join(topics.top_terms(members, idf)) if members else "")
                for cid, members in enumerate(grouped)]

    assignments = dict(zip(tweet_ids, cluster_ids))
    topics.write_assignments(out / "topic_assignments.ndjson", assignments)
    topics.write_cluster_csv(clusters, out / "topic_clusters.csv")
    sil = (topics.silhouette(vectors, result.assignments)
           if 2 <= cfg.k < len(corpus) <= 4000 else None)
    stats = _written_json(out, "topic_stats", {
        "clustered_tweets": len(corpus),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_sse": result.sse_history[-1] if result.sse_history else 0.0,
        "silhouette": sil,
    })
    return {"assignments": {tweet_id: assignments[tweet_id] for tweet_id in sorted(assignments)},
            "topic_stats": stats}


@_stage
def stage_report(cfg: RunConfig, tweets, annotations, assignments, graph, scaled_influence,
                 users, ingest_stats, graph_stats, community_stats, topic_stats) -> dict:
    out = _out(cfg)
    table = influence.rank_tables(graph, scaled_influence, tweets, users,
                                  k=cfg.table_rows, privacy=cfg.privacy)

    by_id = {t.tweet_id: t for t in tweets}
    studied_users = {by_id[tid].author_id for tid in assignments if tid in by_id}
    studied_annotations = {uid: annotations[uid] for uid in studied_users
                           if uid in annotations}
    engagement = analysis.topic_engagement(assignments, tweets, annotations,
                                           retweet_weighted=cfg.retweet_weighted)

    stage_counts = {key: stats[key] for stats, keys in (
        (ingest_stats, ("records_read", "records_rejected", "records_kept")),
        (graph_stats, ("nodes", "edges")),
        (community_stats, ("communities_post_gate", "dropped_members")),
        (topic_stats, ("clustered_tweets",)),
    ) for key in keys}

    # Keyed by config key, so two data files that share a base name both show.
    fixtures = {key: artifacts.sha256(cfg.data_file(key)) for key in cfg.DATA_FILES}
    fixtures["continents"] = artifacts.sha256(_CONTINENTS_CSV)

    analysis.emit_reports(
        out, cfg.formats, table,
        demographics.demographic_distribution(studied_annotations, "continent"),
        demographics.demographic_distribution(studied_annotations, "race"),
        analysis.disproportionality_report(engagement, tau_hi=cfg.tau_hi, tau_lo=cfg.tau_lo),
        cfg.tau_hi, cfg.tau_lo,
        {"config_hash": cfg.config_hash(), "seed": cfg.seed, "stage_counts": stage_counts,
         "data_fixtures": fixtures})
    return {}


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
    # Stages are looked up by name when run, so a wrapper installed on a
    # module attribute stage_<name> is the one called.
    held: dict = {}
    for i, name in enumerate(stages):
        with _failures_of(name):
            held.update(globals()[f"stage_{name}"](cfg, held))
        # Hold each value only until the last later stage that reads it.
        later = {read for s in stages[i + 1:] for read in globals()[f"stage_{s}"].reads}
        held = {key: value for key, value in held.items() if key in later}


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
    if cfg.review_sample_size < 1:
        raise ValueError("review_sample_size: must be >= 1")
    with _failures_of("review-sample"):
        return _review_sample(cfg, {})


@_stage
def _review_sample(cfg: RunConfig, clusters, assignments, tweets) -> Path:
    n = cfg.review_sample_size
    out = _out(cfg)
    by_id = {t.tweet_id: t for t in tweets}
    rng = random.Random(derive_seed(cfg.seed, "review-sample"))

    by_size = sorted((c for c in clusters if c[1] > 0), key=lambda c: (c[1], c[0]))
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
            snippets = [by_id[tid].text.replace("\n", " ")
                        for tid in examples.get(cid, []) if tid in by_id]
            yield [cid, size, stratum_name, terms, " | ".join(snippets)]

    path = out / "review_sample.csv"
    artifacts.write_csv(path, ["cluster_id", "size", "stratum", "top_terms",
                               "example_texts"], rows())
    return path
