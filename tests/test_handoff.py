"""In a full run each stage returns the values of the intermediates it wrote
and the run hands them to the later stages that read them instead of parsing
the files again, so a handed value must equal what its parser returns for
the file just written, iteration order included. These tests hold
parse(write(x)) == x for every format, and hold every value a full run hands
against a parse of its file."""

import functools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens import artifacts, ingest, pipeline, topics
from echolens.demographics import DemographicAnnotation, write_annotations
from echolens.graph import InteractionGraph, write_edge_csv, write_node_list
from echolens.ingest import TweetRecord, UserRecord
from echolens.config import load_config
from echolens.synth import write_fixture

from _oracles import graphs_equal

# Ids and text that a CSV or JSON writer must quote or escape.
ids = st.text(alphabet=st.sampled_from(list("ab ,\"\n\r\t'é")), min_size=1, max_size=4)
texts = st.text(max_size=12)
counts = st.integers(min_value=0, max_value=2**40)
finite = st.floats(allow_nan=False, allow_infinity=False)


def parse(name, directory):
    return pipeline._parse(directory, name)


def same(a, b):
    """Equal, and equal in iteration order; graphs by ids and CSR arrays."""
    if isinstance(a, InteractionGraph):
        return isinstance(b, InteractionGraph) and graphs_equal(a, b)
    if isinstance(a, dict):
        return a == b and list(a) == list(b)
    if isinstance(a, (set, list)):
        return a == b and list(a) == list(b)
    return a == b


@st.composite
def tweets(draw):
    """TweetRecords as ingest keeps them: unique ids, integral times as int."""
    records = []
    for tweet_id in draw(st.lists(ids, unique=True, max_size=6)):
        created = draw(st.one_of(st.integers(0, 2**40), finite.filter(
            lambda x: not x.is_integer())))
        reply_to, retweet_of = draw(st.none() | ids), draw(st.none() | ids)
        if reply_to is not None and reply_to == retweet_of:
            retweet_of = None
        located = draw(st.booleans())
        records.append(TweetRecord(
            tweet_id=tweet_id, author_id=draw(ids), text=draw(texts), created_at=created,
            likes=draw(counts), retweets=draw(counts), replies=draw(counts),
            mentions=draw(st.lists(ids, max_size=3)), reply_to=reply_to,
            retweet_of=retweet_of,
            lat=draw(st.floats(-90, 90)) if located else None,
            lon=draw(st.floats(-180, 180)) if located else None,
            place_name=draw(st.none() | texts)))
    return records


@st.composite
def users(draw):
    records = {}
    for user_id in draw(st.lists(ids, unique=True, max_size=6)):
        faces = draw(st.none() | st.integers(0, 3))
        annotated = faces == 1 and draw(st.booleans())
        records[user_id] = UserRecord(
            user_id=user_id, handle=draw(ids), display_name=draw(texts),
            followers=draw(counts), has_profile_photo=draw(st.booleans()),
            face_count=faces,
            age_estimate=draw(st.none() | st.integers(0, 99)) if annotated else None,
            gender_estimate=(draw(st.none() | st.sampled_from(ingest.GENDER_VALUES))
                             if annotated else None),
            account_kind=draw(st.sampled_from(ingest.ACCOUNT_KINDS)))
    return records


@settings(max_examples=60, deadline=None)
@given(tweets(), st.data())
def test_tweets_and_tweet_index_round_trip(tmp_path_factory, records, data):
    out = tmp_path_factory.mktemp("tweets")
    ingest.write_ndjson(out / "selected_tweets.ndjson", records)
    artifacts.write_csv(out / "tweet_index.csv", ["tweet_id", "author_id"],
                        ([t.tweet_id, t.author_id] for t in records))
    assert same(records, parse("tweets", out))
    assert same({t.tweet_id: t.author_id for t in records}, parse("tweet_index", out))
    if records:
        assert_key_change_refused(out, "tweets", out / "selected_tweets.ndjson", data)


@settings(max_examples=60, deadline=None)
@given(users(), st.data())
def test_users_round_trip_in_file_order(tmp_path_factory, records, data):
    out = tmp_path_factory.mktemp("users")
    ingest.write_ndjson(out / "users.ndjson", records.values())
    assert same(records, parse("users", out))
    if records:
        assert_key_change_refused(out, "users", out / "users.ndjson", data)


def assert_key_change_refused(out, name, path, data):
    """Add a key to, or remove one from, one record of the NDJSON file at
    path: parsing intermediate `name` is then refused, naming the file and
    the record's line."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    i = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[i])
    if data.draw(st.booleans()):
        record[data.draw(texts.filter(lambda key: key not in record))] = data.draw(
            st.none() | texts | counts)
    else:
        del record[data.draw(st.sampled_from(sorted(record)))]
    lines[i] = json.dumps(record, ensure_ascii=False, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path} line {i + 1}: keys ")):
        parse(name, out)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ids, st.builds(
    DemographicAnnotation, user_id=st.just(""), country=st.none() | texts,
    continent=st.none() | texts, race=texts, age=st.none() | st.integers(0, 99),
    gender=st.none() | texts, eligible_youth=st.booleans()), max_size=6), st.data())
def test_annotations_round_trip_sorted_by_user_id(tmp_path_factory, drawn, data):
    annotations = {}
    for user_id, annotation in drawn.items():
        annotation.user_id = user_id
        annotations[user_id] = annotation
    out = tmp_path_factory.mktemp("annotations")
    write_annotations(out / "annotations.ndjson", annotations)
    handed = {user_id: annotations[user_id] for user_id in sorted(annotations)}
    assert same(handed, parse("annotations", out))
    if annotations:
        assert_key_change_refused(out, "annotations", out / "annotations.ndjson", data)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ids, st.tuples(finite, finite), max_size=6))
def test_influence_round_trips_scaled_scores(tmp_path_factory, scores):
    # Written as the influence stage writes it: rows sorted, floats by repr.
    out = tmp_path_factory.mktemp("influence")
    ranked = sorted(scores.items())
    artifacts.write_csv(out / "influence.csv", ["user_id", "raw", "scaled"],
                        ([user_id, repr(raw), repr(scaled)] for user_id, (raw, scaled) in ranked))
    assert same({user_id: scaled for user_id, (_, scaled) in ranked},
                parse("scaled_influence", out))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ids, st.integers(0, 500), max_size=8), st.data())
def test_assignments_round_trip_sorted_by_tweet_id(tmp_path_factory, assignments, data):
    out = tmp_path_factory.mktemp("assignments")
    topics.write_assignments(out / "topic_assignments.ndjson", assignments)
    handed = {tweet_id: assignments[tweet_id] for tweet_id in sorted(assignments)}
    assert same(handed, parse("assignments", out))
    if assignments:
        assert_key_change_refused(out, "assignments", out / "topic_assignments.ndjson", data)


@settings(max_examples=60, deadline=None)
@given(st.lists(ids, min_size=1, max_size=8, unique=True), st.data())
def test_graph_and_members_round_trip(tmp_path_factory, nodes, data):
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                      st.integers(0, 3), st.integers(0, 3))
    edges = [e for e in data.draw(st.lists(pairs, max_size=12)) if e[0] != e[1]]
    g = InteractionGraph.from_weighted_edges(edges, nodes=nodes)
    out = tmp_path_factory.mktemp("graph")
    write_edge_csv(g, out / "graph_edges.csv")
    write_node_list(g, out / "graph_nodes.txt")
    assert same(g, parse("graph", out))

    labels = sorted((node, i % 3) for i, node in enumerate(nodes))
    artifacts.write_csv(out / "community_labels.csv", ["user_id", "community_id"], labels)
    assert same({user_id for user_id, _ in labels}, parse("community_members", out))


# A value of each type a JSON stats field may declare.
json_values = {int: counts, bool: st.booleans(), float: finite, type(None): st.none(),
               str: texts, list: st.lists(texts, max_size=3),
               dict: st.dictionaries(texts, counts, max_size=3)}


@pytest.mark.parametrize("name, fields", [
    (name, pipeline._INTERMEDIATES[name][2])
    for name in ("ingest_stats", "graph_stats", "community_stats", "topic_stats")
])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_stats_round_trip_and_refuse_key_changes(tmp_path_factory, name, fields, data):
    """A stats file written with values of its declared types reads back
    equal; with one key removed, added or given a value of another type, its
    parse is refused, naming the file and the key."""
    stats = {key: data.draw(st.one_of(*map(json_values.get, types)))
             for key, types in fields.items()}
    out = tmp_path_factory.mktemp(name)
    (path,), *_ = pipeline._INTERMEDIATES[name]
    artifacts.write_json(out / path, stats)
    assert same(dict(sorted(stats.items())), parse(name, out))

    key = data.draw(st.sampled_from(sorted(stats)))
    change = data.draw(st.sampled_from(["remove", "add", "retype"]))
    if change == "remove":
        del stats[key]
        reason = f"key {key} is missing"
    elif change == "add":
        key = data.draw(texts.filter(lambda extra: extra not in stats))
        stats[key] = data.draw(counts)
        reason = f"key {key} is not expected"
    else:
        other = data.draw(st.sampled_from([t for t in json_values if t not in fields[key]]))
        stats[key] = data.draw(json_values[other])
        reason = f"{key} {json.dumps(stats[key], sort_keys=True)} is not "
    artifacts.write_json(out / path, stats)
    with pytest.raises(ValueError, match=re.escape(f"{out / path}: {reason}")):
        parse(name, out)


@pytest.fixture(scope="module")
def shuffled_config(tmp_path_factory):
    """The seed-7 fixture with its tweet and user lines shuffled, so that no
    value comes out in id order unless it is sorted."""
    config = write_fixture(tmp_path_factory.mktemp("fixture"), seed=7, n_tweets=2000)
    for name in ("tweets.ndjson", "users.ndjson"):
        path = config.parent / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(name).shuffle(lines)
        path.write_text("".join(lines), encoding="utf-8")
    return config


def test_every_value_a_full_run_hands_equals_its_parse(shuffled_config, tmp_path,
                                                       monkeypatch):
    handed = {}

    def recording(stage):
        @functools.wraps(stage)
        def wrapper(cfg, held):
            written = stage(cfg, held)
            handed.update(written)
            return written
        return wrapper

    for stage in pipeline.STAGES:
        name = f"stage_{stage}"
        monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
    cfg = load_config(shuffled_config)
    cfg.out_dir = str(tmp_path / "run")
    pipeline.run_pipeline(cfg)

    read = {name for stage in pipeline.STAGES
            for name in getattr(pipeline, f"stage_{stage}").reads}
    assert set(handed) == read
    for name, value in handed.items():
        assert same(value, parse(name, Path(cfg.out_dir))), name
