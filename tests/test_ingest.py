import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens import ingest
from echolens.community import CommunityAssignment, flag_offtopic
from echolens.config import RunConfig, load_config
from echolens.ingest import (STREAM_KINDS, StreamSpec, engagement_filter, keyword_needles,
                             match_text, parse_corpus, parse_tweet, parse_user,
                             select_streams, stream_predicate, write_ndjson)
from echolens.pipeline import run_stage
from echolens.synth import write_fixture

from _oracles import reference_select_streams
from conftest import make_tweet, make_user

FULL_TWEET = {
    "tweet_id": "t1", "author_id": "u1", "text": "proud of YOUNGO today",
    "created_at": 1625097600, "likes": 3, "retweets": 1, "replies": 0,
    "mentions": ["u9"], "reply_to": None, "retweet_of": "t0",
    "lat": -1.29, "lon": 36.82, "place_name": "Nairobi",
}


class TestParseCorpus:
    def test_round_trip_identity(self, tmp_corpus):
        path = tmp_corpus("tweets.ndjson", [json.dumps(FULL_TWEET)])
        records, errors = parse_corpus(path, schema="tweets")
        assert errors == []
        assert len(records) == 1
        assert vars(records[0]) == FULL_TWEET

    def test_missing_tweet_id_is_line_error(self, tmp_corpus):
        bad = {k: v for k, v in FULL_TWEET.items() if k != "tweet_id"}
        path = tmp_corpus("tweets.ndjson", [json.dumps(bad)])
        records, errors = parse_corpus(path, schema="tweets")
        assert records == []
        assert len(errors) == 1
        assert errors[0].line == 1

    def test_ten_line_fixture_two_malformed(self, tmp_corpus):
        lines = []
        for i in range(10):
            obj = dict(FULL_TWEET, tweet_id=f"t{i}", retweet_of=None)
            lines.append(json.dumps(obj))
        lines[3] = "{not json"
        lines[7] = json.dumps({"tweet_id": "t7"})  # missing required fields
        path = tmp_corpus("tweets.ndjson", lines)
        records, errors = parse_corpus(path, schema="tweets")
        assert len(records) == 8
        assert sorted(e.line for e in errors) == [4, 8]
        assert str(errors[0]) == (
            "line 4: Expecting property name enclosed in double quotes (column 2)")

    def test_duplicate_id_later_record_errors(self, tmp_corpus):
        first = dict(FULL_TWEET, text="first wins", retweet_of=None)
        second = dict(FULL_TWEET, text="second loses", retweet_of=None)
        path = tmp_corpus("tweets.ndjson", [json.dumps(first), json.dumps(second)])
        records, errors = parse_corpus(path, schema="tweets")
        assert len(records) == 1
        assert records[0].text == "first wins"
        assert len(errors) == 1 and errors[0].line == 2
        assert "duplicate" in errors[0].message

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            parse_corpus(tmp_path / "nope.ndjson", schema="tweets")

    def test_numbers_beyond_float_range_stop_no_parse(self, tmp_corpus):
        # float() of a 401-digit created_at and int() of an infinite
        # age_estimate raised OverflowError, which ended the whole parse.
        path = tmp_corpus("tweets.ndjson", [json.dumps(dict(FULL_TWEET, created_at=10**400))])
        records, errors = parse_corpus(path, schema="tweets")
        assert errors == [] and records[0].created_at == 10**400
        user = {"user_id": "u1", "handle": "amina", "display_name": "Amina Diallo",
                "face_count": 1, "age_estimate": float("inf")}
        path = tmp_corpus("users.ndjson", [json.dumps(user), json.dumps(dict(user, user_id="u2",
                                                                             age_estimate=1.5))])
        records, errors = parse_corpus(path, schema="users")
        assert [str(e) for e in errors] == [
            "line 1: field 'age_estimate' must be a non-negative number"]
        assert [(u.user_id, u.age_estimate) for u in records] == [("u2", 1)]

    def test_retweet_and_reply_to_same_target_rejected(self):
        obj = dict(FULL_TWEET, reply_to="t0", retweet_of="t0")
        with pytest.raises(ValueError):
            parse_tweet(obj)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            parse_tweet(dict(FULL_TWEET, likes=-1))

    def test_coordinates_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_tweet(dict(FULL_TWEET, lat=91.0, lon=0.0))

    def test_user_round_trip_and_annotation_rule(self, tmp_corpus):
        good = {"user_id": "u1", "handle": "amina", "display_name": "Amina Diallo",
                "followers": 10, "has_profile_photo": True, "face_count": 1,
                "age_estimate": 22, "gender_estimate": "female",
                "account_kind": "individual"}
        path = tmp_corpus("users.ndjson", [json.dumps(good)])
        records, errors = parse_corpus(path, schema="users")
        assert errors == []
        assert vars(records[0]) == good
        # age/gender require exactly one detected face
        with pytest.raises(ValueError):
            parse_user(dict(good, face_count=2))
        with pytest.raises(ValueError):
            parse_user(dict(good, face_count=None))


@st.composite
def tweet_records(draw):
    tid = draw(st.integers(min_value=0, max_value=10_000))
    return make_tweet(
        tweet_id=f"t{tid}",
        author_id=f"u{draw(st.integers(0, 50))}",
        text=draw(st.text(max_size=40)),
        created_at=draw(st.integers(0, 2_000_000_000)),
        likes=draw(st.integers(0, 5)),
        retweets=draw(st.integers(0, 5)),
        replies=draw(st.integers(0, 5)),
        mentions=draw(st.lists(st.sampled_from(["u1", "u2", "u3"]), max_size=3)),
    )


class TestSerializeParseProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(tweet_records(), max_size=20, unique_by=lambda t: t.tweet_id))
    def test_parse_serialize_identity(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("rt") / "tweets.ndjson"
        write_ndjson(path, records)
        back, errors = parse_corpus(path, schema="tweets")
        assert errors == []
        assert back == records


def selected_ids(records, spec, users=None):
    """The ids one stream keeps, read by select_streams from a one-shot generator."""
    selected, _ = select_streams((t for t in records), [spec], users)
    return [t.tweet_id for t in selected]


class TestApplyStream:
    """Each stream kind, applied through stream_predicate and select_streams."""

    def test_keyword_case_insensitive(self):
        spec = StreamSpec(kind="keyword", keywords=["YOUNGO"])
        kept, kept_per_stream = select_streams(
            iter([make_tweet("t1", text="proud of youngo today")]), [spec], None)
        assert len(kept) == 1
        assert kept_per_stream == {"stream_1_keyword": 1}

    def test_multiword_keyword(self):
        spec = StreamSpec(kind="keyword", keywords=["UK Youth Climate Coalition"])
        tweets = [make_tweet("t1", text="joined the uk youth climate coalition rally"),
                  make_tweet("t2", text="climate coalition only")]
        assert selected_ids(tweets, spec) == ["t1"]

    def test_geo_window_48h_boundary(self):
        event = 1_700_000_000
        inside = make_tweet("t1", created_at=event - 47 * 3600, lat=0.0, lon=36.0)
        too_early = make_tweet("t2", created_at=event - 49 * 3600, lat=0.0, lon=36.0)
        outside_box = make_tweet("t3", created_at=event - 1, lat=50.0, lon=36.0)
        unlocated = make_tweet("t4", created_at=event - 1)
        # Either corner order gives the same box.
        for box in ((-5.0, 30.0, 5.0, 45.0), (5.0, 45.0, -5.0, 30.0)):
            caught = stream_predicate(StreamSpec(kind="geo_window", bounding_box=box,
                                                 window=(event - 48 * 3600, event)))
            assert [caught(t) for t in (inside, too_early, outside_box, unlocated)] == [
                True, False, False, False]

    def test_account_non_membership_dropped(self):
        spec = StreamSpec(kind="account", accounts=["u7"])
        assert selected_ids([make_tweet("t1", author_id="u1", mentions=[])], spec) == []

    def test_account_handle_resolution(self):
        spec = StreamSpec(kind="account", accounts=["AminaHandle"])
        users = {"u1": make_user("u1", handle="aminahandle")}
        assert stream_predicate(spec, users)(make_tweet("t1", author_id="u1"))
        assert not stream_predicate(spec)(make_tweet("t1", author_id="u1"))

    def test_mention_intersection(self):
        spec = StreamSpec(kind="mention", accounts=["u9"])
        tweets = [make_tweet("t1", mentions=["u9", "u2"]),
                  make_tweet("t2", mentions=["u2"])]
        assert selected_ids(tweets, spec) == ["t1"]

    def test_empty_spec_is_error(self):
        def unread():
            raise AssertionError("an invalid spec must fail before any record is read")
            yield

        for spec in (StreamSpec(kind="keyword", keywords=[]),
                     StreamSpec(kind="keyword", keywords=["  ", ""]),
                     StreamSpec(kind="geo_window"),
                     StreamSpec(kind="firehose")):
            with pytest.raises(ValueError):
                stream_predicate(spec)
            with pytest.raises(ValueError):
                select_streams(unread(), [StreamSpec(kind="account", accounts=["u1"]), spec],
                               None)

    def test_keyword_stream_normalizes_each_record_once(self, monkeypatch):
        keywords = ["YOUNGO", "UK Youth Climate Coalition", "#FridaysForFuture",
                    "COP26", "café", "  "]
        texts = ["proud of youngo today", "Joined the UK  youth climate\ncoalition",
                 "nothing to see", "#fridaysforfuture strike", "cafe\u0301 meetup",
                 "CAFÉ", "cop26 day one", "cop 26", "", "youth climate"]
        records = [make_tweet(f"t{i}", text=text) for i, text in enumerate(texts)]
        needles = [match_text(k) for k in keywords if k.strip()]
        expected = [t.tweet_id for t in records
                    if any(n in match_text(t.text) for n in needles)]

        calls = []

        def counting(text):
            calls.append(text)
            return match_text(text)

        monkeypatch.setattr(ingest, "match_text", counting)
        kept = selected_ids(records, StreamSpec(kind="keyword", keywords=keywords))
        assert kept == expected
        assert expected == ["t0", "t1", "t3", "t4", "t5", "t6"]
        assert calls[len(needles):] == texts

    @settings(max_examples=40, deadline=None)
    @given(st.lists(tweet_records(), max_size=25, unique_by=lambda t: t.tweet_id),
           st.lists(st.sampled_from(["hello", "world", "youngo", "zzz"]),
                    min_size=2, max_size=4, unique=True))
    def test_subset_and_keyword_partition_union(self, records, keywords):
        # Two streams that split the keywords keep what one stream with all
        # of them keeps.
        kept = selected_ids(records, StreamSpec(kind="keyword", keywords=keywords))
        assert set(kept) <= {t.tweet_id for t in records}
        half = len(keywords) // 2
        split = [StreamSpec(kind="keyword", keywords=keywords[:half]),
                 StreamSpec(kind="keyword", keywords=keywords[half:])]
        union, kept_per_stream = select_streams(iter(records), split, None)
        assert [t.tweet_id for t in union] == kept
        assert max(kept_per_stream.values()) <= len(kept) <= sum(kept_per_stream.values())


def test_keyword_needles_are_the_one_keyword_rule():
    assert keyword_needles(["  YOUNGO ", "", "Climate\tStrike", "cafe\u0301"]) == [
        "youngo", "climate strike", "caf\u00e9"]
    for keywords in ([], ["", "  \n"]):
        with pytest.raises(ValueError, match="non-blank keyword"):
            keyword_needles(keywords)
        # flag_offtopic refuses the same lists, through the same rule.
        with pytest.raises(ValueError, match="non-blank keyword"):
            flag_offtopic(CommunityAssignment(), [], keywords)


USERS = {f"u{i}": make_user(f"u{i}", handle=handle)
         for i, handle in enumerate(["amina", "BigVoice", "youngo", "h_u3"])}
WORDS = ["youngo", "Climate", "strike", "caf\u00e9", "cafe\u0301", "COP26", "  "]


@st.composite
def stream_specs(draw):
    kind = draw(st.sampled_from(STREAM_KINDS))
    if kind == "keyword":
        return StreamSpec(kind=kind, keywords=draw(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).filter(
                lambda keywords: any(k.strip() for k in keywords))))
    if kind in ("account", "mention"):
        # user ids, handles in any case, and names no user has
        return StreamSpec(kind=kind, accounts=draw(st.lists(st.sampled_from(
            ["u0", "u4", "AMINA", "bigvoice", "Youngo", "h_u3", "nobody"]),
            min_size=1, max_size=3)))
    corners = draw(st.lists(st.integers(-10, 10).map(float), min_size=4, max_size=4))
    start = draw(st.integers(0, 90))
    return StreamSpec(kind=kind, bounding_box=tuple(corners),
                      window=(start, draw(st.integers(start + 1, 100))))


@st.composite
def stream_corpora(draw):
    records = []
    for i in range(draw(st.integers(0, 30))):
        located = draw(st.booleans())
        records.append(make_tweet(
            f"t{i}", author_id=draw(st.sampled_from(["u0", "u1", "u2", "u3", "u4"])),
            text=" ".join(draw(st.lists(st.sampled_from(WORDS), max_size=4))),
            created_at=draw(st.integers(0, 100)),
            mentions=draw(st.lists(st.sampled_from(["u0", "u2", "u4"]), max_size=2)),
            lat=draw(st.integers(-10, 10).map(float)) if located else None,
            lon=draw(st.integers(-10, 10).map(float)) if located else None))
    # Specs may repeat, and none at all keeps everything.
    pool = draw(st.lists(stream_specs(), min_size=1, max_size=3))
    specs = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=5))]
    return records, specs, draw(st.sampled_from([None, USERS]))


@settings(max_examples=100, deadline=None)
@given(stream_corpora())
def test_select_streams_matches_per_stream_lists(corpus):
    records, specs, users = corpus
    selected, kept_per_stream = select_streams((t for t in records), specs, users)
    expected, expected_counts = reference_select_streams(records, specs, users)
    assert selected == expected
    assert list(kept_per_stream.items()) == list(expected_counts.items())


def test_select_streams_holds_no_dropped_record():
    # While the next record is produced, the one just decided may still be
    # alive; no record dropped before it is.
    specs = [StreamSpec(kind="keyword", keywords=["youngo"]),
             StreamSpec(kind="account", accounts=["u7"]),
             StreamSpec(kind="mention", accounts=["u9"]),
             StreamSpec(kind="geo_window", bounding_box=(-5.0, 30.0, 5.0, 45.0),
                        window=(0, 2_000_000_000))]
    dropped, alive = [], []

    def one_shot():
        for i in range(200):
            alive.append(sum(ref() is not None for ref in dropped))
            t = make_tweet(f"t{i}", text="youngo rally" if i % 4 == 0 else "other news")
            if i % 4:
                dropped.append(weakref.ref(t))
            yield t
            del t

    selected, kept_per_stream = select_streams(one_shot(), specs, None)
    assert [t.tweet_id for t in selected] == [f"t{i}" for i in range(0, 200, 4)]
    assert kept_per_stream["stream_1_keyword"] == 50
    assert len(dropped) == 150 and max(alive) <= 1


def test_ingest_stage_holds_only_the_tweets_it_keeps(tmp_path, monkeypatch):
    # While the next tweet is parsed, no tweet that no stream caught is alive
    # but the one just decided.
    cfg = load_config(write_fixture(tmp_path / "fixture", seed=7, n_tweets=600))
    cfg.out_dir = str(tmp_path / "out")
    users = {u.user_id: u for u in parse_corpus(cfg.users, "users")[0]}
    caught, _ = select_streams(parse_corpus(cfg.tweets, "tweets")[0], cfg.streams, users)
    caught_ids = {t.tweet_id for t in caught}
    del users, caught
    parse = ingest.iter_corpus
    refs, alive = [], []

    def tracking(path, schema, errors):
        records = parse(path, schema, errors)
        if schema != "tweets":
            yield from records
            return
        for t in records:
            alive.append({ref().tweet_id for ref in refs if ref() is not None})
            refs.append(weakref.ref(t))
            yield t
            del t

    monkeypatch.setattr(ingest, "iter_corpus", tracking)
    run_stage(cfg, "ingest")
    assert len(refs) > len(caught_ids) > 0
    assert max(len(ids - caught_ids) for ids in alive) <= 1


class TestEngagementFilter:
    def test_zero_engagement_removed(self):
        t = make_tweet("t1", likes=0, retweets=0, replies=0)
        assert engagement_filter([t]) == []

    def test_single_like_kept(self):
        t = make_tweet("t1", likes=1, retweets=0, replies=0)
        assert engagement_filter([t]) == [t]

    def test_hand_counted_fixture_preserves_order(self):
        engagements = [0, 0, 1, 2, 0]
        tweets = [make_tweet(f"t{i}", likes=e, retweets=0, replies=0)
                  for i, e in enumerate(engagements)]
        kept = engagement_filter(tweets)
        assert [t.tweet_id for t in kept] == ["t2", "t3"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(tweet_records(), max_size=30))
    def test_idempotent(self, records):
        once = engagement_filter(records)
        assert engagement_filter(once) == once


class TestCorpusStats:
    def test_counts_reconcile(self, tmp_path):
        tweets = [make_tweet("t1", text="youngo rally"),
                  make_tweet("t2", text="nothing relevant"),
                  make_tweet("t3", text="youngo again", likes=0, retweets=0, replies=0)]
        streams = [StreamSpec(kind="keyword", keywords=["youngo"]),
                   StreamSpec(kind="account", accounts=["u9"])]
        selected, kept_per_stream = select_streams(tweets, streams, None)
        assert [t.tweet_id for t in selected] == ["t1", "t3"]
        assert kept_per_stream == {"stream_1_keyword": 2, "stream_2_account": 0}

        # A stage run's accounting: read = kept + rejected + filtered.
        lines = [json.dumps(ingest.record_dict(t)) for t in tweets] + ["not json"]
        (tmp_path / "tweets.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_ndjson(tmp_path / "users.ndjson", [make_user("u1")])
        run_stage(RunConfig(tweets=str(tmp_path / "tweets.ndjson"),
                            users=str(tmp_path / "users.ndjson"),
                            out_dir=str(tmp_path / "out"), streams=streams), "ingest")
        stats = json.loads((tmp_path / "out" / "ingest_stats.json").read_text(encoding="utf-8"))
        assert {key: stats[key] for key in ("records_read", "records_kept", "records_rejected",
                                            "records_filtered", "records_kept_per_stream",
                                            "engagement_removed")} == {
            "records_read": 4, "records_kept": 1, "records_rejected": 1,
            "records_filtered": 2, "records_kept_per_stream": kept_per_stream,
            "engagement_removed": 1}

    def test_no_streams_keeps_everything(self):
        tweets = [make_tweet("t1"), make_tweet("t2")]
        assert select_streams(tweets, [], None) == (tweets, {})


def test_match_text_normalizes_case_and_whitespace():
    assert match_text("  Proud\tOF  Youngo ") == "proud of youngo"
