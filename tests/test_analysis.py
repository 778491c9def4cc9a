import csv
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens import demographics, pipeline, topics
from echolens.analysis import disproportionality_report, emit_reports, topic_engagement
from echolens.config import load_config
from echolens.demographics import DemographicAnnotation
from echolens.pipeline import run_pipeline
from echolens.synth import write_fixture

from _oracles import reference_disproportionality, reference_representation_ratio
from conftest import make_tweet


def report(per_topic, corpus, axis="race", **taus):
    """disproportionality_report over one axis's engagement."""
    return disproportionality_report({axis: (per_topic, corpus)}, **taus)


def ratio_row(topic, corpus, bucket):
    """The row for bucket in a one-topic report, or None when there is none."""
    return next((r for r in report({0: topic}, corpus) if r.bucket == bucket), None)


def sort_key(axis, cluster_id, bucket, ratio):
    return (-(abs(math.log(ratio)) if ratio > 0 else math.inf), axis, cluster_id, bucket)


class TestRepresentationRatio:
    def test_hand_example_exactly_two(self):
        topic = {"X": 6, "other": 4}
        corpus = {"X": 30, "other": 70}
        assert ratio_row(topic, corpus, "X").ratio == 2.0

    def test_equal_shares_ratio_one(self):
        topic = {"X": 3, "Y": 7}
        corpus = {"X": 30, "Y": 70}
        assert ratio_row(topic, corpus, "X").ratio == 1.0

    def test_absent_bucket_ratio_zero(self):
        assert ratio_row({"Y": 5}, {"X": 10, "Y": 10}, "X").ratio == 0.0

    def test_zero_corpus_share_is_missing(self):
        assert ratio_row({"X": 1}, {"X": 0, "Y": 5}, "X") is None
        assert [r.bucket for r in report({0: {"X": 1}}, {"X": 0, "Y": 5})] == ["Y"]

    def test_empty_corpus_gives_no_rows(self):
        assert report({0: {"X": 1}}, {}) == []
        assert report({0: {"X": 1}}, {"X": 0}) == []

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from("XYZ"), st.integers(0, 10 ** 12)),
           st.dictionaries(st.sampled_from("XYZ"), st.integers(0, 10 ** 12)).filter(
               lambda counts: sum(counts.values()) > 0))
    def test_within_four_ulp_of_exact_ratio(self, topic, corpus):
        got = ratio_row(topic, corpus, "X")
        want = reference_representation_ratio(topic, corpus, "X")
        if sum(topic.values()) == 0:
            assert report({0: topic}, corpus) == []  # a topic without mass gives no row
        elif want is None:
            assert got is None
        elif want == 0:
            assert got.ratio == 0.0 and type(got.ratio) is float
        else:
            assert abs(got.ratio - float(want)) <= 4 * math.ulp(float(want))


class TestDisproportionalityReport:
    def test_ratio_two_flagged_over(self):
        rows = report({0: {"X": 6, "Y": 4}}, {"X": 30, "Y": 70}, tau_hi=1.25, tau_lo=0.8)
        row = next(r for r in rows if r.bucket == "X")
        assert row.ratio == 2.0
        assert row.direction == "over"

    def test_ratio_at_a_threshold_is_flagged(self):
        rows = report({0: {"X": 5, "Y": 5}, 1: {"X": 4, "Y": 6}}, {"X": 40, "Y": 60})
        assert [(r.cluster_id, r.bucket, r.ratio, r.direction) for r in rows
                if r.bucket == "X"] == [(0, "X", 1.25, "over"), (1, "X", 1.0, "")]
        rows = report({0: {"X": 4, "Y": 6}}, {"X": 50, "Y": 50})
        assert [(r.bucket, r.ratio, r.direction) for r in rows] == [
            ("X", 0.8, "under"), ("Y", 1.2, "")]

    def test_uniform_null_no_flags(self):
        rows = report({c: {"X": 10, "Y": 30} for c in range(4)}, {"X": 40, "Y": 120})
        assert rows
        for row in rows:
            assert abs(row.ratio - 1.0) < 1e-9
            assert row.direction == ""

    def test_rows_sorted_by_abs_log_ratio(self):
        corpus = {"X": 14, "Y": 16}
        rows = disproportionality_report({
            "race": ({0: {"X": 5, "Y": 5}, 1: {"X": 9, "Y": 1}, 2: {"Y": 10}}, corpus),
            # The same topics under other ids: equal ratios order by axis first.
            "gender": ({0: {"X": 9, "Y": 1}, 1: {"X": 5, "Y": 5}, 2: {"Y": 10}}, corpus)})
        keys = [sort_key(r.axis, r.cluster_id, r.bucket, r.ratio) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 12
        assert [(r.axis, r.cluster_id, r.bucket) for r in rows[-4:]] == [
            ("gender", 1, "X"), ("race", 0, "X"), ("gender", 1, "Y"), ("race", 0, "Y")]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            disproportionality_report({}, tau_hi=0.9)
        with pytest.raises(ValueError):
            disproportionality_report({}, tau_lo=1.1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
        min_size=1, max_size=6))
    def test_shares_weighted_ratios_reconstruct_unity(self, topic_rows):
        buckets = ("A", "B", "C")
        per_topic = {}
        corpus = {b: 0 for b in buckets}
        for cid, row in enumerate(topic_rows):
            per_topic[cid] = {b: n for b, n in zip(buckets, row) if n > 0}
            for b, n in per_topic[cid].items():
                corpus[b] += n
        corpus = {b: n for b, n in corpus.items() if n > 0}
        totals = {}
        for row in report(per_topic, corpus):
            totals[row.cluster_id] = totals.get(row.cluster_id, 0.0) + row.corpus_share * row.ratio
        assert set(totals) == {cid for cid, counts in per_topic.items() if counts}
        for total in totals.values():
            assert abs(total - 1.0) < 1e-9


class TestTopicEngagement:
    def fixture(self):
        tweets = [make_tweet("t1", author_id="u1", retweets=4),
                  make_tweet("t2", author_id="u2"),
                  make_tweet("t3", author_id="u3"),
                  make_tweet("t4", author_id="ghost")]
        annotations = {
            "u1": DemographicAnnotation(user_id="u1", gender="female", race="Asian"),
            "u2": DemographicAnnotation(user_id="u2", gender="male", race="White"),
            "u3": DemographicAnnotation(user_id="u3", gender="unknown", race="White"),
            "u4": DemographicAnnotation(user_id="u4", gender=None, race="unknown"),
        }
        tweets.append(make_tweet("t5", author_id="u4"))
        assignments = {"t1": 0, "t2": 0, "t3": 1, "t4": 1, "t5": 1}
        return assignments, tweets, annotations

    def test_counts_and_unclassified(self):
        assignments, tweets, annotations = self.fixture()
        engagement = topic_engagement(assignments, tweets, annotations)
        assert set(engagement) == {"gender", "race", "continent"}
        # Topic 1 has unknown and missing genders and an unannotated author:
        # no gender mass; unknown and missing buckets count nowhere.
        assert engagement["gender"] == ({0: {"female": 1, "male": 1}},
                                        {"female": 1, "male": 1})
        assert engagement["race"] == ({0: {"Asian": 1, "White": 1}, 1: {"White": 1}},
                                      {"Asian": 1, "White": 2})
        assert engagement["continent"] == ({}, {})

    def test_retweet_weighting_option(self):
        assignments, tweets, annotations = self.fixture()
        per_topic, corpus = topic_engagement(assignments, tweets, annotations,
                                             retweet_weighted=True)["gender"]
        assert per_topic[0] == {"female": 5, "male": 1}
        assert corpus == {"female": 5, "male": 1}

    def test_race_axis_keeps_inconclusive_bucket(self):
        tweets = [make_tweet("t1", author_id="u1")]
        annotations = {"u1": DemographicAnnotation(user_id="u1", race="Inconclusive")}
        per_topic, corpus = topic_engagement({"t1": 0}, tweets, annotations)["race"]
        assert per_topic == {0: {"Inconclusive": 1}}
        assert corpus == {"Inconclusive": 1}


def tiny_bundle():
    """emit_reports's arguments after out_dir and formats, by name."""
    return dict(
        rank_table=[(1, "Hub Org", "Hub Org", "Individual")],
        continent_distribution=({"Africa": (2, 1.0)}, 0),
        ethnicity_distribution=({"White": (1, 0.5), "Asian": (1, 0.5)}, 0),
        representation=[],
        tau_hi=1.25,
        tau_lo=0.8,
        manifest={"config_hash": "cafe" * 16, "seed": 7,
                  "stage_counts": {"records_read": 10},
                  "data_fixtures": {"gazetteer": "00" * 32}},
    )


class TestEmitReports:
    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_reports(a, {"csv"}, **tiny_bundle())
        emit_reports(b, {"csv"}, **tiny_bundle())
        for name in ("rank_table.csv", "continent_distribution.csv",
                     "ethnicity_distribution.csv", "disproportionality.csv",
                     "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_csv_only_writes_no_json_reports(self, tmp_path):
        emit_reports(tmp_path, {"csv"}, **tiny_bundle())
        assert not (tmp_path / "rank_table.json").exists()
        assert not (tmp_path / "disproportionality.json").exists()
        assert (tmp_path / "manifest.json").exists()  # manifest is always json

    def test_manifest_lists_exactly_five_files(self, tmp_path):
        args = tiny_bundle()
        files = emit_reports(tmp_path, {"csv"}, **args)
        assert len(files) == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest.pop("files")) == sorted(files)
        # The given entries, as given; the caller's dict gains no "files".
        assert manifest == args["manifest"] == tiny_bundle()["manifest"]

    def test_both_formats_listed(self, tmp_path):
        files = emit_reports(tmp_path, {"csv", "json"}, **tiny_bundle())
        assert len(files) == 9

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_reports(tmp_path, {"parquet"}, **tiny_bundle())


@pytest.fixture(scope="module")
def seed7_run(tmp_path_factory):
    config_path = write_fixture(tmp_path_factory.mktemp("fixture"), seed=7, n_tweets=2000)
    cfg = load_config(config_path)
    cfg.out_dir = str(tmp_path_factory.mktemp("run"))
    cfg.formats = {"csv", "json"}
    run_pipeline(cfg)
    return cfg


def test_report_rows_ordered_across_axes(seed7_run):
    """The report sorts every axis's rows in one order; on the 2000-tweet
    fixture the leading rows mix axes, so the order is across axes."""
    out = seed7_run.out_dir

    def key(row):
        return sort_key(row["axis"], int(row["cluster_id"]), row["bucket"], float(row["ratio"]))

    with open(f"{out}/disproportionality.csv", encoding="utf-8", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    with open(f"{out}/disproportionality.json", encoding="utf-8") as fh:
        json_rows = json.load(fh)["rows"]
    for rows in (csv_rows, json_rows):
        keys = [key(r) for r in rows]
        assert keys == sorted(keys)
        assert len({r["axis"] for r in rows[:12]}) > 1


def test_report_rows_match_exact_oracle(seed7_run):
    """Every row of the seed-7 report against exact ratios counted axis by
    axis and topic by topic from the run's own intermediates."""
    out = seed7_run.out_dir
    tweets = pipeline._parse(Path(out), "tweets")
    want = reference_disproportionality(
        topics.read_assignments(f"{out}/topic_assignments.ndjson"), tweets,
        demographics.read_annotations(f"{out}/annotations.ndjson"),
        seed7_run.retweet_weighted, seed7_run.tau_hi, seed7_run.tau_lo)
    with open(f"{out}/disproportionality.json", encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]

    got = {(r["axis"], r["cluster_id"], r["bucket"]): r for r in rows}
    assert len(got) == len(rows)
    assert set(got) == set(want)
    assert {r["direction"] for r in rows} == {"over", "under", ""}
    for key, (exact, direction) in want.items():
        row = got[key]
        assert row["direction"] == direction, key
        if exact == 0:
            assert row["ratio"] == 0.0, key
        else:
            assert abs(row["ratio"] - float(exact)) <= 4 * math.ulp(float(exact)), key
    keys = [sort_key(*key, got[key]["ratio"]) for key in got]
    assert keys == sorted(keys)
