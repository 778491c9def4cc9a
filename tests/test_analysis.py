import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens.analysis import (ReportBundle, RepresentationReport, TopicEngagement,
                               disproportionality_report, emit_reports,
                               representation_ratio, topic_engagement)
from echolens.config import load_config
from echolens.demographics import DemographicAnnotation, DistributionResult
from echolens.influence import RankTable
from echolens.pipeline import run_pipeline
from echolens.synth import write_fixture

from _oracles import reference_representation_ratio
from conftest import make_tweet


class TestRepresentationRatio:
    def test_hand_example_exactly_two(self):
        topic = {"X": 6, "other": 4}
        corpus = {"X": 30, "other": 70}
        assert representation_ratio(topic, corpus, "X") == 2.0

    def test_equal_shares_ratio_one(self):
        topic = {"X": 3, "Y": 7}
        corpus = {"X": 30, "Y": 70}
        assert representation_ratio(topic, corpus, "X") == 1.0

    def test_absent_bucket_ratio_zero(self):
        assert representation_ratio({"Y": 5}, {"X": 10, "Y": 10}, "X") == 0.0

    def test_zero_corpus_share_is_missing(self):
        assert representation_ratio({"X": 1}, {"X": 0, "Y": 5}, "X") is None

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            representation_ratio({}, {}, "X")

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from("XYZ"), st.integers(0, 10 ** 12)),
           st.dictionaries(st.sampled_from("XYZ"), st.integers(0, 10 ** 12)).filter(
               lambda counts: sum(counts.values()) > 0))
    def test_within_four_ulp_of_exact_ratio(self, topic, corpus):
        got = representation_ratio(topic, corpus, "X")
        want = reference_representation_ratio(topic, corpus, "X")
        if want is None:
            assert got is None
        elif want == 0:
            assert got == 0.0 and type(got) is float
        else:
            assert abs(got - float(want)) <= 4 * math.ulp(float(want))


def engagement(cluster_id, counts):
    return TopicEngagement(cluster_id=cluster_id, counts=dict(counts))


class TestDisproportionalityReport:
    def test_ratio_two_flagged_over(self):
        report = disproportionality_report(
            [engagement(0, {"X": 6, "Y": 4})], {"X": 30, "Y": 70}, axis="race",
            tau_hi=1.25, tau_lo=0.8)
        row = next(r for r in report.rows if r.bucket == "X")
        assert row.ratio == 2.0
        assert row.direction == "over"

    def test_uniform_null_no_flags(self):
        engagements = [engagement(c, {"X": 10, "Y": 30}) for c in range(4)]
        corpus = {"X": 40, "Y": 120}
        report = disproportionality_report(engagements, corpus, axis="race")
        assert report.rows
        for row in report.rows:
            assert abs(row.ratio - 1.0) < 1e-9
            assert row.direction == ""

    def test_rows_sorted_by_abs_log_ratio(self):
        engagements = [engagement(0, {"X": 5, "Y": 5}),
                       engagement(1, {"X": 9, "Y": 1}),
                       engagement(2, {"Y": 10})]
        corpus = {"X": 14, "Y": 16}
        report = disproportionality_report(engagements, corpus, axis="race")
        keys = [abs(math.log(r.ratio)) if r.ratio > 0 else math.inf
                for r in report.rows]
        assert keys == sorted(keys, reverse=True)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            disproportionality_report([], {}, axis="race", tau_hi=0.9)
        with pytest.raises(ValueError):
            disproportionality_report([], {}, axis="race", tau_lo=1.1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
        min_size=1, max_size=6))
    def test_shares_weighted_ratios_reconstruct_unity(self, topic_rows):
        buckets = ("A", "B", "C")
        engagements = []
        corpus = {b: 0 for b in buckets}
        for cid, row in enumerate(topic_rows):
            counts = {b: n for b, n in zip(buckets, row) if n > 0}
            engagements.append(engagement(cid, counts))
            for b, n in counts.items():
                corpus[b] += n
        corpus = {b: n for b, n in corpus.items() if n > 0}
        if not corpus:
            return
        for eng in engagements:
            if sum(eng.counts.values()) == 0:
                continue
            total = sum(
                (corpus[b] / sum(corpus.values())) * representation_ratio(eng.counts, corpus, b)
                for b in corpus)
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
            "u3": DemographicAnnotation(user_id="u3", gender=None, race="White"),
        }
        assignments = {"t1": 0, "t2": 0, "t3": 1, "t4": 1}
        return assignments, tweets, annotations

    def test_counts_and_unclassified(self):
        assignments, tweets, annotations = self.fixture()
        engagements, corpus = topic_engagement(assignments, tweets, annotations,
                                               axis="gender")
        by_id = {e.cluster_id: e for e in engagements}
        assert by_id[0].counts == {"female": 1, "male": 1}
        assert by_id[1].counts == {}
        assert by_id[1].unclassified == 2  # missing gender + unannotated author
        assert corpus == {"female": 1, "male": 1}

    def test_retweet_weighting_option(self):
        assignments, tweets, annotations = self.fixture()
        engagements, corpus = topic_engagement(assignments, tweets, annotations,
                                               axis="gender", retweet_weighted=True)
        by_id = {e.cluster_id: e for e in engagements}
        assert by_id[0].counts == {"female": 5, "male": 1}
        assert corpus == {"female": 5, "male": 1}

    def test_race_axis_keeps_inconclusive_bucket(self):
        tweets = [make_tweet("t1", author_id="u1")]
        annotations = {"u1": DemographicAnnotation(user_id="u1", race="Inconclusive")}
        engagements, corpus = topic_engagement({"t1": 0}, tweets, annotations,
                                               axis="race")
        assert engagements[0].counts == {"Inconclusive": 1}
        assert corpus == {"Inconclusive": 1}


def tiny_bundle():
    return ReportBundle(
        rank_table=RankTable(rows=[(1, "Hub Org", "Hub Org", "Individual")],
                             columns={}),
        continent_distribution=DistributionResult(buckets={"Africa": (2, 1.0)}),
        ethnicity_distribution=DistributionResult(buckets={"White": (1, 0.5),
                                                           "Asian": (1, 0.5)}),
        representation=RepresentationReport(rows=[], tau_hi=1.25, tau_lo=0.8),
        config_hash="cafe" * 16,
        seed=7,
        stage_counts={"records_read": 10},
        data_fixtures={"gazetteer.csv": "00" * 32},
    )


class TestEmitReports:
    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_reports(tiny_bundle(), a)
        emit_reports(tiny_bundle(), b)
        for name in ("rank_table.csv", "continent_distribution.csv",
                     "ethnicity_distribution.csv", "disproportionality.csv",
                     "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_csv_only_writes_no_json_reports(self, tmp_path):
        emit_reports(tiny_bundle(), tmp_path, formats={"csv"})
        assert not (tmp_path / "rank_table.json").exists()
        assert not (tmp_path / "disproportionality.json").exists()
        assert (tmp_path / "manifest.json").exists()  # manifest is always json

    def test_manifest_lists_exactly_five_files(self, tmp_path):
        files = emit_reports(tiny_bundle(), tmp_path, formats={"csv"})
        assert len(files) == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["files"]) == sorted(files)
        assert manifest["config_hash"] == "cafe" * 16
        assert manifest["seed"] == 7

    def test_both_formats_listed(self, tmp_path):
        files = emit_reports(tiny_bundle(), tmp_path, formats={"csv", "json"})
        assert len(files) == 9

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_reports(tiny_bundle(), tmp_path, formats={"parquet"})


def test_report_rows_ordered_across_axes(tmp_path):
    """The report stage merges the per-axis reports into one order; on the
    2000-tweet fixture the leading rows mix axes, so the merge sort matters."""
    config_path = write_fixture(tmp_path / "fixture", seed=7, n_tweets=2000)
    cfg = load_config(config_path)
    cfg.out_dir = str(tmp_path / "run")
    cfg.formats = {"csv", "json"}
    run_pipeline(cfg)

    def key(row):
        ratio = float(row["ratio"])
        return (-(abs(math.log(ratio)) if ratio > 0 else math.inf),
                row["axis"], int(row["cluster_id"]), row["bucket"])

    with open(tmp_path / "run" / "disproportionality.csv", encoding="utf-8",
              newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(
        (tmp_path / "run" / "disproportionality.json").read_text())["rows"]
    for rows in (csv_rows, json_rows):
        keys = [key(r) for r in rows]
        assert keys == sorted(keys)
        assert len({r["axis"] for r in rows[:12]}) > 1
