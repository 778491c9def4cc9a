"""The stage runner's intermediates: a full run hands each one from the
stage that returns it to the stages whose parameters name it, a single stage
parses each at most once, each is let go after the last stage that reads it,
never outlives the call that made it, and names its producer when missing."""

import functools
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from echolens import artifacts, ingest, pipeline, topics
from echolens.cli import main
from echolens.config import load_config
from echolens.demographics import default_data_path
from echolens.pipeline import STAGES, review_sample, run_pipeline, run_stage
from echolens.synth import write_fixture


@pytest.fixture(scope="module")
def fixture_config(tmp_path_factory):
    return write_fixture(tmp_path_factory.mktemp("fixture"), seed=7, n_tweets=2000)


@pytest.fixture(scope="module")
def full_run(fixture_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    assert main(["run", "--config", str(fixture_config), "--out", str(out)]) == 0
    return out


def _config(config_path, out, **knobs):
    cfg = load_config(config_path)
    cfg.out_dir = str(out)
    for key, value in knobs.items():
        setattr(cfg, key, value)
    return cfg


def test_full_run_parses_no_file_it_wrote(fixture_config, tmp_path, monkeypatch):
    """Each stage hands what it writes to the later stages of the run, so no
    file under the run directory is parsed. The manifest's checksums of the
    reports are not parses and are not counted."""
    parses = Counter()

    def counting(fn):
        def wrapper(path, *args, **kwargs):
            parses[Path(path).resolve()] += 1
            return fn(path, *args, **kwargs)
        return wrapper

    for name in ("read_column", "read_csv", "read_csv_chunks", "read_json",
                 "read_ndjson", "read_lines"):
        monkeypatch.setattr(artifacts, name, counting(getattr(artifacts, name)))
    # The one raw reader: parse_corpus reads through it, and ingest streams
    # the tweets through it into select_streams.
    monkeypatch.setattr(ingest, "iter_corpus", counting(ingest.iter_corpus))

    out = (tmp_path / "run").resolve()
    cfg = _config(fixture_config, out)
    run_pipeline(cfg)
    assert [path.name for path in parses if out in path.parents] == []
    # The counters see the stages' reads: ingest parses the raw archive once.
    assert parses[Path(cfg.tweets).resolve()] == 1
    assert parses[Path(cfg.users).resolve()] == 1


def test_declared_readers_match_reads_and_bound_lifetimes(fixture_config, tmp_path,
                                                         monkeypatch):
    held_at_start = {}
    producer = {}

    def tracking(stage, fn):
        @functools.wraps(fn)
        def wrapper(cfg, held):
            held_at_start[stage] = set(held)
            written = fn(cfg, held)
            producer.update(dict.fromkeys(written, stage))
            return written
        return wrapper

    for stage in STAGES:
        name = f"stage_{stage}"
        monkeypatch.setattr(pipeline, name, tracking(stage, getattr(pipeline, name)))
    run_pipeline(_config(fixture_config, tmp_path / "run"))

    readers = {}
    for stage in STAGES:
        reads = getattr(pipeline, f"stage_{stage}").reads
        # Every read is handed over, by the stage the missing-input hint names.
        assert set(reads) <= held_at_start[stage], stage
        for name in reads:
            assert pipeline._INTERMEDIATES[name][1] == producer[name], name
            readers.setdefault(name, set()).add(stage)
    # Nothing is held into a stage after its last reader has run.
    for stage, held in held_at_start.items():
        later = set(STAGES[STAGES.index(stage):])
        assert {name for name in held if not readers[name] & later} == set(), stage
    assert "tweet_index" not in held_at_start["communities"]


def test_manifest_records_every_data_file_the_run_read(full_run):
    # Keyed by config key. continents.csv is bundled, not a config key, but
    # shapes the continent reports, so its sha256 sits with the configurable
    # data files' under "continents".
    manifest = json.loads((full_run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["data_fixtures"] == {
        key: artifacts.sha256(default_data_path(name))
        for key, name in (("classifier_names", "classifier_names.csv"),
                          ("continents", "continents.csv"), ("gazetteer", "gazetteer.csv"),
                          ("given_names", "given_names.csv"),
                          ("name_lists", "name_lists.csv"), ("stopwords", "stopwords.txt"))}


def test_manifest_keeps_data_files_that_share_a_base_name(fixture_config, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    given_names = shutil.copy(default_data_path("given_names.csv"), tmp_path / "a" / "names.csv")
    name_lists = shutil.copy(default_data_path("name_lists.csv"), tmp_path / "b" / "names.csv")
    run_pipeline(_config(fixture_config, tmp_path / "run", given_names=str(given_names),
                         name_lists=str(name_lists)))
    fixtures = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))[
        "data_fixtures"]
    assert len(fixtures) == 6
    assert fixtures["given_names"] == artifacts.sha256(given_names)
    assert fixtures["name_lists"] == artifacts.sha256(name_lists)
    assert fixtures["given_names"] != fixtures["name_lists"]


def test_in_process_knob_iteration_equals_fresh_run(fixture_config, tmp_path):
    knobs = {"min_community_size": 120, "k": 4}
    staged, fresh = tmp_path / "staged", tmp_path / "fresh"
    run_pipeline(_config(fixture_config, staged))
    tuned = _config(fixture_config, staged, **knobs)
    for stage in ("communities", "topics", "report"):
        run_stage(tuned, stage)
    run_pipeline(_config(fixture_config, fresh, **knobs))

    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    for name in names:
        assert (staged / name).read_bytes() == (fresh / name).read_bytes(), name


def test_topics_normalizes_each_distinct_text_once(fixture_config, full_run, tmp_path,
                                                   monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    calls = Counter()

    def counting(raw):
        calls[raw] += 1
        return normalize(raw)

    normalize = topics.normalize_text
    monkeypatch.setattr(topics, "normalize_text", counting)
    run_stage(_config(fixture_config, out), "topics")

    text_of = {t.tweet_id: t.text for t in pipeline._parse(out, "tweets")}
    studied = topics.read_assignments(out / "topic_assignments.ndjson")
    distinct = {text_of[tweet_id] for tweet_id in studied}
    assert len(distinct) < len(studied)
    assert set(calls) == distinct
    assert sum(calls.values()) == len(distinct)
    for name in ("topic_assignments.ndjson", "topic_clusters.csv", "topic_stats.json"):
        assert (out / name).read_bytes() == (full_run / name).read_bytes(), name


@pytest.mark.parametrize("stage, knob, kernel, reports", [
    ("communities", "lp_max_rounds", "label propagation",
     ("community_labels.csv", "communities.csv", "review_flags.csv", "community_stats.json")),
    ("influence", "pagerank_max_iter", "PageRank", ("influence.csv", "influence_stats.json")),
    ("topics", "kmeans_max_iter", "k-means",
     ("topic_assignments.ndjson", "topic_clusters.csv", "topic_stats.json")),
])
def test_kernel_stopped_at_its_limit_warns_once(stage, knob, kernel, reports, fixture_config,
                                                full_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    capsys.readouterr()
    run_stage(_config(fixture_config, out), stage)
    assert capsys.readouterr().err == ""
    for name in reports:
        assert (out / name).read_bytes() == (full_run / name).read_bytes(), name

    run_stage(_config(fixture_config, out, **{knob: 1}), stage)
    assert capsys.readouterr().err == (f"warning: {kernel} stopped at {knob}=1 "
                                       "without converging\n")
    stats = json.loads((out / reports[-1]).read_text(encoding="utf-8"))
    assert stats["converged"] is False


def test_gate_that_keeps_no_community_warns_once(fixture_config, full_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    capsys.readouterr()
    run_stage(_config(fixture_config, out), "communities")
    assert capsys.readouterr().err == ""

    run_stage(_config(fixture_config, out, min_community_size=150), "communities")
    stats = json.loads((out / "community_stats.json").read_text(encoding="utf-8"))
    assert capsys.readouterr().err == (
        "warning: the community gate at min_community_size=150 kept none of "
        f"{stats['communities_pre_gate']} communities\n")
    assert stats["communities_pre_gate"] > 0 and stats["communities_post_gate"] == 0


@pytest.mark.parametrize("name, consumer, producer", [
    ("selected_tweets.ndjson", "graph", "ingest"),
    ("tweet_index.csv", "graph", "ingest"),
    ("users.ndjson", "communities", "ingest"),
    ("graph_edges.csv", "communities", "graph"),
    ("graph_nodes.txt", "communities", "graph"),
    ("community_labels.csv", "topics", "communities"),
    ("annotations.ndjson", "topics", "demographics"),
    ("influence.csv", "report", "influence"),
    ("topic_assignments.ndjson", "report", "topics"),
    ("ingest_stats.json", "report", "ingest"),
    ("graph_stats.json", "report", "graph"),
    ("community_stats.json", "report", "communities"),
    ("topic_stats.json", "report", "topics"),
    ("topic_clusters.csv", "review-sample", "topics"),
])
def test_missing_intermediate_names_its_producer(name, consumer, producer, fixture_config,
                                                 full_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    (out / name).unlink()
    capsys.readouterr()
    assert main([consumer, "--config", str(fixture_config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert name in err
    assert f"run the {producer} stage first" in err
    assert err.count("missing input") == 1


@pytest.mark.parametrize("n", [0, -1])
def test_review_sample_rejects_n_below_one(n, fixture_config, full_run):
    # Checked before any intermediate is read or any file is written.
    cfg = _config(fixture_config, full_run, review_sample_size=n)
    with pytest.raises(ValueError, match=r"^review_sample_size: must be >= 1$"):
        review_sample(cfg)
    assert not (full_run / "review_sample.csv").exists()


def test_review_sample_takes_size_from_config(fixture_config, full_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    path = review_sample(_config(fixture_config, out, review_sample_size=3))
    rows = list(artifacts.read_csv(path))
    assert len(rows) == 3
    assert len({row["cluster_id"] for row in rows}) == 3


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 50])
def test_review_sample_writes_size_or_every_nonempty_topic(size, fixture_config, full_run,
                                                           tmp_path):
    # Six non-empty topics in strata of two: largest-remainder quotas give
    # size 4 its four rows, where rounding each stratum's share gave three.
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    nonempty = {row["cluster_id"] for row in artifacts.read_csv(out / "topic_clusters.csv")
                if int(row["size"]) > 0}
    assert len(nonempty) == 6
    rows = list(artifacts.read_csv(review_sample(
        _config(fixture_config, out, review_sample_size=size))))
    assert len(rows) == min(size, len(nonempty))
    assert len({row["cluster_id"] for row in rows}) == len(rows)
    assert {row["cluster_id"] for row in rows} <= nonempty
    strata = Counter(row["stratum"] for row in rows)
    assert max(strata.values()) - min(strata[s] for s in ("small", "medium", "large")) <= 1
