import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from echolens import artifacts
from echolens.cli import main
from echolens.config import ConfigError, derive_seed, load_config, parse_config_text
from echolens.pipeline import STAGES
from echolens.synth import write_fixture

REPORT_FILES = ("rank_table.csv", "continent_distribution.csv",
                "ethnicity_distribution.csv", "disproportionality.csv",
                "manifest.json")

# sha256 of the `synth --seed 7` + `run --formats csv,json` outputs that no
# BLAS call touches and that do not depend on the absolute input path. The
# topic files are left out: their bytes go through BLAS gemm.
SEED7_SHA256 = {
    "influence.csv": "fcd274b08193542cfbcc46a9a81e9b432845763ab2202948cdd866fe7c1e352e",
    "influence_stats.json": "cc62f499ac26582e2204b96d93331e2641b146ff81e1c507c4e8381936d563d4",
    "rank_table.csv": "5d1ead04ded07fbe39cca8d31e3d2f57d95fef3d3b9cb2d61bdb04e55e627613",
    "rank_table.json": "617e27dfcca0808301b3dceb36f700978aae4c1aa6e23e51a16eb3844d1a25f8",
}


class TestConfig:
    def test_empty_config_yields_documented_defaults(self):
        cfg = parse_config_text("")
        assert cfg.min_community_size == 120
        assert cfg.damping == 0.85
        assert cfg.pagerank_tol == 1e-9
        assert cfg.pagerank_max_iter == 100
        assert cfg.lp_max_rounds == 100
        assert cfg.k == 250
        assert cfg.dim == 512
        assert cfg.tau == 0.6
        assert cfg.tau_hi == 1.25 and cfg.tau_lo == 0.8
        assert cfg.seed == 0
        assert cfg.formats == {"csv"}

    def test_unknown_key_reported_with_field(self):
        # threads was a knob that changed no output; it is now an unknown key.
        for key in ("dampign", "threads"):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(f"{key} = 4\n")
            assert exc.value.errors == [f"{key}: unknown key"]

    def test_stream_groups_parsed(self):
        cfg = parse_config_text(
            "stream.1.kind = keyword\n"
            "stream.1.keywords = youngo, climate\n"
            "stream.2.kind = geo_window\n"
            "stream.2.bbox = -5 30 5 45\n"
            "stream.2.window = 100 200\n")
        assert len(cfg.streams) == 2
        assert cfg.streams[0].keywords == ["youngo", "climate"]
        assert cfg.streams[1].bounding_box == (-5.0, 30.0, 5.0, 45.0)
        assert cfg.streams[1].window == (100, 200)

    def test_validation_collects_field_messages(self):
        cfg = parse_config_text("damping = 1.5\ntau_hi = 0.5\n")
        errors = cfg.validate(require_inputs=False)
        assert any("damping" in e for e in errors)
        assert any("tau_hi" in e for e in errors)

    def test_hash_stable_and_ignores_out_dir(self):
        a = parse_config_text("seed = 3\nout_dir = x\n")
        b = parse_config_text("seed = 3\nout_dir = y\n")
        c = parse_config_text("seed = 4\nout_dir = x\n")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_seed_fanout_fixed_and_stage_specific(self):
        assert derive_seed(7, "topics") == derive_seed(7, "topics")
        assert derive_seed(7, "topics") != derive_seed(7, "communities")
        assert derive_seed(7, "topics") != derive_seed(8, "topics")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    config = write_fixture(root, seed=7, n_tweets=600)
    return root, config


class TestExitCodes:
    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("damping = 2.0\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "damping" in capsys.readouterr().err

    def test_missing_required_inputs_exit_2(self, tmp_path):
        # no tweets/users keys at all -> config error with field messages
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        assert main(["run", "--config", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_missing_input_file_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tweets = /nonexistent/t.ndjson\nusers = /nonexistent/u.ndjson\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "missing input" in capsys.readouterr().err

    def test_stage_failure_exit_4_names_stage(self, fixture_dir, tmp_path, capsys):
        _, config = fixture_dir
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--k", "100000"])
        assert code == 4
        assert "topics" in capsys.readouterr().err

    def test_k_above_distinct_texts_exit_4_names_stage(self, fixture_dir, tmp_path,
                                                       capsys):
        # The fixture's studied corpus has more than 50 tweets but fewer
        # than 50 distinct texts.
        _, config = fixture_dir
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--k", "50"])
        assert code == 4
        err = capsys.readouterr().err
        assert "stage topics failed: k=50 exceeds number of distinct vectors" in err

    def test_empty_studied_corpus_exit_4_names_stage(self, fixture_dir, tmp_path,
                                                     capsys):
        # A gate above every community's size leaves no tweet to study.
        _, config = fixture_dir
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--min-community-size", "100000"])
        assert code == 4
        err = capsys.readouterr().err
        assert "stage topics failed: no tweets were studied: " in err
        assert "communities past the gate have 0 members" in err

    def test_all_records_rejected_exit_4_names_stage(self, tmp_path, capsys):
        config = write_fixture(tmp_path / "fixture", seed=7, n_tweets=600)
        tweets = tmp_path / "fixture" / "tweets.ndjson"
        tweets.write_text("{not json\n" * 600, encoding="utf-8")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "stage ingest failed: no records kept: 600 read, 600 rejected, 0 filtered" in err

    def test_stage_without_prerequisite_exit_3_names_stage(self, fixture_dir,
                                                           tmp_path, capsys):
        _, config = fixture_dir
        code = main(["influence", "--config", str(config),
                     "--out", str(tmp_path / "fresh")])
        assert code == 3
        assert "graph" in capsys.readouterr().err


class TestPipelineRuns:
    def test_ingest_stats_list_parse_errors_by_line(self, tmp_path):
        config = write_fixture(tmp_path / "fixture", seed=7, n_tweets=600)
        tweets = tmp_path / "fixture" / "tweets.ndjson"
        lines = tweets.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "[1, 2]\n"
        tweets.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        stats = json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))
        assert stats["tweet_parse_errors"] == ["line 3: line is not a JSON object"]
        assert stats["user_parse_errors"] == []
        assert stats["records_rejected"] == 1

    def test_full_run_writes_reports(self, fixture_dir, tmp_path):
        _, config = fixture_dir
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == sorted(REPORT_FILES)
        for name in REPORT_FILES:
            assert (out / name).exists()

    def test_rerun_same_seed_identical_manifest(self, fixture_dir, tmp_path):
        _, config = fixture_dir
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(b)]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_staged_equals_full_pipeline(self, fixture_dir, tmp_path):
        _, config = fixture_dir
        full, staged = tmp_path / "full", tmp_path / "staged"
        assert main(["run", "--config", str(config), "--out", str(full)]) == 0
        for stage in STAGES:
            assert main([stage, "--config", str(config), "--out", str(staged)]) == 0, stage
        names = sorted(p.name for p in full.iterdir())
        assert names == sorted(p.name for p in staged.iterdir())
        assert set(REPORT_FILES) < set(names)
        for name in names:
            assert (full / name).read_bytes() == (staged / name).read_bytes(), name

    def test_formats_override_adds_json(self, fixture_dir, tmp_path):
        _, config = fixture_dir
        out = tmp_path / "withjson"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--formats", "csv,json"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["files"]) == 9
        assert (out / "rank_table.json").exists()

    def test_review_sample_deterministic(self, fixture_dir, tmp_path):
        _, config = fixture_dir
        out = tmp_path / "rs"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["review-sample", "--config", str(config), "--out", str(out),
                     "--n", "3", "--seed", "7"]) == 0
        first = (out / "review_sample.csv").read_bytes()
        assert main(["review-sample", "--config", str(config), "--out", str(out),
                     "--n", "3", "--seed", "7"]) == 0
        assert (out / "review_sample.csv").read_bytes() == first
        assert first.decode("utf-8").count("\n") == 4  # header + 3 sampled topics

    def test_intermediates_persisted_per_stage(self, fixture_dir, tmp_path):
        _, config = fixture_dir
        out = tmp_path / "inters"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        for name in ("selected_tweets.ndjson", "users.ndjson", "tweet_index.csv",
                     "graph_edges.csv", "graph_nodes.txt", "community_labels.csv",
                     "communities.csv", "review_flags.csv", "influence.csv",
                     "annotations.ndjson", "topic_assignments.ndjson",
                     "topic_clusters.csv"):
            assert (out / name).exists(), name


def test_synth_subcommand(tmp_path):
    out = tmp_path / "synthout"
    assert main(["synth", "--out", str(out), "--seed", "5", "--tweets", "300"]) == 0
    assert (out / "tweets.ndjson").exists()
    assert (out / "users.ndjson").exists()
    cfg = load_config(out / "config.cfg")
    assert Path(cfg.tweets).exists()
    assert cfg.k == 6


def test_seed7_blas_free_outputs_pinned(tmp_path):
    fixture, out = tmp_path / "fixture", tmp_path / "out"
    assert main(["synth", "--out", str(fixture), "--seed", "7"]) == 0
    assert main(["run", "--config", str(fixture / "config.cfg"), "--out", str(out),
                 "--formats", "csv,json"]) == 0
    assert {name: artifacts.sha256(out / name) for name in SEED7_SHA256} == SEED7_SHA256


@pytest.mark.parametrize("module", ["echolens", "echolens.cli"])
def test_import_loads_no_scipy(module):
    """Start-up cost guard: importing the package pulls in numpy only."""
    src = str(Path(artifacts.__file__).resolve().parents[1])
    code = (f"import sys, {module}; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
