import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from echolens import artifacts, pipeline
from echolens.cli import main
from echolens.config import (ConfigError, RunConfig, derive_seed, load_config,
                             parse_config_text)
from echolens.pipeline import STAGES
from echolens.synth import write_fixture

REPORT_FILES = ("rank_table.csv", "continent_distribution.csv",
                "ethnicity_distribution.csv", "disproportionality.csv",
                "manifest.json")

# sha256 of the `synth --seed 7` + `run --formats csv,json` outputs that no
# BLAS call touches and that do not depend on the absolute input path. The
# topic files are left out: their bytes go through BLAS gemm.
SEED7_SHA256 = {
    "annotations.ndjson": "ff711c9e919b78fb0065054b6ac112958733bd57470646e65586fe2064eff1e7",
    "ingest_stats.json": "c18e3207def8927abcd2f732b8f09bb0bc8f069de5f413ba7b5b58032509d0f6",
    "continent_distribution.csv": "4a1746e14d7f098860838ec2c07b6a80c0f5b21cbc4507b706d328828a58f6bf",
    "continent_distribution.json": "d519e158a75f761df1461ca1cef6127cbd6185fdf8365a4c9cb6ce741e974d39",
    "ethnicity_distribution.csv": "9e39dd81b6ad0515804c1e8a869789d998a6db3acac0d19f2547b355abeac38d",
    "ethnicity_distribution.json": "93b8376d8333542e3dd433471fa7d21aa952f4c4a7c451de14e4d61ea5e4feca",
    "influence.csv": "fcd274b08193542cfbcc46a9a81e9b432845763ab2202948cdd866fe7c1e352e",
    "influence_stats.json": "cc62f499ac26582e2204b96d93331e2641b146ff81e1c507c4e8381936d563d4",
    "rank_table.csv": "5d1ead04ded07fbe39cca8d31e3d2f57d95fef3d3b9cb2d61bdb04e55e627613",
    "rank_table.json": "617e27dfcca0808301b3dceb36f700978aae4c1aa6e23e51a16eb3844d1a25f8",
}


# Config texts and what they parse to, pinned so that a change in how any key
# is parsed shows: (canonical_text, config_hash) for a text that parses, the
# ConfigError.errors list, in order, for one that does not.
EVERY_KEY_TEXT = """\
tweets = corpus/tweets.ndjson
users = corpus/users.ndjson
out_dir = elsewhere
seed = 11
min_community_size = 5
lp_max_rounds = 7
importance_mode = pagerank
damping = 0.5
pagerank_tol = 1e-6
pagerank_max_iter = 33
table_rows = 4
privacy = no
k = 9
dim = 64
kmeans_max_iter = 12
embedding_source = external
vectors = vectors.ndjson
tau = 0.7
tau_hi = 1.5
tau_lo = 0.5
retweet_weighted = YES
gazetteer = data/gaz.csv
name_lists = data/names.csv
classifier_names = data/classifier.csv
given_names = data/given.csv
stopwords = data/stop.txt
formats = json, csv
flag_keywords = #cop26, climate strike
review_sample_size = 3
stream.1.kind = keyword
stream.1.keywords = #fridaysforfuture, youth summit
stream.2.kind = account
stream.2.accounts = h01, some_handle
stream.3.kind = mention
stream.3.accounts = h02
stream.4.kind = geo_window
stream.4.bbox = -5, 30, 5, 45
stream.4.window = 2021-07-01T00:00:00 1625184000
"""

BLANK_PATHS_TEXT = """\
tweets =
users =
vectors =
gazetteer =
name_lists =
classifier_names =
given_names =
stopwords =
flag_keywords =
privacy = 1
retweet_weighted = true
"""

EVERY_KEY_VALUES = {
    "tweets": "corpus/tweets.ndjson", "users": "corpus/users.ndjson",
    "out_dir": "elsewhere", "seed": 11, "min_community_size": 5,
    "lp_max_rounds": 7, "importance_mode": "pagerank", "damping": 0.5,
    "pagerank_tol": 1e-6, "pagerank_max_iter": 33, "table_rows": 4,
    "privacy": False, "k": 9, "dim": 64, "kmeans_max_iter": 12,
    "embedding_source": "external", "vectors": "vectors.ndjson", "tau": 0.7,
    "tau_hi": 1.5, "tau_lo": 0.5, "retweet_weighted": True,
    "gazetteer": "data/gaz.csv", "name_lists": "data/names.csv",
    "classifier_names": "data/classifier.csv", "given_names": "data/given.csv",
    "stopwords": "data/stop.txt", "formats": {"csv", "json"},
    "flag_keywords": ["#cop26", "climate strike"], "review_sample_size": 3,
}

PARSED_CASES = {
    "defaults": ("", (
        "classifier_names=None\n"
        "damping=0.85\n"
        "dim=512\n"
        "embedding_source=builtin\n"
        "flag_keywords=\n"
        "formats=csv\n"
        "gazetteer=None\n"
        "given_names=None\n"
        "importance_mode=weighted_in_degree\n"
        "k=250\n"
        "kmeans_max_iter=100\n"
        "lp_max_rounds=100\n"
        "min_community_size=120\n"
        "name_lists=None\n"
        "pagerank_max_iter=100\n"
        "pagerank_tol=1e-09\n"
        "privacy=True\n"
        "retweet_weighted=False\n"
        "review_sample_size=30\n"
        "seed=0\n"
        "stopwords=None\n"
        "table_rows=10\n"
        "tau=0.6\n"
        "tau_hi=1.25\n"
        "tau_lo=0.8\n"
        "tweets=None\n"
        "users=None\n"
        "vectors=None\n"),
        "a2a512f5d65338a8a602126a7fd70a9e4cca1dbbc1acbc5fb72745da0a5068ee"),
    "every_key": (EVERY_KEY_TEXT, (
        "classifier_names=data/classifier.csv\n"
        "damping=0.5\n"
        "dim=64\n"
        "embedding_source=external\n"
        "flag_keywords=#cop26,climate strike\n"
        "formats=csv,json\n"
        "gazetteer=data/gaz.csv\n"
        "given_names=data/given.csv\n"
        "importance_mode=pagerank\n"
        "k=9\n"
        "kmeans_max_iter=12\n"
        "lp_max_rounds=7\n"
        "min_community_size=5\n"
        "name_lists=data/names.csv\n"
        "pagerank_max_iter=33\n"
        "pagerank_tol=1e-06\n"
        "privacy=False\n"
        "retweet_weighted=True\n"
        "review_sample_size=3\n"
        "seed=11\n"
        "stopwords=data/stop.txt\n"
        "table_rows=4\n"
        "tau=0.7\n"
        "tau_hi=1.5\n"
        "tau_lo=0.5\n"
        "tweets=corpus/tweets.ndjson\n"
        "users=corpus/users.ndjson\n"
        "vectors=vectors.ndjson\n"
        "stream.1=keyword|#fridaysforfuture,youth summit||None|None\n"
        "stream.2=account||h01,some_handle|None|None\n"
        "stream.3=mention||h02|None|None\n"
        "stream.4=geo_window|||(-5.0, 30.0, 5.0, 45.0)|(1625097600, 1625184000)\n"),
        "89f0b58cf7e8dadcfb1b8bd34300e078ba6c51f93a3a085a44e42a6e68a2cf89"),
    "blank_paths": (BLANK_PATHS_TEXT, (
        "classifier_names=None\n"
        "damping=0.85\n"
        "dim=512\n"
        "embedding_source=builtin\n"
        "flag_keywords=\n"
        "formats=csv\n"
        "gazetteer=None\n"
        "given_names=None\n"
        "importance_mode=weighted_in_degree\n"
        "k=250\n"
        "kmeans_max_iter=100\n"
        "lp_max_rounds=100\n"
        "min_community_size=120\n"
        "name_lists=None\n"
        "pagerank_max_iter=100\n"
        "pagerank_tol=1e-09\n"
        "privacy=True\n"
        "retweet_weighted=True\n"
        "review_sample_size=30\n"
        "seed=0\n"
        "stopwords=None\n"
        "table_rows=10\n"
        "tau=0.6\n"
        "tau_hi=1.25\n"
        "tau_lo=0.8\n"
        "tweets=None\n"
        "users=None\n"
        "vectors=None\n"),
        "96ce5ad8ed947930b53709fecfabdc8432dea86a15f0986d59cbd0b2eaa9c691"),
}

REJECTED_CASES = {
    "unknown_key": ("dampign = 4\n", ["dampign: unknown key"]),
    "threads": ("threads = 4\n", ["threads: unknown key"]),
    "streams": ("streams = x\n", ["streams: unknown key"]),
    "bad_int": ("k = many\n", ["k: invalid literal for int() with base 10: 'many'"]),
    "bad_float": ("damping = high\n", ["damping: could not convert string to float: 'high'"]),
    "bad_bool": ("privacy = maybe\n", ["privacy: expected a boolean, got 'maybe'"]),
    "duplicate_key": ("seed = 1\nseed = 2\n", ["line 2: duplicate key 'seed'"]),
    "error_order": (
        "k = x\nno equals sign\ndamping = y\nseed = 1\nseed = 2\n"
        "stream.1.kind = keyword\nstream.1.bogus = 1\nstream.x = 3\n"
        "privacy = maybe\nwhat = 1\nstream.2.kind = geo_window\n"
        "stream.2.bbox = 1 2 3\n",
        [
            "line 2: expected key = value",
            "line 5: duplicate key 'seed'",
            "line 8: stream keys look like stream.N.field",
            "k: invalid literal for int() with base 10: 'x'",
            "damping: could not convert string to float: 'y'",
            "privacy: expected a boolean, got 'maybe'",
            "what: unknown key",
            "stream.1: unknown keys ['bogus']",
            "stream.2: bbox needs four numbers",
        ]),
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

    def test_duplicate_stream_field_is_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("stream.1.kind = keyword\n"
                              "stream.1.keywords = a\n"
                              "stream.1.keywords = b\n")
        assert exc.value.errors == ["line 3: duplicate key 'stream.1.keywords'"]

    @pytest.mark.parametrize("name", sorted(PARSED_CASES))
    def test_parsed_text_matches_pinned(self, name):
        text, canonical, digest = PARSED_CASES[name]
        cfg = parse_config_text(text)
        assert cfg.canonical_text() == canonical
        assert cfg.config_hash() == digest

    def test_every_key_parses_to_its_type(self):
        cfg = parse_config_text(EVERY_KEY_TEXT)
        values = {k: v for k, v in vars(cfg).items() if k != "streams"}
        assert values == EVERY_KEY_VALUES
        assert ({k: type(v) for k, v in values.items()}
                == {k: type(v) for k, v in EVERY_KEY_VALUES.items()})

    @pytest.mark.parametrize("name", sorted(REJECTED_CASES))
    def test_rejected_text_matches_pinned(self, name):
        text, errors = REJECTED_CASES[name]
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert exc.value.errors == errors

    def test_readme_defaults_block_parses_to_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        block = next(code for code in readme.split("```")[1::2]
                     if "review_sample_size =" in code)
        keys = [line.partition("=")[0].strip() for line in block.splitlines()
                if line and not line.startswith("#")]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig)
                                      if f.name != "streams")
        cfg, defaults = parse_config_text(block), RunConfig()
        for key in keys:
            assert getattr(cfg, key) == getattr(defaults, key), key

    def test_validation_collects_field_messages(self):
        cfg = parse_config_text("damping = 1.5\ntau_hi = 0.5\n")
        errors = cfg.validate()
        assert any("damping" in e for e in errors)
        assert any("tau_hi" in e for e in errors)

    def test_hash_stable_and_ignores_out_dir(self):
        a = parse_config_text("seed = 3\nout_dir = x\n")
        b = parse_config_text("seed = 3\nout_dir = y\n")
        c = parse_config_text("seed = 4\nout_dir = x\n")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        # A blank path key is an unset one.
        assert parse_config_text("gazetteer =\n").config_hash() == parse_config_text("").config_hash()

    def test_seed_fanout_fixed_and_stage_specific(self):
        assert derive_seed(7, "topics") == derive_seed(7, "topics")
        assert derive_seed(7, "topics") != derive_seed(7, "communities")
        assert derive_seed(7, "topics") != derive_seed(8, "topics")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    config = write_fixture(root, seed=7, n_tweets=600)
    return root, config


@pytest.fixture(scope="module")
def primed(fixture_dir, tmp_path_factory):
    """A full run over the fixture, for tests that edit one of its files."""
    out = tmp_path_factory.mktemp("primed")
    assert main(["run", "--config", str(fixture_dir[1]), "--out", str(out)]) == 0
    return out


def _edited(**changes):
    """An edit of one NDJSON line that sets the given keys."""
    return lambda text: json.dumps({**json.loads(text), **changes})


def _without(key):
    """An edit of one NDJSON line that removes key."""
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


TWEET_KEYS = ("author_id", "created_at", "likes", "lat", "lon", "mentions", "place_name",
              "replies", "reply_to", "retweet_of", "retweets", "text", "tweet_id")
USER_KEYS = ("account_kind", "age_estimate", "display_name", "face_count", "followers",
             "gender_estimate", "handle", "has_profile_photo", "user_id")


class TestExitCodes:
    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("damping = 2.0\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "damping" in capsys.readouterr().err

    def test_empty_formats_override_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tweets = t.ndjson\nusers = u.ndjson\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--formats", ""]) == 2
        assert "formats: must be a non-empty subset" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", ["0", "-1", "-3"])
    def test_review_sample_n_below_one_exit_2(self, fixture_dir, tmp_path, capsys, n):
        # Unchecked, --n 0 wrote a header-only sample and --n -1 two rows.
        _, config = fixture_dir
        out = tmp_path / "o"
        code = main(["review-sample", "--config", str(config), "--out", str(out),
                     "--n", n])
        assert code == 2
        assert "config error: review_sample_size: must be >= 1" in capsys.readouterr().err
        assert not (out / "review_sample.csv").exists()

    def test_review_sample_corrupt_intermediate_exit_4(self, fixture_dir, tmp_path,
                                                        capsys):
        _, config = fixture_dir
        out = tmp_path / "o"
        out.mkdir()
        (out / "topic_clusters.csv").write_text("a,b\n1,2\n")
        code = main(["review-sample", "--config", str(config), "--out", str(out)])
        assert code == 4
        assert "stage review-sample failed: 'cluster_id'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, edit, fields", [
        ("report", "influence.csv", lambda row: row + ",99", 4),
        ("report", "influence.csv", lambda row: row.rsplit(",", 1)[0], 2),
        ("review-sample", "topic_clusters.csv", lambda row: row + ",99", 4),
    ])
    def test_ragged_csv_intermediate_exit_4_names_file_and_line(
            self, fixture_dir, tmp_path, capsys, command, name, edit, fields):
        # csv.DictReader kept an extra field under the key None, and padded a
        # short row with None.
        _, config = fixture_dir
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / name).read_text(encoding="utf-8").split("\n")
        lines[2] = edit(lines[2])
        (out / name).write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert (f"stage {command} failed: {out / name} line 3: {fields} fields, "
                f"the header has 3") in err

    @pytest.mark.parametrize("command, name, line, edit, reason", [
        # A truncated last line: json.loads named line 1 and a column, not the file.
        ("report", "annotations.ndjson", -1, lambda text: text[:text.index('"user_id"')],
         "Expecting property name enclosed in double quotes"),
        # Read back with the defaults, and the report exited 0.
        ("report", "annotations.ndjson", 3,
         lambda text: json.dumps({key: value for key, value in json.loads(text).items()
                                  if key not in ("race", "continent")}),
         "keys ['age', 'country', 'eligible_youth', 'gender', 'user_id'], expected "
         "['age', 'continent', 'country', 'eligible_youth', 'gender', 'race', 'user_id']"),
        # int() read 1.7 as cluster 1, and True as cluster 1.
        ("review-sample", "topic_assignments.ndjson", 3,
         lambda text: json.dumps({**json.loads(text), "cluster_id": 1.7}),
         "cluster_id 1.7 is not int"),
        ("review-sample", "topic_assignments.ndjson", 3,
         lambda text: json.dumps({**json.loads(text), "cluster_id": True}),
         "cluster_id true is not int"),
        ("report", "topic_assignments.ndjson", 3,
         lambda text: json.dumps({**json.loads(text), "tweet_id": 5}),
         "tweet_id 5 is not str"),
        # The tweet and user files were read by the raw-archive parser, which
        # ignores an unknown key and fills in a missing optional one: with
        # "x": 1 on a line, report exited 0.
        ("report", "selected_tweets.ndjson", 3, _edited(x=1),
         f"keys {sorted([*TWEET_KEYS, 'x'])}, expected {sorted(TWEET_KEYS)}"),
        ("graph", "selected_tweets.ndjson", 3, _without("place_name"),
         f"keys {sorted(set(TWEET_KEYS) - {'place_name'})}, expected"),
        ("graph", "selected_tweets.ndjson", 3, _edited(mentions="u0001"),
         "field 'mentions' must be a list of user ids"),
        ("report", "selected_tweets.ndjson", 3, _edited(retweets=-1),
         "field 'retweets' must be a non-negative integer"),
        ("graph", "selected_tweets.ndjson", 3, _edited(lat=91.0, lon=0.0),
         "coordinates out of range"),
        ("communities", "users.ndjson", 3, _edited(x=1),
         f"keys {sorted([*USER_KEYS, 'x'])}, expected {sorted(USER_KEYS)}"),
        ("demographics", "users.ndjson", 3, _without("followers"),
         f"keys {sorted(set(USER_KEYS) - {'followers'})}, expected"),
        ("report", "users.ndjson", 3, _edited(has_profile_photo="yes"),
         "field 'has_profile_photo' must be a boolean"),
        ("demographics", "users.ndjson", 3, _edited(gender_estimate="other"),
         "field 'gender_estimate' must be one of ('female', 'male', 'unknown')"),
    ])
    def test_malformed_ndjson_record_exit_4_names_file_and_line(
            self, fixture_dir, primed, tmp_path, capsys, command, name, line, edit, reason):
        _, config = fixture_dir
        out = tmp_path / "o"
        shutil.copytree(primed, out)
        lines = (out / name).read_text(encoding="utf-8").split("\n")[:-1]
        line = line if line > 0 else len(lines)
        lines[line - 1] = edit(lines[line - 1])
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"stage {command} failed: {out / name} line {line}" in err
        assert reason in err

    @pytest.mark.parametrize("command, name, key", [
        # Read into a dict, the later line won: report exited 0 with a
        # changed disproportionality.csv.
        ("report", "topic_assignments.ndjson", "tweet_id"),
        ("review-sample", "topic_assignments.ndjson", "tweet_id"),
        ("report", "annotations.ndjson", "user_id"),
        ("graph", "selected_tweets.ndjson", "tweet_id"),
        ("communities", "users.ndjson", "user_id"),
    ])
    def test_repeated_ndjson_id_exit_4_names_file_and_both_lines(
            self, fixture_dir, primed, tmp_path, capsys, command, name, key):
        _, config = fixture_dir
        out = tmp_path / "o"
        shutil.copytree(primed, out)
        lines = (out / name).read_text(encoding="utf-8").split("\n")[:-1]
        record = json.loads(lines[2])
        lines.append(json.dumps({**record, "cluster_id": 0} if "cluster_id" in record
                                else record, sort_keys=True))
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out)]) == 4
        assert (f"stage {command} failed: {out / name} line {len(lines)}: {key} "
                f"{json.dumps(record[key])} repeats line 3") in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, reason", [
        # Read loosely, the string went into manifest.json and report exited 0.
        ("topic_stats.json", lambda stats: {**stats, "clustered_tweets": "1138"},
         'clustered_tweets "1138" is not int'),
        # Read loosely, report failed with the bare KeyError 'clustered_tweets'.
        ("topic_stats.json", lambda stats: {key: value for key, value in stats.items()
                                            if key != "clustered_tweets"},
         "key clustered_tweets is missing"),
        ("ingest_stats.json", lambda stats: {**stats, "records_read": True},
         "records_read true is not int"),
        # Each stats file refuses a key removed, a key added and a value retyped.
        ("ingest_stats.json", lambda stats: {k: v for k, v in stats.items() if k != "users_kept"},
         "key users_kept is missing"),
        ("ingest_stats.json", lambda stats: {**stats, "x": 1}, "key x is not expected"),
        ("graph_stats.json", lambda stats: {k: v for k, v in stats.items() if k != "edges"},
         "key edges is missing"),
        ("graph_stats.json", lambda stats: {**stats, "x": 1}, "key x is not expected"),
        ("graph_stats.json", lambda stats: {**stats, "nodes": "297"}, 'nodes "297" is not int'),
        ("community_stats.json",
         lambda stats: {k: v for k, v in stats.items() if k != "flagged"},
         "key flagged is missing"),
        ("community_stats.json", lambda stats: {**stats, "x": 1}, "key x is not expected"),
        ("community_stats.json", lambda stats: {**stats, "converged": 1},
         "converged 1 is not bool"),
        ("topic_stats.json", lambda stats: {**stats, "x": 1}, "key x is not expected"),
    ])
    def test_malformed_json_stats_exit_4_names_file_and_key(
            self, fixture_dir, primed, tmp_path, capsys, name, edit, reason):
        _, config = fixture_dir
        out = tmp_path / "o"
        shutil.copytree(primed, out)
        stats = json.loads((out / name).read_text(encoding="utf-8"))
        # As written, the file reads back equal.
        assert pipeline._parse(out, name.removesuffix(".json")) == stats
        (out / name).write_text(json.dumps(edit(stats)), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 4
        assert f"stage report failed: {out / name}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, column, cell, reason", [
        # int() and float() named neither the file nor the line.
        ("review-sample", "topic_clusters.csv", 0, "1.5", "cluster_id '1.5' is not int"),
        ("review-sample", "topic_clusters.csv", 1, "", "size '' is not int"),
        ("report", "influence.csv", 2, "abc", "scaled 'abc' is not float"),
    ])
    def test_unconvertible_csv_cell_exit_4_names_file_and_line(
            self, fixture_dir, tmp_path, capsys, command, name, column, cell, reason):
        _, config = fixture_dir
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / name).read_text(encoding="utf-8").split("\n")
        fields = lines[2].split(",", 2)
        fields[column] = cell
        lines[2] = ",".join(fields)
        (out / name).write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out)]) == 4
        assert (f"stage {command} failed: {out / name} line 3: {reason}"
                in capsys.readouterr().err)

    def test_edge_rows_balanced_only_as_a_slice_exit_4_names_file_and_line(
            self, fixture_dir, tmp_path, capsys):
        _, config = fixture_dir
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        (out / "graph_edges.csv").write_text(
            "src,dst,weight,retweets,replies\n11,12,1,1\n12,13,1,1,0,0\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["communities", "--config", str(config), "--out", str(out)]) == 4
        assert (f"stage communities failed: {out / 'graph_edges.csv'} line 2: 4 fields, "
                "the header has 5") in capsys.readouterr().err

    def test_stage_without_prerequisite_exit_3_names_stage(self, fixture_dir,
                                                           tmp_path, capsys):
        _, config = fixture_dir
        code = main(["influence", "--config", str(config),
                     "--out", str(tmp_path / "fresh")])
        assert code == 3
        assert "graph" in capsys.readouterr().err


def assert_staged_equals_full(args, tmp_path):
    """`run` and every stage run one by one, with the same args, write the
    same files byte for byte; returns the file names."""
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", *args, "--out", str(full)]) == 0
    for stage in STAGES:
        assert main([stage, *args, "--out", str(staged)]) == 0, stage
    names = sorted(p.name for p in full.iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    for name in names:
        assert (full / name).read_bytes() == (staged / name).read_bytes(), name
    return names


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
        names = assert_staged_equals_full(["--config", str(config)], tmp_path)
        assert set(REPORT_FILES) < set(names)

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


def test_seed7_single_community_contract(tmp_path):
    # A gate that only the largest community passes: the run still completes,
    # the one survivor keeps id 0, and staged stages agree with the full run.
    fixture = tmp_path / "fixture"
    assert main(["synth", "--out", str(fixture), "--seed", "7"]) == 0
    assert_staged_equals_full(["--config", str(fixture / "config.cfg"),
                               "--min-community-size", "120"], tmp_path)
    full = tmp_path / "full"
    manifest = json.loads((full / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stage_counts"]["communities_post_gate"] == 1
    assert (full / "communities.csv").read_text(encoding="utf-8") == (
        "community_id,size,anchor\n0,140,h01\n")


def test_seed7_communities_reads_tweets_and_users_without_flag_keywords(tmp_path, capsys):
    # No keyword stream and no flag keywords: nothing is flagged, yet the
    # stage still reads selected_tweets.ndjson and users.ndjson.
    fixture = tmp_path / "fixture"
    assert main(["synth", "--out", str(fixture), "--seed", "7"]) == 0
    lines = [line for line in (fixture / "config.cfg").read_text(encoding="utf-8").splitlines()
             if not line.startswith(("stream.1.", "flag_keywords"))]
    bare = fixture / "bare.cfg"
    bare.write_text("\n".join([*lines, "flag_keywords ="]) + "\n", encoding="utf-8")
    assert_staged_equals_full(["--config", str(bare)], tmp_path)
    assert (tmp_path / "full" / "review_flags.csv").read_text(encoding="utf-8") == (
        "community_id,size,anchor,reason\n")

    staged = tmp_path / "staged"
    (staged / "users.ndjson").unlink()
    capsys.readouterr()
    assert main(["communities", "--config", str(bare), "--out", str(staged)]) == 3
    err = capsys.readouterr().err
    assert "users.ndjson" in err and "run the ingest stage first" in err


def test_review_sample_seed_flag_equals_config_seed(tmp_path):
    # --seed 7 used to seed the sampler with 7 itself, the config key with a
    # seed derived from 7: with --n 5 they picked clusters 0,1,2,3,4 and
    # 0,1,3,4,5.
    fixture, out = tmp_path / "fixture", tmp_path / "run"
    assert main(["synth", "--out", str(fixture), "--seed", "7"]) == 0
    config = fixture / "config.cfg"
    assert "\nseed = 7\n" in config.read_text(encoding="utf-8")
    unseeded = fixture / "unseeded.cfg"
    unseeded.write_text(config.read_text(encoding="utf-8").replace("\nseed = 7\n", "\n"),
                        encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    samples = []
    for args in (["--config", str(config)], ["--config", str(unseeded), "--seed", "7"]):
        assert main(["review-sample", *args, "--out", str(out), "--n", "5"]) == 0
        samples.append((out / "review_sample.csv").read_bytes())
    assert samples[0] == samples[1]
    assert samples[0].count(b"\n") == 6  # header + 5 sampled topics


def test_node_ids_with_spaces_survive_the_node_list(tmp_path):
    # With u0001 renamed 'u0001 ', the node list read back stripped to
    # 'u0001': graph_stats.json counted 297 nodes but influence.csv had 298
    # rows, PageRank mass on a node that does not exist.
    fixture = tmp_path / "fixture"
    assert main(["synth", "--out", str(fixture), "--seed", "7"]) == 0
    for name in ("tweets.ndjson", "users.ndjson"):
        path = fixture / name
        text = path.read_text(encoding="utf-8")
        assert '"u0001"' in text
        path.write_text(text.replace('"u0001"', '"u0001 "'), encoding="utf-8")
    assert_staged_equals_full(["--config", str(fixture / "config.cfg")], tmp_path)
    full = tmp_path / "full"
    stats = json.loads((full / "graph_stats.json").read_text(encoding="utf-8"))
    rows = list(artifacts.read_csv(full / "influence.csv"))
    assert stats["nodes"] == len(rows)
    assert {"u0001 "} == {row["user_id"] for row in rows} & {"u0001", "u0001 "}


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


def test_topics_stage_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The topics stage runs GEMMs (k-means, silhouette); its files must keep
    their bytes whether BLAS runs on one thread or two."""
    config = write_fixture(tmp_path / "fixture", seed=7, n_tweets=2000)
    primed = tmp_path / "primed"
    assert main(["run", "--config", str(config), "--out", str(primed)]) == 0
    src = str(Path(artifacts.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        shutil.copytree(primed, out)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "echolens.cli", "topics", "--config",
                               str(config), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"topic_assignments.ndjson", "topic_clusters.csv", "topic_stats.json"} <= set(names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
