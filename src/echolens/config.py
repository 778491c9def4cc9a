"""Run configuration: flat key-value config files, validation, and hashing.

A config file is plain text, one `key = value` per line; a line starting with
`#` is a comment. An empty file yields exactly the documented defaults. Stream
specs use grouped keys (stream.1.kind, stream.1.keywords, ...). Each other key
is declared once, as a RunConfig field: its default, its check and, for a data
file, its bundled fixture; a value from a file or a flag is parsed by the type
of its default. The config hash covers every semantic setting but not the
output directory, so the same inputs written to two locations still produce
identical manifests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import ClassVar

from .demographics import default_data_path
from .ingest import StreamSpec

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_config_text", "parse_list",
           "derive_seed"]


class ConfigError(ValueError):
    """Invalid configuration; .errors lists field-level messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _key(default, check=None, fixture: str | None = None):
    """A field: its default (a set is copied for each config), its check of
    (config, key), which returns a message or None, and a data file's fixture."""
    metadata = {"check": check, "fixture": fixture}
    if isinstance(default, set):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


def _check(passes, message: str):
    """A check of one key: `key: message` unless passes(its value)."""
    return lambda cfg, key: None if passes(getattr(cfg, key)) else f"{key}: {message}"


def _rule(passes, message: str):
    """A check of several keys, declared on the last: `message` unless passes(cfg)."""
    return lambda cfg, key: None if passes(cfg) else message


def _at_least(n: int):
    return _check(lambda value: value >= n, f"must be >= {n}")


def _inside(lo: int, hi: int):
    return _check(lambda value: lo < value < hi, f"must be in ({lo}, {hi})")


def _one_of(*options: str):
    return _check(lambda value: value in options, f"must be {' or '.join(options)}")


@dataclass
class RunConfig:
    tweets: str | None = _key(None, _check(bool, "path to the tweet corpus is required"))
    users: str | None = _key(None, _check(bool, "path to the user corpus is required"))
    out_dir: str = "out"
    seed: int = _key(0, _at_least(0))

    streams: list[StreamSpec] = field(default_factory=list)

    min_community_size: int = _key(120, _at_least(1))
    lp_max_rounds: int = _key(100, _at_least(1))
    importance_mode: str = _key("weighted_in_degree", _one_of("weighted_in_degree", "pagerank"))

    damping: float = _key(0.85, _inside(0, 1))
    pagerank_tol: float = _key(1e-9, _check(lambda tol: tol > 0, "must be > 0"))
    pagerank_max_iter: int = _key(100, _at_least(1))
    table_rows: int = _key(10, _at_least(1))
    privacy: bool = True

    k: int = _key(250, _at_least(1))
    dim: int = _key(512, _at_least(2))
    kmeans_max_iter: int = _key(100, _at_least(1))
    embedding_source: str = _key("builtin", _one_of("builtin", "external"))
    vectors: str | None = _key(None, _rule(
        lambda cfg: cfg.vectors or cfg.embedding_source != "external",
        "vectors: required when embedding_source = external"))

    tau: float = _key(0.6, _inside(0, 1))
    tau_hi: float = 1.25
    tau_lo: float = _key(0.8, _rule(lambda cfg: cfg.tau_hi > 1.0 > cfg.tau_lo > 0.0,
                                    "tau_hi/tau_lo: must satisfy tau_hi > 1 > tau_lo > 0"))
    retweet_weighted: bool = False

    gazetteer: str | None = _key(None, fixture="gazetteer.csv")
    name_lists: str | None = _key(None, fixture="name_lists.csv")
    classifier_names: str | None = _key(None, fixture="classifier_names.csv")
    given_names: str | None = _key(None, fixture="given_names.csv")
    stopwords: str | None = _key(None, fixture="stopwords.txt")

    formats: set[str] = _key({"csv"}, _check(lambda chosen: chosen and chosen <= {"csv", "json"},
                                             "must be a non-empty subset of {csv, json}"))
    flag_keywords: list[str] = field(default_factory=list)
    review_sample_size: int = _key(30, _at_least(1))

    DATA_FILES: ClassVar[dict[str, str]]  # each data-file key: its fixture

    def data_file(self, name: str) -> Path:
        """Configured path for one demographic data file, or the bundled
        synthetic fixture when unset."""
        return Path(getattr(self, name) or default_data_path(self.DATA_FILES[name]))

    def effective_flag_keywords(self) -> list[str]:
        if self.flag_keywords:
            return list(self.flag_keywords)
        merged: list[str] = []
        for spec in self.streams:
            if spec.kind == "keyword":
                merged.extend(spec.keywords)
        return merged

    def validate(self) -> list[str]:
        """Each failed check's message, in field order, then each stream's."""
        checks = [(f.name, f.metadata["check"]) for f in fields(self) if f.metadata.get("check")]
        errors = [message for key, check in checks if (message := check(self, key))]
        for i, spec in enumerate(self.streams, start=1):
            try:
                spec.validate()
            except ValueError as exc:
                errors.append(f"stream.{i}: {exc}")
        return errors

    def canonical_text(self) -> str:
        """Stable serialization of every semantic setting (out_dir excluded)."""
        skip = {"out_dir", "streams"}
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            if isinstance(value, set):
                value = ",".join(sorted(value))
            elif isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        for i, spec in enumerate(self.streams, start=1):
            lines.append(
                f"stream.{i}={spec.kind}|{','.join(spec.keywords)}|"
                f"{','.join(spec.accounts)}|{spec.bounding_box}|{spec.window}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


RunConfig.DATA_FILES = {f.name: f.metadata["fixture"] for f in fields(RunConfig)
                        if f.metadata.get("fixture")}


def derive_seed(global_seed: int, stage: str) -> int:
    """Fan one global seed out to a per-stage seed via a fixed name hash, so
    changing one stage's behavior never perturbs another's randomness."""
    digest = hashlib.blake2b(f"{global_seed}:{stage}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def parse_list(raw: str) -> list[str]:
    """Comma-separated values, stripped, blanks dropped."""
    return [v.strip() for v in raw.split(",") if v.strip()]


def _parse_bool(raw: str) -> bool:
    if raw.casefold() not in _BOOL_VALUES:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return _BOOL_VALUES[raw.casefold()]


# A key's value is parsed by the type of its RunConfig default; a key whose
# default is None is a path or a name, and a blank one stays unset, so it
# hashes as if absent. `streams` is set by stream.N.* keys.
_PARSERS = {int: int, float: float, bool: _parse_bool, str: str,
            type(None): lambda raw: raw or None,
            list: parse_list, set: lambda raw: set(parse_list(raw))}
_KEY_PARSERS = {key: _PARSERS[type(default)] for key, default in vars(RunConfig()).items()
                if key != "streams"}


def _parse_timestamp(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        pass
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _build_stream(index: str, group: dict[str, str], errors: list[str]) -> StreamSpec | None:
    kind = group.get("kind", "")
    keywords = parse_list(group.get("keywords", ""))
    accounts = parse_list(group.get("accounts", ""))
    bbox = None
    window = None
    try:
        if "bbox" in group:
            parts = [float(p) for p in group["bbox"].replace(",", " ").split()]
            if len(parts) != 4:
                raise ValueError("bbox needs four numbers")
            bbox = (parts[0], parts[1], parts[2], parts[3])
        if "window" in group:
            parts = group["window"].replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError("window needs start and end")
            window = (_parse_timestamp(parts[0]), _parse_timestamp(parts[1]))
    except ValueError as exc:
        errors.append(f"stream.{index}: {exc}")
        return None
    unknown = set(group) - {"kind", "keywords", "accounts", "bbox", "window"}
    if unknown:
        errors.append(f"stream.{index}: unknown keys {sorted(unknown)}")
        return None
    return StreamSpec(kind=kind, keywords=keywords, accounts=accounts,
                      bounding_box=bbox, window=window)


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse config text, then the raw values in overrides, such as flags,
    each by its key's parser; raises ConfigError listing every problem found."""
    values: dict[str, str] = {}
    stream_groups: dict[str, dict[str, str]] = {}
    errors: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected key = value")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("stream."):
            parts = key.split(".")
            if len(parts) != 3:
                errors.append(f"line {line_no}: stream keys look like stream.N.field")
                continue
            group, name = stream_groups.setdefault(parts[1], {}), parts[2]
        else:
            group, name = values, key
        if name in group:
            errors.append(f"line {line_no}: duplicate key {key!r}")
            continue
        group[name] = value

    cfg = RunConfig()
    for key, raw in [*values.items(), *(overrides or {}).items()]:
        try:
            if key not in _KEY_PARSERS:
                raise ValueError("unknown key")
            setattr(cfg, key, _KEY_PARSERS[key](raw))
        except ValueError as exc:
            errors.append(f"{key}: {exc}")

    for index in sorted(stream_groups, key=lambda s: (len(s), s)):
        spec = _build_stream(index, stream_groups[index], errors)
        if spec is not None:
            cfg.streams.append(spec)

    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), overrides)
