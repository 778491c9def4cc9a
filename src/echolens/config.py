"""Run configuration: flat key-value config files, validation, and hashing.

A config file is plain text, one `key = value` per line; a line starting with
`#` is a comment. An empty file yields exactly the documented defaults. Stream
specs use grouped keys (stream.1.kind, stream.1.keywords, ...). The config hash
covers every semantic setting but not the output directory, so the same inputs
written to two locations still produce identical manifests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

from .demographics import default_data_path
from .ingest import StreamSpec

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_config_text", "parse_list",
           "derive_seed"]


class ConfigError(Exception):
    """Invalid configuration; .errors lists field-level messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class RunConfig:
    tweets: str | None = None
    users: str | None = None
    out_dir: str = "out"
    seed: int = 0

    streams: list[StreamSpec] = field(default_factory=list)

    min_community_size: int = 120
    lp_max_rounds: int = 100
    importance_mode: str = "weighted_in_degree"

    damping: float = 0.85
    pagerank_tol: float = 1e-9
    pagerank_max_iter: int = 100
    table_rows: int = 10
    privacy: bool = True

    k: int = 250
    dim: int = 512
    kmeans_max_iter: int = 100
    embedding_source: str = "builtin"
    vectors: str | None = None

    tau: float = 0.6
    tau_hi: float = 1.25
    tau_lo: float = 0.8
    retweet_weighted: bool = False

    gazetteer: str | None = None
    name_lists: str | None = None
    classifier_names: str | None = None
    given_names: str | None = None
    stopwords: str | None = None

    formats: set[str] = field(default_factory=lambda: {"csv"})
    flag_keywords: list[str] = field(default_factory=list)
    review_sample_size: int = 30

    # -- data-file resolution ----------------------------------------------

    # Each demographic data-file key and the bundled fixture used when it is unset.
    DATA_FILES = {
        "gazetteer": "gazetteer.csv",
        "name_lists": "name_lists.csv",
        "classifier_names": "classifier_names.csv",
        "given_names": "given_names.csv",
        "stopwords": "stopwords.txt",
    }

    def data_file(self, name: str) -> Path:
        """Configured path for one demographic data file, or the bundled
        synthetic fixture when unset."""
        configured = getattr(self, name)
        if configured:
            return Path(configured)
        return default_data_path(self.DATA_FILES[name])

    def effective_flag_keywords(self) -> list[str]:
        if self.flag_keywords:
            return list(self.flag_keywords)
        merged: list[str] = []
        for spec in self.streams:
            if spec.kind == "keyword":
                merged.extend(spec.keywords)
        return merged

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        errors: list[str] = []
        if not self.tweets:
            errors.append("tweets: path to the tweet corpus is required")
        if not self.users:
            errors.append("users: path to the user corpus is required")
        if self.seed < 0:
            errors.append("seed: must be >= 0")
        if self.min_community_size < 1:
            errors.append("min_community_size: must be >= 1")
        if self.lp_max_rounds < 1:
            errors.append("lp_max_rounds: must be >= 1")
        if self.importance_mode not in ("weighted_in_degree", "pagerank"):
            errors.append("importance_mode: must be weighted_in_degree or pagerank")
        if not 0.0 < self.damping < 1.0:
            errors.append("damping: must be in (0, 1)")
        if self.pagerank_tol <= 0:
            errors.append("pagerank_tol: must be > 0")
        if self.pagerank_max_iter < 1:
            errors.append("pagerank_max_iter: must be >= 1")
        if self.table_rows < 1:
            errors.append("table_rows: must be >= 1")
        if self.k < 1:
            errors.append("k: must be >= 1")
        if self.dim < 2:
            errors.append("dim: must be >= 2")
        if self.kmeans_max_iter < 1:
            errors.append("kmeans_max_iter: must be >= 1")
        if self.embedding_source not in ("builtin", "external"):
            errors.append("embedding_source: must be builtin or external")
        if self.embedding_source == "external" and not self.vectors:
            errors.append("vectors: required when embedding_source = external")
        if not 0.0 < self.tau < 1.0:
            errors.append("tau: must be in (0, 1)")
        if not (self.tau_hi > 1.0 > self.tau_lo > 0.0):
            errors.append("tau_hi/tau_lo: must satisfy tau_hi > 1 > tau_lo > 0")
        if not self.formats or self.formats - {"csv", "json"}:
            errors.append("formats: must be a non-empty subset of {csv, json}")
        if self.review_sample_size < 1:
            errors.append("review_sample_size: must be >= 1")
        for i, spec in enumerate(self.streams, start=1):
            try:
                spec.validate()
            except ValueError as exc:
                errors.append(f"stream.{i}: {exc}")
        return errors

    # -- hashing -------------------------------------------------------------

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
_KEYS = {f.name for f in fields(RunConfig)} - {"streams"}


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


def parse_config_text(text: str) -> RunConfig:
    """Parse config text; raises ConfigError listing every problem found."""
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
    for key, raw in values.items():
        try:
            if key not in _KEYS:
                raise ValueError("unknown key")
            # Each key is set at most once, so cfg still holds its default.
            setattr(cfg, key, _PARSERS[type(getattr(cfg, key))](raw))
        except ValueError as exc:
            errors.append(f"{key}: {exc}")

    for index in sorted(stream_groups, key=lambda s: (len(s), s)):
        spec = _build_stream(index, stream_groups[index], errors)
        if spec is not None:
            cfg.streams.append(spec)

    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
