"""Archive ingestion: NDJSON parsing, stream selection, engagement cleaning.

Corpora are newline-delimited JSON, one record per line. iter_corpus and
parse_corpus read raw archives only: parsing never aborts on a bad line;
malformed records are collected as line-numbered errors so a run can report
exactly what was skipped. The tweet and user intermediates are read strictly,
by artifacts.read_ndjson, with the same parse_tweet and parse_user. Each
stream spec becomes one predicate, and select_streams decides each record as
it is parsed.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import artifacts

__all__ = [
    "TweetRecord",
    "UserRecord",
    "StreamSpec",
    "RecordError",
    "iter_corpus",
    "parse_corpus",
    "parse_tweet",
    "parse_user",
    "write_ndjson",
    "field_names",
    "record_dict",
    "stream_predicate",
    "select_streams",
    "engagement_filter",
    "keyword_needles",
    "match_text",
]

GENDER_VALUES = ("female", "male", "unknown")
ACCOUNT_KINDS = ("individual", "organization", "unknown")
STREAM_KINDS = ("keyword", "account", "mention", "geo_window")


@dataclass
class TweetRecord:
    """One archived post with its engagement counts and interaction links."""

    tweet_id: str
    author_id: str
    text: str
    created_at: int
    likes: int = 0
    retweets: int = 0
    replies: int = 0
    mentions: list[str] = field(default_factory=list)
    reply_to: str | None = None
    retweet_of: str | None = None
    lat: float | None = None
    lon: float | None = None
    place_name: str | None = None

    @property
    def coordinates(self) -> tuple[float, float] | None:
        if self.lat is None or self.lon is None:
            return None
        return (self.lat, self.lon)

    @property
    def engagement(self) -> int:
        return self.likes + self.retweets + self.replies


@dataclass
class UserRecord:
    """One account profile, with optional ingested face annotations.

    Age and gender annotations are only accepted when exactly one face was
    found in the profile picture; anything else is a record error.
    """

    user_id: str
    handle: str
    display_name: str
    followers: int = 0
    has_profile_photo: bool = False
    face_count: int | None = None
    age_estimate: int | None = None
    gender_estimate: str | None = None
    account_kind: str = "unknown"


@dataclass
class RecordError:
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


@dataclass
class StreamSpec:
    """One selection rule over the archive (emulated filter stream).

    kind: "keyword" | "account" | "mention" | "geo_window".
    bounding_box is (lat_min, lon_min, lat_max, lon_max); window is a pair of
    UTC epoch seconds (start, end), both ends inclusive.
    """

    kind: str
    keywords: list[str] = field(default_factory=list)
    accounts: list[str] = field(default_factory=list)
    bounding_box: tuple[float, float, float, float] | None = None
    window: tuple[int, int] | None = None

    def validate(self) -> None:
        if self.kind not in STREAM_KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.kind == "keyword" and not self.keywords:
            raise ValueError("keyword stream needs at least one keyword")
        if self.kind in ("account", "mention") and not self.accounts:
            raise ValueError(f"{self.kind} stream needs at least one account")
        if self.kind == "geo_window":
            if self.bounding_box is None or self.window is None:
                raise ValueError("geo_window stream needs bounding_box and window")
            start, end = self.window
            if not end > start:
                raise ValueError("geo_window end must be after start")


def _require_str(obj: Mapping, key: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or (key.endswith("_id") and not v):
        raise ValueError(f"missing or invalid required field {key!r}")
    return v


def _opt_str(obj: Mapping, key: str) -> str | None:
    v = obj.get(key)
    if v is None:
        return None
    if not isinstance(v, str):
        raise ValueError(f"field {key!r} must be a string")
    return v


def _count(obj: Mapping, key: str, default: int = 0) -> int:
    v = obj.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError(f"field {key!r} must be a non-negative integer")
    return v


def parse_tweet(obj: Mapping) -> TweetRecord:
    """Build a TweetRecord from one decoded NDJSON object.

    Raises ValueError on any type or value that breaks the schema; unknown
    keys are ignored and missing optional ones take their defaults.
    """
    tweet_id = _require_str(obj, "tweet_id")
    author_id = _require_str(obj, "author_id")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("missing or invalid required field 'text'")
    created = obj.get("created_at")
    if isinstance(created, bool) or not isinstance(created, (int, float)):
        raise ValueError("missing or invalid required field 'created_at'")
    created = int(created) if isinstance(created, float) and created.is_integer() else created

    mentions = obj.get("mentions", [])
    if mentions is None:
        mentions = []
    if not isinstance(mentions, list) or not all(isinstance(m, str) for m in mentions):
        raise ValueError("field 'mentions' must be a list of user ids")

    reply_to = _opt_str(obj, "reply_to")
    retweet_of = _opt_str(obj, "retweet_of")
    if reply_to is not None and retweet_of is not None and reply_to == retweet_of:
        raise ValueError("record is both a retweet and a reply to the same target")

    lat, lon = obj.get("lat"), obj.get("lon")
    if (lat is None) != (lon is None):
        raise ValueError("lat and lon must be present together")
    if lat is not None:
        if not isinstance(lat, (int, float)) or not isinstance(lon, (int, float)):
            raise ValueError("lat and lon must be numbers")
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise ValueError("coordinates out of range")
        lat, lon = float(lat), float(lon)

    # Positional, in field order: a dataclass built by keyword takes twice as long.
    return TweetRecord(tweet_id, author_id, text, created, _count(obj, "likes"),
                       _count(obj, "retweets"), _count(obj, "replies"), list(mentions),
                       reply_to, retweet_of, lat, lon, _opt_str(obj, "place_name"))


def parse_user(obj: Mapping) -> UserRecord:
    """Build a UserRecord from one decoded NDJSON object, by parse_tweet's rules."""
    user_id = _require_str(obj, "user_id")
    handle = _require_str(obj, "handle")
    display_name = obj.get("display_name")
    if not isinstance(display_name, str):
        raise ValueError("missing or invalid required field 'display_name'")

    has_photo = obj.get("has_profile_photo", False)
    if not isinstance(has_photo, bool):
        raise ValueError("field 'has_profile_photo' must be a boolean")

    face_count = obj.get("face_count")
    if face_count is not None and (isinstance(face_count, bool)
                                   or not isinstance(face_count, int) or face_count < 0):
        raise ValueError("field 'face_count' must be a non-negative integer")

    age = obj.get("age_estimate")
    if age is not None and (isinstance(age, bool) or not isinstance(age, (int, float))
                            or not 0 <= age < float("inf")):
        raise ValueError("field 'age_estimate' must be a non-negative number")
    gender = _opt_str(obj, "gender_estimate")
    if gender is not None and gender not in GENDER_VALUES:
        raise ValueError(f"field 'gender_estimate' must be one of {GENDER_VALUES}")
    if (age is not None or gender is not None) and face_count != 1:
        raise ValueError("age/gender annotations require face_count = 1")

    kind = obj.get("account_kind", "unknown")
    if kind not in ACCOUNT_KINDS:
        raise ValueError(f"field 'account_kind' must be one of {ACCOUNT_KINDS}")

    return UserRecord(user_id, handle, display_name, _count(obj, "followers"), has_photo,
                      face_count, int(age) if age is not None else None, gender, kind)


@cache
def field_names(cls: type) -> tuple[str, ...]:
    """A dataclass record's fields, the keys of each line write_ndjson writes."""
    return tuple(f.name for f in fields(cls))


def record_dict(record) -> dict:
    """A dataclass record's fields as a new dict. vars(record) would give the
    record a __dict__ that it then keeps for life, as a record that a run
    hands on to later stages does."""
    return {name: getattr(record, name) for name in field_names(type(record))}


def write_ndjson(path: str | Path, records: Iterable[TweetRecord | UserRecord]) -> None:
    """Serialize records one JSON object per line."""
    artifacts.write_ndjson(path, map(record_dict, records))


def iter_corpus(path: str | Path, schema: str,
                errors: list[RecordError]) -> Iterator[TweetRecord | UserRecord]:
    """Yield the records of an NDJSON corpus file in file order, each as its
    line is parsed.

    schema is "tweets" or "users". Malformed lines and duplicate ids are
    appended to errors as line-numbered RecordError entries as they are met;
    the first occurrence of a duplicated id wins. An unreadable file raises.
    """
    if schema not in ("tweets", "users"):
        raise ValueError(f"unknown schema {schema!r}")
    parse_one = parse_tweet if schema == "tweets" else parse_user
    id_field = "tweet_id" if schema == "tweets" else "user_id"

    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                rec = parse_one(obj)
            except json.JSONDecodeError as exc:
                errors.append(RecordError(line_no, f"{exc.msg} (column {exc.colno})"))
            except ValueError as exc:
                errors.append(RecordError(line_no, str(exc)))
            else:
                rec_id = getattr(rec, id_field)
                if rec_id in seen:
                    errors.append(RecordError(line_no, f"duplicate {id_field} {rec_id!r}"))
                else:
                    seen.add(rec_id)
                    yield rec


def parse_corpus(path: str | Path, schema: str):
    """Parse an NDJSON corpus file whole: (records, errors), iter_corpus's
    records as a list and the errors it met."""
    errors: list[RecordError] = []
    return list(iter_corpus(path, schema, errors)), errors


def match_text(text: str) -> str:
    """Canonical form used for keyword matching: NFC, casefolded, tokens
    joined by single spaces. A keyword matches when its canonical form is a
    substring of this string (token-level substring for single words)."""
    return " ".join(unicodedata.normalize("NFC", text).casefold().split())


def keyword_needles(keywords: Iterable[str]) -> list[str]:
    """The match_text forms of the non-blank keywords; ValueError if none."""
    needles = [match_text(k) for k in keywords if k.strip()]
    if not needles:
        raise ValueError("needs at least one non-blank keyword")
    return needles


def _resolve_accounts(accounts: Sequence[str],
                      users: Mapping[str, UserRecord] | None) -> set[str]:
    """The accounts, with the user id of each that is a known handle."""
    by_handle = {u.handle.casefold(): u.user_id for u in (users or {}).values()}
    return set(accounts).union(by_handle[a.casefold()] for a in accounts
                               if a.casefold() in by_handle)


def stream_predicate(spec: StreamSpec, users: Mapping[str, UserRecord] | None = None
                     ) -> Callable[[TweetRecord], bool]:
    """The test a record must pass to be caught by one stream spec, which is
    validated once, here.

    The optional user index lets account/mention streams be configured with
    handles as well as user ids; a geo_window box's corners may come in
    either order.
    """
    spec.validate()

    if spec.kind == "keyword":
        needles = keyword_needles(spec.keywords)
        return lambda t: any(map(match_text(t.text).__contains__, needles))

    if spec.kind == "account":
        ids = _resolve_accounts(spec.accounts, users)
        return lambda t: t.author_id in ids

    if spec.kind == "mention":
        ids = _resolve_accounts(spec.accounts, users)
        return lambda t: not ids.isdisjoint(t.mentions)

    # geo_window
    lat_a, lon_a, lat_b, lon_b = spec.bounding_box
    lat_min, lat_max = min(lat_a, lat_b), max(lat_a, lat_b)
    lon_min, lon_max = min(lon_a, lon_b), max(lon_a, lon_b)
    start, end = spec.window
    return lambda t: (t.lat is not None and lat_min <= t.lat <= lat_max
                      and lon_min <= t.lon <= lon_max and start <= t.created_at <= end)


def select_streams(records: Iterable[TweetRecord], specs: Sequence[StreamSpec],
                   users: Mapping[str, UserRecord] | None
                   ) -> tuple[list[TweetRecord], dict[str, int]]:
    """The records that at least one stream catches, in corpus order, read
    in one pass over any iterable.

    Returns (selected, kept_per_stream): the hits of stream i of kind k are
    counted under "stream_<i>_<k>", i from 1. With no specs configured the
    whole corpus is kept (selection disabled) and no stream is counted.
    """
    if not specs:
        return list(records), {}
    tests = [stream_predicate(spec, users) for spec in specs]
    hits, selected = Counter(), []
    for t in records:
        if caught := [i for i, test in enumerate(tests) if test(t)]:
            hits.update(caught)
            selected.append(t)
    return selected, {f"stream_{i + 1}_{spec.kind}": hits[i] for i, spec in enumerate(specs)}


def engagement_filter(records: Sequence[TweetRecord]) -> list[TweetRecord]:
    """Drop records with zero total engagement (likes + retweets + replies).

    Order-preserving and idempotent.
    """
    return [t for t in records if t.engagement > 0]
