"""Country geolocation, name-based race classification, and eligibility rules.

The race classifier is a two-tier lookup: an exact hit on a configured census
name list decides immediately (list order is the precedence order), otherwise
a character-n-gram conditional model trained on labeled names produces a
posterior over the four non-Inconclusive categories. Below the confidence
threshold, the answer is Inconclusive.

All demographic data files are user-supplied CSV; the files bundled under
data/ are small synthetic fixtures for tests and demos only.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import artifacts
from .ingest import TweetRecord, UserRecord, record_dict, record_fields

__all__ = [
    "RACE_CATEGORIES",
    "Gazetteer",
    "NgramNameClassifier",
    "NameModel",
    "ProperNounLexicon",
    "DemographicAnnotation",
    "load_gazetteer",
    "load_name_lists",
    "load_training_names",
    "geolocate_country",
    "load_continents",
    "classify_race",
    "annotate_users",
    "demographic_distribution",
    "write_annotations",
    "read_annotations",
]

RACE_CATEGORIES = ("Asian", "Hispanic", "African", "White", "Inconclusive")
CLASSIFIER_CATEGORIES = ("Asian", "Hispanic", "African", "White")

# Raw training/list labels fold into the four classifier categories.
LABEL_FOLD = {
    "asian": "Asian",
    "indian": "Asian",
    "japanese": "Asian",
    "east asian": "Asian",
    "east_asian": "Asian",
    "hispanic": "Hispanic",
    "latino": "Hispanic",
    "hispanic european": "Hispanic",
    "hispanic_european": "Hispanic",
    "african": "African",
    "black": "African",
    "greater african": "African",
    "greater_african": "African",
    "white": "White",
    "european": "White",
}

DATA_DIR = Path(__file__).parent / "data"


def fold_label(raw: str) -> str:
    key = raw.strip().casefold().replace("-", " ")
    try:
        return LABEL_FOLD[key]
    except KeyError:
        raise ValueError(f"unknown demographic label {raw!r}") from None


def normalize_name(name: str) -> str:
    """Casefolded, NFC, letters-and-spaces-only form used for all name data."""
    text = unicodedata.normalize("NFC", name).casefold()
    cleaned = "".join(ch if ch.isalpha() else " " for ch in text)
    return " ".join(cleaned.split())


# ---------------------------------------------------------------------------
# Geolocation


@dataclass
class Gazetteer:
    """Place-name and bounding-box lookups to ISO-3166 alpha-2 countries.

    Boxes are checked in file order; entries are matched case-insensitively.
    """

    entries: dict[str, str] = field(default_factory=dict)
    boxes: list[tuple[float, float, float, float, str]] = field(default_factory=list)

    def lookup_place(self, place: str) -> str | None:
        return self.entries.get(normalize_name(place))

    def lookup_coordinates(self, lat: float, lon: float) -> str | None:
        for lat_min, lon_min, lat_max, lon_max, country in self.boxes:
            if lat_min <= lat <= lat_max and lon_min <= lon <= lon_max:
                return country
        return None


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Gazetteer CSV: `kind(place|box),name_or_coords,country`; box coords are
    four space-separated numbers lat_min lon_min lat_max lon_max."""
    gaz = Gazetteer()
    for row in artifacts.read_csv(path):
        kind = row["kind"].strip()
        country = row["country"].strip().upper()
        if kind == "place":
            gaz.entries[normalize_name(row["name_or_coords"])] = country
        elif kind == "box":
            parts = [float(p) for p in row["name_or_coords"].split()]
            if len(parts) != 4:
                raise ValueError(f"bad box row: {row}")
            lat_min, lon_min, lat_max, lon_max = parts
            if not (lat_min <= lat_max and lon_min <= lon_max):
                raise ValueError(f"degenerate box: {row}")
            gaz.boxes.append((lat_min, lon_min, lat_max, lon_max, country))
        else:
            raise ValueError(f"unknown gazetteer kind {kind!r}")
    return gaz


def geolocate_country(t: TweetRecord, gaz: Gazetteer) -> str | None:
    """Coordinates win over place name; first matching box in file order."""
    if t.coordinates is not None:
        hit = gaz.lookup_coordinates(t.lat, t.lon)
        if hit is not None:
            return hit
    if t.place_name:
        return gaz.lookup_place(t.place_name)
    return None


def load_continents(path: str | Path) -> dict[str, str]:
    """Country code (upper case) -> continent, from a `country,continent` CSV."""
    return {row["country"].strip().upper(): row["continent"].strip()
            for row in artifacts.read_csv(path)}


# ---------------------------------------------------------------------------
# Name classification


class NgramNameClassifier:
    """Character-n-gram conditional model over the four coarse categories.

    Each token of a normalized name is padded as ^token$ and sliced into
    n-grams. Training estimates, per category c with N_c total gram
    occurrences over a shared vocabulary V:

        P(g | c) = (count(g, c) + 1) / (N_c + |V|)        (Laplace)
        prior(c) = names_c / names_total

    The posterior for a name multiplies gram likelihoods under each category
    with nonzero prior and renormalizes; grams unseen in training still get
    their smoothed mass. Computed in log space.
    """

    def __init__(self, ngram: int = 3):
        if ngram < 2:
            raise ValueError("ngram must be >= 2")
        self.ngram = ngram
        self._gram_counts: dict[str, dict[str, int]] = {c: {} for c in CLASSIFIER_CATEGORIES}
        self._total_grams: dict[str, int] = {c: 0 for c in CLASSIFIER_CATEGORIES}
        self._name_counts: dict[str, int] = {c: 0 for c in CLASSIFIER_CATEGORIES}
        self._vocab: set[str] = set()

    def grams(self, name: str) -> list[str]:
        out = []
        for token in normalize_name(name).split():
            padded = f"^{token}$"
            if len(padded) <= self.ngram:
                out.append(padded)
            else:
                out.extend(padded[i:i + self.ngram]
                           for i in range(len(padded) - self.ngram + 1))
        return out

    def fit(self, names: Sequence[str], labels: Sequence[str]) -> "NgramNameClassifier":
        if len(names) != len(labels):
            raise ValueError("names and labels must align")
        if not names:
            raise ValueError("training set is empty")
        for name, raw_label in zip(names, labels):
            category = fold_label(raw_label)
            self._name_counts[category] += 1
            for gram in self.grams(name):
                counts = self._gram_counts[category]
                counts[gram] = counts.get(gram, 0) + 1
                self._total_grams[category] += 1
                self._vocab.add(gram)
        if not self._vocab:
            raise ValueError("training names have no letters")
        return self

    def posterior(self, name: str) -> dict[str, float]:
        """Posterior over the four categories; sums to 1 for any nonempty
        normalized name. Empty names give a uniform-zero posterior."""
        grams = self.grams(name)
        total_names = sum(self._name_counts.values())
        if not grams or total_names == 0:
            return {c: 0.0 for c in CLASSIFIER_CATEGORIES}
        vocab_size = len(self._vocab)
        log_post: dict[str, float] = {}
        for category in CLASSIFIER_CATEGORIES:
            n_names = self._name_counts[category]
            if n_names == 0:
                continue
            score = math.log(n_names / total_names)
            denom = self._total_grams[category] + vocab_size
            counts = self._gram_counts[category]
            for gram in grams:
                score += math.log((counts.get(gram, 0) + 1) / denom)
            log_post[category] = score
        peak = max(log_post.values())
        exp = {c: math.exp(s - peak) for c, s in log_post.items()}
        z = sum(exp.values())
        return {c: exp.get(c, 0.0) / z for c in CLASSIFIER_CATEGORIES}


@dataclass
class NameModel:
    """Census lists (ordered; earlier lists take precedence) plus the n-gram
    classifier and its confidence threshold."""

    census_lists: list[tuple[str, set[str]]]
    classifier: NgramNameClassifier
    tau: float


def load_name_lists(path: str | Path) -> list[tuple[str, set[str]]]:
    """Name-list CSV `name,category`; categories keep first-appearance order,
    which is the precedence order for conflicting hits."""
    ordered: list[tuple[str, set[str]]] = []
    index: dict[str, set[str]] = {}
    for row in artifacts.read_csv(path):
        category = fold_label(row["category"])
        if category not in index:
            names: set[str] = set()
            index[category] = names
            ordered.append((category, names))
        index[category].add(normalize_name(row["name"]))
    return ordered


def load_training_names(path: str | Path) -> tuple[list[str], list[str]]:
    names, labels = [], []
    for row in artifacts.read_csv(path):
        names.append(row["name"])
        labels.append(row["category"])
    return names, labels


def classify_race(display_name: str, model: NameModel) -> str:
    """Total function into the five categories.

    Precedence: census-list hit, then classifier posterior above tau, then
    Inconclusive. A posterior tie at the max resolves in fixed category order.
    """
    tokens = normalize_name(display_name).split()
    if not tokens:
        return "Inconclusive"
    for category, names in model.census_lists:
        if not names.isdisjoint(tokens):
            return category
    posterior = model.classifier.posterior(display_name)
    best = max(posterior.values())
    if best >= model.tau:
        for category in CLASSIFIER_CATEGORIES:
            if posterior[category] == best:
                return category
    return "Inconclusive"


# ---------------------------------------------------------------------------
# Eligibility and annotations


@dataclass
class ProperNounLexicon:
    """Given-name/surname dictionary plus a common-word stop list.

    A token counts as a proper noun when it has >= 2 characters, starts with
    an uppercase letter, and is either in the name dictionary or absent from
    the stop list.
    """

    names: set[str] = field(default_factory=set)
    stopwords: set[str] = field(default_factory=set)

    @classmethod
    def from_files(cls, names_path: str | Path, stopwords_path: str | Path):
        return cls(
            names={normalize_name(row["name"]) for row in artifacts.read_csv(names_path)},
            stopwords={word.casefold() for word in artifacts.read_lines(stopwords_path)
                       if not word.startswith("#")},
        )

    def has_proper_noun(self, display_name: str) -> bool:
        for token in display_name.split():
            if len(token) < 2 or not token[0].isupper():
                continue
            folded = normalize_name(token)
            if not folded:
                continue
            if folded in self.names or folded not in self.stopwords:
                return True
        return False


YOUTH_AGE_MIN = 13
YOUTH_AGE_MAX = 25


@dataclass
class DemographicAnnotation:
    user_id: str
    country: str | None = None
    continent: str | None = None
    race: str = "Inconclusive"
    age: int | None = None
    gender: str | None = None
    eligible_youth: bool = False


def _user_country(tweets: Sequence[TweetRecord], gaz: Gazetteer) -> str | None:
    """Most frequent located country across the user's tweets; ties break to
    the lexicographically smallest ISO code."""
    counts: dict[str, int] = {}
    for t in tweets:
        country = geolocate_country(t, gaz)
        if country is not None:
            counts[country] = counts.get(country, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda c: (-counts[c], c))


def annotate_users(users: Sequence[UserRecord], tweets: Sequence[TweetRecord],
                   gaz: Gazetteer, continents: Mapping[str, str], model: NameModel,
                   lexicon: ProperNounLexicon) -> dict[str, DemographicAnnotation]:
    """Full demographic annotation for every user record.

    Age/gender carry over only for accounts with a usable single-face profile
    photo; race and country are computed for everyone. A user is eligible
    youth, in the race and topic analyses, unless the age estimate lies
    outside YOUTH_AGE_MIN..YOUTH_AGE_MAX or the display name carries no
    proper-noun token; the photo rules remove no one from those analyses.
    """
    by_author: dict[str, list[TweetRecord]] = {}
    for t in tweets:
        by_author.setdefault(t.author_id, []).append(t)

    annotations: dict[str, DemographicAnnotation] = {}
    for user in users:
        face_ok = user.has_profile_photo and user.face_count == 1
        age = user.age_estimate
        country = _user_country(by_author.get(user.user_id, ()), gaz)
        annotations[user.user_id] = DemographicAnnotation(
            user_id=user.user_id,
            country=country,
            continent=None if country is None else continents.get(country.upper()),
            race=classify_race(user.display_name, model),
            age=age if face_ok else None,
            gender=user.gender_estimate if face_ok else None,
            eligible_youth=((age is None or YOUTH_AGE_MIN <= age <= YOUTH_AGE_MAX)
                            and lexicon.has_proper_noun(user.display_name)),
        )
    return annotations


DISTRIBUTION_AXES = ("continent", "race", "gender")


def demographic_distribution(annotations: Mapping[str, DemographicAnnotation],
                             axis: str) -> tuple[dict[str, tuple[int, float]], int]:
    """(buckets, missing): {bucket: (count, share)} along one axis, in bucket
    order, and the number of missing values. Shares sum to 1 over the
    non-missing buckets. No annotations give ({}, 0)."""
    if axis not in DISTRIBUTION_AXES:
        raise ValueError(f"unknown axis {axis!r}")
    counts: dict[str, int] = {}
    missing = 0
    for ann in annotations.values():
        value = getattr(ann, axis)
        if value is None or value == "unknown":
            missing += 1
        else:
            counts[value] = counts.get(value, 0) + 1
    total = sum(counts.values())
    return {b: (c, c / total) for b, c in sorted(counts.items())}, missing


def write_annotations(path: str | Path,
                      annotations: Mapping[str, DemographicAnnotation]) -> None:
    """Annotation NDJSON with exactly the documented fields, one user per line."""
    artifacts.write_ndjson(path, (record_dict(annotations[uid]) for uid in sorted(annotations)))


def read_annotations(path: str | Path) -> dict[str, DemographicAnnotation]:
    """Refuses a line that is not an annotation object, or repeats a user,
    naming its line."""
    return {obj["user_id"]: DemographicAnnotation(**obj) for obj in
            artifacts.read_ndjson(path, record_fields(DemographicAnnotation), "user_id")}


def default_data_path(name: str) -> Path:
    return DATA_DIR / name
