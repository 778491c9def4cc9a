"""Tweet text normalization, deterministic embedding, and topic clustering.

The embedder is a feature-hashed bag of word unigrams and character trigrams
with TF-IDF weighting, L2-normalized. It is a deterministic stand-in for a
pre-trained sentence encoder: identical token lists always map to identical
vectors, and precomputed external vectors can be plugged in through an NDJSON
file keyed by tweet id. Clustering is k-means with greedy farthest-point
initialization, which is fully reproducible for a given seed.

Retweets repeat text, so the work is done once per distinct text or row: the
embedder counts and folds each distinct token list once, and the seeding runs
over distinct rows. Lloyd's iterations still cover every row.
Each seeding step screens the distinct rows with one matvec against the new
centre, a distance that is within a derived bound of the exact one, and
computes exact distances only for the rows whose screened distances come
within that bound of the farthest. Every output equals that of the per-text,
per-row computation bit for bit.

The embedder interns features as integers: a token's word and trigram
features get ids, buckets and signs the first time the embedder sees the
token. A block of distinct texts becomes one array of (text, feature id)
occurrences, which np.unique counts; in order of first occurrence, the
block is folded by one np.add.at, which adds in input order into the zeroed
output, as the per-feature `vec[bucket] += tf * signed_idf` does.

Besides its input, each kernel holds at most one matrix of the input's size:
the embedding, one n x k distance buffer, or the n x n silhouette distances.
Row-wise work runs in blocks of `_BLOCK_ROWS` rows, which changes no bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import unicodedata
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import artifacts

__all__ = [
    "NormalizedText",
    "KMeansResult",
    "BuiltinEmbedder",
    "normalize_text",
    "embed_corpus",
    "load_external_vectors",
    "cluster",
    "word_idf",
    "top_terms",
    "silhouette",
]

_BLOCK_ROWS = 256

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_TRIM_RE = re.compile(r"^\W+|\W+$", re.UNICODE)


@dataclass
class NormalizedText:
    tokens: list[str]


def _split_hashtag(word: str) -> list[str]:
    parts: list[str] = []
    for chunk in re.split(r"[_\W]+", word):
        if chunk:
            parts.extend(p for p in _CAMEL_RE.split(chunk) if p)
    return parts


def normalize_text(raw: str) -> NormalizedText:
    """Structural normalization: NFC, lowercase, URLs and mentions stripped,
    hashtags split on case boundaries and retained, tokens trimmed of
    surrounding punctuation. Idempotent on its own tokens joined by spaces."""
    text = unicodedata.normalize("NFC", raw)
    text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text))

    tokens: list[str] = []
    for word in text.split():
        if word.startswith("#"):
            tokens.extend(p.lower() for p in _split_hashtag(word[1:]))
            continue
        token = _TRIM_RE.sub("", word).lower()
        if token:
            tokens.append(token)
    return NormalizedText(tokens)


def _token_features(token: str) -> list[str]:
    """The word unigram of a token, then its character trigrams in order.
    Feature names are prefixed so the two spaces never collide."""
    return ["w:" + token] + ["c:" + token[i:i + 3] for i in range(len(token) - 2)]


def _hash_feature(name: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "big")


class _FeatureTable(dict):
    """token -> the integer ids of its features, in `_token_features` order.

    A feature gets the next id the first time any token yields it; its
    bucket (hash mod dim) and sign are hashed then and kept by id."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.ids: dict[str, int] = {}
        self.buckets: list[int] = []
        self.signs: list[float] = []

    def __missing__(self, token: str) -> tuple[int, ...]:
        ids = []
        for name in _token_features(token):
            fid = self.ids.get(name)
            if fid is None:
                fid = self.ids[name] = len(self.buckets)
                h = _hash_feature(name)
                self.buckets.append(h % self.dim)
                self.signs.append(1.0 if (h >> 60) & 1 == 0 else -1.0)
            ids.append(fid)
        self[token] = ids = tuple(ids)
        return ids


def _distinct_texts(texts: Sequence[NormalizedText]) -> tuple[np.ndarray, np.ndarray]:
    """Group texts by token list: the index of each group's first text, in
    first-occurrence order, and each text's group."""
    groups: dict[tuple[str, ...], int] = {}
    firsts: list[int] = []
    inverse = np.empty(len(texts), dtype=np.intp)
    for i, text in enumerate(texts):
        inverse[i] = group = groups.setdefault(tuple(text.tokens), len(groups))
        if group == len(firsts):
            firsts.append(i)
    return np.asarray(firsts, dtype=np.intp), inverse


def _idf(n_docs: int, df: int) -> float:
    """ln((1 + N) / (1 + df)) + 1, the one IDF formula of this module."""
    return math.log((1 + n_docs) / (1 + df)) + 1.0


class BuiltinEmbedder:
    """Hashed TF-IDF embedding over a fixed corpus.

    tf is the raw in-document count; idf(t) = ln((1 + N) / (1 + df(t))) + 1,
    so terms absent from the corpus still get finite weight. Each feature is
    folded into the vector at hash(name) mod dim with a hash-derived sign,
    then the vector is L2-normalized. A vector depends only on its text's
    token list, so repeated texts are counted and folded once, and a token's
    features are listed and hashed once per embedder.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        self.n_docs = 0
        self._table = _FeatureTable(dim)
        self._df = np.zeros(0, dtype=np.int64)  # by feature id; ids past the end have df 0

    def fit(self, texts: Sequence[NormalizedText]) -> "BuiltinEmbedder":
        firsts, inverse = _distinct_texts(texts)
        repeats = np.bincount(inverse)
        self.n_docs = len(texts)
        self._df = np.zeros(self._interned(texts, firsts), dtype=np.int64)
        for start in range(0, firsts.size, _BLOCK_ROWS):
            rows, ids, _ = self._block_features(texts, firsts[start:start + _BLOCK_ROWS])
            np.add.at(self._df, ids, repeats[start + rows])
        return self

    def _interned(self, texts: Sequence[NormalizedText], firsts: np.ndarray) -> int:
        """Intern every token of the texts at firsts; returns the number of
        features the embedder knows."""
        for token in chain.from_iterable(texts[i].tokens for i in firsts.tolist()):
            self._table[token]
        return len(self._table.buckets)

    def _block_features(self, texts: Sequence[NormalizedText],
                        block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each distinct (text, feature) pair of the texts at block: the
        text's position in block, the feature id and its raw count; text
        after text, each text's features in order of first occurrence."""
        tokens = [texts[i].tokens for i in block.tolist()]
        features = list(map(self._table.__getitem__, chain.from_iterable(tokens)))
        token_rows = np.repeat(np.arange(block.size), list(map(len, tokens)))
        n_features = len(self._table.buckets)
        keys = np.repeat(token_rows * n_features, list(map(len, features)))
        keys += np.fromiter(chain.from_iterable(features), np.intp, keys.size)
        pairs, firsts, counts = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(firsts)
        rows, ids = np.divmod(pairs[order], n_features)
        return rows, ids, counts[order]

    def idf(self, feature: str) -> float:
        fid = self._table.ids.get(feature, self._df.size)
        df = int(self._df[fid]) if fid < self._df.size else 0
        return _idf(self.n_docs, df)

    def transform_many(self, texts: Sequence[NormalizedText]) -> np.ndarray:
        firsts, inverse = _distinct_texts(texts)
        dim = self.dim
        df = np.zeros(self._interned(texts, firsts), dtype=np.int64)
        df[:self._df.size] = self._df
        values, which = np.unique(df, return_inverse=True)  # math.log once per distinct df
        idf = np.array([_idf(self.n_docs, d) for d in values.tolist()])
        # sign * idf is exact: negation does not round.
        signed_idf = np.asarray(self._table.signs) * idf[which]
        buckets = np.asarray(self._table.buckets, dtype=np.intp)
        out = np.zeros((len(texts), dim))
        for start in range(0, firsts.size, _BLOCK_ROWS):
            block = firsts[start:start + _BLOCK_ROWS]
            rows, ids, tf = self._block_features(texts, block)
            # add.at adds each entry's weight in input order into the zeroed
            # output, as `vec[bucket] += tf * signed_idf` does feature by
            # feature, and needs no block-sized buffer.
            np.add.at(out.reshape(-1), block[rows] * dim + buckets[ids], tf * signed_idf[ids])
            for first in block.tolist():
                vec = out[first]
                norm = np.linalg.norm(vec)
                if norm > 0:
                    vec /= norm
        source = firsts[inverse]
        repeats = np.flatnonzero(source != np.arange(len(texts)))
        # Sources are first occurrences, never repeats, so no block reads a
        # row that another block writes.
        for start in range(0, repeats.size, _BLOCK_ROWS):
            rows = repeats[start:start + _BLOCK_ROWS]
            out[rows] = out[source[rows]]
        return out


def embed_corpus(texts: Sequence[NormalizedText], dim: int) -> np.ndarray:
    """Fit the builtin embedder on the corpus and return its embedding."""
    return BuiltinEmbedder(dim).fit(texts).transform_many(texts)


def load_external_vectors(path: str | Path, tweet_ids: Sequence[str],
                          dim: int) -> np.ndarray:
    """Read precomputed vectors (NDJSON: tweet_id, vector) and L2-normalize.

    The file streams into the output rows; lines of ids not asked for are
    skipped, and a repeated id's last line wins. A line that is not a JSON
    object with a string tweet_id and a vector raises at once, naming its
    line number. Then missing ids raise, naming up to ten in tweet_ids
    order; then the first vector, in tweet_ids order, that is not a flat list
    of numbers, has the wrong length or has non-finite entries.
    """
    rows_of: dict[str, list[int]] = {}
    for i, tid in enumerate(tweet_ids):
        rows_of.setdefault(tid, []).append(i)
    out = np.zeros((len(tweet_ids), dim))
    problems: dict[str, str | None] = {}  # id -> its last line's problem, or None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                tid, vector = obj["tweet_id"], obj["vector"]
            except (ValueError, KeyError, TypeError):  # not JSON, not an object
                tid = None
            if not isinstance(tid, str):
                raise ValueError(f"{path} line {line_no}: expected a JSON object "
                                 f"with a string tweet_id and a vector")
            if tid not in rows_of:
                continue
            flat = isinstance(vector, list) and all(type(x) in (int, float) for x in vector)
            vec = np.asarray(vector if flat else [], dtype=float)
            if not flat:
                problems[tid] = "is not a flat list of numbers"
            elif vec.shape != (dim,):
                problems[tid] = f"has length {vec.shape[0]}, expected {dim}"
            elif not np.all(np.isfinite(vec)):
                problems[tid] = "has non-finite entries"
            else:
                problems[tid] = None
                norm = np.linalg.norm(vec)
                out[rows_of[tid]] = vec / norm if norm > 0 else vec
    missing = [tid for tid in tweet_ids if tid not in problems]
    if missing:
        raise ValueError(f"external vectors missing for tweet ids: {missing[:10]}")
    for tid in tweet_ids:
        if problems[tid]:
            raise ValueError(f"vector for {tid} {problems[tid]}")
    return out


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    sse_history: list[float]
    iterations: int
    converged: bool


def _row_sq_norms(points: np.ndarray) -> np.ndarray:
    """np.sum(points ** 2, axis=1), squaring one block of rows at a time."""
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _BLOCK_ROWS):
        np.sum(points[start:start + _BLOCK_ROWS] ** 2, axis=1,
               out=out[start:start + _BLOCK_ROWS])
    return out


def _sq_dists(points: np.ndarray, centroids: np.ndarray,
              point_sq_norms: np.ndarray, out: np.ndarray) -> None:
    """||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped against float
    negatives, written into the n x k buffer out. Scaling the product by -2
    and adding is bit-equal to subtracting the doubled product: both steps
    are exact."""
    np.matmul(points, centroids.T, out=out)
    out *= -2.0
    out += point_sq_norms[:, None]
    out += np.sum(centroids ** 2, axis=1)[None, :]
    np.maximum(out, 0.0, out=out)


def _members(labels: np.ndarray, k: int) -> list[np.ndarray]:
    """Each of clusters 0..k-1's members in index order, as contiguous
    slices of one stable sort."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    return [order[start:end] for start, end in zip([0] + ends, ends)]


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row's first occurrence, in order, and each
    row's group. Rows are bucketed by a hash of their bytes; a bucket match
    is confirmed with array_equal, so the bytes are never kept."""
    buckets: dict[int, list[int]] = {}
    firsts: list[int] = []
    inverse = np.empty(points.shape[0], dtype=np.intp)
    for i, row in enumerate(points):
        candidates = buckets.setdefault(hash(row.tobytes()), [])
        for group in candidates:
            if np.array_equal(row, points[firsts[group]]):
                break
        else:
            group = len(firsts)
            candidates.append(group)
            firsts.append(i)
        inverse[i] = group
    return np.asarray(firsts, dtype=np.intp), inverse


def _farthest_point_init(points: np.ndarray, sq_norms: np.ndarray, k: int,
                         seed: int) -> np.ndarray:
    """Greedy farthest-point seeding: one random start, then repeatedly the
    point farthest from its nearest chosen centroid (ties: lowest index),
    with distances as np.sum((row - centre) ** 2, axis=1) gives them.

    Repeated rows tie exactly, and the lowest-index row of any tie is a
    first occurrence, so the search runs over distinct rows only. Each step
    screens them with one matvec against the new centre: the screening
    distance ||x||^2 + ||c||^2 - 2 x.c, kept as a running minimum, is within
    `tol` of the exact one. The farthest row is therefore among the rows
    within 2 tol of the screened maximum. When that is one row it is the
    next centre; otherwise those rows are ranked by their exact distances,
    which each row computes at most once per chosen centre.

    sq_norms are the squared norms of all rows of points. Raises ValueError
    when k exceeds the number of distinct rows."""
    n, dim = points.shape
    firsts, inverse = _distinct_rows(points)
    m = firsts.size
    if k > m:
        raise ValueError(f"k={k} exceeds number of distinct vectors ({m})")
    sq = sq_norms[firsts]
    # tol bounds |screening - exact| for any row x and centre c. Let u =
    # eps / 2, a = ||x||^2, b = ||c||^2 and D = ||x - c||^2 <= 2(a + b).
    # Exact: each term takes three roundings and the sum of d nonnegative
    # terms, in any order, d - 1 more, so it errs by at most (d + 2) u D.
    # Screening: the two norms err by d u a and d u b, the dot (BLAS, any
    # order, FMA or not) by d u sqrt(ab) <= d u (a + b) / 2, the addition and
    # the subtraction by u (a + b) and 2 u (a + b). In all, to first order,
    # (4d + 7) u (a + b) <= (4d + 7) eps max(sq); 8 (d + 2) eps max(sq) is
    # twice that, and the slack also covers rounding the threshold below. A
    # product that underflows errs by at most eps * tiny / 2 absolutely, at
    # most 4d of them, which the floor at tiny covers. The running minimum
    # keeps the bound.
    finfo = np.finfo(float)
    tol = 8.0 * (dim + 2) * finfo.eps * max(float(sq.max()), finfo.tiny)
    centres = np.empty((k, dim))
    screen = np.full(m, np.inf)
    exact = np.full(m, np.inf)  # exact distance to centres[:seen[i]]
    seen = np.zeros(m, dtype=np.intp)
    nxt = int(inverse[random.Random(seed).randrange(n)])
    centres[0] = points[firsts[nxt]]
    for t in range(1, k):
        dots = (points @ centres[t - 1])[firsts]
        np.minimum(screen, sq + sq[nxt] - 2.0 * dots, out=screen)
        near = np.flatnonzero(screen >= screen.max() - 2.0 * tol)
        if near.size > 1:
            # Rows that last saw the same centre take their exact distances
            # to the centres since as C-contiguous blocks of at most
            # _BLOCK_ROWS^2 entries (or one row); each distance still sums
            # one row's contiguous dim values, as for a lone row.
            for s in np.unique(seen[near]).tolist():
                group = near[seen[near] == s]
                step = max(1, _BLOCK_ROWS * _BLOCK_ROWS // ((t - s) * dim))
                for start in range(0, group.size, step):
                    rows = group[start:start + step]
                    diff = points[firsts[rows]][:, None, :] - centres[None, s:t]
                    d = np.sum(diff ** 2, axis=2).min(axis=1)
                    exact[rows] = np.minimum(exact[rows], d)
            seen[near] = t
            nxt = int(near[np.argmax(exact[near])])
        else:
            nxt = int(near[0])
        centres[t] = points[firsts[nxt]]
    return centres


def cluster(vectors: np.ndarray, k: int, seed: int = 0,
            max_iter: int = 100) -> KMeansResult:
    """Lloyd's k-means on L2-normalized vectors, deterministic given seed.

    k must be at most the number of distinct vectors; otherwise ValueError.
    Within-cluster SSE is checked to be non-increasing across iterations; a
    cluster that an iteration leaves empty is re-seeded from the point
    currently farthest from its own centroid.
    """
    points = np.asarray(vectors, dtype=float)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of vectors ({n})")
    # Distances cover every row, repeats included: a product over distinct
    # rows only is not bit-equal to those rows of the full product.
    with np.errstate(over="ignore"):  # rows that overflow are refused below
        point_sq_norms = _row_sq_norms(points)
    # Squared distances reach 4x the largest squared norm; the seeding's
    # error bound and Lloyd's expanded distances both need them finite.
    limit = np.finfo(float).max / 8
    bad = np.flatnonzero(~(point_sq_norms <= limit))
    if bad.size:
        raise ValueError(f"non-finite vectors: {bad.size} row(s), first at row {bad[0]}, "
                         f"have a NaN or infinite entry or a squared norm above {limit:.3g}")

    centroids = _farthest_point_init(points, point_sq_norms, k, seed)
    assignments = np.full(n, -1, dtype=int)
    sse_history: list[float] = []
    converged = False
    iterations = 0
    dists = np.empty((n, k))
    for iterations in range(1, max_iter + 1):
        _sq_dists(points, centroids, point_sq_norms, dists)
        new_assignments = np.argmin(dists, axis=1)

        # Re-seed any emptied cluster from the current worst-fit point.
        present = np.bincount(new_assignments, minlength=k)
        empties = np.flatnonzero(present == 0)
        if empties.size:
            own = dists[np.arange(n), new_assignments].copy()
            for cid in empties:
                worst = int(np.argmax(own))
                new_assignments[worst] = cid
                centroids[cid] = points[worst]
                own[worst] = -1.0
            _sq_dists(points, centroids, point_sq_norms, dists)
            new_assignments = np.argmin(dists, axis=1)

        sse = float(dists[np.arange(n), new_assignments].sum())
        if sse_history and sse > sse_history[-1] + 1e-9 * max(1.0, sse_history[-1]):
            raise AssertionError(
                f"k-means SSE increased: {sse_history[-1]} -> {sse}")
        sse_history.append(sse)

        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        for cid, members in enumerate(_members(assignments, k)):
            if members.size:
                centroids[cid] = points[members].mean(axis=0)

    return KMeansResult(
        assignments=assignments,
        centroids=centroids,
        sse_history=sse_history,
        iterations=iterations,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Cluster labeling and diagnostics


def word_idf(texts: Sequence[NormalizedText]) -> dict[str, float]:
    """Corpus IDF over word tokens only (same formula as the embedder)."""
    n = len(texts)
    df: dict[str, int] = {}
    for text in texts:
        for token in set(text.tokens):
            df[token] = df.get(token, 0) + 1
    return {t: _idf(n, d) for t, d in df.items()}


def top_terms(cluster_texts: Sequence[NormalizedText], idf: Mapping[str, float],
              n: int = 10) -> list[str]:
    """Top terms by within-cluster TF-IDF mass, descending; ties lexicographic."""
    if not cluster_texts:
        raise ValueError("top_terms needs a nonempty cluster")
    mass: dict[str, float] = {}
    for text in cluster_texts:
        for token in text.tokens:
            mass[token] = mass.get(token, 0.0) + idf.get(token, 1.0)
    ranked = sorted(mass.items(), key=lambda kv: (-kv[1], kv[0]))
    return [term for term, _ in ranked[:n]]


def silhouette(vectors: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette coefficient (Rousseeuw 1987) over Euclidean distances.

    a(i) is the mean distance from point i to the other members of its
    cluster (0 for a singleton), b(i) the smallest mean distance to another
    cluster's members, and the score (b - a) / max(a, b), or 0 where that
    maximum is 0. O(n^2) time and one n x n matrix; intended for desk-scale
    runs. Returns 0.0 for fewer than two clusters or three points."""
    points = np.asarray(vectors, dtype=float)
    n = points.shape[0]
    unique, labels = np.unique(assignments, return_inverse=True)
    if unique.size < 2 or n < 3:
        return 0.0
    # (2 x) @ x.T is a general product; x @ x.T would take BLAS's symmetric
    # path, whose last bits differ. The rest runs in the product's buffer.
    d = np.matmul(2.0 * points, points.T)
    sq = _row_sq_norms(points)
    np.subtract(sq[:, None], d, out=d)
    d += sq[None, :]
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)

    # Each cluster's distance sums come from a C-contiguous np.take block,
    # whose rows numpy sums pairwise, as it sums one point's distances alone;
    # a strided d[:, members] would add them sequentially. The block is
    # capped at about _BLOCK_ROWS x _BLOCK_ROWS entries.
    a = np.zeros(n)
    b = np.full(n, np.inf)
    sums = np.empty(n)
    for members in _members(labels, unique.size):
        step = max(1, _BLOCK_ROWS * _BLOCK_ROWS // members.size)
        for row in range(0, n, step):
            np.take(d[row:row + step], members, axis=1).sum(
                axis=1, out=sums[row:row + step])
        if members.size > 1:
            a[members] = sums[members] / (members.size - 1)
        sums /= members.size
        sums[members] = np.inf
        np.minimum(b, sums, out=b)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(n), where=denom != 0)
    return float(scores.mean())


def write_cluster_csv(clusters: Sequence[tuple[int, int, str]], path: str | Path) -> None:
    """Cluster output CSV `cluster_id,size,top_terms` from (cluster_id, size,
    space-joined top terms) rows, in the order given."""
    artifacts.write_csv(path, ["cluster_id", "size", "top_terms"], clusters)


def write_assignments(path: str | Path, assignment_map: Mapping[str, int]) -> None:
    """Assignment NDJSON `tweet_id,cluster_id`, one tweet per line."""
    artifacts.write_ndjson(path, ({"tweet_id": tweet_id,
                                   "cluster_id": int(assignment_map[tweet_id])}
                                  for tweet_id in sorted(assignment_map)))


# The JSON types of each assignment field, which read_assignments checks.
ASSIGNMENT_FIELDS = {"tweet_id": (str,), "cluster_id": (int,)}


def read_assignments(path: str | Path) -> dict[str, int]:
    """Refuses a line that is not an assignment object, or repeats a tweet,
    naming its line."""
    return {obj["tweet_id"]: obj["cluster_id"]
            for obj in artifacts.read_ndjson(path, ASSIGNMENT_FIELDS, key="tweet_id")}
