import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (_reference_sq_dists, reference_embed,
                      reference_farthest_point_init, reference_kmeans,
                      reference_silhouette, reference_top_terms, reference_weights,
                      reference_word_idf)
from conftest import traced_peak
from echolens import pipeline, topics
from echolens.config import load_config
from echolens.synth import make_corpus, write_fixture
from echolens.topics import (BuiltinEmbedder, cluster, embed_corpus,
                             load_external_vectors, normalize_text, silhouette,
                             top_terms, word_idf)


class TestNormalizeText:
    def test_hashtag_split_url_removed(self):
        result = normalize_text("#TeamSeas is GREAT http://t.co/x www.a.org/b")
        assert result.tokens == ["team", "seas", "is", "great"]
        assert not any("t.co" in t or "www" in t or "http" in t for t in result.tokens)

    def test_empty_string(self):
        assert normalize_text("").tokens == []

    def test_mentions_removed(self):
        result = normalize_text("@youth_desk nice work on the summit, @Eco_Kid!")
        assert result.tokens == ["nice", "work", "on", "the", "summit"]
        assert not any("youth" in t or "eco" in t for t in result.tokens)

    def test_all_caps_hashtag_stays_single_token(self):
        assert normalize_text("#COP26 underway").tokens == ["cop26", "underway"]

    def test_punctuation_trimmed(self):
        assert normalize_text("great!! (really)").tokens == ["great", "really"]

    def test_unicode_nfc_applied(self):
        decomposed = "café"  # e + combining acute
        assert normalize_text(decomposed).tokens == ["café"]

    def test_idempotent_on_fifty_tweet_fixture(self):
        tweets, _ = make_corpus(seed=3, n_tweets=160)
        for t in tweets[:50]:
            once = normalize_text(t.text)
            twice = normalize_text(" ".join(once.tokens))
            assert twice.tokens == once.tokens


class TestBuiltinEmbedder:
    def test_identical_texts_identical_vectors(self):
        texts = [normalize_text("climate action now"),
                 normalize_text("climate action now")]
        vectors = embed_corpus(texts, dim=64)
        assert np.allclose(vectors[0], vectors[1])
        assert abs(float(vectors[0] @ vectors[1]) - 1.0) < 1e-9

    def test_disjoint_features_orthogonal(self):
        texts = [normalize_text("zzz qqq"), normalize_text("mmm vvv")]
        vectors = embed_corpus(texts, dim=512)
        assert abs(float(vectors[0] @ vectors[1])) < 1e-9

    def test_two_document_tfidf_matches_hand_computation(self):
        d1 = normalize_text("apple banana")
        d2 = normalize_text("apple cherry")
        embedder = BuiltinEmbedder(dim=128).fit([d1, d2])
        # By hand: N = 2; idf = ln((1+N)/(1+df)) + 1.
        idf_both = math.log(3 / 3) + 1.0   # features in both docs
        idf_one = math.log(3 / 2) + 1.0    # features in one doc
        expected = {
            "w:apple": idf_both,
            "w:banana": idf_one,
            "c:app": idf_both, "c:ppl": idf_both, "c:ple": idf_both,
            "c:ban": idf_one, "c:nan": idf_one,
            "c:ana": 2 * idf_one,  # "banana" contains 'ana' twice
        }
        weights = reference_weights(embedder, d1)
        assert set(weights) == set(expected)
        for feature, value in expected.items():
            assert abs(weights[feature] - value) < 1e-9, feature

    def test_vectors_unit_norm(self):
        texts = [normalize_text("some words here"), normalize_text("")]
        vectors = embed_corpus(texts, dim=64)
        assert abs(np.linalg.norm(vectors[0]) - 1.0) < 1e-9
        assert np.linalg.norm(vectors[1]) == 0.0  # empty text embeds to zero

    def test_corpus_order_does_not_change_vectors(self):
        texts = [normalize_text(t) for t in
                 ("climate strike", "food security", "ocean cleanup")]
        forward = embed_corpus(texts, dim=64)
        backward = embed_corpus(list(reversed(texts)), dim=64)
        assert np.allclose(forward[0], backward[2])
        assert np.allclose(forward[2], backward[0])

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            BuiltinEmbedder(dim=1)


class TestExternalVectors:
    def test_pass_through_l2_normalized(self, tmp_path):
        path = tmp_path / "vectors.ndjson"
        path.write_text(json.dumps({"tweet_id": "t1", "vector": [3.0, 4.0]}) + "\n")
        out = load_external_vectors(path, ["t1"], dim=2)
        assert np.allclose(out[0], [0.6, 0.8])

    def test_missing_id_error_names_tweet(self, tmp_path):
        path = tmp_path / "vectors.ndjson"
        path.write_text(json.dumps({"tweet_id": "t1", "vector": [1.0, 0.0]}) + "\n")
        with pytest.raises(ValueError, match="t2"):
            load_external_vectors(path, ["t1", "t2"], dim=2)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "vectors.ndjson"
        path.write_text(json.dumps({"tweet_id": "t1", "vector": [1.0]}) + "\n")
        with pytest.raises(ValueError, match="length"):
            load_external_vectors(path, ["t1"], dim=2)

    @staticmethod
    def write(path, rows):
        path.write_text("".join(json.dumps({"tweet_id": tid, "vector": vec}) + "\n"
                                for tid, vec in rows))
        return path

    def test_missing_ids_reported_before_bad_vectors(self, tmp_path):
        path = self.write(tmp_path / "v.ndjson", [("t1", [1.0]), ("t3", [float("nan"), 0.0])])
        with pytest.raises(ValueError, match=r"missing for tweet ids: \['t2'\]$"):
            load_external_vectors(path, ["t1", "t2", "t3"], dim=2)

    def test_first_bad_vector_in_tweet_id_order(self, tmp_path):
        path = self.write(tmp_path / "v.ndjson", [("t3", [float("inf"), 0.0]),
                                                  ("t1", [1.0, 2.0, 3.0]), ("t2", [1.0, 0.0])])
        with pytest.raises(ValueError, match=r"^vector for t1 has length 3, expected 2$"):
            load_external_vectors(path, ["t1", "t2", "t3"], dim=2)
        with pytest.raises(ValueError, match=r"^vector for t3 has non-finite entries$"):
            load_external_vectors(path, ["t3", "t2", "t1"], dim=2)

    def test_repeated_id_last_line_wins(self, tmp_path):
        path = self.write(tmp_path / "v.ndjson", [("t1", [1.0]), ("t2", [1.0, 0.0]),
                                                  ("t1", [0.0, 2.0])])
        out = load_external_vectors(path, ["t2", "t1", "t2"], dim=2)
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        path = self.write(tmp_path / "v.ndjson", [("t1", [0.0, 2.0]), ("t1", [1.0])])
        with pytest.raises(ValueError, match="length 1"):
            load_external_vectors(path, ["t1"], dim=2)

    def test_non_numeric_vector_names_tweet(self, tmp_path):
        # numpy's own error was "could not convert string to float: 'a'".
        path = self.write(tmp_path / "v.ndjson", [("t1", [1.0, 0.0]), ("t2", ["a", 1.0])])
        with pytest.raises(ValueError,
                           match=r"^vector for t2 is not a flat list of numbers$"):
            load_external_vectors(path, ["t1", "t2"], dim=2)

    def test_ragged_vector_names_tweet_in_tweet_id_order(self, tmp_path):
        # numpy's own error was "setting an array element with a sequence...
        # inhomogeneous shape".
        path = self.write(tmp_path / "v.ndjson", [("t2", [1.0]), ("t1", [[1.0], [2.0, 3.0]])])
        with pytest.raises(ValueError,
                           match=r"^vector for t1 is not a flat list of numbers$"):
            load_external_vectors(path, ["t1", "t2"], dim=2)
        with pytest.raises(ValueError, match=r"^vector for t2 has length 1, expected 2$"):
            load_external_vectors(path, ["t2", "t1"], dim=2)

    @pytest.mark.parametrize("line", [
        '{"vector": [1.0, 0.0]}',
        '{"tweet_id": "t1"}',
        '["t1", [1.0, 0.0]]',
        '{"tweet_id": 1, "vector": [1.0, 0.0]}',
        '{"tweet_id": "t1", "vector": [1.0, 0.0]',
    ])
    def test_malformed_line_names_line_number(self, tmp_path, line):
        # A line without tweet_id raised the bare KeyError 'tweet_id'.
        path = tmp_path / "v.ndjson"
        path.write_text('{"tweet_id": "t1", "vector": [1.0, 0.0]}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=r"v\.ndjson line 3: expected a JSON object "
                                             r"with a string tweet_id and a vector$"):
            load_external_vectors(path, ["t1"], dim=2)

    def test_holds_only_the_output_matrix(self, tmp_path):
        # 2,000 requested vectors of dim 512 (a 7.8 MB matrix) among 2,100
        # lines; parsed into a dict of float lists first, the traced peak
        # was about five matrices. Small integral entries keep the file quick
        # to write and parse.
        n, dim = 2000, 512
        rng = np.random.default_rng(0)
        vectors = rng.integers(-9, 10, size=(n + 100, dim)).astype(float)
        ids = [f"t{i}" for i in range(n + 100)]
        path = self.write(tmp_path / "v.ndjson", zip(ids, vectors.tolist()))
        wanted = ids[50:n + 50]
        tracemalloc.start()
        try:
            out = load_external_vectors(path, wanted, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = n * dim * 8
        assert peak < 1.5 * matrix, (peak, matrix)
        want = np.array([v / np.linalg.norm(v) for v in vectors[50:n + 50]])
        assert out.tobytes() == want.tobytes()


def make_blobs(seed=0, per_blob=100, spread=1.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    points = np.vstack([rng.normal(c, spread, size=(per_blob, 2)) for c in centers])
    truth = np.repeat(np.arange(3), per_blob)
    return points, truth


def partitions_equal(a, b):
    groups_a = {lbl: frozenset(np.flatnonzero(a == lbl)) for lbl in np.unique(a)}
    groups_b = {lbl: frozenset(np.flatnonzero(b == lbl)) for lbl in np.unique(b)}
    return set(groups_a.values()) == set(groups_b.values())


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        result = cluster(points, k=1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))

    def test_three_blob_recovery_five_seeds(self):
        points, truth = make_blobs(seed=42)
        for seed in range(5):
            result = cluster(points, k=3, seed=seed)
            assert partitions_equal(result.assignments, truth), seed
            assert result.converged

    def test_sse_non_increasing(self):
        points, _ = make_blobs(seed=1)
        result = cluster(points, k=3, seed=0)
        for earlier, later in zip(result.sse_history, result.sse_history[1:]):
            assert later <= earlier + 1e-9

    def test_final_assignment_is_nearest_centroid(self):
        points, _ = make_blobs(seed=2)
        result = cluster(points, k=3, seed=1)
        dists = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(result.assignments, dists.argmin(axis=1))

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            cluster(np.zeros((3, 2)), k=4, seed=0)

    def test_deterministic_given_seed(self):
        points, _ = make_blobs(seed=5)
        a = cluster(points, k=3, seed=9)
        b = cluster(points, k=3, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.sse_history == b.sse_history

    def test_default_k_is_250(self):
        from echolens.config import RunConfig
        assert RunConfig().k == 250

    def test_silhouette_high_for_separated_blobs(self):
        points, _ = make_blobs(seed=3, per_blob=30)
        result = cluster(points, k=3, seed=0)
        assert silhouette(points, result.assignments) > 0.8


class TestTopTerms:
    def texts(self, raws):
        return [normalize_text(r) for r in raws]

    def test_dominant_term_first(self):
        corpus = self.texts(["foodsecurity harvest", "foodsecurity nutrition",
                             "foodsecurity pledge"])
        idf = word_idf(corpus)
        assert top_terms(corpus, idf)[0] == "foodsecurity"

    def test_tie_breaks_lexicographic(self):
        corpus = self.texts(["beta alpha"])
        idf = word_idf(corpus)
        assert top_terms(corpus, idf) == ["alpha", "beta"]

    def test_five_tweet_fixture_hand_tfidf(self):
        corpus = self.texts([
            "foodsecurity harvest",
            "foodsecurity nutrition",
            "foodsecurity harvest",
            "foodsecurity drought",
            "foodsecurity harvest irrigation",
        ])
        idf = word_idf(corpus)
        # Hand: N=5. foodsecurity df=5 idf=ln(6/6)+1=1, mass 5.0.
        # harvest df=3 idf=ln(6/4)+1~1.4055, mass 3*1.4055=4.2164.
        # drought/irrigation/nutrition df=1 idf=ln(3)+1~2.0986, mass 2.0986;
        # three-way tie resolves lexicographically to "drought".
        assert top_terms(corpus, idf)[:3] == ["foodsecurity", "harvest", "drought"]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            top_terms([], {})


# Small alphabets make equal masses, and so lexicographic tie-breaks, common.
token_lists = st.lists(st.lists(st.sampled_from(["a", "b", "ab", "ba", "c", "zz"]),
                                max_size=6), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(token_lists, token_lists, st.integers(min_value=0, max_value=8))
def test_top_terms_and_word_idf_equal_reference(cluster_tokens, corpus_tokens, n):
    cluster_texts = [topics.NormalizedText(tokens=t) for t in cluster_tokens]
    # The idf comes from a corpus that may lack some cluster terms, which
    # then weigh 1.0.
    corpus = [topics.NormalizedText(tokens=t) for t in corpus_tokens]
    idf = word_idf(corpus)
    assert idf == reference_word_idf(corpus)
    assert top_terms(cluster_texts, idf, n) == reference_top_terms(cluster_texts, idf, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_clustering_deterministic_property(seed):
    points, _ = make_blobs(seed=7, per_blob=20)
    a = cluster(points, k=3, seed=seed)
    b = cluster(points, k=3, seed=seed)
    assert np.array_equal(a.assignments, b.assignments)


# ---------------------------------------------------------------------------
# Distinct-text kernels against the per-text, per-row oracles


def repetitive_corpus(seed, n=240, repeat_share=0.4):
    """Raw tweet texts where repeat_share of the texts copy an earlier one
    (as retweets do), a few are empty after normalization, and some are
    two-letter word pairs in both orders, which embed to the same vector."""
    rng = random.Random(seed)
    vocab = [f"w{i}x{rng.choice('abcdefgh')}" for i in range(40)] + ["ok", "go", "up"]
    raws = []
    for _ in range(n):
        if raws and rng.random() < repeat_share:
            raws.append(rng.choice(raws))
        else:
            roll = rng.random()
            if roll < 0.05:
                raws.append(rng.choice(["", "@someone", "https://t.co/x !!"]))
            elif roll < 0.15:
                a, b = rng.sample(["ok", "go", "up"], 2)
                raws.append(f"{a} {b}")
            else:
                words = rng.choices(vocab, k=rng.randint(1, 9))
                raws.append(" ".join(w.upper() if rng.random() < 0.1 else w
                                     for w in words) + rng.choice(["", " #ClimateNow"]))
    return [normalize_text(r) for r in raws]


def assert_same_kmeans(vectors, k, seed, max_iter=100):
    result = cluster(vectors, k, seed=seed, max_iter=max_iter)
    assignments, centroids, sse_history, iterations, converged = reference_kmeans(
        vectors, k, seed=seed, max_iter=max_iter)
    assert result.assignments.tobytes() == assignments.tobytes()
    assert result.centroids.tobytes() == centroids.tobytes()
    assert result.sse_history == sse_history
    assert (result.iterations, result.converged) == (iterations, converged)


def distinct_rows(vectors):
    return len({row.tobytes() for row in vectors})


class TestDistinctTextOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_embedding_bit_equal(self, seed, dim):
        texts = repetitive_corpus(seed)
        distinct = len({tuple(t.tokens) for t in texts})
        assert distinct <= 0.7 * len(texts)
        assert any(not t.tokens for t in texts)
        vectors = embed_corpus(texts, dim)
        assert vectors.tobytes() == reference_embed(texts, dim).tobytes()
        if dim == 8:
            assert distinct_rows(vectors) < distinct  # distinct texts collide

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim, k", [(8, 5), (8, 12), (64, 20), (512, 40)])
    def test_kmeans_bit_equal_on_embedded_corpus(self, seed, dim, k):
        vectors = embed_corpus(repetitive_corpus(seed), dim)
        assert k <= distinct_rows(vectors)
        assert_same_kmeans(vectors, k, seed)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_kmeans_single_iteration(self, seed):
        vectors = embed_corpus(repetitive_corpus(seed), 64)
        assert_same_kmeans(vectors, 15, seed, max_iter=1)

    def test_kmeans_raw_vectors_with_repeated_rows(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(90, 24))
        base /= np.linalg.norm(base, axis=1)[:, None]
        rows = np.concatenate([np.arange(90), rng.integers(0, 90, size=60)])
        rng.shuffle(rows)
        vectors = base[rows]
        for k, seed in ((7, 0), (30, 5), (90, 9)):
            assert_same_kmeans(vectors, k, seed)

    def test_kmeans_empty_cluster_reseed(self):
        # Twins a 1e-12 step apart are distinct rows, but the expanded
        # distance formula rounds both of their distances to 0, so the first
        # assignment leaves the higher-indexed twin's cluster empty.
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 16))
        base /= np.linalg.norm(base, axis=1)[:, None]
        twins = base[:6].copy()
        twins[:, 0] += 1e-12
        vectors = np.vstack([base, twins, base[10:20]])
        k, seed = 36, 3
        centroids = reference_farthest_point_init(vectors, k, seed)
        first = np.argmin(_reference_sq_dists(vectors, centroids), axis=1)
        assert (np.bincount(first, minlength=k) == 0).any()
        assert_same_kmeans(vectors, k, seed, max_iter=20)


def texts_of(*token_lists):
    return [topics.NormalizedText(tokens=list(tokens)) for tokens in token_lists]


class TestInternedEmbedderOracle:
    """The embedder interns features, counts each block's (text, feature)
    occurrences with np.unique and folds the block with one np.add.at; its
    vectors must equal the per-text oracle's bit for bit."""

    def assert_same(self, texts, dim, fit_texts=None):
        fit = texts if fit_texts is None else fit_texts
        got = BuiltinEmbedder(dim).fit(fit).transform_many(texts)
        assert got.tobytes() == reference_embed(texts, dim, fit_texts).tobytes()

    def test_dim_two_every_bucket_collides(self):
        texts = [normalize_text(r) for r in
                 ("climate action now", "ocean cleanup crew", "climate climate", "a b")]
        self.assert_same(texts, 2)
        self.assert_same(repetitive_corpus(5), 2)

    def test_short_tokens_have_no_trigrams(self):
        self.assert_same(texts_of(["a", "bc"], ["bc", "a", "de"], ["x"], ["bc", "bcd"]), 16)

    def test_empty_token_lists_embed_to_zero(self):
        texts = texts_of([], ["ok", "go"], [], ["ok"])
        vectors = BuiltinEmbedder(16).fit(texts).transform_many(texts)
        assert not vectors[0].any() and not vectors[2].any()
        self.assert_same(texts, 16)
        self.assert_same(texts_of([], []), 16)

    def test_repeated_features_count_raw_tf(self):
        # "aaaa" yields c:aaa twice; "banana" c:ana twice; words repeat.
        self.assert_same(texts_of(["aaaa", "aaaa", "aaa"], ["banana", "banana"],
                                  ["aaa", "banana"]), 32)

    def test_unseen_features_at_transform_have_df_zero(self):
        fitted = texts_of(["climate", "action"], ["ocean"])
        unseen = texts_of(["climate", "strike"], ["zzz"], [], ["ocean", "ocean", "acti"])
        self.assert_same(unseen, 32, fitted)
        self.assert_same(unseen, 2, fitted)
        embedder = BuiltinEmbedder(32).fit(fitted)
        assert embedder.idf("w:strike") == math.log(3 / 1) + 1.0
        assert embedder.idf("w:climate") == math.log(3 / 2) + 1.0

    def test_more_distinct_texts_than_a_block(self):
        texts = block_edge_corpus(3)
        fitted = texts[:topics._BLOCK_ROWS // 2]
        self.assert_same(texts, 64, fitted)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="abé", max_size=5), max_size=6), max_size=10),
       st.lists(st.lists(st.text(alphabet="abé", max_size=5), max_size=6), max_size=10),
       st.sampled_from([2, 3, 16]))
def test_embedder_equals_reference_on_any_tokens(fit_tokens, tokens, dim):
    fit_texts, texts = texts_of(*fit_tokens), texts_of(*tokens)
    got = BuiltinEmbedder(dim).fit(fit_texts).transform_many(texts)
    assert got.tobytes() == reference_embed(texts, dim, fit_texts).tobytes()


def test_embedder_equals_reference_across_blocks_of_two(monkeypatch):
    """The same property with two texts to a block, so features first seen
    in a later block are interned before fit or transform folds any block,
    and a block's occurrences span texts of every length."""
    monkeypatch.setattr(topics, "_BLOCK_ROWS", 2)
    test_embedder_equals_reference_on_any_tokens()


def block_edge_corpus(seed):
    """A repetitive corpus whose size is not a multiple of the block size,
    with more repeats than one block and a repeat straddling the first
    block edge."""
    edge = topics._BLOCK_ROWS
    n = 2 * edge + 189
    texts = repetitive_corpus(seed, n=n, repeat_share=0.45)
    texts[edge] = texts[edge - 1]
    assert n % edge and n - len({tuple(t.tokens) for t in texts}) > edge
    return texts


class TestBlockEdges:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_embedding_and_kmeans_bit_equal(self, seed):
        texts = block_edge_corpus(seed)
        vectors = embed_corpus(texts, 64)
        assert vectors.tobytes() == reference_embed(texts, 64).tobytes()
        assert_same_kmeans(vectors, 20, seed)

    @pytest.mark.parametrize("k", [2, 20])
    def test_silhouette_repr_equal(self, k):
        # At k=2 each cluster's column sums take several row blocks.
        vectors = embed_corpus(block_edge_corpus(2), 64)
        assignments = cluster(vectors, k, seed=1).assignments
        got = silhouette(vectors, assignments)
        assert repr(got) == repr(reference_silhouette(vectors, assignments))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=12))
def test_silhouette_repr_equals_reference(seed, n, dim, labels):
    # Integer lattice points tie in distance, repeat, and sit at distance 0;
    # labels are arbitrary integers, and with many labels per point most
    # clusters are singletons.
    rng = np.random.default_rng(seed)
    points = rng.integers(-2, 3, size=(n, dim)).astype(float)
    assignments = rng.choice(rng.integers(-50, 50, size=labels), size=n)
    got = silhouette(points, assignments)
    assert repr(got) == repr(reference_silhouette(points, assignments))


def test_topics_kernels_hold_one_matrix_of_their_input_size():
    """embed_corpus holds its n x dim output, cluster one n x k distance
    buffer and the largest cluster's rows, and silhouette one n x n matrix
    (plus the doubled points its product reads), each within 2 MB."""
    texts = repetitive_corpus(4, n=2400, repeat_share=0.4)
    n, dim, k, slack = len(texts), 512, 40, 2 << 20
    assert n - len({tuple(t.tokens) for t in texts}) >= 0.3 * n
    tracemalloc.start()
    try:
        vectors, embed_peak = traced_peak(embed_corpus, texts, dim)
        result, cluster_peak = traced_peak(cluster, vectors, k, seed=0)
        _, silhouette_peak = traced_peak(silhouette, vectors, result.assignments)
    finally:
        tracemalloc.stop()
    largest = int(np.bincount(result.assignments).max())
    assert embed_peak <= n * dim * 8 + slack
    assert cluster_peak <= (n * k + largest * dim) * 8 + slack
    assert silhouette_peak <= (n * n + n * dim) * 8 + slack


def ulp_twins(seed, rows=40, dim=12):
    """Unit rows, each next to a twin one ulp away in one coordinate, so every
    distance to a centre has a near-equal partner that the matvec screen
    cannot rank."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(rows, dim))
    base /= np.linalg.norm(base, axis=1)[:, None]
    twins = base.copy()
    cols = rng.integers(0, dim, size=rows)
    towards = rng.choice([-np.inf, np.inf], size=rows)
    twins[np.arange(rows), cols] = np.nextafter(base[np.arange(rows), cols], towards)
    return np.vstack([base, twins])[rng.permutation(2 * rows)]


class TestSeedingTieOracle:
    """Farthest-point seeding screens with a matvec and ranks near-ties by
    their exact distances; the centres must equal the per-row oracle's."""

    def assert_same_init(self, points, k, seed):
        got = topics._farthest_point_init(points, np.sum(points ** 2, axis=1), k, seed)
        assert got.tobytes() == reference_farthest_point_init(points, k, seed).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_lattice(self, seed):
        # Small integers make both distance formulas exact, so ties are exact.
        rng = np.random.default_rng(seed)
        points = rng.integers(-2, 3, size=(80, 5)).astype(float)
        for k in (2, 9, 40, distinct_rows(points)):
            self.assert_same_init(points, k, seed)
        assert_same_kmeans(points, 12, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_ulp_twins(self, seed):
        points = ulp_twins(seed)
        for k in (5, 30, 60, 80):
            self.assert_same_init(points, k, seed)
        assert_same_kmeans(points, 30, seed)

    def test_repeated_and_zero_rows(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(15, 7))
        base[:3] = 0.0
        points = base[rng.integers(0, 15, size=70)]
        m = distinct_rows(points)
        for seed in range(4):
            for k in (1, 5, m):
                self.assert_same_init(points, k, seed)
            assert_same_kmeans(points, m, seed)

    def test_all_rows_zero(self):
        points = np.zeros((9, 4))
        for seed in range(3):
            self.assert_same_init(points, 1, seed)
            assert_same_kmeans(points, 1, seed)

    def test_k_equal_to_distinct_rows(self):
        points = ulp_twins(7, rows=25, dim=6)
        for seed in range(3):
            self.assert_same_init(points, 50, seed)

    def test_single_row(self):
        points = np.array([[0.5, -1.0, 2.0]])
        self.assert_same_init(points, 1, 0)
        assert_same_kmeans(points, 1, 0)

    def test_subnormal_scale(self):
        # Squares of these entries are subnormal, so rounding errors are
        # absolute rather than relative.
        rng = np.random.default_rng(8)
        points = rng.integers(-3, 4, size=(60, 6)) * 2.0 ** -530
        points += rng.normal(size=points.shape) * 2.0 ** -545
        for seed in range(4):
            for k in (10, 40):
                self.assert_same_init(points, k, seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_seeding_equals_reference_on_one_hot_rows(dim, data):
    """One-hot rows, repeated: every distance to a centre is 0, 1 or 2, so
    most steps rank many exact ties, grouped by the centre each row last
    saw. The centres must equal the per-row oracle's bit for bit for any k
    up to the number of distinct rows, also with blocks so small that a
    group is split into several."""
    hot = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=40))
    points = np.eye(dim)[hot]
    k = data.draw(st.integers(1, len(set(hot))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    with mock.patch.object(topics, "_BLOCK_ROWS", data.draw(st.sampled_from([2, 3, 256]))):
        got = topics._farthest_point_init(points, np.sum(points ** 2, axis=1), k, seed)
    assert got.tobytes() == reference_farthest_point_init(points, k, seed).tobytes()


# ---------------------------------------------------------------------------
# The benchmark wraps BuiltinEmbedder.fit, BuiltinEmbedder.transform_many (as
# found in the class's own namespace) and topics.cluster by name, and reads
# the texts as the second positional argument of transform_many and k as the
# second positional argument of cluster. A rename, an inherited method or a
# keyword-only call would silently zero its per-layer timings.


def test_topics_stage_calls_span_targets_positionally(tmp_path, monkeypatch):
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    for meth in ("fit", "transform_many"):
        assert meth in vars(BuiltinEmbedder)
        monkeypatch.setattr(BuiltinEmbedder, meth,
                            recording(meth, getattr(BuiltinEmbedder, meth)))
    monkeypatch.setattr(topics, "cluster", recording("cluster", topics.cluster))

    cfg = load_config(write_fixture(tmp_path / "fixture", seed=7, n_tweets=600))
    cfg.out_dir = str(tmp_path / "run")
    pipeline.run_pipeline(cfg)

    assert [name for name, _ in calls] == ["fit", "transform_many", "cluster"]
    (_, fit_args), (_, transform_args), (_, cluster_args) = calls
    texts = transform_args[1]
    assert texts is fit_args[1] and len(texts) > 0
    assert all(isinstance(t.tokens, list) for t in texts)
    assert int(cluster_args[1]) == cfg.k
