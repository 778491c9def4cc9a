"""Independent oracles used by the test suite.

These deliberately re-derive expected values through different code paths
than the library: dense-matrix power iteration instead of sparse, a
per-destination Python-float PageRank instead of the bincount matvec, exact
brute-force partition enumeration instead of label propagation, a
dict-of-dicts label propagation instead of the array-based one,
per-node scans over every edge instead of array reductions, a
per-text embedder with its own feature listing and hashing instead of the
interned, block-summed one, per-row k-means seeding instead of the
distinct-row one, a per-point silhouette loop instead of per-cluster
column sums, term ranking by repeated selection instead of a sort, name
posteriors counted from the training pairs instead of the fitted tables,
exact rationals instead of float shares, and one list per filter stream
and a union by id instead of one predicate per stream in a single pass.
"""

from __future__ import annotations

import numpy as np


def dense_pagerank(nodes, weighted_edges, damping=0.85, iters=1000):
    """Power iteration on the explicit dense Google matrix.

    weighted_edges: mapping (src, dst) -> weight. Dangling columns are
    uniform. Iterates a fixed large number of steps; no early stopping.
    """
    nodes = list(nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    raw = np.zeros((n, n))
    for (src, dst), w in weighted_edges.items():
        raw[idx[dst], idx[src]] += w
    out = raw.sum(axis=0)
    google = np.empty((n, n))
    for j in range(n):
        col = raw[:, j] / out[j] if out[j] > 0 else np.full(n, 1.0 / n)
        google[:, j] = damping * col + (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        x_next = google @ x
        if np.abs(x_next - x).sum() < 1e-14:
            x = x_next
            break
        x = x_next
    return {u: float(x[idx[u]]) for u in nodes}


def reference_pagerank(nodes, weighted_edges, damping=0.85, tol=1e-9, max_iter=100):
    """PageRank's power iteration with one Python float per operation.

    nodes: the graph's sorted ids; weighted_edges: mapping (src, dst) ->
    summed weight. Each destination starts at acc = 0.0 and adds p * x[src]
    over its in-edges in ascending source order, which is the order a CSR
    matvec over the transposed transition matrix uses; Python floats are
    IEEE doubles, so the scores match bit for bit. The two whole-vector sums
    (dangling mass, L1 change) go through np.sum as the library's do: numpy
    sums pairwise, and redoing its blocking here would pin a numpy internal
    rather than the matvec. Returns (scores, iterations, converged).
    """
    nodes = list(nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    out = [0.0] * n
    for (src, _), w in weighted_edges.items():
        out[idx[src]] += w
    in_edges = [[] for _ in range(n)]
    for (src, dst), w in sorted(weighted_edges.items(), key=lambda kv: idx[kv[0][0]]):
        in_edges[idx[dst]].append((idx[src], w / out[idx[src]]))
    dangling = [i for i in range(n) if out[i] == 0.0]
    x = [1.0 / n] * n
    teleport = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sink_mass = float(np.sum(np.array([x[i] for i in dangling], dtype=float)))
        x_next = []
        for edges in in_edges:
            acc = 0.0
            for src, p in edges:
                acc += p * x[src]
            x_next.append(damping * (acc + sink_mass / n) + teleport)
        delta = float(np.sum(np.array([abs(a - b) for a, b in zip(x_next, x)])))
        x = x_next
        if delta < tol:
            converged = True
            break
    return dict(zip(nodes, x)), iterations, converged


def set_partitions(items):
    """Yield every partition of items as a list of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def modularity(blocks, sym_weights, degrees, two_m):
    q = 0.0
    for block in blocks:
        for u in block:
            for v in block:
                q += sym_weights.get((u, v), 0.0) - degrees[u] * degrees[v] / two_m
    return q / two_m


def best_modularity_partition(nodes, weighted_edges):
    """Exact modularity-maximizing partition by brute-force enumeration.

    Treats the directed weighted edges as undirected (summed both ways).
    Feasible for graphs of up to ~10 nodes.
    """
    nodes = list(nodes)
    sym: dict[tuple[str, str], float] = {}
    for (src, dst), w in weighted_edges.items():
        sym[(src, dst)] = sym.get((src, dst), 0.0) + w
        sym[(dst, src)] = sym.get((dst, src), 0.0) + w
    degrees = {u: 0.0 for u in nodes}
    for (u, _), w in sym.items():
        degrees[u] += w
    two_m = sum(degrees.values())
    best_q, best = -np.inf, None
    for partition in set_partitions(nodes):
        q = modularity(partition, sym, degrees, two_m)
        if q > best_q:
            best_q, best = q, partition
    return frozenset(frozenset(block) for block in best), best_q


def reference_label_propagation(nodes, weighted_edges, importance, seed, max_rounds):
    """Dict-of-dicts label propagation, kept as the reference for the
    array-based kernel.

    weighted_edges: mapping (src, dst) -> weight. Same contract as
    `label_propagation`: seeded asynchronous rounds over the symmetrised
    graph, votes are weight times the neighbour's importance summed in
    sorted-neighbour order, ties keep the current label if it leads and
    otherwise go to the lowest label. Returns a dict with `labels`,
    `communities` (a list of (members, anchor), canonically ordered),
    `iterations_run` and `converged`.
    """
    import random

    nodes = sorted(nodes)
    n = len(nodes)
    if n == 0:
        return {"labels": {}, "communities": [], "iterations_run": 0,
                "converged": True}
    index = {node: i for i, node in enumerate(nodes)}
    und = [dict() for _ in range(n)]
    for (src, dst), w in weighted_edges.items():
        i, j = index[src], index[dst]
        und[i][j] = und[i].get(j, 0) + w
        und[j][i] = und[j].get(i, 0) + w
    imp = [float(importance[node]) for node in nodes]
    neighbors = [[(j, w * imp[j]) for j, w in sorted(und[i].items())]
                 for i in range(n)]

    labels = list(range(n))
    rng = random.Random(seed)
    order = list(range(n))
    pending = [True] * n
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        rng.shuffle(order)
        changed = False
        for u in order:
            if not pending[u]:
                continue
            pending[u] = False
            if not neighbors[u]:
                continue
            votes = {}
            best_val, best_lbl = -1.0, -1
            for j, vote in neighbors[u]:
                lbl = labels[j]
                votes[lbl] = votes.get(lbl, 0.0) + vote
                if votes[lbl] > best_val:
                    best_val, best_lbl = votes[lbl], lbl
                elif votes[lbl] == best_val and lbl < best_lbl:
                    best_lbl = lbl
            if votes.get(labels[u]) == best_val:
                continue
            labels[u] = best_lbl
            changed = True
            for j, _ in neighbors[u]:
                pending[j] = True
        if not changed:
            converged = True
            break

    label_of = {node: labels[i] for i, node in enumerate(nodes)}
    groups = {}
    for node in nodes:
        groups.setdefault(label_of[node], []).append(node)
    win_within = {node: 0 for node in nodes}
    for (src, dst), w in weighted_edges.items():
        if label_of[src] == label_of[dst]:
            win_within[dst] += w
    ordered = sorted(groups.values(), key=lambda members: (-len(members), min(members)))
    communities, final = [], {}
    for cid, members in enumerate(ordered):
        members = tuple(sorted(members))
        communities.append((members, min(members, key=lambda m: (-win_within[m], m))))
        final.update({node: cid for node in members})
    return {"labels": final, "communities": communities,
            "iterations_run": rounds, "converged": converged}


def reference_degree_stats(nodes, kind_edges):
    """(in_degree, out_degree, weighted_in, weighted_out) per node, by
    scanning every edge for every node. kind_edges: (src, dst) -> (rt, rp)."""
    stats = {}
    for node in nodes:
        into = [rt + rp for (_, d), (rt, rp) in kind_edges.items() if d == node]
        out = [rt + rp for (s, _), (rt, rp) in kind_edges.items() if s == node]
        stats[node] = (len(into), len(out), sum(into), sum(out))
    return stats


def reference_weighted_in_degrees(nodes, kind_edges, kind=None):
    """Weighted in-degree per node, by scanning every edge for every node."""
    pick = {None: lambda rt, rp: rt + rp, "retweet": lambda rt, rp: rt,
            "reply": lambda rt, rp: rp}[kind]
    return {node: sum(pick(rt, rp) for (_, d), (rt, rp) in kind_edges.items()
                      if d == node)
            for node in nodes}


def edge_table(g):
    """{(src, dst): (retweets, replies)} read off a graph's CSR arrays, in
    CSR order."""
    ids = g.ids
    return {(ids[s], ids[d]): (rt, rp) for s, d, rt, rp in zip(
        g.sources().tolist(), g.indices.tolist(), g.retweets.tolist(),
        g.replies.tolist())}


def graphs_equal(a, b):
    """Equal ids and equal CSR arrays. InteractionGraph has no __eq__, so
    `==` between two graphs tests identity."""
    return a.ids == b.ids and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("indptr", "indices", "retweets", "replies"))


def _features(tokens):
    """Word unigrams plus character trigrams of a token list, with raw
    counts, keyed by prefixed feature name in order of first occurrence."""
    counts = {}
    for token in tokens:
        names = ["w:" + token]
        if len(token) >= 3:
            names += ["c:" + token[i:i + 3] for i in range(len(token) - 2)]
        for name in names:
            counts[name] = counts.get(name, 0) + 1
    return counts


def reference_embed(texts, dim, fit_texts=None):
    """The builtin embedder, one text at a time: fit counts df per text of
    fit_texts (texts by default), and every text's vector is built, hashed
    and normalized on its own, with no grouping of repeated texts, no
    interned features and no per-feature cache. Returns the n x dim matrix
    `BuiltinEmbedder(dim).fit(fit_texts).transform_many(texts)` must
    reproduce bit for bit."""
    import hashlib
    import math

    fit_texts = texts if fit_texts is None else fit_texts
    df = {}
    for text in fit_texts:
        for feature in _features(text.tokens):
            df[feature] = df.get(feature, 0) + 1

    def idf(feature):
        return math.log((1 + len(fit_texts)) / (1 + df.get(feature, 0))) + 1.0

    out = np.zeros((len(texts), dim))
    for i, text in enumerate(texts):
        vec = np.zeros(dim)
        weights = {f: tf * idf(f) for f, tf in _features(text.tokens).items()}
        for feature, weight in weights.items():
            h = int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(),
                               "big")
            sign = 1.0 if (h >> 60) & 1 == 0 else -1.0
            vec[h % dim] += sign * weight
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        out[i] = vec
    return out


def _reference_sq_dists(points, centroids):
    d = (
        np.sum(points ** 2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids ** 2, axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def reference_farthest_point_init(points, k, seed):
    """Greedy farthest-point seeding over every row, duplicates included."""
    import random

    n = points.shape[0]
    first = random.Random(seed).randrange(n)
    chosen = [first]
    dist = np.sum((points - points[first]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].copy()


def reference_kmeans(vectors, k, seed=0, max_iter=100):
    """Lloyd's k-means with per-row farthest-point seeding, fresh distance
    temporaries each iteration and one boolean mask per centroid update.
    Returns (assignments, centroids, sse_history, iterations, converged);
    `cluster` must reproduce each bit for bit whenever k is at most the
    number of distinct rows."""
    points = np.asarray(vectors, dtype=float)
    n = points.shape[0]
    centroids = reference_farthest_point_init(points, k, seed)
    assignments = np.full(n, -1, dtype=int)
    sse_history = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dists = _reference_sq_dists(points, centroids)
        new_assignments = np.argmin(dists, axis=1)

        present = np.bincount(new_assignments, minlength=k)
        empties = np.flatnonzero(present == 0)
        if empties.size:
            own = dists[np.arange(n), new_assignments].copy()
            for cid in empties:
                worst = int(np.argmax(own))
                new_assignments[worst] = cid
                centroids[cid] = points[worst]
                own[worst] = -1.0
            dists = _reference_sq_dists(points, centroids)
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
        for cid in range(k):
            members = points[assignments == cid]
            if members.size:
                centroids[cid] = members.mean(axis=0)
    return assignments, centroids, sse_history, iterations, converged


def reference_weights(embedder, text):
    """Pre-hash TF-IDF weights per feature of one text under a fitted
    embedder: raw count times idf."""
    return {f: tf * embedder.idf(f) for f, tf in _features(text.tokens).items()}


def reference_silhouette(vectors, assignments):
    """Mean silhouette coefficient, one point at a time: a boolean mask per
    point and per other cluster over the whole distance matrix."""
    import math

    points = np.asarray(vectors, dtype=float)
    labels = np.asarray(assignments)
    n = points.shape[0]
    unique = np.unique(labels)
    if unique.size < 2 or n < 3:
        return 0.0
    # (2 x) @ x.T is a general product; x @ x.T would take BLAS's symmetric
    # path, whose last bits differ.
    sq = np.sum(points ** 2, axis=1)
    dists = np.sqrt(np.maximum(sq[:, None] - 2.0 * points @ points.T + sq[None, :], 0.0))
    scores = np.zeros(n)
    for i in range(n):
        same = labels == labels[i]
        n_same = same.sum()
        a = dists[i, same].sum() / (n_same - 1) if n_same > 1 else 0.0
        b = math.inf
        for lbl in unique:
            if lbl == labels[i]:
                continue
            mask = labels == lbl
            b = min(b, dists[i, mask].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def reference_word_idf(texts):
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1 over word tokens, with df(t)
    counted by scanning every text for every token."""
    import math

    n = len(texts)
    vocab = {token for text in texts for token in text.tokens}
    return {token: math.log((1 + n) / (1 + sum(token in text.tokens for text in texts)))
            + 1.0 for token in vocab}


def reference_top_terms(cluster_texts, idf, n=10):
    """The n terms of largest within-cluster TF-IDF mass, picked one at a
    time: the largest mass, ties to the lexicographically smallest term. A
    term's mass adds its idf (1.0 when absent) once per occurrence."""
    counts = {}
    for text in cluster_texts:
        for token in text.tokens:
            counts[token] = counts.get(token, 0) + 1
    mass = {}
    for token, count in counts.items():
        total = 0.0
        for _ in range(count):
            total += idf.get(token, 1.0)
        mass[token] = total
    picked = []
    while mass and len(picked) < n:
        best = None
        for token, value in mass.items():
            if best is None or value > mass[best] or (value == mass[best] and token < best):
                best = token
        picked.append(best)
        del mass[best]
    return picked


def reference_posterior(names, labels, name, ngram=3):
    """NgramNameClassifier(ngram).fit(names, labels).posterior(name), from
    the training pairs: each category's gram counts, gram total and name
    count come from scanning its training names. The log posterior adds
    the log prior and then each gram's log Laplace likelihood, in gram
    order, and is renormalised over the categories that have names, the
    float operations in the classifier's order, so the result is bit-equal."""
    import math

    from echolens.demographics import CLASSIFIER_CATEGORIES, fold_label, normalize_name

    def grams(text):
        out = []
        for token in normalize_name(text).split():
            padded = "^" + token + "$"
            if len(padded) <= ngram:
                out.append(padded)
            else:
                out.extend(padded[i:i + ngram] for i in range(len(padded) - ngram + 1))
        return out

    folded = [fold_label(label) for label in labels]
    vocab = {gram for text in names for gram in grams(text)}
    probe = grams(name)
    if not probe:
        return {c: 0.0 for c in CLASSIFIER_CATEGORIES}
    log_post = {}
    for category in CLASSIFIER_CATEGORIES:
        training = [grams(text) for text, c in zip(names, folded) if c == category]
        if not training:
            continue
        score = math.log(len(training) / len(names))
        denom = sum(len(g) for g in training) + len(vocab)
        for gram in probe:
            score += math.log((sum(g.count(gram) for g in training) + 1) / denom)
        log_post[category] = score
    peak = max(log_post.values())
    exp = {c: math.exp(s - peak) for c, s in log_post.items()}
    z = sum(exp.values())
    return {c: exp.get(c, 0.0) / z for c in CLASSIFIER_CATEGORIES}


def reference_representation_ratio(topic_counts, corpus_counts, bucket):
    """(topic share) / (corpus share) as an exact Fraction, None when the
    bucket has no corpus mass and 0 when the topic is empty."""
    from fractions import Fraction

    corpus = corpus_counts.get(bucket, 0)
    if corpus == 0:
        return None
    topic_total = sum(topic_counts.values())
    if topic_total == 0:
        return Fraction(0)
    return Fraction(topic_counts.get(bucket, 0) * sum(corpus_counts.values()),
                    topic_total * corpus)


def reference_disproportionality(assignments, tweets, annotations, retweet_weighted=False,
                                 tau_hi=1.25, tau_lo=0.8):
    """The disproportionality report as {(axis, cluster_id, bucket): (exact
    Fraction ratio, direction)}, counted axis by axis and topic by topic
    straight from the assignments: a tweet weighs 1, or 1 + its retweets
    when retweet-weighted, on its author's bucket; unannotated authors and
    missing or unknown buckets count nowhere. A topic without mass on an axis
    and a bucket without corpus mass give no row."""
    from fractions import Fraction

    by_id = {t.tweet_id: t for t in tweets}

    def counts(axis, tweet_ids):
        out = {}
        for tweet_id in tweet_ids:
            tweet = by_id.get(tweet_id)
            ann = annotations.get(tweet.author_id) if tweet is not None else None
            bucket = getattr(ann, axis) if ann is not None else None
            if bucket not in (None, "unknown"):
                out[bucket] = out.get(bucket, 0) + (1 + tweet.retweets if retweet_weighted else 1)
        return out

    rows = {}
    for axis in ("gender", "race", "continent"):
        corpus = counts(axis, assignments)
        for cluster_id in sorted(set(assignments.values())):
            topic = counts(axis, [t for t, c in assignments.items() if c == cluster_id])
            if not topic:
                continue
            for bucket in corpus:
                ratio = reference_representation_ratio(topic, corpus, bucket)
                direction = ("over" if ratio >= Fraction(tau_hi)
                             else "under" if ratio <= Fraction(tau_lo) else "")
                rows[(axis, cluster_id, bucket)] = (ratio, direction)
    return rows


def _reference_stream(records, spec, users):
    """One stream's hits, as a list in corpus order."""
    from echolens.ingest import match_text

    spec.validate()
    ids = set(spec.accounts)
    for acct in spec.accounts:
        for user in (users or {}).values():
            if user.handle.casefold() == acct.casefold():
                ids.add(user.user_id)
    if spec.kind == "keyword":
        needles = [match_text(k) for k in spec.keywords if k.strip()]
        if not needles:
            raise ValueError("keyword stream needs at least one non-empty keyword")
        return [t for t in records if any(n in match_text(t.text) for n in needles)]
    if spec.kind == "account":
        return [t for t in records if t.author_id in ids]
    if spec.kind == "mention":
        return [t for t in records if ids.intersection(t.mentions)]
    lat_a, lon_a, lat_b, lon_b = spec.bounding_box
    start, end = spec.window
    return [t for t in records if t.lat is not None
            and min(lat_a, lat_b) <= t.lat <= max(lat_a, lat_b)
            and min(lon_a, lon_b) <= t.lon <= max(lon_a, lon_b)
            and start <= t.created_at <= end]


def reference_select_streams(records, specs, users):
    """Stream selection one whole-corpus list per stream: each stream's hits
    are counted under "stream_<i>_<kind>", and the union of their ids is
    kept in corpus order. No specs keep everything and count nothing."""
    records = list(records)
    if not specs:
        return records, {}
    kept_ids, kept_per_stream = set(), {}
    for i, spec in enumerate(specs):
        hits = _reference_stream(records, spec, users)
        kept_per_stream[f"stream_{i + 1}_{spec.kind}"] = len(hits)
        kept_ids.update(t.tweet_id for t in hits)
    return [t for t in records if t.tweet_id in kept_ids], kept_per_stream
