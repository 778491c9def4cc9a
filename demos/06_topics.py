"""
Topic clustering with a deterministic embedder
==============================================

Tweet text is structurally normalized (URLs and mentions stripped, hashtags
split on case boundaries), embedded with hashed TF-IDF over word unigrams
and character trigrams, and clustered with seeded k-means. Identical input
and seed always reproduce the same topics.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from echolens.ingest import engagement_filter, parse_corpus
from echolens.synth import write_fixture
from echolens.topics import (cluster, embed_corpus, normalize_text, silhouette,
                             top_terms, word_idf)

print(normalize_text("#TeamSeas is GREAT http://t.co/x").tokens)

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
write_fixture(workdir, seed=7, n_tweets=800)
tweets, _ = parse_corpus(workdir / "tweets.ndjson", schema="tweets")
cleaned = engagement_filter(tweets)

texts = [normalize_text(t.text) for t in cleaned]
vectors = embed_corpus(texts, dim=256)
print(f"embedded {len(texts)} tweets into {vectors.shape[1]}-dim vectors")

result = cluster(vectors, k=6, seed=11, max_iter=100)
print(f"k-means: {result.iterations} iterations, converged={result.converged}, "
      f"final SSE {result.sse_history[-1]:.1f}")
print(f"silhouette: {silhouette(vectors, result.assignments):.3f}")

idf = word_idf(texts)
for cid in range(6):
    members = [texts[i] for i in range(len(texts)) if result.assignments[i] == cid]
    terms = ", ".join(top_terms(members, idf, n=5)) if members else "(empty)"
    print(f"  topic {cid} ({len(members):>4} tweets): {terms}")
