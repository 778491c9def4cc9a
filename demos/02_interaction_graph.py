"""
Building the interaction graph
==============================

Retweets and replies become directed weighted edges pointing from the
engaging user at the author who received the engagement.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from echolens.graph import build_interaction_graph
from echolens.ingest import engagement_filter, parse_corpus
from echolens.synth import write_fixture

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
write_fixture(workdir, seed=7, n_tweets=800)
tweets, _ = parse_corpus(workdir / "tweets.ndjson", schema="tweets")
cleaned = engagement_filter(tweets)

index = {t.tweet_id: t.author_id for t in tweets}
g, stats = build_interaction_graph(cleaned, index)
print(f"{len(g)} nodes, {g.num_edges()} edges, total weight {g.total_weight()}")
print(f"resolved: {stats['resolved_retweets']} retweets, {stats['resolved_replies']} replies; "
      f"{stats['unresolved_targets']} unresolved targets skipped")

# Per-node values are arrays aligned with g.ids. The hub accounts soak up
# most of the weighted in-degree.
weighted_in = g.in_weights()
weighted_out = np.bincount(g.sources(), weights=g.weights(), minlength=len(g)).astype(int)
for i in np.argsort(-weighted_in, kind="stable")[:5].tolist():
    print(f"  {g.ids[i]}: weighted in {weighted_in[i]}, weighted out {weighted_out[i]}")
