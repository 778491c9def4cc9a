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

from echolens.graph import build_interaction_graph, degree_stats, induced_subgraph
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
print(f"resolved: {stats.resolved_retweets} retweets, {stats.resolved_replies} replies; "
      f"{stats.unresolved_targets} unresolved targets skipped")

# The hub accounts soak up most of the weighted in-degree.
degrees = degree_stats(g)
top = sorted(degrees, key=lambda n: -degrees[n].weighted_in)[:5]
for node in top:
    d = degrees[node]
    print(f"  {node}: weighted in {d.weighted_in}, weighted out {d.weighted_out}")

sub = induced_subgraph(g, set(top))
print(f"subgraph on the top {len(top)} nodes keeps {sub.num_edges()} edges")
