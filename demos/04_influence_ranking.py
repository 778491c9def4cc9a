"""
PageRank influence on a 0 to 10 scale
=====================================

Raw scores are the stationary distribution of a damped random walk over the
interaction graph; the 0..10 presentation scale is a linear min-max map.
The ranked table gets one column each for times-retweeted, PageRank, and
authored tweet volume, with individuals hidden behind a privacy label.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from echolens.graph import build_interaction_graph
from echolens.influence import pagerank, rank_tables, scale_scores
from echolens.ingest import engagement_filter, parse_corpus
from echolens.synth import write_fixture

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
write_fixture(workdir, seed=7, n_tweets=800)
tweets, _ = parse_corpus(workdir / "tweets.ndjson", schema="tweets")
users = {u.user_id: u for u in parse_corpus(workdir / "users.ndjson", schema="users")[0]}
cleaned = engagement_filter(tweets)
g, _ = build_interaction_graph(cleaned, {t.tweet_id: t.author_id for t in tweets})

result = pagerank(g, damping=0.85, tol=1e-9, max_iter=100)
print(f"pagerank converged={result.converged} after {result.iterations} iterations; "
      f"total mass {sum(result.scores.values()):.12f}")

scaled = scale_scores(result.scores)
table = rank_tables(g, scaled, cleaned, users, k=5, privacy=True)
print(f"{'rank':>4}  {'retweeted':<28}{'pagerank':<28}{'tweet volume'}")
for rank, retweeted, pr, volume in table:
    print(f"{rank:>4}  {retweeted:<28}{pr:<28}{volume}")
