"""
Community detection with influence-weighted label propagation
=============================================================

Each node starts with its own label and repeatedly adopts the label whose
neighbors carry the most influence (edge weight times neighbor importance).
The size gate then keeps only communities with more than min_size members,
and communities with no on-topic signal are flagged for manual review.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from echolens.community import (flag_offtopic, gate_communities,
                                label_propagation, node_importance)
from echolens.graph import build_interaction_graph
from echolens.ingest import engagement_filter, parse_corpus
from echolens.synth import FIXTURE_KEYWORDS, write_fixture

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
write_fixture(workdir, seed=7, n_tweets=800)
tweets, _ = parse_corpus(workdir / "tweets.ndjson", schema="tweets")
users, _ = parse_corpus(workdir / "users.ndjson", schema="users")
cleaned = engagement_filter(tweets)
g, _ = build_interaction_graph(cleaned, {t.tweet_id: t.author_id for t in tweets})

# Importance is an array aligned with g.ids: here each node's weighted in-degree.
importance = node_importance(g, mode="weighted_in_degree")
print(f"importance of {importance.size} nodes, largest {importance.max():.0f} "
      f"at {g.ids[importance.argmax()]}")
assignment = label_propagation(g, importance, seed=42, max_rounds=100)
print(f"{len(assignment.communities)} raw communities after "
      f"{assignment.iterations_run} rounds (converged={assignment.converged})")

gated = gate_communities(assignment, min_size=40)
print(f"gate (> 40 members) keeps {len(gated.communities)}, "
      f"drops {gated.dropped_members} members")
for c in gated.communities:
    print(f"  community {c.community_id}: {c.size} members, anchored at {c.anchor}")

flags = flag_offtopic(gated, cleaned, FIXTURE_KEYWORDS,
                      {u.user_id: u for u in users})
print(f"off-topic flags for review: {flags or 'none'}")
