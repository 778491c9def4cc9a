import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from echolens.graph import InteractionGraph
from echolens.ingest import TweetRecord, UserRecord


def make_tweet(tweet_id, author_id="u1", text="hello world", created_at=1_625_097_600,
               likes=1, retweets=0, replies=0, **kwargs):
    return TweetRecord(tweet_id=tweet_id, author_id=author_id, text=text,
                       created_at=created_at, likes=likes, retweets=retweets,
                       replies=replies, **kwargs)


def make_user(user_id, handle=None, display_name="Amina Diallo", **kwargs):
    return UserRecord(user_id=user_id, handle=handle or f"h_{user_id}",
                      display_name=display_name, **kwargs)


def clique_graph(*cliques, bridges=()):
    """Directed graph with every ordered pair inside each clique at weight 1,
    plus explicit bridge edges (src, dst). Every clique member is a node, so
    a one-member clique is an isolated node."""
    edges = [(src, dst, 1, 0) for members in cliques
             for src in members for dst in members if src != dst]
    edges += [(src, dst, 1, 0) for src, dst in bridges]
    return InteractionGraph.from_weighted_edges(
        edges, nodes=[node for members in cliques for node in members])


def traced_peak(fn, *args, **kwargs):
    """(result, bytes by which the traced peak rose above the allocations
    live before the call)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args, **kwargs)
    return result, tracemalloc.get_traced_memory()[1] - before


@pytest.fixture
def tmp_corpus(tmp_path):
    """Write NDJSON lines into tmp files on demand."""
    def _write(name: str, lines: list[str]) -> Path:
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    return _write
