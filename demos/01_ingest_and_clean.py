"""
Ingesting an archive: filter streams and engagement cleaning
============================================================

Parse an NDJSON tweet archive, select records with the four stream kinds
(keyword, account, mention, geo window), and drop zero-engagement records.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from echolens.ingest import (StreamSpec, engagement_filter, iter_corpus, parse_corpus,
                             select_streams)
from echolens.synth import write_fixture

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
write_fixture(workdir, seed=7, n_tweets=800)

# Parsing never aborts: malformed lines come back as line-numbered errors.
tweets, errors = parse_corpus(workdir / "tweets.ndjson", schema="tweets")
users, _ = parse_corpus(workdir / "users.ndjson", schema="users")
print(f"parsed {len(tweets)} tweets ({len(errors)} rejected lines), {len(users)} users")

streams = [
    StreamSpec(kind="keyword", keywords=["climate", "teamseas"]),
    StreamSpec(kind="account", accounts=["h01", "h02", "h03"]),
    StreamSpec(kind="mention", accounts=["h01"]),
    StreamSpec(kind="geo_window", bounding_box=(-35.0, -130.0, 60.0, 100.0),
               window=(1_625_097_600, 1_625_097_600 + 90_000 * 60)),
]

user_index = {u.user_id: u for u in users}
selected, kept_per_stream = select_streams(tweets, streams, user_index)
cleaned = engagement_filter(selected)

# The same selection in one streaming pass, as the ingest stage runs it: each
# tweet is decided as its line is parsed, and only the caught ones are held.
streamed, _ = select_streams(iter_corpus(workdir / "tweets.ndjson", "tweets", []),
                             streams, user_index)
assert streamed == selected

print("per-stream hits:", kept_per_stream)
print(f"selected {len(selected)}, kept {len(cleaned)} after engagement cleaning")
read, rejected, kept = len(tweets) + len(errors), len(errors), len(cleaned)
print(f"accounting: read = kept + rejected + filtered -> "
      f"{read} = {kept} + {rejected} + {read - rejected - kept}")
