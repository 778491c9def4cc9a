"""Seeded workload inputs for the benchmark.

Every input is a pure function of (spec, seed); the program under test only
ever sees the files written here. The generator is self-contained: it does not
import echolens, so it keeps producing the same inputs while the program
changes underneath it.

Two input kinds:

* a raw archive (tweets.ndjson, users.ndjson, config.cfg) for the CLI
  workloads. Users fall into communities of skewed sizes; each topic has its
  own generated vocabulary; retweets copy their target's text, so the archive
  carries the duplicate-heavy text mix of a real retweet-heavy corpus; about a
  third of the records match no stream; a few lines are malformed.
* an interaction-record table (graph_records.npz) for the graph-kernel
  workload: planted blocks, heavy-tailed targets inside each block, mixed
  retweet and reply records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_TS = 1_625_097_600  # 2021-07-01T00:00:00Z

# Topic keywords double as the keyword stream. Generated vocabulary words are
# rejected when they contain one of these, so stream membership is decided by
# the generator, not by accident.
KEYWORDS = (
    "climate", "food", "wildlife", "statistics", "teamseas", "corruption",
    "education", "health", "water", "housing", "energy", "transport",
    "refugees", "equality", "oceans", "forests", "jobs", "vaccines",
    "drought", "literacy", "sanitation", "farming", "pollution", "youthvote",
)

# Given names from the bundled lexicon, so most display names carry a proper
# noun and pass the eligibility filter.
FEMALE = ("Emma", "Sophie", "Lucia", "Priya", "Wanjiru", "Amina", "Carmen",
          "Ananya", "Kavya", "Jisoo", "Sofia", "Grace", "Esther", "Lena",
          "Maria", "Zoe", "Ifeoma", "Lulit", "Fatima", "Rin", "Yuki", "Fang")
MALE = ("Oliver", "Diego", "Arjun", "Tunde", "Minjun", "Hiroshi", "James",
        "Mateo", "Rohan", "Vikram", "Akira", "Kenji", "Daniel", "Lucas",
        "Noah", "Kofi", "Moussa", "Thabo", "Piotr", "Alejandro", "Wei", "Lei")
SURNAMES = ("Garcia", "Fernandez", "Lopez", "Martinez", "Okafor", "Mwangi",
            "Diallo", "Mensah", "Smith", "Miller", "Anderson", "Novak",
            "Tanaka", "Suzuki", "Sharma", "Patel", "Moreno", "Serrano",
            "Adeyemi", "Kamau", "Johnson", "Brown", "Wilson", "Schneider",
            "Li", "Chen", "Wang", "Zhang", "Kim", "Park")
NO_PROPER = ("sunflower vibes", "green team daily", "ocean wave news",
             "cosmic data fan", "global media page")
GEO_POINTS = (
    (-1.29, 36.82, "Nairobi"), (51.50, -0.12, "London"),
    (40.71, -74.00, "New York"), (19.07, 72.87, "Mumbai"),
    (-23.55, -46.63, None), (52.52, 13.40, "Berlin"),
    (-33.92, 18.42, "Cape Town"),
)
GEO_BOX = "-35.0 -130.0 60.0 100.0"

CROSS_SHARE = 0.01  # archive interactions that target another community
# Graph records: share inside the source's block, share that are retweets,
# and the power applied to a uniform draw to rank the target within a block.
GRAPH_INTRA_SHARE = 0.9
GRAPH_RETWEET_SHARE = 0.7
GRAPH_TAIL_EXPONENT = 3.0

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gl", "kr", "pl", "st", "tr", "sh")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")


@dataclass(frozen=True)
class ArchiveSpec:
    """Shape of a raw archive. Counts are exact; the seed only moves content."""

    tweets: int
    users: int
    communities: int
    topics: int
    vocab_per_topic: int
    retweet_share: float = 0.45
    reply_share: float = 0.15
    offstream_share: float = 0.33
    malformed_lines: int = 12
    # None keeps the program's default for these two knobs.
    min_community_size: int | None = None
    k: int | None = None


@dataclass(frozen=True)
class GraphSpec:
    nodes: int
    records: int
    blocks: int


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                   for _ in range(rng.randint(2, 4)))


def _vocabulary(rng: random.Random, size: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < size:
        w = _pseudo_word(rng)
        if w in taken or any(k in w for k in KEYWORDS):
            continue
        taken.add(w)
        words.append(w)
    return words


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (r + 1) ** exponent for r in range(n)]


def _cumulative(weights: list[float]) -> list[float]:
    acc, out = 0.0, []
    for w in weights:
        acc += w
        out.append(acc)
    return out


def make_archive(spec: ArchiveSpec, seed: int):
    """Return (tweet_lines, user_objs, properties) for one archive."""
    if spec.topics > len(KEYWORDS):
        raise ValueError(f"at most {len(KEYWORDS)} topics")
    rng = random.Random(seed)

    # Community sizes are skewed in two tiers: a fifth of the communities
    # hold 55% of the users, the rest share the remainder. Within each tier
    # sizes follow a Zipf law. The tiers leave a gap around the default size
    # gate (120 at full size), so the communities that pass the gate do not
    # change from seed to seed.
    n_big = max(1, spec.communities // 5)
    big_users = int(spec.users * 0.55)
    sizes = []
    for count, users, exponent in ((n_big, big_users, 0.7),
                                   (spec.communities - n_big, spec.users - big_users, 0.3)):
        weights = _zipf_weights(count, exponent)
        total = sum(weights)
        sizes += [max(8, int(users * w / total)) for w in weights]
    sizes[0] += spec.users - sum(sizes)

    users: list[dict] = []
    members: list[list[str]] = []
    hubs: list[str] = []
    serial = 0
    for ci, size in enumerate(sizes):
        block = []
        for j in range(size):
            serial += 1
            uid = f"u{serial:06d}"
            if j == 0:
                hubs.append(uid)
                users.append({"user_id": uid, "handle": f"hub_desk_{ci:02d}",
                              "display_name": f"{rng.choice(SURNAMES)} Relief Desk {ci}",
                              "followers": rng.randint(20_000, 90_000),
                              "has_profile_photo": True, "face_count": 0,
                              "age_estimate": None, "gender_estimate": None,
                              "account_kind": "organization"})
            else:
                female = rng.random() < 0.48
                first = rng.choice(FEMALE if female else MALE)
                name = f"{first} {rng.choice(SURNAMES)}"
                if rng.random() < 0.05:
                    name = rng.choice(NO_PROPER)
                face = rng.random() < 0.85
                age = rng.randint(14, 24) if rng.random() < 0.8 else rng.randint(26, 40)
                users.append({"user_id": uid, "handle": f"{first.lower()}_{serial:06d}",
                              "display_name": name,
                              "followers": rng.randint(5, 5000),
                              "has_profile_photo": face,
                              "face_count": 1 if face else None,
                              "age_estimate": age if face else None,
                              "gender_estimate": ("female" if female else "male") if face else None,
                              "account_kind": "individual" if rng.random() < 0.9 else "unknown"})
            block.append(uid)
        members.append(block)

    # Authorship is mildly skewed; engagement is strongly skewed, so hubs and
    # a few popular members receive most retweets and replies. Both rank the
    # hub first.
    author_cum = [_cumulative(_zipf_weights(len(m), 0.5)) for m in members]
    target_cum = [_cumulative(_zipf_weights(len(m), 1.0)) for m in members]
    community_cum = _cumulative([float(s) for s in sizes])

    taken: set[str] = set()
    vocab = [_vocabulary(rng, spec.vocab_per_topic, taken) for _ in range(spec.topics)]
    filler = _vocabulary(rng, spec.vocab_per_topic * 2, taken)
    vocab_cum = _cumulative(_zipf_weights(spec.vocab_per_topic, 1.0))
    filler_cum = _cumulative(_zipf_weights(len(filler), 1.0))
    # Each community talks mostly about three topics.
    community_topics = [rng.sample(range(spec.topics), min(3, spec.topics))
                        for _ in range(spec.communities)]

    def sentence(words: list[str], cum: list[float], n: int) -> str:
        return " ".join(rng.choices(words, cum_weights=cum, k=n))

    def on_text(ci: int) -> str:
        topic = (rng.choice(community_topics[ci]) if rng.random() < 0.8
                 else rng.randrange(spec.topics))
        body = sentence(vocab[topic], vocab_cum, rng.randint(6, 10))
        kw = KEYWORDS[topic]
        return f"{kw} {body}" if rng.random() < 0.7 else f"{body} #{kw.capitalize()}"

    def off_text() -> str:
        return sentence(filler, filler_cum, rng.randint(5, 9))

    def locate(rec: dict) -> None:
        lat, lon, place = rng.choice(GEO_POINTS)
        rec["lat"], rec["lon"] = lat + rng.uniform(-0.2, 0.2), lon + rng.uniform(-0.2, 0.2)
        rec["place_name"] = place

    # Pools of earlier tweets per (community, on/off stream) and per author,
    # for heavy-tailed retweet and reply targets.
    pools: dict[tuple[int, bool], list[int]] = {}
    by_author: dict[tuple[str, bool], list[int]] = {}
    records: list[dict] = []

    def pick_target(ci: int, on: bool) -> int | None:
        if rng.random() < CROSS_SHARE:
            ci = rng.randrange(spec.communities)
        pool = pools.get((ci, on))
        if not pool:
            return None
        # Popular authors draw most engagement: pick an author by Zipf rank,
        # then one of their tweets; fall back to the pool when they have none.
        author = members[ci][rng.choices(range(len(members[ci])),
                                         cum_weights=target_cum[ci])[0]]
        own = by_author.get((author, on))
        return rng.choice(own) if own else rng.choice(pool)

    for n in range(spec.tweets):
        ci = rng.choices(range(spec.communities), cum_weights=community_cum)[0]
        on = rng.random() >= spec.offstream_share
        block = members[ci]
        author = block[rng.choices(range(len(block)), cum_weights=author_cum[ci])[0]]
        if not on and author == hubs[ci]:
            author = block[1 + rng.randrange(len(block) - 1)]
        roll = rng.random()
        rec: dict = {"tweet_id": f"t{n + 1:07d}", "author_id": author,
                     "created_at": BASE_TS + 60 * n, "mentions": [],
                     "reply_to": None, "retweet_of": None,
                     "lat": None, "lon": None, "place_name": None}
        if roll < spec.retweet_share:
            target = pick_target(ci, on)
            if target is not None and records[target]["author_id"] != author:
                rec["retweet_of"] = records[target]["tweet_id"]
                rec["text"] = records[target]["text"]
        elif roll < spec.retweet_share + spec.reply_share:
            target = pick_target(ci, on)
            if target is not None:
                rec["reply_to"] = records[target]["tweet_id"]
        if "text" not in rec:
            if on:
                kind = rng.random()
                if kind < 0.1:  # geo_window stream only
                    rec["text"] = off_text()
                    locate(rec)
                elif kind < 0.2:  # mention stream only
                    rec["text"] = off_text()
                    rec["mentions"] = [rng.choice(hubs)]
                else:  # keyword stream, sometimes located
                    rec["text"] = on_text(ci)
                    if rng.random() < 0.5:
                        locate(rec)
            else:
                rec["text"] = off_text()
        if rng.random() < 0.08:
            rec["likes"] = rec["retweets"] = rec["replies"] = 0
        else:
            rec["likes"] = rng.randint(0, 40)
            rec["retweets"] = rng.randint(0, 12)
            rec["replies"] = rng.randint(0, 6)
        idx = len(records)
        records.append(rec)
        pools.setdefault((ci, on), []).append(idx)
        by_author.setdefault((author, on), []).append(idx)

    lines = [json.dumps(rec, ensure_ascii=False, sort_keys=True) for rec in records]

    # Malformed lines exercise the rejection path: bad JSON, a missing field,
    # a negative count, and a duplicated id.
    bad = ['{"tweet_id": "broken", "author_id": ',
           json.dumps({"tweet_id": "x-missing-text", "author_id": hubs[0],
                       "created_at": BASE_TS}),
           json.dumps({"tweet_id": "x-negative", "author_id": hubs[0], "text": "x",
                       "created_at": BASE_TS, "likes": -3}),
           None]
    for j in range(spec.malformed_lines):
        kind = bad[j % len(bad)]
        line = lines[rng.randrange(len(lines))] if kind is None else kind
        lines.insert(rng.randrange(len(lines) + 1), line)

    texts = [r["text"] for r in records]
    props = {
        "raw_lines": len(lines),
        "raw_tweets": len(records),
        "users": len(users),
        "communities_planted": spec.communities,
        "largest_community": max(sizes),
        "smallest_community": min(sizes),
        "distinct_text_ratio_raw": round(len(set(texts)) / len(texts), 4),
        "retweets": sum(1 for r in records if r["retweet_of"]),
        "replies": sum(1 for r in records if r["reply_to"]),
        "malformed_lines": spec.malformed_lines,
    }
    return lines, users, props


CONFIG = """\
tweets = {tweets}
users = {users}
seed = {seed}
{knobs}flag_keywords = {keywords}
stream.1.kind = keyword
stream.1.keywords = {keywords}
stream.2.kind = account
stream.2.accounts = {hubs}
stream.3.kind = mention
stream.3.accounts = {hubs}
stream.4.kind = geo_window
stream.4.bbox = {box}
stream.4.window = {start} {end}
"""


def write_archive(out: Path, spec: ArchiveSpec, seed: int) -> tuple[Path, dict]:
    """Write tweets.ndjson, users.ndjson and config.cfg; return (config, props)."""
    out.mkdir(parents=True, exist_ok=True)
    lines, users, props = make_archive(spec, seed)
    tweets_path, users_path = out / "tweets.ndjson", out / "users.ndjson"
    tweets_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    users_path.write_text("".join(json.dumps(u, ensure_ascii=False, sort_keys=True) + "\n"
                                  for u in users), encoding="utf-8")
    hubs = [u["user_id"] for u in users if u["account_kind"] == "organization"]
    config = out / "config.cfg"
    config.write_text(CONFIG.format(
        tweets=tweets_path.resolve(), users=users_path.resolve(), seed=seed,
        knobs="".join(f"{key} = {value}\n" for key, value in
                      (("min_community_size", spec.min_community_size), ("k", spec.k))
                      if value is not None),
        keywords=",".join(KEYWORDS[:spec.topics]), hubs=",".join(hubs),
        box=GEO_BOX, start=BASE_TS, end=BASE_TS + 60 * spec.tweets,
    ), encoding="utf-8")
    return config, props


def make_graph_records(spec: GraphSpec, seed: int):
    """Return (src, dst, is_retweet) int arrays; no self-interactions.

    Sources are uniform. An intra-block record picks its target by a power of
    a uniform draw over a per-block random order, so a few accounts per block
    receive most of the interactions, as in a hub-dominated retweet graph.
    """
    rng = np.random.default_rng(seed)
    n, m = spec.nodes, spec.records
    block = n // spec.blocks
    perm = rng.permutation(n)  # hides hubs among arbitrary ids
    src = rng.integers(0, n, size=m)
    base = (src // block) * block
    rank = np.minimum((block * rng.random(m) ** GRAPH_TAIL_EXPONENT).astype(np.int64),
                      block - 1)
    intra = rng.random(m) < GRAPH_INTRA_SHARE
    dst = np.where(intra, base + rank, rng.integers(0, n, size=m))
    src, dst = perm[src], perm[np.minimum(dst, n - 1)]
    keep = src != dst
    retweet = rng.random(m) < GRAPH_RETWEET_SHARE
    return src[keep], dst[keep], retweet[keep]


def write_graph_records(out: Path, spec: GraphSpec, seed: int) -> tuple[Path, dict]:
    out.mkdir(parents=True, exist_ok=True)
    src, dst, retweet = make_graph_records(spec, seed)
    path = out / "graph_records.npz"
    np.savez(path, src=src, dst=dst, retweet=retweet, nodes=np.int64(spec.nodes))
    pairs = np.unique(src.astype(np.int64) * spec.nodes + dst)
    props = {"nodes": spec.nodes, "records": int(src.size),
             "distinct_edges": int(pairs.size), "blocks": spec.blocks,
             "retweet_records": int(retweet.sum())}
    return path, props
