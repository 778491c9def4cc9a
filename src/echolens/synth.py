"""Deterministic synthetic corpus for demos and end-to-end tests.

The generated archive is engineered to exercise every pipeline stage at desk
scale: three interaction communities of different sizes (one small enough to
be gated away), six disjoint-vocabulary topics, a slice of zero-engagement
records, geographic spread matching the bundled gazetteer, and one deliberate
demographic skew: women over-engage the climate topic. The same seed always
yields byte-identical NDJSON files.
"""

from __future__ import annotations

import random
from pathlib import Path
from .ingest import TweetRecord, UserRecord, write_ndjson

__all__ = ["make_corpus", "write_fixture", "TOPIC_TEMPLATES", "FIXTURE_KEYWORDS"]

BASE_TS = 1_625_097_600  # 2021-07-01T00:00:00Z

TOPIC_TEMPLATES = {
    "climate": [
        "climate change action now #ClimateAction warming planet summit",
        "youth strike for climate justice #ClimateAction emissions pledge",
        "rising seas and heatwaves demand climate policy urgency",
    ],
    "food": [
        "food security harvest nutrition #FoodSecurity smallholder farming",
        "school meals and food security funding gap widening",
        "drought threatens harvests, food security programmes respond",
    ],
    "animals": [
        "animal rights wildlife protection #AnimalRights habitat corridors",
        "stop poaching, protect wildlife and animal welfare standards",
        "sanctuary expands care for rescued animals and wildlife",
    ],
    "stats": [
        "statistics dashboard quarterly indicators release #DataReport",
        "statistics show indicator trends diverging across regions",
        "new statistics methodology notes published for indicators",
    ],
    "cleanup": [
        "#TeamSeas ocean cleanup plastic haul weekend drive",
        "river barriers caught tonnes of plastic #TeamSeas cleanup",
        "volunteers join #TeamSeas beach cleanup against plastic waste",
    ],
    "governance": [
        "corruption inquiry, governance reform agenda advances",
        "anti corruption watchdog audits procurement governance",
        "governance reform bill targets corruption loopholes",
    ],
}

FIXTURE_KEYWORDS = ["climate", "food", "animal", "statistics", "teamseas", "corruption"]

FILLER_TEXTS = [
    "weekend football scores and highlights reel",
    "new album drop tonight, turn it up",
    "coffee first, questions later",
    "holiday photo dump from the coast",
]

_FEMALE_NAMES = ["Emma", "Sophie", "Lucia", "Priya", "Wanjiru", "Amina", "Carmen",
                 "Ananya", "Kavya", "Jisoo", "Sofia", "Grace", "Esther", "Lena",
                 "Maria", "Zoe", "Ifeoma", "Lulit", "Fatima", "Rin"]
_MALE_NAMES = ["Oliver", "Diego", "Arjun", "Tunde", "Minjun", "Hiroshi", "James",
               "Mateo", "Rohan", "Vikram", "Akira", "Kenji", "Daniel", "Lucas",
               "Noah", "Kofi", "Moussa", "Thabo", "Piotr", "Alejandro"]
_SURNAMES = ["Garcia", "Fernandez", "Lopez", "Martinez", "Okafor", "Mwangi",
             "Diallo", "Mensah", "Smith", "Miller", "Anderson", "Novak",
             "Tanaka", "Suzuki", "Sharma", "Patel", "Moreno", "Serrano",
             "Adeyemi", "Kamau", "Johnson", "Brown", "Wilson", "Schneider"]

# Coordinates inside the bundled gazetteer boxes, plus a few place names.
_GEO_POINTS = [
    (-1.29, 36.82, "Nairobi"),   # KE
    (51.50, -0.12, "London"),    # GB
    (40.71, -74.00, "New York"),  # US
    (19.07, 72.87, "Mumbai"),    # IN
    (-23.55, -46.63, None),      # BR (box only)
    (52.52, 13.40, "Berlin"),    # DE
    (-33.92, 18.42, "Cape Town"),  # ZA
]

_COMMUNITY_SIZES = (150, 117, 33)
_HUB_INFO = [
    ("hub_climate_org", "Global Climate Youth Forum", "organization"),
    ("hub_relief_org", "World Relief Network", "organization"),
    ("hub_data_desk", "Open Data Desk", "organization"),
]


def make_corpus(seed: int, n_tweets: int):
    """Generate (tweets, users); fully determined by the seed."""
    rng = random.Random(seed)
    topics = list(TOPIC_TEMPLATES)

    users: list[UserRecord] = []
    hubs: list[str] = []
    for i, (handle, display, kind) in enumerate(_HUB_INFO):
        uid = f"h{i + 1:02d}"
        hubs.append(uid)
        users.append(UserRecord(
            user_id=uid, handle=handle, display_name=display,
            followers=50_000 + 10_000 * i, has_profile_photo=True,
            face_count=0, account_kind=kind,
        ))

    communities: list[list[str]] = []
    serial = 0
    for size in _COMMUNITY_SIZES:
        members = []
        for _ in range(size - 1):  # hub completes the community
            serial += 1
            uid = f"u{serial:04d}"
            gender = "female" if rng.random() < 0.45 else "male"
            first = rng.choice(_FEMALE_NAMES if gender == "female" else _MALE_NAMES)
            display = f"{first} {rng.choice(_SURNAMES)}"
            face_ok = rng.random() < 0.85
            age = rng.randint(14, 24) if rng.random() < 0.8 else rng.randint(26, 35)
            no_proper = rng.random() < 0.05
            if no_proper:
                display = rng.choice(["sunflower vibes", "green team daily",
                                      "ocean wave news", "cosmic data fan"])
            users.append(UserRecord(
                user_id=uid,
                handle=f"{first.lower()}_{serial:04d}",
                display_name=display,
                followers=rng.randint(10, 5000),
                has_profile_photo=face_ok,
                face_count=1 if face_ok else None,
                age_estimate=age if face_ok else None,
                gender_estimate=gender if face_ok else None,
                account_kind="individual" if rng.random() < 0.9 else "unknown",
            ))
            members.append(uid)
        communities.append(members)

    by_id = {u.user_id: u for u in users}

    tweets: list[TweetRecord] = []
    tick = 0

    def next_id() -> str:
        nonlocal tick
        tick += 1
        return f"t{tick:06d}"

    def stamp() -> int:
        return BASE_TS + tick * 60

    def engagement() -> tuple[int, int, int]:
        if rng.random() < 0.08:
            return 0, 0, 0
        return rng.randint(0, 40), rng.randint(0, 12), rng.randint(0, 6)

    def geo():
        if rng.random() < 0.6:
            lat, lon, place = rng.choice(_GEO_POINTS)
            return (lat + rng.uniform(-0.2, 0.2), lon + rng.uniform(-0.2, 0.2), place)
        return (None, None, None)

    # Hub seed posts: a few per topic, so members have something to retweet.
    hub_posts: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for ci, hub in enumerate(hubs):
        for topic in topics:
            for text in TOPIC_TEMPLATES[topic][:2]:
                likes, rts, reps = rng.randint(5, 80), rng.randint(2, 30), rng.randint(0, 8)
                lat, lon, place = geo()
                tid = next_id()
                tweets.append(TweetRecord(
                    tweet_id=tid, author_id=hub, text=text, created_at=stamp(),
                    likes=likes, retweets=rts, replies=reps,
                    lat=lat, lon=lon, place_name=place,
                ))
                hub_posts[ci].append(tid)

    def pick_author(ci: int, topic: str) -> str:
        members = communities[ci]
        if topic == "climate":
            # The engineered skew: climate tweets come mostly from women.
            women = [m for m in members if by_id[m].gender_estimate == "female"]
            if women and rng.random() < 0.75:
                return rng.choice(women)
        return rng.choice(members)

    community_tweets: dict[int, list[str]] = {0: [], 1: [], 2: []}
    remaining = n_tweets - len(tweets)
    for _ in range(remaining):
        ci = rng.choices((0, 1, 2), weights=(50, 39, 11))[0]
        roll = rng.random()
        topic = rng.choice(topics)
        author = pick_author(ci, topic)
        likes, rts, reps = engagement()
        lat, lon, place = geo()
        tid = next_id()
        if roll < 0.25 and hub_posts[ci]:
            target = rng.choice(hub_posts[ci])
            text = rng.choice(TOPIC_TEMPLATES[topic])
            rec = TweetRecord(tweet_id=tid, author_id=author, text=text,
                              created_at=stamp(), likes=likes, retweets=rts,
                              replies=reps, retweet_of=target,
                              lat=lat, lon=lon, place_name=place)
        elif roll < 0.40 and community_tweets[ci]:
            target = rng.choice(community_tweets[ci])
            text = rng.choice(TOPIC_TEMPLATES[topic])
            rec = TweetRecord(tweet_id=tid, author_id=author, text=text,
                              created_at=stamp(), likes=likes, retweets=rts,
                              replies=reps, reply_to=target,
                              mentions=[rng.choice(hubs)] if rng.random() < 0.3 else [],
                              lat=lat, lon=lon, place_name=place)
        elif roll < 0.95:
            text = rng.choice(TOPIC_TEMPLATES[topic])
            rec = TweetRecord(tweet_id=tid, author_id=author, text=text,
                              created_at=stamp(), likes=likes, retweets=rts,
                              replies=reps, lat=lat, lon=lon, place_name=place)
        else:
            rec = TweetRecord(tweet_id=tid, author_id=author,
                              text=rng.choice(FILLER_TEXTS), created_at=stamp(),
                              likes=likes, retweets=rts, replies=reps)
        tweets.append(rec)
        community_tweets[ci].append(tid)

    return tweets, users


CONFIG_TEMPLATE = """\
# Synthetic fixture run configuration.
tweets = {tweets}
users = {users}
seed = {seed}
min_community_size = 50
k = 6
dim = 256
table_rows = 5
tau_hi = 1.25
tau_lo = 0.8
formats = csv
flag_keywords = {keywords}
stream.1.kind = keyword
stream.1.keywords = {keywords}
stream.2.kind = account
stream.2.accounts = h01,h02,h03
stream.3.kind = mention
stream.3.accounts = h01,h02,h03
stream.4.kind = geo_window
stream.4.bbox = -35.0 -130.0 60.0 100.0
stream.4.window = {win_start} {win_end}
"""


def write_fixture(out_dir: str | Path, seed: int, n_tweets: int) -> Path:
    """Write tweets.ndjson, users.ndjson, and a ready-to-run config file.

    Returns the config path. Paths inside the config are absolute so the file
    can be used from any working directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tweets, users = make_corpus(seed=seed, n_tweets=n_tweets)
    tweets_path = out / "tweets.ndjson"
    users_path = out / "users.ndjson"
    write_ndjson(tweets_path, tweets)
    write_ndjson(users_path, users)
    config_path = out / "config.cfg"
    config_path.write_text(CONFIG_TEMPLATE.format(
        tweets=tweets_path.resolve(),
        users=users_path.resolve(),
        seed=seed,
        keywords=",".join(FIXTURE_KEYWORDS),
        win_start=BASE_TS,
        win_end=BASE_TS + (n_tweets + 100) * 60,
    ), encoding="utf-8")
    return config_path
