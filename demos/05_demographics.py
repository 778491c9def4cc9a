"""
Demographic annotation: geolocation, names, and eligibility
===========================================================

Countries come from a gazetteer (coordinate boxes, then place names); race
comes from census-style name lists with an n-gram classifier as fallback;
the youth eligibility rules exclude over-25 accounts and names without a
proper noun. All bundled data files are small synthetic fixtures.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from echolens.demographics import (NameModel, NgramNameClassifier,
                                   ProperNounLexicon, annotate_users,
                                   classify_race, default_data_path,
                                   demographic_distribution, load_continents,
                                   load_gazetteer, load_name_lists,
                                   load_training_names)
from echolens.ingest import parse_corpus
from echolens.synth import write_fixture

gaz = load_gazetteer(default_data_path("gazetteer.csv"))
continents = load_continents(default_data_path("continents.csv"))
names, labels = load_training_names(default_data_path("classifier_names.csv"))
model = NameModel(
    census_lists=load_name_lists(default_data_path("name_lists.csv")),
    classifier=NgramNameClassifier().fit(names, labels),
    tau=0.6,
)
lexicon = ProperNounLexicon.from_files(default_data_path("given_names.csv"),
                                       default_data_path("stopwords.txt"))

for probe in ("Emma Garcia", "Kofi Okafor", "Jisoo Tanaka", "Quirky Zzyzx"):
    posterior = model.classifier.posterior(probe)
    best = max(posterior, key=posterior.get)
    print(f"{probe:<16} -> {classify_race(probe, model):<13}"
          f"(classifier alone: {best} at {posterior[best]:.2f})")

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
write_fixture(workdir, seed=7, n_tweets=800)
tweets, _ = parse_corpus(workdir / "tweets.ndjson", schema="tweets")
users, _ = parse_corpus(workdir / "users.ndjson", schema="users")

annotations = annotate_users(users, tweets, gaz, continents, model, lexicon)
eligible = sum(a.eligible_youth for a in annotations.values())
print(f"\n{eligible} of {len(annotations)} users are youth-eligible")

buckets, missing = demographic_distribution(annotations, axis="continent")
print("continent distribution (count, share):")
for bucket, (count, share) in buckets.items():
    print(f"  {bucket:<14}{count:>4}  {share:.3f}")
print(f"  (missing)     {missing:>4}")
