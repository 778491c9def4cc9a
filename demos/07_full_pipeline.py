"""
The whole pipeline, end to end
==============================

Generate the synthetic fixture, run every stage from one config, and read
the reports back. The corpus is engineered so that women over-engage the
climate topic; the disproportionality report flags exactly that.
"""

import atexit
import csv
import json
import shutil
import tempfile
from pathlib import Path

from echolens.config import load_config
from echolens.pipeline import run_pipeline, review_sample
from echolens.synth import write_fixture

workdir = Path(tempfile.mkdtemp(prefix="echolens_demo_"))
atexit.register(shutil.rmtree, workdir)
config_path = write_fixture(workdir / "fixture", seed=7, n_tweets=2000)

cfg = load_config(config_path)
cfg.out_dir = str(workdir / "run")
manifest_path = run_pipeline(cfg)

manifest = json.loads(manifest_path.read_text())
print("reports:", ", ".join(sorted(manifest["files"])))
print("config hash:", manifest["config_hash"][:16], "... seed:", manifest["seed"])
print("stage counts:", manifest["stage_counts"])

with open(Path(cfg.out_dir) / "disproportionality.csv", newline="") as fh:
    flagged = [row for row in csv.DictReader(fh) if row["direction"]]
print(f"\n{len(flagged)} flagged (topic, bucket) pairs; strongest first:")
for row in flagged[:5]:
    print(f"  topic {row['cluster_id']} {row['axis']}={row['bucket']}: "
          f"ratio {float(row['ratio']):.2f} -> {row['direction']}")

# The sample is seeded from the run's own seed, like `echolens review-sample`.
cfg.review_sample_size = 4
sample = review_sample(cfg)
print(f"\nstratified review sample written to {sample}")
