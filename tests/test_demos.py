"""Every script in demos/ runs end to end against the package, writing only
under a temporary directory that it removes before it exits; the topics demo's
printed output is checked. The README's library example runs too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from echolens.cli import main

ROOT = Path(__file__).resolve().parent.parent

# demos/06_topics.py prints the same lines whenever its seeds are unchanged.
TOPICS_DEMO_STDOUT = """\
['team', 'seas', 'is', 'great']
embedded 746 tweets into 256-dim vectors
k-means: 2 iterations, converged=True, final SSE 526.3
silhouette: 0.214
  topic 0 ( 260 tweets): food, security, and, for, wildlife
  topic 1 ( 279 tweets): cleanup, plastic, team, corruption, governance
  topic 2 (   7 tweets): album, drop, it, tonight, turn
  topic 3 ( 186 tweets): climate, action, rights, animal, across
  topic 4 (   7 tweets): coffee, first, later, questions
  topic 5 (   7 tweets): coast, dump, from, holiday, photo
"""


def run_demo(demo, tmp_path):
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []
    assert list(tmp.iterdir()) == []
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_graph_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_topics_demo_output(tmp_path):
    assert run_demo("06_topics.py", tmp_path) == TOPICS_DEMO_STDOUT


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    example = section.split("```python", 1)[1].split("```", 1)[0]
    assert main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    graph, communities = scope["graph"], scope["communities"]
    members = [m for c in communities.communities for m in c.members]
    assert len(graph.ids) > 0
    assert sorted(members) == sorted(graph.ids)
    assert set(communities.labels) == set(graph.ids)
