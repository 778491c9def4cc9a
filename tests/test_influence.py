import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens.graph import InteractionGraph
from echolens.influence import pagerank, rank_tables, scale_scores

from _oracles import dense_pagerank, edge_table, reference_pagerank
from conftest import make_tweet, make_user


def cycle_graph(n=3):
    return InteractionGraph.from_weighted_edges(
        [(f"n{i}", f"n{(i + 1) % n}", 1, 0) for i in range(n)])


def star_graph():
    """Three leaves each pointing at the hub."""
    return InteractionGraph.from_weighted_edges(
        [(leaf, "hub", 1, 0) for leaf in ("l1", "l2", "l3")])


def random_graph(seed: int):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    nodes = [f"n{i}" for i in range(n)]
    rows, edges = [], {}
    for _ in range(rng.randint(0, 3 * n)):
        src, dst = rng.sample(nodes, 2) if n > 1 else (None, None)
        if src is None:
            break
        w = rng.randint(1, 5)
        rows.append(rng.choice(((src, dst, w, 0), (src, dst, 0, w))))  # retweet or reply
        edges[(src, dst)] = edges.get((src, dst), 0) + w
    return InteractionGraph.from_weighted_edges(rows, nodes=nodes), edges


def hub_graph(seed: int, n: int):
    """Hub-heavy graph: most records point at a few hubs, a quarter of the
    nodes never send (dangling), and (src, dst) pairs repeat across kinds.
    Ids are random so sorted order differs from insertion order."""
    rng = random.Random(seed)
    nodes = [f"u{i}" for i in rng.sample(range(10**6), n)]
    hubs = nodes[:max(1, n // 20)]
    senders = nodes[n // 4:]
    rows, edges = [], {}
    records = 0
    for _ in range(4 * n):
        src = rng.choice(senders)
        dst = rng.choice(hubs) if rng.random() < 0.7 else rng.choice(nodes)
        if src == dst:
            continue
        w = rng.randint(1, 3)
        rows.append(rng.choice(((src, dst, w, 0), (src, dst, 0, w))))  # retweet or reply
        edges[(src, dst)] = edges.get((src, dst), 0) + w
        records += 1
    return InteractionGraph.from_weighted_edges(rows, nodes=nodes), edges, records


class TestPageRankBits:
    @pytest.mark.parametrize("max_iter", [1, 3, 100])
    @pytest.mark.parametrize("seed, n", [(0, 5), (1, 12), (2, 60), (3, 60), (4, 400)])
    def test_scores_bit_equal_to_reference(self, seed, n, max_iter):
        g, edges, records = hub_graph(seed, n)
        assert len(edges) < records  # some (src, dst) pairs repeat
        nodes = g.ids
        expected, iterations, converged = reference_pagerank(nodes, edges,
                                                             max_iter=max_iter)
        result = pagerank(g, max_iter=max_iter)
        got = np.array([result.scores[u] for u in nodes])
        assert got.tobytes() == np.array([expected[u] for u in nodes]).tobytes()
        assert (result.iterations, result.converged) == (iterations, converged)


class TestPageRank:
    def test_three_node_cycle_uniform(self):
        result = pagerank(cycle_graph(3))
        for score in result.scores.values():
            assert abs(score - 1.0 / 3.0) < 1e-9
        assert result.converged

    def test_single_node_exact_unit_mass(self):
        g = InteractionGraph.from_weighted_edges([], nodes=["only"])
        result = pagerank(g)
        assert result.scores["only"] == 1.0

    def test_star_matches_dense_oracle(self):
        g = star_graph()
        edges = {(leaf, "hub"): 1 for leaf in ("l1", "l2", "l3")}
        expected = dense_pagerank(g.ids, edges, damping=0.85)
        result = pagerank(g, damping=0.85)
        for node in g.ids:
            assert abs(result.scores[node] - expected[node]) < 1e-6
        assert result.scores["hub"] == max(result.scores.values())

    def test_fifty_random_graphs_match_oracle(self):
        for seed in range(50):
            g, edges = random_graph(seed)
            result = pagerank(g)
            expected = dense_pagerank(g.ids, edges)
            assert abs(sum(result.scores.values()) - 1.0) < 1e-9
            for node in g.ids:
                assert abs(result.scores[node] - expected[node]) < 1e-6, seed

    def test_mass_conserved_every_graph(self):
        for seed in range(20):
            g, _ = random_graph(seed + 100)
            scores = pagerank(g).scores
            assert abs(sum(scores.values()) - 1.0) < 1e-9
            assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_relabeling_permutes_scores(self):
        g, edges = random_graph(3)
        mapping = {n: f"x_{n}" for n in g.ids}
        relabeled = InteractionGraph.from_weighted_edges(
            ((mapping[s], mapping[d], rt, rp) for (s, d), (rt, rp) in edge_table(g).items()),
            nodes=[mapping[n] for n in g.ids])
        base = pagerank(g).scores
        moved = pagerank(relabeled).scores
        for node, score in base.items():
            assert abs(moved[mapping[node]] - score) < 1e-12

    def test_nonconvergence_sets_warning_flag(self):
        result = pagerank(star_graph(), tol=1e-30, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert abs(sum(result.scores.values()) - 1.0) < 1e-9

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            pagerank(InteractionGraph())

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            pagerank(cycle_graph(), damping=1.0)


class TestScaleScores:
    def test_hand_worked_mapping(self):
        scaled = scale_scores({"A": 0.2, "B": 0.5, "C": 0.3})
        assert scaled["A"] == 0.0
        assert scaled["B"] == 10.0
        assert abs(scaled["C"] - 10.0 * (0.1 / 0.3)) < 1e-12

    def test_degenerate_span_all_ten(self):
        assert scale_scores({"A": 0.5, "B": 0.5}) == {"A": 10.0, "B": 10.0}
        assert scale_scores({"only": 1.0}) == {"only": 10.0}

    def test_two_nodes_hit_endpoints(self):
        scaled = scale_scores({"A": 0.25, "B": 0.75})
        assert scaled == {"A": 0.0, "B": 10.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scale_scores({})

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(0, 1, allow_nan=False), min_size=1, max_size=8))
    def test_ranking_preserved_and_range(self, raw):
        scaled = scale_scores(raw)
        assert all(0.0 <= v <= 10.0 for v in scaled.values())
        best_raw = max(raw, key=lambda k: (raw[k], k))
        assert scaled[best_raw] == max(scaled.values())
        ranked_raw = sorted(raw, key=lambda k: (raw[k], k))
        ranked_scaled = sorted(scaled, key=lambda k: (scaled[k], k))
        assert ranked_raw == ranked_scaled


class TestRankTables:
    def users(self):
        return {
            "hub": make_user("hub", display_name="Hub Org", account_kind="organization"),
            "l1": make_user("l1", display_name="Leaf One", account_kind="individual"),
            "l2": make_user("l2", display_name="Leaf Two", account_kind="individual"),
            "l3": make_user("l3", display_name="Leaf Three", account_kind="unknown"),
        }

    def test_privacy_renders_individual(self):
        g = star_graph()
        scaled = scale_scores(pagerank(g).scores)
        tweets = [make_tweet("t1", author_id="l1")]
        table = rank_tables(g, scaled, tweets, self.users(), k=4, privacy=True)
        rendered = [row[2] for row in table]
        assert "Individual" in rendered
        assert rendered[0] == "Hub Org"
        off = rank_tables(g, scaled, tweets, self.users(), k=4, privacy=False)
        assert "Individual" not in [row[2] for row in off]

    def test_star_hub_tops_retweeted_and_pagerank(self):
        g = star_graph()
        scaled = scale_scores(pagerank(g).scores)
        table = rank_tables(g, scaled, [], self.users(), k=1)
        assert table == [(1, "Hub Org", "Hub Org", "")]

    def test_empty_everything_empty_table(self):
        assert rank_tables(InteractionGraph(), {}, [], {}, k=5) == []

    def test_k_larger_than_nodes_truncates(self):
        g = star_graph()
        scaled = scale_scores(pagerank(g).scores)
        table = rank_tables(g, scaled, [], self.users(), k=99, privacy=False)
        # Leaves tie on PageRank and are never retweeted: ties go by user id.
        assert table == [(1, "Hub Org", "Hub Org", ""),
                         (2, "Leaf One", "Leaf One", ""),
                         (3, "Leaf Two", "Leaf Two", ""),
                         (4, "Leaf Three", "Leaf Three", "")]

    def test_volume_column_counts_authored(self):
        g = star_graph()
        scaled = scale_scores(pagerank(g).scores)
        tweets = [make_tweet(f"t{i}", author_id="l2") for i in range(3)]
        tweets += [make_tweet("t9", author_id="l1")]
        table = rank_tables(g, scaled, tweets, self.users(), k=2, privacy=False)
        assert [row[3] for row in table] == ["Leaf Two", "Leaf One"]
