import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens.community import (Community, CommunityAssignment, _anchor,
                                flag_offtopic, gate_communities,
                                label_propagation, node_importance)
from echolens.graph import InteractionGraph
from echolens.influence import pagerank

from _oracles import (best_modularity_partition, edge_table,
                      reference_label_propagation)
from conftest import clique_graph, make_tweet, make_user

CLIQUE_A = tuple(f"a{i}" for i in range(5))
CLIQUE_B = tuple(f"b{i}" for i in range(5))


def two_cliques_bridged():
    return clique_graph(CLIQUE_A, CLIQUE_B, bridges=[("a4", "b0")])


def run_lp(g, seed=0, **kwargs):
    return label_propagation(g, node_importance(g), seed=seed, **kwargs)


def member_sets(assignment):
    return {frozenset(c.members) for c in assignment.communities}


def by_node(g, importance):
    """The importance array of g from a {node: value} mapping."""
    return np.array([importance[node] for node in g.ids], dtype=np.float64)


class TestNodeImportance:
    def test_weighted_in_degree_read_off(self):
        g = InteractionGraph.from_weighted_edges([("B", "A", 3, 0)])
        imp = node_importance(g, mode="weighted_in_degree")
        assert imp.tolist() == [3.0, 0.0]

    def test_empty_graph(self):
        imp = node_importance(InteractionGraph())
        assert imp.dtype == np.float64 and imp.shape == (0,)

    def test_isolated_node_gets_zero(self):
        g = InteractionGraph.from_weighted_edges([("B", "A", 3, 0)], nodes=["solo"])
        imp = node_importance(g)
        assert g.ids == ("A", "B", "solo") and imp.tolist() == [3.0, 0.0, 0.0]
        assert imp.dtype == np.float64

    def test_pagerank_mode_returns_raw_scores(self):
        g = InteractionGraph.from_weighted_edges([("B", "A", 3, 0)], nodes=["solo"])
        scores = pagerank(g).scores
        assert node_importance(g, mode="pagerank").tolist() == [scores[node] for node in g.ids]

    def test_pagerank_mode_cycle_symmetric(self):
        g = InteractionGraph.from_weighted_edges(
            [(f"n{i}", f"n{(i + 1) % 3}", 0, 1) for i in range(3)])
        imp = node_importance(g, mode="pagerank")
        assert imp.max() - imp.min() < 1e-12
        assert abs(imp.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("mode", ["weighted_in_degree", "pagerank"])
    @pytest.mark.parametrize("graph", [
        InteractionGraph(),
        InteractionGraph.from_weighted_edges([], nodes=["a", "b"]),
        clique_graph(("a", "b", "c"), ("solo",)),
    ], ids=["empty", "edgeless", "clique"])
    def test_float64_array_aligned_with_ids(self, mode, graph):
        imp = node_importance(graph, mode=mode)
        assert isinstance(imp, np.ndarray)
        assert imp.dtype == np.float64 and imp.shape == (len(graph),)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            node_importance(InteractionGraph(), mode="degree")


class TestLabelPropagation:
    def test_single_clique_single_community(self):
        g = clique_graph(tuple("wxyz"))
        assignment = run_lp(g)
        assert member_sets(assignment) == {frozenset("wxyz")}
        assert assignment.converged

    def test_two_bridged_cliques_for_ten_seeds(self):
        g = two_cliques_bridged()
        expected = {frozenset(CLIQUE_A), frozenset(CLIQUE_B)}
        for seed in range(10):
            assert member_sets(run_lp(g, seed=seed)) == expected

    def test_bridged_cliques_match_modularity_oracle(self):
        g = two_cliques_bridged()
        edges = {e: rt + rp for e, (rt, rp) in edge_table(g).items()}
        oracle_partition, _ = best_modularity_partition(g.ids, edges)
        assert oracle_partition == {frozenset(CLIQUE_A), frozenset(CLIQUE_B)}
        assert member_sets(run_lp(g, seed=3)) == oracle_partition

    def test_disjoint_cliques_recovered_any_seed(self):
        cliques = (tuple(f"x{i}" for i in range(4)),
                   tuple(f"y{i}" for i in range(5)),
                   tuple(f"z{i}" for i in range(6)))
        g = clique_graph(*cliques)
        expected = {frozenset(c) for c in cliques}
        for seed in (0, 1, 7, 42, 99, 12345):
            assert member_sets(run_lp(g, seed=seed)) == expected

    def test_isolated_node_keeps_own_singleton(self):
        g = clique_graph(tuple("pqr"), ("loner",))
        assignment = run_lp(g)
        assert frozenset(["loner"]) in member_sets(assignment)

    def test_labels_total_and_partition(self):
        g = clique_graph(CLIQUE_A, CLIQUE_B, ("loner",), bridges=[("a4", "b0")])
        assignment = run_lp(g, seed=5)
        assert set(assignment.labels) == set(g.ids)
        seen = set()
        for c in assignment.communities:
            assert c.size == len(c.members)
            assert c.anchor in c.members
            assert not seen.intersection(c.members)
            seen.update(c.members)
        assert seen == set(g.ids)

    def test_deterministic_for_fixed_inputs(self):
        g = two_cliques_bridged()
        a = run_lp(g, seed=11)
        b = run_lp(g, seed=11)
        assert a.labels == b.labels
        assert a.iterations_run == b.iterations_run

    def test_max_rounds_reported_not_fatal(self):
        g = two_cliques_bridged()
        assignment = run_lp(g, seed=0, max_rounds=1)
        assert not assignment.converged
        assert assignment.iterations_run == 1

    def test_missing_importance_rejected(self):
        # Importance is aligned with g.ids, so its length must be the graph's.
        g = clique_graph(("m", "n"))
        for importance in (np.ones(1), np.ones(3), np.ones((2, 1)), np.ones(0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"importance must hold one value per node: shape {importance.shape}, "
                    "2 nodes")):
                label_propagation(g, importance, seed=0)
        with pytest.raises(ValueError, match="one value per node"):
            label_propagation(InteractionGraph(), np.ones(1), seed=0)

    @pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
    def test_nan_negative_or_infinite_importance_rejected(self, value):
        # Unchecked, NaN or -1.0 merges the 4-cycle and the separate edge
        # into one community without converging in 100 rounds.
        g = InteractionGraph.from_weighted_edges(
            [("a", "b", 1, 0), ("b", "c", 1, 0), ("c", "d", 1, 0), ("d", "a", 1, 0),
             ("e", "f", 1, 0)])
        importance = np.full(len(g), value)
        with pytest.raises(ValueError, match=r"negative or not finite for nodes: "
                                             r"\['a', 'b', 'c', 'd', 'e'\]"):
            label_propagation(g, importance, seed=0)

    def test_one_negative_importance_named(self):
        g = clique_graph(("m", "n", "o"))
        with pytest.raises(ValueError, match=r"\['n'\]"):
            label_propagation(g, np.array([1.0, -0.0001, 0.0]), seed=0)

    def test_negative_interaction_weight_rejected(self):
        # The vote rule needs non-negative votes; the graph refuses a
        # negative count when it is built, even where the pair's symmetrised
        # sum (-1 + 2 here) would be positive.
        with pytest.raises(ValueError, match=r"negative interaction count on \(r, s\)"):
            InteractionGraph.from_weighted_edges([("s", "r", 0, 2), ("r", "s", -1, 0)])

    def test_connected_star_is_one_community_anchored_at_hub(self):
        # Single-community contract: id 0, every node a member, the hub
        # (the only node retweeted) as anchor.
        leaves = [f"leaf{i:02d}" for i in range(12)]
        g = InteractionGraph.from_weighted_edges(
            [(leaf, "hub", 1, 0) for leaf in leaves])
        for seed in range(5):
            assignment = run_lp(g, seed=seed)
            assert assignment.converged
            assert [(c.community_id, c.size, c.anchor)
                    for c in assignment.communities] == [(0, 13, "hub")]
            assert assignment.labels == dict.fromkeys(g.ids, 0)


def synthetic_assignment(sizes):
    communities = []
    labels = {}
    for cid, size in enumerate(sizes):
        members = tuple(f"c{cid}_m{i}" for i in range(size))
        communities.append(Community(community_id=cid, members=members,
                                     size=size, anchor=members[0]))
        labels.update({m: cid for m in members})
    return CommunityAssignment(labels=labels, communities=communities,
                               iterations_run=1, converged=True)


class TestGateCommunities:
    def test_exactly_120_dropped_121_kept(self):
        gated = gate_communities(synthetic_assignment([120, 121]), min_size=120)
        assert [c.size for c in gated.communities] == [121]
        assert gated.dropped_members == 120

    def test_hand_counted_sizes(self):
        gated = gate_communities(synthetic_assignment([5, 121, 300]), min_size=120)
        assert sorted(c.size for c in gated.communities) == [121, 300]
        assert gated.dropped_members == 5

    def test_never_merges_or_grows(self):
        original = synthetic_assignment([10, 30, 50])
        gated = gate_communities(original, min_size=20)
        by_id = {c.community_id: c for c in original.communities}
        assert all(c.members == by_id[c.community_id].members
                   for c in gated.communities)

    def test_labels_restricted_to_survivors(self):
        gated = gate_communities(synthetic_assignment([2, 4]), min_size=3)
        assert set(gated.labels.values()) == {1}

    def test_min_size_validated(self):
        with pytest.raises(ValueError):
            gate_communities(synthetic_assignment([3]), min_size=0)


def anchor_of(g, members):
    """community._anchor over the members' within-community in-weights."""
    idx = np.sort([g.ids.index(m) for m in members])
    win = g.in_weights(edge_mask=np.isin(g.sources(), idx) & np.isin(g.indices, idx))
    return _anchor(g.ids, idx, win)


class TestAnchorUser:
    # The anchor is the member of largest within-community weighted
    # in-degree; ties go to the smallest id.
    def test_unique_maximum(self):
        g = InteractionGraph.from_weighted_edges([("B", "A", 2, 0)])
        assignment = label_propagation(g, np.ones(2), seed=0)
        assert [(c.members, c.anchor) for c in assignment.communities] == [(("A", "B"), "A")]

    def test_all_isolated_lexicographic(self):
        g = InteractionGraph.from_weighted_edges([], nodes=("zeta", "alpha", "mid"))
        assert anchor_of(g, {"zeta", "alpha", "mid"}) == "alpha"

    def test_four_member_fixture_hand_computed(self):
        # Induced weighted in-degrees: p=3 (2 from q, 1 from r), q=2, r=0, s=0.
        # Out-of-community edges must not count.
        g = InteractionGraph.from_weighted_edges([
            ("q", "p", 2, 0), ("r", "p", 0, 1), ("s", "q", 2, 0), ("outsider", "s", 9, 0)])
        assert anchor_of(g, {"p", "q", "r", "s"}) == "p"


class TestFlagOfftopic:
    def build(self):
        g = clique_graph(("a1", "a2"), ("b1", "b2"), ("c1", "c2"))
        assignment = run_lp(g)
        tweets = [
            make_tweet("t1", author_id="a1", text="climate strike today"),
            make_tweet("t2", author_id="b1", text="hello @anchor_b friends",
                       mentions=["b1"]),
            make_tweet("t3", author_id="c1", text="completely unrelated chatter"),
        ]
        return assignment, tweets

    def test_keyword_community_not_flagged(self):
        assignment, tweets = self.build()
        flags = flag_offtopic(assignment, tweets, ["climate"])
        flagged = {cid for cid, _ in flags}
        a_cid = assignment.labels["a1"]
        assert a_cid not in flagged

    def test_anchor_mention_community_not_flagged(self):
        assignment, tweets = self.build()
        flags = flag_offtopic(assignment, tweets, ["climate"])
        flagged = {cid for cid, _ in flags}
        assert assignment.labels["b1"] not in flagged

    def test_engineered_community_flagged(self):
        assignment, tweets = self.build()
        flags = flag_offtopic(assignment, tweets, ["climate"])
        assert {cid for cid, _ in flags} == {assignment.labels["c1"]}
        assert all(reason for _, reason in flags)

    def test_anchor_handle_in_text_counts(self):
        g = clique_graph(("u1", "u2"))
        assignment = run_lp(g)
        anchor = assignment.communities[0].anchor
        users = {anchor: make_user(anchor, handle="bigvoice")}
        tweets = [make_tweet("t1", author_id="u1", text="so inspired by BigVoice")]
        assert flag_offtopic(assignment, tweets, ["climate"], users) == []

    def test_empty_keywords_rejected(self):
        assignment, tweets = self.build()
        with pytest.raises(ValueError):
            flag_offtopic(assignment, tweets, [])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_disjoint_cliques_property_any_seed(seed):
    cliques = (tuple(f"g{i}" for i in range(4)), tuple(f"h{i}" for i in range(4)))
    g = clique_graph(*cliques)
    assignment = run_lp(g, seed=seed)
    assert member_sets(assignment) == {frozenset(c) for c in cliques}


def random_lp_graph(seed):
    """Seeded graph with isolated nodes, a few hub targets that take most of
    the edges, and small integer weights, so integer importances tie often."""
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    nodes = [f"u{i}" for i in range(n)]
    hubs = rng.sample(nodes, max(1, n // 10))
    isolated = set(rng.sample(nodes, n // 8))
    active = [node for node in nodes if node not in isolated]
    edges = {}
    for _ in range(rng.randint(0, 4 * n) if len(active) > 1 else 0):
        src = rng.choice(active)
        dst = rng.choice(hubs if rng.random() < 0.6 else active)
        if src != dst and dst not in isolated:
            edges[(src, dst)] = edges.get((src, dst), 0) + rng.randint(1, 3)
    g = InteractionGraph.from_weighted_edges(
        ((s, d, w, 0) for (s, d), w in edges.items()), nodes=nodes)
    return g, edges


def assert_matches_reference(edges, importance, seed, max_rounds, nodes=()):
    """label_propagation on the graph of edges ((src, dst) -> weight) equals
    the dict-of-dicts reference exactly, float-order-sensitive ties included.
    importance is {node: value}, or a function of the graph that returns
    either that or the importance array."""
    g = InteractionGraph.from_weighted_edges(
        ((s, d, w, 0) for (s, d), w in edges.items()), nodes=nodes)
    importance = importance(g) if callable(importance) else importance
    if isinstance(importance, np.ndarray):
        importance = dict(zip(g.ids, importance.tolist()))
    got = label_propagation(g, by_node(g, importance), seed=seed, max_rounds=max_rounds)
    want = reference_label_propagation(g.ids, edges, importance,
                                       seed, max_rounds)
    assert got.labels == want["labels"], seed
    assert got.iterations_run == want["iterations_run"], seed
    assert got.converged == want["converged"], seed
    assert [(c.members, c.anchor) for c in got.communities] == want["communities"], seed
    assert [c.community_id for c in got.communities] == list(range(len(got.communities)))


def tenths(seed):
    """Importance of 0.1, 0.2 or 0.3 per node, drawn from seed."""
    def draw(g):
        rng = random.Random(seed)
        return {node: rng.choice((0.1, 0.2, 0.3)) for node in g.ids}
    return draw


def test_label_propagation_matches_reference_on_random_graphs():
    # Integer importances make vote ties common; tenths make float sums
    # depend on summation order ((0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1).
    for seed in range(60):
        g, edges = random_lp_graph(seed)
        importance = tenths(seed) if seed % 2 else node_importance
        assert_matches_reference(edges, importance, seed, (1, 2, 100)[seed % 3],
                                 nodes=g.ids)


def test_label_propagation_sums_votes_in_neighbour_order():
    # x hears 0.1, 0.2 and 0.3 from the a-b-c-h group and 2 * 0.3 from d.
    # In neighbour order (0.1 + 0.2) + 0.3 = 0.6000000000000001 beats 0.6,
    # so x joins the group; summed the other way round the two would tie.
    edges = {("a", "h"): 1, ("b", "h"): 1, ("c", "h"): 1, ("a", "x"): 1,
             ("b", "x"): 1, ("c", "x"): 1, ("d", "x"): 2, ("d", "g"): 1}
    importance = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.3, "g": 5.0, "h": 5.0,
                  "x": 0.0}
    g = InteractionGraph.from_weighted_edges((s, d, w, 0) for (s, d), w in edges.items())
    for seed in range(5):
        assignment = label_propagation(g, by_node(g, importance), seed=seed)
        assert [c.members for c in assignment.communities] == [
            ("a", "b", "c", "h", "x"), ("d", "g")]
        assert_matches_reference(edges, importance, seed, 100)


@pytest.mark.parametrize("size", range(20, 41, 5))
def test_label_propagation_matches_reference_on_cliques(size):
    # Every node of a clique neighbours every other, so each wavefront
    # holds a single node and the schedule is the plain sequential visit.
    rng = random.Random(size)
    members = [f"k{i:02d}" for i in range(size)]
    edges = {(s, d): rng.randint(1, 3) for s in members for d in members if s != d}
    for seed in range(3):
        assert_matches_reference(edges, tenths(seed), seed, 100)
        assert_matches_reference(edges, node_importance, seed, 100)


def test_label_propagation_matches_reference_on_star_with_cross_edges():
    # One hub in every leaf's row and a sprinkle of leaf-leaf edges: deep
    # wavefronts next to a hub that waits for most of the graph.
    rng = random.Random(300)
    leaves = [f"leaf{i:03d}" for i in range(300)]
    edges = {(leaf, "hub"): rng.randint(1, 3) for leaf in leaves}
    for _ in range(400):
        s, d = rng.sample(leaves, 2)
        edges[(s, d)] = edges.get((s, d), 0) + 1
    for seed in range(3):
        assert_matches_reference(edges, tenths(seed), seed, 100)
        assert_matches_reference(edges, node_importance, seed, 100)


def test_label_propagation_matches_reference_with_zero_importance():
    # Every vote is 0.0, so every label a node sees ties.
    for seed in range(20):
        g, edges = random_lp_graph(seed)
        assert_matches_reference(edges, dict.fromkeys(g.ids, 0.0), seed, 100,
                                 nodes=g.ids)


def test_label_propagation_matches_reference_with_isolated_nodes():
    edges = {("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 1, ("d", "e"): 1}
    nodes = ["a", "b", "c", "d", "e", "iso1", "iso2", "iso3"]
    for seed in range(5):
        assert_matches_reference(edges, node_importance, seed, 100, nodes=nodes)
    assert_matches_reference({}, node_importance, 0, 100, nodes=["iso1", "iso2"])


def test_label_propagation_matches_reference_after_one_round():
    for seed in range(20):
        g, edges = random_lp_graph(seed + 100)
        assert_matches_reference(edges, tenths(seed), seed, 1, nodes=g.ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
           st.just(n),
           st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda e: e[0] != e[1]),
                           st.integers(1, 3), max_size=3 * n),
           st.lists(st.sampled_from((0.0, 0.1, 0.2, 0.3)), min_size=n, max_size=n))),
       st.integers(min_value=0, max_value=1_000), st.sampled_from((1, 2, 100)))
def test_label_propagation_matches_reference_property(graph, seed, max_rounds):
    n, pairs, values = graph
    nodes = [f"v{i:02d}" for i in range(n)]
    edges = {(nodes[s], nodes[d]): w for (s, d), w in pairs.items()}
    assert_matches_reference(edges, dict(zip(nodes, values)), seed, max_rounds,
                             nodes=nodes)
