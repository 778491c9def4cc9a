
import gc
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens import artifacts, graph
from echolens.graph import (InteractionGraph, build_interaction_graph, read_edge_csv,
                            write_edge_csv, write_node_list)

from _oracles import (edge_table, graphs_equal, reference_degree_stats,
                      reference_weighted_in_degrees)
from conftest import make_tweet, traced_peak


def interaction_fixture():
    """B retweets A twice, C replies to A once; D is an isolated author."""
    originals = [make_tweet("a1", author_id="A", text="original")]
    tweets = originals + [
        make_tweet("b1", author_id="B", retweet_of="a1"),
        make_tweet("b2", author_id="B", retweet_of="a1"),
        make_tweet("c1", author_id="C", reply_to="a1"),
        make_tweet("d1", author_id="D"),
    ]
    index = {t.tweet_id: t.author_id for t in tweets}
    return tweets, index


class TestBuildGraph:
    def test_single_retweet_edge(self):
        tweets = [make_tweet("a1", author_id="A"),
                  make_tweet("b1", author_id="B", retweet_of="a1")]
        g, stats = build_interaction_graph(tweets, {t.tweet_id: t.author_id for t in tweets})
        assert edge_table(g) == {("B", "A"): (1, 0)}
        assert stats == {"resolved_retweets": 1, "resolved_replies": 0,
                         "unresolved_targets": 0, "self_interactions": 0}

    def test_no_interactions_isolated_nodes(self):
        tweets = [make_tweet(f"t{i}", author_id=f"u{i}") for i in range(5)]
        g, _ = build_interaction_graph(tweets, {t.tweet_id: t.author_id for t in tweets})
        assert len(g) == 5
        assert g.num_edges() == 0

    def test_hand_constructed_fixture(self):
        tweets, index = interaction_fixture()
        g, stats = build_interaction_graph(tweets, index)
        assert edge_table(g) == {("B", "A"): (2, 0), ("C", "A"): (0, 1)}
        assert g.num_edges() == 2
        assert g.ids == ("A", "B", "C", "D")
        assert stats["resolved_retweets"] == 2 and stats["resolved_replies"] == 1

    def test_self_interaction_dropped_and_counted(self):
        tweets = [make_tweet("a1", author_id="A"),
                  make_tweet("a2", author_id="A", retweet_of="a1")]
        g, stats = build_interaction_graph(tweets, {t.tweet_id: t.author_id for t in tweets})
        assert g.num_edges() == 0
        assert stats["self_interactions"] == 1

    def test_unresolvable_target_counted_not_fatal(self):
        tweets = [make_tweet("b1", author_id="B", retweet_of="ghost")]
        g, stats = build_interaction_graph(tweets, {"b1": "B"})
        assert g.num_edges() == 0
        assert stats["unresolved_targets"] == 1

    def test_total_weight_equals_resolvable_interactions(self):
        tweets, index = interaction_fixture()
        g, stats = build_interaction_graph(tweets, index)
        assert g.total_weight() == stats["resolved_retweets"] + stats["resolved_replies"]

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rng):
        tweets, index = interaction_fixture()
        shuffled = list(tweets)
        rng.shuffle(shuffled)
        g1, _ = build_interaction_graph(tweets, index)
        g2, _ = build_interaction_graph(shuffled, index)
        assert graphs_equal(g1, g2)


def out_weights(g):
    """Weighted out-degree per node, in id order."""
    return np.bincount(g.sources(), weights=g.weights(), minlength=len(g)).astype(np.int64)


class TestDegreeStats:
    # Weighted degrees are node-indexed arrays, aligned with g.ids.
    def test_single_edge(self):
        g = InteractionGraph.from_weighted_edges([("B", "A", 2, 0)])
        assert g.ids == ("A", "B")
        assert g.in_weights().tolist() == [2, 0]
        assert out_weights(g).tolist() == [0, 2]

    def test_empty_graph_all_zero(self):
        g = InteractionGraph()
        for weights in (g.in_weights(), out_weights(g)):
            assert weights.dtype == np.int64 and weights.size == 0

    def test_fixture_weighted_in(self):
        tweets, index = interaction_fixture()
        g, _ = build_interaction_graph(tweets, index)
        assert g.in_weights().tolist() == [3, 0, 0, 0]

    def test_weighted_degree_sums_balance(self):
        tweets, index = interaction_fixture()
        g, _ = build_interaction_graph(tweets, index)
        total = g.total_weight()
        assert g.in_weights().sum() == total
        assert out_weights(g).sum() == total

    def test_weighted_in_degrees_by_kind(self):
        tweets, index = interaction_fixture()
        g, _ = build_interaction_graph(tweets, index)
        assert g.in_weights("retweet").tolist() == [2, 0, 0, 0]
        assert g.in_weights("reply").tolist() == [1, 0, 0, 0]


def test_edge_csv_round_trip(tmp_path):
    tweets, index = interaction_fixture()
    g, _ = build_interaction_graph(tweets, index)
    write_edge_csv(g, tmp_path / "edges.csv")
    write_node_list(g, tmp_path / "nodes.txt")
    back = read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")
    assert graphs_equal(back, g)


def test_csv_module_path_leaves_no_unclosed_file(tmp_path):
    # A quoted id sends its slice through the quote-parity split. It once
    # sent the rows through the csv module, over a text wrapper of the file;
    # left unclosed, the wrapper's finalizer failed on the closed file: a
    # ResourceWarning, raised as an error and then ignored.
    g = InteractionGraph.from_weighted_edges([("a,b", "c", 1, 0), ("c", "a,b", 2, 1)])
    write_edge_csv(g, tmp_path / "edges.csv")
    write_node_list(g, tmp_path / "nodes.txt")
    assert (tmp_path / "edges.csv").read_text().startswith('src,dst,weight,retweets,replies\n"')
    ignored, hook = [], sys.unraisablehook
    sys.unraisablehook = ignored.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert graphs_equal(read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt"), g)
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [repr(u.exc_value) for u in ignored] == []


# Ids a line reader would strip or split and a CSV reader must unquote:
# surrounding spaces, separators, quotes, line feeds and carriage returns.
awkward_ids = st.text(alphabet=st.sampled_from(list("ab ,\"\n\r\t'")),
                      min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(awkward_ids, min_size=1, max_size=8, unique=True), st.data())
def test_edge_and_node_files_round_trip_awkward_ids(tmp_path_factory, ids, data):
    # Written as plain lines and read back stripped and split on line
    # breaks, 'a ', ' d' and 'e\nf' (5 nodes) came back as 7.
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                      st.integers(0, 3), st.integers(0, 3))
    rows = [r for r in data.draw(st.lists(pairs, max_size=10)) if r[0] != r[1]]
    g = InteractionGraph.from_weighted_edges(rows, nodes=ids)
    tmp = tmp_path_factory.mktemp("awkward")
    write_edge_csv(g, tmp / "edges.csv")
    write_node_list(g, tmp / "nodes.txt")
    assert graphs_equal(read_edge_csv(tmp / "edges.csv", tmp / "nodes.txt"), g)


def test_plain_node_list_is_one_id_per_line(tmp_path):
    g = InteractionGraph.from_weighted_edges([("b", "a", 1, 0)], nodes=["c"])
    write_node_list(g, tmp_path / "nodes.txt")
    assert (tmp_path / "nodes.txt").read_bytes() == b"a\nb\nc\n"


def test_arrays_read_only_after_every_builder(tmp_path):
    # Every kernel shares these arrays, so no caller may write into them.
    tweets, index = interaction_fixture()
    built, _ = build_interaction_graph(tweets, index)
    write_edge_csv(built, tmp_path / "edges.csv")
    write_node_list(built, tmp_path / "nodes.txt")
    graphs = [InteractionGraph(),
              InteractionGraph.from_weighted_edges([("B", "A", 2, 0)], nodes=["C"]),
              built,
              read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")]
    for g in graphs:
        for name in ("indptr", "indices", "retweets", "replies"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[...] = 0


@pytest.mark.parametrize("builder", ["constructor", "from_weighted_edges", "read_edge_csv"])
def test_negative_count_rejected_by_every_builder(builder, tmp_path):
    # Unchecked, a->b (-1), b->c (1), c->a (1) gave every node PageRank 1/3,
    # reported as converged. build_interaction_graph counts interactions, so
    # its counts cannot go negative.
    rows = [("b", "c", 1, 0), ("a", "b", -1, 0), ("c", "a", 1, 0)]
    if builder == "constructor":
        ids = ("a", "b", "c")
        src, dst, retweets, replies = zip(*rows)
        build = lambda: InteractionGraph(ids, np.array([ids.index(s) for s in src]),
                                         np.array([ids.index(d) for d in dst]),
                                         np.array(retweets), np.array(replies))
    elif builder == "from_weighted_edges":
        build = lambda: InteractionGraph.from_weighted_edges(rows)
    else:
        # A hand-edited edge file: the weight column still reads 1.
        (tmp_path / "edges.csv").write_text(
            "src,dst,weight,retweets,replies\n"
            + "".join(f"{s},{d},1,{rt},{rp}\n" for s, d, rt, rp in rows))
        (tmp_path / "nodes.txt").write_text("a\nb\nc\n")
        build = lambda: read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")
    with pytest.raises(ValueError, match=r"negative interaction count on \(a, b\): "
                                         r"retweets=-1, replies=0$"):
        build()


@pytest.mark.parametrize("builder,bad,message", [
    ("from_weighted_edges", 1.5, r"retweets=1\.5"),
    ("from_weighted_edges", "2", r"retweets='2'"),
    ("from_weighted_edges", True, r"retweets=True"),
    ("from_weighted_edges", np.float64(2.0), r"retweets=np\.float64\(2\.0\)"),
    ("read_edge_csv", "1.5", r"'1\.5'"),
    ("read_edge_csv", "", r"''"),
    ("read_edge_csv", "99999999999999999999", r"'99999999999999999999'"),
])
def test_non_integer_count_rejected_by_every_builder(builder, bad, message, tmp_path):
    # Unchecked, a retweet count of 1.5 built a count of 1, "2" one of 2, and
    # the edge file's reader named no line.
    rows = [("b", "c", 1, 0), ("a", "b", bad, 0), ("c", "a", 1, 0)]
    if builder == "from_weighted_edges":
        build = lambda: InteractionGraph.from_weighted_edges(rows)
        want = rf"^interaction count is not an int on \(a, b\): {message}, replies=0$"
    else:
        (tmp_path / "edges.csv").write_text(
            "src,dst,weight,retweets,replies\n"
            + "".join(f"{s},{d},1,{rt},{rp}\n" for s, d, rt, rp in rows))
        (tmp_path / "nodes.txt").write_text("a\nb\nc\n")
        build = lambda: read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")
        want = rf"edges\.csv line 3: retweets {message} is not an integer$"
    with pytest.raises(ValueError, match=want):
        build()


def test_bad_count_cell_named_by_the_line_its_row_starts_on(tmp_path):
    # A quoted id spanning two lines sends its slice through the quote-parity split.
    (tmp_path / "edges.csv").write_text(
        'src,dst,weight,retweets,replies\n"b\nc",a,1,1,0\na,b,1,1,x\n')
    (tmp_path / "nodes.txt").write_text("a\nb\n")
    with pytest.raises(ValueError, match=r"edges\.csv line 4: replies 'x' is not an integer$"):
        read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")


def test_rows_that_balance_only_as_a_slice_are_refused(tmp_path):
    # A short row then a long one hold five fields each on average: read as
    # one slice, they came back as a graph with a node "1" and a replies
    # count of 12, with no error.
    (tmp_path / "graph_edges.csv").write_text(
        "src,dst,weight,retweets,replies\n11,12,1,1\n12,13,1,1,0,0\n")
    (tmp_path / "graph_nodes.txt").write_text("11\n12\n13\n")
    with pytest.raises(ValueError, match=r"graph_edges\.csv line 2: 4 fields, the header "
                                         r"has 5$"):
        read_edge_csv(tmp_path / "graph_edges.csv", tmp_path / "graph_nodes.txt")


def test_bad_count_in_a_later_chunk_is_refused(monkeypatch):
    # The two count columns are type-checked separately, so a bool that only
    # the replies column of the third chunk holds must still be found.
    monkeypatch.setattr(graph, "_CHUNK_EDGES", 4)
    rows = [(f"s{i}", f"d{i}", 1, 0) for i in range(10)]
    rows[9] = ("s9", "d9", 1, True)
    with pytest.raises(ValueError, match=r"^interaction count is not an int on \(s9, d9\): "
                                         r"retweets=1, replies=True$"):
        InteractionGraph.from_weighted_edges(iter(rows))


def test_build_from_held_tuples_allocates_no_object_per_edge():
    """The caller's tuples already exist, as the graph job's do. Taking each
    chunk apart one column at a time makes one list per column, where
    transposing it with zip(*chunk) made a tuple iterator per edge: 264
    generation-0 collections over 200k tuples, each full one walking them."""
    n, m = 20_000, 200_000
    rng = np.random.default_rng(5)
    src = rng.integers(0, n, m)
    dst = ((src + rng.integers(1, n, m)) % n).tolist()
    names = [f"u{i:06d}" for i in range(n)]
    rows = [(names[s], names[d], 1, 0) for s, d in zip(src.tolist(), dst)]
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        g = InteractionGraph.from_weighted_edges((row for row in rows), nodes=names)
    finally:
        gc.callbacks.remove(count)
    assert g.num_edges() > 0.99 * m
    assert collections[0] <= 10, collections


# Bounds of the key ranges that need one, one, two, three and four 16-bit
# passes.
ORDER_TOPS = [1, 1 << 16, (1 << 16) + 1, (1 << 32) + 1, (1 << 48) + 1]


@pytest.mark.parametrize("top", ORDER_TOPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_order_is_the_stable_argsort(top, data):
    # Keys drawn from a few values share digits, so ties are broken by the
    # passes over the lower digits.
    pool = data.draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=6))
    key = np.array(data.draw(st.lists(st.integers(0, top - 1) | st.sampled_from(pool),
                                      max_size=60)), dtype=np.int64)
    for case in (key, np.sort(key), np.sort(key)[::-1].copy()):
        assert np.array_equal(graph._key_order(case, top), np.argsort(case, kind="stable"))


@pytest.mark.parametrize("top", ORDER_TOPS)
def test_key_order_on_degenerate_keys(top):
    for key in ([], [top - 1], [top - 1] * 7, [top // 2] * 3 + [0]):
        key = np.array(key, dtype=np.int64)
        assert np.array_equal(graph._key_order(key, top), np.argsort(key, kind="stable"))


def test_chunked_read_and_build_cross_chunk_boundaries(tmp_path, monkeypatch):
    # Slices of 64 bytes, csv chunks of 3 rows and edge chunks of 5 tuples.
    # The plain ids sort first, so their rows fill several plain slices; the
    # long quoted id spans a slice boundary, so the reader must restart that
    # slice on the csv path.
    monkeypatch.setattr(artifacts, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(artifacts, "_CHUNK_ROWS", 3)
    monkeypatch.setattr(graph, "_CHUNK_EDGES", 5)
    ids = [f"a{i:02d}" for i in range(12)] + ['z"q', "z,c", "z\nl", "z\rr",
                                               "z" + "long\n" * 20 + "id"]
    rows = [(src, ids[(k + j) % len(ids)], k % 3, j % 2)
            for k, src in enumerate(ids) for j in (1, 2, 5)]
    g = InteractionGraph.from_weighted_edges(iter(rows), nodes=ids)
    assert list(g.ids) == sorted(ids) and edge_table(g) == summed(rows)

    write_edge_csv(g, tmp_path / "edges.csv")
    write_node_list(g, tmp_path / "nodes.txt")
    text = (tmp_path / "edges.csv").read_bytes()
    start = text.index(b'"zlong')
    end = text.index(b'id"', start)
    assert start // 64 < end // 64
    plain = [isinstance(lines, range)
             for lines, _ in artifacts.read_csv_chunks(tmp_path / "edges.csv")]
    assert plain[:3] == [True] * 3 and plain[-3:] == [False] * 3
    assert graphs_equal(read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt"), g)


def test_graph_paths_hold_only_integer_arrays(tmp_path):
    """At 20k nodes and 200k edges, building from a generator, reading the
    edge files back and symmetrising each peak at <= 128 traced bytes per
    edge (83, 88 and 76 as measured, the radix passes of the key sort
    included). Holding every tuple, every field string or every doubled
    array at once instead peaks at 168, 260 and 178 bytes. Writing the edge
    file peaks at <= 40 (31 as measured): formatting every field of every
    row as a string, a chunk of rows at a time, peaked at 56."""
    n, m = 20_000, 200_000
    rng = np.random.default_rng(5)
    src = rng.integers(0, n, m)
    dst = ((src + rng.integers(1, n, m)) % n).tolist()
    src = src.tolist()
    names = [f"u{i:06d}" for i in range(n)]
    def traced(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return traced_peak(fn, *args, **kwargs)
        finally:
            tracemalloc.stop()

    g, build = traced(InteractionGraph.from_weighted_edges,
                      ((names[s], names[d], 1, 0) for s, d in zip(src, dst)), nodes=names)
    _, write = traced(write_edge_csv, g, tmp_path / "edges.csv")
    write_node_list(g, tmp_path / "nodes.txt")
    back, read = traced(read_edge_csv, tmp_path / "edges.csv", tmp_path / "nodes.txt")
    _, undirected = traced(g.undirected)
    assert graphs_equal(back, g)
    per_edge = {"build": build / m, "read": read / m, "undirected": undirected / m,
                "write": write / m}
    assert max(per_edge.values()) <= 128 and per_edge["write"] <= 40, per_edge


# Ids the edge writer must format as the row writer does and the reader must
# find by their bytes: empty, NUL, separators, quotes, carriage returns and
# line feeds, spaces at either end, non-ASCII text, ids longer than 8 bytes
# and 19-digit numbers.
edge_file_ids = st.one_of(
    st.text(alphabet=st.sampled_from(list('\x00,"\r\n a1é語')), max_size=10),
    st.integers(10 ** 18, 10 ** 19 - 1).map(str))
# Small counts are formatted from a table of every count up to the largest;
# large ones from the distinct counts.
edge_counts = st.one_of(st.integers(0, 3), st.integers(0, 10 ** 15))


@settings(max_examples=100, deadline=None)
@given(st.lists(edge_file_ids, min_size=1, max_size=10, unique=True), st.data())
def test_edge_file_bytes_match_the_row_writer_and_read_back(tmp_path_factory, ids, data):
    # Slices of 16 bytes, csv chunks of 2 rows, gathers of 3 rows and edge
    # chunks of 3 tuples.
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids), edge_counts, edge_counts)
    rows = [r for r in data.draw(st.lists(pairs, max_size=30)) if r[0] != r[1]]
    tmp = tmp_path_factory.mktemp("edges")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "_CHUNK_BYTES", 16)
        patch.setattr(artifacts, "_CHUNK_ROWS", 2)
        patch.setattr(artifacts, "_GATHER_ROWS", 3)
        patch.setattr(graph, "_CHUNK_EDGES", 3)
        g = InteractionGraph.from_weighted_edges(rows, nodes=ids)
        write_edge_csv(g, tmp / "edges.csv")
        artifacts.write_csv(tmp / "rows.csv", ["src", "dst", "weight", "retweets", "replies"], zip(
            [g.ids[i] for i in g.sources().tolist()], [g.ids[i] for i in g.indices.tolist()],
            g.weights().tolist(), g.retweets.tolist(), g.replies.tolist()))
        assert (tmp / "edges.csv").read_bytes() == (tmp / "rows.csv").read_bytes()
        write_node_list(g, tmp / "nodes.txt")
        assert graphs_equal(read_edge_csv(tmp / "edges.csv", tmp / "nodes.txt"), g)
        # Without the node file every id is decoded from its cell, and the
        # isolated nodes are gone.
        artifacts.write_column(tmp / "none.txt", [])
        assert graphs_equal(read_edge_csv(tmp / "edges.csv", tmp / "none.txt"),
                            InteractionGraph.from_weighted_edges(rows))


@st.composite
def raw_edge_lists(draw):
    """Node list plus (src, dst, retweets, replies) rows, repeats allowed."""
    n = draw(st.integers(min_value=0, max_value=12))
    nodes = [f"v{i}" for i in range(n)]
    if n < 2:
        return nodes, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    rows = draw(st.lists(st.tuples(pair, st.integers(0, 3), st.integers(0, 3)),
                         max_size=40))
    return nodes, [(nodes[s], nodes[d], rt, rp) for (s, d), rt, rp in rows]


def summed(rows):
    kind_edges = {}
    for s, d, rt, rp in rows:
        old = kind_edges.get((s, d), (0, 0))
        kind_edges[(s, d)] = (old[0] + rt, old[1] + rp)
    return kind_edges


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(raw_edge_lists())
    def test_degree_stats(self, graph):
        nodes, rows = graph
        g = InteractionGraph.from_weighted_edges(rows, nodes=nodes)
        want = reference_degree_stats(nodes, summed(rows))
        columns = (np.bincount(g.indices, minlength=len(g)), np.diff(g.indptr),
                   g.in_weights(), out_weights(g))
        got = dict(zip(g.ids, zip(*(c.tolist() for c in columns))))
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(raw_edge_lists(), st.sampled_from([None, "retweet", "reply"]))
    def test_weighted_in_degrees(self, graph, kind):
        nodes, rows = graph
        g = InteractionGraph.from_weighted_edges(rows, nodes=nodes)
        assert dict(zip(g.ids, g.in_weights(kind).tolist())) == reference_weighted_in_degrees(
            nodes, summed(rows), kind)

    @settings(max_examples=60, deadline=None)
    @given(raw_edge_lists())
    def test_edges_sorted_and_summed(self, graph):
        nodes, rows = graph
        g = InteractionGraph.from_weighted_edges(rows, nodes=nodes)
        edges = edge_table(g)
        assert list(edges) == sorted(summed(rows))
        assert edges == summed(rows)
        assert np.array_equal(g.weights(), g.retweets + g.replies)
