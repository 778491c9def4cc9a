"""Degenerate-input contracts of the graph kernels (a graph with nodes but no
edges, and the empty graph), of the graph builders (no tuples, a one-pass
generator, a header-only edge file, an edge id the node file lacks) and of
k-means (k above the number of distinct points, non-finite vectors). One test
per contract."""

import numpy as np
import pytest

from echolens import graph
from echolens.community import label_propagation, node_importance
from echolens.graph import InteractionGraph, read_edge_csv, write_edge_csv, write_node_list
from echolens.influence import pagerank
from echolens.topics import cluster

from _oracles import edge_table, graphs_equal

NODES = [f"n{i}" for i in range(7)]


def edgeless():
    return InteractionGraph.from_weighted_edges([], nodes=NODES)


class TestEdgelessGraph:
    def test_pagerank_exactly_uniform(self):
        result = pagerank(edgeless())
        assert result.scores == dict.fromkeys(NODES, 1.0 / len(NODES))
        assert result.converged

    def test_label_propagation_singletons_in_round_one(self):
        g = edgeless()
        assignment = label_propagation(g, node_importance(g), seed=0)
        assert [c.members for c in assignment.communities] == [(n,) for n in NODES]
        assert assignment.converged and assignment.iterations_run == 1

    def test_node_importance_is_zero(self):
        imp = node_importance(edgeless())
        assert imp.dtype == np.float64 and imp.tolist() == [0.0] * len(NODES)

    def test_degree_stats_all_zero(self):
        g = edgeless()
        assert list(g.ids) == NODES
        for degrees in (np.bincount(g.indices, minlength=len(g)), np.diff(g.indptr),
                        g.in_weights(),
                        np.bincount(g.sources(), weights=g.weights(), minlength=len(g))):
            assert degrees.tolist() == [0] * len(NODES)

    def test_edge_file_round_trip_keeps_isolated_nodes(self, tmp_path):
        g = edgeless()
        write_edge_csv(g, tmp_path / "edges.csv")
        write_node_list(g, tmp_path / "nodes.txt")
        assert (tmp_path / "edges.csv").read_text() == "src,dst,weight,retweets,replies\n"
        back = read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")
        assert graphs_equal(back, g) and list(back.ids) == NODES

    def test_undirected_is_empty(self):
        indptr, cols, weights = edgeless().undirected()
        assert indptr.tolist() == [0] * (len(NODES) + 1)
        assert cols.dtype == weights.dtype == np.int64
        assert cols.size == weights.size == 0


class TestGraphBuildersDegenerate:
    def test_empty_iterable_gives_the_empty_graph(self):
        for edges in ([], iter(()), (e for e in ())):
            assert graphs_equal(InteractionGraph.from_weighted_edges(edges),
                                InteractionGraph())

    def test_single_pass_generator_is_read_once(self, monkeypatch):
        # A generator has no len(), and a second pass over it is empty.
        monkeypatch.setattr(graph, "_CHUNK_EDGES", 2)
        rows = [("b", "a", 1, 0), ("c", "a", 0, 1), ("b", "a", 2, 0),
                ("a", "c", 1, 1), ("c", "b", 1, 0)]
        g = InteractionGraph.from_weighted_edges((row for row in rows), nodes=["d"])
        assert g.ids == ("a", "b", "c", "d")
        assert edge_table(g) == {("a", "c"): (1, 1), ("b", "a"): (3, 0),
                                 ("c", "a"): (0, 1), ("c", "b"): (1, 0)}

    def test_nodes_only(self):
        g = InteractionGraph.from_weighted_edges([], nodes=["b", "a", "b"])
        assert g.ids == ("a", "b") and g.indptr.tolist() == [0, 0, 0]
        assert all(getattr(g, name).dtype == np.int64 and getattr(g, name).size == 0
                   for name in ("indices", "retweets", "replies"))

    @pytest.mark.parametrize("header", ["src,dst,weight,retweets,replies\n",
                                        "src,dst,weight,retweets,replies", ""])
    def test_header_only_edge_file_gives_the_nodes(self, tmp_path, header):
        (tmp_path / "edges.csv").write_text(header)
        (tmp_path / "nodes.txt").write_text("b\na\n")
        g = read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")
        assert graphs_equal(g, InteractionGraph.from_weighted_edges([], nodes="ab"))

    def test_edge_id_missing_from_node_file_becomes_a_node(self, tmp_path):
        (tmp_path / "edges.csv").write_text("src,dst,weight,retweets,replies\n"
                                            "x,a,2,2,0\n")
        (tmp_path / "nodes.txt").write_text("a\nb\n")
        g = read_edge_csv(tmp_path / "edges.csv", tmp_path / "nodes.txt")
        assert g.ids == ("a", "b", "x") and edge_table(g) == {("x", "a"): (2, 0)}


class TestEmptyGraph:
    def test_pagerank_rejected(self):
        with pytest.raises(ValueError):
            pagerank(InteractionGraph())

    def test_label_propagation_empty_converged(self):
        assignment = label_propagation(InteractionGraph(), np.zeros(0), seed=0)
        assert assignment.labels == {} and assignment.communities == []
        assert assignment.converged

    def test_node_importance_empty(self):
        for mode in ("weighted_in_degree", "pagerank"):
            imp = node_importance(InteractionGraph(), mode=mode)
            assert imp.dtype == np.float64 and imp.shape == (0,)


class TestKMeansFewDistinctPoints:
    """60 rows that are copies of 3 distinct points."""

    POINTS = np.repeat(np.eye(3), 20, axis=0)[np.random.default_rng(0).permutation(60)]

    def test_k_above_distinct_rejected(self):
        with pytest.raises(ValueError, match=r"^k=50 exceeds number of distinct vectors \(3\)$"):
            cluster(self.POINTS, k=50, seed=0)

    def test_k_equal_to_distinct_runs(self):
        result = cluster(self.POINTS, k=3, seed=0)
        assert result.converged
        assert np.bincount(result.assignments, minlength=3).tolist() == [20, 20, 20]
        assert np.array_equal(result.centroids[result.assignments], self.POINTS)


class TestKMeansNonFinite:
    """The seeding's screening bound and Lloyd's expanded distances assume
    finite squared norms, so cluster refuses other input before seeding."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_rejected_naming_rows(self, bad):
        points = np.eye(4)[[0, 1, 2, 3, 0, 1]]
        points[4, 2] = bad
        with pytest.raises(ValueError, match=r"^non-finite vectors: 1 row\(s\), first at row 4, "):
            cluster(points, k=2, seed=0)
