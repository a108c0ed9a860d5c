"""Tests for repro.net.graph."""

import pytest

from repro.net import Graph


def build_triangle() -> Graph:
    g = Graph()
    g.add_vertices(3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 2, 5.0)
    return g


class TestConstruction:
    def test_add_vertices(self):
        g = Graph()
        ids = g.add_vertices(4)
        assert ids == [0, 1, 2, 3]
        assert g.num_vertices == 4

    def test_add_vertex_incremental(self):
        g = Graph()
        assert g.add_vertex() == 0
        assert g.add_vertex() == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_vertices(-1)

    def test_edge_symmetry(self):
        g = build_triangle()
        assert g.edge_weight(0, 1) == g.edge_weight(1, 0) == 1.0

    def test_edge_overwrite_keeps_count(self):
        g = build_triangle()
        g.add_edge(0, 1, 9.0)
        assert g.num_edges == 3
        assert g.edge_weight(0, 1) == 9.0

    def test_self_loop_rejected(self):
        g = Graph()
        g.add_vertices(1)
        with pytest.raises(ValueError):
            g.add_edge(0, 0, 1.0)

    def test_non_positive_weight_rejected(self):
        g = Graph()
        g.add_vertices(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -2.0)

    def test_out_of_range_vertex(self):
        g = Graph()
        g.add_vertices(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5, 1.0)
        with pytest.raises(IndexError):
            g.degree(9)


class TestQueries:
    def test_neighbors_sorted(self):
        g = Graph()
        g.add_vertices(4)
        g.add_edge(0, 3, 1.0)
        g.add_edge(0, 1, 2.0)
        assert list(g.neighbors(0)) == [(1, 2.0), (3, 1.0)]

    def test_edges_iterates_once(self):
        g = build_triangle()
        edges = sorted(g.edges())
        assert edges == [(0, 1, 1.0), (0, 2, 5.0), (1, 2, 2.0)]

    def test_degree(self):
        g = build_triangle()
        assert g.degree(0) == 2

    def test_total_weight(self):
        assert build_triangle().total_weight() == 8.0

    def test_has_edge(self):
        g = build_triangle()
        assert g.has_edge(0, 1)
        g2 = Graph()
        g2.add_vertices(2)
        assert not g2.has_edge(0, 1)


class TestConnectivity:
    def test_empty_connected(self):
        assert Graph().is_connected()

    def test_single_vertex_connected(self):
        g = Graph()
        g.add_vertex()
        assert g.is_connected()

    def test_disconnected(self):
        g = Graph()
        g.add_vertices(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        assert not g.is_connected()

    def test_connected(self):
        assert build_triangle().is_connected()


class TestFreeze:
    def test_freeze_forbids_mutation(self):
        g = build_triangle()
        g.freeze()
        with pytest.raises(RuntimeError):
            g.add_vertex()
        with pytest.raises(RuntimeError):
            g.add_edge(0, 1, 1.0)

    def test_freeze_idempotent(self):
        g = build_triangle()
        g.freeze()
        g.freeze()
        assert g.frozen

    def test_csr_requires_freeze(self):
        g = build_triangle()
        with pytest.raises(RuntimeError):
            g.csr()

    def test_csr_matches_adjacency(self):
        g = build_triangle()
        g.freeze()
        indptr, indices, weights = g.csr()
        assert indptr[-1] == 2 * g.num_edges  # each edge stored twice
        # Row 0 = neighbours of vertex 0.
        row0 = list(zip(indices[indptr[0]:indptr[1]], weights[indptr[0]:indptr[1]]))
        assert row0 == [(1, 1.0), (2, 5.0)]

    def test_neighbors_identical_after_freeze(self):
        g = build_triangle()
        before = list(g.neighbors(1))
        g.freeze()
        assert list(g.neighbors(1)) == before

    def test_queries_read_the_csr_once_the_dicts_are_released(self):
        """``freeze`` drops the construction dict-of-dicts (2 KiB per
        router for ever); every query answers from the CSR rows alone."""
        g = Graph()
        g.add_vertices(6)
        for u, v, w in [(4, 1, 2.5), (0, 3, 1.0), (3, 1, 0.5), (0, 1, 4.0)]:
            g.add_edge(u, v, w)
        before = {
            "edges": sorted(g.edges()),
            "degrees": [g.degree(u) for u in range(6)],
            "has": [[g.has_edge(u, v) for v in range(6)] for u in range(6)],
            "total": g.total_weight(),
        }
        assert not g.is_connected()  # vertices 2 and 5 are isolated
        g.freeze()
        assert g._adj == []
        assert (g.num_vertices, g.num_edges) == (6, 4)
        # ascending (u, v), not insertion order
        assert list(g.edges()) == before["edges"]
        assert [g.degree(u) for u in range(6)] == before["degrees"]
        assert [[g.has_edge(u, v) for v in range(6)] for u in range(6)] == before["has"]
        assert g.total_weight() == before["total"]
        assert g.edge_weight(1, 4) == g.edge_weight(4, 1) == 2.5
        assert not g.is_connected()
        with pytest.raises(KeyError):
            g.edge_weight(0, 2)
        with pytest.raises(IndexError):
            g.has_edge(0, 6)
        with pytest.raises(IndexError):
            list(g.neighbors(6))

    def test_frozen_connectivity(self):
        g = build_triangle()
        g.freeze()
        assert g.is_connected()
