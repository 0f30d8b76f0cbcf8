"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph, from_adjacency, from_edges


class TestConstruction:
    def test_from_edges_basic(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert g.n_vertices == 3
        assert g.n_edges == 3
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(2)) == [0]

    def test_from_edges_sorts_neighbors(self):
        g = from_edges(4, [(0, 3), (0, 1), (0, 2)], directed=True)
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_from_edges_unsorted_preserves_order(self):
        g = from_edges(4, [(0, 3), (0, 1), (0, 2)], directed=True,
                       sort_neighbors=False)
        assert list(g.neighbors(0)) == [3, 1, 2]

    def test_from_edges_dedupe(self):
        g = from_edges(3, [(0, 1), (0, 1), (1, 2)], directed=True, dedupe=True)
        assert g.n_edges == 2

    def test_from_edges_drop_self_loops(self):
        g = from_edges(3, [(0, 0), (0, 1)], directed=True, drop_self_loops=True)
        assert g.n_edges == 1
        assert not g.has_self_loops()

    def test_from_edges_keeps_self_loops_by_default(self):
        g = from_edges(3, [(0, 0), (0, 1)], directed=True)
        assert g.has_self_loops()

    def test_empty_graph(self):
        g = from_edges(0, [])
        assert g.n_vertices == 0
        assert g.n_edges == 0

    def test_vertices_without_edges(self):
        g = from_edges(5, [(0, 1)], directed=True)
        assert g.degree(3) == 0
        assert list(g.neighbors(3)) == []

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(2, [(0, 5)])

    def test_negative_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(2, [(-1, 0)])

    def test_negative_n_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(-1, [])

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(3, np.array([[0, 1, 2]]))

    def test_from_adjacency(self):
        g = from_adjacency([[1, 2], [0], [0]])
        assert g.n_edges == 4
        assert list(g.neighbors(0)) == [1, 2]

    def test_direct_constructor_validation(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))  # row_ptr[0] != 0
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([0, 0]))  # length mismatch
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([0]))  # decreasing

    def test_arrays_read_only(self):
        g = from_edges(2, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            g.row_ptr[0] = 5
        with pytest.raises(ValueError):
            g.column_idx[0] = 0


class TestAccessors:
    def test_degree_array(self):
        g = from_edges(3, [(0, 1), (0, 2), (1, 2)], directed=True)
        assert list(g.degree()) == [2, 1, 0]

    def test_degree_out_of_range(self):
        g = from_edges(2, [(0, 1)], directed=True)
        with pytest.raises(GraphFormatError):
            g.degree(5)

    def test_iter_edges(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert list(g.iter_edges()) == [(0, 1), (1, 2)]

    def test_edge_array_matches_iter(self):
        g = from_edges(4, [(0, 1), (0, 3), (2, 1)], directed=True)
        assert [tuple(e) for e in g.edge_array()] == list(g.iter_edges())

    def test_has_edge(self):
        g = from_edges(3, [(0, 1)], directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_n_undirected_edges(self):
        g = from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        assert g.n_undirected_edges == 2

    def test_memory_bytes(self):
        g = from_edges(3, [(0, 1)], directed=True)
        assert g.memory_bytes() == (4 + 1) * 8


class TestTransforms:
    def test_symmetrize(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        s = g.symmetrize()
        assert s.is_symmetric()
        assert s.n_edges == 4

    def test_asymmetric_arc_names_a_one_way_arc(self):
        g = from_edges(10, [(4, 3), (5, 1), (6, 0), (5, 0), (0, 2), (7, 4)])
        arc = g.asymmetric_arc()
        assert arc in {(4, 3), (5, 1), (6, 0), (5, 0), (0, 2), (7, 4)}
        assert not g.is_symmetric()
        assert g.symmetrize().asymmetric_arc() is None

    def test_symmetry_ignores_duplicates_and_self_loops(self):
        g = from_edges(3, [(0, 1), (0, 1), (1, 0), (2, 2)])
        assert g.is_symmetric()
        assert from_edges(0, []).is_symmetric()
        assert not from_edges(3, [(0, 1), (1, 0), (1, 2)]).is_symmetric()

    def test_symmetrize_removes_self_loops(self):
        g = from_edges(2, [(0, 0), (0, 1)], directed=True)
        s = g.symmetrize()
        assert not s.has_self_loops()

    def test_reverse(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert not r.has_edge(0, 1)

    def test_reverse_twice_is_identity(self):
        g = from_edges(4, [(0, 1), (1, 2), (3, 0)], directed=True)
        rr = g.reverse().reverse()
        assert np.array_equal(rr.row_ptr, g.row_ptr)
        assert np.array_equal(rr.column_idx, g.column_idx)

    def test_permute(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        p = g.permute([2, 0, 1])  # old 0 -> new 2, old 1 -> new 0, old 2 -> new 1
        assert p.has_edge(2, 0)
        assert p.has_edge(0, 1)

    def test_permute_invalid(self):
        g = from_edges(3, [(0, 1)], directed=True)
        with pytest.raises(GraphFormatError):
            g.permute([0, 0, 1])

    def test_subgraph(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
        sub = g.subgraph([1, 2])
        assert sub.n_vertices == 2
        assert sub.has_edge(0, 1)  # old (1,2) relabelled
        assert sub.n_edges == 1

    def test_subgraph_duplicates_rejected(self):
        g = from_edges(3, [(0, 1)], directed=True)
        with pytest.raises(GraphFormatError):
            g.subgraph([1, 1])

    def test_sort_neighbors_idempotent(self):
        g = from_edges(4, [(0, 3), (0, 1)], directed=True, sort_neighbors=False)
        s = g.sort_neighbors()
        assert list(s.neighbors(0)) == [1, 3]
        assert s.meta.get("sorted_neighbors")

    def test_with_name(self):
        g = from_edges(2, [(0, 1)], directed=True)
        g2 = g.with_name("renamed", group="test")
        assert g2.name == "renamed"
        assert g2.meta["group"] == "test"
        assert g.name == ""  # original untouched
