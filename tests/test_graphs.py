"""Tests for graph construction, products, smoothing, and edge-list IO."""

import pytest

from pebbletools import (
    Graph,
    SizeLimitError,
    StructureError,
    UnsupportedDegreeError,
    are_isomorphic,
    cartesian_product,
    is_canonical_cycle,
    is_canonical_path,
    load_edge_list,
    make_cycle,
    make_path,
    product_coords,
    product_vertex,
    read_edge_list,
    remove_vertex_smoothing,
)


# ---------------------------------------------------------------------------
# constructors and core accessors


def test_make_path_structure():
    g = make_path(5)
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert g.neighbors(0) == (1,)
    assert g.neighbors(2) == (1, 3)
    assert g.degree(0) == 1 and g.degree(2) == 2


def test_make_path_single_vertex():
    g = make_path(1)
    assert g.n == 1
    assert list(g.edges()) == []
    assert g.is_connected()


def test_make_path_rejects_zero():
    with pytest.raises(ValueError):
        make_path(0)


def test_make_cycle_structure():
    g = make_cycle(4)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.neighbors(0) == (1, 3)


def test_make_cycle_rejects_small():
    with pytest.raises(ValueError):
        make_cycle(2)


def test_graph_rejects_nonpositive_vertex_count():
    with pytest.raises(ValueError) as info:
        Graph(0, [])
    assert str(info.value) == "vertex count must be a positive integer, got 0"


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_dedupes_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert list(g.edges()) == [(0, 1)]
    assert g.degree(0) == 1


def test_has_edge_symmetric():
    g = make_path(4)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)


def test_has_edge_false_off_the_vertex_set():
    g = make_path(3)
    assert not g.has_edge(-1, 1)  # -1 is no alias of vertex 2
    assert not g.has_edge(0, -1)
    assert not g.has_edge(7, 0)


def test_distances_from():
    g = make_path(5)
    assert g.distances_from(0) == (0, 1, 2, 3, 4)
    c = make_cycle(6)
    assert c.distances_from(0) == (0, 1, 2, 3, 2, 1)


def test_distances_from_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert g.distances_from(0) == (0, 1, -1, -1)
    assert not g.is_connected()


def test_equality_reads_edges():
    assert Graph(3, [(2, 1), (1, 0), (0, 1)]) == make_path(3)
    assert hash(Graph(3, [(0, 1), (1, 2)])) == hash(make_path(3))
    assert make_path(3) != make_cycle(3)
    assert make_path(2) != Graph(3, [(0, 1)])
    assert (make_path(2) == "x") is False
    assert repr(make_path(5)) == "Graph(n=5, edges=4)"


# ---------------------------------------------------------------------------
# canonical family recognition


def test_canonical_path_recognition():
    assert is_canonical_path(make_path(1))
    assert is_canonical_path(make_path(6))
    assert not is_canonical_path(make_cycle(4))
    # same path shape, scrambled labels
    assert not is_canonical_path(Graph(3, [(0, 2), (2, 1)]))


def test_canonical_cycle_recognition():
    assert is_canonical_cycle(make_cycle(3))
    assert is_canonical_cycle(make_cycle(7))
    assert not is_canonical_cycle(make_path(4))
    assert not is_canonical_cycle(Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))


# ---------------------------------------------------------------------------
# Cartesian product


def test_product_vertex_coords_roundtrip():
    g, h = make_path(3), make_path(4)
    for a in range(g.n):
        for b in range(h.n):
            idx = product_vertex(a, b, h)
            assert product_coords(idx, h) == (a, b)


def test_product_vertex_rejects_second_coordinate_out_of_range():
    with pytest.raises(ValueError) as info:
        product_vertex(0, 5, make_path(3))
    assert str(info.value) == "second coordinate 5 out of range for 3 vertices"


def test_product_of_paths_is_grid():
    p = cartesian_product(make_path(3), make_path(3))
    assert p.n == 9
    center = product_vertex(1, 1, make_path(3))
    assert p.degree(center) == 4
    corner = product_vertex(0, 0, make_path(3))
    assert p.degree(corner) == 2
    # edges join pairs agreeing in one coordinate, adjacent in the other
    assert p.has_edge(product_vertex(0, 0, make_path(3)),
                      product_vertex(0, 1, make_path(3)))
    assert not p.has_edge(product_vertex(0, 0, make_path(3)),
                          product_vertex(1, 1, make_path(3)))


def test_product_p2_p2_is_c4():
    p = cartesian_product(make_path(2), make_path(2))
    assert are_isomorphic(p, make_cycle(4))


def test_product_vertex_cap():
    with pytest.raises(SizeLimitError):
        cartesian_product(make_path(9), make_path(8))
    # explicit override admits it
    p = cartesian_product(make_path(9), make_path(8), max_vertices=80)
    assert p.n == 72


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_small_cases():
    assert are_isomorphic(make_path(4), Graph(4, [(2, 0), (0, 1), (1, 3)]))
    assert not are_isomorphic(make_path(4), make_cycle(4))
    assert not are_isomorphic(make_path(3), make_path(4))
    assert are_isomorphic(make_path(1), Graph(1, []))
    # same n, m and degrees: only the search tells them apart, by backtracking
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(make_cycle(6), two_triangles)
    # same n and m, told apart by the degree sequences
    assert not are_isomorphic(make_path(4), Graph(4, [(0, 1), (0, 2), (0, 3)]))
    relabelled = Graph(6, [(0, 3), (3, 5), (5, 1), (1, 4), (4, 2), (2, 0)])
    assert are_isomorphic(make_cycle(6), relabelled)


def test_isomorphism_vertex_cap():
    with pytest.raises(SizeLimitError):
        are_isomorphic(make_path(11), make_path(11))
    assert are_isomorphic(make_path(11), make_path(11), max_vertices=11)


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_interior_path_vertex():
    g, index_map = remove_vertex_smoothing(make_path(4), 2)
    assert g.n == 3
    assert index_map == {0: 0, 1: 1, 3: 2}
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert is_canonical_path(g)


def test_smoothing_path_endpoint():
    g, index_map = remove_vertex_smoothing(make_path(4), 0)
    assert g.n == 3
    assert index_map == {1: 0, 2: 1, 3: 2}
    assert is_canonical_path(g)


def test_smoothing_cycle_vertex():
    g, index_map = remove_vertex_smoothing(make_cycle(5), 2)
    assert g.n == 4
    assert index_map == {0: 0, 1: 1, 3: 2, 4: 3}
    assert is_canonical_cycle(g)


def test_smoothing_rejects_triangle():
    with pytest.raises(StructureError):
        remove_vertex_smoothing(make_cycle(3), 0)


def test_smoothing_rejects_last_vertex():
    with pytest.raises(StructureError):
        remove_vertex_smoothing(make_path(1), 0)


def test_smoothing_rejects_high_degree():
    grid = cartesian_product(make_path(2), make_path(3))
    high = next(v for v in range(grid.n) if grid.degree(v) == 3)
    with pytest.raises(UnsupportedDegreeError):
        remove_vertex_smoothing(grid, high)


def test_smoothing_rejects_bad_vertex():
    with pytest.raises(ValueError):
        remove_vertex_smoothing(make_path(3), 5)


# ---------------------------------------------------------------------------
# edge-list IO


def test_read_edge_list_basic():
    text = """
    # a 4-cycle
    4
    0 1
    1 2
    2 3

    3 0
    """
    g = read_edge_list(text)
    assert g == make_cycle(4)


def test_read_edge_list_bad_header():
    with pytest.raises(ValueError, match="line 1"):
        read_edge_list("x\n0 1\n")


def test_read_edge_list_bad_edge_line():
    with pytest.raises(ValueError, match="line 3"):
        read_edge_list("3\n0 1\n1 2 3\n")


def test_read_edge_list_out_of_range():
    with pytest.raises(ValueError):
        read_edge_list("2\n0 5\n")


@pytest.mark.parametrize("text,message", [
    ("3 4\n0 1\n", "line 1: expected the vertex count alone"),
    ("3\n0 x\n", "line 2: edge endpoints must be integers"),
    ("# only a comment\n\n", "empty edge-list document"),
])
def test_read_edge_list_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        read_edge_list(text)


def test_read_edge_list_refuses_count_over_cap_before_building():
    # 10^8 vertex sets would take tens of GB to build
    with pytest.raises(SizeLimitError, match="100000000 vertices exceeds cap 20"):
        read_edge_list("100000000\n0 1\n", max_vertices=20)
    # a malformed line is reported before the cap
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list("100000000\n0 x\n", max_vertices=20)
    assert read_edge_list("3\n0 1\n1 2\n2 0\n", max_vertices=3) == make_cycle(3)


def test_load_edge_list_reads_file(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("3\n0 1\n1 2\n2 0\n")
    assert load_edge_list(str(path)) == make_cycle(3)
