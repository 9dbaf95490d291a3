"""Tests for graph construction, products, and edge-list IO."""

import pytest

from pebbletools import (
    Graph,
    SizeLimitError,
    canonical_family,
    cartesian_product,
    load_edge_list,
    make_cycle,
    make_path,
    read_edge_list,
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


@pytest.mark.parametrize("graph,family", [
    (make_path(1), "path"),
    (make_path(2), "path"),  # one edge: a path, never a cycle
    (make_path(6), "path"),
    (make_cycle(3), "cycle"),
    (make_cycle(7), "cycle"),
    # same shapes, scrambled labels
    (Graph(3, [(0, 2), (2, 1)]), None),
    (Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)]), None),
    (Graph(4, [(0, 1), (0, 2), (0, 3)]), None),  # star
    (Graph(4, [(0, 1), (2, 3)]), None),  # disconnected
], ids=["path:1", "path:2", "path:6", "cycle:3", "cycle:7", "scrambled-path",
        "scrambled-cycle", "star", "disconnected"])
def test_canonical_family(graph, family):
    assert canonical_family(graph) == family


# ---------------------------------------------------------------------------
# Cartesian product


def test_product_of_paths_is_grid():
    # vertex (a, b) has index a * 3 + b
    p = cartesian_product(make_path(3), make_path(3))
    assert p.n == 9
    center = 1 * 3 + 1
    assert p.degree(center) == 4
    corner = 0 * 3 + 0
    assert p.degree(corner) == 2
    # edges join pairs agreeing in one coordinate, adjacent in the other
    assert p.has_edge(0 * 3 + 0, 0 * 3 + 1)
    assert not p.has_edge(0 * 3 + 0, 1 * 3 + 1)


def test_product_p2_p2_is_c4():
    # (a, b) is vertex 2a + b, so the product is the cycle 0-1-3-2-0
    p = cartesian_product(make_path(2), make_path(2))
    assert p == Graph(4, [(0, 1), (1, 3), (3, 2), (2, 0)])


def test_product_vertex_cap():
    with pytest.raises(SizeLimitError):
        cartesian_product(make_path(9), make_path(8))
    # explicit override admits it
    p = cartesian_product(make_path(9), make_path(8), max_vertices=80)
    assert p.n == 72


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
    g = read_edge_list(text, 4)
    assert g == make_cycle(4)


def test_read_edge_list_bad_header():
    with pytest.raises(ValueError, match="line 1"):
        read_edge_list("x\n0 1\n", 20)


def test_read_edge_list_bad_edge_line():
    with pytest.raises(ValueError, match="line 3"):
        read_edge_list("3\n0 1\n1 2 3\n", 20)


def test_read_edge_list_out_of_range():
    with pytest.raises(ValueError):
        read_edge_list("2\n0 5\n", 20)


@pytest.mark.parametrize("text,message", [
    ("3 4\n0 1\n", "line 1: expected the vertex count alone"),
    ("3\n0 x\n", "line 2: edge endpoints must be integers"),
    ("# only a comment\n\n", "empty edge-list document"),
    # every number is ASCII digits, as typed numbers are
    pytest.param("1_0\n0 1\n", "line 1: vertex count '1_0': expected an integer",
                 id="count-underscore"),
    pytest.param("\u0663\n0 1\n1 2\n",
                 "line 1: vertex count '\u0663': expected an integer",
                 id="count-arabic-indic"),
    pytest.param("+3\n0 1\n1 2\n",
                 r"line 1: vertex count '\+3': expected an integer", id="count-sign"),
    pytest.param("3\n0 +1\n1 2\n", "line 2: edge endpoints must be integers",
                 id="endpoint-sign"),
    pytest.param("1" * 5000 + "\n0 1\n", "line 1: vertex count near '1{80}': "
                 "integer of 5000 digits is too long", id="count-too-long"),
])
def test_read_edge_list_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        read_edge_list(text, 20)


def test_read_edge_list_refuses_count_over_cap_before_building():
    # 10^8 vertex sets would take tens of GB to build
    with pytest.raises(SizeLimitError, match="100000000 vertices exceeds cap 20"):
        read_edge_list("100000000\n0 1\n", max_vertices=20)
    # a malformed line is reported before the cap
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list("100000000\n0 x\n", max_vertices=20)
    assert read_edge_list("3\n0 1\n1 2\n2 0\n", max_vertices=3) == make_cycle(3)
    # the cap has no uncapped default
    with pytest.raises(TypeError):
        read_edge_list("3\n0 1\n1 2\n2 0\n")


def test_load_edge_list_reads_file(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("3\n0 1\n1 2\n2 0\n")
    assert load_edge_list(str(path), 3) == make_cycle(3)
