from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import graphs
from linewidth.graphs import (
    DomainError,
    Graph,
    SolverLimitError,
    _dense_core,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_stats,
    edge_id_map,
    induced_subgraph,
    line_graph,
    minimal_dense_subgraph,
    minimal_dense_vertex_set,
    path_graph,
    star_graph,
)


def test_rejects_self_loops_and_bad_endpoints():
    with pytest.raises(DomainError):
        Graph(3, [(1, 1)])
    with pytest.raises(DomainError):
        Graph(3, [(1, 4)])
    with pytest.raises(DomainError):
        Graph(-1)


def test_edges_are_canonical_and_deduplicated():
    g = Graph(3, [(2, 1), (1, 2), (3, 1)])
    assert g.edges == ((1, 2), (1, 3))
    assert g.degree(1) == 2 and g.degree(2) == 1


def test_line_graph_of_p3_is_k2():
    g = path_graph(3)
    lg, labels = line_graph(g)
    assert labels == ((1, 2), (2, 3))
    assert lg == complete_graph(2)


def test_line_graph_of_star_is_triangle():
    lg, _ = line_graph(star_graph(3))
    assert lg == complete_graph(3)


def test_line_graph_of_k22_is_c4():
    # direct incidence check over the 4 edges of K_{2,2}
    g = complete_bipartite_graph(2, 2)
    lg, labels = line_graph(g)
    assert lg.n == 4 and lg.edge_count == 4
    assert all(lg.degree(v) == 2 for v in lg.vertices)  # a 4-cycle
    for a, b in lg.edges:
        assert set(labels[a - 1]) & set(labels[b - 1])


@given(graphs())
def test_line_graph_degree_identity(g):
    lg, labels = line_graph(g)
    for eid, (v, w) in enumerate(labels, start=1):
        assert lg.degree(eid) == g.degree(v) + g.degree(w) - 2


@given(graphs())
def test_edge_id_stability(g):
    h = Graph(g.n, list(g.edges))
    assert edge_id_map(g) == edge_id_map(h)
    assert line_graph(g)[0] == line_graph(h)[0]


def test_degree_stats_examples():
    assert degree_stats(complete_graph(4)) == degree_stats(complete_graph(4))
    s = degree_stats(complete_graph(4))
    assert (s.min_degree, s.max_degree, s.avg_degree) == (3, 3, Fraction(3))
    p52 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4), (3, 5)])
    s = degree_stats(p52)
    assert (s.min_degree, s.max_degree, s.avg_degree) == (2, 4, Fraction(14, 5))
    s = degree_stats(complete_bipartite_graph(3, 2))
    assert (s.min_degree, s.max_degree, s.avg_degree) == (2, 3, Fraction(12, 5))
    with pytest.raises(DomainError):
        degree_stats(Graph(0))


def test_minimal_dense_subgraph_examples():
    # connected regular graphs are already minimal
    c5 = cycle_graph(5)
    assert minimal_dense_subgraph(c5) == c5
    # K_4 plus a pendant vertex: K_4 is the unique maximizer
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    assert minimal_dense_vertex_set(g) == (1, 2, 3, 4)
    assert minimal_dense_subgraph(g) == complete_graph(4)
    assert minimal_dense_subgraph(complete_graph(2)) == complete_graph(2)


def test_minimal_dense_subgraph_limit(monkeypatch):
    monkeypatch.setattr("linewidth.graphs.DENSE_LIMIT", 4)  # read at each call
    assert minimal_dense_vertex_set(cycle_graph(4)) == (1, 2, 3, 4)
    with pytest.raises(SolverLimitError, match="instance size 5 exceeds the limit of 4"):
        minimal_dense_vertex_set(cycle_graph(5))


def _assert_minimal(h):
    d_h = Fraction(2 * h.edge_count, h.n)
    verts = list(h.vertices)
    for r in range(1, h.n):
        for keep in combinations(verts, r):
            sub = induced_subgraph(h, keep)
            assert Fraction(2 * sub.edge_count, sub.n) < d_h


@given(graphs(min_vertices=1, max_vertices=6))
def test_minimal_dense_subgraph_is_minimal(g):
    h = minimal_dense_subgraph(g)
    d_g = Fraction(2 * g.edge_count, g.n)
    d_h = Fraction(2 * h.edge_count, h.n)
    assert d_h >= d_g
    # deleting any nonempty proper subset strictly lowers the average degree
    _assert_minimal(h)


def test_minimality_exhaustive_at_ten_vertices():
    # K_5 with a pendant path of five vertices: the clique is the unique
    # densest part, and the path lies outside the 3-core the scan runs over
    edges = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    edges += [(i, i + 1) for i in range(5, 10)]
    g = Graph(10, edges)
    assert minimal_dense_vertex_set(g) == (1, 2, 3, 4, 5)
    _assert_minimal(minimal_dense_subgraph(g))
    # two cliques joined by an edge are denser together than either block,
    # and that union is itself minimal
    edges = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    edges += [(i, j) for i in range(6, 11) for j in range(i + 1, 11)]
    edges += [(5, 6)]
    bridged = Graph(10, edges)
    assert minimal_dense_vertex_set(bridged) == tuple(range(1, 11))
    _assert_minimal(bridged)
    # and the whole graph when it is itself regular and connected
    ring = cycle_graph(10)
    assert minimal_dense_subgraph(ring) == ring
    _assert_minimal(ring)


def _disjoint_copies(g: Graph) -> Graph:
    return Graph(2 * g.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges])


@given(graphs(min_vertices=1, max_vertices=10))
@example(Graph(1))
@example(Graph(2, [(1, 2)]))
@example(cycle_graph(5))
@example(complete_bipartite_graph(2, 5))
def test_minimal_dense_vertex_set_equals_the_full_scan(g):
    # g, and g with an isolated vertex below and one above all its own
    for h in (g, Graph(g.n + 2, [(u + 1, v + 1) for u, v in g.edges])):
        assert minimal_dense_vertex_set(h) == oracles.minimal_dense_vertex_set(h)


@given(graphs(min_vertices=1, max_vertices=7))
@example(Graph(3, [(1, 2)]))
@example(cycle_graph(4))
@example(complete_graph(4))
def test_minimal_dense_vertex_set_breaks_ties_between_copies_as_the_full_scan(g):
    """Two disjoint copies tie in density with each other and with their
    union, so only the tie-break picks the set."""
    twice = _disjoint_copies(g)
    assert minimal_dense_vertex_set(twice) == oracles.minimal_dense_vertex_set(twice)


@given(st.integers(1, 12))
def test_minimal_dense_vertex_set_of_an_edgeless_graph_is_vertex_one(n):
    assert minimal_dense_vertex_set(Graph(n)) == (1,) == oracles.minimal_dense_vertex_set(Graph(n))


def test_core_of_a_clique_with_pendant_paths_and_a_cycle_is_the_clique():
    """K_5 on 3, 5, 6, 8, 9 with the path 1-2-3, the cycle 9-10-11-12 and
    the pendants 4 and 7 hung on it: peeling meets e(S) // |S| = 2 at the
    clique, which is the 3-core, strictly inside the 2-core and V and not a
    prefix of either."""
    clique = (3, 5, 6, 8, 9)
    edges = list(combinations(clique, 2))
    edges += [(1, 2), (2, 3), (9, 10), (10, 11), (11, 12), (12, 9), (4, 5), (7, 8)]
    g = Graph(12, edges)
    assert _dense_core(g) == list(clique)
    assert minimal_dense_vertex_set(g) == clique == oracles.minimal_dense_vertex_set(g)


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_minimal_subgraph_split_inequality(g):
    # for minimal H and nonempty proper S: d(H)/2 < (sum deg_H(v) - e(S)) / |S|
    h = minimal_dense_subgraph(g)
    d_h = Fraction(2 * h.edge_count, h.n)
    verts = list(h.vertices)
    for r in range(1, h.n):
        for s in combinations(verts, r):
            inside = sum(1 for u, v in h.edges if u in s and v in s)
            total = sum(h.degree(v) for v in s)
            assert d_h / 2 < Fraction(total - inside, len(s))
