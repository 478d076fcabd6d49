import pytest
from hypothesis import example, given

from conftest import graphs
from linewidth.decompositions import format_td, validate, width
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import (
    DomainError,
    Graph,
    SolverLimitError,
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    star_graph,
)
from oracles import (
    brute_pathwidth,
    brute_treewidth,
    decomposition_from_elimination,
    eliminate,
    path_decomposition_from_ordering,
)


@pytest.mark.parametrize("n", range(1, 7))
def test_treewidth_of_cliques(n):
    assert exact_treewidth(complete_graph(n)).width == n - 1


@pytest.mark.parametrize("n", range(3, 8))
def test_treewidth_of_cycles(n):
    assert exact_treewidth(cycle_graph(n)).width == 2


def test_treewidth_of_line_of_k4():
    lg, _ = line_graph(complete_graph(4))
    assert brute_treewidth(lg) == 4  # frozen from exhaustive elimination
    assert exact_treewidth(lg).width == 4


@pytest.mark.parametrize("n", range(1, 7))
def test_pathwidth_of_cliques(n):
    assert exact_pathwidth(complete_graph(n)).width == n - 1


@pytest.mark.parametrize("n", range(2, 8))
def test_pathwidth_of_paths(n):
    assert exact_pathwidth(path_graph(n)).width == 1


def test_pathwidth_of_triangle():
    assert exact_pathwidth(complete_graph(3)).width == 2
    lg, _ = line_graph(star_graph(3))
    assert exact_pathwidth(lg).width == 2


def test_limits_and_empty():
    with pytest.raises(SolverLimitError):
        exact_treewidth(Graph(6), max_vertices=5)
    with pytest.raises(SolverLimitError):
        exact_pathwidth(Graph(6), max_vertices=5)
    with pytest.raises(DomainError):
        exact_treewidth(Graph(0))


@given(graphs(min_vertices=1, max_vertices=6))
def test_treewidth_matches_brute_force(g):
    res = exact_treewidth(g)
    assert res.width == brute_treewidth(g)
    assert res.certificate.width == res.width
    assert eliminate(g, res.certificate.ordering) == res.width
    assert res.certificate.simulate(g) == res.width


@given(graphs(min_vertices=1, max_vertices=6))
def test_pathwidth_matches_brute_force(g):
    res = exact_pathwidth(g)
    assert res.width == brute_pathwidth(g)


@given(graphs(min_vertices=1, max_vertices=7))
def test_emitted_decompositions_validate_at_reported_width(g):
    twr = exact_treewidth(g)
    assert validate(twr.decomposition, g).ok
    assert width(twr.decomposition) == twr.width
    pwr = exact_pathwidth(g)
    assert validate(pwr.decomposition, g).ok
    assert width(pwr.decomposition) == pwr.width
    assert sorted(pwr.ordering) == list(g.vertices)


@given(graphs(min_vertices=1, max_vertices=7))
def test_pathwidth_at_least_treewidth(g):
    assert exact_pathwidth(g).width >= exact_treewidth(g).width


@given(graphs(min_vertices=1, max_vertices=9))
@example(Graph(1))
@example(Graph(5))
@example(Graph(7, [(1, 2), (2, 3), (1, 3), (4, 5), (6, 7)]))
def test_witnesses_match_the_two_pass_constructions(g):
    twr = exact_treewidth(g)
    ordering = twr.certificate.ordering
    assert sorted(ordering) == list(g.vertices)
    assert twr.certificate.simulate(g) == eliminate(g, ordering)
    expected = decomposition_from_elimination(g, ordering)
    assert format_td(twr.decomposition, g) == format_td(expected, g)
    pwr = exact_pathwidth(g)
    expected = path_decomposition_from_ordering(g, pwr.ordering)
    assert format_td(pwr.decomposition, g) == format_td(expected, g)
