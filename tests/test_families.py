from fractions import Fraction

import pytest

from linewidth.congestion import LinearOrdering
from linewidth.decompositions import validate, width
from linewidth.exact import exact_pathwidth
from linewidth import families
from linewidth.families import (
    FAMILY_EDGE_LIMIT,
    SHARP_BAG_LIMIT,
    BipartiteCheck,
    FamilySpec,
    bipartite_lower_check,
    generate,
    positional_line_decomposition,
    sharp_embedding,
)
from linewidth.graphs import (
    DomainError,
    SolverLimitError,
    complete_bipartite_graph,
    complete_graph,
    format_gr,
    line_graph,
)
from oracles import cycle_power


def test_spec_parsing_and_validation():
    assert FamilySpec.parse(["path-power", "9", "2"]).params == (9, 2)
    with pytest.raises(DomainError):
        FamilySpec("no-such-family", (1,))
    with pytest.raises(DomainError):
        FamilySpec("path-power", (4, 2))  # needs n > 2k
    with pytest.raises(DomainError, match="n > 2k"):
        FamilySpec("cycle-power", (4, 2))
    with pytest.raises(DomainError, match="k >= 4"):
        FamilySpec("grid-cliques", (3, 3))
    with pytest.raises(DomainError, match="p >= q"):
        FamilySpec("complete-bipartite", (2, 3))


def test_generate_complete_families():
    assert generate(FamilySpec("complete", (4,))) == complete_graph(4)
    assert generate(FamilySpec("complete-bipartite", (3, 2))) == complete_bipartite_graph(3, 2)


def test_generate_path_power_5_2():
    g = generate(FamilySpec("path-power", (5, 2)))
    assert g.edges == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))


def test_generate_cycle_power_degrees():
    g = generate(FamilySpec("cycle-power", (8, 2)))
    assert g.edge_count == 16
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_generate_cycle_power_matches_the_circular_distance_definition():
    for n in range(3, 41):
        for k in range(1, (n - 1) // 2 + 1):
            assert generate(FamilySpec("cycle-power", (n, k))) == cycle_power(n, k)


def test_generate_matched_min_degree():
    h = generate(FamilySpec("cycle-power-matched", (8, 2)))
    assert h.min_degree() == 3
    assert all(h.degree(v) == 3 for v in h.vertices)  # n even: all trimmed
    h = generate(FamilySpec("cycle-power-matched", (9, 2)))
    assert h.min_degree() == 3 and h.max_degree() == 4


def test_generate_grid_cliques_structure():
    g = generate(FamilySpec("grid-cliques", (3, 4)))
    # 9 grid vertices; corners attach 2 cliques K_5, edges 1, centre 0
    assert g.n == 9 + 12 * 5
    for v in range(1, 10):
        assert g.degree(v) == 4
    clique_degrees = sorted({g.degree(v) for v in range(10, g.n + 1)})
    assert clique_degrees == [4, 5]  # members 4, attachment vertices 5


def test_generate_is_deterministic_bytes():
    a = format_gr(generate(FamilySpec("grid-cliques", (3, 4))))
    b = format_gr(generate(FamilySpec("grid-cliques", (3, 4))))
    assert a == b


def test_edge_count_matches_the_generated_graph():
    for n in range(1, 10):
        specs = [FamilySpec("complete", (n,))]
        specs += [FamilySpec("complete-bipartite", (n, q)) for q in range(1, n + 1)]
        specs += [
            FamilySpec(family, (n, k))
            for family in ("path-power", "cycle-power", "cycle-power-matched")
            for k in range(1, (n - 1) // 2 + 1)
        ]
        specs += [FamilySpec("grid-cliques", (n, k)) for k in (4, 5, 6) if n >= 3]
        for spec in specs:
            assert spec.edge_count() == generate(spec).edge_count, spec.label()


@pytest.mark.parametrize(
    "family, params, edges",
    [
        ("complete", (633,), 200028),
        ("complete-bipartite", (448, 447), 200256),
        ("path-power", (100002, 2), 200001),
        ("cycle-power", (100001, 2), 200002),
        ("cycle-power-matched", (200003, 1), 200002),
        ("grid-cliques", (306, 4), 200124),
    ],
)
def test_spec_above_the_edge_limit_is_refused_before_building(family, params, edges):
    # the smallest graph of each family past the limit: refused by the spec
    # itself, so generate is never reached
    label = " ".join([family, *map(str, params)])
    with pytest.raises(DomainError, match=f"^{label} has {edges} edges, above the limit of 200000$"):
        FamilySpec(family, params)
    assert FamilySpec("cycle-power", (100000, 2)).edge_count() == FAMILY_EDGE_LIMIT


def test_sharp_refuses_above_its_bag_limit(monkeypatch):
    # path-power 9 2 has 9 bags, none above its closed form 4 plus one entry
    monkeypatch.setattr(families, "SHARP_BAG_LIMIT", 45)
    assert sharp_embedding(FamilySpec("path-power", (9, 2))).width == 4
    monkeypatch.setattr(families, "SHARP_BAG_LIMIT", 44)
    with pytest.raises(DomainError, match="^sharp construction of path-power 9 2 may hold 45 bag "
                       "entries, above the limit of 44$"):
        sharp_embedding(FamilySpec("path-power", (9, 2)))
    monkeypatch.undo()

    def fail(*args):
        raise AssertionError("built past the bag limit")

    monkeypatch.setattr(families, "generate", fail)
    monkeypatch.setattr(families, "_grid_cliques", fail)
    # 199 bags of at most 5,049 entries: the least path-power (2k+1) k refused
    # at the stated limit, whose 14,751 edges the edge limit lets through
    for params, family in (((199, 99), "path-power"), ((60, 5), "grid-cliques")):
        with pytest.raises(DomainError, match=f"above the limit of {SHARP_BAG_LIMIT}$"):
            sharp_embedding(FamilySpec(family, params))
    assert FamilySpec("path-power", (199, 99)).edge_count() < FAMILY_EDGE_LIMIT


def test_sharp_path_power():
    sc = sharp_embedding(FamilySpec("path-power", (9, 2)))
    assert sc.width == 4 == sc.closed_form
    assert sc.ordering == LinearOrdering(range(1, 10))
    assert validate(sc.decomposition, generate(sc.spec)).ok


@pytest.mark.parametrize(
    "k,n", [(1, 5), (2, 9), (3, 13)]
)
def test_sharp_path_power_closed_form(k, n):
    sc = sharp_embedding(FamilySpec("path-power", (n, k)))
    assert sc.width == (k * k + 3 * k) // 2 - 1


@pytest.mark.parametrize("n,k,expected", [(8, 2, 7), (10, 2, 7), (12, 3, 14)])
def test_sharp_cycle_power(n, k, expected):
    sc = sharp_embedding(FamilySpec("cycle-power", (n, k)))
    assert sc.width == expected == k * k + 2 * k - 1
    assert validate(sc.decomposition, generate(sc.spec)).ok


def test_sharp_cycle_power_matched():
    sc = sharp_embedding(FamilySpec("cycle-power-matched", (8, 2)))
    assert sc.width == 4  # k^2 + k - 2 for even n
    sc = sharp_embedding(FamilySpec("cycle-power-matched", (9, 2)))
    assert sc.width == 5  # k^2 + k - 1 for odd n


def test_sharp_grid_cliques_is_bounded():
    sc = sharp_embedding(FamilySpec("grid-cliques", (3, 4)))
    assert sc.closed_form_is_upper
    assert sc.width <= sc.closed_form
    assert sc.ordering is None
    assert validate(sc.decomposition, generate(sc.spec)).ok


def test_positional_rebuild_requires_positions():
    g = complete_graph(3)
    with pytest.raises(DomainError):
        positional_line_decomposition(g, {1: 1, 2: 2})


def test_positional_rebuild_matches_ordering_width():
    g = generate(FamilySpec("cycle-power", (8, 2)))
    dec = positional_line_decomposition(g, {v: v for v in g.vertices})
    assert validate(dec, g).ok
    assert width(dec) == 7


@pytest.mark.parametrize(
    "p,q,bound", [(2, 2, Fraction(1)), (3, 2, Fraction(2)), (3, 3, Fraction(7, 2))]
)
def test_bipartite_lower_check(p, q, bound):
    chk = bipartite_lower_check(p, q)
    assert isinstance(chk, BipartiteCheck)
    assert chk.bound == bound
    assert chk.holds


def test_bipartite_check_respects_limit():
    with pytest.raises(SolverLimitError):
        bipartite_lower_check(7, 3)


def test_sharp_matches_exact_pathwidth_where_solvable():
    g = generate(FamilySpec("cycle-power", (8, 2)))
    lg, _ = line_graph(g)
    assert exact_pathwidth(lg).width == 7


@pytest.mark.parametrize("n,k", [(5, 1), (6, 1), (7, 1), (8, 2)])
def test_even_degree_families_are_exactly_sharp(n, k):
    # minimum degree 2k is even: the construction width is the true pw(L)
    sc = sharp_embedding(FamilySpec("cycle-power", (n, k)))
    lg, _ = line_graph(generate(sc.spec))
    assert exact_pathwidth(lg).width == sc.width


def test_matched_families_exact_values():
    # odd minimum degree: sharp for even n, one above the bound for odd n
    lg, _ = line_graph(generate(FamilySpec("cycle-power-matched", (8, 2))))
    assert exact_pathwidth(lg).width == 4
    lg, _ = line_graph(generate(FamilySpec("cycle-power-matched", (9, 2))))
    assert exact_pathwidth(lg).width == 5  # the +1 over the bound is real


@pytest.mark.parametrize(
    "family,ns,k",
    [
        ("path-power", (3, 4, 6, 9, 12), 1),
        ("path-power", (5, 6, 8, 11), 2),
        ("path-power", (7, 9, 13), 3),
        ("cycle-power", (3, 5, 8, 12), 1),
        ("cycle-power", (5, 7, 10, 12), 2),
        ("cycle-power", (7, 9, 12, 14), 3),
        ("cycle-power-matched", (4, 6, 9, 12), 1),
        ("cycle-power-matched", (6, 8, 9, 11), 2),
        ("cycle-power-matched", (7, 8, 12, 13), 3),
    ],
)
def test_sharp_widths_sweep_closed_forms(family, ns, k):
    for n in ns:
        sc = sharp_embedding(FamilySpec(family, (n, k)))
        if family == "path-power":
            expected = (k * k + 3 * k) // 2 - 1
        elif family == "cycle-power":
            expected = k * k + 2 * k - 1
        else:
            expected = k * k + k - (2 if n % 2 == 0 else 1)
        assert sc.width == expected, (family, n, k)


@pytest.mark.parametrize("k", (4, 5))
def test_grid_cliques_validate_and_shrink_relative_to_4n(k):
    previous = None
    for n in (3, 4):
        sc = sharp_embedding(FamilySpec("grid-cliques", (n, k)))
        g = generate(sc.spec)
        assert validate(sc.decomposition, g).ok
        excess = sc.width - 4 * n
        if previous is not None:
            assert excess <= previous
        previous = excess
