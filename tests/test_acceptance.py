"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite fixtures are shared so the whole module stays fast.
"""

import random
from fractions import Fraction as F

import pytest

from linewidth.bounds import (
    TARGET_PW,
    TARGET_TW,
    bounds_report,
    improved_upper_construction,
    min_degree_lower_bound,
    avg_degree_lower_bound,
    tree_line_decomposition,
)
from linewidth.congestion import min_path_congestion, min_tree_congestion
from linewidth.decompositions import validate, width
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.families import FamilySpec, bipartite_lower_check, generate, sharp_embedding
from linewidth.graphs import complete_graph, line_graph, star_graph
from linewidth.optcheck import max_grid_partition, min_balanced_split, min_degree_split
from linewidth.smallgraphs import connected_graphs, exhaustive_suite, random_suite, random_tree


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def suite():
    graphs = exhaustive_suite(5) + random_suite(100, seed=2024)
    assert [len(connected_graphs(n)) for n in (2, 3, 4, 5)] == [1, 2, 6, 21]
    return graphs


@pytest.fixture(scope="module")
def suite_data(suite):
    data = []
    for g in suite:
        lg, _ = line_graph(g)
        data.append(
            {
                "g": g,
                "lg": lg,
                "tw_line": exact_treewidth(lg).width,
                "pw_line": exact_pathwidth(lg).width,
            }
        )
    return data


def test_criterion_01_tree_congestion_equality(suite_data):
    for row in suite_data:
        assert min_tree_congestion(row["g"]).value == row["tw_line"] + 1
    report(1, True, f"tree congestion equals line treewidth + 1 on {len(suite_data)} graphs")


def test_criterion_02_path_congestion_equality(suite_data):
    for row in suite_data:
        assert min_path_congestion(row["g"]).value == row["pw_line"] + 1
    report(2, True, f"path congestion equals line pathwidth + 1 on {len(suite_data)} graphs")


def test_criterion_03_cutwidth_sandwich(suite_data):
    checked = 0
    for row in suite_data:
        g = row["g"]
        values = {e.name: e.value for e in bounds_report(g).entries}
        if g.max_degree() < 2:
            assert "cutwidth" not in values
            continue
        assert values["cutwidth"] <= row["pw_line"] <= values["cutwidth-slack"]
        checked += 1
    for m in range(3, 7):
        rep = bounds_report(star_graph(m), compute_exact=True)
        slack = next(e.value for e in rep.entries if e.name == "cutwidth-slack")
        assert slack == rep.exact[TARGET_PW]  # the sandwich is tight for stars
    report(3, True, f"cutwidth sandwich on {checked} graphs; tight for stars 3..6")


def test_criterion_04_bound_sandwich_and_constructions(suite_data):
    for row in suite_data:
        g = row["g"]
        rep = bounds_report(g, compute_exact=True)
        tw_line, pw_line = rep.exact[TARGET_TW], rep.exact[TARGET_PW]
        assert tw_line == row["tw_line"] and pw_line == row["pw_line"]
        assert all(e.value <= tw_line for e in rep.lowers(TARGET_TW))
        assert all(e.value >= tw_line for e in rep.uppers(TARGET_TW))
        assert all(e.value <= pw_line for e in rep.lowers(TARGET_PW))
        assert all(e.value >= pw_line for e in rep.uppers(TARGET_PW))
        for dec in (exact_treewidth(g).decomposition, exact_pathwidth(g).decomposition):
            built = improved_upper_construction(g, dec)
            assert validate(built.decomposition, g).ok
            assert built.width <= built.closed_form
    report(4, True, f"all bounds sandwich the exact values on {len(suite_data)} graphs")


def test_criterion_05_even_degree_sharpness():
    for n, k in ((8, 2), (10, 2), (12, 3)):
        spec = FamilySpec("cycle-power", (n, k))
        sc = sharp_embedding(spec)
        assert sc.width == k * k + 2 * k - 1 == min_degree_lower_bound(generate(spec))
    lg, _ = line_graph(generate(FamilySpec("cycle-power", (8, 2))))
    assert exact_pathwidth(lg).width == 7  # 16 edges: the path DP is exact here
    report(5, True, "cycle powers meet the even minimum-degree bound; (8,2) solved exactly")


def test_criterion_06_odd_degree_sharpness():
    even = sharp_embedding(FamilySpec("cycle-power-matched", (8, 2)))
    bound = min_degree_lower_bound(generate(FamilySpec("cycle-power-matched", (8, 2))))
    assert even.width == 4 == bound  # delta = 3
    odd = sharp_embedding(FamilySpec("cycle-power-matched", (9, 2)))
    assert odd.width == 5 == bound + 1
    report(6, True, "matched cycle powers: width 4 = bound (n even), 5 = bound + 1 (n odd)")


def test_criterion_07_path_power_sharpness():
    for k in (1, 2, 3):
        n = 4 * k + 1
        spec = FamilySpec("path-power", (n, k))
        sc = sharp_embedding(spec)
        assert sc.width == (k * k + 3 * k) // 2 - 1
        integer_bound = avg_degree_lower_bound(generate(spec)).integer_bound
        assert integer_bound <= sc.width
        # in the limit the average degree reaches 2k, where the quadratic
        # bound sits exactly one below the construction width
        limit_bound = F(2 * k) ** 2 / 8 + F(3, 4) * (2 * k) - 2
        assert sc.width - limit_bound == 1
    report(7, True, "path powers meet (k^2+3k)/2 - 1, one above the limiting bound")


def test_criterion_08_bipartite_lower_bound():
    for p, q in ((2, 2), (3, 2), (4, 2), (3, 3)):
        chk = bipartite_lower_check(p, q)
        assert chk.holds, (p, q, chk)
    # beyond pq <= 20 through the theorem: tw(L(K_pp)) = con(K_pp) - 1, and
    # K_pp has a path embedding as good as any tree embedding
    expected = {3: 5, 4: 9, 5: 14, 6: 20, 7: 27}
    for p, width in expected.items():
        g = generate(FamilySpec("complete-bipartite", (p, p)))
        con = min_tree_congestion(g, max_vertices=2 * p).value
        assert con - 1 == min_path_congestion(g).value - 1 == width
        assert width >= F(p * p, 2) - 1
        if p <= 4:
            assert exact_treewidth(line_graph(g)[0]).width == width
    report(
        8,
        True,
        "pq/2 - 1 <= tw(L(K_pq)) for (2,2), (3,2), (4,2), (3,3); "
        "tw(L(K_pp)) = con - 1 = pcon - 1 = 5, 9, 14, 20, 27 for p = 3..7",
    )


def test_criterion_09_trees():
    rng = random.Random(424242)
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 12))
        lg, _ = line_graph(t)
        dec = tree_line_decomposition(t)
        assert validate(dec, t).ok
        assert width(dec) == t.max_degree() - 1
        assert exact_treewidth(lg).width == t.max_degree() - 1
    report(9, True, "50 random trees: tw(L(T)) = max degree - 1, construction matches")


def test_criterion_10_grid_cliques_shape():
    k = 4
    widths = {}
    for n in (3, 4, 5):
        sc = sharp_embedding(FamilySpec("grid-cliques", (n, k)))
        g = generate(sc.spec)
        assert validate(sc.decomposition, g).ok
        assert sc.width <= 4 * n + 4 + (k - 2) * (k * (k + 1) // 2 + 1) - 1
        widths[n] = sc.width
    assert widths[4] - widths[3] <= 4
    assert widths[5] - widths[4] <= 4
    report(10, True, f"grid-cliques widths {widths} stay within the 4n + O(k^3) shape")


def test_criterion_11_optimization_checks():
    for s in (F(1, 10), F(1, 4), F(1, 3), F(1, 2)):
        assert all(c.gap == 0 for c in min_balanced_split(s, 16).corners)
        for parity in ("even", "odd"):
            assert all(c.gap == 0 for c in min_degree_split(s, parity, 16).corners)
    assert max_grid_partition(8, "fast").extremum == F(1, 2)
    assert max_grid_partition(8, "full").extremum == F(1, 2)
    report(11, True, "corner identities exact for s in {1/10,1/4,1/3,1/2}; partition max = 1/2")


def test_criterion_12_complete_graph_consistency():
    for n in (4, 5):
        g = generate(FamilySpec("complete", (n,)))
        lg, _ = line_graph(g)
        tw_line = exact_treewidth(lg).width
        if n == 4:
            assert tw_line == 4
        rep = bounds_report(g, compute_exact=True)
        assert all(e.value <= tw_line for e in rep.lowers(TARGET_TW))
        assert all(e.value >= tw_line for e in rep.uppers(TARGET_TW))
    # the minimum-degree bound is exact for K_n: pw(L(K_n)) and tw(L(K_n)) equal it
    for n in range(3, 13):
        g = complete_graph(n)
        bound = min_degree_lower_bound(g)
        assert min_path_congestion(g).value - 1 == bound
        if n <= 10:
            assert min_tree_congestion(g).value - 1 == bound
    report(
        12,
        True,
        "L(K_4) = 4 and L(K_5) sit inside every degree bound, which pw(L(K_n)) "
        "meets for n = 3..12 and tw(L(K_n)) for n = 3..10",
    )
