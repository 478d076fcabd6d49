import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given

from conftest import graphs
from linewidth import bounds
from linewidth.bounds import (
    TARGET_PW,
    TARGET_TW,
    avg_degree_lower_bound,
    balanced_split_bound_tree,
    bounds_report,
    improved_upper_construction,
    min_degree_lower_bound,
    tree_line_decomposition,
)
from linewidth.decompositions import (
    PathDecomposition,
    TreeDecomposition,
    validate,
    width,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.families import FamilySpec, generate
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


def test_avg_degree_bound_examples():
    b = avg_degree_lower_bound(complete_graph(4))
    assert b.raw == Fraction(11, 8) and b.integer_bound == 2
    b = avg_degree_lower_bound(cycle_graph(6))
    assert b.raw == 0 and b.integer_bound == 1
    assert avg_degree_lower_bound(Graph(4)).integer_bound == 0


def test_avg_degree_bound_uses_densest_part():
    # pendant vertex does not dilute the K_4 core
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    b = avg_degree_lower_bound(g)
    assert b.subgraph_vertices == (1, 2, 3, 4)
    assert b.raw == Fraction(11, 8)


def test_min_degree_bound_examples():
    assert min_degree_lower_bound(generate(FamilySpec("cycle-power", (9, 2)))) == 7
    assert min_degree_lower_bound(complete_graph(4)) == 4
    assert min_degree_lower_bound(path_graph(5)) == 0
    assert min_degree_lower_bound(complete_graph(1)) == 0


def test_min_degree_bound_per_component():
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])  # K_4 + isolated
    assert min_degree_lower_bound(g) == 4


def test_elementary_bounds_star_and_edge():
    t = star_graph(5)
    entries = {e.name: e for e in bounds_report(t).entries}
    assert entries["incident-expansion-tw"].value == 9
    assert entries["star-clique"].value == 4  # = exact tw(L) for trees
    k2 = complete_graph(2)
    entries = {e.name: e for e in bounds_report(k2).entries}
    assert entries["endpoint-halving"].value == 0
    assert entries["star-clique"].value == 0
    assert exact_treewidth(line_graph(k2)[0]).width == 0


def test_improved_construction_star_k19():
    g = star_graph(9)  # centre vertex 10
    bags = {i: {10, i} for i in range(1, 10)}
    d = TreeDecomposition(range(1, 10), [(i, i + 1) for i in range(1, 9)], bags)
    built = improved_upper_construction(g, d)
    assert not built.fallback
    assert validate(built.decomposition, g).ok
    assert built.closed_form == balanced_split_bound_tree(1, 9) == Fraction(43, 3)
    assert built.width == 8  # L(K_{1,9}) = K_9, so the construction is optimal


def test_improved_construction_p6_path_input():
    g = path_graph(6)
    built = improved_upper_construction(g, exact_pathwidth(g).decomposition)
    assert isinstance(built.decomposition, PathDecomposition)
    assert validate(built.decomposition, g).ok
    assert built.width == 1  # pw(L(P_6)) = 1


def test_improved_construction_all_small_equals_rebuild():
    # max degree 2 = width + 1: no large vertices, no subdivisions
    g = cycle_graph(5)
    d = exact_treewidth(g).decomposition
    built = improved_upper_construction(g, d)
    assert not built.fallback
    assert validate(built.decomposition, g).ok
    assert built.width <= (width(d) + 1) * g.max_degree() - 1


def test_improved_construction_fallback():
    # a deliberately fat decomposition of C_5: width 4 > max degree 2
    g = cycle_graph(5)
    d = TreeDecomposition([1], [], {1: set(g.vertices)})
    built = improved_upper_construction(g, d)
    assert built.fallback
    assert validate(built.decomposition, g).ok
    assert built.width <= (width(d) + 1) * g.max_degree() - 1


def test_improved_construction_rejects_line_subject():
    g = complete_graph(3)
    d = TreeDecomposition([1], [], {1: {1, 2, 3}}, subject="of-L(G)")
    with pytest.raises(DomainError):
        improved_upper_construction(g, d)


def test_tree_line_decomposition_examples():
    for t, expected in [(star_graph(4), 3), (path_graph(5), 1)]:
        dec = tree_line_decomposition(t)
        assert validate(dec, t).ok
        assert width(dec) == expected == t.max_degree() - 1
    # spider with three legs of length 2
    spider = Graph(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
    dec = tree_line_decomposition(spider)
    assert width(dec) == 2
    assert exact_treewidth(line_graph(spider)[0]).width == 2
    with pytest.raises(DomainError):
        tree_line_decomposition(cycle_graph(4))


def test_bounds_report_k4():
    rep = bounds_report(complete_graph(4), compute_exact=True)
    by_name = {e.name: e.value for e in rep.entries}
    assert by_name["avg-degree"] == 2
    assert by_name["min-degree"] == 4
    assert by_name["star-clique"] == 2
    assert by_name["graph-treewidth"] == 2
    assert by_name["endpoint-halving"] == 1
    assert by_name["incident-expansion-tw"] == 11
    assert rep.exact[TARGET_TW] == 4
    assert rep.exact[TARGET_PW] == 4
    assert any(n.startswith("conjectured-half-expansion") for n in rep.notes)


def test_bounds_report_sharp_for_cycle_power():
    g = generate(FamilySpec("cycle-power", (8, 2)))
    rep = bounds_report(g, compute_exact=True)
    by_name = {e.name: e.value for e in rep.entries}
    assert by_name["min-degree"] == 7 == rep.exact[TARGET_PW]


def test_bounds_report_tree():
    g = path_graph(5)
    rep = bounds_report(g, compute_exact=True)
    assert rep.exact[TARGET_TW] == g.max_degree() - 1 == 1


def test_bounds_report_serialization_shape():
    rep = bounds_report(complete_graph(3), compute_exact=True)
    text = rep.to_text()
    assert text == rep.to_text()  # deterministic
    for line in text.strip().splitlines():
        assert line.split()[0] in ("bound", "exact", "note")


def test_bounds_report_skips_avg_degree_past_subgraph_limit(monkeypatch):
    g = cycle_graph(5)
    full = bounds_report(g)

    monkeypatch.setattr("linewidth.graphs.DENSE_LIMIT", 4)
    rep = bounds_report(g)
    assert rep.entries == tuple(e for e in full.entries if e.name != "avg-degree")
    assert rep.notes == full.notes + (
        "skipped avg-degree: minimal dense subgraph search: "
        "instance size 5 exceeds the limit of 4",
    )


def test_bounds_report_rejects_edgeless():
    with pytest.raises(DomainError):
        bounds_report(Graph(3))


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_bound_sandwich_random(g):
    rep = bounds_report(g, compute_exact=True)
    tw_line = rep.exact[TARGET_TW]
    pw_line = rep.exact[TARGET_PW]
    assert all(e.value <= tw_line for e in rep.lowers(TARGET_TW))
    assert all(e.value >= tw_line for e in rep.uppers(TARGET_TW))
    assert all(e.value <= pw_line for e in rep.lowers(TARGET_PW))
    assert all(e.value >= pw_line for e in rep.uppers(TARGET_PW))


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_improved_construction_meets_closed_form(g):
    for dec in (exact_treewidth(g).decomposition, exact_pathwidth(g).decomposition):
        built = improved_upper_construction(g, dec)
        assert validate(built.decomposition, g).ok
        assert built.width <= built.closed_form


def _report_bytes(g: Graph) -> bytes:
    """bounds_report(g) as text, then with compute_exact: the text, or the
    refusal it raises."""
    out = [bounds_report(g).to_text()]
    try:
        out.append(bounds_report(g, compute_exact=True).to_text())
    except SolverLimitError as exc:
        out.append(f"raised {exc}\n")
    return "".join(out).encode("ascii")


def _refuse_dense_search(g, max_vertices=None):
    raise SolverLimitError("minimal dense subgraph search", g.n, 2)


# sha256 of _report_bytes over the corpus below, the last three graphs again
# with a refusing dense-subgraph search: it moves with any entry, note, value
# or order of the report
REPORT_SHA256 = "f098341269b311e3255853ad8eda3be8bac802bc0e684d7648a8c2c95551cd61"


def test_bounds_report_bytes_are_pinned(monkeypatch):
    rng = random.Random(6810)
    corpus = []
    while len(corpus) < 40:
        n = rng.randint(2, 9)
        pairs = list(combinations(range(1, n + 1), 2))
        corpus.append(Graph(n, rng.sample(pairs, rng.randint(1, min(len(pairs), 12)))))
    corpus += [
        Graph(6, [(1, 2), (3, 4), (5, 6)]),  # a matching: no cutwidth rows
        Graph(5, [(2, 4)]),  # one edge and isolated vertices
        Graph(7, [(1, 2), (1, 3), (1, 4), (2, 3), (5, 6)]),
        star_graph(5),
        generate(FamilySpec("cycle-power", (8, 2))),
        generate(FamilySpec("cycle-power", (21, 2))),  # tw, pw and cw refused
    ]
    digest = hashlib.sha256()
    for g in corpus:
        digest.update(_report_bytes(g))
    monkeypatch.setattr(bounds, "minimal_dense_vertex_set", _refuse_dense_search)
    for g in corpus[-3:]:
        digest.update(_report_bytes(g))
    assert digest.hexdigest() == REPORT_SHA256
