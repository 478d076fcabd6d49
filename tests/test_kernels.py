import random
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import graphs
from linewidth import kernels
from linewidth.bounds import bounds_report
from linewidth.congestion import (
    PATH_SOLVER_LIMIT,
    TREE_CONGESTION_LIMIT,
    cutwidth,
    min_path_congestion,
    min_tree_congestion,
)
from linewidth.exact import SOLVER_LIMIT, exact_pathwidth, exact_treewidth
from linewidth.graphs import (
    DomainError,
    Graph,
    SolverLimitError,
    _adjacency_masks,
    complete_graph,
    path_graph,
)
from linewidth.kernels import _pure

KERNELS = (
    "treewidth_table",
    "vertex_separation_table",
    "cutwidth_table",
    "path_congestion_table",
    "tree_congestion_table",
)


def test_backend_is_reported():
    assert kernels.BACKEND in ("compiled", "pure-python")
    assert "pure-python" in kernels.backends()


def sparse_graph(n: int, seed: int) -> Graph:
    """A seeded G(n, m) with density 0.15-0.3: most of its vertex subsets
    induce a disconnected graph, so the treewidth fill mostly splits them."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph(n, rng.sample(pairs, round(len(pairs) * rng.uniform(0.15, 0.3))))


def dense_graph(n: int, seed: int) -> Graph:
    """A seeded G(n, m) with density 0.5-0.8: most subsets lie on some
    ordering within its path congestion."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph(n, rng.sample(pairs, round(len(pairs) * rng.uniform(0.5, 0.8))))


# In each, the top vertex of some subset S joins three or more components of
# G[S - top] and skips one between them in lowest-vertex order, a vertex with
# a neighbour outside S: a star on 6 with leaves 1, 3, 4 and 2 joined to 1
# through 5, at S = {1, 2, 3, 4, 6}; and paths 1-2-3 and 5-6-7 bridged by 8
# at their ends with 4 hung on 6, at S = {1, 3, 4, 5, 7, 8}.
TOP_JOINS_COMPONENTS = (
    Graph(6, [(1, 6), (3, 6), (4, 6), (1, 5), (2, 5)]),
    Graph(8, [(1, 2), (2, 3), (5, 6), (6, 7), (4, 6), (8, 1), (8, 3), (8, 5), (8, 7)]),
)


@given(graphs(min_vertices=0, max_vertices=9))
@example(Graph(0))
@example(Graph(1))
@example(Graph(9))
@example(sparse_graph(12, 1))
@example(sparse_graph(13, 2))
@example(sparse_graph(14, 3))
@example(TOP_JOINS_COMPONENTS[0])
@example(TOP_JOINS_COMPONENTS[1])
def test_backends_agree(compiled_core, g):
    masks = _adjacency_masks(g, g.vertices)
    pure = {name: getattr(_pure, name)(masks) for name in KERNELS}
    for name in KERNELS:
        assert list(getattr(compiled_core, name)(masks)) == pure[name]
    # capped at 1, the max degree, the path congestion and one above it, and
    # above every entry, the tree table of each backend is the full one capped
    pcon = pure["path_congestion_table"][-1]
    delta = max((m.bit_count() for m in masks), default=0)
    for cap in (1, delta, pcon, pcon + 1, g.edge_count + 1):
        capped = [min(x, cap) for x in pure["tree_congestion_table"]]
        assert _pure.tree_congestion_table(masks, cap) == capped
        assert list(compiled_core.tree_congestion_table(masks, cap)) == capped


@pytest.mark.parametrize("backend", ["_pure", "compiled_core"])
def test_tree_table_cap_range(request, backend):
    impl = _pure if backend == "_pure" else request.getfixturevalue(backend)
    triangle = [0b110, 0b101, 0b011]
    for cap in (-1, -(1 << 70)):
        with pytest.raises(ValueError, match="cap must be at least 0"):
            impl.tree_congestion_table(triangle, cap)
    full = list(impl.tree_congestion_table(triangle))
    assert full == [0, 2, 2, 3, 2, 3, 3, 3]
    for cap in (0xFFFF, 1 << 16, 1 << 40, 1 << 70):  # no entry reaches these: no bound
        assert list(impl.tree_congestion_table(triangle, cap)) == full
    assert list(impl.tree_congestion_table(triangle, 0)) == [0] * 8


def test_compiled_core_is_loaded_on_the_side(compiled_core):
    assert sys.modules.get("linewidth.kernels._core") is not compiled_core


@pytest.mark.parametrize("backend", ["_pure", "compiled_core"])
def test_kernel_vertex_limit(request, backend):
    impl = _pure if backend == "_pure" else request.getfixturevalue(backend)
    assert impl.MAX_KERNEL_VERTICES == kernels.MAX_KERNEL_VERTICES
    for name in KERNELS:
        with pytest.raises(ValueError, match="at most 25 vertices"):
            getattr(impl, name)([0] * (kernels.MAX_KERNEL_VERTICES + 1))


def _earlier_order(name, masks, cost):
    """The ordering read back from the per-pair fill with its own cost."""
    return kernels.backtrack(getattr(oracles, name)(masks), len(masks), cost)


@given(graphs(min_vertices=0, max_vertices=9))
@example(Graph(0))
@example(Graph(9))
@example(complete_graph(9))
@example(path_graph(9))
@example(sparse_graph(11, 4))
@example(sparse_graph(11, 5))
@example(TOP_JOINS_COMPONENTS[0])
@example(TOP_JOINS_COMPONENTS[1])
def test_fills_and_orderings_equal_per_pair_oracles(compiled_core, g):
    masks = _adjacency_masks(g, g.vertices)
    for name in KERNELS:
        expected = getattr(oracles, name)(masks)
        assert getattr(_pure, name)(masks) == expected
        assert list(getattr(compiled_core, name)(masks)) == expected
    if g.n == 0:
        return
    order = _earlier_order(
        "treewidth_table",
        masks,
        lambda s, v: oracles.elimination_reach_count(masks, s ^ (1 << v), v),
    )
    assert exact_treewidth(g).certificate.ordering == tuple(v + 1 for v in order)
    order = _earlier_order(
        "vertex_separation_table", masks, lambda s, v: oracles.border_size(masks, s)
    )
    assert exact_pathwidth(g).ordering == tuple(v + 1 for v in order)
    active = g.non_isolated_vertices()
    sub = _adjacency_masks(g, active)
    order = _earlier_order("cutwidth_table", sub, lambda s, v: oracles.cross_size(sub, s))
    assert cutwidth(g).ordering.order == tuple(active[v] for v in order)
    if len(active) > 2:
        order = _earlier_order(
            "path_congestion_table",
            sub,
            lambda s, v: oracles.cross_size(sub, s) + (sub[v] & s).bit_count(),
        )
        assert min_path_congestion(g).ordering.order == tuple(active[v] for v in order)


# each threshold search, keyed by the table it restricts
SEARCHES = {
    "cutwidth_table": "cutwidth_search",
    "path_congestion_table": "path_congestion_search",
}


def _assert_search_is_the_table_up_to_the_optimum(kernel, masks):
    table = getattr(_pure, kernel)(masks)
    opt = table[-1]
    found = getattr(_pure, SEARCHES[kernel])(masks)
    assert set(found) == {s for s, t in enumerate(table) if t <= opt}
    assert all(found[s] == table[s] for s in found)
    missing = next((s for s, t in enumerate(table) if t > opt), None)
    if missing is not None:
        assert found[missing] == _pure._BIG


@pytest.mark.parametrize("kernel", SEARCHES)
@given(g=graphs(min_vertices=0, max_vertices=9))
@example(g=Graph(0))
@example(g=Graph(1))
@example(g=complete_graph(9))
@example(g=TOP_JOINS_COMPONENTS[1])
def test_search_holds_the_table_up_to_the_optimum(kernel, g):
    _assert_search_is_the_table_up_to_the_optimum(kernel, _adjacency_masks(g, g.vertices))


@pytest.mark.parametrize("kernel", SEARCHES)
@pytest.mark.parametrize("n", [11, 12, 14, 16])
@pytest.mark.parametrize("make", [sparse_graph, dense_graph])
def test_search_holds_the_table_up_to_the_optimum_on_larger_graphs(kernel, make, n):
    """Its keys are exactly the subsets with t[S] <= opt, so a threshold
    that overshoots opt fails here, though its value and ordering agree."""
    for seed in range(2 if n < 16 else 1):
        g = make(n, 100 * n + seed)
        _assert_search_is_the_table_up_to_the_optimum(kernel, _adjacency_masks(g, g.vertices))


def test_cutwidth_search_starts_at_half_the_max_degree():
    """A star K_{1,4} has cutwidth 2 = ceil(4 / 2), and its search holds
    every subset with cut(S) <= 2 along an optimal ordering."""
    masks = _adjacency_masks(Graph(5, [(1, v) for v in range(2, 6)]), range(1, 6))
    found = _pure.cutwidth_search(masks)
    assert found[0b11111] == 2
    assert set(found) == {s for s, t in enumerate(_pure.cutwidth_table(masks)) if t <= 2}


# each searched solver, its table, and its backtrack cost built from the
# masks, None where that cost never exceeds t[S]
SEARCHED_SOLVERS = {
    "cutwidth": (cutwidth, "cutwidth_table", None),
    "path congestion": (
        min_path_congestion,
        "path_congestion_table",
        lambda masks: lambda s, v: _pure.cross_size(masks, s) + (masks[v] & s).bit_count(),
    ),
}


def _table_order(name, g):
    """The solver's value and ordering, read from the full pure table."""
    _, kernel, cost = SEARCHED_SOLVERS[name]
    active = g.non_isolated_vertices()
    masks = _adjacency_masks(g, active)
    table = getattr(_pure, kernel)(masks)
    order = kernels.backtrack(table, len(masks), cost and cost(masks))
    return table[-1], tuple(active[v] for v in order)


def _searched_by_the_rule(g) -> bool:
    """The dispatch rule stated again: at least SEARCH_MIN_VERTICES placed
    vertices with at most SEARCH_MAX_DENSITY percent of their pairs joined."""
    n = len(g.non_isolated_vertices())
    if n < kernels.SEARCH_MIN_VERTICES:
        return False
    return Fraction(g.edge_count, n * (n - 1) // 2) <= Fraction(kernels.SEARCH_MAX_DENSITY, 100)


@pytest.fixture
def searched(monkeypatch):
    """Searches per kernel, counted by wrappers set on linewidth.kernels."""
    counts = Counter()
    for name in SEARCHES.values():
        real = getattr(kernels, name)

        def counted(masks, real=real, name=name):
            counts[name] += 1
            return real(masks)

        monkeypatch.setattr(kernels, name, counted)
    return counts


@pytest.mark.parametrize("name", SEARCHED_SOLVERS)
@pytest.mark.parametrize("n", [10, 11, 12, 13, 14, 15])
@pytest.mark.parametrize("make", [sparse_graph, dense_graph])
def test_solver_reads_the_table_ordering_either_side_of_the_crossover(
    monkeypatch, searched, name, make, n
):
    monkeypatch.setattr(kernels, "BACKEND", "pure-python")
    solver, kernel, _ = SEARCHED_SOLVERS[name]
    for seed in range(3):
        g = make(n, 1000 * n + seed)
        searched.clear()
        cert = solver(g)
        assert (cert.value, cert.ordering.order) == _table_order(name, g)
        assert searched == ({SEARCHES[kernel]: 1} if _searched_by_the_rule(g) else {})


def test_the_dispatch_rule_reaches_both_sides():
    """The graphs above meet the rule and miss it, each at n >= 12."""
    sides = {
        _searched_by_the_rule(make(n, 1000 * n + seed))
        for make in (sparse_graph, dense_graph)
        for n in (12, 13, 14, 15)
        for seed in range(3)
    }
    assert sides == {True, False}


def test_the_density_limit_is_inclusive(monkeypatch, fills, searched):
    """On 16 vertices 72 of the 120 pairs are exactly 60%: that graph is
    searched, and one more edge fills."""
    monkeypatch.setattr(kernels, "BACKEND", "pure-python")
    pairs = list(combinations(range(1, 17), 2))
    at_limit = Graph(16, pairs[:72])
    assert len(at_limit.non_isolated_vertices()) == 16
    cutwidth(at_limit)
    assert (searched, fills) == ({"cutwidth_search": 1}, {})
    searched.clear()
    cutwidth(Graph(16, pairs[:73]))
    assert (searched, fills) == ({}, {"cutwidth_table": 1})


@pytest.mark.parametrize("name", SEARCHED_SOLVERS)
def test_a_dense_graph_fills_the_whole_table(monkeypatch, fills, name):
    monkeypatch.setattr(kernels, "BACKEND", "pure-python")
    for search in SEARCHES.values():
        monkeypatch.setattr(kernels, search, None)  # a search would fail
    solver, kernel, _ = SEARCHED_SOLVERS[name]
    g = complete_graph(13)
    cert = solver(g)
    assert (cert.value, cert.ordering.order) == _table_order(name, g)
    assert fills == {kernel: 1}


@pytest.mark.parametrize("name", SEARCHED_SOLVERS)
def test_compiled_backend_fills_the_whole_table(monkeypatch, fills, name):
    monkeypatch.setattr(kernels, "BACKEND", "compiled")
    for search in SEARCHES.values():
        monkeypatch.setattr(kernels, search, None)  # a search would fail
    solver, kernel, _ = SEARCHED_SOLVERS[name]
    g = sparse_graph(13, 5)
    assert _searched_by_the_rule(g)
    cert = solver(g)
    assert (cert.value, cert.ordering.order) == _table_order(name, g)
    assert fills == {kernel: 1}


@pytest.mark.parametrize("name", SEARCHED_SOLVERS)
def test_a_repeat_solve_runs_no_search(monkeypatch, name):
    g = sparse_graph(14, 7)
    assert _searched_by_the_rule(g)
    monkeypatch.setattr(kernels, "BACKEND", "pure-python")
    solver = SEARCHED_SOLVERS[name][0]
    first = solver(g)
    for search in SEARCHES.values():
        monkeypatch.setattr(kernels, search, None)  # a second search would fail
    again = solver(g)
    assert (again.value, again.ordering) == (first.value, first.ordering)


@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(st.integers(0, 12), min_size=1 << n, max_size=1 << n)
    )
)
@example([3])
@example([2, 0])
@example([0, 5])
@example([1, 4, 2, 0])
def test_settle_equals_the_per_pair_oracle(bound):
    """On any bound table, graph-derived or not, the block-wise min loop
    with t[S - top] first gives the table of every pair (S, v)."""
    assert _pure._settle(list(bound)) == oracles.settle(bound)


@given(graphs(min_vertices=0, max_vertices=9))
@example(Graph(0))
@example(Graph(1))
def test_neighbourhoods_are_the_union_of_the_masks(g):
    masks = _adjacency_masks(g, g.vertices)
    nbrs = _pure._neighbourhoods(masks)
    assert isinstance(nbrs, array) and nbrs.typecode == "I"
    expected = []
    for t in range(1 << g.n):
        union = 0
        for v in range(g.n):
            if t >> v & 1:
                union |= masks[v]
        expected.append(union)
    assert list(nbrs) == expected


def test_elimination_reach_across_eliminated_set():
    # path a-b-c-d as bits 0..3: eliminating b after {c} sees both a and d
    masks = [0b0010, 0b0101, 0b1010, 0b0100]
    assert oracles.elimination_reach_count(masks, 0b0100, 1) == 2
    assert oracles.elimination_reach_count(masks, 0b0000, 1) == 2
    assert oracles.elimination_reach_count(masks, 0b0000, 0) == 1
    assert _pure.treewidth_table(masks) == oracles.treewidth_table(masks)


def test_border_and_cross():
    # triangle plus pendant: bits 0,1,2 triangle, bit 3 attached to 2
    masks = [0b0110, 0b0101, 0b1011, 0b0100]
    assert _pure.cross_size(masks, 0b0011) == 2
    assert _pure.cross_size(masks, 0b1111) == 0


# The four memoised solvers: the kernel each solves, the vertices its masks
# run over, its backtrack cost spelled out again, and its (value, ordering).
MEMOISED = {
    "treewidth": (
        exact_treewidth,
        "treewidth_table",
        lambda g: g.vertices,
        lambda masks, table, s, v: oracles.elimination_reach_count(masks, s ^ (1 << v), v),
        lambda r: (r.width, r.certificate.ordering),
    ),
    "pathwidth": (
        exact_pathwidth,
        "vertex_separation_table",
        lambda g: g.vertices,
        lambda masks, table, s, v: table[s],
        lambda r: (r.width, r.ordering),
    ),
    "cutwidth": (
        cutwidth,
        "cutwidth_table",
        Graph.non_isolated_vertices,
        lambda masks, table, s, v: table[s],
        lambda r: (r.value, r.ordering.order),
    ),
    "path-congestion": (
        min_path_congestion,
        "path_congestion_table",
        Graph.non_isolated_vertices,
        lambda masks, table, s, v: _pure.cross_size(masks, s) + (masks[v] & s).bit_count(),
        lambda r: (r.value, r.ordering.order),
    ),
}


@given(graphs(min_vertices=1, max_vertices=8))
@example(Graph(1))
@example(Graph(5, [(2, 3), (3, 4), (2, 4)]))
def test_memo_is_transparent(g):
    """Cold and warm, each solver reads what its table and backtrack give,
    also where several kernels share one masks tuple."""
    direct = {}
    for name, (solver, kernel, vertices, cost, read) in MEMOISED.items():
        verts = tuple(vertices(g))
        if name == "path-congestion" and len(verts) <= 2:
            continue  # no edge, or one edge, which is answered without a kernel
        masks = _adjacency_masks(g, verts)
        table = getattr(kernels, kernel)(masks)
        order = kernels.backtrack(table, len(masks), lambda s, v: cost(masks, table, s, v))
        direct[name] = (table[-1], tuple(verts[b] for b in order))
    solved = {name: (MEMOISED[name][0], MEMOISED[name][4]) for name in direct}
    kernels._fill_and_backtrack.cache_clear()
    for _ in ("cold", "warm"):
        assert {name: read(solver(g)) for name, (solver, read) in solved.items()} == direct


@pytest.mark.parametrize("name", ["cutwidth", "path-congestion"])
def test_memo_hands_each_graph_its_own_vertex_ids(monkeypatch, name):
    solver, kernel, _, _, read = MEMOISED[name]
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (2, 4)])
    shifted = Graph(6, [(3, 4), (4, 5), (5, 6), (4, 6)])  # 1 and 2 isolated: g's masks
    value, order = read(solver(g))
    monkeypatch.setattr(kernels, kernel, None)  # a second fill would fail
    assert read(solver(shifted)) == (value, tuple(v + 2 for v in order))
    assert read(solver(g)) == (value, order)


@pytest.fixture
def fills(monkeypatch):
    """Fills per kernel, counted by wrappers set on linewidth.kernels."""
    counts = Counter()
    for name in KERNELS:
        real = getattr(kernels, name)

        def counted(masks, *args, real=real, name=name):
            counts[name] += 1
            return real(masks, *args)

        monkeypatch.setattr(kernels, name, counted)
    return counts


def test_repeat_solves_reuse_the_memo_until_it_is_full(fills):
    g = Graph(7, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (6, 7), (2, 7)])
    exact_treewidth(g)
    exact_pathwidth(g)
    cutwidth(g)
    fills.clear()
    bounds_report(g)
    assert fills == {}
    min_path_congestion(g)
    fills.clear()
    min_tree_congestion(g)
    assert fills == {"tree_congestion_table": 1}
    others = [path_graph(n) for n in range(4, 4 + kernels.SOLVE_MEMO_SIZE // 4 + 1)]
    for other in others:
        for solver, *_ in MEMOISED.values():
            solver(other)
    fills.clear()
    for solver, *_ in MEMOISED.values():
        solver(g)
    assert fills == dict.fromkeys(KERNELS[:4], 1)


@pytest.mark.parametrize(
    "solver, limit, name",
    [
        (exact_treewidth, SOLVER_LIMIT, "treewidth"),
        (exact_pathwidth, SOLVER_LIMIT, "pathwidth"),
        (cutwidth, PATH_SOLVER_LIMIT, "cutwidth"),
        (min_path_congestion, PATH_SOLVER_LIMIT, "path congestion"),
        (min_tree_congestion, TREE_CONGESTION_LIMIT, "tree congestion"),
    ],
)
def test_solvers_refuse_before_masks_or_fills(monkeypatch, solver, limit, name):
    """One vertex above its limit, each solver names itself, and no mask is
    built and no table filled on the way."""

    def fail(*args):
        raise AssertionError("reached past the limit check")

    for attr in KERNELS + tuple(SEARCHES.values()) + ("_adjacency_masks",):
        monkeypatch.setattr(kernels, attr, fail)
    with pytest.raises(SolverLimitError, match=f"^{name} solver: instance size {limit + 1} "):
        solver(path_graph(limit + 1))


def test_a_negative_limit_is_refused_by_name():
    # even the empty instance, which no limit of 0 or more refuses
    with pytest.raises(DomainError) as info:
        cutwidth(Graph(0), max_vertices=-1)
    assert str(info.value) == "cutwidth solver: the limit must be at least 0, got -1"
    assert not isinstance(info.value, SolverLimitError)
