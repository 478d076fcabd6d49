import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given

import oracles
from conftest import graphs
from linewidth import kernels
from linewidth.bounds import bounds_report
from linewidth.congestion import cutwidth, min_path_congestion, min_tree_congestion
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import Graph, _adjacency_masks, complete_graph, path_graph
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


@given(graphs(min_vertices=0, max_vertices=9))
@example(Graph(0))
@example(Graph(1))
@example(Graph(9))
@example(sparse_graph(12, 1))
@example(sparse_graph(13, 2))
@example(sparse_graph(14, 3))
def test_backends_agree(compiled_core, g):
    masks = _adjacency_masks(g, g.vertices)
    for name in KERNELS:
        assert list(getattr(compiled_core, name)(masks)) == getattr(_pure, name)(masks)


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


def test_elimination_reach_across_eliminated_set():
    # path a-b-c-d as bits 0..3: eliminating b after {c} sees both a and d
    masks = [0b0010, 0b0101, 0b1010, 0b0100]
    assert _pure.component_reach(masks, 0b0110, 1) == (0b0110, 2)
    assert _pure.component_reach(masks, 0b0010, 1) == (0b0010, 2)
    assert _pure.component_reach(masks, 0b0001, 0) == (0b0001, 1)


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
        lambda masks, table, s, v: _pure.component_reach(masks, s, v)[1],
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
    kernels.solve.cache_clear()
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

        def counted(masks, real=real, name=name):
            counts[name] += 1
            return real(masks)

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
