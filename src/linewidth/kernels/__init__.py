"""Solver kernels: compiled extension when available, pure Python otherwise.

``BACKEND`` records which implementation was selected at import time, and
``backends()`` maps it and the pure one to their modules, so the benchmark
can compare them; the tests build and load the compiled one themselves.

The solvers pass a graph and a vertex list and get vertex ids back; the
bitmask encoding stays in this package.  ``solve(g, vertices, solver,
max_vertices)`` is how the exact solvers reach the four ordering kernels:
it refuses an instance above the limit before it builds any mask, fills
the solver's table, backtracks it and maps the ordering's bits back to the
given vertices.  Only path congestion passes its cost to ``backtrack``;
the other three costs never exceed t[S].  The fill and backtrack are
memoised on the kernel name and the masks tuple, which are all a fill
reads, so a repeat solve soon after the first (``bounds_report`` after the
solvers, ``verify theorems``, the path incumbent of
``min_tree_congestion``) fills nothing.  The key is the masks, not the
graph, so two graphs with the same masks share an entry and each gets its
own ids back.  The memo holds SOLVE_MEMO_SIZE results and no table.

That incumbent pcon is also the cap of ``tree_congestion(g, vertices,
cap)``: con <= pcon, as a caterpillar is a tree, and the split DP fills
min(t[S], cap), exact below the cap, so its last entry is con.  The tree
table is not memoised.  ``benchmarks/bench_kernels.py`` and the backend
cross-check in the tests call the table functions of a backend directly.

Cutwidth and path congestion each have two ways in.  On the pure
backend, on a graph of at least SEARCH_MIN_VERTICES placed vertices with
at most SEARCH_MAX_DENSITY percent of their pairs joined, ``solve`` runs
``cutwidth_search`` or ``path_congestion_search``, which visit only the
subsets S with t[S] <= the optimum and give the same value and
backtracked ordering as the full table (the argument is in ``_pure``).
Otherwise, and always on the compiled backend, it fills the whole table.
The choice reads only n, the edge count and the backend.  The crossover,
fill plus backtrack over search plus backtrack, medians of 10 seeded
G(n, m) per n and density (2-CPU machine, Python 3.11): at density
0.3-0.5 the search wins by 0.8-1.5x at n = 10-11 and 1.0-5.0x at
n = 12-16, least for cutwidth at 0.5; at 0.6 it wins by 1.1-1.9x for path
congestion from n = 12 on, while for cutwidth the fill wins by 1.2-1.4x at
n = 12-15; at 0.7 the fill wins by 1.4-2x for cutwidth and runs about
even for path congestion (0.8-1.2x), at 0.8 it wins by 1.4-2.8x, and on
K_n by 3x (path congestion) and 6-8x (cutwidth), as almost every subset
lies within the optimum there.  One limit serves both kernels, and a lower
one would win at most 1.4x on cutwidth at 0.6 but lose up to 1.9x on path
congestion, so the limits stay.  Below 12 vertices the fill stays, as it
takes a few milliseconds there.  At density 1/3 and n = 16-20 the compiled
fill beats the pure search by 2.7-4.4x (path congestion) and 9-19x
(cutwidth).
"""

from functools import lru_cache

from linewidth.graphs import DomainError, Graph, SolverLimitError, _adjacency_masks
from linewidth.kernels import _pure

try:  # compiled extension is optional
    from linewidth.kernels import _core as _impl

    BACKEND = "compiled"
except ImportError:
    _impl = _pure
    BACKEND = "pure-python"

MAX_KERNEL_VERTICES = _pure.MAX_KERNEL_VERTICES

treewidth_table = _impl.treewidth_table
vertex_separation_table = _impl.vertex_separation_table
cutwidth_table = _impl.cutwidth_table
path_congestion_table = _impl.path_congestion_table
tree_congestion_table = _impl.tree_congestion_table
cutwidth_search = _pure.cutwidth_search
path_congestion_search = _pure.path_congestion_search

# the pure backend searches, in place of the cutwidth and path congestion
# fills, on graphs of at least this many placed vertices with at most this
# percentage of their vertex pairs joined; the compiled one always fills
SEARCH_MIN_VERTICES = 12
SEARCH_MAX_DENSITY = 60

# the pure backend's search for each kernel that has one
_SEARCHES = {
    "cutwidth_table": "cutwidth_search",
    "path_congestion_table": "path_congestion_search",
}


def check_limit(what: str, size: int, max_vertices: int) -> None:
    """Raise SolverLimitError when size exceeds max_vertices or
    MAX_KERNEL_VERTICES, whichever is smaller, so that no solver limit lets
    an instance reach the kernels' own ValueError.  A negative max_vertices
    is refused first, as a DomainError naming the limit."""
    if max_vertices < 0:
        raise DomainError(f"{what}: the limit must be at least 0, got {max_vertices}")
    limit = min(max_vertices, MAX_KERNEL_VERTICES)
    if size > limit:
        raise SolverLimitError(what, size, limit)


def backtrack(table, n: int, cost=None) -> list[int]:
    """Vertex bits of an optimal ordering, first to last, read back from a
    subset-DP table with table[S] = min over v in S of max(table[S-v],
    cost(S, v)).  Every candidate is at least table[S], so v attains it
    exactly when table[S-v] <= table[S] and cost(S, v) <= table[S].  With
    no cost the second test is skipped; that is right where c(S, v) never
    exceeds table[S], as for a cost that is the kernel's bound on S, or the
    treewidth cost |N(C) - S| = |N(C) - C| <= t[C] <= t[S] for the
    component C of v in G[S].  The lowest such v is placed last in S, so
    the ordering is deterministic."""
    order = []
    s = (1 << n) - 1
    while s:
        target = table[s]
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if table[s ^ low] <= target and (cost is None or cost(s, v) <= target):
                order.append(v)
                s ^= low
                break
    order.reverse()
    return order


# the ordering kernel of each solver, keyed by the name its refusal gives
_SOLVER_KERNELS = {
    "treewidth": "treewidth_table",
    "pathwidth": "vertex_separation_table",
    "cutwidth": "cutwidth_table",
    "path congestion": "path_congestion_table",
}

# holds the four ordering kernels of the last four graphs: the repeat solves
# of a graph (its bound report, the path incumbent) follow its first ones
SOLVE_MEMO_SIZE = 16


def solve(g: Graph, vertices, solver: str, max_vertices: int) -> tuple[int, tuple[int, ...]]:
    """The optimum of the named solver's ordering kernel on g restricted to
    vertices, and an optimal ordering of those vertices, first to last.
    Raises SolverLimitError, naming the solver, before any mask is built."""
    check_limit(f"{solver} solver", len(vertices), max_vertices)
    masks = tuple(_adjacency_masks(g, vertices))
    value, order = _fill_and_backtrack(_SOLVER_KERNELS[solver], masks)
    return value, tuple(vertices[b] for b in order)


@lru_cache(maxsize=SOLVE_MEMO_SIZE)
def _fill_and_backtrack(kernel: str, masks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The optimum of the named ordering kernel on masks and the vertex bits
    of an optimal ordering, first to last.  The table is looked up on this
    module at each call, so a kernel replaced here is the one that runs;
    on the pure backend a cutwidth or path congestion table of at least
    SEARCH_MIN_VERTICES vertices with at most SEARCH_MAX_DENSITY percent of
    their pairs joined is its search's."""
    n = len(masks)
    cost = None
    if kernel == "path_congestion_table":  # c(S, v) = cut(S) + |N(v) & S|
        cost = lambda s, v: _pure.cross_size(masks, s) + (masks[v] & s).bit_count()
    if kernel in _SEARCHES and BACKEND == "pure-python" and n >= SEARCH_MIN_VERTICES:
        twice_m = sum(m.bit_count() for m in masks)
        if 100 * twice_m <= SEARCH_MAX_DENSITY * n * (n - 1):
            kernel = _SEARCHES[kernel]
    table = globals()[kernel](masks)
    return table[(1 << n) - 1], tuple(backtrack(table, n, cost))


def tree_congestion(g: Graph, vertices, cap: int) -> int:
    """min(con, cap) for g restricted to vertices: the last entry of the
    split table capped at cap.  The caller checks the limit."""
    return tree_congestion_table(_adjacency_masks(g, vertices), cap)[-1]


def backends() -> dict:
    """The kernel implementations import found, keyed by name."""
    return {"pure-python": _pure, BACKEND: _impl}
