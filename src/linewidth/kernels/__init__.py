"""Solver kernels: compiled extension when available, pure Python otherwise.

``BACKEND`` records which implementation was selected at import time.
``backends()`` exposes every importable implementation so the benchmark can
compare them; the tests build and load the compiled one themselves.

``solve(kernel, masks)`` is how the exact solvers reach the four ordering
kernels: it fills the named table, backtracks it with that kernel's cost and
keeps only the optimum and the ordering's vertex bits.  It is memoised on
the kernel name and the masks tuple, which are all a fill reads, so a
repeat solve soon after the first (``bounds_report`` after the solvers,
``verify theorems``, the path incumbent of ``min_tree_congestion``) fills
nothing.  The memo holds SOLVE_MEMO_SIZE results and no table.  The key is
the masks, not the graph: callers map the bits back to their own vertex
ids.  ``benchmarks/bench_kernels.py`` and the backend cross-check in the
tests call the table functions of a backend directly and do not go
through it.
"""

from functools import lru_cache

from linewidth.graphs import SolverLimitError
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

# backtrack costs that the table alone does not give, independent of backend
component_reach = _pure.component_reach
cross_size = _pure.cross_size


def check_limit(what: str, size: int, max_vertices: int) -> None:
    """Raise SolverLimitError when size exceeds max_vertices or
    MAX_KERNEL_VERTICES, whichever is smaller, so that no solver limit lets
    an instance reach the kernels' own ValueError."""
    limit = min(max_vertices, MAX_KERNEL_VERTICES)
    if size > limit:
        raise SolverLimitError(what, size, limit)


def backtrack(table, n: int, cost) -> list[int]:
    """Vertex bits of an optimal ordering, first to last, read back from a
    subset-DP table with table[S] = min over v in S of max(table[S-v],
    cost(S, v)).  Walking down from the full set, the lowest bit v that
    attains table[S] is placed last in S, so the ordering is deterministic.
    Where the cost depends on S alone, cost(S, v) = table[S] picks the same
    v, since v attains table[S] exactly when table[S-v] <= table[S]."""
    order = []
    s = (1 << n) - 1
    while s:
        target = table[s]
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if max(table[s ^ low], cost(s, v)) == target:
                order.append(v)
                s ^= low
                break
    order.reverse()
    return order


# The cost c(S, v) that each ordering kernel's recurrence reads, given its
# masks and filled table.  Where it depends on S alone, table[S] stands in.
_COSTS = {
    "treewidth_table": lambda masks, table, s, v: component_reach(masks, s, v)[1],
    "vertex_separation_table": lambda masks, table, s, v: table[s],
    "cutwidth_table": lambda masks, table, s, v: table[s],
    "path_congestion_table": lambda masks, table, s, v: (
        cross_size(masks, s) + (masks[v] & s).bit_count()
    ),
}

# holds the four ordering kernels of the last four graphs: the repeat solves
# of a graph (its bound report, the path incumbent) follow its first ones
SOLVE_MEMO_SIZE = 16


@lru_cache(maxsize=SOLVE_MEMO_SIZE)
def solve(kernel: str, masks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The optimum of the named ordering kernel on masks and the vertex bits
    of an optimal ordering, first to last.  The table is looked up on this
    module at each call, so a kernel replaced here is the one that runs."""
    table = globals()[kernel](masks)
    cost = _COSTS[kernel]
    order = backtrack(table, len(masks), lambda s, v: cost(masks, table, s, v))
    return table[-1], tuple(order)


def backends() -> dict:
    """All importable kernel implementations, keyed by name."""
    found = {"pure-python": _pure}
    try:
        from linewidth.kernels import _core

        found["compiled"] = _core
    except ImportError:
        pass
    return found
