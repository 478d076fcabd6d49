"""Solver kernels: compiled extension when available, pure Python otherwise.

``BACKEND`` records which implementation was selected at import time.
``backends()`` exposes every importable implementation so the benchmark can
compare them; the tests build and load the compiled one themselves.
"""

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

# scalar helpers used for witness reconstruction, independent of backend
elimination_reach_count = _pure.elimination_reach_count
border_size = _pure.border_size
cross_size = _pure.cross_size


def backtrack(table, n: int, cost) -> list[int]:
    """Vertex bits of an optimal ordering, first to last, read back from a
    subset-DP table with table[S] = min over v in S of max(table[S-v],
    cost(S, v)).  Walking down from the full set, the lowest bit v that
    attains table[S] is placed last in S, so the ordering is deterministic."""
    order = []
    s = (1 << n) - 1
    while s:
        target = int(table[s])
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if max(int(table[s ^ low]), cost(s, v)) == target:
                order.append(v)
                s ^= low
                break
    order.reverse()
    return order


def backends() -> dict:
    """All importable kernel implementations, keyed by name."""
    found = {"pure-python": _pure}
    try:
        from linewidth.kernels import _core

        found["compiled"] = _core
    except ImportError:
        pass
    return found
