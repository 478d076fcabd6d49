"""Pure-Python subset-DP kernels over bitmask adjacency.

Each kernel takes ``masks`` (``masks[i]`` is the neighbour bitmask of
vertex i) and fills a table over every vertex subset S in 0..2^n-1; t[full]
is the answer.  The four ordering kernels fill

    t[S] = min over v in S of max(t[S-v], c(S, v)),

where S is placed (or eliminated) first and v last in S.  Each cost has a
lower bound that depends on S alone, and the min loop over v stops once the
best candidate so far meets it, as no other v gives less.  Where the cost
is the bound, t[S] = max(bound(S), min over v of t[S-v]): those kernels
fill their bound table and ``_settle`` runs the one min loop over it.

* ``vertex_separation_table``: bound(S) is the border of S, the vertices
  of S with a neighbour outside.  With T = full - S it is |N(T) - T|, set
  by the loop that fills the neighbourhoods N(T).  t[full] is the pathwidth.
* ``cutwidth_table``: bound(S) = cut(S), the number of edges leaving S.
* ``treewidth_table``: c(S, v) is the degree of v when eliminated after
  S-v, |N(C) - S| for the component C of v in G[S].  That cost reads only
  the part of the ordering inside C, so t[S] is the largest t over the
  components of G[S]: where the component C of S's lowest vertex is not S,
  t[S] = max(t[C], t[S-C]), read in the same ascending pass.  Where it is,
  every v costs |N(S) - S|, from the same ``component_reach``.  t[full] is
  the treewidth.
* ``path_congestion_table``: c(S, v) = cut(S) + |N(v) & S|, the edges
  covering position |S| with v there, never below cut(S).  t[full] is
  pw(L(G)) + 1 for the graph restricted to the placed vertices.  It is the
  one cost that can exceed t[S], so the only one an ordering is read back
  with (``kernels.backtrack``).

``tree_congestion_table`` splits instead of ordering: t[{v}] = deg v and

    t[S] = min over S = A + B of max(t[A], t[B], (cut(A) + cut(B) + cut(S))/2),

A holding the lowest vertex of S.  The last term counts the edges through
a tree node whose three branches hold A, B and the rest, so t[full] is the
least vertex congestion of a leaf embedding into a cubic tree, tw(L(G)) + 1
for the graph restricted to the placed vertices.

The last three first fill a table with cut(S) = cut(S-u) + deg u -
2|N(u) & S|, u the lowest vertex of S; cutwidth and path congestion
overwrite it in place.  ``_core`` mirrors these kernels bit for bit.
"""

from __future__ import annotations

MAX_KERNEL_VERTICES = 25

_BIG = 1 << 30


def _check(masks) -> int:
    n = len(masks)
    if n > MAX_KERNEL_VERTICES:
        raise ValueError(f"kernels support at most {MAX_KERNEL_VERTICES} vertices")
    return n


def component_reach(masks, s: int, v: int) -> tuple[int, int]:
    """The component C of v in G[s] as a bitmask, and |N(C) - s|: the
    degree of v, or of any vertex of C, when eliminated after s minus it."""
    comp = 0
    seen = 0
    frontier = 1 << v
    while frontier:
        comp |= frontier
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= masks[low.bit_length() - 1]
        seen |= grown
        frontier = grown & s & ~comp
    return comp, (seen & ~s).bit_count()


def cross_size(masks, s: int) -> int:
    """Edges with exactly one endpoint in s."""
    count = 0
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        count += (masks[low.bit_length() - 1] & ~s).bit_count()
    return count


def _settle(table):
    """Turn table[S] = bound(S) into t[S] = max(bound(S), min over v in S
    of t[S-v]), in place and in ascending S, and return it."""
    for s in range(1, len(table)):
        bound = table[s]
        best = _BIG
        rest = s
        while rest and best > bound:  # once some t[S-v] <= bound(S), t[S] is bound(S)
            low = rest & -rest
            rest ^= low
            prev = table[s ^ low]
            if prev < best:
                best = prev
        if best > bound:
            table[s] = best
    return table


def treewidth_table(masks):
    n = _check(masks)
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        comp, reach = component_reach(masks, s, (s & -s).bit_length() - 1)
        if comp != s:  # t[S] is the larger of t over the lowest component and the rest
            a = table[comp]
            b = table[s ^ comp]
            table[s] = a if a > b else b
            continue
        best = _BIG
        rest = s
        while rest and best > reach:  # every vertex of a connected S costs reach
            low = rest & -rest
            rest ^= low
            prev = table[s ^ low]
            if prev < best:
                best = prev
        table[s] = best if best > reach else reach
    return table


def vertex_separation_table(masks):
    from array import array

    n = _check(masks)
    full = (1 << n) - 1
    nbrs = array("I", [0]) * (1 << n)  # nbrs[T] = N(T), the union of T's masks
    table = [0] * (1 << n)
    for t in range(1, 1 << n):
        low = t & -t
        nb = nbrs[t ^ low] | masks[low.bit_length() - 1]
        nbrs[t] = nb
        table[full ^ t] = (nb & ~t).bit_count()  # border(S) = |N(T) - T| for S = full - T
    return _settle(table)


def _cut_size_table(masks):
    """table[S] = cut(S) for every subset S, from cut(S - lowest vertex)."""
    n = _check(masks)
    degree = [m.bit_count() for m in masks]
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        u = low.bit_length() - 1
        table[s] = table[s ^ low] + degree[u] - 2 * (masks[u] & s).bit_count()
    return table


def cutwidth_table(masks):
    return _settle(_cut_size_table(masks))


def path_congestion_table(masks):
    table = _cut_size_table(masks)
    for s in range(1, len(table)):
        cut = table[s]
        best = _BIG
        rest = s
        while rest and best > cut:  # every candidate is at least cut(S)
            low = rest & -rest
            rest ^= low
            prev = table[s ^ low]
            if prev >= best:
                continue
            at_v = cut + (masks[low.bit_length() - 1] & s).bit_count()
            cand = prev if prev > at_v else at_v
            if cand < best:
                best = cand
        table[s] = best
    return table


def tree_congestion_table(masks):
    cut = _cut_size_table(masks)
    table = cut[:]  # the singletons: t[{v}] = cut({v}) = deg v
    for s in range(1, len(table)):
        low = s & -s
        rest = s ^ low
        if not rest:
            continue
        cut_s = cut[s]
        best = _BIG
        part = rest
        while part:  # B = part, A = s - part holds the lowest vertex
            other = s ^ part
            a = table[other]
            b = table[part]
            if a < best and b < best:
                node = (cut[other] + cut[part] + cut_s) >> 1
                cand = a if a > b else b
                if node > cand:
                    cand = node
                if cand < best:
                    best = cand
            part = (part - 1) & rest
        table[s] = best
    return table
