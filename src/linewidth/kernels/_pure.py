"""Pure-Python subset-DP kernels over bitmask adjacency.

Each kernel takes ``masks`` (``masks[i]`` is the neighbour bitmask of
vertex i) and fills a table over every vertex subset S in 0..2^n-1; t[full]
is the answer.  The four ordering kernels fill

    t[S] = min over v in S of max(t[S-v], c(S, v)),

where S is placed (or eliminated) first and v last in S.  No kernel
recomputes its cost c for each pair (S, v):

* ``treewidth_table``: c(S, v) is the degree of v when eliminated after
  S-v.  Every v in a component C of G[S] sees exactly N(C) - S, so c is one
  ``component_reach`` per component.  t[full] is the treewidth.
* ``vertex_separation_table``: c(S) is the number of vertices of S with a
  neighbour outside S, counted inline.  t[full] is the pathwidth.
* ``cutwidth_table``: c(S) = cut(S), the number of edges leaving S.
* ``path_congestion_table``: c(S, v) = cut(S) + |N(v) & S|, the edges
  covering position |S| with v there.  t[full] is pw(L(G)) + 1 for the
  graph restricted to the placed vertices.

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


def treewidth_table(masks):
    n = _check(masks)
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = _BIG
        rest = s
        while rest:
            comp, reach = component_reach(masks, s, (rest & -rest).bit_length() - 1)
            rest &= ~comp
            prior = _BIG
            while comp:
                low = comp & -comp
                comp ^= low
                prev = table[s ^ low]
                if prev < prior:
                    prior = prev
            cand = prior if prior > reach else reach
            if cand < best:
                best = cand
        table[s] = best
    return table


def vertex_separation_table(masks):
    n = _check(masks)
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = _BIG
        border = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            if masks[low.bit_length() - 1] & ~s:
                border += 1
            prev = table[s ^ low]
            if prev < best:
                best = prev
        table[s] = best if best > border else border
    return table


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
    table = _cut_size_table(masks)
    for s in range(1, len(table)):
        cut = table[s]
        best = _BIG
        rest = s
        while rest and best > cut:  # once some t[S-v] <= cut(S), t[S] is cut(S)
            low = rest & -rest
            rest ^= low
            prev = table[s ^ low]
            if prev < best:
                best = prev
        table[s] = best if best > cut else cut
    return table


def path_congestion_table(masks):
    table = _cut_size_table(masks)
    for s in range(1, len(table)):
        cut = table[s]
        best = _BIG
        rest = s
        while rest:
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
