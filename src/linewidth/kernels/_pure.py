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
  t[S] = max(t[C], t[S-C]).  Where it is, every v costs |N(S) - S|.  The
  same ascending pass fills two more tables, with no search.  With h the
  highest vertex of S, N(S) = N(S-h) | N(h), and comp[S] = C is comp[S-h]
  if h has no neighbour there; else it is comp[S-h] + h and every
  component of G[S-h] that N(h) touches, peeled off the rest R in
  lowest-vertex order as comp[R] until N(h) & R is spent.  t[full] is the
  treewidth.
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
for the graph restricted to the placed vertices.  Given a ``cap`` (by
default none), it fills t'[S] = min(t[S], cap) with less work: every
split's node term is cut(S) + e(A, B), never below cut(S), so a subset
with cut(S) >= cap gets cap with no split loop, and any other starts its
loop at cap and stops once the best is cut(S).  Capping commutes with min
and max, so every entry below the cap is exact.  ``min_tree_congestion``
passes the path congestion, which bounds it from above since a caterpillar
is a tree, so the last entry is still the answer.

The last three first fill a table with cut(S) = cut(S-u) + deg u -
2|N(u) & S|, u the lowest vertex of S; cutwidth and path congestion
overwrite it in place.  ``_core`` mirrors these kernels bit for bit.

``cutwidth_search`` and ``path_congestion_search`` have no ``_core``
twin.  Each returns its kernel's table restricted to the subsets that can
lie on an optimal ordering, those with t[S] <= opt (the cutwidth or
pcon), as a dict that reads ``_BIG`` for any other subset.  They share one
loop, layer by layer in |S| under a threshold k; a pass keeps t[S] in
one table and cut(S) for one layer.  Each v outside S offers S + v the
candidate max(t[S], c), with cut(S+v) = cut(S) + deg v - 2|N(v) & S|, so
no cut table is filled: c = cut(S+v) for cutwidth and c = cut(S+v) +
|N(v) & S| for path congestion.  S + v keeps the least candidate that is
at most k.  By induction on |S| a pass holds exactly the S with t[S] <= k,
each with its exact t[S]: an optimal last v of S leaves S - v with t[S-v]
<= t[S].  k starts at a lower bound on opt: for path congestion the max
degree, as pcon >= deg v at v's position; for cutwidth ceil(max degree /
2), as the edges of v cross the gap before v or the gap after it, so one
of the two carries at least half of them.  A pass that misses the full
set has proved opt > k, and every optimal ordering then first goes above
k with a candidate that pass met, so the next pass runs at the least
candidate above k it met; the first pass that reaches the full set runs
at k = opt.  ``kernels.backtrack`` reads the result unchanged and gives
the same ordering as from the full table: it only accepts t[S-v] <= t[S]
<= opt (with no cost for cutwidth, as cut(S) <= t[S]), so it passes over
a missing S - v exactly as over the full table's entry above opt, and
every entry it does accept is the same.
"""

from __future__ import annotations

MAX_KERNEL_VERTICES = 25

_BIG = 1 << 30


def _check(masks) -> int:
    n = len(masks)
    if n > MAX_KERNEL_VERTICES:
        raise ValueError(f"kernels support at most {MAX_KERNEL_VERTICES} vertices")
    return n


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
    from array import array

    n = _check(masks)
    nbrs = array("I", [0]) * (1 << n)  # nbrs[S] = N(S), the union of S's masks
    comp = array("I", [0]) * (1 << n)  # comp[S]: the component of S's lowest vertex in G[S]
    table = [0] * (1 << n)
    for h in range(n):  # S = top + below runs through [top, 2 top) in ascending order
        top = 1 << h
        nb = masks[h]
        for below in range(top):
            s = top | below
            nbrs[s] = nbrs[below] | nb
            c = comp[below]
            touch = nb & below
            if not below or touch & c:  # S is {top}, or top joins the lowest vertex's component
                rest = below ^ c
                touch &= rest
                c |= top
                while touch:  # and every other component of G[below] it touches
                    d = comp[rest]
                    rest ^= d
                    if d & touch:
                        c |= d
                        touch &= rest
            comp[s] = c
            if c != s:  # t[S] is the larger of t over the lowest component and the rest
                a = table[c]
                b = table[s ^ c]
                table[s] = a if a > b else b
                continue
            reach = (nbrs[s] & ~s).bit_count()
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


def tree_congestion_table(masks, cap=_BIG):
    if cap < 0:
        raise ValueError("cap must be at least 0")
    cut = _cut_size_table(masks)
    table = [0] * len(cut)
    for s in range(1, len(table)):
        low = s & -s
        rest = s ^ low
        cut_s = cut[s]
        # a singleton's deg v is cut(S); every split costs at least cut(S)
        if not rest or cut_s >= cap:
            table[s] = cut_s if cut_s < cap else cap
            continue
        best = cap
        part = rest
        while part and best > cut_s:  # B = part, A = s - part holds the lowest vertex
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


class _Threshold(dict):
    """Table entries for some subsets; every other subset reads _BIG."""

    def __missing__(self, s):
        return _BIG


def _threshold_search(masks, drop, k):
    """The entries t[S] <= opt of the ordering table whose candidate for
    S + v is max(t[S], cut(S) + deg v - drop * |N(v) & S|), searched from
    the threshold k <= opt up."""
    full = (1 << len(masks)) - 1
    verts = [(1 << v, m, m.bit_count()) for v, m in enumerate(masks)]
    while True:
        table = _Threshold({0: 0})  # t[S] for every S the pass has reached
        get = table.get
        cut_of = {0: 0}  # cut(S) for the S of the current size
        over = _BIG  # the least candidate above k met
        while cut_of:
            nc = {}
            for s, cut in cut_of.items():
                t = table[s]
                for low, m, d in verts:
                    if s & low:
                        continue
                    inside = (m & s).bit_count()
                    cand = cut + d - drop * inside
                    if cand > k:
                        if cand < over:
                            over = cand
                        continue
                    if cand < t:
                        cand = t
                    ns = s | low
                    if cand < get(ns, _BIG):
                        table[ns] = cand
                        nc[ns] = cut + d - 2 * inside
            cut_of = nc
        if full in table:
            return table
        k = over


def _max_degree(masks) -> int:
    return max((m.bit_count() for m in masks), default=0)


def cutwidth_search(masks):
    # the candidate is cut(S+v); v's edges cross the gap before v or the one
    # after it, so cw >= ceil(max degree / 2)
    return _threshold_search(masks, 2, (_max_degree(masks) + 1) // 2)


def path_congestion_search(masks):
    # the candidate is cut(S+v) + |N(v) & S|; pcon >= deg v at v's position
    return _threshold_search(masks, 1, _max_degree(masks))
