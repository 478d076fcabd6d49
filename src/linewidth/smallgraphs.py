"""Exhaustive and random small-graph suites used by the verification runs."""

from __future__ import annotations

import heapq
import random
from itertools import combinations, permutations

from linewidth.graphs import DomainError, Graph, is_connected

ENUMERATION_LIMIT = 6


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism, as canonical
    representatives (minimum edge-set bitmask over vertex permutations),
    sorted by edge count then bitmask."""
    if n < 1:
        raise DomainError("n must be positive")
    if n > ENUMERATION_LIMIT:
        raise DomainError(
            f"exhaustive enumeration is limited to {ENUMERATION_LIMIT} vertices"
        )
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    # how each permutation re-maps the edge-slot bits
    slot_maps = []
    for perm in permutations(range(n)):
        slot_maps.append(
            tuple(index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
        )
    found = []
    for mask in range(1 << len(pairs)):
        canonical = True
        for slots in slot_maps:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                image |= 1 << slots[low.bit_length() - 1]
            if image < mask:
                canonical = False
                break
        if not canonical:
            continue
        g = Graph(n, [(a + 1, b + 1) for i, (a, b) in enumerate(pairs) if mask >> i & 1])
        if is_connected(g):
            found.append((g.edge_count, mask, g))
    return [g for _, _, g in sorted(found, key=lambda t: t[:2])]


def exhaustive_suite(max_n: int = 5) -> list[Graph]:
    """All connected graphs on 2..max_n vertices; max_n = 1 gives none."""
    if max_n < 1:
        raise DomainError("largest vertex count must be positive")
    out = []
    for n in range(2, max_n + 1):
        out.extend(connected_graphs(n))
    return out


def random_graph(rng: random.Random) -> Graph:
    """Uniformish graph with 2..8 vertices and 1..10 edges; may be
    disconnected and may contain isolated vertices."""
    n = rng.randint(2, 8)
    pairs = list(combinations(range(1, n + 1), 2))
    m = rng.randint(1, min(10, len(pairs)))
    return Graph(n, rng.sample(pairs, m))


def random_suite(count: int = 100, seed: int = 2024) -> list[Graph]:
    if count < 0:
        raise DomainError("random graph count must be nonnegative")
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labelled tree on n >= 1 vertices via a random parent code."""
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(1, 2)])
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    last = sorted(leaves)
    edges.append((last[0], last[1]))
    return Graph(n, edges)
