"""Exact treewidth and pathwidth solvers (independent oracles).

Treewidth is computed by subset dynamic programming over elimination
orderings; pathwidth by the vertex-separation subset DP.  Both emit
decompositions of exactly the reported width so the results can be checked
by the decomposition validator, and the treewidth solver additionally
returns its elimination ordering as a replayable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from linewidth import kernels
from linewidth.decompositions import (
    PathDecomposition,
    SUBJECT_GRAPH,
    TreeDecomposition,
)
from linewidth.graphs import DomainError, Graph, _adjacency_masks

SOLVER_LIMIT = 20


@dataclass(frozen=True)
class EliminationCertificate:
    """Vertex elimination ordering and the width it achieves."""

    ordering: tuple[int, ...]
    width: int

    def simulate(self, g: Graph) -> int:
        """Replay the elimination: connect each vertex's remaining
        neighbours into a clique, record the largest neighbourhood."""
        adj = {v: set(g.neighbors(v)) for v in g.vertices}
        worst = 0
        for v in self.ordering:
            nb = adj[v]
            worst = max(worst, len(nb))
            for a in nb:
                adj[a].discard(v)
                adj[a].update(nb - {a})
            del adj[v]
        return worst


@dataclass(frozen=True)
class TreewidthResult:
    width: int
    certificate: EliminationCertificate
    decomposition: TreeDecomposition


@dataclass(frozen=True)
class PathwidthResult:
    width: int
    decomposition: PathDecomposition
    ordering: tuple[int, ...]


def _prepare(g: Graph, max_vertices: int, what: str):
    if g.n == 0:
        raise DomainError(f"{what} is undefined for the empty graph")
    kernels.check_limit(f"{what} solver", g.n, max_vertices)
    return _adjacency_masks(g, g.vertices)


def exact_treewidth(g: Graph, max_vertices: int = SOLVER_LIMIT) -> TreewidthResult:
    masks = _prepare(g, max_vertices, "treewidth")
    table = kernels.treewidth_table(masks)
    tw = table[-1]
    order = kernels.backtrack(table, g.n, lambda s, v: kernels.component_reach(masks, s, v)[1])
    ordering = tuple(v + 1 for v in order)
    cert = EliminationCertificate(ordering, tw)
    if cert.simulate(g) != tw:  # internal consistency; never expected
        raise DomainError("elimination replay disagrees with the DP table")
    return TreewidthResult(tw, cert, _decomposition_from_elimination(g, ordering))


def _decomposition_from_elimination(g: Graph, ordering) -> TreeDecomposition:
    """Standard fill-in construction: the bag of v is v plus its neighbours
    at elimination time; v's bag hangs off the bag of its earliest-eliminated
    fill neighbour.  Bags contained in their parent are contracted away."""
    pos = {v: i for i, v in enumerate(ordering)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    raw_bags: dict[int, frozenset[int]] = {}
    for v in ordering:
        nb = adj[v]
        raw_bags[v] = frozenset(nb | {v})
        for a in nb:
            adj[a].discard(v)
            adj[a].update(nb - {a})
        del adj[v]
    root = ordering[-1]
    parent: dict[int, int] = {}
    for v in ordering[:-1]:
        later = [w for w in raw_bags[v] if w != v]
        parent[v] = min(later, key=lambda w: pos[w]) if later else root
    # contract bags that are subsets of their parent's bag
    alive = dict(raw_bags)
    anchor = dict(parent)
    for v in ordering[:-1]:
        p = anchor[v]
        while p not in alive:
            p = anchor[p]
        if alive[v] <= alive[p]:
            del alive[v]
        else:
            anchor[v] = p
    remap = {v: i for i, v in enumerate(sorted(alive, key=lambda w: pos[w]), start=1)}
    edges = []
    for v in alive:
        if v == root:
            continue
        p = anchor[v]
        while p not in alive:
            p = anchor[p]
        edges.append((remap[v], remap[p]))
    bags = {remap[v]: alive[v] for v in alive}
    return TreeDecomposition(remap.values(), edges, bags, SUBJECT_GRAPH)


def exact_pathwidth(g: Graph, max_vertices: int = SOLVER_LIMIT) -> PathwidthResult:
    masks = _prepare(g, max_vertices, "pathwidth")
    table = kernels.vertex_separation_table(masks)
    pw = table[-1]
    order_bits = kernels.backtrack(table, g.n, lambda s, v: table[s])
    ordering = tuple(b + 1 for b in order_bits)
    # bag i = v_i plus the prefix vertices that still have later neighbours
    bags: list[frozenset[int]] = []
    prefix = 0
    for b in order_bits:
        bag = {b + 1}
        rest = prefix
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if masks[u] & ~prefix:
                bag.add(u + 1)
        bags.append(frozenset(bag))
        prefix |= 1 << b
    cleaned: list[frozenset[int]] = []
    for bag in bags:
        while cleaned and cleaned[-1] <= bag:
            cleaned.pop()
        if cleaned and bag <= cleaned[-1]:
            continue
        cleaned.append(bag)
    dec = PathDecomposition(cleaned, SUBJECT_GRAPH)
    return PathwidthResult(pw, dec, ordering)
