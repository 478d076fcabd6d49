"""Independent brute-force oracles for the solver tests.

Everything here works by plain enumeration (permutations, all labelled
binary trees) and evaluates candidates with code paths separate from the
solvers under test: orderings are scored by direct interval counting and
embeddings by the standalone congestion evaluator.
"""

from collections import deque
from itertools import permutations

from linewidth.congestion import (
    LeafEmbedding,
    LinearOrdering,
    ordering_cutwidth,
    ordering_vertex_congestion,
    vertex_congestion,
)
from linewidth.graphs import Graph


def eliminate(g: Graph, order) -> int:
    """Max neighbourhood size during elimination in the given order."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    worst = 0
    for v in order:
        nb = adj[v]
        worst = max(worst, len(nb))
        for a in nb:
            adj[a].discard(v)
            adj[a].update(nb - {a})
        del adj[v]
    return worst


def brute_treewidth(g: Graph) -> int:
    return min(eliminate(g, order) for order in permutations(g.vertices))


def brute_pathwidth(g: Graph) -> int:
    best = g.n
    verts = list(g.vertices)
    for order in permutations(verts):
        placed = set()
        worst = 0
        for v in order:
            placed.add(v)
            border = sum(1 for u in placed if g.neighbors(u) - placed)
            worst = max(worst, border)
            if worst >= best:
                break
        best = min(best, worst)
    return best


def brute_cutwidth(g: Graph) -> int:
    active = g.non_isolated_vertices()
    if not active:
        return 0
    return min(
        ordering_cutwidth(LinearOrdering(order), g)[0]
        for order in permutations(active)
    )


def brute_path_congestion(g: Graph) -> int:
    active = g.non_isolated_vertices()
    return min(
        ordering_vertex_congestion(LinearOrdering(order), g)[0]
        for order in permutations(active)
    )


def binary_leaf_trees(vertices):
    """All unrooted trees with internal degree 3 whose leaves are labelled
    by `vertices`, grown by subdividing an edge and hanging a new leaf.
    Yields (edges, assignment); node ids are allocated deterministically."""
    verts = list(vertices)
    if len(verts) < 2:
        raise ValueError("need at least two vertices")

    def grow(edges, assignment, next_id, remaining):
        if not remaining:
            yield list(edges), dict(assignment)
            return
        v = remaining[0]
        for a, b in list(edges):
            mid, leaf = next_id, next_id + 1
            new_edges = [e for e in edges if e != (a, b)]
            new_edges += [(min(a, mid), max(a, mid)), (min(b, mid), max(b, mid)), (mid, leaf)]
            assignment[v] = leaf
            yield from grow(new_edges, assignment, next_id + 2, remaining[1:])
            del assignment[v]

    base_edges = [(1, 2)]
    base_assignment = {verts[0]: 1, verts[1]: 2}
    yield from grow(base_edges, base_assignment, 3, verts[2:])


def brute_tree_congestion(g: Graph) -> int:
    """Minimum vertex congestion over every labelled binary tree shape,
    scored by the standalone evaluator."""
    active = list(g.non_isolated_vertices())
    if len(active) == 2:
        e = LeafEmbedding((1, 2), [(1, 2)], {active[0]: 1, active[1]: 2})
        return vertex_congestion(e, g)[0]
    best = None
    for edges, assignment in binary_leaf_trees(active):
        nodes = {n for e in edges for n in e}
        emb = LeafEmbedding(nodes, edges, assignment)
        value = vertex_congestion(emb, g)[0]
        if best is None or value < best:
            best = value
    return best


def bfs_tree_path(adj, a: int, b: int) -> list[int]:
    """Path from a to b in the tree adj by breadth-first search from a."""
    prev = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def subdivide_embedding(e: LeafEmbedding, edge, times: int = 1) -> LeafEmbedding:
    """Replace one tree edge by a path through fresh degree-2 nodes."""
    a, b = edge
    nodes = list(e.nodes)
    edges = [x for x in e.edges if x != (min(a, b), max(a, b))]
    fresh = max(nodes) + 1
    chain = [a] + [fresh + i for i in range(times)] + [b]
    nodes += chain[1:-1]
    edges += list(zip(chain, chain[1:]))
    return LeafEmbedding(nodes, edges, e.assignment)
