"""The one tree router: every rooting of a tree and every path in one.

Trees arrive as adjacency dicts {node: set(neighbours)}.  ``root_tree``
builds a parent map once per tree, and ``tree_path`` climbs from both ends,
so a path costs time linear in its length and needs no depth table.
``edge_path_bags`` routes every edge of a graph between the nodes hosting
its ends; the bag of a node, the edges routed through it, is its bag in the
line graph's decomposition read off the tree, and its size is the node's
load.  Code that grows a tree one subdivision at a time can keep its parent
map up to date in place instead of re-rooting.
"""

from __future__ import annotations

from linewidth.graphs import DomainError, Graph, reach


def adjacency(nodes, edges) -> dict[int, set[int]]:
    adj = {n: set() for n in nodes}
    for a, b in edges:
        if a not in adj or b not in adj:
            raise DomainError(f"tree edge ({a},{b}) references an unknown node")
        if a == b:
            raise DomainError(f"tree edge ({a},{b}) is a loop")
        if b in adj[a]:
            raise DomainError(f"tree edge ({a},{b}) is repeated")
        adj[a].add(b)
        adj[b].add(a)
    return adj


def check_tree(adj) -> None:
    """Raise unless adj is a single connected acyclic component."""
    if not adj:
        return
    n = len(adj)
    edge_count = sum(len(s) for s in adj.values()) // 2
    if edge_count != n - 1:
        raise DomainError("node/edge counts do not form a tree")
    if len(reach(adj.__getitem__, next(iter(adj)))) != n:
        raise DomainError("tree is not connected")


def root_tree(adj, root: int) -> tuple[dict[int, int | None], dict[int, list[int]]]:
    """Parent map (the root maps to None) and children lists sorted by id,
    from one breadth-first pass over the tree adj."""
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {}
    order = [root]
    for n in order:
        kids = sorted(w for w in adj[n] if w != parent[n])
        children[n] = kids
        for w in kids:
            parent[w] = n
        order += kids
    return parent, children


def tree_path(parent, a: int, b: int) -> list[int]:
    """Node sequence from a to b inclusive, in the tree given by a parent map.

    Both ends climb towards the root in turn until one reaches a node the
    other has passed; that node is the lowest common ancestor.
    """
    left, right = [a], [b]
    on_left, on_right = {a: 0}, {b: 0}
    while True:
        x, y = left[-1], right[-1]
        if x in on_right:
            i, j = len(left) - 1, on_right[x]
            break
        if y in on_left:
            i, j = on_left[y], len(right) - 1
            break
        px, py = parent[x], parent[y]
        if px is None and py is None:
            raise DomainError(f"nodes {a} and {b} are not connected")
        if px is not None:
            on_left[px] = len(left)
            left.append(px)
        if py is not None:
            on_right[py] = len(right)
            right.append(py)
    path = left[: i + 1]
    path += reversed(right[:j])
    return path


def edge_path_bags(parent, base: dict[int, int], g: Graph) -> dict[int, set[int]]:
    """Bag of every node of the tree given by a parent map: the ids of the
    edges uv of g whose path from base[u] to base[v] crosses the node."""
    bags: dict[int, set[int]] = {n: set() for n in parent}
    for eid, (u, v) in enumerate(g.edges, start=1):
        for node in tree_path(parent, base[u], base[v]):
            bags[node].add(eid)
    return bags


def sorted_edges(adj) -> list[tuple[int, int]]:
    """Edges (a, b) with a < b, grouped by a in increasing order; within a
    group, b follows the iteration order of the set adj[a], and the .td
    format writes tree edges in this order."""
    out = []
    for a in sorted(adj):
        for b in adj[a]:
            if a < b:
                out.append((a, b))
    return out
