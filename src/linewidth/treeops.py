"""The one tree router: every rooting of a tree and every path in one.

Trees arrive as adjacency dicts {node: set(neighbours)}.  ``root_tree``
builds a parent map once per tree, and ``tree_path`` climbs it to find one
path.  ``edge_path_bags`` gives every node of a tree its bag, the edges of a
graph whose path between the nodes hosting their ends crosses the node, in
one pass from the leaves up, without routing any edge on its own.  That bag
is the node's bag in the line graph's decomposition read off the tree, and
its size is the node's load.  Code that grows a tree one subdivision at a
time can keep its parent map up to date in place instead of re-rooting.
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
    """Node sequence from a to b inclusive, in the tree given by a parent
    map: a dict, or a list indexed by node.

    It marks a's ancestors up to the root, then climbs from b to the first
    marked node.  That suits one path; all bags come from edge_path_bags.
    """
    up = [a]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    depth = {x: i for i, x in enumerate(up)}
    down = [b]
    while down[-1] not in depth:
        if parent[down[-1]] is None:
            raise DomainError(f"nodes {a} and {b} are not connected")
        down.append(parent[down[-1]])
    return up[: depth[down.pop()] + 1] + down[::-1]


def edge_path_bags(adj, base: dict[int, int], g: Graph) -> dict[int, set[int]]:
    """Bag of every node of the tree adj: the ids of the edges uv of g whose
    path from base[u] to base[v] crosses the node.

    Rooted anywhere, a path crosses a node exactly when one of its ends is
    hosted there or it leaves the subtree of one of the node's children.  It
    leaves a subtree exactly when just one of its ends is hosted inside, so
    from the leaves up, a node's leaving set is the symmetric difference of
    its children's leaving sets and its hosted ends.
    """
    bags: dict[int, set[int]] = {n: set() for n in adj}
    leaving: dict[int, set[int]] = {n: set() for n in adj}
    for eid, (u, v) in enumerate(g.edges, start=1):
        for node in (base[u], base[v]):
            bags[node].add(eid)
            leaving[node] ^= {eid}
    parent = root_tree(adj, next(iter(adj)))[0] if adj else {}
    for n, p in reversed(parent.items()):
        if p is not None:
            out = leaving.pop(n)
            bags[p] |= out
            leaving[p] ^= out
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
