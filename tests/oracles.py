"""Independent brute-force oracles for the solver tests.

Everything here works by plain enumeration (permutations, all labelled
binary trees, all pairs of edges) and evaluates candidates with code paths
separate from the solvers under test: orderings are scored by direct
interval counting, embeddings by the standalone congestion evaluator and
decompositions by a depth-first search per element over a line graph
built by comparing every pair of edges.  The subset-DP fills at the end
are the earlier kernels, which evaluate each cost once per pair (S, v),
and a tree-congestion fill that recounts every cut for each split.  The
tree-congestion solver, the appendix grid search and the fill-in tree
decomposition are the earlier versions too: a branch and bound from the
path incumbent, a scan of every grid point, and a second elimination pass
that contracts bags contained in their parent.  ``is_leaf_base_form``
checks the normal form's shape and compares its bags with those read off
the leaf embedding it describes.
"""

from collections import deque
from itertools import combinations, permutations

from linewidth.congestion import (
    LeafEmbedding,
    LinearOrdering,
    caterpillar_embedding,
    min_path_congestion,
    ordering_cutwidth,
    ordering_vertex_congestion,
    vertex_congestion,
)
from linewidth.decompositions import (
    SUBJECT_GRAPH,
    BaseNodeAssignment,
    PathDecomposition,
    TreeDecomposition,
    ValidationReport,
    decomposition_from_embedding,
)
from linewidth.graphs import DomainError, Graph, _adjacency_masks
from linewidth.optcheck import HALF, CornerCheck, _axis
from linewidth.treeops import tree_path


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


def decomposition_from_elimination(g: Graph, ordering) -> TreeDecomposition:
    """Fill-in construction: the bag of v is v plus its neighbours at
    elimination time; v's bag hangs off the bag of its earliest-eliminated
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


def path_decomposition_from_ordering(g: Graph, ordering) -> PathDecomposition:
    """Bag i is v_i plus the earlier vertices that still have a neighbour
    outside the prefix; a bag contained in its neighbour bag is dropped."""
    placed: set[int] = set()
    bags = []
    for v in ordering:
        bags.append(frozenset({v} | {u for u in placed if g.neighbors(u) - placed}))
        placed.add(v)
    cleaned: list[frozenset[int]] = []
    for bag in bags:
        while cleaned and cleaned[-1] <= bag:
            cleaned.pop()
        if cleaned and bag <= cleaned[-1]:
            continue
        cleaned.append(bag)
    return PathDecomposition(cleaned, SUBJECT_GRAPH)


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


class TreeSearch:
    """Depth-first branch and bound over leaf-labelled trees with internal
    degree 3: the search that found tree congestion and its witness before
    the split DP, and a reference for the bounded search that replays it.

    Vertices are inserted in a fixed order; every insertion subdivides one
    existing tree edge and hangs the new leaf off the subdivision node.
    Every such tree arises exactly once this way.  Node and edge loads are
    maintained incrementally; they never decrease as the embedding grows, so
    a partial maximum at or above the incumbent can be pruned.  No ancestor
    of a leaf of optimal value is pruned while the incumbent is above it, so
    run(optimum + 1, optimum) stops at the same first optimal leaf as a
    search started from any higher incumbent, the leaf that the bounded
    search _TreeSearch.first_fit(optimum) returns.  The tree is held as a
    parent map rooted at node 1, which tree_path routes over.
    """

    def __init__(self, g: Graph, verts):
        self.g = g
        self.verts = verts
        self.parent: dict[int, int | None] = {}
        self.node_load: dict[int, int] = {}
        self.edge_load: dict[tuple[int, int], int] = {}
        self.host: dict[int, int] = {}
        self.best = None
        self.best_snapshot = None
        self.floor = 0

    def run(self, incumbent: int, floor: int):
        """Search for congestion strictly below `incumbent`; stop early once
        `floor` (a global lower bound) is reached."""
        self.best = incumbent
        self.floor = floor
        v1, v2 = self.verts[0], self.verts[1]
        self.parent = {1: None, 2: 1}
        self.host = {v1: 1, v2: 2}
        first = 1 if self.g.has_edge(v1, v2) else 0
        self.node_load = {1: first, 2: first}
        self.edge_load = {(1, 2): first}
        self.next_id = 3
        self._extend(2, first)
        if self.best_snapshot is None:
            return None
        return self.best, self.best_snapshot

    def _snapshot(self) -> LeafEmbedding:
        remap = {n: i for i, n in enumerate(sorted(self.parent), start=1)}
        edges = [(remap[n], remap[p]) for n, p in self.parent.items() if p is not None]
        assignment = {v: remap[n] for v, n in self.host.items()}
        return LeafEmbedding(remap.values(), edges, assignment)

    def _route(self, x: int, y: int, step: int) -> int:
        worst = 0
        path = tree_path(self.parent, x, y)
        for node in path:
            load = self.node_load[node] + step
            self.node_load[node] = load
            if load > worst:
                worst = load
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            self.edge_load[key] += step
        return worst

    def _extend(self, k: int, cur_max: int):
        if self.best <= self.floor:
            return
        if k == len(self.verts):
            if cur_max < self.best:
                self.best = cur_max
                self.best_snapshot = self._snapshot()
            return
        v = self.verts[k]
        placed_nbrs = sorted(w for w in self.g.neighbors(v) if w in self.host)
        for a, b in sorted(self.edge_load):
            if self.best <= self.floor:
                return
            mid, leaf = self.next_id, self.next_id + 1
            self.next_id += 2
            carried = self.edge_load.pop((a, b))
            child, par = (a, b) if self.parent[a] == b else (b, a)
            self.parent[child] = mid
            self.parent[mid] = par
            self.parent[leaf] = mid
            self.edge_load[(min(a, mid), max(a, mid))] = carried
            self.edge_load[(min(b, mid), max(b, mid))] = carried
            self.edge_load[(mid, leaf)] = 0
            self.node_load[mid] = carried
            self.node_load[leaf] = 0
            self.host[v] = leaf
            local_max = max(cur_max, carried)
            for w in placed_nbrs:
                worst = self._route(leaf, self.host[w], +1)
                if worst > local_max:
                    local_max = worst
            if local_max < self.best:
                self._extend(k + 1, local_max)
            for w in placed_nbrs:
                self._route(leaf, self.host[w], -1)
            del self.host[v]
            del self.node_load[mid], self.node_load[leaf]
            del self.edge_load[(min(a, mid), max(a, mid))]
            del self.edge_load[(min(b, mid), max(b, mid))]
            del self.edge_load[(mid, leaf)]
            self.parent[child] = par
            del self.parent[mid], self.parent[leaf]
            self.edge_load[(a, b)] = carried
            self.next_id -= 2


def tree_congestion_by_search(g: Graph) -> tuple[int, LeafEmbedding]:
    """Tree congestion and its witness as found before the split DP: the
    caterpillar of the best path embedding is the incumbent, and the branch
    and bound searches below it down to the max-degree bound."""
    active = g.non_isolated_vertices()
    if len(active) == 2:
        return 1, LeafEmbedding((1, 2), [(1, 2)], {active[0]: 1, active[1]: 2})
    path_cert = min_path_congestion(g)
    delta = max(g.degree(v) for v in active)
    if path_cert.value > delta:
        order = sorted(active, key=lambda v: (-g.degree(v), v))
        found = TreeSearch(g, order).run(path_cert.value, delta)
        if found is not None:
            return found
    return path_cert.value, caterpillar_embedding(path_cert.ordering)


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


def is_leaf_base_form(td: TreeDecomposition, base: BaseNodeAssignment, g: Graph) -> bool:
    """Whether (td, base) is the decomposition read off a leaf embedding of
    g whose tree is a single edge or a binary tree with one degree-2 root,
    and whose every leaf hosts a vertex."""
    emb = LeafEmbedding(td.nodes, td.tree_edges, base.by_vertex)
    try:
        dec = decomposition_from_embedding(emb, g)
    except DomainError:
        return False
    # the check made the hosts distinct leaves, so every leaf hosts a vertex
    # exactly when there are as many leaves as hosts
    degrees = [len(s) for s in emb.adjacency().values()]
    return (
        (len(degrees) == 2 or degrees.count(2) == 1)
        and degrees.count(1) == len(base.by_vertex)
        and dec.bags == td.bags
    )


def brute_line_edges(g: Graph) -> list[tuple[int, int]]:
    """Pairs of edge ids (i < j) whose edges share an endpoint, in
    lexicographic order."""
    return [
        (i, j)
        for (i, e), (j, f) in combinations(enumerate(g.edges, start=1), 2)
        if set(e) & set(f)
    ]


def validate_via_line_graph(d, g: Graph) -> ValidationReport:
    """The three decomposition conditions checked the long way: build the
    subject graph (L(g) from brute_line_edges), index every element's nodes
    while range-checking, then walk each element's nodes by depth-first
    search.  Reports and errors read as those of ``validate``."""
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    if d.subject == SUBJECT_GRAPH:
        target, kind = g, "vertex"
    else:
        target, kind = Graph(g.edge_count, brute_line_edges(g)), "edge id"
    occurrences: dict[int, list[int]] = {v: [] for v in target.vertices}
    for node in td.nodes:
        for x in td.bags[node]:
            if not (1 <= x <= target.n):
                raise DomainError(
                    f"bag element out of range: {kind} {x} at node {node} "
                    f"(subject has {target.n} elements)"
                )
            occurrences[x].append(node)
    for x in target.vertices:
        if not occurrences[x]:
            return ValidationReport(False, "element-coverage", f"{kind} {x} appears in no bag")
    adj = td.adjacency()
    for x in target.vertices:
        nodes = set(occurrences[x])
        seen = {occurrences[x][0]}
        stack = list(seen)
        while stack:
            n = stack.pop()
            for nb in adj[n]:
                if nb in nodes and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != nodes:
            return ValidationReport(
                False,
                "element-connectivity",
                f"bags containing {kind} {x} do not form a connected subtree",
            )
    for u, v in target.edges:
        if not any(u in td.bags[n] and v in td.bags[n] for n in occurrences[u]):
            return ValidationReport(
                False, "edge-coverage", f"adjacent pair {{{u},{v}}} shares no bag"
            )
    return ValidationReport(True)


# -- per-(S, v) subset-DP fills -----------------------------------------------
#
# The kernels as they were before their costs were shared per subset and
# per component, kept verbatim: the tables of both backends must equal
# these, and their cost helpers give the backtracks the earlier orderings.

_BIG = 1 << 30


def _check(masks) -> int:
    return len(masks)


def elimination_reach_count(masks, t: int, v: int) -> int:
    """Degree of v when eliminated right after the set t: the number of
    vertices outside t+{v} joined to v by a path with interior inside t."""
    bit = 1 << v
    comp = bit
    reach = masks[v]
    frontier = masks[v] & t
    while frontier:
        comp |= frontier
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= masks[low.bit_length() - 1]
        reach |= grown
        frontier = grown & t & ~comp
    return (reach & ~t & ~bit).bit_count()


def border_size(masks, s: int) -> int:
    """Vertices of s with at least one neighbour outside s."""
    count = 0
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        if masks[low.bit_length() - 1] & ~s:
            count += 1
    return count


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
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            t = s ^ low
            q = elimination_reach_count(masks, t, v)
            prev = table[t]
            cand = prev if prev > q else q
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


def cutwidth_table(masks):
    n = _check(masks)
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = _BIG
        cross = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            cross += (masks[low.bit_length() - 1] & ~s).bit_count()
            prev = table[s ^ low]
            if prev < best:
                best = prev
        table[s] = best if best > cross else cross
    return table


def path_congestion_table(masks):
    n = _check(masks)
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        cross = cross_size(masks, s)
        best = _BIG
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            at_u = cross + (masks[u] & s).bit_count()
            prev = table[s ^ low]
            cand = prev if prev > at_u else at_u
            if cand < best:
                best = cand
        table[s] = best
    return table


# The split recurrence of tree congestion, every cut recounted with cross_size.
def tree_congestion_table(masks):
    n = _check(masks)
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        if not rest:
            table[s] = cross_size(masks, s)
            continue
        best = _BIG
        part = rest
        while part:  # one split per part, the lowest vertex staying with s - part
            other = s ^ part
            node = (cross_size(masks, other) + cross_size(masks, part) + cross_size(masks, s)) // 2
            best = min(best, max(table[other], table[part], node))
            part = (part - 1) & rest
        table[s] = best
    return table


# -- appendix grid search -----------------------------------------------------


def grid_minimize(objective, s, resolution, threshold, corner_claims):
    """optcheck._grid_minimize as it was: every grid point scored."""
    if not 0 < s <= HALF:
        raise DomainError("s must satisfy 0 < s <= 1/2")
    if resolution < 1:
        raise DomainError("resolution must be positive")
    corners = tuple(
        CornerCheck(
            (a, b),
            objective(a, b),
            claim,
            s <= a <= HALF and s <= b <= HALF and a + b >= threshold,
        )
        for (a, b), claim in corner_claims
    )
    points = {(a, b) for a in _axis(s, HALF, resolution) for b in _axis(s, HALF, resolution)}
    points.update(c.point for c in corners if c.feasible)
    best_val, best_pt, feasible = None, None, 0
    for a, b in sorted(points):
        if a + b < threshold:
            continue
        feasible += 1
        val = objective(a, b)
        if best_val is None or val < best_val or (val == best_val and (a, b) < best_pt):
            best_val, best_pt = val, (a, b)
    if best_val is None:
        raise DomainError("no feasible grid points for these parameters")
    return best_val, best_pt, corners, feasible


def minimal_dense_vertex_set(g: Graph) -> tuple[int, ...]:
    """The earlier densest-set scan, over all 2^n - 1 subsets of g in
    increasing bitmask order: the first subset of greatest density with the
    fewest vertices."""
    masks = _adjacency_masks(g, g.vertices)
    inner = [0] * (1 << g.n)
    best_s, best_m, best_k = 1, 0, 1
    for s in range(1, 1 << g.n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        m = inner[s] = inner[rest] + (masks[v] & rest).bit_count()
        k = s.bit_count()
        diff = m * best_k - best_m * k
        if diff > 0 or (diff == 0 and k < best_k):
            best_s, best_m, best_k = s, m, k
    return tuple(v + 1 for v in range(g.n) if best_s >> v & 1)


def cycle_power(n: int, k: int) -> Graph:
    """The k-th power of the n-cycle by its definition: every pair of
    vertices at circular distance at most k."""
    return Graph(
        n,
        [(i, j) for i, j in combinations(range(1, n + 1), 2) if min(j - i, n - j + i) <= k],
    )
