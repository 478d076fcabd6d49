"""Embeddings into sub-cubic trees and paths, congestion, and cutwidth.

An embedding places the non-isolated vertices of a graph injectively onto
the leaves of a tree with maximum degree 3; each graph edge is routed along
the unique tree path between the leaves of its endpoints.  The vertex
congestion of the embedding is the largest number of routed paths through a
single tree node (a path counts at both of its endpoints, so a leaf hosting
x always carries at least deg(x) paths).

The minimum over all such trees equals the treewidth of the line graph plus
one; restricted to paths it equals the pathwidth of the line graph plus one,
and counting edge loads instead of node loads on a path gives cutwidth.
The exact solvers below return certificates whose witnesses re-evaluate to
the reported values.
"""

from __future__ import annotations

from dataclasses import dataclass

from linewidth import kernels
from linewidth.graphs import (
    DomainError,
    FormatError,
    Graph,
    SolverLimitError,
    _adjacency_masks,
)
from linewidth.treeops import adjacency, check_tree, root_tree, tree_path

TREE_CONGESTION_LIMIT = 10
PATH_SOLVER_LIMIT = 20


class LeafEmbedding:
    """Sub-cubic tree plus an injection of non-isolated vertices onto leaves."""

    __slots__ = ("nodes", "edges", "assignment")

    def __init__(self, nodes, edges, assignment: dict[int, int]):
        object.__setattr__(self, "nodes", tuple(sorted(nodes)))
        object.__setattr__(
            self, "edges", tuple(sorted((a, b) if a < b else (b, a) for a, b in edges))
        )
        object.__setattr__(self, "assignment", dict(assignment))

    def __setattr__(self, name, value):
        raise AttributeError("LeafEmbedding is immutable")

    def adjacency(self) -> dict[int, set[int]]:
        return adjacency(self.nodes, self.edges)

    def check(self, g: Graph) -> None:
        """Raise DomainError unless this is a valid embedding for g."""
        adj = self.adjacency()
        check_tree(adj)
        for n, nb in adj.items():
            if len(nb) > 3:
                raise DomainError(f"tree node {n} has degree {len(nb)} > 3")
        values = list(self.assignment.values())
        if len(set(values)) != len(values):
            raise DomainError("assignment is not injective")
        expected = set(g.non_isolated_vertices())
        if set(self.assignment) != expected:
            raise DomainError("assignment domain must be the non-isolated vertices")
        for v, node in self.assignment.items():
            if node not in adj:
                raise DomainError(f"vertex {v} assigned to unknown node {node}")
            if len(adj[node]) > 1:
                raise DomainError(f"vertex {v} assigned to non-leaf node {node}")

    def __eq__(self, other):
        if not isinstance(other, LeafEmbedding):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.assignment == other.assignment
        )

    def __repr__(self):
        return f"LeafEmbedding(nodes={len(self.nodes)}, placed={len(self.assignment)})"


class LinearOrdering:
    """Permutation of the non-isolated vertices; position 1 comes first."""

    __slots__ = ("order",)

    def __init__(self, order):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise DomainError("ordering repeats a vertex")
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("LinearOrdering is immutable")

    def positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order, start=1)}

    def check(self, g: Graph) -> None:
        if set(self.order) != set(g.non_isolated_vertices()):
            raise DomainError("ordering must list exactly the non-isolated vertices")

    def __eq__(self, other):
        if not isinstance(other, LinearOrdering):
            return NotImplemented
        return self.order == other.order

    def __repr__(self):
        return f"LinearOrdering({self.order})"


@dataclass(frozen=True)
class CongestionCertificate:
    """Exact congestion value plus a witness attaining it."""

    value: int
    kind: str  # "tree-vertex" | "path-vertex" | "path-edge"
    embedding: LeafEmbedding | None = None
    ordering: LinearOrdering | None = None

    @property
    def witness(self):
        return self.embedding if self.embedding is not None else self.ordering

    def reevaluate(self, g: Graph) -> int:
        if self.kind == "tree-vertex":
            return vertex_congestion(self.embedding, g)[0]
        if self.kind == "path-vertex":
            return ordering_vertex_congestion(self.ordering, g)[0]
        if self.kind == "path-edge":
            return ordering_cutwidth(self.ordering, g)[0]
        raise DomainError(f"unknown certificate kind {self.kind!r}")


def vertex_congestion(e: LeafEmbedding, g: Graph) -> tuple[int, dict[int, int]]:
    """Maximum number of routed edge paths through a tree node, with the
    full per-node profile.  Path endpoints count."""
    e.check(g)
    parent = root_tree(e.adjacency(), e.nodes[0])[0] if e.nodes else {}
    profile = {n: 0 for n in e.nodes}
    for u, v in g.edges:
        for node in tree_path(parent, e.assignment[u], e.assignment[v]):
            profile[node] += 1
    return (max(profile.values(), default=0), profile)


def ordering_vertex_congestion(o: LinearOrdering, g: Graph) -> tuple[int, dict[int, int]]:
    """Per-position count of edges vw with pos(v) <= i <= pos(w)."""
    return _ordering_profile(o, g, 1)


def ordering_cutwidth(o: LinearOrdering, g: Graph) -> tuple[int, dict[int, int]]:
    """Per-cut count of edges crossing the prefix of length i."""
    return _ordering_profile(o, g, 0)


def _ordering_profile(o: LinearOrdering, g: Graph, reach: int) -> tuple[int, dict[int, int]]:
    """Maximum and per-position count of the edges between positions lo < hi
    that cover position i, for lo <= i < hi + reach."""
    o.check(g)
    pos = o.positions()
    m = len(o.order)
    diff = [0] * (m + 2)
    for u, v in g.edges:
        lo, hi = sorted((pos[u], pos[v]))
        diff[lo] += 1
        diff[hi + reach] -= 1
    profile, run = {}, 0
    for i in range(1, m + 1):
        run += diff[i]
        profile[i] = run
    return (max(profile.values(), default=0), profile)


def _active_masks(g: Graph):
    active = g.non_isolated_vertices()
    return active, _adjacency_masks(g, active)


def min_path_congestion(g: Graph, max_vertices: int = PATH_SOLVER_LIMIT) -> CongestionCertificate:
    """Exact minimum, over orderings of the non-isolated vertices, of the
    largest number of edges covering a single position (endpoints included).
    Subset DP; the witness ordering is rebuilt by backtracking the table."""
    if g.edge_count == 0:
        raise DomainError("path congestion is undefined for an edgeless graph")
    active, masks = _active_masks(g)
    m = len(active)
    if m > max_vertices:
        raise SolverLimitError("path congestion solver", m, max_vertices)
    if m == 2:
        cert = CongestionCertificate(1, "path-vertex", ordering=LinearOrdering(active))
        return cert
    table = kernels.path_congestion_table(masks)
    order = kernels.backtrack(
        table, m, lambda s, u: kernels.cross_size(masks, s) + (masks[u] & s).bit_count()
    )
    ordering = LinearOrdering(active[u] for u in order)
    return CongestionCertificate(int(table[-1]), "path-vertex", ordering=ordering)


def cutwidth(g: Graph, max_vertices: int = PATH_SOLVER_LIMIT) -> CongestionCertificate:
    """Exact cutwidth via subset DP, with a witness ordering."""
    active, masks = _active_masks(g)
    m = len(active)
    if m > max_vertices:
        raise SolverLimitError("cutwidth solver", m, max_vertices)
    if m == 0:
        return CongestionCertificate(0, "path-edge", ordering=LinearOrdering(()))
    table = kernels.cutwidth_table(masks)
    order = kernels.backtrack(table, m, lambda s, u: kernels.cross_size(masks, s))
    ordering = LinearOrdering(active[u] for u in order)
    return CongestionCertificate(int(table[-1]), "path-edge", ordering=ordering)


def caterpillar_embedding(o: LinearOrdering, g: Graph) -> LeafEmbedding:
    """Spine node per position with the ordered vertex hung as a leaf.  Node
    congestion of spine node i equals the position-i count of the ordering,
    so the embedding attains the ordering's vertex congestion."""
    m = len(o.order)
    if m < 2:
        raise DomainError("need at least two placed vertices")
    if m == 2:
        return LeafEmbedding((1, 2), [(1, 2)], {o.order[0]: 1, o.order[1]: 2})
    nodes = list(range(1, 2 * m + 1))  # leaves 1..m, spine m+1..2m
    edges = [(i, m + i) for i in range(1, m + 1)]
    edges += [(m + i, m + i + 1) for i in range(1, m)]
    assignment = {v: i for i, v in enumerate(o.order, start=1)}
    return LeafEmbedding(nodes, edges, assignment)


class _TreeSearch:
    """Branch and bound over leaf-labelled trees with internal degree 3.

    Vertices are inserted in a fixed order; every insertion subdivides one
    existing tree edge and hangs the new leaf off the subdivision node.
    Every such tree arises exactly once this way.  Node and edge loads are
    maintained incrementally; they never decrease as the embedding grows, so
    a partial maximum at or above the incumbent can be pruned.  The tree is
    held as a parent map rooted at node 1, which tree_path routes over.
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


def min_tree_congestion(
    g: Graph, max_vertices: int = TREE_CONGESTION_LIMIT
) -> CongestionCertificate:
    """Exact minimum vertex congestion over all leaf embeddings into
    sub-cubic trees.  Trees with all internal degrees equal to 3 suffice:
    degree-2 nodes can be contracted and unused leaves pruned without
    raising congestion.  The search starts from the best path embedding as
    the incumbent and stops as soon as the max-degree lower bound is met."""
    if g.edge_count == 0:
        raise DomainError("tree congestion is undefined for an edgeless graph")
    active = g.non_isolated_vertices()
    m = len(active)
    if m > max_vertices:
        raise SolverLimitError("tree congestion solver", m, max_vertices)
    if m == 2:
        emb = LeafEmbedding((1, 2), [(1, 2)], {active[0]: 1, active[1]: 2})
        return CongestionCertificate(1, "tree-vertex", embedding=emb)
    path_cert = min_path_congestion(g)
    best_value = path_cert.value
    best_emb = caterpillar_embedding(path_cert.ordering, g)
    delta = max(g.degree(v) for v in active)
    if best_value > delta:
        order = sorted(active, key=lambda v: (-g.degree(v), v))
        found = _TreeSearch(g, order).run(best_value, delta)
        if found is not None:
            best_value, best_emb = found
    return CongestionCertificate(best_value, "tree-vertex", embedding=best_emb)


@dataclass(frozen=True)
class GolovachReport:
    """Sandwich pw(L(G)) - floor(max_degree/2) + 1 <= cw(G) <= pw(L(G))."""

    lower: int
    cutwidth: int
    upper: int
    holds: bool


def golovach_check(
    g: Graph, max_vertices: int = PATH_SOLVER_LIMIT
) -> GolovachReport:
    delta = g.max_degree()
    if delta < 2:
        raise DomainError("inequality requires maximum degree at least 2")
    pw_line = min_path_congestion(g, max_vertices=max_vertices).value - 1
    cw = cutwidth(g, max_vertices=max_vertices).value
    lower = pw_line - delta // 2 + 1
    return GolovachReport(lower, cw, pw_line, lower <= cw <= pw_line)


# -- .emb / .ord file formats -------------------------------------------------
#
# .emb:  "s emb <tree_node_count> <n>", tree edges "t <i> <j>", leaf
#        assignments "l <tree_node> <graph_vertex>".
# .ord:  "s ord <k>" then one line of k vertex ids in position order.

def format_emb(e: LeafEmbedding, g: Graph) -> str:
    remap = {n: i for i, n in enumerate(e.nodes, start=1)}
    lines = [f"s emb {len(e.nodes)} {g.n}"]
    lines += [f"t {remap[a]} {remap[b]}" for a, b in e.edges]
    lines += [f"l {remap[node]} {v}" for v, node in sorted(e.assignment.items())]
    return "\n".join(lines) + "\n"


def parse_emb(text: str) -> LeafEmbedding:
    header = None
    edges, assignment = [], {}
    nodes = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "emb":
                raise FormatError(f"line {lineno}: expected 's emb <nodes> <n>'")
            header = (int(parts[2]), int(parts[3]))
        elif parts[0] == "t":
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 't <i> <j>'")
            a, b = int(parts[1]), int(parts[2])
            edges.append((a, b))
            nodes.update((a, b))
        elif parts[0] == "l":
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'l <node> <vertex>'")
            node, v = int(parts[1]), int(parts[2])
            if v in assignment:
                raise FormatError(f"line {lineno}: vertex {v} assigned twice")
            assignment[v] = node
            nodes.add(node)
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if header is None:
        raise FormatError("missing 's emb' header")
    if len(nodes) != header[0]:
        raise FormatError(
            f"header declares {header[0]} tree nodes, found {len(nodes)}"
        )
    return LeafEmbedding(nodes, edges, assignment)


def format_ord(o: LinearOrdering) -> str:
    if not o.order:
        return "s ord 0\n"
    body = " ".join(str(v) for v in o.order)
    return f"s ord {len(o.order)}\n{body}\n"


def parse_ord(text: str) -> LinearOrdering:
    header = None
    ids: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 3 or parts[1] != "ord":
                raise FormatError(f"line {lineno}: expected 's ord <k>'")
            header = int(parts[2])
        else:
            ids.extend(int(tok) for tok in parts)
    if header is None:
        raise FormatError("missing 's ord' header")
    if len(ids) != header:
        raise FormatError(f"header declares {header} vertices, found {len(ids)}")
    return LinearOrdering(ids)


def read_emb(path) -> LeafEmbedding:
    with open(path, "r", encoding="ascii") as fh:
        return parse_emb(fh.read())


def write_emb(path, e: LeafEmbedding, g: Graph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_emb(e, g))


def read_ord(path) -> LinearOrdering:
    with open(path, "r", encoding="ascii") as fh:
        return parse_ord(fh.read())


def write_ord(path, o: LinearOrdering) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_ord(o))
