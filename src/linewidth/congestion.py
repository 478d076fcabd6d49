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
    _int,
    header_fields,
    read_text,
    records,
)
from linewidth.treeops import adjacency, check_tree, edge_path_bags, root_tree, tree_path

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

    def reevaluate(self, g: Graph) -> int:
        if self.kind == "tree-vertex":
            return vertex_congestion(self.embedding, g)[0]
        if self.kind == "path-vertex":
            return ordering_vertex_congestion(self.ordering, g)[0]
        if self.kind == "path-edge":
            return ordering_cutwidth(self.ordering, g)[0]
        raise DomainError(f"unknown certificate kind {self.kind!r}")


def embedding_bags(e: LeafEmbedding, g: Graph) -> dict[int, set[int]]:
    """Check e against g and route every edge of g along the tree: the bag
    of a node is the set of ids of the edges whose path crosses it."""
    e.check(g)
    parent = root_tree(e.adjacency(), e.nodes[0])[0] if e.nodes else {}
    return edge_path_bags(parent, e.assignment, g)


def vertex_congestion(e: LeafEmbedding, g: Graph) -> tuple[int, dict[int, int]]:
    """Maximum number of routed edge paths through a tree node, with the
    per-node profile in node order.  Path endpoints count.  A node's load is
    its bag size in the decomposition of L(g) read off e, whose width is
    therefore the congestion minus one."""
    bags = embedding_bags(e, g)
    profile = {n: len(bags[n]) for n in e.nodes}
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


def min_path_congestion(g: Graph, max_vertices: int = PATH_SOLVER_LIMIT) -> CongestionCertificate:
    """Exact minimum, over orderings of the non-isolated vertices, of the
    largest number of edges covering a single position (endpoints included).
    Subset DP; the witness ordering is rebuilt by backtracking the table.
    Both come from the memoised kernels.solve, so min_tree_congestion's
    incumbent right after this call on the same graph fills nothing."""
    if g.edge_count == 0:
        raise DomainError("path congestion is undefined for an edgeless graph")
    active = g.non_isolated_vertices()
    value, order = kernels.solve(g, active, "path congestion", max_vertices)
    if len(order) == 2:  # backtracked high first: keep .ord and caterpillar .emb lower first
        order = active
    return CongestionCertificate(value, "path-vertex", ordering=LinearOrdering(order))


def cutwidth(g: Graph, max_vertices: int = PATH_SOLVER_LIMIT) -> CongestionCertificate:
    """Exact cutwidth via subset DP, with a witness ordering."""
    value, order = kernels.solve(g, g.non_isolated_vertices(), "cutwidth", max_vertices)
    return CongestionCertificate(value, "path-edge", ordering=LinearOrdering(order))


def caterpillar_embedding(o: LinearOrdering) -> LeafEmbedding:
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


def _first_fit(g: Graph, verts, bound: int) -> LeafEmbedding | None:
    """The first embedding of verts in depth-first order whose node loads all
    stay at or below `bound`, or None if there is none; min_tree_congestion
    runs it to replay the witness of a known optimum.

    verts[0] and verts[1] sit at nodes 1 and 2.  Depth k >= 2 subdivides one
    tree edge, in sorted order, with node 2k - 1 and hangs verts[k] off it at
    leaf 2k, so every tree with internal degree 3 arises exactly once and a
    complete embedding uses the node ids 1..2 len(verts) - 2.  Loads never
    decrease as the embedding grows, so a partial embedding above the bound
    is not extended.  No edge is above it: an edge's paths pass both its
    ends, and node loads start at most 1 <= bound, a new node starts at the
    load of the edge it splits, and a depth is entered only within the
    bound.  The tree is a parent list rooted at node 1, which tree_path
    routes over; ids of a depth are rewritten before they are read again, so
    only the edge loads are cleaned up on the way back.
    """
    size = 2 * len(verts) - 1
    host = {v: max(2 * k, 1) for k, v in enumerate(verts)}
    parent: list[int | None] = [None] * size
    parent[2] = 1
    node_load = [0] * size
    node_load[1] = node_load[2] = 1 if g.has_edge(verts[0], verts[1]) else 0
    edge_load = {(1, 2): node_load[1]}

    def route(path: list[int], step: int) -> int:
        for node in path:
            node_load[node] += step
        for a, b in zip(path, path[1:]):
            edge_load[(a, b) if a < b else (b, a)] += step
        return max(node_load[node] for node in path)

    def extend(k: int) -> LeafEmbedding | None:
        if k == len(verts):
            return LeafEmbedding(range(1, size), [(n, parent[n]) for n in range(2, size)], host)
        mid, leaf = 2 * k - 1, 2 * k
        targets = [host[w] for w in sorted(g.neighbors(verts[k])) if host[w] < leaf]
        for a, b in sorted(edge_load):
            carried = edge_load[(a, b)]
            child, par = (a, b) if parent[a] == b else (b, a)
            parent[child], parent[mid], parent[leaf] = mid, par, mid
            del edge_load[(a, b)]
            edge_load[(a, mid)] = edge_load[(b, mid)] = node_load[mid] = carried
            edge_load[(mid, leaf)] = node_load[leaf] = 0
            paths = [tree_path(parent, leaf, t) for t in targets]
            if max([route(path, +1) for path in paths], default=0) <= bound:
                found = extend(k + 1)
                if found is not None:
                    return found
            for path in paths:
                route(path, -1)
            del edge_load[(a, mid)], edge_load[(b, mid)], edge_load[(mid, leaf)]
            edge_load[(a, b)] = carried
            parent[child] = par
        return None

    return extend(2)


def min_tree_congestion(
    g: Graph, max_vertices: int = TREE_CONGESTION_LIMIT
) -> CongestionCertificate:
    """Exact minimum vertex congestion over all leaf embeddings into
    sub-cubic trees.  Trees with all internal degrees equal to 3 suffice:
    degree-2 nodes can be contracted and unused leaves pruned without
    raising congestion.  A caterpillar is a tree, so the path congestion
    pcon is an incumbent: the split DP fills min(t[S], pcon), and its last
    entry min(con, pcon) is con.  The witness is the caterpillar of the
    best path embedding when that attains it, and otherwise the first
    embedding in _first_fit's order that attains it."""
    if g.edge_count == 0:
        raise DomainError("tree congestion is undefined for an edgeless graph")
    active = g.non_isolated_vertices()
    kernels.check_limit("tree congestion solver", len(active), max_vertices)
    path_cert = min_path_congestion(g, max_vertices)
    value = kernels.tree_congestion(g, active, path_cert.value)
    if path_cert.value == value:
        emb = caterpillar_embedding(path_cert.ordering)
    else:
        order = sorted(active, key=lambda v: (-g.degree(v), v))
        emb = _first_fit(g, order, value)
    return CongestionCertificate(value, "tree-vertex", embedding=emb)


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
    for lineno, parts in records(text):
        if parts[0] == "s":
            header = header_fields(parts, lineno, header, "s emb <nodes> <n>")
            continue
        if parts[0] not in ("t", "l"):
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
        if header is None:
            raise FormatError(f"line {lineno}: record before 's emb' header")
        if parts[0] == "t":
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 't <i> <j>'")
            a, b = _int(parts[1], lineno), _int(parts[2], lineno)
            edges.append((a, b))
            nodes.update((a, b))
        else:
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'l <node> <vertex>'")
            node, v = _int(parts[1], lineno), _int(parts[2], lineno)
            if v in assignment:
                raise FormatError(f"line {lineno}: vertex {v} assigned twice")
            assignment[v] = node
            nodes.add(node)
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
    for lineno, parts in records(text):
        if parts[0] == "s":
            header = header_fields(parts, lineno, header, "s ord <k>")
        elif header is None:
            raise FormatError(f"line {lineno}: vertex ids before 's ord' header")
        else:
            ids.extend(_int(tok, lineno) for tok in parts)
    if header is None:
        raise FormatError("missing 's ord' header")
    if len(ids) != header[0]:
        raise FormatError(f"header declares {header[0]} vertices, found {len(ids)}")
    return LinearOrdering(ids)


def read_emb(path) -> LeafEmbedding:
    return parse_emb(read_text(path))


def read_ord(path) -> LinearOrdering:
    return parse_ord(read_text(path))
