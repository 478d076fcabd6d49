"""Tree and path decompositions and the constructive transformations between
decompositions of a graph and decompositions of its line graph.

A decomposition is tagged with its *subject*: bags of an "of-G"
decomposition contain vertex ids of the companion graph, bags of an
"of-L(G)" decomposition contain edge ids (positions in ``Graph.edges``,
1-based).  Validation always receives the companion graph g and builds the
line graph itself when the subject requires it.

The central normal form ("leaf base form") consists of a binary tree, an
injection b of the non-isolated vertices onto its leaves, and bags that are
exactly the edge paths: bag(u) = {vw : u lies on the b(v)..b(w) path}.
Every decomposition of a line graph can be rewritten into this form without
increasing its width, which is what makes tree congestion and line-graph
treewidth interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

from linewidth.congestion import LeafEmbedding
from linewidth.graphs import (
    DomainError,
    FormatError,
    Graph,
    edge_id_map,
    line_graph,
)
from linewidth.treeops import adjacency, check_tree, root_tree, sorted_edges, tree_path

SUBJECT_GRAPH = "of-G"
SUBJECT_LINE = "of-L(G)"


class TreeDecomposition:
    __slots__ = ("nodes", "tree_edges", "bags", "subject")

    def __init__(self, nodes, tree_edges, bags, subject=SUBJECT_GRAPH):
        if subject not in (SUBJECT_GRAPH, SUBJECT_LINE):
            raise DomainError(f"unknown subject tag {subject!r}")
        nodes = tuple(sorted(nodes))
        adj = adjacency(nodes, tree_edges)
        check_tree(adj)
        if set(bags) != set(nodes):
            raise DomainError("bags must be indexed by exactly the tree nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tree_edges", tuple(sorted_edges(adj)))
        object.__setattr__(
            self, "bags", {n: frozenset(bags[n]) for n in nodes}
        )
        object.__setattr__(self, "subject", subject)

    def __setattr__(self, name, value):
        raise AttributeError("TreeDecomposition is immutable")

    def adjacency(self) -> dict[int, set[int]]:
        return adjacency(self.nodes, self.tree_edges)

    def __repr__(self):
        return (
            f"TreeDecomposition(nodes={len(self.nodes)}, subject={self.subject!r})"
        )


class PathDecomposition:
    """Ordered bag sequence; the underlying tree is the path 1-2-...-k."""

    __slots__ = ("bags", "subject")

    def __init__(self, bags, subject=SUBJECT_GRAPH):
        if subject not in (SUBJECT_GRAPH, SUBJECT_LINE):
            raise DomainError(f"unknown subject tag {subject!r}")
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in bags))
        object.__setattr__(self, "subject", subject)

    def __setattr__(self, name, value):
        raise AttributeError("PathDecomposition is immutable")

    def as_tree(self) -> TreeDecomposition:
        k = len(self.bags)
        return TreeDecomposition(
            range(1, k + 1),
            [(i, i + 1) for i in range(1, k)],
            {i: self.bags[i - 1] for i in range(1, k + 1)},
            self.subject,
        )

    def __repr__(self):
        return f"PathDecomposition(bags={len(self.bags)}, subject={self.subject!r})"


@dataclass(frozen=True)
class BaseNodeAssignment:
    """Map from graph vertices to the decomposition nodes hosting all of
    their incident edges."""

    by_vertex: dict[int, int]

    def node_of(self, v: int) -> int:
        return self.by_vertex[v]

    def vertices(self):
        return sorted(self.by_vertex)

    def nodes(self):
        return sorted(set(self.by_vertex.values()))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: str | None = None  # element-coverage | element-connectivity | edge-coverage
    witness: str | None = None


def width(d) -> int:
    """Largest bag size minus one."""
    bags = d.bags if isinstance(d, PathDecomposition) else list(d.bags.values())
    if not bags:
        raise DomainError("width is undefined without bags")
    return max(len(b) for b in bags) - 1


def subject_graph(d, g: Graph) -> Graph:
    """The graph the bags actually decompose: g itself or its line graph."""
    return g if d.subject == SUBJECT_GRAPH else line_graph(g)[0]


def validate(d, g: Graph) -> ValidationReport:
    """Check the three decomposition conditions of d against its subject.

    Bag elements outside the subject's vertex range raise a DomainError;
    the three conditions produce a report with the first violation found.
    """
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    target = subject_graph(d, g)
    kind = "vertex" if d.subject == SUBJECT_GRAPH else "edge id"
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
            return ValidationReport(
                False, "element-coverage", f"{kind} {x} appears in no bag"
            )
    adj = td.adjacency()
    for x in target.vertices:
        nodes = set(occurrences[x])
        start = occurrences[x][0]
        seen = {start}
        stack = [start]
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


def _require_valid(d, g: Graph) -> None:
    report = validate(d, g)
    if not report.ok:
        raise DomainError(f"invalid decomposition: {report.witness}")


def expand_to_line(d, g: Graph):
    """Rewrite a decomposition of g into one of L(g) by replacing each bag X
    with the ids of all edges incident to a vertex of X.  Width grows to at
    most (width(d)+1)*max_degree(g) - 1; a path stays a path."""
    if d.subject != SUBJECT_GRAPH:
        raise DomainError("input must be a decomposition of the graph itself")
    _require_valid(d, g)
    ids = edge_id_map(g)
    incident = {
        v: frozenset(ids[(v, w) if v < w else (w, v)] for w in g.neighbors(v))
        for v in g.vertices
    }

    def expand(bag):
        out: set[int] = set()
        for v in bag:
            out |= incident[v]
        return out

    if isinstance(d, PathDecomposition):
        return PathDecomposition([expand(b) for b in d.bags], SUBJECT_LINE)
    return TreeDecomposition(
        d.nodes, d.tree_edges, {n: expand(d.bags[n]) for n in d.nodes}, SUBJECT_LINE
    )


@dataclass(frozen=True)
class LeafBaseForm:
    decomposition: TreeDecomposition
    base: BaseNodeAssignment


def edge_path_bags(parent, base: dict[int, int], g: Graph) -> dict[int, set[int]]:
    """Bag of every node of the tree given by a parent map: the ids of the
    edges uv of g whose path from base[u] to base[v] crosses the node."""
    ids = edge_id_map(g)
    bags: dict[int, set[int]] = {n: set() for n in parent}
    for u, v in g.edges:
        eid = ids[(u, v)]
        for node in tree_path(parent, base[u], base[v]):
            bags[node].add(eid)
    return bags


def _halve_wide_nodes(parent, children, root: int, next_id: int) -> dict[int, int]:
    """Give every node at most two children: a node with more gets two fresh
    children (ids from next_id up) that take over the first and second half
    of its children in their listed order, and the fresh nodes are split in
    turn.  parent and children are updated in place; the result maps each
    fresh node to the node it was split from, in creation order."""
    split_from: dict[int, int] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        kids = children[x]
        if len(kids) > 2:
            half = (len(kids) + 1) // 2
            y1, y2 = next_id, next_id + 1
            next_id += 2
            children[y1] = kids[:half]
            children[y2] = kids[half:]
            children[x] = [y1, y2]
            for y in (y1, y2):
                split_from[y] = x
                parent[y] = x
                for w in children[y]:
                    parent[w] = y
            stack += [y1, y2]
        else:
            stack += kids
    return split_from


def normalize_line_decomposition(d, g: Graph) -> LeafBaseForm:
    """Rewrite a decomposition of L(g) into leaf base form without
    increasing the width.

    The edges incident to a vertex v form a clique in L(g), so their bag
    subtrees pairwise intersect and by the Helly property share a node; the
    lowest such node id becomes b(v).  Rebuilding every bag as the set of
    edges whose base path crosses it only shrinks bags.  The tree is then
    reshaped: base nodes are pushed onto fresh leaves, non-base leaves are
    pruned, and the tree is binarised by splitting high-degree nodes (in
    child id order) and contracting single-child nodes.  Bags are recomputed
    from (tree, b) at the end, so each rewrite step is width-safe.
    """
    if g.edge_count == 0:
        raise DomainError("the graph has no edges")
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    if td.subject != SUBJECT_LINE:
        raise DomainError("input must be a decomposition of the line graph")
    _require_valid(td, g)
    ids = edge_id_map(g)
    active = g.non_isolated_vertices()
    incident = {
        v: frozenset(ids[(v, w) if v < w else (w, v)] for w in g.neighbors(v))
        for v in active
    }
    base: dict[int, int] = {}
    for v in active:
        for node in td.nodes:
            if incident[v] <= td.bags[node]:
                base[v] = node
                break
        else:  # impossible for a valid decomposition
            raise DomainError(f"no bag holds every edge at vertex {v}")

    adj = td.adjacency()
    next_id = max(td.nodes) + 1

    hosted: dict[int, list[int]] = {}
    for v in sorted(base):
        hosted.setdefault(base[v], []).append(v)
    for node in sorted(hosted):
        vs = hosted[node]
        if len(adj[node]) <= 1 and len(vs) == 1:
            continue  # already a private leaf
        for v in vs:
            leaf = next_id
            next_id += 1
            adj[leaf] = {node}
            adj[node].add(leaf)
            base[v] = leaf

    base_nodes = set(base.values())
    pruned = True
    while pruned:
        pruned = False
        for node in sorted(adj):
            if len(adj) == 1:
                break
            if len(adj[node]) <= 1 and node not in base_nodes:
                for nb in adj[node]:
                    adj[nb].discard(node)
                del adj[node]
                pruned = True

    if len(base) == 2:
        # two leaves: everything between them contracts to a single edge
        x, y = sorted(base_nodes)
        parent, children = root_tree({x: {y}, y: {x}}, x)
    else:
        root = min(n for n in adj if len(adj[n]) >= 2)
        parent, children = root_tree(adj, root)
        _halve_wide_nodes(parent, children, root, next_id)
        # contract single-child nodes (base nodes are leaves, never touched);
        # a contraction leaves every other node's child count unchanged
        for x in sorted(children):
            if len(children[x]) == 1:
                (child,) = children.pop(x)
                p = parent.pop(x)
                if p is not None:
                    children[p] = [child if w == x else w for w in children[p]]
                parent[child] = p
    # the .td edge order follows these sets' iteration order, so they are
    # filled in children order
    adj = {n: set() for n in children}
    for x, kids in children.items():
        for w in kids:
            adj[x].add(w)
            adj[w].add(x)

    bags = edge_path_bags(parent, base, g)
    dec = TreeDecomposition(adj.keys(), sorted_edges(adj), bags, SUBJECT_LINE)
    return LeafBaseForm(dec, BaseNodeAssignment(dict(sorted(base.items()))))


def is_leaf_base_form(td: TreeDecomposition, base: BaseNodeAssignment, g: Graph) -> bool:
    """All three normal-form properties: binary tree shape, b a bijection
    onto the leaves, and bags equal to the base-path edge sets."""
    adj = td.adjacency()
    degrees = sorted(len(s) for s in adj.values())
    if len(adj) == 2:
        shape_ok = degrees == [1, 1]
    else:
        # one degree-2 root, internal nodes of degree 3, leaves of degree 1
        shape_ok = (
            degrees.count(2) == 1 and all(dg in (1, 2, 3) for dg in degrees)
        )
    if not shape_ok:
        return False
    leaf_set = {n for n, s in adj.items() if len(s) == 1}
    if len(adj) == 2:
        leaf_set = set(adj)
    values = list(base.by_vertex.values())
    if len(set(values)) != len(values) or set(values) != leaf_set:
        return False
    if set(base.by_vertex) != set(g.non_isolated_vertices()):
        return False
    expected = edge_path_bags(root_tree(adj, min(adj))[0], base.by_vertex, g)
    return all(td.bags[n] == frozenset(expected[n]) for n in td.nodes)


def decomposition_from_embedding(
    e: LeafEmbedding, g: Graph
) -> tuple[TreeDecomposition, BaseNodeAssignment]:
    """Read a leaf embedding as a decomposition of L(g): the bag at node u
    is the set of edges routed through u.  Its width is always the vertex
    congestion of the embedding minus one."""
    e.check(g)
    adj = e.adjacency()
    parent = root_tree(adj, e.nodes[0])[0] if e.nodes else {}
    bags = edge_path_bags(parent, e.assignment, g)
    dec = TreeDecomposition(adj.keys(), sorted_edges(adj), bags, SUBJECT_LINE)
    return dec, BaseNodeAssignment(dict(sorted(e.assignment.items())))


def line_to_graph_decomposition(d, g: Graph) -> TreeDecomposition:
    """Turn a decomposition of L(g) into one of g of width at most
    width(d) + 1.

    After normalising, each edge vw (v < w) contributes v to every bag on
    the b(v)..b(w) path except b(w), which receives w.  Bags stay within the
    old size since an edge contributes one endpoint per bag.  Edges whose
    endpoints still share no bag are patched: the tree edge separating the
    two endpoint subtrees is located (subdividing it first when several
    graph edges compete for it), the tree is rooted at the lowest node id,
    and the missing endpoint is added on the child side, growing each bag by
    at most one.  Isolated vertices get singleton bags attached to the root.
    """
    form = normalize_line_decomposition(d, g)
    td, base = form.decomposition, form.base
    adj = td.adjacency()
    root = min(adj)
    parent, _ = root_tree(adj, root)
    bags: dict[int, set[int]] = {n: set() for n in adj}
    corr: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for v, w in g.edges:  # v rides the path, w sits at b(w)
        path = tree_path(parent, base.node_of(v), base.node_of(w))
        for node in path[:-1]:
            bags[node].add(v)
        bags[path[-1]].add(w)
        if len(path) >= 2:
            corr.setdefault((path[-2], path[-1]), []).append((v, w))
    next_id = max(adj) + 1
    for key in sorted(corr):
        group = sorted(corr[key])
        if len(group) < 2:
            continue
        x, y = key
        v1, w = group[0]
        z = next_id
        next_id += 1
        adj[x].discard(y)
        adj[y].discard(x)
        adj[x].add(z)
        adj[y].add(z)
        adj[z] = {x, y}
        child, par = (x, y) if parent[x] == y else (y, x)
        parent[child], parent[z] = z, par
        bags[z] = (bags[x] - {v1}) | {w}
    for v, w in g.edges:
        if any(v in bags[n] and w in bags[n] for n in adj):
            continue
        crossing = None
        for a in sorted(adj):
            for b in adj[a]:
                if v in bags[a] and w in bags[b]:
                    crossing = (a, b)
                    break
            if crossing:
                break
        if crossing is None:  # cannot happen: endpoint subtrees touch
            raise DomainError(f"no bag pair covers edge {{{v},{w}}}")
        a, b = crossing
        if parent[b] == a:
            bags[b].add(v)
        else:
            bags[a].add(w)
    for v in g.isolated_vertices():
        node = next_id
        next_id += 1
        adj[node] = {root}
        adj[root].add(node)
        bags[node] = {v}
    return TreeDecomposition(adj.keys(), sorted_edges(adj), bags, SUBJECT_GRAPH)


def limit_tree_degree(d: TreeDecomposition) -> TreeDecomposition:
    """Split nodes until every node has at most two children (degree <= 3),
    duplicating the split node's bag; width is unchanged."""
    if len(d.nodes) == 1:
        return d
    root = min(d.nodes)
    parent, children = root_tree(d.adjacency(), root)
    bags = {n: set(d.bags[n]) for n in d.nodes}
    for y, x in _halve_wide_nodes(parent, children, root, max(d.nodes) + 1).items():
        bags[y] = set(bags[x])
    edges = [(x, w) for x, kids in children.items() for w in kids]
    return TreeDecomposition(children.keys(), edges, bags, d.subject)


# -- .td file format ----------------------------------------------------------
#
# Header "s td <num_bags> <max_bag_size> <n>"; bag lines
# "b <bag_id> <elem...>"; remaining lines are tree edges "<i> <j>".  Path
# decompositions serialise with node ids in path order.

def format_td(d, g: Graph | None = None) -> str:
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    remap = {n: i for i, n in enumerate(td.nodes, start=1)}
    if isinstance(d, PathDecomposition):
        remap = {i: i for i in range(1, len(d.bags) + 1)}
    max_bag = max((len(td.bags[n]) for n in td.nodes), default=0)
    universe = 0
    if g is not None:
        universe = g.n if d.subject == SUBJECT_GRAPH else g.edge_count
    else:
        universe = max((max(b) for b in td.bags.values() if b), default=0)
    lines = [f"s td {len(td.nodes)} {max_bag} {universe}"]
    for n in td.nodes:
        elems = " ".join(str(x) for x in sorted(td.bags[n]))
        lines.append(f"b {remap[n]} {elems}".rstrip())
    for a, b in td.tree_edges:
        lines.append(f"{remap[a]} {remap[b]}")
    return "\n".join(lines) + "\n"


def parse_td(text: str, subject: str = SUBJECT_GRAPH) -> TreeDecomposition:
    header = None
    bags: dict[int, set[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(
                    f"line {lineno}: expected 's td <bags> <max_bag_size> <n>'"
                )
            header = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif parts[0] == "b":
            if header is None:
                raise FormatError(f"line {lineno}: bag before header")
            bag_id = int(parts[1])
            if bag_id in bags:
                raise FormatError(f"line {lineno}: duplicate bag {bag_id}")
            if not (1 <= bag_id <= header[0]):
                raise FormatError(f"line {lineno}: bag id {bag_id} out of range")
            bags[bag_id] = {int(tok) for tok in parts[2:]}
        else:
            if header is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected '<i> <j>'")
            edges.append((int(parts[0]), int(parts[1])))
    if header is None:
        raise FormatError("missing 's td' header")
    num_bags, max_bag, _ = header
    for i in range(1, num_bags + 1):
        bags.setdefault(i, set())
    actual = max((len(b) for b in bags.values()), default=0)
    if actual != max_bag:
        raise FormatError(
            f"header declares max bag size {max_bag}, found {actual}"
        )
    return TreeDecomposition(range(1, num_bags + 1), edges, bags, subject)


def as_path_decomposition(td: TreeDecomposition) -> PathDecomposition:
    """Interpret a path-shaped .td (node ids in path order) as ordered bags."""
    k = len(td.nodes)
    expected = [(i, i + 1) for i in range(1, k)]
    if list(td.nodes) != list(range(1, k + 1)) or list(td.tree_edges) != expected:
        raise DomainError("decomposition tree is not a path in id order")
    return PathDecomposition([td.bags[i] for i in range(1, k + 1)], td.subject)


def read_td(path, subject: str = SUBJECT_GRAPH) -> TreeDecomposition:
    with open(path, "r", encoding="ascii") as fh:
        return parse_td(fh.read(), subject)


def write_td(path, d, g: Graph | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_td(d, g))
