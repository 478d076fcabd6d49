"""Tree and path decompositions and the constructive transformations between
decompositions of a graph and decompositions of its line graph.

A decomposition is tagged with its *subject*: bags of an "of-G"
decomposition contain vertex ids of the companion graph, bags of an
"of-L(G)" decomposition contain edge ids (positions in ``Graph.edges``,
1-based).  Validation always receives the companion graph g; the edges of
L(g) are read off the edge ids incident to each vertex of g.

The central normal form ("leaf base form") consists of a binary tree, an
injection b of the non-isolated vertices onto its leaves, and bags that are
exactly the edge paths: bag(u) = {vw : u lies on the b(v)..b(w) path}.
Every decomposition of a line graph can be rewritten into this form without
increasing its width, which is what makes tree congestion and line-graph
treewidth interchangeable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from linewidth.congestion import LeafEmbedding, embedding_bags
from linewidth.graphs import (
    DomainError,
    FormatError,
    Graph,
    _int,
    header_fields,
    incident_edge_ids,
    read_text,
    records,
)
from linewidth.treeops import adjacency, check_tree, edge_path_bags, root_tree, sorted_edges

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


def occurrences(bags) -> dict[int, set[int]]:
    """Map each element to the set of nodes whose bag holds it.  Elements
    are keyed in the order they are first met, scanning the bags in the
    order of the dict and each bag in its iteration order."""
    occ: dict[int, set[int]] = {}
    for node, bag in bags.items():
        for x in bag:
            if x in occ:
                occ[x].add(node)
            else:
                occ[x] = {node}
    return occ


def validate(d, g: Graph) -> ValidationReport:
    """Check the three decomposition conditions of d against its subject.

    Bag elements outside the subject's vertex range raise a DomainError
    naming the first one met in node id order; the three conditions
    produce a report with the first violation found.  For L(g) the
    adjacent pairs are the pairs of edge ids at a common vertex, and an
    element's nodes are connected exactly when they span one tree edge
    fewer than their number (a forest has one edge fewer than nodes per
    component).  Once they are, every element's nodes form a subtree, and
    subtrees that meet pairwise share a node (the Helly property), so the
    pairs at a vertex are covered exactly when the node sets of its edges
    have a common node.  That is checked once per vertex; the pair scan,
    which names the least uncovered pair, runs only if some vertex fails.
    """
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    if d.subject == SUBJECT_GRAPH:
        size, kind, pairs = g.n, "vertex", g.edges
    else:
        size, kind = g.edge_count, "edge id"
        incident = incident_edge_ids(g)
        pairs = (p for ids in incident for p in combinations(ids, 2))
    occ = occurrences(td.bags)
    for x, nodes in occ.items():
        if not (1 <= x <= size):
            raise DomainError(
                f"bag element out of range: {kind} {x} at node {min(nodes)} "
                f"(subject has {size} elements)"
            )
    for x in range(1, size + 1):
        if x not in occ:
            return ValidationReport(
                False, "element-coverage", f"{kind} {x} appears in no bag"
            )
    spanned: Counter = Counter()
    for a, b in td.tree_edges:
        spanned.update(td.bags[a] & td.bags[b])
    for x in range(1, size + 1):
        if spanned[x] != len(occ[x]) - 1:
            return ValidationReport(
                False,
                "element-connectivity",
                f"bags containing {kind} {x} do not form a connected subtree",
            )
    if d.subject == SUBJECT_LINE and all(
        len(ids) < 2 or occ[ids[0]].intersection(*(occ[x] for x in ids[1:]))
        for ids in incident
    ):
        return ValidationReport(True)
    uncovered = [(u, v) for u, v in pairs if occ[u].isdisjoint(occ[v])]
    if uncovered:
        u, v = min(uncovered)
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
    incident = incident_edge_ids(g)

    def expand(bag):
        out: set[int] = set()
        for v in bag:
            out.update(incident[v])
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
    reshaped: base nodes are pushed onto fresh leaves, the tree is cut down
    to the subtree that spans the base nodes, and that subtree is binarised
    by splitting high-degree nodes (in child id order) and contracting
    single-child nodes.  Bags are recomputed from (tree, b) at the end, so
    each rewrite step is width-safe.
    """
    if g.edge_count == 0:
        raise DomainError("the graph has no edges")
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    if td.subject != SUBJECT_LINE:
        raise DomainError("input must be a decomposition of the line graph")
    _require_valid(td, g)
    incident = incident_edge_ids(g)
    occ = occurrences(td.bags)
    base: dict[int, int] = {}
    for v in g.non_isolated_vertices():
        base[v] = min(set.intersection(*(occ[e] for e in incident[v])))

    adj = td.adjacency()
    next_id = max(td.nodes) + 1

    hosts = Counter(base.values())
    for node, v in sorted((node, v) for v, node in base.items()):
        if len(adj[node]) > 1 or hosts[node] > 1:  # not yet a private leaf
            adj[next_id] = {node}
            adj[node].add(next_id)
            base[v] = next_id
            next_id += 1

    # cut the tree down to the subtree spanning the base nodes: strip each
    # non-base leaf once, and its neighbour when that becomes one in turn
    base_nodes = set(base.values())
    stack = [n for n in adj if len(adj[n]) == 1 and n not in base_nodes]
    while stack:
        node = stack.pop()
        (nb,) = adj.pop(node)
        adj[nb].discard(node)
        if len(adj[nb]) == 1 and nb not in base_nodes:
            stack.append(nb)

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


def decomposition_from_embedding(e: LeafEmbedding, g: Graph) -> TreeDecomposition:
    """Read a leaf embedding as a decomposition of L(g): the bag at node u
    is the set of edges routed through u, so its size is the load of u and
    the width is the vertex congestion of the embedding minus one."""
    bags = embedding_bags(e, g)
    adj = e.adjacency()
    return TreeDecomposition(adj.keys(), sorted_edges(adj), bags, SUBJECT_LINE)


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
    td, base = form.decomposition, form.base.by_vertex
    adj = td.adjacency()
    root = min(adj)
    parent, _ = root_tree(adj, root)
    bags: dict[int, set[int]] = {n: set() for n in adj}
    corr: dict[tuple[int, int], list[tuple[int, int]]] = {}
    paths = occurrences(td.bags)  # the normal form's bags are the edge paths
    for eid, (v, w) in enumerate(g.edges, start=1):
        leaf = base[w]  # v rides the path, w sits at its end b(w)
        for node in paths[eid]:
            bags[node].add(w if node == leaf else v)
        (last,) = adj[leaf]  # b(w) is a leaf, so its neighbour is next to last
        corr.setdefault((last, leaf), []).append((v, w))
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
    holders = occurrences(bags)  # kept equal to the bags through every addition
    for v, w in g.edges:
        if not holders[v].isdisjoint(holders[w]):
            continue
        crossing = next(
            ((a, b) for a in sorted(holders[v]) for b in adj[a] if b in holders[w]),
            None,
        )
        if crossing is None:  # cannot happen: endpoint subtrees touch
            raise DomainError(f"no bag pair covers edge {{{v},{w}}}")
        a, b = crossing
        if parent[b] == a:
            bags[b].add(v)
            holders[v].add(b)
        else:
            bags[a].add(w)
            holders[w].add(a)
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

def format_td(d, g: Graph) -> str:
    td = d.as_tree() if isinstance(d, PathDecomposition) else d
    remap = {n: i for i, n in enumerate(td.nodes, start=1)}
    max_bag = max((len(td.bags[n]) for n in td.nodes), default=0)
    universe = g.n if d.subject == SUBJECT_GRAPH else g.edge_count
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
    for lineno, parts in records(text):
        if parts[0] == "s":
            header = header_fields(parts, lineno, header, "s td <bags> <max_bag_size> <n>")
        elif parts[0] == "b":
            if header is None:
                raise FormatError(f"line {lineno}: bag before header")
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: expected 'b <id> <elems...>'")
            bag_id = _int(parts[1], lineno)
            if bag_id in bags:
                raise FormatError(f"line {lineno}: duplicate bag {bag_id}")
            if not (1 <= bag_id <= header[0]):
                raise FormatError(f"line {lineno}: bag id {bag_id} out of range")
            elems = [_int(tok, lineno) for tok in parts[2:]]
            bags[bag_id] = set(elems)
            if len(bags[bag_id]) < len(elems):
                x = next(x for i, x in enumerate(elems) if x in elems[:i])
                raise FormatError(f"line {lineno}: bag {bag_id} repeats element {x}")
        else:
            if header is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected '<i> <j>'")
            edges.append((_int(parts[0], lineno), _int(parts[1], lineno)))
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
    return parse_td(read_text(path), subject)

