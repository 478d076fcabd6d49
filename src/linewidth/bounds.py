"""Closed-form bounds on the treewidth/pathwidth of a line graph, the
constructive upper-bound procedures behind them, and an aggregated report.

The report's rows, in order: the lower bounds `avg-degree` (on a densest
minimal subgraph) and `min-degree` (per component), then the bounds built
from tw(G), pw(G) and the maximum degree: `endpoint-halving`,
`incident-expansion-tw`/`-pw` (a decomposition of g expanded bag by bag into
incident edges), `graph-treewidth`, `star-clique` (the clique of edges at a
max-degree vertex) and `balanced-split-tw`/`-pw` (high-degree vertices
placed on subdivision nodes that split their neighbourhoods evenly), then
the cutwidth sandwich `cutwidth` <= pw(L) <= `cutwidth-slack`.  Two notes
follow: `conjectured-half-expansion` and `smaller-upper`, the smaller of
the two tw(L) upper bounds built from tw(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from linewidth.congestion import cutwidth as cutwidth_solver
from linewidth.decompositions import (
    PathDecomposition,
    SUBJECT_GRAPH,
    SUBJECT_LINE,
    TreeDecomposition,
    _require_valid,
    expand_to_line,
    limit_tree_degree,
    occurrences,
    width,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import (
    DomainError,
    Graph,
    SolverLimitError,
    connected_components,
    degree_stats,
    incident_edge_ids,
    induced_subgraph,
    is_tree,
    line_graph,
    minimal_dense_vertex_set,
)
from linewidth.treeops import edge_path_bags, root_tree, sorted_edges, tree_path

TARGET_TW = "tw(L)"
TARGET_PW = "pw(L)"


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "lower" | "upper"
    target: str  # TARGET_TW | TARGET_PW
    value: Fraction | int


@dataclass(frozen=True)
class AvgDegreeBound:
    """Quadratic average-degree bound d^2/8 + 3d/4 - 2, evaluated on a
    densest minimal subgraph.  tw(L) exceeds `raw` strictly, so the usable
    integer bound is floor(raw) + 1 (clamped at zero)."""

    raw: Fraction
    integer_bound: int
    subgraph_vertices: tuple[int, ...]


def avg_degree_lower_bound(g: Graph) -> AvgDegreeBound:
    verts = minimal_dense_vertex_set(g)
    h = induced_subgraph(g, verts)
    d = degree_stats(h).avg_degree
    raw = d * d / 8 + Fraction(3, 4) * d - 2
    floor = raw.numerator // raw.denominator
    return AvgDegreeBound(raw, max(0, floor + 1), verts)


def min_degree_lower_bound(g: Graph) -> int:
    """Quadratic minimum-degree bound, per component (width parameters are
    component-wise maxima): delta^2/4 + delta - 1 for even delta,
    delta^2/4 + delta - 5/4 for odd delta, 0 below degree 2."""
    if g.n == 0:
        raise DomainError("undefined on the empty graph")
    best = 0
    for comp in connected_components(g):
        delta = min(g.degree(v) for v in comp)
        if delta < 2:
            continue
        if delta % 2 == 0:
            value = delta * delta // 4 + delta - 1
        else:
            value = (delta * delta + 4 * delta - 5) // 4
        best = max(best, value)
    return best


def incident_expansion_bound(w: int, delta: int) -> int:
    return (w + 1) * delta - 1


def balanced_split_bound_tree(tw_g: int, delta: int) -> Fraction:
    return Fraction(2, 3) * (tw_g + 1) * delta + Fraction(tw_g * tw_g, 3) + Fraction(delta, 3) - 1


def balanced_split_bound_path(pw_g: int, delta: int) -> Fraction:
    return Fraction(pw_g + 1, 2) * delta + Fraction(pw_g * pw_g, 2) + Fraction(delta, 2) - 1


@dataclass(frozen=True)
class ImprovedConstruction:
    decomposition: TreeDecomposition | PathDecomposition
    width: int
    fallback: bool  # True when max_degree < width(d) forced plain expansion
    closed_form: Fraction


def improved_upper_construction(g: Graph, d) -> ImprovedConstruction:
    """Balanced edge-split construction.

    Requires a decomposition of g whose tree has maximum degree <= 3 (the
    input is split to that shape first).  Vertices of degree above the
    width are "large"; for each large v the edge of its bag subtree T_v
    whose removal splits N(v) most evenly is subdivided and v's base node
    is placed there.  An even split always exists: at most 2/3 deg(v) +
    (k-1)/3 neighbours per side for trees, (deg(v) + k - 1)/2 when T_v is a
    path.  Small vertices keep their lowest bag node.  The bags of the
    result hold the edges whose base paths cross them.

    When max_degree(g) < width(d) the plain incident expansion is already
    stronger, so that is returned instead, flagged as a fallback.
    """
    _require_valid(d, g)
    if d.subject != SUBJECT_GRAPH:
        raise DomainError("input must be a decomposition of the graph itself")
    is_path = isinstance(d, PathDecomposition)
    k1 = width(d)  # k - 1
    delta = g.max_degree()
    closed = (
        balanced_split_bound_path(k1, delta) if is_path else balanced_split_bound_tree(k1, delta)
    )
    if delta < k1:
        expanded = expand_to_line(d, g)
        return ImprovedConstruction(expanded, width(expanded), True, closed)
    td = d.as_tree() if is_path else limit_tree_degree(d)
    adj = td.adjacency()
    occ = occurrences(td.bags)
    base: dict[int, int] = {}
    chosen: dict[tuple[int, int], list[int]] = {}
    for v in g.non_isolated_vertices():
        deg = g.degree(v)
        subtree = occ[v]
        if deg <= k1:
            base[v] = min(subtree)
            continue
        # the edges of T_v in sorted_edges order
        subtree_edges = [
            (a, b) for a in sorted(subtree) for b in adj[a] if a < b and b in subtree
        ]
        best_val, best_edge, best_sides = None, None, None
        for a, b in subtree_edges:
            side_a = _component(subtree, adj, a, without=b)
            side_b = subtree - side_a
            alpha = _bag_neighbours(td, side_a, g, v)
            beta = _bag_neighbours(td, side_b, g, v)
            val = max(alpha, beta)
            if best_val is None or val < best_val:
                best_val, best_edge, best_sides = val, (a, b), (alpha, beta)
        if best_edge is None:  # large vertex in a single bag is impossible
            raise DomainError(f"vertex {v} has degree {deg} inside one bag of size {k1 + 1}")
        if is_path:
            guaranteed = 2 * best_val <= deg + k1
        else:
            guaranteed = 3 * best_val <= 2 * deg + k1
        if not guaranteed:
            raise DomainError(
                f"balanced split guarantee failed at vertex {v}: "
                f"sides {best_sides}, degree {deg}, width {k1}"
            )
        chosen.setdefault(best_edge, []).append(v)
    # subdivide the chosen edges; several vertices on one edge are placed in
    # vertex-id order starting at the child side
    parent, _ = root_tree(adj, min(td.nodes))
    next_id = max(td.nodes) + 1
    for a, b in sorted(chosen):
        vs = sorted(chosen[(a, b)])
        child, par = (a, b) if parent[a] == b else (b, a)
        adj[a].discard(b)
        adj[b].discard(a)
        prev = child
        for v in vs:
            node = next_id
            next_id += 1
            adj[node] = {prev}
            adj[prev].add(node)
            parent[prev] = node
            base[v] = node
            prev = node
        adj[prev].add(par)
        adj[par].add(prev)
        parent[prev] = par
    bags = edge_path_bags(adj, base, g)
    if is_path:
        # subdivisions only add inner nodes, so the path still runs from
        # node 1 to the last node of d
        order = tree_path(parent, td.nodes[0], td.nodes[-1])
        dec = PathDecomposition([bags[n] for n in order], SUBJECT_LINE)
    else:
        dec = TreeDecomposition(adj.keys(), sorted_edges(adj), bags, SUBJECT_LINE)
    achieved = width(dec)
    if achieved > closed:  # the counting argument guarantees this never fires
        raise DomainError(
            f"constructed width {achieved} exceeds the closed form {closed}"
        )
    return ImprovedConstruction(dec, achieved, False, closed)


def _component(subtree: set[int], adj, start: int, without: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for nb in adj[n]:
            if nb in subtree and nb != without and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def _bag_neighbours(td: TreeDecomposition, side: set[int], g: Graph, v: int) -> int:
    found: set[int] = set()
    nbrs = g.neighbors(v)
    for n in side:
        found |= td.bags[n] & nbrs
    return len(found)


def tree_line_decomposition(t: Graph) -> TreeDecomposition:
    """For a tree t, decompose L(t) over t itself with b(v) = v: the bag at
    v holds exactly the edges incident to v, so the width is max_degree - 1."""
    if not is_tree(t):
        raise DomainError("input graph is not a tree")
    if t.edge_count == 0:
        raise DomainError("the tree has no edges")
    incident = incident_edge_ids(t)
    bags = {v: incident[v] for v in t.vertices}
    return TreeDecomposition(t.vertices, t.edges, bags, SUBJECT_LINE)


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple[BoundEntry, ...]
    exact: dict[str, int] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def lowers(self, target: str) -> list[BoundEntry]:
        # a lower bound on tw(L) also bounds pw(L) from below
        ok = (TARGET_TW, target) if target == TARGET_PW else (target,)
        return [e for e in self.entries if e.kind == "lower" and e.target in ok]

    def uppers(self, target: str) -> list[BoundEntry]:
        # an upper bound on pw(L) also bounds tw(L) from above
        ok = (TARGET_PW, target) if target == TARGET_TW else (target,)
        return [e for e in self.entries if e.kind == "upper" and e.target in ok]

    def check_consistency(self) -> None:
        for target in (TARGET_TW, TARGET_PW):
            lows = [e.value for e in self.lowers(target)]
            highs = [e.value for e in self.uppers(target)]
            if lows and highs and max(lows) > min(highs):
                raise DomainError(f"inconsistent bounds for {target}")
            if target in self.exact:
                ex = self.exact[target]
                if any(v > ex for v in lows) or any(v < ex for v in highs):
                    raise DomainError(f"bound contradicts exact value for {target}")

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"bound {e.name} {e.kind} {e.target} {format_value(e.value)}")
        for target in sorted(self.exact):
            lines.append(f"exact {target} {self.exact[target]}")
        for note in self.notes:
            lines.append(f"note {note}")
        return "\n".join(lines) + "\n"


def format_value(value) -> str:
    """A bound value as text: integral fractions without their denominator."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return str(value)


def _smaller_upper(tw_g: int, delta: int) -> str:
    tight = incident_expansion_bound(tw_g, delta) <= balanced_split_bound_tree(tw_g, delta)
    return "incident-expansion-tw" if tight else "balanced-split-tw"


# what the report rows are built from, solved once each in this order: the
# average-degree bound on a densest subgraph, the minimum-degree bound, and
# the exact tw, pw and cutwidth of g
_SOURCES = {
    "avg": lambda g: avg_degree_lower_bound(g).integer_bound,
    "min": min_degree_lower_bound,
    "tw": lambda g: exact_treewidth(g).width,
    "pw": lambda g: exact_pathwidth(g).width,
    "cw": lambda g: cutwidth_solver(g).value,
}

# the report rows in order, entries before notes: name, kind, target, the
# source it is built from (None: the max degree alone), and its value as a
# function of that source's value w and the max degree d
_ROWS = (
    ("avg-degree", "lower", TARGET_TW, "avg", lambda w, d: w),
    ("min-degree", "lower", TARGET_TW, "min", lambda w, d: w),
    ("endpoint-halving", "lower", TARGET_TW, "tw", lambda w, d: Fraction(w + 1, 2) - 1),
    ("incident-expansion-tw", "upper", TARGET_TW, "tw", incident_expansion_bound),
    ("incident-expansion-pw", "upper", TARGET_PW, "pw", incident_expansion_bound),
    ("graph-treewidth", "lower", TARGET_TW, "tw", lambda w, d: w - 1),
    ("star-clique", "lower", TARGET_TW, None, lambda w, d: d - 1),
    ("balanced-split-tw", "upper", TARGET_TW, "tw", balanced_split_bound_tree),
    ("balanced-split-pw", "upper", TARGET_PW, "pw", balanced_split_bound_path),
    ("cutwidth", "lower", TARGET_PW, "cw", lambda w, d: w),
    ("cutwidth-slack", "upper", TARGET_PW, "cw", lambda w, d: w + d // 2 - 1),
    ("conjectured-half-expansion", "note", TARGET_TW, "tw", lambda w, d: Fraction(w + 1, 2) * d - 1),
    ("smaller-upper", "note", TARGET_TW, "tw", _smaller_upper),
)


def bounds_report(g: Graph, compute_exact: bool = False) -> BoundsReport:
    """All closed-form bounds side by side, with exact line-graph widths on
    request.  Internal consistency (every lower <= every upper, and both
    against exact values when present) is enforced before returning.

    When a solver refuses g for its size, the rows built from its value are
    left out and each is named in a ``skipped`` note, in row order; with
    compute_exact a refusal of a width solver is raised instead."""
    if g.n == 0:
        raise DomainError("undefined on the empty graph")
    if g.edge_count == 0:
        raise DomainError("the line graph is empty; bounds are vacuous")
    delta = g.max_degree()
    solved: dict = {None: None}  # star-clique needs no solver
    refused: dict[str, SolverLimitError] = {}
    for source, solve in _SOURCES.items():
        if source == "cw" and delta < 2:
            continue  # on a matching, cw(g) = 1 exceeds pw(L) = 0
        try:
            solved[source] = solve(g)
        except SolverLimitError as exc:
            if compute_exact and source != "avg":
                raise
            refused[source] = exc
    entries: list[BoundEntry] = []
    notes: list[str] = []
    for name, kind, target, source, value in _ROWS:
        if source in solved:
            x = value(solved[source], delta)
            if kind == "note":
                notes.append(f"{name} {target} {format_value(x)}")
            else:
                entries.append(BoundEntry(name, kind, target, x))
    for source, exc in refused.items():
        notes += [f"skipped {name}: {exc}" for name, _, _, built, _ in _ROWS if built == source]
    exact: dict[str, int] = {}
    if compute_exact:
        lg, _ = line_graph(g)
        exact[TARGET_TW] = exact_treewidth(lg).width
        exact[TARGET_PW] = exact_pathwidth(lg).width
    report = BoundsReport(tuple(entries), exact, tuple(notes))
    report.check_consistency()
    return report
