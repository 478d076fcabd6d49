"""Generators for the graph families with known sharp line-graph widths,
and the explicit orderings that attain them.

* path-power n k: vertices 1..n, edges between vertices at distance <= k.
* cycle-power n k: same with circular distance.
* cycle-power-matched n k: the cycle power minus the matching
  {(i, n-k+i) : i = 1..k}, and additionally minus
  {(k+1,k+2), (k+3,k+4), ..., (n-k-1,n-k)} when n is even; this drops the
  minimum degree to 2k-1 while keeping the same sharp ordering.
* grid-cliques n k (k >= 4): the n x n grid where every grid vertex v gets
  k - deg(v) pendant cliques of order k+1, each attached by a single edge;
  all degrees become k except the attachment vertices with k+1.

For the power families, placing vertex i at position i of a path gives a
decomposition of the line graph whose width matches the minimum-degree
bound (exactly for even minimum degree).  For grid-cliques the whole group
of a grid vertex (the vertex plus its pendant cliques) shares its position,
which keeps the width linear in n however large the grid gets.

The functions that build decompositions or solve import what they call, so
reading `FAMILY_NAMES`, as the command-line parser does, loads no solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from linewidth.graphs import (
    DomainError,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    line_graph,
)

_PARAM_COUNT = {
    "complete": 1,
    "complete-bipartite": 2,
    "path-power": 2,
    "cycle-power": 2,
    "cycle-power-matched": 2,
    "grid-cliques": 2,
}

FAMILY_NAMES = tuple(_PARAM_COUNT)

# The most edges a family graph may have.  A spec above it is refused before
# anything is built: building and writing 245,000 edges took 0.6 s and
# 107 MB (Python 3.11), and the memory grows with the edge count.
FAMILY_EDGE_LIMIT = 200_000

# The most bag entries `sharp_embedding` may build.  The edge limit does not
# bound them: path-power (2k+1) k has about 1.5k^2 edges but about k^3/1.5
# bag entries.  They are bounded from the parameters by the bag count times
# the closed form plus one, which no bag exceeds, and a spec whose bound is
# above this is refused before anything is built.
SHARP_BAG_LIMIT = 1_000_000


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise DomainError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if len(self.params) != _PARAM_COUNT[self.family]:
            raise DomainError(
                f"{self.family} takes {_PARAM_COUNT[self.family]} parameters"
            )
        if self.family == "complete":
            (n,) = self.params
            if n < 1:
                raise DomainError("complete requires n >= 1")
        elif self.family == "complete-bipartite":
            p, q = self.params
            if not p >= q >= 1:
                raise DomainError("complete-bipartite requires p >= q >= 1")
        elif self.family in ("path-power", "cycle-power", "cycle-power-matched"):
            n, k = self.params
            if k < 1:
                raise DomainError(f"{self.family} requires k >= 1")
            if n <= 2 * k:
                raise DomainError(f"{self.family} requires n > 2k")
        elif self.family == "grid-cliques":
            n, k = self.params
            if n < 3:
                raise DomainError("grid-cliques requires n >= 3")
            if k < 4:
                raise DomainError("grid-cliques requires k >= 4 (the grid max degree)")
        m = self.edge_count()
        if m > FAMILY_EDGE_LIMIT:
            raise DomainError(
                f"{self.label()} has {m} edges, above the limit of {FAMILY_EDGE_LIMIT}"
            )

    @classmethod
    def parse(cls, tokens) -> "FamilySpec":
        if not tokens:
            raise DomainError("missing family name")
        try:
            params = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise DomainError("family parameters must be integers") from None
        return cls(tokens[0], params)

    def label(self) -> str:
        return " ".join([self.family, *map(str, self.params)])

    def edge_count(self) -> int:
        """The edge count of the graph `generate` builds, from the
        parameters alone."""
        if self.family == "complete":
            (n,) = self.params
            return n * (n - 1) // 2
        if self.family == "complete-bipartite":
            p, q = self.params
            return p * q
        n, k = self.params
        if self.family == "path-power":
            return n * k - k * (k + 1) // 2
        if self.family == "cycle-power":
            return n * k
        if self.family == "cycle-power-matched":
            return n * k - k - (len(range(k + 1, n - k, 2)) if n % 2 == 0 else 0)
        # grid-cliques: the grid, plus k - deg(v) pendant cliques at each
        # grid vertex v, each of k + 1 vertices and one attaching edge
        grid = 2 * n * (n - 1)
        return grid + (k * n * n - 2 * grid) * (1 + k * (k + 1) // 2)


def generate(spec: FamilySpec) -> Graph:
    if spec.family == "complete":
        return complete_graph(spec.params[0])
    if spec.family == "complete-bipartite":
        return complete_bipartite_graph(*spec.params)
    if spec.family == "path-power":
        n, k = spec.params
        return Graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, min(i + k, n) + 1)])
    if spec.family == "cycle-power":
        n, k = spec.params
        # n > 2k, so the pairs are distinct; Graph sorts each into (min, max)
        return Graph(
            n, [(i, (i + d - 1) % n + 1) for i in range(1, n + 1) for d in range(1, k + 1)]
        )
    if spec.family == "cycle-power-matched":
        return _cycle_power_matched(*spec.params)
    if spec.family == "grid-cliques":
        return _grid_cliques(*spec.params)[0]
    raise DomainError(f"unknown family {spec.family!r}")


def _cycle_power_matched(n: int, k: int) -> Graph:
    power = generate(FamilySpec("cycle-power", (n, k)))
    removed = {(i, n - k + i) for i in range(1, k + 1)}
    if n % 2 == 0:
        removed |= {(j, j + 1) for j in range(k + 1, n - k, 2)}
    edges = [e for e in power.edges if e not in removed]
    h = Graph(n, edges)
    if h.min_degree() != 2 * k - 1:  # construction guarantee
        raise DomainError("matched cycle power lost the intended minimum degree")
    return h


def _grid_cliques(n: int, k: int) -> tuple[Graph, dict[int, list[list[int]]]]:
    """The graph, and the pendant cliques of each grid vertex as member
    lists with the attachment vertex first."""

    def grid_id(r: int, c: int) -> int:
        return (r - 1) * n + c

    edges: list[tuple[int, int]] = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if c < n:
                edges.append((grid_id(r, c), grid_id(r, c + 1)))
            if r < n:
                edges.append((grid_id(r, c), grid_id(r + 1, c)))
    grid_degree = {
        grid_id(r, c): (2 <= r <= n - 1) + (2 <= c <= n - 1) + 2
        for r in range(1, n + 1)
        for c in range(1, n + 1)
    }
    next_id = n * n + 1
    groups: dict[int, list[list[int]]] = {v: [] for v in grid_degree}
    for v in sorted(grid_degree):
        for _ in range(k - grid_degree[v]):
            members = list(range(next_id, next_id + k + 1))
            next_id += k + 1
            edges.append((v, members[0]))
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    edges.append((members[i], members[j]))
            groups[v].append(members)
    g = Graph(next_id - 1, edges)
    attachments = {members[0] for cliques in groups.values() for members in cliques}
    for v in g.vertices:
        expected = k + 1 if v in attachments else k
        if g.degree(v) != expected:
            raise DomainError("grid-cliques degrees are off; generator bug")
    return g, groups


def positional_line_decomposition(g: Graph, positions: dict[int, int]) -> PathDecomposition:
    """Path decomposition of L(g) from a position assignment (not
    necessarily injective): bag i holds the edges whose endpoint positions
    straddle i.  Always valid; the bag at a vertex's position contains all
    of its incident edges."""
    from linewidth.decompositions import SUBJECT_LINE, PathDecomposition

    for v in g.non_isolated_vertices():
        if v not in positions:
            raise DomainError(f"vertex {v} has no position")
    top = max(positions.values())
    if min(positions.values()) < 1:
        raise DomainError("positions must be >= 1")
    bags: list[set[int]] = [set() for _ in range(top)]
    for eid, (u, v) in enumerate(g.edges, 1):
        lo, hi = sorted((positions[u], positions[v]))
        for i in range(lo, hi + 1):
            bags[i - 1].add(eid)
    return PathDecomposition(bags, SUBJECT_LINE)


@dataclass(frozen=True)
class SharpConstruction:
    spec: FamilySpec
    ordering: LinearOrdering | None  # None when positions are shared
    decomposition: PathDecomposition
    width: int
    closed_form: int
    closed_form_is_upper: bool  # grid-cliques only bounds the width


def sharp_embedding(spec: FamilySpec, graph_file: Graph | None = None) -> SharpConstruction:
    """The stated sharp ordering of a family, rebuilt into a decomposition
    of the line graph: vertex i at path position i for the power families,
    whole grid groups sharing a position for grid-cliques.  A graph read
    from a file is checked against the family graph this generates.  A
    spec whose bags may hold more than SHARP_BAG_LIMIT entries is refused
    before anything is built."""
    from linewidth.congestion import LinearOrdering
    from linewidth.decompositions import width

    if spec.family in ("complete", "complete-bipartite"):
        raise DomainError(f"no sharp construction for family {spec.family!r}")
    n, k = spec.params
    if spec.family == "path-power":
        closed, is_upper = (k * k + 3 * k) // 2 - 1, False
    elif spec.family == "cycle-power":
        closed, is_upper = k * k + 2 * k - 1, False
    elif spec.family == "cycle-power-matched":
        closed, is_upper = (k * k + k - 1 if n % 2 else k * k + k - 2), False
    else:
        closed, is_upper = 4 * n + 4 + (k - 2) * (k * (k + 1) // 2 + 1) - 1, True
    bag_count = n * n if spec.family == "grid-cliques" else n
    if bag_count * (closed + 1) > SHARP_BAG_LIMIT:
        raise DomainError(
            f"sharp construction of {spec.label()} may hold {bag_count * (closed + 1)} "
            f"bag entries, above the limit of {SHARP_BAG_LIMIT}"
        )
    if spec.family == "grid-cliques":
        g, groups = _grid_cliques(n, k)
        # grid vertex i sits at i (row-major), its pendant cliques with it
        positions = {v: v for v in groups}
        for v, cliques in groups.items():
            positions.update((u, v) for members in cliques for u in members)
        ordering = None
    else:
        g = generate(spec)
        positions = {v: v for v in g.vertices}
        ordering = LinearOrdering(range(1, n + 1))
    if graph_file is not None and graph_file != g:
        raise DomainError(f"graph file does not match family '{spec.label()}'")
    dec = positional_line_decomposition(g, positions)
    w = width(dec)
    if is_upper:
        if w > closed:
            raise DomainError("construction exceeded its closed-form bound")
    elif w != closed:
        raise DomainError(
            f"construction width {w} differs from the closed form {closed}"
        )
    return SharpConstruction(spec, ordering, dec, w, closed, is_upper)


@dataclass(frozen=True)
class BipartiteCheck:
    bound: Fraction
    exact: int
    holds: bool


def bipartite_lower_check(p: int, q: int) -> BipartiteCheck:
    """pq/2 - 1 <= tw(L(K_{p,q})), checked against the exact solver.
    L(K_{p,q}) has pq vertices (the clique-product grid), so pq must stay
    within the solver limit."""
    from linewidth.exact import exact_treewidth

    spec = FamilySpec("complete-bipartite", (p, q))
    lg, _ = line_graph(generate(spec))
    exact = exact_treewidth(lg).width
    bound = Fraction(p * q, 2) - 1
    return BipartiteCheck(bound, exact, bound <= exact)
