"""Simple undirected graphs, line graphs, and degree statistics.

Vertices are the integers 1..n.  Edges are stored canonically as sorted
pairs in lexicographic order; the 1-based position of a pair in
``Graph.edges`` is its stable *edge id*, which doubles as the vertex id of
that edge in the line graph.  All objects are immutable and all functions
are pure, so everything here is safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence


class DomainError(ValueError):
    """Structurally valid input that is outside an operation's domain."""


class SolverLimitError(DomainError):
    """Instance exceeds a solver's configured size limit."""

    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what}: instance size {size} exceeds the limit of {limit}")
        self.size = size
        self.limit = limit


class FormatError(DomainError):
    """Malformed input text or file."""


class Graph:
    """Undirected simple graph on vertices 1..n (no loops, no multi-edges)."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        canon = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"edge {{{u},{v}}} has an endpoint outside 1..{n}")
            canon.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        adj = [set() for _ in range(n + 1)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj[1:]), default=0)

    def min_degree(self) -> int:
        return min((len(s) for s in self._adj[1:]), default=0)

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if not self._adj[v])

    def non_isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self._adj[v])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def edge_id_map(g: Graph) -> dict[tuple[int, int], int]:
    """Map each canonical edge pair of g to its 1-based edge id."""
    return {e: i for i, e in enumerate(g.edges, start=1)}


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Build L(g): one vertex per edge of g, adjacent iff the edges share an
    endpoint.  Returns (L, labels) where labels[i-1] is the edge of g behind
    vertex i of L.  The labelling is stable: equal graphs give equal labels.
    """
    ledges = [pair for ids in incident_edge_ids(g) for pair in combinations(ids, 2)]
    return Graph(g.edge_count, ledges), g.edges


def incident_edge_ids(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The ids of the edges at each vertex in increasing order, indexed by
    vertex (entry 0 is empty).  Two edges share at most one endpoint, so the
    pairs within these tuples are the edges of L(g), each exactly once."""
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for eid, (u, v) in enumerate(g.edges, start=1):
        incident[u].append(eid)
        incident[v].append(eid)
    return tuple(map(tuple, incident))


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class DegreeStats:
    """Exact degree statistics; the average is kept as a rational."""

    min_degree: int
    max_degree: int
    avg_degree: Fraction


def degree_stats(g: Graph) -> DegreeStats:
    if g.n == 0:
        raise DomainError("undefined statistics for the empty graph")
    return DegreeStats(g.min_degree(), g.max_degree(), Fraction(2 * g.edge_count, g.n))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph relabelled to 1..k, preserving the order of `vertices`."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts, start=1)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(verts), edges)


DENSE_LIMIT = 18  # vertices of g for the exhaustive densest-subgraph search


def minimal_dense_vertex_set(g: Graph) -> tuple[int, ...]:
    """Vertex set of an induced subgraph maximizing average degree, with the
    fewest vertices among maximizers (ties broken toward the lexicographically
    least set).  The result H satisfies d(H) >= d(g) and deleting any
    nonempty proper vertex subset of H strictly lowers its average degree.

    Exhaustive over the nonempty subsets of a core of g; n is capped at
    DENSE_LIMIT, read at each call, because the core can be all of g.  Let
    r be the largest e(S) // |S| met while peeling a vertex of least degree
    at a time off g.  With edges present, every vertex of a fewest-vertex
    maximizer H has more than e(H)/|H| >= r neighbours in H, else deleting
    it would keep the density with fewer vertices, so H lies in the
    (r + 1)-core.  The core's vertices keep their order as bits, so the
    scan meets its subsets in the same relative order as over all of g and
    breaks ties the same way.
    """
    if g.n == 0:
        raise DomainError("undefined on the empty graph")
    if g.n > DENSE_LIMIT:
        raise SolverLimitError("minimal dense subgraph search", g.n, DENSE_LIMIT)
    if not g.edges:  # every single vertex has density 0: the least is vertex 1
        return (1,)
    core = _dense_core(g)
    masks = _adjacency_masks(g, core)
    size = 1 << len(core)
    # edge counts per subset: e(S) = e(S minus lowest bit) + |N(low) & S|,
    # compared with the best so far as soon as it is known; subsets come in
    # increasing order, so the first of equal size and density is least
    inner = [0] * size
    best_s, best_m, best_k = 1, 0, 1
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        m = inner[s] = inner[rest] + (masks[v] & rest).bit_count()
        k = s.bit_count()
        # compare 2m/k with 2*best_m/best_k by cross multiplication
        diff = m * best_k - best_m * k
        if diff > 0 or (diff == 0 and k < best_k):
            best_s, best_m, best_k = s, m, k
    return tuple(v for i, v in enumerate(core) if best_s >> i & 1)


def _dense_core(g: Graph) -> list[int]:
    """The (r + 1)-core of g, in increasing order, for r the largest
    e(S) // |S| over the sets S left while a vertex of least degree is
    peeled off at a time; the peeling meets the core as the first set whose
    least degree is at least r + 1."""
    masks = _adjacency_masks(g, g.vertices)
    alive = (1 << g.n) - 1
    edges = len(g.edges)
    r = 0
    left = []  # (S, least degree in G[S]) along the peeling
    while alive:
        r = max(r, edges // alive.bit_count())
        least, low = min(
            ((masks[v] & alive).bit_count(), 1 << v) for v in range(g.n) if alive >> v & 1
        )
        left.append((alive, least))
        edges -= least
        alive ^= low
    core = next(s for s, least in left if least > r)
    return [v + 1 for v in range(g.n) if core >> v & 1]


def minimal_dense_subgraph(g: Graph) -> Graph:
    """Induced subgraph of maximum average degree with fewest vertices."""
    return induced_subgraph(g, minimal_dense_vertex_set(g))


def _adjacency_masks(g: Graph, vertices: Sequence[int]) -> list[int]:
    """Bitmask adjacency over the given vertices (bit i = vertices[i])."""
    index = {v: i for i, v in enumerate(vertices)}
    masks = [0] * len(index)
    for u, v in g.edges:
        if u in index and v in index:
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
    return masks


def reach(neighbors, start) -> set:
    """The nodes reachable from start, start included, where neighbors(v)
    gives the nodes adjacent to v."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    seen = set()
    comps = []
    for start in g.vertices:
        if start not in seen:
            comp = reach(g.neighbors, start)
            seen |= comp
            comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(reach(g.neighbors, 1)) == g.n


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n - 1 and is_connected(g)


# -- convenience constructors ------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_bipartite_graph(p: int, q: int) -> Graph:
    """K_{p,q}: parts 1..p and p+1..p+q."""
    if p < 1 or q < 1:
        raise DomainError("both parts must be nonempty")
    return Graph(p + q, [(i, p + j) for i in range(1, p + 1) for j in range(1, q + 1)])


def star_graph(m: int) -> Graph:
    """K_{1,m} with the centre at vertex m+1."""
    return complete_bipartite_graph(m, 1)


# -- .gr file format ---------------------------------------------------------
#
# Optional comment lines start "c "; one header "p tw <n> <m>"; then m lines
# "<u> <v>" with 1-indexed endpoints.  The writer emits edges in canonical
# edge-id order.

def parse_gr(text: str) -> Graph:
    header = None
    seen = set()
    for lineno, parts in records(text):
        if parts[0] == "p":
            header = header_fields(parts, lineno, header, "p tw <n> <m>")
            n = header[0]
            continue
        if header is None:
            raise FormatError(f"line {lineno}: edge before 'p tw' header")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected '<u> <v>'")
        u, v = _int(parts[0], lineno), _int(parts[1], lineno)
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: endpoint outside 1..{n}")
        key = _pair(u, v)
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {{{u},{v}}}")
        seen.add(key)
    if header is None:
        raise FormatError("missing 'p tw <n> <m>' header")
    if len(seen) != header[1]:
        raise FormatError(f"header declares {header[1]} edges, found {len(seen)}")
    return Graph(n, seen)


def format_gr(g: Graph, comments: Sequence[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p tw {g.n} {g.edge_count}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_gr(path) -> Graph:
    return parse_gr(read_text(path))


# -- rules shared by the .gr, .td, .emb and .ord formats -----------------------

def records(text: str):
    """(line number, fields) of each line that is neither blank nor a
    comment, a comment being a line whose first field starts with "c"."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("c"):
            yield lineno, parts


def header_fields(parts: list[str], lineno: int, header, usage: str) -> tuple[int, ...]:
    """The integer fields of a header line shaped like `usage` (its first two
    fields literal, one integer per placeholder), given the header read so
    far, which must be None: a file has at most one header."""
    if header is not None:
        raise FormatError(f"line {lineno}: duplicate header")
    shape = usage.split()
    if len(parts) != len(shape) or parts[1] != shape[1]:
        raise FormatError(f"line {lineno}: expected '{usage}'")
    return tuple(_int(tok, lineno) for tok in parts[2:])


def read_text(path) -> str:
    """Contents of an ASCII input file; any other byte is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {lineno}: non-ASCII byte in {path}") from None


def write_text(path, text: str) -> None:
    """Write the ASCII text of a formatted object to a file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: expected an integer, got {token!r}") from None
