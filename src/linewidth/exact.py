"""Exact treewidth and pathwidth solvers (independent oracles).

Treewidth is computed by subset dynamic programming over elimination
orderings; pathwidth by the vertex-separation subset DP.  Both emit
decompositions of exactly the reported width so the results can be checked
by the decomposition validator.  The treewidth solver also returns its
elimination ordering as a replayable certificate; one elimination game
gives both the replayed width and the bags of the decomposition.

Each solver passes the graph and its vertex list to ``kernels.solve``,
which checks the limit and returns the DP optimum with an optimal ordering
of those vertex ids.  The fill is memoised on the kernel name and the
adjacency masks, so a graph solved again soon after (by ``bounds_report``,
say) is not filled again; the witness is still built and checked on every
call.  ``exact_treewidth(line_graph(g))`` stays an independent oracle for
the congestion of g: its masks are those of L(g), a different memo key
from any solve on g.
"""

from __future__ import annotations

from dataclasses import dataclass

from linewidth import kernels
from linewidth.decompositions import SUBJECT_GRAPH, PathDecomposition, TreeDecomposition
from linewidth.graphs import DomainError, Graph

SOLVER_LIMIT = 20


@dataclass(frozen=True)
class EliminationCertificate:
    """Vertex elimination ordering and the width it achieves."""

    ordering: tuple[int, ...]
    width: int

    def simulate(self, g: Graph) -> int:
        """Replay the elimination and return the largest bag minus one."""
        return max(map(len, _elimination_bags(g, self.ordering)), default=1) - 1


def _elimination_bags(g: Graph, ordering) -> list[frozenset[int]]:
    """The bag {v} | N(v) of each vertex v in elimination order, taken just
    before v is eliminated and its remaining neighbours joined in a clique."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = []
    for v in ordering:
        nb = adj.pop(v)
        bags.append(frozenset(nb | {v}))
        for a in nb:
            adj[a].discard(v)
            adj[a].update(nb - {a})
    return bags


@dataclass(frozen=True)
class TreewidthResult:
    width: int
    certificate: EliminationCertificate
    decomposition: TreeDecomposition


@dataclass(frozen=True)
class PathwidthResult:
    width: int
    decomposition: PathDecomposition
    ordering: tuple[int, ...]


def exact_treewidth(g: Graph, max_vertices: int = SOLVER_LIMIT) -> TreewidthResult:
    if g.n == 0:
        raise DomainError("treewidth is undefined for the empty graph")
    tw, ordering = kernels.solve(g, g.vertices, "treewidth", max_vertices)
    bags = _elimination_bags(g, ordering)
    if max(map(len, bags)) - 1 != tw:  # internal consistency; never expected
        raise DomainError("elimination replay disagrees with the DP table")
    cert = EliminationCertificate(ordering, tw)
    return TreewidthResult(tw, cert, _decomposition_from_elimination(ordering, bags))


def _decomposition_from_elimination(ordering, bags) -> TreeDecomposition:
    """Fill-in construction: node i holds the bag of the i-th eliminated
    vertex and hangs off the node of its earliest-eliminated later
    neighbour, or off the last node when it has none.  No bag is contained
    in its parent's, which is taken after the vertex is gone."""
    pos = {v: i for i, v in enumerate(ordering, start=1)}
    last = len(ordering)
    # a node's one higher neighbour is its parent: .td edge lines are (i, parent) by i
    edges = [
        (i, min((pos[w] for w in bag if pos[w] != i), default=last))
        for i, bag in enumerate(bags[:-1], start=1)
    ]
    nodes = range(1, last + 1)
    return TreeDecomposition(nodes, edges, dict(zip(nodes, bags)), SUBJECT_GRAPH)


def exact_pathwidth(g: Graph, max_vertices: int = SOLVER_LIMIT) -> PathwidthResult:
    if g.n == 0:
        raise DomainError("pathwidth is undefined for the empty graph")
    pw, ordering = kernels.solve(g, g.vertices, "pathwidth", max_vertices)
    # bag i = v_i plus the placed vertices that still have later neighbours;
    # no earlier bag holds v_i, so a bag is only ever dropped for a later one
    bags: list[frozenset[int]] = []
    placed: set[int] = set()
    for v in ordering:
        bags.append(frozenset([v, *(u for u in placed if not g.neighbors(u) <= placed)]))
        placed.add(v)
    cleaned: list[frozenset[int]] = []
    for bag in bags:
        while cleaned and cleaned[-1] <= bag:
            cleaned.pop()
        cleaned.append(bag)
    dec = PathDecomposition(cleaned, SUBJECT_GRAPH)
    return PathwidthResult(pw, dec, ordering)
