import pytest
from hypothesis import given

from conftest import graphs
from linewidth.congestion import (
    CongestionCertificate,
    LeafEmbedding,
    caterpillar_embedding,
    cutwidth,
    golovach_check,
    min_path_congestion,
    min_tree_congestion,
    vertex_congestion,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import (
    DomainError,
    Graph,
    SolverLimitError,
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    star_graph,
)
from oracles import (
    brute_cutwidth,
    brute_path_congestion,
    brute_tree_congestion,
    subdivide_embedding,
)


def test_vertex_congestion_triangle_on_star_tree():
    e = LeafEmbedding((1, 2, 3, 4), [(1, 4), (2, 4), (3, 4)], {1: 1, 2: 2, 3: 3})
    value, profile = vertex_congestion(e, complete_graph(3))
    assert value == 3 and profile[4] == 3


def test_vertex_congestion_single_edge():
    for assignment in ({1: 1, 2: 2}, {1: 2, 2: 1}):
        e = LeafEmbedding((1, 2), [(1, 2)], assignment)
        assert vertex_congestion(e, complete_graph(2)) == (1, {1: 1, 2: 1})


def test_vertex_congestion_counts_endpoints():
    # the star centre placed on a leaf of a 4-leaf tree carries deg = 3
    g = star_graph(3)  # centre is vertex 4
    e = LeafEmbedding(
        (1, 2, 3, 4, 5, 6),
        [(1, 5), (2, 5), (3, 6), (4, 6), (5, 6)],
        {4: 1, 1: 2, 2: 3, 3: 4},
    )
    value, profile = vertex_congestion(e, g)
    assert profile[1] == 3 and value == 3


def test_embedding_validation_errors():
    g = complete_graph(3)
    with pytest.raises(DomainError):  # not injective
        vertex_congestion(
            LeafEmbedding((1, 2, 3, 4), [(1, 4), (2, 4), (3, 4)], {1: 1, 2: 1, 3: 3}), g
        )
    with pytest.raises(DomainError):  # degree-4 node
        LeafEmbedding(
            (1, 2, 3, 4, 5), [(1, 5), (2, 5), (3, 5), (4, 5)], {1: 1, 2: 2, 3: 3}
        ).check(g)
    with pytest.raises(DomainError):  # assigned to an internal node
        LeafEmbedding((1, 2, 3), [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 3}).check(g)


def test_min_tree_congestion_small_cliques():
    assert min_tree_congestion(complete_graph(2)).value == 1
    assert min_tree_congestion(complete_graph(3)).value == 3  # brute: single shape
    assert min_tree_congestion(complete_graph(4)).value == 5  # frozen brute-force value


def test_min_tree_congestion_errors():
    with pytest.raises(DomainError):
        min_tree_congestion(Graph(3))
    with pytest.raises(SolverLimitError):
        min_tree_congestion(complete_graph(5), max_vertices=4)


def test_min_path_congestion_examples():
    assert min_path_congestion(complete_graph(3)).value == 3
    assert min_path_congestion(complete_graph(2)).value == 1
    assert min_path_congestion(star_graph(3)).value == 3
    with pytest.raises(DomainError):
        min_path_congestion(Graph(2))
    with pytest.raises(SolverLimitError):
        min_path_congestion(complete_graph(6), max_vertices=5)


def test_cutwidth_examples():
    assert cutwidth(star_graph(3)).value == 2
    assert cutwidth(path_graph(4)).value == 1
    assert cutwidth(complete_graph(4)).value == 4  # frozen from all 24 orderings
    assert cutwidth(Graph(3)).value == 0
    with pytest.raises(SolverLimitError):
        cutwidth(complete_graph(6), max_vertices=5)


def test_golovach_examples():
    rep = golovach_check(star_graph(3))
    assert (rep.lower, rep.cutwidth, rep.upper, rep.holds) == (2, 2, 2, True)
    rep = golovach_check(complete_graph(3))
    assert (rep.lower, rep.cutwidth, rep.upper, rep.holds) == (2, 2, 2, True)
    rep = golovach_check(cycle_graph(4))
    assert (rep.lower, rep.cutwidth, rep.upper, rep.holds) == (2, 2, 2, True)
    with pytest.raises(DomainError):
        golovach_check(path_graph(2))


@given(graphs(min_vertices=2, max_vertices=5, min_edges=1))
def test_tree_congestion_matches_brute_force(g):
    assert min_tree_congestion(g).value == brute_tree_congestion(g)


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_path_congestion_and_cutwidth_match_brute_force(g):
    assert min_path_congestion(g).value == brute_path_congestion(g)
    assert cutwidth(g).value == brute_cutwidth(g)


@given(graphs(min_vertices=2, max_vertices=7, min_edges=1))
def test_certificates_reevaluate(g):
    for cert in (min_tree_congestion(g), min_path_congestion(g), cutwidth(g)):
        assert cert.reevaluate(g) == cert.value
    bogus = CongestionCertificate(0, "nonsense")
    with pytest.raises(DomainError):
        bogus.reevaluate(g)


@given(graphs(min_vertices=2, max_vertices=7, min_edges=1))
def test_congestion_bracket(g):
    # max degree <= con <= min path congestion
    con = min_tree_congestion(g).value
    delta = max(g.degree(v) for v in g.non_isolated_vertices())
    assert delta <= con <= min_path_congestion(g).value


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_congestion_width_equalities(g):
    lg, _ = line_graph(g)
    assert min_tree_congestion(g).value == exact_treewidth(lg).width + 1
    assert min_path_congestion(g).value == exact_pathwidth(lg).width + 1


@given(graphs(min_vertices=2, max_vertices=5, min_edges=1))
def test_subdividing_tree_edges_never_helps(g):
    # degree-2 nodes are contractible, so the binary-tree search space is
    # enough; splicing extra nodes into an optimal tree changes nothing
    cert = min_tree_congestion(g)
    for edge in cert.embedding.edges:
        for times in (1, 2):
            spliced = subdivide_embedding(cert.embedding, edge, times)
            assert vertex_congestion(spliced, g)[0] == cert.value


def _partial_position_load(prefix, g):
    pos = {v: i for i, v in enumerate(prefix, start=1)}
    counts = [0] * (len(prefix) + 1)
    for u, v in g.edges:
        if u in pos and v in pos:
            lo, hi = sorted((pos[u], pos[v]))
            for i in range(lo, hi + 1):
                counts[i] += 1
    return max(counts)


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_partial_congestion_is_monotone(g):
    # instrument the pruning premise: replaying a witness placement one
    # vertex at a time never lets the running maximum decrease
    cert = min_path_congestion(g)
    order = list(cert.ordering.order)
    running = 0
    for i in range(2, len(order) + 1):
        partial = _partial_position_load(order[:i], g)
        assert partial >= running
        running = partial
    assert running == cert.value


def test_caterpillar_matches_ordering_congestion():
    g = cycle_graph(5)
    cert = min_path_congestion(g)
    emb = caterpillar_embedding(cert.ordering, g)
    assert vertex_congestion(emb, g)[0] == cert.value


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_tree_search_is_deterministic(g):
    a = min_tree_congestion(g)
    b = min_tree_congestion(g)
    assert a.value == b.value
    assert a.embedding == b.embedding


def _loads_for_prefix(emb, g, placed):
    # independent route counting restricted to edges among `placed`
    adj = emb.adjacency()
    loads = {n: 0 for n in emb.nodes}
    for u, v in g.edges:
        if u in placed and v in placed:
            x, y = emb.assignment[u], emb.assignment[v]
            parent = {x: None}
            stack = [x]
            while stack:
                n = stack.pop()
                for nb in adj[n]:
                    if nb not in parent:
                        parent[nb] = n
                        stack.append(nb)
            while y is not None:
                loads[y] += 1
                y = parent[y]
    return max(loads.values())


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_tree_prefix_congestion_is_monotone(g):
    # the branch-and-bound pruning premise on the final tree: adding the
    # placed vertices back one at a time never lowers the running maximum
    cert = min_tree_congestion(g)
    order = sorted(g.non_isolated_vertices(), key=lambda v: (-g.degree(v), v))
    running = 0
    for k in range(2, len(order) + 1):
        partial = _loads_for_prefix(cert.embedding, g, set(order[:k]))
        assert partial >= running
        running = partial
    assert running == cert.value
