import functools
import random
from itertools import combinations

import pytest
from hypothesis import example, given

from conftest import graphs
from linewidth import kernels
from linewidth.bounds import TARGET_PW, bounds_report
from linewidth.congestion import (
    CongestionCertificate,
    LeafEmbedding,
    LinearOrdering,
    caterpillar_embedding,
    cutwidth,
    format_emb,
    min_path_congestion,
    min_tree_congestion,
    vertex_congestion,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import (
    DomainError,
    Graph,
    SolverLimitError,
    _adjacency_masks,
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    star_graph,
)
import oracles
from oracles import (
    brute_cutwidth,
    brute_path_congestion,
    brute_tree_congestion,
    subdivide_embedding,
    tree_congestion_by_search,
)

# triangle 1-2-3 with a pendant edge at each corner: tree congestion 3, but
# every path embedding carries more, so its witness comes from the replay
NET = Graph(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])


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
    edgeless = cutwidth(Graph(3))
    assert edgeless.value == 0
    assert edgeless.ordering == LinearOrdering(())
    with pytest.raises(SolverLimitError):
        cutwidth(complete_graph(6), max_vertices=5)


def test_golovach_examples():
    # the sandwich pw(L) - floor(delta/2) + 1 <= cw <= pw(L) lives in the bound
    # report: `cutwidth` bounds pw(L) below, `cutwidth-slack` bounds it above
    for g in (star_graph(3), complete_graph(3), cycle_graph(4)):
        rep = bounds_report(g, compute_exact=True)
        values = {e.name: e.value for e in rep.entries}
        assert (values["cutwidth"], values["cutwidth-slack"], rep.exact[TARGET_PW]) == (2, 2, 2)
    names = {e.name for e in bounds_report(path_graph(2)).entries}
    assert not names & {"cutwidth", "cutwidth-slack"}  # undefined below max degree 2


@given(graphs(min_vertices=2, max_vertices=5, min_edges=1))
def test_tree_congestion_matches_brute_force(g):
    assert min_tree_congestion(g).value == brute_tree_congestion(g)


def assert_witness_of_the_search(g):
    value, emb = tree_congestion_by_search(g)
    cert = min_tree_congestion(g)
    assert cert.value == value
    assert format_emb(cert.embedding, g) == format_emb(emb, g)


def test_net_witness_comes_from_the_replay():
    assert min_tree_congestion(NET).value == 3 < min_path_congestion(NET).value


@given(graphs(min_vertices=2, max_vertices=8, min_edges=1))
@example(NET)
def test_tree_congestion_witness_equals_branch_and_bound(g):
    assert_witness_of_the_search(g)


@functools.cache
def gap_graphs(count: int, seed: int, gap: bool = True) -> tuple[Graph, ...]:
    """The first `count` graphs of a seeded G(9, m) stream, m from 9 to 18,
    whose path congestion is above their tree congestion, or with gap=False
    equal to it."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, 10), 2))
    found = []
    while len(found) < count:
        g = Graph(9, rng.sample(pairs, rng.randint(9, 18)))
        masks = _adjacency_masks(g, g.non_isolated_vertices())
        pcon = kernels.path_congestion_table(masks)[-1]
        if (pcon > kernels.tree_congestion_table(masks)[-1]) == gap:
            found.append(g)
    return tuple(found)


def test_tree_congestion_witness_on_seeded_gap_graphs_with_9_vertices():
    # hypothesis graphs with n <= 8 rarely need the replay; these always do
    for g in gap_graphs(20, seed=2024):
        assert_witness_of_the_search(g)


# The 51st gap graph (con 4 < pcon 5) of a seeded G(10, m) stream, m from 10
# to 20, no isolated vertex, seed 2024.  Its replay meets a tree edge whose
# load equals the bound, and the first witness subdivides that edge.
TIE_AT_THE_BOUND = Graph(
    10, [(1, 6), (1, 7), (1, 9), (2, 9), (3, 7), (3, 9), (4, 6), (5, 10), (6, 9), (7, 8)]
)
TIE_AT_THE_BOUND_EMB = (
    "s emb 18 10\n"
    + "".join(
        f"t {a} {b}\n"
        for a, b in [
            (1, 13), (2, 3), (3, 5), (3, 11), (4, 11), (5, 7), (5, 15), (6, 15), (7, 8),
            (7, 9), (9, 10), (9, 13), (11, 12), (13, 17), (14, 17), (15, 16), (17, 18),
        ]
    )
    + "".join(
        f"l {node} {v}\n" for v, node in enumerate([2, 10, 8, 12, 14, 4, 6, 16, 1, 18], 1)
    )
)


def test_tree_congestion_witness_keeps_an_edge_loaded_to_the_bound():
    # the reference search in oracles.py is too slow at n = 10; the .emb bytes
    # are pinned instead, so skipping edges at the bound changes them
    g = TIE_AT_THE_BOUND
    assert format_emb(min_tree_congestion(g).embedding, g) == TIE_AT_THE_BOUND_EMB


def test_tree_congestion_capped_at_the_path_incumbent_is_exact():
    # where con < pcon the capped last entry must still be con itself
    gaps = gap_graphs(20, seed=2024) + (TIE_AT_THE_BOUND,)
    for g in gaps + gap_graphs(len(gaps), seed=2024, gap=False):
        masks = _adjacency_masks(g, g.non_isolated_vertices())
        assert min_tree_congestion(g).value == oracles.tree_congestion_table(masks)[-1]


def test_tree_congestion_witness_on_every_labelled_graph_up_to_5_vertices():
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for chosen in range(1, 1 << len(pairs)):
            assert_witness_of_the_search(
                Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            )


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


def _loads_by_search(e, g):
    """Per-node count of the edges of g whose tree path, found by
    breadth-first search over e's tree, passes the node."""
    adj = {n: set() for n in e.nodes}
    for a, b in e.edges:
        adj[a].add(b)
        adj[b].add(a)
    loads = dict.fromkeys(e.nodes, 0)
    for u, v in g.edges:
        for node in oracles.bfs_tree_path(adj, e.assignment[u], e.assignment[v]):
            loads[node] += 1
    return loads


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_node_loads_match_paths_found_by_search(g):
    # every binary tree, not only optimal ones, and each once more with
    # every edge subdivided, so that degree-2 nodes carry loads too
    for edges, assignment in oracles.binary_leaf_trees(g.non_isolated_vertices()):
        emb = spliced = LeafEmbedding({n for e in edges for n in e}, edges, assignment)
        for edge in emb.edges:
            spliced = subdivide_embedding(spliced, edge)
        for e in (emb, spliced):
            value, profile = vertex_congestion(e, g)
            loads = _loads_by_search(e, g)
            assert list(profile) == list(e.nodes)
            assert profile == loads
            assert value == max(loads.values())


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
    emb = caterpillar_embedding(cert.ordering)
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
