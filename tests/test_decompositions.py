import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, retag_line
from linewidth.congestion import (
    LeafEmbedding,
    format_emb,
    min_tree_congestion,
    vertex_congestion,
)
from linewidth.decompositions import (
    BaseNodeAssignment,
    PathDecomposition,
    SUBJECT_GRAPH,
    SUBJECT_LINE,
    TreeDecomposition,
    decomposition_from_embedding,
    expand_to_line,
    format_td,
    limit_tree_degree,
    line_to_graph_decomposition,
    normalize_line_decomposition,
    parse_td,
    validate,
    width,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.families import FamilySpec, generate
from linewidth.graphs import (
    DomainError,
    Graph,
    complete_graph,
    incident_edge_ids,
    line_graph,
    path_graph,
    star_graph,
)
from linewidth.treeops import adjacency
from oracles import brute_line_edges, is_leaf_base_form, validate_via_line_graph


def test_validate_single_bag_over_triangle():
    d = TreeDecomposition([1], [], {1: {1, 2, 3}})
    assert validate(d, complete_graph(3)).ok
    assert width(d) == 2


def test_validate_uncovered_edge():
    d = TreeDecomposition([1, 2], [(1, 2)], {1: {1}, 2: {2}})
    rep = validate(d, complete_graph(2))
    assert not rep.ok and rep.condition == "edge-coverage"
    assert "{1,2}" in rep.witness


def test_validate_line_names_the_least_uncovered_pair_at_a_vertex_of_degree_four():
    """The four edges of a star lie along a path of bags, each edge's bags
    connected and each two neighbouring bags sharing an edge, but no bag
    holds all four: {1,3}, {1,4} and {2,4} share no bag, and the least is
    named, as the pair scan names it."""
    g = star_graph(4)
    d = PathDecomposition([{1, 2}, {2, 3}, {3, 4}], SUBJECT_LINE)
    rep = validate(d, g)
    assert (rep.ok, rep.condition) == (False, "edge-coverage")
    assert rep.witness == "adjacent pair {1,3} shares no bag"
    assert validate(PathDecomposition([{1, 2}, {1, 2, 3, 4}, {3, 4}], SUBJECT_LINE), g).ok


def test_validate_by_hand_example():
    g = Graph(3, [(1, 2), (1, 3)])
    d = TreeDecomposition([1, 2], [(1, 2)], {1: {1, 2}, 2: {1, 3}})
    assert validate(d, g).ok
    assert width(d) == 1


def test_validate_disconnected_occurrences():
    g = path_graph(3)
    d = TreeDecomposition(
        [1, 2, 3], [(1, 2), (2, 3)], {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    )
    rep = validate(d, g)
    assert not rep.ok and rep.condition == "element-connectivity"


def test_validate_range_error_is_distinct():
    d = TreeDecomposition([1], [], {1: {9}})
    with pytest.raises(DomainError, match="out of range"):
        validate(d, complete_graph(2))


@st.composite
def decomposition_cases(draw):
    """A graph and a decomposition of it or of its line graph: a random tree
    (a path in id order or with scattered node ids) and each element on a
    connected node set grown from a hub node, which makes it valid, or from
    a random node.  Then at most one flaw: an element left out, one or two
    memberships toggled, or an out-of-range element added to some bags."""
    g = draw(graphs(max_vertices=6))
    subject = draw(st.sampled_from([SUBJECT_GRAPH, SUBJECT_LINE]))
    size = g.n if subject == SUBJECT_GRAPH else g.edge_count
    k = draw(st.integers(1, 7))
    as_path = draw(st.booleans())
    if as_path:
        ids = list(range(1, k + 1))
        edges = [(i, i + 1) for i in range(1, k)]
    else:
        ids = draw(st.lists(st.integers(1, 40), min_size=k, max_size=k, unique=True))
        edges = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, k)]
    adj = adjacency(ids, edges)
    hub = draw(st.sampled_from(ids))
    from_hub = draw(st.booleans())
    flaw = draw(st.sampled_from(["none", "left-out", "toggled", "out-of-range"]))
    left_out = draw(st.integers(1, size)) if flaw == "left-out" and size else None
    bags = {n: set() for n in ids}
    for x in range(1, size + 1):
        if x == left_out:
            continue
        held = {hub if from_hub else draw(st.sampled_from(ids))}
        for _ in range(draw(st.integers(0, k - 1))):
            frontier = sorted({w for n in held for w in adj[n]} - held)
            if not frontier:
                break
            held.add(draw(st.sampled_from(frontier)))
        for n in held:
            bags[n].add(x)
    if flaw == "toggled" and size:
        for _ in range(draw(st.integers(1, 2))):
            bags[draw(st.sampled_from(ids))] ^= {draw(st.integers(1, size))}
    if flaw == "out-of-range":
        bad = draw(st.sampled_from([-1, 0, size + 1, size + 3]))
        for n in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)):
            bags[n].add(bad)
    if as_path:
        return PathDecomposition([bags[i] for i in ids], subject), g
    return TreeDecomposition(ids, edges, bags, subject), g


@settings(max_examples=300)
@given(decomposition_cases())
def test_validate_matches_line_graph_oracle(case):
    d, g = case
    try:
        expected = validate_via_line_graph(d, g)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            validate(d, g)
        assert str(got.value) == str(exc)
        return
    assert validate(d, g) == expected


@given(graphs(max_vertices=7))
def test_incident_edge_ids_pair_into_the_line_graph(g):
    incident = incident_edge_ids(g)
    assert len(incident) == g.n + 1 and incident[0] == ()
    for v in g.vertices:
        assert list(incident[v]) == sorted(
            i for i, e in enumerate(g.edges, start=1) if v in e
        )
    pairs = sorted(p for ids in incident for p in combinations(ids, 2))
    assert pairs == brute_line_edges(g) == list(line_graph(g)[0].edges)


def test_width_requires_bags():
    with pytest.raises(DomainError):
        width(PathDecomposition([]))


def test_structure_errors_at_construction():
    with pytest.raises(DomainError):  # cycle
        TreeDecomposition([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: set(), 2: set(), 3: set()})
    with pytest.raises(DomainError):  # disconnected
        TreeDecomposition([1, 2, 3], [(1, 2)], {1: set(), 2: set(), 3: set()})
    # n - 1 = 3 edges, but a triangle on 1-3 and node 4 alone
    with pytest.raises(DomainError, match="tree is not connected"):
        parse_td("s td 4 1 2\nb 1 1\nb 2 2\nb 3 1\nb 4 2\n1 2\n2 3\n1 3\n")


def test_expand_star_decomposition():
    g = star_graph(3)  # centre 4, edges (1,4),(2,4),(3,4)
    d = PathDecomposition([{4, 1}, {4, 2}, {4, 3}], SUBJECT_GRAPH)
    expanded = expand_to_line(d, g)
    assert isinstance(expanded, PathDecomposition)
    assert validate(expanded, g).ok
    assert width(expanded) == 2  # every bag holds all 3 edges of the star
    assert width(expanded) <= (width(d) + 1) * g.max_degree() - 1


def test_expand_single_bag_triangle():
    g = complete_graph(3)
    d = TreeDecomposition([1], [], {1: {1, 2, 3}})
    expanded = expand_to_line(d, g)
    assert width(expanded) == 2


def test_expand_path_decomposition_of_p4():
    # middle bag {2,3} collects all three edges, so direct expansion gives
    # width 2, inside the (1+1)*2 - 1 = 3 bound
    g = path_graph(4)
    d = PathDecomposition([{1, 2}, {2, 3}, {3, 4}], SUBJECT_GRAPH)
    expanded = expand_to_line(d, g)
    assert validate(expanded, g).ok
    assert [sorted(b) for b in expanded.bags] == [[1, 2], [1, 2, 3], [2, 3]]
    assert width(expanded) == 2 <= (width(d) + 1) * g.max_degree() - 1


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_expand_width_bound(g):
    d = exact_treewidth(g).decomposition
    expanded = expand_to_line(d, g)
    assert validate(expanded, g).ok
    assert width(expanded) <= (width(d) + 1) * g.max_degree() - 1


def test_normalize_single_bag_triangle():
    g = complete_graph(3)
    d = TreeDecomposition([1], [], {1: {1, 2, 3}}, SUBJECT_LINE)
    form = normalize_line_decomposition(d, g)
    assert width(form.decomposition) == 2
    assert is_leaf_base_form(form.decomposition, form.base, g)
    leaf_count = sum(
        1 for n in form.decomposition.nodes
        if len(form.decomposition.adjacency()[n]) == 1
    )
    assert leaf_count == 3


def test_normalize_two_bag_path_graph():
    g = path_graph(3)  # L(P_3) = K_2 with edge ids 1, 2
    d = TreeDecomposition([1, 2], [(1, 2)], {1: {1}, 2: {1, 2}}, SUBJECT_LINE)
    form = normalize_line_decomposition(d, g)
    assert width(form.decomposition) == 1
    assert is_leaf_base_form(form.decomposition, form.base, g)


def test_normalize_idempotent_width():
    g = complete_graph(4)
    lg, _ = line_graph(g)
    d = retag_line(exact_treewidth(lg).decomposition)
    first = normalize_line_decomposition(d, g)
    second = normalize_line_decomposition(first.decomposition, g)
    assert width(second.decomposition) == width(first.decomposition)


def test_normalize_requires_edges_and_line_subject():
    with pytest.raises(DomainError):
        normalize_line_decomposition(
            TreeDecomposition([1], [], {1: set()}, SUBJECT_LINE), Graph(3)
        )
    g = complete_graph(3)
    with pytest.raises(DomainError):
        normalize_line_decomposition(TreeDecomposition([1], [], {1: {1, 2, 3}}), g)


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_normalize_is_width_safe_and_monotone(g):
    lg, _ = line_graph(g)
    d = retag_line(exact_treewidth(lg).decomposition)
    form = normalize_line_decomposition(d, g)
    assert validate(form.decomposition, g).ok
    assert width(form.decomposition) <= width(d)
    assert is_leaf_base_form(form.decomposition, form.base, g)
    # rebuilt bags shrink: surviving original nodes keep a subset bag
    for node in form.decomposition.nodes:
        if node in d.bags:
            assert form.decomposition.bags[node] <= d.bags[node]


def _form_from_tree(g, edges, base):
    """The decomposition read off the leaf embedding (edges, base) of g."""
    nodes = sorted({x for e in edges for x in e})
    dec = decomposition_from_embedding(LeafEmbedding(nodes, edges, base), g)
    return dec, BaseNodeAssignment(dict(sorted(base.items())))


# P4 on leaves 1..4 under internal nodes 6 and 7, with the root 5 between
P4_TREE = [(5, 6), (5, 7), (6, 1), (6, 2), (7, 3), (7, 4)]
P4_BASE = {1: 1, 2: 2, 3: 3, 4: 4}


def test_leaf_base_form_holds_for_a_binary_tree_with_one_root():
    g = path_graph(4)
    td, base = _form_from_tree(g, P4_TREE, P4_BASE)
    assert is_leaf_base_form(td, base, g)


@pytest.mark.parametrize(
    "base",
    [
        {**P4_BASE, 1: 6},  # base on an internal node
        {**P4_BASE, 1: 3, 3: 1},  # two bases swapped
        {1: 1, 2: 2, 3: 3},  # vertex 4 has no base
    ],
    ids=["base-internal", "bases-swapped", "vertex-missing"],
)
def test_leaf_base_form_refuses_a_broken_base(base):
    g = path_graph(4)
    td, _ = _form_from_tree(g, P4_TREE, P4_BASE)
    assert not is_leaf_base_form(td, BaseNodeAssignment(base), g)


@pytest.mark.parametrize(
    "edges",
    [
        # leaf 9 under a third internal node 8 hosts no vertex
        [(5, 6), (5, 7), (6, 1), (6, 2), (7, 3), (7, 8), (8, 4), (8, 9)],
        # node 8 subdivides the tree edge 6-1: a second degree-2 node
        [(5, 6), (5, 7), (6, 8), (8, 1), (6, 2), (7, 3), (7, 4)],
    ],
    ids=["leaf-without-vertex", "second-degree-2-node"],
)
def test_leaf_base_form_refuses_a_tree_of_the_wrong_shape(edges):
    # the bags are the embedding's own edge paths, so only the shape is wrong
    g = path_graph(4)
    td, base = _form_from_tree(g, edges, P4_BASE)
    assert not is_leaf_base_form(td, base, g)


def test_leaf_base_form_refuses_a_bag_missing_an_edge_id():
    g = path_graph(4)
    td, base = _form_from_tree(g, P4_TREE, P4_BASE)
    bags = {**td.bags, 5: td.bags[5] - {2}}  # edge 2 = {2,3} crosses the root
    short = TreeDecomposition(td.nodes, td.tree_edges, bags, SUBJECT_LINE)
    assert not is_leaf_base_form(short, base, g)


def test_line_to_graph_triangle():
    g = complete_graph(3)
    lg, _ = line_graph(g)
    d = retag_line(exact_treewidth(lg).decomposition)
    out = line_to_graph_decomposition(d, g)
    assert validate(out, g).ok
    assert width(out) <= width(d) + 1


def test_line_to_graph_star():
    g = star_graph(3)  # tw 1, L = K_3 with tw 2: validity is the real check
    lg, _ = line_graph(g)
    d = retag_line(exact_treewidth(lg).decomposition)
    out = line_to_graph_decomposition(d, g)
    assert validate(out, g).ok
    assert width(out) <= width(d) + 1


def test_line_to_graph_p3():
    g = path_graph(3)
    d = TreeDecomposition([1, 2], [(1, 2)], {1: {1}, 2: {1, 2}}, SUBJECT_LINE)
    out = line_to_graph_decomposition(d, g)
    assert validate(out, g).ok
    assert width(out) <= width(d) + 1 == 2


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_line_to_graph_always_valid(g):
    lg, _ = line_graph(g)
    d = retag_line(exact_treewidth(lg).decomposition)
    out = line_to_graph_decomposition(d, g)
    assert validate(out, g).ok
    assert width(out) <= width(d) + 1


def test_decomposition_from_embedding_star_tree():
    g = complete_graph(3)
    e = LeafEmbedding((1, 2, 3, 4), [(1, 4), (2, 4), (3, 4)], {1: 1, 2: 2, 3: 3})
    dec = decomposition_from_embedding(e, g)
    assert validate(dec, g).ok
    assert width(dec) == 2


def test_decomposition_from_embedding_single_edge():
    g = complete_graph(2)
    e = LeafEmbedding((1, 2), [(1, 2)], {1: 1, 2: 2})
    dec = decomposition_from_embedding(e, g)
    assert width(dec) == 0


def test_decomposition_from_embedding_c4_caterpillar():
    # 4-cycle on a caterpillar, opposite vertices 1 and 3 on far leaves:
    # each spine node carries three routed edges, so congestion is 3 and
    # the decomposition read off the embedding has width 2
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    e = LeafEmbedding(
        (1, 2, 3, 4, 5, 6),
        [(1, 5), (2, 5), (5, 6), (6, 3), (6, 4)],
        {1: 1, 2: 2, 3: 3, 4: 4},
    )
    value, _ = vertex_congestion(e, g)
    dec = decomposition_from_embedding(e, g)
    assert validate(dec, g).ok
    assert value == 3
    assert width(dec) == value - 1 == 2


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_embedding_width_is_congestion_minus_one(g):
    cert = min_tree_congestion(g)
    dec = decomposition_from_embedding(cert.embedding, g)
    assert validate(dec, g).ok
    assert width(dec) + 1 == vertex_congestion(cert.embedding, g)[0] == cert.value


def test_normalize_single_edge_graph_gives_two_leaves():
    g = complete_graph(2)
    d = TreeDecomposition(
        [1, 2, 3], [(1, 2), (2, 3)], {1: {1}, 2: {1}, 3: {1}}, SUBJECT_LINE
    )
    form = normalize_line_decomposition(d, g)
    assert len(form.decomposition.nodes) == 2
    assert width(form.decomposition) == 0
    assert is_leaf_base_form(form.decomposition, form.base, g)


def test_normalize_accepts_path_decomposition_input():
    g = star_graph(3)
    lg, _ = line_graph(g)
    pd = PathDecomposition([{1, 2, 3}], SUBJECT_LINE)
    assert validate(pd, g).ok
    form = normalize_line_decomposition(pd, g)
    assert is_leaf_base_form(form.decomposition, form.base, g)
    assert width(form.decomposition) == 2


def test_line_to_graph_keeps_isolated_vertices():
    g = Graph(5, [(1, 2), (1, 3), (2, 3)])  # triangle plus two isolated
    lg, _ = line_graph(g)
    d = retag_line(exact_treewidth(lg).decomposition)
    out = line_to_graph_decomposition(d, g)
    assert validate(out, g).ok  # coverage of 4 and 5 forces singleton bags
    singles = [n for n in out.nodes if out.bags[n] in ({4}, {5})]
    assert len(singles) == 2


def test_empty_graph_has_empty_line_graph():
    lg, labels = line_graph(Graph(0))
    assert lg.n == 0 and labels == ()
    lg, labels = line_graph(Graph(3))
    assert lg.n == 0


@given(graphs(min_vertices=2, max_vertices=6, min_edges=1))
def test_limit_tree_degree(g):
    d = exact_treewidth(g).decomposition
    shaped = limit_tree_degree(d)
    assert validate(shaped, g).ok
    assert width(shaped) == width(d)
    adj = shaped.adjacency()
    assert all(len(nb) <= 3 for nb in adj.values())


def _pipeline_text(g: Graph, d) -> str:
    """The normal-form .td and .emb that `linewidth normalize` writes, then
    the lg-to-g .td, for one decomposition of L(g)."""
    form = normalize_line_decomposition(d, g)
    dec = form.decomposition
    emb = LeafEmbedding(dec.nodes, dec.tree_edges, form.base.by_vertex)
    lg_to_g = line_to_graph_decomposition(d, g)
    return format_td(dec, g) + format_emb(emb, g) + format_td(lg_to_g, g)


# sha256 of _pipeline_text over the corpus below: it moves with any byte of
# the normal form, its leaf embedding or the lg-to-g decomposition
PIPELINE_SHA256 = "8dc350bdbf8408d3ccd065adc1d20e2dcdc16815513d84d73f50bba9a82e4e9a"


def test_pipeline_bytes_are_pinned():
    rng = random.Random(1409)
    corpus = []
    while len(corpus) < 40:
        n = rng.randint(2, 7)
        pairs = list(combinations(range(1, n + 1), 2))
        corpus.append(Graph(n, rng.sample(pairs, rng.randint(1, min(len(pairs), 10)))))
    corpus += [
        generate(FamilySpec(family, params))
        for family, params in [
            ("complete-bipartite", (3, 2)),
            ("path-power", (7, 2)),
            ("cycle-power", (5, 1)),
            ("cycle-power", (7, 2)),
            ("cycle-power-matched", (7, 2)),
        ]
    ]
    digest = hashlib.sha256()
    for g in corpus:
        lg, _ = line_graph(g)
        path = exact_pathwidth(lg).decomposition
        for d in (
            retag_line(exact_treewidth(lg).decomposition),
            PathDecomposition(path.bags, SUBJECT_LINE),
            decomposition_from_embedding(min_tree_congestion(g).embedding, g),
        ):
            digest.update(_pipeline_text(g, d).encode("ascii"))
    assert digest.hexdigest() == PIPELINE_SHA256


def test_line_to_graph_patches_the_child_side_of_the_triangle():
    # the triangle's caterpillar witness leaves the ends of edge 13 in no
    # common bag, and the tree edge between their bags has vertex 3's side
    # as the parent, so 3 is added to the child bag that holds 1
    g = complete_graph(3)
    d = decomposition_from_embedding(min_tree_congestion(g).embedding, g)
    out = line_to_graph_decomposition(d, g)
    assert validate(out, g).ok
    assert width(out) <= width(d) + 1
    assert format_td(out, g) == (
        "s td 6 3 3\nb 1 3\nb 2 2\nb 3 1\nb 4 1 2 3\nb 5 1 2\nb 6 2 3\n"
        "1 6\n2 5\n3 5\n4 5\n4 6\n"
    )
