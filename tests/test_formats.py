import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from linewidth.congestion import (
    LeafEmbedding,
    LinearOrdering,
    format_emb,
    format_ord,
    min_tree_congestion,
    parse_emb,
    parse_ord,
)
from linewidth.decompositions import (
    as_path_decomposition,
    format_td,
    parse_td,
    validate,
    width,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import (
    DomainError,
    FormatError,
    Graph,
    complete_graph,
    format_gr,
    parse_gr,
)


def test_gr_round_trip_and_canonical_order():
    g = complete_graph(4)
    text = format_gr(g, comments=["family complete 4"])
    assert text.startswith("c family complete 4\np tw 4 6\n")
    assert parse_gr(text) == g
    # edges emitted in canonical edge-id order
    lines = [l for l in text.splitlines() if l and l[0] not in "cp"]
    assert lines == [f"{u} {v}" for u, v in g.edges]


def test_gr_parser_is_order_insensitive():
    a = parse_gr("p tw 3 2\n1 2\n2 3\n")
    b = parse_gr("p tw 3 2\n3 2\n2 1\n")
    assert a == b


def test_gr_parser_errors():
    with pytest.raises(FormatError, match="header"):
        parse_gr("1 2\n")
    with pytest.raises(FormatError, match="self-loop"):
        parse_gr("p tw 2 1\n1 1\n")
    with pytest.raises(FormatError, match="duplicate edge"):
        parse_gr("p tw 2 2\n1 2\n2 1\n")
    with pytest.raises(FormatError, match="outside"):
        parse_gr("p tw 2 1\n1 3\n")
    with pytest.raises(FormatError, match="declares"):
        parse_gr("p tw 3 2\n1 2\n")
    with pytest.raises(FormatError, match="integer"):
        parse_gr("p tw x 0\n")


@given(graphs())
def test_gr_round_trip_random(g):
    assert parse_gr(format_gr(g)) == g


@given(graphs(min_vertices=1, max_vertices=6))
def test_td_round_trip(g):
    d = exact_treewidth(g).decomposition
    text = format_td(d, g)
    back = parse_td(text)
    assert validate(back, g).ok
    assert width(back) == width(d)
    assert format_td(back, g) == text  # stable after renumbering


def test_td_header_errors():
    with pytest.raises(FormatError, match="expected 's td"):
        parse_td("s td 1 1\n")
    with pytest.raises(FormatError, match="duplicate bag"):
        parse_td("s td 2 1 2\nb 1 1\nb 1 2\n1 2\n")
    with pytest.raises(FormatError, match="max bag size"):
        parse_td("s td 1 3 2\nb 1 1\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_td("s td 1 1 2\nb 4 1\n")


def test_td_missing_bag_lines_are_empty_bags():
    d = parse_td("s td 2 1 2\nb 1 1\n1 2\n")
    assert d.bags[2] == frozenset()


@given(graphs(min_vertices=1, max_vertices=6))
def test_path_decomposition_serializes_in_path_order(g):
    res = exact_pathwidth(g)
    text = format_td(res.decomposition, g)
    td = parse_td(text)
    pd = as_path_decomposition(td)
    assert list(pd.bags) == list(res.decomposition.bags)


def test_as_path_rejects_non_paths():
    td = parse_td("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n1 3\n")
    with pytest.raises(DomainError):
        as_path_decomposition(td)


def test_ord_round_trip():
    o = LinearOrdering((3, 1, 2))
    text = format_ord(o)
    assert text == "s ord 3\n3 1 2\n"
    assert parse_ord(text) == o
    with pytest.raises(FormatError, match="declares"):
        parse_ord("s ord 2\n1\n")
    with pytest.raises(FormatError, match="line 1: vertex ids before 's ord' header"):
        parse_ord("1 2\ns ord 2\n")


def test_emb_round_trip():
    g = complete_graph(4)
    cert = min_tree_congestion(g)
    text = format_emb(cert.embedding, g)
    back = parse_emb(text)
    back.check(g)
    assert format_emb(back, g) == text


def test_emb_parse_errors():
    with pytest.raises(FormatError, match="header"):
        parse_emb("t 1 2\n")
    with pytest.raises(FormatError, match="line 2: record before 's emb' header"):
        parse_emb("c late header\nl 1 1\ns emb 1 1\n")
    with pytest.raises(FormatError, match="assigned twice"):
        parse_emb("s emb 2 2\nt 1 2\nl 1 1\nl 2 1\n")
    with pytest.raises(FormatError, match="declares"):
        parse_emb("s emb 3 2\nt 1 2\nl 1 1\nl 2 2\n")


def test_emb_rejects_degree_four(tmp_path):
    e = LeafEmbedding(
        (1, 2, 3, 4, 5), [(1, 5), (2, 5), (3, 5), (4, 5)], {1: 1, 2: 2, 3: 3, 4: 4}
    )
    g = complete_graph(4)
    with pytest.raises(DomainError, match="degree"):
        e.check(g)


_ID = st.integers(-1, 6)
_PAIRS = st.lists(st.tuples(_ID, _ID), max_size=6)
_JUNK = st.lists(
    st.one_of(_ID.map(str), st.sampled_from(["c", "p", "tw", "s", "td", "b", "t", "l", "x"])),
    max_size=4,
).map(" ".join)


@st.composite
def _near_format(draw, fmt):
    """Records of fmt with small, possibly invalid ids, under a header whose
    counts are usually right, with a junk line or two sometimes mixed in.
    Sometimes a tree edge is repeated or the header follows a record."""
    slack = draw(st.sampled_from([0, 0, 0, 1, -1]))
    tree = draw(_PAIRS)
    if tree and draw(st.booleans()):
        tree.insert(draw(st.integers(0, len(tree))), draw(st.sampled_from(tree)))
    if fmt == "gr":
        pairs = draw(_PAIRS)
        header = f"p tw {draw(st.integers(0, 6))} {len(pairs) + slack}"
        lines = [f"{a} {b}" for a, b in pairs]
    elif fmt == "td":
        bags = draw(st.lists(st.sets(_ID, max_size=3), max_size=5))
        path = [(i, i + 1) for i in range(1, len(bags))]
        size = max(map(len, bags), default=0) + slack
        header = f"s td {len(bags)} {size} 0"
        lines = [" ".join(map(str, ["b", i, *bag])) for i, bag in enumerate(bags, start=1)]
        lines += [f"{a} {b}" for a, b in draw(st.sampled_from([path, path + path[-1:], tree]))]
    elif fmt == "emb":
        leaves = draw(_PAIRS)
        nodes = {x for edge in tree for x in edge} | {node for node, _ in leaves}
        header = f"s emb {len(nodes) + slack} 0"
        lines = [f"t {a} {b}" for a, b in tree] + [f"l {n} {v}" for n, v in leaves]
    else:
        ids = draw(st.lists(_ID, max_size=6))
        header = f"s ord {len(ids) + slack}"
        lines = [" ".join(map(str, ids))]
    lines.insert(draw(st.sampled_from([0, 0, 0, 1])), header)
    for at, junk in draw(st.lists(st.tuples(st.integers(0, 20), _JUNK), max_size=2)):
        lines.insert(at, junk)
    return "\n".join(lines)


_FORMATS = {
    "gr": (parse_gr, format_gr),
    "td": (parse_td, lambda d: format_td(d, Graph(0))),
    "emb": (parse_emb, lambda e: format_emb(e, Graph(0))),
    "ord": (parse_ord, format_ord),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
@given(data=st.data())
def test_parsers_reject_or_round_trip(fmt, data):
    text = data.draw(st.one_of(st.text(max_size=80), _near_format(fmt)))
    parse, write = _FORMATS[fmt]
    try:
        parsed = parse(text)
    except DomainError:  # FormatError included
        return
    written = write(parsed)
    assert write(parse(written)) == written
