import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linewidth.graphs import DomainError
from linewidth.treeops import adjacency, root_tree, tree_path
from oracles import bfs_tree_path


def prufer_edges(n: int, seq) -> list[tuple[int, int]]:
    """Edges of the labelled tree on 1..n with Prüfer sequence seq."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    free = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(free)
    edges = []
    for x in seq:
        leaf = heapq.heappop(free)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(free, x)
    edges.append((heapq.heappop(free), heapq.heappop(free)))
    return edges


@st.composite
def trees(draw, max_nodes=40):
    n = draw(st.integers(2, max_nodes))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return adjacency(range(1, n + 1), prufer_edges(n, seq))


@given(trees(), st.data())
def test_tree_path_matches_bfs_oracle(adj, data):
    nodes = sorted(adj)
    root = data.draw(st.sampled_from(nodes))
    a = data.draw(st.sampled_from(nodes))
    b = data.draw(st.sampled_from(nodes))
    parent, _ = root_tree(adj, root)
    assert tree_path(parent, a, b) == bfs_tree_path(adj, a, b)


@given(trees(), st.data())
def test_root_tree_children_sorted_and_agree_with_parent(adj, data):
    root = data.draw(st.sampled_from(sorted(adj)))
    parent, children = root_tree(adj, root)
    assert set(parent) == set(children) == set(adj)
    assert parent[root] is None
    for n, kids in children.items():
        assert kids == sorted(kids)
        assert set(kids) | ({parent[n]} - {None}) == adj[n]
        assert all(parent[w] == n for w in kids)


def test_tree_path_edge_cases():
    two = adjacency((1, 2), [(1, 2)])
    for root in (1, 2):
        parent, _ = root_tree(two, root)
        assert tree_path(parent, 1, 2) == [1, 2]
        assert tree_path(parent, 2, 1) == [2, 1]
        assert tree_path(parent, 2, 2) == [2]
    star = adjacency(range(1, 6), [(1, k) for k in range(2, 6)])
    for root in (1, 4):
        parent, children = root_tree(star, root)
        assert tree_path(parent, 2, 5) == [2, 1, 5]
        assert tree_path(parent, 1, 3) == [1, 3]
        assert tree_path(parent, 3, 3) == [3]
    assert children == {4: [1], 1: [2, 3, 5], 2: [], 3: [], 5: []}


def test_tree_path_rejects_disconnected_nodes():
    with pytest.raises(DomainError):
        tree_path({1: None, 2: None}, 1, 2)
