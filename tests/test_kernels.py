import sys

import pytest
from hypothesis import given

from conftest import graphs
from linewidth import kernels
from linewidth.graphs import _adjacency_masks
from linewidth.kernels import _pure

KERNELS = (
    "treewidth_table",
    "vertex_separation_table",
    "cutwidth_table",
    "path_congestion_table",
)


def test_backend_is_reported():
    assert kernels.BACKEND in ("compiled", "pure-python")
    assert "pure-python" in kernels.backends()


@given(graphs(min_vertices=1, max_vertices=7))
def test_backends_agree(compiled_core, g):
    masks = _adjacency_masks(g, g.vertices)
    for name in KERNELS:
        assert list(getattr(compiled_core, name)(masks)) == getattr(_pure, name)(masks)


def test_compiled_core_is_loaded_on_the_side(compiled_core):
    assert sys.modules.get("linewidth.kernels._core") is not compiled_core


def test_kernel_vertex_limit():
    with pytest.raises(ValueError):
        _pure.treewidth_table([0] * (kernels.MAX_KERNEL_VERTICES + 1))


def test_elimination_reach_across_eliminated_set():
    # path a-b-c-d as bits 0..3: eliminating b after {c} sees both a and d
    masks = [0b0010, 0b0101, 0b1010, 0b0100]
    assert _pure.elimination_reach_count(masks, 0b0100, 1) == 2
    assert _pure.elimination_reach_count(masks, 0, 1) == 2
    assert _pure.elimination_reach_count(masks, 0, 0) == 1


def test_border_and_cross():
    # triangle plus pendant: bits 0,1,2 triangle, bit 3 attached to 2
    masks = [0b0110, 0b0101, 0b1011, 0b0100]
    assert _pure.border_size(masks, 0b0011) == 2
    assert _pure.cross_size(masks, 0b0011) == 2
    assert _pure.border_size(masks, 0b0111) == 1
    assert _pure.cross_size(masks, 0b1111) == 0
