from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from linewidth import optcheck
from linewidth.graphs import DomainError
from linewidth.optcheck import (
    max_grid_partition,
    min_balanced_split,
    min_degree_split,
)

S_VALUES = (F(1, 10), F(1, 4), F(1, 3), F(1, 2))


@pytest.mark.parametrize("s", S_VALUES)
def test_balanced_split_corner_identities(s):
    res = min_balanced_split(s, 16)
    assert all(c.gap == 0 for c in res.corners)
    assert res.gap >= 0  # the closed form is a true lower bound on the region


def test_balanced_split_examples():
    res = min_balanced_split(F(1, 10), 20)
    assert res.extremum == F(19, 50)  # 0.38 at (2/5, 1/10)
    assert res.argpoint == (F(1, 10), F(2, 5))  # symmetric twin, lexicographic
    res = min_balanced_split(F(1, 4), 16)
    assert res.extremum == F(1, 2) and res.gap == 0
    res = min_balanced_split(F(1, 2), 16)
    # single feasible point (1/2, 1/2); both corner formulas give 1 there
    assert res.extremum == 1
    assert res.feasible_points == 1


def test_balanced_split_gap_zero_iff_corner_feasible():
    assert min_balanced_split(F(1, 5), 10).gap == 0
    assert min_balanced_split(F(1, 3), 10).gap > 0


def test_balanced_split_rejects_bad_s():
    with pytest.raises(DomainError):
        min_balanced_split(F(3, 4), 8)
    with pytest.raises(DomainError):
        min_balanced_split(0, 8)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("parity", ("even", "odd"))
def test_degree_split_corner_identities(s, parity):
    res = min_degree_split(s, parity, 16)
    assert all(c.gap == 0 for c in res.corners)
    assert res.gap >= 0


def test_degree_split_examples():
    res = min_degree_split(F(1, 10), "even", 20)
    assert res.extremum == F(7, 20)  # 1/4 + s
    res = min_degree_split(F(1, 5), "odd", 20)
    assert res.extremum == F(11, 25)  # 1/4 + s - s^2/4 = 0.44
    res = min_degree_split(F(1, 3), "odd", 18)
    assert res.extremum == F(5, 9)  # the minimum-degree-3 case
    with pytest.raises(DomainError):
        min_degree_split(F(1, 10), "sideways", 8)


@given(st.integers(1, 24), st.integers(2, 7))
def test_split_minima_never_undershoot_closed_forms(num, res_pow):
    # random rational s in (0, 1/2], several resolutions: grid values stay
    # above the claimed closed forms (they are true minima over the region)
    s = F(num, 49)
    if s > F(1, 2):
        s = F(1, 2)
    resolution = 2 ** res_pow
    assert min_balanced_split(s, resolution).gap >= 0
    assert min_degree_split(s, "even", resolution).gap >= 0
    assert min_degree_split(s, "odd", resolution).gap >= 0


@given(st.integers(1, 25), st.integers(1, 20))
def test_grid_minimize_equals_the_full_grid_scan(num, resolution):
    # scoring only the ends of each row gives the full scan's extremum,
    # argpoint, corners and feasible count
    s = min(F(num, 49), F(1, 2))
    for split in (
        lambda: min_balanced_split(s, resolution),
        lambda: min_degree_split(s, "even", resolution),
        lambda: min_degree_split(s, "odd", resolution),
    ):
        result = split()
        with patch.object(optcheck, "_grid_minimize", oracles.grid_minimize):
            assert result == split()
    # an objective falling in b puts every row's minimum at its greatest b
    args = (lambda a, b: a - b * b, s, resolution, F(1, 2) + s / 2, [((F(1, 2), s), 0)])
    assert optcheck._grid_minimize(*args) == oracles.grid_minimize(*args)


def test_grid_refinement_never_increases_minimum():
    s = F(1, 7)
    coarse = min_balanced_split(s, 8)
    fine = min_balanced_split(s, 16)  # refinement contains the coarse grid
    assert fine.extremum <= coarse.extremum
    assert fine.gap >= 0


def test_partition_fast_mode_reaches_half():
    res = max_grid_partition(8, "fast")
    assert res.extremum == F(1, 2)
    assert res.gap == 0
    assert res.argpoint[0] == F(1, 2) and res.argpoint[3] == F(1, 2)


def test_partition_full_mode_reaches_half_and_agrees():
    fast = max_grid_partition(8, "fast")
    full = max_grid_partition(8, "full")
    assert full.extremum == F(1, 2) == fast.extremum


def test_partition_never_exceeds_half():
    for resolution in (4, 5, 6, 8):
        for mode in ("fast", "full"):
            res = max_grid_partition(resolution, mode)
            assert res.extremum <= F(1, 2)


def test_partition_rejects_bad_arguments():
    with pytest.raises(DomainError):
        max_grid_partition(3, "fast")
    with pytest.raises(DomainError):
        max_grid_partition(8, "medium")


@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(0, 64),
)
def test_raising_z_never_increases_objective(a1, b1, a2, b2, z_num):
    # the reduction behind the fast mode: the objective is monotone
    # decreasing in every z_i, independently of the other coordinates
    r = 8
    a1, a2 = min(a1, r), min(a2, r - min(a1, r))
    b1, b2 = min(b1, r), min(b2, r - min(b1, r))
    x = (F(a1, r), F(a2, r), F(r - a1 - a2, r))
    y = (F(b1, r), F(b2, r), F(r - b1 - b2, r))
    m = [x[i] * y[i] for i in range(3)]

    def objective(zs):
        return sum(m[i] - zs[i] for i in range(3))

    base = [F(0), F(0), F(0)]
    for i in range(3):
        hi = m[i]
        z = min(F(z_num, 64), hi)
        bumped = list(base)
        bumped[i] = z
        assert objective(bumped) <= objective(base)
