"""Numerical verification of the three closed-form optimizations that pin
the constants in the degree bounds.  All arithmetic is exact rationals;
"tolerance" only ever means grid granularity, never floating-point error.

Check a: minimize (1+s)(a+b) - a^2 - b^2 over s <= a,b <= 1/2 with
a + b >= 1/2.  The claimed minimum 1/4 + 3s/2 - 2s^2 is the value at the
corner (1/2 - s, s).  (The strict constraint a + b > 1/2 has the same
infimum, attained in the closure, so the search runs over the closure.)

Check b: minimize (1+s)(a+b) - a^2 - b^2 - ab over the same box with
a + b >= 1/2 + s (even case, minimum 1/4 + s) or a + b >= 1/2 + s/2
(odd case, minimum 1/4 + s - s^2/4 at (1/2 - s/2, s)).

Check c: maximize a1 + a2 + a3 where ai = xi*yi - zi, subject to
xi, yi >= 0, sum xi = sum yi = 1, 0 <= zi <= xi*yi, and each ai at most the
sum of the other two.  The maximum is exactly 1/2.  Fast mode searches the
slice a3 = 0, z1 = z2 = 0 justified by the balance-equality reduction; full
mode grids all free coordinates and is the cross-check that does not rely
on that reduction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from linewidth.graphs import DomainError

HALF = Fraction(1, 2)

# The largest resolution each grid search accepts.  At the limit a search
# takes a few seconds (2-CPU machine, Python 3.11): about 4 s for checks a
# and b, whose cost grows a little faster than the resolution N, and 3 s
# (fast) or 6 s (full) for check c, whose cost grows as N^4 (fast) or N^7
# (full).
GRID_LIMIT = 50_000
PARTITION_LIMITS = {"fast": 64, "full": 16}


@dataclass(frozen=True)
class CornerCheck:
    point: tuple[Fraction, ...]
    value: Fraction
    claimed: Fraction
    feasible: bool

    @property
    def gap(self) -> Fraction:
        return self.value - self.claimed


@dataclass(frozen=True)
class GridSearchResult:
    kind: str  # "min" | "max"
    extremum: Fraction
    argpoint: tuple[Fraction, ...]
    resolution: int
    closed_form: Fraction
    corners: tuple[CornerCheck, ...]
    feasible_points: int

    @property
    def gap(self) -> Fraction:
        if self.kind == "min":
            return self.extremum - self.closed_form
        return self.closed_form - self.extremum


def _axis(lo: Fraction, hi: Fraction, resolution: int) -> list[Fraction]:
    step = (hi - lo) / resolution
    return [lo + step * i for i in range(resolution + 1)]


def _grid_minimize(objective, s, resolution, threshold, corner_claims):
    """Minimum over the feasible points of the (s..1/2)^2 grid plus the
    feasible corners, ties to the lexicographically least point.  Along a
    row of fixed a both objectives are strictly concave in b (the -b^2
    term), so a row's minimum sits at its least or greatest feasible b:
    only those two are scored, and the rest are only counted."""
    if not 0 < s <= HALF:
        raise DomainError("s must satisfy 0 < s <= 1/2")
    if resolution < 1:
        raise DomainError("resolution must be positive")
    if resolution > GRID_LIMIT:
        raise DomainError(f"resolution {resolution} exceeds the limit of {GRID_LIMIT}")
    corners = tuple(
        CornerCheck(
            (a, b),
            objective(a, b),
            claim,
            s <= a <= HALF and s <= b <= HALF and a + b >= threshold,
        )
        for (a, b), claim in corner_claims
    )
    axis = sorted(set(_axis(s, HALF, resolution)))
    rows = {}  # a -> [least b, greatest b, feasible count]
    for a in axis:
        first = bisect_left(axis, threshold - a)
        if first < len(axis):
            rows[a] = [axis[first], axis[-1], len(axis) - first]
    on_axis = set(axis)
    for a, b in {c.point for c in corners if c.feasible}:
        if a in on_axis and b in on_axis:
            continue  # a feasible grid point, counted above
        row = rows.setdefault(a, [b, b, 0])
        row[0], row[1], row[2] = min(row[0], b), max(row[1], b), row[2] + 1
    best_val, best_pt = None, None
    for a, (least, greatest, _) in rows.items():
        for b in (least, greatest):
            val = objective(a, b)
            if best_val is None or val < best_val or (val == best_val and (a, b) < best_pt):
                best_val, best_pt = val, (a, b)
    if best_val is None:
        raise DomainError("no feasible grid points for these parameters")
    return best_val, best_pt, corners, sum(row[2] for row in rows.values())


def min_balanced_split(s, resolution: int = 32) -> GridSearchResult:
    """Grid minimum of check a, with the claimed-minimum corner forced onto
    the grid.  The reported gap is zero exactly when that corner is feasible
    (s <= 1/4); for larger s the box minimum 2s still sits above the claim."""
    s = Fraction(s)
    f = lambda a, b: (1 + s) * (a + b) - a * a - b * b
    closed = Fraction(1, 4) + Fraction(3, 2) * s - 2 * s * s
    corner_claims = [
        ((HALF, HALF), HALF + s),
        ((HALF, s), Fraction(1, 4) + Fraction(3, 2) * s),
        ((s, HALF), Fraction(1, 4) + Fraction(3, 2) * s),
        ((HALF - s, s), closed),
        ((s, HALF - s), closed),
    ]
    best, pt, corners, feasible = _grid_minimize(f, s, resolution, HALF, corner_claims)
    return GridSearchResult("min", best, pt, resolution, closed, corners, feasible)


def min_degree_split(s, parity: str, resolution: int = 32) -> GridSearchResult:
    """Grid minimum of check b for the chosen parity constraint."""
    s = Fraction(s)
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    h = lambda a, b: (1 + s) * (a + b) - a * a - b * b - a * b
    quarter = Fraction(1, 4)
    corner_claims = [
        ((HALF, HALF), quarter + s),
        ((HALF, s), quarter + s),
        ((s, HALF), quarter + s),
    ]
    if parity == "even":
        threshold = HALF + s
        closed = quarter + s
    else:
        threshold = HALF + s / 2
        closed = quarter + s - s * s / 4
        corner_claims += [
            ((HALF - s / 2, s), closed),
            ((s, HALF - s / 2), closed),
        ]
    best, pt, corners, feasible = _grid_minimize(h, s, resolution, threshold, corner_claims)
    return GridSearchResult("min", best, pt, resolution, closed, corners, feasible)


def _partition_corner() -> CornerCheck:
    point = (HALF, HALF, Fraction(0), HALF, HALF, Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    return CornerCheck(point, HALF, HALF, True)


def max_grid_partition(resolution: int = 8, mode: str = "fast") -> GridSearchResult:
    """Grid maximum of check c.  Integer-scaled arithmetic: with xi = ai/R,
    yi = bi/R and zi = ti*ai*bi/R^3, every ai*R^3 is an integer, so the
    balance constraints and the objective are compared exactly.

    Fast mode is the same search with t1 = t2 = 0 and t3 = R: the slice
    a3 = 0 (z3 = x3*y3), z1 = z2 = 0, where balance forces x1y1 = x2y2."""
    if resolution < 4:
        raise DomainError("resolution must be at least 4")
    if mode not in PARTITION_LIMITS:
        raise DomainError("mode must be 'fast' or 'full'")
    if resolution > PARTITION_LIMITS[mode]:
        raise DomainError(
            f"resolution {resolution} exceeds the {mode}-mode limit of {PARTITION_LIMITS[mode]}"
        )
    r = resolution
    fast = mode == "fast"

    def t_values(m: int, pinned: int):
        return (pinned,) if fast else range(r + 1) if m else (0,)

    best = None  # (scaled objective, point-tuple of 9 fractions)
    feasible = 0
    for a1 in range(r + 1):
        for a2 in range(r + 1 - a1):
            a3 = r - a1 - a2
            for b1 in range(r + 1):
                for b2 in range(r + 1 - b1):
                    b3 = r - b1 - b2
                    m1, m2, m3 = a1 * b1, a2 * b2, a3 * b3
                    for t1 in t_values(m1, 0):
                        al1 = m1 * (r - t1)
                        for t2 in t_values(m2, 0):
                            al2 = m2 * (r - t2)
                            for t3 in t_values(m3, r):
                                al3 = m3 * (r - t3)
                                if al1 > al2 + al3 or al2 > al1 + al3 or al3 > al1 + al2:
                                    continue
                                feasible += 1
                                scaled = al1 + al2 + al3  # objective in units 1/r^3
                                if best is not None and scaled < best[0]:
                                    continue
                                point = _point(
                                    r, a1, b1, m1 * t1, a2, b2, m2 * t2, a3, b3, m3 * t3
                                )
                                if best is None or scaled > best[0] or (
                                    scaled == best[0] and point < best[1]
                                ):
                                    best = (scaled, point)
    extremum = Fraction(best[0], r**3)
    return GridSearchResult(
        "max",
        extremum,
        best[1],
        resolution,
        HALF,
        (_partition_corner(),),
        feasible,
    )


def _point(r, a1, b1, z1, a2, b2, z2, a3, b3, z3) -> tuple[Fraction, ...]:
    r3 = r**3
    return (
        Fraction(a1, r),
        Fraction(b1, r),
        Fraction(z1, r3),
        Fraction(a2, r),
        Fraction(b2, r),
        Fraction(z2, r3),
        Fraction(a3, r),
        Fraction(b3, r),
        Fraction(z3, r3),
    )
