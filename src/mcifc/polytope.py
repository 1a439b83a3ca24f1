"""Exact rational inequality systems, their projection onto kept variables,
and 2-D rate-region geometry.

Inequality systems use exact `fractions.Fraction` arithmetic; float constants
(e.g. mutual-information values) are rationalized on a 1e-12 grid before they
enter a system, so projection is exact relative to its inputs. Float drift
inside Fourier-Motzkin is the classic failure mode this avoids.
`fme_project`, the one projection, works through a projection cone: the
extreme rays of the Farkas multipliers that cancel the eliminated variables,
found once per integer coefficient matrix by Fourier-Motzkin elimination and
cached. Each call then sums those rays against the system's bounds in exact
integers (`project_bounds`), so a caller whose bounds are already integers,
such as a (rows, K) array of MI values on the 1e-12 grid, projects all K
systems at once without building any of them.

Frontiers are float-valued monotone polylines (r2 ascending, r1 nonincreasing)
describing downward-closed regions in the (R2, R1) plane. A vertical step is
encoded by two consecutive points sharing one r2 value. A two-variable system
reaches its frontier through an exact vertex enumeration in integer
homogeneous coordinates (Python ints); `grid_frontiers` runs it on each
column of a (rows, K) array of bounds on the 1e-12 grid that one array test
does not find empty. The union of regions, convexified by time sharing, is
the upper hull of all their points (`concave_envelope`). `grid_envelope`
gives that hull for the columns of a (rows, K) grid array whose rows cap R1,
R2 or R1 + R2, as the DMC capacity regions' are: it finds every column's
vertices at once in int64 numpy, exactly as the enumeration would, with no
frontier per column.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

# Grid used when converting float constants to exact rationals.
RATIONALIZE_GRAIN = 10**12


class UnboundedRegionError(ValueError):
    """The 2-D region has a recession direction in the nonnegative quadrant."""


class FrontierError(ValueError):
    """Points violate the monotone-frontier invariants."""


def rationalize(x) -> Fraction:
    """Exact rational snapped to the 1e-12 grid (Fractions pass through)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(grid_bound(x), RATIONALIZE_GRAIN)


def grid_bound(x: float) -> int:
    """x in units of the 1e-12 grid, snapped to the nearest grid point."""
    return round(float(x) * RATIONALIZE_GRAIN)


def grid_bounds(x: np.ndarray) -> np.ndarray:
    """`grid_bound` of each element of a float array, as int64: the same IEEE
    product, rounded half to even as round() rounds it."""
    snapped = np.rint(x * RATIONALIZE_GRAIN)
    if not (np.abs(snapped) < 2.0**63).all():
        raise ValueError("bound is not finite or exceeds the int64 grid")
    return snapped.astype(np.int64)


@dataclass(frozen=True)
class LinIneq:
    """Linear inequality  sum(coeff * var) <= bound  with rational entries.

    coeffs is stored name-sorted with zero entries dropped.
    """

    coeffs: tuple[tuple[str, Fraction], ...]
    bound: Fraction

    def __post_init__(self):
        items = tuple(sorted((n, Fraction(c)) for n, c in dict(self.coeffs).items() if c != 0))
        object.__setattr__(self, "coeffs", items)
        object.__setattr__(self, "bound", Fraction(self.bound))

    @classmethod
    def of(cls, coeffs: Mapping[str, object], bound) -> "LinIneq":
        return cls(tuple((n, rationalize(c)) for n, c in coeffs.items()), rationalize(bound))

    def coeff(self, name: str) -> Fraction:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((c * point[n] for n, c in self.coeffs), Fraction(0))

    def satisfied_by(self, point: Mapping[str, Fraction]) -> bool:
        return self.evaluate(point) <= self.bound


@dataclass(frozen=True)
class IneqSystem:
    """A conjunction of LinIneq over an ordered variable list."""

    variables: tuple[str, ...]
    inequalities: tuple[LinIneq, ...]

    def __post_init__(self):
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in {variables}")
        known = set(variables)
        ineqs = tuple(self.inequalities)
        for iq in ineqs:
            extra = iq.support - known
            if extra:
                raise ValueError(f"inequality uses unknown variables {sorted(extra)}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "inequalities", ineqs)

    @classmethod
    def build(cls, variables: Sequence[str], rows: Iterable[tuple[Mapping[str, object], object]]):
        return cls(tuple(variables), tuple(LinIneq.of(c, b) for c, b in rows))

    def satisfied_by(self, point: Mapping[str, Fraction]) -> bool:
        return all(iq.satisfied_by(point) for iq in self.inequalities)

    def __len__(self):
        return len(self.inequalities)


@lru_cache(maxsize=64)  # the coding system of dmc_regions needs one entry
def _projection_cone(variables: tuple[str, ...], keep: tuple[str, ...],
                     int_coeff_rows: tuple[tuple[int, ...], ...]) -> tuple:
    """Extreme rays of the projection cone {lam >= 0 : lam . A_elim = 0} of
    integer coefficient rows A (one column per variable), where A_elim holds
    the columns outside `keep`. By Farkas' lemma the projection of
    {A x <= b} onto `keep` is {lam . A_keep . x <= lam . b} over these rays,
    whatever the bounds b.

    Each row runs through Fourier-Motzkin elimination together with its
    multiplier vector lam. A combination whose support exceeds (eliminated +
    1) rows is dropped (Chernikov's rule), and so is every row whose support
    contains another row's (the minimal-support test): what is left after
    each step is exactly the extreme rays of the partial cone, each unique up
    to scale. A ray is its tuple of multipliers, one per row.

    Returns (constant, directions): the rays with lam . A_keep = 0, and one
    (d, scale, rays) per gcd-reduced direction d, each of its rays scaled so
    that lam . A_keep = scale * d.
    """
    n, m = len(variables), len(int_coeff_rows)
    # a row is its coefficients followed by its multipliers, with the
    # support bitmask of the multipliers
    rows = [(coeffs + tuple(int(i == k) for k in range(m)), 1 << i)
            for i, coeffs in enumerate(int_coeff_rows)]
    remaining = [j for j, v in enumerate(variables) if v not in keep]
    eliminated = 0
    while remaining:
        def pairing_cost(j):
            p = sum(row[j] > 0 for row, _ in rows)
            q = sum(row[j] < 0 for row, _ in rows)
            return p * q - p - q
        j = min(remaining, key=pairing_cost)
        remaining.remove(j)
        eliminated += 1
        new = [r for r in rows if r[0][j] == 0]
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        for p, sp in pos:
            for q, sq in neg:
                support = sp | sq
                if support.bit_count() > eliminated + 1:
                    continue
                a, b = p[j], -q[j]
                row = [b * x + a * y for x, y in zip(p, q)]
                g = math.gcd(*row)
                new.append((tuple(v // g for v in row), support))
        new.sort(key=lambda r: r[1].bit_count())
        rows = []
        for row, support in new:
            if all(s & support != s for _, s in rows):
                rows.append((row, support))

    cols = [j for j, v in enumerate(variables) if v in keep]
    constant = []
    by_direction: dict[tuple[int, ...], list] = {}
    for row, _ in rows:
        lam = row[n:]
        k = tuple(row[j] for j in cols)
        g = math.gcd(*k)
        if g == 0:
            constant.append(lam)
        else:
            by_direction.setdefault(tuple(c // g for c in k), []).append((g, lam))
    directions = []
    for d, rays in by_direction.items():
        scale = math.lcm(*(g for g, _ in rays))
        directions.append((d, scale, tuple(
            tuple(c * (scale // g) for c in lam) for g, lam in rays)))
    return tuple(constant), tuple(directions)


def project_bounds(variables: Sequence[str], keep: Sequence[str],
                   coeff_rows: Sequence[tuple[int, ...]], bounds: np.ndarray):
    """Projection of {A x <= b} onto `keep` for each column b of `bounds`,
    for integer coefficient rows A (`coeff_rows`, one column per variable),
    through the cached projection cone of A; `keep` lists its variables in
    system order.

    `bounds` is a (rows, K) integer array: int64 for MI bounds on the 1e-12
    grid, or Python ints (dtype object) for exact rationals, K = 1. The
    int64 sums keep their headroom: an MI term is at most log2(MAX_CELLS) =
    12 bits, 1.2e13 grid units, a coding bound sums at most two, and the
    multipliers of a ray of the coding cone sum to at most 11 in absolute
    value, under 3e14 in all.

    Returns (feasible, projected). `feasible` is a boolean mask over the K
    columns: a column is infeasible when some constant ray lam has
    lam . b < 0. `projected` holds one (d, scale, best) per direction d of
    the cone, meaning scale * (d . x) <= best, with `best` the tightest
    lam . b over the rays of that direction at each feasible column.
    """
    constant, directions = _projection_cone(tuple(variables), tuple(keep), tuple(coeff_rows))
    feasible = (np.array(constant, dtype=bounds.dtype).reshape(len(constant), len(bounds))
                @ bounds >= 0).all(axis=0)
    bounds = bounds[:, feasible]
    return feasible, [(d, scale, (np.array(rays, dtype=bounds.dtype) @ bounds).min(axis=0))
                      for d, scale, rays in directions]


def fme_project(sys: IneqSystem, keep: Sequence[str]) -> IneqSystem:
    """Exact projection of the feasible set onto the variables in `keep`,
    through the cached projection cone of the system's coefficients.

    Each row is scaled by the lcm of its coefficient denominators, so the
    cone depends on the integer coefficient matrix only and is built once
    per matrix. Per call the bounds are brought to one common denominator
    and `project_bounds` sums the cone's rays against them. An infeasible
    system is returned as the single row 0 <= -1; otherwise each direction
    keeps its tightest bound.
    """
    keep_set = set(keep)
    unknown = keep_set - set(sys.variables)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    column = {v: j for j, v in enumerate(sys.variables)}
    coeff_rows, bounds = [], []
    for iq in sys.inequalities:
        k = math.lcm(*(c.denominator for _, c in iq.coeffs))
        row = [0] * len(column)
        for name, c in iq.coeffs:
            row[column[name]] = c.numerator * (k // c.denominator)
        coeff_rows.append(tuple(row))
        bounds.append((iq.bound.numerator * k, iq.bound.denominator))
    variables = tuple(v for v in sys.variables if v in keep_set)
    den = math.lcm(*(q for _, q in bounds))
    column = np.array([p * (den // q) for p, q in bounds], dtype=object).reshape(-1, 1)
    feasible, projected = project_bounds(sys.variables, variables, coeff_rows, column)
    if not feasible[0]:
        return IneqSystem(variables, (LinIneq((), Fraction(-1)),))
    return IneqSystem(variables, tuple(
        LinIneq(tuple(zip(variables, d)), Fraction(best[0], scale * den))
        for d, scale, best in projected))


# ---------------------------------------------------------------------------
# 2-D frontier geometry
# ---------------------------------------------------------------------------

_SNAP = 1e-12


# constants of `_cleaned`, as arrays, which numpy compares faster than floats:
# the lowest coordinate accepted, zero, infinity, the tolerances of a reversal
# of r2 and of a rise of r1 in the columns (r2, -r1), and their signs
_FLOOR, _ZERO, _INF = np.array(-1e-9), np.array(0.0), np.array(math.inf)
_SLACK = np.array([_SNAP, 1e-9])
_FLIP = np.array([1.0, -1.0])


def _carry_forward(v: np.ndarray, own: np.ndarray) -> np.ndarray:
    """`v` with each entry whose `own` is False replaced by the nearest one
    before it, along axis 0, whose `own` is True; own[0] is True. A running
    extreme taken so, from the entries that reached it, has the zero sign
    that Python's `max` and `min` give it, whatever sign numpy's maximum and
    minimum give a tie of zeros."""
    if np.count_nonzero(own) == own.size:
        return v
    rows = np.arange(len(v)).reshape((-1,) + (1,) * (v.ndim - 1))
    return np.take_along_axis(v, np.maximum.accumulate(rows * own), axis=0)


def _cleaned(pts: np.ndarray) -> tuple[tuple[float, float], ...]:
    """The points of a frontier through the nonempty (n, 2) array `pts`, as
    this loop over them would keep them: reject the first point with a
    coordinate below -1e-9 or non-finite, clamp at zero, then take each
    point after the first against the last kept one (px, py): raise if
    x < px - 1e-12, snap x up to px, raise if y > py + 1e-9, snap y down to
    py, drop it if it equals (px, py), and of three or more points on one
    vertical line drop the middle ones; (0, r1) goes in front of a first
    point with r2 > 0. Each zero keeps the sign that loop's `max(x, px)` and
    `min(y, py)` give it.

    The pass works on the columns (r2, -r1), where both snaps take a running
    maximum and the last kept point is, in value, the running maximum of the
    points before it: one accumulate finds the first failing point and the
    repeats, and `_carry_forward` snaps the others.
    """
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FrontierError(f"points must be (r2, r1) pairs, got shape {pts.shape}")
    # one test passes the usual points, every coordinate in [0, inf) (-0.0
    # included); NaN fails every comparison
    usual = (pts >= _ZERO) & (pts < _INF)
    if np.count_nonzero(usual) < usual.size:
        inside = (pts >= _FLOOR) & (pts < _INF)
        if np.count_nonzero(inside) < inside.size:
            x, y = pts[inside.all(axis=1).argmin()].tolist()
            raise FrontierError(f"negative or non-finite coordinate in point ({x!r}, {y!r})")
        # a coordinate in [-1e-9, 0) becomes 0.0, and -0.0 stays, as
        # max(v, 0.0) gives them
        pts = np.where(usual, pts, _ZERO)
    # negation keeps every bit
    flip = pts * _FLIP
    run = np.maximum.accumulate(flip)
    # a point below the running maximum of the ones before it by more than
    # the slack is below the running maximum through it by as much
    bad = flip < run - _SLACK
    if np.count_nonzero(bad):
        i = int(bad.any(axis=1).argmax())
        if bad[i, 0]:
            raise FrontierError("r2 values must be nondecreasing")
        py = _cleaned(pts[:i])[-1][1]
        raise FrontierError(f"r1 must be nonincreasing (got {py!r} then {pts[i, 1].item()!r})")
    # a kept point that reaches the running maximum keeps its own coordinate
    # (a tie included, as max and min return their first argument on one);
    # any other takes that of the last kept point that reached it
    reach = run == flip
    # only a point with the r2 of the one before can repeat the last kept
    # point, which drops it, or stand in a vertical run
    tied = run[1:, 0] == run[:-1, 0]
    keep = None
    if np.count_nonzero(tied):
        keep = np.concatenate(([True], ~(tied & (run[1:, 1] == run[:-1, 1]))))
        reach &= keep[:, None]
    out = _carry_forward(flip, reach) * _FLIP
    if keep is not None:
        out = out[keep]
        # of each vertical run, only the first and the last point stay
        tied = out[1:, 0] == out[:-1, 0]
        middle = np.zeros(len(out), dtype=bool)
        middle[1:-1] = tied[1:] & tied[:-1]
        out = out[~middle]
    points = list(map(tuple, out.tolist()))
    if points[0][0] > 0.0:
        points.insert(0, (0.0, points[0][1]))
    return tuple(points)


@dataclass(frozen=True)
class Frontier2D:
    """Downward-closed region in the (R2, R1) plane as a monotone polyline.

    Points are (r2, r1) with r2 ascending and r1 nonincreasing; two points
    may share an r2 value to encode a vertical step. An empty tuple is the
    empty region; a nonempty frontier always starts at r2 = 0.

    The points may be given as a sequence of pairs or an (n, 2) array; they
    are checked and cleaned in one array pass (`_cleaned`) and kept as a
    tuple of float pairs.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not len(self.points):
            object.__setattr__(self, "points", ())
            return
        object.__setattr__(self, "points", _cleaned(np.asarray(self.points, dtype=float)))

    @cached_property
    def _xs(self) -> tuple[float, ...]:
        """The r2 values that `value` and `_affine_on` bisect, built on first
        use: not a field, so equality and repr see the points only, and a
        frontier that is never read pays nothing for it."""
        return tuple([x for x, _ in self.points])

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def r2_max(self) -> float:
        if self.is_empty:
            raise FrontierError("empty frontier has no r2_max")
        return self.points[-1][0]

    def value(self, q: float) -> float | None:
        """Max achievable r1 at r2 = q (upper-semicontinuous); None outside."""
        if self.is_empty:
            return None
        xs = self._xs
        if not 0 <= q <= xs[-1]:
            return None
        # xs[0] == 0, so q == 0 is a hit and any other q has a point before it
        i = bisect.bisect_left(xs, q)
        if xs[i] == q:
            return self.points[i][1]
        x0, y0 = self.points[i - 1]
        x1, y1 = self.points[i]
        t = (q - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    def _affine_on(self, u: float, v: float) -> tuple[float, float] | None:
        """(slope, intercept) of the nonempty frontier on the open interval
        (u, v), for 0 <= u and v - u > 1e-12; None past r2_max. Then
        xs[i - 1] < (u + v) / 2 <= xs[i], so the piece has width."""
        xs = self._xs
        t = 0.5 * (u + v)
        if t > xs[-1]:
            return None
        i = bisect.bisect_left(xs, t)
        x0, y0 = self.points[i - 1]
        x1, y1 = self.points[i]
        m = (y1 - y0) / (x1 - x0)
        return (m, y0 - m * x0)

    def to_csv_text(self) -> str:
        lines = ["R2,R1"]
        lines += [f"{x:.12g},{y:.12g}" for x, y in self.points]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "Frontier2D":
        rows = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not rows or rows[0].replace(" ", "") != "R2,R1":
            raise FrontierError("expected header 'R2,R1'")
        pts = []
        for ln in rows[1:]:
            a, b = ln.split(",")
            pts.append((float(a), float(b)))
        return cls(tuple(pts))


def _merge_breakpoints(a: Frontier2D, b: Frontier2D, upto: float) -> list[float]:
    """Sorted r2 values in [0, upto] at which two nonempty frontiers are
    read: their points, clustered at the snap width, plus the crossings of
    their affine pieces."""
    xs = {0.0, upto}
    xs.update(x for f in (a, b) for x, _ in f.points if x <= upto + _SNAP)
    # collapse clusters within the snap width (rationalization-grain noise)
    raw = sorted(xs)
    base = [raw[0]]
    for x in raw[1:]:
        if x - base[-1] > _SNAP:
            base.append(x)
    if base[-1] > upto:
        base[-1] = upto
    if base[-1] < upto:
        base.append(upto)
    # add crossings of the two piecewise-affine envelopes so min/max stay exact
    extra = []
    for u, v in zip(base, base[1:]):
        if v - u <= _SNAP:
            continue
        fa = a._affine_on(u, v)
        fb = b._affine_on(u, v)
        if fa is None or fb is None:
            continue
        (ma, ca), (mb, cb) = fa, fb
        if ma == mb:
            continue
        x = (cb - ca) / (ma - mb)
        if u + _SNAP < x < v - _SNAP:
            extra.append(x)
    return sorted(set(base) | set(extra))


def _combine_frontiers(a: Frontier2D, b: Frontier2D, take_max: bool) -> Frontier2D:
    if a.is_empty or b.is_empty:
        return (b if a.is_empty else a) if take_max else Frontier2D(())
    op = max if take_max else min
    xs = _merge_breakpoints(a, b, op(a.r2_max, b.r2_max))
    # values at breakpoints, plus right-limits where a vertical step occurs,
    # each over the frontiers whose domain reaches them: an intersection
    # stops at the shorter domain, and a union's longer frontier reaches all
    pts: list[tuple[float, float]] = []
    for q, w in zip(xs, xs[1:] + [xs[-1]]):
        v = op(f.value(q) for f in (a, b) if q <= f.r2_max)
        pts.append((q, v))
        if w - q > _SNAP:
            pieces = filter(None, (a._affine_on(q, w), b._affine_on(q, w)))
            right = op(m * q + c for m, c in pieces)
            if v - right > _SNAP:
                pts.append((q, right))
    # drop exactly-collinear interior points to keep frontiers compact
    compact: list[tuple[float, float]] = []
    for p in pts:
        while len(compact) >= 2:
            (x0, y0), (x1, y1) = compact[-2], compact[-1]
            x2, y2 = p
            cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
            span = max(abs(x2 - x0), 1.0)
            if abs(cross) <= 1e-14 * span:
                compact.pop()
            else:
                break
        compact.append(p)
    return Frontier2D(tuple(compact))


def frontier_union(a: Frontier2D, b: Frontier2D) -> Frontier2D:
    """Pointwise max of achievable r1 (union of the two regions)."""
    return _combine_frontiers(a, b, take_max=True)


def frontier_intersect(a: Frontier2D, b: Frontier2D) -> Frontier2D:
    """Pointwise min of achievable r1 (intersection of the two regions)."""
    return _combine_frontiers(a, b, take_max=False)


def frontier_contains(outer: Frontier2D, inner: Frontier2D, tol: float = 0.0) -> bool:
    """True iff every inner point is dominated by the outer region within tol.

    Both frontiers are read at every merged breakpoint up to the shorter
    r2_max, and at both ends of each affine piece between them, so the right
    limit of a vertical step counts."""
    if inner.is_empty:
        return True
    if outer.is_empty or inner.r2_max > outer.r2_max + tol:
        return False
    xs = _merge_breakpoints(outer, inner, min(inner.r2_max, outer.r2_max))
    if any(inner.value(q) > outer.value(q) + tol for q in xs):
        return False
    for u, v in zip(xs, xs[1:]):
        if v - u > _SNAP:
            (mi, ci), (mo, co) = inner._affine_on(u, v), outer._affine_on(u, v)
            if any(mi * q + ci > mo * q + co + tol for q in (u, v)):
                return False
    # inner may reach past outer within tol: its tail must sit under outer's
    # edge value (exact arithmetic implies this; rounding of the last piece
    # does not)
    return not (inner.r2_max > outer.r2_max
                and inner.value(inner.r2_max) > outer.value(outer.r2_max) + tol)


def region_equal(a: Frontier2D, b: Frontier2D, tol: float = 1e-9) -> bool:
    """Mutual containment within tol (the operational region-equality test)."""
    return frontier_contains(a, b, tol) and frontier_contains(b, a, tol)


def _upper_hull(pts: list[tuple[float, float]], tol: float) -> list[tuple[float, float]]:
    """Upper convex chain of points sorted by x; a middle point is dropped
    when it lies on or below its neighbours' chord within tol."""
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
            if cross >= -tol:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _time_sharing_hull(xs: np.ndarray, ys: np.ndarray) -> Frontier2D:
    """The frontier of the time-sharing hull of the points (xs[i], ys[i]):
    each r2 keeps its largest r1, and the upper hull of those finishes."""
    if not len(xs):
        return Frontier2D(())
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    top = np.append(xs[1:] != xs[:-1], True)
    return Frontier2D(tuple(_upper_hull(list(zip(xs[top].tolist(), ys[top].tolist())), 1e-15)))


def concave_envelope(frontiers: Iterable[Frontier2D]) -> Frontier2D:
    """Time-sharing convexification of the union of the frontiers' regions:
    the upper hull of all their points, each r2 keeping its largest r1."""
    pts = np.array([p for f in frontiers for p in f.points], dtype=float).reshape(-1, 2)
    return _time_sharing_hull(pts[:, 0], pts[:, 1])


def monotone_frontier(r2: np.ndarray, r1: np.ndarray) -> Frontier2D:
    """Frontier of the samples r1[i] at r2[i], for r2 ascending with no
    repeats (as `gaussian` samples it): each r1 capped by the running minimum
    of the ones before it and clamped at zero, in numpy. A sample not above
    the running minimum keeps its own value, as min(y, best) keeps it, and
    a NaN stays for `Frontier2D` to reject."""
    run = np.minimum.accumulate(r1)
    r1 = _carry_forward(r1, ~(run < r1))
    return Frontier2D(np.stack((r2, np.where(r1 < 0.0, 0.0, r1)), axis=1))


# ---------------------------------------------------------------------------
# Projection of a 2-variable system to its Pareto frontier
# ---------------------------------------------------------------------------


def project_to_frontier(sys: IneqSystem, r1: str, r2: str) -> Frontier2D:
    """Pareto (upper-right) frontier of a 2-variable system in the nonnegative
    quadrant: `integer_frontier` of its rows, each scaled by its lcm denominator."""
    if set(sys.variables) != {r1, r2}:
        raise ValueError(
            f"system must be over exactly ({r1!r}, {r2!r}); has {sys.variables}"
        )
    rows = []
    for iq in sys.inequalities:
        row = (iq.coeff(r2), iq.coeff(r1), iq.bound)
        k = math.lcm(*(v.denominator for v in row))
        rows.append(tuple(v.numerator * (k // v.denominator) for v in row))
    return integer_frontier(rows)


def _unbounded(d2: int, d1: int) -> UnboundedRegionError:
    return UnboundedRegionError(f"region is unbounded along direction (r2,r1)=({d2},{d1})")


def integer_frontier(rows: Iterable[tuple[int, int, int]]) -> Frontier2D:
    """Pareto (upper-right) frontier of integer rows (a, b, c), each meaning
    a*r2 + b*r1 <= c, in the nonnegative quadrant. A vertex is (x, y) / det
    with det > 0, feasible when a*x + b*y <= c*det for every row; integer
    division rounds it to floats as `float(Fraction(x, det))` would. An
    unbounded region raises UnboundedRegionError naming a recession direction
    divided by its gcd; an infeasible system yields the empty frontier. A
    row with a >= 0, b >= 0 and c < 0, the constant row 0 <= c < 0 included,
    is met by no vertex, so it excludes the quadrant; `grid_frontiers`
    settles such columns without calling this."""
    # a constant row 0 <= c either holds and is dropped, or no vertex meets it
    system_rows = [(a, b, c) for a, b, c in rows if a or b or c < 0]
    rows = system_rows + [(-1, 0, 0), (0, -1, 0)]

    # the quadrant rows make the region pointed, so nonempty implies a vertex;
    # x, y >= 0 already satisfy the quadrant rows. `top` maps each vertex r2,
    # as a reduced pair (x, det), to its largest r1 as (y, det)
    top: dict[tuple[int, int], tuple[int, int]] = {}
    m = len(rows)
    for i in range(m):
        a1, b1, c1 = rows[i]
        for j in range(i + 1, m):
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = c1 * b2 - c2 * b1
            y = a1 * c2 - a2 * c1
            if det < 0:
                det, x, y = -det, -x, -y
            if x < 0 or y < 0:
                continue
            for a, b, c in system_rows:
                if a * x + b * y > c * det:
                    break
            else:
                g = math.gcd(x, det)
                key = (x // g, det // g)
                best = top.get(key)
                if best is None or y * best[1] > best[0] * det:
                    top[key] = (y, det)
    if not top:
        return Frontier2D(())

    # unboundedness (only meaningful for a nonempty region): a direction
    # d >= 0, d != 0 with a*d2 + b*d1 <= 0 for every row; every row has
    # (a, b) != (0, 0), so each candidate is nonzero and reduced by its gcd
    candidates = {(1, 0), (0, 1)}
    for a, b, _ in rows:
        for d2, d1 in ((-b, a), (b, -a)):
            if d2 >= 0 and d1 >= 0:
                g = math.gcd(d2, d1)
                candidates.add((d2 // g, d1 // g))
    for d2, d1 in sorted(candidates):
        if all(a * d2 + b * d1 <= 0 for a, b, _ in rows):
            raise _unbounded(d2, d1)

    # the upper concave chain of the polygon boundary
    hull = _upper_hull(sorted((x / dx, y / dy) for (x, dx), (y, dy) in top.items()), 1e-18)
    # enforce the downward-closed reading: drop any rising prefix
    while len(hull) >= 2 and hull[0][1] < hull[1][1] - 1e-15:
        hull.pop(0)
    return Frontier2D(tuple(hull))


def grid_frontiers(coeff_rows: Sequence[tuple[int, int]], bounds: np.ndarray) -> list[Frontier2D]:
    """The frontier of each column of a (rows, K) integer array of bounds on
    the 1e-12 grid, for small integer rows (a, b) meaning a*r2 + b*r1 <= c,
    as `integer_frontier` gives it for the column's rows scaled to the grid.
    A column with a negative bound on a row with a >= 0 and b >= 0 excludes
    the quadrant: one array test finds every such column, and they share one
    empty frontier; `integer_frontier` runs on each other column."""
    scaled = [(a * RATIONALIZE_GRAIN, b * RATIONALIZE_GRAIN) for a, b in coeff_rows]
    excluded = (bounds[np.array([a >= 0 and b >= 0 for a, b in coeff_rows], dtype=bool)]
                < 0).any(axis=0)
    empty = Frontier2D(())
    return [empty if out else integer_frontier([(a, b, c) for (a, b), c in zip(scaled, column)])
            for out, column in zip(excluded.tolist(), bounds.T.tolist())]


def grid_envelope(coeff_rows: Sequence[tuple[int, int]], bounds: np.ndarray) -> Frontier2D:
    """`concave_envelope` of the `grid_frontiers` of the columns of a (rows, K)
    int64 array of bounds on the 1e-12 grid, for rows (a, b) meaning
    a*r2 + b*r1 <= c, each (0, 1), (1, 0) or (1, 1): the same points, from
    the vertices of all K columns at once, with no frontier per column.

    A column's R1, R2 and sum caps are the minima A, B and C of its rows of
    each kind, +inf for a kind with no row (with no sum row, C = A + B cuts
    nothing off). With a = min(A, C) and b = min(B, C) the column's vertices
    are (0, a), then (C - a, a) when C - a < b, then (b, min(a, C - b)).
    Each coordinate is its grid value over 1e12 in float64: a grid value
    below 2**53 is exact, so this is the correctly rounded quotient
    `integer_frontier` takes. As there, a corner whose cross product with
    its neighbours is >= -1e-18 is dropped (one grid unit wide and deep, it
    is about -1e-24), a column with a negative bound is empty, and a
    nonempty column is unbounded when a or b is +inf.
    """
    if not set(coeff_rows) <= {(0, 1), (1, 0), (1, 1)}:
        raise ValueError(f"grid_envelope takes rows (0, 1), (1, 0) and (1, 1), got {coeff_rows}")
    # a negative bound on a row without a negative coefficient excludes the
    # quadrant
    bounds = bounds[:, (bounds >= 0).all(axis=0)]
    if not (bounds < 2**53).all():
        raise ValueError("grid bound beyond 2**53: its quotient by the grid is not exact")
    if not bounds.shape[1]:
        return Frontier2D(())

    def cap(kind):
        picked = [i for i, row in enumerate(coeff_rows) if row == kind]
        return bounds[picked].min(axis=0) if picked else None

    r1_cap, r2_cap, c = cap((0, 1)), cap((1, 0)), cap((1, 1))
    if r1_cap is None and c is None:
        raise _unbounded(0, 1)
    if r2_cap is None and c is None:
        raise _unbounded(1, 0)
    if c is None:
        c = r1_cap + r2_cap
    a = c if r1_cap is None else np.minimum(r1_cap, c)
    b = c if r2_cap is None else np.minimum(r2_cap, c)
    x0, y0 = 0.0, a / RATIONALIZE_GRAIN
    x1, y1 = (c - a) / RATIONALIZE_GRAIN, y0
    x2, y2 = b / RATIONALIZE_GRAIN, np.minimum(a, c - b) / RATIONALIZE_GRAIN
    # _upper_hull's cross product at the corner (x1, y1)
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    corner = (c - a < b) & (cross < -1e-18)
    return _time_sharing_hull(np.concatenate([np.zeros(len(a)), x1[corner], x2]),
                              np.concatenate([y0, y1[corner], y2]))
