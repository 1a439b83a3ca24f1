"""Reference frontier geometry for `mcifc.polytope`.

These are the lookups, breakpoint merge, union/intersection and containment
test as `polytope` wrote them before they shared one breakpoint sweep: every
branch kept, including those no input reaches (an empty operand inside the
sweep, a point past a frontier's domain, a zero-width piece). The methods of
`Frontier2D` are module functions here, taking the frontier first; the bodies
are otherwise unchanged. The tests require the sweep to give `==` points and
equal booleans.

`cleaned_points` and `monotone_frontier` are the point-at-a-time loops that
`Frontier2D` and `polytope.monotone_frontier` ran before their array pass;
the tests require the same points bit for bit, zero signs included, and the
same exception and message.
"""

import bisect
import math

from mcifc.polytope import _SNAP, Frontier2D, FrontierError


def cleaned_points(points) -> tuple[tuple[float, float], ...]:
    """The points `Frontier2D(points)` keeps: each point checked, clamped at
    zero and snapped to the last kept one, exact duplicates and the middle
    points of a vertical run dropped, and (0, r1) put in front."""
    pts = [(float(x), float(y)) for x, y in points]
    for x, y in pts:
        if not (-1e-9 <= x < math.inf and -1e-9 <= y < math.inf):
            raise FrontierError(f"negative or non-finite coordinate in point ({x!r}, {y!r})")
    pts = [(max(x, 0.0), max(y, 0.0)) for x, y in pts]
    cleaned: list[tuple[float, float]] = []
    for x, y in pts:
        if cleaned:
            px, py = cleaned[-1]
            if x < px - _SNAP:
                raise FrontierError("r2 values must be nondecreasing")
            x = max(x, px)
            if y > py + 1e-9:
                raise FrontierError(
                    f"r1 must be nonincreasing (got {py!r} then {y!r})"
                )
            y = min(y, py)
            if x == px and y == py:
                continue
            # collapse >2 consecutive points on one vertical line
            if len(cleaned) >= 2 and cleaned[-2][0] == px == x:
                cleaned.pop()
        cleaned.append((x, y))
    if cleaned and cleaned[0][0] > 0.0:
        cleaned.insert(0, (0.0, cleaned[0][1]))
    return tuple(cleaned)


def frontier(points) -> Frontier2D:
    """A `Frontier2D` holding `cleaned_points(points)`, built without running
    `Frontier2D`'s own pass."""
    f = object.__new__(Frontier2D)
    object.__setattr__(f, "points", cleaned_points(points))
    return f


def monotone_frontier(pairs) -> Frontier2D:
    """Frontier of sampled (r2, r1) pairs: sorted by r2, each r1 capped by the
    running minimum of the ones before it and clamped at zero."""
    out = []
    best = math.inf
    for x, y in sorted(pairs):
        y = min(y, best)
        best = y
        out.append((x, max(y, 0.0)))
    return frontier(out)


def value(self: Frontier2D, q: float) -> float | None:
    """Max achievable r1 at r2 = q (upper-semicontinuous); None outside."""
    if self.is_empty:
        return None
    xs = [p[0] for p in self.points]
    if q < 0 or q > xs[-1]:
        return None
    i = bisect.bisect_left(xs, q)
    if i < len(xs) and xs[i] == q:
        return self.points[i][1]
    if i == 0:
        return self.points[0][1]
    x0, y0 = self.points[i - 1]
    x1, y1 = self.points[i]
    t = (q - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


def affine_on(self: Frontier2D, u: float, v: float) -> tuple[float, float] | None:
    """(slope, intercept) of the frontier on the open interval (u, v)."""
    if self.is_empty:
        return None
    xs = [p[0] for p in self.points]
    t = 0.5 * (u + v)
    if t < 0 or t > xs[-1]:
        return None
    i = bisect.bisect_left(xs, t)
    if i == 0:
        return (0.0, self.points[0][1])
    x0, y0 = self.points[i - 1]
    x1, y1 = self.points[i]
    if x1 == x0:
        return None
    m = (y1 - y0) / (x1 - x0)
    return (m, y0 - m * x0)


def breakpoints(self: Frontier2D) -> list[float]:
    return sorted({p[0] for p in self.points})


def merge_breakpoints(a: Frontier2D, b: Frontier2D, upto: float) -> list[float]:
    xs = {0.0, upto}
    for f in (a, b):
        if not f.is_empty:
            xs.update(x for x in breakpoints(f) if x <= upto + _SNAP)
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
        fa = affine_on(a, u, v)
        fb = affine_on(b, u, v)
        if fa is None or fb is None:
            continue
        (ma, ca), (mb, cb) = fa, fb
        if ma == mb:
            continue
        x = (cb - ca) / (ma - mb)
        if u + _SNAP < x < v - _SNAP:
            extra.append(x)
    return sorted(set(base) | set(extra))


def combine_frontiers(a: Frontier2D, b: Frontier2D, take_max: bool) -> Frontier2D:
    if a.is_empty:
        return b if take_max else Frontier2D(())
    if b.is_empty:
        return a if take_max else Frontier2D(())
    upto = max(a.r2_max, b.r2_max) if take_max else min(a.r2_max, b.r2_max)
    xs = merge_breakpoints(a, b, upto)
    op = max if take_max else min

    def at(q: float) -> float | None:
        va, vb = value(a, q), value(b, q)
        if take_max:
            vals = [v for v in (va, vb) if v is not None]
            return op(vals) if vals else None
        if va is None or vb is None:
            return None
        return op(va, vb)

    # values at breakpoints, plus right-limits where a vertical step occurs
    pts: list[tuple[float, float]] = []
    for i, q in enumerate(xs):
        v = at(q)
        if v is None:
            continue
        pts.append((q, v))
        if i + 1 < len(xs) and xs[i + 1] - q > _SNAP:
            u, w = q, xs[i + 1]
            fa = affine_on(a, u, w)
            fb = affine_on(b, u, w)
            limits = [m * q + c for f in (fa, fb) if f is not None for m, c in (f,)]
            if limits:
                if take_max:
                    right = max(limits)
                else:
                    if fa is None or fb is None:
                        continue
                    right = min(limits)
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


def frontier_contains(outer: Frontier2D, inner: Frontier2D, tol: float = 0.0) -> bool:
    """True iff every inner point is dominated by the outer region within tol."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    if inner.r2_max > outer.r2_max + tol:
        return False
    upto = min(inner.r2_max, outer.r2_max)
    xs = merge_breakpoints(outer, inner, upto)
    edge_cap = value(outer, outer.r2_max)
    for q in xs:
        vi = value(inner, q)
        if vi is None:
            continue
        vo = value(outer, q) if q <= outer.r2_max else edge_cap
        if vo is None or vi > vo + tol:
            return False
    for u, v in zip(xs, xs[1:]):
        if v - u <= _SNAP:
            continue
        fi = affine_on(inner, u, v)
        fo = affine_on(outer, u, v)
        if fi is None:
            continue
        mi, ci = fi
        if fo is None:
            # interval beyond outer's domain (possible only within tol of its
            # edge): compare against the edge value
            cap = edge_cap if edge_cap is not None else 0.0
            if mi * u + ci > cap + tol or mi * v + ci > cap + tol:
                return False
            continue
        mo, co = fo
        for q in (u, v):
            if mi * q + ci > mo * q + co + tol:
                return False
    # anything of inner beyond outer's domain must sit under the edge value
    if inner.r2_max > outer.r2_max:
        tail = value(inner, inner.r2_max)
        cap = edge_cap if edge_cap is not None else 0.0
        if tail is not None and tail > cap + tol:
            return False
    return True


def region_equal(a: Frontier2D, b: Frontier2D, tol: float = 1e-9) -> bool:
    """Mutual containment within tol (the operational region-equality test)."""
    return frontier_contains(a, b, tol) and frontier_contains(b, a, tol)
