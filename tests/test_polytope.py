import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mcifc import polytope
from mcifc.polytope import (
    RATIONALIZE_GRAIN,
    Frontier2D,
    FrontierError,
    IneqSystem,
    LinIneq,
    UnboundedRegionError,
    _projection_cone,
    _upper_hull,
    concave_envelope,
    fme_project,
    frontier_contains,
    frontier_intersect,
    frontier_union,
    grid_bound,
    grid_bounds,
    grid_envelope,
    grid_frontiers,
    integer_frontier,
    project_bounds,
    project_to_frontier,
    rationalize,
    region_equal,
)

from conftest import (
    fme_eliminate,
    imbert_fme_project,
    is_infeasible,
    is_trivially_true,
    per_joint_envelope,
    union_all,
)
import frontier_reference as ref


def box(r2_cap, r1_cap):
    return Frontier2D(((0.0, r1_cap), (r2_cap, r1_cap)))


def test_rationalize_grid():
    assert rationalize(0.5) == Fraction(1, 2)
    assert rationalize(Fraction(1, 3)) == Fraction(1, 3)
    assert abs(float(rationalize(0.1)) - 0.1) < 1e-12


def test_fme_single_pairing():
    sys = IneqSystem.build(["x", "y"], [({"x": 1, "y": 1}, 3), ({"y": -1}, 0)])
    out = fme_eliminate(sys, "y")
    assert out.variables == ("x",)
    assert out.inequalities == (LinIneq.of({"x": 1}, 3),)


def test_fme_surfaces_contradiction():
    sys = IneqSystem.build(["y"], [({"y": 1}, 1), ({"y": -1}, -2)])
    out = fme_eliminate(sys, "y")
    assert len(out.inequalities) == 1
    assert is_infeasible(out.inequalities[0])


def _project_membership(sys, var, point):
    """Interval-intersection oracle: is there a value of `var` completing
    `point` to a solution of `sys`?"""
    lo, hi = None, None
    for iq in sys.inequalities:
        c = iq.coeff(var)
        rest = sum(
            (co * point[n] for n, co in iq.coeffs if n != var), Fraction(0)
        )
        if c == 0:
            if rest > iq.bound:
                return False
        elif c > 0:
            cap = (iq.bound - rest) / c
            hi = cap if hi is None or cap < hi else hi
        else:
            low = (iq.bound - rest) / c
            lo = low if lo is None or low > lo else lo
    return lo is None or hi is None or lo <= hi


def test_fme_matches_sampling_oracle():
    rng = np.random.default_rng(7)
    names = ["a", "b", "c", "d", "e", "f"]
    seen = {True: 0, False: 0}
    for trial in range(12):
        rows = []
        for _ in range(9):
            coeffs = {
                n: int(v)
                for n, v in zip(names, rng.integers(-3, 4, size=6))
                if v != 0
            }
            rows.append((coeffs, int(rng.integers(-4, 9))))
        sys = IneqSystem.build(names, rows)
        var = names[trial % 6]
        kept = [n for n in names if n != var]
        proj = fme_eliminate(sys, var)
        cone = fme_project(sys, kept)
        for _ in range(90):
            point = {n: Fraction(int(rng.integers(-12, 13)), 4) for n in kept}
            has_witness = _project_membership(sys, var, point)
            assert proj.satisfied_by(point) == has_witness
            assert cone.satisfied_by(point) == has_witness
            seen[has_witness] += 1
    # the points fall on both sides of the projections (39 of 1080 inside)
    assert seen[True] and seen[False]


def _dense_system(rng):
    """Ten dense integer rows over five variables, boxed in [0, 9]."""
    names = ["r1", "r2", "u", "v", "w"]
    rows = []
    for _ in range(10):
        coeffs = {
            n: int(c) for n, c in zip(names, rng.integers(-2, 3, size=5)) if c != 0
        }
        rows.append((coeffs, int(rng.integers(0, 8))))
    rows += [({n: -1}, 0) for n in names]
    rows += [({n: 1}, 9) for n in names]  # keep the projection bounded
    return IneqSystem.build(names, rows)


def test_fme_project_order_independent():
    rng = np.random.default_rng(3)
    sys = _dense_system(rng)
    fr_a = project_to_frontier(fme_project(sys, ["r1", "r2"]), "r1", "r2")
    manual = sys
    for var in ["w", "u", "v"]:
        manual = fme_eliminate(manual, var)
    fr_b = project_to_frontier(manual, "r1", "r2")
    assert region_equal(fr_a, fr_b, 1e-12)


def test_project_box_and_simplex():
    b = IneqSystem.build(["r1", "r2"], [({"r1": 1}, 2), ({"r2": 1}, 1)])
    assert project_to_frontier(b, "r1", "r2").points == ((0.0, 2.0), (1.0, 2.0))
    t = IneqSystem.build(["r1", "r2"], [({"r1": 1, "r2": 1}, 1)])
    assert project_to_frontier(t, "r1", "r2").points == ((0.0, 1.0), (1.0, 0.0))


def test_project_matches_grid_membership_oracle():
    # a five-inequality system in the style of the decode-everything region
    rows = [
        ({"R1": 1}, 1.25),
        ({"R2": 1}, 0.8),
        ({"R2": 1}, 0.95),
        ({"R1": 1, "R2": 1}, 1.6),
        ({"R1": 1, "R2": 1}, 1.45),
    ]
    sys = IneqSystem.build(["R1", "R2"], rows)
    fr = project_to_frontier(sys, "R1", "R2")
    for r2 in np.linspace(0, 1.0, 101):
        for r1 in np.linspace(0, 1.6, 101):
            member = (
                r1 <= 1.25 + 1e-12 and r2 <= 0.8 + 1e-12 and r1 + r2 <= 1.45 + 1e-12
            )
            val = fr.value(r2)
            covered = val is not None and r1 <= val + 1e-9
            assert member == covered or (member and covered)


def test_project_unbounded_raises():
    sys = IneqSystem.build(["r1", "r2"], [({"r2": 1}, 1)])
    with pytest.raises(UnboundedRegionError, match=r"\(r2,r1\)=\(0,1\)$"):
        project_to_frontier(sys, "r1", "r2")
    # the cone is the one ray 3*r2 = 2*r1; its rows give it as (4, 6) and,
    # scaled to integers, (6, 9), and it is reported divided by its gcd
    ray = IneqSystem.build(["r1", "r2"], [({"r2": -6, "r1": 4}, 12),
                                          ({"r2": Fraction(9, 2), "r1": -3}, 9)])
    with pytest.raises(UnboundedRegionError, match=r"\(r2,r1\)=\(2,3\)$"):
        project_to_frontier(ray, "r1", "r2")


def test_project_infeasible_is_empty():
    sys = IneqSystem.build(["r1", "r2"], [({"r1": 1}, -1)])
    assert project_to_frontier(sys, "r1", "r2").is_empty


def test_frontier_invariants():
    with pytest.raises(FrontierError):
        Frontier2D(((0.0, 1.0), (1.0, 2.0)))  # rising r1
    with pytest.raises(FrontierError):
        Frontier2D(((1.0, 1.0), (0.5, 0.5)))  # r2 not sorted
    f = Frontier2D(((0.5, 1.0),))
    assert f.points[0] == (0.0, 1.0)  # left edge padded to r2 = 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frontier_rejects_non_finite_coordinates(bad):
    for point in ((0.0, bad), (bad, 1.0)):
        with pytest.raises(FrontierError, match="non-finite"):
            Frontier2D(((0.0, 2.0), point))


# steps that tie, that reverse r2 or raise r1 within the snap tolerances
# (1e-12 and 1e-9), and that pass those tolerances
_R2_STEPS = (0.0, 0.0, 0.0, 0.25, 0.5, 1.0, -4e-13, -1e-12, 1e-13, -3e-12)
_R1_STEPS = (0.0, 0.0, 0.0, 0.25, 0.5, 1.0, -4e-10, -1e-9, 1e-10, -3e-9)
_STARTS = (0.0, 0.0, -0.0, -1e-10, 0.5, 1.0)
_SPECIAL = (0.0, -0.0, -1e-10, -1e-9, -2e-9, math.inf, -math.inf, math.nan)


def random_point_lists(rng, count):
    """`count` lists of 0-8 (r2, r1) points, drawn with the `random.Random`
    `rng`: mostly monotone walks from the steps above, with exact repeats of
    the last point and single coordinates swapped for a zero of either sign,
    a small negative, inf or NaN."""
    for _ in range(count):
        x, y = rng.choice(_STARTS), 2.0 + rng.choice(_STARTS)
        pts = []
        for _ in range(rng.randrange(9)):
            kind = rng.randrange(8)
            if kind == 0 and pts:
                pts.append(pts[-1])
                continue
            x, y = x + rng.choice(_R2_STEPS), y - rng.choice(_R1_STEPS)
            p = [x, y]
            if kind == 1:
                p[rng.randrange(2)] = rng.choice(_SPECIAL)
            elif kind == 2:
                # a walk down to r1 = 0, where the sign of zero shows
                p[1] = rng.choice((0.0, -0.0, 1e-10, -1e-10))
            pts.append(tuple(p))
        yield tuple(pts)


def _cleaning_outcome(build):
    """The points `build()` gives, as int64 bit views (so -0.0 differs from
    0.0), or the type and message of its error."""
    try:
        points = build()
    except (FrontierError, ValueError) as exc:
        return type(exc), str(exc)
    return np.array(points, dtype=float).reshape(-1, 2).view(np.int64).tolist()


def test_frontier_pass_equals_the_point_loop():
    rng = random.Random(34)
    seen = set()
    for pts in random_point_lists(rng, 20_000):
        got = _cleaning_outcome(lambda: Frontier2D(pts).points)
        assert got == _cleaning_outcome(lambda: ref.cleaned_points(pts)), pts
        seen.add(got[1][:12] if isinstance(got, tuple) else "ok")
    # every outcome occurs: both monotonicity errors and the range error
    assert seen == {"ok", "r2 values mu", "r1 must be n", "negative or "}


def test_monotone_frontier_equals_the_sample_loop():
    rng = random.Random(35)
    for pts in random_point_lists(rng, 10_000):
        r1 = np.array([y for _, y in pts], dtype=float)
        # ascending, distinct r2, as the Gaussian regions sample it
        r2 = rng.choice((0.0, 0.25)) + np.arange(len(r1)) * rng.uniform(0.1, 1.0)
        pairs = list(zip(r2.tolist(), r1.tolist()))
        got = _cleaning_outcome(lambda: polytope.monotone_frontier(r2, r1).points)
        want = _cleaning_outcome(lambda: ref.monotone_frontier(pairs).points)
        assert got == want, (r2.tolist(), r1.tolist())


def test_frontier_drops_duplicates_and_vertical_middles():
    f = Frontier2D(((0.5, 2.0), (0.5, 2.0), (0.5, 1.5), (0.5, 1.0), (0.5, 0.5),
                    (1.0, 0.5), (1.0, 0.5)))
    assert f.points == ((0.0, 2.0), (0.5, 2.0), (0.5, 0.5), (1.0, 0.5))
    # a repeat with the other zero sign is dropped; the kept -0.0 is what a
    # later point within 1e-9 above it snaps to, and what the error names
    f = Frontier2D(((0.0, 1.0), (1.0, -0.0), (1.0, 0.0), (2.0, 5e-10)))
    assert f.points[-1] == (2.0, 0.0) and math.copysign(1.0, f.points[-1][1]) < 0
    with pytest.raises(FrontierError, match=r"^r1 must be nonincreasing \(got -0.0 then 1.0\)$"):
        Frontier2D(((0.0, 1.0), (1.0, -0.0), (1.0, 0.0), (2.0, 1.0)))
    with pytest.raises(FrontierError, match=r"^points must be \(r2, r1\) pairs"):
        Frontier2D(((0.0, 1.0, 2.0),))


def test_grid_bounds_equal_grid_bound_elementwise():
    g = 10**12
    # exact ties of the grid: x * 1e12 is k + 1/2 in floating point
    ties = [x for k in range(-60, 60)
            for x in ((k + 0.5) / g, (100 * g + k + 0.5) / g, (k + 0.5 - 100 * g) / g)
            if x * g % 1 == 0.5]
    assert len(ties) >= 90 and min(ties) < -50 and max(ties) > 50
    half = 0.5e-12
    edges = [0.0, -0.0, 2e-12, -2e-12, half, -half, 1.5e-12, -1.5e-12, 100.0, -100.0,
             99.9999999999995, 100.0000000000005, -99.9999999999995]
    edges += [np.nextafter(v, d) for v in (half, -half, 100.0, -100.0) for d in (-np.inf, np.inf)]
    rng = np.random.default_rng(7)
    values = np.array(ties + edges + list(rng.uniform(-100, 100, 200))
                      + list(rng.uniform(-3e-12, 3e-12, 200)))
    for shape in ((len(values),), (len(values), 1), (1, len(values))):
        got = grid_bounds(values.reshape(shape))
        assert got.dtype == np.int64 and got.shape == shape
        assert got.ravel().tolist() == [grid_bound(v) for v in values.tolist()]
    assert {grid_bound(x) % 2 for x in ties} == {0}  # ties round half to even
    for bad in (np.nan, np.inf, -np.inf, 1e8):
        with pytest.raises(ValueError):
            grid_bounds(np.array([0.5, bad]))


def test_intersect_union_basics():
    x = Frontier2D(((0.0, 2.0), (1.0, 1.0)))
    assert region_equal(frontier_intersect(x, x), x, 0)
    assert region_equal(frontier_union(x, x), x, 0)
    got = frontier_intersect(box(2, 1), box(1, 2))
    assert region_equal(got, box(1, 1), 0)
    stair = frontier_union(box(1, 2), box(2, 1))
    assert stair.value(0.5) == pytest.approx(2.0)
    assert stair.value(1.5) == pytest.approx(1.0)
    assert stair.value(1.0) == pytest.approx(2.0)  # upper value at the step


def test_union_intersect_commute_and_associate():
    rng = np.random.default_rng(5)

    def random_frontier():
        r2s = np.sort(rng.uniform(0, 2, size=4))
        r1s = np.sort(rng.uniform(0, 2, size=4))[::-1]
        return Frontier2D(tuple(zip(r2s, r1s)))

    for _ in range(25):
        a, b, c = random_frontier(), random_frontier(), random_frontier()
        assert region_equal(frontier_union(a, b), frontier_union(b, a), 1e-12)
        assert region_equal(frontier_intersect(a, b), frontier_intersect(b, a), 1e-12)
        assert region_equal(
            frontier_union(a, frontier_union(b, c)),
            frontier_union(frontier_union(a, b), c),
            1e-12,
        )
        assert region_equal(
            frontier_intersect(a, frontier_intersect(b, c)),
            frontier_intersect(frontier_intersect(a, b), c),
            1e-12,
        )
        # set identities against membership sampling
        u = frontier_union(a, b)
        i = frontier_intersect(a, b)
        for q in np.linspace(0, 2.2, 23):
            va = a.value(q) if q <= a.r2_max else None
            vb = b.value(q) if q <= b.r2_max else None
            vu = u.value(q) if q <= u.r2_max else None
            vi = i.value(q) if not i.is_empty and q <= i.r2_max else None
            want_u = max([v for v in (va, vb) if v is not None], default=None)
            want_i = None if va is None or vb is None else min(va, vb)
            assert (vu is None) == (want_u is None)
            if vu is not None:
                assert vu == pytest.approx(want_u, abs=1e-12)
            if want_i is not None:
                assert vi == pytest.approx(want_i, abs=1e-12)


def test_union_of_formula_regions_matches_direct_max():
    # union of 50 two-constraint regions vs direct max-over-parameter oracle
    P1 = P2 = 1.0
    b = 2.0

    def caps(rho):
        c = 0.5 * np.log2(1 + (1 - rho**2) * P2)
        s = 0.5 * np.log2(1 + b**2 * P2 + P1 + 2 * b * rho * np.sqrt(P1 * P2))
        return c, s

    rhos = np.linspace(-1, 1, 50)
    pieces = []
    for rho in rhos:
        c, s = caps(rho)
        m = min(c, s)
        pieces.append(Frontier2D(((0.0, s), (m, s - m))))
    union = pieces[0]
    for p in pieces[1:]:
        union = frontier_union(union, p)
    for q in np.linspace(0, union.r2_max, 200):
        direct = max(
            (s - q for c, s in map(caps, rhos) if min(c, s) >= q and s >= q),
            default=None,
        )
        got = union.value(q)
        if direct is None:
            assert got is None or got <= 1e-9
        else:
            assert got == pytest.approx(direct, abs=1e-9)


def test_contains():
    x = box(1, 1)
    assert frontier_contains(x, x, 0)
    assert not frontier_contains(box(1, 1), box(2, 2), 0)
    assert frontier_contains(box(2, 2), box(1, 1), 0)
    assert frontier_contains(x, Frontier2D(()), 0)
    assert not frontier_contains(Frontier2D(()), x, 0)
    # longer but flat tail must not hide an r2 overhang
    assert not frontier_contains(box(1, 1), Frontier2D(((0.0, 0.0), (3.0, 0.0))), 1e-9)


def test_contains_reads_the_right_limit_of_a_step():
    # every merged breakpoint (0, 1, 5/3, 2) passes the value check, since
    # outer's value at its step r2 = 1 is the upper one; only the piece
    # (1, 5/3), read at its left end, sees inner's 1.2 above outer's 1
    outer = Frontier2D(((0, 2), (1, 2), (1, 1), (2, 1)))
    inner = Frontier2D(((0, 1.5), (2, 0.9)))
    for q in (0.0, 1.0, 5 / 3, 2.0):
        assert inner.value(q) <= outer.value(q) + 1e-9
    assert not frontier_contains(outer, inner, 1e-9)
    assert not region_equal(outer, inner, 1e-9)


def _random_frontier(rng):
    """A frontier for the differential test: empty, a single point, a vertical
    segment at r2 = 0, or 1-7 points with r2 uniform or on a 0.1 grid
    (repeats make vertical steps), some with a second point within 1e-12 of
    an r2 value."""
    kind = rng.random()
    if kind < 0.04:
        return Frontier2D(())
    if kind < 0.08:
        return Frontier2D(((0.0, float(rng.uniform(0, 2))),))
    if kind < 0.12:
        top = float(rng.uniform(0.5, 2))
        return Frontier2D(((0.0, top), (0.0, top / 2)))
    n = int(rng.integers(1, 8))
    r2s = rng.uniform(0, 2, size=n)
    if rng.random() < 0.5:
        r2s = np.round(r2s, 1)
    r2s = np.sort(r2s).tolist()
    if rng.random() < 0.3:
        i = int(rng.integers(n))
        r2s = sorted(r2s + [r2s[i] + float(rng.choice([1e-13, 5e-13, 1e-12, 3e-12]))])
    r1s = np.sort(rng.uniform(0, 3, size=len(r2s)))[::-1]
    if rng.random() < 0.3:
        r1s = np.round(r1s, 1)
    return Frontier2D(tuple(zip(r2s, r1s.tolist())))


def _perturbed(rng, f):
    """f with each coordinate moved by up to one of 1e-13 .. 1e-9, kept
    monotone; or f shifted up or down as a whole by that much."""
    if f.is_empty:
        return f
    eps = 10.0 ** rng.uniform(-13, -9)
    pts = np.array(f.points)
    if rng.random() < 0.3:
        pts[:, 1] = np.maximum(pts[:, 1] + rng.choice([-eps, eps]), 0.0)
    else:
        pts = np.maximum(pts + rng.uniform(-eps, eps, size=pts.shape), 0.0)
        pts[:, 0] = np.maximum.accumulate(pts[:, 0])
        pts[:, 1] = np.minimum.accumulate(pts[:, 1])
    return Frontier2D(tuple(map(tuple, pts.tolist())))


def test_frontier_geometry_matches_reference():
    """Union, intersection, containment, region equality and value against
    the geometry as written before its one breakpoint sweep (every branch
    kept), on 2000 seeded pairs, at tol 0, 1e-12 and 1e-9."""
    rng = np.random.default_rng(24)
    seen = set()
    for k in range(2000):
        a = _random_frontier(rng)
        kind = k % 5
        b = (_random_frontier(rng), _perturbed(rng, a),
             ref.combine_frontiers(a, _random_frontier(rng), True),
             ref.combine_frontiers(a, _random_frontier(rng), False), a)[kind]
        for x, y in ((a, b), (b, a)):
            assert frontier_union(x, y).points == ref.combine_frontiers(x, y, True).points
            assert frontier_intersect(x, y).points == ref.combine_frontiers(x, y, False).points
            for tol in (0.0, 1e-12, 1e-9):
                got = frontier_contains(x, y, tol)
                assert got == ref.frontier_contains(x, y, tol), (x.points, y.points, tol)
                seen.add((kind, tol, got))
            qs = [p[0] for p in x.points] + rng.uniform(-0.1, 2.1, size=4).tolist()
            for q in qs:
                assert x.value(q) == ref.value(x, q), (x.points, q)
        for tol in (0.0, 1e-12, 1e-9):
            assert region_equal(a, b, tol) == ref.region_equal(a, b, tol)
    # every kind of pair but a frontier with itself gave both answers at
    # every tolerance
    assert seen == {(kind, tol, got) for kind in range(5) for tol in (0.0, 1e-12, 1e-9)
                    for got in (False, True) if got or kind < 4}


def test_concave_envelope_flattens_staircase():
    stair = frontier_union(box(1, 2), box(2, 1))
    env = concave_envelope([box(1, 2), box(2, 1)])
    assert env.points == concave_envelope([stair]).points
    assert env.value(1.0) == pytest.approx(2.0)
    assert env.value(1.5) == pytest.approx(1.5)  # time-sharing chord
    assert frontier_contains(env, stair, 1e-12)


def _random_piece(rng):
    """A box, trapezoid or triangle frontier; some coordinates on a 0.1 grid,
    so that pieces share r2 values and vertices."""

    def coord():
        v = rng.uniform(0, 2)
        return round(v, 1) if rng.random() < 0.3 else v

    h, w = coord(), coord()
    kind = rng.integers(3)
    if kind == 0:
        return Frontier2D(((0.0, h), (w, h)))
    if kind == 1:
        return Frontier2D(((0.0, h), (rng.uniform(0, w), h), (w, rng.uniform(0, h))))
    return Frontier2D(((0.0, h), (w, 0.0)))


def test_concave_envelope_of_pieces_equals_envelope_of_their_union():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        pieces = [_random_piece(rng) for _ in range(int(rng.integers(1, 81)))]
        assert concave_envelope(pieces).points == concave_envelope([union_all(pieces)]).points
    assert concave_envelope([]).is_empty
    assert concave_envelope([Frontier2D(())]).is_empty


def test_csv_round_trip():
    f = Frontier2D(((0.0, 1.2345678901234), (0.5, 1.0), (0.5, 0.25), (1.0, 0.25)))
    text = f.to_csv_text()
    assert text.splitlines()[0] == "R2,R1"
    back = Frontier2D.from_csv_text(text)
    assert region_equal(f, back, 1e-11)


@pytest.mark.parametrize("variables, message", [
    (("x", "y", "x"), r"^duplicate variables in \('x', 'y', 'x'\)$"),
    (("x",), r"^inequality uses unknown variables \['y'\]$"),
], ids=["duplicate", "unknown"])
def test_ineq_system_rejects_its_variables(variables, message):
    with pytest.raises(ValueError, match=message):
        IneqSystem(variables, (LinIneq.of({"x": 1, "y": 1}, 1),))


def test_empty_projection_is_valid_system():
    sys = IneqSystem.build(["x", "y"], [({"x": 1}, 1)])
    out = fme_eliminate(sys, "x")
    assert out.variables == ("y",)
    assert out.inequalities == ()


def _sparse_system(rng):
    """Nine integer rows of at most three variables each over five
    variables, boxed in [0, 8]."""
    names = ["r1", "r2", "s", "t", "u"]
    rows = []
    for _ in range(9):
        picks = rng.choice(5, size=3, replace=False)
        coeffs = {
            names[k]: int(rng.integers(-2, 3)) for k in picks
        }
        coeffs = {n: c for n, c in coeffs.items() if c != 0}
        rows.append((coeffs, int(rng.integers(0, 7))))
    rows += [({n: -1}, 0) for n in names]
    rows += [({n: 1}, 8) for n in names]
    return IneqSystem.build(names, rows)


def test_chained_elimination_matches_batched_projection():
    # the batched projector sums the rays of a projection cone; chained
    # single-variable elimination must reach the same region
    rng = np.random.default_rng(11)
    for _ in range(6):
        sys = _sparse_system(rng)
        batched = project_to_frontier(fme_project(sys, ["r1", "r2"]), "r1", "r2")
        chained = sys
        for var in ["s", "t", "u"]:
            chained = fme_eliminate(chained, var)
        assert region_equal(
            batched, project_to_frontier(chained, "r1", "r2"), 1e-12
        )


def _has_witness(sys, point, free):
    """Exact membership oracle: does `point` extend to a solution of `sys`
    over the two variables `free`? Substitutes the point and enumerates the
    vertices of the remaining (bounded, nonnegative) two-variable system."""
    rows = []
    for iq in sys.inequalities:
        rest = sum((c * point[n] for n, c in iq.coeffs if n in point), Fraction(0))
        rows.append(({n: c for n, c in iq.coeffs if n in free}, iq.bound - rest))
    sub = IneqSystem.build(free, rows)
    return not project_to_frontier(sub, *free).is_empty


def _past_48_system(rng):
    """Eighteen dense integer rows over four variables, boxed in [0, 9]:
    eliminating either of s and t first leaves more than 48 rows."""
    names = ["r1", "r2", "s", "t"]
    rows = []
    for _ in range(18):
        coeffs = {n: int(c) for n, c in zip(names, rng.integers(-3, 4, size=4)) if c != 0}
        rows.append((coeffs, int(rng.integers(0, 12))))
    rows += [({n: -1}, 0) for n in names]
    rows += [({n: 1}, 9) for n in names]
    return IneqSystem.build(names, rows)


def test_fme_project_on_systems_past_48_rows():
    # whichever variable is eliminated first, the system after that step has
    # more than 48 rows, far more than the 19 the coding system of
    # dmc_regions reaches: no row-count threshold may change the projection
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(3):
        sys = _past_48_system(rng)
        assert min(len(fme_eliminate(sys, v)) for v in ("s", "t")) > 48
        proj = fme_project(sys, ["r1", "r2"])
        chained = fme_eliminate(fme_eliminate(sys, "s"), "t")
        assert region_equal(project_to_frontier(proj, "r1", "r2"),
                            project_to_frontier(chained, "r1", "r2"), 1e-12)
        for _ in range(40):
            point = {n: Fraction(int(rng.integers(0, 17)), 4) for n in ("r1", "r2")}
            inside = proj.satisfied_by(point)
            assert inside == chained.satisfied_by(point) == _has_witness(sys, point, ("s", "t"))
            hits += inside
    assert 0 < hits < 120


def _reference_project_to_frontier(sys, r1, r2):
    """The vertex enumeration in `Fraction` arithmetic that the integer one
    replaced, kept as its oracle (the message of an unbounded region aside)."""
    rows = []
    for iq in sys.inequalities:
        if is_infeasible(iq):
            return Frontier2D(())
        if is_trivially_true(iq):
            continue
        rows.append((iq.coeff(r2), iq.coeff(r1), iq.bound))
    rows.append((Fraction(-1), Fraction(0), Fraction(0)))
    rows.append((Fraction(0), Fraction(-1), Fraction(0)))
    vertices = set()
    m = len(rows)
    for i in range(m):
        a1, b1, c1 = rows[i]
        for j in range(i + 1, m):
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if x < 0 or y < 0:
                continue
            if all(a * x + b * y <= c for a, b, c in rows):
                vertices.add((x, y))
    if not vertices:
        return Frontier2D(())
    candidates = {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    for a, b, _ in rows:
        for d in ((-b, a), (b, -a)):
            if d != (0, 0) and d[0] >= 0 and d[1] >= 0:
                candidates.add(d)
    for d2, d1 in candidates:
        if (d2, d1) != (0, 0) and all(a * d2 + b * d1 <= 0 for a, b, _ in rows):
            raise UnboundedRegionError(f"unbounded along ({d2},{d1})")
    by_x = {}
    for x, y in vertices:
        if x not in by_x or y > by_x[x]:
            by_x[x] = y
    hull = _upper_hull(sorted((float(x), float(y)) for x, y in by_x.items()), 1e-18)
    while len(hull) >= 2 and hull[0][1] < hull[1][1] - 1e-15:
        hull.pop(0)
    return Frontier2D(tuple(hull))


def _random_two_variable_system(rng, trial):
    """A seeded (R2, R1) system mixing the row shapes the projection meets."""

    def coeff():
        if rng.random() < 0.4:  # a rationalized float, denominator 10**12
            return rationalize(rng.uniform(-3, 3))
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))

    def bound():  # mostly >= 0, so the origin is often feasible
        return abs(coeff()) if rng.random() < 0.8 else coeff()

    rows = []
    for _ in range(int(rng.integers(1, 6))):
        shape = rng.random()
        if shape < 0.2:  # a zero coefficient
            rows.append(({"r1" if rng.random() < 0.5 else "r2": coeff()}, bound()))
        elif shape < 0.35 and rows:  # a duplicate or a positively scaled parallel row
            coeffs, cap = rows[int(rng.integers(len(rows)))]
            k = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            shift = Fraction(0) if rng.random() < 0.5 else bound()
            rows.append(({n: k * c for n, c in coeffs.items()}, k * cap + shift))
        else:  # mixed signs, unequal denominators
            rows.append(({"r1": coeff(), "r2": coeff()}, bound()))
    if trial % 3:  # caps make most systems bounded
        rows += [({"r1": 1}, rationalize(rng.uniform(0, 4))),
                 ({"r2": Fraction(int(rng.integers(1, 5)), 3)}, rationalize(rng.uniform(0, 4)))]
    if trial % 17 == 0:
        rows.append(({}, Fraction(-1, 7)))  # a constant infeasible row
    elif trial % 11 == 0:
        rows.append(({}, Fraction(2)))  # a constant, trivially true row
    return IneqSystem.build(["r1", "r2"], rows)


def _rational_system(rng):
    """Eight rows with rational coefficients and rationalized float bounds
    over five variables, boxed."""
    names = ["r1", "r2", "s", "t", "u"]
    rows = []
    for _ in range(8):
        picks = rng.choice(5, size=3, replace=False)
        coeffs = {names[k]: Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
                  for k in picks}
        rows.append((coeffs, rationalize(rng.uniform(0, 6))))
    rows += [({n: -1}, 0) for n in names]
    rows += [({n: 1}, int(rng.integers(3, 9))) for n in names]
    return IneqSystem.build(names, rows)


def _outcome(project, sys):
    try:
        return project(sys, "r1", "r2").points
    except UnboundedRegionError:
        return "unbounded"


def test_project_matches_fraction_reference():
    rng = np.random.default_rng(20)
    systems = [_random_two_variable_system(rng, t) for t in range(240)]
    systems += [fme_project(_rational_system(rng), ["r1", "r2"]) for _ in range(40)]
    kinds = {"unbounded": 0, "empty": 0, "vertices": 0}
    for sys in systems:
        got = _outcome(project_to_frontier, sys)
        assert got == _outcome(_reference_project_to_frontier, sys), sys
        kinds["unbounded" if got == "unbounded" else "vertices" if got else "empty"] += 1
    # every outcome is exercised, most systems have a frontier
    assert kinds["unbounded"] >= 20 and kinds["empty"] >= 20 and kinds["vertices"] >= 150, kinds


def _projected(project, sys):
    """Frontier of the (r1, r2) projection of `sys`, or "unbounded"."""
    return _outcome(project_to_frontier, project(sys, ["r1", "r2"]))


@pytest.mark.parametrize("build, count", [
    (_dense_system, 60), (_sparse_system, 60), (_past_48_system, 8), (_rational_system, 80),
])
def test_fme_project_matches_imbert_oracle(build, count):
    # each system has its own coefficient matrix, so each builds a new cone
    rng = np.random.default_rng(40)
    nonempty = 0
    for _ in range(count):
        sys = build(rng)
        got = _projected(fme_project, sys)
        assert got == _projected(imbert_fme_project, sys), sys
        nonempty += bool(got)
    assert nonempty >= count // 2


def test_projection_cone_is_cached_on_coefficients_only():
    rng = np.random.default_rng(41)
    sys = _rational_system(rng)
    _projection_cone.cache_clear()
    assert _projected(fme_project, sys) == _projected(imbert_fme_project, sys)
    assert _projection_cone.cache_info()[:2] == (0, 1)  # (hits, misses)
    # the same coefficients under other bounds reuse the cone
    kinds = set()
    for k in range(1, 41):
        rebound = IneqSystem(sys.variables, tuple(
            LinIneq(iq.coeffs, iq.bound + rationalize(rng.uniform(-2, 2))) for iq in sys.inequalities))
        got = _projected(fme_project, rebound)
        assert got == _projected(imbert_fme_project, rebound), rebound
        assert _projection_cone.cache_info()[:2] == (k, 1)
        kinds.add(bool(got))
    assert kinds == {False, True}  # some empty, some not
    # one changed coefficient builds a new cone
    first, *rest = sys.inequalities
    changed = IneqSystem(sys.variables, (
        LinIneq(first.coeffs + (("r1", first.coeff("r1") + 1),), first.bound), *rest))
    assert _projected(fme_project, changed) == _projected(imbert_fme_project, changed)
    assert _projection_cone.cache_info()[:2] == (40, 2)


def test_fme_project_contract():
    # x + s <= 1, s <= 1 and s >= 2
    sys = IneqSystem.build(["x", "s"], [({"x": 1, "s": 1}, 1), ({"s": 1}, 1), ({"s": -1}, -2)])
    with pytest.raises(ValueError, match="unknown variables"):
        fme_project(sys, ["x", "y"])
    # an infeasible system projects to the single row 0 <= -1
    assert fme_project(sys, ["x"]) == IneqSystem(("x",), (LinIneq((), Fraction(-1)),))
    assert imbert_fme_project(sys, ["x"]) == fme_project(sys, ["x"])
    # with nothing to eliminate, rows keep their tightest bound per direction
    kept = fme_project(IneqSystem.build(["x"], [({"x": 2}, 3), ({"x": 1}, 2), ({}, 1)]), ["x"])
    assert kept == IneqSystem(("x",), (LinIneq.of({"x": 1}, Fraction(3, 2)),))
    # a system with no rows projects to no rows
    assert fme_project(IneqSystem(("x", "s"), ()), ["x"]) == IneqSystem(("x",), ())


def _coding_system():
    from mcifc.dmc_regions import _CODING_MATRIX, _CODING_VARS
    return _CODING_VARS, ("R1", "R2"), _CODING_MATRIX


def _small_random_system():
    rng = np.random.default_rng(44)
    coeffs = rng.integers(-2, 3, size=(7, 4))
    coeffs[:, 2:][(coeffs[:, 2:] == 0).all(axis=1)] = 1  # each row meets an eliminated one
    # s + t <= b and -s - t <= b' make the system infeasible when b + b' < 0
    rows = tuple(map(tuple, coeffs.tolist())) + ((-1, 0, 0, 0), (0, -1, 0, 0),
                                                 (0, 0, 1, 1), (0, 0, -1, -1))
    return ("r1", "r2", "s", "t"), ("r1", "r2"), rows


@pytest.mark.parametrize("system", [_coding_system, _small_random_system],
                         ids=["coding", "small-random"])
def test_stacked_project_bounds_equal_one_column_calls(system):
    # a (rows, K) int64 stack projects as K one-column calls in Python ints
    variables, keep, rows = system()
    rng = np.random.default_rng(45)
    grain = RATIONALIZE_GRAIN
    bounds = rng.integers(-grain, 3 * grain, size=(len(rows), 300))
    bounds[:, :20] = rng.integers(0, 3 * grain, size=(len(rows), 20))  # x = 0 is feasible
    feasible, projected = project_bounds(variables, keep, rows, bounds)
    assert feasible.shape == (300,) and 0 < feasible.sum() < 300
    seen = 0
    for k in range(300):
        column = np.array(bounds[:, k].tolist(), dtype=object).reshape(-1, 1)
        one_feasible, one = project_bounds(variables, keep, rows, column)
        assert one_feasible.tolist() == [feasible[k]]
        assert [(d, scale) for d, scale, _ in one] == [(d, scale) for d, scale, _ in projected]
        if feasible[k]:
            assert [best.tolist() for *_, best in one] == \
                [[best[seen].item()] for *_, best in projected]
            seen += 1
        else:
            assert all(best.size == 0 for *_, best in one)
    assert all(best.shape == (seen,) for *_, best in projected)


def test_grid_frontiers_equal_integer_frontier_per_column():
    rng = np.random.default_rng(46)
    shapes = [(0, 1), (1, 0), (1, 1), (2, 1), (-1, 1), (1, -2)]
    kinds = set()
    for _ in range(40):
        # caps on r1 and r2 keep every column bounded
        rows = [(1, 0), (0, 1)] + [shapes[k] for k in rng.integers(len(shapes), size=3)]
        bounds = rng.integers(-10**12, 3 * 10**12, size=(len(rows), 8))
        got = grid_frontiers(rows, bounds)
        want = [integer_frontier([(a * RATIONALIZE_GRAIN, b * RATIONALIZE_GRAIN, c)
                                  for (a, b), c in zip(rows, column)])
                for column in bounds.T.tolist()]
        assert got == want
        kinds |= {f.is_empty for f in got}
    assert kinds == {False, True}


def test_grid_frontiers_settle_quadrant_excluded_columns_at_once(monkeypatch):
    # a column with a negative bound on a row with no negative coefficient,
    # the constant row among them, is empty with no integer_frontier call;
    # each other column, negative bounds on mixed-sign rows included, is
    # integer_frontier's
    rng = np.random.default_rng(47)
    rows = [(1, 0), (0, 1), (0, 0), (2, 1), (-1, 1), (1, -2), (-1, 0)]
    bounds = rng.integers(-10**12, 3 * 10**12, size=(len(rows), 200))
    bounds[2] = np.where(rng.random(200) < 0.1, -1, 0)
    original = integer_frontier
    want = [original([(a * RATIONALIZE_GRAIN, b * RATIONALIZE_GRAIN, c)
                      for (a, b), c in zip(rows, column)])
            for column in bounds.T.tolist()]
    excluded = [any(c < 0 for (a, b), c in zip(rows, column) if a >= 0 and b >= 0)
                for column in bounds.T.tolist()]

    def checked(column):
        if any(a >= 0 and b >= 0 and c < 0 for a, b, c in column):
            raise AssertionError(f"integer_frontier on a quadrant-excluded column {column}")
        return original(column)

    monkeypatch.setattr(polytope, "integer_frontier", checked)
    got = grid_frontiers(rows, bounds)
    assert got == want
    assert all(f.is_empty for f, out in zip(got, excluded) if out)
    assert 0 < sum(excluded) < len(excluded)
    assert {f.is_empty for f, out in zip(got, excluded) if not out} == {False, True}
    assert grid_frontiers(rows, bounds[:, :0]) == []


G = RATIONALIZE_GRAIN
_CAPS = [(0, 1), (1, 0), (1, 1)]


def _grid_columns(rows, columns):
    """The (rows, K) int64 array of K columns of bounds."""
    return np.array(columns, dtype=np.int64).reshape(len(columns), len(rows)).T


def _envelope_outcome(envelope, rows, columns):
    """The points, or the message of the UnboundedRegionError, of an
    envelope of int64 grid columns."""
    try:
        return envelope(rows, _grid_columns(rows, columns)).points
    except UnboundedRegionError as exc:
        return str(exc)


def _check_grid_envelope(monkeypatch, rows, columns):
    """grid_envelope equals the per-joint oracle, and the points it hands to
    the time-sharing hull are exactly those of the per-joint frontiers."""
    want = _envelope_outcome(per_joint_envelope, rows, columns)
    handed = []

    def spy(xs, ys):
        handed.extend(zip(xs.tolist(), ys.tolist()))
        return hull(xs, ys)

    hull = polytope._time_sharing_hull
    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_time_sharing_hull", spy)
        got = _envelope_outcome(grid_envelope, rows, columns)
    assert got == want, (rows, columns)
    if not isinstance(got, str):
        bounds = _grid_columns(rows, columns)
        assert set(handed) == {p for f in grid_frontiers(rows, bounds) for p in f.points}
    return got


@pytest.mark.parametrize("rows, columns, want", [
    # a = 0, and b = 0
    (_CAPS, [(0, 2 * G, 3 * G)], ((0.0, 0.0), (2.0, 0.0))),
    (_CAPS, [(3 * G, 0, 5 * G)], ((0.0, 3.0),)),
    # C - a = b: the corner is the last vertex
    (_CAPS, [(3 * G, 2 * G, 5 * G)], ((0.0, 3.0), (2.0, 3.0))),
    (_CAPS, [(3 * G, 2 * G, 4 * G)], ((0.0, 3.0), (1.0, 3.0), (2.0, 2.0))),
    # a corner one grid unit wide and deep: its cross product, about -1e-24,
    # is above -1e-18
    (_CAPS, [(5 * 10**11, 2, 5 * 10**11 + 1)], ((0.0, 0.5), (2e-12, 0.499999999999))),
    # no R1 row or no R2 row: the sum row bounds that rate
    ([(1, 0), (1, 1)], [(G, 3 * G)], ((0.0, 3.0), (1.0, 2.0))),
    ([(0, 1), (1, 1)], [(G, 3 * G)], ((0.0, 1.0), (2.0, 1.0), (3.0, 0.0))),
    ([(1, 1)], [(2 * G,)], ((0.0, 2.0), (2.0, 0.0))),
    # rows repeated: each kind's least bound caps
    ([(0, 1), (1, 0), (0, 1), (1, 1), (1, 1)], [(3 * G, G, 2 * G, 9 * G, 2 * G)],
     ((0.0, 2.0), (1.0, 1.0))),
    # ties in r2 across columns with different r1: the largest r1 stays
    ([(0, 1), (1, 0)], [(3 * G, 2 * G), (G, 2 * G), (2 * G, 0)], ((0.0, 3.0), (2.0, 3.0))),
    # vertices of three columns on one line
    (_CAPS, [(G, 2 * G, 3 * G), (3 * G, G, 3 * G), (2 * G, 2 * G, 2 * G)],
     ((0.0, 3.0), (2.0, 1.0))),
    # a negative bound empties its column only
    (_CAPS, [(-1, G, G)], ()),
    (_CAPS, [(G, -1, G), (G, G, 3 * G)], ((0.0, 1.0), (1.0, 1.0))),
    # unbounded along r1, along r2, and along both (reported as r1), unless
    # every column is empty
    ([(1, 0)], [(G,)], "region is unbounded along direction (r2,r1)=(0,1)"),
    ([(0, 1)], [(G,), (-1,)], "region is unbounded along direction (r2,r1)=(1,0)"),
    ([], [()], "region is unbounded along direction (r2,r1)=(0,1)"),
    ([(1, 0)], [(-1,)], ()),
    # no column at all
    (_CAPS, [], ()),
])
def test_grid_envelope_equals_the_per_joint_envelope(rows, columns, want, monkeypatch):
    assert _check_grid_envelope(monkeypatch, rows, columns) == want


def test_grid_envelope_equals_the_per_joint_envelope_on_random_columns(monkeypatch):
    rng = np.random.default_rng(47)
    kinds = set()
    for _ in range(300):
        rows = [_CAPS[k] for k in rng.integers(3, size=int(rng.integers(1, 5)))]
        # bounds near a shared base, some a few grid units apart, so that
        # columns share vertices and corners are a few units deep
        base = int(rng.integers(0, 3 * G))
        step = 10 ** int(rng.integers(0, 13))
        columns = base + step * rng.integers(-3, 4, size=(int(rng.integers(1, 12)), len(rows)))
        got = _check_grid_envelope(monkeypatch, rows, columns.tolist())
        kinds.add("unbounded" if isinstance(got, str) else len(got))
    assert {"unbounded", 0, 2, 3, 4} <= kinds


@pytest.mark.parametrize("rows, columns, error", [
    ([(0, 1), (2, 1)], [(G, G)], "grid_envelope takes rows"),
    ([(0, 1), (-1, 1)], [(G, G)], "grid_envelope takes rows"),
    ([(0, 1), (1, 0)], [(2**53, G)], "beyond 2\\*\\*53"),
    ([(1, 1)], [(2**60,)], "beyond 2\\*\\*53"),
])
def test_grid_envelope_rejects_what_it_cannot_compute_exactly(rows, columns, error):
    with pytest.raises(ValueError, match=error):
        grid_envelope(rows, _grid_columns(rows, columns))


def _reference_value(f, q):
    """Frontier2D.value with numpy's searchsorted as the lookup."""
    if f.is_empty:
        return None
    xs = [p[0] for p in f.points]
    if q < 0 or q > xs[-1]:
        return None
    i = int(np.searchsorted(xs, q, side="left"))
    if i < len(xs) and xs[i] == q:
        return f.points[i][1]
    if i == 0:
        return f.points[0][1]
    (x0, y0), (x1, y1) = f.points[i - 1], f.points[i]
    return y0 + (q - x0) / (x1 - x0) * (y1 - y0)


def _reference_affine_on(f, u, v):
    """Frontier2D._affine_on with numpy's searchsorted as the lookup."""
    if f.is_empty:
        return None
    xs = [p[0] for p in f.points]
    t = 0.5 * (u + v)
    if t < 0 or t > xs[-1]:
        return None
    i = int(np.searchsorted(xs, t, side="left"))
    if i == 0:
        return (0.0, f.points[0][1])
    (x0, y0), (x1, y1) = f.points[i - 1], f.points[i]
    if x1 == x0:
        return None
    m = (y1 - y0) / (x1 - x0)
    return (m, y0 - m * x0)


def test_frontier_lookups_match_searchsorted():
    rng = np.random.default_rng(21)
    steps = pairs = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        r2s = np.sort(np.round(rng.uniform(0, 2, size=n), 1))  # repeats: vertical steps
        r1s = np.sort(rng.uniform(0, 3, size=n))[::-1]
        f = Frontier2D(tuple(zip(r2s.tolist(), r1s.tolist())))
        xs = [p[0] for p in f.points]
        steps += len(xs) - len(set(xs))
        top = f.r2_max
        qs = xs + [0.0, top, -0.0, np.nextafter(0.0, -1.0), np.nextafter(top, 9.0),
                   top + 1e-9, -1e-9] + rng.uniform(-0.1, top + 0.1, size=20).tolist()
        for q in qs:
            assert f.value(q) == _reference_value(f, q), (f.points, q)
        ends = qs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for u in ends[::2]:
            for v in ends[1::2]:
                # _affine_on's contract: 0 <= u and an interval wider than 1e-12
                if 0 <= u and v - u > 1e-12:
                    pairs += 1
                    assert f._affine_on(u, v) == _reference_affine_on(f, u, v), (f.points, u, v)
    assert steps >= 20
    assert pairs >= 8000


@pytest.mark.parametrize("call, error, message", [
    (lambda: Frontier2D(()).r2_max, FrontierError, "empty frontier has no r2_max"),
    (lambda: Frontier2D.from_csv_text("R1,R2\n0,1\n"), FrontierError,
     "expected header 'R2,R1'"),
    (lambda: project_to_frontier(
        IneqSystem(("R1", "R3"), (LinIneq((("R1", Fraction(1)),), Fraction(1)),)), "R1", "R2"),
     ValueError, "system must be over exactly ('R1', 'R2'); has ('R1', 'R3')"),
], ids=["empty-r2-max", "csv-header", "projection-variables"])
def test_frontier_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
