import numpy as np
import pytest

import scalar_reference as reference
from mcifc.gaussian import (
    CovMatrix,
    GaussianModelError,
    GaussianMultiPrimary,
    GaussianMultiSecondary,
    SingularCovarianceError,
    binding_eta,
    channel_from_json_dict,
    classify_gaussian,
    coherent_intersection_check,
    full_correlation_covariance,
    gaussian_mi,
    golden_section,
    half_log2,
    lane_max,
    lane_min,
    region_mp_mixed,
    region_mp_vsi,
    region_mp_wi,
    region_ms_vsi,
    wi_input_covariance,
    _sorted_unique,
    _vsi_margin,
)
from mcifc.polytope import frontier_intersect
from scalar_reference import bits


# -- classification -----------------------------------------------------------


def dense_rho_margin(bs, a, P1, P2, points=20001):
    """Dense-scan oracle for the for-every-rho condition."""
    root = np.sqrt(P1 * P2)
    rhos = np.linspace(-1, 1, points)
    return max(
        min((1 - a**2) * P1 + (b**2 - 1) * P2 + 2 * r * (b - a) * root for b in bs)
        for r in rhos
    )


def test_classify_vsi_with_matched_cross_gain():
    chan = GaussianMultiPrimary((2.0,), 2.0, 1.0, 1.0)
    assert classify_gaussian(chan) == "VSI"


def test_classify_not_vsi_when_condition_fails_at_interior_rho():
    # both endpoints admit a nonpositive minimum but rho = 0 does not, so the
    # for-every-rho condition fails; the kink-aware check must say none
    chan = GaussianMultiPrimary((2.0, -2.0), 0.0, 1.0, 1.0)
    assert dense_rho_margin(chan.b, chan.a, 1.0, 1.0) > 0.5
    assert classify_gaussian(chan) == "none"
    # endpoint values alone would have passed:
    for rho in (-1.0, 1.0):
        vals = [(1 - 0) * 1 + (4 - 1) * 1 + 2 * rho * b for b in (2.0, -2.0)]
        assert min(vals) <= 0


def test_classify_single_gain_zero_cross_is_none():
    # the for-every-rho condition fails at rho = 0 for a = 0
    assert classify_gaussian(GaussianMultiPrimary((2.0,), 0.0, 1.0, 1.0)) == "none"


def test_classify_wi():
    assert classify_gaussian(GaussianMultiPrimary((0.5, 0.9), 0.0, 1, 1)) == "WI"


def test_classify_mixed_with_partition():
    chan = GaussianMultiPrimary((0.5, 2.0), 2.0, 1.0, 1.0)
    assert classify_gaussian(chan, partition=((1,), (0,))) == "mixed"
    with pytest.raises(GaussianModelError):
        classify_gaussian(chan, partition=((0, 1), (1,)))


def test_classify_margin_matches_dense_scan(rng):
    for _ in range(40):
        n = rng.integers(1, 4)
        bs = rng.uniform(-3, 3, size=n)
        a = rng.uniform(-3, 3)
        P1, P2 = rng.uniform(0.1, 4, size=2)
        exact = _vsi_margin(list(bs), a, P1, P2)
        dense = dense_rho_margin(list(bs), a, P1, P2)
        slope_cap = max(abs(2 * (b - a)) * np.sqrt(P1 * P2) for b in bs)
        assert exact >= dense - 1e-9
        assert exact <= dense + slope_cap * 1e-4 + 1e-9  # oracle grid error


def test_classify_multi_secondary():
    assert classify_gaussian(GaussianMultiSecondary(2.0, (2.0, 2.0), 1, 1)) == "VSI"
    assert classify_gaussian(GaussianMultiSecondary(0.5, (0.3, 0.8), 1, 1)) == "WI"
    assert classify_gaussian(GaussianMultiSecondary(2.0, (-2.0, 2.0), 1, 1)) == "none"


def test_channel_json_round_trip():
    mp = GaussianMultiPrimary((1.5, 2.5), 1.5, 2, 1)
    assert channel_from_json_dict(mp.to_json_dict()) == mp
    ms = GaussianMultiSecondary(2.0, (2.0,), 1, 1)
    assert channel_from_json_dict(ms.to_json_dict()) == ms


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_channels_reject_non_finite_gains(bad):
    for make in (lambda: GaussianMultiPrimary((bad, 0.5), 0.3, 1, 1),
                 lambda: GaussianMultiPrimary((0.5,), bad, 1, 1),
                 lambda: GaussianMultiSecondary(bad, (0.5,), 1, 1),
                 lambda: GaussianMultiSecondary(0.5, (0.5, bad), 1, 1)):
        with pytest.raises(GaussianModelError):
            make()


# -- gaussian_mi ---------------------------------------------------------------


def test_mi_independent_zero():
    cov = CovMatrix(("X", "Y"), np.eye(2))
    assert gaussian_mi(cov, {"X"}, {"Y"}) == 0.0


def test_mi_additive_noise_one_bit():
    cov = CovMatrix(("X", "Y"), np.array([[3.0, 3.0], [3.0, 4.0]]))
    assert gaussian_mi(cov, {"X"}, {"Y"}) == pytest.approx(1.0, abs=1e-9)


def test_mi_chain_rule_random_psd(rng):
    for _ in range(25):
        m = rng.normal(size=(4, 4))
        cov = CovMatrix(("A", "B", "C", "D"), m @ m.T + 0.5 * np.eye(4))
        joint = gaussian_mi(cov, {"A", "B"}, {"C"})
        split = gaussian_mi(cov, {"A"}, {"C"}) + gaussian_mi(cov, {"B"}, {"C"}, {"A"})
        assert joint == pytest.approx(split, abs=1e-9)


def test_mi_rejects_overlap_and_unknown():
    cov = CovMatrix(("X", "Y"), np.eye(2))
    with pytest.raises(GaussianModelError):
        gaussian_mi(cov, {"X"}, {"X"})
    with pytest.raises(GaussianModelError):
        gaussian_mi(cov, {"X"}, {"Q"})


def test_cov_matrix_validation():
    with pytest.raises(GaussianModelError):
        CovMatrix(("X", "Y"), np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(GaussianModelError):
        CovMatrix(("X", "Y"), np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- regions -------------------------------------------------------------------


def test_vsi_region_r2_top_slice():
    # at zero correlation the decoded-layer cap is half log2(1 + P2)
    chan = GaussianMultiPrimary((3.0,), 3.0, 3.0, 3.0)
    assert classify_gaussian(chan) == "VSI"
    fr = region_mp_vsi(chan)
    assert fr.r2_max == pytest.approx(1.0, abs=1e-9)


def test_vsi_region_p1_zero_is_pentagon():
    # formula slice: with P1 = 0 the very-strong condition itself fails, so
    # evaluate the region formulas without the regime gate
    chan = GaussianMultiPrimary((2.0,), 1.0, 0.0, 3.0)
    fr = region_mp_vsi(chan, require_regime=False)
    s = half_log2(1 + 4 * 3.0)
    c = half_log2(1 + 3.0)
    assert fr.value(0.0) == pytest.approx(s, abs=1e-9)
    assert fr.r2_max == pytest.approx(c, abs=1e-9)
    assert fr.value(c) == pytest.approx(s - c, abs=1e-9)


def test_vsi_region_matches_dense_sweep_oracle():
    chan = GaussianMultiPrimary((2.0, 3.0), 2.0, 1.0, 1.0)
    assert classify_gaussian(chan) == "VSI"
    probe = region_mp_vsi(chan, rho_grid=101)
    qs = np.linspace(0, probe.r2_max, 57)
    fr = region_mp_vsi(chan, rho_grid=101, r2_values=qs)

    def sum_cap(r):
        return min(half_log2(1 + b * b + 1 + 2 * b * r) for b in (2.0, 3.0))

    for q in qs:
        # dense sweep over the exact admissible correlation interval
        rho0 = np.sqrt(max(0.0, 1 - (4.0**float(q) - 1.0)))
        rhos = np.linspace(-rho0, rho0, 10_001)
        direct = max(sum_cap(r) for r in rhos) - q
        got = fr.value(float(q))
        assert got == pytest.approx(direct, abs=1e-6)


def test_wi_region_eta_one_and_zero_slices():
    b, P1, P2 = 0.6, 1.5, 2.0
    chan = GaussianMultiPrimary((b,), 0.4, P1, P2)
    fr = region_mp_wi(chan)
    # eta = 1: R2 cap is half log2(1 + P2), R1 keeps the rho-free ratio
    assert fr.r2_max == pytest.approx(half_log2(1 + P2), abs=1e-9)
    want_top = half_log2((1 + b * b * P2 + P1) / (1 + b * b * P2))
    assert fr.value(fr.r2_max) == pytest.approx(want_top, abs=1e-9)
    # eta = 0 coherent: full power cooperation at rho = 1
    want0 = half_log2(1 + b * b * P2 + P1 + 2 * b * np.sqrt(P1 * P2))
    assert fr.value(0.0) == pytest.approx(want0, abs=1e-9)


def test_wi_region_matches_dense_sweep():
    chan = GaussianMultiPrimary((0.3, 0.7), 0.4, 1.0, 2.0)
    qs = np.linspace(0, half_log2(1 + 2.0), 29)
    fr = region_mp_wi(chan, eta_grid=101, r2_values=qs)
    rhos = np.linspace(-1, 1, 40_001)
    for q in qs:
        eta0 = min(1.0, (4.0**float(q) - 1.0) / 2.0)
        root = np.sqrt(max(0.0, 1 - eta0) * 1.0 * 2.0)
        direct = max(
            min(
                half_log2((1 + b * b * 2 + 1 + 2 * b * r * root) / (1 + b * b * eta0 * 2))
                for b in (0.3, 0.7)
            )
            for r in rhos
        )
        assert fr.value(float(q)) == pytest.approx(direct, abs=1e-6)


def test_mixed_degenerates_to_wi_and_vsi():
    wi = GaussianMultiPrimary((0.3, 0.7), 0.4, 1, 2)
    base = region_mp_wi(wi)
    qs = np.array([p[0] for p in base.points])
    as_mixed = region_mp_mixed(wi, ((), (0, 1)), r2_values=qs)
    for q in qs:
        assert as_mixed.value(float(q)) == pytest.approx(
            base.value(float(q)), abs=1e-9
        )
    vsi = GaussianMultiPrimary((1.5, 2.5), 1.5, 2, 1)
    base_v = region_mp_vsi(vsi)
    qs_v = np.array([p[0] for p in base_v.points])
    as_mixed_v = region_mp_mixed(vsi, ((0, 1), ()), r2_values=qs_v)
    for q in qs_v:
        assert as_mixed_v.value(float(q)) == pytest.approx(
            base_v.value(float(q)), abs=1e-8
        )


def test_region_requires_matching_regime():
    with pytest.raises(GaussianModelError):
        region_mp_vsi(GaussianMultiPrimary((0.5,), 0.0, 1, 1))
    with pytest.raises(GaussianModelError):
        region_mp_wi(GaussianMultiPrimary((2.0,), 2.0, 1, 1))
    with pytest.raises(GaussianModelError):
        region_ms_vsi(GaussianMultiSecondary(0.5, (0.5,), 1, 1))


def test_ms_vsi_region_slices_and_dense_oracle():
    chan = GaussianMultiSecondary(2.0, (2.0, 2.0), 1.0, 1.0)
    assert classify_gaussian(chan) == "VSI"
    qs = np.linspace(0, half_log2(2.0), 41)
    fr = region_ms_vsi(chan, r2_values=qs)
    # eta = 0 end: R2 = 0, sum cap with full cooperation
    assert fr.value(0.0) == pytest.approx(
        half_log2(1 + 4 + 1 + 2 * 2 * 1), abs=1e-9
    )
    for q in qs:
        if fr.value(float(q)) is None:
            continue
        # the binding power split is exact per R2 sample
        eta0 = min(1.0, 4.0**float(q) - 1.0)
        direct = half_log2(1 + 4 + 1 + 2 * 2 * np.sqrt(1 - eta0)) - q
        assert fr.value(float(q)) == pytest.approx(direct, abs=1e-6)


def test_ms_vsi_p1_zero_slice():
    # formula slice; P1 = 0 is outside the regime conditions themselves
    chan = GaussianMultiSecondary(2.0, (2.0,), 0.0, 1.0)
    fr = region_ms_vsi(chan, require_regime=False)
    # with no primary power the sum cap is flat at half log2(1 + b^2 P2)
    assert fr.value(fr.r2_max) + fr.r2_max == pytest.approx(
        half_log2(1 + 4.0), abs=1e-9
    )


# -- coherence -----------------------------------------------------------------


def test_coherent_wi_intersection_property(rng):
    for _ in range(6):
        n = int(rng.integers(2, 4))
        bs = tuple(rng.uniform(0.05, 1.0, size=n))
        chan = GaussianMultiPrimary(bs, rng.uniform(-1, 1),
                                    rng.uniform(0.2, 3), rng.uniform(0.2, 3))
        out = coherent_intersection_check(chan, "WI")
        assert out["equal"], out
        neg = GaussianMultiPrimary(tuple(-b for b in bs), chan.a, chan.P1, chan.P2)
        out_neg = coherent_intersection_check(neg, "WI")
        assert out_neg["equal"], out_neg


def test_coherent_si_intersection_and_min_gain_sum_rate(rng):
    for _ in range(6):
        n = int(rng.integers(2, 4))
        bs = np.sort(rng.uniform(1.0, 3.0, size=n))
        P2 = rng.uniform(0.2, 2.0)
        P1 = P2 * rng.uniform(1.0, 3.0)
        chan = GaussianMultiPrimary(tuple(bs), float(bs[0]), P1, P2)
        assert classify_gaussian(chan) == "VSI"
        out = coherent_intersection_check(chan, "VSI")
        assert out["equal"], out
        # the sum rate uses the smallest gain magnitude
        fr = region_mp_vsi(chan)
        b_star = float(bs[0])
        assert fr.value(0.0) == pytest.approx(
            half_log2(1 + b_star**2 * P2 + P1 + 2 * b_star * np.sqrt(P1 * P2)),
            abs=1e-9,
        )


def test_single_pair_case_trivially_equal():
    chan = GaussianMultiPrimary((0.6,), 0.2, 1.0, 1.0)
    out = coherent_intersection_check(chan, "WI")
    assert out["equal"] and out["max_gap"] <= 1e-12


def test_noncoherent_multicast_strictly_smaller():
    chan = GaussianMultiPrimary((0.7, -0.7), 0.4, 1.0, 2.0)
    mc = region_mp_wi(chan)
    qs = np.array([p[0] for p in mc.points])
    inter = None
    for j in range(2):
        fr = region_mp_wi(chan.single(j), r2_values=qs, require_regime=False)
        inter = fr if inter is None else frontier_intersect(inter, fr)
    gap = max(
        (inter.value(float(q)) or 0.0) - (mc.value(float(q)) or 0.0) for q in qs
    )
    assert gap > 1e-4


def test_coherent_check_rejects_mixed_signs():
    with pytest.raises(GaussianModelError):
        coherent_intersection_check(
            GaussianMultiPrimary((0.5, -0.5), 0.0, 1, 1), "WI"
        )


# -- covariance constructions and self-consistency ------------------------------


def test_wi_closed_form_matches_covariance_mi(rng):
    for _ in range(30):
        chan = GaussianMultiPrimary(
            tuple(rng.uniform(-1, 1, size=int(rng.integers(1, 3)))),
            rng.uniform(-1.5, 1.5), rng.uniform(0.1, 3), rng.uniform(0.1, 3),
        )
        eta = rng.uniform(0.0, 1.0)
        rho = rng.uniform(-0.99, 0.99)
        for j in range(chan.n_primary):
            cov = wi_input_covariance(chan, j, eta, rho)
            got = gaussian_mi(cov, {"Xu", "X1"}, {"Y"})
            b = chan.b[j]
            num = 1 + b * b * chan.P2 + chan.P1 \
                + 2 * b * rho * np.sqrt((1 - eta) * chan.P1 * chan.P2)
            den = 1 + b * b * eta * chan.P2
            assert got == pytest.approx(half_log2(num / den), abs=1e-9)
            got_v = gaussian_mi(cov, {"Xv"}, {"Z"}, {"X1", "Xu"})
            assert got_v == pytest.approx(half_log2(1 + eta * chan.P2), abs=1e-9)


def test_vsi_closed_form_matches_covariance_mi(rng):
    for _ in range(30):
        chan = GaussianMultiPrimary(
            tuple(rng.uniform(-3, 3, size=int(rng.integers(1, 3)))),
            rng.uniform(-2, 2), rng.uniform(0.1, 3), rng.uniform(0.1, 3),
        )
        rho = rng.uniform(-0.99, 0.99)
        for j in range(chan.n_primary):
            cov = full_correlation_covariance(chan, j, rho)
            b = chan.b[j]
            want = half_log2(
                1 + b * b * chan.P2 + chan.P1
                + 2 * b * rho * np.sqrt(chan.P1 * chan.P2)
            )
            assert gaussian_mi(cov, {"X1", "X2"}, {"Y"}) == pytest.approx(
                want, abs=1e-9
            )
            assert gaussian_mi(cov, {"X2"}, {"Z"}, {"X1"}) == pytest.approx(
                half_log2(1 + (1 - rho * rho) * chan.P2), abs=1e-9
            )


def test_grid_refinement_never_shrinks(rng):
    chan = GaussianMultiPrimary((0.3, 0.7), 0.4, 1.0, 2.0)
    coarse = region_mp_wi(chan, eta_grid=101)
    fine = region_mp_wi(chan, eta_grid=201)
    for q in np.linspace(0, coarse.r2_max, 41):
        vc = coarse.value(float(q))
        vf = fine.value(float(q))
        assert vf >= vc - 1e-6


def test_n1_regions_equal_min_free_formulas(rng):
    # single-receiver region ops match the direct per-r2 formula evaluation
    chan = GaussianMultiPrimary((1.8,), 1.8, 2.0, 1.0)
    probe = region_mp_vsi(chan)
    qs = np.linspace(0, probe.r2_max, 33)
    fr = region_mp_vsi(chan, r2_values=qs)
    b, P1, P2 = 1.8, 2.0, 1.0
    for q in qs:
        lim = (4.0**float(q) - 1.0) / P2
        rho0 = np.sqrt(max(0.0, 1 - lim))
        want = half_log2(1 + b * b * P2 + P1 + 2 * b * rho0 * np.sqrt(P1 * P2)) - q
        assert fr.value(float(q)) == pytest.approx(want, abs=1e-9)



# -- lane-wise golden section and region evaluators -------------------------------


def _counted(f):
    """f plus a count of its calls."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _lanes_match_scalar(fs, lo, hi, iters):
    """Run golden_section over lanes l with f_l = fs[l] and compare each
    bracket bit for bit with the scalar loop, and the number of lockstep
    steps with the longest scalar run; returns the scalar step counts."""
    lanes_f = _counted(lambda x: np.array([f(v) for f, v in zip(fs, x.tolist())]))
    a, b = golden_section(lanes_f, np.array(lo), np.array(hi), iters)
    steps = []
    for lane, f in enumerate(fs):
        fc = _counted(f)
        want = reference.golden_section(fc, lo[lane], hi[lane], iters)
        assert bits([a[lane], b[lane]]) == bits(want), lane
        steps.append(fc.calls - 2)
    assert lanes_f.calls - 2 == max(steps)
    return steps


def test_golden_section_fixed_step_lanes():
    fs = [lambda x: -(x - 0.25) * (x - 0.25), lambda x: x, lambda x: 1.0]
    for iters in (60, 50):
        steps = _lanes_match_scalar(fs, [0.0, -2.0, 0.0], [1.0, 3.0, 1.0], iters)
        assert steps == [iters] * 3


def test_golden_section_degenerate_lanes():
    # lo == hi, and the VSI bracket at binding_eta = 1: [-sqrt(0), sqrt(0)]
    rho0 = np.sqrt(1.0 - binding_eta(10.0, 1.0))
    assert bits(-rho0) == bits(-0.0)
    fs = [lambda x: -x * x, lambda x: x, lambda x: x * 3.0]
    lo, hi = [0.4, -rho0, -rho0], [0.4, rho0, rho0]
    assert _lanes_match_scalar(fs, lo, hi, 44) == [44, 44, 44]


def test_lane_min_and_max_keep_the_first_of_equal_values():
    nan = float("nan")
    for a, b in ((0.0, -0.0), (-0.0, 0.0), (nan, 1.0), (1.0, nan), (2.0, 1.0)):
        assert bits(lane_min([np.array([a]), np.array([b])])) == bits(min(a, b))
        assert bits(lane_max([np.array([a]), np.array([b])])) == bits(max(a, b))


def test_golden_section_one_lane():
    f = lambda x: -(x - 0.1) * (x - 0.1) + 0.5 * x  # noqa: E731
    assert _lanes_match_scalar([f], [-1.0], [1.0], 44) == [44]
    a, b = golden_section(lambda x: np.array([f(v) for v in x.tolist()]), [-1.0], [1.0], 44)
    assert a.shape == b.shape == (1,)


def test_sorted_unique_matches_np_unique_bit_for_bit():
    rng = np.random.default_rng(18)
    cases = [
        np.array([]),
        np.array([1.5]),
        np.array([2.0, 2.0, 2.0]),
        np.array([0.0, -0.0]),
        np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -0.0]),
        np.array([1e-300, -1e-300, 0.0, -0.0, 1e-300, -1e-300]),
    ]
    for n in (1, 2, 7, 64, 403):
        cases.append(rng.normal(size=n))
        # rounded draws repeat, and signed zeros mix with the repeats
        cases.append(np.round(rng.normal(size=n), 1) * rng.choice([-1.0, 1.0], size=n))
        cases.append(rng.choice([0.0, -0.0, 1e-300, -1e-300, 0.5], size=n))
    for x in cases:
        got, want = _sorted_unique(x.copy()), np.unique(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), x


def _gain_signs(rng, n, coherent):
    """One random sign for all n gains, or alternating signs."""
    if coherent:
        return np.full(n, rng.choice([-1.0, 1.0]))
    return np.where(np.arange(n) % 2, -1.0, 1.0)


def test_regions_equal_scalar_reference():
    rng = np.random.default_rng(11)
    explicit = np.linspace(-0.05, 1.3, 31)
    for n in (1, 2, 3, 4):
        for coherent in (True, False):
            if n == 1 and not coherent:
                continue
            P1, P2 = rng.uniform(0.2, 3.0, size=2)
            signs = _gain_signs(rng, n, coherent)
            weak = signs * rng.uniform(0.05, 1.0, size=n)
            strong = signs * rng.uniform(1.0, 3.0, size=n)
            grid, r2 = (None, None) if (n + coherent) % 2 else (41, explicit)
            kw = {} if grid is None else {"eta_grid": grid}
            wi = GaussianMultiPrimary(tuple(weak), rng.uniform(-1, 1), P1, P2)
            got = region_mp_wi(wi, r2_values=r2, require_regime=False, **kw)
            want = reference.region_mp_wi(wi, grid or 201, r2)
            assert bits(got.points) == bits(want.points), ("WI", n, coherent)
            vsi = GaussianMultiPrimary(tuple(strong), float(strong[0]), P1, P2)
            got = region_mp_vsi(vsi, rho_grid=grid or 201, r2_values=r2,
                                require_regime=False)
            want = reference.region_mp_vsi(vsi, grid or 201, r2)
            assert bits(got.points) == bits(want.points), ("VSI", n, coherent)
            mixed_b = np.where(np.arange(n) % 2 == 0, strong, weak)
            mixed = GaussianMultiPrimary(tuple(mixed_b), float(strong[0]), P1, P2)
            part = (tuple(range(0, n, 2)), tuple(range(1, n, 2)))
            got = region_mp_mixed(mixed, part, r2_values=r2, require_regime=False, **kw)
            want = reference.region_mp_mixed(mixed, part, grid or 201, r2)
            assert bits(got.points) == bits(want.points), ("mixed", n, coherent)
            ms = GaussianMultiSecondary(float(strong[0]), tuple(strong), P1, P2)
            got = region_ms_vsi(ms, r2_values=r2, require_regime=False, **kw)
            want = reference.region_ms_vsi(ms, grid or 201, r2)
            assert bits(got.points) == bits(want.points), ("MS VSI", n, coherent)


def test_regions_with_no_r2_sample_in_range():
    chan = GaussianMultiPrimary((0.5, -0.4), 0.2, 1.0, 1.0)
    assert region_mp_wi(chan, r2_values=[-1.0, 5.0]).points == ()
    assert region_mp_mixed(chan, ((), (0, 1)), r2_values=[-1.0]).points == ()


def test_cov_matrix_stack_checks_every_matrix():
    good = np.array([[2.0, 1.0], [1.0, 2.0]])
    stack = np.stack([good, good * 3.0])
    cov = CovMatrix(("X", "Y"), stack)
    got = gaussian_mi(cov, {"X"}, {"Y"})
    for k in range(2):
        assert bits(got[k]) == bits(gaussian_mi(CovMatrix(("X", "Y"), stack[k]), {"X"}, {"Y"}))
    with pytest.raises(GaussianModelError, match="symmetric"):
        CovMatrix(("X", "Y"), np.stack([good, np.array([[1.0, 0.5], [0.0, 1.0]])]))
    with pytest.raises(GaussianModelError, match="positive semidefinite"):
        CovMatrix(("X", "Y"), np.stack([good, np.array([[1.0, 2.0], [2.0, 1.0]])]))
    singular = np.stack([good, np.zeros((2, 2)) - 1e-11 * np.eye(2)])
    with pytest.raises(SingularCovarianceError):
        gaussian_mi(CovMatrix(("X", "Y"), singular), {"X"}, {"Y"})
