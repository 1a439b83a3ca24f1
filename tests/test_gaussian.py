import re
from collections import Counter

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
    region,
    region_mp_mixed,
    region_mp_vsi,
    region_mp_wi,
    region_ms_vsi,
    sorted_unique,
    wi_input_covariance,
    _binding_etas,
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


def test_classify_rejects_an_unsupported_channel_type():
    with pytest.raises(GaussianModelError, match="^unsupported channel type dict$"):
        classify_gaussian({"class": "multi_primary", "b": [0.5], "a": 0.3, "P1": 1, "P2": 1})


def test_classify_multi_secondary():
    assert classify_gaussian(GaussianMultiSecondary(2.0, (2.0, 2.0), 1, 1)) == "VSI"
    assert classify_gaussian(GaussianMultiSecondary(0.5, (0.3, 0.8), 1, 1)) == "WI"
    assert classify_gaussian(GaussianMultiSecondary(2.0, (-2.0, 2.0), 1, 1)) == "none"


def _draw_gain(rng, spread: float) -> float:
    """Exactly +-1 or 0 a fifth of the time each, else uniform on +-spread."""
    u = rng.random()
    if u < 0.2:
        return float(rng.choice((-1.0, 1.0)))
    if u < 0.4:
        return 0.0
    return float(rng.uniform(-spread, spread))


def _draw_power(rng) -> float:
    return 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 5.0))


def _draw_partition(rng, b):
    """None, the split by |b_j| (a gain of magnitude 1 on either side), all
    strong, all weak, a random split, or an invalid one; each side in a
    shuffled order."""
    n = len(b)
    kind = int(rng.integers(6))
    if kind == 0:
        return None
    if kind == 1:
        side = [abs(bj) > 1 or (abs(bj) == 1 and rng.random() < 0.5) for bj in b]
    else:
        side = [kind == 2 or (kind != 3 and rng.random() < 0.5) for _ in b]
    strong = [j for j in range(n) if side[j]]
    weak = [j for j in range(n) if not side[j]]
    if kind == 5:
        bad = int(rng.integers(4))
        if bad == 0:  # a receiver on both sides
            j = int(rng.integers(n))
            strong, weak = sorted(set(strong) | {j}), sorted(set(weak) | {j})
        elif bad == 1 and strong:  # a receiver on neither side
            strong = strong[1:]
        elif bad == 1:
            weak = weak[1:]
        else:  # an index out of range
            weak = weak + [n if bad == 2 else -1]
    return (tuple(int(j) for j in rng.permutation(strong)),
            tuple(int(j) for j in rng.permutation(weak)))


def _classification(classify, chan, partition):
    try:
        return classify(chan, partition)
    except Exception as exc:
        return type(exc), str(exc)


def test_classify_splits_as_each_regime_written_out(rng):
    # VSI and WI are the all-strong and all-weak splits of the mixed rule;
    # the reference writes each regime's conditions out on its own. The draws
    # hold gains of exactly 1 and 0, zero powers, empty sides, invalid
    # partitions, and multi-secondary channels with and without a partition.
    outcomes = Counter()
    for _ in range(20000):
        if rng.random() < 0.75:
            b = tuple(_draw_gain(rng, 3.0) for _ in range(int(rng.integers(1, 5))))
            chan = GaussianMultiPrimary(b, _draw_gain(rng, 4.0), _draw_power(rng), _draw_power(rng))
            partition = _draw_partition(rng, b)
        else:
            a = tuple(_draw_gain(rng, 4.0) for _ in range(int(rng.integers(1, 4))))
            chan = GaussianMultiSecondary(_draw_gain(rng, 3.0), a, _draw_power(rng), _draw_power(rng))
            partition = None if rng.random() < 0.8 else _draw_partition(rng, (chan.b,))
        got = _classification(classify_gaussian, chan, partition)
        assert got == _classification(reference.classify_gaussian, chan, partition), \
            (chan, partition)
        outcomes[got if isinstance(got, str) else re.sub(r"\(.*\)", "P", got[1])] += 1
    assert set(outcomes) == {
        "VSI", "WI", "mixed", "none", "a partition applies to multi_primary channels only",
        *(f"partition P must split receiver indices 0..{n - 1}" for n in range(1, 5)),
    }, outcomes


def test_channel_json_round_trip():
    mp = GaussianMultiPrimary((1.5, 2.5), 1.5, 2, 1)
    assert channel_from_json_dict(mp.to_json_dict()) == mp
    ms = GaussianMultiSecondary(2.0, (2.0,), 1, 1)
    assert channel_from_json_dict(ms.to_json_dict()) == ms
    for klass in ("multi_tertiary", None):
        with pytest.raises(GaussianModelError, match=f"^unknown channel class {klass!r}$"):
            channel_from_json_dict({"class": klass, "b": 2.0, "a": [2.0], "P1": 1, "P2": 1})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_channels_reject_non_finite_gains(bad):
    for make in (lambda: GaussianMultiPrimary((bad, 0.5), 0.3, 1, 1),
                 lambda: GaussianMultiPrimary((0.5,), bad, 1, 1),
                 lambda: GaussianMultiSecondary(bad, (0.5,), 1, 1),
                 lambda: GaussianMultiSecondary(0.5, (0.5, bad), 1, 1)):
        with pytest.raises(GaussianModelError):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: GaussianMultiPrimary((), 0.3, 1, 1), "need at least one primary gain b_j"),
    (lambda: GaussianMultiSecondary(0.5, (), 1, 1), "need at least one secondary gain a_k"),
    (lambda: GaussianMultiPrimary((0.5,), 0.3, -1, 1), "power P1 must be finite and >= 0, got -1"),
    (lambda: GaussianMultiSecondary(0.5, (0.5,), 1, -0.5),
     "power P2 must be finite and >= 0, got -0.5"),
], ids=["mp-no-gain", "ms-no-gain", "mp-negative-power", "ms-negative-power"])
def test_channels_reject_empty_gains_and_negative_powers(make, message):
    with pytest.raises(GaussianModelError, match=f"^{re.escape(message)}$"):
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
    with pytest.raises(GaussianModelError, match=r"^duplicate variable names \('X', 'X'\)$"):
        CovMatrix(("X", "X"), np.eye(2))
    for shape in ((3, 3), (2,), (1, 1, 2, 2)):
        with pytest.raises(GaussianModelError, match="^matrix shape does not match names$"):
            CovMatrix(("X", "Y"), np.ones(shape))
    # checked before eigvalsh, which raises LinAlgError or returns NaN on them
    for bad in (np.inf, -np.inf):
        with pytest.raises(GaussianModelError, match="^covariance entries must be finite$"):
            CovMatrix(("X", "Y"), np.array([[bad, 0.0], [0.0, 1.0]]))


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
    # strong b = 2.0 and weak b = 0.5, but a = 0 breaks the very-strong margin
    with pytest.raises(GaussianModelError, match="^channel fails the mixed-regime conditions$"):
        region_mp_mixed(GaussianMultiPrimary((0.5, 2.0), 0.0, 1, 1), ((1,), (0,)))
    # a WI channel passes the regime check, but the mixed region needs a partition
    for require_regime in (True, False):
        with pytest.raises(GaussianModelError, match="^mixed classification requires a partition$"):
            region_mp_mixed(GaussianMultiPrimary((0.5, 0.9), 0.3, 1, 2), None,
                            require_regime=require_regime)


_MP_VSI = GaussianMultiPrimary((2.0, 2.0), 2.0, 1, 1)
_MP_WI = GaussianMultiPrimary((0.5, 0.9), 0.3, 1, 2)
_MP_MIXED = GaussianMultiPrimary((0.5, 2.0), 2.0, 1, 1)
_MS_VSI = GaussianMultiSecondary(2.0, (2.0, 2.0), 1, 1)


@pytest.mark.parametrize("chan, regime, partition, direct", [
    (_MP_VSI, "VSI", None, lambda c, p, **kw: region_mp_vsi(c, rho_grid=31, **kw)),
    (_MP_WI, "WI", None, lambda c, p, **kw: region_mp_wi(c, eta_grid=31, **kw)),
    (_MP_MIXED, "mixed", ((1,), (0,)), lambda c, p, **kw: region_mp_mixed(c, p, eta_grid=31, **kw)),
    (_MS_VSI, "VSI", None, lambda c, p, **kw: region_ms_vsi(c, eta_grid=31, **kw)),
], ids=["mp-VSI", "mp-WI", "mp-mixed", "ms-VSI"])
def test_region_is_its_evaluator_bit_for_bit(chan, regime, partition, direct):
    assert classify_gaussian(chan, partition) == regime
    got = region(chan, regime, partition, 31)
    assert got.points == direct(chan, partition).points
    # r2_values and require_regime reach the evaluator
    qs = np.linspace(0.0, 0.4, 9)
    got = region(chan, regime, partition, 31, r2_values=qs, require_regime=False)
    assert got.points == direct(chan, partition, r2_values=qs, require_regime=False).points


@pytest.mark.parametrize("chan, regime, message", [
    (GaussianMultiSecondary(0.5, (0.5,), 1, 1), "WI",
     "only the very-strong regime region is available for multi_secondary channels"),
    (GaussianMultiPrimary((0.5, 2.0), 0.0, 1, 1), "none",
     "channel is outside every covered regime"),
    (_MP_WI, "VWI", "unknown regime 'VWI'"),
], ids=["ms-WI", "none", "unknown"])
def test_region_rejects_an_uncovered_regime(chan, regime, message):
    with pytest.raises(GaussianModelError, match=f"^{re.escape(message)}$"):
        region(chan, regime)


def test_region_looks_its_evaluator_up_when_called(monkeypatch):
    # the benchmark tracer rebinds `gaussian.region_mp_wi` and must see the call
    from mcifc import gaussian

    calls = []

    def traced(*args, **kwargs):
        calls.append(args[0])
        return region_mp_wi(*args, **kwargs)

    monkeypatch.setattr(gaussian, "region_mp_wi", traced)
    assert region(_MP_WI, "WI", grid=11).points == region_mp_wi(_MP_WI, 11).points
    assert calls == [_MP_WI]


def test_classify_checks_a_partition_in_every_regime():
    # also where the regime (here WI) ignores the partition
    assert classify_gaussian(_MP_WI, ((1,), (0,))) == "WI"
    for partition in (((0,), (0,)), ((0, 1), (1,)), ((0,), (2,))):
        with pytest.raises(GaussianModelError, match="must split"):
            classify_gaussian(_MP_WI, partition)


def test_multi_secondary_rejects_a_partition():
    # one primary receiver: any partition, even an empty one, is a mistake
    chan = GaussianMultiSecondary(2.0, (2.0, 2.0), 1, 1)
    assert classify_gaussian(chan, None) == "VSI"
    assert len(region(chan, "VSI", None, 11).points) > 1
    message = "^a partition applies to multi_primary channels only$"
    for partition in (((5,), ()), ((0,), ()), ((), ())):
        with pytest.raises(GaussianModelError, match=message):
            classify_gaussian(chan, partition)
        with pytest.raises(GaussianModelError, match=message):
            region(chan, "VSI", partition, 11)


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
        got, want = sorted_unique(x.copy()), np.unique(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), x


def test_binding_etas_equal_the_scalar_rule_bit_for_bit():
    rng = np.random.default_rng(19)
    powers = [0.0, -1.0, np.nan, 5e-324, 1e-300, 1e-12, 1.0, 3.7, 1e300]
    powers += list(rng.uniform(0.0, 10.0, 20)) + list(10.0 ** rng.uniform(-8, 8, 20))
    for P2 in powers:
        top = half_log2(1 + P2) if P2 > 0 else 1.0
        qs = np.concatenate([
            [0.0, -0.0, -0.5, top, top + 0.5, 0.5, 20.0],
            rng.uniform(0.0, top, 50),
            top * (1 - rng.uniform(0.0, 1e-12, 20)),
        ])
        # inside the lanes' errstate, as `region` evaluates them; a tiny P2
        # sends the quotient past the float range
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = _binding_etas(qs, P2)
        want = [reference.binding_eta(q, P2) for q in qs.tolist()]
        assert bits(got) == bits(want), P2
        assert bits([binding_eta(q, P2) for q in qs.tolist()]) == bits(want), P2
    # outside any errstate the overflowing quotient warns no more than the
    # float division does
    assert binding_eta(0.5, 5e-324) == reference.binding_eta(0.5, 5e-324) == 1.0


def _gain_signs(rng, n, coherent):
    """One random sign for all n gains, or alternating signs."""
    if coherent:
        return np.full(n, rng.choice([-1.0, 1.0]))
    return np.where(np.arange(n) % 2, -1.0, 1.0)


def test_regions_equal_scalar_reference():
    rng = np.random.default_rng(11)
    explicit = np.linspace(-0.05, 1.3, 31)
    inputs = []
    for n in (1, 2, 3, 4):
        for coherent in (True, False):
            if n == 1 and not coherent:
                continue
            P1, P2 = rng.uniform(0.2, 3.0, size=2)
            signs = _gain_signs(rng, n, coherent)
            weak = signs * rng.uniform(0.05, 1.0, size=n)
            strong = signs * rng.uniform(1.0, 3.0, size=n)
            grid, r2 = (None, None) if (n + coherent) % 2 else (41, explicit)
            inputs.append(((n, coherent), weak, strong, rng.uniform(-1, 1), P1, P2, grid, r2))
    # receivers that tie exactly, so the min over the receiver axis meets
    # equal rows: a repeated gain ties at every rho, and gains b
    # and -b tie wherever rho * root is zero: at eta = 1 (R2 at its cap, one
    # of the explicit samples) and at P1 = 0. The mixed partition pairs
    # indices 0, 2 (strong) and 1, 3 (weak).
    repeated = (np.array([0.7, 0.4, 0.7, 0.4]), np.array([1.8, 1.2, 1.8, 1.2]))
    opposite = (np.array([0.7, -0.4, -0.7, 0.4]), np.array([1.8, -1.2, -1.8, 1.2]))
    for label, (weak, strong) in (("repeated", repeated), ("opposite", opposite)):
        for P1 in (1.5, 0.0):
            inputs.append(((label, P1), weak, strong, 0.3, P1, 1.0, 41, explicit))
    for label, weak, strong, a, P1, P2, grid, r2 in inputs:
        n = len(weak)
        kw = {} if grid is None else {"eta_grid": grid}
        wi = GaussianMultiPrimary(tuple(weak), a, P1, P2)
        got = region_mp_wi(wi, r2_values=r2, require_regime=False, **kw)
        want = reference.region_mp_wi(wi, grid or 201, r2)
        assert bits(got.points) == bits(want.points), ("WI", label)
        vsi = GaussianMultiPrimary(tuple(strong), float(strong[0]), P1, P2)
        got = region_mp_vsi(vsi, rho_grid=grid or 201, r2_values=r2, require_regime=False)
        want = reference.region_mp_vsi(vsi, grid or 201, r2)
        assert bits(got.points) == bits(want.points), ("VSI", label)
        mixed_b = np.where(np.arange(n) % 2 == 0, strong, weak)
        mixed = GaussianMultiPrimary(tuple(mixed_b), float(strong[0]), P1, P2)
        part = (tuple(range(0, n, 2)), tuple(range(1, n, 2)))
        got = region_mp_mixed(mixed, part, r2_values=r2, require_regime=False, **kw)
        want = reference.region_mp_mixed(mixed, part, grid or 201, r2)
        assert bits(got.points) == bits(want.points), ("mixed", label)
        ms = GaussianMultiSecondary(float(strong[0]), tuple(strong), P1, P2)
        got = region_ms_vsi(ms, r2_values=r2, require_regime=False, **kw)
        want = reference.region_ms_vsi(ms, grid or 201, r2)
        assert bits(got.points) == bits(want.points), ("MS VSI", label)


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
