import json
from dataclasses import replace

import numpy as np
import pytest

import scalar_reference as reference
from mcifc import dpc
from mcifc.dpc import (
    MD_VARIANTS,
    SWEEP_COLUMNS,
    DpcConfig,
    DpcConfigError,
    alpha_opt_pair,
    block_expansion_baseline,
    cd_dpc_rate,
    comparison_sweep,
    gamma_opt,
    md_dpc_rate,
    numeric_dpc_oracle,
    optimize_md_x,
    precoding_covariance,
    r1_weak,
    receiver_variances,
    sweep_artifacts,
    weak_outer_bound,
    OracleResult,
    _PRECODING,
    _Lanes,
    _scan_points,
)
from mcifc.gaussian import (
    CovMatrix,
    GaussianMultiPrimary,
    SingularCovarianceError,
    gaussian_mi,
    half_log2,
    wi_input_covariance,
)
from scalar_reference import bits

FIG_CFG = DpcConfig(P1=3.0, P2=1.0, a1=0.75, a2=-0.5, b=0.1, eta=0.5, rho=0.0)


def random_cfg(rng, eta_range=(0.05, 0.95)):
    P2 = rng.uniform(0.3, 3.0)
    return DpcConfig(
        P1=float(rng.uniform(0.1, 3.0) * P2),
        P2=float(P2),
        a1=float(rng.uniform(-1.3, 1.3)),
        a2=float(rng.uniform(-1.3, 1.3)),
        b=float(rng.uniform(-1.0, 1.0)),
        eta=float(rng.uniform(*eta_range)),
        rho=float(rng.uniform(-0.9, 0.9)),
    )


# -- r1_weak --------------------------------------------------------------------


def test_r1_weak_eta_one_drops_rho():
    cfg = replace(FIG_CFG, eta=1.0, rho=0.7)
    want = half_log2((FIG_CFG.b**2 * 1 + 3 + 1) / (FIG_CFG.b**2 * 1 + 1))
    assert r1_weak(cfg) == pytest.approx(want, abs=1e-12)


def test_r1_weak_p1_zero():
    cfg = DpcConfig(P1=0.0, P2=2.0, a1=0.5, a2=0.5, b=0.4, eta=0.0, rho=0.3)
    assert r1_weak(cfg) == pytest.approx(half_log2(0.16 * 2 + 1), abs=1e-12)


def test_r1_weak_matches_covariance_oracle(rng):
    for _ in range(20):
        cfg = random_cfg(rng)
        chan = GaussianMultiPrimary((cfg.b,), cfg.a1, cfg.P1, cfg.P2)
        cov = wi_input_covariance(chan, 0, cfg.eta, cfg.rho)
        want = gaussian_mi(cov, {"Xu", "X1"}, {"Y"})
        assert r1_weak(cfg) == pytest.approx(want, abs=1e-9)


# -- closed forms -----------------------------------------------------------------


def test_cd_equal_gains_is_clean_rate():
    cfg = DpcConfig(P1=3.0, P2=1.0, a1=0.6, a2=0.6, b=0.1, eta=0.5, rho=0.0)
    assert cd_dpc_rate(cfg) == pytest.approx(half_log2(1 + cfg.P_v), abs=1e-12)


def test_cd_p1_zero_is_clean_rate():
    cfg = DpcConfig(P1=0.0, P2=1.0, a1=0.75, a2=-0.5, b=0.1, eta=0.5, rho=0.0)
    assert cd_dpc_rate(cfg) == pytest.approx(half_log2(1 + cfg.P_v), abs=1e-12)


def test_md_at_zero_is_cd_bitwise(rng):
    for _ in range(200):
        cfg = random_cfg(rng)
        assert md_dpc_rate(cfg, 0.0) == cd_dpc_rate(cfg)


def test_md_defaults_to_the_configured_private_power(rng):
    moved = 0
    for _ in range(50):
        cfg = random_cfg(rng)
        cfg = replace(cfg, x=float(rng.uniform(0, cfg.P_v)))
        assert md_dpc_rate(cfg) == md_dpc_rate(cfg, cfg.x)
        moved += md_dpc_rate(cfg) != md_dpc_rate(cfg, 0.0)
    assert moved > 25


def test_cd_rejects_a_receiver_variance_rounded_below_zero():
    # Var(Z1) = (a1 sqrt(P1) - sqrt(P_u))^2 + eta P2 + 1 is about 1.0002
    # here, but its float sum cancels to -255
    cfg = DpcConfig(P1=1.0, P2=1e18, a1=1000000000.013, a2=0.5, b=0.5, eta=0.0, rho=-1.0)
    with np.errstate(invalid="ignore"):  # the sqrt of that variance
        with pytest.raises(DpcConfigError, match="^receiver variances must be positive$"):
            cd_dpc_rate(cfg)


def test_md_equal_gains_penalized_by_private_power():
    cfg = DpcConfig(P1=3.0, P2=1.0, a1=0.6, a2=0.6, b=0.1, eta=0.5, rho=0.0)
    for x in np.linspace(0, cfg.P_v, 7):
        want = half_log2(1 + cfg.P_v) - half_log2(np.sqrt(x + 1.0))
        assert md_dpc_rate(cfg, float(x)) == pytest.approx(want, abs=1e-12)
    x_star, best = optimize_md_x(cfg)
    assert x_star == pytest.approx(0.0, abs=1e-9)
    assert best == pytest.approx(cd_dpc_rate(cfg), abs=1e-12)


def test_md_matches_independent_rewrite_of_formula():
    # duplicate-formula oracle, written out verbatim
    cfg = FIG_CFG
    P_v = cfg.eta * cfg.P2
    P_u = (1 - cfg.eta) * cfg.P2
    c = cfg.rho * np.sqrt(cfg.P1 * P_u)
    v1 = cfg.P2 + cfg.a1**2 * cfg.P1 + 2 * cfg.a1 * c + 1
    v2 = cfg.P2 + cfg.a2**2 * cfg.P1 + 2 * cfg.a2 * c + 1
    for x in np.linspace(0.0, P_v, 20):
        p_of_x = (P_v - x) / np.sqrt(x + 1)
        arg = (
            cfg.P1 * (P_v + (1 - cfg.rho**2) * P_u + 1) * (cfg.a1 - cfg.a2) ** 2
            * p_of_x / ((P_v + 1) * (np.sqrt(v1) + np.sqrt(v2)) ** 2)
            + np.sqrt(x + 1)
        )
        want = max(0.0, 0.5 * np.log2(P_v + 1) - 0.5 * np.log2(arg))
        assert md_dpc_rate(cfg, float(x)) == pytest.approx(want, abs=1e-12)


def test_md_variant_flag():
    cfg = replace(FIG_CFG, md_variant="linear")
    assert md_dpc_rate(cfg, 0.0) == cd_dpc_rate(cfg)  # variants agree at x = 0
    assert md_dpc_rate(cfg, 0.3) < md_dpc_rate(replace(cfg, md_variant="sqrt"), 0.3)
    with pytest.raises(DpcConfigError):
        DpcConfig(P1=1, P2=1, a1=0, a2=0, b=0.1, md_variant="cubed")


def test_md_x_domain_checked():
    with pytest.raises(DpcConfigError):
        md_dpc_rate(FIG_CFG, FIG_CFG.P_v + 0.5)


def test_optimize_md_never_below_cd(rng):
    for _ in range(1000):
        cfg = random_cfg(rng)
        x_star, best = optimize_md_x(cfg, scan_points=16)
        assert 0.0 <= x_star <= cfg.P_v + 1e-9
        assert best >= cd_dpc_rate(cfg) - 1e-12


def test_md_improvement_monotone_in_mismatch_and_p1():
    base = dict(P2=1.0, b=0.1, eta=0.5, rho=0.0)
    gains = []
    for da in np.linspace(0.0, 1.2, 7):
        cfg = DpcConfig(P1=3.0, a1=0.3 + da / 2, a2=0.3 - da / 2, **base)
        gains.append(optimize_md_x(cfg)[1] - cd_dpc_rate(cfg))
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(gains, gains[1:]))
    gains_p1 = []
    for P1 in np.linspace(0.0, 6.0, 7):
        cfg = DpcConfig(P1=float(P1), a1=0.75, a2=-0.5, **base)
        gains_p1.append(optimize_md_x(cfg)[1] - cd_dpc_rate(cfg))
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(gains_p1, gains_p1[1:]))


# -- oracle ----------------------------------------------------------------------


def test_oracle_fixed_gamma_validates_closed_form(rng):
    for _ in range(25):
        cfg = random_cfg(rng)
        res = numeric_dpc_oracle(cfg, 121, 121, fixed_gamma=gamma_opt(cfg))
        assert res.value == pytest.approx(cd_dpc_rate(cfg), abs=2e-3)
        assert abs(res.alpha_star - alpha_opt_pair(cfg)) <= res.alpha_step + 1e-6


def test_oracle_equal_gains_recovers_claimed_optimizers():
    cfg = DpcConfig(P1=2.0, P2=1.5, a1=0.8, a2=0.8, b=0.2, eta=0.6, rho=0.2)
    res = numeric_dpc_oracle(cfg)
    assert res.value == pytest.approx(half_log2(1 + cfg.P_v), abs=2e-3)
    assert abs(res.gamma_star - gamma_opt(cfg)) <= res.gamma_step + 1e-12
    assert abs(res.alpha_star - cfg.a1 * gamma_opt(cfg)) <= res.alpha_step + 1e-12


def test_oracle_p1_zero_reaches_clean_rate():
    cfg = DpcConfig(P1=0.0, P2=1.0, a1=0.75, a2=-0.5, b=0.1, eta=0.5, rho=0.0)
    res = numeric_dpc_oracle(cfg)
    assert res.value == pytest.approx(half_log2(1 + cfg.P_v), abs=2e-3)


def test_oracle_never_below_closed_form(rng):
    # the closed form is one achievable parameter choice, so the grid max
    # dominates it up to grid resolution
    for _ in range(10):
        cfg = random_cfg(rng)
        res = numeric_dpc_oracle(cfg, 101, 101)
        assert res.value >= cd_dpc_rate(cfg) - 5e-3


def test_unrestricted_oracle_exceeds_closed_form_at_figure_params():
    # joint re-optimization of the shared-layer scaling strictly beats the
    # fixed-gamma closed form once mismatch and primary power are material
    res = numeric_dpc_oracle(FIG_CFG)
    assert res.value > cd_dpc_rate(FIG_CFG) + 5e-3


def test_oracle_grid_floor():
    with pytest.raises(DpcConfigError):
        numeric_dpc_oracle(FIG_CFG, 50, 201)


def test_precoding_covariance_consistent_with_gaussian_mi():
    cov = precoding_covariance(FIG_CFG, 0.3, 0.1)
    v1, v2 = receiver_variances(FIG_CFG)
    assert cov.matrix[cov.names.index("Z1")][cov.names.index("Z1")] == pytest.approx(v1)
    assert cov.matrix[cov.names.index("Z2")][cov.names.index("Z2")] == pytest.approx(v2)


# -- outer bound and block expansion ----------------------------------------------


def test_outer_bound_eta_slices():
    fr = weak_outer_bound(FIG_CFG)
    assert fr.value(0.0) == pytest.approx(
        half_log2((0.01 + 3 + 2 * 0.1 * np.sqrt(3) + 1) / 1.0), abs=1e-9
    )
    assert fr.r2_max == pytest.approx(half_log2(2.0), abs=1e-9)


def test_outer_bound_p1_zero_box():
    cfg = DpcConfig(P1=0.0, P2=1.0, a1=0.2, a2=0.1, b=-0.5, eta=0.5, rho=0.0)
    fr = weak_outer_bound(cfg)
    # no primary power: the R1 cap is flat in eta until the denominator grows
    assert fr.value(0.0) == pytest.approx(half_log2(1.25), abs=1e-9)


def test_outer_bound_requires_weak_gain():
    with pytest.raises(DpcConfigError):
        weak_outer_bound(replace(FIG_CFG, b=1.5))


def test_outer_bound_equals_per_point_reference():
    rng = np.random.default_rng(11)
    gains = [-1.0, 1.0, 0.0] + [float(g) for g in rng.uniform(-1.0, 1.0, 5)]
    for k, b in enumerate(gains):
        P2 = 0.0 if k % 4 == 3 else float(rng.uniform(0.1, 4.0))
        cfg = DpcConfig(P1=float(rng.uniform(0.0, 4.0)), P2=P2, a1=0.75, a2=-0.5, b=b)
        for grid in (3, 11, 201, 801):
            got = weak_outer_bound(cfg, grid).points
            want = reference.weak_outer_bound(cfg, grid).points
            assert [r2 for r2, _ in got] == [r2 for r2, _ in want], (cfg, grid)
            assert np.allclose([r1 for _, r1 in got], [r1 for _, r1 in want],
                               rtol=0.0, atol=1e-15), (cfg, grid)


def test_block_expansion_equal_gains_matches_cd():
    cfg = DpcConfig(P1=3.0, P2=1.0, a1=0.6, a2=0.6, b=0.1, eta=0.5, rho=0.0)
    assert block_expansion_baseline(cfg) == pytest.approx(
        cd_dpc_rate(cfg), abs=1e-9
    )


def test_block_expansion_endpoints_are_single_slot_rates():
    cfg = FIG_CFG
    g = gamma_opt(cfg)
    r = np.array([[reference.slot_rate(cfg, g, ak * g, receiver) for ak in (cfg.a1, cfg.a2)]
                  for receiver in (0, 1)])
    assert block_expansion_baseline(cfg) >= max(min(r[:, 0]), min(r[:, 1])) - 1e-12
    # the tuned receiver always reaches the clean rate
    assert r[0, 0] == pytest.approx(half_log2(1 + cfg.P_v), abs=1e-9)
    assert r[1, 1] == pytest.approx(half_log2(1 + cfg.P_v), abs=1e-9)


def test_block_expansion_is_the_max_over_t_at_one_of_its_candidates(rng):
    ts = np.linspace(0.0, 1.0, 2001)
    for _ in range(30):
        cfg = random_cfg(rng)
        g = gamma_opt(cfg)
        # r[receiver][slot]; receiver k's time-shared rate t r[k][0] + (1-t) r[k][1]
        r = [[reference.slot_rate(cfg, g, ak * g, receiver) for ak in (cfg.a1, cfg.a2)]
             for receiver in (0, 1)]

        def worst(t):
            return np.minimum(t * r[0][0] + (1 - t) * r[0][1], t * r[1][0] + (1 - t) * r[1][1])

        d0, d1 = r[0][0] - r[0][1], r[1][0] - r[1][1]
        cands = [0.0, 1.0]
        if abs(d0 - d1) > 1e-15 and 0.0 < (r[1][1] - r[0][1]) / (d0 - d1) < 1.0:
            cands.append((r[1][1] - r[0][1]) / (d0 - d1))
        got = block_expansion_baseline(cfg)
        assert got >= worst(ts).max() - 1e-15, cfg
        assert bits(got) in [bits(worst(t)) for t in cands], cfg


def test_block_expansion_between_cd_and_outer_at_fig_params():
    be = block_expansion_baseline(FIG_CFG)
    assert cd_dpc_rate(FIG_CFG) <= be + 1e-9
    assert be <= half_log2(1 + FIG_CFG.P_v) + 1e-9


# -- sweep -------------------------------------------------------------------------


def test_sweep_ordering_and_strictness(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = comparison_sweep(FIG_CFG, eta_grid=41)
    for path, text in sweep_artifacts(FIG_CFG, rows, out):
        path.write_text(text)
    assert all(r["R2_md"] >= r["R2_cd"] - 1e-12 for r in rows)
    assert all(r["R2_md"] <= r["R2_outer"] + 1e-9 for r in rows)
    assert all(r["R2_cd"] <= r["R2_outer"] + 1e-9 for r in rows)
    assert all(r["R2_block"] <= r["R2_outer"] + 1e-9 for r in rows)
    assert max(r["R2_md"] - r["R2_cd"] for r in rows) > 1e-4
    text = out.read_text().splitlines()
    assert text[0] == "eta,R1,R2_cd,R2_md,x_star,R2_block,R2_outer"
    assert len(text) == len(rows) + 1
    sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert sidecar["P1"] == FIG_CFG.P1


def test_sweep_equal_gains_md_equals_cd(tmp_path):
    cfg = DpcConfig(P1=3.0, P2=1.0, a1=0.6, a2=0.6, b=0.1, rho=0.0)
    rows = comparison_sweep(cfg, eta_grid=17)
    assert all(r["R2_md"] == pytest.approx(r["R2_cd"], abs=1e-12) for r in rows)


def test_sweep_rows_dominated_by_outer_frontier():
    rows = comparison_sweep(FIG_CFG, eta_grid=21)
    outer = weak_outer_bound(FIG_CFG, eta_grid=801)
    for row in rows:
        for col in ("R2_cd", "R2_md", "R2_block"):
            cap = outer.value(min(row[col], outer.r2_max))
            assert row["R1"] <= cap + 1e-6


def test_sweep_deterministic_artifacts(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        for out, text in sweep_artifacts(FIG_CFG, comparison_sweep(FIG_CFG, eta_grid=11), path):
            out.write_text(text)
    assert a.read_bytes() == b.read_bytes()


def test_config_validation():
    with pytest.raises(DpcConfigError):
        DpcConfig(P1=1, P2=1, a1=0, a2=0, b=0, eta=1.2)
    with pytest.raises(DpcConfigError):
        DpcConfig(P1=1, P2=1, a1=0, a2=0, b=0, rho=-1.5)
    with pytest.raises(DpcConfigError):
        DpcConfig(P1=1, P2=1, a1=0, a2=0, b=0, eta=0.5, x=0.7)
    for gains in ({"a1": np.inf}, {"a2": np.nan}, {"b": -np.inf}):
        with pytest.raises(DpcConfigError):
            DpcConfig(**{"P1": 1, "P2": 1, "a1": 0, "a2": 0, "b": 0, **gains})
    cfg = DpcConfig.from_json_dict(FIG_CFG.to_json_dict())
    assert cfg == FIG_CFG


# -- lane-wise evaluation ------------------------------------------------------------


def test_sweep_rows_equal_per_eta_reference():
    cfgs = [FIG_CFG, replace(FIG_CFG, md_variant="linear"),
            DpcConfig(P1=0.0, P2=1.0, a1=0.75, a2=-0.5, b=0.1, rho=0.4),
            DpcConfig(P1=2.0, P2=0.0, a1=0.3, a2=0.9, b=-0.2, rho=0.5)]
    rng = np.random.default_rng(5)
    cfgs += [replace(random_cfg(rng), md_variant=v) for v in MD_VARIANTS for _ in range(2)]
    for cfg in cfgs:
        got = comparison_sweep(cfg)
        want = reference.comparison_rows(cfg)
        assert got[0]["eta"] == 0.0 and len(got) == 101
        for g, w in zip(got, want):
            assert list(g) == list(SWEEP_COLUMNS)
            assert bits([g[c] for c in SWEEP_COLUMNS]) == bits([w[c] for c in SWEEP_COLUMNS]), \
                (cfg, g["eta"])


def test_one_lane_functions_equal_scalar_reference(rng):
    for k in range(150):
        cfg = replace(random_cfg(rng, eta_range=(0.0, 1.0)),
                      md_variant=MD_VARIANTS[k % 2])
        x = float(rng.uniform(0.0, cfg.P_v))
        assert bits(md_dpc_rate(cfg, x)) == bits(reference.md_dpc_rate(cfg, x))
        assert bits(optimize_md_x(cfg, 16)) == bits(reference.optimize_md_x(cfg, 16))
        assert bits(block_expansion_baseline(cfg)) == \
            bits(reference.block_expansion_baseline(cfg))
        assert bits(r1_weak(cfg)) == bits(reference.r1_weak(cfg))
        assert bits(receiver_variances(cfg)) == bits(reference.receiver_variances(cfg))
        g = gamma_opt(cfg)
        assert bits(precoding_covariance(cfg, g, cfg.a2 * g).matrix) == \
            bits(reference.precoding_covariance(cfg, g, cfg.a2 * g).matrix)


def test_stacked_slot_mis_equal_gaussian_mi(rng):
    cfg = random_cfg(rng)
    etas = np.linspace(0.01, 1.0, 40)
    lanes = _Lanes(cfg, etas)
    g = gamma_opt(lanes)
    alpha = np.where(np.arange(40) % 2, cfg.a1, cfg.a2) * g
    stack = CovMatrix(_PRECODING, lanes.precoding(g, alpha))
    assert stack.matrix.shape == (40, 5, 5)
    for left, right in (({"V"}, {"Z1"}), ({"V"}, {"Z2"}), ({"V"}, {"Xu", "X1"})):
        got = gaussian_mi(stack, left, right)
        for k, eta in enumerate(etas):
            single = precoding_covariance(replace(cfg, eta=float(eta)), g[k], alpha[k])
            assert bits(single.matrix) == bits(stack.matrix[k])
            assert bits(got[k]) == bits(gaussian_mi(single, left, right))
    rates = lanes.slot_rates(g, alpha)
    for k, eta in enumerate(etas):
        sub = replace(cfg, eta=float(eta))
        for receiver in (0, 1):
            want = reference.slot_rate(sub, g[k], alpha[k], receiver)
            assert bits(rates[receiver, k]) == bits(want)


def test_scan_points_follow_linspace_per_lane():
    stops = np.array([0.0, -0.0, 5e-324, 1e-310, 0.3, 2.5])
    got = _scan_points(stops, 64)
    for k, stop in enumerate(stops):
        assert bits(got[k]) == bits(np.linspace(0.0, stop, 64))


def test_squares_multiply_where_the_float_power_rounds_differently():
    rng = np.random.default_rng(3)
    x = next(v for v in map(float, rng.uniform(0.5, 2.0, 100_000)) if v**2 != v * v)
    # eta = 0 and rho = 0: entry [0, 0] is gamma^2 Pu + alpha^2 P1 with Pu = P1 = 1
    cfg = DpcConfig(P1=1.0, P2=1.0, a1=0.75, a2=-0.5, b=0.1, eta=0.0)
    for gamma, alpha in ((x, 0.0), (0.0, x)):
        assert bits(precoding_covariance(cfg, gamma, alpha).matrix[0, 0]) == bits(x * x)
    # the spread (P_v + 1) (sqrt(v1) + sqrt(v2))^2 of the MD penalty: a
    # configuration whose rate tells v * v from v**2
    for _ in range(100_000):
        cfg = random_cfg(rng)
        want = reference.md_dpc_rate(cfg, 0.0)
        if want != reference.md_dpc_rate(cfg, 0.0, square=lambda v: float(v)**2):
            break
    else:
        raise AssertionError("no configuration tells the two squares apart")
    assert bits(md_dpc_rate(cfg, 0.0)) == bits(want)


def test_sweep_raises_the_error_a_per_eta_loop_meets_first():
    # rho = 1 makes (Xu, X1) singular; several etas fail the MI clamp, each
    # with its own value, and the sweep must name the first one in eta order
    cfg = DpcConfig(P1=0.425373798350523, P2=3.5029165475800093, a1=0.619525342450582,
                    a2=-1.3262104689421488, b=-0.0529374740889792, rho=1.0)
    with pytest.raises(SingularCovarianceError) as want:
        reference.comparison_rows(cfg)
    with pytest.raises(SingularCovarianceError) as got:
        comparison_sweep(cfg)
    assert str(got.value) == str(want.value)


# -- internal checks --------------------------------------------------------------


def test_oracle_without_precoded_power_is_zero():
    assert numeric_dpc_oracle(replace(FIG_CFG, eta=0.0)) == OracleResult(0.0, 0.0, 0.0, 0.0, 0.0)


def test_oracle_spot_check_names_a_deviating_grid_point(monkeypatch):
    res = numeric_dpc_oracle(FIG_CFG)
    # every I(V; Z_k) reads 1 and I(V; Xu X1) reads 0, so gaussian_mi wants 1.0
    monkeypatch.setattr(dpc, "gaussian_mi",
                        lambda cov, left, right: 0.0 if right == {"Xu", "X1"} else 1.0)
    with pytest.raises(AssertionError) as err:
        numeric_dpc_oracle(FIG_CFG)
    assert str(err.value) == (
        f"batched oracle deviates from gaussian_mi at gamma={res.gamma_star}, "
        f"alpha={res.alpha_star}: {res.value} vs 1.0")


def test_sweep_rejects_md_below_cd(monkeypatch):
    best_x = _Lanes.best_x

    def lowered(self, scan_points):
        x_star, md = best_x(self, scan_points)
        return x_star, md - 1.0
    monkeypatch.setattr(_Lanes, "best_x", lowered)
    with pytest.raises(AssertionError) as err:
        comparison_sweep(FIG_CFG, eta_grid=5)
    assert str(err.value) == "MD rate fell below CD at eta=0.0: -1.0 < 0.0"
