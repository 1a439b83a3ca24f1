"""Dirty-paper-coding bounds for the two-receiver Gaussian secondary multicast
in weak interference: the common-description (CD) and multiple-description
(MD) lower bounds, a per-receiver-tuned time-sharing baseline (block
expansion), the weak-interference outer bound, a brute-force grid oracle for
the CD closed form, and the bound-comparison sweep.

Power split: the secondary power P2 goes P_u = (1-eta) P2 to the layer shared
with the primary and P_v = eta P2 to the precoded layer; x in [0, P_v] is the
private-description power of the MD scheme. All rates clamp at zero: a
negative closed form means the scheme is useless at that configuration, not
an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import (
    COV_RIDGE, CovMatrix, GaussianModelError, GaussianMultiPrimary, SingularCovarianceError,
    check_gains_and_powers, gaussian_mi, golden_section, half_log2, region_mp_wi,
)
from .polytope import Frontier2D

MD_VARIANTS = ("sqrt", "linear")


class DpcConfigError(ValueError):
    """Parameter outside its domain."""


@dataclass(frozen=True)
class DpcConfig:
    """All sweep parameters of the two-receiver DPC bounds.

    md_variant selects the additive penalty term of the MD closed form:
    "sqrt" is the primary sqrt(x+1) form; "linear" evaluates the (x+1)
    alternative for sensitivity analysis. Both coincide at x = 0.
    """

    P1: float
    P2: float
    a1: float
    a2: float
    b: float
    eta: float = 0.5
    rho: float = 0.0
    x: float = 0.0
    md_variant: str = "sqrt"

    def __post_init__(self):
        # Z_k = X2 + a_k X1 + n_k and Y = X1 + b X2 + n
        check_gains_and_powers(
            self, {"a1": (self.a1, "P1"), "a2": (self.a2, "P1"), "b": (self.b, "P2")},
            DpcConfigError)
        if not 0.0 <= self.eta <= 1.0:
            raise DpcConfigError(f"eta must lie in [0,1], got {self.eta}")
        if not -1.0 <= self.rho <= 1.0:
            raise DpcConfigError(f"rho must lie in [-1,1], got {self.rho}")
        _check_x(self.x, self.P_v)
        if self.md_variant not in MD_VARIANTS:
            raise DpcConfigError(f"md_variant must be one of {MD_VARIANTS}")

    @property
    def P_u(self) -> float:
        return (1.0 - self.eta) * self.P2

    @property
    def P_v(self) -> float:
        return self.eta * self.P2

    def to_json_dict(self) -> dict:
        return {
            "P1": self.P1, "P2": self.P2, "a1": self.a1, "a2": self.a2,
            "b": self.b, "eta": self.eta, "rho": self.rho, "x": self.x,
            "md_variant": self.md_variant,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DpcConfig":
        return cls(
            float(doc["P1"]), float(doc["P2"]), float(doc["a1"]),
            float(doc["a2"]), float(doc["b"]),
            eta=float(doc.get("eta", 0.5)), rho=float(doc.get("rho", 0.0)),
            x=float(doc.get("x", 0.0)),
            md_variant=str(doc.get("md_variant", "sqrt")),
        )


def _check_x(x: float, p_v: float) -> None:
    """The domain of the private-description power: x in [0, P_v], within
    1e-12 above."""
    if not 0.0 <= x <= p_v + 1e-12:
        raise DpcConfigError(f"x must lie in [0, P_v] = [0, {p_v}], got {x}")


class _Lanes:
    """`cfg` at L power splits at once, one lane per entry of `eta`: every
    attribute is an array over lanes. Each function of one configuration
    below is the 1-lane case (see `_one`); comparison_sweep runs all of its
    etas as lanes."""

    def __init__(self, cfg: DpcConfig, eta):
        self.cfg = cfg
        self.eta = eta = np.asarray(eta, dtype=float)
        self.P_u = (1.0 - eta) * cfg.P2
        self.P_v = eta * cfg.P2
        self.c1u = cfg.rho * np.sqrt(cfg.P1 * self.P_u)
        # Var(Z_k) = P2 + a_k^2 P1 + 2 a_k rho sqrt(P1 P_u) + 1
        self.v1, self.v2 = (
            cfg.P2 + ak**2 * cfg.P1 + 2 * ak * self.c1u + 1.0 for ak in (cfg.a1, cfg.a2)
        )
        # the x-free factors of the MD penalty's mismatch term, grouped as the
        # closed form groups them, so each lane rounds as a 1-lane call does
        self.scale = (cfg.P1 * (self.P_v + (1.0 - cfg.rho**2) * self.P_u + 1.0)
                      * (cfg.a1 - cfg.a2) ** 2)
        self.spread = (self.P_v + 1.0) * np.square(np.sqrt(self.v1) + np.sqrt(self.v2))
        self.clean = half_log2(self.P_v + 1.0)

    def r1(self) -> np.ndarray:
        cfg = self.cfg
        num = cfg.b**2 * cfg.P2 + cfg.P1 + 2 * cfg.b * cfg.rho * np.sqrt(cfg.P1 * self.P_u) + 1.0
        den = cfg.b**2 * self.eta * cfg.P2 + 1.0
        return np.fmax(0.0, half_log2(num / den))

    def md_objective(self):
        """The objective x -> MD rate at private-description power x[l, k] in
        lane l. Its x-free columns are built once; each call reads them."""
        scale, P_v, spread, clean = (
            v[:, None] for v in (self.scale, self.P_v, self.spread, self.clean))
        linear = self.cfg.md_variant != "sqrt"

        def rate(x):
            sq = np.sqrt(x + 1.0)
            mismatch = scale * ((P_v - x) / sq) / spread
            return np.fmax(0.0, clean - half_log2(mismatch + (x + 1.0 if linear else sq)))
        return rate

    def cd_rate(self) -> np.ndarray:
        if not np.all((self.v1 > 0) & (self.v2 > 0)):
            raise DpcConfigError("receiver variances must be positive")
        return self.md_objective()(np.zeros((len(self.eta), 1)))[:, 0]

    def best_x(self, scan_points: int) -> tuple[np.ndarray, np.ndarray]:
        """Best private-description power per lane: a bracketing scan, then
        60 golden-section steps in every lane at once."""
        n = max(2, scan_points)
        xs = _scan_points(self.P_v, n)
        rate = self.md_objective()
        vals = rate(xs)
        rows = np.arange(len(xs))
        i = np.argmax(vals, axis=1)

        def f(x):
            return rate(x[:, None])[:, 0]

        a, b = golden_section(f, xs[rows, np.maximum(0, i - 1)],
                              xs[rows, np.minimum(n - 1, i + 1)], 60)
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        # a stable sort of (scan, mid) by rate: the scan point wins only when
        # strictly better
        x_scan, f_scan = xs[rows, i], vals[rows, i]
        scan_wins = f_mid < f_scan
        x_star = np.where(scan_wins, x_scan, mid)
        md = np.where(scan_wins, f_scan, f_mid)
        # no precoded power: x = 0 (the scan's first point)
        idle = self.P_v <= 0
        return np.where(idle, 0.0, x_star), np.where(idle, vals[:, 0], md)

    def precoding(self, gamma: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Stack of covariance matrices of _PRECODING = (V, X1, Xu, Z1, Z2)
        with V = Xv + gamma Xu + alpha X1, one per lane."""
        cfg = self.cfg
        P1, Pu, Pv, c1u = cfg.P1, self.P_u, self.P_v, self.c1u
        m = np.zeros((len(self.eta), 5, 5))
        m[:, 0, 0] = Pv + gamma * gamma * Pu + alpha * alpha * P1 + 2 * gamma * alpha * c1u
        m[:, 1, 1] = P1
        m[:, 2, 2] = Pu
        m[:, 1, 2] = m[:, 2, 1] = c1u
        m[:, 0, 1] = m[:, 1, 0] = gamma * c1u + alpha * P1
        m[:, 0, 2] = m[:, 2, 0] = gamma * Pu + alpha * c1u
        for pos, ak in ((3, cfg.a1), (4, cfg.a2)):
            m[:, pos, pos] = Pv + Pu + ak**2 * P1 + 2 * ak * c1u + 1.0
            m[:, 0, pos] = m[:, pos, 0] = Pv + gamma * (Pu + ak * c1u) + alpha * (c1u + ak * P1)
            m[:, 1, pos] = m[:, pos, 1] = c1u + ak * P1
            m[:, 2, pos] = m[:, pos, 2] = Pu + ak * c1u
        m[:, 3, 4] = m[:, 4, 3] = Pv + Pu + cfg.a1 * cfg.a2 * P1 + (cfg.a1 + cfg.a2) * c1u
        return m

    def slot_rates(self, gamma: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """I(V; Z_k) - I(V; Xu X1) clamped at zero, receiver k by lane: each
        lane's covariance and I(V; Xu X1) are built once for both receivers.
        The MIs are taken in the order I(V; Z1), I(V; Xu X1), I(V; Z2), as
        evaluating receiver 1 and then receiver 2 takes them, so a 1-lane call
        fails where that would."""
        cov = CovMatrix(_PRECODING, self.precoding(gamma, alpha))
        to_z1 = gaussian_mi(cov, {"V"}, {"Z1"})
        shared = gaussian_mi(cov, {"V"}, {"Xu", "X1"})
        to_z2 = gaussian_mi(cov, {"V"}, {"Z2"})
        return np.fmax(0.0, np.stack([to_z1 - shared, to_z2 - shared]))

    def block(self) -> np.ndarray:
        """Block-expansion rate per lane (0 without precoded power), the
        slot fraction t taken from its three candidates: 0, 1 and the exact
        crossing."""
        out = np.zeros(len(self.eta))
        on = self.P_v > 0
        if not on.any():
            return out
        # lanes [:L] run slot 1 (alpha tuned to a1), lanes [L:] slot 2
        slots = _Lanes(self.cfg, np.tile(self.eta[on], 2))
        g = gamma_opt(slots)
        alpha = np.repeat([self.cfg.a1, self.cfg.a2], on.sum()) * g
        try:
            rates = slots.slot_rates(g, alpha)
        except (GaussianModelError, SingularCovarianceError):
            # raise the error a per-eta evaluation meets first: each eta's
            # slot 1, then its slot 2, one lane at a time. An out-of-range
            # covariance is named by its slot, its eta and the inputs
            for k in np.argsort(np.tile(np.arange(on.sum()), 2), kind="stable"):
                try:
                    _Lanes(self.cfg, slots.eta[k:k + 1]).slot_rates(g[k:k + 1], alpha[k:k + 1])
                except GaussianModelError as exc:
                    cfg = self.cfg
                    raise DpcConfigError(
                        f"slot {1 + k // on.sum()} covariance at eta = {slots.eta[k].item()!r} "
                        f"is out of range for P1 = {cfg.P1!r}, P2 = {cfg.P2!r}, "
                        f"a1 = {float(cfg.a1)!r}, a2 = {float(cfg.a2)!r}: {exc}") from exc
            raise
        # rate[receiver][slot], each a column over lanes
        rate = rates.reshape(2, 2, -1)[:, :, :, None]
        # both time-shared rates are affine in t, so the max of the worse one
        # lies at t = 0, t = 1 or their exact crossing
        d0 = rate[0][0] - rate[0][1]
        d1 = rate[1][0] - rate[1][1]
        ok = np.abs(d0 - d1) > 1e-15
        t_cross = np.divide(rate[1][1] - rate[0][1], d0 - d1, out=np.full(d0.shape, 2.0),
                            where=ok)
        ok &= (0.0 < t_cross) & (t_cross < 1.0)
        ts = np.array([0.0, 1.0])
        t = np.concatenate([np.broadcast_to(ts, (len(d0), len(ts))), t_cross], axis=1)
        # the worse receiver's rate at each t (min over the receiver axis),
        # -inf at a lane's missing crossing, then its max over t
        worst = (t * rate[:, 0] + (1 - t) * rate[:, 1]).min(axis=0)
        worst[~ok[:, 0], -1] = -np.inf
        out[on] = worst.max(axis=1)
        return out


_PRECODING = ("V", "X1", "Xu", "Z1", "Z2")


def _one(cfg: DpcConfig) -> _Lanes:
    return _Lanes(cfg, [cfg.eta])


def _scan_points(stop: np.ndarray, n: int) -> np.ndarray:
    """Row l is np.linspace(0.0, stop[l], n): numpy's rule for one call,
    including its branch for a zero step, applied per lane."""
    k = np.arange(n, dtype=float)
    step = stop[:, None] / (n - 1)
    y = np.where(step == 0, k / (n - 1) * stop[:, None], k * step) + 0.0
    y[:, -1] = stop
    return y


def r1_weak(cfg: DpcConfig) -> float:
    """Primary rate of the layered scheme,
    1/2 log2((b^2 P2 + P1 + 2 b rho sqrt(P1 (1-eta) P2) + 1) / (b^2 eta P2 + 1)),
    clamped at zero."""
    return float(_one(cfg).r1()[0])


def receiver_variances(cfg: DpcConfig) -> tuple[float, float]:
    """Var(Z_k) = P2 + a_k^2 P1 + 2 a_k rho sqrt(P1 P_u) + 1 for k = 1, 2."""
    lanes = _one(cfg)
    return float(lanes.v1[0]), float(lanes.v2[0])


def md_dpc_rate(cfg: DpcConfig, x: float | None = None) -> float:
    """Multiple-description DPC rate at private-description power x:
    1/2 log2(P_v + 1) - 1/2 log2(penalty), clamped at zero. x defaults to
    cfg.x; x = 0 reproduces cd_dpc_rate bit for bit."""
    if x is None:
        x = cfg.x
    _check_x(x, cfg.P_v)
    return float(_one(cfg).md_objective()(np.array([[x]], dtype=float))[0, 0])


def cd_dpc_rate(cfg: DpcConfig) -> float:
    """Common-description DPC rate (the MD form at x = 0)."""
    return float(_one(cfg).cd_rate()[0])


def gamma_opt(cfg) -> float:
    """Optimal scaling of the shared layer inside the precoding variable (per
    lane when given _Lanes)."""
    return cfg.P_v / (cfg.P_v + 1.0)


def alpha_opt_pair(cfg: DpcConfig) -> float:
    """Optimal common primary-interference scaling for the two receivers,
    (a2 sqrt(v1) + a1 sqrt(v2)) / (sqrt(v1)+sqrt(v2)) * P_v/(P_v+1)."""
    v1, v2 = receiver_variances(cfg)
    mix = (cfg.a2 * np.sqrt(v1) + cfg.a1 * np.sqrt(v2)) / (np.sqrt(v1) + np.sqrt(v2))
    return mix * gamma_opt(cfg)


def optimize_md_x(cfg: DpcConfig, scan_points: int = 64) -> tuple[float, float]:
    """Best private-description power: bracketing scan then golden section
    (the rate curve is monotone or unimodal in x)."""
    x_star, md = _one(cfg).best_x(scan_points)
    return float(x_star[0]), float(md[0])


def weak_outer_bound(cfg: DpcConfig, eta_grid: int = 201) -> Frontier2D:
    """Outer bound for |b| <= 1: union over eta of
        R1 <= 1/2 log2((b^2 P2 + P1 + 2|b| sqrt((1-eta) P1 P2) + 1)/(b^2 eta P2 + 1)),
        R2 <= 1/2 log2(eta P2 + 1),
    the weak-interference region of the one-primary channel with gain |b|
    (region_mp_wi): its layered ratio increases in rho, so the max over rho
    is the ratio at rho = 1, which the golden section probes exactly."""
    if abs(cfg.b) > 1.0:
        raise DpcConfigError("outer bound is stated for |b| <= 1")
    chan = GaussianMultiPrimary((abs(cfg.b),), 0.0, cfg.P1, cfg.P2)
    return region_mp_wi(chan, eta_grid, require_regime=False)


# ---------------------------------------------------------------------------
# Brute-force oracle and block-expansion baseline
# ---------------------------------------------------------------------------


def precoding_covariance(cfg: DpcConfig, gamma: float, alpha: float) -> CovMatrix:
    """Covariance of (V, X1, Xu, Z1, Z2) with V = Xv + gamma Xu + alpha X1."""
    m = _one(cfg).precoding(np.array([gamma], dtype=float), np.array([alpha], dtype=float))
    return CovMatrix(_PRECODING, m[0])


@dataclass(frozen=True)
class OracleResult:
    value: float
    gamma_star: float
    alpha_star: float
    gamma_step: float
    alpha_step: float


def numeric_dpc_oracle(cfg: DpcConfig, gamma_points: int = 201,
                       alpha_points: int = 201,
                       fixed_gamma: float | None = None) -> OracleResult:
    """Grid maximization of min_k [I(V; Z_k) - I(V; Xu X1)] over the
    precoding parameters of V = Xv + gamma Xu + alpha X1.

    The grid is gamma in [0, 1] and alpha in [-A, A] with
    A = max(|a1|, |a2|, 1). Mutual informations are log-det expressions of the
    explicit five-variable covariance, evaluated in batch; three grid points
    per call are cross-checked against gaussian_mi.

    With `fixed_gamma` the maximization runs over alpha alone at that shared
    layer scaling (plus a local refinement), which is the restricted scheme
    whose value the CD closed form describes. The unrestricted default can
    exceed the closed form: jointly re-optimizing gamma accounts for the
    residual mismatched primary interference acting as extra noise.
    """
    if gamma_points < 101 or alpha_points < 101:
        raise DpcConfigError("oracle grid must have at least 101 points per axis")
    if cfg.P_v <= 0:
        return OracleResult(0.0, 0.0, 0.0, 0.0, 0.0)
    lanes = _one(cfg)
    P1, Pu, Pv, c1u = cfg.P1, lanes.P_u[0], lanes.P_v[0], lanes.c1u[0]
    amax = max(abs(cfg.a1), abs(cfg.a2), 1.0)
    if fixed_gamma is None:
        gammas = np.linspace(0.0, 1.0, gamma_points)
    else:
        gammas = np.array([float(fixed_gamma)])
    alphas = np.linspace(-amax, amax, alpha_points)
    G, A = np.meshgrid(gammas, alphas, indexing="ij")

    var_v = Pv + G**2 * Pu + A**2 * P1 + 2 * G * A * c1u + COV_RIDGE
    rate = None
    for ak in (cfg.a1, cfg.a2):
        var_z = Pv + Pu + ak**2 * P1 + 2 * ak * c1u + 1.0 + COV_RIDGE
        cov_vz = Pv + G * (Pu + ak * c1u) + A * (c1u + ak * P1)
        det = np.maximum(var_v * var_z - cov_vz**2, 1e-300)
        i_vz = 0.5 * np.log2(var_v * var_z / det)
        rate = i_vz if rate is None else np.minimum(rate, i_vz)
    # conditioning on (Xu, X1) with the same diagonal ridge
    sxx = np.array([[Pu + COV_RIDGE, c1u], [c1u, P1 + COV_RIDGE]])
    det_s = sxx[0, 0] * sxx[1, 1] - sxx[0, 1] * sxx[1, 0]
    cov_v_xu = G * Pu + A * c1u
    cov_v_x1 = G * c1u + A * P1
    quad = (
        sxx[1, 1] * cov_v_xu**2 - 2 * sxx[0, 1] * cov_v_xu * cov_v_x1
        + sxx[0, 0] * cov_v_x1**2
    ) / det_s
    cond_var = np.maximum(var_v - quad, 1e-300)
    i_vux = 0.5 * np.log2(var_v / cond_var)
    obj = rate - i_vux
    k = np.unravel_index(int(np.argmax(obj)), obj.shape)
    value = float(obj[k])
    alpha_star = float(alphas[k[1]])
    alpha_step = float(alphas[1] - alphas[0])
    if fixed_gamma is not None:
        # refine alpha within one grid step (the alpha profile at fixed gamma
        # is a min of two smooth curves; the kink sits between grid points)
        def f(alpha: np.ndarray) -> np.ndarray:
            cov = CovMatrix(_PRECODING, lanes.precoding(gammas[:1], alpha))
            return np.minimum(
                gaussian_mi(cov, {"V"}, {"Z1"}), gaussian_mi(cov, {"V"}, {"Z2"})
            ) - gaussian_mi(cov, {"V"}, {"Xu", "X1"})
        a, b = golden_section(f, [max(-amax, alpha_star - alpha_step)],
                              [min(amax, alpha_star + alpha_step)], 50)
        mid = 0.5 * (a + b)
        fm = float(f(mid)[0])
        if fm > value:
            value, alpha_star = fm, float(mid[0])
    result = OracleResult(
        value, float(gammas[k[0]]), alpha_star,
        float(gammas[1] - gammas[0]) if len(gammas) > 1 else 0.0, alpha_step,
    )
    _spot_check_oracle(cfg, obj, gammas, alphas, (k, (0, 0), (-1, -1)))
    return result


def _spot_check_oracle(cfg, obj, gammas, alphas, idx_list):
    """Cross-check a few batched grid values against gaussian_mi."""
    for idx in idx_list:
        g, a = float(gammas[idx[0]]), float(alphas[idx[1]])
        cov = precoding_covariance(cfg, g, a)
        want = min(
            gaussian_mi(cov, {"V"}, {z}) for z in ("Z1", "Z2")
        ) - gaussian_mi(cov, {"V"}, {"Xu", "X1"})
        got = float(obj[idx])
        if abs(want - got) > 5e-7 * max(1.0, abs(want)):
            raise AssertionError(
                f"batched oracle deviates from gaussian_mi at gamma={g}, alpha={a}: "
                f"{got} vs {want}"
            )


def block_expansion_baseline(cfg: DpcConfig) -> float:
    """Time sharing of per-receiver-tuned CD-DPC slots.

    Slot k uses gamma = P_v/(P_v+1) and alpha tuned to a_k; receiver k then
    gets the clean rate while the other receiver decodes what it can. The
    slot fraction maximizes the worse time-shared rate (both slot rates are
    affine in t, so the max lies at t = 0, t = 1 or the exact crossing).
    """
    return float(_one(cfg).block()[0])


# ---------------------------------------------------------------------------
# Comparison sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("eta", "R1", "R2_cd", "R2_md", "x_star", "R2_block", "R2_outer")


def comparison_sweep(cfg: DpcConfig, eta_grid: int = 101) -> list[dict]:
    """Per-eta comparison of the bounds at `eta_grid` points of [0, 1]. Writes
    no files: `sweep_artifacts` gives the CSV and sidecar texts of the rows.

    Each row fixes eta, keeps cfg.rho, re-optimizes the MD power x (64-point
    scan), and records (R1, CD, best-x MD, block expansion, outer R2 cap).
    Raises if any row has MD below CD (that ordering is structural: x = 0 is
    in the scan).
    """
    etas = np.linspace(0.0, 1.0, eta_grid)
    # Huge powers or gains overflow the lanes' products to inf or nan. The
    # warnings numpy would print change no value, and silencing them is safe
    # only because the finiteness checks still reject such a sweep: CovMatrix
    # rejects its non-finite slot covariances, and no document makes the CLI
    # print a non-finite number (test_dpc_documents_never_print_a_non_finite_number).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lanes = _Lanes(cfg, etas)
        cd = lanes.cd_rate()
        x_star, md = lanes.best_x(64)
        below = np.flatnonzero(md < cd - 1e-12)
        if below.size:
            k = below[0]
            raise AssertionError(
                f"MD rate fell below CD at eta={etas[k]}: {md[k]} < {cd[k]}"
            )
        columns = (etas, lanes.r1(), cd, md, x_star, lanes.block(),
                   half_log2(1.0 + etas * cfg.P2))
    return [dict(zip(SWEEP_COLUMNS, vals)) for vals in zip(*(c.tolist() for c in columns))]


def sweep_summary(rows: list[dict]) -> dict:
    """The summary `dpc-compare` prints of a sweep's rows: the largest gain
    of MD over CD, and whether the CD and MD rates of every row lie below its
    outer R2 cap (within 1e-9)."""
    return {
        "max_md_minus_cd": max(r["R2_md"] - r["R2_cd"] for r in rows),
        "all_below_outer": all(
            r["R2_md"] <= r["R2_outer"] + 1e-9 and r["R2_cd"] <= r["R2_outer"] + 1e-9
            for r in rows),
    }


def sweep_artifacts(cfg: DpcConfig, rows: list[dict], out_path: str | Path) -> list:
    """(path, text) of the files a sweep writes: the CSV at `out_path`, then
    the JSON sidecar with the configuration at `<out_path>.json`."""
    out_path = Path(out_path)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(f"{row[c]:.12g}" for c in SWEEP_COLUMNS))
    sidecar = out_path.with_suffix(out_path.suffix + ".json")
    return [(out_path, "\n".join(lines) + "\n"),
            (sidecar, json.dumps(cfg.to_json_dict(), indent=1) + "\n")]
