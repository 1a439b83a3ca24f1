"""Scalar references for the lane-wise evaluators of `mcifc.gaussian` and
`mcifc.dpc`, and for the regime classification of `mcifc.gaussian`.

Here each bracket, R2 sample and power split is evaluated on its own, in
plain scalar code: the one-bracket golden-section loop, the per-sample
region evaluators and the per-eta DPC sweep. The tests require the lane-wise
results to equal these bit for bit, zero signs included. The classification
reference writes out each regime's conditions on its own, as
`classify_gaussian` did before VSI and WI became the all-strong and all-weak
splits of the mixed rule.
"""

from dataclasses import replace

import numpy as np

from mcifc.gaussian import (
    REGIME_TOL,
    CovMatrix,
    GaussianModelError,
    GaussianMultiPrimary,
    GaussianMultiSecondary,
    _no_partition,
    _validate_partition,
    _vsi_margin,
    gaussian_mi,
    half_log2,
)

from frontier_reference import monotone_frontier

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def bits(x) -> bytes:
    """Bit pattern of a float or of an array of floats (tells -0.0 from 0.0)."""
    return np.asarray(x, dtype=float).tobytes()


def golden_section(f, a: float, b: float, iters: int, tol: float = 0.0):
    """Golden-section bracket of a maximum of a unimodal f on [a, b]: the
    bracket after `iters` shrink steps, or earlier once it is narrower than
    tol."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        if b - a < tol:
            break
    return a, b


def golden_max(f, lo: float, hi: float, iters: int = 44):
    a, b = golden_section(f, lo, hi, iters, 1e-13 * max(1.0, abs(hi - lo)))
    xs = [lo, hi, 0.5 * (a + b)]
    vals = [f(x) for x in xs]
    k = int(np.argmax(vals))
    return xs[k], vals[k]


# -- Gaussian regimes, each written out on its own ------------------------------


def classify_gaussian(chan, partition=None) -> str:
    if isinstance(chan, GaussianMultiPrimary):
        if partition is not None:
            strong, weak = _validate_partition(chan.n_primary, partition)
        if all(abs(bj) >= 1.0 for bj in chan.b) and \
                _vsi_margin(chan.b, chan.a, chan.P1, chan.P2) <= REGIME_TOL:
            return "VSI"
        if all(abs(bj) <= 1.0 for bj in chan.b):
            return "WI"
        if partition is not None:
            ok = all(abs(chan.b[j]) >= 1.0 for j in strong) and \
                all(abs(chan.b[j]) <= 1.0 for j in weak)
            if ok and strong:
                bs = [chan.b[j] for j in strong]
                ok = _vsi_margin(bs, chan.a, chan.P1, chan.P2) <= REGIME_TOL
            if ok:
                return "mixed"
        return "none"
    if isinstance(chan, GaussianMultiSecondary):
        _no_partition(partition)
        if abs(chan.b) > 1.0:
            if all(
                _vsi_margin([chan.b], ak, chan.P1, chan.P2) <= REGIME_TOL
                for ak in chan.a
            ):
                return "VSI"
        if abs(chan.b) <= 1.0:
            return "WI"
        return "none"
    raise GaussianModelError(f"unsupported channel type {type(chan).__name__}")


# -- Gaussian regions, one R2 sample at a time ----------------------------------


def binding_eta(r2: float, P2: float) -> float:
    """Power split eta0 in [0, 1] at which 1/2 log2(1 + eta P2) equals r2."""
    return min(1.0, max(0.0, (4.0**r2 - 1.0) / P2)) if P2 > 0 else 0.0


def _grid(values, default_points):
    if values is None:
        return np.linspace(0.0, 1.0, default_points)
    if np.isscalar(values):
        return np.linspace(0.0, 1.0, int(values))
    return np.asarray(values, dtype=float)


def _r2_samples(chan, eta_like, r2_values, r2_cap):
    if r2_values is not None:
        qs = np.asarray(r2_values, dtype=float)
    else:
        qs = np.concatenate([
            np.array([half_log2(1 + e * chan.P2) for e in eta_like]),
            np.linspace(0.0, r2_cap, len(eta_like)),
        ])
    return np.unique(qs[(qs >= 0) & (qs <= r2_cap + 1e-12)].clip(max=r2_cap))


def _coherent(chan):
    return len({np.sign(bj) for bj in chan.b if bj != 0}) <= 1


def _sum_cap(chan, subset, rho, root):
    return min(
        half_log2(1 + chan.b[j] * chan.b[j] * chan.P2 + chan.P1 + 2 * chan.b[j] * rho * root)
        for j in subset
    )


def _wi_r1(chan, subset, eta, rho):
    P1, P2 = chan.P1, chan.P2
    root = np.sqrt(max(0.0, (1.0 - eta)) * P1 * P2)
    return min(
        half_log2((1 + chan.b[j] * chan.b[j] * P2 + P1 + 2 * chan.b[j] * rho * root)
                  / (1 + chan.b[j] * chan.b[j] * eta * P2))
        for j in subset
    )


def region_mp_vsi(chan, rho_grid=201, r2_values=None):
    P2 = chan.P2
    root = np.sqrt(chan.P1 * P2)
    every = range(chan.n_primary)
    _, r2_top = golden_max(
        lambda r: min(half_log2(1 + (1 - r * r) * P2), _sum_cap(chan, every, r, root)),
        -1.0, 1.0,
    )
    rhos = np.linspace(-1.0, 1.0, int(rho_grid))
    qs = _r2_samples(chan, 1.0 - rhos**2, r2_values, r2_top)
    pts = []
    for r2 in qs:
        rho0 = np.sqrt(1.0 - binding_eta(r2, P2))
        _, best = golden_max(lambda r: _sum_cap(chan, every, r, root), -rho0, rho0)
        pts.append((float(r2), best - r2))
    return monotone_frontier(pts)


def region_mp_wi(chan, eta_grid=201, r2_values=None):
    P2 = chan.P2
    subset = range(chan.n_primary)

    def g(eta):
        return golden_max(lambda r: _wi_r1(chan, subset, eta, r), -1.0, 1.0)[1]

    etas = _grid(eta_grid, 201)
    coherent = _coherent(chan)
    if not coherent:
        suffix_max = np.maximum.accumulate(np.array([g(e) for e in etas])[::-1])[::-1]
    qs = _r2_samples(chan, etas, r2_values, half_log2(1 + P2))
    pts = []
    for r2 in qs:
        eta0 = binding_eta(r2, P2)
        r1 = g(eta0)
        if not coherent:
            k = int(np.searchsorted(etas, eta0))
            if k < len(etas):
                r1 = max(r1, float(suffix_max[k]))
        pts.append((float(r2), r1))
    return monotone_frontier(pts)


def region_mp_mixed(chan, partition, eta_grid=201, r2_values=None):
    strong, weak = _validate_partition(chan.n_primary, partition)
    P1, P2 = chan.P1, chan.P2

    def h(eta, r2):
        def obj(rho):
            vals = []
            if weak:
                vals.append(_wi_r1(chan, weak, eta, rho))
            if strong:
                root = np.sqrt(max(0.0, 1.0 - eta) * P1 * P2)
                vals.append(_sum_cap(chan, strong, rho, root) - r2)
            return min(vals)
        return golden_max(obj, -1.0, 1.0)[1]

    etas = _grid(eta_grid, 201)
    coherent = _coherent(chan)
    coarse = etas[:: max(1, len(etas) // 16)]
    qs = _r2_samples(chan, etas, r2_values, half_log2(1 + P2))
    pts = []
    for r2 in qs:
        eta0 = binding_eta(r2, P2)
        r1 = h(eta0, r2)
        if not coherent:
            for e in coarse:
                if e > eta0:
                    r1 = max(r1, h(float(e), r2))
        pts.append((float(r2), max(r1, 0.0)))
    return monotone_frontier(pts)


def region_ms_vsi(chan, eta_grid=201, r2_values=None):
    P1, P2, b = chan.P1, chan.P2, chan.b

    def sum_cap(eta):
        return half_log2(1 + b**2 * P2 + P1
                         + 2 * abs(b) * np.sqrt(max(0.0, 1 - eta) * P1 * P2))

    _, r2_top = golden_max(lambda e: min(half_log2(1 + e * P2), sum_cap(e)), 0.0, 1.0)
    qs = _r2_samples(chan, _grid(eta_grid, 201), r2_values, r2_top)
    return monotone_frontier(
        (float(r2), sum_cap(binding_eta(r2, P2)) - r2) for r2 in qs
    )


# -- DPC bounds, one power split at a time --------------------------------------


def receiver_variances(cfg):
    c = cfg.rho * np.sqrt(cfg.P1 * cfg.P_u)
    return tuple(cfg.P2 + ak**2 * cfg.P1 + 2 * ak * c + 1.0 for ak in (cfg.a1, cfg.a2))


def md_dpc_rate(cfg, x, square=lambda v: v * v):
    v1, v2 = receiver_variances(cfg)
    P_v, P_u = cfg.P_v, cfg.P_u
    sq = np.sqrt(x + 1.0)
    p_of_x = (P_v - x) / sq
    mismatch = (
        cfg.P1 * (P_v + (1.0 - cfg.rho**2) * P_u + 1.0) * (cfg.a1 - cfg.a2) ** 2
        * p_of_x / ((P_v + 1.0) * square(np.sqrt(v1) + np.sqrt(v2)))
    )
    tail = sq if cfg.md_variant == "sqrt" else x + 1.0
    return max(0.0, half_log2(cfg.P_v + 1.0) - half_log2(mismatch + tail))


def optimize_md_x(cfg, scan_points=64):
    if cfg.P_v <= 0:
        return 0.0, md_dpc_rate(cfg, 0.0)
    xs = np.linspace(0.0, cfg.P_v, max(2, scan_points))
    vals = [md_dpc_rate(cfg, float(x)) for x in xs]
    i = int(np.argmax(vals))
    lo = xs[max(0, i - 1)]
    hi = xs[min(len(xs) - 1, i + 1)]
    a, b = golden_section(lambda x: md_dpc_rate(cfg, x), float(lo), float(hi), 60)
    cands = [(float(xs[i]), vals[i]), (0.5 * (a + b), md_dpc_rate(cfg, 0.5 * (a + b)))]
    cands.sort(key=lambda t: t[1])
    return cands[-1]


def r1_weak(cfg):
    num = cfg.b**2 * cfg.P2 + cfg.P1 \
        + 2 * cfg.b * cfg.rho * np.sqrt(cfg.P1 * cfg.P_u) + 1.0
    den = cfg.b**2 * cfg.eta * cfg.P2 + 1.0
    return max(0.0, half_log2(num / den))


def weak_outer_bound(cfg, eta_grid=201):
    P1, P2, b = cfg.P1, cfg.P2, cfg.b

    def r1_cap(eta):
        num = b**2 * P2 + P1 + 2 * abs(b) * np.sqrt((1 - eta) * P1 * P2) + 1.0
        return half_log2(num / (b**2 * eta * P2 + 1.0))

    r2_top = half_log2(1.0 + P2)
    qs = np.unique(np.concatenate([
        np.array([half_log2(1 + e * P2) for e in np.linspace(0, 1, eta_grid)]),
        np.linspace(0.0, r2_top, eta_grid),
    ]))
    return monotone_frontier(
        (float(r2), max(0.0, r1_cap(binding_eta(float(r2), P2)))) for r2 in qs
    )


def precoding_covariance(cfg, gamma, alpha):
    P1, Pu, Pv = cfg.P1, cfg.P_u, cfg.P_v
    c1u = cfg.rho * np.sqrt(cfg.P1 * cfg.P_u)
    m = np.zeros((5, 5))
    m[0, 0] = Pv + gamma * gamma * Pu + alpha * alpha * P1 + 2 * gamma * alpha * c1u
    m[1, 1] = P1
    m[2, 2] = Pu
    m[1, 2] = m[2, 1] = c1u
    m[0, 1] = m[1, 0] = gamma * c1u + alpha * P1
    m[0, 2] = m[2, 0] = gamma * Pu + alpha * c1u
    for pos, ak in ((3, cfg.a1), (4, cfg.a2)):
        m[pos, pos] = Pv + Pu + ak**2 * P1 + 2 * ak * c1u + 1.0
        m[0, pos] = m[pos, 0] = Pv + gamma * (Pu + ak * c1u) + alpha * (c1u + ak * P1)
        m[1, pos] = m[pos, 1] = c1u + ak * P1
        m[2, pos] = m[pos, 2] = Pu + ak * c1u
    m[3, 4] = m[4, 3] = Pv + Pu + cfg.a1 * cfg.a2 * P1 + (cfg.a1 + cfg.a2) * c1u
    return CovMatrix(("V", "X1", "Xu", "Z1", "Z2"), m)


def slot_rate(cfg, gamma, alpha, receiver):
    cov = precoding_covariance(cfg, gamma, alpha)
    z = "Z1" if receiver == 0 else "Z2"
    return max(0.0, gaussian_mi(cov, {"V"}, {z}) - gaussian_mi(cov, {"V"}, {"Xu", "X1"}))


def block_expansion_baseline(cfg):
    if cfg.P_v <= 0:
        return 0.0
    g = cfg.P_v / (cfg.P_v + 1.0)
    r = np.zeros((2, 2))  # [receiver, slot]
    for slot, ak in ((0, cfg.a1), (1, cfg.a2)):
        for receiver in (0, 1):
            r[receiver, slot] = slot_rate(cfg, g, ak * g, receiver)

    def worst(t):
        return min(t * r[0, 0] + (1 - t) * r[0, 1], t * r[1, 0] + (1 - t) * r[1, 1])

    ts = [0.0, 1.0]
    d0 = r[0, 0] - r[0, 1]
    d1 = r[1, 0] - r[1, 1]
    if abs(d0 - d1) > 1e-15:
        t_cross = (r[1, 1] - r[0, 1]) / (d0 - d1)
        if 0.0 < t_cross < 1.0:
            ts.append(float(t_cross))
    return max(worst(float(t)) for t in ts)


def comparison_rows(cfg, eta_grid=101, x_scan_points=64):
    """The rows of `comparison_sweep`, one eta at a time."""
    rows = []
    for eta in np.linspace(0.0, 1.0, eta_grid):
        sub = replace(cfg, eta=float(eta), x=0.0)
        x_star, md = optimize_md_x(sub, x_scan_points)
        rows.append({
            "eta": float(eta),
            "R1": r1_weak(sub),
            "R2_cd": md_dpc_rate(sub, 0.0),
            "R2_md": md,
            "x_star": float(x_star),
            "R2_block": block_expansion_baseline(sub),
            "R2_outer": half_log2(1.0 + eta * cfg.P2),
        })
    return rows
