"""Closed-form Gaussian rate regions for the multicast cognitive interference
channel, plus a covariance-algebra mutual-information helper that serves as
the numeric oracle for every closed form.

Channel models (all noise powers fixed to 1):

    multi-primary:    Y_j = b_j X2 + X1 + n_j,   Z = X2 + a X1 + n_z
    multi-secondary:  Y = X1 + b X2 + n,         Z_k = X2 + a_k X1 + n_k

Powers P1, P2 constrain the transmitters; eta in [0,1] splits the secondary
power between a decoded layer (eta P2) and a cooperative layer ((1-eta) P2);
rho in [-1,1] is the input correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .info_theory import clamp_mi
from .polytope import Frontier2D, frontier_intersect, monotone_frontier

# Ridge added to covariance diagonals before any determinant.
COV_RIDGE = 1e-12

# Slack for the closed-form regime inequalities (they often hold with equality).
REGIME_TOL = 1e-9

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class GaussianModelError(ValueError):
    """Invalid gains/powers, wrong regime, or a malformed partition."""


class SingularCovarianceError(ArithmeticError):
    """A conditional covariance stayed singular beyond the 1e-12 ridge."""


def half_log2(x: float) -> float:
    return 0.5 * np.log2(x)


def check_gain(name: str, g: float, error: type[ValueError]) -> None:
    """Raise `error` when the gain `name` = g is not finite, or when its
    square overflows a float: g**2 of a Python float then raises a bare
    OverflowError, once |g| > 1.34e154."""
    if not np.isfinite(g):
        raise error(f"gains must be finite, got {g}")
    if g * g == np.inf:
        raise error(f"gain {name} = {g!r} is too large: its square is non-finite")


def check_power(name: str, p: float, error: type[ValueError]) -> None:
    """Raise `error` when the power `name` = p is negative or not finite."""
    if not np.isfinite(p) or p < 0:
        raise error(f"power {name} must be finite and >= 0, got {p}")


def check_gains_and_powers(record, gains: dict[str, tuple[float, str]],
                           error: type[ValueError]) -> None:
    """The gain and power rule of the Gaussian channel records and of the DPC
    configuration: raise `error` on an invalid gain (see check_gain), then on
    an invalid power of `record` (see check_power), then on powers and gains
    whose products overflow: P1*P2, or a receiver's full-correlation power
    1 + g^2 P + P' + 2|g| sqrt(P1 P2), where `gains` maps each gain's name to
    (g, the name of the power P it scales) and P' is the other power. Each
    message names its fields. Store the powers of `record` as floats."""
    for name, (g, _) in gains.items():
        check_gain(name, g, error)
    for name in ("P1", "P2"):
        check_power(name, getattr(record, name), error)
    powers = {"P1": float(record.P1), "P2": float(record.P2)}
    P1, P2 = powers["P1"], powers["P2"]
    if not math.isfinite(P1 * P2):
        raise error(f"powers P1 = {P1!r} and P2 = {P2!r} are too large: P1*P2 is non-finite")
    root = math.sqrt(P1 * P2)
    for name, (g, scaled) in gains.items():
        other = "P2" if scaled == "P1" else "P1"
        if not math.isfinite(1 + g * g * powers[scaled] + powers[other] + 2 * abs(g) * root):
            raise error(
                f"gain {name} = {g!r} is too large for P1 = {P1!r} and P2 = {P2!r}: the "
                f"full-correlation power 1 + {name}^2*{scaled} + {other} "
                f"+ 2|{name}|*sqrt(P1*P2) is non-finite")
    object.__setattr__(record, "P1", P1)
    object.__setattr__(record, "P2", P2)


@dataclass(frozen=True)
class GaussianMultiPrimary:
    """Gains and powers of the one-secondary / N-primary Gaussian channel."""

    b: tuple[float, ...]
    a: float
    P1: float
    P2: float

    def __post_init__(self):
        b = tuple(float(x) for x in self.b)
        a = float(self.a)
        if not b:
            raise GaussianModelError("need at least one primary gain b_j")
        check_gains_and_powers(
            self, {**{f"b[{j}]": (g, "P2") for j, g in enumerate(b)}, "a": (a, "P1")},
            GaussianModelError)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    @property
    def n_primary(self) -> int:
        return len(self.b)

    def single(self, j: int) -> "GaussianMultiPrimary":
        return GaussianMultiPrimary((self.b[j],), self.a, self.P1, self.P2)

    def to_json_dict(self) -> dict:
        return {"class": "multi_primary", "b": list(self.b), "a": self.a,
                "P1": self.P1, "P2": self.P2}


@dataclass(frozen=True)
class GaussianMultiSecondary:
    """Gains and powers of the one-primary / M-secondary Gaussian channel."""

    b: float
    a: tuple[float, ...]
    P1: float
    P2: float

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = float(self.b)
        if not a:
            raise GaussianModelError("need at least one secondary gain a_k")
        check_gains_and_powers(
            self, {**{f"a[{k}]": (g, "P1") for k, g in enumerate(a)}, "b": (b, "P2")},
            GaussianModelError)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def to_json_dict(self) -> dict:
        return {"class": "multi_secondary", "b": self.b, "a": list(self.a),
                "P1": self.P1, "P2": self.P2}


def channel_from_json_dict(doc: dict):
    klass = doc.get("class")
    if klass == "multi_primary":
        return GaussianMultiPrimary(tuple(doc["b"]), doc["a"], doc["P1"], doc["P2"])
    if klass == "multi_secondary":
        return GaussianMultiSecondary(doc["b"], tuple(doc["a"]), doc["P1"], doc["P2"])
    raise GaussianModelError(f"unknown channel class {klass!r}")


# ---------------------------------------------------------------------------
# Covariance algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric PSD covariance over named jointly-Gaussian variables, or a
    stack of L such covariances (a matrix of shape (L, n, n)). Every check
    applies to each matrix of a stack."""

    names: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise GaussianModelError(f"duplicate variable names {names}")
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (len(names), len(names)):
            raise GaussianModelError("matrix shape does not match names")
        mt = np.swapaxes(m, -1, -2)
        if not np.allclose(m, mt, atol=1e-9):
            raise GaussianModelError("covariance must be symmetric")
        sym = 0.5 * (m + mt)
        if not np.isfinite(sym).all():
            raise GaussianModelError("covariance entries must be finite")
        if np.linalg.eigvalsh(sym).min() < -1e-9:
            raise GaussianModelError("covariance must be positive semidefinite")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "matrix", sym)

    def _idx(self, group: Iterable[str]) -> list[int]:
        pos = {n: i for i, n in enumerate(self.names)}
        out = []
        for n in group:
            if n not in pos:
                raise GaussianModelError(f"unknown variable {n!r}; have {self.names}")
            out.append(pos[n])
        return sorted(out)

    def _logdet(self, group: list[int]):
        if not group:
            return 0.0
        idx = np.array(group)
        sub = self.matrix[..., idx[:, None], idx] + COV_RIDGE * np.eye(len(group))
        sign, logdet = np.linalg.slogdet(sub)
        if (sign <= 0).any():
            raise SingularCovarianceError(
                "conditional covariance singular beyond the 1e-12 ridge"
            )
        return logdet


def gaussian_mi(cov: CovMatrix, left: Iterable[str], right: Iterable[str],
                given: Iterable[str] = ()):
    """I(left; right | given) in bits via the log-det ratio
    0.5*log2( |S_LG| |S_RG| / (|S_G| |S_LRG|) ): a float, or an array of L
    values for a stack of L covariances."""
    left, right, given = set(left), set(right), set(given)
    if left & right or left & given or right & given:
        raise GaussianModelError("left/right/given must be pairwise disjoint")
    lg = cov._idx(left | given)
    rg = cov._idx(right | given)
    lrg = cov._idx(left | right | given)
    g = cov._idx(given)
    nats = cov._logdet(lg) + cov._logdet(rg) - cov._logdet(g) - cov._logdet(lrg)
    bits = clamp_mi(0.5 * nats / np.log(2.0), SingularCovarianceError)
    return bits if bits.ndim else float(bits)


def full_correlation_covariance(chan: GaussianMultiPrimary, j: int, rho: float) -> CovMatrix:
    """Covariance of (X1, X2, Yj, Z) when the inputs are jointly Gaussian with
    correlation rho (the decode-everything scheme)."""
    P1, P2, a, bj = chan.P1, chan.P2, chan.a, chan.b[j]
    c12 = rho * np.sqrt(P1 * P2)
    # Y = bj X2 + X1 + n, Z = X2 + a X1 + nz
    names = ("X1", "X2", "Y", "Z")
    m = np.zeros((4, 4))
    m[0, 0] = P1
    m[1, 1] = P2
    m[0, 1] = m[1, 0] = c12
    m[0, 2] = m[2, 0] = bj * c12 + P1
    m[1, 2] = m[2, 1] = bj * P2 + c12
    m[0, 3] = m[3, 0] = c12 + a * P1
    m[1, 3] = m[3, 1] = P2 + a * c12
    m[2, 2] = bj**2 * P2 + P1 + 2 * bj * c12 + 1.0
    m[3, 3] = P2 + a**2 * P1 + 2 * a * c12 + 1.0
    m[2, 3] = m[3, 2] = bj * P2 + a * P1 + (1 + a * bj) * c12
    return CovMatrix(names, m)


def wi_input_covariance(chan: GaussianMultiPrimary, j: int, eta: float, rho: float) -> CovMatrix:
    """Covariance of (X1, Xu, Xv, Yj, Z) for the layered scheme X2 = Xu + Xv,
    Xv ~ N(0, eta P2) independent, (X1, Xu) correlated through rho."""
    P1, P2, a, bj = chan.P1, chan.P2, chan.a, chan.b[j]
    Pu = (1.0 - eta) * P2
    Pv = eta * P2
    c1u = rho * np.sqrt(P1 * Pu)
    names = ("X1", "Xu", "Xv", "Y", "Z")
    m = np.zeros((5, 5))
    m[0, 0] = P1
    m[1, 1] = Pu
    m[2, 2] = Pv
    m[0, 1] = m[1, 0] = c1u
    # Y = bj (Xu + Xv) + X1 + n
    m[0, 3] = m[3, 0] = bj * c1u + P1
    m[1, 3] = m[3, 1] = bj * Pu + c1u
    m[2, 3] = m[3, 2] = bj * Pv
    m[3, 3] = bj**2 * (Pu + Pv) + P1 + 2 * bj * c1u + 1.0
    # Z = (Xu + Xv) + a X1 + nz
    m[0, 4] = m[4, 0] = c1u + a * P1
    m[1, 4] = m[4, 1] = Pu + a * c1u
    m[2, 4] = m[4, 2] = Pv
    m[3, 4] = m[4, 3] = bj * (Pu + Pv) + a * P1 + (1 + a * bj) * c1u
    m[4, 4] = (Pu + Pv) + a**2 * P1 + 2 * a * c1u + 1.0
    return CovMatrix(names, m)


# ---------------------------------------------------------------------------
# Regime classification (exact, no sampling)
# ---------------------------------------------------------------------------


def _vsi_margin(bs: Sequence[float], a: float, P1: float, P2: float) -> float:
    """max over rho in [-1,1] of min_j of the very-strong-interference
    expression (1-a^2)P1 + (b_j^2-1)P2 + 2 rho (b_j - a) sqrt(P1 P2).

    Each expression is affine in rho, so the concave piecewise-linear min is
    maximized at rho = +-1 or at a pairwise crossing; those candidates decide
    the for-every-rho condition exactly.
    """
    root = np.sqrt(P1 * P2)
    consts = [(1 - a**2) * P1 + (bj**2 - 1) * P2 for bj in bs]
    slopes = [2 * (bj - a) * root for bj in bs]
    cands = {-1.0, 1.0}
    for (c1, s1), (c2, s2) in (
        ((consts[i], slopes[i]), (consts[j], slopes[j]))
        for i in range(len(bs)) for j in range(i + 1, len(bs))
    ):
        if s1 != s2:
            x = (c2 - c1) / (s1 - s2)
            if -1.0 < x < 1.0:
                cands.add(float(x))
    return max(min(c + s * x for c, s in zip(consts, slopes)) for x in cands)


def _validate_partition(n: int, partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if partition is None:
        raise GaussianModelError("mixed classification requires a partition")
    strong = tuple(int(i) for i in partition[0])
    weak = tuple(int(i) for i in partition[1])
    if sorted(strong + weak) != list(range(n)):
        raise GaussianModelError(
            f"partition {partition} must split receiver indices 0..{n - 1}"
        )
    return strong, weak


def _no_partition(partition) -> None:
    """A multi-secondary channel has one primary receiver: nothing to split."""
    if partition is not None:
        raise GaussianModelError("a partition applies to multi_primary channels only")


def classify_gaussian(chan, partition=None) -> str:
    """Regime of a Gaussian channel: "VSI", "WI", "mixed" or "none".

    The for-every-rho very-strong condition is decided in closed form (see
    _vsi_margin). Mixed classification is attempted only for a caller-supplied
    partition (strong_indices, weak_indices) of a multi-primary channel, which
    must split its receivers also where the regime ignores it.
    """
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


# ---------------------------------------------------------------------------
# Region evaluation
# ---------------------------------------------------------------------------


def golden_section(f, a, b, iters: int):
    """Golden-section brackets of the maxima of unimodal functions, one per
    lane.

    `a` and `b` hold L lanes, and f maps an array of L points, one per lane,
    to their L values. Each lane shrinks its own bracket for `iters` steps.
    Returns the brackets (a, b) as arrays.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        # fc >= fd keeps [a, d]: d moves to c and a new c is probed;
        # otherwise [c, b] stays: c moves to d and a new d is probed
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        span = _GOLDEN * (b - a)
        probe = np.where(left, b - span, a + span)
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return a, b


def binding_eta(r2: float, P2: float) -> float:
    """Power split eta0 in [0, 1] at which 1/2 log2(1 + eta P2) equals r2."""
    return min(1.0, max(0.0, (4.0**r2 - 1.0) / P2)) if P2 > 0 else 0.0


def _binding_etas(qs: np.ndarray, P2: float) -> np.ndarray:
    # one scalar call per sample: an array 4.0**qs rounds differently from
    # the scalar power in about 5% of draws
    return np.array([binding_eta(r2, P2) for r2 in qs], dtype=float)


def _golden_max(f, lo, hi):
    """Maxima of concave functions on [lo, hi], one per lane, after 44 golden
    steps; also probes the endpoints, so monotone objectives resolve to the
    exact boundary value."""
    a, b = golden_section(f, lo, hi, 44)
    return np.stack([f(x) for x in (lo, hi, 0.5 * (a + b))]).max(axis=0)


def _coherent(chan: GaussianMultiPrimary) -> bool:
    signs = {np.sign(bj) for bj in chan.b if bj != 0}
    return len(signs) <= 1


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D NaN-free array, bit for bit: sort, then keep the
    first element and each one that differs from its predecessor. Unlike
    np.unique it never imports numpy.ma or asks whether `x` is masked."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _r2_samples(chan, eta_like: np.ndarray, r2_values, r2_cap: float) -> np.ndarray:
    if r2_values is not None:
        qs = np.asarray(r2_values, dtype=float)
    else:
        qs = np.concatenate([
            half_log2(1 + eta_like * chan.P2),
            np.linspace(0.0, r2_cap, len(eta_like)),
        ])
    return sorted_unique(qs[(qs >= 0) & (qs <= r2_cap + 1e-12)].clip(max=r2_cap))


def _receiver_terms(chan: GaussianMultiPrimary, subset):
    """The rho-free terms of the receivers j in `subset`, as (N, 1) columns in
    subset order: b_j^2 (b_j * b_j); 1 + b_j^2 P2 + P1; and 2 b_j."""
    b = np.array(chan.b)[list(subset), None]
    sq = b * b
    return sq, 1 + sq * chan.P2 + chan.P1, 2 * b


def _sum_cap(chan: GaussianMultiPrimary, subset, root):
    """The objective rho -> min over j in subset of
    1/2 log2(1 + b_j^2 P2 + P1 + 2 b_j rho root), for `root` a scalar or one
    value per lane. Its rho-free terms are computed once; each call evaluates
    the receivers as one (N, L) array and takes its minimum over the receiver
    axis."""
    _, base, twice = _receiver_terms(chan, subset)

    def cap(rho):
        return half_log2(base + twice * rho * root).min(axis=0)
    return cap


def region_mp_vsi(chan: GaussianMultiPrimary, rho_grid: int = 201, r2_values=None,
                  require_regime: bool = True) -> Frontier2D:
    """Very-strong-interference capacity region of the multi-primary channel:
    union over rho of  R2 <= 1/2 log2(1 + (1-rho^2) P2),
                       R1+R2 <= min_j 1/2 log2(1+b_j^2 P2+P1+2 b_j rho sqrt(P1 P2)).

    Evaluated per R2 sample: the admissible rho interval is closed-form and
    the concave min_j sum-rate is maximized by golden section inside it, over
    all samples at once.
    """
    if require_regime and classify_gaussian(chan) != "VSI":
        raise GaussianModelError("channel is not in the very-strong regime")
    P2 = chan.P2
    root = np.sqrt(chan.P1 * P2)
    sum_cap = _sum_cap(chan, range(chan.n_primary), root)
    r2_top = _golden_max(
        lambda r: np.minimum(half_log2(1 + (1 - r * r) * P2), sum_cap(r)),
        np.array([-1.0]), np.array([1.0]),
    )
    etas = 1.0 - np.linspace(-1.0, 1.0, rho_grid)**2
    qs = _r2_samples(chan, etas, r2_values, r2_top[0])
    rho0 = np.sqrt(1.0 - _binding_etas(qs, P2))
    best = _golden_max(sum_cap, -rho0, rho0)
    return monotone_frontier(zip(qs.tolist(), (best - qs).tolist()))


def _wi_r1(chan: GaussianMultiPrimary, subset, eta):
    """The objective rho -> min over j in subset of the layered-scheme log
    ratio 1/2 log2((1 + b_j^2 P2 + P1 + 2 b_j rho sqrt((1-eta) P1 P2))
    / (1 + b_j^2 eta P2)), one lane per entry of `eta`. The root and the
    denominators are computed once, as (L,) and (N, L) arrays; each call
    evaluates the receivers as one (N, L) array, as _sum_cap does."""
    P1, P2 = chan.P1, chan.P2
    sq, base, twice = _receiver_terms(chan, subset)
    root = np.sqrt(np.maximum(0.0, 1.0 - eta) * P1 * P2)
    den = 1 + sq * eta * P2

    def r1(rho):
        return half_log2((base + twice * rho * root) / den).min(axis=0)
    return r1


def region_mp_wi(chan: GaussianMultiPrimary, eta_grid: int = 201, r2_values=None,
                 require_regime: bool = True) -> Frontier2D:
    """Weak-interference capacity region of the multi-primary channel:
    union over eta of  R2 <= 1/2 log2(1 + eta P2),
                       R1 <= max_rho min_j of the layered-scheme log ratio.

    For each R2 sample the binding power split eta0 is closed-form; a running
    maximum over the eta grid covers any non-monotone max-min behaviour under
    mixed-sign gains. One golden section runs over every eta0 and grid eta.
    """
    if require_regime and classify_gaussian(chan) != "WI":
        raise GaussianModelError("channel is not in the weak regime")
    P2 = chan.P2
    etas = np.linspace(0.0, 1.0, eta_grid)
    coherent = _coherent(chan)
    qs = _r2_samples(chan, etas, r2_values, half_log2(1 + P2))
    eta0 = _binding_etas(qs, P2)
    # mixed-sign gains: the max-min over rho need not decrease in eta, so the
    # grid values join the lanes for a running-maximum envelope
    lanes = eta0 if coherent else np.concatenate([eta0, etas])
    ones = np.ones(len(lanes))
    g = _golden_max(_wi_r1(chan, range(chan.n_primary), lanes), -ones, ones)
    r1 = g[:len(qs)]
    if not coherent:
        suffix_max = np.maximum.accumulate(g[len(qs):][::-1])[::-1]
        # a sample above the last grid eta finds the -inf pad
        suffix_max = np.append(suffix_max, -np.inf)
        r1 = np.maximum(r1, suffix_max[np.searchsorted(etas, eta0)])
    return monotone_frontier(zip(qs.tolist(), r1.tolist()))


def region_mp_mixed(chan: GaussianMultiPrimary, partition, eta_grid: int = 201,
                    r2_values=None, require_regime: bool = True) -> Frontier2D:
    """Mixed weak/very-strong capacity region of the multi-primary channel:
    union over (eta, rho) of
        R1 <= min over weak j of the layered log ratio,
        R2 <= 1/2 log2(1 + eta P2),
        R1 + R2 <= min over strong j of 1/2 log2(1+b_j^2 P2+P1+2 b_j rho sqrt((1-eta) P1 P2)).

    Each R2 sample binds at eta0; under mixed-sign gains the coarse-grid etas
    above eta0 are tried as well. One golden section runs over every
    (eta, R2) pair.
    """
    if require_regime and classify_gaussian(chan, partition) not in ("mixed", "WI", "VSI"):
        raise GaussianModelError("channel fails the mixed-regime conditions")
    strong, weak = _validate_partition(chan.n_primary, partition)
    P1, P2 = chan.P1, chan.P2
    etas = np.linspace(0.0, 1.0, eta_grid)
    coherent = _coherent(chan)
    coarse = etas[:: max(1, len(etas) // 16)]
    qs = _r2_samples(chan, etas, r2_values, half_log2(1 + P2))
    eta0 = _binding_etas(qs, P2)
    lane_eta, lane_r2 = eta0, qs
    if not coherent:
        above = coarse[None, :] > eta0[:, None]  # (sample, coarse eta) pairs to try
        lane_eta = np.concatenate([eta0, np.broadcast_to(coarse, above.shape)[above]])
        lane_r2 = np.concatenate([qs, np.broadcast_to(qs[:, None], above.shape)[above]])

    parts = []
    if weak:
        parts.append(_wi_r1(chan, weak, lane_eta))
    if strong:
        cap = _sum_cap(chan, strong, np.sqrt(np.maximum(0.0, 1.0 - lane_eta) * P1 * P2))
        parts.append(lambda rho: cap(rho) - lane_r2)

    def obj(rho):
        return np.minimum.reduce([part(rho) for part in parts])

    ones = np.ones(len(lane_eta))
    h = _golden_max(obj, -ones, ones)
    r1 = h[:len(qs)]
    if not coherent:
        tried = np.full(above.shape, -np.inf)
        tried[above] = h[len(qs):]
        r1 = np.maximum(r1, tried.max(axis=1))
    r1 = np.maximum(r1, 0.0)
    return monotone_frontier(zip(qs.tolist(), r1.tolist()))


def region_ms_vsi(chan: GaussianMultiSecondary, eta_grid: int = 201, r2_values=None,
                  require_regime: bool = True) -> Frontier2D:
    """Very-strong-interference capacity region of the multi-secondary channel:
    union over eta of  R2 <= 1/2 log2(1 + eta P2),
                       R1+R2 <= 1/2 log2(1+b^2 P2+P1+2|b| sqrt((1-eta) P1 P2)).

    The sum cap decreases in eta, so each R2 sample binds at eta0 exactly.
    """
    if require_regime and classify_gaussian(chan) != "VSI":
        raise GaussianModelError("channel is not in the very-strong regime")
    P1, P2, b = chan.P1, chan.P2, chan.b

    def sum_cap(eta):
        return half_log2(1 + b**2 * P2 + P1
                         + 2 * abs(b) * np.sqrt(np.maximum(0.0, 1 - eta) * P1 * P2))

    r2_top = _golden_max(
        lambda e: np.minimum(half_log2(1 + e * P2), sum_cap(e)),
        np.array([0.0]), np.array([1.0]),
    )
    etas = np.linspace(0.0, 1.0, eta_grid)
    qs = _r2_samples(chan, etas, r2_values, r2_top[0])
    return monotone_frontier(zip(qs.tolist(), (sum_cap(_binding_etas(qs, P2)) - qs).tolist()))


def region(chan, regime: str, partition=None, grid: int = 201, r2_values=None,
           require_regime: bool = True) -> Frontier2D:
    """Capacity-region frontier of `chan` in `regime` ("VSI", "WI" or
    "mixed"), from the evaluator of its class and regime, with `grid` as
    that evaluator's rho or eta grid and `partition` for the mixed one.
    Only the very-strong region is known for a multi-secondary channel."""
    # each evaluator is looked up by its module-level name at call time, so
    # a rebinding of that name (perfbench/harness.py's tracer) sees the call.
    # The lanes are evaluated as dpc.comparison_sweep evaluates its own: a
    # lane that still overflows to inf or nan prints no numpy warning, and
    # Frontier2D rejects its non-finite point by name.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(chan, GaussianMultiSecondary):
            _no_partition(partition)
            if regime != "VSI":
                raise GaussianModelError("only the very-strong regime region is available "
                                         "for multi_secondary channels")
            return region_ms_vsi(chan, grid, r2_values, require_regime)
        if regime == "VSI":
            return region_mp_vsi(chan, grid, r2_values, require_regime)
        if regime == "WI":
            return region_mp_wi(chan, grid, r2_values, require_regime)
        if regime == "mixed":
            return region_mp_mixed(chan, partition, grid, r2_values, require_regime)
    if regime == "none":
        raise GaussianModelError("channel is outside every covered regime")
    raise GaussianModelError(f"unknown regime {regime!r}")


def coherent_intersection_check(chan: GaussianMultiPrimary, regime: str,
                                partition=None) -> dict:
    """Compare the multicast region against the intersection of the single-pair
    (Z, Y_j) regions on a shared R2 grid, each region evaluated on its default
    201-point grid.

    Requires coherent gains (all b_j of one sign). Returns
    {"equal": bool, "max_gap": float} where the gap is the largest frontier
    height difference found and "equal" means a gap of at most 1e-6.
    """
    if not _coherent(chan):
        raise GaussianModelError("coherent check requires gains of one sign")
    mc = region(chan, regime, partition)
    qs = np.array([p[0] for p in mc.points])
    strong = _validate_partition(chan.n_primary, partition)[0] if regime == "mixed" else ()
    inter = None
    for j in range(chan.n_primary):
        # single-pair regions are evaluated by formula; only the multicast
        # channel as a whole is required to satisfy the regime conditions
        part = ((0,), ()) if j in strong else ((), (0,))
        fr = region(chan.single(j), regime, part, r2_values=qs, require_regime=False)
        inter = fr if inter is None else frontier_intersect(inter, fr)
    # Gap measured at the shared sample grid (where both sides are exact
    # evaluations) plus the domain ends; derived interpolation breakpoints
    # would only measure polyline density, not the regions.
    gaps = [0.0]
    test_qs = sorted(set(float(q) for q in qs) | {mc.r2_max, inter.r2_max})
    for q in test_qs:
        vm = mc.value(q)
        vi = inter.value(q)
        gaps.append(abs((vm if vm is not None else 0.0) - (vi if vi is not None else 0.0)))
    max_gap = float(max(gaps))
    return {"equal": max_gap <= 1e-6, "max_gap": max_gap}
