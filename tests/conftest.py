"""Shared builders for the test suite."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mcifc import dmc_regions as dr
from mcifc.info_theory import DmcChannel
from mcifc.polytope import (
    Frontier2D,
    IneqSystem,
    LinIneq,
    concave_envelope,
    frontier_union,
    grid_frontiers,
)


def random_channel(rng, x1=2, x2=2, outputs=(("Y1", 2), ("Z1", 2)), alpha=1.0):
    """Channel with iid Dirichlet transition rows."""
    sizes = tuple(k for _, k in outputs)
    cells = int(np.prod(sizes))
    probs = rng.dirichlet(np.full(cells, alpha), size=(x1, x2)).reshape(
        (x1, x2) + sizes
    )
    return DmcChannel(x1, x2, tuple(outputs), probs)


def shared_law_channel(rng, n_primary=2, x1=2, x2=2, card=2, enhance_first=False):
    """All outputs draw from one conditional law (iid copies), which provably
    satisfies both very-strong inequalities for every input distribution.
    With enhance_first, Y1 additionally sees a noisy function of (X1, X2)."""
    base = rng.dirichlet(np.ones(card), size=(x1, x2))
    outputs = []
    laws = []
    for j in range(n_primary):
        outputs.append((f"Y{j + 1}", card))
        laws.append(base)
    outputs.append(("Z1", card))
    laws.append(base)
    if enhance_first:
        extra = rng.dirichlet(np.ones(2), size=(x1, x2))
        outputs = [("Y1", card * 2)] + outputs[1:]
        law1 = np.einsum("abi,abj->abij", base, extra).reshape(x1, x2, card * 2)
        laws[0] = law1
    probs = None
    for law in laws:
        probs = law if probs is None else np.einsum(
            "ab...,abk->ab...k", probs, law
        )
    return DmcChannel(x1, x2, tuple(outputs), probs)


def degraded_pair_channel(rng, x1=2, x2=2, y_card=3, z_card=3):
    """Y1 gets a base law, Z a garbling of it, Y2 a copy of Z's law: provably
    very strong for every input distribution, while Y1 can strictly beat Z."""
    base = rng.dirichlet(np.ones(y_card), size=(x1, x2))
    garble = rng.dirichlet(np.ones(z_card), size=y_card)
    zlaw = base @ garble
    probs = np.einsum("abi,abj,abk->abijk", base, zlaw, zlaw)
    return DmcChannel(
        x1, x2, (("Y1", y_card), ("Y2", z_card), ("Z1", z_card)), probs
    )


def weak_family_channel(rng, x1=2, x2=2, card=3):
    """Every Y_j is a garbling of Z, so the weak-interference inequality holds
    for every joint by data processing."""
    zlaw = rng.dirichlet(np.ones(card), size=(x1, x2))
    g1 = rng.dirichlet(np.ones(card), size=card)
    g2 = rng.dirichlet(np.ones(card), size=card)
    y1 = zlaw @ g1
    y2 = zlaw @ g2
    probs = np.einsum("abi,abj,abk->abijk", y1, y2, zlaw)
    return DmcChannel(x1, x2, (("Y1", card), ("Y2", card), ("Z1", card)), probs)


def union_all(frontiers):
    """Balanced pairwise `frontier_union` of the frontiers: the union the
    capacity region convexifies, as an oracle for `concave_envelope` of the
    pieces themselves."""
    items = [f for f in frontiers if not f.is_empty]
    if not items:
        return Frontier2D(())
    while len(items) > 1:
        items = [
            frontier_union(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def per_joint_envelope(coeff_rows, bounds):
    """`polytope.grid_envelope` one joint at a time, as an oracle: the exact
    `integer_frontier` of each column (`grid_frontiers`), then
    `concave_envelope` of them all."""
    return concave_envelope(grid_frontiers(coeff_rows, bounds))


def per_joint_capacity_region(report, search):
    """`dmc_regions.dmc_capacity_region` one joint at a time, as an oracle:
    every chunk of the search's stream drawn and composed afresh, whatever
    the report kept, and `per_joint_envelope` of their bounds."""
    chan = report.chan
    sets = dr._receiver_sets(chan.outputs, *report.partition)
    axes = dr._input_axes(chan, report.regime)
    table = dr._REGIONS[report.klass, report.regime]
    frontiers = []
    rng = np.random.default_rng(search.seed)
    for rows, _ in dr._check_dists(axes, chan.outputs, search.samples, rng):
        batch = dr._compose(axes, rows, chan.outputs, chan.probs)
        frontiers += grid_frontiers(*dr._grid_rows(batch, sets, table))
    return concave_envelope(frontiers)


def is_trivially_true(iq: LinIneq) -> bool:
    return not iq.coeffs and iq.bound >= 0


def is_infeasible(iq: LinIneq) -> bool:
    return not iq.coeffs and iq.bound < 0


def scaled_key(iq: LinIneq) -> tuple:
    """Canonical key of a row, invariant under positive scaling."""
    if not iq.coeffs:
        return ("<const>",)
    lead = abs(iq.coeffs[0][1])
    return tuple((n, c / lead) for n, c in iq.coeffs)


def scaled_bound(iq: LinIneq) -> Fraction:
    lead = abs(iq.coeffs[0][1]) if iq.coeffs else Fraction(1)
    return iq.bound / lead


def _combine(pos: LinIneq, neg: LinIneq, var: str) -> LinIneq:
    """Nonnegative combination of a (+var) and a (-var) inequality killing var."""
    cp = pos.coeff(var)
    cn = neg.coeff(var)
    coeffs: dict[str, Fraction] = {}
    for n, c in pos.coeffs:
        if n != var:
            coeffs[n] = -cn * c
    for n, c in neg.coeffs:
        if n != var:
            coeffs[n] = coeffs.get(n, Fraction(0)) + cp * c
    bound = -cn * pos.bound + cp * neg.bound
    return LinIneq(tuple(coeffs.items()), bound)


def _dedupe(ineqs):
    """Drop trivially-true rows, duplicates, and positively-proportional
    dominated rows; an infeasible constant row short-circuits the system."""
    best: dict[tuple, LinIneq] = {}
    for iq in ineqs:
        if is_trivially_true(iq):
            continue
        if is_infeasible(iq):
            return [LinIneq((), Fraction(-1))]
        key = scaled_key(iq)
        cur = best.get(key)
        if cur is None or scaled_bound(iq) < scaled_bound(cur):
            best[key] = iq
    return list(best.values())


def fme_eliminate(sys: IneqSystem, var: str) -> IneqSystem:
    """Exact projection of the feasible set onto the variables without `var`,
    in `Fraction` arithmetic: a second, independent elimination that serves
    as the reference for `fme_project`.

    Pairs every (+var) row with every (-var) row, keeps var-free rows, then
    removes duplicate / trivially-dominated rows. An empty projection is a
    valid system; infeasibility surfaces as a constant row 0 <= negative.
    """
    if var not in sys.variables:
        raise ValueError(f"variable {var!r} not in system {sys.variables}")
    pos, neg, zero = [], [], []
    for iq in sys.inequalities:
        c = iq.coeff(var)
        if c > 0:
            pos.append(iq)
        elif c < 0:
            neg.append(iq)
        else:
            zero.append(iq)
    new = list(zero)
    for p in pos:
        for n in neg:
            new.append(_combine(p, n, var))
    variables = tuple(v for v in sys.variables if v != var)
    return IneqSystem(variables, tuple(_dedupe(new)))


def imbert_fme_project(sys, keep):
    """Fourier-Motzkin projection onto `keep` in `Fraction` arithmetic, one
    variable at a time, as an oracle for the projection cone of `fme_project`.

    Elimination order is chosen greedily to minimize the pos*neg pairing
    count. Each intermediate row carries the set of original rows it
    combines, and rows whose history exceeds (eliminated + 1) originals are
    dropped (Imbert's acceleration criterion). Each step keeps the tightest
    row per positively scaled direction; an infeasible system is the single
    row 0 <= -1.
    """
    keep_set = set(keep)
    unknown = keep_set - set(sys.variables)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    rows = [(iq, frozenset([i])) for i, iq in enumerate(sys.inequalities)]
    remaining = [v for v in sys.variables if v not in keep_set]
    eliminated = 0
    while remaining:
        # (variable, coefficient > 0) -> rows; stored coefficients are nonzero
        signs = Counter((n, c > 0) for iq, _ in rows for n, c in iq.coeffs)

        def pairing_cost(v):
            p, n = signs[v, True], signs[v, False]
            return p * n - p - n
        var = min(remaining, key=pairing_cost)
        remaining.remove(var)
        eliminated += 1
        pos, neg, zero = [], [], []
        for iq, hist in rows:
            c = iq.coeff(var)
            (pos if c > 0 else neg if c < 0 else zero).append((iq, hist))
        new = list(zero)
        for p, hp in pos:
            for n, hn in neg:
                hist = hp | hn
                if len(hist) > eliminated + 1:
                    continue
                new.append((_combine(p, n, var), hist))
        best = {}
        infeasible = None
        for iq, hist in new:
            if is_trivially_true(iq):
                continue
            if is_infeasible(iq):
                infeasible = (LinIneq((), Fraction(-1)), hist)
                break
            key = scaled_key(iq)
            cur = best.get(key)
            if (cur is None or scaled_bound(iq) < scaled_bound(cur[0])
                    or (scaled_bound(iq) == scaled_bound(cur[0]) and len(hist) < len(cur[1]))):
                best[key] = (iq, hist)
        if infeasible is not None:
            rows = [infeasible]
            break
        rows = list(best.values())
    variables = tuple(v for v in sys.variables if v in keep_set)
    return IneqSystem(variables, tuple(iq for iq, _ in rows))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
