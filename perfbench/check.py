"""Correctness checks of one op's outputs against the committed reference.

Each check returns a list of problems; an empty list means the op is correct.
Frontiers are compared with the program's documented region equality
(mutual containment within 1e-9), DPC sweeps row by row within 1e-9,
verify-fme failure indices exactly. Counterexample witnesses are re-verified
with the program's own `verify_counterexample` (after their found flag is
compared with the reference's), and screening witnesses have
their violation margin recomputed here, independently of the program.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9


def check_op(case: dict, ref: dict, exit_code: int, stdout: str,
             artifacts: dict[str, bytes]) -> list[str]:
    if exit_code != ref["exit"]:
        return [f"exit {exit_code}, expected {ref['exit']}"]
    command = case["argv"][0]
    if "frontier" in ref:
        return _check_frontier(ref, artifacts)
    if command == "dpc-compare":
        return _check_sweep(ref, artifacts)
    if command == "verify-fme":
        return _check_fme(ref, artifacts)
    if command == "counterexample":
        return _check_witness(ref, stdout, artifacts)
    return _check_screen(case, stdout)


def _check_frontier(ref: dict, artifacts: dict[str, bytes]) -> list[str]:
    from mcifc.polytope import Frontier2D, region_equal

    got = Frontier2D.from_csv_text(artifacts["out.csv"].decode())
    want = Frontier2D.from_csv_text(ref["frontier"])
    return [] if region_equal(got, want, TOL) else ["frontier differs from reference"]


def _check_sweep(ref: dict, artifacts: dict[str, bytes]) -> list[str]:
    got = artifacts["out.csv"].decode().splitlines()
    want = ref["csv"].splitlines()
    if got[0] != want[0] or len(got) != len(want):
        return ["sweep header or row count differs from reference"]
    a = np.array([[float(v) for v in line.split(",")] for line in got[1:]])
    b = np.array([[float(v) for v in line.split(",")] for line in want[1:]])
    problems = []
    if not np.all(np.abs(a - b) <= TOL):
        problems.append(f"sweep rows differ from reference by {np.max(np.abs(a - b)):.3g}")
    if artifacts["out.csv.json"].decode() != ref["sidecar"]:
        problems.append("sweep sidecar differs from reference")
    return problems


def _check_fme(ref: dict, artifacts: dict[str, bytes]) -> list[str]:
    report = json.loads(artifacts["out.json"])
    if report["failures"] != ref["failures"] or report["instances"] != ref["instances"]:
        return [f"verify-fme failures {report['failures']}, expected {ref['failures']}"]
    return []


def _check_witness(ref: dict, stdout: str, artifacts: dict[str, bytes]) -> list[str]:
    from mcifc.dmc_regions import CounterexampleWitness, verify_counterexample

    found = json.loads(stdout)["found"]
    if found != ref["found"]:
        return [f"counterexample found={found}, expected {ref['found']}"]
    if not found:
        return []
    if "out.json" not in artifacts:
        return ["counterexample reports a witness but wrote no out.json"]
    witness = CounterexampleWitness.from_json_dict(json.loads(artifacts["out.json"]))
    return [] if verify_counterexample(witness) else ["witness fails verify_counterexample"]


def _check_screen(case: dict, stdout: str) -> list[str]:
    from mcifc.dmc_regions import VIOLATION_TOL

    report = json.loads(stdout)["report"]
    witness = report["witness"]
    if report["passed"] or witness is None:
        return ["screening check passed; a witness was expected"]
    margin = violation_margin(case["input"], case["props"]["class"],
                              witness["dist"], witness["receiver"], witness["condition"])
    problems = []
    if not margin > VIOLATION_TOL:
        problems.append(f"recomputed witness margin {margin:.3g} is not a violation")
    if abs(margin - witness["margin"]) > TOL:
        problems.append(f"witness margin {witness['margin']} recomputes as {margin}")
    return problems


# ---------------------------------------------------------------------------
# Independent margin recomputation for the very-strong / very-weak checks
# ---------------------------------------------------------------------------


def _joint(chan: dict, dist: dict) -> tuple[np.ndarray, list[str]]:
    """p(inputs..., outputs...) of `dist` over (U,) X1, X2 pushed through the
    channel."""
    c_names = [n for n, _ in chan["axes"]]
    c = np.asarray(chan["probs"]).reshape([k for _, k in chan["axes"]])
    d_names = [n for n, _ in dist["axes"]]
    d = np.asarray(dist["probs"]).reshape([k for _, k in dist["axes"]])
    if d_names[0] == "U":
        joint = np.einsum("uab,ab...->uab...", d, c)
    else:
        joint = np.einsum("ab,ab...->ab...", d, c)
    return joint, d_names + c_names[2:]


def _mi(joint: np.ndarray, names: list[str], left, right, given=()) -> float:
    """I(left; right | given) in bits from subset entropies."""
    def h(keep):
        drop = tuple(i for i, n in enumerate(names) if n not in keep)
        p = joint.sum(axis=drop).reshape(-1)
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    lg, rg, g = set(left) | set(given), set(right) | set(given), set(given)
    return h(lg) + h(rg) - h(lg | rg) - (h(g) if g else 0.0)


def violation_margin(chan: dict, klass: str, dist: dict, receiver: str,
                     condition: str) -> float:
    """Margin of one very-strong or very-weak inequality at one receiver (the
    conditions `check_regime` tests for those regimes). Writing `a` for the
    side that must be stronger (a primary receiver, or the one Y) and `b` for
    the other (the one Z, or a secondary receiver), a positive margin means
    the inequality fails."""
    joint, names = _joint(chan, dist)
    outs = names[len(dist["axes"]):]
    ys = [n for n in outs if n.startswith("Y")]
    if klass == "multi_primary":
        a, b = receiver, next(n for n in outs if n.startswith("Z"))
    else:
        a, b = ys[0], receiver

    def mi(left, right, given=()):
        return _mi(joint, names, left, right, given)

    if condition == "strong":
        return mi(["X2"], [b], ["X1"]) - mi(["X2"], [a], ["X1"])
    if condition == "very_strong":
        best = min(mi(["X1", "X2"], [y]) for y in ys)
        return best - mi(["X1", "X2"], [b])
    if condition == "weak":
        return mi(["U"], [a], ["X1"]) - mi(["U"], [b], ["X1"])
    if condition == "very_weak":
        return mi(["U", "X1"], [a]) - mi(["U", "X1"], [b])
    raise ValueError(f"no independent recomputation for condition {condition!r}")
