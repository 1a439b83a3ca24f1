"""Seeded inputs for the mcifc benchmark.

Two seeds are involved, and both are explicit arguments:

* `build_catalogue(seed)` draws, for every op kind, `cases_per_kind(kind)` CLI
  invocations (argv template plus input document) and records the input
  properties that drive their cost. The committed catalogue was built with
  `CATALOGUE_SEED` by `make_reference.py`, which also stored each case's
  reference output from the same commit.
* `plan(catalogue, workload, seed)` turns a run's `--seed` into the run's op
  list: a fixed number of ops of each kind (the workload's slots), each case
  drawn from one cost stratum of its kind's catalogue entries, in a seeded
  order.

The program only ever sees the generated input files and argv. Building the
catalogue needs `mcifc` (Gaussian regimes and screening depths are decided by
the program itself); planning a run does not.
"""

from __future__ import annotations

import gzip
import json
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATALOGUE_SEED = 20261017
DATA = Path(__file__).resolve().parent / "data"

# Argv placeholders, replaced by per-case paths in the run's work directory.
IN = "{in}"
OUT = "{out}"


@dataclass(frozen=True)
class Workload:
    why: str
    slots: dict[str, int]  # op kind -> ops of that kind per pass


WORKLOADS = {
    "fme-verify": Workload(
        "The only CLI path into exact-rational fme_project: verify-fme batches "
        "that never exit early and leave the Gaussian and DPC layers idle.",
        {"verify-fme": 10},
    ),
    "dmc-scan": Workload(
        "Capacity regions of channels that pass their regime check, plus "
        "counterexample searches: every sampled distribution is evaluated, so "
        "info_theory and frontier_union do most of the work.",
        {"cap-mp-vsi": 4, "cap-mp-vwi": 5, "cap-mp-mixed": 4, "cap-ms-vsi": 4,
         "cap-ms-vwi": 5, "cap-ms-mixed": 4, "counterexample": 2},
    ),
    "dmc-screen": Workload(
        "Near-boundary channels whose regime check fails at a seeded spread of "
        "depths: the same regime-check path as dmc-scan but with early exit, "
        "so CLI overhead dominates the median and MI work the tail.",
        {"screen-shallow": 40, "screen-mid": 24, "screen-deep": 24},
    ),
    "gaussian-dpc": Workload(
        "Gaussian capacity regions across regimes, classes, gain signs and "
        "receiver counts, plus DPC bound sweeps: closed-form evaluators and "
        "golden-section loops, with info_theory and FME idle.",
        {"region-mp-vsi": 6, "region-mp-wi": 6, "region-mp-wi-signs": 4,
         "region-mp-mixed": 4, "region-mp-mixed-signs": 3, "region-ms-vsi": 6,
         "dpc-compare": 8},
    ),
}


def cases_per_kind(kind: str) -> int:
    """Twice the slots any workload fills from the kind (at least 8), so two
    seeds share only part of their inputs."""
    slots = max(w.slots.get(kind, 0) for w in WORKLOADS.values())
    return max(8, 2 * slots)


# ---------------------------------------------------------------------------
# Discrete channels: products of per-output conditional laws p(o | x1, x2)
# ---------------------------------------------------------------------------


def _law(rng, x1: int, x2: int, card: int) -> np.ndarray:
    return rng.dirichlet(np.ones(card), size=(x1, x2))


def _garble(rng, law: np.ndarray, card: int) -> np.ndarray:
    """A garbling of `law`: its output passed through a random channel."""
    return law @ rng.dirichlet(np.ones(card), size=law.shape[-1])


def _channel_doc(x1: int, x2: int, outputs: list[tuple[str, np.ndarray]]) -> dict:
    probs = np.ones((x1, x2))
    for _, law in outputs:
        probs = np.einsum("ab...,abk->ab...k", probs, law)
    axes = [["X1", x1], ["X2", x2]] + [[n, int(law.shape[-1])] for n, law in outputs]
    return {"axes": axes, "probs": [float(p) for p in probs.reshape(-1)]}


def passing_channel(rng, klass: str, regime: str, n: int, card: int,
                    x1: int = 2, x2: int = 2) -> tuple[dict, str | None]:
    """A channel that meets the regime for every input distribution, by
    construction: very strong when every output shares one law, very weak when
    the receivers that must be weaker see garblings of the others, mixed when
    the strong side copies and the weak side garbles. Returns the channel
    document and the CLI partition ("strong|weak", 1-based) for mixed.

    The CLI treats any channel with exactly one Z output as multi-primary, so
    a multi-secondary channel needs n >= 2 to be checked as one."""
    base = _law(rng, x1, x2, card)
    partition = None
    if klass == "multi_primary":
        if regime == "VSI":
            ys = [base] * n
        elif regime == "VWI":
            ys = [_garble(rng, base, card) for _ in range(n)]
        else:
            strong = n // 2
            ys = [base] * strong + [_garble(rng, base, card) for _ in range(n - strong)]
            partition = (f"{','.join(str(j + 1) for j in range(strong))}|"
                         f"{','.join(str(j + 1) for j in range(strong, n))}")
        outputs = [(f"Y{j + 1}", y) for j, y in enumerate(ys)] + [("Z1", base)]
    else:
        if regime == "VSI":
            y, zs = base, [base] * n
        elif regime == "VWI":
            y, zs = _garble(rng, base, card), [base] * n
        else:
            # Z1..Z_weak see the base law, Y garbles it, the strong side copies Y
            y = _garble(rng, base, card)
            weak = n // 2
            zs = [base] * weak + [y] * (n - weak)
            partition = (f"{','.join(str(k + 1) for k in range(weak, n))}|"
                         f"{','.join(str(k + 1) for k in range(weak))}")
        outputs = [("Y1", y)] + [(f"Z{k + 1}", z) for k, z in enumerate(zs)]
    return _channel_doc(x1, x2, outputs), partition


def _capacity_case(rng, klass: str, regime: str, n_range, x2_choices) -> dict:
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    card = int(rng.integers(2, 4))
    x2 = int(rng.choice(x2_choices))
    doc, partition = passing_channel(rng, klass, regime, n, card, 2, x2)
    seed = int(rng.integers(0, 1000))
    argv = ["dmc-capacity", "--in", IN, "--out", OUT, "--regime", regime,
            "--samples", "40", "--budget", "40", "--seed", str(seed)]
    if partition:
        argv += ["--partition", partition]
    aux = 2 * x2 + 1 if regime != "VSI" else 0
    return {"argv": argv, "input": doc, "props": {
        "class": klass, "regime": regime, "receivers": n, "out_card": card,
        "x1": 2, "x2": x2, "aux_card": aux}}


# Screening channels mix a passing channel with an unstructured one; the
# weight w sets how far past the regime boundary the channel sits and thereby
# how deep into the checked distributions the first witness appears. The
# very-strong checks try a simplex grid whose vertices come first, so only
# very-weak channels reach the deeper bins. Deep cases all have two receivers
# and a narrow depth band, so their cost (which sets the tail) varies with
# depth and alphabet only.
SCREEN_BINS = {"screen-shallow": (1, 3), "screen-mid": (4, 60), "screen-deep": (300, 400)}
SCREEN_SAMPLES = 400


def _screen_case(rng, kind: str) -> dict | None:
    """A channel whose regime check first fails at a depth inside the kind's
    bin, found by bisecting log10(w) over [-4, 0]; None if it does not land."""
    lo, hi = SCREEN_BINS[kind]
    klass = str(rng.choice(["multi_primary", "multi_secondary"]))
    regime = str(rng.choice(["VSI", "VWI"])) if kind == "screen-shallow" else "VWI"
    n = 2 if kind == "screen-deep" else int(rng.integers(1 if klass == "multi_primary" else 2, 4))
    card = int(rng.integers(2, 4))
    good, _ = passing_channel(rng, klass, regime, n, card)
    cells = int(np.prod([k for _, k in good["axes"][2:]]))
    noise = rng.dirichlet(np.ones(cells), size=(2, 2)).reshape(-1)
    seed = int(rng.integers(0, 1000))
    argv = ["dmc-capacity", "--in", IN, "--out", OUT, "--regime", regime,
            "--samples", str(SCREEN_SAMPLES), "--seed", str(seed)]
    props = {"class": klass, "regime": regime, "receivers": n, "out_card": card,
             "x1": 2, "x2": 2, "aux_card": 5 if regime == "VWI" else 0}
    less, more = -4.0, 0.0  # log10 w: too little noise / too much noise
    for _ in range(12):
        log_w = 0.5 * (less + more)
        w = 10.0 ** log_w
        probs = (1.0 - w) * np.asarray(good["probs"]) + w * noise
        case = {"argv": argv, "input": {"axes": good["axes"],
                                        "probs": [float(p) for p in probs]},
                "props": dict(props, mix_weight=w)}
        depth = _screen_depth(case)
        if depth is not None and lo <= depth <= hi:
            case["props"]["depth"] = depth
            return case
        if depth is None or depth > hi:
            less = log_w
        else:
            more = log_w
    return None


def _screen_depth(case: dict) -> int | None:
    """Index of the first checked distribution that violates the regime, or
    None when the check passes (the depth a CLI run would report)."""
    from mcifc import dmc_regions
    from mcifc.info_theory import DmcChannel

    chan = DmcChannel.from_json_dict(case["input"])
    argv = case["argv"]
    rep = dmc_regions.check_regime(
        chan, case["props"]["class"], case["props"]["regime"],
        samples=int(argv[argv.index("--samples") + 1]),
        seed=int(argv[argv.index("--seed") + 1]),
    )
    return None if rep.passed else rep.samples_checked


def _gaussian_case(rng, klass: str, regime: str, n_range, mixed_signs: bool,
                   grid: int) -> dict:
    """Rejection-sample gains and powers until the program classifies the
    channel in `regime` (the classifier is closed form and exact)."""
    from mcifc import gaussian

    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        P1, P2 = (float(p) for p in rng.uniform(0.5, 4.0, 2))
        partition = None
        if klass == "multi_secondary":
            b = float(rng.uniform(1.2, 3.0))
            a = rng.uniform(1.5, 5.0, n)
            doc = {"class": klass, "b": b, "a": [float(x) for x in a], "P1": P1, "P2": P2}
            signs = "coherent"
        else:
            if regime == "VSI":
                b = rng.uniform(1.1, 2.5, n)
            elif regime == "WI":
                b = rng.uniform(0.2, 0.95, n)
            else:
                strong = n // 2
                b = np.concatenate([rng.uniform(1.1, 2.5, strong),
                                    rng.uniform(0.2, 0.95, n - strong)])
                partition = (tuple(range(strong)), tuple(range(strong, n)))
            a = float(rng.uniform(0.2, 2.0) if regime == "WI" else rng.uniform(1.5, 5.0))
            if mixed_signs:
                # force both signs among the receivers
                flip = rng.permutation(n)[: int(rng.integers(1, n))]
                b[flip] = -b[flip]
            doc = {"class": klass, "b": [float(x) for x in b], "a": a, "P1": P1, "P2": P2}
            signs = "mixed" if mixed_signs else "coherent"
        chan = gaussian.channel_from_json_dict(doc)
        if gaussian.classify_gaussian(chan, partition) != regime:
            continue
        argv = ["region", "--in", IN, "--out", OUT, "--grid", str(grid)]
        if partition is not None:
            argv += ["--partition", f"{','.join(str(j + 1) for j in partition[0])}|"
                                    f"{','.join(str(j + 1) for j in partition[1])}"]
        return {"argv": argv, "input": doc, "props": {
            "class": klass, "regime": regime, "receivers": n, "gain_signs": signs,
            "grid": grid}}


def _dpc_case(rng) -> dict:
    doc = {
        "P1": float(rng.uniform(0.5, 4.0)), "P2": float(rng.uniform(0.5, 3.0)),
        "a1": float(rng.uniform(-1.0, 1.0)), "a2": float(rng.uniform(-1.0, 1.0)),
        "b": float(rng.uniform(-0.9, 0.9)), "rho": float(rng.uniform(-0.5, 0.5)),
        "md_variant": str(rng.choice(["sqrt", "linear"])),
    }
    signs = "coherent" if doc["a1"] * doc["a2"] >= 0 else "mixed"
    return {"argv": ["dpc-compare", "--in", IN, "--out", OUT, "--grid", "101"],
            "input": doc, "props": {"class": "dpc", "receivers": 2,
                                    "gain_signs": signs, "grid": 101,
                                    "md_variant": doc["md_variant"]}}


# verify-fme at 60 instances covers the two constraint-system mismatches the
# README documents at --samples 100 (seed 3 index 51, seed 4 index 35).
FME_SAMPLES = 60


def _fme_case(rng, i: int) -> dict:
    """The i-th verify-fme batch: CLI seed i."""
    return {"argv": ["verify-fme", "--samples", str(FME_SAMPLES), "--seed", str(i),
                     "--out", OUT],
            "input": None, "props": {"instances": FME_SAMPLES, "cli_seed": i}}


def _counterexample_case(rng, i: int) -> dict:
    """The i-th counterexample search: CLI seed i, two primaries, ternary outputs."""
    return {"argv": ["counterexample", "--budget", "200", "--seed", str(i), "--out", OUT],
            "input": None, "props": {"budget": 200, "cli_seed": i, "receivers": 2,
                                     "out_card": 3}}


# kind -> builder(rng, index) of one case
KIND_BUILDERS = {
    "verify-fme": _fme_case,
    "counterexample": _counterexample_case,
    "cap-mp-vsi": lambda rng, i: _capacity_case(rng, "multi_primary", "VSI", (1, 3), [2]),
    "cap-mp-vwi": lambda rng, i: _capacity_case(rng, "multi_primary", "VWI", (1, 3), [2, 3]),
    "cap-mp-mixed": lambda rng, i: _capacity_case(rng, "multi_primary", "mixed", (2, 3), [2, 3]),
    "cap-ms-vsi": lambda rng, i: _capacity_case(rng, "multi_secondary", "VSI", (2, 3), [2]),
    "cap-ms-vwi": lambda rng, i: _capacity_case(rng, "multi_secondary", "VWI", (2, 3), [2, 3]),
    "cap-ms-mixed": lambda rng, i: _capacity_case(rng, "multi_secondary", "mixed", (2, 3), [2, 3]),
    "region-mp-vsi": lambda rng, i: _gaussian_case(rng, "multi_primary", "VSI", (1, 4), False, 201),
    "region-mp-wi": lambda rng, i: _gaussian_case(rng, "multi_primary", "WI", (1, 4), False, 201),
    "region-mp-wi-signs": lambda rng, i: _gaussian_case(rng, "multi_primary", "WI", (2, 4), True, 101),
    "region-mp-mixed": lambda rng, i: _gaussian_case(rng, "multi_primary", "mixed", (2, 4), False, 101),
    "region-mp-mixed-signs": lambda rng, i: _gaussian_case(rng, "multi_primary", "mixed", (3, 4), True, 21),
    "region-ms-vsi": lambda rng, i: _gaussian_case(rng, "multi_secondary", "VSI", (1, 4), False, 201),
    "dpc-compare": lambda rng, i: _dpc_case(rng),
}


def _kind_rng(seed: int, kind: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(kind.encode())])


def build_catalogue(seed: int = CATALOGUE_SEED) -> dict[str, list[dict]]:
    """Every kind's cases (argv template, input document, properties)."""
    cat: dict[str, list[dict]] = {}
    for kind, builder in KIND_BUILDERS.items():
        rng = _kind_rng(seed, kind)
        cases = [builder(rng, i) for i in range(cases_per_kind(kind))]
        for i, case in enumerate(cases):
            case["id"] = f"{kind}-{i}"
        cat[kind] = cases
    cat.update(_screen_catalogue(seed))
    return cat


def _screen_catalogue(seed: int) -> dict[str, list[dict]]:
    out = {}
    for kind in SCREEN_BINS:
        rng = _kind_rng(seed, kind)
        cases: list[dict] = []
        while len(cases) < cases_per_kind(kind):
            case = _screen_case(rng, kind)
            if case is not None:
                case["id"] = f"{kind}-{len(cases)}"
                cases.append(case)
        out[kind] = cases
    return out


def catalogue_path(workload: str) -> Path:
    """The committed file holding the cases of the workload's kinds."""
    return DATA / f"{workload}.json.gz"


def load_catalogue(workload: str) -> dict[str, list[dict]]:
    return json.loads(gzip.decompress(catalogue_path(workload).read_bytes()))["kinds"]


def plan(catalogue: dict[str, list[dict]], workload: str, seed: int) -> list[dict]:
    """One pass of the workload, in a seeded order. A kind filling n slots
    has its cases sorted by their reference cost and split into n strata of
    neighbouring cost; the pass takes one seeded case from each stratum, so
    two seeds get different inputs of matching cost."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    ops = []
    for kind, count in WORKLOADS[workload].slots.items():
        cases = sorted(catalogue[kind], key=lambda c: (c["cost_ms"], c["id"]))
        for stratum in np.array_split(np.arange(len(cases)), count):
            ops.append(cases[int(rng.choice(stratum))])
    return [ops[int(i)] for i in rng.permutation(len(ops))]


def describe(ops: list[dict]) -> dict:
    """Histograms of the cost-driving input properties of one pass."""
    hist: dict[str, Counter] = {}
    for case in ops:
        for key, value in case["props"].items():
            if key == "mix_weight":
                value = f"1e{int(np.floor(np.log10(value)))}"
            elif key == "depth":
                low = 2 ** int(np.log2(value))
                value = f"{low}-{2 * low - 1}"
            hist.setdefault(key, Counter())[str(value)] += 1
    return {k: dict(sorted(v.items())) for k, v in sorted(hist.items())}
