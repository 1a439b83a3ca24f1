"""Time the four library calls ROADMAP.md quotes as baselines.

    python3 perfbench/baselines.py

Run from the repository root. Each call is timed REPEATS times after one
warm-up call; the median is printed raw and scaled to the reference machine
speed with the benchmark's calibration loop (see harness.scaled).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import harness  # noqa: E402
from run import import_program  # noqa: E402

REPEATS = 5

# (label, ROADMAP's figure in seconds)
ROADMAP = {
    "check_regime(VWI, samples=1000)": 0.6,
    "verify_fme_inner_bound, per instance": 0.012,
    "region_mp_wi(eta_grid=201, rho_grid=201)": 0.150,
    "comparison_sweep(eta_grid=101)": 0.3,
}


def calls():
    import numpy as np

    from mcifc import dmc_regions, dpc, gaussian
    from mcifc.info_theory import DmcChannel, sample_input_dist

    doc, _ = gen.passing_channel(np.random.default_rng(0), "multi_primary", "VWI", 2, 2)
    chan = DmcChannel.from_json_dict(doc)

    def regime():
        if not dmc_regions.check_regime(chan, "multi_primary", "VWI", samples=1000).passed:
            raise RuntimeError("the baseline channel must pass its very-weak check")

    # the instances `mcifc verify-fme --seed 0` draws
    rng = np.random.default_rng(0)
    instances = []
    for _ in range(20):
        aux = dmc_regions.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng))
        probs = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        instances.append((aux, DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)))

    def fme():
        for aux, ch in instances:
            dmc_regions.verify_fme_inner_bound(aux, ch)

    wi = gaussian.GaussianMultiPrimary((0.5, 0.8), 0.6, 1.0, 1.0)
    cfg = dpc.DpcConfig(3.0, 1.0, 0.75, -0.5, 0.1)
    return {
        "check_regime(VWI, samples=1000)": (regime, 1),
        "verify_fme_inner_bound, per instance": (fme, len(instances)),
        "region_mp_wi(eta_grid=201, rho_grid=201)": (lambda: gaussian.region_mp_wi(wi), 1),
        "comparison_sweep(eta_grid=101)": (lambda: dpc.comparison_sweep(cfg, 101), 1),
    }


def main() -> int:
    import_program(Path.cwd())
    print(f"{'call':44s} {'raw s':>9s} {'scaled s':>9s} {'ROADMAP s':>9s}")
    for label, (fn, per) in calls().items():
        fn()
        times, cals = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) / per)
            cals.append(harness.calibrate())
        raw = statistics.median(times)
        scaled = harness.scaled(raw, statistics.median(cals))
        print(f"{label:44s} {raw:9.4f} {scaled:9.4f} {ROADMAP[label]:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
