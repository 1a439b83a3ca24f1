import gzip
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcifc.cli import CliValidationError, _parse_partition, run

CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def wi_chan(tmp_path):
    return write(tmp_path / "wi.json",
                 {"class": "multi_primary", "b": [0.5, 0.9], "a": 0.3,
                  "P1": 1.0, "P2": 2.0})


def test_classify_stdout_json(wi_chan, capsys):
    assert run(["classify", "--in", wi_chan]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"regime": "WI"}


def test_classify_rejects_bad_schema(tmp_path, capsys):
    path = write(tmp_path / "bad.json", {"class": "multi_primary", "b": []})
    assert run(["classify", "--in", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "schema" in err["error"]


@pytest.mark.parametrize("name", ["absent.json", "."], ids=["missing", "directory"])
def test_unreadable_input_is_validation_error(name, tmp_path, capsys):
    path = tmp_path / name
    assert run(["classify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith(f"cannot read {path}: ")


def test_region_writes_deterministic_csv(wi_chan, tmp_path, capsys):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run(["region", "--in", wi_chan, "--out", str(out1), "--grid", "41"]) == 0
    assert run(["region", "--in", wi_chan, "--out", str(out2), "--grid", "41"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("R2,R1\n")
    capsys.readouterr()


def test_region_regime_mismatch_is_validation_error(wi_chan, tmp_path, capsys):
    assert run(["region", "--in", wi_chan, "--out", str(tmp_path / "x.csv"),
                "--regime", "VSI"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "classifies" in err["error"]


@pytest.mark.parametrize("doc", [
    {"class": "multi_primary", "b": [0.5, 0.9], "a": 0.3, "P1": 1e155, "P2": 1e155},
    {"class": "multi_primary", "b": [0, 1], "a": 1e300, "P1": 1e300, "P2": 1e300},
])
def test_region_rejects_a_non_finite_frontier(doc, tmp_path, capsys):
    # P1 * P2 overflows to inf in the first, a's square in the second, and
    # the WI frontier would hold NaN rates: the channel record rejects both
    out = tmp_path / "r.csv"
    with np.errstate(all="ignore"):
        code = run(["region", "--in", write(tmp_path / "big.json", doc), "--out", str(out),
                    "--grid", "5"])
    assert code == 1 and not out.exists()
    assert "non-finite" in json.loads(capsys.readouterr().err)["error"]


# finite floats over the whole range, subnormals included; gains also in
# [-4, 4] and powers as powers of ten, so that some products overflow
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-4, 4))
_POWER = st.one_of(_FINITE.map(abs), st.integers(-320, 308).map(lambda e: float(f"1e{e}")))
_GAUSSIAN_DOCS = st.one_of(
    st.fixed_dictionaries({"class": st.just("multi_primary"),
                           "b": st.lists(_FINITE, min_size=1, max_size=4), "a": _FINITE,
                           "P1": _POWER, "P2": _POWER}),
    st.fixed_dictionaries({"class": st.just("multi_secondary"), "b": _FINITE,
                           "a": st.lists(_FINITE, min_size=1, max_size=4),
                           "P1": _POWER, "P2": _POWER}),
)


def _no_non_finite_output(argv, out):
    """Run argv: every finite document is computed or rejected (exit 0, 1 or
    2, no exception escapes), and neither stdout nor the artifacts at `out`
    and `out`.json hold nan or inf."""
    stdout = io.StringIO()
    with np.errstate(all="ignore"), redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)
    written = stdout.getvalue() + "".join(
        path.read_text() for path in (out, out.with_name(out.name + ".json")) if path.exists())
    assert not re.search(r"(?i)\b(nan|inf|infinity)\b", written), (argv, written)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=_GAUSSIAN_DOCS)
def test_gaussian_documents_never_print_a_non_finite_number(doc, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("doc")
    path, out = write(tmp / "doc.json", doc), tmp / "r.csv"
    for argv in (["classify", "--in", path], ["region", "--in", path, "--out", str(out),
                                              "--grid", "5"]):
        _no_non_finite_output(argv, out)


_HUGE_B = {"class": "multi_primary", "P1": 1e-63, "P2": 1e59, "a": -1.194e174,
           "b": [4.84e40, -2.30e16, 3.05, 2.47e181]}


_SQUARE = "its square is non-finite"


@pytest.mark.parametrize("doc, argv, field, why", [
    (_HUGE_B, ["classify"], "b[3] = 2.47e+181", _SQUARE),
    (_HUGE_B, ["region", "--out", "{out}", "--grid", "5"], "b[3] = 2.47e+181", _SQUARE),
    ({"P1": 1, "P2": 1, "a1": 2e160, "a2": 0.5, "b": 0.3},
     ["dpc-compare", "--out", "{out}", "--grid", "3"], "a1 = 2e+160", _SQUARE),
    ({"class": "multi_primary", "b": [0.5, 1e150], "a": 0.3, "P1": 1e10, "P2": 1e10},
     ["classify"], "b[1] = 1e+150",
     "full-correlation power 1 + b[1]^2*P2 + P1 + 2|b[1]|*sqrt(P1*P2) is non-finite"),
    ({"class": "multi_secondary", "b": 0.5, "a": [2, 1e150], "P1": 1e10, "P2": 1e10},
     ["classify"], "a[1] = 1e+150",
     "full-correlation power 1 + a[1]^2*P1 + P2 + 2|a[1]|*sqrt(P1*P2) is non-finite"),
    # it read "covariance entries must be finite", naming no input
    ({"P1": 1.6618291946883367e+133, "P2": 4, "a1": 1.6618291946883367e+133, "a2": 1e-10,
      "b": 4}, ["dpc-compare", "--out", "{out}", "--grid", "3"],
     "a1 = 1.6618291946883367e+133",
     "full-correlation power 1 + a1^2*P1 + P2 + 2|a1|*sqrt(P1*P2) is non-finite"),
], ids=["classify", "region", "dpc-compare", "primary-power", "secondary-power",
        "dpc-power"])
def test_a_gain_whose_square_overflows_is_named(doc, argv, field, why, tmp_path, capsys):
    # Python's float g**2 raises OverflowError once |g| > 1.34e154; a finite
    # square can still overflow a receiver's power
    out = tmp_path / "out.csv"
    argv = [a.format(out=out) for a in argv] + ["--in", write(tmp_path / "doc.json", doc)]
    assert run(argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"gain {field} is too large" in error and "OverflowError" not in error
    assert error.endswith(why)
    assert not out.exists()


# every product of the inputs is finite, but the slot covariances hold
# entries of order P1 = 9.4e307, and the sums m + m^T by which CovMatrix
# symmetrizes them overflow to inf, which its finiteness check rejects
# before eigvalsh sees them
_OVERFLOWING_DPC = {"P1": 9.42006863647229e+307, "P2": 6.019191066177432e-07,
                    "a1": -0.0023188584982598653, "a2": 0.5850438605360768,
                    "b": -3.4379835266746666}


def test_dpc_powers_whose_product_overflows_are_named(tmp_path, capsys):
    # it read "receiver variances must be positive", naming no input
    doc = {"P1": 1e308, "P2": 1e308, "a1": 1, "a2": 0.5, "b": 4}
    out = tmp_path / "out.csv"
    code = run(["dpc-compare", "--in", write(tmp_path / "doc.json", doc), "--out", str(out),
                "--grid", "3"])
    assert code == 1 and not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == (
        "DpcConfigError: powers P1 = 1e+308 and P2 = 1e+308 are too large: P1*P2 is non-finite")


def _slot_error(doc, reason: str) -> str:
    """The error of `dpc-compare --grid 3` on `doc` whose first block slot,
    at eta = 0.5, has an out-of-range covariance."""
    return (f"DpcConfigError: slot 1 covariance at eta = 0.5 is out of range for "
            f"P1 = {float(doc['P1'])!r}, P2 = {float(doc['P2'])!r}, a1 = {doc['a1']!r}, "
            f"a2 = {doc['a2']!r}: {reason}")


@pytest.mark.parametrize("doc, reason", [
    # it read "GaussianModelError: covariance entries must be finite"
    (_OVERFLOWING_DPC, "covariance entries must be finite"),
    # every input passes the gain and power rule, but a1^2 P1 swamps the
    # slot covariance: it read "GaussianModelError: covariance must be
    # positive semidefinite"
    ({"P1": 4, "P2": 4, "a1": 1.6618291946883367e+133, "a2": 1e-10, "b": 4},
     "covariance must be positive semidefinite"),
], ids=["non-finite", "indefinite"])
def test_an_out_of_range_slot_covariance_names_its_inputs(doc, reason, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with np.errstate(all="ignore"):
        code = run(["dpc-compare", "--in", write(tmp_path / "doc.json", doc),
                    "--out", str(out), "--grid", "3"])
    assert code == 1 and not out.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == _slot_error(doc, reason)


def _error_line_alone(argv, doc, tmp_path) -> str:
    """Run argv on `doc` in a fresh interpreter, where numpy's overflow and
    invalid-value warnings would print ahead of the error line: it exits 1,
    writes no artifact and nothing to stdout, and its stderr is exactly one
    JSON error line. Returns the error."""
    import mcifc

    env = dict(os.environ, PYTHONPATH=str(Path(mcifc.__file__).resolve().parent.parent))
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mcifc.cli", *argv, "--in", write(tmp_path / "doc.json", doc),
         "--out", str(out)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    error = json.loads(proc.stderr)["error"]
    assert proc.stderr == json.dumps({"error": error}) + "\n"
    assert not out.exists()
    return error


# sqrt(v1) + sqrt(v2) passes 1.34e154, so its square in `_Lanes` is past the
# float range: Python's float power raised a bare OverflowError on it
_OVERFLOWING_SQUARE_DPC = {"P1": 0.936501157619734, "P2": 1.2623787689700171e+308,
                           "a1": -1.8678313800670132, "a2": 3.01101790759392,
                           "b": -0.8699614685787047}


def test_an_overflowing_sweep_prints_its_error_line_alone(tmp_path):
    for doc in (_OVERFLOWING_DPC, _OVERFLOWING_SQUARE_DPC):
        error = _error_line_alone(["dpc-compare", "--grid", "3"], doc, tmp_path)
        assert error == _slot_error(doc, "covariance entries must be finite")


def test_overflowing_powers_print_their_error_line_alone(tmp_path):
    # P1 * P2 overflows; it printed two numpy warnings, then a FrontierError
    # on the point (0.0, nan)
    doc = {"class": "multi_primary", "b": [0.5, 0.9], "a": 0.3, "P1": 1e155, "P2": 1e155}
    error = _error_line_alone(["region", "--regime", "WI", "--grid", "5"], doc, tmp_path)
    assert error == ("GaussianModelError: powers P1 = 1e+155 and P2 = 1e+155 are too "
                     "large: P1*P2 is non-finite")


# cells of 0, subnormals and 1e-300 beside ordinary weights, each (x1, x2)
# slice normalized (or left all zero, which is rejected)
_CELL = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]), st.floats(0, 1))


@st.composite
def _dmc_documents(draw):
    x1, x2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    outputs = draw(st.sampled_from([("Y1", "Z1"), ("Y1", "Y2", "Z1"), ("Y1", "Z1", "Z2")]))
    probs = []
    for _ in range(x1 * x2):
        cells = draw(st.lists(_CELL, min_size=2 ** len(outputs), max_size=2 ** len(outputs)))
        total = sum(cells)
        probs += [c / total for c in cells] if total > 0 else cells
    axes = [["X1", x1], ["X2", x2]] + [[name, 2] for name in outputs]
    return {"axes": axes, "probs": probs}, draw(st.sampled_from(["VSI", "VWI"]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=_dmc_documents())
def test_dmc_documents_never_print_a_non_finite_number(case, tmp_path_factory):
    doc, regime = case
    tmp = tmp_path_factory.mktemp("dmc")
    out = tmp / "frontier.csv"
    _no_non_finite_output(["dmc-capacity", "--in", write(tmp / "dmc.json", doc), "--out", str(out),
                           "--regime", regime, "--samples", "2", "--budget", "2"], out)


# finite floats up to 1e308, also in [-4, 4] so that most sweeps run
_DPC_NUMBER = st.one_of(st.floats(-1e308, 1e308), st.floats(-4, 4))
_DPC_DOCS = st.fixed_dictionaries(
    {"P1": _DPC_NUMBER.map(abs), "P2": _DPC_NUMBER.map(abs), "a1": _DPC_NUMBER,
     "a2": _DPC_NUMBER, "b": _DPC_NUMBER},
    optional={"eta": st.floats(0, 1), "rho": st.floats(-1, 1), "x": _DPC_NUMBER.map(abs),
              "md_variant": st.sampled_from(["sqrt", "linear"])})


@settings(max_examples=100, derandomize=True, deadline=None)
@given(doc=_DPC_DOCS)
def test_dpc_documents_never_print_a_non_finite_number(doc, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dpc")
    out = tmp / "sweep.csv"
    _no_non_finite_output(["dpc-compare", "--in", write(tmp / "dpc.json", doc), "--out", str(out),
                           "--grid", "3"], out)


def test_region_multi_secondary(tmp_path, capsys):
    path = write(tmp_path / "ms.json",
                 {"class": "multi_secondary", "b": 2.0, "a": [2.0, 2.0],
                  "P1": 1.0, "P2": 1.0})
    out = tmp_path / "ms.csv"
    assert run(["region", "--in", path, "--out", str(out), "--grid", "31"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "VSI"
    assert out.exists()
    assert run(["region", "--in", path, "--out", str(tmp_path / "p.csv"),
                "--partition", "1|"]) == 1
    assert "multi_primary" in json.loads(capsys.readouterr().err)["error"]


def test_dpc_compare(tmp_path, capsys):
    cfg = write(tmp_path / "fig.json",
                {"P1": 3.0, "P2": 1.0, "a1": 0.75, "a2": -0.5, "b": 0.1,
                 "rho": 0.0})
    out = tmp_path / "fig.csv"
    assert run(["dpc-compare", "--in", cfg, "--out", str(out), "--grid", "21"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_below_outer"] is True
    assert report["max_md_minus_cd"] > 0
    header = out.read_text().splitlines()[0]
    assert header == "eta,R1,R2_cd,R2_md,x_star,R2_block,R2_outer"
    assert (tmp_path / "fig.csv.json").exists()


def test_verify_fme_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run(["verify-fme", "--samples", "4", "--seed", "7",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passes"] == 4 and report["failures"] == []
    capsys.readouterr()


def test_verify_fme_replays_benchmark_catalogue(tmp_path, capsys):
    # every verify-fme case of the benchmark catalogue, against the exit code
    # and failure list recorded with it
    doc = json.loads(gzip.decompress((CATALOGUE / "fme-verify.json.gz").read_bytes()))
    cases = doc["kinds"]["verify-fme"]
    assert len(cases) == 20
    mismatches = 0
    for case in cases:
        out = tmp_path / f"{case['id']}.json"
        argv = [str(out) if a == "{out}" else a for a in case["argv"]]
        ref = case["reference"]
        assert run(argv) == ref["exit"], case["id"]
        report = json.loads(out.read_text())
        assert report["instances"] == ref["instances"], case["id"]
        assert report["failures"] == ref["failures"], case["id"]
        mismatches += len(report["failures"])
    assert mismatches == 3  # seed 3 index 51, seed 4 index 35, seed 18 index 57
    capsys.readouterr()


def test_dmc_capacity_replays_benchmark_catalogue(tmp_path, capsys):
    # every dmc-capacity case of the benchmark catalogue, against the exit
    # code and the exact CSV recorded with it
    doc = json.loads(gzip.decompress((CATALOGUE / "dmc-scan.json.gz").read_bytes()))
    kinds = {kind: cases for kind, cases in doc["kinds"].items() if kind.startswith("cap-")}
    assert sorted(kinds) == [f"cap-{c}-{r}" for c in ("mp", "ms")
                             for r in ("mixed", "vsi", "vwi")]
    cases = [case for group in kinds.values() for case in group]
    assert len(cases) == 52
    for case in cases:
        src, out = tmp_path / f"{case['id']}.json", tmp_path / f"{case['id']}.csv"
        src.write_text(json.dumps(case["input"]))
        argv = [{"{in}": str(src), "{out}": str(out)}.get(a, a) for a in case["argv"]]
        ref = case["reference"]
        assert run(argv) == ref["exit"], case["id"]
        assert out.read_text() == ref["frontier"], case["id"]
    capsys.readouterr()


def test_dmc_screen_replays_benchmark_catalogue(tmp_path, capsys):
    # every dmc-screen case of the benchmark catalogue fails its regime check
    # with the recorded witness, at the depth the catalogue recorded
    doc = json.loads(gzip.decompress((CATALOGUE / "dmc-screen.json.gz").read_bytes()))
    cases = [case for group in doc["kinds"].values() for case in group]
    assert len(cases) == 176
    for case in cases:
        src, out = tmp_path / f"{case['id']}.json", tmp_path / f"{case['id']}.csv"
        src.write_text(json.dumps(case["input"]))
        argv = [{"{in}": str(src), "{out}": str(out)}.get(a, a) for a in case["argv"]]
        ref = case["reference"]
        capsys.readouterr()
        assert run(argv) == ref["exit"], case["id"]
        report = json.loads(capsys.readouterr().out)["report"]
        witness = report["witness"]
        assert (witness["condition"], witness["receiver"]) == \
            (ref["condition"], ref["receiver"]), case["id"]
        assert report["samples_checked"] == case["props"]["depth"], case["id"]


def test_counterexample_replays_benchmark_catalogue(tmp_path, capsys):
    # every counterexample case of the benchmark catalogue finds what was
    # recorded, and the witness it writes re-verifies
    from mcifc.dmc_regions import CounterexampleWitness, verify_counterexample

    doc = json.loads(gzip.decompress((CATALOGUE / "dmc-scan.json.gz").read_bytes()))
    cases = doc["kinds"]["counterexample"]
    assert len(cases) == 8
    for case in cases:
        out = tmp_path / f"{case['id']}.json"
        argv = [str(out) if a == "{out}" else a for a in case["argv"]]
        ref = case["reference"]
        capsys.readouterr()
        assert run(argv) == ref["exit"], case["id"]
        assert json.loads(capsys.readouterr().out)["found"] == ref["found"], case["id"]
        if ref["found"]:
            witness = CounterexampleWitness.from_json_dict(json.loads(out.read_text()))
            assert verify_counterexample(witness), case["id"]


def test_gaussian_dpc_replays_benchmark_catalogue(tmp_path, capsys):
    # every region and dpc-compare case of the benchmark catalogue, against
    # the exit code and the exact files recorded with it
    doc = json.loads(gzip.decompress((CATALOGUE / "gaussian-dpc.json.gz").read_bytes()))
    cases = [case for group in doc["kinds"].values() for case in group]
    assert sum(c["argv"][0] == "region" for c in cases) == 60
    assert sum(c["argv"][0] == "dpc-compare" for c in cases) == 16
    for case in cases:
        src, out = tmp_path / f"{case['id']}.json", tmp_path / f"{case['id']}.csv"
        src.write_text(json.dumps(case["input"]))
        argv = [{"{in}": str(src), "{out}": str(out)}.get(a, a) for a in case["argv"]]
        ref = case["reference"]
        assert run(argv) == ref["exit"], case["id"]
        if case["argv"][0] == "region":
            assert out.read_text() == ref["frontier"], case["id"]
        else:
            assert out.read_text() == ref["csv"], case["id"]
            assert Path(f"{out}.json").read_text() == ref["sidecar"], case["id"]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify-fme", "--samples", "2"],
    ["region", "--in", "{wi}", "--grid", "5"],
    ["dpc-compare", "--in", "{dpc}", "--grid", "3"],
    ["counterexample", "--budget", "4", "--seed", "42"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_validation_error(argv, wi_chan, tmp_path, capsys):
    dpc = write(tmp_path / "dpc.json", {"P1": 3.0, "P2": 1.0, "a1": 0.75, "a2": -0.5, "b": 0.1})
    out = tmp_path / "missing" / "dir" / "out"
    argv = [{"{wi}": wi_chan, "{dpc}": dpc}.get(a, a) for a in argv] + ["--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith(f"cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_dmc_capacity_pass_and_fail(tmp_path, capsys):
    rng = np.random.default_rng(3)
    base = rng.dirichlet(np.ones(2), size=(2, 2))
    probs = np.einsum("abi,abj->abij", base, base)
    good = write(tmp_path / "good.json", {
        "axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Z1", 2]],
        "probs": list(probs.reshape(-1)),
    })
    out = tmp_path / "cap.csv"
    assert run(["dmc-capacity", "--in", good, "--regime", "VSI",
                "--samples", "40", "--budget", "60", "--seed", "1",
                "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["passed"] is True
    assert report["search"] == {"samples": 60, "aux_card": None, "seed": 1}
    assert out.exists()

    # Y pure noise while Z copies X2: the strong condition fails -> exit 2
    probs_bad = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs_bad[x1, x2, :, x2] = 0.5
    bad = write(tmp_path / "bad.json", {
        "axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Z1", 2]],
        "probs": list(probs_bad.reshape(-1)),
    })
    assert run(["dmc-capacity", "--in", bad, "--regime", "VSI",
                "--samples", "40", "--seed", "1",
                "--out", str(tmp_path / "no.csv")]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["passed"] is False
    assert report["report"]["witness"]["condition"] == "strong"


def test_counterexample_zero_budget(capsys):
    assert run(["counterexample", "--budget", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["found"] is False
    assert report["config"] == {
        "budget": 0, "seed": 0, "y_card": 3, "z_card": 3, "x1_card": 2,
        "x2_card": 2, "aux_card": 5, "dirichlet_alpha": 0.4,
        "gate_schedule": [24, 96, 384], "pd_samples": 400,
        "final_vsi_samples": 1500, "min_margin": 1e-06,
    }


def test_counterexample_finds_witness(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["counterexample", "--budget", "4", "--seed", "42",
                "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["found"] is True
    doc = json.loads(out.read_text())
    assert doc["margin"] > 1e-6


def test_unknown_subcommand_fails(capsys):
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_subcommand_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_partition_flag_parsing(wi_chan, tmp_path, capsys):
    mixed = write(tmp_path / "mx.json",
                  {"class": "multi_primary", "b": [0.5, 2.0], "a": 2.0,
                   "P1": 1.0, "P2": 1.0})
    assert run(["classify", "--in", mixed, "--partition", "2|1"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "mixed"
    assert run(["classify", "--in", mixed, "--partition", "9|1"]) == 1
    capsys.readouterr()
    # a partition that repeats a receiver is rejected also where the regime
    # (here WI) ignores it, with the message of the mixed path
    assert run(["classify", "--in", mixed, "--partition", "1|1"]) == 1
    mixed_error = json.loads(capsys.readouterr().err)["error"]
    assert "must split" in mixed_error
    assert run(["classify", "--in", wi_chan, "--partition", "1|1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == mixed_error
    out = tmp_path / "wi.csv"
    assert run(["region", "--in", wi_chan, "--out", str(out), "--partition", "2|2"]) == 1
    assert "must split" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()
    assert run(["classify", "--in", wi_chan, "--partition", "2|1"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "WI"


@pytest.mark.parametrize("raw", ["1,x|2", "1|2|3"])
def test_a_malformed_partition_is_named(raw, wi_chan, capsys):
    message = f"--partition must look like '1,2|3' (strong|weak), got {raw!r}"
    with pytest.raises(CliValidationError) as caught:
        _parse_partition(raw, ("Y1", "Y2"))
    assert str(caught.value) == message
    # the CLI prints a validation error's message alone
    assert run(["classify", "--in", wi_chan, "--partition", raw]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == message


@pytest.mark.parametrize("raw", ["1,2|3,3", "1,1,2|3"])
def test_dmc_capacity_rejects_a_repeated_receiver(raw, tmp_path, capsys):
    # in every regime, also those that ignore the partition
    probs = np.random.default_rng(4).dirichlet(np.ones(16), size=(2, 2))
    dmc = write(tmp_path / "mp3.json", {
        "axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Y2", 2], ["Y3", 2], ["Z1", 2]],
        "probs": list(probs.reshape(-1)),
    })
    out = tmp_path / "cap.csv"
    errors = []
    for regime in ("mixed", "VSI", "VWI"):
        assert run(["dmc-capacity", "--in", dmc, "--regime", regime, "--samples", "5",
                    "--partition", raw, "--out", str(out)]) == 1, regime
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(json.loads(captured.err)["error"])
        assert not out.exists()
    assert "must split" in errors[0] and errors == errors[:1] * 3


@pytest.mark.parametrize("axes, error", [
    ([["X2", 2], ["X1", 2], ["Y1", 2], ["Z1", 2]],
     "AlphabetError: channel axes must start with X1, X2"),
    ([["X1", 2], ["X2", 2], ["W1", 2], ["Z1", 2]],
     "AlphabetError: output name 'W1' must start with Y or Z"),
], ids=["inputs-not-first", "output-W1"])
def test_dmc_capacity_rejects_malformed_axes(axes, error, tmp_path, capsys):
    dmc = write(tmp_path / "dmc.json", {"axes": axes, "probs": [0.25] * 16})
    out = tmp_path / "cap.csv"
    assert run(["dmc-capacity", "--in", dmc, "--regime", "VSI", "--samples", "5",
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == error
    assert not out.exists()


def test_region_mixed_with_partition(tmp_path, capsys):
    mixed = write(tmp_path / "mx.json",
                  {"class": "multi_primary", "b": [0.5, 2.0], "a": 2.0,
                   "P1": 1.0, "P2": 1.0})
    out = tmp_path / "mx.csv"
    assert run(["region", "--in", mixed, "--out", str(out),
                "--partition", "2|1", "--grid", "31"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "mixed"
    assert out.read_text().startswith("R2,R1\n")


def test_verify_fme_rejects_zero_samples(capsys):
    assert run(["verify-fme", "--samples", "0"]) == 1
    assert "samples" in json.loads(capsys.readouterr().err)["error"]


def test_zero_counts_are_rejected_not_defaulted(wi_chan, tmp_path, capsys):
    dmc = write(tmp_path / "dmc.json", {
        "axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Z1", 2]],
        "probs": [0.25] * 16,
    })
    dpc = write(tmp_path / "dpc.json",
                {"P1": 3.0, "P2": 1.0, "a1": 0.75, "a2": -0.5, "b": 0.1})
    out = str(tmp_path / "out.csv")
    for argv, flag in (
        (["dmc-capacity", "--in", dmc, "--out", out, "--regime", "VSI",
          "--samples", "0"], "--samples"),
        (["region", "--in", wi_chan, "--out", out, "--grid", "0"], "--grid"),
        (["dpc-compare", "--in", dpc, "--out", out, "--grid", "0"], "--grid"),
        (["region", "--in", wi_chan, "--out", out, "--grid", "1"], "--grid"),
        (["dmc-capacity", "--in", dmc, "--out", out, "--regime", "VSI",
          "--budget", "-1"], "--budget"),
        (["counterexample", "--budget", "-1"], "--budget"),
        # numpy would reject a negative seed without naming the flag
        (["verify-fme", "--seed", "-1"], "--seed"),
        (["dmc-capacity", "--in", dmc, "--out", out, "--regime", "VSI",
          "--seed", "-1"], "--seed"),
        (["counterexample", "--seed", "-1"], "--seed"),
    ):
        assert run(argv) == 1
        assert flag in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "out.csv").exists()


def test_dmc_capacity_rejects_a_search_of_no_input_distribution(tmp_path, capsys):
    # binary inputs: (U, X1, X2) has 20 cells, too many for a simplex grid,
    # so a VWI or mixed search of no samples would see no input distribution
    # and print a region without even the origin
    dmc = write(tmp_path / "dmc.json", {
        "axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Z1", 2]],
        "probs": [0.25] * 16,
    })
    out = tmp_path / "out.csv"
    for regime in (["VWI"], ["mixed", "--partition", "1|"]):
        assert run(["dmc-capacity", "--in", dmc, "--out", str(out), "--regime", *regime,
                    "--samples", "5", "--budget", "0"]) == 1
        assert "no input distribution" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()
    # the VSI search still has its simplex grid
    assert run(["dmc-capacity", "--in", dmc, "--out", str(out), "--regime", "VSI",
                "--samples", "5", "--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] >= 1


def test_flags_of_other_subcommands_are_rejected(wi_chan, capsys):
    assert run(["classify", "--in", wi_chan, "--grid", "5"]) == 1
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"class": "multi_primary", "b": [0.5], "a": Infinity, "P1": 1, "P2": 1}',
    '{"class": "multi_primary", "b": [0.5], "a": 1e400, "P1": 1, "P2": 1}',
    '{"class": "multi_primary", "b": [NaN, 0.5], "a": 0.3, "P1": 1, "P2": 1}',
])
@pytest.mark.parametrize("command", ["classify", "region"])
def test_non_finite_numbers_rejected(text, command, tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(text)
    out = tmp_path / "out.csv"
    argv = [command, "--in", str(path)] + (["--out", str(out)] if command == "region" else [])
    assert run(argv) == 1
    assert "non-finite" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


# Each input breaks its schema in two or more places, so the reported error
# is the one jsonschema.exceptions.best_match picks.
_SCHEMA_BREAKS = [
    ("GAUSSIAN_SCHEMA", ["classify"],
     {"class": "multi_primary", "b": [], "a": "high", "P1": -1.0}),
    ("GAUSSIAN_SCHEMA", ["region", "--out", "{out}"],
     {"class": "multi_secondary", "b": [1.0], "a": [], "P1": 1.0, "extra": 0}),
    ("DMC_SCHEMA", ["dmc-capacity", "--regime", "VSI", "--out", "{out}"],
     {"axes": [["X1", 0], ["X2"], ["Y1", 2]], "probs": []}),
    ("DMC_SCHEMA", ["dmc-capacity", "--regime", "VWI", "--out", "{out}"],
     {"axes": [[1, 2], ["X2", 2], ["Y1", 2], ["Z1", 2.5]], "probs": ["p"], "note": 1}),
    ("DPC_SCHEMA", ["dpc-compare", "--out", "{out}"],
     {"P1": -3.0, "a1": 0.75, "a2": "x", "b": 0.1, "eta": 2.0}),
    ("DPC_SCHEMA", ["dpc-compare", "--out", "{out}"],
     {"P1": 3.0, "P2": 1.0, "a1": 0.75, "a2": -0.5, "b": 0.1, "rho": -2,
      "md_variant": "cubic"}),
]


@pytest.mark.parametrize("schema_name, argv, doc", _SCHEMA_BREAKS)
def test_schema_errors_match_jsonschema_validate(schema_name, argv, doc, tmp_path, capsys):
    import jsonschema

    from mcifc import cli

    schema = getattr(cli, schema_name)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, schema)
    path = write(tmp_path / "in.json", doc)
    out = str(tmp_path / "out.csv")
    argv = [argv[0], "--in", path] + [out if a == "{out}" else a for a in argv[1:]]
    for _ in range(2):  # the first run builds the validator, the second reuses it
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == json.dumps(
            {"error": f"{path} failed schema validation: {want.value.message}"}) + "\n"
    assert not (tmp_path / "out.csv").exists()


def test_each_schema_is_checked_once(wi_chan, tmp_path, capsys, monkeypatch):
    # valid inputs take the stdlib walk and build no validator; a schema's
    # validator, with its one metaschema check, is built on the first
    # document that schema rejects, and reused for every later one
    import jsonschema

    from mcifc import cli

    names = ("GAUSSIAN_SCHEMA", "DMC_SCHEMA", "DPC_SCHEMA")
    checked = []
    for cls in {jsonschema.validators.validator_for(getattr(cli, n)) for n in names}:
        check = cls.check_schema

        def counting(schema, *args, _check=check, **kwargs):
            checked.append(schema)
            return _check(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", counting)
    monkeypatch.setattr(cli, "_validators", {})
    dpc = write(tmp_path / "dpc.json",
                {"P1": 3.0, "P2": 1.0, "a1": 0.75, "a2": -0.5, "b": 0.1})
    out = str(tmp_path / "out.csv")
    valid = (["classify", "--in", wi_chan],
             ["region", "--in", wi_chan, "--out", out, "--grid", "5"],
             ["dpc-compare", "--in", dpc, "--out", out, "--grid", "3"])
    for argv in valid:
        assert run(argv) == 0
    assert checked == [] and cli._validators == {}

    rejected = [
        ("DMC_SCHEMA", ["dmc-capacity", "--regime", "VSI", "--out", out],
         {"axes": [["X1", 2]], "probs": [1.0]}),
        ("GAUSSIAN_SCHEMA", ["classify"], {"class": "multi_primary", "b": []}),
        ("DPC_SCHEMA", ["dpc-compare", "--out", out], {"P1": 3.0}),
    ]
    for k, (name, argv, doc) in enumerate(rejected):
        path = write(tmp_path / f"{name}.json", doc)
        for _ in range(3):
            assert run([argv[0], "--in", path] + argv[1:]) == 1
            # one check per schema rejected so far, in the order of rejection
            assert [id(s) for s in checked] == [id(getattr(cli, n)) for n, _, _ in rejected[:k + 1]]
            assert set(cli._validators) == set(map(id, checked))
    for argv in valid:
        assert run(argv) == 0
    assert len(checked) == len(names)
    capsys.readouterr()


# the schema of each subcommand that reads an --in document
_SCHEMA_OF = {"classify": "GAUSSIAN_SCHEMA", "region": "GAUSSIAN_SCHEMA",
              "dmc-capacity": "DMC_SCHEMA", "dpc-compare": "DPC_SCHEMA"}


def _catalogue_inputs() -> list[tuple[list, dict]]:
    """(argv, input document) of every benchmark catalogue case with an --in."""
    cases = []
    for path in sorted(CATALOGUE.glob("*.json.gz")):
        doc = json.loads(gzip.decompress(path.read_bytes()))
        cases += [(case["argv"], case["input"]) for group in doc["kinds"].values()
                  for case in group if case.get("input") is not None]
    return cases


def test_catalogue_inputs_take_the_stdlib_walk(tmp_path, monkeypatch):
    from mcifc import cli

    monkeypatch.setattr(cli, "_validators", {})
    cases = _catalogue_inputs()
    assert len(cases) == 304
    for k, (argv, doc) in enumerate(cases):
        schema = getattr(cli, _SCHEMA_OF[argv[0]])
        assert cli._accepts(schema, doc), k
        assert cli._load_json(write(tmp_path / "in.json", doc), schema) == doc
    assert cli._validators == {}


def _a_path(doc, rng) -> list:
    """A random key or index path into `doc`: a top-level key, then into a
    list with probability 1/2 at each level."""
    path, value = [], doc
    while not path or isinstance(value, list) and value and rng.random() < 0.5:
        key = (rng.choice(sorted(value)) if isinstance(value, dict)
               else int(rng.integers(len(value))))
        path.append(key)
        value = value[key]
    return path


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _mutations(doc: dict, rng):
    """Seeded edits of one valid input document, each on a fresh copy."""
    def edited(edit, *args):
        copy = json.loads(json.dumps(doc))
        edit(copy, *args)
        return copy

    keys = sorted(doc)
    key = keys[rng.integers(len(keys))]
    yield edited(lambda d: d.pop(key))
    yield edited(lambda d: d.update({key + "_": d.pop(key)}))
    yield edited(lambda d: d.update({"extra": 0}))
    for value in (True, "1", None, [1.0]):
        yield edited(_set, _a_path(doc, rng), value)
    if "P1" in doc:  # a Gaussian channel or a DPC configuration
        for bound, values in (("P1", (-1, 0, -1e-9)), ("P2", (-0.5,)),
                              ("eta", (1.5, 1, 0.0, -0.25)), ("rho", (-1, -1.5, 1.0000001))):
            for value in values:
                yield edited(lambda d: d.update({bound: value}))
    if "axes" in doc:
        i = int(rng.integers(len(doc["axes"])))
        size = doc["axes"][i][1]
        for value in (float(size), size + 0.5, 0, True, -1):
            yield edited(_set, ["axes", i, 1], value)
        yield edited(_set, ["axes", i], doc["axes"][i][:1])
        yield edited(_set, ["axes", i], doc["axes"][i] + [2])
        yield edited(_set, ["axes", i, 0], 7)
        yield edited(lambda d: d.update({"axes": d["axes"][:int(rng.integers(4))]}))
        yield edited(lambda d: d.update({"probs": []}))
    if "class" in doc:
        other = {"multi_primary": "multi_secondary", "multi_secondary": "multi_primary"}
        yield edited(lambda d: d.update({"class": other[d["class"]]}))
        yield edited(lambda d: d.update({"class": "multi"}))
        listed = "b" if isinstance(doc["b"], list) else "a"
        yield edited(lambda d: d.update({listed: []}))
        yield edited(lambda d: d.update({listed: d[listed][0]}))
    if "md_variant" in doc:
        yield edited(lambda d: d.update({"md_variant": "cubic"}))
        yield edited(lambda d: d.update({"md_variant": "linear"}))


def test_stdlib_walk_agrees_with_jsonschema_on_mutated_inputs(tmp_path, capsys):
    # every mutation is judged alike by the walk and by jsonschema, and each
    # rejected one fails run() with the message jsonschema.validate raises:
    # best_match of the errors of the schema's validator, whose metaschema
    # check (the rest of jsonschema.validate) runs here once per schema
    import jsonschema

    from mcifc import cli

    oracles = {}
    for name in set(_SCHEMA_OF.values()):
        schema = getattr(cli, name)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        oracles[name] = cls(schema)
    rng = np.random.default_rng(15)
    cases = _catalogue_inputs()
    path, out = tmp_path / "in.json", str(tmp_path / "out.csv")
    verdicts = {True: 0, False: 0}
    for k in rng.choice(len(cases), size=24, replace=False):
        argv, doc = cases[k]
        schema = getattr(cli, _SCHEMA_OF[argv[0]])
        oracle = oracles[_SCHEMA_OF[argv[0]]]
        argv = [{"{in}": str(path), "{out}": out}.get(a, a) for a in argv]
        for mutant in _mutations(doc, rng):
            error = jsonschema.exceptions.best_match(oracle.iter_errors(mutant))
            valid = error is None
            assert cli._accepts(schema, mutant) == valid, (argv[0], mutant)
            verdicts[valid] += 1
            if not valid:
                write(path, mutant)
                assert run(argv) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == json.dumps(
                    {"error": f"{path} failed schema validation: {error.message}"}) + "\n"
    assert not Path(out).exists()
    assert verdicts[True] >= 30 and verdicts[False] >= 350, verdicts


@pytest.mark.parametrize("schema, doc", [
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 2),  # two branches match
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 2.5),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, True),
    ({"type": "integer"}, 3.0),
    ({"type": "integer"}, True),
    ({"type": "number"}, False),
    ({"minimum": 0, "maximum": 1}, "2"),
    ({"minimum": 0}, True),
    ({"maximum": 1}, 1.0),
    ({"prefixItems": [{"type": "integer"}], "items": {"type": "string"}}, [1, "a"]),
    ({"prefixItems": [{"type": "integer"}], "items": {"type": "string"}}, ["a", "a"]),
    ({"prefixItems": [{"type": "integer"}, {"type": "integer"}]}, [1]),
    ({"minItems": 2, "maxItems": 2}, {"a": 1}),
    ({"maxItems": 1}, [1, 2]),
    ({"required": ["a"], "additionalProperties": False}, ["b"]),
    ({"properties": {"a": {"const": "x"}}, "additionalProperties": False}, {"a": "x"}),
    ({"properties": {"a": {"const": "x"}}, "additionalProperties": False}, {"b": "x"}),
    ({"enum": ["x", "y"]}, ["x"]),
    ({"const": "1"}, 1),
])
def test_stdlib_walk_keyword_semantics(schema, doc):
    import jsonschema

    from mcifc import cli

    assert cli._accepts(schema, doc) == jsonschema.Draft202012Validator(schema).is_valid(doc)


@pytest.mark.parametrize("schema, doc", [
    ({"type": "string", "maxLength": 3}, "x"),
    ({"additionalProperties": True}, {"a": 1}),
    ({"type": ["string", "null"]}, "x"),
    ({"const": 1}, 1),
    ({"enum": ["x", None]}, "x"),
])
def test_stdlib_walk_leaves_other_keywords_to_jsonschema(schema, doc):
    # valid documents, under keywords and values the walk does not read
    import jsonschema

    from mcifc import cli

    assert jsonschema.Draft202012Validator(schema).is_valid(doc)
    assert not cli._accepts(schema, doc)


# the script of a fresh interpreter: import the CLI, then run each argv of
# argv[1] (a JSON list) with its output discarded, printing the exit code and
# which of _LAZY are loaded after the import and after each run
_PROBE = """
import contextlib, io, json, sys
lazy = json.loads(sys.argv[2])
from mcifc import cli
print(json.dumps([None, [m for m in lazy if m in sys.modules]]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    print(json.dumps([code, [m for m in lazy if m in sys.modules]]))
"""

_LAZY = ("jsonschema", "mcifc.dmc_regions", "mcifc.gaussian", "mcifc.dpc", "numpy.ma")


def _loaded_after(*argvs) -> list[tuple[int | None, set]]:
    """(exit code, modules of _LAZY loaded) after `import mcifc.cli` and then
    after each run, in a fresh process: this one already holds every module."""
    import mcifc

    env = dict(os.environ, PYTHONPATH=str(Path(mcifc.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs), json.dumps(_LAZY)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return [(code, set(loaded)) for code, loaded in map(json.loads, out.splitlines())]


def test_each_subcommand_imports_only_its_own_layer(wi_chan, tmp_path):
    dmc = write(tmp_path / "dmc.json", {
        "axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Z1", 2]],
        "probs": [0.5, 0.0, 0.0, 0.5, 0.25, 0.25, 0.25, 0.25,
                  0.25, 0.25, 0.25, 0.25, 0.0, 0.5, 0.5, 0.0]})
    bad = write(tmp_path / "bad.json", {"class": "multi_primary", "b": []})
    out = str(tmp_path / "out.csv")

    (_, imported), (code, region) = _loaded_after(
        ["region", "--in", wi_chan, "--out", out, "--grid", "11"])
    assert imported == set()
    assert code == 0 and region.isdisjoint({"jsonschema", "mcifc.dmc_regions", "numpy.ma"})

    (_, imported), (code, capacity), (rejected, after) = _loaded_after(
        ["dmc-capacity", "--in", dmc, "--out", out, "--regime", "VWI",
         "--samples", "2", "--budget", "2"],
        ["classify", "--in", bad])
    assert imported == set()
    assert code == 0 and capacity.isdisjoint({"mcifc.gaussian", "mcifc.dpc"})
    assert "jsonschema" not in capacity
    assert rejected == 1 and "jsonschema" in after


def test_jsonschema_attribute_resolves_and_nothing_else_does():
    # the benchmark tracer wraps `cli.jsonschema.validate`
    import jsonschema

    from mcifc import cli

    assert cli.jsonschema is jsonschema
    with pytest.raises(AttributeError):
        getattr(cli, "no_such_name")
