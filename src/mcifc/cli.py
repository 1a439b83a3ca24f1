"""Batch command-line front end.

Subcommands map one-to-one onto module operations and emit CSV/JSON
artifacts. Exit codes are machine-distinguishable: 0 success, 1 validation
error (JSON error body on stderr), 2 failed verification (for example an
inner-bound/constraint-system mismatch or a failed regime check).

Identical (input, seed) pairs produce byte-identical artifacts: every
computation is seeded and runs in one deterministic pass.

Importing this module loads numpy and `info_theory` only. Each subcommand
imports the layer it runs (`gaussian`, `dpc` or `dmc_regions`) on first use,
and jsonschema is imported only to word the rejection of a document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from .info_theory import (
    DmcChannel,
    sample_input_dist,  # noqa: F401  (perfbench/harness.py traces it here)
)

if TYPE_CHECKING:
    import jsonschema


def __getattr__(name: str):
    # `cli.jsonschema` stays readable because perfbench/harness.py:229 and
    # perfbench/test_perfbench.py:122,128 wrap `cli.jsonschema.validate`.
    # Delete this once the tracer wraps `cli._load_json` (ROADMAP item 1).
    if name == "jsonschema":
        import jsonschema

        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

_NUMBER = {"type": "number"}
_POWER = {"type": "number", "minimum": 0}

GAUSSIAN_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "class": {"const": "multi_primary"},
                "b": {"type": "array", "items": _NUMBER, "minItems": 1},
                "a": _NUMBER,
                "P1": _POWER,
                "P2": _POWER,
            },
            "required": ["class", "b", "a", "P1", "P2"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "class": {"const": "multi_secondary"},
                "b": _NUMBER,
                "a": {"type": "array", "items": _NUMBER, "minItems": 1},
                "P1": _POWER,
                "P2": _POWER,
            },
            "required": ["class", "b", "a", "P1", "P2"],
            "additionalProperties": False,
        },
    ]
}

DMC_SCHEMA = {
    "type": "object",
    "properties": {
        "axes": {
            "type": "array",
            "minItems": 4,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "prefixItems": [{"type": "string"}, {"type": "integer", "minimum": 1}],
            },
        },
        "probs": {"type": "array", "items": _NUMBER, "minItems": 1},
    },
    "required": ["axes", "probs"],
    "additionalProperties": False,
}

DPC_SCHEMA = {
    "type": "object",
    "properties": {
        "P1": _POWER,
        "P2": _POWER,
        "a1": _NUMBER,
        "a2": _NUMBER,
        "b": _NUMBER,
        "eta": {"type": "number", "minimum": 0, "maximum": 1},
        "rho": {"type": "number", "minimum": -1, "maximum": 1},
        "x": _POWER,
        "md_variant": {"enum": ["sqrt", "linear"]},
    },
    "required": ["P1", "P2", "a1", "a2", "b"],
    "additionalProperties": False,
}


class CliValidationError(ValueError):
    pass


def _finite(token: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals such as 1e400
    are rejected rather than read as non-finite floats."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


# validators by schema id, each built on the first document its schema
# rejects (`_accepts` passes valid ones without one); a cached validator
# holds its schema, so the id stays that schema's
_validators: dict[int, jsonschema.protocols.Validator] = {}


def _validator(schema: dict) -> jsonschema.protocols.Validator:
    """The validator `jsonschema.validate` would build for `schema`, with the
    schema checked against its metaschema once, on first use."""
    validator = _validators.get(id(schema))
    if validator is None:
        import jsonschema

        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _validators[id(schema)] = cls(schema)
    return validator


# the JSON types the schemas name, as jsonschema's 2020-12 validator reads
# them: a bool is not a number, and a float with no fractional part is an
# integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _accepts(schema: dict, doc) -> bool:
    """True iff `doc` is valid under `schema` as jsonschema's 2020-12
    validator judges it, for the keywords the schemas above use. Any other
    keyword, type name or non-string constant makes it False, which only
    sends the document on to jsonschema.

    As in jsonschema, a keyword that constrains one JSON type passes every
    value of another type; `items` covers the positions after `prefixItems`.
    """
    for key, want in schema.items():
        if key == "type":
            ok = isinstance(want, str) and want in _TYPES and _TYPES[want](doc)
        elif key == "const":
            ok = isinstance(want, str) and doc == want
        elif key == "enum":
            ok = all(isinstance(v, str) for v in want) and doc in want
        elif key == "oneOf":
            ok = sum(_accepts(branch, doc) for branch in want) == 1
        elif key in ("minimum", "maximum"):
            ok = (not _TYPES["number"](doc)
                  or (doc >= want if key == "minimum" else doc <= want))
        elif key in ("minItems", "maxItems"):
            ok = (not isinstance(doc, list)
                  or (len(doc) >= want if key == "minItems" else len(doc) <= want))
        elif key == "prefixItems":
            ok = not isinstance(doc, list) or all(map(_accepts, want, doc))
        elif key == "items":
            skip = len(schema.get("prefixItems", ()))
            ok = not isinstance(doc, list) or all(_accepts(want, v) for v in doc[skip:])
        elif key == "properties":
            ok = not isinstance(doc, dict) or all(
                _accepts(want[k], v) for k, v in doc.items() if k in want)
        elif key == "required":
            ok = not isinstance(doc, dict) or all(k in doc for k in want)
        elif key == "additionalProperties" and want is False:
            ok = not isinstance(doc, dict) or all(k in schema.get("properties", {}) for k in doc)
        else:
            return False
        if not ok:
            return False
    return True


def _load_json(path: str, schema: dict) -> dict:
    try:
        doc = json.loads(Path(path).read_text(), parse_float=_finite,
                         parse_constant=_finite)
    except OSError as exc:
        raise CliValidationError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # malformed JSON or a non-finite number
        raise CliValidationError(f"{path} is not valid JSON: {exc}")
    if _accepts(schema, doc):
        return doc
    import jsonschema  # only a rejected document pays for this import

    # the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_validator(schema).iter_errors(doc))
    if error is not None:
        raise CliValidationError(f"{path} failed schema validation: {error.message}")
    return doc


def _parse_partition(raw: str | None, receivers):
    """Parse "1,2|3" (1-based positions in the sequence `receivers`) into
    (strong, weak) tuples of those receivers."""
    if raw is None:
        return None
    try:
        strong_raw, weak_raw = raw.split("|")
        strong = tuple(int(t) for t in strong_raw.split(",") if t.strip())
        weak = tuple(int(t) for t in weak_raw.split(",") if t.strip())
    except ValueError:
        raise CliValidationError(
            f"--partition must look like '1,2|3' (strong|weak), got {raw!r}"
        )
    for i in strong + weak:
        if not 1 <= i <= len(receivers):
            raise CliValidationError(f"partition index {i} outside 1..{len(receivers)}")
    return (tuple(receivers[i - 1] for i in strong), tuple(receivers[i - 1] for i in weak))


def _gaussian_partition(chan, raw: str | None):
    """--partition of a multi-primary Gaussian channel as 0-based indices."""
    if raw is None:
        return None
    from . import gaussian

    if not isinstance(chan, gaussian.GaussianMultiPrimary):
        raise CliValidationError("--partition applies to multi_primary channels")
    return _parse_partition(raw, range(chan.n_primary))


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _write_artifact(path: str | Path, text: str) -> None:
    """Write one artifact file; a path that cannot be written is a
    validation error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliValidationError(f"cannot write {path}: {exc}") from None


def _cmd_classify(args) -> int:
    from . import gaussian

    doc = _load_json(args.infile, GAUSSIAN_SCHEMA)
    chan = gaussian.channel_from_json_dict(doc)
    regime = gaussian.classify_gaussian(chan, _gaussian_partition(chan, args.partition))
    _emit({"regime": regime})
    return 0


def _cmd_region(args) -> int:
    from . import gaussian

    doc = _load_json(args.infile, GAUSSIAN_SCHEMA)
    chan = gaussian.channel_from_json_dict(doc)
    partition = _gaussian_partition(chan, args.partition)
    regime = gaussian.classify_gaussian(chan, partition)
    if args.regime not in (None, regime):
        raise CliValidationError(
            f"channel classifies as {regime!r}, not {args.regime!r}"
        )
    frontier = gaussian.region(chan, regime, partition, args.grid, require_regime=False)
    _write_artifact(args.out, frontier.to_csv_text())
    _emit({"regime": regime, "points": len(frontier.points), "out": args.out})
    return 0


def _cmd_dpc_compare(args) -> int:
    from . import dpc

    doc = _load_json(args.infile, DPC_SCHEMA)
    cfg = dpc.DpcConfig.from_json_dict(doc)
    rows = dpc.comparison_sweep(cfg, eta_grid=args.grid)
    for path, text in dpc.sweep_artifacts(cfg, rows, args.out):
        _write_artifact(path, text)
    _emit({"rows": len(rows), "out": args.out, **dpc.sweep_summary(rows)})
    return 0


def _cmd_verify_fme(args) -> int:
    from . import dmc_regions

    failures = dmc_regions.verify_fme_failures(args.samples, args.seed)
    report = {
        "instances": args.samples,
        "passes": args.samples - len(failures),
        "failures": failures,
        "seed": args.seed,
    }
    if args.out:
        _write_artifact(args.out, json.dumps(report, indent=1) + "\n")
    _emit(report)
    return 0 if not failures else 2


def _cmd_dmc_capacity(args) -> int:
    from . import dmc_regions

    doc = _load_json(args.infile, DMC_SCHEMA)
    chan = DmcChannel.from_json_dict(doc)
    klass = dmc_regions.channel_class(chan)
    partition = _parse_partition(args.partition, dmc_regions.receivers(chan, klass))
    report = dmc_regions.check_regime(
        chan, klass, args.regime, samples=args.samples, seed=args.seed,
        partition=partition,
    )
    if not report.passed:
        _emit({"report": report.to_json_dict()})
        return 2
    search = dmc_regions.SearchConfig(
        samples=args.budget if args.budget is not None else args.samples,
        seed=args.seed,
    )
    frontier = dmc_regions.dmc_capacity_region(report, search)
    _write_artifact(args.out, frontier.to_csv_text())
    _emit({
        "report": report.to_json_dict(),
        "search": search.to_json_dict(),
        "points": len(frontier.points),
        "out": args.out,
    })
    return 0


def _cmd_counterexample(args) -> int:
    from . import dmc_regions

    cfg = dmc_regions.CxSearchConfig(budget=args.budget, seed=args.seed)
    witness = dmc_regions.vsi_vwi_counterexample_search(cfg)
    if witness is None:
        _emit({"found": False, "config": cfg.to_json_dict()})
        return 0
    doc = witness.to_json_dict()
    if args.out:
        _write_artifact(args.out, json.dumps(doc, indent=1) + "\n")
    _emit({
        "found": True,
        "receiver": witness.receiver,
        "margin": witness.margin,
        "channel_index": witness.seed_used,
        "out": args.out,
    })
    return 0


@lru_cache(maxsize=None)  # built once per process; `run` only parses with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcifc",
        description="Rate-region computations for the multicast cognitive "
                    "interference channel",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", help="classify a Gaussian channel")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--partition", metavar="'1,2|3'")

    p = sub.add_parser("region", help="Gaussian capacity-region frontier CSV")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--regime", choices=["VSI", "WI", "mixed"])
    p.add_argument("--partition", metavar="'1,2|3'")

    p = sub.add_parser("dpc-compare", help="DPC bound-comparison sweep CSV")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--grid", type=int, default=101)

    p = sub.add_parser("verify-fme", help="cross-verify the inner bound "
                       "against its constraint system")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("dmc-capacity", help="discrete channel capacity region CSV")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--regime", required=True, choices=["VSI", "VWI", "mixed"])
    p.add_argument("--partition", metavar="'1,2|3'")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--budget", type=int, help="search samples (default: --samples)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("counterexample", help="search for a very-strong "
                       "channel violating the weak condition")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "region": _cmd_region,
    "dpc-compare": _cmd_dpc_compare,
    "verify-fme": _cmd_verify_fme,
    "dmc-capacity": _cmd_dmc_capacity,
    "counterexample": _cmd_counterexample,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        # a one-point region grid would only sample R2 = 0
        least = {"samples": 1, "grid": 2 if args.command == "region" else 1,
                 "budget": 0, "seed": 0}
        for flag, low in least.items():
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise CliValidationError(f"--{flag} must be >= {low}")
        return _HANDLERS[args.command](args)
    except CliValidationError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps(
            {"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
