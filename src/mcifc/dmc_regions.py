"""Discrete-memoryless rate regions for the multicast cognitive interference
channel: the superposition/binning inner bound, sampled interference-regime
checks, the regime-specific capacity regions, cross-verification of the inner
bound against its encoding/decoding constraint system, and the search for
channels that satisfy the very-strong conditions while violating the weak one.

Every information expression is a row of a table of signed MI terms,
evaluated by one evaluator over a stack of joints. The cross-verification
has one body, `verify_fme_stack`: it takes a stack of auxiliary joints and
a stack of channel laws of one alphabet as arrays, checks each stack once,
evaluates both of its tables on one batch, and sends the whole (rows, K)
array of coding bounds on the 1e-12 grid into the cached projection cone of
`polytope.project_bounds`. `verify_fme_inner_bound` is its one-instance
case. `polytope` owns the grid: `_grid_rows` snaps a table's (rows, K)
bounds onto it, and the frontiers come from `polytope.grid_frontiers`, one
per joint, except the capacity region's: `polytope.grid_envelope` takes the
bounds of all its joints at once and returns their time-sharing hull.

|U| is |X1||X2| + 1 throughout, fixed by the channel (`default_aux_card`).

Regime conditions quantify over *all* input distributions; the checkers here
falsify by Dirichlet sampling plus a coarse deterministic simplex grid. A pass
therefore means "no violation found", never a proof of membership.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby
from math import comb, prod
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .info_theory import (
    MAX_CELLS,
    AlphabetError,
    DistributionError,
    DmcChannel,
    InternalConsistencyError,
    JointDist,
    check_cells,
    check_probabilities,
    clamp_mi,
    compose_with_channel,
    input_order,
    mutual_information,  # noqa: F401  (perfbench/harness.py traces it here)
    sample_input_dist,
    stack_entropy,
)
from .polytope import (
    Frontier2D,
    IneqSystem,
    concave_envelope,  # noqa: F401  (perfbench/harness.py traces it here)
    fme_project,  # noqa: F401  (perfbench/harness.py traces it here)
    frontier_union,  # noqa: F401  (perfbench/harness.py traces it here)
    grid_bounds,
    grid_envelope,
    grid_frontiers,
    project_bounds,
    project_to_frontier,  # noqa: F401  (perfbench/harness.py traces it here)
    region_equal,
)

AUX_NAMES = ("Q1", "Q", "U", "V")

# A sampled inequality counts as violated only beyond this slack, so channels
# that satisfy a condition with equality (margin 0) pass cleanly.
VIOLATION_TOL = 1e-9

MULTI_PRIMARY = "multi_primary"
MULTI_SECONDARY = "multi_secondary"
REGIMES = ("VSI", "VWI", "mixed")


class RegimeError(ValueError):
    """Wrong channel class, invalid partition, or failed regime precondition."""


@dataclass(frozen=True)
class AuxAssignment:
    """Joint distribution over (Q1, Q, U, V, X1, X2) feeding the inner bound.

    The Markov constraint to the channel outputs holds by construction once
    the joint is pushed through compose_with_channel.
    """

    joint: JointDist

    def __post_init__(self):
        names = self.joint.names
        missing = [n for n in AUX_NAMES + ("X1", "X2") if n not in names]
        if missing:
            raise AlphabetError(f"auxiliary joint lacks axes {missing}")


@dataclass(frozen=True)
class RegimeWitness:
    """A sampled distribution falsifying one regime inequality."""

    dist: JointDist
    receiver: str
    condition: str
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "dist": self.dist.to_json_dict(),
            "receiver": self.receiver,
            "condition": self.condition,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of a sampled regime check of one channel.

    `label` is the checked regime on a pass and "none" on a failure; a pass is
    explicitly a "no violation found" statement, not a proof. `chan` and the
    (strong, weak) receiver names (empty outside the mixed regime) say what
    was checked, and so what `dmc_capacity_region` computes; they take no
    part in equality and stay out of the JSON form.

    A pass of a check seeded by an integer also keeps `batches`, the
    composed batch of each checked chunk from the first on, as long as their
    cells total at most _KEPT_CELLS, the most one chunk holds (so the first
    chunk is always kept); `stream`, the (samples, seed) they were drawn
    from; and `resume`, the generator state at the end of the kept chunks
    when a chunk of draws follows them (None otherwise).
    `dmc_capacity_region` reuses the batches for a search of the same stream
    and draws on from `resume`. None of the three takes part in equality,
    repr or the JSON form.
    """

    klass: str
    regime: str
    passed: bool
    samples_checked: int
    witness: RegimeWitness | None
    chan: DmcChannel = field(compare=False)
    partition: tuple[tuple[str, ...], tuple[str, ...]] = field(compare=False)
    batches: tuple[_Batch, ...] = field(default=(), compare=False, repr=False)
    stream: tuple[int, int] | None = field(default=None, compare=False, repr=False)
    resume: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_class(self.chan, self.klass)
        if self.passed == (self.witness is not None):
            raise RegimeError("witness must be present iff the check failed")

    @property
    def label(self) -> str:
        return self.regime if self.passed else "none"

    def to_json_dict(self) -> dict:
        return {
            "class": self.klass,
            "regime": self.regime,
            "label": self.label,
            "passed": self.passed,
            "samples_checked": self.samples_checked,
            "note": "pass means no violation found by sampling, not a proof",
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class SearchConfig:
    """Budget for the union over sampled input distributions (|U| is the
    channel's; the JSON form keeps its key as null)."""

    samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.samples < 0:
            raise RegimeError("samples must be >= 0")
        if self.seed < 0:
            raise RegimeError("seed must be >= 0")

    def to_json_dict(self) -> dict:
        return {"samples": self.samples, "aux_card": None, "seed": self.seed}


# ---------------------------------------------------------------------------
# Information expressions as data, and their one evaluator
# ---------------------------------------------------------------------------
#
# A term (sign, left, right, given) is sign * I(left; right | given), with
# `left` and `given` space-separated variable names. `right` is either
# variable names or a key of _receiver_sets, and then the term is the min
# over those receivers of I(left; receiver | given). A bound row
# (coeffs, terms) reads coeffs . rates <= the signed sum of its terms.


def _receiver_sets(outputs: Sequence[tuple[str, int]], strong=(), weak=()) -> dict:
    """The receiver sets a term may name, for a channel's `outputs`. "Y"/"Z"
    hold the first Y/Z output (the single one of its class); "r" is set to
    the receiver a regime condition is being checked at."""
    y_names, z_names = DmcChannel.y_names_of(outputs), DmcChannel.z_names_of(outputs)
    return {
        "Y": y_names[:1], "Z": z_names[:1],
        "Y*": y_names, "Z*": z_names,
        "strong": strong, "weak": weak,
        "strong or Z*": strong or z_names,
    }


# verify-fme draws and verifies its instances this many at a time, and regime
# checks and capacity regions take their first chunk of input distributions
# at this many rows (_chunk_sizes).
_CHUNK_CAP = 64

# One cell budget for two uses: no chunk of input distributions holds more
# cells than this, and a passing regime report keeps its batches only up to
# this many cells in all. It admits _CHUNK_CAP joints of MAX_CELLS cells.
_KEPT_CELLS = _CHUNK_CAP * MAX_CELLS


class _Batch:
    """A stack of joints (*shape, K) over the axes `names`, the joint index
    last and innermost in memory (as _compose builds it, at every K), and
    the one evaluator of the MI tables on it. Each subset entropy and each
    MI term is computed once per batch, for all K joints at a time, and the
    subset entropies share the batch's trailing pairwise sums, `sums` (see
    info_theory._marginals)."""

    def __init__(self, names: Sequence[str], joints: np.ndarray):
        self.index = {n: i for i, n in enumerate(names)}
        self.joints = joints
        self.entropies: dict = {}
        self.mis: dict = {}
        self.sums: dict = {}

    @classmethod
    def of(cls, joint: JointDist) -> "_Batch":
        return cls(joint.names, joint.probs[..., None])

    def head(self, n: int) -> None:
        """Keep the first n joints, a strided view of the stack, with their
        memoized values. Every sum is lane by lane, so the first n lanes of a
        memoized sum are the sum of the first n joints."""
        self.joints = self.joints[..., :n]
        self.sums = {key: s[..., :n] for key, s in self.sums.items()}
        self.entropies = {key: h[:n] for key, h in self.entropies.items()}
        self.mis = {key: v[:n] for key, v in self.mis.items()}

    def entropy(self, names: frozenset) -> np.ndarray:
        h = self.entropies.get(names)
        if h is None:
            try:
                idx = [self.index[n] for n in names]
            except KeyError as exc:
                raise AlphabetError(f"unknown variable {exc}; have {tuple(self.index)}") from None
            h = self.entropies[names] = stack_entropy(self.joints, idx, self.sums)
        return h

    def mi(self, left: str, right: tuple, given: str) -> np.ndarray:
        """I(left; right | given) of each joint, as mutual_information computes
        it for one: H(LG) + H(RG) - H(LRG) - H(G), clamped by clamp_mi."""
        key = (left, right, given)
        value = self.mis.get(key)
        if value is not None:
            return value
        left, right, given = frozenset(left.split()), frozenset(right), frozenset(given.split())
        value = self.entropy(left | given) + self.entropy(right | given) \
            - self.entropy(left | right | given)
        if given:
            value = value - self.entropy(given)
        value = self.mis[key] = clamp_mi(value, InternalConsistencyError)
        return value

    def value(self, sets: dict, terms) -> np.ndarray:
        """Signed sum of `terms` for each joint, taken left to right; +inf when
        a term ranges over an empty receiver set."""
        total = None
        for sign, left, right, given in terms:
            if right in sets:
                if not sets[right]:
                    return np.full(self.joints.shape[-1], np.inf)
                value = None
                for r in sets[right]:
                    # np.minimum returns its second argument on a tie, as min()
                    # keeps the first, so the sign of a zero is min()'s
                    mi = self.mi(left, (r,), given)
                    value = mi if value is None else np.minimum(mi, value)
            else:
                value = self.mi(left, tuple(right.split()), given)
            total = sign * value if total is None else total + sign * value
        return total


def _compose(axes: Sequence[tuple[str, int]], inputs: np.ndarray,
             outputs: tuple[tuple[str, int], ...], probs: np.ndarray) -> _Batch:
    """Batch of the joints of a stack (K, *sizes of `axes`) of input
    distributions over `axes` (which end with X1, X2) with a channel law,
    each checked as JointDist checks one joint: the same product as
    compose_with_channel, viewed (*axes, *outputs, K). `probs` is one
    channel tensor (x1, x2, *outputs) for every joint, or one per joint,
    shaped (1, ..., 1, x1, x2, *outputs, K) to broadcast over the auxiliary
    axes.

    The product is built with the joint index innermost in memory, at
    every K, which is the layout stack_entropy sums in without a copy.
    """
    k = len(inputs)
    check_cells(inputs[0].size * prod(n for _, n in outputs), "joint")
    per_joint = probs.ndim > 2 + len(outputs)
    lanes = inputs.transpose(tuple(range(1, inputs.ndim)) + (0,))
    joints = np.multiply(lanes.reshape(lanes.shape[:-1] + (1,) * len(outputs) + (k,)),
                         probs if per_joint else probs[..., None], order="C")
    # each joint summed over its input cells, then over its output cells,
    # every add over a whole row of lanes: summing at most MAX_CELLS cells
    # in this order rather than numpy's pairwise one moves a total by far
    # less than SUM_TOL
    sums = joints.reshape(inputs[0].size, -1).sum(axis=0).reshape(-1, k).sum(axis=0)
    check_probabilities(joints, sums, "joint")
    return _Batch([n for n, _ in tuple(axes) + outputs], joints)


def _grid_rows(batch: _Batch, sets: dict, table) -> tuple[list, np.ndarray]:
    """A table's rows over `batch`: the (R2, R1) coefficients of each row and
    the (rows, K) array of their bounds at the K joints, snapped to the
    1e-12 grid at once. A row over an empty receiver set has bound +inf at
    every joint, constrains nothing and is left out."""
    rows = [(coeffs, batch.value(sets, terms)) for coeffs, terms in table]
    rows = [(coeffs, bound) for coeffs, bound in rows if bound[0] < np.inf]
    bounds = np.array([bound for _, bound in rows]).reshape(len(rows), batch.joints.shape[-1])
    return [(c.get("R2", 0), c.get("R1", 0)) for c, _ in rows], grid_bounds(bounds)


_COST_V = (-1, "V", "X1 U", "Q1 Q")
_COST_Q = (-1, "Q", "X1", "Q1")

#: the eleven rows of the inner-bound region
_INNER_BOUND = (
    ({"R1": 1}, ((+1, "Q1 X1 Q U", "Y*", ""),)),
    ({"R2": 1}, ((+1, "Q V", "Z*", "Q1"), (-1, "Q V", "X1", "Q1"))),
    ({"R2": 1}, ((+1, "X1 U", "Y*", "Q1 Q"), (+1, "Q V", "Z*", "Q1"), _COST_V)),
    ({"R2": 1}, ((+1, "X1 Q U", "Y*", "Q1"), (+1, "V", "Z*", "Q1 Q"), _COST_V)),
    ({"R2": 1}, ((+1, "X1 Q U", "Y*", "Q1"), (+1, "Q V", "Z*", "Q1"), _COST_V, _COST_Q)),
    ({"R1": 1, "R2": 1}, ((+1, "X1 U", "Y*", "Q1 Q"), (+1, "Q1 Q V", "Z*", ""), _COST_V)),
    ({"R1": 1, "R2": 1}, ((+1, "Q1 X1 Q U", "Y*", ""), (+1, "V", "Z*", "Q1 Q"), _COST_V)),
    ({"R1": 1, "R2": 1}, ((+1, "Q1 X1 Q U", "Y*", ""), (+1, "Q V", "Z*", "Q1"),
                          _COST_V, _COST_Q)),
    ({"R1": 1, "R2": 1}, ((+1, "X1 Q U", "Y*", "Q1"), (+1, "Q1 Q V", "Z*", ""),
                          _COST_V, _COST_Q)),
    ({"R1": 1, "R2": 2}, ((+1, "X1 Q U", "Y*", "Q1"), (+1, "Q1 Q V", "Z*", ""),
                          (+1, "V", "Z*", "Q1 Q"), _COST_V, _COST_Q)),
    ({"R1": 1, "R2": 2}, ((+1, "Q1 X1 Q U", "Y*", ""), (+1, "Q V", "Z*", "Q1"),
                          (+1, "V", "Z*", "Q1 Q"), _COST_V, _COST_Q)),
)

_COMMON = (+1, "Q U", "X1", "Q1")

#: variables eliminated when projecting the encoding/decoding system
BINNING_VARS = ("T02", "T11", "T22", "R01", "R02", "R11", "R22")

#: encoding and decoding rows of the constraint system, for one Y and one Z
_CODING_SYSTEM = (
    # encoding: covering each bin must beat the correlation cost
    ({"T02": -1, "R02": 1}, ((-1, "X1", "Q", "Q1"),)),
    ({"T11": -1, "R11": 1}, ((-1, "U", "X1", "Q1 Q"),)),
    ({"T22": -1, "R22": 1}, ((-1, "V", "X1", "Q1 Q"),)),
    ({"T11": -1, "R11": 1, "T22": -1, "R22": 1},
     ((-1, "U", "V", "Q1 Q"), (-1, "U V", "X1", "Q1 Q"))),
    # decoding at Z: (common, bin-of-Q, bin-of-V) jointly
    ({"T22": 1}, ((+1, "V", "Z", "Q1 Q"),)),
    ({"T02": 1, "T22": 1}, ((+1, "Q V", "Z", "Q1"),)),
    ({"R01": 1, "T02": 1, "T22": 1}, ((+1, "Q1 Q V", "Z", ""),)),
    # decoding at Y: (common, bin-of-Q, private, bin-of-U) jointly
    ({"T11": 1}, ((+1, "X1 U", "Y", "Q1 Q"), _COMMON)),
    ({"T02": 1, "T11": 1}, ((+1, "X1 Q U", "Y", "Q1"), _COMMON)),
    ({"R01": 1, "T02": 1, "T11": 1}, ((+1, "Q1 X1 Q U", "Y", ""), _COMMON)),
)

#: the rest of the constraint system: the rate splits R1 = R01 + R11 and
#: R2 = R02 + R22, and nonnegativity of every split and binning rate
_CODING_LINEAR = (
    ({"R1": 1, "R01": -1, "R11": -1}, 0),
    ({"R1": -1, "R01": 1, "R11": 1}, 0),
    ({"R2": 1, "R02": -1, "R22": -1}, 0),
    ({"R2": -1, "R02": 1, "R22": 1}, 0),
) + tuple(({v: -1}, 0) for v in BINNING_VARS)

_CODING_VARS = ("R1", "R2") + BINNING_VARS

#: integer coefficients of the constraint system's rows, one column per
#: variable of _CODING_VARS: the key of its projection cone
_CODING_MATRIX = tuple(tuple(coeffs.get(v, 0) for v in _CODING_VARS)
                       for coeffs, _ in _CODING_SYSTEM + _CODING_LINEAR)


def _gap(left: str, more: str, less: str, given: str = "") -> tuple:
    """Terms of I(left; more | given) - I(left; less | given)."""
    return ((+1, left, more, given), (-1, left, less, given))


# Margins of the regime conditions: positive when the condition is violated.
_MP_STRONG = _gap("X2", "Z", "r", "X1")
_MP_WEAK = _gap("U", "r", "Z", "X1")
_MS_STRONG = _gap("X2", "r", "Y", "X1")
_MS_VERY_STRONG = _gap("X1 X2", "Y", "r")
_MS_WEAK = _gap("U", "Y", "r", "X1")
_MS_VERY_WEAK = _gap("U X1", "Y", "r")

# (label, receivers, *alternatives); the margin is the min over the
# alternatives. A condition whose `receivers` is a set key is checked at each
# receiver of that set, and consecutive conditions over one set are checked
# receiver by receiver. Any other value is the reported receiver, and None
# reports the receiver attaining the condition's first min.
_CONDITIONS = {
    (MULTI_PRIMARY, "VSI"): (
        ("strong", "Y*", _MP_STRONG),
        ("very_strong", None, _gap("X1 X2", "Y*", "Z")),
    ),
    (MULTI_PRIMARY, "VWI"): (
        ("weak", "Y*", _MP_WEAK),
        ("very_weak", "Y*", _gap("U X1", "r", "Z")),
    ),
    (MULTI_PRIMARY, "mixed"): (
        ("mixed_weak", "weak", _MP_WEAK),
        ("mixed_strong", "strong", _MP_STRONG),
        ("mixed_or", "*", _gap("X1 X2", "strong", "Z"), _gap("U X1", "weak", "Z")),
    ),
    (MULTI_SECONDARY, "VSI"): (
        ("strong", "Z*", _MS_STRONG),
        ("very_strong", "Z*", _MS_VERY_STRONG),
    ),
    (MULTI_SECONDARY, "VWI"): (
        ("weak", "Z*", _MS_WEAK),
        ("very_weak", "Z*", _MS_VERY_WEAK),
    ),
    (MULTI_SECONDARY, "mixed"): (
        ("mixed_weak", "weak", _MS_WEAK),
        ("mixed_very_weak", "weak", _MS_VERY_WEAK),
        ("mixed_strong", "strong", _MS_STRONG),
        ("mixed_very_strong", "strong", _MS_VERY_STRONG),
    ),
}

#: all-receivers-decode-everything bounds, over (X1, X2)
_FULL_DECODE = {
    "r1_y": ({"R1": 1}, ((+1, "X1 X2", "Y*", ""),)),
    "r2_z": ({"R2": 1}, ((+1, "X2", "Z", "X1"),)),
    "r2_y": ({"R2": 1}, ((+1, "X2", "Y*", "X1"),)),
    "sum_z": ({"R1": 1, "R2": 1}, ((+1, "X1 X2", "Z", ""),)),
    "sum_y": ({"R1": 1, "R2": 1}, ((+1, "X1 X2", "Y*", ""),)),
}

#: multi-primary mixed-regime bounds, over (U, X1, X2)
_MP_MIXED = {
    "r2": ({"R2": 1}, ((+1, "X2", "Z", "X1 U"),)),
    "sum_z": _FULL_DECODE["sum_z"],
    "r1": ({"R1": 1}, ((+1, "U X1", "weak", ""),)),
    "sum_y": ({"R1": 1, "R2": 1}, ((+1, "X1 X2", "strong", ""),)),
}

# Outside the mixed regime no receiver is strong, so this row bounds R2 at
# every Z there.
_MS_R2 = ({"R2": 1}, ((+1, "X2", "strong or Z*", "X1"),))
_MS_SUM = ({"R1": 1, "R2": 1}, ((+1, "X1 X2", "Y", ""),))

#: the per-regime region of one input distribution
_REGIONS = {
    (MULTI_PRIMARY, "VSI"): (_FULL_DECODE["r2_z"], _FULL_DECODE["sum_y"]),
    (MULTI_PRIMARY, "VWI"): (({"R1": 1}, ((+1, "U X1", "Y*", ""),)), _MP_MIXED["r2"]),
    (MULTI_PRIMARY, "mixed"): (_MP_MIXED["r1"], _MP_MIXED["r2"], _MP_MIXED["sum_y"]),
    (MULTI_SECONDARY, "VSI"): (_MS_R2, _MS_SUM),
    (MULTI_SECONDARY, "VWI"): (({"R1": 1}, ((+1, "U X1", "Y", ""),)),
                               ({"R2": 1}, ((+1, "X2", "Z*", "X1 U"),))),
    (MULTI_SECONDARY, "mixed"): (_MS_R2, _MS_SUM),
}


# ---------------------------------------------------------------------------
# Inner bound (11-inequality region) and its constraint-system verification
# ---------------------------------------------------------------------------


def inner_bound_system(aux: AuxAssignment, chan: DmcChannel) -> IneqSystem:
    """Inner-bound inequalities over (R1, R2) for one auxiliary assignment."""
    batch, sets = _Batch.of(compose_with_channel(aux.joint, chan)), _receiver_sets(chan.outputs)
    return IneqSystem.build(("R1", "R2"), [(coeffs, batch.value(sets, terms)[0])
                                           for coeffs, terms in _INNER_BOUND])


def inner_bound_region(aux: AuxAssignment, chan: DmcChannel) -> Frontier2D:
    """Frontier of the 11-inequality inner-bound region for one assignment."""
    batch = _Batch.of(compose_with_channel(aux.joint, chan))
    return grid_frontiers(*_grid_rows(batch, _receiver_sets(chan.outputs), _INNER_BOUND))[0]


def _check_single_pair(outputs: Sequence[tuple[str, int]]) -> None:
    if sorted(n[:1] for n, _ in outputs) != ["Y", "Z"]:
        raise RegimeError("constraint system is stated for exactly one Y and one Z")


def coding_constraint_system(aux: AuxAssignment, chan: DmcChannel) -> IneqSystem:
    """Raw encoding + decoding constraint system over split and binning rates.

    Four encoding (covering) inequalities, six decoding inequalities, the
    rate-split identities R1 = R01 + R11 and R2 = R02 + R22, and
    nonnegativity of every split/binning rate. Written for one Y and one Z.
    """
    _check_single_pair(chan.outputs)
    batch, sets = _Batch.of(compose_with_channel(aux.joint, chan)), _receiver_sets(chan.outputs)
    rows = [(coeffs, batch.value(sets, terms)[0]) for coeffs, terms in _CODING_SYSTEM]
    return IneqSystem.build(_CODING_VARS, rows + list(_CODING_LINEAR))


def verify_fme_stack(axes: Sequence[tuple[str, int]], inputs: np.ndarray,
                     outputs: Sequence[tuple[str, int]], probs: np.ndarray) -> list[bool]:
    """For each instance of a stack, True iff the exact projection of the
    constraint system is region-equal, within 1e-9, to the direct
    11-inequality evaluation.

    `inputs` (K, *sizes of `axes`) holds the auxiliary joints over `axes`,
    which name Q1, Q, U, V and end with X1, X2; `probs` (K, x1, x2, *sizes of
    `outputs`) holds each instance's channel law, for one Y and one Z
    output. Once per stack, the joints are checked as JointDist checks one
    and the laws as DmcChannel checks one, by `check_probabilities`.

    Both tables are evaluated on one batch, so each MI term they share is
    computed once. The (rows, K) coding bounds are snapped to the 1e-12 grid
    as `rationalize` snaps them and projected all at once by
    `project_bounds`; the columns it finds feasible get their frontiers from
    `grid_frontiers`, and the others are empty. An empty stack, once its
    axes and shapes are checked, gives no answer.
    """
    axes, outputs = tuple(axes), tuple(outputs)
    names = [n for n, _ in axes + outputs]
    if len(set(names)) != len(names):
        raise AlphabetError(f"duplicate axis names in {names}")
    if names[len(axes) - 2:len(axes)] != ["X1", "X2"]:
        raise AlphabetError(f"input axes {names[:len(axes)]} must end with X1, X2")
    _check_single_pair(outputs)
    inputs, probs = np.asarray(inputs, dtype=float), np.asarray(probs, dtype=float)
    k = len(inputs)
    shape = (k,) + tuple(n for _, n in axes[-2:]) + tuple(n for _, n in outputs)
    if inputs.shape[1:] != tuple(n for _, n in axes) or probs.shape != shape:
        raise DistributionError(
            f"stack shapes {inputs.shape} and {probs.shape} do not match the axes")
    if not k:
        return []
    check_probabilities(inputs, inputs.reshape(k, -1).sum(axis=1), "input")
    check_probabilities(probs, probs.reshape(k, shape[1], shape[2], -1).sum(axis=3), "transition")

    # one channel per joint, broadcast over the auxiliary axes
    batch = _compose(axes, inputs, outputs,
                     np.moveaxis(probs, 0, -1).reshape((1,) * (len(axes) - 2) + shape[1:] + (k,)))
    sets = _receiver_sets(outputs)
    direct = grid_frontiers(*_grid_rows(batch, sets, _INNER_BOUND))
    bounds = [batch.value(sets, terms) for _, terms in _CODING_SYSTEM]
    bounds += [np.full(k, float(bound)) for _, bound in _CODING_LINEAR]
    feasible, projected = project_bounds(_CODING_VARS, ("R1", "R2"), _CODING_MATRIX,
                                         grid_bounds(np.array(bounds)))
    # the rows fme_project gives, so that each feasible column's frontier is
    # what project_to_frontier returns for them
    via = iter(grid_frontiers([(d2 * scale, d1 * scale) for (d1, d2), scale, _ in projected],
                              np.array([best for *_, best in projected])))
    # the infeasible columns share one empty frontier, as in grid_frontiers
    empty = Frontier2D(())
    return [region_equal(region, next(via) if ok else empty, 1e-9)
            for region, ok in zip(direct, feasible)]


def verify_fme_inner_bound(aux: AuxAssignment, chan: DmcChannel) -> bool:
    """True iff exact FME of the constraint system is region-equal to the
    direct 11-inequality evaluation: the one-instance verify_fme_stack, with
    the joint's axes in the order of `input_order`."""
    joint = aux.joint
    order = input_order(joint, chan)
    axes = tuple(joint.axes[i] for i in order)
    return verify_fme_stack(axes, joint.probs.transpose(order)[None],
                            chan.outputs, chan.probs[None])[0]


# the alphabets of a verify-fme instance: its auxiliary joint, then its channel
_FME_AXES = (("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2))
_FME_OUTPUTS = (("Y1", 2), ("Z1", 2))


def _draw_fme_chunk(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next n verify-fme instances of `rng`, stacked: for each, its
    Dirichlet(1) joint over _FME_AXES (the draw of sample_input_dist), then
    the Dirichlet(1) law of each of its channel's (x1, x2) slices.

    The chunk is one fill of standard exponentials, instance k in row k: its
    joint's cells, then each slice's. At alpha = 1 numpy's dirichlet draws
    each gamma variate as one such exponential and multiplies it by 1/acc,
    acc the left-to-right sum of its draw; `np.add.accumulate` sums in that
    order, so each part is bit for bit the per-instance draw and `rng` ends
    where drawing the instances one by one leaves it."""
    shape = tuple(k for _, k in _FME_AXES)
    slices, laws = shape[-2:], tuple(k for _, k in _FME_OUTPUTS)
    cells = prod(shape)
    fill = rng.standard_exponential((n, cells + prod(slices) * prod(laws)))
    inputs, probs = (g * (1.0 / np.add.accumulate(g, axis=-1)[..., -1:]) for g in (
        fill[:, :cells], fill[:, cells:].reshape((n,) + slices + (prod(laws),))))
    return inputs.reshape((n,) + shape), probs.reshape((n,) + slices + laws)


def verify_fme_failures(samples: int, seed: int) -> list[int]:
    """Indices of the instances, among `samples` random ones drawn from
    `seed`, that fail verify_fme_stack. Instance k is the k-th draw of
    _draw_fme_chunk, whatever `samples` is; they are drawn and verified
    _CHUNK_CAP at a time."""
    rng = np.random.default_rng(seed)
    failures = []
    for start in range(0, samples, _CHUNK_CAP):
        inputs, probs = _draw_fme_chunk(rng, min(_CHUNK_CAP, samples - start))
        held = verify_fme_stack(_FME_AXES, inputs, _FME_OUTPUTS, probs)
        failures += [start + k for k, ok in enumerate(held) if not ok]
    return failures


# ---------------------------------------------------------------------------
# Regime conditions (sampled falsification checks)
# ---------------------------------------------------------------------------


_GRID_STEP = 8
_GRID_CAP = 2000


@lru_cache(maxsize=None)  # keyed by cells; at most _GRID_CAP rows each
def _simplex_grid(cells: int) -> np.ndarray:
    """Compositions of `_GRID_STEP` into `cells` parts, as the rows of a
    read-only (n, cells) array of probability vectors.

    Has no rows when the grid would exceed `_GRID_CAP` points.
    """
    out = []
    if comb(_GRID_STEP + cells - 1, cells - 1) <= _GRID_CAP:

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(prefix + [remaining])
                return
            for k in range(remaining + 1):
                rec(prefix + [k], remaining - k, slots - 1)

        rec([], _GRID_STEP, cells)
    grid = np.array(out, dtype=float).reshape(len(out), cells) / _GRID_STEP
    grid.flags.writeable = False
    return grid


def channel_class(chan: DmcChannel) -> str:
    """MULTI_PRIMARY for a channel with one Z output, else MULTI_SECONDARY
    for one with one Y output."""
    if chan.n_secondary == 1:
        return MULTI_PRIMARY
    if chan.n_primary == 1:
        return MULTI_SECONDARY
    raise RegimeError("channel must have exactly one Z (multi-primary) or one Y "
                      "(multi-secondary) output")


def receivers(chan: DmcChannel, klass: str) -> tuple[str, ...]:
    """The receivers a (strong, weak) partition of a `klass` channel splits:
    its Y outputs when multi-primary, its Z outputs when multi-secondary."""
    return chan.y_names if klass == MULTI_PRIMARY else chan.z_names


def _check_class(chan: DmcChannel, klass: str) -> None:
    if klass not in (MULTI_PRIMARY, MULTI_SECONDARY):
        raise RegimeError(f"unknown class {klass!r}")
    if klass == MULTI_PRIMARY and chan.n_secondary != 1:
        raise RegimeError("multi-primary channels have exactly one Z output")
    if klass == MULTI_SECONDARY and chan.n_primary != 1:
        raise RegimeError("multi-secondary channels have exactly one Y output")


def _partition_sets(chan: DmcChannel, klass: str, partition) -> tuple[tuple[str, ...], tuple[str, ...]]:
    names = receivers(chan, klass)
    if partition is None:
        raise RegimeError("mixed regime requires a (strong, weak) partition")
    strong = tuple(partition[0])
    weak = tuple(partition[1])
    if Counter(strong + weak) != Counter(names):
        raise RegimeError(
            f"partition {partition} must split the receiver set {names}"
        )
    return strong, weak


def _first_violation(batch: _Batch, sets: dict, conditions):
    """(row, receiver, condition, margin) of the first violated condition of a
    _CONDITIONS table, in table order, at the first joint of `batch` violating
    any; None when no joint does. A condition is evaluated only on the joints
    before the earliest violation found so far."""
    found = None
    for over, group in groupby(conditions, key=itemgetter(1)):
        group = tuple(group)
        for receiver in sets.get(over, (over,)):
            sets["r"] = (receiver,)
            for label, _, *alternatives in group:
                margin = batch.value(sets, alternatives[0])
                for terms in alternatives[1:]:
                    margin = np.minimum(batch.value(sets, terms), margin)
                hits = np.flatnonzero(margin > VIOLATION_TOL)
                if not hits.size:
                    continue
                k = int(hits[0])
                at = receiver
                if at is None:
                    _, left, right, given = alternatives[0][0]
                    at = min(sets[right], key=lambda r: batch.mi(left, (r,), given)[k])
                found = (k, at, label, float(margin[k]))
                if k == 0:
                    return found
                batch.head(k)
    return found


def default_aux_card(chan: DmcChannel) -> int:
    """Support-lemma-style heuristic |U| = |X1||X2| + 1 (no bound is proven)."""
    return chan.x1 * chan.x2 + 1


def _input_axes(chan: DmcChannel, regime: str) -> tuple:
    """Axes of the input distributions a regime ranges over."""
    inputs = (("X1", chan.x1), ("X2", chan.x2))
    return (("U", default_aux_card(chan)),) + inputs if regime in ("VWI", "mixed") else inputs


def _draw(rng: np.random.Generator, axes, n: int) -> np.ndarray:
    """n Dirichlet(1) input distributions over `axes`: the stream of n
    sample_input_dist calls."""
    shape = tuple(k for _, k in axes)
    return rng.dirichlet(np.ones(int(np.prod(shape))), size=n).reshape((n,) + shape)


def _chunk_sizes(cells: int):
    """The most joints of `cells` cells each chunk may hold, in order:
    _CHUNK_CAP, then doubling, but never past _KEPT_CELLS cells (so never
    below _CHUNK_CAP joints, as cells <= MAX_CELLS). A chunk costs nearly the
    same at any size, and a check failing early pays only for its first."""
    size = _CHUNK_CAP
    while True:
        yield size
        size = min(2 * size, _KEPT_CELLS // cells)


def _check_dists(axes, outputs, samples: int, rng: np.random.Generator, start: int = 0):
    """Input distributions over `axes`, in chunks of at most _chunk_sizes rows
    for their joints with a channel of `outputs`: the simplex grid, then
    `samples` Dirichlet draws from `rng`; no chunk holds both. Yields (rows,
    state): `state` is rng's state before a sampled chunk was drawn, and None
    for a chunk of grid points. The first `start` chunks are skipped without
    drawing them: rng must stand where their draws left it."""
    shape = tuple(k for _, k in axes)
    cells = prod(shape)
    check_cells(cells, "joint")
    joint_cells = cells * prod(k for _, k in outputs)
    check_cells(joint_cells, "joint")
    grid = _simplex_grid(cells)
    grid = grid.reshape((len(grid),) + shape)
    done, total = 0, len(grid) + samples
    for chunk, size in enumerate(_chunk_sizes(joint_cells)):
        if done == total:
            return
        n = min(size, (len(grid) if done < len(grid) else total) - done)
        if chunk >= start:
            if done < len(grid):
                yield grid[done:done + n], None
            else:
                state = rng.bit_generator.state
                yield _draw(rng, axes, n), state
        done += n


def check_regime(
    chan: DmcChannel,
    klass: str,
    regime: str,
    samples: int = 1000,
    seed: int | np.random.Generator = 0,
    partition: Sequence[Sequence[str]] | None = None,
) -> RegimeReport:
    """Sampled falsification check of an interference-regime condition.

    Returns a passing report with the number of distributions checked, or a
    failing report carrying the first witness and its violation margin. A
    Generator passed as `seed` ends advanced by exactly the Dirichlet draws
    checked, as drawing one distribution at a time would leave it. A pass
    seeded by an integer keeps the checked batches (see RegimeReport).
    `partition` is checked in every regime and used in the mixed one.
    """
    _check_class(chan, klass)
    if regime not in REGIMES:
        raise RegimeError(f"unknown regime {regime!r}")
    if samples < 1:
        raise RegimeError("samples must be >= 1")
    split = ((), ())
    if partition is not None or regime == "mixed":
        split = _partition_sets(chan, klass, partition)
    strong, weak = split if regime == "mixed" else ((), ())
    sets = _receiver_sets(chan.outputs, strong, weak)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    axes = _input_axes(chan, regime)
    keep = isinstance(seed, (int, np.integer))
    checked, cells, kept, resume = 0, 0, [], None
    for i, (rows, state) in enumerate(_check_dists(axes, chan.outputs, samples, rng)):
        batch = _compose(axes, rows, chan.outputs, chan.probs)
        found = _first_violation(batch, sets, _CONDITIONS[klass, regime])
        if found is None:
            checked += len(rows)
            cells += batch.joints.size
            if keep and cells <= _KEPT_CELLS:
                kept.append(batch)
            elif keep and i == len(kept):
                # the first chunk past the kept ones: rng's state before it
                resume = state
            continue
        k, receiver, condition, margin = found
        if state is not None:
            # redraw the chunk up to the witness, so rng stops where it
            # would had the draws been made one at a time
            rng.bit_generator.state = state
            _draw(rng, axes, k + 1)
        witness = RegimeWitness(JointDist(axes, rows[k]), receiver, condition, margin)
        return RegimeReport(klass, regime, False, checked + k + 1, witness,
                            chan, (strong, weak))
    return RegimeReport(klass, regime, True, checked, None, chan, (strong, weak),
                        tuple(kept), (samples, seed) if keep else None, resume)


# ---------------------------------------------------------------------------
# Capacity regions per regime (union over sampled input distributions)
# ---------------------------------------------------------------------------


def _mp_batch(dist: JointDist, chan: DmcChannel, strong=(), weak=()) -> tuple[_Batch, dict]:
    """The batch of one joint with a multi-primary channel, whose "Z" is its
    one Z output, and the channel's receiver sets."""
    _check_class(chan, MULTI_PRIMARY)
    return _Batch.of(compose_with_channel(dist, chan)), _receiver_sets(chan.outputs, strong, weak)


def full_decode_region(
    dist: JointDist,
    chan: DmcChannel,
    include: Iterable[str] = ("r1_y", "r2_z", "r2_y", "sum_z", "sum_y"),
) -> Frontier2D:
    """Frontier of the named subset of the all-decode inequalities: the inner
    bound with every receiver decoding everything (the substitution that
    collapses all auxiliaries onto the inputs), for a distribution over
    (X1, X2)."""
    return grid_frontiers(*_grid_rows(*_mp_batch(dist, chan),
                                      [_FULL_DECODE[k] for k in include]))[0]


def mixed_achievable_region(
    dist: JointDist,
    chan: DmcChannel,
    strong: Sequence[str],
    weak: Sequence[str],
    include_sum_z: bool = False,
) -> Frontier2D:
    """Frontier of the differentiated-decoding achievable set of the
    multi-primary mixed regime; the extra sum-rate at Z, the row the regime
    conditions make redundant, only with include_sum_z."""
    table = [row for name, row in _MP_MIXED.items() if include_sum_z or name != "sum_z"]
    return grid_frontiers(*_grid_rows(*_mp_batch(dist, chan, strong, weak), table))[0]


def dmc_capacity_region(report: RegimeReport, search: SearchConfig = SearchConfig()) -> Frontier2D:
    """Capacity region of the channel a passing `check_regime` report was
    computed for, as the convexified union of the per-regime region over
    gridded + sampled input distributions.

    The region is that of the report's class, regime and (strong, weak)
    partition, at the channel's |U|. A failing report raises RegimeError, and
    so does a search of no input distribution (no samples, and a simplex
    grid too large to take): a capacity region holds at least the origin.
    The sample stream is prefix-stable in the budget, so a larger budget
    yields a superset. When `search` draws the stream the report was checked
    on, the batches the report kept stand in for drawing and composing those
    chunks again, with the MI values they memoized, and the stream is drawn
    on from the report's `resume` state.
    """
    if not report.passed:
        raise RegimeError(
            f"regime check failed: {report.witness.condition} violated at "
            f"{report.witness.receiver} by {report.witness.margin:g}"
        )
    chan = report.chan
    sets = _receiver_sets(chan.outputs, *report.partition)
    axes = _input_axes(chan, report.regime)
    kept = report.batches if report.stream == (search.samples, search.seed) else ()
    rng = np.random.default_rng(search.seed)
    if kept and report.resume is not None:
        rng.bit_generator.state = report.resume
    table = _REGIONS[report.klass, report.regime]
    rest = _check_dists(axes, chan.outputs, search.samples, rng, len(kept))
    batches = chain(kept, (_compose(axes, rows, chan.outputs, chan.probs) for rows, _ in rest))
    grids = [_grid_rows(batch, sets, table) for batch in batches]
    if not grids:
        raise RegimeError(
            f"the search has no input distribution: {search.samples} samples, and "
            f"no simplex grid over the {prod(k for _, k in axes)}-cell inputs "
            f"(over {_GRID_CAP} points)")
    # every batch leaves out the same rows: those over an empty receiver set
    return grid_envelope(grids[0][0], np.concatenate([bounds for _, bounds in grids], axis=1))


# ---------------------------------------------------------------------------
# Very-strong vs very-weak counterexample search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleWitness:
    """Channel passing the sampled very-strong check together with a joint
    distribution violating the weak-interference inequality at one receiver."""

    chan: DmcChannel
    dist: JointDist
    receiver: str
    margin: float
    vsi_samples: int
    seed_used: int

    def to_json_dict(self) -> dict:
        return {
            "chan": self.chan.to_json_dict(),
            "dist": self.dist.to_json_dict(),
            "receiver": self.receiver,
            "margin": self.margin,
            "vsi_samples": self.vsi_samples,
            "seed_used": self.seed_used,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CounterexampleWitness":
        return cls(
            DmcChannel.from_json_dict(doc["chan"]),
            JointDist.from_json_dict(doc["dist"]),
            str(doc["receiver"]),
            float(doc["margin"]),
            int(doc["vsi_samples"]),
            int(doc["seed_used"]),
        )


# The fixed shape of the counterexample search: alphabet sizes of the
# proposed channels and of U, the Dirichlet concentration of their laws, the
# sample counts of the very-strong gate (one check of sum(CX_GATE_SCHEDULE)
# draws), of the weak-violation probe and of the final very-strong check, and
# the margin a violation must exceed.
CX_Y_CARD = 3
CX_Z_CARD = 3
CX_X1_CARD = 2
CX_X2_CARD = 2
CX_AUX_CARD = 5
CX_DIRICHLET_ALPHA = 0.4
CX_GATE_SCHEDULE = (24, 96, 384)
CX_PD_SAMPLES = 400
CX_FINAL_VSI_SAMPLES = 1500
CX_MIN_MARGIN = 1e-6


@dataclass(frozen=True)
class CxSearchConfig:
    """Budget (channels proposed) and seed of the counterexample search."""

    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.budget < 0:
            raise RegimeError("budget must be >= 0")
        if self.seed < 0:
            raise RegimeError("seed must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "budget": self.budget, "seed": self.seed, "y_card": CX_Y_CARD,
            "z_card": CX_Z_CARD, "x1_card": CX_X1_CARD,
            "x2_card": CX_X2_CARD, "aux_card": CX_AUX_CARD,
            "dirichlet_alpha": CX_DIRICHLET_ALPHA,
            "gate_schedule": list(CX_GATE_SCHEDULE),
            "pd_samples": CX_PD_SAMPLES,
            "final_vsi_samples": CX_FINAL_VSI_SAMPLES,
            "min_margin": CX_MIN_MARGIN,
        }


def weak_violation_margin(chan: DmcChannel, dist: JointDist) -> tuple[str, float]:
    """Worst receiver and margin of I(U;Yj|X1) - I(U;Z|X1) for one joint."""
    batch, sets = _mp_batch(dist, chan)
    margins = [float(batch.value(dict(sets, r=(y,)), _MP_WEAK)[0]) for y in chan.y_names]
    return max(zip(chan.y_names, margins), key=itemgetter(1))


def _propose_channel(rng, structured: bool) -> DmcChannel:
    """Draw a two-primary candidate channel.

    Unstructured proposals are plain Dirichlet transition tensors. They
    essentially never satisfy a for-all-inputs mutual-information ordering,
    so the sampler alternates with degraded-pair proposals: Y1 gets a random
    base law, Z gets a random garbling of it, and Y2 shares Z's law. Such
    channels meet both very-strong inequalities for every input distribution
    (data processing gives the conditional ordering; Y2 anchors the min),
    while Y1 generally stays strictly more informative than Z.
    """
    outs = tuple([("Y1", CX_Y_CARD), ("Y2", CX_Z_CARD) if structured else ("Y2", CX_Y_CARD),
                  ("Z1", CX_Z_CARD)])
    shape_in = (CX_X1_CARD, CX_X2_CARD)
    if not structured:
        out_cells = int(np.prod([k for _, k in outs]))
        probs = rng.dirichlet(
            np.full(out_cells, CX_DIRICHLET_ALPHA), size=shape_in
        ).reshape(shape_in + tuple(k for _, k in outs))
        return DmcChannel(CX_X1_CARD, CX_X2_CARD, outs, probs)
    base = rng.dirichlet(np.full(CX_Y_CARD, CX_DIRICHLET_ALPHA), size=shape_in)
    garble = rng.dirichlet(np.full(CX_Z_CARD, CX_DIRICHLET_ALPHA), size=CX_Y_CARD)
    zlaw = base @ garble  # (x1, x2, z)
    probs = (
        base[:, :, :, None, None] * zlaw[:, :, None, :, None] * zlaw[:, :, None, None, :]
    )
    return DmcChannel(CX_X1_CARD, CX_X2_CARD, outs, probs)


def vsi_vwi_counterexample_search(cfg: CxSearchConfig = CxSearchConfig()) -> CounterexampleWitness | None:
    """Search random two-primary channels for one that passes the sampled
    very-strong check yet admits a weak-interference violation.

    Each proposal gets one very-strong check of sum(CX_GATE_SCHEDULE) draws;
    a passing channel is probed for a weak violation from the same generator.
    Returns the first verified witness (margin above CX_MIN_MARGIN and a
    fresh full-budget very-strong pass) or None when the budget is exhausted.
    """
    for idx in range(cfg.budget):
        rng = np.random.default_rng([cfg.seed, idx])
        chan = _propose_channel(rng, structured=bool(idx % 2))
        if not check_regime(chan, MULTI_PRIMARY, "VSI", samples=sum(CX_GATE_SCHEDULE),
                            seed=rng).passed:
            continue
        found = None
        for _ in range(CX_PD_SAMPLES):
            dist = sample_input_dist(
                [("U", CX_AUX_CARD), ("X1", CX_X1_CARD), ("X2", CX_X2_CARD)], rng
            )
            receiver, margin = weak_violation_margin(chan, dist)
            if margin > CX_MIN_MARGIN:
                found = (dist, receiver, margin)
                break
        if found is None:
            continue
        final = check_regime(
            chan, MULTI_PRIMARY, "VSI", samples=CX_FINAL_VSI_SAMPLES,
            seed=np.random.default_rng([cfg.seed, idx, 1]),
        )
        if not final.passed:
            continue
        dist, receiver, margin = found
        return CounterexampleWitness(
            chan, dist, receiver, float(margin), final.samples_checked, idx
        )
    return None


def verify_counterexample(witness: CounterexampleWitness,
                          vsi_samples: int = CX_FINAL_VSI_SAMPLES) -> bool:
    """Re-verify a stored witness: the receiver must reproduce, the margin
    must reproduce within 1e-12 and lie above CX_MIN_MARGIN, and the channel
    must still pass the sampled very-strong check."""
    receiver, margin = weak_violation_margin(witness.chan, witness.dist)
    if receiver != witness.receiver or abs(margin - witness.margin) > 1e-12 \
            or not margin > CX_MIN_MARGIN:
        return False
    rep = check_regime(witness.chan, MULTI_PRIMARY, "VSI", samples=vsi_samples)
    return rep.passed
