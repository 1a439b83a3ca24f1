"""Finite-alphabet probability distributions, entropy and mutual information.

All logarithms are base 2, so every information quantity is in bits. The
convention 0*log(0) = 0 is applied throughout; channel supports are respected
by construction, so p*log(p/0) never arises for well-formed inputs.

Distributions are immutable value objects backed by read-only numpy tensors.
Every operation is a pure function, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Desk-scale cap on the product-alphabet size of any joint tensor.
MAX_CELLS = 4096

# Entries of a distribution must sum to 1 within this tolerance.
SUM_TOL = 1e-12

# Mutual-information values in [-MI_CLAMP_TOL, 0) are rounding noise and are
# clamped to 0; anything more negative indicates an internal inconsistency.
MI_CLAMP_TOL = 1e-10


class AlphabetError(ValueError):
    """Unknown variable name, duplicate axis, or alphabet-size mismatch."""


class DistributionError(ValueError):
    """Probabilities violate nonnegativity / normalization invariants."""


class InternalConsistencyError(ArithmeticError):
    """A quantity that must be nonnegative came out significantly negative."""


def _check_axes(axes: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    axes = tuple((str(n), int(k)) for n, k in axes)
    names = [n for n, _ in axes]
    if len(set(names)) != len(names):
        raise AlphabetError(f"duplicate axis names in {names}")
    for n, k in axes:
        if k < 1:
            raise AlphabetError(f"axis {n!r} has nonpositive size {k}")
    cells = math.prod(k for _, k in axes)
    if cells > MAX_CELLS:
        raise AlphabetError(
            f"product alphabet has {cells} cells, exceeding the cap of {MAX_CELLS}"
        )
    return axes


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class JointDist:
    """Joint probability tensor over named finite alphabets.

    axes:  ordered (name, alphabet size) pairs, one per tensor dimension
    probs: nonnegative tensor of that shape summing to 1 within SUM_TOL
    """

    axes: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        axes = _check_axes(self.axes)
        probs = np.asarray(self.probs, dtype=float)
        shape = tuple(k for _, k in axes)
        if probs.shape != shape:
            raise DistributionError(
                f"probs shape {probs.shape} does not match axes shape {shape}"
            )
        # written so that NaN fails each comparison
        if probs.size and not probs.min() >= 0:
            raise DistributionError(f"negative or NaN probability {probs.min():g}")
        total = probs.sum()
        if not abs(total - 1.0) <= SUM_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", _frozen(probs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    def axis_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlphabetError(f"unknown variable {name!r}; have {self.names}") from None

    def size_of(self, name: str) -> int:
        return self.axes[self.axis_index(name)][1]

    def to_json_dict(self) -> dict:
        return {
            "axes": [[n, k] for n, k in self.axes],
            "probs": [float(p) for p in self.probs.reshape(-1)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointDist":
        axes = [(str(n), int(k)) for n, k in doc["axes"]]
        shape = tuple(k for _, k in axes)
        probs = np.asarray(doc["probs"], dtype=float).reshape(shape)
        return cls(tuple(axes), probs)


@dataclass(frozen=True)
class DmcChannel:
    """Memoryless channel P(outputs | x1, x2) with named output alphabets.

    Inputs are always called X1 and X2. Output names must start with "Y"
    (primary receivers) or "Z" (secondary receivers); there must be at least
    one of each. probs has shape (x1, x2, *output sizes) and every (x1, x2)
    slice sums to 1 within SUM_TOL.
    """

    x1: int
    x2: int
    outputs: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        if self.x1 < 1 or self.x2 < 1:
            raise AlphabetError("input alphabets must be nonempty")
        outputs = _check_axes(self.outputs)
        for n, _ in outputs:
            if not n.startswith(("Y", "Z")):
                raise AlphabetError(f"output name {n!r} must start with Y or Z")
        if not self.y_names_of(outputs) or not self.z_names_of(outputs):
            raise AlphabetError("need at least one Y output and one Z output")
        cells = self.x1 * self.x2 * math.prod(k for _, k in outputs)
        if cells > MAX_CELLS:
            raise AlphabetError(
                f"channel tensor has {cells} cells, exceeding the cap of {MAX_CELLS}"
            )
        probs = np.asarray(self.probs, dtype=float)
        shape = (self.x1, self.x2) + tuple(k for _, k in outputs)
        if probs.shape != shape:
            raise DistributionError(
                f"probs shape {probs.shape} does not match {shape}"
            )
        # written so that NaN fails each comparison
        if not probs.min() >= 0:
            raise DistributionError(
                f"negative or NaN transition probability {probs.min():g}")
        slice_sums = probs.reshape(self.x1, self.x2, -1).sum(axis=2)
        worst = np.abs(slice_sums - 1.0).max()
        if not worst <= SUM_TOL:
            raise DistributionError(
                f"conditional slices must sum to 1 (worst deviation {worst:g})"
            )
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "probs", _frozen(probs))

    @staticmethod
    def y_names_of(outputs) -> tuple[str, ...]:
        return tuple(n for n, _ in outputs if n.startswith("Y"))

    @staticmethod
    def z_names_of(outputs) -> tuple[str, ...]:
        return tuple(n for n, _ in outputs if n.startswith("Z"))

    @property
    def y_names(self) -> tuple[str, ...]:
        return self.y_names_of(self.outputs)

    @property
    def z_names(self) -> tuple[str, ...]:
        return self.z_names_of(self.outputs)

    @property
    def n_primary(self) -> int:
        return len(self.y_names)

    @property
    def n_secondary(self) -> int:
        return len(self.z_names)

    def to_json_dict(self) -> dict:
        return {
            "axes": [["X1", self.x1], ["X2", self.x2]] + [[n, k] for n, k in self.outputs],
            "probs": [float(p) for p in self.probs.reshape(-1)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DmcChannel":
        axes = [(str(n), int(k)) for n, k in doc["axes"]]
        if len(axes) < 3 or axes[0][0] != "X1" or axes[1][0] != "X2":
            raise AlphabetError("channel axes must start with X1, X2")
        x1, x2 = axes[0][1], axes[1][1]
        outputs = tuple(axes[2:])
        shape = (x1, x2) + tuple(k for _, k in outputs)
        probs = np.asarray(doc["probs"], dtype=float).reshape(shape)
        return cls(x1, x2, outputs, probs)


def _subset_entropy(probs: np.ndarray, keep_idx: Iterable[int]) -> float:
    """H(variables at keep_idx) of a joint tensor, in bits."""
    keep = sorted(keep_idx)
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    flat = marg.reshape(-1)
    nz = flat[flat > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def stack_entropy(stack: np.ndarray, keep_idx: Iterable[int]) -> np.ndarray:
    """H(variables at keep_idx) of each joint of a stack (K, *shape), in bits.

    Row k equals _subset_entropy(stack[k], keep_idx) bit for bit: each row
    sums -p*log2(p) over its nonzero cells in their original order and over
    exactly that many of them, since a padding zero changes numpy's pairwise
    grouping of a sum of 8 or more terms.
    """
    keep = sorted(keep_idx)
    drop = tuple(i + 1 for i in range(stack.ndim - 1) if i not in keep)
    marg = stack.sum(axis=drop) if drop else stack
    flat = marg.reshape(len(stack), -1)
    positive = flat > 0.0
    counts = positive.sum(axis=1)
    if counts.min() == flat.shape[1]:
        return -(flat * np.log2(flat)).sum(axis=1)
    # stable-compact each row's nonzero cells to its front, then sum the rows
    # of each nonzero count over exactly that many columns
    packed = np.take_along_axis(flat, np.argsort(~positive, axis=1, kind="stable"), axis=1)
    out = np.empty(len(flat))
    for n in set(counts.tolist()):
        rows = counts == n
        nz = packed[rows, :n]
        out[rows] = -(nz * np.log2(nz)).sum(axis=1)
    return out


def marginalize(dist: JointDist, keep: Iterable[str]) -> JointDist:
    """Sum out every axis not in `keep`, preserving the original axis order."""
    keep = set(keep)
    unknown = keep - set(dist.names)
    if unknown:
        raise AlphabetError(f"unknown variables {sorted(unknown)}; have {dist.names}")
    keep_idx = [i for i, (n, _) in enumerate(dist.axes) if n in keep]
    drop_idx = tuple(i for i in range(len(dist.axes)) if i not in keep_idx)
    marg = dist.probs.sum(axis=drop_idx) if drop_idx else dist.probs
    axes = tuple(dist.axes[i] for i in keep_idx)
    # Re-normalize to absorb accumulated float rounding.
    total = marg.sum()
    return JointDist(axes, marg / total if total > 0 else marg)


def mutual_information(
    dist: JointDist,
    left: Iterable[str],
    right: Iterable[str],
    given: Iterable[str] = (),
) -> float:
    """I(left; right | given) in bits.

    Computed as H(L,G) + H(R,G) - H(L,R,G) - H(G). The three argument sets
    must be pairwise disjoint subsets of the distribution's axes.
    """
    left, right, given = set(left), set(right), set(given)
    if left & right or left & given or right & given:
        raise AlphabetError("left/right/given must be pairwise disjoint")
    for group in (left, right, given):
        unknown = group - set(dist.names)
        if unknown:
            raise AlphabetError(f"unknown variables {sorted(unknown)}")
    if not left or not right:
        return 0.0
    idx = {n: i for i, n in enumerate(dist.names)}
    lg = [idx[n] for n in left | given]
    rg = [idx[n] for n in right | given]
    lrg = [idx[n] for n in left | right | given]
    g = [idx[n] for n in given]
    value = (
        _subset_entropy(dist.probs, lg)
        + _subset_entropy(dist.probs, rg)
        - _subset_entropy(dist.probs, lrg)
        - (_subset_entropy(dist.probs, g) if g else 0.0)
    )
    if value < 0.0:
        if value < -MI_CLAMP_TOL:
            raise InternalConsistencyError(
                f"mutual information came out {value:g} < -{MI_CLAMP_TOL:g}"
            )
        value = 0.0
    return value


def compose_with_channel(inputs: JointDist, chan: DmcChannel) -> JointDist:
    """Joint distribution of (aux..., X1, X2, outputs...) under the channel law.

    The outputs are conditionally independent of the auxiliary axes given
    (X1, X2), which realizes the Markov constraint aux -> (X1,X2) -> outputs.
    Auxiliary axes keep their relative order and are moved in front of X1, X2.
    """
    for name in ("X1", "X2"):
        if name not in inputs.names:
            raise AlphabetError(f"input distribution lacks axis {name!r}")
    if inputs.size_of("X1") != chan.x1 or inputs.size_of("X2") != chan.x2:
        raise AlphabetError(
            "input alphabet sizes "
            f"({inputs.size_of('X1')},{inputs.size_of('X2')}) do not match "
            f"channel ({chan.x1},{chan.x2})"
        )
    aux_idx = [i for i, (n, _) in enumerate(inputs.axes) if n not in ("X1", "X2")]
    order = aux_idx + [inputs.axis_index("X1"), inputs.axis_index("X2")]
    base = np.transpose(inputs.probs, order)
    n_out = len(chan.outputs)
    expanded = base.reshape(base.shape + (1,) * n_out)
    joint = expanded * chan.probs  # broadcasts over the auxiliary axes
    axes = tuple(inputs.axes[i] for i in aux_idx) + (
        ("X1", chan.x1),
        ("X2", chan.x2),
    ) + chan.outputs
    return JointDist(axes, joint)


def sample_input_dist(
    axes: Sequence[tuple[str, int]],
    seed: int | np.random.Generator = 0,
) -> JointDist:
    """Strictly positive joint distribution from a symmetric Dirichlet(1).

    Deterministic for a given integer seed; passing a Generator draws from
    its stream (used by sampling loops that need one seeded stream).
    """
    axes = _check_axes(axes)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shape = tuple(k for _, k in axes)
    cells = math.prod(shape)
    flat = rng.dirichlet(np.ones(cells))
    return JointDist(axes, flat.reshape(shape))
