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
from functools import lru_cache
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


# What the validity messages call a cell, the sums that must be 1 and the
# whole tensor, for each kind of tensor: a joint distribution, a stack of
# input joints, a channel law.
_KIND_WORDS = {
    "joint": ("probability", "probabilities", "product alphabet"),
    "input": ("input probability", "input joints", "product alphabet"),
    "transition": ("transition probability", "conditional slices", "channel tensor"),
}


def check_cells(cells: int, kind: str) -> None:
    """The cell cap: a tensor of more than MAX_CELLS cells raises AlphabetError."""
    if cells > MAX_CELLS:
        raise AlphabetError(
            f"{_KIND_WORDS[kind][2]} has {cells} cells, exceeding the cap of {MAX_CELLS}")


def check_probabilities(probs: np.ndarray, sums: np.ndarray, kind: str) -> None:
    """The validity rule of a probability tensor: no cell negative or NaN,
    and each of `sums`, the tensor's sums that must be 1, within SUM_TOL of
    1. Written so that NaN fails each comparison; raises DistributionError."""
    cell, summed, _ = _KIND_WORDS[kind]
    if not probs.min() >= 0:
        raise DistributionError(f"negative or NaN {cell} {probs.min():g}")
    worst = np.abs(sums - 1.0).max()
    if not worst <= SUM_TOL:
        raise DistributionError(f"{summed} sum to 1 only within {worst:g}")


def _check_axes(axes: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    axes = tuple((str(n), int(k)) for n, k in axes)
    names = [n for n, _ in axes]
    if len(set(names)) != len(names):
        raise AlphabetError(f"duplicate axis names in {names}")
    for n, k in axes:
        if k < 1:
            raise AlphabetError(f"axis {n!r} has nonpositive size {k}")
    check_cells(math.prod(k for _, k in axes), "joint")
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
        check_probabilities(probs, probs.sum(), "joint")
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
        check_cells(self.x1 * self.x2 * math.prod(k for _, k in outputs), "transition")
        probs = np.asarray(self.probs, dtype=float)
        shape = (self.x1, self.x2) + tuple(k for _, k in outputs)
        if probs.shape != shape:
            raise DistributionError(
                f"probs shape {probs.shape} does not match {shape}"
            )
        check_probabilities(probs, probs.reshape(self.x1, self.x2, -1).sum(axis=2), "transition")
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


# numpy's pairwise summation adds a run of at most this many terms with eight
# accumulators, and splits a longer run in two.
_PW_BLOCKSIZE = 128

def _pairwise_sum(a: np.ndarray, n: int) -> np.ndarray:
    """numpy's pairwise_sum of the n terms along axis -2 of `a` (..., n, K),
    each of its adds taken over the K lanes of the last axis at once."""
    k = a.shape[-1]
    if n < 8:
        # pairwise_sum adds them one at a time, as numpy's reduce does with K
        # kept and innermost
        return np.add.reduce(a, axis=-2)
    if n <= _PW_BLOCKSIZE:
        m = n - n % 8
        # eight accumulators over the blocks of eight terms, combined as
        # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order
        r = a[..., :8, :] if m == 8 else \
            np.add.reduce(a[..., :m, :].reshape(a.shape[:-2] + (m // 8, 8, k)), axis=-3)
        r = r[..., 0::2, :] + r[..., 1::2, :]
        r = r[..., 0::2, :] + r[..., 1::2, :]
        out = r[..., 0, :] + r[..., 1, :]
        for i in range(m, n):
            out += a[..., i, :]
        return out
    half = n // 2 - n // 2 % 8
    if 2 * half == n:
        both = _pairwise_sum(a.reshape(a.shape[:-2] + (2, half, k)), half)
        return both[..., 0, :] + both[..., 1, :]
    return _pairwise_sum(a[..., :half, :], half) + _pairwise_sum(a[..., half:, :], n - half)


@lru_cache(maxsize=None)  # keyed by joint shape and kept axes: at most 2**len(shape) each
def _marginal_plan(shape: tuple[int, ...], keep: tuple[int, ...]):
    """How to sum a stack (*shape, K) of joints down to the axes `keep`.

    Axes of size 1 are left out, as numpy's iterator leaves them out, and
    the dropped axes after the last kept one are merged into one run of
    `run` terms, the last axis of `merged` when run > 1; `outer` are the
    dropped axes of `merged` before it.
    """
    axes = [(size, i in keep) for i, size in enumerate(shape) if size > 1]
    last = max((j for j, (_, kept) in enumerate(axes) if kept), default=-1)
    run = math.prod(size for size, _ in axes[last + 1:])
    merged = tuple(size for size, _ in axes[:last + 1]) + ((run,) if run > 1 else ())
    outer = tuple(j for j, (_, kept) in enumerate(axes[:last + 1]) if not kept)
    return merged, outer, run


def _marginals(stack: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal on the axes `keep` of each joint of a stack (*shape, K), as
    the rows of a (K, cells) array, each summed bit for bit as numpy's sum of
    that one joint sums it.

    Each add runs over the K lanes of the last axis at once, in the order
    numpy's sum takes on a stack (K, *shape): the terms of the trailing
    dropped run by pairwise_sum, then those sums one at a time, in C order,
    over the other dropped axes.
    """
    merged, outer, run = _marginal_plan(stack.shape[:-1], keep)
    k = stack.shape[-1]
    marg = stack.reshape(merged + (k,))
    if run > 1:
        marg = _pairwise_sum(marg, run)
    if outer:
        marg = np.add.reduce(marg, axis=outer)
    return np.ascontiguousarray(marg.reshape(-1, k).T)


def stack_entropy(stack: np.ndarray, keep_idx: Iterable[int]) -> np.ndarray:
    """H(variables at keep_idx) of each joint of a stack (*shape, K), in bits.

    The stack is summed with the joint index innermost at every K, 1
    included: a C-contiguous stack in place, any other after the reshape
    that merges its axes copies it. Row k equals
    _subset_entropy(stack[..., k], keep_idx) bit for bit: its marginal is
    summed in numpy's own order (see _marginals), then -p*log2(p) is summed
    over its nonzero cells in their original order and over exactly that
    many of them, since a padding zero changes numpy's pairwise grouping of
    a sum of 8 or more terms.
    """
    flat = _marginals(stack, tuple(sorted(keep_idx)))
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
    return float(clamp_mi(np.float64(value), InternalConsistencyError))


def clamp_mi(value, error: type[Exception]):
    """`value`, mutual information in bits (a numpy float or array), with its
    rounding noise in [-MI_CLAMP_TOL, 0) set to 0. An entry below
    -MI_CLAMP_TOL raises `error`. A value with no negative entry is returned
    as it is, not copied."""
    if (value < 0.0).any():
        low = np.nanmin(value)
        if low < -MI_CLAMP_TOL:
            raise error(f"mutual information came out {low:g} < -{MI_CLAMP_TOL:g}")
        value = np.where(value < 0.0, 0.0, value)
    return value


def compose_with_channel(inputs: JointDist, chan: DmcChannel) -> JointDist:
    """Joint distribution of (aux..., X1, X2, outputs...) under the channel law.

    The outputs are conditionally independent of the auxiliary axes given
    (X1, X2), which realizes the Markov constraint aux -> (X1,X2) -> outputs.
    Auxiliary axes keep their relative order and are moved in front of X1, X2.
    """
    order = input_order(inputs, chan)
    base = np.transpose(inputs.probs, order)
    n_out = len(chan.outputs)
    expanded = base.reshape(base.shape + (1,) * n_out)
    joint = expanded * chan.probs  # broadcasts over the auxiliary axes
    return JointDist(tuple(inputs.axes[i] for i in order) + chan.outputs, joint)


def input_order(inputs: JointDist, chan: DmcChannel) -> tuple[int, ...]:
    """The axes of `inputs` in the order a joint with `chan` takes them: the
    auxiliary axes in their relative order, then X1, X2. Raises
    AlphabetError when `inputs` lacks X1 or X2, or when their sizes are not
    the channel's."""
    for name in ("X1", "X2"):
        if name not in inputs.names:
            raise AlphabetError(f"input distribution lacks axis {name!r}")
    x1, x2 = inputs.axis_index("X1"), inputs.axis_index("X2")
    if inputs.axes[x1][1] != chan.x1 or inputs.axes[x2][1] != chan.x2:
        raise AlphabetError(
            f"input alphabet sizes ({inputs.axes[x1][1]},{inputs.axes[x2][1]}) do not "
            f"match channel ({chan.x1},{chan.x2})")
    return tuple(i for i in range(len(inputs.axes)) if i not in (x1, x2)) + (x1, x2)


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
