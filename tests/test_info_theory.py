import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcifc.info_theory import (
    AlphabetError,
    DistributionError,
    DmcChannel,
    InternalConsistencyError,
    JointDist,
    clamp_mi,
    compose_with_channel,
    marginalize,
    _subset_entropy,
    mutual_information,
    sample_input_dist,
    stack_entropy,
)


def uniform(*axes):
    shape = tuple(k for _, k in axes)
    return JointDist(tuple(axes), np.full(shape, 1.0 / np.prod(shape)))


def test_marginalize_uniform_keeps_uniform():
    d = marginalize(uniform(("X", 2), ("Y", 2)), {"X"})
    assert d.axes == (("X", 2),)
    np.testing.assert_allclose(d.probs, [0.5, 0.5])


def test_marginalize_point_mass():
    p = np.zeros((2, 2))
    p[0, 1] = 1.0
    d = marginalize(JointDist((("X", 2), ("Y", 2)), p), {"Y"})
    np.testing.assert_allclose(d.probs, [0.0, 1.0])


def test_marginalize_matches_row_sums(rng):
    d = sample_input_dist([("X", 3), ("Y", 3)], rng)
    got = marginalize(d, {"X"}).probs
    want = d.probs.sum(axis=1)  # direct summation oracle
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_marginalize_unknown_name():
    with pytest.raises(AlphabetError):
        marginalize(uniform(("X", 2)), {"Q"})


def test_mi_independent_bits_zero():
    assert mutual_information(uniform(("X", 2), ("Y", 2)), {"X"}, {"Y"}) == 0.0


def test_mi_identity_channel_one_bit():
    p = np.array([[0.5, 0.0], [0.0, 0.5]])
    d = JointDist((("X", 2), ("Y", 2)), p)
    assert mutual_information(d, {"X"}, {"Y"}) == pytest.approx(1.0, abs=1e-12)


def test_mi_binary_symmetric_coupling():
    # direct PMF-sum oracle at p = 0.1, uniform input
    p_flip = 0.1
    joint = np.array([[0.5 * (1 - p_flip), 0.5 * p_flip],
                      [0.5 * p_flip, 0.5 * (1 - p_flip)]])
    oracle = 0.0
    for i in range(2):
        for j in range(2):
            pij = joint[i, j]
            oracle += pij * np.log2(pij / (joint[i].sum() * joint[:, j].sum()))
    d = JointDist((("X", 2), ("Y", 2)), joint)
    got = mutual_information(d, {"X"}, {"Y"})
    assert got == pytest.approx(oracle, abs=1e-12)
    hb = -(p_flip * np.log2(p_flip) + (1 - p_flip) * np.log2(1 - p_flip))
    assert got == pytest.approx(1.0 - hb, abs=1e-12)


def test_mi_rejects_overlap():
    d = uniform(("X", 2), ("Y", 2))
    with pytest.raises(AlphabetError):
        mutual_information(d, {"X"}, {"X"})
    with pytest.raises(AlphabetError):
        mutual_information(d, {"X"}, {"Y"}, {"Y"})


def test_mi_rejects_unknown_names_and_is_zero_on_an_empty_side():
    d = uniform(("X", 2), ("Y", 2), ("Z", 2))
    for args in (({"W"}, {"Y"}), ({"X"}, {"W", "Y"}), ({"X"}, {"Y"}, {"W"})):
        with pytest.raises(AlphabetError, match=r"^unknown variables \['W'\]$"):
            mutual_information(d, *args)
    # names are checked before an empty side returns
    with pytest.raises(AlphabetError, match="unknown variables"):
        mutual_information(d, set(), {"W"})
    for args in ((set(), {"Y"}), ({"X"}, set()), (set(), set(), {"Z"})):
        assert mutual_information(d, *args) == 0.0


def test_cell_cap_enforced():
    with pytest.raises(AlphabetError):
        uniform(("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 8))


def test_distribution_invariants():
    with pytest.raises(DistributionError):
        JointDist((("X", 2),), np.array([0.7, 0.4]))
    with pytest.raises(DistributionError):
        JointDist((("X", 2),), np.array([1.1, -0.1]))
    with pytest.raises(DistributionError):
        JointDist((("X", 2),), np.array([np.nan, 1.0]))
    with pytest.raises(DistributionError):
        JointDist((("X", 2),), np.array([np.nan, np.nan]))
    with pytest.raises(AlphabetError):
        JointDist((("X", 2), ("X", 2)), np.full((2, 2), 0.25))
    with pytest.raises(DistributionError, match=r"^probs shape \(4,\) does not match axes "
                                                r"shape \(2, 2\)$"):
        JointDist((("X", 2), ("Y", 2)), np.full(4, 0.25))


def test_channel_slice_normalization_checked():
    bad = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(DistributionError):
        DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), bad)
    nan = np.full((2, 2, 2, 2), 0.25)
    nan[0, 0, 0, 0] = np.nan
    with pytest.raises(DistributionError):
        DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), nan)
    with pytest.raises(DistributionError, match=r"^probs shape \(2, 2, 4\) does not match "
                                                r"\(2, 2, 2, 2\)$"):
        DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), np.full((2, 2, 4), 0.25))


def test_channel_needs_both_receiver_kinds():
    p = np.full((2, 2, 2), 0.5)
    with pytest.raises(AlphabetError):
        DmcChannel(2, 2, (("Y1", 2),), p)


def test_compose_identity_channel_marginal():
    probs = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, x1, x2] = 1.0  # Y copies X1, Z copies X2
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    inp = JointDist((("X1", 2), ("X2", 2)), np.array([[0.4, 0.1], [0.2, 0.3]]))
    joint = compose_with_channel(inp, chan)
    np.testing.assert_allclose(
        marginalize(joint, {"Y1"}).probs, marginalize(inp, {"X1"}).probs, atol=1e-14
    )


def test_compose_ignoring_channel_zero_mi(rng):
    probs = np.full((2, 2, 2, 2), 0.25)
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    joint = compose_with_channel(sample_input_dist([("X1", 2), ("X2", 2)], rng), chan)
    assert mutual_information(joint, {"X1", "X2"}, {"Y1"}) == 0.0


def test_compose_matches_bruteforce_product(rng):
    inp = sample_input_dist([("A", 2), ("X1", 2), ("X2", 2)], rng)
    chan = DmcChannel(
        2, 2, (("Y1", 2), ("Z1", 2)),
        rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2),
    )
    joint = compose_with_channel(inp, chan)
    # exhaustive enumeration oracle
    want = np.zeros((2, 2, 2, 2, 2))
    for a in range(2):
        for x1 in range(2):
            for x2 in range(2):
                for y in range(2):
                    for z in range(2):
                        want[a, x1, x2, y, z] = (
                            inp.probs[a, x1, x2] * chan.probs[x1, x2, y, z]
                        )
    assert joint.names == ("A", "X1", "X2", "Y1", "Z1")
    np.testing.assert_allclose(joint.probs, want, atol=1e-15)


def test_compose_rejects_alphabet_mismatch(rng):
    chan = DmcChannel(
        3, 2, (("Y1", 2), ("Z1", 2)),
        rng.dirichlet(np.ones(4), size=(3, 2)).reshape(3, 2, 2, 2),
    )
    with pytest.raises(AlphabetError):
        compose_with_channel(sample_input_dist([("X1", 2), ("X2", 2)], rng), chan)
    with pytest.raises(AlphabetError, match="^input distribution lacks axis 'X1'$"):
        compose_with_channel(sample_input_dist([("U", 3), ("X2", 2)], rng), chan)


# Joint shapes whose marginals cover each branch of numpy's pairwise_sum for
# the trailing dropped run: fewer than 8 terms; 8 to 128 with and without a
# remainder after the blocks of 8 (8, 15, 24, 43, 45, 48, 54, 108); more than
# 128, split evenly (2048, 4096) and unevenly (243, 540); an axis of size 1.
STACK_SHAPES = [(2, 3, 2, 4), (3, 5, 3), (3, 43), (2, 2048), (9, 27),
                (5, 2, 2, 3, 3, 3), (3, 1, 9)]


def _bits(values) -> list[int]:
    """The float64 bit patterns of `values`: -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_stack_entropy_bitwise(rows: np.ndarray) -> None:
    """stack_entropy of the stack of `rows` (K, *shape), held joint-last and
    joint-first in memory, and of each row alone, has the bits of the per-row
    entropy, for every subset of the axes."""
    shape = rows.shape[1:]
    stack = np.ascontiguousarray(np.moveaxis(rows, 0, -1))
    for n in range(len(shape) + 1):
        for keep in itertools.combinations(range(len(shape)), n):
            want = _bits([_subset_entropy(row, keep) for row in rows])
            why = (f"shape {shape}, K={len(rows)}, keep {keep}: stack_entropy no "
                   f"longer sums marginals as numpy {np.__version__}'s own sum does; "
                   f"if numpy changed the order of its reductions (pairwise_sum or "
                   f"the iteration order of a multi-axis sum), the K-last sums "
                   f"of info_theory._marginals must follow it")
            assert _bits(stack_entropy(stack, keep, {})) == want, why
            # the same stack held joint-first in memory
            assert _bits(stack_entropy(np.moveaxis(rows, 0, -1), keep, {})) == want, why
            assert _bits([stack_entropy(row[..., None], keep, {})[0] for row in rows]) == want, why


def test_stack_entropy_is_bitwise_the_per_row_entropy(rng):
    for shape, k in itertools.product(STACK_SHAPES, [1, 2, 3, 8, 9, 64]):
        cells = int(np.prod(shape))
        rows = rng.dirichlet(np.ones(cells), size=k)
        # zeros among 8 or more cells: padding them into a sum would regroup it
        rows[::2] *= rng.random(rows[::2].shape) < 0.5
        # a point mass among the rows, but not as the only row of K = 1, whose
        # marginals must be true sums; the per-row check below still sums it
        # as a stack of one
        if k > 1:
            rows[k // 2] = 0.0
            rows[k // 2, rng.integers(cells)] = 1.0
        _assert_stack_entropy_bitwise(rows.reshape((k,) + shape))
    # Rows with every nonzero count from 1 (a point mass) to all cells, so
    # that the counts straddle 8 and 128, where numpy's pairwise sum changes
    # its grouping; two rows of each count, with their zeros at different
    # cells; in shuffled order, so the rows grouped by count are scattered
    # back to their places.
    for shape in [(3, 45), (2, 3, 43)]:
        cells = int(np.prod(shape))
        rows = np.zeros((2 * cells, cells))
        for i, n in enumerate(np.repeat(np.arange(1, cells + 1), 2)):
            rows[i, rng.choice(cells, n, replace=False)] = rng.dirichlet(np.ones(n))
        rows = rng.permutation(rows)
        # only the two rows without a zero share their pattern of zeros
        assert len({tuple(row > 0) for row in rows}) == len(rows) - 1
        _assert_stack_entropy_bitwise(rows.reshape((-1,) + shape))
    # a stack of point masses alone
    rows = np.zeros((4, 45))
    rows[np.arange(4), [0, 7, 7, 44]] = 1.0
    _assert_stack_entropy_bitwise(rows.reshape(4, 3, 5, 3))


def test_sample_dist_normalized_and_deterministic():
    d1 = sample_input_dist([("X", 2), ("Y", 3)], seed=11)
    d2 = sample_input_dist([("X", 2), ("Y", 3)], seed=11)
    assert d1.probs.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(d1.probs, d2.probs)
    assert d1.probs.min() > 0


def test_sample_dist_dirichlet_moment():
    rng = np.random.default_rng(99)
    mean = np.mean([
        sample_input_dist([("X", 2), ("Y", 2)], rng).probs[0, 0]
        for _ in range(10_000)
    ])
    assert mean == pytest.approx(0.25, abs=0.01)


def test_json_round_trip(rng):
    d = sample_input_dist([("X1", 2), ("X2", 3)], rng)
    back = JointDist.from_json_dict(d.to_json_dict())
    assert back.axes == d.axes
    np.testing.assert_allclose(back.probs, d.probs, atol=1e-15)
    chan = DmcChannel(
        2, 2, (("Y1", 2), ("Z1", 3)),
        rng.dirichlet(np.ones(6), size=(2, 2)).reshape(2, 2, 2, 3),
    )
    back_c = DmcChannel.from_json_dict(chan.to_json_dict())
    np.testing.assert_allclose(back_c.probs, chan.probs, atol=1e-15)


# -- properties -------------------------------------------------------------

dists = st.integers(min_value=0, max_value=10_000).map(
    lambda s: sample_input_dist([("A", 2), ("B", 2), ("C", 2)], seed=s)
)


@given(dists)
@settings(max_examples=60, deadline=None)
def test_mi_symmetry(d):
    lhs = mutual_information(d, {"A"}, {"B"}, {"C"})
    rhs = mutual_information(d, {"B"}, {"A"}, {"C"})
    assert abs(lhs - rhs) <= 1e-10


@given(dists)
@settings(max_examples=60, deadline=None)
def test_mi_chain_rule(d):
    joint = mutual_information(d, {"A", "B"}, {"C"})
    split = mutual_information(d, {"A"}, {"C"}) + mutual_information(
        d, {"B"}, {"C"}, {"A"}
    )
    assert abs(joint - split) <= 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_data_processing_through_channel(seed):
    rng = np.random.default_rng(seed)
    inp = sample_input_dist([("A", 2), ("X1", 2), ("X2", 2)], rng)
    chan = DmcChannel(
        2, 2, (("Y1", 2), ("Z1", 2)),
        rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2),
    )
    joint = compose_with_channel(inp, chan)
    aux = mutual_information(joint, {"A"}, {"Y1", "Z1"})
    inputs = mutual_information(joint, {"X1", "X2"}, {"Y1", "Z1"})
    assert aux <= inputs + 1e-10


@given(dists)
@settings(max_examples=40, deadline=None)
def test_marginalize_preserves_mi(d):
    sub = marginalize(d, {"A", "B"})
    assert abs(
        mutual_information(sub, {"A"}, {"B"}) - mutual_information(d, {"A"}, {"B"})
    ) <= 1e-10


def test_clamp_mi_rounds_noise_to_zero_and_raises_below_tolerance():
    # one rule for every mutual information, with the caller's error class
    clean = np.array([0.0, 0.25, 1.0])
    assert clamp_mi(clean, InternalConsistencyError) is clean  # not copied
    noisy = np.array([0.5, -1e-12, -0.0, -1e-10])
    got = clamp_mi(noisy, InternalConsistencyError)
    assert got.tobytes() == np.array([0.5, 0.0, -0.0, 0.0]).tobytes()
    assert float(clamp_mi(np.float64(-1e-11), ArithmeticError)) == 0.0
    for value in (np.array([0.5, -2e-10]), np.float64(-1e-9), np.array([np.nan, -1.0])):
        with pytest.raises(OverflowError, match="mutual information came out"):
            clamp_mi(value, OverflowError)


@pytest.mark.parametrize("call, message", [
    (lambda: JointDist((("X1", 0), ("X2", 2)), np.zeros((0, 2))),
     "axis 'X1' has nonpositive size 0"),
    (lambda: uniform(("X1", 2), ("X2", 2)).axis_index("U"),
     "unknown variable 'U'; have ('X1', 'X2')"),
    (lambda: DmcChannel(0, 2, (("Y1", 2), ("Z1", 2)), np.zeros((0, 2, 2, 2))),
     "input alphabets must be nonempty"),
], ids=["empty-axis", "absent-axis-name", "empty-input-alphabet"])
def test_alphabet_checks_name_what_is_wrong(call, message):
    with pytest.raises(AlphabetError) as caught:
        call()
    assert str(caught.value) == message
