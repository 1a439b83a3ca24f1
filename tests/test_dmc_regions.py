import itertools
import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mcifc.info_theory import (
    MAX_CELLS,
    AlphabetError,
    DistributionError,
    DmcChannel,
    JointDist,
    compose_with_channel,
    mutual_information,
    sample_input_dist,
    stack_entropy,
)
from mcifc.polytope import (
    RATIONALIZE_GRAIN,
    IneqSystem,
    LinIneq,
    UnboundedRegionError,
    _projection_cone,
    fme_project,
    frontier_contains,
    grid_frontiers,
    integer_frontier,
    project_to_frontier,
    region_equal,
)
from mcifc import dmc_regions as dr, info_theory, polytope

from conftest import (
    imbert_fme_project,
    per_joint_capacity_region,
    random_channel,
    shared_law_channel,
    union_all,
    weak_family_channel,
)

FIXTURE = Path(__file__).parent / "fixtures" / "vsi_not_vwi_witness.json"


def coupled_aux(dist2):
    """Deterministic substitution Q1 = X1, Q = U = V = X2 on a joint over
    (X1, X2)."""
    x1, x2 = dist2.probs.shape
    probs = np.zeros((x1, x2, x2, x2, x1, x2))
    for i in range(x1):
        for j in range(x2):
            probs[i, j, j, j, i, j] = dist2.probs[i, j]
    return dr.AuxAssignment(JointDist(
        (("Q1", x1), ("Q", x2), ("U", x2), ("V", x2), ("X1", x1), ("X2", x2)),
        probs,
    ))


def layered_aux(dist3):
    """Substitution Q1 = (X1, U), Q = U, V = X2 on a joint over (U, X1, X2)."""
    u, x1, x2 = dist3.probs.shape
    probs = np.zeros((u * x1, u, u, x2, x1, x2))
    for a in range(u):
        for i in range(x1):
            for j in range(x2):
                probs[a * x1 + i, a, a, j, i, j] = dist3.probs[a, i, j]
    return dr.AuxAssignment(JointDist(
        (("Q1", u * x1), ("Q", u), ("U", u), ("V", x2), ("X1", x1), ("X2", x2)),
        probs,
    ))


def broadcast_only_aux(dist_quv, x2_map):
    """Singleton X1 and Q1; X2 a deterministic function of (Q, U, V)."""
    q, u, v = dist_quv.probs.shape
    x2 = int(x2_map.max()) + 1
    probs = np.zeros((1, q, u, v, 1, x2))
    for a in range(q):
        for b in range(u):
            for c in range(v):
                probs[0, a, b, c, 0, x2_map[a, b, c]] = dist_quv.probs[a, b, c]
    return dr.AuxAssignment(JointDist(
        (("Q1", 1), ("Q", q), ("U", u), ("V", v), ("X1", 1), ("X2", x2)),
        probs,
    ))


def test_decode_everything_substitution_matches_five_inequalities(rng):
    for _ in range(5):
        chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2)))
        dist2 = sample_input_dist([("X1", 2), ("X2", 2)], rng)
        got = dr.inner_bound_region(coupled_aux(dist2), chan)
        # independent evaluation of the five-inequality system
        joint = compose_with_channel(dist2, chan)

        def mi(l, r, g=()):
            return mutual_information(joint, l, r, g)

        rows = [
            ({"R1": 1}, min(mi(["X1", "X2"], [y]) for y in chan.y_names)),
            ({"R2": 1}, mi(["X2"], ["Z1"], ["X1"])),
            ({"R2": 1}, min(mi(["X2"], [y], ["X1"]) for y in chan.y_names)),
            ({"R1": 1, "R2": 1}, mi(["X1", "X2"], ["Z1"])),
            ({"R1": 1, "R2": 1}, min(mi(["X1", "X2"], [y]) for y in chan.y_names)),
        ]
        want = project_to_frontier(IneqSystem.build(("R1", "R2"), rows), "R1", "R2")
        assert region_equal(got, want, 1e-9)


def test_inner_bound_collapses_without_helper(rng):
    # singleton helper: compare against a separately-coded evaluation of the
    # reduced inequality list (broadcast-only auxiliaries Q, U, V)
    for _ in range(4):
        chan = random_channel(
            rng, x1=1, x2=2, outputs=(("Y1", 2), ("Z1", 2)), alpha=0.8
        )
        dist = sample_input_dist([("Q", 2), ("U", 2), ("V", 2)], rng)
        x2_map = np.array(
            [[[np.random.default_rng(1).integers(0, 2) for _ in range(2)]
              for _ in range(2)] for _ in range(2)]
        )
        x2_map = (np.arange(8).reshape(2, 2, 2) % 2)
        aux = broadcast_only_aux(dist, x2_map)
        got = dr.inner_bound_region(aux, chan)

        joint = compose_with_channel(aux.joint, chan)

        def mi(l, r, g=()):
            return mutual_information(joint, l, r, g)

        iy = {"qu": mi(["Q", "U"], ["Y1"]), "u": mi(["U"], ["Y1"], ["Q"])}
        iz = {"qv": mi(["Q", "V"], ["Z1"]), "v": mi(["V"], ["Z1"], ["Q"])}
        cost = mi(["V"], ["U"], ["Q"])
        rows = [
            ({"R1": 1}, iy["qu"]),
            ({"R2": 1}, iz["qv"]),
            ({"R2": 1}, iy["u"] + iz["qv"] - cost),
            ({"R2": 1}, iy["qu"] + iz["v"] - cost),
            ({"R2": 1}, iy["qu"] + iz["qv"] - cost),
            ({"R1": 1, "R2": 1}, iy["u"] + iz["qv"] - cost),
            ({"R1": 1, "R2": 1}, iy["qu"] + iz["v"] - cost),
            ({"R1": 1, "R2": 1}, iy["qu"] + iz["qv"] - cost),
            ({"R1": 1, "R2": 2}, iy["qu"] + iz["qv"] + iz["v"] - cost),
        ]
        want = project_to_frontier(IneqSystem.build(("R1", "R2"), rows), "R1", "R2")
        assert region_equal(got, want, 1e-9)


def _outcome(project, rows):
    try:
        return project(rows).points
    except UnboundedRegionError as exc:
        return str(exc)


class _BoundBatch:
    """A batch of one joint whose table rows carry their bound in place of
    MI terms, so that `dr._grid_rows` snaps the rows' bounds as a (rows, 1)
    array."""

    joints = np.empty(1)

    @staticmethod
    def value(sets, bound):
        return np.array([bound])


def _grid_frontier(rows):
    return grid_frontiers(*dr._grid_rows(_BoundBatch(), {}, rows))[0]


def test_integer_frontier_matches_rational_projection():
    # every coefficient shape the per-distribution regions and the inner
    # bound use
    table_rows = [row for rows in dr._REGIONS.values() for row in rows]
    table_rows += [*dr._FULL_DECODE.values(), *dr._MP_MIXED.values(), *dr._INNER_BOUND]
    shapes = sorted({tuple(sorted(coeffs.items())) for coeffs, _ in table_rows})
    assert len(shapes) == 4
    rng = np.random.default_rng(31)

    def bound():
        pick = rng.random()
        if pick < 0.1:
            return 0.0
        if pick < 0.2:  # within two 1e-12 grid steps of 0, so some snap to 0
            return float(rng.choice([-1, 1]) * rng.uniform(0, 2e-12))
        return rng.uniform(-0.5, 3)

    def rational(rows):
        return project_to_frontier(IneqSystem.build(("R1", "R2"), rows), "R1", "R2")

    kinds = {"unbounded": 0, "empty": 0, "vertices": 0}
    for _ in range(600):
        picks = rng.choice(len(shapes), size=int(rng.integers(1, 4)))
        rows = [(dict(shapes[k]), bound()) for k in picks]
        got = _outcome(_grid_frontier, rows)
        assert got == _outcome(rational, rows), rows
        kinds["unbounded" if isinstance(got, str) else "vertices" if got else "empty"] += 1
    assert min(kinds.values()) >= 50, kinds


_GUARD_SYSTEMS = [
    # r2 <= r1 - 0.5 under a sum cap, and r1 >= 0.25, r2 >= 0.5: bounded
    ([({"R2": 1, "R1": -1}, -0.5), ({"R1": 1, "R2": 1}, 3.0)],
     ((0.0, 3.0), (1.25, 1.75))),
    ([({"R1": -1}, -0.25), ({"R2": -1}, -0.5), ({"R1": 1, "R2": 2}, 4.0)],
     ((0.0, 3.0), (0.5, 3.0), (1.875, 0.25))),
    ([({"R1": -1}, -0.25), ({"R1": 1, "R2": 1}, 1.0)], ((0.0, 1.0), (0.75, 0.25))),
    # r1 <= r2 - 0.5 under an r1 cap: unbounded along r2
    ([({"R1": 1, "R2": -1}, -0.5), ({"R1": 1}, 2.0)], "unbounded"),
    ([({"R1": 1, "R2": -1}, -0.5), ({"R1": -1}, -0.75)], "unbounded"),
    # empty: r1 <= 2 r2 - 1 with r2 <= 0.25, which only the vertices show
    ([({"R1": 1, "R2": -2}, -1.0), ({"R2": 1}, 0.25)], ()),
    # empty at once: 0 <= -1, and r1 + 2 r2 below zero
    ([({}, -1.0), ({"R1": 1}, 1.0), ({"R2": 1}, 1.0)], ()),
    ([({"R1": 1, "R2": 2}, -1e-12), ({"R1": -1}, -0.5)], ()),
]


@pytest.mark.parametrize("rows, want", _GUARD_SYSTEMS)
def test_integer_frontier_empty_quadrant_guard(rows, want):
    # negative bounds on rows with a coefficient of each sign leave a
    # feasible or unbounded region, which the quadrant test of
    # grid_frontiers must not claim empty; a row with no negative
    # coefficient and a negative bound (0 <= -1 among them) excludes the
    # quadrant
    def rational(rows):
        return project_to_frontier(IneqSystem.build(("R1", "R2"), rows), "R1", "R2")

    got = _outcome(_grid_frontier, rows)
    assert got == _outcome(rational, rows)
    assert ("unbounded" in got if want == "unbounded" else got == want)


def test_grid_frontiers_settle_the_guard_systems_column_by_column():
    # each guard system and, as further columns of one (rows, K) array, the
    # system with each bound negated in turn: mixed-sign rows with negative
    # bounds stay nonempty or unbounded, while a negative bound on a row
    # with no negative coefficient empties its column; every bounded column
    # of one grid_frontiers call is the per-column integer_frontier and
    # project_to_frontier, and each unbounded column raises as they do
    def rational(rows):
        return project_to_frontier(IneqSystem.build(("R1", "R2"), rows), "R1", "R2")

    kinds = set()
    for rows, _ in _GUARD_SYSTEMS:
        systems = [rows] + [rows[:i] + [(coeffs, -bound)] + rows[i + 1:]
                            for i, (coeffs, bound) in enumerate(rows) if bound]
        grid = [dr._grid_rows(_BoundBatch(), {}, system) for system in systems]
        coeff_rows, bounds = grid[0][0], np.hstack([column for _, column in grid])
        assert all(coeffs == coeff_rows for coeffs, _ in grid)

        def by_integer_frontier(column):
            return integer_frontier([(a * RATIONALIZE_GRAIN, b * RATIONALIZE_GRAIN, c)
                                     for (a, b), c in zip(coeff_rows, column)])

        want = [_outcome(rational, system) for system in systems]
        assert want == [_outcome(by_integer_frontier, column) for column in bounds.T.tolist()]
        bounded = [k for k, got in enumerate(want) if not isinstance(got, str)]
        assert [f.points for f in grid_frontiers(coeff_rows, bounds[:, bounded])] == \
            [want[k] for k in bounded]
        for k in set(range(len(systems))) - set(bounded):
            assert _outcome(_grid_frontier, systems[k]) == want[k]
        for column, got in zip(bounds.T.tolist(), want):
            excluded = any(a >= 0 and b >= 0 and c < 0 for (a, b), c in zip(coeff_rows, column))
            mixed = any(a * b < 0 and c < 0 for (a, b), c in zip(coeff_rows, column))
            assert got == () or not excluded
            kinds.add("excluded" if excluded else "unbounded" if isinstance(got, str)
                      else "nonempty" if got and mixed else None)
    assert {"excluded", "unbounded", "nonempty"} <= kinds


def test_inner_bound_zero_channel_gives_origin(rng):
    probs = np.full((2, 2, 2, 2), 0.25)
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    aux = coupled_aux(sample_input_dist([("X1", 2), ("X2", 2)], rng))
    assert dr.inner_bound_region(aux, chan).points == ((0.0, 0.0),)


def test_inner_bound_duplicate_receiver_no_change(rng):
    base = random_channel(rng, outputs=(("Y1", 2), ("Z1", 2)))
    # add Y2 as an iid copy of Y1's conditional law
    law = base.probs.sum(axis=3)  # P(y1 | x1 x2)
    z_given = base.probs.sum(axis=2)
    probs = np.einsum("abi,abj,abk->abijk", law, law, z_given)
    dup = DmcChannel(2, 2, (("Y1", 2), ("Y2", 2), ("Z1", 2)), probs)
    aux = coupled_aux(sample_input_dist([("X1", 2), ("X2", 2)], rng))
    # note: duplicated receiver leaves every min_j term unchanged only if the
    # original channel had independent outputs; rebuild the base accordingly
    base_probs = np.einsum("abi,abk->abik", law, z_given)
    base_ind = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), base_probs)
    fr_base = dr.inner_bound_region(aux, base_ind)
    fr_dup = dr.inner_bound_region(aux, dup)
    assert region_equal(fr_base, fr_dup, 1e-9)


def test_inner_bound_r1_never_exceeds_min_y_bound(rng):
    for _ in range(6):
        chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 3), ("Z1", 2)))
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng
        ))
        fr = dr.inner_bound_region(aux, chan)
        if fr.is_empty:
            continue
        joint = compose_with_channel(aux.joint, chan)
        cap = min(
            mutual_information(joint, ["Q1", "X1", "Q", "U"], [y])
            for y in chan.y_names
        )
        assert fr.value(0.0) <= cap + 1e-9


# -- constraint-system verification ------------------------------------------


def test_verify_fme_on_random_instances(rng):
    for _ in range(8):
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng
        ))
        chan = random_channel(rng)
        assert dr.verify_fme_inner_bound(aux, chan)


def test_verify_fme_degenerate_aux():
    const = np.zeros((1, 1, 1, 1, 2, 2))
    const[0, 0, 0, 0] = 0.25
    aux = dr.AuxAssignment(JointDist(
        (("Q1", 1), ("Q", 1), ("U", 1), ("V", 1), ("X1", 2), ("X2", 2)), const
    ))
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), np.full((2, 2, 2, 2), 0.25))
    assert dr.inner_bound_region(aux, chan).points == ((0.0, 0.0),)
    assert dr.verify_fme_inner_bound(aux, chan)


def test_verify_fme_detects_corruption(rng):
    # find an instance with a solidly nonempty region on which the baseline
    # verification holds, then tighten the pure-R1 row; the comparison must
    # flag the mutated system. The fixture's stream first holds one at draw
    # 2715, so a verification that never holds fails here instead of hanging
    for _ in range(4000):
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng
        ))
        chan = random_channel(rng)
        direct = dr.inner_bound_system(aux, chan)
        fr = project_to_frontier(direct, "R1", "R2")
        if (not fr.is_empty and fr.value(0.0) > 0.08
                and dr.verify_fme_inner_bound(aux, chan)):
            break
    else:
        pytest.fail("no verified instance with a solidly nonempty region in 4000 draws")
    top = fr.value(0.0)
    rows = list(direct.inequalities)
    corrupted_rows = []
    hit = 0
    for iq in rows:
        if iq.support == frozenset({"R1"}):
            corrupted_rows.append(LinIneq.of(dict(iq.coeffs), top * 0.5))
            hit += 1
        else:
            corrupted_rows.append(iq)
    assert hit == 1  # the single pure-R1 inequality
    corrupted = IneqSystem(direct.variables, tuple(corrupted_rows))
    projected = fme_project(dr.coding_constraint_system(aux, chan), ("R1", "R2"))
    via_fme = project_to_frontier(projected, "R1", "R2")
    assert not region_equal(
        project_to_frontier(corrupted, "R1", "R2"), via_fme, 1e-9
    )
    assert dr.verify_fme_inner_bound(aux, chan)


def test_verify_fme_compares_at_1e_9():
    # a superposition draw with a little Dirichlet mass: both regions are
    # nonempty, and the projection is smaller by about 1e-5, a gap that a
    # comparison at 1e-3 would pass
    rng = np.random.default_rng(12)
    aux = superposition_aux(rng, 1e-2)
    chan = random_channel(rng)
    direct = dr.inner_bound_region(aux, chan)
    via = project_to_frontier(
        fme_project(dr.coding_constraint_system(aux, chan), ("R1", "R2")), "R1", "R2")
    assert not direct.is_empty and not via.is_empty
    assert not region_equal(direct, via, 1e-9) and region_equal(direct, via, 1e-3)
    assert not dr.verify_fme_inner_bound(aux, chan)


_AXES = (("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2))
_OUTPUTS = (("Y1", 2), ("Z1", 2))


def _nan(cells):
    cells.flat[1] = np.nan


def _negative(cells):
    cells.flat[1] *= -1


def _off_by_1e_9(cells):
    cells *= 1 + 1e-9


@pytest.mark.parametrize("which, change, match", [
    ("inputs", _nan, "negative or NaN input"),
    ("inputs", _negative, "negative or NaN input"),
    ("inputs", _off_by_1e_9, "input joints sum"),
    ("probs", _nan, "negative or NaN transition"),
    ("probs", _negative, "negative or NaN transition"),
    ("probs", _off_by_1e_9, "conditional slices"),
], ids=["input-nan", "input-negative", "input-sum", "law-nan", "law-negative", "law-sum"])
def test_verify_fme_stack_rejects_an_invalid_row(which, change, match, rng):
    # one bad joint, or one bad (x1, x2) slice of a channel law, in an
    # otherwise valid stack of 5 instances
    stack = {"inputs": rng.dirichlet(np.ones(64), size=5).reshape((5,) + (2,) * 6),
             "probs": rng.dirichlet(np.ones(4), size=(5, 2, 2)).reshape(5, 2, 2, 2, 2)}
    assert len(dr.verify_fme_stack(_AXES, stack["inputs"], _OUTPUTS, stack["probs"])) == 5
    row = stack[which][3]
    change(row if which == "inputs" else row[1, 0])
    with pytest.raises(DistributionError, match=match):
        dr.verify_fme_stack(_AXES, stack["inputs"], _OUTPUTS, stack["probs"])


@pytest.mark.parametrize("axes, outputs, law_shape, error, match", [
    ((("Q", 2), ("Q", 2), ("X1", 2), ("X2", 2)), _OUTPUTS, (2, 2, 2, 2), AlphabetError,
     "duplicate axis names"),
    ((("Q", 2), ("Y1", 2), ("X1", 2), ("X2", 2)), _OUTPUTS, (2, 2, 2, 2), AlphabetError,
     "duplicate axis names"),
    ((("Q", 2), ("X1", 2), ("X2", 2), ("U", 2)), _OUTPUTS, (2, 2, 2, 2), AlphabetError,
     "must end with X1, X2"),
    ((("Q", 2), ("U", 2), ("X1", 2), ("X2", 2)), _OUTPUTS, (2, 2, 2, 3), DistributionError,
     "stack shapes"),
    ((("Q", 2), ("U", 2), ("X1", 2), ("X2", 2)), (("Y1", 2), ("Z1", 3)), (2, 2, 2, 2),
     DistributionError, "stack shapes"),
], ids=["duplicate-input", "input-named-as-output", "not-ending-x1-x2", "law-shape",
        "output-size"])
def test_verify_fme_stack_rejects_malformed_axes(axes, outputs, law_shape, error, match, rng):
    inputs = rng.dirichlet(np.ones(16), size=3).reshape(3, 2, 2, 2, 2)
    probs = np.full((3,) + law_shape, 1 / np.prod(law_shape[2:]))
    with pytest.raises(error, match=match):
        dr.verify_fme_stack(axes, inputs, outputs, probs)


def test_verify_fme_stack_of_no_instance():
    # one answer per instance, and none for an empty stack, whose axes and
    # shapes are still checked
    inputs, probs = np.empty((0,) + (2,) * 6), np.empty((0, 2, 2, 2, 2))
    assert dr.verify_fme_stack(_AXES, inputs, _OUTPUTS, probs) == []
    with pytest.raises(DistributionError, match="stack shapes"):
        dr.verify_fme_stack(_AXES, inputs, _OUTPUTS, np.empty((0, 2, 2, 2, 3)))
    with pytest.raises(AlphabetError, match="must end with X1, X2"):
        dr.verify_fme_stack(_AXES[::-1], inputs, _OUTPUTS, probs)


def _scale_off_by_1e_9(cells):
    cells *= 1 + 1e-9


def _laws(rng, *stack, side=2):
    """Dirichlet(1) channel laws (*stack, x1 = 2, x2 = 2, side, side)."""
    size = stack + (2, 2)
    return rng.dirichlet(np.ones(side * side), size=size).reshape(size + (side, side))


def _message(error, call):
    with pytest.raises(error) as caught:
        call()
    return str(caught.value)


def _check_regime_with(law, outputs):
    """check_regime on a channel holding `law` unchecked, so that the joints
    it composes carry whatever `law` carries."""
    chan = DmcChannel(2, 2, outputs, np.full(law.shape, 1 / law[0, 0].size))
    object.__setattr__(chan, "probs", law)
    dr.check_regime(chan, dr.MULTI_SECONDARY, "VWI", samples=2)


# what the rules call a cell, the sums that must be 1 and the whole tensor,
# for each kind of tensor
_KIND_WORDS = {"joint": ("probability", "probabilities", "product alphabet"),
               "input": ("input probability", "input joints", "product alphabet"),
               "transition": ("transition probability", "conditional slices", "channel tensor")}


@pytest.mark.parametrize("defect, wording", [
    (_nan, "negative or NaN {0} nan"),
    (_negative, r"negative or NaN {0} -0\.\d+"),
    (_scale_off_by_1e_9, "{1} sum to 1 only within 1e-09"),
], ids=["nan", "negative", "sum"])
def test_every_entry_point_applies_the_one_validity_rule(defect, wording, rng):
    joint, law = rng.dirichlet(np.ones(12)).reshape(3, 2, 2), _laws(rng)
    inputs, laws = rng.dirichlet(np.ones(64), size=3).reshape((3,) + (2,) * 6), _laws(rng, 3)
    valid_inputs, valid_laws = inputs.copy(), laws.copy()
    for cells in (joint, law, inputs[1], laws[1, 0, 1]):
        defect(cells)
    err = DistributionError
    messages = {
        "joint": [_message(err, lambda: JointDist((("U", 3), ("X1", 2), ("X2", 2)), joint)),
                  _message(err, lambda: _check_regime_with(law, _OUTPUTS))],
        "input": [_message(err, lambda: dr.verify_fme_stack(_AXES, inputs, _OUTPUTS, valid_laws))],
        "transition": [
            _message(err, lambda: DmcChannel(2, 2, _OUTPUTS, law)),
            _message(err, lambda: dr.verify_fme_stack(_AXES, valid_inputs, _OUTPUTS, laws))],
    }
    for kind, texts in messages.items():
        for text in texts:
            assert re.fullmatch(wording.format(*_KIND_WORDS[kind]), text), (kind, text)


def test_every_entry_point_applies_the_one_cell_cap(rng):
    wide = (("Y1", 16), ("Z1", 16))  # 1024 cells of a law, 256 per (x1, x2)
    texts = [
        ("joint", _message(AlphabetError,
                           lambda: JointDist((("U", 4097),), np.full(4097, 1 / 4097)))),
        ("transition", _message(AlphabetError, lambda: DmcChannel(
            2, 2, (("Y1", 64), ("Z1", 32)), np.full((2, 2, 64, 32), 1 / 2048)))),
        # composed with (U, X1, X2) of 20 cells
        ("joint", _message(AlphabetError, lambda: _check_regime_with(_laws(rng, side=16), wide))),
        # composed with inputs of 64 cells
        ("joint", _message(AlphabetError, lambda: dr.verify_fme_stack(
            _AXES, rng.dirichlet(np.ones(64), size=3).reshape((3,) + (2,) * 6), wide,
            _laws(rng, 3, side=16)))),
    ]
    cells = [4097, 8192, 5120, 16384]
    for (kind, text), n in zip(texts, cells):
        assert text == f"{_KIND_WORDS[kind][2]} has {n} cells, exceeding the cap of {MAX_CELLS}"


def test_projection_never_exceeds_inequality_region():
    """On rare degenerate draws a precoding layer cannot carry even zero rate
    (its binning cost exceeds its decoding budget) and the exact projection is
    strictly smaller than the inequality-list region; it is never larger.
    The first such draw under this stream sits at index 116."""
    rng = np.random.default_rng(0)
    found_strict = False
    for i in range(120):
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng
        ))
        probs = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
        direct = project_to_frontier(dr.inner_bound_system(aux, chan), "R1", "R2")
        via = project_to_frontier(
            fme_project(dr.coding_constraint_system(aux, chan), ("R1", "R2")),
            "R1", "R2",
        )
        assert frontier_contains(direct, via, 1e-9)
        if not region_equal(direct, via, 1e-9):
            found_strict = True
    assert found_strict


def superposition_aux(rng, t=0.0):
    """Auxiliary joint drawn as p(q1) p(q|q1) p(v|q1,q) p(x1|q1) p(u,x2|q1,q,x1),
    then mixed with weight t of a Dirichlet joint. At t = 0, X1 is independent
    of (Q, V) given Q1, so the covering costs I(X1;Q|Q1) and I(V;X1|Q1,Q)
    vanish and the inner-bound region is nonempty."""

    def cond(*shape):
        return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])

    joint = np.einsum("a,ab,abv,ax,abxuy->abuvxy", cond(2), cond(2, 2), cond(2, 2, 2),
                      cond(2, 2), cond(2, 2, 2, 4).reshape(2, 2, 2, 2, 2))
    joint = (1 - t) * joint + t * rng.dirichlet(np.ones(64)).reshape(joint.shape)
    return dr.AuxAssignment(JointDist(
        (("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)), joint
    ))


def test_verify_fme_on_nonempty_regions(rng):
    # the Dirichlet stream of verify-fme gives an empty region on about 99% of
    # its draws; superposition-structured assignments give nonempty ones
    multi_point = 0
    for _ in range(240):
        aux = superposition_aux(rng)
        chan = random_channel(rng)
        direct = dr.inner_bound_region(aux, chan)
        assert not direct.is_empty
        multi_point += len(direct.points) >= 3
        assert dr.verify_fme_inner_bound(aux, chan)
    assert multi_point >= 50
    # a little Dirichlet mass makes the covering costs positive: the
    # projection may then be strictly smaller, but never larger
    strictly_smaller = 0
    for _ in range(40):
        aux = superposition_aux(rng, 0.2 * (1.0 - rng.random()))  # t in (0, 0.2]
        chan = random_channel(rng)
        direct = dr.inner_bound_region(aux, chan)
        via_fme = project_to_frontier(
            fme_project(dr.coding_constraint_system(aux, chan), ("R1", "R2")), "R1", "R2"
        )
        assert frontier_contains(direct, via_fme, 1e-9)
        strictly_smaller += not frontier_contains(via_fme, direct, 1e-9)
    assert strictly_smaller >= 1


def _verify_fme_stream(seed):
    """The (aux, chan) draws of `mcifc verify-fme --seed SEED`."""
    rng = np.random.default_rng(seed)
    while True:
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng
        ))
        probs = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        yield aux, DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("samples", [1, 2, 63, 64, 65, 128, 130])
def test_verify_fme_draws_the_per_instance_stream(samples, seed):
    # the chunks verify_fme_failures stacks hold, bit for bit, the joints and
    # channel laws of drawing each instance as a JointDist and a DmcChannel,
    # and leave the generator where that loop leaves it; the sample counts
    # straddle the chunk edges, and 130 samples span three chunks
    rng = np.random.default_rng(seed)
    joints, laws = [], []
    for _ in range(samples):
        joints.append(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng).probs)
        probs = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        laws.append(DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs).probs)

    stacked = np.random.default_rng(seed)
    inputs, probs = [], []
    for start in range(0, samples, dr._CHUNK_CAP):
        chunk = dr._draw_fme_chunk(stacked, min(dr._CHUNK_CAP, samples - start))
        inputs += list(chunk[0])
        probs += list(chunk[1])
    assert len(inputs) == len(probs) == samples
    for got, want in zip(inputs + probs, joints + laws):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert stacked.bit_generator.state == rng.bit_generator.state


def test_verify_fme_failures_are_prefix_stable():
    # instance k is the same draw whatever the sample count: seed 3 fails at
    # index 51 only, in one chunk or across three
    assert dr.verify_fme_failures(60, 3) == [51]
    assert dr.verify_fme_failures(51, 3) == []
    assert dr.verify_fme_failures(130, 3)[:1] == [51]


def test_fme_project_matches_imbert_oracle_on_coding_systems():
    stream = _verify_fme_stream(0)
    draws = [next(stream) for _ in range(200)]
    rng = np.random.default_rng(9)
    for k in range(240):
        t = 0.0 if k % 2 else 0.2 * (1.0 - rng.random())  # t in (0, 0.2]
        draws.append((superposition_aux(rng, t), random_channel(rng)))
    nonempty = 0
    for aux, chan in draws:
        system = dr.coding_constraint_system(aux, chan)
        got = project_to_frontier(fme_project(system, ("R1", "R2")), "R1", "R2")
        want = project_to_frontier(imbert_fme_project(system, ("R1", "R2")), "R1", "R2")
        assert got.points == want.points
        nonempty += not got.is_empty
    assert nonempty >= 100


def test_lockstep_verification_matches_exact_references():
    # 128 binary-alphabet instances in one stack, twice the chunk verify-fme
    # draws: the first 60 draws of `verify-fme --seed 3` (index 51 is a
    # documented mismatch), 28 superposition-structured draws and the first
    # 40 draws of `--seed 4` (index 35 is one too); then two with a ternary
    # X2 in a stack of their own
    seed3, seed4 = _verify_fme_stream(3), _verify_fme_stream(4)
    draws = [next(seed3) for _ in range(60)]
    rng = np.random.default_rng(17)
    for k in range(28):
        t = 0.0 if k % 2 else 0.2 * (1.0 - rng.random())  # t in (0, 0.2]
        draws.append((superposition_aux(rng, t), random_channel(rng)))
    draws += [next(seed4) for _ in range(40)]
    assert len(draws) == 128 == 2 * dr._CHUNK_CAP
    ternary = []
    for _ in range(2):
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 3)], rng
        ))
        ternary.append((aux, random_channel(rng, x2=3, outputs=(("Y1", 3), ("Z1", 2)))))

    held = []
    for stack in (draws, ternary):
        aux, chan = stack[0]
        assert all(a.joint.axes == aux.joint.axes and c.outputs == chan.outputs
                   for a, c in stack)
        held += dr.verify_fme_stack(aux.joint.axes, np.stack([a.joint.probs for a, _ in stack]),
                                    chan.outputs, np.stack([c.probs for _, c in stack]))
    draws += ternary
    failures = [k for k, ok in enumerate(held) if not ok]
    assert [k for k in failures if not 60 <= k < 88] == [51, 88 + 35]
    # superposition draws with Dirichlet mass may project strictly smaller
    assert any(60 <= k < 88 for k in failures)
    nonempty = 0
    for ok, (aux, chan) in zip(held, draws, strict=True):
        assert ok == dr.verify_fme_inner_bound(aux, chan)
        direct = dr.inner_bound_region(aux, chan)
        system = dr.coding_constraint_system(aux, chan)
        for project in (fme_project, imbert_fme_project):
            via = project_to_frontier(project(system, ("R1", "R2")), "R1", "R2")
            assert ok == region_equal(direct, via, 1e-9)
        nonempty += not direct.is_empty
    assert nonempty >= 14  # the superposition draws at t = 0 at least


def test_lockstep_verification_checks_every_channel(rng):
    # a channel with two Y outputs, and one whose X2 alphabet differs from
    # the auxiliary joint's
    aux = superposition_aux(rng)
    with pytest.raises(dr.RegimeError):
        dr.verify_fme_inner_bound(
            aux, random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2))))
    with pytest.raises(AlphabetError,
                       match=r"input alphabet sizes \(2,2\) do not match channel \(2,3\)"):
        dr.verify_fme_inner_bound(aux, random_channel(rng, x2=3))


def test_coding_system_projection_cone_structure(rng):
    system = dr.coding_constraint_system(superposition_aux(rng), random_channel(rng))
    _projection_cone.cache_clear()
    fme_project(system, ("R1", "R2"))
    # the coding system has integer coefficients, so this is the cone's key
    matrix = tuple(tuple(int(iq.coeff(v)) for v in system.variables) for iq in system.inequalities)
    assert len(matrix) == 21 and len(system.variables) == 9
    constant, directions = _projection_cone(system.variables, ("R1", "R2"), matrix)
    assert _projection_cone.cache_info()[:2] == (1, 1)  # (hits, misses)
    # extreme rays of a pointed cone are unique up to scale: a drifting count
    # means the minimal-support rule broke
    assert len(constant) == 39
    assert sum(len(rays) for _, _, rays in directions) == 54
    shapes = {(c.get("R1", 0), c.get("R2", 0)) for c, _ in dr._INNER_BOUND}
    assert shapes == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert {d for d, _, _ in directions} == shapes | {(-1, 0), (0, -1)}


def test_verify_fme_requires_single_pair(rng):
    chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2)))
    aux = dr.AuxAssignment(sample_input_dist(
        [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2)], rng
    ))
    with pytest.raises(dr.RegimeError):
        dr.coding_constraint_system(aux, chan)


# -- regime checks ------------------------------------------------------------


def test_vsi_pass_on_identical_outputs():
    probs = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, x2, x2] = 1.0  # Z a deterministic copy of Y1
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=50, seed=1)
    assert rep.passed and rep.witness is None
    assert rep.label == "VSI"
    assert rep.samples_checked >= 50


def test_vsi_noise_y_fails_strong_condition():
    probs = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, :, x2] = 0.5  # Y pure noise, Z = X2
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=50, seed=1)
    assert not rep.passed
    assert rep.label == "none"
    assert rep.witness.condition == "strong"
    assert rep.witness.margin > 1e-6


def _law(kind):
    """p(out | x1, x2) of one output on binary inputs: a copy of X1, of X2 or
    of the pair, the pair with X1 through a BSC(0.25), or uniform noise."""
    law = np.zeros((2, 2, 4 if kind in ("both", "x2_bsc") else 2))
    for a in range(2):
        for b in range(2):
            if kind == "noise":
                law[a, b] = 0.5
            elif kind == "x2_bsc":
                law[a, b, 2 * b + a], law[a, b, 2 * b + 1 - a] = 0.75, 0.25
            else:
                law[a, b, {"x1": a, "x2": b, "both": 2 * a + b}[kind]] = 1.0
    return law


def law_channel(**outputs):
    """Outputs independent given (X1, X2), each with the named _law."""
    laws = [_law(kind) for kind in outputs.values()]
    probs = laws[0]
    for law in laws[1:]:
        probs = np.einsum("ab...,abk->ab...k", probs, law)
    return DmcChannel(2, 2, tuple((n, law.shape[2]) for n, law in zip(outputs, laws)),
                      probs)


_MP_SPLIT = (("Y1",), ("Y2",))
_MS_SPLIT = (("Z2",), ("Z1",))


# One channel per condition label, each failing first at that condition:
# (class, regime, partition, outputs, witness). The witnesses were recorded
# before the conditions became tables; each check is seeded with its index.
WITNESS_CASES = [
    (dr.MULTI_PRIMARY, "VSI", None, dict(Y1="noise", Z1="x2"),
     ("Y1", "strong", 2, 0.543564443199596)),
    (dr.MULTI_PRIMARY, "VSI", None, dict(Y1="both", Y2="x2_bsc", Z1="x2"),
     ("Y2", "very_strong", 10, 0.08476010807542456)),
    (dr.MULTI_PRIMARY, "VWI", None, dict(Y1="noise", Y2="x2", Z1="noise"),
     ("Y2", "weak", 1, 0.12314068931309086)),
    (dr.MULTI_PRIMARY, "VWI", None, dict(Y1="noise", Y2="x1", Z1="noise"),
     ("Y2", "very_weak", 1, 0.9411648918236133)),
    (dr.MULTI_PRIMARY, "mixed", _MP_SPLIT, dict(Y1="both", Y2="x2", Z1="noise"),
     ("Y2", "mixed_weak", 1, 0.3498427301026916)),
    (dr.MULTI_PRIMARY, "mixed", _MP_SPLIT, dict(Y1="noise", Y2="noise", Z1="x2"),
     ("Y1", "mixed_strong", 1, 0.982752960264978)),
    (dr.MULTI_PRIMARY, "mixed", _MP_SPLIT, dict(Y1="x2", Y2="x1", Z1="noise"),
     ("*", "mixed_or", 1, 0.8703563242956149)),
    (dr.MULTI_SECONDARY, "VSI", None, dict(Y1="noise", Z1="noise", Z2="x2"),
     ("Z2", "strong", 2, 0.543564443199596)),
    (dr.MULTI_SECONDARY, "VSI", None, dict(Y1="both", Z1="both", Z2="x2"),
     ("Z2", "very_strong", 10, 0.5435644431995964)),
    (dr.MULTI_SECONDARY, "VWI", None, dict(Y1="x2", Z1="both", Z2="noise"),
     ("Z2", "weak", 1, 0.4549981522618103)),
    (dr.MULTI_SECONDARY, "VWI", None, dict(Y1="x1", Z1="both", Z2="noise"),
     ("Z2", "very_weak", 1, 0.9999977170714129)),
    (dr.MULTI_SECONDARY, "mixed", _MS_SPLIT, dict(Y1="x2", Z1="noise", Z2="both"),
     ("Z1", "mixed_weak", 1, 0.1977073997924519)),
    (dr.MULTI_SECONDARY, "mixed", _MS_SPLIT, dict(Y1="x1", Z1="noise", Z2="both"),
     ("Z1", "mixed_very_weak", 1, 0.8965072520403958)),
    (dr.MULTI_SECONDARY, "mixed", _MS_SPLIT, dict(Y1="noise", Z1="both", Z2="x2"),
     ("Z2", "mixed_strong", 1, 0.9215572992544903)),
    (dr.MULTI_SECONDARY, "mixed", _MS_SPLIT, dict(Y1="both", Z1="both", Z2="x2"),
     ("Z2", "mixed_very_strong", 1, 0.9830894942464887)),
]


@pytest.mark.parametrize("seed", range(len(WITNESS_CASES)),
                         ids=[f"{c[0]}-{c[4][1]}" for c in WITNESS_CASES])
def test_regime_witness_of_every_condition(seed):
    klass, regime, partition, outputs, witness = WITNESS_CASES[seed]
    rep = dr.check_regime(law_channel(**outputs), klass, regime, samples=50,
                          seed=seed, partition=partition)
    receiver, condition, checked, margin = witness
    assert (rep.witness.receiver, rep.witness.condition) == (receiver, condition)
    assert rep.samples_checked == checked
    assert rep.witness.margin == pytest.approx(margin, abs=1e-12)


def test_vwi_pass_on_degraded_family(rng):
    chan = weak_family_channel(rng)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VWI", samples=150, seed=2)
    assert rep.passed, (rep.witness.condition, rep.witness.margin)


def test_mixed_partition_validated(rng):
    chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2)))
    with pytest.raises(dr.RegimeError):
        dr.check_regime(chan, dr.MULTI_PRIMARY, "mixed", samples=5,
                        partition=(("Y1",), ("Y1", "Y2")))
    with pytest.raises(dr.RegimeError):
        dr.check_regime(chan, dr.MULTI_PRIMARY, "mixed", samples=5)
    # a repeated receiver covers the set without splitting it; a name that is
    # not a receiver is rejected whatever its type
    for partition in ((("Y1",), ("Y2", "Y2")), (("Y1", "Y1"), ("Y2",)), (("Y1",), (2,))):
        with pytest.raises(dr.RegimeError, match="must split"):
            dr.check_regime(chan, dr.MULTI_PRIMARY, "mixed", samples=5, partition=partition)


def test_check_regime_rejects_an_unknown_regime_and_no_samples(rng):
    chan = random_channel(rng)
    with pytest.raises(dr.RegimeError, match="^unknown regime 'WI'$"):
        dr.check_regime(chan, dr.MULTI_SECONDARY, "WI", samples=5)
    with pytest.raises(dr.RegimeError, match="^samples must be >= 1$"):
        dr.check_regime(chan, dr.MULTI_SECONDARY, "VWI", samples=0)
    with pytest.raises(dr.RegimeError, match="^unknown class 'multi_relay'$"):
        dr.check_regime(chan, "multi_relay", "VWI", samples=5)


def test_partition_checked_in_every_regime(rng):
    # also in the regimes that ignore the partition, with the mixed message
    chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2)))
    for regime in ("VSI", "VWI"):
        with pytest.raises(dr.RegimeError, match="must split"):
            dr.check_regime(chan, dr.MULTI_PRIMARY, regime, samples=5,
                            partition=(("Y1",), ("Y1",)))
        split = dr.check_regime(chan, dr.MULTI_PRIMARY, regime, samples=5,
                                partition=(("Y2",), ("Y1",)))
        assert split.partition == ((), ())
        unsplit = dr.check_regime(chan, dr.MULTI_PRIMARY, regime, samples=5)
        assert split.to_json_dict() == unsplit.to_json_dict()


def test_channel_class_and_receivers(rng):
    mp = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2)))
    ms = random_channel(rng, outputs=(("Y1", 2), ("Z1", 2), ("Z2", 2)))
    both = random_channel(rng, outputs=(("Y1", 2), ("Z1", 2)))
    assert dr.channel_class(mp) == dr.MULTI_PRIMARY
    assert dr.receivers(mp, dr.MULTI_PRIMARY) == ("Y1", "Y2")
    assert dr.channel_class(ms) == dr.MULTI_SECONDARY
    assert dr.receivers(ms, dr.MULTI_SECONDARY) == ("Z1", "Z2")
    # one Y and one Z: multi-primary, as the CLI has always read it
    assert dr.channel_class(both) == dr.MULTI_PRIMARY
    with pytest.raises(dr.RegimeError, match="exactly one Z"):
        dr.channel_class(random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2), ("Z2", 2))))


def test_mixed_pass_on_constructed_family(rng):
    # Y1 strong-side: iid copy of Z's law; Y2 weak-side: garbling of Z
    base = rng.dirichlet(np.ones(3), size=(2, 2))
    g = rng.dirichlet(np.ones(3), size=3)
    y2 = base @ g
    probs = np.einsum("abi,abj,abk->abijk", base, y2, base)
    chan = DmcChannel(2, 2, (("Y1", 3), ("Y2", 3), ("Z1", 3)), probs)
    rep = dr.check_regime(
        chan, dr.MULTI_PRIMARY, "mixed", samples=150, seed=3,
        partition=(("Y1",), ("Y2",)),
    )
    assert rep.passed, (rep.witness.condition, rep.witness.margin)


def test_ms_vsi_pass_on_shared_law(rng):
    base = rng.dirichlet(np.ones(2), size=(2, 2))
    probs = np.einsum("abi,abj,abk->abijk", base, base, base)
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2), ("Z2", 2)), probs)
    rep = dr.check_regime(chan, dr.MULTI_SECONDARY, "VSI", samples=100, seed=4)
    assert rep.passed


def test_check_regime_matches_independent_reimplementation(rng):
    chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2)))
    seed = 12345
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=200, seed=seed)

    # duplicate implementation on the same seed stream
    stream = np.random.default_rng(seed)
    grid = dr._simplex_grid(4)
    dists = [JointDist((("X1", 2), ("X2", 2)), v.reshape(2, 2)) for v in grid]
    dists += [sample_input_dist([("X1", 2), ("X2", 2)], stream) for _ in range(200)]
    failed_at = None
    witness_margin = None
    for k, d in enumerate(dists):
        joint = compose_with_channel(d, chan)
        strong_lhs = mutual_information(joint, ["X2"], ["Z1"], ["X1"])
        margins = [
            strong_lhs - mutual_information(joint, ["X2"], [y], ["X1"])
            for y in ("Y1", "Y2")
        ]
        vs = min(
            mutual_information(joint, ["X1", "X2"], [y]) for y in ("Y1", "Y2")
        ) - mutual_information(joint, ["X1", "X2"], ["Z1"])
        worst = max(margins + [vs])
        if worst > dr.VIOLATION_TOL:
            failed_at = k + 1
            witness_margin = worst
            break
    assert rep.passed == (failed_at is None)
    if failed_at is not None:
        assert rep.samples_checked == failed_at
        # the recorded first-violation margin is one of the violated rows
        assert rep.witness.margin <= witness_margin + 1e-12


AUX_AXES = (("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 2))
U_AXES = (("U", 3), ("X1", 2), ("X2", 2))


def _terms(rows):
    return {term for _, terms in rows for term in terms}


# every term of each MI table, with the input axes the table is evaluated on
TABLE_TERMS = {
    "inner_bound": (AUX_AXES, _terms(dr._INNER_BOUND)),
    "coding_system": (AUX_AXES, _terms(dr._CODING_SYSTEM)),
    "conditions": (U_AXES, {term for conditions in dr._CONDITIONS.values()
                            for _, _, *alternatives in conditions
                            for terms in alternatives for term in terms}),
    "regions": (U_AXES, {term for rows in dr._REGIONS.values() for term in _terms(rows)}),
}


@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zeros"])
@pytest.mark.parametrize("table", sorted(TABLE_TERMS))
def test_batched_terms_equal_mutual_information_bitwise(table, zeros, rng):
    axes, terms = TABLE_TERMS[table]
    shape = tuple(k for _, k in axes)
    cells = int(np.prod(shape))
    stack = rng.dirichlet(np.ones(cells), size=6)
    if zeros:
        # grid vertices: one, two and three cells of k/8; the channel's zero
        # transitions leave zeros in output marginals of 8 and 16 cells
        chan = law_channel(Y1="both", Y2="x2_bsc", Z1="x2", Z2="noise")
        for row, weights in zip(stack[:4], [(8,), (5, 3), (4, 3, 1), (6, 1, 1)]):
            row[:] = 0.0
            row[rng.choice(cells, size=len(weights), replace=False)] = np.divide(weights, 8)
    else:
        chan = random_channel(rng, outputs=(("Y1", 2), ("Y2", 2), ("Z1", 2), ("Z2", 2)))
    stack = stack.reshape((len(stack),) + shape)
    batch = dr._compose(axes, stack, chan.outputs, chan.probs)
    receiver_keys = set(dr._receiver_sets(chan.outputs)) | {"r"}
    joints = [compose_with_channel(JointDist(axes, row), chan) for row in stack]
    for _, left, right, given in sorted(terms):
        rights = ([(name,) for name, _ in chan.outputs] if right in receiver_keys
                  else [tuple(right.split())])
        for r in rights:
            got = batch.mi(left, r, given)
            for k, joint in enumerate(joints):
                want = mutual_information(joint, left.split(), r, given.split())
                assert got[k] == want, (left, r, given, k)
                one = dr._compose(axes, stack[k:k + 1], chan.outputs, chan.probs)
                assert one.mi(left, r, given)[0] == want


def test_head_entropies_equal_a_fresh_batch_bitwise(rng):
    # head(n) leaves a strided view of the joints: an entropy first asked for
    # after the cut must be that of the first n joints composed on their own
    chan = random_channel(rng, outputs=(("Y1", 3), ("Y2", 3), ("Z1", 3)))
    shape = tuple(k for _, k in U_AXES)
    stack = rng.dirichlet(np.ones(int(np.prod(shape))), size=64).reshape((64,) + shape)
    names = [n for n, _ in U_AXES + chan.outputs]
    subsets = [frozenset(c) for r in range(1, len(names) + 1)
               for c in itertools.combinations(names, r)]
    for n in (1, 2, 3, 5, 8, 40):
        batch = dr._compose(U_AXES, stack, chan.outputs, chan.probs)
        before = batch.entropy(frozenset({"U", "Y1"}))
        batch.head(n)
        assert not batch.joints.flags.c_contiguous
        fresh = dr._compose(U_AXES, stack[:n], chan.outputs, chan.probs)
        # every stack, one joint included, is composed K-last in memory
        assert fresh.joints.flags.c_contiguous and fresh.joints.shape[-1] == n
        assert batch.entropy(frozenset({"U", "Y1"})).tolist() == before[:n].tolist()
        for subset in subsets:
            assert batch.entropy(subset).tolist() == fresh.entropy(subset).tolist(), (n, subset)


# Joint shapes for the memo of trailing pairwise sums: axes of size 1 at the
# ends and inside, a run of 8 or more terms and one longer than 128.
MEMO_SHAPES = [(2, 3, 2, 4), (1, 4, 1, 3), (3, 1, 9, 1), (2, 2, 2, 2, 2), (3, 43), (2, 3, 45)]


def _memo_stack(rng, shape, k):
    """A K-last stack (*shape, K) of random joints, every other one with
    zero cells and its first slice of axis 0 zero, so that marginals have
    zero cells too, and a point mass among them when K > 1."""
    cells = int(np.prod(shape))
    rows = rng.dirichlet(np.ones(cells), size=k)
    rows[::2] *= rng.random(rows[::2].shape) < 0.5
    rows = rows.reshape((k,) + shape)
    rows[1::2, :1] = 0.0
    if k > 1:
        rows[k // 2] = 0.0
        rows[(k // 2,) + tuple(rng.integers(n) for n in shape)] = 1.0
    return np.ascontiguousarray(np.moveaxis(rows, 0, -1))


def _memo_bits(stack, keeps, sums=None):
    """The bits of each subset entropy, through the memo `sums`, or through a
    memo of its own when `sums` is None."""
    return {keep: stack_entropy(stack, keep, {} if sums is None else sums).view(np.int64).tolist()
            for keep in keeps}


def test_shared_pairwise_sums_keep_every_entropy_bitwise(rng):
    # every subset entropy through one batch's memo of trailing pairwise
    # sums, in two shuffled orders and again after head(n), has the bits of
    # a fresh stack_entropy of the same (headed) stack with a memo of its own
    for shape, k in itertools.product(MEMO_SHAPES, [1, 5, 64]):
        stack = _memo_stack(rng, shape, k)
        keeps = [keep for r in range(len(shape) + 1)
                 for keep in itertools.combinations(range(len(shape)), r)]
        for _ in range(2):
            keeps = [keeps[i] for i in rng.permutation(len(keeps))]
            batch = dr._Batch([f"A{i}" for i in range(len(shape))], stack)
            assert _memo_bits(stack, keeps, batch.sums) == _memo_bits(stack, keeps), (shape, k)
            n = int(rng.integers(1, k)) if k > 1 else 1
            batch.head(n)
            assert _memo_bits(batch.joints, keeps[::-1], batch.sums) \
                == _memo_bits(batch.joints, keeps), (shape, k, n)


def test_each_trailing_pairwise_sum_runs_once_per_batch(rng, monkeypatch):
    calls = []
    real = info_theory._pairwise_sum
    monkeypatch.setattr(info_theory, "_pairwise_sum", lambda a, n: calls.append(n) or real(a, n))
    # runs of at most 128 terms: a longer one recurses through the module name
    for shape in [(2, 3, 2, 4), (1, 4, 1, 3), (3, 1, 9, 1), (2, 2, 2, 2, 2), (3, 42)]:
        names = [f"A{i}" for i in range(len(shape))]
        keeps = [keep for r in range(len(shape) + 1)
                 for keep in itertools.combinations(range(len(shape)), r)]
        keeps = [keeps[i] for i in rng.permutation(len(keeps))]
        plans = [info_theory._marginal_plan(shape, keep) for keep in keeps]
        runs = sorted(run for _, run in {(merged, run) for merged, _, run in plans if run > 1})
        calls.clear()
        batch = dr._Batch(names, _memo_stack(rng, shape, 9))
        half = len(keeps) // 2
        for keep in keeps[:half]:
            batch.entropy(frozenset(names[i] for i in keep))
        batch.head(4)
        for keep in keeps[half:]:
            batch.entropy(frozenset(names[i] for i in keep))
        # one call per distinct (merged, run) of the batch, head or no head
        assert sorted(calls) == runs, shape


@pytest.mark.parametrize("k", [1, 8])
def test_compose_rejects_a_joint_off_by_1e_9(k, rng):
    chan = random_channel(rng, outputs=(("Y1", 3), ("Z1", 3)))
    shape = tuple(n for _, n in U_AXES)
    stack = rng.dirichlet(np.ones(int(np.prod(shape))), size=k).reshape((k,) + shape)
    dr._compose(U_AXES, stack, chan.outputs, chan.probs)
    stack[k // 2] *= 1 + 1e-9
    with pytest.raises(DistributionError, match=r"^probabilities sum to 1 only within 1e-09$"):
        dr._compose(U_AXES, stack, chan.outputs, chan.probs)


def _deep_witness_channel():
    """A weak-family channel mixed with a random one at weight 10**-0.25."""
    rng = np.random.default_rng(3)
    good = weak_family_channel(rng)
    bad = random_channel(rng, outputs=good.outputs)
    w = 10 ** -0.25
    return DmcChannel(2, 2, good.outputs, (1 - w) * good.probs + w * bad.probs)


# The VWI check of _deep_witness_channel with seed 3 first fails at this depth,
# inside the second chunk of draws (rows 64-191); its 20-cell inputs have no
# simplex grid.
DEEP_DEPTH = 119


def test_regime_check_is_prefix_stable_across_chunks():
    chan = _deep_witness_channel()
    axes = dr._input_axes(chan, "VWI")
    grid = len(dr._simplex_grid(int(np.prod([k for _, k in axes]))))
    failing = set()
    for samples in range(1, DEEP_DEPTH + 3):
        rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VWI", samples=samples, seed=3)
        if grid + samples < DEEP_DEPTH:
            assert rep.passed and rep.samples_checked == grid + samples
        else:
            w = rep.witness
            failing.add((rep.samples_checked, w.receiver, w.condition, w.margin,
                         tuple(w.dist.probs.reshape(-1))))
    assert len(failing) == 1 and failing.pop()[0] == DEEP_DEPTH


@pytest.mark.parametrize("case", ["witness_mid_chunk", "pass_after_grid"])
def test_regime_check_leaves_generator_as_sequential_draws(case, rng):
    if case == "witness_mid_chunk":
        chan, regime, samples = _deep_witness_channel(), "VWI", 400
    else:
        chan, regime, samples = shared_law_channel(rng), "VSI", 30
    mine = np.random.default_rng(3)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, regime, samples=samples, seed=mine)
    axes = dr._input_axes(chan, regime)
    grid = len(dr._simplex_grid(int(np.prod([k for _, k in axes]))))
    assert rep.samples_checked == (DEEP_DEPTH if rep.witness else grid + samples)
    assert rep.passed == (case == "pass_after_grid")
    fresh = np.random.default_rng(3)
    for _ in range(rep.samples_checked - grid):
        sample_input_dist(axes, fresh)
    assert mine.bit_generator.state == fresh.bit_generator.state


# entry points (and the report constructor) bound to one channel class, and
# a channel of the other
CLASS_BOUND_CALLS = {
    "full_decode_region": lambda c, d2, d3: dr.full_decode_region(d2, c),
    "mixed_achievable_region": lambda c, d2, d3: dr.mixed_achievable_region(
        d3, c, ("Y1",), ()),
    "weak_violation_margin": lambda c, d2, d3: dr.weak_violation_margin(c, d3),
    "RegimeReport-multi_primary": lambda c, d2, d3: dr.RegimeReport(
        dr.MULTI_PRIMARY, "VSI", True, 1, None, c, ((), ())),
    "RegimeReport-multi_secondary": lambda c, d2, d3: dr.RegimeReport(
        dr.MULTI_SECONDARY, "VSI", True, 1, None, c, ((), ())),
}


@pytest.mark.parametrize("call", sorted(CLASS_BOUND_CALLS))
def test_class_bound_entry_points_reject_other_class(call, rng):
    outputs = ((("Y1", 2), ("Y2", 2), ("Z1", 2)) if call.endswith("multi_secondary")
               else (("Y1", 2), ("Z1", 2), ("Z2", 2)))
    chan = random_channel(rng, outputs=outputs)
    d2 = sample_input_dist([("X1", 2), ("X2", 2)], rng)
    d3 = sample_input_dist([("U", 2), ("X1", 2), ("X2", 2)], rng)
    with pytest.raises(dr.RegimeError, match="exactly one"):
        CLASS_BOUND_CALLS[call](chan, d2, d3)


def test_vsi_redundancy_of_extra_inequalities(rng):
    # on channels passing the very-strong checks, dropping the three
    # redundant rows leaves the frontier unchanged
    for k in range(6):
        chan = shared_law_channel(rng, n_primary=2, enhance_first=bool(k % 2))
        rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=60, seed=k)
        assert rep.passed
        dist = sample_input_dist([("X1", 2), ("X2", 2)], rng)
        full = dr.full_decode_region(dist, chan)
        reduced = dr.full_decode_region(dist, chan, include=("r2_z", "sum_y"))
        assert region_equal(full, reduced, 1e-9)


def test_mixed_sum_rate_redundancy(rng):
    base = rng.dirichlet(np.ones(3), size=(2, 2))
    g = rng.dirichlet(np.ones(3), size=3)
    y2 = base @ g
    probs = np.einsum("abi,abj,abk->abijk", base, y2, base)
    chan = DmcChannel(2, 2, (("Y1", 3), ("Y2", 3), ("Z1", 3)), probs)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "mixed", samples=80, seed=5,
                          partition=(("Y1",), ("Y2",)))
    assert rep.passed
    for _ in range(4):
        dist = sample_input_dist([("U", 3), ("X1", 2), ("X2", 2)], rng)
        with_sum = dr.mixed_achievable_region(
            dist, chan, ("Y1",), ("Y2",), include_sum_z=True
        )
        without = dr.mixed_achievable_region(
            dist, chan, ("Y1",), ("Y2",), include_sum_z=False
        )
        assert region_equal(with_sum, without, 1e-9)


# -- capacity regions ----------------------------------------------------------


def noiseless_vsi_channel():
    """Z = Y1 = (X1, X2) noiselessly (4-symbol outputs)."""
    probs = np.zeros((2, 2, 4, 4))
    for x1 in range(2):
        for x2 in range(2):
            s = 2 * x1 + x2
            probs[x1, x2, s, s] = 1.0
    return DmcChannel(2, 2, (("Y1", 4), ("Z1", 4)), probs)


def test_capacity_region_noiseless_vsi():
    chan = noiseless_vsi_channel()
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=80, seed=0)
    assert rep.passed
    fr = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=120, seed=0))
    from mcifc.polytope import Frontier2D

    want = Frontier2D(((0.0, 2.0), (1.0, 1.0)))  # R1+R2 <= 2, R2 <= 1
    assert frontier_contains(fr, want, 1e-9)
    assert frontier_contains(want, fr, 1e-9)  # converse side of the formulas


def test_capacity_region_monotone_in_budget(rng):
    chan = shared_law_channel(rng, n_primary=2)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=40, seed=1)
    assert rep.passed
    small = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=30, seed=9))
    big = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=90, seed=9))
    assert frontier_contains(big, small, 1e-9)


def test_capacity_region_z_ignores_x2():
    # both receivers copy X1, so I(X2; Z | X1) = 0 for every distribution and
    # the R2 frontier is zero while R1 reaches one bit
    probs = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, x1, x1] = 1.0  # Y1 = Z = X1
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=60, seed=2)
    assert rep.passed
    fr = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=60, seed=2))
    assert fr.r2_max <= 1e-9
    assert fr.value(0.0) == pytest.approx(1.0, abs=1e-6)


def test_capacity_requires_passing_report():
    # Y pure noise while Z copies X2: the strong condition fails
    probs = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            probs[x1, x2, :, x2] = 0.5
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    failing = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=100, seed=0)
    assert not failing.passed
    with pytest.raises(dr.RegimeError, match="regime check failed: strong violated"):
        dr.dmc_capacity_region(failing, dr.SearchConfig(samples=10))


def test_ms_vwi_single_secondary_matches_direct_evaluator(rng):
    # M = 1 multi-secondary weak region vs a direct evaluation of the same
    # formulas without the min over receivers
    zlaw = rng.dirichlet(np.ones(2), size=(2, 2))
    g = rng.dirichlet(np.ones(2), size=2)
    ylaw = zlaw @ g
    probs = np.einsum("abi,abj->abij", ylaw, zlaw)
    chan = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), probs)
    rep = dr.check_regime(chan, dr.MULTI_SECONDARY, "VWI", samples=120, seed=6)
    assert rep.passed
    fr = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=50, seed=6))
    pieces = []
    from mcifc.polytope import Frontier2D

    axes = dr._input_axes(chan, "VWI")
    dists = [JointDist(axes, row) for rows, _ in
             dr._check_dists(axes, chan.outputs, 50, np.random.default_rng(6)) for row in rows]
    for dist in dists:
        joint = compose_with_channel(dist, chan)
        r1 = mutual_information(joint, ["U", "X1"], ["Y1"])
        r2 = mutual_information(joint, ["X2"], ["Z1"], ["X1", "U"])
        pieces.append(Frontier2D(((0.0, r1), (r2, r1))))
    from mcifc.polytope import concave_envelope

    want = concave_envelope([union_all(pieces)])
    assert region_equal(fr, want, 1e-9)


def _passing_checks(rng):
    """(class, regime, partition, channel, samples) of a passing check of each
    table of _REGIONS, then two multi-primary VSI checks past the cells a
    report keeps: one on 500-cell joints, whose 165-point grid and first
    chunk of draws fit and whose second chunk of draws does not, and one on
    2048-cell joints, whose 165-point grid alone exceeds them."""
    base = rng.dirichlet(np.ones(3), size=(2, 2))
    garbled = base @ rng.dirichlet(np.ones(3), size=3)
    outs = {dr.MULTI_PRIMARY: (("Y1", 3), ("Y2", 3), ("Z1", 3)),
            dr.MULTI_SECONDARY: (("Y1", 3), ("Z1", 3), ("Z2", 3))}

    def chan(klass, *laws):
        return DmcChannel(2, 2, outs[klass], np.einsum("abi,abj,abk->abijk", *laws))

    return [
        (dr.MULTI_PRIMARY, "VSI", None, chan(dr.MULTI_PRIMARY, base, base, base), 40),
        (dr.MULTI_PRIMARY, "VWI", None, weak_family_channel(rng), 40),
        (dr.MULTI_PRIMARY, "mixed", _MP_SPLIT, chan(dr.MULTI_PRIMARY, base, garbled, base), 40),
        (dr.MULTI_SECONDARY, "VSI", None, chan(dr.MULTI_SECONDARY, base, base, base), 40),
        (dr.MULTI_SECONDARY, "VWI", None, chan(dr.MULTI_SECONDARY, garbled, base, base), 40),
        (dr.MULTI_SECONDARY, "mixed", _MS_SPLIT,
         chan(dr.MULTI_SECONDARY, garbled, base, garbled), 40),
        # 500-cell joints: the kept prefix ends among the draws, after the
        # first chunk of 256 draws
        (dr.MULTI_PRIMARY, "VSI", None, shared_law_channel(rng, card=5), 400),
        # 2048-cell joints: the kept prefix ends inside the 165-point grid
        (dr.MULTI_PRIMARY, "VSI", None, shared_law_channel(rng, card=8), 20),
    ]


def test_capacity_region_reuses_the_checked_batches(monkeypatch, rng):
    compose, composed = dr._compose, []
    draw, drawn = dr._draw, []

    def counting_compose(*args):
        composed.append(args)
        return compose(*args)

    def counting_draw(rng, axes, n):
        drawn.append(n)
        return draw(rng, axes, n)

    monkeypatch.setattr(dr, "_compose", counting_compose)
    monkeypatch.setattr(dr, "_draw", counting_draw)
    cuts = []
    for seed, (klass, regime, partition, chan, samples) in enumerate(_passing_checks(rng)):
        rep = dr.check_regime(chan, klass, regime, samples=samples, seed=seed,
                              partition=partition)
        assert rep.passed, (klass, regime, rep.witness)
        assert rep.stream == (samples, seed)
        axes = dr._input_axes(chan, regime)
        chunks = list(dr._check_dists(axes, chan.outputs, samples, np.random.default_rng(seed)))
        if len(rep.batches) < len(chunks):
            cuts.append("grid" if chunks[len(rep.batches) - 1][1] is None else "draws")
        bare = replace(rep, batches=())
        for search in (dr.SearchConfig(samples, seed), dr.SearchConfig(samples + 7, seed),
                       dr.SearchConfig(samples, seed + 1), dr.SearchConfig(0, seed)):
            composed.clear()
            drawn.clear()
            if search.samples == 0 and regime != "VSI":
                # no samples, and the simplex grid of the VWI and mixed
                # inputs is too large to be taken: no input distribution
                for report in (rep, bare):
                    with pytest.raises(dr.RegimeError, match="no input distribution"):
                        dr.dmc_capacity_region(report, search)
                continue
            fr = dr.dmc_capacity_region(rep, search)
            if search == dr.SearchConfig(samples, seed):
                # only the chunks past the kept prefix are drawn and composed again
                rest = chunks[len(rep.batches):]
                assert len(composed) == len(rest)
                assert drawn == [len(rows) for rows, state in rest if state is not None]
            assert fr.points == dr.dmc_capacity_region(bare, search).points, (klass, regime)
            assert fr.points == per_joint_capacity_region(rep, search).points, (klass, regime)
    # two checks kept a strict prefix of their chunks: one ending among the
    # draws, so the region draws on from `resume`, and one inside the grid
    assert cuts == ["draws", "grid"]


def test_capacity_region_builds_no_frontier_per_joint(monkeypatch, rng):
    def per_joint(*args):
        raise AssertionError("a frontier per joint")

    monkeypatch.setattr(polytope, "integer_frontier", per_joint)
    monkeypatch.setattr(dr, "grid_frontiers", per_joint)
    rep = dr.check_regime(shared_law_channel(rng), dr.MULTI_PRIMARY, "VSI", samples=40, seed=1)
    assert not dr.dmc_capacity_region(rep, dr.SearchConfig(60, 2)).is_empty


def test_kept_batches_change_nothing_visible(rng):
    *_, (klass, regime, _, big, samples) = _passing_checks(rng)
    rep = dr.check_regime(big, klass, regime, samples=samples, seed=5)
    assert rep.passed and rep.batches
    assert sum(b.joints.size for b in rep.batches) <= dr._CHUNK_CAP * MAX_CELLS
    bare = replace(rep, batches=(), stream=None, resume=None)
    assert rep == bare
    assert repr(rep) == repr(bare)
    assert rep.to_json_dict() == bare.to_json_dict()
    # a check seeded by a Generator keeps nothing, and reports the same
    drawn = dr.check_regime(big, klass, regime, samples=samples,
                            seed=np.random.default_rng(5))
    assert (drawn.batches, drawn.stream, drawn.resume) == ((), None, None)
    assert drawn == rep and repr(drawn) == repr(rep)
    assert drawn.to_json_dict() == rep.to_json_dict()
    # nor does a failing check
    failing = dr.check_regime(law_channel(Y1="noise", Z1="x2"), dr.MULTI_PRIMARY, "VSI",
                              samples=50, seed=0)
    assert not failing.passed
    assert (failing.batches, failing.stream, failing.resume) == ((), None, None)


def _doubling_to_cap(cells):
    """The chunk schedule before chunks were sized by cells: 1, 2, 4, ... up
    to _CHUNK_CAP joints, whatever their cells."""
    size = 1
    while True:
        yield size
        size = min(2 * size, dr._CHUNK_CAP)


def _flat_cap(cells):
    while True:
        yield dr._CHUNK_CAP


CHUNK_SCHEDULES = {"doubling to the cap": _doubling_to_cap, "flat cap": _flat_cap,
                   "by cells": dr._chunk_sizes}

# (index into _passing_checks, its rng seed, log10 of the weight): that
# passing check's channel mixed with a random one fails the check of seed 3
# first at depth 2 (VSI, inside the grid), 3, 64 (the last row of a 64-joint
# chunk), 73, 118, 146 or 174 (among the draws)
_MIXED_FAILURES = [(0, 39, -1), (1, 14, -0.25), (1, 30, -0.5), (2, 36, -0.25),
                   (3, 39, -1), (4, 2, -0.5), (5, 23, -1), (5, 33, -0.25)]


def _failing_checks():
    for index, seed, exponent in _MIXED_FAILURES:
        klass, regime, partition, chan, _ = _passing_checks(np.random.default_rng(seed))[index]
        bad = random_channel(np.random.default_rng(100 + seed), outputs=chan.outputs)
        w = 10 ** exponent
        mixed = DmcChannel(2, 2, chan.outputs, (1 - w) * chan.probs + w * bad.probs)
        yield klass, regime, partition, mixed, 300


def _checked_under_schedule(klass, regime, partition, chan, samples):
    """What a check of seed 3, by integer and by Generator, shows: the
    report, its witness to the bit, the Generator's state afterwards and,
    on a pass, the capacity region of the checked stream."""
    shown = []
    for seed in (3, np.random.default_rng(3)):
        rep = dr.check_regime(chan, klass, regime, samples=samples, seed=seed,
                              partition=partition)
        shown.append((rep.passed, rep.samples_checked))
        if rep.witness:
            w = rep.witness
            shown.append((w.receiver, w.condition, w.margin.hex(), w.dist.axes,
                          w.dist.probs.tobytes()))
        if isinstance(seed, np.random.Generator):
            shown.append(seed.bit_generator.state)
        elif rep.passed:
            shown.append(dr.dmc_capacity_region(rep, dr.SearchConfig(samples, 3)).points)
    return shown


def test_chunk_schedule_changes_no_report_or_region(monkeypatch, rng):
    checks = _passing_checks(rng) + list(_failing_checks())
    compose, composed = dr._compose, []

    def counting_compose(*args):
        composed.append(len(args[1]))
        return compose(*args)

    monkeypatch.setattr(dr, "_compose", counting_compose)
    shown, chunks = {}, {}
    for name, schedule in CHUNK_SCHEDULES.items():
        monkeypatch.setattr(dr, "_chunk_sizes", schedule)
        composed.clear()
        shown[name] = [_checked_under_schedule(*check) for check in checks]
        chunks[name] = len(composed)
    assert sum(not s[0][0] for s in shown["by cells"]) == len(_MIXED_FAILURES)
    assert shown["doubling to the cap"] == shown["flat cap"] == shown["by cells"]
    # each schedule did cut the same streams into chunks of its own
    assert chunks["doubling to the cap"] > chunks["flat cap"] > chunks["by cells"]


@pytest.mark.parametrize("axes, outputs, samples", [
    # 108-cell joints with a 165-point grid
    ((("X1", 2), ("X2", 2)), (("Y1", 3), ("Y2", 3), ("Z1", 3)), 3000),
    # 4000-cell joints, near MAX_CELLS
    ((("X1", 2), ("X2", 2)), (("Y1", 10), ("Y2", 10), ("Z1", 10)), 300),
    # 4080-cell joints without a grid
    ((("U", 5), ("X1", 2), ("X2", 2)), (("Y1", 2), ("Z1", 102)), 300),
    # fewer draws than a first chunk
    ((("U", 5), ("X1", 2), ("X2", 2)), (("Y1", 3), ("Z1", 3)), 10),
])
def test_chunks_start_at_the_cap_and_hold_at_most_the_kept_cells(axes, outputs, samples):
    cells = int(np.prod([k for _, k in axes + outputs]))
    grid = len(dr._simplex_grid(int(np.prod([k for _, k in axes]))))
    chunks = [len(rows) for rows, _ in
              dr._check_dists(axes, outputs, samples, np.random.default_rng(0))]
    assert chunks[0] == min(dr._CHUNK_CAP, grid or samples)
    assert max(chunks) * cells <= dr._KEPT_CELLS
    assert sum(chunks) == grid + samples


def test_chunks_of_joints_past_the_cell_cap_are_rejected():
    outputs = (("Y1", 64), ("Z1", 64))
    with pytest.raises(AlphabetError, match="product alphabet has 16384 cells"):
        next(dr._check_dists((("X1", 2), ("X2", 2)), outputs, 5, np.random.default_rng(0)))


# -- counterexample search ------------------------------------------------------


def test_search_budget_zero_returns_none():
    assert dr.vsi_vwi_counterexample_search(dr.CxSearchConfig(budget=0)) is None


def test_negative_counts_rejected():
    with pytest.raises(dr.RegimeError):
        dr.CxSearchConfig(budget=-1)
    with pytest.raises(dr.RegimeError):
        dr.SearchConfig(samples=-1)
    with pytest.raises(dr.RegimeError, match="^seed must be >= 0$"):
        dr.CxSearchConfig(seed=-1)
    with pytest.raises(dr.RegimeError, match="^seed must be >= 0$"):
        dr.SearchConfig(seed=-1)
    assert dr.SearchConfig(samples=0).samples == 0


def test_search_moves_on_when_the_weak_probe_finds_nothing(monkeypatch):
    # the first channel past the very-strong gate shows no weak violation in
    # its CX_PD_SAMPLES draws: the search skips its final check and goes on
    real = dr.weak_violation_margin
    probed = []

    def probe(chan, dist):
        probed.append(chan)
        return ("Y1", 0.0) if chan is probed[0] else real(chan, dist)

    finals = []
    real_check = dr.check_regime

    def check(chan, *args, **kwargs):
        if kwargs["samples"] == dr.CX_FINAL_VSI_SAMPLES:
            finals.append(chan)
        return real_check(chan, *args, **kwargs)

    monkeypatch.setattr(dr, "weak_violation_margin", probe)
    monkeypatch.setattr(dr, "check_regime", check)
    w = dr.vsi_vwi_counterexample_search(dr.CxSearchConfig(budget=8, seed=0))
    assert sum(chan is probed[0] for chan in probed) == dr.CX_PD_SAMPLES
    assert w is not None and w.chan is not probed[0]
    assert len(finals) == 1 and finals[0] is w.chan


def test_search_moves_on_when_the_final_check_fails(monkeypatch):
    # the first channel with a weak violation fails its fresh very-strong
    # check: the search goes on to the next channel
    real = dr.check_regime
    finals = []

    def check(chan, *args, **kwargs):
        report = real(chan, *args, **kwargs)
        if kwargs["samples"] != dr.CX_FINAL_VSI_SAMPLES:
            return report
        finals.append(chan)
        # the search reads only `passed` of its final report
        return SimpleNamespace(passed=False) if len(finals) == 1 else report

    monkeypatch.setattr(dr, "check_regime", check)
    w = dr.vsi_vwi_counterexample_search(dr.CxSearchConfig(budget=8, seed=0))
    assert len(finals) == 2 and w is not None and w.chan is finals[1]


def test_search_finds_and_verifies_witness():
    w = dr.vsi_vwi_counterexample_search(dr.CxSearchConfig(budget=4, seed=42))
    assert w is not None
    assert w.margin > 1e-6
    receiver, margin = dr.weak_violation_margin(w.chan, w.dist)
    assert receiver == w.receiver
    assert margin == pytest.approx(w.margin, abs=1e-12)


def test_fixture_reverifies():
    doc = json.loads(FIXTURE.read_text())
    w = dr.CounterexampleWitness.from_json_dict(doc)
    assert w.margin > 1e-6
    assert dr.verify_counterexample(w, vsi_samples=400)


def test_verify_rejects_an_edited_witness(monkeypatch):
    w = dr.CounterexampleWitness.from_json_dict(json.loads(FIXTURE.read_text()))
    other = next(y for y in w.chan.y_names if y != w.receiver)
    assert not dr.verify_counterexample(replace(w, margin=5.0), vsi_samples=400)
    assert not dr.verify_counterexample(replace(w, receiver=other), vsi_samples=400)
    # the search keeps only margins strictly above the threshold
    monkeypatch.setattr(dr, "CX_MIN_MARGIN", w.margin)
    assert not dr.verify_counterexample(w, vsi_samples=400)


def test_report_json_shape(rng):
    chan = shared_law_channel(rng)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VSI", samples=20, seed=0)
    doc = rep.to_json_dict()
    assert doc["passed"] and doc["witness"] is None
    assert doc["label"] == "VSI"
    assert "not a proof" in doc["note"]


def test_verify_fme_on_ternary_alphabets(rng):
    for _ in range(3):
        aux = dr.AuxAssignment(sample_input_dist(
            [("Q1", 2), ("Q", 2), ("U", 2), ("V", 2), ("X1", 2), ("X2", 3)], rng
        ))
        chan = random_channel(rng, x2=3, outputs=(("Y1", 3), ("Z1", 2)))
        assert dr.verify_fme_inner_bound(aux, chan)


def test_ms_mixed_regime_and_capacity(rng):
    # Y a garbling of the weak-side Z1; the strong-side Z2 shares Y's law
    base = rng.dirichlet(np.ones(3), size=(2, 2))
    g = rng.dirichlet(np.ones(3), size=3)
    ylaw = base @ g
    probs = np.einsum("abi,abj,abk->abijk", ylaw, base, ylaw)
    chan = DmcChannel(2, 2, (("Y1", 3), ("Z1", 3), ("Z2", 3)), probs)
    rep = dr.check_regime(
        chan, dr.MULTI_SECONDARY, "mixed", samples=120, seed=11,
        partition=(("Z2",), ("Z1",)),
    )
    assert rep.passed, (rep.witness.condition, rep.witness.margin)
    fr = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=40, seed=11))
    assert not fr.is_empty


def test_mp_vwi_single_primary_matches_direct_evaluator(rng):
    # N = 1 weak-regime region vs the same formulas without the min over
    # receivers, evaluated on the identical sample stream
    zlaw = rng.dirichlet(np.ones(3), size=(2, 2))
    g = rng.dirichlet(np.ones(3), size=3)
    ylaw = zlaw @ g
    probs = np.einsum("abi,abk->abik", ylaw, zlaw)
    chan = DmcChannel(2, 2, (("Y1", 3), ("Z1", 3)), probs)
    rep = dr.check_regime(chan, dr.MULTI_PRIMARY, "VWI", samples=120, seed=13)
    assert rep.passed
    fr = dr.dmc_capacity_region(rep, dr.SearchConfig(samples=40, seed=13))
    from mcifc.polytope import Frontier2D, concave_envelope

    pieces = []
    axes = dr._input_axes(chan, "VWI")
    dists = [JointDist(axes, row) for rows, _ in
             dr._check_dists(axes, chan.outputs, 40, np.random.default_rng(13)) for row in rows]
    for dist in dists:
        joint = compose_with_channel(dist, chan)
        r1 = mutual_information(joint, ["X1", "U"], ["Y1"])
        r2 = mutual_information(joint, ["X2"], ["Z1"], ["X1", "U"])
        pieces.append(Frontier2D(((0.0, r1), (r2, r1))))
    want = concave_envelope([union_all(pieces)])
    assert region_equal(fr, want, 1e-9)


_X1X2 = JointDist((("X1", 2), ("X2", 2)), np.full((2, 2), 0.25))
_Y1Z1 = DmcChannel(2, 2, (("Y1", 2), ("Z1", 2)), np.full((2, 2, 2, 2), 0.25))


@pytest.mark.parametrize("call, error, message", [
    (lambda: dr.AuxAssignment(_X1X2), AlphabetError,
     "auxiliary joint lacks axes ['Q1', 'Q', 'U', 'V']"),
    (lambda: dr.RegimeReport("multi_primary", "VSI", True, 1,
                             dr.RegimeWitness(_X1X2, "Y1", "strong", 0.1), _Y1Z1, ((), ())),
     dr.RegimeError, "witness must be present iff the check failed"),
    (lambda: dr.RegimeReport("multi_primary", "VSI", False, 1, None, _Y1Z1, ((), ())),
     dr.RegimeError, "witness must be present iff the check failed"),
    # a joint without U reaches _Batch.entropy with an unknown variable
    (lambda: dr.mixed_achievable_region(_X1X2, _Y1Z1, ("Y1",), ()), AlphabetError,
     "unknown variable 'U'; have ('X1', 'X2', 'Y1', 'Z1')"),
], ids=["aux-axes", "pass-with-witness", "failure-without-witness", "batch-variable"])
def test_record_checks_name_what_is_wrong(call, error, message):
    assert _message(error, call) == message
