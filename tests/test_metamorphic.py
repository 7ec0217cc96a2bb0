"""Metamorphic relations: a change to a scene whose effect on the outputs is
known, checked by comparing the two runs (Chen, Cheung & Yiu, HKUST tech.
report 1998; Segura et al., IEEE TSE 2016).  They keep checking when a
change moves the pinned digests.

Scenes are random lattices and irregular layouts.  A lattice has nx x ny
LEDs at an x and a y spacing (a square one n x n at one spacing), each PD at
one offset from its LED; a rectangular lattice's hull has parallel edges
along which the best inscribed-circle centers tie, and the partition takes
the middle of the tie.  An irregular layout has its own reflectance per
floor cell and its own FOV per PD.  Each room side is a multiple of the
floor pitch, 3 to 6 m, so the floor grid maps onto itself under a transpose
or a mirror; the programs' sample grids (0.25 m and 0.1 m) need not tile a
side, and plane_grid centers them in the room, so they map onto themselves
too.

The enhanced LP's relations run on default layouts and on the benchmark's
loop-large room: appending sample points never lowers its optimum, and each
refinement round's status agrees with HiGHS's (loop-large's round 1 does
not, which is the phase-1 stall of ROADMAP item 2).

Each tolerance is stated next to the largest error measured over about
750 random scenes of these strategies per relation, at OPENBLAS_NUM_THREADS=1
and again at =2, on a 2-core x86-64 host.  An error is taken relative to the
largest magnitude of the output compared: the largest radius, gain,
prediction, reading or p_max, or for a loss its first-order rounding
scale (see _Room.match).
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isci import optimize as op
from isci import sensing as sn
from isci.geometry import build_partition
from isci.scene import default_scene, scene_from_dict, scene_to_dict
from tests.oracles import highs_lp, prediction_values

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=12)

# Largest error allowed, relative to the scale named in the module
# docstring, and the largest measured.  The IPM stops at a relative duality
# gap of 1e-8, so near a flat optimum the powers move far more than the
# objective: their errors spread from 1e-12 to 1e-6.
_TOL = {
    "radius": 5e-12,        # MEC and MIC radii: 8.7e-14
    "gains": 5e-14,         # baseline gains: 6.2e-15
    "prediction": 1e-14,    # Prediction.at's values and envelopes: 1.9e-15
    "reading": 1e-14,       # received_power: 1.5e-15
    "loss": 1e-14,          # a match's loss, over its first-order rounding scale: 2.7e-16
    "powers": 1e-5,         # refined solves' powers, over the largest p_max: 1.3e-9
}


def _check(name, got, want, scale):
    """|got - want| <= _TOL[name] * scale, elementwise."""
    error = float(np.max(np.abs(np.asarray(got, dtype=float) - want), initial=0.0))
    assert error <= _TOL[name] * scale, (name, error / scale)


# ---------------------------------------------------------------------------
# scenes and transforms
# ---------------------------------------------------------------------------

@st.composite
def _layouts(draw):
    """The config of a random room: a square or rectangular LED lattice or an
    irregular layout, on a 0.1, 0.125 or 0.25 m floor grid, each side 3 to
    6 m and a multiple of that pitch, LED powers inside the power box."""
    pitch = draw(st.sampled_from([0.1, 0.125, 0.25]))
    sides = st.sampled_from([round(k * pitch, 9)
                             for k in range(round(3 / pitch), round(6 / pitch) + 1)])
    sx, sy = draw(sides), draw(sides)
    kind = draw(st.sampled_from(["square", "rectangular", "irregular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = scene_to_dict(default_scene())
    cfg["room"].update(size_x=sx, size_y=sy)
    if kind != "irregular":
        # nx x ny LEDs at an x and a y spacing, equal in a square lattice
        counts = rng.integers(2, 4, 2)
        spans = rng.uniform(0.3, 0.7, 2) * min(sx, sy)
        if kind == "square":
            counts[1], spans[1] = counts[0], spans[0]
        center = rng.uniform(0.15 + spans / 2, [sx - 0.15, sy - 0.15] - spans / 2)
        xs, ys = (np.linspace(-span / 2, span / 2, n) for span, n in zip(spans, counts))
        leds = [center + [dx, dy] for dx in xs for dy in ys]
        offset = rng.uniform(-0.15, 0.15, 2)
        pds = [xy + offset for xy in leds]
        cfg["grid"] = {"pitch": pitch, "reflectance": 0.8}
        fovs = [90.0] * len(pds)
    else:
        leds = list(rng.uniform(0.1, 0.9, (int(rng.integers(3, 9)), 2)) * [sx, sy])
        pds = list(rng.uniform(0.05, 0.95, (int(rng.integers(2, 9)), 2)) * [sx, sy])
        cells = round(sx / pitch) * round(sy / pitch)
        cfg["grid"] = {"pitch": pitch, "reflectance": rng.uniform(0.2, 0.9, cells).tolist()}
        fovs = rng.choice([60.0, 75.0, 90.0], len(pds)).tolist()
    led, pd = cfg["leds"][0], cfg["sensing_pds"][0]
    cfg["leds"] = [dict(led, position=[float(x), float(y), 3.0], power_w=float(power))
                   for (x, y), power in zip(leds, rng.uniform(10.0, 80.0, len(leds)))]
    cfg["sensing_pds"] = [dict(pd, position=[float(x), float(y), 3.0], fov_deg=fov)
                          for (x, y), fov in zip(pds, fovs)]
    return cfg


def _transformed(cfg, kind):
    """(config, cell map, position map) of the room transposed or mirrored in
    x or y: the LEDs, the PDs and the floor cells move with it.  The cell
    map takes a floor cell's index to its index in the new room."""
    cfg = copy.deepcopy(cfg)
    sx, sy = cfg["room"]["size_x"], cfg["room"]["size_y"]
    pitch = cfg["grid"]["pitch"]
    cells = np.arange(round(sx / pitch) * round(sy / pitch)).reshape(round(sx / pitch), -1)
    if kind == "transpose":
        cfg["room"].update(size_x=sy, size_y=sx)
        cells, move = cells.T, (lambda x, y: (y, x))
    elif kind == "mirror-x":
        cells, move = cells[::-1], (lambda x, y: (sx - x, y))
    else:
        cells, move = cells[:, ::-1], (lambda x, y: (x, sy - y))
    for part in ("leds", "sensing_pds"):
        for entry in cfg[part]:
            x, y, z = entry["position"]
            entry["position"] = [*move(x, y), z]
    old = cells.ravel()  # the old index of each new cell
    if isinstance(cfg["grid"]["reflectance"], list):
        cfg["grid"]["reflectance"] = np.asarray(cfg["grid"]["reflectance"])[old].tolist()
    cell_map = np.empty_like(old)
    cell_map[old] = np.arange(len(old))
    return cfg, cell_map, move


def _permuted(cfg, part, order):
    cfg = copy.deepcopy(cfg)
    cfg[part] = [cfg[part][i] for i in order]
    return cfg


class _Room:
    """A scene with its partition, sensing model, table, and the prediction
    at its configured powers."""

    def __init__(self, cfg):
        self.scene = scene_from_dict(cfg)
        self.partition = build_partition(self.scene)
        self.model = sn.SensingModel(self.scene)
        self.table = sn.build_fingerprint_table(self.scene, self.model)
        self.powers = self.scene.power_vector()
        self.prediction = sn.Prediction.at(self.table, self.powers)
        self.values = prediction_values(self.prediction)

    def match(self, xy):
        """The scale of the loss's rounding error and the match of the
        noiseless reading at ``xy``.  The loss sums (a - v) ** 2 over the
        PDs, a = |reading - baseline| and v the matched prediction, each
        rounded relative to its own magnitude, so to first order its error
        is a multiple of the roundoff times
        2 * sum |a - v| * (|reading| + |baseline| + |v|)."""
        baseline = self.model.received_power(self.powers)
        reading = self.model.received_power(self.powers, xy)
        loc = sn.localize(reading, baseline, self.prediction, self.table)
        v = self.values[loc.index]
        miss = np.abs(reading - baseline) - v
        return float(2 * np.abs(miss) @ (np.abs(reading) + np.abs(baseline) + np.abs(v))), loc

    def solves(self):
        return [op.solve_refined(build(self.scene, self.partition), self.scene, self.partition)[1]
                for build in (op.build_uniformity_qp, op.build_enhanced_lp)]


def _positions(room, count=8):
    rng = np.random.default_rng(len(room.table.candidates))
    return rng.uniform(0.0, 1.0, (count, 2)) * [room.scene.room.size_x, room.scene.room.size_y]


def _check_envelopes(prediction, values):
    """``prediction`` holds ``values`` (K, N) tile by tile, its pads are
    +inf, and its envelopes are each tile's least and greatest value."""
    real = prediction.tiles >= 0
    held = np.where(real[..., None], values[prediction.tiles], np.inf)  # (T, 64, N)
    scale = np.abs(values).max()
    _check("prediction", prediction.slabs.transpose(0, 2, 1)[real], held[real], scale)
    assert np.all(prediction.slabs.transpose(0, 2, 1)[~real] == np.inf)
    _check("prediction", prediction.lo, held.min(axis=1).T, scale)
    _check("prediction", prediction.hi, np.where(real[..., None], held, -np.inf).max(axis=1).T,
           scale)


def _check_solves(got, want, order, p_max):
    """Statuses equal, and where OPTIMAL, ``got``'s powers are ``want``'s
    taken in ``order``."""
    for new, old in zip(got, want):
        assert new.status is old.status
        if old.status is op.SolveStatus.OPTIMAL:
            _check("powers", new.x, old.x[order], p_max)


# ---------------------------------------------------------------------------
# transposes and mirrors
# ---------------------------------------------------------------------------

@_PROPERTY
@given(cfg=_layouts())
def test_transposes_and_mirrors_keep_the_room_outputs(cfg):
    room = _Room(cfg)
    solves = room.solves()
    positions = _positions(room)
    matches = [room.match(xy) for xy in positions]
    for kind in ("transpose", "mirror-x", "mirror-y"):
        cfg2, cell_map, move = _transformed(cfg, kind)
        other = _Room(cfg2)
        for circle in ("mec", "mic"):
            radius = getattr(room.partition, circle).radius
            _check("radius", getattr(other.partition, circle).radius, radius, radius)
        gains = room.model.baseline_gains
        _check("gains", other.model.baseline_gains, gains, np.abs(gains).max())
        # in a mirrored room the ragged far-edge tiles, and their pads, hold
        # what were the first cells of the grid
        _check_envelopes(other.prediction, room.values[np.argsort(cell_map)])
        _check_solves(other.solves(), solves, slice(None), room.scene.power_bounds()[1].max())
        for xy, (scale, loc) in zip(positions, matches):
            _, moved = other.match(move(*xy))
            assert moved.index == cell_map[loc.index]
            _check("loss", moved.loss, loc.loss, scale)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@_PROPERTY
@given(cfg=_layouts(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_leds_permutes_the_outputs(cfg, seed):
    room = _Room(cfg)
    order = np.random.default_rng(seed).permutation(room.scene.num_leds)
    other = _Room(_permuted(cfg, "leds", order))
    assert np.array_equal(other.powers, room.powers[order])
    for circle in ("mec", "mic"):
        radius = getattr(room.partition, circle).radius
        _check("radius", getattr(other.partition, circle).radius, radius, radius)
    gains = room.model.baseline_gains
    _check("gains", other.model.baseline_gains, gains[order], np.abs(gains).max())
    _check_envelopes(other.prediction, room.values)
    _check_solves(other.solves(), room.solves(), order, room.scene.power_bounds()[1].max())
    for xy in _positions(room):
        scale, loc = room.match(xy)
        reading = room.model.received_power(room.powers, xy)
        _check("reading", other.model.received_power(other.powers, xy), reading,
               np.abs(reading).max())
        _, moved = other.match(xy)
        assert moved.index == loc.index
        _check("loss", moved.loss, loc.loss, scale)


@_PROPERTY
@given(cfg=_layouts(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_pds_permutes_the_outputs(cfg, seed):
    room = _Room(cfg)
    order = np.random.default_rng(seed).permutation(len(room.scene.sensing_pds))
    other = _Room(_permuted(cfg, "sensing_pds", order))
    gains = room.model.baseline_gains
    _check("gains", other.model.baseline_gains, gains[:, order], np.abs(gains).max())
    # each PD's prediction is formed elementwise from its own factors: no tolerance
    assert np.array_equal(other.values, room.values[:, order])
    for xy in _positions(room):
        scale, loc = room.match(xy)
        reading = room.model.received_power(room.powers, xy)
        _check("reading", other.model.received_power(room.powers, xy), reading[order],
               np.abs(reading).max())
        _, moved = other.match(xy)
        assert moved.index == loc.index
        _check("loss", moved.loss, loc.loss, scale)


# ---------------------------------------------------------------------------
# linearity in the powers
# ---------------------------------------------------------------------------

@_PROPERTY
@given(cfg=_layouts(), scale=st.sampled_from([1e-3, 0.5, 3.7, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_predictions_and_readings_are_linear_in_the_powers(cfg, scale, seed):
    room = _Room(cfg)
    scaled = sn.Prediction.at(room.table, scale * room.powers)
    _check_envelopes(scaled, scale * room.values)
    rng = np.random.default_rng(seed)
    other = rng.uniform(*room.scene.power_bounds())
    a, b = rng.uniform(0.1, 3.0, 2)
    for xy in [None, *_positions(room, 4)]:
        want = (a * room.model.received_power(room.powers, xy)
                + b * room.model.received_power(other, xy))
        _check("reading", room.model.received_power(a * room.powers + b * other, xy), want,
               np.abs(want).max())


# ---------------------------------------------------------------------------
# the enhanced LP's sample points
# ---------------------------------------------------------------------------

_LP_CASES = [*(f"layout-{seed}" for seed in range(8)), "loop-large"]


@pytest.fixture(scope="module")
def rounds(loop_large):
    """rounds(case): each solve that solve_refined makes of the case's
    enhanced LP, in order, as (problem, report, HiGHS result), formed once
    per case."""
    @functools.cache
    def of(case):
        if case == "loop-large":
            scene, partition, _, _ = loop_large
        else:
            scene = default_scene(int(case.removeprefix("layout-")))
            partition = build_partition(scene)
        solved, real = [], op.solve

        def spy(problem):
            solved.append((problem, real(problem)))
            return solved[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(op, "solve", spy)
            op.solve_refined(op.build_enhanced_lp(scene, partition), scene, partition)
        return [(problem, report, highs_lp(problem.linear, *problem.constraint_system()[:2]))
                for problem, report in solved]

    return of


def _check_no_lower(before, after, oracle_before, oracle_after):
    """The optimum of ``after``, ``before`` with sample points appended, is
    not below ``before``'s, in the IPM and in HiGHS, each within its own
    optimality tolerance: the IPM stops at a relative gap of 1e-8, HiGHS at
    a dual feasibility of 1e-7.  An infeasible program stays infeasible."""
    optimal = op.SolveStatus.OPTIMAL
    if after.status is optimal:
        assert before.status is optimal and after.objective >= before.objective * (1.0 - 1e-8)
    assert oracle_after.status in (0, 2)
    if oracle_after.status == 0:
        assert oracle_before.status == 0
        assert oracle_after.fun >= oracle_before.fun * (1.0 - 1e-7)


@_PROPERTY
@given(layout=st.integers(0, 49), count=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_appending_random_sample_points_never_lowers_the_lp_optimum(layout, count, seed):
    # Layouts 0-49 are the pool of test_optimize's HiGHS check.  Past it the
    # phase-1 stall of ROADMAP item 2 breaks the relation: layout 158's LP
    # reports INFEASIBLE, and OPTIMAL with one check point appended.
    scene = default_scene(layout)
    partition = build_partition(scene)
    problem = op.build_enhanced_lp(scene, partition)
    check = problem.check_points(scene, partition, scene.controller.field_pitch_m)
    picked = np.random.default_rng(seed).choice(len(check), min(count, len(check)), replace=False)
    more = problem.with_extra_points(scene, partition, check[np.sort(picked)])
    _check_no_lower(*(op.solve(p) for p in (problem, more)),
                    *(highs_lp(p.linear, *p.constraint_system()[:2]) for p in (problem, more)))


@pytest.mark.parametrize("case", _LP_CASES)
def test_appending_sample_points_never_lowers_the_lp_optimum(rounds, case):
    solves = rounds(case)
    for (before, report, oracle), (after, next_report, next_oracle) in zip(solves, solves[1:]):
        # a round appends points and keeps the ones it had
        assert np.array_equal(after.points[:len(before.points)], before.points)
        assert len(after.points) > len(before.points)
        _check_no_lower(report, next_report, oracle, next_oracle)


# The refinement's re-solve from scratch on 504 points stops in phase 1 and
# solve_inequality_program reports INFEASIBLE; HiGHS solves it at 1047.56 W.
_LOOP_LARGE_STALL = "phase-1 stop reported as INFEASIBLE; HiGHS: optimal at 1047.56 W"


@pytest.mark.parametrize("case, first, last", [
    *((case, 0, None) for case in _LP_CASES if case != "loop-large"),
    ("loop-large", 0, 1),
    pytest.param("loop-large", 1, 2, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True, reason=_LOOP_LARGE_STALL)),
], ids=[*(case for case in _LP_CASES if case != "loop-large"), "loop-large-round-0",
        "loop-large-round-1"])
def test_refinement_round_status_agrees_with_highs(rounds, case, first, last):
    solves = rounds(case)[first:last]
    assert solves
    for _, report, oracle in solves:
        assert report.status.value == {0: "optimal", 2: "infeasible"}[oracle.status]
        if oracle.status == 0:
            assert abs(report.objective - oracle.fun) <= 1e-6 * abs(oracle.fun)
