import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isci import controller as ct
from isci import optimize as op
from isci import photometry as ph
from isci import sensing as sn
from isci.geometry import Circle, Point2, Region, build_partition, classify_points
from isci.scene import scene_from_dict, scene_to_dict
from isci.sensing import FingerprintTable, LocalizationResult

from tests.oracles import dense_predict, lattice_scene, loop_seeds, reference_replay


def _loc(pos):
    return LocalizationResult(position=pos, index=0 if pos else None,
                              loss=0.0 if pos else None)


# ---------------------------------------------------------------------------
# mode selection and application
# ---------------------------------------------------------------------------

def test_select_mode_not_detected(partition):
    assert ct.select_mode(_loc(None), partition) is ct.Mode.NO_USER


def test_detected_is_derived_from_the_match():
    assert not _loc(None).detected and _loc((1.0, 2.0)).detected
    step = ct.ScenarioStep(t=0.0, true_pos=(1.0, 2.0), estimate=None, mode="no_user",
                           powers=(1.0,), energy_j=0.5, error_m=None)
    assert not step.detected
    assert replace(step, estimate=(1.0, 2.0)).detected


def test_select_mode_outside(partition):
    far = (partition.mec.center.x + partition.mec.radius + 1.0, partition.mec.center.y)
    assert ct.select_mode(_loc(far), partition) is ct.Mode.NO_USER


def test_select_mode_activity(partition):
    center = (partition.mic.center.x, partition.mic.center.y)
    assert ct.select_mode(_loc(center), partition) is ct.Mode.ENHANCED


def test_select_mode_non_activity(scene, partition, rng):
    for _ in range(50):
        pos = tuple(rng.uniform(0, 5, 2))
        mode = ct.select_mode(_loc(pos), partition)
        region = Region(int(classify_points(np.array([pos]), partition)[0]))
        expected = {Region.OUTSIDE: ct.Mode.NO_USER,
                    Region.NON_ACTIVITY: ct.Mode.UNIFORMITY,
                    Region.ACTIVITY: ct.Mode.ENHANCED}[region]
        assert mode is expected


def _boundary_lattice(partition):
    """Candidates on a rectilinear lattice whose coordinates include the
    walls, the MIC's and MEC's centres and axis extremes, the float on
    either side of each, and a 0.25 m sweep from beyond one wall to beyond
    the other."""
    def coordinates(mic_c, mec_c, size):
        exact = {0.0, size, mic_c - partition.mic.radius, mic_c, mic_c + partition.mic.radius,
                 mec_c - partition.mec.radius, mec_c, mec_c + partition.mec.radius}
        near = {math.nextafter(v, side) for v in exact for side in (-math.inf, math.inf)}
        return sorted(exact | near | set(np.arange(-0.5, size + 0.75, 0.25)))

    xs = coordinates(partition.mic.center.x, partition.mec.center.x, partition.size_x)
    ys = coordinates(partition.mic.center.y, partition.mec.center.y, partition.size_y)
    return np.array([(x, y) for x in xs for y in ys])


def _plan_modes(scene, partition, table):
    """RoomPlan's per-candidate modes, checked against select_mode at every
    candidate, as an array of Mode values."""
    plan = ct.RoomPlan(scene, partition, table)
    assert len(plan.modes) == len(table.candidates)
    for k, (x, y) in enumerate(table.candidates):
        loc = LocalizationResult(position=(float(x), float(y)), index=k, loss=0.0)
        assert plan.modes[k] is ct.select_mode(loc, partition), (x, y)
    assert set(plan.modes) == set(ct.Mode)
    return np.array([m.value for m in plan.modes])


def test_plan_modes_are_select_mode_at_every_candidate(scene, partition, table):
    _plan_modes(scene, partition, table)


def test_plan_modes_classify_boundary_candidates_inward():
    # a 10 m room whose 5 x 5 LED lattice spans 1 m to 9 m: its MEC crosses every wall
    scene = lattice_scene(10.0, 5, 0.5, 2.0)
    partition = build_partition(scene)
    pts = _boundary_lattice(partition)
    modes = _plan_modes(scene, partition, replace(sn.build_fingerprint_table(scene),
                                                  candidates=pts))
    mic, mec, walls = partition.mic, partition.mec, (partition.size_x, partition.size_y)
    d_mic = np.hypot(pts[:, 0] - mic.center.x, pts[:, 1] - mic.center.y)
    d_mec = np.hypot(pts[:, 0] - mec.center.x, pts[:, 1] - mec.center.y)
    in_room = ((pts >= 0.0) & (pts <= walls)).all(axis=1)
    ring = in_room & (d_mic > mic.radius) & (d_mec <= mec.radius)
    for on_boundary, mode in ((d_mic == mic.radius, ct.Mode.ENHANCED),
                              (ring & (d_mec == mec.radius), ct.Mode.UNIFORMITY),
                              (ring & ((pts == 0.0) | (pts == walls)).any(axis=1),
                               ct.Mode.UNIFORMITY)):
        assert on_boundary.any()
        assert np.all(modes[on_boundary] == mode.value)


def test_apply_no_user_total(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.NO_USER, scene, partition)
    assert report is None
    assert float(powers.sum()) == pytest.approx(80.0)
    np.testing.assert_allclose(powers, scene.power_bounds()[0])


def test_apply_uniformity_fine_grid_illuminance(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.UNIFORMITY, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    grid = ph.field(scene, partition, quantity="illuminance", powers=powers)
    vals = grid.values[grid.regions != Region.OUTSIDE.value]
    ctl = scene.controller
    assert vals.min() >= ctl.e_uniform_min_lx - 1e-6
    assert vals.max() <= ctl.e_uniform_max_lx + 1e-6


def test_apply_enhanced_fine_grid_constraints(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.ENHANCED, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    illum = ph.field(scene, partition, quantity="illuminance", powers=powers)
    snr = ph.field(scene, partition, quantity="snr", powers=powers)
    act = illum.regions == Region.ACTIVITY.value
    ctl = scene.controller
    assert illum.values[act].min() >= ctl.e_enhanced_min_lx - 1e-6
    assert illum.values[act].max() <= ctl.e_enhanced_max_lx + 1e-6
    threshold = op.default_snr_threshold(scene, partition)
    assert snr.values[act].min() >= threshold * (1 - 1e-9)


def test_apply_infeasible_falls_back_to_max(scene, partition, caplog):
    bad = replace(scene, controller=replace(scene.controller, snr_threshold=1e12))
    with caplog.at_level("WARNING"):
        powers, report = ct.apply_mode(ct.Mode.ENHANCED, bad, partition)
    assert report.status is op.SolveStatus.INFEASIBLE
    np.testing.assert_allclose(powers, scene.power_bounds()[1])
    assert any("falling back" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# trajectory generation
# ---------------------------------------------------------------------------

def test_trajectory_deterministic(partition):
    a = ct.generate_trajectory(partition, seed=42)
    b = ct.generate_trajectory(partition, seed=42)
    assert a == b
    c = ct.generate_trajectory(partition, seed=43)
    assert a != c


def test_trajectory_phases(partition):
    traj = ct.generate_trajectory(partition, seed=5)
    present = [(t, p) for t, p in traj if p is not None]
    assert traj[0][1] is None and traj[-1][1] is None
    codes = classify_points(np.array([p for _, p in present]), partition)
    assert np.all(codes != Region.OUTSIDE.value)
    first_act = int(np.argmax(codes == Region.ACTIVITY.value))
    assert np.all(codes[:first_act] == Region.NON_ACTIVITY.value)
    # dwell: consecutive identical activity positions
    acts = [p for (_, p), c in zip(present, codes) if c == Region.ACTIVITY.value]
    assert len(acts) >= 2
    dwell_point = max(set(acts), key=acts.count)
    assert acts.count(dwell_point) >= int(10 / 0.5)


def test_trajectory_times_are_uniform(partition):
    traj = ct.generate_trajectory(partition, seed=11, dt=0.25)
    times = np.array([t for t, _ in traj])
    np.testing.assert_allclose(np.diff(times), 0.25)


def test_trajectory_rejects_bad_dt(partition):
    with pytest.raises(ValueError):
        ct.generate_trajectory(partition, seed=1, dt=0.0)


# Unchecked, a zero, negative or NaN speed never advances the walk, so the
# trajectory grows without end, and a NaN or infinite dwell time fails in the
# int conversion; each must be a ValueError naming the argument.
@pytest.mark.parametrize("name,value", [
    ("dt", -0.5), ("dt", float("nan")), ("dt", float("inf")),
    ("speed", 0.0), ("speed", -1.0), ("speed", float("nan")), ("speed", float("inf")),
    ("dwell_time", -1.0), ("dwell_time", float("nan")), ("dwell_time", float("inf")),
])
def test_trajectory_rejects_bad_motion_arguments(partition, name, value):
    with pytest.raises(ValueError, match=name):
        ct.generate_trajectory(partition, seed=1, **{name: value})


def test_trajectory_accepts_zero_dwell(partition):
    traj = ct.generate_trajectory(partition, seed=1, dwell_time=0.0)
    assert traj[0][1] is None and traj[-1][1] is None


@pytest.mark.parametrize("mec_radius, ring, ok", [
    pytest.param(None, 0.09, False, id="0.09-False"),
    pytest.param(None, 0.0999, False, id="0.0999-False"),
    pytest.param(None, 0.3, True, id="0.3-True"),
    # radii 1.1 and 1.0 m: 1.1 - 1.0 rounds above 0.1
    pytest.param(1.1, 0.1, False, id="1.1-1.0-False"),
])
def test_trajectory_rejects_a_ring_narrower_than_the_margins(partition, mec_radius, ring, ok):
    # waypoints keep 0.05 m from the MEC and from the MIC, so a ring (MEC
    # radius minus MIC radius) of at most 0.1 m holds none, and the sampler
    # would only give up after 10 000 tries
    centre = partition.mec.center
    outer = partition.mec.radius if mec_radius is None else mec_radius
    narrow = replace(partition, mec=Circle(centre, outer), mic=Circle(centre, outer - ring))
    if ok:
        assert len(ct.generate_trajectory(narrow, seed=1)) > 10
    else:
        with pytest.raises(ValueError, match=rf"MEC radius {outer:.3f} m minus MIC radius"):
            ct.generate_trajectory(narrow, seed=1)


def test_trajectory_gives_up_on_a_ring_beyond_the_wall_margin(partition):
    # a wide ring centred 1 m outside the room's x = 0 wall reaches 0.08 m
    # in, but a waypoint keeps 0.05 m inside the MEC, so no further in than
    # 0.03 m, and 0.05 m from the walls
    centre = Point2(-1.0, partition.mec.center.y)
    ring = replace(partition, mec=Circle(centre, 1.08), mic=Circle(centre, 0.5))
    with pytest.raises(ValueError, match="^could not sample a non-activity waypoint$"):
        ct.generate_trajectory(ring, seed=1)


def test_a_point_segment_avoids_the_mic_by_its_distance(partition):
    # a segment avoids the MIC when it passes more than 0.02 m outside it
    mic = partition.mic
    inside = (mic.center.x, mic.center.y)
    outside = (mic.center.x + mic.radius + 0.03, mic.center.y)
    assert not ct._segment_avoids_mic(inside, inside, partition)
    assert ct._segment_avoids_mic(outside, outside, partition)


# ---------------------------------------------------------------------------
# scenario replay
# ---------------------------------------------------------------------------

def _noiseless(scene):
    return replace(scene, controller=replace(scene.controller, noise_rel_sigma=0.0))


def test_scenario_all_absent_is_no_user(scene, partition, table):
    traj = [(i * 0.5, None) for i in range(12)]
    trace = ct.run_scenario(_noiseless(scene), partition, table, traj, noise_seed=0)
    assert all(s.mode == "no_user" for s in trace.steps)
    assert all(s.energy_j == pytest.approx(0.5 * 80.0) for s in trace.steps)


def test_scenario_noiseless_on_candidates_zero_error(scene, partition, table, rng):
    picks = rng.integers(0, scene.grid.count, 12)
    traj = [(i * 0.5, tuple(table.candidates[k])) for i, k in enumerate(picks)]
    trace = ct.run_scenario(_noiseless(scene), partition, table, traj)
    errs = trace.errors()
    assert len(errs) == len(traj)
    assert np.all(errs == 0.0)


def test_scenario_power_safety(scene, partition, table):
    traj = ct.generate_trajectory(partition, seed=3)
    trace = ct.run_scenario(scene, partition, table, traj, noise_seed=9)
    lo, hi = scene.power_bounds()
    for s in trace.steps:
        p = np.array(s.powers)
        assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)


def test_scenario_energy_accounting(scene, partition, table):
    traj = ct.generate_trajectory(partition, seed=3)
    trace = ct.run_scenario(scene, partition, table, traj, noise_seed=9)
    dt = scene.controller.step_period_s
    for s in trace.steps:
        assert s.energy_j == pytest.approx(dt * sum(s.powers))
        if s.mode == "no_user":
            assert s.energy_j == pytest.approx(dt * 8 * 10.0)


def test_scenario_reoptimizes_once_per_mode(scene, partition, table):
    traj = ct.generate_trajectory(partition, seed=3)
    trace = ct.run_scenario(scene, partition, table, traj, noise_seed=9)
    by_mode = {}
    for s in trace.steps:
        by_mode.setdefault(s.mode, set()).add(s.powers)
    for mode, power_sets in by_mode.items():
        assert len(power_sets) == 1


@pytest.fixture()
def solves(monkeypatch):
    """The modes apply_mode is called with, counted with no plan kept."""
    ct.room_plan.cache_clear()
    calls = []
    real = ct.apply_mode

    def counted(mode, scene, partition):
        calls.append(mode)
        return real(mode, scene, partition)

    monkeypatch.setattr(ct, "apply_mode", counted)
    return calls


@pytest.fixture()
def predicts(monkeypatch):
    """The power vectors the fingerprint factors are asked to predict at: one
    per Prediction.at, which walks its bands once."""
    calls = []
    real = FingerprintTable._signed_bands

    def counted(self, powers):
        calls.append(powers)
        return real(self, powers)

    monkeypatch.setattr(FingerprintTable, "_signed_bands", counted)
    return calls


def test_scenario_matches_unmemoized_loop(scene, partition, table, sensing_model, predicts):
    # a fresh table (same arrays) so this run gets its own plan
    fresh = replace(table)
    traj = ct.generate_trajectory(partition, seed=3)
    trace = ct.run_scenario(scene, partition, fresh, traj, noise_seed=9)
    assert {s.mode for s in trace.steps} == {m.value for m in ct.Mode}
    assert len(predicts) == 3  # p_min and the two mode allocations, once each

    # the same loop, with losses from a direct contraction of the deltas
    rng = np.random.default_rng(9)
    noise_rel = scene.controller.noise_rel_sigma
    allocations = {ct.Mode.NO_USER: scene.power_bounds()[0]}
    applied = allocations[ct.Mode.NO_USER]
    deltas = table.deltas
    for step, (_, pos) in zip(trace.steps, traj):
        base = sensing_model.received_power(applied)
        reading = sensing_model.received_power(applied, pos) if pos is not None else base
        sigma = noise_rel * base
        measured = reading + rng.standard_normal(len(reading)) * sigma
        actual = np.abs(measured - base)
        predicted = np.abs(np.einsum("kij,i->kj", deltas, applied))
        losses = ((actual[None, :] - predicted) ** 2).sum(axis=1)
        detected = bool(actual.max() >= 3.0 * float(sigma.max()))
        k = int(np.argmin(losses)) if detected else None
        estimate = tuple(float(c) for c in table.candidates[k]) if detected else None
        mode = ct.select_mode(LocalizationResult(position=estimate, index=k,
                                                 loss=losses[k] if detected else None),
                              partition)
        if mode not in allocations:
            allocations[mode], _ = ct.apply_mode(mode, scene, partition)
        assert (step.mode, step.detected, step.estimate) == (mode.value, detected, estimate)
        applied = allocations[mode]


def test_room_plan_memory_stays_within_its_predictions(monkeypatch, loop_large):
    # At its traced peak, planning the loop-large room (10 m, 5 x 5 lattice
    # 1.4 m apart, 0.05 m grid: K = 40 000, N = 25) may hold its three
    # predictions' slabs, envelopes and tiles plus four band budgets: each
    # prediction is formed band by band, and the solves take less.  With the
    # whole grid in one band a prediction holds (K, N) arrays and overshoots.
    scene, partition, _, table = loop_large

    def traced_peak():
        tracemalloc.start()
        try:
            plan = ct.RoomPlan(scene, partition, table)
            return tracemalloc.get_traced_memory()[1], plan
        finally:
            tracemalloc.stop()

    peak, plan = traced_peak()
    kept = sum(a.nbytes for p in plan.predictions.values()
               for a in (p.slabs, p.lo, p.hi, p.tiles))
    bound = kept + 4 * sn._BAND_BYTES
    assert peak <= bound
    monkeypatch.setattr(sn, "_BAND_BYTES", 1 << 60)
    assert traced_peak()[0] > bound


def test_scenario_tile_match_equals_full_scan(monkeypatch):
    # a 6 m room with a 3 x 3 LED/PD lattice at 0.05 m: 14 400 candidates in
    # 15 x 15 tiles; the trace must not change when every loss is computed
    scene = lattice_scene(6.0, 3, 0.05, 2.0)
    partition = build_partition(scene)
    model = sn.SensingModel(scene)
    table = sn.build_fingerprint_table(scene, model)
    traj = ct.generate_trajectory(partition, seed=4)
    tiled = ct.run_scenario(scene, partition, table, traj, noise_seed=6, model=model)
    assert sum(s.detected for s in tiled.steps) > len(traj) // 2

    # the plan run_scenario used, and each of its predictions as (K, N)
    plan = ct.room_plan(scene, partition, table)
    values = {id(plan.predictions[mode]): np.abs(dense_predict(table, plan.allocations[mode][0]))
              for mode in ct.Mode}

    def full_scan(actual, prediction):
        losses = ((actual[None, :] - values[id(prediction)]) ** 2).sum(axis=1)
        k = int(np.argmin(losses))
        return k, float(losses[k])

    monkeypatch.setattr(sn, "_best_candidate", full_scan)
    assert ct.run_scenario(scene, partition, table, traj, noise_seed=6, model=model) == tiled


def _with_noise(scene, noise_rel):
    return replace(scene, controller=replace(scene.controller, noise_rel_sigma=noise_rel))


@pytest.mark.parametrize("noise_rel", [0.0, 0.01])
def test_scenario_equals_reference_loop(scene, partition, table, sensing_model, noise_rel):
    room = _with_noise(scene, noise_rel)
    for seed in (3, 7):
        traj = ct.generate_trajectory(partition, seed=seed)
        trace = ct.run_scenario(room, partition, table, traj, noise_seed=seed, model=sensing_model)
        assert {s.mode for s in trace.steps} == {m.value for m in ct.Mode}
        assert trace == reference_replay(room, partition, table, traj, noise_seed=seed,
                                         model=sensing_model)


def test_scenario_equals_reference_loop_on_a_large_lattice(loop_large):
    # the benchmark's loop-large room at its workload seed 1's first two replays
    scene, partition, model, table = loop_large
    ctl = scene.controller
    for trajectory_seed, noise_seed in loop_seeds(1, 2):
        traj = ct.generate_trajectory(partition, seed=trajectory_seed, dt=ctl.step_period_s,
                                      speed=ctl.user_speed_m_per_s, dwell_time=ctl.dwell_time_s)
        trace = ct.run_scenario(scene, partition, table, traj, noise_seed=noise_seed, model=model)
        assert sum(s.detected for s in trace.steps) > len(traj) // 2
        assert trace == reference_replay(scene, partition, table, traj, noise_seed=noise_seed,
                                         model=model)


def test_scenario_with_a_mismatched_model_equals_reference_loop(scene, partition, table):
    # the readings' floor, and so their no-user baseline, differ from the table's
    floor = replace(scene.grid, reflectance=tuple(0.9 * r for r in scene.grid.reflectance))
    truth = replace(scene, grid=floor, user=replace(scene.user, patch_height_m=1.6))
    model = sn.SensingModel(truth)
    traj = ct.generate_trajectory(partition, seed=3)
    trace = ct.run_scenario(scene, partition, table, traj, noise_seed=9, model=model)
    assert trace == reference_replay(scene, partition, table, traj, noise_seed=9, model=model)
    assert trace != ct.run_scenario(scene, partition, table, traj, noise_seed=9)


def test_scenario_takes_array_positions(scene, partition, table, sensing_model):
    traj = ct.generate_trajectory(partition, seed=3)
    arrays = [(t, None if pos is None else np.array(pos)) for t, pos in traj]
    trace = ct.run_scenario(scene, partition, table, arrays, noise_seed=9, model=sensing_model)
    assert trace == ct.run_scenario(scene, partition, table, traj, noise_seed=9,
                                    model=sensing_model)
    assert all(s.true_pos is None or type(s.true_pos[0]) is float for s in trace.steps)


def test_scenario_forms_a_reading_once_per_position_and_mode(scene, partition, table,
                                                            sensing_model, monkeypatch):
    # a with-user reading depends on the position and on the mode whose
    # powers it is read under, and run_scenario keeps the last one: a user
    # standing still forms it again only when the mode changes
    plan = ct.room_plan(scene, partition, table)
    mode_of = {tuple(powers): mode.value for mode, (powers, _) in plan.allocations.items()}
    calls = []
    real = sn.SensingModel.received_power

    def counted(self, powers, user_xy=None):
        if user_xy is not None:
            calls.append((user_xy, mode_of[tuple(powers)]))
        return real(self, powers, user_xy)

    monkeypatch.setattr(sn.SensingModel, "received_power", counted)
    a, b = (2.0, 2.5), (2.6, 2.4)
    positions = [None, a, a, a, b, np.array(b), b, None, b, a, (np.float64(2.0), 2.5)]
    traj = [(0.5 * i, pos) for i, pos in enumerate(positions)]
    trace = ct.run_scenario(scene, partition, table, traj, noise_seed=4, model=sensing_model)
    modes = [s.mode for s in trace.steps]
    assert modes == ["no_user", "enhanced", "enhanced", "enhanced", "uniformity", "uniformity",
                     "uniformity", "no_user", "uniformity", "enhanced", "enhanced"]
    # each reading is taken under the previous step's mode: a user standing
    # at a, then at b, is read again when the mode their first step picked
    # takes over; back at b after an empty step they are read under no_user
    assert calls == [(a, "no_user"), (a, "enhanced"), (b, "enhanced"), (b, "uniformity"),
                     (b, "no_user"), (a, "uniformity"), (a, "enhanced")]
    assert trace == reference_replay(scene, partition, table, traj, noise_seed=4,
                                     model=sensing_model)


def test_dark_room_senses_no_user(scene, partition, table):
    # every NO_USER power 0 W: no light reaches the PDs, with or without a
    # user, so no step may be read as a detection
    dark = replace(scene, leds=tuple(replace(led, power_min_w=0.0) for led in scene.leds))
    assert not dark.power_bounds()[0].any()
    traj = ct.generate_trajectory(partition, seed=7)
    trace = ct.run_scenario(dark, partition, table, traj, noise_seed=1)
    absent = [s for s in trace.steps if s.true_pos is None]
    assert len(absent) == 4 and all(s.estimate is None for s in absent)
    assert all(s.mode == "no_user" and s.estimate is None for s in trace.steps)


def test_scenario_reuses_allocations_across_runs(scene, partition, table, solves, predicts):
    traj = ct.generate_trajectory(partition, seed=3)
    plan = ct.room_plan(scene, partition, table)
    # the plan is formed whole: both solves and all three predictions
    assert sorted(m.value for m in solves) == ["enhanced", "uniformity"]
    assert len(predicts) == 3
    cold = ct.run_scenario(scene, partition, table, traj, noise_seed=9)
    assert ct.room_plan(scene, partition, table) is plan
    rebuilt = scene_from_dict(scene_to_dict(scene))
    assert rebuilt is not scene and rebuilt == scene
    for room in (scene, rebuilt):
        assert ct.run_scenario(room, partition, table, traj, noise_seed=9) == cold
    assert (len(solves), len(predicts)) == (2, 3)
    assert ct.room_plan(rebuilt, partition, table) is plan


def test_no_replay_step_solves_or_predicts(scene, partition, table, sensing_model, solves,
                                          predicts):
    # run_scenario takes one trajectory point per step: the solves and
    # predictions counted when each point is taken, and after the last
    # step, must all be the plan's, formed before the first step
    traj = ct.generate_trajectory(partition, seed=3)
    counts = []

    def points():
        for point in traj:
            counts.append((len(solves), len(predicts)))
            yield point

    trace = ct.run_scenario(scene, partition, replace(table), points(), noise_seed=9,
                            model=sensing_model)
    assert {s.mode for s in trace.steps} == {m.value for m in ct.Mode}
    assert counts == [(2, 3)] * len(traj)
    assert (len(solves), len(predicts)) == (2, 3)


def test_allocation_solves_again_for_another_room(scene, partition, table, solves):
    first, _ = ct.room_plan(scene, partition, table).allocations[ct.Mode.ENHANCED]
    ctl = scene.controller
    brighter = replace(scene, controller=replace(ctl, e_enhanced_min_lx=ctl.e_enhanced_min_lx + 50))
    smaller = replace(partition, mic=Circle(partition.mic.center, 0.9 * partition.mic.radius))
    for room, part in ((brighter, partition), (scene, smaller)):
        powers, _ = ct.room_plan(room, part, table).allocations[ct.Mode.ENHANCED]
        assert not np.array_equal(powers, first)
    assert solves == [ct.Mode.UNIFORMITY, ct.Mode.ENHANCED] * 3  # one plan per room


def test_room_plan_keeps_only_the_last_room(scene, partition, table, solves):
    plan = ct.room_plan(scene, partition, table)
    assert ct.room_plan(scene, partition, table) is plan
    powers, report = plan.allocations[ct.Mode.UNIFORMITY]
    other = replace(table)
    assert ct.room_plan(scene, partition, other) is not plan  # an equal table is not the same
    again = ct.room_plan(scene, partition, table)
    assert again is not plan
    np.testing.assert_array_equal(again.allocations[ct.Mode.UNIFORMITY][0], powers)
    assert solves == [ct.Mode.UNIFORMITY, ct.Mode.ENHANCED] * 3  # three plans, each whole


def test_allocations_are_read_only(scene, partition, table, solves):
    plan = ct.RoomPlan(scene, partition, table)
    assert set(plan.allocations) == set(plan.predictions) == set(ct.Mode)
    for kept in (plan.allocations, plan.predictions):
        with pytest.raises(TypeError):
            kept[ct.Mode.NO_USER] = None
    for mode in ct.Mode:
        prediction = plan.predictions[mode]
        for kept in (plan.allocations[mode][0], prediction.slabs, prediction.lo, prediction.hi,
                     prediction.tiles):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.0
        # the slabs hold the dense prediction's absolute values tile by tile
        real = prediction.tiles >= 0
        values = np.abs(dense_predict(table, plan.allocations[mode][0]))
        assert np.array_equal(prediction.slabs.transpose(0, 2, 1)[real],
                              values[prediction.tiles[real]])
    # apply_mode still hands each caller its own writable array
    powers, _ = ct.apply_mode(ct.Mode.NO_USER, scene, partition)
    assert powers.flags.writeable
    assert ct.apply_mode(ct.Mode.NO_USER, scene, partition)[0] is not powers


def test_room_plan_keeps_solve_reports(scene, partition, table, solves):
    plan = ct.RoomPlan(scene, partition, table)
    assert len(solves) == 2
    powers, report = plan.allocations[ct.Mode.NO_USER]
    np.testing.assert_array_equal(powers, scene.power_bounds()[0])
    assert report is None
    for mode in (ct.Mode.UNIFORMITY, ct.Mode.ENHANCED):
        powers, report = plan.allocations[mode]
        assert report.status is op.SolveStatus.OPTIMAL
        np.testing.assert_array_equal(powers, np.clip(report.x, *scene.power_bounds()))


def test_allocation_warns_only_when_it_solves(scene, partition, table, caplog, solves):
    bad = replace(scene, controller=replace(scene.controller, snr_threshold=1e12))
    with caplog.at_level("WARNING"):
        for _ in range(2):
            powers, report = ct.room_plan(bad, partition, table).allocations[ct.Mode.ENHANCED]
    np.testing.assert_array_equal(powers, scene.power_bounds()[1])
    assert report.status is not op.SolveStatus.OPTIMAL
    assert sorted(m.value for m in solves) == ["enhanced", "uniformity"]  # one plan, made once
    assert sum("falling back" in r.message for r in caplog.records) == 1


def test_uniformity_variance_strictly_improves(scene, partition):
    powers, _ = ct.apply_mode(ct.Mode.UNIFORMITY, scene, partition)
    base = np.full(scene.num_leds, scene.controller.baseline_power_w)

    def variance(p):
        grid = ph.field(scene, partition, quantity="snr", powers=p)
        v = grid.values[grid.regions != Region.OUTSIDE.value]
        return float(np.mean((v - v.mean()) ** 2))

    assert variance(powers) < variance(base)


# ---------------------------------------------------------------------------
# energy report
# ---------------------------------------------------------------------------

def test_energy_report_identical_traces(scene, partition, table):
    traj = [(i * 0.5, None) for i in range(5)]
    trace = ct.run_scenario(_noiseless(scene), partition, table, traj)
    assert ct.energy_report(trace, trace) == pytest.approx(0.0)


def test_energy_report_no_user_vs_baseline(scene, partition, table):
    traj = [(i * 0.5, None) for i in range(20)]
    trace = ct.run_scenario(_noiseless(scene), partition, table, traj)
    base = ct.baseline_scenario(scene, traj)
    expected = 1.0 - 10.0 / 45.2
    assert ct.energy_report(trace, base) == pytest.approx(expected, rel=1e-12)


def test_energy_report_mismatch_raises(scene, partition, table):
    traj = [(i * 0.5, None) for i in range(5)]
    trace = ct.run_scenario(_noiseless(scene), partition, table, traj)
    base = ct.baseline_scenario(scene, traj[:-1])
    with pytest.raises(ValueError):
        ct.energy_report(trace, base)


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

def _const_field(value, n=10):
    pts = np.column_stack([np.linspace(0, 1, n), np.zeros(n)])
    return ph.FieldGrid(points=pts, values=np.full(n, value),
                        regions=np.full(n, Region.NON_ACTIVITY.value, dtype=np.int8),
                        quantity="snr")


def test_benchmark_constant_field():
    bench = ct.benchmark(_const_field(4.2))
    assert bench.average == bench.deviation == bench.minimum == 4.2
    assert bench.frac_below_dev["reference"] == 0.0
    assert bench.frac_above_avg["reference"] == 0.0


def test_benchmark_two_value_field():
    pts = np.zeros((10, 2))
    values = np.array([1.0] * 5 + [3.0] * 5)
    grid = ph.FieldGrid(points=pts, values=values,
                        regions=np.full(10, Region.NON_ACTIVITY.value, dtype=np.int8),
                        quantity="snr")
    bench = ct.benchmark(grid)
    assert bench.average == 2.0
    assert bench.minimum == 1.0
    assert bench.deviation == 1.5
    assert bench.frac_above_avg["reference"] == 0.5
    assert bench.frac_below_dev["reference"] == 0.5


def test_benchmark_deviation_formula(scene, partition):
    grid = ph.field(scene, partition, quantity="snr")
    bench = ct.benchmark(grid)
    assert bench.deviation == pytest.approx(
        bench.average - (bench.average - bench.minimum) / 2.0, rel=1e-15)
    assert bench.minimum <= bench.deviation <= bench.average


def test_benchmark_region_nesting(scene, partition):
    grid = ph.field(scene, partition, quantity="snr")
    bench = ct.benchmark(grid)
    assert bench.frac_above_avg["mic"] >= bench.frac_above_avg["mec"]
    assert bench.frac_above_avg["mec"] >= bench.frac_above_avg["reference"]
    assert bench.frac_below_dev["mec"] == 0.0


def test_benchmark_empty_field_rejected():
    grid = ph.FieldGrid(points=np.zeros((0, 2)), values=np.zeros(0),
                        regions=np.zeros(0, dtype=np.int8), quantity="snr")
    with pytest.raises(ValueError):
        ct.benchmark(grid)
