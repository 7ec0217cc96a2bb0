from dataclasses import replace

import numpy as np
import pytest

from isci import controller as ct
from isci import optimize as op
from isci import photometry as ph
from isci import sensing as sn
from isci.geometry import Circle, Region, build_partition, classify_point, classify_points
from isci.scene import scene_from_dict, scene_to_dict
from isci.sensing import FingerprintTable, LocalizationResult


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
        region = classify_point(pos, partition)
        expected = {Region.OUTSIDE: ct.Mode.NO_USER,
                    Region.NON_ACTIVITY: ct.Mode.UNIFORMITY,
                    Region.ACTIVITY: ct.Mode.ENHANCED}[region]
        assert mode is expected


def test_apply_no_user_total(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.NO_USER, scene, partition)
    assert report is None
    assert float(powers.sum()) == pytest.approx(80.0)
    np.testing.assert_allclose(powers, scene.power_bounds()[0])


def test_apply_uniformity_fine_grid_illuminance(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.UNIFORMITY, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    grid = ph.field(scene.with_powers(powers), partition, quantity="illuminance")
    vals = grid.values[grid.regions != Region.OUTSIDE.value]
    ctl = scene.controller
    assert vals.min() >= ctl.e_uniform_min_lx - 1e-6
    assert vals.max() <= ctl.e_uniform_max_lx + 1e-6


def test_apply_enhanced_fine_grid_constraints(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.ENHANCED, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    illum = ph.field(scene.with_powers(powers), partition, quantity="illuminance")
    snr = ph.field(scene.with_powers(powers), partition, quantity="snr")
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


@pytest.mark.parametrize("ring, ok", [(0.09, False), (0.0999, False), (0.3, True)])
def test_trajectory_rejects_a_ring_narrower_than_the_margins(partition, ring, ok):
    # waypoints keep 0.05 m from the MEC and from the MIC, so a ring (MEC
    # radius minus MIC radius) under 0.1 m holds none, and the sampler
    # would only give up after 10 000 tries
    mec = partition.mec
    narrow = replace(partition, mic=Circle(mec.center, mec.radius - ring))
    if ok:
        assert len(ct.generate_trajectory(narrow, seed=1)) > 10
    else:
        with pytest.raises(ValueError, match=rf"MEC radius {mec.radius:.3f} m minus MIC radius"):
            ct.generate_trajectory(narrow, seed=1)


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
    monkeypatch.setattr(ct, "_last_plan", None)
    calls = []
    real = ct.apply_mode

    def counted(mode, scene, partition):
        calls.append(mode)
        return real(mode, scene, partition)

    monkeypatch.setattr(ct, "apply_mode", counted)
    return calls


@pytest.fixture()
def predicts(monkeypatch):
    """The power vectors the fingerprint factors are asked to predict at."""
    calls = []
    real = FingerprintTable.predict

    def counted(self, powers):
        calls.append(powers)
        return real(self, powers)

    monkeypatch.setattr(FingerprintTable, "predict", counted)
    return calls


def test_scenario_matches_unmemoized_loop(scene, partition, table, sensing_model, predicts):
    # a fresh table (same arrays) so this run gets its own plan
    fresh = replace(table)
    traj = ct.generate_trajectory(partition, seed=3)
    trace = ct.run_scenario(scene, partition, fresh, traj, noise_seed=9)
    assert {s.mode for s in trace.steps} == {m.value for m in ct.Mode}

    # the same loop, with losses from a direct contraction of the deltas
    rng = np.random.default_rng(9)
    noise_rel = scene.controller.noise_rel_sigma
    allocations = {ct.Mode.NO_USER: scene.power_bounds()[0]}
    applied = allocations[ct.Mode.NO_USER]
    for step, (_, pos) in zip(trace.steps, traj):
        base = sensing_model.received_power(applied)
        reading = sensing_model.received_power(applied, pos) if pos is not None else base
        sigma = noise_rel * base
        measured = reading + rng.standard_normal(len(reading)) * sigma
        actual = np.abs(measured - base)
        predicted = np.abs(np.einsum("kij,i->kj", table.deltas, applied))
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
    assert len(predicts) == 3  # p_min and the two mode allocations, once each


def test_scenario_tile_match_equals_full_scan(monkeypatch):
    # a 6 m room with a 3 x 3 LED/PD lattice at 0.05 m: 14 400 candidates in
    # 15 x 15 tiles; the trace must not change when every loss is computed
    xs = [1.0, 3.0, 5.0]
    scene = scene_from_dict({
        "room": {"size_x": 6.0, "size_y": 6.0},
        "grid": {"pitch": 0.05},
        "leds": [{"position": [x, y, 3.0]} for x in xs for y in xs],
        "sensing_pds": [{"position": [x + 0.1, y, 3.0]} for x in xs for y in xs],
    })
    partition = build_partition(scene)
    model = sn.SensingModel(scene)
    table = sn.build_fingerprint_table(scene, model)
    traj = ct.generate_trajectory(partition, seed=4)
    tiled = ct.run_scenario(scene, partition, table, traj, noise_seed=6, model=model)
    assert sum(s.detected for s in tiled.steps) > len(traj) // 2

    def full_scan(actual, prediction):
        losses = ((actual[None, :] - prediction.values) ** 2).sum(axis=1)
        k = int(np.argmin(losses))
        return k, float(losses[k])

    monkeypatch.setattr(sn, "_best_candidate", full_scan)
    assert ct.run_scenario(scene, partition, table, traj, noise_seed=6, model=model) == tiled


def test_scenario_reuses_allocations_across_runs(scene, partition, table, solves, predicts):
    traj = ct.generate_trajectory(partition, seed=3)
    cold = ct.run_scenario(scene, partition, table, traj, noise_seed=9)
    assert sorted(m.value for m in solves) == ["enhanced", "uniformity"]
    assert len(predicts) == 3
    rebuilt = scene_from_dict(scene_to_dict(scene))
    assert rebuilt is not scene and rebuilt == scene
    for room in (scene, rebuilt):
        assert ct.run_scenario(room, partition, table, traj, noise_seed=9) == cold
    assert (len(solves), len(predicts)) == (2, 3)
    assert ct.room_plan(rebuilt, partition, table) is ct.room_plan(scene, partition, table)


def test_allocation_solves_again_for_another_room(scene, partition, table, solves):
    first, _ = ct.room_plan(scene, partition, table).allocation(ct.Mode.ENHANCED)
    ctl = scene.controller
    brighter = replace(scene, controller=replace(ctl, e_enhanced_min_lx=ctl.e_enhanced_min_lx + 50))
    smaller = replace(partition, mic=Circle(partition.mic.center, 0.9 * partition.mic.radius))
    for room, part in ((brighter, partition), (scene, smaller)):
        powers, _ = ct.room_plan(room, part, table).allocation(ct.Mode.ENHANCED)
        assert not np.array_equal(powers, first)
    assert len(solves) == 3


def test_room_plan_keeps_only_the_last_room(scene, partition, table, solves):
    plan = ct.room_plan(scene, partition, table)
    assert ct.room_plan(scene, partition, table) is plan
    powers, report = plan.allocation(ct.Mode.UNIFORMITY)
    assert plan.allocation(ct.Mode.UNIFORMITY)[0] is powers  # shared, not re-solved
    other = replace(table)
    assert ct.room_plan(scene, partition, other) is not plan  # an equal table is not the same
    again = ct.room_plan(scene, partition, table)
    assert again is not plan
    np.testing.assert_array_equal(again.allocation(ct.Mode.UNIFORMITY)[0], powers)
    assert solves == [ct.Mode.UNIFORMITY] * 2


def test_allocations_are_read_only(scene, partition, table, solves):
    plan = ct.RoomPlan(scene, partition, table)
    for mode in ct.Mode:
        prediction = plan.prediction(mode)
        for kept in (plan.allocation(mode)[0], prediction.values, prediction.lo, prediction.hi,
                     prediction.tiles):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.0
        assert plan.prediction(mode) is prediction
        assert np.array_equal(prediction.values,
                              sn.predict_power_deltas(table, plan.allocation(mode)[0]))
    # apply_mode still hands each caller its own writable array
    powers, _ = ct.apply_mode(ct.Mode.NO_USER, scene, partition)
    assert powers.flags.writeable
    assert ct.apply_mode(ct.Mode.NO_USER, scene, partition)[0] is not powers


def test_room_plan_keeps_solve_reports(scene, partition, table, solves):
    plan = ct.RoomPlan(scene, partition, table)
    assert plan.allocation(ct.Mode.NO_USER)[1] is None
    for mode in (ct.Mode.UNIFORMITY, ct.Mode.ENHANCED):
        powers, report = plan.allocation(mode)
        assert report.status is op.SolveStatus.OPTIMAL
        np.testing.assert_array_equal(powers, np.clip(report.x, *scene.power_bounds()))
        assert plan.allocation(mode)[1] is report
    assert len(solves) == 2


def test_allocation_warns_only_when_it_solves(scene, partition, table, caplog, solves):
    bad = replace(scene, controller=replace(scene.controller, snr_threshold=1e12))
    with caplog.at_level("WARNING"):
        for _ in range(2):
            powers, report = ct.room_plan(bad, partition, table).allocation(ct.Mode.ENHANCED)
    np.testing.assert_array_equal(powers, scene.power_bounds()[1])
    assert report.status is not op.SolveStatus.OPTIMAL
    assert len(solves) == 1
    assert sum("falling back" in r.message for r in caplog.records) == 1


def test_uniformity_variance_strictly_improves(scene, partition):
    powers, _ = ct.apply_mode(ct.Mode.UNIFORMITY, scene, partition)
    base = np.full(scene.num_leds, scene.controller.baseline_power_w)

    def variance(p):
        grid = ph.field(scene.with_powers(p), partition, quantity="snr")
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
                        pitch=0.1, quantity="snr")


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
                        pitch=0.1, quantity="snr")
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
                        regions=np.zeros(0, dtype=np.int8), pitch=0.1, quantity="snr")
    with pytest.raises(ValueError):
        ct.benchmark(grid)
