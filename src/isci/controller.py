"""Adaptive control loop: sense, localize, pick a mode, allocate LED power.

Three modes drive the allocation.  With nobody on the receiving plane every
LED idles at its minimum power (sensing keeps running); a user in the
non-activity ring triggers the SNR-uniformity QP; a user inside the
activity area triggers the power-minimizing LP.  The loop reads a matched
user's mode from the room plan's per-candidate modes.  Scenario replay
couples the loop to a synthetic random-waypoint trajectory with seeded
measurement noise, and the benchmark helpers grade SNR/illuminance coverage
against plane-average thresholds.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import optimize
from .geometry import Region, RegionPartition, classify_points
from .photometry import FieldGrid
from .scene import ControllerConfig, Scene
# localize only for bench/worker.py, which traces it here by name (ROADMAP item 1)
from .sensing import (FingerprintTable, LocalizationResult, Prediction, SensingModel,
                      NOISELESS_DETECT_EPS, _located, _read_only, localize)

__all__ = [
    "Mode",
    "ScenarioStep",
    "ScenarioTrace",
    "BenchmarkThresholds",
    "select_mode",
    "apply_mode",
    "RoomPlan",
    "room_plan",
    "generate_trajectory",
    "run_scenario",
    "baseline_scenario",
    "energy_report",
    "benchmark",
]

logger = logging.getLogger(__name__)

TrajectoryPoint = tuple[float, Optional[tuple[float, float]]]


class Mode(Enum):
    NO_USER = "no_user"
    UNIFORMITY = "uniformity"
    ENHANCED = "enhanced"


# The mode a user in each region calls for, indexed by Region value.
_REGION_MODES = (Mode.NO_USER, Mode.UNIFORMITY, Mode.ENHANCED)


# Kept only for bench/worker.py, which traces it by name (ROADMAP item 1).
def select_mode(localization: LocalizationResult, partition: RegionPartition) -> Mode:
    """Map a localization outcome to the control mode; no position is NO_USER.
    For any position; run_scenario reads RoomPlan.modes instead."""
    if localization.position is None:
        return Mode.NO_USER
    return _REGION_MODES[classify_points(localization.position, partition)[0]]


def apply_mode(mode: Mode, scene: Scene,
               partition: RegionPartition) -> tuple[np.ndarray, Optional[optimize.SolveReport]]:
    """Power allocation for a mode, as a new array, and its solve report.

    NO_USER needs no solve.  A program that ends with any status but OPTIMAL
    falls back to the clamped maximum power with a warning.
    """
    p_min, p_max = scene.power_bounds()
    if mode is Mode.NO_USER:
        return p_min.copy(), None
    build = optimize.build_uniformity_qp if mode is Mode.UNIFORMITY else optimize.build_enhanced_lp
    _, report = optimize.solve_refined(build(scene, partition), scene, partition)
    if report.status is not optimize.SolveStatus.OPTIMAL:
        logger.warning("%s-mode solve returned %s (%s); falling back to max power",
                       mode.value, report.status.value, report.worst_row)
        return p_max.copy(), report
    return np.clip(report.x, p_min, p_max), report


class RoomPlan:
    """Each mode's allocation, SolveReport and fingerprint Prediction, all
    formed when the plan is made: the mode programs are built from the room
    alone, never from the user's position, so no replay step solves or
    predicts.  ``allocations[mode]`` is apply_mode's powers, read-only, and
    its report (NO_USER's p_min, with no solve and no report), and
    ``predictions[mode]`` is Prediction.at the table and those powers; both
    are read-only mappings, and any fallback warning is logged here, once.
    ``modes[k]`` is select_mode at table candidate k, for every k from one
    classify_points."""

    def __init__(self, scene: Scene, partition: RegionPartition, table: FingerprintTable):
        self.scene, self.partition, self.table = scene, partition, table
        regions = classify_points(table.candidates, partition)
        self.modes = _read_only(np.array(_REGION_MODES, dtype=object)[regions])
        solved = {Mode.NO_USER: (scene.power_bounds()[0], None)}
        for mode in (Mode.UNIFORMITY, Mode.ENHANCED):
            solved[mode] = apply_mode(mode, scene, partition)
        self.allocations = MappingProxyType({mode: (_read_only(powers), report)
                                             for mode, (powers, report) in solved.items()})
        self.predictions = MappingProxyType({mode: Prediction.at(table, powers)
                                             for mode, (powers, _) in self.allocations.items()})


@functools.lru_cache(maxsize=1)
def room_plan(scene: Scene, partition: RegionPartition, table: FingerprintTable) -> RoomPlan:
    """The last call's plan when ``table`` is its table and the scene and
    partition compare equal, else a new plan, which is kept in its place."""
    return RoomPlan(scene, partition, table)


# ---------------------------------------------------------------------------
# Trajectory generation (random waypoint, three phases)
# ---------------------------------------------------------------------------

_REGION_MARGIN = 0.05
_MAX_SAMPLING_TRIES = 10000
_WAYPOINTS_IN = 8    # ring waypoints walked before the dwell, entry included
_WAYPOINTS_OUT = 5   # ring waypoints walked after it
_ABSENT_STEPS = 2    # empty-room steps before entry and after exit


def _sample_non_activity(rng, partition: RegionPartition):
    mec, mic = partition.mec, partition.mic
    lo_x = max(_REGION_MARGIN, mec.center.x - mec.radius)
    hi_x = min(partition.size_x - _REGION_MARGIN, mec.center.x + mec.radius)
    lo_y = max(_REGION_MARGIN, mec.center.y - mec.radius)
    hi_y = min(partition.size_y - _REGION_MARGIN, mec.center.y + mec.radius)
    for _ in range(_MAX_SAMPLING_TRIES):
        x = rng.uniform(lo_x, hi_x)
        y = rng.uniform(lo_y, hi_y)
        d_mec = math.hypot(x - mec.center.x, y - mec.center.y)
        d_mic = math.hypot(x - mic.center.x, y - mic.center.y)
        if d_mec <= mec.radius - _REGION_MARGIN and d_mic >= mic.radius + _REGION_MARGIN:
            return (x, y)
    raise ValueError("could not sample a non-activity waypoint")


def _sample_activity(rng, partition: RegionPartition):
    mic = partition.mic
    radius = max(mic.radius - _REGION_MARGIN, 0.25 * mic.radius)
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (mic.center.x + r * math.cos(theta), mic.center.y + r * math.sin(theta))


def _segment_avoids_mic(a, b, partition: RegionPartition) -> bool:
    cx, cy = partition.mic.center.x, partition.mic.center.y
    ax, ay = a
    bx, by = b
    vx, vy = bx - ax, by - ay
    seg_len_sq = vx * vx + vy * vy
    if seg_len_sq == 0.0:
        t = 0.0
    else:
        t = max(0.0, min(1.0, ((cx - ax) * vx + (cy - ay) * vy) / seg_len_sq))
    dist = math.hypot(ax + t * vx - cx, ay + t * vy - cy)
    return dist > partition.mic.radius + 0.02


def _walk(points: Sequence[tuple[float, float]], speed: float, dt: float):
    """Positions sampled every dt while moving along the polyline of two or
    more points at ``speed``, ending at its last point."""
    out, a, remaining = [], points[0], speed * dt
    for b in points[1:]:
        while (seg_len := math.hypot(b[0] - a[0], b[1] - a[1])) > remaining:
            f = remaining / seg_len
            a = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
            out.append(a)
            remaining = speed * dt
        remaining -= seg_len
        a = b
    return out + [a]


def generate_trajectory(partition: RegionPartition, seed: int,
                        dt: float = ControllerConfig.step_period_s,
                        speed: float = ControllerConfig.user_speed_m_per_s,
                        dwell_time: float = ControllerConfig.dwell_time_s) -> list[TrajectoryPoint]:
    """Three-phase user trajectory: random-waypoint walk through the
    non-activity ring, a stationary dwell at a random activity-area point,
    then a walk back out.  Deterministic for a given seed.

    Returns (time, position) pairs; position None means no user present.
    Raises ValueError when the ring is too narrow to hold a waypoint.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"speed must be finite and positive, got {speed}")
    if not (math.isfinite(dwell_time) and dwell_time >= 0):
        raise ValueError(f"dwell_time must be finite and nonnegative, got {dwell_time}")
    mec, mic = partition.mec.radius, partition.mic.radius
    if mec - _REGION_MARGIN <= mic + _REGION_MARGIN:
        raise ValueError(f"no trajectory fits the ring: MEC radius {mec:.3f} m minus MIC radius "
                         f"{mic:.3f} m is not over twice the {_REGION_MARGIN} m waypoint margin")
    rng = np.random.default_rng(seed)

    def ring_waypoints(start, count):
        pts = [start]
        while len(pts) < count + 1:
            cand = _sample_non_activity(rng, partition)
            if _segment_avoids_mic(pts[-1], cand, partition):
                pts.append(cand)
        return pts

    entry = _sample_non_activity(rng, partition)
    phase1 = ring_waypoints(entry, _WAYPOINTS_IN - 1)
    target = _sample_activity(rng, partition)
    dwell_samples = int(round(dwell_time / dt))

    positions: list[Optional[tuple[float, float]]] = [None] * _ABSENT_STEPS
    positions.append(entry)
    positions.extend(_walk(phase1 + [target], speed, dt))
    positions.extend([target] * dwell_samples)
    exit_wps = ring_waypoints(_sample_non_activity(rng, partition), _WAYPOINTS_OUT - 1)
    positions.extend(_walk([target] + exit_wps, speed, dt))
    positions.extend([None] * _ABSENT_STEPS)
    return [(i * dt, pos) for i, pos in enumerate(positions)]


# ---------------------------------------------------------------------------
# Scenario replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioStep:
    t: float
    true_pos: Optional[tuple[float, float]]
    estimate: Optional[tuple[float, float]]
    mode: str
    powers: tuple[float, ...]
    energy_j: float
    error_m: Optional[float]

    @property
    def detected(self) -> bool:
        return self.estimate is not None


@dataclass(frozen=True)
class ScenarioTrace:
    steps: tuple[ScenarioStep, ...]

    def errors(self) -> np.ndarray:
        return np.array([s.error_m for s in self.steps if s.error_m is not None])


class _ModeStep(NamedTuple):
    """What a replay step reads and records while one mode is applied."""

    powers: np.ndarray           # the plan's read-only allocation
    prediction: Prediction       # what localize matches readings against
    baseline: np.ndarray         # the no-user reading (N,) at those powers
    sigma: np.ndarray            # per-PD noise sigma (N,)
    eps: float                   # detection threshold
    recorded: tuple[float, ...]  # ScenarioStep.powers
    energy_j: float              # ScenarioStep.energy_j


def run_scenario(scene: Scene, partition: RegionPartition, table: FingerprintTable,
                 trajectory: Sequence[TrajectoryPoint], noise_seed: int = 0,
                 model: Optional[SensingModel] = None) -> ScenarioTrace:
    """Replay a trajectory through the adaptive loop.

    Each step synthesizes sensing-PD measurements at the powers applied in
    the previous step (measurement precedes actuation), localizes them
    against the prediction at those powers and selects a mode: NO_USER
    when nobody is matched, else the plan's mode at the matched candidate.
    Powers, predictions and modes come from room_plan(scene, partition,
    table), taken before the first step, so no step solves or predicts,
    and a run on the last run's room forms none of them again.  Gaussian
    measurement noise has per-PD sigma ``noise_rel_sigma`` (from the
    scene's controller config) times the no-user baseline reading; the
    detection threshold is three times the largest sigma, and never below
    NOISELESS_DETECT_EPS.  So a room whose NO_USER powers are all 0 reads 0
    with or without a user and cannot sense one entering.

    What a mode fixes (its powers, checked once by received_power, its
    prediction, no-user reading, sigma, threshold, and the step record's
    powers and energy) is formed before the first step.  A step forms a
    reading with a user from the mode's no-user one only when its (position,
    mode) changes, checks |measured - baseline| is finite (else ValueError)
    and matches it as localize does.  Positions are recorded as (float, float).
    """
    if model is None:
        model = SensingModel(scene)
    plan = room_plan(scene, partition, table)
    rng = np.random.default_rng(noise_seed)
    dt = scene.controller.step_period_s

    def constants(mode: Mode) -> _ModeStep:
        powers, _ = plan.allocations[mode]
        baseline = model.received_power(powers)
        sigma = scene.controller.noise_rel_sigma * baseline
        return _ModeStep(powers, plan.predictions[mode], baseline, sigma,
                         max(3.0 * float(sigma.max()), NOISELESS_DETECT_EPS),
                         tuple(float(p) for p in powers), dt * float(np.sum(powers)))

    per_mode = {mode: constants(mode) for mode in Mode}
    mode = Mode.NO_USER
    kept = (None, None)  # the last with-user reading's (position, mode), and the reading
    steps = []
    for t, pos in trajectory:
        applied, prediction, baseline_reading, sigma, eps, _, _ = per_mode[mode]
        if pos is None:
            xy, reading = None, baseline_reading
        else:
            xy = (float(pos[0]), float(pos[1]))
            if kept[0] != (xy, mode):
                kept = ((xy, mode), model._with_user(applied, baseline_reading, *xy))
            reading = kept[1]
        actual = np.abs(reading + rng.standard_normal(len(reading)) * sigma - baseline_reading)
        if not np.isfinite(actual).all():
            raise ValueError(f"the reading at t = {t} holds a non-finite value")
        loc = _located(actual, prediction, table, eps)
        mode = Mode.NO_USER if loc.index is None else plan.modes[loc.index]
        record = per_mode[mode]
        error = None if xy is None or loc.position is None else math.dist(loc.position, xy)
        steps.append(ScenarioStep(t=t, true_pos=xy, estimate=loc.position, mode=mode.value,
                                  powers=record.recorded, energy_j=record.energy_j,
                                  error_m=error))
    return ScenarioTrace(steps=tuple(steps))


def baseline_scenario(scene: Scene, trajectory: Sequence[TrajectoryPoint]) -> ScenarioTrace:
    """Non-adaptive comparison run: every LED at ``baseline_power_w`` at every step."""
    power_per_led = scene.controller.baseline_power_w
    dt = scene.controller.step_period_s
    powers = tuple([float(power_per_led)] * scene.num_leds)
    energy = dt * power_per_led * scene.num_leds
    steps = tuple(
        ScenarioStep(t=t, true_pos=pos, estimate=None, mode="baseline", powers=powers,
                     energy_j=energy, error_m=None)
        for t, pos in trajectory
    )
    return ScenarioTrace(steps=steps)


def energy_report(trace: ScenarioTrace, baseline: ScenarioTrace) -> float:
    """Fractional energy savings of the adaptive run versus the baseline."""
    if len(trace.steps) != len(baseline.steps):
        raise ValueError(f"step count mismatch: {len(trace.steps)} vs {len(baseline.steps)}")
    energy_j = sum(s.energy_j for s in trace.steps)
    if (base_energy_j := sum(s.energy_j for s in baseline.steps)) <= 0:
        raise ValueError("baseline trace has no energy")
    return 1.0 - energy_j / base_energy_j


# ---------------------------------------------------------------------------
# Coverage benchmarks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkThresholds:
    """Plane-average / deviation thresholds with per-region coverage.

    dev = avg - (avg - min)/2, the midpoint between the plane average and
    the plane minimum.  Fractions use strict comparisons.
    """

    average: float
    deviation: float
    minimum: float
    frac_above_avg: dict[str, float]
    frac_below_dev: dict[str, float]


def benchmark(field: FieldGrid) -> BenchmarkThresholds:
    """Grade a sampled field against its reference-plane thresholds."""
    values = field.values
    if len(values) == 0:
        raise ValueError("empty field")
    vmin = float(values.min())
    # clamp: summation roundoff may push the mean a ulp outside [min, max]
    avg = min(max(float(values.mean()), vmin), float(values.max()))
    dev = avg - (avg - vmin) / 2.0
    masks = {
        "reference": np.ones(len(values), dtype=bool),
        "mec": field.regions != Region.OUTSIDE.value,
        "mic": field.regions == Region.ACTIVITY.value,
    }
    frac_above = {}
    frac_below = {}
    for name, mask in masks.items():
        sel = values[mask]
        if len(sel) == 0:
            frac_above[name] = float("nan")
            frac_below[name] = float("nan")
        else:
            frac_above[name] = float(np.mean(sel > avg))
            frac_below[name] = float(np.mean(sel < dev))
    return BenchmarkThresholds(average=avg, deviation=dev, minimum=vmin,
                               frac_above_avg=frac_above, frac_below_dev=frac_below)
