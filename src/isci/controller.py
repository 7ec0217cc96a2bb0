"""Adaptive control loop: sense, localize, pick a mode, allocate LED power.

Three modes drive the allocation.  With nobody on the receiving plane every
LED idles at its minimum power (sensing keeps running); a user in the
non-activity ring triggers the SNR-uniformity QP; a user inside the
activity area triggers the power-minimizing LP.  Scenario replay couples
the loop to a synthetic random-waypoint trajectory with seeded measurement
noise, and the benchmark helpers grade SNR/illuminance coverage against
plane-average thresholds.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import optimize
from .geometry import Region, RegionPartition, classify_point
from .photometry import FieldGrid
from .scene import Scene
from .sensing import (FingerprintTable, LocalizationResult, SensingModel,
                      NOISELESS_DETECT_EPS, localize)

__all__ = [
    "Mode",
    "ScenarioStep",
    "ScenarioTrace",
    "BenchmarkThresholds",
    "select_mode",
    "apply_mode",
    "generate_trajectory",
    "run_scenario",
    "baseline_scenario",
    "savings",
    "energy_report",
    "benchmark",
]

logger = logging.getLogger(__name__)

TrajectoryPoint = tuple[float, Optional[tuple[float, float]]]


class Mode(Enum):
    NO_USER = "no_user"
    UNIFORMITY = "uniformity"
    ENHANCED = "enhanced"


def select_mode(localization: LocalizationResult, partition: RegionPartition) -> Mode:
    """Map a localization outcome to the control mode."""
    if not localization.detected or localization.position is None:
        return Mode.NO_USER
    region = classify_point(localization.position, partition)
    if region is Region.OUTSIDE:
        return Mode.NO_USER
    if region is Region.ACTIVITY:
        return Mode.ENHANCED
    return Mode.UNIFORMITY


def apply_mode(mode: Mode, scene: Scene,
               partition: RegionPartition) -> tuple[np.ndarray, Optional[optimize.SolveReport]]:
    """Power allocation for a mode.

    NO_USER needs no solve.  If a mode's program reports infeasible the
    allocation falls back to the clamped maximum power with a warning.
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


# Hashing a Scene walks its grid's reflectance tuple, one float per cell, so
# callers look up once per mode, not once per step.  Eight entries bound the
# scenes the memo keeps alive.
@functools.lru_cache(maxsize=8)
def _allocation(mode: Mode, scene: Scene, partition: RegionPartition) -> np.ndarray:
    """apply_mode's powers, read-only, kept per (mode, scene, partition)
    value across runs: a mode's program is built from the room alone, never
    from the user's position.  A memo hit logs no fallback warning."""
    powers, _ = apply_mode(mode, scene, partition)
    powers.flags.writeable = False
    return powers


# ---------------------------------------------------------------------------
# Trajectory generation (random waypoint, three phases)
# ---------------------------------------------------------------------------

_REGION_MARGIN = 0.05
_MAX_SAMPLING_TRIES = 10000
_WAYPOINTS_IN = 8    # ring waypoints walked before the dwell, entry included
_WAYPOINTS_OUT = 5   # ring waypoints walked after it
_ABSENT_STEPS = 2    # empty-room steps before entry and after exit


def _sample_non_activity(rng, partition: RegionPartition):
    mec, mic, b = partition.mec, partition.mic, partition.bounds
    lo_x = max(b.x_min + _REGION_MARGIN, mec.center.x - mec.radius)
    hi_x = min(b.x_max - _REGION_MARGIN, mec.center.x + mec.radius)
    lo_y = max(b.y_min + _REGION_MARGIN, mec.center.y - mec.radius)
    hi_y = min(b.y_max - _REGION_MARGIN, mec.center.y + mec.radius)
    for _ in range(_MAX_SAMPLING_TRIES):
        x = rng.uniform(lo_x, hi_x)
        y = rng.uniform(lo_y, hi_y)
        d_mec = math.hypot(x - mec.center.x, y - mec.center.y)
        d_mic = math.hypot(x - mic.center.x, y - mic.center.y)
        if d_mec <= mec.radius - _REGION_MARGIN and d_mic >= mic.radius + _REGION_MARGIN:
            return (x, y)
    raise RuntimeError("could not sample a non-activity waypoint")


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
    """Positions sampled every dt while moving along the polyline at ``speed``."""
    out = []
    if len(points) < 2:
        return out
    seg_start = 0
    pos = points[0]
    remaining = speed * dt
    while seg_start < len(points) - 1:
        a = pos
        b = points[seg_start + 1]
        seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
        if seg_len <= remaining:
            remaining -= seg_len
            pos = b
            seg_start += 1
            if seg_start == len(points) - 1:
                out.append(pos)
                break
            continue
        f = remaining / seg_len
        pos = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
        out.append(pos)
        remaining = speed * dt
    return out


def generate_trajectory(partition: RegionPartition, seed: int, dt: float = 0.5,
                        speed: float = 0.9, dwell_time: float = 15.0) -> list[TrajectoryPoint]:
    """Three-phase user trajectory: random-waypoint walk through the
    non-activity ring, a stationary dwell at a random activity-area point,
    then a walk back out.  Deterministic for a given seed.

    Returns (time, position) pairs; position None means no user present.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
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
    detected: bool
    mode: str
    powers: tuple[float, ...]
    energy_j: float
    error_m: Optional[float]


@dataclass(frozen=True)
class ScenarioTrace:
    steps: tuple[ScenarioStep, ...]
    dt: float

    @property
    def total_energy_j(self) -> float:
        return sum(s.energy_j for s in self.steps)

    def errors(self) -> np.ndarray:
        return np.array([s.error_m for s in self.steps if s.error_m is not None])


def run_scenario(scene: Scene, partition: RegionPartition, table: FingerprintTable,
                 trajectory: Sequence[TrajectoryPoint], noise_seed: int = 0,
                 model: Optional[SensingModel] = None) -> ScenarioTrace:
    """Replay a trajectory through the adaptive loop.

    Each step synthesizes sensing-PD measurements at the powers applied in
    the previous step (measurement precedes actuation), localizes and
    selects a mode.  A mode's allocation depends on the room alone: it is
    solved the first time a run on an equal scene and partition enters that
    mode, kept for the eight most recent (mode, scene, partition) values and
    shared read-only with later runs; a run looks each mode up only when it
    first enters it.  Gaussian measurement noise has per-PD sigma
    ``noise_rel_sigma`` (from the scene's controller config) times the
    no-user baseline reading; the detection threshold is three times the
    largest sigma.  A step that detects nobody localizes without a
    prediction or a match.  Predictions are memoized on ``table`` per
    applied power vector, so after the first detected step at each of the
    (at most three) allocations a detected step costs one bounded match
    over the memoized prediction (see sensing.localize), not a new
    prediction.
    """
    if model is None:
        model = SensingModel(scene)
    noise_rel = scene.controller.noise_rel_sigma
    rng = np.random.default_rng(noise_seed)
    dt = scene.controller.step_period_s
    p_min, _ = scene.power_bounds()
    mode_cache: dict[Mode, np.ndarray] = {Mode.NO_USER: p_min.copy()}

    applied = p_min.copy()
    steps = []
    for t, pos in trajectory:
        baseline_reading = model.received_power(applied)
        reading = model.received_power(applied, pos) if pos is not None else baseline_reading
        if noise_rel > 0:
            sigma = noise_rel * baseline_reading
            measured = reading + rng.standard_normal(len(reading)) * sigma
            eps = 3.0 * float(sigma.max())
        else:
            measured = reading
            eps = NOISELESS_DETECT_EPS
        loc = localize(measured, baseline_reading, applied, table, epsilon_detect=eps)
        mode = select_mode(loc, partition)
        if mode not in mode_cache:
            mode_cache[mode] = _allocation(mode, scene, partition)
        powers = mode_cache[mode]
        error = None
        if pos is not None and loc.detected and loc.position is not None:
            error = math.hypot(loc.position[0] - pos[0], loc.position[1] - pos[1])
        steps.append(ScenarioStep(
            t=t, true_pos=pos, estimate=loc.position if loc.detected else None,
            detected=loc.detected, mode=mode.value,
            powers=tuple(float(p) for p in powers),
            energy_j=dt * float(np.sum(powers)), error_m=error,
        ))
        applied = powers
    return ScenarioTrace(steps=tuple(steps), dt=dt)


def baseline_scenario(scene: Scene, trajectory: Sequence[TrajectoryPoint]) -> ScenarioTrace:
    """Non-adaptive comparison run: every LED at ``baseline_power_w`` at every step."""
    power_per_led = scene.controller.baseline_power_w
    dt = scene.controller.step_period_s
    powers = tuple([float(power_per_led)] * scene.num_leds)
    energy = dt * power_per_led * scene.num_leds
    steps = tuple(
        ScenarioStep(t=t, true_pos=pos, estimate=None, detected=False,
                     mode="baseline", powers=powers, energy_j=energy, error_m=None)
        for t, pos in trajectory
    )
    return ScenarioTrace(steps=steps, dt=dt)


def savings(energy_j: float, base_energy_j: float) -> float:
    """Fractional energy saved against a baseline run's total energy."""
    if base_energy_j <= 0:
        raise ValueError("baseline trace has no energy")
    return 1.0 - energy_j / base_energy_j


def energy_report(trace: ScenarioTrace, baseline: ScenarioTrace) -> float:
    """Fractional energy savings of the adaptive run versus the baseline."""
    if len(trace.steps) != len(baseline.steps):
        raise ValueError(f"step count mismatch: {len(trace.steps)} vs {len(baseline.steps)}")
    return savings(trace.total_energy_j, baseline.total_energy_j)


# ---------------------------------------------------------------------------
# Coverage benchmarks
# ---------------------------------------------------------------------------

_BENCH_REGIONS = ("reference", "mec", "mic")


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
    for name in _BENCH_REGIONS:
        sel = values[masks[name]]
        if len(sel) == 0:
            frac_above[name] = float("nan")
            frac_below[name] = float("nan")
        else:
            frac_above[name] = float(np.mean(sel > avg))
            frac_below[name] = float(np.mean(sel < dev))
    return BenchmarkThresholds(average=avg, deviation=dev, minimum=vmin,
                               frac_above_avg=frac_above, frac_below_dev=frac_below)
