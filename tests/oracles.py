"""Independent references that tests compare the package against.

Most functions are scalar, one-point-at-a-time references for the
vectorized channel code: each evaluates one LED-point pair (or one point's
sum over LEDs) with ``math`` on Python floats, written out term by term from
the Lambertian model (Kahn & Barry, Proc. IEEE 1997), independently of the
array code in ``isci.photometry`` and ``isci.sensing``.
``bounce_terms`` forms the one-bounce kernel's LED-side and PD-side terms
with one geometry call per end of the path.
``outer`` forms one-bounce gains (M, P, N) from their emitter and collector
factors.  ``gains_at`` is the gain-domain oracle of a sensing model's
readings: the (M, N) gains with a user, the occluded cells' gains formed as
a full (M, P, N) tensor and summed over its cells, the user patch's
(``user_gain``) from the bounce kernel's 1 x 1 grid.
``occluded_sum_received_power`` is the powers times those gains, and
``dense_deltas`` a fingerprint table's (K, M, N) deltas from full gain
tensors, the floor's summed over shifted views of the grid.
``dense_predict`` forms a table's signed (K, N) prediction over the whole
grid at once, for the package's band-by-band formation to match, and
``prediction_values`` reads a ``Prediction``'s tile slabs back into (K, N).
``full_scan`` computes every candidate's fingerprint loss.
``reference_replay`` is ``controller.run_scenario``'s loop written out
plainly, with each step's reading, region and energy formed afresh.
``highs_lp`` and
``mic_radius_highs`` solve linear programs with scipy's HiGHS (Huangfu &
Hall, 2018) in place of the package's interior-point solver.
``mic_radius_exact`` finds the inscribed circle in 60-digit decimal
arithmetic, where HiGHS's tolerances swamp a sliver's inradius.

The benchmark's rooms are defined once, in ``bench/common.py``:
``lattice_scene`` builds a lattice room from its ``lattice_config``,
``LOOP_LARGE`` and ``LADDER`` are its rooms' arguments, and ``loop_seeds``
gives the loop-large workload's trajectory and noise seeds.
"""

from __future__ import annotations

import decimal
import importlib.util
import itertools
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from isci.controller import Mode, ScenarioStep, ScenarioTrace, room_plan
from isci.geometry import Region, classify_points
from isci.photometry import (SimplificationError, _check_simplification, _collector_terms,
                             _lambertian_geometry, _lambertian_orders, lambertian_order)
from isci.scene import CommPd, Led, NoiseParams, SensingPd, UserModel, scene_from_dict
from isci.sensing import (NOISELESS_DETECT_EPS, FingerprintTable, SensingModel, localize,
                          occluded_set)


def concentrator_gain(psi_deg: float, refractive_index: float, fov_deg: float) -> float:
    """Optical concentrator gain: n^2 / sin^2(FOV) inside the FOV, else 0."""
    if refractive_index < 1.0:
        raise ValueError("refractive index must be >= 1")
    if 0.0 <= psi_deg <= fov_deg:
        return refractive_index**2 / math.sin(math.radians(fov_deg)) ** 2
    return 0.0


def _check_below(led_z: float, point_z: float) -> float:
    dz = led_z - point_z
    if dz <= 0:
        raise ValueError(f"point at z={point_z} is not strictly below the LED plane z={led_z}")
    return dz


def los_gain(led: Led, point: Sequence[float], pd: CommPd) -> float:
    """DC channel gain from one LED to a photodiode at ``point`` (facing up)."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    dz = _check_below(led.position[2], z)
    d2 = (led.position[0] - x) ** 2 + (led.position[1] - y) ** 2 + dz * dz
    d = math.sqrt(d2)
    cos_psi = dz / d  # equals cos(irradiance angle) for vertical normals
    if cos_psi < math.cos(math.radians(pd.fov_deg)) - 1e-15:
        return 0.0
    m = lambertian_order(led.half_power_angle_deg)
    g = pd.refractive_index**2 / math.sin(math.radians(pd.fov_deg)) ** 2
    return ((m + 1.0) * pd.area_m2 * pd.filter_gain * g
            * cos_psi**m * cos_psi / (2.0 * math.pi * d2))


def illuminance_at(leds: Sequence[Led], point: Sequence[float]) -> float:
    """Horizontal illuminance (lux) at ``point`` from all LEDs.

    Each LED contributes I0 * cos^m(phi) * cos(psi) / d^2 with center
    intensity I0 = (m+1) * efficacy * power / (2 pi).
    """
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    total = 0.0
    for led in leds:
        dz = _check_below(led.position[2], z)
        d2 = (led.position[0] - x) ** 2 + (led.position[1] - y) ** 2 + dz * dz
        m = lambertian_order(led.half_power_angle_deg)
        i0 = (m + 1.0) / (2.0 * math.pi) * led.efficacy_lm_per_w * led.power_w
        cos_ang = dz / math.sqrt(d2)
        total += i0 * cos_ang**m * cos_ang / d2
    return total


def _received_power(leds: Sequence[Led], point, pd: CommPd) -> float:
    return sum(los_gain(led, point, pd) * led.power_w for led in leds)


def snr_full_at(leds: Sequence[Led], point: Sequence[float], pd: CommPd,
                noise: NoiseParams) -> float:
    """Electrical SNR at one point with the full shot + thermal noise model."""
    p_r = _received_power(leds, point, pd)
    q = noise.electron_charge_c
    bw = noise.bandwidth_hz
    shot = (2.0 * q * pd.responsivity_a_per_w * p_r * bw
            + 2.0 * q * noise.background_current_a * noise.noise_factor_i2 * bw)
    kt = noise.boltzmann_j_per_k * noise.temperature_k
    cap_area = noise.capacitance_f_per_m2 * pd.area_m2
    thermal = (8.0 * math.pi * kt / noise.open_loop_gain
               * cap_area * noise.noise_factor_i2 * bw**2
               + 16.0 * math.pi**2 * kt * noise.fet_noise_factor
               / noise.fet_transconductance_s
               * cap_area**2 * noise.noise_factor_i3 * bw**3)
    return (pd.responsivity_a_per_w * p_r) ** 2 / (shot + thermal)


def snr_simplified(leds: Sequence[Led], point: Sequence[float], pd: CommPd,
                   noise: NoiseParams) -> float:
    """High-SNR shot-noise-limited SNR: C * sum_i P_i / d_i^4, with
    C = R * A * T * h^2 * n^2 / (2 q pi B) written out here.

    Requires Lambertian order 1 and a 90 deg FOV; raises SimplificationError
    otherwise.
    """
    _check_simplification(leds, pd)
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    dz = _check_below(leds[0].position[2], z)
    c = (pd.responsivity_a_per_w * pd.area_m2 * pd.filter_gain * dz * dz
         * pd.refractive_index**2 / (2.0 * noise.electron_charge_c * math.pi
                                     * noise.bandwidth_hz))
    total = 0.0
    for led in leds:
        if abs(led.position[2] - leds[0].position[2]) > 1e-9:
            raise SimplificationError("all LEDs must sit at the same ceiling height")
        d2 = (led.position[0] - x) ** 2 + (led.position[1] - y) ** 2 + dz * dz
        total += led.power_w / d2**2
    return c * total


def nlos_element_gain(led: Led, element_xy: Sequence[float], element_area: float,
                      reflectance: float, pd: SensingPd) -> float:
    """One-bounce gain LED -> floor element -> sensing PD."""
    ex, ey = float(element_xy[0]), float(element_xy[1])
    return _one_bounce_gain(led, (ex, ey, 0.0), element_area, reflectance, pd)


def nlos_user_gain(led: Led, user_xy: Sequence[float], user: UserModel,
                   pd: SensingPd) -> float:
    """One-bounce gain LED -> user body patch -> sensing PD."""
    ux, uy = float(user_xy[0]), float(user_xy[1])
    return _one_bounce_gain(led, (ux, uy, user.patch_height_m), user.patch_area_m2,
                            user.reflectance, pd)


def _one_bounce_gain(led: Led, patch: tuple[float, float, float], area: float,
                     reflectance: float, pd: SensingPd) -> float:
    px, py, pz = patch
    dz1 = led.position[2] - pz
    dz2 = pd.position[2] - pz
    if dz1 <= 0 or dz2 <= 0:
        raise ValueError("reflecting patch must lie below the ceiling")
    d1sq = (led.position[0] - px) ** 2 + (led.position[1] - py) ** 2 + dz1 * dz1
    d2sq = (pd.position[0] - px) ** 2 + (pd.position[1] - py) ** 2 + dz2 * dz2
    cos_emit = dz1 / math.sqrt(d1sq)       # irradiance angle at the LED
    cos_in = cos_emit                      # incidence on the horizontal patch
    cos_out = dz2 / math.sqrt(d2sq)        # emission from the patch
    cos_pd = cos_out                       # incidence at the ceiling PD
    psi_deg = math.degrees(math.acos(min(1.0, cos_pd)))
    if psi_deg > pd.fov_deg + 1e-12:
        return 0.0
    g = concentrator_gain(psi_deg, pd.refractive_index, pd.fov_deg)
    m = lambertian_order(led.half_power_angle_deg)
    return (reflectance * (m + 1.0) * pd.area_m2 * area
            * cos_emit**m * cos_pd * cos_in * cos_out * pd.filter_gain * g
            / (2.0 * math.pi**2 * d1sq * d2sq))


def bounce_terms(leds: Sequence[Led], pds: Sequence[SensingPd], points: np.ndarray,
                 z: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-bounce kernel's terms through horizontal patches at ``points``
    (P, 2), height ``z``: cos^m(phi) * cos(alpha) / d^2 per LED-patch pair,
    (M, P), and A_s * T_s * g(psi) * cos(beta) * cos(psi) / d^2 inside each
    PD's FOV per patch-PD pair, (P, N).  Each comes from its own
    _lambertian_geometry call on the point list, over the LED or the PD
    positions alone, with the same float operations in the same order as
    the kernel, so the two must agree bit for bit whatever layout the
    kernel forms them in."""
    led_pos = np.array([led.position for led in leds], dtype=float).T[..., None]
    pd_pos = np.array([pd.position for pd in pds], dtype=float).T[..., None]
    d2, cos_ang = _lambertian_geometry(led_pos, points[:, 0], points[:, 1], z)
    emitter = cos_ang ** (_lambertian_orders(leds) + 1.0)[:, None] / d2
    cos_fov, gain = _collector_terms(pds)
    d2, cos_ang = _lambertian_geometry(pd_pos, points[:, 0], points[:, 1], z)
    collector = np.where(cos_ang >= cos_fov[:, None], gain[:, None] * cos_ang ** 2 / d2, 0.0)
    return emitter, np.ascontiguousarray(collector.T)


def outer(emitter: np.ndarray, collector: np.ndarray) -> np.ndarray:
    """Gains (M, P, N) from the factors (M, P) and (P, N) of P patches."""
    return emitter[:, :, None] * collector[None, :, :]


def user_gain(model: SensingModel, user_xy: Sequence[float]) -> np.ndarray:
    """Gains (M, N) through the user patch at ``user_xy``: the outer product
    of the model's bounce-kernel factors on a 1 x 1 grid there."""
    x, y = np.array([[float(user_xy[0])]]), np.array([[float(user_xy[1])]])
    emitter, collector = model._kernel.factors(x, y, *model._patch)
    return emitter * collector  # (M, 1) by (1, N)


def gains_at(model: SensingModel, user_xy: Sequence[float]) -> np.ndarray:
    """Gain matrix (M, N) LED -> PD with a user at ``user_xy``: the model's
    baseline gains minus the occluded cells' gains, each cell's (M, N) gain
    formed by ``outer`` and the cells summed in index order along the
    tensor's middle axis, plus ``user_gain``.  A user outside the room
    occludes no cell and subtracts zeros."""
    occ = occluded_set(model.scene, user_xy)
    occluded = outer(model.emitter[:, occ], model.collector[occ]).sum(axis=1)
    return model.baseline_gains - occluded + user_gain(model, user_xy)


def occluded_sum_received_power(model: SensingModel, powers, user_xy) -> np.ndarray:
    """Per-PD received power (N,) with a user at ``user_xy`` in the gain
    domain: ``powers @ gains_at(model, user_xy)``."""
    return np.asarray(powers, dtype=float) @ gains_at(model, user_xy)


def dense_deltas(table: FingerprintTable) -> np.ndarray:
    """The (K, M, N) gain deltas of ``table`` from full gain tensors: the
    user patch's gains at every candidate minus, for each candidate k, the
    floor gains of the cells k + offset on the grid, added in the table's
    offset order as whole shifted views of the (M, nx, ny, N) floor gains."""
    nx, ny = table.grid_shape
    floor = outer(table.floor_emitter, table.floor_collector)
    m, _, n = floor.shape
    src = floor.reshape(m, nx, ny, n)
    occluded = np.zeros_like(src)
    for di, dj in table.offsets:
        occluded[:, max(0, -di):nx - max(0, di), max(0, -dj):ny - max(0, dj)] += (
            src[:, max(0, di):nx + min(0, di), max(0, dj):ny + min(0, dj)])
    deltas = outer(table.user_emitter, table.user_collector) - occluded.reshape(m, nx * ny, n)
    return np.ascontiguousarray(deltas.transpose(1, 0, 2))


def dense_predict(table: FingerprintTable, powers) -> np.ndarray:
    """The signed (K, N) prediction of ``table`` at ``powers``, formed over
    the whole grid: the user term minus, for each candidate k, the floor term
    of the cells k + offset on the grid, added from zeros in the table's
    offset order as whole shifted views of the (nx, ny, N) floor term."""
    powers = np.asarray(powers, dtype=float)
    nx, ny = table.grid_shape
    user = (powers @ table.user_emitter)[:, None] * table.user_collector
    floor = (powers @ table.floor_emitter)[:, None] * table.floor_collector
    n = floor.shape[1]
    src = floor.reshape(nx, ny, n)
    occluded = np.zeros_like(src)
    for di, dj in table.offsets:
        occluded[max(0, -di):nx - max(0, di), max(0, -dj):ny - max(0, dj)] += (
            src[max(0, di):nx + min(0, di), max(0, dj):ny + min(0, dj)])
    return user - occluded.reshape(nx * ny, n)


def prediction_values(prediction) -> np.ndarray:
    """The (K, N) values of a ``sensing.Prediction``, row k candidate k's
    prediction at every PD, read from its slabs through its tile indices;
    the pads are skipped, and a candidate no tile holds reads NaN."""
    values = np.full(prediction.shape, np.nan)
    real = prediction.tiles >= 0
    values[prediction.tiles[real]] = prediction.slabs.transpose(0, 2, 1)[real]
    return values


def full_scan(actual: np.ndarray, predicted: np.ndarray) -> tuple[int, float]:
    """Index and loss of the first least-loss candidate of the (K, N)
    ``predicted``, from every loss, each the squared misses of ``actual``
    added one PD at a time in PD order."""
    losses = np.zeros(len(predicted))
    for j, reading in enumerate(actual):
        losses += (reading - predicted[:, j]) ** 2
    k = int(np.argmin(losses))
    return k, losses[k]


def reference_replay(scene, partition, table, trajectory, noise_seed: int = 0,
                     model=None) -> ScenarioTrace:
    """``run_scenario``'s trace from a loop that keeps nothing between
    steps: every step reads ``model.received_power`` with and without the
    user, classifies the estimate through a one-row ``classify_points``,
    and sums its powers with ``np.sum``.  Allocations and predictions come
    from the same ``room_plan``."""
    model = SensingModel(scene) if model is None else model
    plan = room_plan(scene, partition, table)
    noise_rel = scene.controller.noise_rel_sigma
    rng = np.random.default_rng(noise_seed)
    dt = scene.controller.step_period_s
    modes = {Region.ACTIVITY: Mode.ENHANCED, Region.NON_ACTIVITY: Mode.UNIFORMITY,
             Region.OUTSIDE: Mode.NO_USER}
    mode = Mode.NO_USER
    steps = []
    for t, pos in trajectory:
        applied, _ = plan.allocations[mode]
        baseline = model.received_power(applied)
        reading = model.received_power(applied, pos) if pos is not None else baseline
        sigma = noise_rel * baseline
        if noise_rel > 0:
            measured = reading + rng.standard_normal(len(reading)) * sigma
        else:
            measured = reading
        eps = max(3.0 * float(sigma.max()), NOISELESS_DETECT_EPS)
        loc = localize(measured, baseline, plan.predictions[mode], table, epsilon_detect=eps)
        if loc.position is None:
            mode = Mode.NO_USER
        else:
            mode = modes[Region(int(classify_points(np.array([loc.position]), partition)[0]))]
        powers, _ = plan.allocations[mode]
        true_pos = None if pos is None else (float(pos[0]), float(pos[1]))
        error = None if pos is None or loc.position is None else math.dist(loc.position, pos)
        steps.append(ScenarioStep(t=t, true_pos=true_pos, estimate=loc.position, mode=mode.value,
                                  powers=tuple(float(p) for p in powers),
                                  energy_j=dt * float(np.sum(powers)), error_m=error))
    return ScenarioTrace(steps=tuple(steps))


def highs_lp(c, g_mat, h_vec):
    """scipy's ``linprog`` result for min c'x subject to Gx <= h, x free."""
    sp_opt = pytest.importorskip("scipy.optimize")
    return sp_opt.linprog(c, A_ub=g_mat, b_ub=h_vec, bounds=(None, None), method="highs")


def mic_radius_highs(vertices) -> float:
    """Radius of the largest circle inside the CCW convex polygon ``vertices``
    (K, 2): max r subject to n_e . c - r >= n_e . v_e for each edge e from
    vertex v_e, with n_e its unit inward normal."""
    v = np.asarray(vertices, dtype=float)
    edges = np.roll(v, -1, axis=0) - v
    normals = np.column_stack([-edges[:, 1], edges[:, 0]]) / np.hypot(*edges.T)[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    result = highs_lp([0.0, 0.0, -1.0], np.column_stack([-normals, np.ones(len(v))]), -offsets)
    assert result.status == 0, result.message
    return -float(result.fun)


def _det3(rows) -> decimal.Decimal:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mic_radius_exact(vertices) -> float:
    """``mic_radius_highs`` in 60-digit decimal arithmetic, without a solver:
    the optimum binds three edges, so it is the largest least edge distance
    over the centers of the circles tangent to each triple of edge lines
    (each found by Cramer's rule)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        v = [(decimal.Decimal(x), decimal.Decimal(y)) for x, y in np.asarray(vertices).tolist()]
        lines = []
        for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
            length = ((x1 - x0) ** 2 + (y1 - y0) ** 2).sqrt()
            nx, ny = (y0 - y1) / length, (x1 - x0) / length
            lines.append((nx, ny, nx * x0 + ny * y0))
        best = None
        for triple in itertools.combinations(lines, 3):
            det = _det3([(nx, ny, -1) for nx, ny, _ in triple])
            if det == 0:
                continue
            cx = _det3([(d, ny, -1) for _, ny, d in triple]) / det
            cy = _det3([(nx, d, -1) for nx, _, d in triple]) / det
            score = min(nx * cx + ny * cy - d for nx, ny, d in lines)
            best = score if best is None else max(best, score)
        return float(best)


def _load_bench_common():
    """bench/common.py, loaded by its path under a name of its own: bench/
    stays off sys.path, where its bare module names would shadow others, and
    no bytecode is written there."""
    path = Path(__file__).resolve().parent.parent / "bench" / "common.py"
    spec = importlib.util.spec_from_file_location("bench_common", path)
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


_BENCH = _load_bench_common()
LOOP_LARGE = _BENCH.LOOP_LARGE
LADDER = _BENCH.LADDER
loop_seeds = _BENCH.loop_seeds


def lattice_scene(size: float, per_side: int, pitch: float, spacing: float):
    """The benchmark's lattice room: a size x size room on a pitch floor grid,
    a per_side x per_side LED lattice at spacing centred on the ceiling and
    one sensing PD beside each LED."""
    return scene_from_dict(_BENCH.lattice_config(size, per_side, pitch, spacing))
