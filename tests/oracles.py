"""Independent references that tests compare the package against.

Most functions are scalar, one-point-at-a-time references for the
vectorized channel code: each evaluates one LED-point pair (or one point's
sum over LEDs) with ``math`` on Python floats, written out term by term from
the Lambertian model (Kahn & Barry, Proc. IEEE 1997), independently of the
array code in ``isci.photometry`` and ``isci.sensing``.
``occluded_sum_received_power`` forms a sensing model's reading with the
occluded cells' gains as a full (M, P, N) tensor summed over its cells.
``highs_lp`` and
``mic_radius_highs`` solve linear programs with scipy's HiGHS (Huangfu &
Hall, 2018) in place of the package's interior-point solver.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest

from isci.photometry import (SimplificationError, _check_simplification, lambertian_order,
                             snr_constant)
from isci.scene import CommPd, Led, NoiseParams, SensingPd, UserModel
from isci.sensing import SensingModel, _outer, occluded_set


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
    """High-SNR shot-noise-limited SNR: C * sum_i P_i / d_i^4.

    Requires Lambertian order 1 and a 90 deg FOV; raises SimplificationError
    otherwise.
    """
    _check_simplification(leds, pd)
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    dz = _check_below(leds[0].position[2], z)
    c = snr_constant(dz, pd, noise)
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


def occluded_sum_received_power(model: SensingModel, powers, user_xy) -> np.ndarray:
    """Per-PD received power (N,) with a user at ``user_xy``: the model's
    baseline gains minus the occluded cells' gains, each cell's (M, N) gain
    formed by ``_outer`` and the cells summed in index order along the
    tensor's middle axis, plus the user-patch gain.  A user outside the room
    occludes no cell and subtracts zeros."""
    occ = occluded_set(model.scene, user_xy)
    occluded = _outer(model.emitter[:, occ], model.collector[occ]).sum(axis=1)
    return np.asarray(powers, dtype=float) @ (model.baseline_gains - occluded
                                              + model.user_gain(user_xy))


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
