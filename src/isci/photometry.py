"""Line-of-sight channel gains, illuminance and SNR fields.

Illumination, communication and NLOS sensing share one physical model
(Kahn & Barry, Proc. IEEE 1997): a Lambertian LED lighting a horizontal
point.  LEDs point straight down and plane photodiodes straight up, so the
irradiance and incidence cosines both equal dz/d; _lambertian_geometry
computes d^2 and dz/d for every source-point pair, and this module and the
one-bounce kernel in ``sensing`` both build on it.  Two SNR models are
provided, both vectorized over receiving-plane points: the full shot +
thermal model for reporting, and the high-SNR simplification (shot noise
only, first-order Lambertian, 90 deg FOV) whose closed form is linear in
the power vector and is what the optimizers consume.  LED powers are an
argument: snr_full and field take them (field defaults to the scene's
``power_w``), and field multiplies the full grid's coefficients by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import RegionPartition, classify_points
from .scene import CommPd, Led, NoiseParams, Room, Scene, SensingPd, SurfaceGrid

__all__ = [
    "SimplificationError",
    "lambertian_order",
    "snr_full",
    "snr_constant",
    "illuminance_coefficients",
    "snr_coefficients",
    "plane_grid",
    "FieldGrid",
    "field",
]


class SimplificationError(ValueError):
    """The scene does not satisfy the high-SNR model preconditions."""


def lambertian_order(half_power_angle_deg: float) -> float:
    """Lambertian mode number m = -ln 2 / ln cos(half-power angle)."""
    if not 0.0 < half_power_angle_deg < 90.0:
        raise ValueError(f"half-power angle must be in (0, 90) deg, got {half_power_angle_deg}")
    return -math.log(2.0) / math.log(math.cos(math.radians(half_power_angle_deg)))


def _lambertian_orders(leds: Sequence[Led]) -> np.ndarray:
    """Lambertian mode numbers of the LEDs, (M,)."""
    return np.array([lambertian_order(led.half_power_angle_deg) for led in leds])


def _collector_terms(pds: Sequence[CommPd | SensingPd]) -> tuple[np.ndarray, np.ndarray]:
    """Per PD, the cut-off cos(FOV) - 1e-15 on cos(psi) and the gain
    A * T * n^2 / sin^2(FOV) inside the FOV, both (N,)."""
    cos_fov = np.array([math.cos(math.radians(pd.fov_deg)) - 1e-15 for pd in pds])
    gain = np.array([pd.area_m2 * pd.filter_gain
                     * (pd.refractive_index**2 / math.sin(math.radians(pd.fov_deg)) ** 2)
                     for pd in pds])
    return cos_fov, gain


def _checked_powers(powers, n_leds: int, owner: str) -> np.ndarray:
    """``powers`` as a contiguous float vector, or ValueError if it is not a
    finite vector of ``n_leds`` powers, the count that ``owner`` has."""
    powers = np.asarray(powers, dtype=float)
    if powers.ndim != 1:
        raise ValueError(f"powers must be a 1-D vector, got shape {powers.shape}")
    if len(powers) != n_leds:
        raise ValueError(f"{len(powers)} powers but the {owner} has {n_leds} LEDs")
    bad = np.flatnonzero(~np.isfinite(powers))
    if len(bad):
        raise ValueError(f"non-finite powers {powers[bad].tolist()} at LEDs {bad.tolist()}")
    return np.ascontiguousarray(powers)


def _lambertian_geometry(sources: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray,
                         z: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances d^2 and cosines dz/d from downward sources to points
    on the upward plane at height ``z``; dz/d is the cosine of the angle at
    both ends of the path.

    ``sources`` is the sources' x, y and z coordinates, three arrays that
    broadcast with the points' ``x`` and ``y``; the results take the
    broadcast shape.  A point list is x (P,) and y (P,); a grid is its row
    coordinates x (nx, 1) and column coordinates y (1, ny), so each square
    of d^2 = (dx^2 + dy^2) + dz^2 is formed once per source and row or
    column, and only their sum and what follows touch every point."""
    sx, sy, sz = sources
    dx, dy, dz = sx - x, sy - y, sz - z
    d2 = dx * dx + dy * dy
    d2 += dz * dz
    cos_ang = np.sqrt(d2)
    return d2, np.divide(dz, cos_ang, out=cos_ang)


def _plane_geometry(leds: Sequence[Led], points: np.ndarray,
                    plane_z: float) -> tuple[np.ndarray, np.ndarray]:
    """_lambertian_geometry from the LEDs to receiving-plane points, (L, M);
    the plane must lie below every LED."""
    led_pos = np.array([led.position for led in leds], dtype=float)
    if np.any(led_pos[:, 2] <= plane_z):
        raise ValueError("receiving plane must lie below the LEDs")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return _lambertian_geometry(led_pos.T, pts[:, :1], pts[:, 1:], plane_z)


def _check_simplification(leds: Sequence[Led], pd: CommPd) -> None:
    for i, m in enumerate(_lambertian_orders(leds)):
        if abs(m - 1.0) > 1e-9:
            raise SimplificationError(
                f"leds[{i}]: Lambertian order {m:.6g} != 1 "
                "(high-SNR model needs a 60 deg half-power angle)")
    if abs(pd.fov_deg - 90.0) > 1e-9:
        raise SimplificationError(
            f"comm PD FOV {pd.fov_deg} deg != 90 (high-SNR model requirement)")
    heights = [led.position[2] for led in leds]
    if max(heights) - min(heights) > 1e-9:
        raise SimplificationError("all LEDs must sit at the same ceiling height")


def snr_constant(drop: float, pd: CommPd, noise: NoiseParams) -> float:
    """Coefficient C = R*A_c*T*h^2*n^2 / (2*q*pi*B) of the simplified SNR,
    where h is the vertical LED-to-plane distance and T the filter gain."""
    return (pd.responsivity_a_per_w * pd.area_m2 * pd.filter_gain * drop**2
            * pd.refractive_index**2
            / (2.0 * noise.electron_charge_c * math.pi * noise.bandwidth_hz))


# ---------------------------------------------------------------------------
# Vectorized per-watt coefficient matrices (points on the receiving plane)
# ---------------------------------------------------------------------------

def illuminance_coefficients(leds: Sequence[Led], points: np.ndarray,
                             plane_z: float) -> np.ndarray:
    """Matrix E (L, M): illuminance at sample l is (E @ p)_l for powers p.

    LED i contributes I0 * cos^m(phi) * cos(psi) / d^2 per watt, with center
    intensity I0 = (m+1) * efficacy / (2 pi).
    """
    d2, cos_ang = _plane_geometry(leds, points, plane_z)
    m = _lambertian_orders(leds)
    eff = np.array([led.efficacy_lm_per_w for led in leds])
    return (m + 1.0) / (2.0 * math.pi) * eff * cos_ang ** (m + 1.0) / d2


def snr_coefficients(leds: Sequence[Led], points: np.ndarray, plane_z: float,
                     pd: CommPd, noise: NoiseParams) -> np.ndarray:
    """Matrix A (L, M) of the simplified SNR: SNR at sample l is (A @ p)_l.

    Entries are C / d_{i,l}^4 with C the coefficient from snr_constant.
    Requires Lambertian order 1, a 90 deg FOV and a common LED height;
    raises SimplificationError otherwise.
    """
    _check_simplification(leds, pd)
    d2, _ = _plane_geometry(leds, points, plane_z)
    dz = leds[0].position[2] - plane_z
    return snr_constant(dz, pd, noise) / (d2 * d2)


def _los_gains(leds: Sequence[Led], points: np.ndarray, plane_z: float,
               pd: CommPd) -> np.ndarray:
    """DC channel gains (L, M) from the LEDs to an upward PD at plane points:
    (m+1) * A * T * g * cos^m(phi) * cos(psi) / (2 pi d^2) inside the FOV."""
    d2, cos_ang = _plane_geometry(leds, points, plane_z)
    m = _lambertian_orders(leds)
    (cos_fov,), (gain,) = _collector_terms([pd])
    return np.where(cos_ang >= cos_fov,
                    (m + 1.0) * gain * cos_ang**m * cos_ang / (2.0 * math.pi * d2), 0.0)


def snr_full(leds: Sequence[Led], points: np.ndarray, plane_z: float, pd: CommPd,
             noise: NoiseParams, powers: Sequence[float]) -> np.ndarray:
    """Electrical SNR (L,) with the full shot + thermal noise model at
    receiving-plane points, the LEDs emitting ``powers`` (M,) watts; powers
    that are not M finite values raise ValueError."""
    p_r = _los_gains(leds, points, plane_z, pd) @ _checked_powers(powers, len(leds), "LED list")
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


def plane_grid(room: Room, pitch: float) -> np.ndarray:
    """Cell-centered sample grid of round(side / pitch) cells an axis, centered
    on the room footprint so that it mirrors with the room, shape (L, 2),
    ordered by ascending x then y.  ValueError unless 0 < pitch <= the room's shorter side."""
    side = min(room.size_x, room.size_y)
    if not 0 < pitch <= side:
        raise ValueError(f"pitch {pitch} m must be positive and no wider than the room's "
                         f"shorter side, {side} m")
    nx, ny = round(room.size_x / pitch), round(room.size_y / pitch)
    shift = ((room.size_x - nx * pitch) / 2, (room.size_y - ny * pitch) / 2)
    return SurfaceGrid(pitch, nx, ny, ()).centers() + shift


@dataclass(frozen=True)
class FieldGrid:
    """Sampled scalar field on the receiving plane with region labels."""

    points: np.ndarray    # (L, 2)
    values: np.ndarray    # (L,)
    regions: np.ndarray   # (L,) int8 Region codes
    quantity: str


_FIELD_QUANTITIES = ("snr", "snr_full", "illuminance")


def field(scene: Scene, partition: RegionPartition, quantity: str = "snr",
          powers: Sequence[float] | None = None) -> FieldGrid:
    """Evaluate an SNR or illuminance field over the receiving plane at the
    scene's ``field_pitch_m``, the LEDs emitting ``powers`` (M,) watts, by
    default the scene's ``power_w``.

    ``snr`` uses the simplified high-SNR model (the one the optimizers see);
    ``snr_full`` the shot+thermal model.  Sample ordering is deterministic
    (ascending x, then y).  Powers that are not M finite values raise
    ValueError.
    """
    if quantity not in _FIELD_QUANTITIES:
        raise ValueError(f"quantity must be one of {_FIELD_QUANTITIES}, got {quantity!r}")
    powers = _checked_powers(scene.power_vector() if powers is None else powers,
                             scene.num_leds, "scene")
    pts = plane_grid(scene.room, scene.controller.field_pitch_m)
    regions = classify_points(pts, partition)
    plane_z = scene.room.plane_z
    if quantity == "illuminance":
        values = illuminance_coefficients(scene.leds, pts, plane_z) @ powers
    elif quantity == "snr":
        values = snr_coefficients(scene.leds, pts, plane_z, scene.comm_pd, scene.noise) @ powers
    else:
        values = snr_full(scene.leds, pts, plane_z, scene.comm_pd, scene.noise, powers)
    return FieldGrid(points=pts, values=values, regions=regions, quantity=quantity)
