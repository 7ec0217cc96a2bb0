import math
from dataclasses import replace

import numpy as np
import pytest

from isci import photometry as ph
from isci.geometry import Region, build_partition
from isci.scene import CommPd, Led, NoiseParams, default_scene
from tests import oracles


def _point_below(rng, scene):
    return (rng.uniform(0, scene.room.size_x), rng.uniform(0, scene.room.size_y),
            scene.room.plane_z)


def _powers(leds):
    return np.array([led.power_w for led in leds])


# The vector functions that the package runs, read at one point, so that a
# test can assert the same property of them and of the scalar oracle.

def _los_gain_vec(led, point, pd):
    return float(ph._los_gains([led], [point[:2]], point[2], pd)[0, 0])


def _illuminance_vec(leds, point):
    return float(ph.illuminance_coefficients(leds, [point[:2]], point[2])[0] @ _powers(leds))


def _snr_full_vec(leds, point, pd, noise):
    return float(ph.snr_full(leds, [point[:2]], point[2], pd, noise, _powers(leds))[0])


def _snr_simplified_vec(leds, point, pd, noise):
    coeffs = ph.snr_coefficients(leds, [point[:2]], point[2], pd, noise)
    return float(coeffs[0] @ _powers(leds))


LOS_GAINS = (oracles.los_gain, _los_gain_vec)
ILLUMINANCES = (oracles.illuminance_at, _illuminance_vec)
SNR_FULLS = (oracles.snr_full_at, _snr_full_vec)
SNR_SIMPLIFIEDS = (oracles.snr_simplified, _snr_simplified_vec)


# ---------------------------------------------------------------------------
# Lambertian order and concentrator gain
# ---------------------------------------------------------------------------

def test_lambertian_order_60_is_one():
    assert abs(ph.lambertian_order(60.0) - 1.0) < 1e-12


def test_lambertian_order_45_is_two():
    assert abs(ph.lambertian_order(45.0) - 2.0) < 1e-12


def test_lambertian_order_30_root_finding_oracle():
    m = ph.lambertian_order(30.0)
    # independent route: solve cos(30 deg)**m == 1/2 by bisection
    f = lambda mm: math.cos(math.radians(30.0)) ** mm - 0.5
    lo, hi = 1.0, 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(m - lo) < 1e-9


def test_lambertian_order_domain():
    for bad in (0.0, 90.0, -5.0, 120.0):
        with pytest.raises(ValueError):
            ph.lambertian_order(bad)


def test_concentrator_gain_values():
    assert abs(oracles.concentrator_gain(0.0, 1.5, 90.0) - 2.25) < 1e-12
    assert oracles.concentrator_gain(60.0 + 1e-9, 1.5, 60.0) == 0.0
    expected = 1.5**2 / math.sin(math.radians(60.0)) ** 2
    assert abs(oracles.concentrator_gain(60.0, 1.5, 60.0) - expected) < 1e-12
    # the vector collector terms: cut-off just below cos(FOV), A * T * g inside
    unit = dict(area_m2=1.0, filter_gain=1.0, refractive_index=1.5)
    cos_fov, gain = ph._collector_terms([CommPd(fov_deg=90.0, **unit),
                                         CommPd(fov_deg=60.0, **unit)])
    assert abs(gain[0] - 2.25) < 1e-12 and abs(gain[1] - expected) < 1e-12
    assert np.array_equal(cos_fov, [math.cos(math.radians(f)) - 1e-15 for f in (90.0, 60.0)])


# ---------------------------------------------------------------------------
# LOS gain
# ---------------------------------------------------------------------------

def test_los_gain_on_axis(scene):
    led = scene.leds[0]
    pd = scene.comm_pd
    d = 2.0
    pt = (led.position[0], led.position[1], led.position[2] - d)
    m = ph.lambertian_order(led.half_power_angle_deg)
    g = pd.refractive_index**2 / math.sin(math.radians(pd.fov_deg)) ** 2
    expected = (m + 1) * pd.area_m2 * pd.filter_gain * g / (2 * math.pi * d * d)
    for los_gain in LOS_GAINS:
        assert abs(los_gain(led, pt, pd) - expected) < 1e-15


def test_los_gain_closed_form_m1(scene, rng):
    # m = 1, FOV 90, T_s = 1 collapses to A_c n^2 dz^2 / (pi d^4)
    pd = scene.comm_pd
    for _ in range(100):
        led = scene.leds[rng.integers(0, scene.num_leds)]
        pt = _point_below(rng, scene)
        dz = led.position[2] - pt[2]
        d2 = (led.position[0] - pt[0])**2 + (led.position[1] - pt[1])**2 + dz * dz
        expected = pd.area_m2 * pd.refractive_index**2 * dz * dz / (math.pi * d2 * d2)
        for los_gain in LOS_GAINS:
            assert abs(los_gain(led, pt, pd) - expected) <= 1e-12 * expected


def test_los_gain_outside_fov_zero(scene):
    led = scene.leds[0]
    pd = replace(scene.comm_pd, fov_deg=30.0)
    pt = (led.position[0] + 4.0, led.position[1], led.position[2] - 1.0)  # ~76 deg off
    for los_gain in LOS_GAINS:
        assert los_gain(led, pt, pd) == 0.0


def test_los_gain_fov_cutoff_continuity():
    led = Led(position=(0.0, 0.0, 3.0))
    pd = CommPd(fov_deg=45.0)
    dz = 1.0
    inside = (dz * math.tan(math.radians(44.999999)), 0.0, 2.0)
    outside = (dz * math.tan(math.radians(45.000001)), 0.0, 2.0)
    for los_gain in LOS_GAINS:
        assert los_gain(led, outside, pd) == 0.0
        g_in = los_gain(led, inside, pd)
        g_limit = los_gain(led, (dz * math.tan(math.radians(44.9)), 0.0, 2.0), pd)
        assert g_in > 0 and abs(g_in - g_limit) / g_limit < 1e-2


def test_los_gain_monotone_on_axis(scene):
    led = scene.leds[0]
    pd = scene.comm_pd
    for los_gain in LOS_GAINS:
        gains = [los_gain(led, (led.position[0], led.position[1], led.position[2] - d), pd)
                 for d in np.linspace(0.5, 2.8, 12)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


def test_los_gain_requires_point_below(scene):
    led = scene.leds[0]
    for los_gain in LOS_GAINS:
        with pytest.raises(ValueError):
            los_gain(led, (1.0, 1.0, 3.5), scene.comm_pd)


# ---------------------------------------------------------------------------
# illuminance
# ---------------------------------------------------------------------------

def test_illuminance_single_led_on_axis(scene):
    led = scene.leds[0]
    d = 2.15
    pt = (led.position[0], led.position[1], led.position[2] - d)
    m = ph.lambertian_order(led.half_power_angle_deg)
    expected = (m + 1) / (2 * math.pi) * led.efficacy_lm_per_w * led.power_w / (d * d)
    for illuminance in ILLUMINANCES:
        assert abs(illuminance([led], pt) - expected) <= 1e-12 * expected


def test_illuminance_linear_in_power(scene, rng):
    pt = _point_below(rng, scene)
    for illuminance in ILLUMINANCES:
        base = illuminance(scene.leds, pt)
        doubled = illuminance([replace(led, power_w=2 * led.power_w, power_max_w=200)
                               for led in scene.leds], pt)
        assert abs(doubled - 2 * base) <= 1e-12 * doubled


def test_illuminance_matches_per_led_summation(scene, rng):
    for _ in range(20):
        pt = _point_below(rng, scene)
        for illuminance in ILLUMINANCES:
            total = illuminance(scene.leds, pt)
            by_term = sum(illuminance([led], pt) for led in scene.leds)
            assert abs(total - by_term) <= 1e-12 * by_term


def test_monotone_on_axis_illuminance(scene):
    led = scene.leds[0]
    for illuminance in ILLUMINANCES:
        vals = [illuminance([led], (led.position[0], led.position[1], led.position[2] - d))
                for d in np.linspace(0.4, 2.9, 15)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# SNR models
# ---------------------------------------------------------------------------

def test_snr_full_zero_power(scene):
    dark = [replace(led, power_w=0.0, power_min_w=0.0) for led in scene.leds]
    pt = (2.5, 2.5, scene.room.plane_z)
    for snr_full in SNR_FULLS:
        assert snr_full(dark, pt, scene.comm_pd, scene.noise) == 0.0
    grid = ph.plane_grid(scene.room, 0.25)
    assert np.all(ph.snr_full(dark, grid, scene.room.plane_z, scene.comm_pd, scene.noise,
                               _powers(dark)) == 0.0)


def test_snr_full_matches_independent_transcription(scene, rng):
    pd = scene.comm_pd
    for _ in range(20):
        noise = NoiseParams(
            electron_charge_c=1.602e-19,
            bandwidth_hz=rng.uniform(1e7, 5e8),
            background_current_a=rng.uniform(1e-4, 1e-2),
            noise_factor_i2=rng.uniform(0.4, 0.7),
            noise_factor_i3=rng.uniform(0.05, 0.12),
            boltzmann_j_per_k=1.381e-23,
            temperature_k=rng.uniform(270, 330),
            open_loop_gain=rng.uniform(5, 20),
            capacitance_f_per_m2=rng.uniform(5e-7, 5e-6),
            fet_noise_factor=rng.uniform(1.0, 2.0),
            fet_transconductance_s=rng.uniform(0.01, 0.1),
        )
        pt = _point_below(rng, scene)
        p_r = sum(oracles.los_gain(led, pt, pd) * led.power_w for led in scene.leds)
        q, bw = noise.electron_charge_c, noise.bandwidth_hz
        shot = 2 * q * pd.responsivity_a_per_w * p_r * bw \
            + 2 * q * noise.background_current_a * noise.noise_factor_i2 * bw
        kt = noise.boltzmann_j_per_k * noise.temperature_k
        ca = noise.capacitance_f_per_m2 * pd.area_m2
        thermal = (8 * math.pi * kt / noise.open_loop_gain * ca * noise.noise_factor_i2 * bw**2
                   + 16 * math.pi**2 * kt * noise.fet_noise_factor
                   / noise.fet_transconductance_s * ca**2 * noise.noise_factor_i3 * bw**3)
        expected = (pd.responsivity_a_per_w * p_r) ** 2 / (shot + thermal)
        for snr_full in SNR_FULLS:
            got = snr_full(scene.leds, pt, pd, noise)
            assert abs(got - expected) <= 1e-12 * expected


def test_snr_full_below_simplified(scene, rng):
    for _ in range(50):
        pt = _point_below(rng, scene)
        for snr_full, snr_simplified in zip(SNR_FULLS, SNR_SIMPLIFIEDS):
            full = snr_full(scene.leds, pt, scene.comm_pd, scene.noise)
            simple = snr_simplified(scene.leds, pt, scene.comm_pd, scene.noise)
            assert full <= simple


def test_snr_simplified_single_led_overhead(scene):
    led = scene.leds[0]
    h = scene.room.plane_drop
    pt = (led.position[0], led.position[1], led.position[2] - h)
    c = ph.snr_constant(h, scene.comm_pd, scene.noise)
    expected = c * led.power_w / h**4
    for snr_simplified in SNR_SIMPLIFIEDS:
        got = snr_simplified([led], pt, scene.comm_pd, scene.noise)
        assert abs(got - expected) <= 1e-12 * expected


def test_snr_simplified_linear(scene, rng):
    pt = _point_below(rng, scene)
    for snr_simplified in SNR_SIMPLIFIEDS:
        base = snr_simplified(scene.leds, pt, scene.comm_pd, scene.noise)
        scaled = snr_simplified([replace(led, power_w=3 * led.power_w, power_max_w=300)
                                 for led in scene.leds], pt, scene.comm_pd, scene.noise)
        assert abs(scaled - 3 * base) <= 1e-12 * scaled


def test_snr_simplified_two_route_identity(scene, rng):
    # closed form C/d^4 versus responsivity * received power / (2qB)
    pd, noise = scene.comm_pd, scene.noise
    factor = pd.responsivity_a_per_w / (2 * noise.electron_charge_c * noise.bandwidth_hz)
    for _ in range(1000):
        pt = _point_below(rng, scene)
        p_r = sum(oracles.los_gain(led, pt, pd) * led.power_w for led in scene.leds)
        a = oracles.snr_simplified(scene.leds, pt, pd, noise)
        b = factor * p_r
        assert abs(a - b) <= 1e-10 * max(a, b)
    # the same identity on the vector paths, over a whole grid at once
    pts = ph.plane_grid(scene.room, 0.1)
    p = scene.power_vector()
    a = ph.snr_coefficients(scene.leds, pts, scene.room.plane_z, pd, noise) @ p
    b = factor * (ph._los_gains(scene.leds, pts, scene.room.plane_z, pd) @ p)
    assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(a, b))


def test_snr_simplified_carries_the_filter_gain(scene, rng):
    # the optical filter gain T scales the received power, so it scales the
    # simplified SNR too, which then still bounds the full model's
    pd, noise = replace(scene.comm_pd, filter_gain=4.0), scene.noise
    pts, z = ph.plane_grid(scene.room, 0.1), scene.room.plane_z
    p = scene.power_vector()
    factor = pd.responsivity_a_per_w / (2 * noise.electron_charge_c * noise.bandwidth_hz)
    a = ph.snr_coefficients(scene.leds, pts, z, pd, noise)
    b = factor * ph._los_gains(scene.leds, pts, z, pd)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, b))
    assert np.all(ph.snr_full(scene.leds, pts, z, pd, noise, p) <= a @ p)
    for _ in range(20):
        pt = _point_below(rng, scene)
        for snr_full, snr_simplified in zip(SNR_FULLS, SNR_SIMPLIFIEDS):
            assert snr_full(scene.leds, pt, pd, noise) <= snr_simplified(scene.leds, pt, pd, noise)


def test_snr_simplified_requires_m1_and_wide_fov(scene):
    narrow = replace(scene.comm_pd, fov_deg=60.0)
    pt = (2.5, 2.5, scene.room.plane_z)
    steep = [replace(led, half_power_angle_deg=45.0) for led in scene.leds]
    for snr_simplified in SNR_SIMPLIFIEDS:
        with pytest.raises(ph.SimplificationError):
            snr_simplified(scene.leds, pt, narrow, scene.noise)
        with pytest.raises(ph.SimplificationError):
            snr_simplified(steep, pt, scene.comm_pd, scene.noise)


# ---------------------------------------------------------------------------
# vector paths against the scalar oracles
# ---------------------------------------------------------------------------

def _mixed_leds(scene):
    """The default LEDs with a different half-power angle each."""
    return [replace(led, half_power_angle_deg=h)
            for led, h in zip(scene.leds, (30, 45, 60, 75, 50, 40, 65, 70))]


def _sample_points(scene, rng):
    """The 0.25 m plane grid plus seeded uniform draws over the room."""
    grid = ph.plane_grid(scene.room, 0.25)
    drawn = rng.uniform(0.0, 1.0, (200, 2)) * [scene.room.size_x, scene.room.size_y]
    return np.vstack([grid, drawn])


@pytest.mark.parametrize("variant", ["default", "fov60", "mixed-angles"])
def test_snr_full_matches_oracle(scene, rng, variant):
    leds, pd = list(scene.leds), scene.comm_pd
    if variant == "fov60":
        pd = replace(pd, fov_deg=60.0)
    elif variant == "mixed-angles":
        leds = _mixed_leds(scene)
    pts = _sample_points(scene, rng)
    z = scene.room.plane_z
    got = ph.snr_full(leds, pts, z, pd, scene.noise, _powers(leds))
    expected = np.array([oracles.snr_full_at(leds, (x, y, z), pd, scene.noise) for x, y in pts])
    assert got.shape == (len(pts),)
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)


def test_snr_full_at_most_simplified_coefficients(scene, rng):
    pts = _sample_points(scene, rng)
    z, pd, noise = scene.room.plane_z, scene.comm_pd, scene.noise
    full = ph.snr_full(scene.leds, pts, z, pd, noise, scene.power_vector())
    simple = ph.snr_coefficients(scene.leds, pts, z, pd, noise) @ scene.power_vector()
    assert np.all(full <= simple)


def test_snr_full_fov_cutoff():
    # a point is served by the LEDs within the FOV half-angle and no others
    leds = [Led(position=(0.0, 0.0, 3.0)), Led(position=(4.0, 0.0, 3.0))]
    pd = CommPd(fov_deg=45.0)
    noise = NoiseParams()
    dz = 1.0
    inside = dz * math.tan(math.radians(44.999999))
    outside = dz * math.tan(math.radians(45.000001))
    pts = np.array([[inside, 0.0], [outside, 0.0], [4.0 - inside, 0.0], [2.0, 0.0]])
    gains = ph._los_gains(leds, pts, 2.0, pd)
    assert gains[0, 0] > 0 and gains[0, 1] == 0.0
    assert gains[1, 0] == 0.0 and gains[2, 1] > 0
    assert np.all(gains[3] == 0.0)
    snr = ph.snr_full(leds, pts, 2.0, pd, noise, _powers(leds))
    assert snr[1] == snr[3] == 0.0 and snr[0] > 0 and snr[2] > 0
    expected = [oracles.snr_full_at(leds, (x, y, 2.0), pd, noise) for x, y in pts]
    assert np.all(np.abs(snr - expected) <= 1e-12 * np.asarray(expected))


@pytest.mark.parametrize("plane_z", [3.0, 3.5])
def test_vector_paths_require_plane_below(scene, plane_z):
    pts = np.array([[1.0, 1.0], [2.0, 3.0]])
    pd, noise = scene.comm_pd, scene.noise
    with pytest.raises(ValueError, match="below the LEDs"):
        ph.snr_full(scene.leds, pts, plane_z, pd, noise, scene.power_vector())
    with pytest.raises(ValueError, match="below the LEDs"):
        ph.illuminance_coefficients(scene.leds, pts, plane_z)
    with pytest.raises(ValueError, match="below the LEDs"):
        ph.snr_coefficients(scene.leds, pts, plane_z, pd, noise)


def test_vector_paths_take_per_led_heights(scene, rng):
    # illuminance and the full SNR use each LED's own drop; the simplified
    # SNR's closed form needs a common one
    leds = [replace(led, position=(*led.position[:2], z)) for led, z in
            zip(scene.leds, rng.uniform(2.5, 3.0, scene.num_leds))]
    pts = _sample_points(scene, rng)
    z, pd, noise = scene.room.plane_z, replace(scene.comm_pd, fov_deg=70.0), scene.noise
    illum = ph.illuminance_coefficients(leds, pts, z) @ _powers(leds)
    snr = ph.snr_full(leds, pts, z, pd, noise, _powers(leds))
    for (x, y), e, s in zip(pts, illum, snr):
        assert abs(e - oracles.illuminance_at(leds, (x, y, z))) <= 1e-12 * e
        assert abs(s - oracles.snr_full_at(leds, (x, y, z), pd, noise)) <= 1e-12 * s
    with pytest.raises(ph.SimplificationError, match="same ceiling height"):
        ph.snr_coefficients(leds, pts, z, scene.comm_pd, noise)


def test_illuminance_coefficients_match_oracle(scene, rng):
    leds = [replace(led, power_w=p) for led, p in
            zip(_mixed_leds(scene), rng.uniform(10.0, 80.0, scene.num_leds))]
    pts = _sample_points(scene, rng)
    z = scene.room.plane_z
    coeffs = ph.illuminance_coefficients(leds, pts, z)
    assert coeffs.shape == (len(pts), len(leds)) and coeffs.flags.c_contiguous
    got = coeffs @ _powers(leds)
    expected = np.array([oracles.illuminance_at(leds, (x, y, z)) for x, y in pts])
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("layout_seed", [0, 14, 57])
def test_snr_coefficients_match_oracle(rng, layout_seed):
    s = default_scene(layout_seed)
    leds = [replace(led, power_w=p) for led, p in
            zip(s.leds, rng.uniform(10.0, 80.0, s.num_leds))]
    pts = _sample_points(s, rng)
    z, pd, noise = s.room.plane_z, s.comm_pd, s.noise
    coeffs = ph.snr_coefficients(leds, pts, z, pd, noise)
    assert coeffs.shape == (len(pts), len(leds)) and coeffs.flags.c_contiguous
    got = coeffs @ _powers(leds)
    expected = np.array([oracles.snr_simplified(leds, (x, y, z), pd, noise) for x, y in pts])
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _symmetric_scene():
    scene = default_scene()
    led_xy = [(1.25, 1.25), (1.25, 3.75), (3.75, 1.25), (3.75, 3.75)]
    leds = tuple(Led(position=(x, y, 3.0)) for x, y in led_xy)
    pds = tuple(replace(pd, position=(x, y, 3.0))
                for pd, (x, y) in zip(scene.sensing_pds[:4], led_xy))
    return replace(scene, leds=leds, sensing_pds=pds)


def test_field_symmetry_under_quarter_turn():
    scene = _symmetric_scene()
    partition = build_partition(scene)
    grid = ph.field(scene, partition, quantity="snr")
    nx = len(np.unique(grid.points[:, 0]))
    vals = grid.values.reshape(nx, nx)
    rotated = np.rot90(vals)
    assert np.allclose(vals, rotated, rtol=1e-9)


def test_field_illuminance_matches_pointwise(scene, partition, rng):
    grid = ph.field(scene, partition, quantity="illuminance")
    for idx in rng.integers(0, len(grid.points), 25):
        x, y = grid.points[idx]
        direct = oracles.illuminance_at(scene.leds, (x, y, scene.room.plane_z))
        assert abs(grid.values[idx] - direct) <= 1e-12 * direct


def test_field_values_nonnegative_and_ordered(scene, partition):
    grid = ph.field(scene, partition, quantity="snr")
    assert np.all(grid.values >= 0)
    order = np.lexsort((grid.points[:, 1], grid.points[:, 0]))
    assert np.array_equal(order, np.arange(len(grid.points)))


def test_field_variance_matches_qp(scene, partition):
    # the sampled field's variance over the receiving plane must equal the
    # optimizer's quadratic form at the same pitch
    from isci.optimize import build_uniformity_qp
    scene = replace(scene, controller=replace(scene.controller, opt_pitch_m=0.25,
                                              field_pitch_m=0.25))
    qp = build_uniformity_qp(scene, partition)
    grid = ph.field(scene, partition, quantity="snr")
    vals = grid.values[grid.regions != Region.OUTSIDE.value]
    variance = float(np.mean((vals - vals.mean()) ** 2))
    p = scene.power_vector()
    assert abs(float(p @ qp.q_matrix @ p) - variance) <= 1e-9 * variance


def test_field_rejects_unknown_quantity(scene, partition):
    with pytest.raises(ValueError):
        ph.field(scene, partition, quantity="lumens")


def test_field_at_given_powers(scene, partition, rng):
    # the full grid's coefficients times the powers, as a contiguous vector
    # whatever the caller passed; the scene's own powers by default
    p = rng.uniform(12.0, 70.0, scene.num_leds)
    strided = np.repeat(p, 2)[::2]
    pts, z = ph.plane_grid(scene.room, scene.controller.field_pitch_m), scene.room.plane_z
    pd, noise = scene.comm_pd, scene.noise
    for quantity, coeffs in (("snr", ph.snr_coefficients(scene.leds, pts, z, pd, noise)),
                             ("illuminance", ph.illuminance_coefficients(scene.leds, pts, z))):
        for powers in (p, strided, list(p)):
            got = ph.field(scene, partition, quantity=quantity, powers=powers).values
            assert np.array_equal(got, coeffs @ p)
        default = ph.field(scene, partition, quantity=quantity).values
        assert np.array_equal(default, coeffs @ scene.power_vector())
    full = ph.field(scene, partition, quantity="snr_full", powers=strided).values
    assert np.array_equal(full, ph.snr_full(scene.leds, pts, z, pd, noise, p))
    with pytest.raises(ValueError, match=r"^1 powers but the scene has 8 LEDs$"):
        ph.field(scene, partition, powers=[10.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_and_snr_full_reject_non_finite_powers(scene, partition, bad):
    # before, one NaN power gave a field of NaN values with no error, and
    # snr_full checked nothing
    p = scene.power_vector().copy()
    p[3] = bad
    message = rf"^non-finite powers \[{bad}\] at LEDs \[3\]$"
    for quantity in ph._FIELD_QUANTITIES:
        with pytest.raises(ValueError, match=message):
            ph.field(scene, partition, quantity=quantity, powers=p)
    pts = ph.plane_grid(scene.room, 1.0)
    args = (scene.leds, pts, scene.room.plane_z, scene.comm_pd, scene.noise)
    with pytest.raises(ValueError, match=message):
        ph.snr_full(*args, p)
    with pytest.raises(ValueError, match=r"^7 powers but the LED list has 8 LEDs$"):
        ph.snr_full(*args, p[:7])


def test_plane_grid_samples_inside_the_room(scene):
    room = replace(scene.room, size_y=3.0)
    assert ph.plane_grid(room, 3.0).tolist() == [[1.0, 1.5], [4.0, 1.5]]
    for pitch in (3.0, 1.0, 0.3):
        pts = ph.plane_grid(room, pitch)
        assert np.all((pts > 0) & (pts < [room.size_x, room.size_y]))
        # centered: the grid mirrors with the room
        xs, ys = np.unique(pts[:, 0]), np.unique(pts[:, 1])
        assert np.allclose(xs + xs[::-1], room.size_x) and np.allclose(ys + ys[::-1], room.size_y)
    for pitch in (3.5, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=rf"^pitch {pitch} m must be positive and no wider "
                                             r"than the room's shorter side, 3.0 m$"):
            ph.plane_grid(room, pitch)
