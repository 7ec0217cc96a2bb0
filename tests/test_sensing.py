import hashlib
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isci import controller as ct
from isci import sensing as sn
from isci.photometry import lambertian_order
from isci.scene import SurfaceGrid, UserModel, default_scene, scene_from_dict
from tests.oracles import (LADDER, LOOP_LARGE, bounce_terms, concentrator_gain, dense_deltas,
                           dense_predict, full_scan, lattice_scene, nlos_element_gain,
                           nlos_user_gain, occluded_sum_received_power, outer,
                           prediction_values, user_gain)


def _mixed_scene():
    """Default layout with a different FOV per PD and half-angle per LED."""
    s = default_scene()
    pds = tuple(replace(pd, fov_deg=f)
                for pd, f in zip(s.sensing_pds, (30, 45, 60, 75, 50, 40, 85, 70)))
    leds = tuple(replace(led, half_power_angle_deg=h)
                 for led, h in zip(s.leds, (30, 45, 60, 75, 50, 40, 65, 70)))
    return replace(s, sensing_pds=pds, leds=leds)


def _room_scene(size_x, size_y, pitch):
    """A size_x by size_y room of pitch-wide cells with a seeded reflectance
    per cell, and four LEDs and three PDs at seeded places on the ceiling,
    each with its own half-power angle or FOV."""
    rng = np.random.default_rng(5)
    nx, ny = round(size_x / pitch), round(size_y / pitch)
    leds = rng.uniform(0.0, 1.0, (4, 2)) * [size_x, size_y]
    pds = rng.uniform(0.0, 1.0, (3, 2)) * [size_x, size_y]
    return scene_from_dict({
        "room": {"size_x": size_x, "size_y": size_y},
        "grid": {"pitch": pitch, "reflectance": rng.uniform(0.2, 0.9, nx * ny).tolist()},
        "leds": [{"position": [x, y, 3.0], "half_power_angle_deg": h}
                 for (x, y), h in zip(leds.tolist(), (60.0, 35.0, 70.0, 50.0))],
        "sensing_pds": [{"position": [x, y, 3.0], "fov_deg": f}
                        for (x, y), f in zip(pds.tolist(), (90.0, 40.0, 65.0))],
    })


# ---------------------------------------------------------------------------
# one-bounce channel gains
# ---------------------------------------------------------------------------

def _element_gain_vec(led, element_xy, element_area, reflectance, pd):
    """One LED-cell-PD gain from the kernel's grid factors (a 1 x 1 grid),
    as SensingModel forms the floor's."""
    factors = sn._BounceKernel([led], [pd]).factors(np.array([[float(element_xy[0])]]),
                                                    np.array([[float(element_xy[1])]]), 0.0,
                                                    reflectance * element_area)
    return float(outer(*factors)[0, 0, 0])


def _user_gain_vec(led, user_xy, user, pd):
    """One LED-patch-PD gain from the kernel's one-point factors, as
    SensingModel.received_power forms the user patch's."""
    emitter, collector = sn._BounceKernel([led], [pd]).point(
        float(user_xy[0]), float(user_xy[1]), user.patch_height_m,
        user.reflectance * user.patch_area_m2)
    return float(emitter[0] * collector[0])


ELEMENT_GAINS = (nlos_element_gain, _element_gain_vec)
USER_GAINS = (nlos_user_gain, _user_gain_vec)


def test_element_gain_outside_fov_is_zero(scene):
    led = scene.leds[0]
    pd = replace(scene.sensing_pds[0], fov_deg=20.0)
    # element far to the side of the PD: incidence angle way past 20 deg
    far = (pd.position[0] + 4.0, pd.position[1])
    for element_gain in ELEMENT_GAINS:
        assert element_gain(led, far, 0.01, 0.8, pd) == 0.0


def test_element_gain_zero_reflectance(scene):
    led, pd = scene.leds[0], scene.sensing_pds[0]
    for element_gain in ELEMENT_GAINS:
        assert element_gain(led, (2.0, 2.0), 0.01, 0.0, pd) == 0.0


def test_element_gain_term_by_term(scene):
    # aligned LED / element / PD: transcribe the one-bounce product directly
    led = replace(scene.leds[0], position=(2.0, 2.0, 3.0))
    pd = replace(scene.sensing_pds[0], position=(2.0, 2.0, 3.0))
    area, rho = 0.01, 0.8
    elem = (2.0, 2.0)
    m = lambertian_order(led.half_power_angle_deg)
    d1 = d2 = 3.0
    g = concentrator_gain(0.0, pd.refractive_index, pd.fov_deg)
    expected = (rho * (m + 1) * pd.area_m2 * area * 1.0 * 1.0 * 1.0 * 1.0
                * pd.filter_gain * g / (2 * math.pi**2 * d1**2 * d2**2))
    for element_gain in ELEMENT_GAINS:
        got = element_gain(led, elem, area, rho, pd)
        assert abs(got - expected) <= 1e-15 * expected


def test_element_gain_matches_tensor(scene, sensing_model, rng):
    for _ in range(20):
        i = int(rng.integers(0, scene.num_leds))
        j = int(rng.integers(0, len(scene.sensing_pds)))
        k = int(rng.integers(0, scene.grid.count))
        ref = nlos_element_gain(scene.leds[i], scene.grid.centers()[k],
                                scene.grid.cell_area, scene.grid.reflectance[k],
                                scene.sensing_pds[j])
        got = sensing_model.emitter[i, k] * sensing_model.collector[k, j]
        assert abs(got - ref) <= 1e-12 * max(ref, 1e-30)


def test_user_gain_zero_reflectance(scene):
    led, pd = scene.leds[0], scene.sensing_pds[0]
    user = replace(scene.user, reflectance=0.0)
    for patch_gain in USER_GAINS:
        assert patch_gain(led, (2.5, 2.5), user, pd) == 0.0
    model = sn.SensingModel(replace(scene, user=user))
    assert np.all(model._kernel.point(2.5, 2.5, *model._patch)[0] == 0.0)
    assert np.all(user_gain(model, (2.5, 2.5)) == 0.0)


def test_user_gain_outside_fov(scene):
    led = scene.leds[0]
    pd = replace(scene.sensing_pds[0], fov_deg=15.0)
    far = (pd.position[0] + 4.0, pd.position[1])
    for user_gain in USER_GAINS:
        assert user_gain(led, far, scene.user, pd) == 0.0


def test_user_patch_beats_floor_element(scene, rng):
    # Same footprint, reflectance and area: the raised patch wins wherever the
    # shorter path dominates the flatter incidence, i.e. laterally within
    # sqrt(3 * dz) of the co-located LED/PD stack (dz = ceiling - patch).
    for _ in range(100):
        x, y = rng.uniform(1.3, 3.7, 2)
        led = replace(scene.leds[0], position=(x, y, 3.0))
        pd = replace(scene.sensing_pds[0], position=(x, y, 3.0))
        area, rho = 0.01, 0.8
        user = UserModel(reflectance=rho, patch_area_m2=area,
                         patch_height_m=rng.uniform(1.2, 2.2), footprint_radius_m=0.3)
        r = rng.uniform(0.0, 1.2)
        ang = rng.uniform(0.0, 2 * math.pi)
        ex, ey = x + r * math.cos(ang), y + r * math.sin(ang)
        for element_gain, user_gain in zip(ELEMENT_GAINS, USER_GAINS):
            floor = element_gain(led, (ex, ey), area, rho, pd)
            raised = user_gain(led, (ex, ey), user, pd)
            assert raised > floor


# ---------------------------------------------------------------------------
# occlusion
# ---------------------------------------------------------------------------

def test_occluded_corner_quarter_disk(scene):
    occ = sn.occluded_set(scene, (0.0, 0.0))
    centers = scene.grid.centers()
    expected = np.flatnonzero(np.hypot(centers[:, 0], centers[:, 1])
                              <= scene.user.footprint_radius_m + 1e-9)
    assert np.array_equal(occ, expected)
    assert len(occ) > 0


def test_occluded_single_cell(scene):
    user = replace(scene.user, footprint_radius_m=0.04)  # < pitch/2
    small = replace(scene, user=user)
    center = scene.grid.centers()[1234]
    occ = sn.occluded_set(small, center)
    assert list(occ) == [1234]


def test_occluded_outside_room_empty(scene):
    assert len(sn.occluded_set(scene, (-1.0, 2.0))) == 0
    assert len(sn.occluded_set(scene, (2.0, 7.0))) == 0


@pytest.mark.parametrize("pitch, nx, ny, radius", [
    (0.1, 50, 50, 0.3),     # the default grid: the radius is a multiple of the pitch
    (0.1, 30, 70, 0.3),     # nx != ny
    (0.07, 40, 25, 0.25),   # the pitch does not divide the radius
    (0.25, 12, 5, 0.4),
    (0.05, 20, 60, 0.013),  # footprint inside one cell
    (0.3, 7, 9, 1.9),       # footprint wider than the room
])
def test_occluded_bounding_box_matches_full_scan(scene, pitch, nx, ny, radius):
    room = replace(scene.room, size_x=nx * pitch, size_y=ny * pitch)
    grid = SurfaceGrid(pitch=pitch, nx=nx, ny=ny, reflectance=(0.8,) * (nx * ny))
    s = replace(scene, room=room, grid=grid,
                user=replace(scene.user, footprint_radius_m=radius))
    centers = grid.centers()
    sx, sy = room.size_x, room.size_y
    rng = np.random.default_rng(11)
    on_cells = centers[rng.integers(0, grid.count, 40)]
    ang = rng.uniform(0.0, 2 * math.pi, (40, 1))
    one_radius = on_cells + radius * np.hstack([np.cos(ang), np.sin(ang)])
    axis_radius = np.vstack([on_cells[:10] + [radius, 0.0], on_cells[10:20] - [radius, 0.0],
                             on_cells[20:30] + [0.0, radius], on_cells[30:] - [0.0, radius]])
    walls = [(0.0, 0.0), (sx, 0.0), (0.0, sy), (sx, sy), (0.0, sy / 3), (sx, sy / 2),
             (sx / 4, 0.0), (sx / 3, sy), (pitch / 2, sy - pitch / 2)]
    outside = [(-1e-9, sy / 2), (sx + 1e-9, sy / 2), (sx / 2, -0.5), (sx / 2, sy + 0.2),
               (-radius / 2, -radius / 2), (sx + radius / 2, sy)]
    random = rng.uniform(0.0, 1.0, (40, 2)) * [sx, sy]
    for xy in np.vstack([on_cells, one_radius, axis_radius, walls, outside, random]):
        if room.contains_xy(*xy):
            dist = np.hypot(centers[:, 0] - xy[0], centers[:, 1] - xy[1])
            expected = np.flatnonzero(dist <= radius + sn._OCCLUSION_TOL)
        else:
            expected = np.empty(0, dtype=int)
        assert np.array_equal(sn.occluded_set(s, xy), expected), xy


# ---------------------------------------------------------------------------
# received power
# ---------------------------------------------------------------------------

def test_received_power_zero_powers(scene, sensing_model):
    out = sensing_model.received_power(np.zeros(scene.num_leds))
    assert np.all(out == 0.0)


def test_received_power_linear(scene, sensing_model):
    p = scene.power_vector()
    one = sensing_model.received_power(p)
    two = sensing_model.received_power(2 * p)
    assert np.allclose(two, 2 * one, rtol=1e-12)


@pytest.mark.parametrize("make_scene", [default_scene, _mixed_scene])
def test_received_power_bitwise_matches_dense_reference(make_scene):
    # the reference builds the full (M, K, N) tensor with one einsum and
    # gathers the occluded cells by a full scan; a reading with a user is
    # formed in the power domain from the reference's own factors, in the
    # model's association: baseline reading - (p @ E_occ) @ C_occ + (p @ u_e) * u_c,
    # with E_occ gathered C-ordered, as take gives it (numpy's matvec on the
    # F-ordered E[:, occ] rounds differently)
    s = make_scene()
    model = sn.SensingModel(s)
    kernel = model._kernel
    centers = s.grid.centers()
    rho_area = s.grid.reflectance_array() * s.grid.cell_area
    cell_emitter, cell_collector = bounce_terms(s.leds, s.sensing_pds, centers, 0.0)
    element = np.einsum("i,ik,k,kj->ikj", kernel.front[:, 0], cell_emitter, rho_area,
                        cell_collector)
    # the BLAS product sums the cells in its own order: 2.2e-16 to 3.4e-16
    # relative from the cell-order sum on these scenes
    np.testing.assert_allclose(model.baseline_gains, element.sum(axis=1), rtol=1e-15, atol=0.0)
    assert np.array_equal(outer(model.emitter, model.collector), element)
    assert model.collector.flags.c_contiguous and model.emitter.flags.c_contiguous
    floor_emitter = kernel.front * cell_emitter * rho_area
    user = s.user
    patch = user.reflectance * user.patch_area_m2
    rng = np.random.default_rng(3)
    p = s.power_vector() * rng.uniform(0.5, 1.5, s.num_leds)
    assert np.array_equal(model.received_power(p), p @ model.baseline_gains)
    for xy in rng.uniform(-0.2, s.room.size_x + 0.2, (100, 2)):
        user_emitter, user_collector = bounce_terms(s.leds, s.sensing_pds, xy[None, :],
                                                    user.patch_height_m)
        occ = (np.flatnonzero(np.hypot(centers[:, 0] - xy[0], centers[:, 1] - xy[1])
                              <= user.footprint_radius_m + sn._OCCLUSION_TOL)
               if s.room.contains_xy(*xy) else np.empty(0, dtype=int))
        expected = (p @ model.baseline_gains
                    - (p @ floor_emitter.take(occ, axis=1)) @ cell_collector[occ]
                    + (p @ (kernel.front * user_emitter * patch)[:, 0]) * user_collector[0])
        assert np.array_equal(model.received_power(p, xy), expected), xy


@pytest.mark.parametrize("make_scene", [
    default_scene, lambda: lattice_scene(*LADDER["10m-25led-0.05"]), _mixed_scene,
    pytest.param(lambda: lattice_scene(*LOOP_LARGE), id="loop-large")])
def test_received_power_matches_occluded_sum_oracle(make_scene):
    # The gain-domain oracle: powers @ gains_at, the occluded cells' (M, P, N)
    # gain tensor summed over its cells.  received_power associates the terms
    # in the power domain, so the two part in the last bits: at most 7.1e-16
    # of the no-user reading per PD over 2000 seeded points (walls and
    # outside points included) on each of these scenes, and half of the
    # readings bit for bit.  Bound: 2e-15.
    s = make_scene()
    model = sn.SensingModel(s)
    size = s.room.size_x
    rng = np.random.default_rng(8)
    edges = [0.0, 1e-3, 0.5 * s.grid.pitch, size - 1e-3, size]
    points = [*rng.uniform(0.0, size, (200, 2)),
              *((x, y) for x in edges for y in (*edges, size / 3)),
              (-1e-3, size / 2), (size / 2, size + 0.1), (-0.5, -0.5)]
    lo, hi = s.power_bounds()
    for xy in points:
        p = rng.uniform(lo, hi)
        miss = np.abs(model.received_power(p, xy) - occluded_sum_received_power(model, p, xy))
        assert np.all(miss <= 2e-15 * model.received_power(p)), xy


@pytest.mark.parametrize("make_scene", [default_scene, _mixed_scene,
                                        lambda: lattice_scene(*LADDER["10m-25led-0.05"])])
def test_bounce_factors_match_two_call_reference(make_scene):
    # the kernel forms the factors on the grid's rows and columns, and a
    # user patch's with one geometry call over the LEDs and PDs at a point;
    # the oracle with one geometry call per end on the centers as a point
    # list.  All give the same floats, and a reading is formed from them.
    s = make_scene()
    model = sn.SensingModel(s)
    table = sn.build_fingerprint_table(s, model)
    front, user = model._kernel.front, s.user
    centers = s.grid.centers()
    emitter, collector = bounce_terms(s.leds, s.sensing_pds, centers, 0.0)
    assert np.array_equal(model.emitter,
                          front * emitter * (s.grid.reflectance_array() * s.grid.cell_area))
    assert np.array_equal(model.collector, collector)
    patch = user.reflectance * user.patch_area_m2
    emitter, collector = bounce_terms(s.leds, s.sensing_pds, centers, user.patch_height_m)
    assert np.array_equal(table.user_emitter, front * emitter * patch)
    assert np.array_equal(table.user_collector, collector)
    rng = np.random.default_rng(12)
    lo, hi = s.power_bounds()
    for xy in rng.uniform(0.0, s.room.size_x, (300, 2)):
        emitter, collector = bounce_terms(s.leds, s.sensing_pds, xy[None, :], user.patch_height_m)
        user_emitter, user_collector = (front * emitter * patch)[:, 0], collector[0]
        x, y = float(xy[0]), float(xy[1])
        point = model._kernel.point(x, y, *model._patch)
        grid = model._kernel.factors(np.array([[x]]), np.array([[y]]), *model._patch)
        for got, want, one_cell in zip(point, (user_emitter, user_collector), grid):
            assert np.array_equal(got, want) and np.array_equal(got, one_cell.ravel()), xy
        occ = sn.occluded_set(s, xy)
        p = rng.uniform(lo, hi)
        expected = (p @ model.baseline_gains
                    - (p @ np.ascontiguousarray(model.emitter[:, occ])) @ model.collector[occ]
                    + (p @ user_emitter) * user_collector)
        assert np.array_equal(model.received_power(p, xy), expected), xy


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["budget", "1-row-blocks", "3-row-blocks"])
@pytest.mark.parametrize("make_scene", [
    pytest.param(lambda: _room_scene(7.0, 4.2, 0.1), id="non-square"),
    pytest.param(lambda: _room_scene(0.8, 6.4, 0.8), id="one-row"),
    pytest.param(lambda: _room_scene(6.4, 0.8, 0.8), id="one-column"),
    pytest.param(_mixed_scene, id="mixed"),
])
def test_grid_factors_match_point_list_oracle(make_scene, rows, monkeypatch):
    # the model's and the table's factors come from the grid's rows and
    # columns, the PDs' a block of rows at a time (the last block short where
    # the rows do not divide nx); a user point is a 1 x 1 grid.  The oracle
    # calls the geometry on grid.centers() as a point list, one call per end.
    s = make_scene()
    if rows is not None:
        monkeypatch.setattr(sn, "_FACTOR_BLOCK_BYTES", rows * s.grid.ny * len(s.sensing_pds) * 8)
    model = sn.SensingModel(s)
    table = sn.build_fingerprint_table(s, model)
    front, user = model._kernel.front, s.user
    patch = user.reflectance * user.patch_area_m2
    centers = s.grid.centers()
    emitter, collector = bounce_terms(s.leds, s.sensing_pds, centers, 0.0)
    floor = front * emitter * (s.grid.reflectance_array() * s.grid.cell_area)
    for got in (model.emitter, table.floor_emitter):
        assert np.array_equal(got, floor)
    for got in (model.collector, table.floor_collector):
        assert np.array_equal(got, collector)
    emitter, collector = bounce_terms(s.leds, s.sensing_pds, centers, user.patch_height_m)
    assert np.array_equal(table.user_emitter, front * emitter * patch)
    assert np.array_equal(table.user_collector, collector)
    assert np.array_equal(table.candidates, centers)
    rng = np.random.default_rng(4)
    points = [*centers[rng.integers(0, len(centers), 20)],
              *rng.uniform(0.0, 1.0, (20, 2)) * [s.room.size_x, s.room.size_y]]
    for xy in points:
        emitter, collector = bounce_terms(s.leds, s.sensing_pds, xy[None, :], user.patch_height_m)
        x, y = float(xy[0]), float(xy[1])
        got_emitter, got_collector = model._kernel.factors(np.array([[x]]), np.array([[y]]),
                                                           *model._patch)
        assert np.array_equal(got_emitter, front * emitter * patch), xy
        assert np.array_equal(got_collector, collector), xy
        got_emitter, got_collector = model._kernel.point(x, y, *model._patch)
        assert np.array_equal(got_emitter, (front * emitter * patch)[:, 0]), xy
        assert np.array_equal(got_collector, collector[0]), xy


def test_setup_memory_stays_within_its_arrays(monkeypatch):
    # At its traced peak, building the model and table of a 10 m room at
    # 0.05 m (K = 40 000, M = N = 25) may hold what the two keep, the
    # emitter's two full (M, K) geometry arrays (d^2 and the cosines, which
    # its power and divide read) and four block-sized arrays of the PDs'
    # geometry.  With the whole grid in one block the same build overshoots.
    s = lattice_scene(*LADDER["10m-25led-0.05"])

    def traced_peak():
        tracemalloc.start()
        try:
            model = sn.SensingModel(s)
            table = sn.build_fingerprint_table(s, model)
            return tracemalloc.get_traced_memory()[1], model, table
        finally:
            tracemalloc.stop()

    peak, model, table = traced_peak()
    kept = {id(a): a.nbytes for a in (model.centers, model.emitter, model.collector,
                                      model.baseline_gains, table.candidates, table.baseline,
                                      table.user_emitter, table.user_collector,
                                      table.floor_emitter, table.floor_collector)}
    bound = sum(kept.values()) + 2 * model.emitter.nbytes + 4 * sn._FACTOR_BLOCK_BYTES
    assert peak <= bound
    monkeypatch.setattr(sn, "_FACTOR_BLOCK_BYTES", 1 << 60)
    assert traced_peak()[0] > bound


def test_user_reading_matches_fingerprint_identity(scene, sensing_model, table):
    p = scene.power_vector()
    base = sensing_model.received_power(p)
    for k in (17, 912, 2024):
        pos = table.candidates[k]
        with_user = sensing_model.received_power(p, pos)
        predicted = np.einsum("ij,i->j", table.deltas[k], p)
        np.testing.assert_allclose(with_user - base, predicted, atol=1e-12 * base.max())


# ---------------------------------------------------------------------------
# fingerprint table
# ---------------------------------------------------------------------------

def test_table_dimensions(scene, table):
    assert table.deltas.shape == (scene.grid.count, scene.num_leds, len(scene.sensing_pds))
    assert table.baseline.shape == (scene.num_leds, len(scene.sensing_pds))
    assert np.all(table.baseline >= 0)
    assert np.all(np.isfinite(table.deltas))


def test_table_rebuild_bitwise_identical(scene, table):
    again = sn.build_fingerprint_table(scene)
    assert np.array_equal(again.deltas, table.deltas)
    assert np.array_equal(again.baseline, table.baseline)


def test_inert_user_gives_zero_deltas(scene):
    user = UserModel(reflectance=0.0, patch_area_m2=0.25, patch_height_m=1.7,
                     footprint_radius_m=0.0)
    inert = replace(scene, user=user)
    t = sn.build_fingerprint_table(inert)
    assert np.all(t.deltas == 0.0)


def _arrays_reachable(obj):
    """Every ndarray reachable from ``obj`` through attributes, dict values
    and sequences."""
    seen, stack, found = set(), [obj], []
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return found


def test_model_and_table_hold_no_full_tensor(scene):
    model = sn.SensingModel(scene)
    table = sn.build_fingerprint_table(scene, model)
    sn.Prediction.at(table, scene.power_vector())
    full = scene.grid.count * scene.num_leds * len(scene.sensing_pds)
    for _ in range(2):
        arrays = _arrays_reachable(model) + _arrays_reachable(table)
        assert arrays and all(a.size < full for a in arrays)
        assert table.deltas.size == full  # built on request, not kept


@pytest.mark.parametrize("make_scene", [
    default_scene, pytest.param(lambda: lattice_scene(*LADDER["10m-25led"]), id="10m-25led")])
def test_factored_predictions_match_dense_contraction(make_scene):
    s = make_scene()
    table = sn.build_fingerprint_table(s)
    deltas = table.deltas
    p_min, p_max = s.power_bounds()
    rng = np.random.default_rng(5)
    for p in (s.power_vector(), p_min, p_max, rng.uniform(p_min, p_max)):
        got = prediction_values(sn.Prediction.at(table, p))
        dense = np.abs(np.einsum("kij,i->kj", deltas, p))
        assert np.abs(got - dense).max() <= 1e-14 * got.max()


def test_localize_exact_at_every_candidate_mixed_fov():
    s = _mixed_scene()
    model = sn.SensingModel(s)
    table = sn.build_fingerprint_table(s, model)
    p = s.power_vector()
    base = model.received_power(p)
    # one Prediction for every probe, as the loop's room plan keeps it
    prediction = sn.Prediction.at(table, p)
    missed = [k for k, xy in enumerate(table.candidates)
              if sn.localize(model.received_power(p, xy), base, prediction, table).index != k]
    assert missed == []


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localize_exact_at_candidates(scene, sensing_model, table, rng):
    p = scene.power_vector()
    base = sensing_model.received_power(p)
    for k in rng.integers(0, scene.grid.count, 25):
        measured = sensing_model.received_power(p, table.candidates[k])
        loc = sn.localize(measured, base, p, table)
        assert loc.detected
        assert loc.index == k
        assert loc.loss <= 1e-30


def test_localize_below_threshold_not_detected(scene, table):
    p = scene.power_vector()
    base = np.ones(len(scene.sensing_pds)) * 1e-4
    loc = sn.localize(base, base, p, table)
    assert not loc.detected and loc.position is None
    assert loc.index is None and loc.loss is None


def test_localize_undetected_forms_no_prediction(scene, sensing_model, table, monkeypatch):
    # one entry per signed prediction formed, whose bands are walked once
    formed = []
    real = sn.FingerprintTable._signed_bands

    def spy(t, powers):
        formed.append(powers)
        return real(t, powers)

    monkeypatch.setattr(sn.FingerprintTable, "_signed_bands", spy)
    p = scene.power_vector()
    base = sensing_model.received_power(p)
    measured = sensing_model.received_power(p, (2.5, 2.5))
    eps = 2.0 * float(np.abs(measured - base).max())
    assert not sn.localize(measured, base, p, table, epsilon_detect=eps).detected
    assert formed == []
    assert sn.localize(measured, base, p, table).detected  # powers: formed on the call
    assert len(formed) == 1
    prediction = sn.Prediction.at(table, p)
    assert len(formed) == 2
    loc = sn.localize(measured, base, prediction, table)
    assert len(formed) == 2  # a given Prediction is used as it is
    assert loc == sn.localize(measured, base, p, table)


@pytest.mark.parametrize("eps", [0.0, -1e-9, np.nan, np.inf])
def test_localize_rejects_a_threshold_that_is_not_positive(scene, sensing_model, table, eps):
    # at 0 an empty room's zero variation would pass max|delta| >= eps
    p = np.zeros(scene.num_leds)
    base = sensing_model.received_power(p)
    with pytest.raises(ValueError, match="^epsilon_detect must be finite and positive"):
        sn.localize(base, base, p, table, epsilon_detect=eps)


@pytest.mark.parametrize("n", [1, 2, 9, 25, 64])
@pytest.mark.parametrize("c", [1, 2, 3, 64, 625])
def test_pd_order_sums_add_rows_in_order(n, c):
    # values over 30 decades, so any other order of addition rounds differently
    rng = np.random.default_rng(n * 1000 + c)
    terms = 10.0 ** rng.uniform(-15, 15, (n, c)) * rng.choice([-1.0, 1.0], (n, c))
    expected = [0.0] * c
    for row in terms.tolist():
        expected = [total + value for total, value in zip(expected, row)]
    sums = sn._pd_order_sums(terms.copy())
    assert sums.shape == (c,)
    assert sums.tolist() == expected


@pytest.mark.parametrize("n", [1, 2, 9, 25, 64])
@pytest.mark.parametrize("tiles", [0, [2], [1, 0], [0, 1, 2]])
def test_tile_losses_add_pds_in_order(n, tiles):
    # a 24 x 8 grid is three 8 x 8 tiles, tile t holding candidates 64t to
    # 64t + 63; values over 30 decades, so any other order of addition
    # rounds differently
    rng = np.random.default_rng(n)
    columns = 10.0 ** rng.uniform(-15, 15, (n, 3 * 64))
    actual = 10.0 ** rng.uniform(-15, 15, n)
    prediction = sn.Prediction.at(_column_table(columns, (24, 8)), [1.0])
    expected = []
    for t in np.atleast_1d(tiles):
        sums = [0.0] * 64
        for reading, row in zip(actual.tolist(), columns[:, 64 * t:64 * t + 64].tolist()):
            sums = [total + (reading - value) * (reading - value)
                    for total, value in zip(sums, row)]
        expected.append(sums)
    losses = sn._tile_losses(actual, prediction, tiles)
    assert losses.shape == np.shape(tiles) + (64,)
    assert np.atleast_2d(losses).tolist() == expected


@pytest.mark.parametrize("name", ["measured", "baseline"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_localize_rejects_non_finite_reading(scene, sensing_model, table, name, bad):
    p = scene.power_vector()
    readings = {"measured": sensing_model.received_power(p, (2.5, 2.5)),
                "baseline": sensing_model.received_power(p)}
    readings[name][3] = bad
    with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
        sn.localize(readings["measured"], readings["baseline"], p, table)


def test_localize_midway_between_candidates(scene, sensing_model, table):
    p = scene.power_vector()
    base = sensing_model.received_power(p)
    k = 1275
    pos = table.candidates[k] + np.array([scene.grid.pitch / 2, 0.0])
    measured = sensing_model.received_power(p, pos)
    loc = sn.localize(measured, base, p, table)
    err = math.hypot(loc.position[0] - pos[0], loc.position[1] - pos[1])
    assert loc.detected and err <= scene.grid.pitch


def test_localize_power_equivariance(scene, sensing_model, table):
    p = scene.power_vector()
    base = sensing_model.received_power(p)
    pos = (1.84, 2.67)
    measured = sensing_model.received_power(p, pos)
    loc1 = sn.localize(measured, base, p, table)
    c = 3.7
    loc2 = sn.localize(c * measured, c * base, c * p, table)
    assert loc1.index == loc2.index
    pred1 = prediction_values(sn.Prediction.at(table, p))
    pred2 = prediction_values(sn.Prediction.at(table, c * p))
    # entries with heavy cancellation only hold to absolute precision
    np.testing.assert_allclose(pred2, c * pred1, rtol=1e-9,
                               atol=1e-12 * pred1.max())


def test_detection_monotone_in_user_reflectance(scene, rng):
    p = scene.power_vector()
    positions = [(1.2, 1.5), (2.5, 2.5), (3.6, 2.1)]
    for pos in positions:
        peaks = []
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            s = replace(scene, user=replace(scene.user, reflectance=rho))
            model = sn.SensingModel(s)
            dp = np.abs(model.received_power(p, pos) - model.received_power(p))
            peaks.append(dp.max())
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))


def test_localize_dimension_mismatch(table, scene):
    p = scene.power_vector()
    with pytest.raises(ValueError):
        sn.localize(np.ones(3), np.ones(4), p, table)
    with pytest.raises(ValueError):
        sn.localize(np.ones(5), np.ones(5), p, table)


def test_localize_rejects_bad_power_vector(scene, table):
    base = np.ones(len(scene.sensing_pds))
    p = scene.power_vector()
    with pytest.raises(ValueError, match="7 powers but the fingerprint table has 8 LEDs"):
        sn.Prediction.at(table, p[:7])
    with pytest.raises(ValueError, match="1-D"):
        sn.Prediction.at(table, np.stack([p, p]))
    with pytest.raises(ValueError, match="9 powers but"):
        sn.localize(base, base, np.append(p, 1.0), table)


def test_non_finite_powers_are_rejected_by_name(scene, table, sensing_model):
    # before, a NaN power gave an all-NaN prediction and reading without an error
    p = scene.power_vector()
    nan = np.full(scene.num_leds, np.nan)
    with pytest.raises(ValueError, match=r"^non-finite powers \[nan(, nan){7}\] at LEDs "
                                         r"\[0, 1, 2, 3, 4, 5, 6, 7\]$"):
        sn.Prediction.at(table, nan)
    bad = p.copy()
    bad[[2, 5]] = np.inf, -np.inf
    message = r"^non-finite powers \[inf, -inf\] at LEDs \[2, 5\]$"
    base = np.ones(len(scene.sensing_pds))
    for call in (lambda: sn.Prediction.at(table, bad),
                 lambda: sn.localize(2 * base, base, bad, table),
                 lambda: sensing_model.received_power(bad),
                 lambda: sensing_model.received_power(bad, (2.5, 2.5))):
        with pytest.raises(ValueError, match=message):
            call()


def test_received_power_rejects_bad_power_vector(scene, sensing_model):
    # before, a wrong-length vector failed inside numpy's matmul, naming no LED count
    p = scene.power_vector()
    for powers, xy in ((p[:7], None), (p[:7], (2.5, 2.5)), (np.append(p, 1.0), (2.5, 2.5))):
        with pytest.raises(ValueError, match=rf"^{len(powers)} powers but the sensing model "
                                             r"has 8 LEDs$"):
            sensing_model.received_power(powers, xy)
    with pytest.raises(ValueError, match="1-D"):
        sensing_model.received_power(np.stack([p, p]))


def test_table_rejects_stencil_offsets_off_its_grid():
    # A disk of reach 10 on a 30 x 5 grid: before, the table took it, predict
    # failed inside _stencil_sum with numpy's broadcast error, and
    # save_fingerprint wrote a blob that load_fingerprint refused.  The
    # constructor refuses it now, with load_fingerprint's message.
    nx, ny = 30, 5
    k = nx * ny
    disk = [(di, dj) for di in range(-10, 11) for dj in range(-10, 11) if math.hypot(di, dj) <= 10]
    rng = np.random.default_rng(30)
    factors = (rng.uniform(0.0, 1.0, (2, k)), rng.uniform(0.0, 1.0, (k, 3)),
               rng.uniform(0.0, 1.0, (2, k)), rng.uniform(0.0, 1.0, (k, 3)))
    candidates, baseline = np.zeros((k, 2)), np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"^fingerprint stencil offset \(-8, -6\) is off the "
                                         r"30 x 5 grid$"):
        _factored_table(candidates, baseline, factors, disk, (nx, ny))
    # the offsets that reach a cell of the grid make a table that predicts
    # like the dense oracle
    table = _factored_table(candidates, baseline, factors,
                            [(di, dj) for di, dj in disk if abs(dj) < ny], (nx, ny))
    _assert_banded_prediction_is_dense(table, np.array([0.7, 1.3]))


def test_localize_rejects_prediction_that_does_not_fit(scene, table):
    base = np.ones(len(scene.sensing_pds))
    k, _, n = table.shape
    # Predictions of tables with one candidate fewer and with one PD fewer
    for other in (_column_table(np.ones((n, k - 1))), _column_table(np.ones((n - 1, k)))):
        bad = sn.Prediction.at(other, [1.0])
        with pytest.raises(ValueError, match=rf"does not fit .* \({k}, {n}\)$"):
            sn.localize(base, base, bad, table)
    # a bare (K, N) prediction is not a form localize takes
    with pytest.raises(ValueError, match="1-D"):
        sn.localize(base, base, np.abs(dense_predict(table, scene.power_vector())), table)


@pytest.mark.parametrize("nx, ny", [(1, 1), (8, 8), (10, 9), (17, 3)])
def test_prediction_tiles_cover_the_grid_once(nx, ny):
    k, n = nx * ny, 2
    columns = np.random.default_rng(nx * 100 + ny).uniform(0.0, 1.0, (n, k))
    table = _column_table(columns, (nx, ny))
    prediction = sn.Prediction.at(table, [1.0])
    tiles = prediction.tiles
    assert tiles.shape == (-(-nx // 8) * -(-ny // 8), 64)
    assert prediction.lo.shape == prediction.hi.shape == (n, len(tiles))
    assert prediction.slabs.shape == (len(tiles), n, 64)
    assert prediction.shape == (k, n)
    members = [row[row >= 0] for row in tiles]
    assert all(np.all(np.diff(row) > 0) for row in members)
    assert np.array_equal(np.sort(np.concatenate(members)), np.arange(k))
    for row in members:  # one tile's members share their grid row and column blocks
        assert len(set((row // ny) // 8)) == len(set((row % ny) // 8)) == 1
    for t, row in enumerate(tiles):  # slab t holds tile t's columns in tiles order
        real = row >= 0
        assert np.array_equal(prediction.slabs[t][:, real], columns[:, row[real]])
        assert np.all(prediction.slabs[t][:, ~real] == np.inf)
        assert np.array_equal(prediction.lo[:, t], columns[:, row[real]].min(axis=1))
        assert np.array_equal(prediction.hi[:, t], columns[:, row[real]].max(axis=1))
    # a reading so far off that every real loss overflows to +inf, as the
    # pads' do: the first candidate still wins, never a pad
    far = np.full(n, 1e200)
    with np.errstate(over="ignore"):
        loc = sn.localize(far, np.zeros(n), prediction, table)
        assert (loc.index, loc.loss) == full_scan(far, columns.T) == (0, np.inf)


def _owners(arrays):
    """The distinct arrays that own the memory of ``arrays``."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a
    return list(owners.values())


@pytest.mark.parametrize("make_scene", [default_scene, lambda: lattice_scene(5.0, 3, 0.1, 2.0)])
def test_prediction_keeps_no_full_copy(make_scene):
    s = make_scene()
    prediction = sn.Prediction.at(sn.build_fingerprint_table(s), s.power_vector())
    t, n, slots = prediction.slabs.shape
    # the slabs, the two envelopes and the tile indices, and no (K, N) copy
    kept = sum(a.nbytes for a in _owners(_arrays_reachable(prediction)))
    assert kept <= 8 * (t * n * slots + 2 * n * t) + prediction.tiles.nbytes


# ---------------------------------------------------------------------------
# stencil sum and loss scan
# ---------------------------------------------------------------------------

def _spread(rng, shape):
    """Values spread over 1e-8 to 1, so a change of summation order shows."""
    return 10.0 ** rng.uniform(-8.0, 0.0, shape)


def _disk(rng, reach):
    """The offsets within ``reach`` cells of the origin, in a seeded order."""
    disk = [(di, dj) for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)
            if math.hypot(di, dj) <= reach]
    return [disk[i] for i in rng.permutation(len(disk))]


def _walk_bands(table, powers):
    """The (start, band) pairs of table._signed_bands, each band's grid cells
    copied out of the buffer the next one reuses, after checking that the
    band is padded to whole tiles with NaN past the grid's edges."""
    nx, ny = table.grid_shape
    walked = []
    for start, band in table._signed_bands(np.asarray(powers)):
        assert len(band) % sn._TILE == 0 and band.shape[1] == -(-ny // sn._TILE) * sn._TILE
        cells = band[:nx - start, :ny]
        assert np.isnan(band).sum() == band.size - cells.size
        walked.append((start, cells.copy()))
    return walked


@pytest.mark.parametrize("nx, ny, reach, rows", [
    (11, 7, 4, 3),    # nx != ny, 3 does not divide 11, stencil 9 rows wide
    (7, 11, 2, 1),
    (6, 6, 1, 4),
    (5, 9, 3, 50),    # one block holds the whole grid
])
def test_stencil_sum_matches_per_cell_loop(monkeypatch, rng, nx, ny, reach, rows):
    # a one-LED table with no user term predicts minus the stencil sum of its
    # floor collector at unit power, bit for bit
    n = 3
    cells = _spread(rng, (nx * ny, n)) * rng.choice([-1.0, 1.0], (nx * ny, n))
    offsets = _disk(rng, reach)  # any order is kept
    factors = (np.zeros((1, nx * ny)), np.zeros((nx * ny, n)), np.ones((1, nx * ny)), cells)
    table = _factored_table(np.zeros((nx * ny, 2)), np.zeros((1, n)), factors, offsets, (nx, ny))
    monkeypatch.setattr(sn, "_STENCIL_BLOCK_BYTES", rows * ny * n * 8)
    want = np.zeros_like(cells)
    for x in range(nx):
        for y in range(ny):
            for di, dj in offsets:
                if 0 <= x + di < nx and 0 <= y + dj < ny:
                    want[x * ny + y] += cells[(x + di) * ny + y + dj]
    # bands of one tile row (the stencil reaching across a band's edges),
    # and the whole grid in one band
    for band_bytes, starts in ((1, list(range(0, nx, sn._TILE))), (1 << 60, [0])):
        monkeypatch.setattr(sn, "_BAND_BYTES", band_bytes)
        bands = _walk_bands(table, [1.0])
        assert [start for start, _ in bands] == starts
        got = np.concatenate([band for _, band in bands]).reshape(nx * ny, n)
        assert np.array_equal(-got, want)


def _expected_prediction(values, grid_shape):
    """slabs, lo, hi and tiles of a Prediction of the (K, N) ``values``,
    tile by tile from Python loops over the grid: slot (a, b) of a tile, at
    a * _TILE + b, holds the cell a rows and b columns from its corner, or
    the pad -1 off the grid."""
    nx, ny = grid_shape
    side = sn._TILE
    tiles = [[(tx + a) * ny + ty + b if tx + a < nx and ty + b < ny else -1
              for a in range(side) for b in range(side)]
             for tx in range(0, nx, side) for ty in range(0, ny, side)]
    tiles = np.array(tiles)
    real = (tiles >= 0)[:, None, :]
    slabs = np.where(real, values[tiles].transpose(0, 2, 1), np.inf)
    lo = np.where(real, slabs, np.inf).min(axis=2).T
    hi = np.where(real, slabs, -np.inf).max(axis=2).T
    return slabs, lo, hi, tiles


def _assert_banded_prediction_is_dense(table, powers):
    """The signed bands and Prediction.at at ``powers`` hold dense_predict's
    floats."""
    signed = dense_predict(table, powers)
    bands = np.concatenate([band for _, band in _walk_bands(table, powers)])
    assert np.array_equal(bands.reshape(signed.shape), signed)
    prediction = sn.Prediction.at(table, powers)
    expected = _expected_prediction(np.abs(signed), table.grid_shape)
    for name, want in zip(("slabs", "lo", "hi", "tiles"), expected):
        assert np.array_equal(getattr(prediction, name), want), name
    assert prediction.shape == signed.shape


@pytest.mark.parametrize("grid, reach, band_bytes, bands", [
    ((11, 7), 2, 1, 2),          # ragged tiles along both axes, a band per tile row
    ((7, 11), 2, 1, 1),
    ((30, 21), 10, 1, 4),        # the stencil reaches past a whole band on either side
    ((21, 19), 3, 1 << 60, 1),   # the whole grid in one band
], ids=["11x7", "7x11", "reach-past-a-band", "one-band"])
def test_banded_prediction_matches_dense_oracle(monkeypatch, grid, reach, band_bytes, bands):
    rng = np.random.default_rng(grid[0] * 100 + grid[1])
    nx, ny = grid
    k, m, n = nx * ny, 3, 4
    factors = [_spread(rng, shape) for shape in ((m, k), (k, n), (m, k), (k, n))]
    table = _factored_table(np.zeros((k, 2)), np.zeros((m, n)), factors, _disk(rng, reach), grid)
    monkeypatch.setattr(sn, "_BAND_BYTES", band_bytes)
    powers = rng.uniform(0.5, 2.0, m)
    assert len(_walk_bands(table, powers)) == bands
    _assert_banded_prediction_is_dense(table, powers)


def test_default_scene_predicts_in_one_band(scene, table):
    assert len(_walk_bands(table, scene.power_vector())) == 1
    _assert_banded_prediction_is_dense(table, scene.power_vector())


def test_loop_large_banded_prediction_matches_dense_oracle(loop_large):
    s, _, _, table = loop_large
    assert len(_walk_bands(table, s.power_vector())) > 1
    p_min, p_max = s.power_bounds()
    for powers in (p_min, p_max, s.power_vector(),
                   np.random.default_rng(27).uniform(p_min, p_max)):
        _assert_banded_prediction_is_dense(table, powers)


def test_prediction_memory_stays_within_a_band_allowance(monkeypatch, loop_large):
    # At its traced peak, forming a loop-large Prediction may hold what it
    # keeps plus four band budgets: a band's stencil sums, its floor term
    # with the stencil's reach and the two (K,) power-weighted emitters.
    # With the whole grid in one band it holds (K, N) arrays and overshoots.
    s, _, _, table = loop_large

    def traced_peak():
        tracemalloc.start()
        try:
            prediction = sn.Prediction.at(table, s.power_vector())
            return tracemalloc.get_traced_memory()[1], prediction
        finally:
            tracemalloc.stop()

    peak, prediction = traced_peak()
    kept = sum(a.nbytes for a in _owners(_arrays_reachable(prediction)))
    bound = kept + 4 * sn._BAND_BYTES
    assert peak <= bound
    monkeypatch.setattr(sn, "_BAND_BYTES", 1 << 60)
    assert traced_peak()[0] > bound


def _readings_at_the_bounds(s, model):
    """p_min, p_max and seeded powers, each with three readings at seeded
    points under 1e-3 relative noise; localize is given the powers."""
    p_min, p_max = s.power_bounds()
    rng = np.random.default_rng(11)
    for p in (p_min, p_max, rng.uniform(p_min, p_max)):
        readings = []
        for _ in range(3):
            measured = model.received_power(p, rng.uniform(0.0, s.room.size_x, 2))
            readings.append(measured * (1.0 + 1e-3 * rng.standard_normal(len(measured))))
        yield p, p, readings


def _readings_of_the_plan(s, model, plan):
    """Each mode's powers in the room plan, each with 100 readings under the
    scene's noise: 68 at seeded points, 16 at the corners and 16 along the
    walls; localize is given the plan's prediction."""
    size = s.room.size_x
    rng = np.random.default_rng(21)
    walls = (0.0, 1e-3, size - 1e-3, size)
    for mode in ct.Mode:
        powers = plan.allocations[mode][0]
        sigma = s.controller.noise_rel_sigma * model.received_power(powers)
        along = rng.uniform(0.0, size, 8)
        points = [*rng.uniform(0.0, size, (68, 2)), *((x, y) for x in walls for y in walls),
                  *zip(walls * 2, along), *zip(along, walls * 2)]
        yield powers, plan.predictions[mode], [
            model.received_power(powers, xy) + rng.standard_normal(len(sigma)) * sigma
            for xy in points]


@pytest.mark.parametrize("room", ["default_scene", "10m-25led", "loop-large"])
def test_localize_matches_full_scan(request, room):
    if room == "loop-large":
        s, partition, model, table = request.getfixturevalue("loop_large")
        readings = _readings_of_the_plan(s, model, ct.room_plan(s, partition, table))
    else:
        s = default_scene() if room == "default_scene" else lattice_scene(*LADDER[room])
        model = sn.SensingModel(s)
        table = sn.build_fingerprint_table(s, model)
        readings = _readings_at_the_bounds(s, model)
    for powers, predicted, measured_at in readings:
        values = np.abs(dense_predict(table, powers))
        baseline = model.received_power(powers)
        for measured in measured_at:
            loc = sn.localize(measured, baseline, predicted, table)
            assert (loc.index, loc.loss) == full_scan(np.abs(measured - baseline), values)


def _factored_table(candidates, baseline, factors, offsets, grid_shape):
    """A table from its four factors (user emitter and collector, then floor)."""
    return sn.FingerprintTable(candidates, baseline, *factors, tuple(offsets), grid_shape)


def _column_table(columns, grid_shape=None):
    """A one-LED table whose prediction at unit power is ``columns``, (N, K),
    bit for bit: the user factors hold the columns, the floor factors zeros.
    Its candidates lie on a ``grid_shape`` grid, (K, 1) unless given."""
    n, k = columns.shape
    factors = (np.ones((1, k)), columns.T, np.zeros((1, k)), np.zeros((k, n)))
    return _factored_table(np.arange(2.0 * k).reshape(k, 2), np.zeros((1, n)), factors,
                           ((0, 0),), grid_shape or (k, 1))


def test_localize_exact_tie_goes_to_lower_index():
    # candidates 1 and 3 miss the reading by 0.25 on different PDs: equal
    # losses, summed at different positions
    rows = [[2.0, 2.0, 2.0], [1.25, 2.0, 0.5], [0.0, 0.0, 0.0], [1.0, 2.25, 0.5], [3.0, 1.0, 1.0]]
    table = _column_table(np.array(rows).T)
    result = sn.localize(np.array([1.0, 2.0, 0.5]), np.zeros(3), np.array([1.0]), table)
    assert result.loss == 0.0625
    assert result.index == 1 and result.position == (2.0, 3.0)


@pytest.fixture()
def rescored(monkeypatch):
    """The candidates of each _tile_losses call, in call order."""
    calls = []
    real = sn._tile_losses

    def spy(actual, prediction, tiles):
        members = prediction.tiles[tiles].ravel()
        calls.append(np.sort(members[members >= 0]))
        return real(actual, prediction, tiles)

    monkeypatch.setattr(sn, "_tile_losses", spy)
    return calls


def test_pruned_match_keeps_tie_with_the_bound_argmin(rescored):
    # A 16 x 1 grid holds the 8 x 1 tiles 0-7 and 8-15.  Every candidate of
    # the first misses the reading by 0.25 on PD 0, so that tile's bound
    # equals their loss, 0.0625.  The second tile's envelope holds the
    # reading (bound 0), so it is the bound's argmin, and its candidate 11,
    # which misses by 0.25 on PD 4, caps the minimum at 0.0625.  Candidate 0
    # ties it and wins only because the bound is compared with <=.
    actual = np.array([1.0, 2.0, 0.5, 3.0, 0.125])
    columns = np.repeat((actual + [0.25, 0.0, 0.0, 0.0, 0.0])[:, None], 16, axis=1)
    columns[:, 8:] = actual[:, None] + 2.0
    columns[:, 9] = actual - 0.125
    columns[:, 11] = actual + [0.0, 0.0, 0.0, 0.0, 0.25]
    result = sn.localize(actual, np.zeros(5), np.array([1.0]), _column_table(columns))
    assert (result.index, result.loss) == (0, 0.0625)
    cap, survivors = rescored
    assert cap.tolist() == list(range(8, 16))
    assert survivors.tolist() == list(range(16))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 25])
def test_pruned_match_equals_full_scan_on_random_tables(rescored, n):
    rng = np.random.default_rng(100 + n)
    grid = (21, 19)  # 3 x 3 tiles, the last row and column of them ragged
    k, trials = grid[0] * grid[1], 80
    tiles = [row[row >= 0] for row in sn.Prediction.at(_column_table(np.zeros((n, k)), grid),
                                                        [1.0]).tiles]
    for trial in range(trials):
        # coarse values make exact loss ties common
        columns = np.round(8.0 * rng.uniform(0.0, 1.0, (n, k))) / 8.0
        kind = trial % 4
        if kind == 0:    # near one candidate: the bound prunes
            actual = np.abs(columns[:, rng.integers(k)] + 0.01 * rng.standard_normal(n))
        elif kind == 1:  # every tile spans [0, 1] on every PD: no bound prunes
            for members in tiles:
                columns[:, members[0]], columns[:, members[-1]] = 0.0, 1.0
            actual = rng.uniform(0.0, 1.0, n)
        elif kind == 2:  # a reading unrelated to the table
            actual = rng.uniform(0.0, 1.0, n)
        else:            # an exact tie whose lower index is not in the bound's argmin tile
            actual = columns[:, 0] + 1.0
            loud, quiet = rng.choice(n, 2, replace=False)
            columns += 2.0
            # every member of the first tile: bound = loss = 0.0625
            columns[:, tiles[0]] = (actual + 0.25 * (np.arange(n) == loud))[:, None]
            # the last tile holds the reading (bound 0) and a candidate that loses 0.0625
            high, low = rng.choice(tiles[-1], 2, replace=False)
            columns[:, high] = actual + 0.25 * (np.arange(n) == quiet)
            columns[:, low] = actual - 0.5
        table = _column_table(columns, grid)
        loc = sn.localize(actual, np.zeros(n), np.array([1.0]), table)
        want = full_scan(actual, np.abs(dense_predict(table, [1.0])))
        assert (loc.index, loc.loss) == want
    survivors = [len(keep) for keep in rescored[1::2]]
    assert len(survivors) == trials
    assert min(survivors) < k / 4  # the bound pruned
    assert max(survivors) == k     # and a flat table kept every candidate


_RAGGED = st.integers(1, 40).filter(lambda side: side % 8 != 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@example(nx=1, ny=1, n=12, kind="far", seed=0)  # one candidate
@example(nx=9, ny=1, n=25, kind="near", seed=1)  # a one-candidate edge tile
@example(nx=17, ny=9, n=1, kind="flat", seed=2)
@given(nx=_RAGGED, ny=st.one_of(st.just(1), _RAGGED), n=st.integers(1, 25),
       kind=st.sampled_from(["near", "far", "flat"]), seed=st.integers(0, 2**32 - 1))
def test_tile_match_equals_full_scan_on_ragged_grids(nx, ny, n, kind, seed):
    rng = np.random.default_rng(seed)
    k = nx * ny
    columns = np.round(8.0 * rng.uniform(0.0, 1.0, (n, k))) / 8.0  # exact ties are common
    if kind == "near":
        actual = np.abs(columns[:, rng.integers(k)] + 0.01 * rng.standard_normal(n))
    elif kind == "far":
        actual = rng.uniform(2.0, 3.0, n)
    else:
        actual = np.full(n, rng.integers(1, 9) / 8.0)
    table = _column_table(columns, (nx, ny))
    loc = sn.localize(actual, np.zeros(n), np.array([1.0]), table)
    assert (loc.index, loc.loss) == full_scan(actual, np.abs(dense_predict(table, [1.0])))


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def _small_table(rng, nx=8, ny=5, m=3, n=4):
    k = nx * ny
    factors = (rng.standard_normal((m, k)), rng.standard_normal((k, n)),
               rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    return _factored_table(rng.uniform(0, 5, (k, 2)), rng.uniform(0, 1, (m, n)), factors,
                           ((0, 0), (1, 0), (0, -1), (-1, 1)), (nx, ny))


def test_predict_memo_hits_on_equal_powers(rng):
    # equal powers give equal predictions, each formed anew: the table keeps nothing
    t = _small_table(rng)
    state = dict(vars(t))
    p = np.array([1.0, 2.5, 0.75])
    first = sn.Prediction.at(t, p)
    for again in (p, p.copy(), [1.0, 2.5, 0.75]):
        got = sn.Prediction.at(t, again)
        assert got is not first and not np.shares_memory(got.slabs, first.slabs)
        for name in ("slabs", "lo", "hi", "tiles"):
            assert np.array_equal(getattr(got, name), getattr(first, name)), name
    assert np.array_equal(prediction_values(first), np.abs(dense_predict(t, p)))
    assert vars(t) == state


def test_predict_memo_never_stale_and_bounded(rng):
    t = _small_table(rng)
    state = dict(vars(t))
    vectors = [rng.uniform(0.1, 3.0, 3) for _ in range(24)]
    # revisit vectors out of order: each prediction is the factor prediction of its own powers
    for i in list(range(len(vectors))) + [0, 5, 1, 5, 11, 0, 2]:
        p = vectors[i]
        assert np.array_equal(prediction_values(sn.Prediction.at(t, p)),
                              np.abs(dense_predict(t, p)))
        assert vars(t) == state  # nothing is kept, so nothing grows
    # a vector one ulp away is predicted from its own powers
    nudged = vectors[2].copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert np.array_equal(prediction_values(sn.Prediction.at(t, nudged)),
                          np.abs(dense_predict(t, nudged)))


def test_predictions_and_table_read_only(rng, table):
    t = _small_table(rng)
    got = sn.Prediction.at(t, np.ones(3))
    for arr in (got.slabs, got.lo, got.hi, got.tiles, t.candidates, t.baseline, t.deltas,
                table.candidates, table.baseline, table.deltas):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        got.slabs[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        t.deltas[0, 0, 0] = 1.0
    loaded = sn.load_fingerprint(sn.save_fingerprint(table))
    for arr in _arrays_reachable(loaded) + [loaded.deltas]:
        assert not arr.flags.writeable


def test_kept_arrays_read_only_through_their_base(scene, sensing_model, table):
    # before, slabs.base and tiles.base stayed writable, so a write through
    # them changed a kept prediction; a write to baseline_gains changed every reading
    got = sn.Prediction.at(table, scene.power_vector())
    assert got.slabs.base is not None and got.tiles.base is not None
    model = [sensing_model.centers, sensing_model.emitter, sensing_model.collector,
             sensing_model.baseline_gains]
    for arr in _arrays_reachable(got) + _arrays_reachable(table) + model:
        while isinstance(arr, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
            arr = arr.base


@pytest.mark.parametrize("reloaded", [False, True])
def test_memoized_prediction_read_only_through_every_view(table, reloaded):
    t = sn.load_fingerprint(sn.save_fingerprint(table)) if reloaded else table
    got = sn.Prediction.at(t, 2.0 * np.ones(t.shape[1]))
    assert got.shape == (t.shape[0], t.shape[2])
    for view in (got.slabs, got.slabs.T, got.lo, got.lo.T, got.hi, got.hi.T, got.tiles):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_SECTIONS = ("baseline", "candidates", "user_emitter", "user_collector",
             "floor_emitter", "floor_collector")


def _section_starts(table):
    """Byte offset of each float64 section of the table's LFPT v2 blob."""
    k, m, n = table.shape
    sizes = (m * n, 2 * k, m * k, k * n, m * k, k * n)
    return dict(zip(_SECTIONS, 30 + 8 * np.cumsum((0,) + sizes[:-1])))


def test_fingerprint_round_trip(table):
    blob = sn.save_fingerprint(table)
    again = sn.load_fingerprint(blob)
    assert again.shape == table.shape
    assert np.array_equal(again.candidates, table.candidates)
    assert np.array_equal(again.baseline, table.baseline)
    for name in sn._FACTORS:
        assert np.array_equal(getattr(again, name), getattr(table, name))
    assert again.offsets == table.offsets
    assert again.grid_shape == table.grid_shape
    assert np.array_equal(again.deltas, table.deltas)
    assert sn.save_fingerprint(again) == blob


@pytest.mark.parametrize("make_scene", [
    default_scene, pytest.param(lambda: lattice_scene(*LOOP_LARGE), id="loop-large")])
def test_reloaded_table_predicts_bitwise_like_built(make_scene):
    s = make_scene()
    table = sn.build_fingerprint_table(s)
    loaded = sn.load_fingerprint(sn.save_fingerprint(table))
    p_min, p_max = s.power_bounds()
    rng = np.random.default_rng(8)
    for p in (s.power_vector(), p_min, p_max, *rng.uniform(p_min, p_max, (3, s.num_leds))):
        again, fresh = sn.Prediction.at(loaded, p), sn.Prediction.at(table, p)
        for name in ("slabs", "lo", "hi", "tiles"):
            assert np.array_equal(getattr(again, name), getattr(fresh, name)), name


def test_fingerprint_header_layout(table):
    import struct
    blob = sn.save_fingerprint(table)
    assert blob[:4] == b"LFPT"
    version, = struct.unpack_from("<H", blob, 4)
    k, m, n, s, nx, ny = struct.unpack_from("<6I", blob, 6)
    assert version == 2
    assert (k, m, n) == table.deltas.shape
    assert (nx, ny) == (50, 50) and k == nx * ny
    offsets = table.offsets
    assert s == len(offsets) == 29  # a 0.3 m footprint on a 0.1 m grid
    assert len(blob) == 30 + 8 * (m * n + 2 * k + 2 * k * (m + n)) + 8 * s
    starts = _section_starts(table)
    arrays = (table.baseline, table.candidates,
              *(getattr(table, name) for name in sn._FACTORS))
    for name, arr in zip(_SECTIONS, arrays):
        assert np.array_equal(np.frombuffer(blob, dtype="<f8", count=arr.size,
                                            offset=int(starts[name])).reshape(arr.shape), arr)
    stencil = np.frombuffer(blob, dtype="<i4", offset=len(blob) - 8 * s).reshape(s, 2)
    assert [tuple(o) for o in stencil.tolist()] == list(offsets)


def test_fingerprint_rejects_garbage(table):
    with pytest.raises(ValueError, match="magic"):
        sn.load_fingerprint(b"NOPE" + b"\x00" * 40)
    blob = sn.save_fingerprint(table)
    with pytest.raises(ValueError, match="bytes"):
        sn.load_fingerprint(blob[:-8])
    with pytest.raises(ValueError, match="bytes"):
        sn.load_fingerprint(blob + bytes(8))


@pytest.mark.parametrize("section", _SECTIONS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fingerprint_rejects_non_finite_values(table, section, bad):
    start = int(_section_starts(table)[section])
    blob = bytearray(sn.save_fingerprint(table))
    blob[start + 8:start + 16] = np.array(bad, dtype="<f8").tobytes()
    with pytest.raises(ValueError, match=f"^non-finite value in fingerprint {section}$"):
        sn.load_fingerprint(bytes(blob))


@pytest.mark.parametrize("blob", [b"LFPT\x02", b"LFPT\x02\x00", b"LFPT\x02\x00" + bytes(10),
                                  b"LFPT\x02\x00" + bytes(23)],
                         ids=["5-bytes", "6-bytes", "16-bytes", "29-bytes"])
def test_fingerprint_rejects_truncated_header(blob):
    with pytest.raises(ValueError, match=f"^fingerprint blob is {len(blob)} bytes, "
                                         "expected at least 30$"):
        sn.load_fingerprint(blob)


def test_fingerprint_rejects_version_1():
    # a whole v1 blob: header, baseline, candidates and K * M * N deltas
    import struct
    k, m, n = 4, 1, 2
    blob = b"LFPT" + struct.pack("<H3I", 1, k, m, n) + bytes(8 * (m * n + 2 * k + k * m * n))
    with pytest.raises(ValueError, match="^unsupported fingerprint version 1$"):
        sn.load_fingerprint(blob)


def _with_header(blob, **fields):
    """``blob`` with some u32 header fields (K, M, N, S, nx, ny) replaced."""
    import struct
    names = ("k", "m", "n", "s", "nx", "ny")
    values = dict(zip(names, struct.unpack_from("<6I", blob, 6)), **fields)
    return blob[:6] + struct.pack("<6I", *(values[name] for name in names)) + blob[30:]


def test_fingerprint_rejects_grid_that_does_not_hold_k(table):
    blob = sn.save_fingerprint(table)
    with pytest.raises(ValueError, match="^fingerprint has 2500 candidates for a 50 x 49 grid$"):
        sn.load_fingerprint(_with_header(blob, ny=49))
    # nx * ny = K with the axes swapped or stretched: the offsets still fit
    assert sn.load_fingerprint(_with_header(blob, nx=25, ny=100)).shape == table.shape


def _empty_blob(k, m, n, nx, ny):
    """A whole, well-sized LFPT v2 blob of zeros with no stencil offsets."""
    import struct
    return (b"LFPT" + struct.pack("<H6I", 2, k, m, n, 0, nx, ny)
            + bytes(8 * (m * n + 2 * k + 2 * k * (m + n))))


@pytest.mark.parametrize("k, m, n, nx, ny, count", [
    (0, 2, 3, 0, 0, "0 candidates"),
    (0, 2, 3, 0, 4, "0 candidates"),
    (4, 0, 3, 2, 2, "0 LEDs"),
    (4, 2, 0, 2, 2, "0 PDs"),
], ids=["no-candidates", "no-candidate-rows", "no-leds", "no-pds"])
def test_fingerprint_rejects_empty_dimension(k, m, n, nx, ny, count):
    # a table without candidates, LEDs or PDs can neither predict nor match
    with pytest.raises(ValueError, match=f"^fingerprint has {count}$"):
        sn.load_fingerprint(_empty_blob(k, m, n, nx, ny))


@pytest.mark.parametrize("offset", [(50, 0), (-50, 0), (0, 50), (0, -50), (-2**31, 0)],
                         ids=["di-nx", "di-minus-nx", "dj-ny", "dj-minus-ny", "di-int32-min"])
def test_fingerprint_rejects_offset_off_the_grid(table, offset):
    blob = bytearray(sn.save_fingerprint(table))
    blob[-8:] = np.array(offset, dtype="<i4").tobytes()
    with pytest.raises(ValueError, match=rf"^fingerprint stencil offset \({offset[0]}, "
                                         rf"{offset[1]}\) is off the 50 x 50 grid$"):
        sn.load_fingerprint(bytes(blob))


_SMALL_BLOB = sn.save_fingerprint(sn.build_fingerprint_table(
    lattice_scene(1.0, 1, 0.25, 2.0)))  # 846 bytes: K = 16, M = N = 1, S = 5
_BLOB_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(_SMALL_BLOB) - 1), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, len(_SMALL_BLOB))),
    st.tuples(st.just("word"), st.integers(0, 6),  # version, then K, M, N, S, nx, ny
              st.one_of(st.sampled_from((0, 1, 2, 4, 5, 16, 2**16 - 1, 2**32 - 1)),
                        st.integers(0, 2**32 - 1))),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
)


def _mutated_blob(edits):
    """_SMALL_BLOB with each edit applied: a byte xor-ed, the blob cut, a
    header word rewritten (the u16 version is taken mod 2**16) or bytes
    appended.  Offsets past a cut blob's end wrap."""
    blob = bytearray(_SMALL_BLOB)
    for kind, *rest in edits:
        if kind == "flip" and blob:
            blob[rest[0] % len(blob)] ^= rest[1]
        elif kind == "cut":
            del blob[rest[0]:]
        elif kind == "word" and len(blob) >= 30:
            at, fmt = (4, "<H") if rest[0] == 0 else (2 + 4 * rest[0], "<I")
            struct.pack_into(fmt, blob, at, rest[1] % 2 ** (8 * struct.calcsize(fmt)))
        elif kind == "append":
            blob += rest[0]
    return bytes(blob)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@example(edits=[("flip", 830, 0x80)])  # a stencil offset (0, 1) read as (128, 1): off the grid
@example(edits=[("word", 5, 2), ("word", 6, 8)])  # the 4 x 4 grid read as 2 x 8
@example(edits=[("cut", 29)])
@given(edits=st.lists(_BLOB_EDITS, min_size=1, max_size=4))
def test_load_fingerprint_loads_or_refuses_mutated_blobs(edits):
    # a blob either loads into a table that Prediction.at takes or is
    # refused with one ValueError; no other exception escapes
    try:
        table = sn.load_fingerprint(_mutated_blob(edits))
    except ValueError as exc:
        assert str(exc).splitlines() == [str(exc)]
        return
    with np.errstate(over="ignore", invalid="ignore"):  # flipped exponents overflow
        prediction = sn.Prediction.at(table, np.ones(table.shape[1]))
    assert prediction.slabs.shape[1] == table.shape[2]


# sha256 of the LFPT v2 bytes of default_scene(seed)'s built table.
@pytest.mark.parametrize("seed, digest", [
    (0, "aa4b19c0691e626606fd5ebc9d7fda40ca522969513f648dd05dbe766a608d61"),
    (14, "f3066e70d2ff02d8dcfe3cdbe58bb484f7fb635389514785872553e3780ceeb7"),
    (57, "8857f2fe897df1de7eedf26a3f2a7a659cfdeeed1b57fa0fd1d2831baeb7795a"),
], ids=["0", "14", "57"])
def test_fingerprint_bytes_pinned(seed, digest):
    blob = sn.save_fingerprint(sn.build_fingerprint_table(default_scene(seed)))
    assert hashlib.sha256(blob).hexdigest() == digest


# sha256 of table.deltas.tobytes() for default_scene(seed), taken while the
# LFPT v1 file still stored the deltas: the dense expansion of the factors
# must stay bit-identical to those files' deltas.
@pytest.mark.parametrize("seed, digest", [
    (0, "39543ae09034b8d3d698a85181d6c224fbf2ce4e6950d5c620d734314e4a3bb4"),
    (14, "b53b3c305d22cfa41372e642e25b4a4c6200246b99ea0784da487c3e9463c080"),
    (57, "20db336a9a61a06159c88382f48b9281e5650e0a20b3082e3fbfc92c3557e141"),
], ids=["0", "14", "57"])
def test_fingerprint_deltas_pinned(seed, digest):
    table = sn.build_fingerprint_table(default_scene(seed))
    assert hashlib.sha256(table.deltas.tobytes()).hexdigest() == digest


def _reloaded_table():
    return sn.load_fingerprint(sn.save_fingerprint(sn.build_fingerprint_table(default_scene(3))))


@pytest.mark.parametrize("make_table", [
    lambda: sn.build_fingerprint_table(default_scene()),
    lambda: sn.build_fingerprint_table(lattice_scene(6.0, 3, 0.1, 2.0)),
    _reloaded_table,
], ids=["default", "lattice", "reloaded"])
def test_deltas_equal_dense_gain_tensors(make_table):
    # deltas stacks predict at each LED's unit power vector; the dense
    # construction from (M, K, N) outer products must give the same bits
    table = make_table()
    deltas = table.deltas
    assert deltas.shape == table.shape and not deltas.flags.writeable
    assert deltas.tobytes() == dense_deltas(table).tobytes()
