import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from isci import sensing as sn
from isci.photometry import concentrator_gain, lambertian_order
from isci.scene import SurfaceGrid, UserModel, default_scene, scene_from_dict


def _mixed_scene():
    """Default layout with a different FOV per PD and half-angle per LED."""
    s = default_scene()
    pds = tuple(replace(pd, fov_deg=f)
                for pd, f in zip(s.sensing_pds, (30, 45, 60, 75, 50, 40, 85, 70)))
    leds = tuple(replace(led, half_power_angle_deg=h)
                 for led, h in zip(s.leds, (30, 45, 60, 75, 50, 40, 65, 70)))
    return replace(s, sensing_pds=pds, leds=leds)


def _lattice_scene(size=10.0, per_side=5, pitch=0.1, spacing=2.0):
    """Square room with an n x n LED lattice and one PD beside each LED."""
    first = (size - (per_side - 1) * spacing) / 2
    xs = [first + i * spacing for i in range(per_side)]
    return scene_from_dict({
        "room": {"size_x": size, "size_y": size},
        "grid": {"pitch": pitch},
        "leds": [{"position": [x, y, 3.0]} for x in xs for y in xs],
        "sensing_pds": [{"position": [x + 0.1, y, 3.0]} for x in xs for y in xs],
    })


# ---------------------------------------------------------------------------
# scalar channel gains
# ---------------------------------------------------------------------------

def test_element_gain_outside_fov_is_zero(scene):
    led = scene.leds[0]
    pd = replace(scene.sensing_pds[0], fov_deg=20.0)
    # element far to the side of the PD: incidence angle way past 20 deg
    far = (pd.position[0] + 4.0, pd.position[1])
    assert sn.nlos_element_gain(led, far, 0.01, 0.8, pd) == 0.0


def test_element_gain_zero_reflectance(scene):
    led, pd = scene.leds[0], scene.sensing_pds[0]
    assert sn.nlos_element_gain(led, (2.0, 2.0), 0.01, 0.0, pd) == 0.0


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
    got = sn.nlos_element_gain(led, elem, area, rho, pd)
    assert abs(got - expected) <= 1e-15 * expected


def test_element_gain_matches_tensor(scene, sensing_model, rng):
    for _ in range(20):
        i = int(rng.integers(0, scene.num_leds))
        j = int(rng.integers(0, scene.num_sensing_pds))
        k = int(rng.integers(0, scene.grid.count))
        ref = sn.nlos_element_gain(scene.leds[i], scene.grid.centers()[k],
                                   scene.grid.cell_area, scene.grid.reflectance[k],
                                   scene.sensing_pds[j])
        assert abs(sensing_model.element_gains[i, k, j] - ref) <= 1e-12 * max(ref, 1e-30)


def test_user_gain_zero_reflectance(scene):
    led, pd = scene.leds[0], scene.sensing_pds[0]
    user = replace(scene.user, reflectance=0.0)
    assert sn.nlos_user_gain(led, (2.5, 2.5), user, pd) == 0.0


def test_user_gain_outside_fov(scene):
    led = scene.leds[0]
    pd = replace(scene.sensing_pds[0], fov_deg=15.0)
    far = (pd.position[0] + 4.0, pd.position[1])
    assert sn.nlos_user_gain(led, far, scene.user, pd) == 0.0


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
        floor = sn.nlos_element_gain(led, (ex, ey), area, rho, pd)
        raised = sn.nlos_user_gain(led, (ex, ey), user, pd)
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


def test_received_power_wrapper_matches_model(scene, sensing_model):
    p = scene.power_vector()
    np.testing.assert_allclose(sn.received_sensing_power(scene, p, (2.1, 3.3)),
                               sensing_model.received_power(p, (2.1, 3.3)), rtol=1e-12)


@pytest.mark.parametrize("make_scene", [default_scene, _mixed_scene])
def test_received_power_bitwise_matches_dense_reference(make_scene):
    # the reference builds the full (M, K, N) tensor with one einsum, gathers
    # the occluded cells by a full scan and sums them
    s = make_scene()
    model = sn.SensingModel(s)
    kernel = model._kernel
    centers = s.grid.centers()
    rho_area = s.grid.reflectance_array() * s.grid.cell_area
    element = np.einsum("i,ik,k,kj->ikj", kernel.front, kernel._emitter(centers, 0.0),
                        rho_area, kernel._collector(centers, 0.0))
    baseline = element.sum(axis=1)
    assert np.array_equal(model.baseline_gains, baseline)
    assert np.array_equal(model.element_gains, element)
    user = s.user
    rng = np.random.default_rng(3)
    p = s.power_vector() * rng.uniform(0.5, 1.5, s.num_leds)
    for xy in rng.uniform(-0.2, s.room.size_x + 0.2, (100, 2)):
        pt = xy[None, :]
        user_gain = np.einsum("i,ik,k,kj->ikj", kernel.front,
                              kernel._emitter(pt, user.patch_height_m),
                              np.full(1, user.reflectance * user.patch_area_m2),
                              kernel._collector(pt, user.patch_height_m))[:, 0, :]
        occ = (np.flatnonzero(np.hypot(centers[:, 0] - xy[0], centers[:, 1] - xy[1])
                              <= user.footprint_radius_m + sn._OCCLUSION_TOL)
               if s.room.contains_xy(*xy) else [])
        expected = p @ (baseline - element[:, occ, :].sum(axis=1) + user_gain)
        assert np.array_equal(model.received_power(p, xy), expected), xy


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
    assert table.deltas.shape == (scene.grid.count, scene.num_leds, scene.num_sensing_pds)
    assert table.baseline.shape == (scene.num_leds, scene.num_sensing_pds)
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
    sn.predict_power_deltas(table, scene.power_vector())
    full = scene.grid.count * scene.num_leds * scene.num_sensing_pds
    for _ in range(2):
        arrays = _arrays_reachable(model) + _arrays_reachable(table)
        assert arrays and all(a.size < full for a in arrays)
        assert table.deltas.size == full  # built on request, not kept


@pytest.mark.parametrize("make_scene", [default_scene, _lattice_scene])
def test_factored_predictions_match_dense_contraction(make_scene):
    s = make_scene()
    table = sn.build_fingerprint_table(s)
    deltas = table.deltas
    p_min, p_max = s.power_bounds()
    rng = np.random.default_rng(5)
    for p in (s.power_vector(), p_min, p_max, rng.uniform(p_min, p_max)):
        got = sn.predict_power_deltas(table, p)
        dense = np.abs(np.einsum("kij,i->kj", deltas, p))
        assert np.abs(got - dense).max() <= 1e-14 * got.max()


def test_localize_exact_at_every_candidate_mixed_fov():
    s = _mixed_scene()
    model = sn.SensingModel(s)
    table = sn.build_fingerprint_table(s, model)
    p = s.power_vector()
    base = model.received_power(p)
    missed = [k for k, xy in enumerate(table.candidates)
              if sn.localize(model.received_power(p, xy), base, p, table).index != k]
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
        assert loc.losses[k] <= 1e-30


def test_localize_below_threshold_not_detected(scene, table):
    p = scene.power_vector()
    base = np.ones(scene.num_sensing_pds) * 1e-4
    loc = sn.localize(base, base, p, table)
    assert not loc.detected and loc.position is None


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
    pred1 = sn.predict_power_deltas(table, p)
    pred2 = sn.predict_power_deltas(table, c * p)
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
    base = np.ones(scene.num_sensing_pds)
    p = scene.power_vector()
    fresh = sn.FingerprintTable(table.candidates, table.baseline, table.deltas)
    with pytest.raises(ValueError, match="7 powers but the fingerprint table has 8 LEDs"):
        sn.predict_power_deltas(fresh, p[:7])
    with pytest.raises(ValueError, match="1-D"):
        sn.predict_power_deltas(fresh, np.stack([p, p]))
    with pytest.raises(ValueError, match="9 powers but"):
        sn.localize(base, base, np.append(p, 1.0), fresh)
    assert fresh._predictions == {}


# ---------------------------------------------------------------------------
# stencil sum and loss scan
# ---------------------------------------------------------------------------

def _spread(rng, shape):
    """Values spread over 1e-8 to 1, so a change of summation order shows."""
    return 10.0 ** rng.uniform(-8.0, 0.0, shape)


@pytest.mark.parametrize("nx, ny, reach, rows", [
    (11, 7, 4, 3),    # nx != ny, 3 does not divide 11, stencil 9 rows wide
    (7, 11, 2, 1),
    (6, 6, 1, 4),
    (5, 9, 3, 50),    # one block holds the whole grid
])
def test_stencil_sum_matches_per_cell_loop(monkeypatch, rng, nx, ny, reach, rows):
    lead, n = 2, 3
    cells = _spread(rng, (lead, nx * ny, n)) * rng.choice([-1.0, 1.0], (lead, nx * ny, n))
    disk = [(di, dj) for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)
            if math.hypot(di, dj) <= reach]
    offsets = [disk[i] for i in rng.permutation(len(disk))]  # any order is kept
    monkeypatch.setattr(sn, "_STENCIL_BLOCK_BYTES", rows * lead * ny * n * 8)
    got = sn._stencil_sum(cells, offsets, (nx, ny))
    want = np.zeros_like(cells)
    for x in range(nx):
        for y in range(ny):
            for di, dj in offsets:
                if 0 <= x + di < nx and 0 <= y + dj < ny:
                    want[:, x * ny + y] += cells[:, (x + di) * ny + y + dj]
    assert np.array_equal(got, want)


def _numpy_row_losses(actual, predicted):
    """numpy's row sum over a C-contiguous (K, N) prediction, pairwise per
    row (over a column-major one it would add the columns in sequence)."""
    return ((actual[None, :] - np.ascontiguousarray(predicted)) ** 2).sum(axis=1)


@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 16, 25, 64, 129, 200])
def test_row_losses_match_numpy_row_sum(rng, n):
    predicted = _spread(rng, (301, n))
    actual = _spread(rng, n)
    got = sn._row_losses(actual, np.ascontiguousarray(predicted.T))
    assert np.array_equal(got, _numpy_row_losses(actual, predicted))


@pytest.mark.parametrize("make_scene", [default_scene, _lattice_scene])
def test_row_losses_match_on_built_tables(make_scene):
    s = make_scene()
    model = sn.SensingModel(s)
    table = sn.build_fingerprint_table(s, model)
    p_min, p_max = s.power_bounds()
    rng = np.random.default_rng(11)
    for p in (p_min, p_max, rng.uniform(p_min, p_max)):
        predicted = sn.predict_power_deltas(table, p)
        baseline = model.received_power(p)
        for _ in range(3):
            measured = model.received_power(p, rng.uniform(0.0, s.room.size_x, 2))
            measured = measured * (1.0 + 1e-3 * rng.standard_normal(len(measured)))
            want = _numpy_row_losses(np.abs(measured - baseline), predicted)
            assert np.array_equal(sn._row_losses(np.abs(measured - baseline), predicted.T), want)
            assert np.array_equal(sn.localize(measured, baseline, p, table).losses, want)


def test_row_losses_exact_tie_goes_to_lower_index():
    # candidates 1 and 3 miss the reading by 0.25 on different PDs: equal
    # losses, summed at different positions
    rows = [[2.0, 2.0, 2.0], [1.25, 2.0, 0.5], [0.0, 0.0, 0.0], [1.0, 2.25, 0.5], [3.0, 1.0, 1.0]]
    deltas = np.zeros((5, 2, 3))
    deltas[:, 0] = rows
    table = sn.FingerprintTable(candidates=np.arange(10.0).reshape(5, 2),
                                baseline=np.zeros((2, 3)), deltas=deltas)
    result = sn.localize(np.array([1.0, 2.0, 0.5]), np.zeros(3), np.array([1.0, 1.0]), table)
    assert result.losses[1] == result.losses[3] == 0.0625
    assert result.losses.min() == 0.0625
    assert result.index == 1 and result.position == (2.0, 3.0)


# ---------------------------------------------------------------------------
# prediction memo
# ---------------------------------------------------------------------------

def _small_table(rng, k=40, m=3, n=4):
    return sn.FingerprintTable(candidates=rng.uniform(0, 5, (k, 2)),
                               baseline=rng.uniform(0, 1, (m, n)),
                               deltas=rng.standard_normal((k, m, n)))


def test_predict_memo_hits_on_equal_powers(rng):
    t = _small_table(rng)
    p = np.array([1.0, 2.5, 0.75])
    first = sn.predict_power_deltas(t, p)
    assert sn.predict_power_deltas(t, p) is first
    assert sn.predict_power_deltas(t, p.copy()) is first
    assert sn.predict_power_deltas(t, [1.0, 2.5, 0.75]) is first
    assert np.array_equal(first, np.abs(np.einsum("kij,i->kj", t.deltas, p)))


def test_predict_memo_never_stale_and_bounded(rng):
    t = _small_table(rng)
    vectors = [rng.uniform(0.1, 3.0, 3) for _ in range(3 * sn._PREDICTION_MEMO_SIZE)]
    # revisit vectors in an order that both hits and evicts
    for i in list(range(len(vectors))) + [0, 5, 1, 5, 11, 0, 2]:
        p = vectors[i]
        got = sn.predict_power_deltas(t, p)
        assert np.array_equal(got, np.abs(np.einsum("kij,i->kj", t.deltas, p)))
        assert 1 <= len(t._predictions) <= sn._PREDICTION_MEMO_SIZE
    # a vector one ulp away is a different key
    p = vectors[2]
    nudged = p.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert sn.predict_power_deltas(t, nudged) is not sn.predict_power_deltas(t, p)


def test_predict_memo_evicts_least_recently_used(rng):
    t = _small_table(rng)
    size = sn._PREDICTION_MEMO_SIZE
    vectors = [np.full(3, 1.0 + i) for i in range(size + 1)]
    kept = sn.predict_power_deltas(t, vectors[0])
    for p in vectors[1:size]:
        sn.predict_power_deltas(t, p)
    assert sn.predict_power_deltas(t, vectors[0]) is kept  # now most recent
    sn.predict_power_deltas(t, vectors[size])              # evicts vectors[1]
    assert sn.predict_power_deltas(t, vectors[0]) is kept
    assert vectors[1].tobytes() not in t._predictions


def test_predictions_and_table_read_only(rng, table):
    t = _small_table(rng)
    got = sn.predict_power_deltas(t, np.ones(3))
    for arr in (got, t.candidates, t.baseline, t.deltas,
                table.candidates, table.baseline, table.deltas):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 1.0
    with pytest.raises(ValueError):
        t.deltas[0, 0, 0] = 1.0
    loaded = sn.load_fingerprint(sn.save_fingerprint(table))
    assert not loaded.deltas.flags.writeable


@pytest.mark.parametrize("dense", [False, True])
def test_memoized_prediction_read_only_through_every_view(table, dense):
    t = sn.load_fingerprint(sn.save_fingerprint(table)) if dense else table
    got = sn.predict_power_deltas(t, 2.0 * np.ones(t.shape[1]))
    assert got.shape == (t.shape[0], t.shape[2])
    assert got.base.flags.c_contiguous and got.base.shape == (t.shape[2], t.shape[0])
    for view in (got, got.T, got.base):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_fingerprint_round_trip(table):
    blob = sn.save_fingerprint(table)
    again = sn.load_fingerprint(blob)
    assert np.array_equal(again.candidates, table.candidates)
    assert np.array_equal(again.baseline, table.baseline)
    assert np.array_equal(again.deltas, table.deltas)


def test_fingerprint_header_layout(table):
    import struct
    blob = sn.save_fingerprint(table)
    assert blob[:4] == b"LFPT"
    version, = struct.unpack_from("<H", blob, 4)
    k, m, n = struct.unpack_from("<III", blob, 6)
    assert version == 1
    assert (k, m, n) == table.deltas.shape
    assert len(blob) == 18 + 8 * (m * n + 2 * k + k * m * n)
    # baseline block sits immediately after the header
    first = np.frombuffer(blob, dtype="<f8", count=1, offset=18)[0]
    assert first == table.baseline[0, 0]


def test_fingerprint_rejects_garbage(table):
    with pytest.raises(ValueError, match="magic"):
        sn.load_fingerprint(b"NOPE" + b"\x00" * 40)
    blob = sn.save_fingerprint(table)
    with pytest.raises(ValueError, match="bytes"):
        sn.load_fingerprint(blob[:-8])


# sha256 of the LFPT bytes of default_scene(seed)'s built table, taken before
# the table was stored in factored form: reading the deltas from the factors
# must reproduce the dense build bit for bit.
@pytest.mark.parametrize("seed, digest", [
    (0, "49331489c3f6628a9a53dbf4bb9d797230918d2c6a875328a22f12309e729397"),
    (14, "081732f8650fbc9162035d66597e8e2f5be5fed46b4768e3f94bb7e63873629b"),
    (57, "bc75d54c2b93885d9cafaa87199908647d2062b0beb521dcc8976e0051580dba"),
])
def test_fingerprint_bytes_pinned(seed, digest):
    blob = sn.save_fingerprint(sn.build_fingerprint_table(default_scene(seed)))
    assert hashlib.sha256(blob).hexdigest() == digest
