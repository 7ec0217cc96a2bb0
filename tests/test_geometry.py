import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isci
from isci import geometry
from isci.geometry import (ConvexPolygon, GeometryError, Point2,
                           Region, build_partition, classify_points,
                           convex_hull, max_inscribed_circle,
                           min_enclosing_circle)
from isci.scene import default_scene
from tests.oracles import LADDER, LOOP_LARGE, lattice_scene, mic_radius_exact, mic_radius_highs


def _square(size=1.0):
    return ConvexPolygon((Point2(0, 0), Point2(size, 0),
                          Point2(size, size), Point2(0, size)))


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def test_hull_drops_interior_point():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    hull = convex_hull(pts)
    assert len(hull.vertices) == 4
    assert (0.5, 0.5) not in {v.as_tuple() for v in hull.vertices}


def test_hull_of_triangle_is_triangle():
    pts = [(0, 0), (3, 1), (1, 2)]
    hull = convex_hull(pts)
    assert {v.as_tuple() for v in hull.vertices} == set(pts)


def test_hull_halfplane_oracle(rng):
    # Every input point must lie on the inner side of every hull edge.
    for _ in range(25):
        pts = rng.uniform(-3, 7, (8, 2))
        hull = convex_hull(pts)
        normals, offsets = hull.inward_normals()
        signed = pts @ normals.T - offsets
        assert signed.min() >= -1e-9
        # CCW orientation: positive area via the shoelace formula.
        arr = hull.as_array()
        x, y = arr[:, 0], arr[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area2 > 0


def test_hull_idempotent(rng):
    for _ in range(10):
        hull = convex_hull(rng.uniform(0, 5, (10, 2)))
        again = convex_hull([v.as_tuple() for v in hull.vertices])
        assert again == hull


def test_hull_degenerate_inputs():
    with pytest.raises(GeometryError):
        convex_hull([(0, 0), (1, 1)])
    with pytest.raises(GeometryError):
        convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(GeometryError):
        convex_hull([(1, 1), (1, 1), (1, 1)])


# ---------------------------------------------------------------------------
# minimum enclosing circle
# ---------------------------------------------------------------------------

def test_mec_right_triangle():
    mec = min_enclosing_circle([(0, 0), (4, 0), (0, 3)])
    assert math.hypot(mec.center.x - 2.0, mec.center.y - 1.5) < 1e-12
    assert abs(mec.radius - 2.5) < 1e-12


def test_mec_of_no_points():
    with pytest.raises(GeometryError, match="^no points given$"):
        min_enclosing_circle([])


def test_mec_unit_square():
    mec = min_enclosing_circle(_square())
    assert math.hypot(mec.center.x - 0.5, mec.center.y - 0.5) < 1e-12
    assert abs(mec.radius - math.sqrt(2) / 2) < 1e-12


def _mec_exhaustive(pts):
    """Smallest enclosing circle via all pair/triple support sets."""
    import itertools

    def contains_all(c):
        return all(math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + 1e-12)
                   for p in pts)

    best = None
    for a, b in itertools.combinations(pts, 2):
        cx, cy = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
        r = max(math.hypot(cx - p[0], cy - p[1]) for p in (a, b))
        if (best is None or r < best) and contains_all((cx, cy, r)):
            best = r
    for a, b, c in itertools.combinations(pts, 3):
        d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if d == 0:
            continue
        ux = ((a[0]**2 + a[1]**2) * (b[1] - c[1]) + (b[0]**2 + b[1]**2) * (c[1] - a[1])
              + (c[0]**2 + c[1]**2) * (a[1] - b[1])) / d
        uy = ((a[0]**2 + a[1]**2) * (c[0] - b[0]) + (b[0]**2 + b[1]**2) * (a[0] - c[0])
              + (c[0]**2 + c[1]**2) * (b[0] - a[0])) / d
        r = max(math.hypot(ux - p[0], uy - p[1]) for p in (a, b, c))
        if (best is None or r < best) and contains_all((ux, uy, r)):
            best = r
    return best


def _ring(radii):
    n = len(radii)
    return [(2.5 + r * math.cos(2 * math.pi * k / n), 2.5 + r * math.sin(2 * math.pi * k / n))
            for k, r in enumerate(radii)]


def _degenerate_point_sets(rng):
    """Point sets whose MEC support is not unique, or is not a triangle."""
    sets = [_ring([2.0] * n) for n in range(3, 65)]  # regular n-gons: all cocircular
    # Rectangular lattices: their four corners are cocircular.
    sets += [[(0.3 + x * sx, 0.7 + y * sy) for x in range(nx) for y in range(ny)]
             for nx, ny, sx, sy in ((2, 2, 1.0, 1.0), (2, 3, 1.4, 1.0), (3, 3, 1.25, 1.25),
                                    (4, 2, 0.5, 2.0), (5, 5, 1.4, 1.4), (3, 5, 5.0 / 3, 1.1))]
    sets += [_ring(2.0 + rng.uniform(-1e-12, 1e-12, n)) for n in (3, 4, 8, 16, 33)]
    t = rng.uniform(-2.0, 3.0, 7)
    sets += [[(1.0 + 0.5 * u, 2.0 - 1.5 * u) for u in t], [(u, 0.0) for u in t],
             [(1.0, u) for u in t], [(0.1 * u, 0.1 * u) for u in t]]  # collinear
    pts = [tuple(p) for p in rng.uniform(0, 5, (5, 2))]
    sets += [[(1.5, 2.5)] * 4, [(0.0, 0.0), (0.0, 0.0), (3.0, 1.0), (3.0, 1.0)],
             pts + pts[::-1], pts[:2] * 3]  # repeated points
    return sets


def test_mec_matches_exhaustive_oracle(rng):
    sets = [[tuple(p) for p in rng.uniform(0, 5, (8, 2))] for _ in range(30)]
    for pts in sets + _degenerate_point_sets(rng):
        mec = min_enclosing_circle(pts)
        assert abs(mec.radius - _mec_exhaustive(pts)) < 1e-9
        dists = [math.hypot(p[0] - mec.center.x, p[1] - mec.center.y) for p in pts]
        assert max(dists) <= mec.radius + 1e-9
        assert max(dists) <= mec.radius * (1 + 1e-12)


def test_mec_minimality_witness(rng):
    pts = [tuple(p) for p in rng.uniform(0, 5, (8, 2))]
    mec = min_enclosing_circle(pts)
    shrunk = mec.radius - 1e-6
    for _ in range(1000):
        ang = rng.uniform(0, 2 * math.pi)
        rad = rng.uniform(0, 1e-3)
        cx = mec.center.x + rad * math.cos(ang)
        cy = mec.center.y + rad * math.sin(ang)
        assert max(math.hypot(p[0] - cx, p[1] - cy) for p in pts) > shrunk


# ---------------------------------------------------------------------------
# maximum inscribed circle
# ---------------------------------------------------------------------------

def test_mic_unit_square():
    mic = max_inscribed_circle(_square())
    assert math.hypot(mic.center.x - 0.5, mic.center.y - 0.5) < 1e-9
    assert abs(mic.radius - 0.5) < 1e-9


def test_mic_equilateral_triangle():
    tri = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(1, math.sqrt(3))))
    mic = max_inscribed_circle(tri)
    assert abs(mic.radius - 1 / math.sqrt(3)) < 1e-9


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf / inf edge
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mic_rejects_non_finite_vertex(bad):
    poly = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(bad, 1)))
    with pytest.raises(ValueError, match="infs or NaNs"):
        max_inscribed_circle(poly)


def test_mic_sliver_triangle():
    # a sliver: inradius 4.7e-7 m on a hull 4.2 m long
    tri = ConvexPolygon((Point2(1, 1), Point2(4, 3.999999), Point2(2, 2.000001)))
    mic = max_inscribed_circle(tri)
    exact = mic_radius_exact(tri.as_array())
    assert abs(exact - 4.714e-7) < 1e-10
    assert abs(mic.radius - exact) <= 1e-6 * exact


def test_mic_rectangle_takes_the_middle_center():
    # the long sides bind every center from (1, 1) to (3, 1)
    rect = ConvexPolygon((Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(0, 2)))
    mic = max_inscribed_circle(rect)
    assert abs(mic.center.x - 2) < 1e-12 and abs(mic.center.y - 1) < 1e-12
    assert abs(mic.radius - 1) < 1e-12


def test_mic_of_a_rectangular_lattice_mirrors_with_the_room(rng):
    # parallel hull edges bind a segment of centers, and an exact tie on the
    # best score once let rounding pick a point off its middle
    for _ in range(40):
        size = rng.uniform(3.0, 6.0, 2)
        spans = rng.uniform(0.3, 0.7, 2) * size.min()
        corner = rng.uniform(0.15, size - spans - 0.15)
        xs, ys = (np.linspace(c, c + span, n)
                  for c, span, n in zip(corner, spans, rng.integers(2, 4, 2)))
        lattice = np.array([(x, y) for x in xs for y in ys])
        center = np.array(max_inscribed_circle(convex_hull(lattice)).center.as_tuple())
        for move in (lambda p: p[..., ::-1], lambda p: p * [-1, 1] + [size[0], 0],
                     lambda p: p * [1, -1] + [0, size[1]]):
            moved = max_inscribed_circle(convex_hull(move(lattice)))
            assert np.allclose(moved.center.as_tuple(), move(center), rtol=0, atol=1e-12)


@pytest.mark.parametrize("vertices", [[(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1), (1, 0)],
                                      [(0, 0), (1, 0)]],
                         ids=["collinear", "clockwise", "two-vertices"])
def test_mic_without_interior_rejected(vertices):
    poly = ConvexPolygon(tuple(Point2(*v) for v in vertices))
    with pytest.raises(GeometryError, match="^polygon has no interior$"):
        max_inscribed_circle(poly)


def _mic_grid_oracle(poly, coarse=0.01, fine=0.001):
    """Two-stage grid search; valid because the inradius field is concave."""
    normals, offsets = poly.inward_normals()
    arr = poly.as_array()

    def best(xs, ys):
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([grid_x.ravel(), grid_y.ravel()])
        vals = (pts @ normals.T - offsets).min(axis=1)
        k = int(np.argmax(vals))
        return float(vals[k]), pts[k]

    v1, p1 = best(np.arange(arr[:, 0].min(), arr[:, 0].max() + 1e-12, coarse),
                  np.arange(arr[:, 1].min(), arr[:, 1].max() + 1e-12, coarse))
    half = 1.5 * coarse
    v2, _ = best(np.arange(p1[0] - half, p1[0] + half + 1e-12, fine),
                 np.arange(p1[1] - half, p1[1] + half + 1e-12, fine))
    return max(v1, v2)


def test_mic_matches_grid_oracle(rng):
    for _ in range(10):
        poly = convex_hull(rng.uniform(0, 5, (8, 2)))
        mic = max_inscribed_circle(poly)
        assert abs(mic.radius - _mic_grid_oracle(poly)) < 2e-3


def test_mic_radius_is_min_edge_distance(rng):
    for _ in range(10):
        poly = convex_hull(rng.uniform(0, 5, (8, 2)))
        mic = max_inscribed_circle(poly)
        normals, offsets = poly.inward_normals()
        center = np.array([mic.center.x, mic.center.y])
        assert abs((normals @ center - offsets).min() - mic.radius) < 1e-9


def test_mic_disk_inside_polygon(rng, partition):
    normals, offsets = partition.hull.inward_normals()
    mic = partition.mic
    r = mic.radius * np.sqrt(rng.uniform(size=10_000))
    ang = rng.uniform(0, 2 * math.pi, 10_000)
    pts = np.column_stack([mic.center.x + r * np.cos(ang), mic.center.y + r * np.sin(ang)])
    # signed distance to every edge line, positive on the inner side
    assert (pts @ normals.T - offsets).min() >= -1e-9


# ---------------------------------------------------------------------------
# partition / classification
# ---------------------------------------------------------------------------

def test_partition_nesting(partition):
    mic, mec = partition.mic, partition.mec
    assert mic.radius <= mec.radius
    # the MIC centre lies a MIC radius inside every hull edge
    normals, offsets = partition.hull.inward_normals()
    assert (normals @ mic.center.as_tuple() - offsets).min() >= mic.radius - 1e-9
    # every hull vertex lies within the MEC radius of its centre
    vertices = partition.hull.as_array()
    assert np.hypot(*(vertices - mec.center.as_tuple()).T).max() <= mec.radius + 1e-9


def _region_of(point, partition):
    return Region(int(classify_points(point, partition)[0]))


def test_classify_examples(partition):
    assert _region_of(partition.mic.center.as_tuple(), partition) is Region.ACTIVITY
    far = (partition.mec.center.x + partition.mec.radius + 1.0, partition.mec.center.y)
    assert _region_of(far, partition) is Region.OUTSIDE


def test_classify_boundary_inward(partition):
    mic = partition.mic
    on_edge = (mic.center.x + mic.radius, mic.center.y)
    assert _region_of(on_edge, partition) is Region.ACTIVITY


def test_classify_sweep_matches_distance_oracle(scene, partition):
    xs = np.arange(0.025, scene.room.size_x, 0.05)
    ys = np.arange(0.025, scene.room.size_y, 0.05)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    codes = classify_points(pts, partition)
    d_mic = np.hypot(pts[:, 0] - partition.mic.center.x, pts[:, 1] - partition.mic.center.y)
    d_mec = np.hypot(pts[:, 0] - partition.mec.center.x, pts[:, 1] - partition.mec.center.y)
    expected = np.where(d_mic <= partition.mic.radius, Region.ACTIVITY.value,
                        np.where(d_mec <= partition.mec.radius, Region.NON_ACTIVITY.value,
                                 Region.OUTSIDE.value))
    assert np.array_equal(codes, expected)


def test_activity_implies_mec(scene, partition, rng):
    pts = rng.uniform(0, 5, (2000, 2))
    codes = classify_points(pts, partition)
    act = pts[codes == Region.ACTIVITY.value]
    d = np.hypot(act[:, 0] - partition.mec.center.x, act[:, 1] - partition.mec.center.y)
    assert np.all(d <= partition.mec.radius + 1e-9)


@pytest.mark.parametrize("point", [(math.nan, 2.5), (2.5, math.nan), (math.nan, math.nan)])
def test_classify_point_nan_is_outside(partition, point):
    assert _region_of(point, partition) is Region.OUTSIDE


def test_translation_equivariance(rng):
    shift = np.array([0.5, 0.25])
    for _ in range(10):
        pts = rng.uniform(0, 5, (8, 2))
        h0, h1 = convex_hull(pts), convex_hull(pts + shift)
        assert np.allclose(h1.as_array(), h0.as_array() + shift, atol=0)
        m0, m1 = min_enclosing_circle(h0), min_enclosing_circle(h1)
        assert abs(m1.radius - m0.radius) < 1e-12
        assert abs(m1.center.x - m0.center.x - shift[0]) < 1e-9
        assert abs(m1.center.y - m0.center.y - shift[1]) < 1e-9
        c0, c1 = max_inscribed_circle(h0), max_inscribed_circle(h1)
        assert abs(c1.radius - c0.radius) < 1e-12
        assert abs(c1.center.x - c0.center.x - shift[0]) < 1e-9
        assert abs(c1.center.y - c0.center.y - shift[1]) < 1e-9


def test_degenerate_led_layout_rejected(scene):
    leds = list(scene.leds)
    collinear = [replace(led, position=(1.0 + 0.3 * i, 2.0, 3.0)) for i, led in enumerate(leds)]
    bad = replace(scene, leds=tuple(collinear))
    with pytest.raises(GeometryError):
        build_partition(bad)


def _mic_past_wall(scene, partition, wall, past):
    """The scene with its room's ``wall`` moved, or its LEDs shifted, so that
    the MIC reaches ``past`` metres beyond that wall."""
    mic = partition.mic
    if wall == "x_max":
        return replace(scene, room=replace(scene.room, size_x=mic.center.x + mic.radius - past))
    if wall == "y_max":
        return replace(scene, room=replace(scene.room, size_y=mic.center.y + mic.radius - past))
    shift = np.array([mic.radius - mic.center.x - past if wall == "x_min" else 0.0,
                      mic.radius - mic.center.y - past if wall == "y_min" else 0.0, 0.0])
    leds = tuple(replace(led, position=tuple(np.add(led.position, shift))) for led in scene.leds)
    return replace(scene, leds=leds)


@pytest.mark.parametrize("wall", ["x_min", "x_max", "y_min", "y_max"])
def test_mic_may_touch_a_wall_within_1e_9(scene, partition, wall):
    moved = _mic_past_wall(scene, partition, wall, 0.5e-9)
    mic = build_partition(moved).mic
    reach = {"x_min": -(mic.center.x - mic.radius), "y_min": -(mic.center.y - mic.radius),
             "x_max": mic.center.x + mic.radius - moved.room.size_x,
             "y_max": mic.center.y + mic.radius - moved.room.size_y}[wall]
    assert 0.4e-9 < reach < 0.6e-9


@pytest.mark.parametrize("wall", ["x_min", "x_max", "y_min", "y_max"])
def test_mic_past_a_wall_is_rejected(scene, partition, wall):
    with pytest.raises(GeometryError, match="^activity area extends outside the room boundary$"):
        build_partition(_mic_past_wall(scene, partition, wall, 2e-9))


def test_mic_radius_matches_highs():
    for layout in range(50):
        partition = build_partition(default_scene(layout))
        vertices = partition.hull.as_array()
        assert abs(partition.mic.radius - mic_radius_highs(vertices)) <= 1e-9, layout


# The benchmark's lattice rooms, as bench/common.py defines them.
_LATTICES = (LOOP_LARGE, *LADDER.values())


# sha256 of the reprs of the scenes' partitions (hull, MEC, MIC and room),
# taken while the MIC came from the interior-point solver.
@pytest.mark.parametrize("scenes, digest", [
    (lambda: map(default_scene, range(200)),
     "f8fb78c179477ebed6c18a05e4147729c3a9966508942fd0e4a3d44bb1e85c37"),
    (lambda: (lattice_scene(*room) for room in _LATTICES),
     "cb47bedd31f3d1125b6125c932aa680ca361490e614b30cdce2421ba604522aa"),
], ids=["default-0-199", "lattices"])
def test_partitions_pinned(scenes, digest):
    sha = hashlib.sha256()
    for scene in scenes():
        sha.update(repr(build_partition(scene)).encode())
    assert sha.hexdigest() == digest


def test_geometry_stands_apart_from_the_solvers():
    # isci/geometry.py, loaded by itself outside the package (whose __init__
    # loads every module), finds a hull's circles with no isci module loaded
    points = [(0, 0), (4, 0), (4, 2), (0, 2), (1, 1)]
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('geometry', {geometry.__file__!r})\n"
        "geometry = sys.modules['geometry'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(geometry)\n"
        f"hull = geometry.convex_hull({points!r})\n"
        "circles = geometry.min_enclosing_circle(hull), geometry.max_inscribed_circle(hull)\n"
        "print(repr((hull, *circles)))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'isci'))\n"
    )
    hull = convex_hull(points)
    found = (hull, min_enclosing_circle(hull), max_inscribed_circle(hull))
    env = dict(os.environ, PYTHONPATH=str(Path(isci.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [repr(found), "[]"]


# ---------------------------------------------------------------------------
# properties on degenerate inputs (hypothesis, derandomized)
# ---------------------------------------------------------------------------

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Coordinates on a 1/1024 m grid inside the 5 m room: sums and differences of
# them are exact in floating point, so a translation by a grid vector moves
# every point exactly.
_GRID = 1024
_coordinate = st.integers(0, 5 * _GRID).map(lambda k: k / _GRID)
_point_sets = st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=10,
                       unique=True)


def _check_circles(points, hull):
    """MEC: holds every point, equals the exhaustive search, and lies within
    Jung's bound.  MIC: a circle of positive radius inside the polygon,
    within 1e-8 of HiGHS, or, for a sliver (inradius under 1e-4 of the MEC
    radius, where HiGHS's tolerances swamp it), within 1e-6 relative of the
    60-digit oracle plus 4 ulps of the largest coordinate, since a float
    center can sit an ulp from the true one."""
    pts = np.array(points)
    diameter = max(math.dist(p, q) for p in points for q in points)
    mec = min_enclosing_circle(points)
    assert np.hypot(*(pts - mec.center.as_tuple()).T).max() <= mec.radius * (1 + 1e-12)
    assert diameter / 2 - 1e-12 <= mec.radius <= diameter / math.sqrt(3) + 1e-12
    assert abs(mec.radius - _mec_exhaustive(list(set(points)))) <= 1e-9
    mic = max_inscribed_circle(hull)
    normals, offsets = hull.inward_normals()
    assert 0 < mic.radius <= (normals @ mic.center.as_tuple() - offsets).min() + 1e-12
    exact = mic_radius_exact(hull.as_array())
    if exact < 1e-4 * mec.radius:
        ulp = np.finfo(float).eps * np.abs(hull.as_array()).max()
        assert abs(mic.radius - exact) <= 1e-6 * exact + 4 * ulp
    else:
        oracle = mic_radius_highs(hull.as_array())
        assert abs(mic.radius - oracle) <= 1e-8 * (1 + oracle)


@_PROPERTY
@given(_point_sets, st.data())
def test_duplicated_points_change_nothing(points, data):
    extra = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=10))
    repeated = data.draw(st.permutations(points + extra))
    try:
        hull = convex_hull(points)
    except GeometryError:
        with pytest.raises(GeometryError):
            convex_hull(repeated)
        return
    assert convex_hull(repeated) == hull
    mec, again = min_enclosing_circle(points), min_enclosing_circle(repeated)
    assert abs(again.radius - mec.radius) <= 1e-12 * mec.radius
    assert math.dist(again.center.as_tuple(), mec.center.as_tuple()) <= 1e-12 * mec.radius
    _check_circles(repeated, hull)


@_PROPERTY
@given(_point_sets, st.tuples(st.integers(-4 * _GRID, 4 * _GRID),
                              st.integers(-4 * _GRID, 4 * _GRID)))
def test_translation_moves_hull_and_circles(points, grid_shift):
    shift = np.array(grid_shift) / _GRID
    moved = [(x + shift[0], y + shift[1]) for x, y in points]
    try:
        hull = convex_hull(points)
    except GeometryError:
        with pytest.raises(GeometryError):
            convex_hull(moved)
        return
    moved_hull = convex_hull(moved)
    assert np.array_equal(moved_hull.as_array(), hull.as_array() + shift)
    mec, moved_mec = min_enclosing_circle(points), min_enclosing_circle(moved)
    assert abs(moved_mec.radius - mec.radius) <= 1e-9
    assert np.allclose(moved_mec.center.as_tuple(), np.add(mec.center.as_tuple(), shift),
                       rtol=0, atol=1e-9)
    _check_circles(points, hull)
    _check_circles(moved, moved_hull)


@_PROPERTY
@given(st.lists(st.integers(0, 5 * _GRID), min_size=3, max_size=10, unique=True),
       st.floats(-1.0, 1.0), st.data())
def test_near_collinear_points(xs, slope, data):
    # points on a line, each lifted off it by at most 1e-6 m
    lifts = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)),
                               min_size=len(xs), max_size=len(xs)))
    points = [(x / _GRID, 2.5 + slope * (x / _GRID - 2.5) + lift)
              for x, lift in zip(xs, lifts)]
    try:
        hull = convex_hull(points)
    except GeometryError:
        return
    vertices = hull.as_array()
    assert {tuple(v) for v in vertices} <= set(points)
    edges = np.roll(vertices, -1, axis=0) - vertices
    turns = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
    assert np.all(turns > 0)  # strictly convex, counter-clockwise
    normals, offsets = hull.inward_normals()
    assert (np.array(points) @ normals.T - offsets).min() >= -1e-9
    _check_circles(points, hull)
