import math

import numpy as np
import pytest

from isci.geometry import (ConvexPolygon, GeometryError, Point2,
                           Region, build_partition, classify_point,
                           classify_points, convex_hull, max_inscribed_circle,
                           min_enclosing_circle)


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
        if contains_all((cx, cy, r)) and (best is None or r < best):
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
        if contains_all((ux, uy, r)) and (best is None or r < best):
            best = r
    return best


def test_mec_matches_exhaustive_oracle(rng):
    for _ in range(30):
        pts = [tuple(p) for p in rng.uniform(0, 5, (8, 2))]
        mec = min_enclosing_circle(pts)
        assert abs(mec.radius - _mec_exhaustive(pts)) < 1e-9
        dists = [math.hypot(p[0] - mec.center.x, p[1] - mec.center.y) for p in pts]
        assert max(dists) <= mec.radius + 1e-9


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
    poly = partition.hull
    mic = partition.mic
    for _ in range(10_000):
        r = mic.radius * math.sqrt(rng.uniform())
        ang = rng.uniform(0, 2 * math.pi)
        x = mic.center.x + r * math.cos(ang)
        y = mic.center.y + r * math.sin(ang)
        assert poly.contains(x, y, tol=1e-9)


# ---------------------------------------------------------------------------
# partition / classification
# ---------------------------------------------------------------------------

def test_partition_nesting(partition):
    assert partition.mic.radius <= partition.mec.radius
    # MIC center inside hull, hull vertices inside MEC
    assert partition.hull.contains(partition.mic.center.x, partition.mic.center.y)
    for v in partition.hull.vertices:
        assert partition.mec.contains(v.x, v.y)


def test_classify_examples(partition):
    assert classify_point(partition.mic.center, partition) is Region.ACTIVITY
    far = (partition.mec.center.x + partition.mec.radius + 1.0, partition.mec.center.y)
    assert classify_point(far, partition) is Region.OUTSIDE


def test_classify_boundary_inward(partition):
    mic = partition.mic
    on_edge = (mic.center.x + mic.radius, mic.center.y)
    assert classify_point(on_edge, partition) is Region.ACTIVITY


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
    from dataclasses import replace
    leds = list(scene.leds)
    collinear = [replace(led, position=(1.0 + 0.3 * i, 2.0, 3.0)) for i, led in enumerate(leds)]
    bad = replace(scene, leds=tuple(collinear))
    with pytest.raises(GeometryError):
        build_partition(bad)
