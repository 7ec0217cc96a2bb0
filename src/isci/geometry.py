"""Receiving-plane partition geometry.

The LED ceiling projections define a convex hull; its minimum enclosing
circle (clipped to the room) is the receiving plane and its maximum
inscribed circle, found with no solver from the three edges it touches, is
the high-demand activity area.  Everything in between is the non-activity
area.  classify_points is the one region test; the controller applies it
once to every fingerprint candidate of a room.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "GeometryError",
    "Point2",
    "Circle",
    "ConvexPolygon",
    "Region",
    "RegionPartition",
    "convex_hull",
    "min_enclosing_circle",
    "max_inscribed_circle",
    "classify_points",
    "build_partition",
]

# Fixed shuffle seed keeps the randomized MEC construction reproducible.
_MEC_SHUFFLE_SEED = 0x5EC


class GeometryError(ValueError):
    """Raised for degenerate geometric input."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


PointLike = Union[Point2, Sequence[float]]


def _coerce_xy(p: PointLike) -> tuple[float, float]:
    if isinstance(p, Point2):
        return (p.x, p.y)
    return (float(p[0]), float(p[1]))


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices in CCW order (no three collinear)."""

    vertices: tuple[Point2, ...]

    def as_array(self) -> np.ndarray:
        return np.array([(v.x, v.y) for v in self.vertices], dtype=float)

    def inward_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit inward normals N (E, 2) and offsets d (E,) with the interior
        characterized by N @ p >= d."""
        pts = self.as_array()
        nxt = np.roll(pts, -1, axis=0)
        edge = nxt - pts
        length = np.hypot(edge[:, 0], edge[:, 1])
        normals = np.column_stack([-edge[:, 1], edge[:, 0]]) / length[:, None]
        offsets = np.einsum("ij,ij->i", normals, pts)
        return normals, offsets


class Region(Enum):
    OUTSIDE = 0
    NON_ACTIVITY = 1
    ACTIVITY = 2


@dataclass(frozen=True)
class RegionPartition:
    """Receiving-plane partition: hull, MEC plane, MIC activity area, and
    the room's floor [0, size_x] x [0, size_y] that clips the MEC plane."""

    hull: ConvexPolygon
    mec: Circle
    mic: Circle
    size_x: float
    size_y: float


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[PointLike]) -> ConvexPolygon:
    """Convex hull via the monotone chain, CCW from the lexicographic minimum.

    Collinear points are dropped from the boundary, so the result is strictly
    convex.  Fewer than three distinct points, or an all-collinear set, raise
    GeometryError.
    """
    pts = sorted({_coerce_xy(p) for p in points})
    if len(pts) < 3:
        raise GeometryError(f"need at least 3 distinct points, got {len(pts)}")
    span = max(max(abs(x), abs(y)) for x, y in pts)
    tol = 1e-12 * max(1.0, span * span)

    def chain(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= tol:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise GeometryError("points are collinear; hull is degenerate")
    return ConvexPolygon(tuple(Point2(x, y) for x, y in hull))


# ---------------------------------------------------------------------------
# Minimum enclosing circle (randomized incremental)
# ---------------------------------------------------------------------------

def _circle_two(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circle_three(a, b, c):
    # Circumcircle; None when the triangle is degenerate.
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    return (x, y, r)


def _in_circle(c, p) -> bool:
    return c is not None and math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + 1e-14)


def _mec_with_two(pts, p, q):
    # Smallest circle through p and q holding pts: each point outside the
    # current circle becomes its third support point.
    c = _circle_two(p, q)
    for r in pts:
        if not _in_circle(c, r):
            c = _circle_three(p, q, r) or c
    return c


def min_enclosing_circle(poly: Union[ConvexPolygon, Iterable[PointLike]]) -> Circle:
    """Smallest circle containing the polygon (equivalently, its vertices).

    Welzl's randomized incremental construction, expected linear time; the
    shuffle uses a fixed seed so results are reproducible.  The circle is
    determined by at most three support points.
    """
    pts = [_coerce_xy(p) for p in (poly.vertices if isinstance(poly, ConvexPolygon) else poly)]
    if not pts:
        raise GeometryError("no points given")
    random.Random(_MEC_SHUFFLE_SEED).shuffle(pts)
    c = None
    for i, p in enumerate(pts):
        if not _in_circle(c, p):
            c = (p[0], p[1], 0.0)
            for j, q in enumerate(pts[:i]):
                if not _in_circle(c, q):
                    c = _mec_with_two(pts[:j], p, q)
    return Circle(Point2(c[0], c[1]), c[2])


def max_inscribed_circle(poly: ConvexPolygon) -> Circle:
    """Largest circle inscribed in the polygon (its Chebyshev center).

    The optimum of  max r  s.t.  n_e . c - r >= d_e  for every edge e (inward
    normal form) binds three edges, so each edge triple's tangent circle is a
    candidate, scored by its least edge distance: O(E^4) work for E edges (a
    64-gon takes about 0.15 s).  Where parallel edges bind, the best centers
    tie along a segment, to 1e-12 of the best score, and its midpoint is
    taken, so the center mirrors with the polygon.  The radius is the least
    center-to-edge distance; a polygon without interior raises GeometryError.
    """
    # A non-finite vertex raises ValueError here, before solve and lstsq
    # (which does not return on a NaN matrix with some BLAS builds) see it.
    normals, offsets = map(np.asarray_chkfinite, poly.inward_normals())
    rows = np.column_stack([normals, -np.ones(len(offsets))])
    triples = np.array([*itertools.combinations(range(len(offsets)), 3)], int).reshape(-1, 3)
    triples = triples[np.linalg.det(rows[triples]) != 0.0]
    centers = np.linalg.solve(rows[triples], offsets[triples][..., None])[:, :2, 0]
    scores = (centers @ normals.T - offsets).min(axis=1)
    best = scores.max(initial=0.0)
    if not best > 0:
        raise GeometryError("polygon has no interior")
    tied = centers[scores >= best - 1e-12 * max(1.0, best)]
    center = (tied.min(axis=0) + tied.max(axis=0)) / 2
    radius = float(np.min(normals @ center - offsets))
    # Polish onto the near-binding edges: where more than three bind (a
    # square), least squares treats them alike.  Rounding can leave it an ulp
    # below the triple's r, so only a loss over 1e-9 of r rejects it.
    active = normals @ center - radius - offsets <= 1e-6 * max(1.0, radius)
    if active.sum() >= 3:
        sol, *_ = np.linalg.lstsq(rows[active], offsets[active], rcond=None)
        r_new = float(np.min(normals @ sol[:2] - offsets))
        if r_new >= radius * (1 - 1e-9):
            center, radius = sol[:2], r_new
    return Circle(Point2(float(center[0]), float(center[1])), radius)


def classify_points(points: np.ndarray, partition: RegionPartition) -> np.ndarray:
    """Region of each (x, y) row of ``points``, as Region values in an int
    array: Activity (MIC disk), NonActivity (MEC plane inside the room,
    minus the MIC) or Outside.  Boundary points (on a radius or a wall)
    classify inward; a NaN coordinate is Outside.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d_mic = np.hypot(pts[:, 0] - partition.mic.center.x, pts[:, 1] - partition.mic.center.y)
    d_mec = np.hypot(pts[:, 0] - partition.mec.center.x, pts[:, 1] - partition.mec.center.y)
    in_rect = ((pts[:, 0] >= 0.0) & (pts[:, 0] <= partition.size_x)
               & (pts[:, 1] >= 0.0) & (pts[:, 1] <= partition.size_y))
    out = np.full(len(pts), Region.OUTSIDE.value, dtype=np.int8)
    out[(d_mec <= partition.mec.radius) & in_rect] = Region.NON_ACTIVITY.value
    out[d_mic <= partition.mic.radius] = Region.ACTIVITY.value
    return out


def build_partition(scene) -> RegionPartition:
    """Construct the receiving-plane partition from a scene's LED layout."""
    pts = [(led.position[0], led.position[1]) for led in scene.leds]
    hull = convex_hull(pts)
    mec = min_enclosing_circle(hull)
    mic = max_inscribed_circle(hull)
    room = scene.room
    (cx, cy), r, tol = mic.center.as_tuple(), mic.radius, 1e-9
    if not (-tol <= cx - r and cx + r <= room.size_x + tol
            and -tol <= cy - r and cy + r <= room.size_y + tol):
        raise GeometryError("activity area extends outside the room boundary")
    return RegionPartition(hull=hull, mec=mec, mic=mic, size_x=room.size_x, size_y=room.size_y)
