"""Receiving-plane partition geometry.

The LED ceiling projections define a convex hull; its minimum enclosing
circle (clipped to the room) is the receiving plane and its maximum
inscribed circle is the high-demand activity area.  Everything in between
is the non-activity area.
"""

from __future__ import annotations

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
    "Rect",
    "Region",
    "RegionPartition",
    "convex_hull",
    "min_enclosing_circle",
    "max_inscribed_circle",
    "classify_point",
    "classify_points",
    "build_partition",
]

# Fixed shuffle seed keeps the randomized MEC construction reproducible.
_MEC_SHUFFLE_SEED = 0x5EC

_CONTAIN_TOL = 1e-9


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

    def contains(self, x: float, y: float, tol: float = _CONTAIN_TOL) -> bool:
        return math.hypot(x - self.center.x, y - self.center.y) <= self.radius + tol


@dataclass(frozen=True)
class Rect:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, x: float, y: float, tol: float = _CONTAIN_TOL) -> bool:
        return (self.x_min - tol <= x <= self.x_max + tol
                and self.y_min - tol <= y <= self.y_max + tol)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices in CCW order (no three collinear)."""

    vertices: tuple[Point2, ...]

    def as_array(self) -> np.ndarray:
        return np.array([(v.x, v.y) for v in self.vertices], dtype=float)

    def edges(self) -> list[tuple[Point2, Point2]]:
        verts = self.vertices
        return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]

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

    def contains(self, x: float, y: float, tol: float = _CONTAIN_TOL) -> bool:
        normals, offsets = self.inward_normals()
        return bool(np.all(normals @ np.array([x, y]) >= offsets - tol))


class Region(Enum):
    OUTSIDE = 0
    NON_ACTIVITY = 1
    ACTIVITY = 2


@dataclass(frozen=True)
class RegionPartition:
    """Receiving-plane partition: hull, MEC plane, MIC activity area."""

    hull: ConvexPolygon
    mec: Circle
    mic: Circle
    bounds: Rect


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
    circ = _circle_two(p, q)
    left = None
    right = None
    for r in pts:
        if _in_circle(circ, r):
            continue
        cross = _cross(p, q, r)
        c = _circle_three(p, q, r)
        if c is None:
            continue
        cc = _cross(p, q, (c[0], c[1]))
        if cross > 0.0 and (left is None or cc > _cross(p, q, (left[0], left[1]))):
            left = c
        elif cross < 0.0 and (right is None or cc < _cross(p, q, (right[0], right[1]))):
            right = c
    if left is None:
        return circ if right is None else right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _mec_with_one(pts, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _in_circle(c, q):
            c = _circle_two(p, q) if c[2] == 0.0 else _mec_with_two(pts[: i + 1], p, q)
    return c


def min_enclosing_circle(poly: Union[ConvexPolygon, Iterable[PointLike]]) -> Circle:
    """Smallest circle containing the polygon (equivalently, its vertices).

    Randomized incremental construction, expected linear time; the shuffle
    uses a fixed seed so results are reproducible.  The circle is determined
    by at most three support points.
    """
    if isinstance(poly, ConvexPolygon):
        pts = [v.as_tuple() for v in poly.vertices]
    else:
        pts = [_coerce_xy(p) for p in poly]
    if not pts:
        raise GeometryError("no points given")
    shuffled = list(pts)
    random.Random(_MEC_SHUFFLE_SEED).shuffle(shuffled)
    c = None
    for i, p in enumerate(shuffled):
        if not _in_circle(c, p):
            c = _mec_with_one(shuffled[:i], p)
    return Circle(Point2(c[0], c[1]), c[2])


def max_inscribed_circle(poly: ConvexPolygon) -> Circle:
    """Largest circle inscribed in the polygon (its Chebyshev center).

    Solved as the linear program  max r  s.t.  n_e . c - r >= d_e  for every
    edge (n_e, d_e inward normal form).  The returned radius is recomputed as
    the exact minimum center-to-edge distance.
    """
    from . import optimize  # deferred: optimize depends on this module

    # A non-finite vertex raises ValueError here, before the LP and lstsq
    # (which does not return on a NaN matrix with some BLAS builds) see it.
    normals, offsets = map(np.asarray_chkfinite, poly.inward_normals())
    n_edges = len(offsets)
    # Variables (cx, cy, r): minimize -r subject to -n.c + r <= -d.
    g_mat = np.column_stack([-normals, np.ones(n_edges)])
    h_vec = -offsets
    cost = np.array([0.0, 0.0, -1.0])
    labels = [f"edge[{e}]" for e in range(n_edges)]
    report = optimize.solve_inequality_program(None, cost, g_mat, h_vec, labels=labels)
    if report.status is not optimize.SolveStatus.OPTIMAL:
        raise GeometryError(f"inscribed-circle LP did not solve: {report.status.value}")
    center = report.x[:2]
    radius = float(np.min(normals @ center - offsets))
    # Polish onto the supporting edges: with >= 3 near-active edges the exact
    # optimum solves n.c - r = d on them, which removes the solver tolerance.
    slack = normals @ center - radius - offsets
    active = slack <= 1e-6 * max(1.0, radius)
    if active.sum() >= 3:
        a_sys = np.column_stack([normals[active], -np.ones(int(active.sum()))])
        sol, *_ = np.linalg.lstsq(a_sys, offsets[active], rcond=None)
        r_new = float(np.min(normals @ sol[:2] - offsets))
        if r_new >= radius:
            center, radius = sol[:2], r_new
    return Circle(Point2(float(center[0]), float(center[1])), radius)


def classify_points(points: np.ndarray, partition: RegionPartition) -> np.ndarray:
    """Vectorized region classification; returns Region values as an int array.

    Boundary points (distance exactly equal to a radius) classify inward.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d_mic = np.hypot(pts[:, 0] - partition.mic.center.x, pts[:, 1] - partition.mic.center.y)
    d_mec = np.hypot(pts[:, 0] - partition.mec.center.x, pts[:, 1] - partition.mec.center.y)
    b = partition.bounds
    in_rect = ((pts[:, 0] >= b.x_min) & (pts[:, 0] <= b.x_max)
               & (pts[:, 1] >= b.y_min) & (pts[:, 1] <= b.y_max))
    out = np.full(len(pts), Region.OUTSIDE.value, dtype=np.int8)
    out[(d_mec <= partition.mec.radius) & in_rect] = Region.NON_ACTIVITY.value
    out[d_mic <= partition.mic.radius] = Region.ACTIVITY.value
    return out


def classify_point(p: PointLike, partition: RegionPartition) -> Region:
    """Region of a single point: Activity (MIC disk), NonActivity (MEC plane
    minus MIC), or Outside."""
    x, y = _coerce_xy(p)
    return Region(int(classify_points(np.array([[x, y]]), partition)[0]))


def build_partition(scene) -> RegionPartition:
    """Construct the receiving-plane partition from a scene's LED layout."""
    pts = [(led.position[0], led.position[1]) for led in scene.leds]
    hull = convex_hull(pts)
    mec = min_enclosing_circle(hull)
    mic = max_inscribed_circle(hull)
    room = scene.room
    bounds = Rect(0.0, 0.0, room.size_x, room.size_y)
    for dx, dy in ((mic.radius, 0), (-mic.radius, 0), (0, mic.radius), (0, -mic.radius)):
        if not bounds.contains(mic.center.x + dx, mic.center.y + dy):
            raise GeometryError("activity area extends outside the room boundary")
    return RegionPartition(hull=hull, mec=mec, mic=mic, bounds=bounds)
