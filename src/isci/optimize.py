"""Convex program construction and solving for the two control modes.

Both modes solve one program type, SampledProgram: minimize p'Qp + c'p
subject to floors and caps sampled at plane points plus the LED power boxes.
Uniformity mode minimizes the spatial variance of the simplified SNR over the
receiving plane (a QP); enhanced mode minimizes total LED power under SNR
floors over the activity area (an LP, Q = None).  One small dense primal-dual
interior-point solver (Mehrotra-style predictor-corrector) handles both,
after a phase-1 feasibility solve that detects infeasible instances cleanly
rather than by divergence.  The KKT certificate fits its multipliers with a
numpy Lawson-Hanson nonnegative least-squares solve (``_nnls``), so the
module needs only numpy.

Rows are sampled on a coarse grid for tractability; solve_refined re-checks
a finer grid and appends violated points as extra rows, which converges in a
few rounds because the fields are smooth.  Rows run SNR floors (when the
program has them), illuminance floors, illuminance caps, then the power
boxes; a floor is stored as -a.p <= -b.  Every sampled family has one row
per point, so solve_refined maps a violated row to its point as
``row % len(points)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .geometry import Region, RegionPartition, classify_points
from .photometry import illuminance_coefficients, plane_grid, snr_coefficients
from .scene import Scene

__all__ = [
    "SolveStatus",
    "SolveReport",
    "SampledProgram",
    "UniformityQp",
    "EnhancedLp",
    "build_uniformity_qp",
    "build_enhanced_lp",
    "default_snr_threshold",
    "solve",
    "solve_inequality_program",
    "solve_refined",
    "kkt_residual",
]

_MAX_ITER = 100
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-9
_PHASE1_BIG = 1e6
_ACTIVE_TOL = 1e-4        # scaled slack below which kkt_residual treats a row as active
_REFINE_ROUNDS = 6        # solve_refined: re-solves after the first
_REFINE_NEW_POINTS = 200  # solve_refined: most violated rows appended per round
_REFINE_VIOL_TOL = 1e-12  # solve_refined: scaled fine-grid violation accepted as clean


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, with certificates.

    max_violation and kkt_residual are in row-scaled units (each constraint
    row divided by max(1, |coefficients|, |bound|)).
    """

    x: np.ndarray
    objective: float
    max_violation: float
    kkt_residual: float
    iterations: int
    status: SolveStatus
    worst_row: Optional[str] = None


def _row_scales(g_mat: np.ndarray, h_vec: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.maximum(np.abs(g_mat).max(axis=1), np.abs(h_vec)))


def _step_length(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _newton_solve(chol, g_mat, w, s, z, r_d, r_p, r_c):
    rhs = -r_d - g_mat.T @ (w * r_p - r_c / s)
    dx = chol(rhs)
    dz = w * (g_mat @ dx + r_p) - r_c / s
    ds = -r_p - g_mat @ dx
    return dx, dz, ds


def _predictor_corrector(quad, c, g_mat, h_vec, x0):
    """Core Mehrotra iteration from a strictly feasible primal start."""
    n = len(c)
    m = len(h_vec)
    x = x0.astype(float).copy()
    s = h_vec - g_mat @ x
    if np.any(s <= 0):
        # Nudge inward: should not happen after phase 1.
        s = np.maximum(s, 1e-10)
    z = np.ones(m)
    quad_mat = quad
    h_scale = 1.0 + float(np.abs(h_vec).max(initial=0.0))

    for it in range(1, _MAX_ITER + 1):
        grad = c + (quad_mat @ x if quad_mat is not None else 0.0)
        r_d = grad + g_mat.T @ z
        r_p = g_mat @ x + s - h_vec
        mu = float(s @ z) / m
        obj = float(c @ x) + (0.5 * float(x @ quad_mat @ x) if quad_mat is not None else 0.0)
        grad_scale = 1.0 + float(np.abs(grad).max(initial=0.0))
        if (np.abs(r_d).max() <= _GAP_TOL * grad_scale
                and np.abs(r_p).max() <= _GAP_TOL * h_scale
                and mu * m <= _GAP_TOL * (1.0 + abs(obj))):
            return x, z, it, SolveStatus.OPTIMAL
        if (mu * m <= 1e-3 * _GAP_TOL * (1.0 + abs(obj))
                and np.abs(r_p).max() <= _GAP_TOL * h_scale):
            # Complementarity has bottomed out but the dual residual sits at
            # its numerical floor; let the caller certify the iterate.
            return x, z, it, SolveStatus.MAX_ITER

        w = z / s
        k_mat = g_mat.T @ (g_mat * w[:, None])
        if quad_mat is not None:
            k_mat = k_mat + quad_mat
        ridge = 1e-13 * max(1.0, float(np.trace(k_mat)) / n)
        k_mat = k_mat + ridge * np.eye(n)
        try:
            l_fac = np.linalg.cholesky(k_mat)

            def chol(b, l_fac=l_fac):
                y = np.linalg.solve(l_fac, b)
                return np.linalg.solve(l_fac.T, y)
        except np.linalg.LinAlgError:
            # lstsq does not return on a NaN matrix with some BLAS builds.
            k_mat = np.asarray_chkfinite(k_mat)

            def chol(b, k_mat=k_mat):
                return np.linalg.lstsq(k_mat, b, rcond=None)[0]

        # Predictor (affine scaling) step
        dx_a, dz_a, ds_a = _newton_solve(chol, g_mat, w, s, z, r_d, r_p, s * z)
        alpha_a = min(1.0, _step_length(s, ds_a), _step_length(z, dz_a))
        mu_aff = float((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector step
        r_c = s * z + ds_a * dz_a - sigma * mu
        dx, dz, ds = _newton_solve(chol, g_mat, w, s, z, r_d, r_p, r_c)
        alpha = min(1.0, 0.99 * min(_step_length(s, ds), _step_length(z, dz)))
        x += alpha * dx
        s += alpha * ds
        z += alpha * dz
    return x, z, _MAX_ITER, SolveStatus.MAX_ITER


def _phase1_start(g_mat: np.ndarray, h_vec: np.ndarray):
    """Minimize the worst constraint violation; returns (x, min_violation)."""
    m, n = g_mat.shape
    g1 = np.hstack([g_mat, -np.ones((m, 1))])
    cap_row = np.zeros((1, n + 1))
    cap_row[0, n] = -1.0
    g1 = np.vstack([g1, cap_row])
    h1 = np.concatenate([h_vec, [_PHASE1_BIG]])
    c1 = np.zeros(n + 1)
    c1[n] = 1.0
    x0 = np.zeros(n + 1)
    x0[n] = max(float(np.max(-h_vec)), -_PHASE1_BIG / 2) + 1.0
    y, _, iters, status = _predictor_corrector(None, c1, g1, h1, x0)
    return y[:n], float(y[n]), iters, status


def solve_inequality_program(quad: Optional[np.ndarray], c: np.ndarray,
                             g_mat: np.ndarray, h_vec: np.ndarray,
                             labels: Optional[Sequence[str]] = None) -> SolveReport:
    """Minimize 0.5 x'Qx + c'x subject to Gx <= h (Q = None for an LP).

    A phase-1 solve finds a strictly feasible interior point first; if the
    best achievable worst-violation is not strictly negative the problem is
    reported infeasible, naming the most-violated row.  Non-finite program
    data raises ValueError.  OPTIMAL does not yet require kkt_residual <=
    1e-6 (default_scene(57)'s uniformity QP ends OPTIMAL at 1.6e-6): any
    other status sends apply_mode to its p_max fallback, 3.8-4.8 klx against
    the 2000 lx cap, which is worse than missing the certificate by 6e-7,
    so the least-violation fallback of ROADMAP item 2 must land first.
    """
    quad_arr = None if quad is None else np.asarray_chkfinite(quad, dtype=float)
    c = np.asarray_chkfinite(c, dtype=float)
    g_raw = np.asarray_chkfinite(g_mat, dtype=float).reshape(-1, len(c))
    h_raw = np.asarray_chkfinite(h_vec, dtype=float).ravel()
    if g_raw.shape[0] != h_raw.shape[0]:
        raise ValueError("G and h row counts differ")
    scales = _row_scales(g_raw, h_raw)
    g_s = g_raw / scales[:, None]
    h_s = h_raw / scales

    x1, t_star, iters1, status1 = _phase1_start(g_s, h_s)
    if status1 is not SolveStatus.OPTIMAL or t_star >= -_FEAS_TOL:
        viol = g_s @ x1 - h_s
        worst = int(np.argmax(viol))
        label = labels[worst] if labels is not None else f"row[{worst}]"
        return SolveReport(x=x1, objective=float("nan"),
                           max_violation=float(viol.max()),
                           kkt_residual=float("nan"), iterations=iters1,
                           status=SolveStatus.INFEASIBLE, worst_row=label)

    # Normalize the objective magnitude; the minimizer is unaffected and the
    # unit dual start is sensible regardless of the problem's natural units.
    obj_scale = max(float(np.abs(c).max(initial=0.0)),
                    float(np.abs(quad_arr).max(initial=0.0)) if quad_arr is not None else 0.0,
                    1e-300)
    quad_scaled = None if quad_arr is None else quad_arr / obj_scale
    x, _, iters2, status = _predictor_corrector(quad_scaled, c / obj_scale, g_s, h_s, x1)
    # np.sum(c * x), not c @ x: a dot product's summation order can move the
    # LP's total power by an ulp against np.sum(x)
    objective = (float(np.sum(c * x))
                 + (0.5 * float(x @ quad_arr @ x) if quad_arr is not None else 0.0))
    viol = g_s @ x - h_s
    resid = kkt_residual((quad_arr, c, g_raw, h_raw), x)
    max_violation = float(max(viol.max(), 0.0))
    if (status is not SolveStatus.OPTIMAL and resid <= 1e-6 and max_violation <= 1e-6):
        # The iteration stalled at its numerical floor but the independent
        # first-order certificate passes, so the point is accepted.
        status = SolveStatus.OPTIMAL
    worst = int(np.argmax(viol))
    label = labels[worst] if labels is not None else f"row[{worst}]"
    return SolveReport(x=x, objective=objective,
                       max_violation=max_violation,
                       kkt_residual=resid, iterations=iters1 + iters2,
                       status=status, worst_row=label if status is not SolveStatus.OPTIMAL else None)


def _nnls_max_iter(n_cols: int) -> int:
    """Iteration cap of _nnls, scipy.optimize.nnls's default."""
    return 3 * n_cols


def _nnls(a: np.ndarray, b: np.ndarray):
    """Minimize |a x - b|_2 subject to x >= 0; returns (x, residual norm).

    Lawson & Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23): move the free column with the largest gradient into the
    passive set and solve least squares on that set, stepping back whenever
    a passive coefficient would go negative.  Each column moved in and each
    step back is one iteration.  At the cap the current nonnegative iterate
    is returned, so its residual bounds the optimum from above.  Non-finite
    input raises ValueError.
    """
    a = np.asarray_chkfinite(a, dtype=float)
    b = np.asarray_chkfinite(b, dtype=float)
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    # gradient entries at or below this are roundoff, not descent directions
    tol = (10.0 * max(m, n) * np.finfo(float).eps
           * np.abs(a).sum(axis=0).max(initial=0.0) * np.linalg.norm(b))
    settled = True  # x is the least-squares point on the passive set
    for _ in range(_nnls_max_iter(n)):
        if settled:
            w = np.where(passive, -np.inf, a.T @ (b - a @ x))
            k = int(np.argmax(w))
            # m passive columns already span the rows; nothing can improve the fit
            if w[k] <= tol or np.count_nonzero(passive) == m:
                break
            passive[k] = True
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        settled = bool(np.all(z[passive] >= 0))
        if settled:
            x = z
            continue
        # step toward z until the first negative coefficient reaches zero and
        # free it; the clamp and the explicit zero absorb rounding in the step
        blocking = np.flatnonzero(passive & (z < 0))
        ratios = x[blocking] / (x[blocking] - z[blocking])
        j = int(np.argmin(ratios))
        x = np.maximum(x + ratios[j] * (z - x), 0.0)
        x[blocking[j]] = 0.0
        passive &= x > 0
    return x, float(np.linalg.norm(a @ x - b))


def kkt_residual(problem, x: np.ndarray) -> float:
    """Scaled first-order optimality residual of ``x`` for the problem.

    A Lawson-Hanson nonnegative least-squares solve (``_nnls``) fits
    multipliers on the (scaled-)active rows; the residual is the infinity
    norm of the remaining Lagrangian gradient, divided by max(1, |gradient|).
    Zero at an exact optimum; equal to the scaled objective-gradient norm at
    an unconstrained interior point.
    """
    # src/ passes the tuple; the program form is kept only for bench/worker.py (ROADMAP item 1).
    if isinstance(problem, tuple):
        quad, c, g_mat, h_vec = problem
    else:
        quad, c = problem.quadratic_term(), problem.linear
        g_mat, h_vec, _ = problem.constraint_system()
    x = np.asarray(x, dtype=float)
    grad = np.asarray(c, dtype=float) + (quad @ x if quad is not None else 0.0)
    scales = _row_scales(g_mat, h_vec)
    slack = (h_vec - g_mat @ x) / scales
    active = slack <= _ACTIVE_TOL
    denom = max(1.0, float(np.abs(grad).max(initial=0.0)))
    if not np.any(active):
        return float(np.abs(grad).max(initial=0.0)) / denom
    g_act = (g_mat / scales[:, None])[active]
    mult, _ = _nnls(g_act.T, -grad)
    return float(np.abs(grad + g_act.T @ mult).max()) / denom


# ---------------------------------------------------------------------------
# Mode-specific problems
# ---------------------------------------------------------------------------

def _region_points(scene: Scene, partition: RegionPartition, pitch: float,
                   activity_only: bool) -> np.ndarray:
    pts = plane_grid(scene.room, pitch)
    codes = classify_points(pts, partition)
    if activity_only:
        keep = codes == Region.ACTIVITY.value
    else:
        keep = codes != Region.OUTSIDE.value
    return pts[keep]


def _snr_rows(scene: Scene, points: np.ndarray) -> np.ndarray:
    return snr_coefficients(scene.leds, points, scene.room.plane_z,
                            scene.comm_pd, scene.noise)


def _illum_rows(scene: Scene, points: np.ndarray) -> np.ndarray:
    return illuminance_coefficients(scene.leds, points, scene.room.plane_z)


@dataclass(frozen=True)
class SampledProgram:
    """Minimize p'Qp + c'p subject to floors and caps sampled at ``points``
    plus the power boxes (Q = None for an LP).

    Row i of each coefficient array holds the per-watt value at points[i].
    The SNR floor rows exist only when ``snr_coeffs`` is given, and only then
    is ``snr_threshold`` read.  ``activity_only`` names the region of the
    fine-grid check: the activity area, or all of the receiving plane.
    """

    q_matrix: Optional[np.ndarray]    # Q, (M, M)
    linear: np.ndarray                # c, (M,)
    points: np.ndarray                # (L, 2) constraint sample points
    snr_coeffs: Optional[np.ndarray]  # (L, M)
    illum_coeffs: np.ndarray          # (L, M)
    snr_threshold: float
    e_min: float
    e_max: float
    p_min: np.ndarray
    p_max: np.ndarray
    activity_only: bool

    def _sampled_blocks(self, snr: Optional[np.ndarray], illum: np.ndarray):
        """(label, G rows, h) of each sampled family, in row order; a floor
        a.p >= b is stored as -a.p <= -b."""
        n = len(illum)
        blocks = [("illuminance_min", -illum, np.full(n, -self.e_min)),
                  ("illuminance_max", illum, np.full(n, self.e_max))]
        if snr is not None:
            blocks.insert(0, ("snr_min", -snr, np.full(n, -self.snr_threshold)))
        return blocks

    def constraint_system(self):
        blocks = self._sampled_blocks(self.snr_coeffs, self.illum_coeffs)
        n, m = len(self.points), len(self.p_min)
        eye = np.eye(m)
        g_mat = np.vstack([g for _, g, _ in blocks] + [-eye, eye])
        h_vec = np.concatenate([h for _, _, h in blocks] + [-self.p_min, self.p_max])
        labels = ([f"{label}[{i}]" for label, _, _ in blocks for i in range(n)]
                  + [f"power_min[{i}]" for i in range(m)]
                  + [f"power_max[{i}]" for i in range(m)])
        return g_mat, h_vec, labels

    def quadratic_term(self) -> Optional[np.ndarray]:
        """Hessian 2Q of the objective, or None for an LP."""
        return None if self.q_matrix is None else 2.0 * self.q_matrix

    def rows_at(self, scene: Scene, partition: RegionPartition, points: np.ndarray):
        """Sampled constraint rows evaluated at arbitrary plane points."""
        snr = None if self.snr_coeffs is None else _snr_rows(scene, points)
        blocks = self._sampled_blocks(snr, _illum_rows(scene, points))
        return np.vstack([g for _, g, _ in blocks]), np.concatenate([h for _, _, h in blocks])

    def check_points(self, scene: Scene, partition: RegionPartition,
                     pitch: float) -> np.ndarray:
        return _region_points(scene, partition, pitch, self.activity_only)

    def with_extra_points(self, scene: Scene, partition: RegionPartition,
                          points: np.ndarray):
        snr = (None if self.snr_coeffs is None
               else np.vstack([self.snr_coeffs, _snr_rows(scene, points)]))
        return replace(self, points=np.vstack([self.points, points]), snr_coeffs=snr,
                       illum_coeffs=np.vstack([self.illum_coeffs, _illum_rows(scene, points)]))


# Mode tags kept only for bench/worker.py, which names solves by class (ROADMAP item 1).
class UniformityQp(SampledProgram):
    """SNR-variance QP: Q = (1/L) A' M A with A the per-watt SNR coefficients
    at the receiving-plane samples and M the centering matrix I - (1/L) 11';
    illuminance floors and caps over the plane, no SNR floors."""

    rows_at = SampledProgram.rows_at


class EnhancedLp(SampledProgram):
    """Total-power LP: c = 1, SNR and illuminance floors plus illuminance
    caps over the activity area."""

    rows_at = SampledProgram.rows_at


def build_uniformity_qp(scene: Scene, partition: RegionPartition) -> UniformityQp:
    """Assemble the SNR-variance QP on the receiving-plane grid at ``opt_pitch_m``."""
    pts = _region_points(scene, partition, scene.controller.opt_pitch_m, activity_only=False)
    if len(pts) == 0:
        raise ValueError("no receiving-plane samples at this pitch")
    a_mat = _snr_rows(scene, pts)
    centered = a_mat - a_mat.mean(axis=0, keepdims=True)
    q_matrix = centered.T @ centered / len(pts)
    p_min, p_max = scene.power_bounds()
    ctl = scene.controller
    return UniformityQp(q_matrix=q_matrix, linear=np.zeros(len(p_min)), points=pts,
                        snr_coeffs=None, illum_coeffs=_illum_rows(scene, pts),
                        snr_threshold=0.0, e_min=ctl.e_uniform_min_lx,
                        e_max=ctl.e_uniform_max_lx, p_min=p_min, p_max=p_max,
                        activity_only=False)


def default_snr_threshold(scene: Scene, partition: RegionPartition) -> float:
    """Plane-average simplified SNR at the uniform baseline power."""
    pts = _region_points(scene, partition, scene.controller.field_pitch_m,
                         activity_only=False)
    p_base = np.full(scene.num_leds, scene.controller.baseline_power_w)
    return float(np.mean(_snr_rows(scene, pts) @ p_base))


def build_enhanced_lp(scene: Scene, partition: RegionPartition) -> EnhancedLp:
    """Assemble the total-power LP on the activity-area grid at the scene's
    ``opt_pitch_m``.  The range checks guard scenes that skipped validation."""
    ctl = scene.controller
    snr_threshold = ctl.snr_threshold
    if snr_threshold is None:
        snr_threshold = default_snr_threshold(scene, partition)
    if snr_threshold < 0:
        raise ValueError(f"SNR threshold must be nonnegative, got {snr_threshold}")
    e_min, e_max = ctl.e_enhanced_min_lx, ctl.e_enhanced_max_lx
    if not 0 <= e_min <= e_max:
        raise ValueError(f"invalid illuminance range [{e_min}, {e_max}]")
    pts = _region_points(scene, partition, ctl.opt_pitch_m, activity_only=True)
    if len(pts) == 0:
        # Tiny activity areas can fall between grid points; sample the center.
        pts = np.array([[partition.mic.center.x, partition.mic.center.y]])
    p_min, p_max = scene.power_bounds()
    return EnhancedLp(q_matrix=None, linear=np.ones(len(p_min)), points=pts,
                      snr_coeffs=_snr_rows(scene, pts), illum_coeffs=_illum_rows(scene, pts),
                      snr_threshold=float(snr_threshold), e_min=float(e_min),
                      e_max=float(e_max), p_min=p_min, p_max=p_max, activity_only=True)


def solve(problem: SampledProgram) -> SolveReport:
    """Solve a mode program; the objective is its own p'Qp + c'p."""
    g_mat, h_vec, labels = problem.constraint_system()
    return solve_inequality_program(problem.quadratic_term(), problem.linear,
                                    g_mat, h_vec, labels=labels)


def solve_refined(problem, scene: Scene, partition: RegionPartition):
    """Solve, then re-check the sampled constraints on the scene's field grid
    and re-solve with violated points appended until that grid is clean.

    Returns (problem, report); the returned problem contains any appended
    constraint points.
    """
    report = solve(problem)
    check_pts = problem.check_points(scene, partition, scene.controller.field_pitch_m)
    # appended points change no check row, so the rows and scales are formed once
    g_mat, h_vec = problem.rows_at(scene, partition, check_pts)
    scales = _row_scales(g_mat, h_vec)
    for _ in range(_REFINE_ROUNDS):
        if report.status is not SolveStatus.OPTIMAL:
            return problem, report
        viol = (g_mat @ report.x - h_vec) / scales
        if viol.max(initial=0.0) <= _REFINE_VIOL_TOL:
            return problem, report
        bad_rows = np.argsort(viol)[::-1][:_REFINE_NEW_POINTS]
        bad_rows = bad_rows[viol[bad_rows] > _REFINE_VIOL_TOL]
        # rows_at gives each sampled family one row per point, so row index
        # mod point count recovers the sample point a violated row belongs to;
        # masking the x-major grid keeps those points distinct and ascending
        bad = np.zeros(len(check_pts), dtype=bool)
        bad[bad_rows % len(check_pts)] = True
        problem = problem.with_extra_points(scene, partition, check_pts[bad])
        report = solve(problem)
    return problem, report
