import itertools
from dataclasses import replace

import numpy as np
import pytest

from isci import optimize as op
from isci.geometry import Region, build_partition, classify_points
from isci.photometry import plane_grid, snr_coefficients
from isci.scene import default_scene
from tests.oracles import highs_lp


def _toy_qp():
    """Two-variable uniformity QP whose Q comes from three hand-picked SNR
    rows, held to illuminance rows at two constraint points."""
    a_mat = np.array([[2.0, 0.5], [1.0, 1.2], [0.6, 1.8]])
    centered = a_mat - a_mat.mean(axis=0, keepdims=True)
    q = centered.T @ centered / len(a_mat)
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    illum = np.array([[4.0, 5.0], [5.5, 3.5]])
    return op.UniformityQp(q_matrix=q, linear=np.zeros(2), points=points,
                           snr_coeffs=None, illum_coeffs=illum, snr_threshold=0.0,
                           e_min=350.0, e_max=900.0, p_min=np.array([10.0, 10.0]),
                           p_max=np.array([80.0, 80.0]), activity_only=False)


def _toy_lp(threshold=120.0):
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    snr = np.array([[3.0, 1.0], [1.0, 2.5]])
    illum = np.array([[4.0, 5.0], [5.5, 3.5]])
    return op.EnhancedLp(q_matrix=None, linear=np.ones(2), points=points,
                         snr_coeffs=snr, illum_coeffs=illum, snr_threshold=threshold,
                         e_min=350.0, e_max=900.0, p_min=np.array([10.0, 10.0]),
                         p_max=np.array([80.0, 80.0]), activity_only=True)


def _snr_at(scene, points):
    """Per-watt SNR rows A at plane points, as the uniformity Q is built from."""
    return snr_coefficients(scene.leds, points, scene.room.plane_z, scene.comm_pd, scene.noise)


def _feasible_mask(problem, pts):
    g_mat, h_vec, _ = problem.constraint_system()
    return (pts @ g_mat.T <= h_vec + 1e-12).all(axis=1)


def _grid_points(lo, hi, n):
    xs = np.linspace(lo, hi, n)
    return np.array(list(itertools.product(xs, xs)))


def _qp_grid_minimum(qp, n=200):
    pts = _grid_points(qp.p_min[0], qp.p_max[0], n)
    pts = pts[_feasible_mask(qp, pts)]
    vals = np.einsum("ij,jk,ik->i", pts, qp.q_matrix, pts)
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


def _qp_refined_minimum(qp):
    _, p0 = _qp_grid_minimum(qp, n=200)
    span = 0.5
    xs = np.arange(p0[0] - span, p0[0] + span, 1e-3)
    ys = np.arange(p0[1] - span, p0[1] + span, 1e-3)
    pts = np.array(np.meshgrid(xs, ys, indexing="ij")).reshape(2, -1).T
    pts = np.clip(pts, qp.p_min, qp.p_max)
    pts = pts[_feasible_mask(qp, pts)]
    vals = np.einsum("ij,jk,ik->i", pts, qp.q_matrix, pts)
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


# ---------------------------------------------------------------------------
# QP construction
# ---------------------------------------------------------------------------

def test_qp_identity_against_direct_variance(scene, partition, rng):
    qp = op.build_uniformity_qp(scene, partition)
    a_mat = _snr_at(scene, qp.points)
    lo, hi = qp.p_min, qp.p_max
    for _ in range(100):
        p = rng.uniform(lo, hi)
        snr = a_mat @ p
        var = float(np.mean((snr - snr.mean()) ** 2))
        assert abs(float(p @ qp.q_matrix @ p) - var) <= 1e-9 * var


def test_qp_matrix_matches_centering_definition(scene, partition):
    qp = op.build_uniformity_qp(scene, partition)
    a_mat = _snr_at(scene, qp.points)
    n = len(qp.points)
    m_c = np.eye(n) - np.ones((n, n)) / n
    explicit = a_mat.T @ m_c @ a_mat / n
    np.testing.assert_allclose(qp.q_matrix, explicit, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(qp.q_matrix, qp.q_matrix.T, atol=1e-12)


def test_qp_psd(scene, partition):
    qp = op.build_uniformity_qp(scene, partition)
    eig = np.linalg.eigvalsh(qp.q_matrix)
    assert eig.min() >= -1e-9 * eig.max()


def test_single_source_variance_positive(rng):
    # one LED cannot flatten its own distance profile
    a_mat = np.array([[2.0], [1.0], [0.4]])
    centered = a_mat - a_mat.mean(axis=0, keepdims=True)
    q = centered.T @ centered / len(a_mat)
    for _ in range(10):
        p = rng.uniform(1.0, 80.0, 1)
        assert float(p @ q @ p) > 0.0


def _with_controller(scene, **changes):
    return replace(scene, controller=replace(scene.controller, **changes))


def test_qp_samples_are_mec_grid(scene, partition):
    qp = op.build_uniformity_qp(_with_controller(scene, opt_pitch_m=0.25), partition)
    pts = plane_grid(scene.room, 0.25)
    keep = classify_points(pts, partition) != Region.OUTSIDE.value
    np.testing.assert_allclose(qp.points, pts[keep])
    assert qp.snr_coeffs is None and not qp.activity_only
    assert np.all(_snr_at(scene, qp.points) > 0)


def test_quadratic_scaling_law(scene, partition, rng):
    qp = op.build_uniformity_qp(scene, partition)
    p = rng.uniform(qp.p_min, qp.p_max)
    base = float(p @ qp.q_matrix @ p)
    for c in (0.5, 2.0, 7.0):
        scaled = float((c * p) @ qp.q_matrix @ (c * p))
        assert abs(scaled - c * c * base) <= 1e-9 * c * c * base


def test_simplification_precondition_enforced(scene, partition):
    from dataclasses import replace
    steep = replace(scene, leds=tuple(replace(led, half_power_angle_deg=40.0)
                                      for led in scene.leds))
    from isci.photometry import SimplificationError
    with pytest.raises(SimplificationError):
        op.build_uniformity_qp(steep, partition)


# ---------------------------------------------------------------------------
# QP solving
# ---------------------------------------------------------------------------

def test_toy_qp_matches_grid_oracle():
    qp = _toy_qp()
    report = op.solve(qp)
    assert report.status is op.SolveStatus.OPTIMAL
    coarse_obj, _ = _qp_grid_minimum(qp)
    assert report.objective <= coarse_obj + 1e-12
    assert abs(report.objective - coarse_obj) <= 1e-2 * coarse_obj
    refined_obj, _ = _qp_refined_minimum(qp)
    assert abs(report.objective - refined_obj) <= 1e-3 * refined_obj


def test_toy_qp_certificates():
    report = op.solve(_toy_qp())
    assert report.max_violation <= 1e-6
    assert report.kkt_residual <= 1e-6


def test_degenerate_single_sample_qp():
    # one sample has zero variance, so Q = 0, and one constraint point is left
    qp = _toy_qp()
    single = replace(qp, points=qp.points[:1], illum_coeffs=qp.illum_coeffs[:1],
                     q_matrix=np.zeros((2, 2)))
    assert single.constraint_system()[2][:2] == ["illuminance_min[0]", "illuminance_max[0]"]
    assert len(single.constraint_system()[1]) == 2 + 2 * 2
    report = op.solve(single)
    assert report.status is op.SolveStatus.OPTIMAL
    assert abs(report.objective) <= 1e-9
    assert report.max_violation <= 1e-6


def test_qp_row_permutation_invariance(scene, partition, rng):
    # reordering the constraint points, each with its own rows, leaves the optimum
    default_qp = op.build_uniformity_qp(scene, partition)
    for qp, perm in ((_toy_qp(), np.array([1, 0])),
                     (default_qp, rng.permutation(len(default_qp.points)))):
        assert np.any(perm != np.arange(len(perm)))
        base = op.solve(qp).objective
        shuffled = replace(qp, points=qp.points[perm], illum_coeffs=qp.illum_coeffs[perm])
        again = op.solve(shuffled).objective
        assert abs(base - again) <= 1e-8 * max(1.0, base)


def test_default_scene_qp_solves(scene, partition):
    report = op.solve(op.build_uniformity_qp(scene, partition))
    assert report.status is op.SolveStatus.OPTIMAL
    lo, hi = scene.power_bounds()
    assert np.all(report.x >= lo - 1e-9) and np.all(report.x <= hi + 1e-9)


# ---------------------------------------------------------------------------
# LP solving
# ---------------------------------------------------------------------------

def test_single_variable_lp():
    g = np.array([[-1.0], [-1.0], [1.0]])
    h = np.array([-3.0, 0.0, 10.0])
    report = op.solve_inequality_program(None, np.array([1.0]), g, h)
    assert report.status is op.SolveStatus.OPTIMAL
    assert abs(report.x[0] - 3.0) <= 1e-6


def _lp_vertex_oracle(lp):
    g_mat, h_vec, _ = lp.constraint_system()
    best = None
    for i, j in itertools.combinations(range(len(h_vec)), 2):
        a = np.array([g_mat[i], g_mat[j]])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, np.array([h_vec[i], h_vec[j]]))
        if np.all(g_mat @ x <= h_vec + 1e-9):
            val = float(np.sum(x))
            if best is None or val < best:
                best = val
    return best


def test_toy_lp_matches_vertex_enumeration():
    lp = _toy_lp()
    report = op.solve(lp)
    assert report.status is op.SolveStatus.OPTIMAL
    oracle = _lp_vertex_oracle(lp)
    assert abs(report.objective - oracle) <= 1e-6 * abs(oracle)


def test_lp_infeasible_reports_worst_row(scene, partition):
    lp = op.build_enhanced_lp(_with_controller(scene, snr_threshold=1e12), partition)
    report = op.solve(lp)
    assert report.status is op.SolveStatus.INFEASIBLE
    assert report.worst_row is not None and report.worst_row.startswith("snr_min")


def test_lp_zero_threshold_hits_power_floor(scene, partition):
    lp = op.build_enhanced_lp(_with_controller(scene, snr_threshold=0.0, e_enhanced_min_lx=0.0,
                                               e_enhanced_max_lx=1e9), partition)
    report = op.solve(lp)
    assert report.status is op.SolveStatus.OPTIMAL
    np.testing.assert_allclose(report.x, lp.p_min, atol=1e-5)


def test_lp_threshold_monotonicity(scene, partition):
    base = op.default_snr_threshold(scene, partition)
    objectives = []
    for f in (0.4, 0.6, 0.8, 1.0):
        lp = op.build_enhanced_lp(_with_controller(scene, snr_threshold=f * base), partition)
        report = op.solve(lp)
        assert report.status is op.SolveStatus.OPTIMAL
        objectives.append(report.objective)
    assert all(b >= a - 1e-6 for a, b in zip(objectives, objectives[1:]))


def test_lp_objective_within_power_box(scene, partition):
    report = op.solve(op.build_enhanced_lp(scene, partition))
    lo, hi = scene.power_bounds()
    assert lo.sum() - 1e-6 <= report.objective <= hi.sum() + 1e-6


# Phase 1 of the refined program stops at MAX_ITER after 23 iterations at a
# strictly feasible point (worst row snr_min[41], max_violation -0.0168), and
# solve_inequality_program reports every phase-1 stop short of OPTIMAL as
# INFEASIBLE.  HiGHS solves the same program at 338.88 W.
_PHASE1_STALL = "phase-1 MAX_ITER stop reported as INFEASIBLE; HiGHS: optimal at 338.88 W"


@pytest.mark.parametrize("layout", [
    pytest.param(s, marks=pytest.mark.xfail(raises=AssertionError, strict=True,
                                           reason=_PHASE1_STALL)) if s == 23 else s
    for s in range(50)])
def test_refined_enhanced_lp_matches_highs(layout):
    scene = default_scene(layout)
    partition = build_partition(scene)
    problem, report = op.solve_refined(op.build_enhanced_lp(scene, partition), scene, partition)
    g_mat, h_vec, _ = problem.constraint_system()
    oracle = highs_lp(problem.linear, g_mat, h_vec)
    assert report.status.value == {0: "optimal", 2: "infeasible"}[oracle.status]
    if oracle.status == 0:
        assert abs(report.objective - oracle.fun) <= 1e-6 * abs(oracle.fun)


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------

def test_kkt_residual_small_at_grid_optimum():
    qp = _toy_qp()
    _, p_grid = _qp_refined_minimum(qp)
    assert op.kkt_residual(qp, p_grid) <= 1e-3


def test_kkt_residual_larger_off_optimum():
    qp = _toy_qp()
    report = op.solve(qp)
    at_solution = op.kkt_residual(qp, report.x)
    lo, hi = qp.p_min, qp.p_max
    perturbed = np.clip(report.x + np.array([5.0, -4.0]), lo + 1.0, hi - 1.0)
    assert op.kkt_residual(qp, perturbed) > at_solution


def test_kkt_residual_interior_lp_is_gradient_norm():
    lp = _toy_lp(threshold=10.0)
    interior = np.array([40.0, 40.0])
    g_mat, h_vec, _ = lp.constraint_system()
    assert np.all(g_mat @ interior < h_vec - 1.0)
    # gradient of 1'p is the all-ones vector; scaled norm is exactly 1
    assert op.kkt_residual(lp, interior) == pytest.approx(1.0)


def test_solver_reports_pass_certificates(scene, partition):
    for build in (op.build_uniformity_qp, op.build_enhanced_lp):
        report = (op.solve)(
            build(scene, partition))
        assert report.status is op.SolveStatus.OPTIMAL
        assert report.max_violation <= 1e-6
        assert report.kkt_residual <= 1e-6


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="OPTIMAL does not yet require the KKT certificate (ROADMAP items 2 "
                          "and 15): layout 57's uniformity QP ends OPTIMAL at 1.61e-6 after "
                          "27 iterations")
def test_optimal_refined_solve_passes_the_kkt_certificate():
    # the one OPTIMAL refined solve of layouts 0-119, in either mode, above 1e-6
    scene = default_scene(57)
    partition = build_partition(scene)
    _, report = op.solve_refined(op.build_uniformity_qp(scene, partition), scene, partition)
    assert report.status is not op.SolveStatus.OPTIMAL or report.kkt_residual <= 1e-6


@pytest.mark.parametrize("layout", [None, 0, 1])
def test_reported_objective_is_the_programs_own(layout):
    # bit for bit: total power for the LP, p'Qp for the QP.  On layouts 0 and
    # 1 a dot product 1 @ x differs from np.sum(x) in the last bit.
    scene = default_scene() if layout is None else default_scene(layout)
    partition = build_partition(scene)
    lp_report = op.solve(op.build_enhanced_lp(scene, partition))
    assert lp_report.objective == float(np.sum(lp_report.x))
    qp = op.build_uniformity_qp(scene, partition)
    x = op.solve(qp).x
    assert op.solve(qp).objective == float(x @ qp.q_matrix @ x)


# ---------------------------------------------------------------------------
# fine-grid refinement
# ---------------------------------------------------------------------------

def test_refinement_clears_fine_grid(scene, partition):
    qp = op.build_uniformity_qp(scene, partition)
    problem, report = op.solve_refined(qp, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    pts = problem.check_points(scene, partition, scene.controller.field_pitch_m)
    g_mat, h_vec = problem.rows_at(scene, partition, pts)
    viol = (g_mat @ report.x - h_vec) / np.maximum(1.0, np.abs(h_vec))
    assert viol.max() <= 1e-9


@pytest.mark.parametrize("build", [op.build_uniformity_qp, op.build_enhanced_lp])
def test_refinement_forms_check_rows_once(monkeypatch, scene, partition, build):
    # appended points change no check row, so each call forms them once,
    # however many rounds re-solve
    problem = build(scene, partition)
    rows_at, solve = type(problem).rows_at, op.solve
    calls = {"rows_at": 0, "solve": 0}

    def count(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(type(problem), "rows_at", count("rows_at", rows_at))
    monkeypatch.setattr(op, "solve", count("solve", solve))
    refined, report = op.solve_refined(problem, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    assert len(refined.points) > len(problem.points)  # some round re-solved
    assert calls["rows_at"] == 1 and calls["solve"] >= 2


def test_refinement_keeps_objective_samples(scene, partition):
    qp = op.build_uniformity_qp(scene, partition)
    problem, _ = op.solve_refined(qp, scene, partition)
    np.testing.assert_allclose(problem.q_matrix, qp.q_matrix)
    assert len(problem.points) >= len(qp.points)


@pytest.mark.parametrize("build", [op.build_uniformity_qp, op.build_enhanced_lp])
def test_sampled_row_layout(scene, partition, build):
    problem = build(scene, partition)
    is_qp = isinstance(problem, op.UniformityQp)
    points = problem.points
    g_mat, h_vec, labels = problem.constraint_system()

    # the sampled rows lead the stacked system, followed by the power boxes
    g_pts, h_pts = problem.rows_at(scene, partition, points)
    np.testing.assert_array_equal(g_mat[:len(h_pts)], g_pts)
    np.testing.assert_array_equal(h_vec[:len(h_pts)], h_pts)

    families = (["illuminance_min", "illuminance_max"] if is_qp
                else ["snr_min", "illuminance_min", "illuminance_max"])
    m = len(problem.p_min)
    expected = ([f"{name}[{i}]" for name in families for i in range(len(points))]
                + [f"power_min[{i}]" for i in range(m)]
                + [f"power_max[{i}]" for i in range(m)])
    assert labels == expected
    assert len(h_vec) == len(expected)

    extra = problem.check_points(scene, partition, scene.controller.field_pitch_m)[:3]
    grown = problem.with_extra_points(scene, partition, extra)
    if is_qp:
        grown_fields = ["points", "illum_coeffs"]
        assert grown.snr_coeffs is None
        np.testing.assert_array_equal(grown.q_matrix, problem.q_matrix)
    else:
        grown_fields = ["points", "snr_coeffs", "illum_coeffs"]
    for name in grown_fields:
        before, after = getattr(problem, name), getattr(grown, name)
        assert len(after) == len(before) + len(extra), name
        np.testing.assert_array_equal(after[:len(before)], before)
    np.testing.assert_array_equal(grown.points, np.vstack([points, extra]))
    assert len(grown.constraint_system()[1]) == len(h_vec) + len(families) * len(extra)


# ---------------------------------------------------------------------------
# nonnegative least squares behind the KKT certificate
# ---------------------------------------------------------------------------

def _nnls_cases():
    """(name, a, b): tall, wide, rank-deficient, all-negative b, zero column."""
    rng = np.random.default_rng(7)
    tall = rng.standard_normal((30, 8))
    wide = rng.standard_normal((8, 25))
    rank3 = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))
    zero_col = rng.standard_normal((15, 6))
    zero_col[:, 2] = 0.0
    cases = [("tall", tall, rng.standard_normal(30)),
             ("wide", wide, rng.standard_normal(8)),
             ("rank-deficient", rank3, rng.standard_normal(12)),
             ("all-negative b", np.abs(rng.standard_normal((10, 5))),
              -np.abs(rng.standard_normal(10))),
             ("zero column", zero_col, rng.standard_normal(15))]
    for seed in range(40):
        # a shared column component makes some solves free a passive column
        r = np.random.default_rng(seed)
        m, n = r.integers(2, 20, size=2)
        a = r.standard_normal((m, n)) + r.uniform(0.0, 3.0) * r.standard_normal((m, 1))
        cases.append((f"random[{seed}]", a, r.standard_normal(m)))
    return cases


def test_nnls_matches_scipy_oracle():
    sp_opt = pytest.importorskip("scipy.optimize")
    for name, a, b in _nnls_cases():
        x, rnorm = op._nnls(a, b)
        x_ref, _ = sp_opt.nnls(a, b)
        assert np.all(x >= 0), name
        assert rnorm == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-15, abs=0.0), name
        ref_norm = np.linalg.norm(a @ x_ref - b)
        assert abs(rnorm - ref_norm) <= 1e-12 * np.linalg.norm(b), name
        if name == "all-negative b":
            np.testing.assert_array_equal(x, 0.0)
        if name == "zero column":
            assert x[2] == 0.0


def test_kkt_residual_matches_scipy_nnls(monkeypatch):
    sp_opt = pytest.importorskip("scipy.optimize")
    solved = []
    for seed in range(50):
        scene = default_scene(seed)
        partition = build_partition(scene)
        for build in (op.build_uniformity_qp, op.build_enhanced_lp):
            problem, report = op.solve_refined(build(scene, partition), scene, partition)
            if report.status is op.SolveStatus.OPTIMAL:
                solved.append((problem, report.x, op.kkt_residual(problem, report.x)))
    assert len(solved) == 93  # seven refined enhanced programs are infeasible
    monkeypatch.setattr(op, "_nnls", sp_opt.nnls)
    for problem, x, resid in solved:
        assert abs(resid - op.kkt_residual(problem, x)) <= 1e-12


def test_nnls_iteration_cap_returns_nonnegative_upper_bound(monkeypatch, scene, partition):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 6))
    b = a @ np.array([1.0, 2.0, 0.5, 3.0, 0.0, 1.5]) + 0.1 * rng.standard_normal(20)
    _, full_rnorm = op._nnls(a, b)
    problem, report = op.solve_refined(op.build_enhanced_lp(scene, partition), scene, partition)
    full_kkt = op.kkt_residual(problem, report.x)

    monkeypatch.setattr(op, "_nnls_max_iter", lambda n_cols: 1)
    x, rnorm = op._nnls(a, b)
    assert np.all(x >= 0)
    assert np.count_nonzero(x) <= 1
    assert rnorm > full_rnorm
    # a capped fit can only overstate the residual, so the certificate fails safe
    assert op.kkt_residual(problem, report.x) >= full_kkt


def test_nnls_iterates_descend_to_a_kkt_point(monkeypatch):
    # capped after any number of iterations, _nnls returns a nonnegative point
    # whose residual never rises with the cap and ends at the full solve's
    for name, a, b in _nnls_cases():
        x_full, full_rnorm = op._nnls(a, b)
        # the full solve is optimal: no column can lower the residual, and
        # the gradient vanishes on the positive coefficients
        grad = a.T @ (a @ x_full - b)
        tol = 1e-12 * np.abs(a).sum(axis=0).max() * np.linalg.norm(b)
        assert grad.min(initial=0.0) >= -tol, name
        assert np.abs(grad[x_full > 0]).max(initial=0.0) <= tol, name
        previous = np.linalg.norm(b)
        for cap in range(3 * a.shape[1] + 1):
            monkeypatch.setattr(op, "_nnls_max_iter", lambda n_cols, cap=cap: cap)
            x, rnorm = op._nnls(a, b)
            assert np.all(x >= 0), (name, cap)
            assert rnorm <= previous + 1e-12 * np.linalg.norm(b), (name, cap)
            previous = rnorm
        assert rnorm == full_rnorm, name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nnls_rejects_non_finite_input(bad):
    a = np.eye(3)
    b = np.ones(3)
    a_bad = a.copy()
    a_bad[1, 2] = bad
    b_bad = b.copy()
    b_bad[0] = bad
    with pytest.raises(ValueError):
        op._nnls(a_bad, b)
    with pytest.raises(ValueError):
        op._nnls(a, b_bad)


def test_lstsq_fallback_rejects_nan_matrix():
    # Cholesky fails on the indefinite first pivot, so the Newton solve falls
    # back to lstsq, which must not be handed the NaN; solve_inequality_program
    # rejects such a quad at entry, so the iteration is called directly
    quad = np.array([[-10.0, 0.0], [0.0, np.nan]])
    g_mat = np.vstack([np.eye(2), -np.eye(2)])
    with pytest.raises(ValueError, match="infs or NaNs"):
        op._predictor_corrector(quad, np.ones(2), g_mat, np.ones(4), np.zeros(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        op.solve_inequality_program(quad, np.ones(2), g_mat, np.ones(4))


_BOX = np.vstack([np.eye(2), -np.eye(2)])  # -1 <= x <= 1 with h = ones(4)


@pytest.mark.parametrize("quad, c, g_mat, h_vec", [
    (None, np.ones(2), _BOX, np.array([1.0, np.nan, 1.0, 1.0])),
    (None, np.array([np.nan, 1.0]), _BOX, np.ones(4)),
    (None, np.ones(2), np.array([[1.0, np.inf], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
     np.ones(4)),
    (np.array([[1.0, 0.0], [0.0, -np.inf]]), np.ones(2), _BOX, np.ones(4)),
], ids=["h-nan", "c-nan", "g-inf", "quad-inf"])
def test_solver_rejects_non_finite_program_data(quad, c, g_mat, h_vec):
    # Cholesky returns NaN factors on NaN data instead of raising, so without
    # this check a NaN h or c runs to an INFEASIBLE or MAX_ITER report
    with pytest.raises(ValueError, match="infs or NaNs"):
        op.solve_inequality_program(quad, c, g_mat, h_vec)
