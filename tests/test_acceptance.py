"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run pytest with -s to see them) and asserting the stated
tolerance and runtime budget."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from isci import controller as ct
from isci import optimize as op
from isci import photometry as ph
from isci import sensing as sn
from isci.cli import main as cli_main
from isci.geometry import Region, build_partition, convex_hull, min_enclosing_circle, \
    max_inscribed_circle
from isci.scene import default_scene
from tests.oracles import dense_predict

BASELINE_PER_LED_W = 45.2
BASELINE_TOTAL_W = 361.60


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _mec_exhaustive_radius(pts):
    def contains_all(cx, cy, r):
        return all(math.hypot(px - cx, py - cy) <= r * (1 + 1e-12) for px, py in pts)

    best = None
    for a, b in itertools.combinations(pts, 2):
        cx, cy = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
        r = max(math.hypot(cx - p[0], cy - p[1]) for p in (a, b))
        if contains_all(cx, cy, r) and (best is None or r < best):
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
        if contains_all(ux, uy, r) and (best is None or r < best):
            best = r
    return best


def _mic_grid_radius(poly):
    # 10 mm coarse pass, then a 1 mm pass around the best cell; the inradius
    # field is concave, so the local refinement cannot miss the optimum cell.
    normals, offsets = poly.inward_normals()
    arr = poly.as_array()

    def best(xs, ys):
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = (pts[:, :1] * normals[:, 0] + pts[:, 1:] * normals[:, 1] - offsets).min(axis=1)
        k = int(np.argmax(vals))
        return float(vals[k]), pts[k]

    v1, p1 = best(np.arange(arr[:, 0].min(), arr[:, 0].max() + 1e-12, 0.01),
                  np.arange(arr[:, 1].min(), arr[:, 1].max() + 1e-12, 0.01))
    v2, _ = best(np.arange(p1[0] - 0.015, p1[0] + 0.015 + 1e-12, 0.001),
                 np.arange(p1[1] - 0.015, p1[1] + 0.015 + 1e-12, 0.001))
    return max(v1, v2)


def test_criterion_1_geometry_oracles():
    # CPU time of this process, so a busy neighbour cannot push it past 10 s
    t0 = time.process_time()
    rng = np.random.default_rng(1)
    worst_mec = worst_mic = 0.0
    for _ in range(100):
        pts = [tuple(p) for p in rng.uniform(0, 5, (8, 2))]
        mec = min_enclosing_circle(pts)
        worst_mec = max(worst_mec, abs(mec.radius - _mec_exhaustive_radius(pts)))
        poly = convex_hull(pts)
        mic = max_inscribed_circle(poly)
        worst_mic = max(worst_mic, abs(mic.radius - _mic_grid_radius(poly)))
    elapsed = time.process_time() - t0
    ok = worst_mec < 1e-9 and worst_mic < 2e-3 and elapsed < 10.0
    _report(1, ok, f"MEC diff {worst_mec:.2e} m (<1e-9), MIC diff {worst_mic:.2e} m "
                   f"(<2e-3), {elapsed:.1f}s (<10s)")


def test_criterion_2_qp_variance_identity(scene, partition):
    t0 = time.monotonic()
    qp = op.build_uniformity_qp(scene, partition)
    rng = np.random.default_rng(2)
    powers = rng.uniform(qp.p_min, qp.p_max, size=(1000, len(qp.p_min)))
    a_mat = ph.snr_coefficients(scene.leds, qp.points, scene.room.plane_z,
                                scene.comm_pd, scene.noise)
    snr = powers @ a_mat.T
    direct = np.mean((snr - snr.mean(axis=1, keepdims=True)) ** 2, axis=1)
    quad = np.einsum("ij,jk,ik->i", powers, qp.q_matrix, powers)
    rel = float(np.max(np.abs(quad - direct) / direct))
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"max relative gap {rel:.2e} (<=1e-9) over 1000 p, "
                   f"{elapsed:.1f}s (<5s)")


def test_criterion_3_solver_certification():
    n_optimal = 0
    worst_kkt = worst_viol = 0.0
    for seed in range(50):
        s = default_scene(seed)
        part = build_partition(s)
        for build in (op.build_uniformity_qp, op.build_enhanced_lp):
            report = op.solve(build(s, part))
            if report.status is op.SolveStatus.OPTIMAL:
                n_optimal += 1
                worst_kkt = max(worst_kkt, report.kkt_residual)
                worst_viol = max(worst_viol, report.max_violation)
    from tests.test_optimize import (_qp_refined_minimum, _lp_vertex_oracle,
                                     _toy_qp, _toy_lp)
    qp = _toy_qp()
    qp_report = op.solve(qp)
    qp_ref, _ = _qp_refined_minimum(qp)
    lp = _toy_lp()
    lp_report = op.solve(lp)
    lp_ref = _lp_vertex_oracle(lp)
    qp_gap = abs(qp_report.objective - qp_ref) / qp_ref
    lp_gap = abs(lp_report.objective - lp_ref) / lp_ref
    ok = (n_optimal >= 90 and worst_kkt <= 1e-6 and worst_viol <= 1e-6
          and qp_gap <= 1e-3 and lp_gap <= 1e-6)
    _report(3, ok, f"{n_optimal}/100 optimal, worst KKT {worst_kkt:.2e}, worst "
                   f"violation {worst_viol:.2e} (<=1e-6); toy gaps QP {qp_gap:.2e} "
                   f"(<=1e-3) LP {lp_gap:.2e} (<=1e-6)")


def _mec_variance(scene, partition, powers):
    grid = ph.field(scene, partition, quantity="snr", powers=powers)
    vals = grid.values[grid.regions != Region.OUTSIDE.value]
    return float(np.mean((vals - vals.mean()) ** 2))


def test_criterion_4_uniformity_mode(scene, partition):
    powers, report = ct.apply_mode(ct.Mode.UNIFORMITY, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    base = np.full(scene.num_leds, BASELINE_PER_LED_W)
    var_base = _mec_variance(scene, partition, base)
    var_opt = _mec_variance(scene, partition, powers)
    reduction = 1.0 - var_opt / var_base
    grid = ph.field(scene, partition, quantity="illuminance", powers=powers)
    vals = grid.values[grid.regions != Region.OUTSIDE.value]
    in_range = vals.min() >= 300.0 - 1e-6 and vals.max() <= 1500.0 + 1e-6
    ok = var_opt < var_base and reduction >= 0.40 and in_range
    _report(4, ok, f"variance {var_base:.3e} -> {var_opt:.3e} "
                   f"(reduction {100 * reduction:.1f}% >= 40%), fine-grid "
                   f"illuminance [{vals.min():.2f}, {vals.max():.2f}] lx in [300, 1500]")


def test_criterion_5_enhanced_mode(scene, partition):
    t0 = time.monotonic()
    threshold = op.default_snr_threshold(scene, partition)
    powers, report = ct.apply_mode(ct.Mode.ENHANCED, scene, partition)
    assert report.status is op.SolveStatus.OPTIMAL
    total = float(np.sum(powers))
    illum = ph.field(scene, partition, quantity="illuminance", powers=powers)
    snr = ph.field(scene, partition, quantity="snr", powers=powers)
    act = illum.regions == Region.ACTIVITY.value
    e_vals, snr_vals = illum.values[act], snr.values[act]
    e_viol = max(0.0, 800.0 - e_vals.min(), e_vals.max() - 2000.0)
    snr_viol = max(0.0, (threshold - snr_vals.min()) / threshold)
    elapsed = time.monotonic() - t0
    ok = (e_viol <= 1e-6 and snr_viol <= 1e-6 and total < BASELINE_TOTAL_W
          and elapsed < 30.0)
    _report(5, ok, f"illuminance violation {e_viol:.2e} lx, scaled SNR violation "
                   f"{snr_viol:.2e} (<=1e-6), total {total:.2f} W < "
                   f"{BASELINE_TOTAL_W} W, {elapsed:.1f}s (<30s)")


def test_criterion_6_localization(scene, partition, sensing_model, table):
    t0 = time.monotonic()
    p = np.full(scene.num_leds, BASELINE_PER_LED_W)
    baseline = sensing_model.received_power(p)
    predicted = np.abs(dense_predict(table, p))
    exact = 0
    for k in range(scene.grid.count):
        measured = sensing_model.received_power(p, table.candidates[k])
        actual = np.abs(measured - baseline)
        losses = ((actual[None, :] - predicted) ** 2).sum(axis=1)
        if int(np.argmin(losses)) == k:
            exact += 1
    errors = []
    for seed in range(10):
        traj = ct.generate_trajectory(partition, seed=seed,
                                      dt=scene.controller.step_period_s,
                                      speed=scene.controller.user_speed_m_per_s,
                                      dwell_time=scene.controller.dwell_time_s)
        trace = ct.run_scenario(scene, partition, table, traj,
                                noise_seed=1000 + seed, model=sensing_model)
        errors.extend(trace.errors())
    errors = np.array(errors)
    elapsed = time.monotonic() - t0
    ok = (exact == scene.grid.count and errors.mean() <= 0.2
          and errors.max() <= 1.0 and elapsed < 120.0)
    _report(6, ok, f"noiseless exact {exact}/{scene.grid.count}; noisy over 10 seeds "
                   f"mean {errors.mean():.3f} m (<=0.2), max {errors.max():.3f} m "
                   f"(<=1.0), {elapsed:.1f}s (<120s)")


def test_criterion_7_energy_savings(scene, partition, sensing_model, table):
    t0 = time.monotonic()
    base_scene = replace(scene, controller=replace(scene.controller,
                                                   baseline_power_w=BASELINE_PER_LED_W))
    savings = []
    for seed in range(10):
        traj = ct.generate_trajectory(partition, seed=seed,
                                      dt=scene.controller.step_period_s,
                                      speed=scene.controller.user_speed_m_per_s,
                                      dwell_time=scene.controller.dwell_time_s)
        trace = ct.run_scenario(scene, partition, table, traj,
                                noise_seed=1000 + seed, model=sensing_model)
        base = ct.baseline_scenario(base_scene, traj)
        savings.append(ct.energy_report(trace, base))
    savings = np.array(savings)
    elapsed = time.monotonic() - t0
    ok = bool(np.all(savings >= 0.40) and np.all(savings <= 0.65) and elapsed < 120.0)
    _report(7, ok, f"savings per seed in [{savings.min():.3f}, {savings.max():.3f}] "
                   f"(in [0.40, 0.65]), {elapsed:.1f}s (<120s)")


def test_criterion_8_benchmark_nesting(scene, partition):
    base = np.full(scene.num_leds, BASELINE_PER_LED_W)
    grid = ph.field(scene, partition, quantity="snr", powers=base)
    bench = ct.benchmark(grid)
    above = bench.frac_above_avg
    ok = (above["mic"] >= above["mec"] >= above["reference"]
          and bench.frac_below_dev["mec"] == 0.0)
    _report(8, ok, f"frac above avg mic {above['mic']:.4f} >= mec {above['mec']:.4f} "
                   f">= reference {above['reference']:.4f}; MEC below dev "
                   f"{bench.frac_below_dev['mec']:.4f} == 0")


def test_criterion_9_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["simulate", "--trajectory-seed", "7", "--noise-seed", "1"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    identical = (names == sorted(p.name for p in out2.iterdir())
                 and all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                         for n in names))
    _report(9, identical, f"{len(names)} files byte-identical across reruns")
