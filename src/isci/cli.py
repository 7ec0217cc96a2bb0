"""Command-line front end.

Subcommands: regions, field, fingerprint, optimize, simulate, report.  Every
command resolves one scene config, writes its outputs into --out, and
finishes with a manifest.json recording the resolved config, seeds and
SHA-256 digests of every emitted file.  All randomness comes from explicit
seed flags, so identical invocations produce byte-identical outputs.
--pitch, --snr-threshold, --noise-sigma and --step-period set their key of
the config's controller section, validated and recorded like the rest.

Exit codes: 0 success, 1 validation/usage error, 2 infeasible optimization,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, controller, optimize, photometry, sensing
from .geometry import GeometryError, Region, build_partition, unique_rows
from .photometry import SimplificationError
from .scene import DEFAULT_LAYOUT_SEED, Scene, SceneError, default_scene, load_scene, scene_to_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

_CONFIG_ENV = "ISCI_CONFIG"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


class _OutputDir:
    """Collects written files and their digests for the manifest."""

    def __init__(self, path: Path):
        self.path = path
        self.digests: dict[str, str] = {}
        path.mkdir(parents=True, exist_ok=True)

    def write_bytes(self, name: str, data: bytes) -> Path:
        target = self.path / name
        target.write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return target

    def write_text(self, name: str, text: str) -> Path:
        return self.write_bytes(name, text.encode())

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return self.write_text(name, buf.getvalue())

    def write_manifest(self, command: str, scene: Scene, seeds: dict):
        manifest = {
            "command": command,
            "version": __version__,
            "seeds": seeds,
            "config": scene_to_dict(scene),
            "files": dict(sorted(self.digests.items())),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (self.path / "manifest.json").write_text(text)


def _resolve_scene(args) -> Scene:
    """The configured scene with every given flag whose dest names a
    ControllerConfig field written into its controller, then validated."""
    source = args.config
    if source is None:
        source = os.environ.get(_CONFIG_ENV, "default")
    scene = (default_scene(args.scene_seed) if source == "default"
             else load_scene(Path(source).read_text()))
    names = {f.name for f in fields(scene.controller)}
    overrides = {k: v for k, v in vars(args).items() if k in names and v is not None}
    ctl = replace(scene.controller, **overrides)
    ctl.validate()  # the rest of the scene was validated when it was built
    return replace(scene, controller=ctl)


def _write_pgm(out: _OutputDir, name: str, field: photometry.FieldGrid):
    nx, ny = (len(unique_rows(field.points[:, [axis]])) for axis in (0, 1))
    grid = field.values.reshape(nx, ny)  # points are x-major
    vmin, vmax = float(grid.min()), float(grid.max())
    span = vmax - vmin
    norm = (grid - vmin) / span if span > 0 else np.zeros_like(grid)
    # Image rows top-down: row 0 is the highest y.
    img = np.rint(255.0 * norm.T[::-1, :]).astype(np.uint8)
    header = f"P5\n{nx} {ny}\n255\n".encode()
    out.write_bytes(name, header + img.tobytes())
    out.write_text(name.replace(".pgm", "_range.txt"),
                   f"quantity={field.quantity}\nvmin={_fmt(vmin)}\nvmax={_fmt(vmax)}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_regions(args) -> int:
    scene = _resolve_scene(args)
    partition = build_partition(scene)
    out = _OutputDir(Path(args.out))
    rows = [["hull", v.x, v.y, None] for v in partition.hull.vertices]
    rows.append(["mec", partition.mec.center.x, partition.mec.center.y, partition.mec.radius])
    rows.append(["mic", partition.mic.center.x, partition.mic.center.y, partition.mic.radius])
    out.write_csv("regions.csv", ["kind", "x", "y", "radius"], rows)
    out.write_manifest("regions", scene, {"scene": args.scene_seed})
    print(f"hull_vertices={len(partition.hull.vertices)} "
          f"mec_radius={_fmt(partition.mec.radius)} mic_radius={_fmt(partition.mic.radius)}")
    return EXIT_OK


def _cmd_field(args) -> int:
    scene = _resolve_scene(args)
    partition = build_partition(scene)
    quantity = args.quantity.replace("-", "_")
    grid = photometry.field(scene, partition, quantity=quantity)
    out = _OutputDir(Path(args.out))
    region_names = {r.value: r.name.lower() for r in Region}
    rows = [
        [x, y, region_names[int(r)], v]
        for (x, y), r, v in zip(grid.points, grid.regions, grid.values)
    ]
    out.write_csv("field.csv", ["x", "y", "region", "value"], rows)
    _write_pgm(out, "field.pgm", grid)
    out.write_manifest("field", scene, {"scene": args.scene_seed})
    print(f"samples={len(grid.points)} min={_fmt(grid.values.min())} "
          f"max={_fmt(grid.values.max())}")
    return EXIT_OK


def _cmd_fingerprint(args) -> int:
    scene = _resolve_scene(args)
    table = sensing.build_fingerprint_table(scene)
    out = _OutputDir(Path(args.out))
    out.write_bytes("fingerprint.lfpt", sensing.save_fingerprint(table))
    out.write_manifest("fingerprint", scene, {"scene": args.scene_seed})
    k, m, n = table.shape
    print(f"candidates={k} leds={m} pds={n}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scene = _resolve_scene(args)
    partition = build_partition(scene)
    build = (optimize.build_uniformity_qp if args.mode == "uniformity"
             else optimize.build_enhanced_lp)
    _, report = optimize.solve_refined(build(scene, partition), scene, partition)
    out = _OutputDir(Path(args.out))
    value = report.status.value
    status = "MaxIter" if value == "max_iter" else value.capitalize()
    lines = [
        f"mode={args.mode}",
        f"status={status}",
        f"objective={_fmt(report.objective)}",
        f"max_violation={_fmt(report.max_violation)}",
        f"kkt_residual={_fmt(report.kkt_residual)}",
        f"iterations={report.iterations}",
    ]
    if report.worst_row:
        lines.append(f"worst_row={report.worst_row}")
    summary = f"status={status}"
    if report.status is optimize.SolveStatus.OPTIMAL:
        out.write_csv("powers.csv", ["led", "power_w"],
                      [[i, p] for i, p in enumerate(report.x)])
        total = f"total_W={_fmt(float(np.sum(report.x)))}"
        lines.append(total)
        summary += f" {total}"
    out.write_text("report.txt", "\n".join(lines) + "\n")
    out.write_manifest("optimize", scene, {"scene": args.scene_seed})
    print(summary)
    return EXIT_INFEASIBLE if report.status is optimize.SolveStatus.INFEASIBLE else EXIT_OK


_TRACE_BASE_HEADER = ["t", "x_true", "y_true", "x_est", "y_est", "mode"]


def _trace_rows(trace: controller.ScenarioTrace):
    for s in trace.steps:
        yield ([s.t,
                None if s.true_pos is None else s.true_pos[0],
                None if s.true_pos is None else s.true_pos[1],
                None if s.estimate is None else s.estimate[0],
                None if s.estimate is None else s.estimate[1],
                s.mode]
               + list(s.powers) + [s.energy_j, s.error_m])


def _write_trace(out: _OutputDir, name: str, trace: controller.ScenarioTrace, m: int):
    header = _TRACE_BASE_HEADER + [f"P_{i + 1}" for i in range(m)] + ["energy_J", "error_m"]
    out.write_csv(name, header, _trace_rows(trace))


def _benchmark_rows(scene, partition):
    for quantity in ("snr", "illuminance"):
        grid = photometry.field(scene, partition, quantity=quantity)
        bench = controller.benchmark(grid)
        for region in ("reference", "mec", "mic"):
            yield [quantity, region, bench.average, bench.deviation, bench.minimum,
                   bench.frac_above_avg[region], bench.frac_below_dev[region]]


def _cmd_simulate(args) -> int:
    scene = _resolve_scene(args)
    partition = build_partition(scene)
    model = sensing.SensingModel(scene)
    table = sensing.build_fingerprint_table(scene, model)
    trajectory = controller.generate_trajectory(
        partition, seed=args.trajectory_seed, dt=scene.controller.step_period_s,
        speed=scene.controller.user_speed_m_per_s,
        dwell_time=scene.controller.dwell_time_s)
    trace = controller.run_scenario(scene, partition, table, trajectory,
                                    noise_seed=args.noise_seed, model=model)
    baseline = controller.baseline_scenario(scene, trajectory)
    savings = controller.savings(trace.total_energy_j, baseline.total_energy_j)

    out = _OutputDir(Path(args.out))
    _write_trace(out, "trace.csv", trace, scene.num_leds)
    _write_trace(out, "baseline_trace.csv", baseline, scene.num_leds)
    out.write_csv("benchmark.csv",
                  ["quantity", "region", "average", "deviation", "minimum",
                   "frac_above_avg", "frac_below_dev"],
                  _benchmark_rows(scene, partition))
    summary = _summarize(scene, partition, table, trace, baseline, savings)
    out.write_text("summary.txt", summary)
    out.write_manifest("simulate", scene, {
        "scene": args.scene_seed,
        "trajectory": args.trajectory_seed,
        "noise": args.noise_seed,
    })
    print(f"steps={len(trace.steps)} savings={100.0 * savings:.2f}%")
    return EXIT_OK


def _snr_variance(scene: Scene, partition, powers: np.ndarray) -> float:
    grid = photometry.field(scene.with_powers(powers), partition, quantity="snr")
    vals = grid.values[grid.regions != Region.OUTSIDE.value]
    return float(np.mean((vals - vals.mean()) ** 2))


def _illuminance_range(scene, partition, powers, activity_only):
    grid = photometry.field(scene.with_powers(powers), partition, quantity="illuminance")
    if activity_only:
        vals = grid.values[grid.regions == Region.ACTIVITY.value]
    else:
        vals = grid.values[grid.regions != Region.OUTSIDE.value]
    return float(vals.min()), float(vals.max())


def _variance_reduction_pct(var_before: float, var_after: float) -> float:
    """Percent drop of the SNR variance from ``var_before`` to ``var_after``."""
    return 100.0 * (1.0 - var_after / var_before)


def _power_violations(scene: Scene, powers) -> int:
    """Steps whose LED powers leave the scene's power boxes; one row per step."""
    lo_b, hi_b = scene.power_bounds()
    for row in powers:
        if len(row) != len(lo_b):
            raise ValueError(f"trace has {len(row)} power columns "
                             f"but the scene has {len(lo_b)} LEDs")
    powers = np.array(powers, dtype=float).reshape(-1, len(lo_b))
    outside = (powers < lo_b - 1e-9) | (powers > hi_b + 1e-9)
    return int(np.count_nonzero(outside.any(axis=1)))


def _summarize(scene, partition, table, trace, baseline, savings) -> str:
    lines = [f"steps={len(trace.steps)}", f"savings_pct={100.0 * savings:.4f}"]
    p_base = np.array(baseline.steps[0].powers)
    var_before = _snr_variance(scene, partition, p_base)
    lines.append(f"snr_variance_baseline={_fmt(var_before)}")
    plan = controller.room_plan(scene, partition, table)
    entered = {s.mode for s in trace.steps}
    if controller.Mode.UNIFORMITY.value in entered:
        p_unif, _ = plan.allocation(controller.Mode.UNIFORMITY)
        var_after = _snr_variance(scene, partition, p_unif)
        lines.append(f"snr_variance_uniformity={_fmt(var_after)}")
        lines.append(f"snr_variance_reduction_pct="
                     f"{_variance_reduction_pct(var_before, var_after):.4f}")
        lo, hi = _illuminance_range(scene, partition, p_unif, activity_only=False)
        lines.append(f"illuminance_uniformity_lx=[{_fmt(lo)}, {_fmt(hi)}]")
    if controller.Mode.ENHANCED.value in entered:
        p_enh, _ = plan.allocation(controller.Mode.ENHANCED)
        lo, hi = _illuminance_range(scene, partition, p_enh, activity_only=True)
        lines.append(f"illuminance_enhanced_lx=[{_fmt(lo)}, {_fmt(hi)}]")
        lines.append(f"enhanced_total_W={_fmt(float(p_enh.sum()))}")
    errors = trace.errors()
    if len(errors):
        lines.append(f"mean_error_m={_fmt(float(errors.mean()))}")
        lines.append(f"max_error_m={_fmt(float(errors.max()))}")
    violations = _power_violations(scene, [s.powers for s in trace.steps])
    lines.append(f"power_violations={violations}")
    return "\n".join(lines) + "\n"


def _read_trace_csv(path: Path, columns: tuple[str, ...]):
    """The non-blank rows, as dicts, of a trace CSV with ``columns`` and no ragged row."""
    with path.open(newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row] or [[]]
    for column in columns:
        if column not in header:
            raise SceneError(f"{path}: not a trace CSV (missing {column} column)")
    if not rows:
        raise SceneError(f"{path}: empty trace")
    for n, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise SceneError(f"{path}: row {n} has {len(row)} fields, header has {len(header)}")
    return [dict(zip(header, row)) for row in rows]


def _cmd_report(args) -> int:
    scene = _resolve_scene(args)
    rows = _read_trace_csv(Path(args.trace), ("energy_J", "mode", "error_m"))
    power_cols = [c for c in rows[0] if c.startswith("P_")]
    base_rows = _read_trace_csv(Path(args.baseline), ("energy_J", *power_cols))
    if len(rows) != len(base_rows):
        raise SceneError("trace and baseline step counts differ")
    savings = controller.savings(sum(float(r["energy_J"]) for r in rows),
                                 sum(float(r["energy_J"]) for r in base_rows))
    errors = [float(r["error_m"]) for r in rows if r["error_m"] != ""]

    violations = _power_violations(scene, [[float(r[c]) for c in power_cols] for r in rows])

    lines = [f"savings={100.0 * savings:.2f}%"]
    partition = build_partition(scene)
    unif = next((r for r in rows if r["mode"] == "uniformity"), None)
    if unif is not None:
        p_unif = np.array([float(unif[c]) for c in power_cols])
        p_base = np.array([float(base_rows[0][c]) for c in power_cols])
        reduction = _variance_reduction_pct(_snr_variance(scene, partition, p_base),
                                            _snr_variance(scene, partition, p_unif))
        lines.append(f"variance_reduction={reduction:.2f}%")
    if errors:
        lines.append(f"mean_error_m={_fmt(float(np.mean(errors)))}")
        lines.append(f"max_error_m={_fmt(float(np.max(errors)))}")
    lines.append(f"violations={violations}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        out = _OutputDir(Path(args.out))
        out.write_text("report.txt", text)
        out.write_manifest("report", scene, {"scene": args.scene_seed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="isci", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"isci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", default=None,
                       help=f"scene config path or 'default' (env {_CONFIG_ENV})")
        p.add_argument("--scene-seed", type=int, default=DEFAULT_LAYOUT_SEED,
                       help="layout seed for the built-in default scene")
        p.add_argument("--out", default="isci-out", help="output directory")

    p = sub.add_parser("regions", help="hull / MEC / MIC geometry as CSV")
    common(p)

    p = sub.add_parser("field", help="SNR or illuminance field (CSV + PGM heatmap)")
    common(p)
    p.add_argument("--quantity", choices=["snr", "snr-full", "illuminance"], default="snr")
    p.add_argument("--pitch", dest="field_pitch_m", type=float)

    p = sub.add_parser("fingerprint", help="build and persist the fingerprint table")
    common(p)

    p = sub.add_parser("optimize", help="solve one mode's power allocation")
    common(p)
    p.add_argument("--mode", choices=["uniformity", "enhanced"], required=True)
    p.add_argument("--pitch", dest="opt_pitch_m", type=float)
    p.add_argument("--snr-threshold", dest="snr_threshold", type=float)

    p = sub.add_parser("simulate", help="run the adaptive scenario loop")
    common(p)
    p.add_argument("--trajectory-seed", type=int, default=7)
    p.add_argument("--noise-seed", type=int, default=1)
    p.add_argument("--noise-sigma", dest="noise_rel_sigma", type=float)
    p.add_argument("--step-period", dest="step_period_s", type=float)

    p = sub.add_parser("report", help="aggregate metrics from trace CSVs")
    common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--baseline", required=True)
    p.set_defaults(out=None)
    return parser


_HANDLERS = {
    "regions": _cmd_regions,
    "field": _cmd_field,
    "fingerprint": _cmd_fingerprint,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SceneError, GeometryError, SimplificationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return dispatch(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
