"""Command-line front end.

Subcommands: regions, field, fingerprint, optimize, simulate, report.
dispatch runs each one: it resolves the scene config, hands it and the
--out directory to the subcommand's handler, and once that returns writes
manifest.json last, recording the resolved config, the *_seed flags and
SHA-256 digests of every file written.  The directory appears on the first
write; report without --out writes nothing.  All randomness comes from
explicit seed flags, so identical invocations produce byte-identical
outputs.  --pitch, --snr-threshold, --noise-sigma and --step-period set
their key of the config's controller section, validated (finite, in range)
and recorded like the rest.

Exit codes: 0 success, 1 validation/usage error (out of memory too), 2 no
certified allocation (a solve that ends with any status but OPTIMAL, so no
powers.csv), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, controller, optimize, photometry, sensing
from .geometry import Region, build_partition
from .scene import DEFAULT_LAYOUT_SEED, Scene, SceneError, default_scene, load_scene, scene_to_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_ALLOCATION = 2
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
    """Collects written files and their digests for the manifest; the
    directory is made on the first write."""

    def __init__(self, path: Path):
        self.path = path
        self.digests: dict[str, str] = {}

    def _put(self, name: str, data: bytes) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        target = self.path / name
        target.write_bytes(data)
        return target

    def write_bytes(self, name: str, data: bytes) -> Path:
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return self._put(name, data)

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
        self._put("manifest.json", (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


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
    # points are x-major: the first x's run of points is one column of y
    ny = int(np.count_nonzero(field.points[:, 0] == field.points[0, 0]))
    nx = len(field.points) // ny
    grid = field.values.reshape(nx, ny)
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

def _cmd_regions(args, scene: Scene, out: _OutputDir) -> int:
    partition = build_partition(scene)
    rows = [["hull", v.x, v.y, None] for v in partition.hull.vertices]
    rows.append(["mec", partition.mec.center.x, partition.mec.center.y, partition.mec.radius])
    rows.append(["mic", partition.mic.center.x, partition.mic.center.y, partition.mic.radius])
    out.write_csv("regions.csv", ["kind", "x", "y", "radius"], rows)
    print(f"hull_vertices={len(partition.hull.vertices)} "
          f"mec_radius={_fmt(partition.mec.radius)} mic_radius={_fmt(partition.mic.radius)}")
    return EXIT_OK


def _cmd_field(args, scene: Scene, out: _OutputDir) -> int:
    partition = build_partition(scene)
    quantity = args.quantity.replace("-", "_")
    grid = photometry.field(scene, partition, quantity=quantity)
    region_names = {r.value: r.name.lower() for r in Region}
    rows = [
        [x, y, region_names[int(r)], v]
        for (x, y), r, v in zip(grid.points, grid.regions, grid.values)
    ]
    out.write_csv("field.csv", ["x", "y", "region", "value"], rows)
    _write_pgm(out, "field.pgm", grid)
    print(f"samples={len(grid.points)} min={_fmt(grid.values.min())} "
          f"max={_fmt(grid.values.max())}")
    return EXIT_OK


def _cmd_fingerprint(args, scene: Scene, out: _OutputDir) -> int:
    table = sensing.build_fingerprint_table(scene)
    out.write_bytes("fingerprint.lfpt", sensing.save_fingerprint(table))
    k, m, n = table.shape
    print(f"candidates={k} leds={m} pds={n}")
    return EXIT_OK


def _cmd_optimize(args, scene: Scene, out: _OutputDir) -> int:
    mode = controller.Mode(args.mode)
    powers, report = controller.apply_mode(mode, scene, build_partition(scene))
    status = report.status.value.title().replace("_", "")  # Optimal, Infeasible, MaxIter
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
        out.write_csv("powers.csv", ["led", "power_w"], [[i, p] for i, p in enumerate(powers)])
        total = f"total_W={_fmt(float(np.sum(powers)))}"
        lines.append(total)
        summary += f" {total}"
    out.write_text("report.txt", "\n".join(lines) + "\n")
    print(summary)
    return EXIT_OK if report.status is optimize.SolveStatus.OPTIMAL else EXIT_NO_ALLOCATION


def _trace_header(m: int) -> list[str]:
    """A trace CSV's columns for m LEDs: ScenarioStep's fields in order, a
    position or estimate as two columns and the powers as P_1..P_m."""
    return (["t", "x_true", "y_true", "x_est", "y_est", "mode"]
            + [f"P_{i + 1}" for i in range(m)] + ["energy_J", "error_m"])


def _write_trace(out: _OutputDir, name: str, trace: controller.ScenarioTrace, m: int):
    out.write_csv(name, _trace_header(m),
                  ([s.t, *(s.true_pos or (None, None)), *(s.estimate or (None, None)), s.mode,
                    *s.powers, s.energy_j, s.error_m] for s in trace.steps))


def _benchmark_rows(scene, partition):
    for quantity in ("snr", "illuminance"):
        grid = photometry.field(scene, partition, quantity=quantity)
        bench = controller.benchmark(grid)
        for region, above in bench.frac_above_avg.items():
            yield [quantity, region, bench.average, bench.deviation, bench.minimum, above,
                   bench.frac_below_dev[region]]


def _cmd_simulate(args, scene: Scene, out: _OutputDir) -> int:
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
    _write_trace(out, "trace.csv", trace, scene.num_leds)
    _write_trace(out, "baseline_trace.csv", baseline, scene.num_leds)
    out.write_csv("benchmark.csv",
                  ["quantity", "region", "average", "deviation", "minimum",
                   "frac_above_avg", "frac_below_dev"],
                  _benchmark_rows(scene, partition))
    metrics = _run_metrics(scene, partition,
                           *_read_traces(out.path / "trace.csv", out.path / "baseline_trace.csv"))
    out.write_text("summary.txt", _summary_text(metrics))
    print(f"steps={metrics['steps']} savings={metrics['savings_pct']:.2f}%")
    return EXIT_OK


def _trace_number(path: Path, n: int, column: str, text: str, may_be_empty: bool):
    """A trace cell's finite float, or None for an empty cell that may be empty."""
    if may_be_empty and not text:
        return None
    try:
        if math.isfinite(value := float(text)):
            return value
        problem = "finite"
    except ValueError:
        problem = "a number"
    raise SceneError(f"{path}: row {n}, column {column}: {text!r} is not {problem}")


def _read_traces(trace: Path, baseline: Path) -> list[controller.ScenarioTrace]:
    """The ScenarioTraces that _write_trace wrote to a run's trace CSV and its
    baseline's.  A header's length gives its LED count, its columns may come
    in any order, and blank rows are skipped.  mode reads baseline in the
    baseline's file, as _write_trace writes it, and a controller.Mode value
    or baseline in the run's (a baseline reported against itself saves
    nothing); every other cell is a finite float.  Only a position or an
    estimate (both its cells) or error_m may be empty, and reads as None.
    Anything else is a one-line SceneError naming the file, and a bad cell's
    row, column and text's repr."""
    run_modes = {mode.value for mode in controller.Mode} | {"baseline"}
    traces = []
    for path, modes in ((trace, run_modes), (baseline, {"baseline"})):
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header, *rows = [row for row in reader if row] or [[]]
            except csv.Error as exc:  # a field longer than csv.field_size_limit()
                raise SceneError(f"{path}: line {reader.line_num}: {exc}") from None
        columns = _trace_header(len(header) - len(_trace_header(0)))
        for column in columns:
            if column not in header:
                raise SceneError(f"{path}: not a trace CSV (missing {column} column)")
        if not rows:
            raise SceneError(f"{path}: empty trace")
        order = [header.index(column) for column in columns]  # all found, as many: a permutation
        may_be_empty = {1, 2, 3, 4, len(columns) - 1}  # the position, the estimate and error_m
        steps = []
        for n, row in enumerate(rows, 1):
            if len(row) != len(header):
                raise SceneError(f"{path}: row {n} has {len(row)} fields, header has {len(header)}")
            v = [row[i] if j == 5 else _trace_number(path, n, columns[j], row[i], j in may_be_empty)
                 for j, i in enumerate(order)]
            if v[5] not in modes:
                raise SceneError(f"{path}: row {n}, column mode: {v[5]!r} is not one of "
                                 f"{sorted(modes)}")
            for j in (1, 3):  # (x_true, y_true) and (x_est, y_est)
                if v[j:j + 2].count(None) == 1:
                    column = columns[j + v[j:j + 2].index(None)]
                    raise SceneError(f"{path}: row {n}, column {column}: '' in a half-empty pair")
            xy, est = (None if v[j] is None else (v[j], v[j + 1]) for j in (1, 3))
            steps.append(controller.ScenarioStep(v[0], xy, est, v[5], tuple(v[6:-2]), v[-2], v[-1]))
        traces.append(controller.ScenarioTrace(steps=tuple(steps)))
    return traces


def _run_metrics(scene: Scene, partition, trace, baseline) -> dict:
    """summary.txt's metrics, by key, of a run's trace and its baseline's.
    A mode's keys are present only when some step is in that mode, the
    errors' only when some step localized the user.  Each mode's powers,
    and the baseline's, are those of its first step."""
    savings = controller.energy_report(trace, baseline)
    lo_b, hi_b = scene.power_bounds()
    powers = np.array([s.powers for s in trace.steps])
    for name, n in (("trace", powers.shape[1]), ("baseline", len(baseline.steps[0].powers))):
        if n != len(lo_b):
            raise ValueError(f"{name} has {n} power columns but the scene has {len(lo_b)} LEDs")
    first = {s.mode: p for s, p in zip(trace.steps[::-1], powers[::-1])}  # each mode's first step

    def plane(p, quantity, activity_only=False):
        grid = photometry.field(scene, partition, quantity=quantity, powers=p)
        inside = (grid.regions == Region.ACTIVITY.value if activity_only
                  else grid.regions != Region.OUTSIDE.value)
        return grid.values[inside]

    def illuminance_lx(p, activity_only):
        vals = plane(p, "illuminance", activity_only)
        return float(vals.min()), float(vals.max())

    var_before = float(np.var(plane(baseline.steps[0].powers, "snr")))
    m = {"steps": len(powers), "savings_pct": 100.0 * savings, "snr_variance_baseline": var_before}
    p_unif = first.get(controller.Mode.UNIFORMITY.value)
    if p_unif is not None:
        if var_before == 0:
            raise ValueError("the baseline's SNR is uniform, so it has no variance to reduce")
        var_after = float(np.var(plane(p_unif, "snr")))
        m["snr_variance_uniformity"] = var_after
        m["snr_variance_reduction_pct"] = 100.0 * (1.0 - var_after / var_before)
        m["illuminance_uniformity_lx"] = illuminance_lx(p_unif, activity_only=False)
    p_enh = first.get(controller.Mode.ENHANCED.value)
    if p_enh is not None:
        m["illuminance_enhanced_lx"] = illuminance_lx(p_enh, activity_only=True)
        m["enhanced_total_W"] = float(p_enh.sum())
    errors = trace.errors()
    if errors.size:
        m["mean_error_m"], m["max_error_m"] = float(np.mean(errors)), float(np.max(errors))
    outside = (powers < lo_b - 1e-9) | (powers > hi_b + 1e-9)
    m["power_violations"] = int(np.count_nonzero(outside.any(axis=1)))
    return m


def _summary_text(metrics: dict) -> str:
    """summary.txt: one key=value line per metric, percentages to 4 places."""
    def text(key, value):
        if key.endswith("_pct"):
            return f"{value:.4f}"
        if isinstance(value, tuple):
            return f"[{_fmt(value[0])}, {_fmt(value[1])}]"
        return _fmt(value)
    return "".join(f"{key}={text(key, value)}\n" for key, value in metrics.items())


def _cmd_report(args, scene: Scene, out: Optional[_OutputDir]) -> int:
    m = _run_metrics(scene, build_partition(scene),
                     *_read_traces(Path(args.trace), Path(args.baseline)))
    lines = [f"savings={m['savings_pct']:.2f}%"]
    if "snr_variance_reduction_pct" in m:
        lines.append(f"variance_reduction={m['snr_variance_reduction_pct']:.2f}%")
    lines += [f"{key}={_fmt(m[key])}" for key in ("mean_error_m", "max_error_m") if key in m]
    lines.append(f"violations={m['power_violations']}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write_text("report.txt", text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="isci", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"isci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None,
                       help=f"scene config path or 'default' (env {_CONFIG_ENV})")
        p.add_argument("--scene-seed", type=int, default=DEFAULT_LAYOUT_SEED,
                       help="layout seed for the built-in default scene")
        p.add_argument("--out", default="isci-out", help="output directory")
        return p

    command("regions", _cmd_regions, "hull / MEC / MIC geometry as CSV")

    p = command("field", _cmd_field, "SNR or illuminance field (CSV + PGM heatmap)")
    p.add_argument("--quantity", default="snr",
                   choices=[q.replace("_", "-") for q in photometry._FIELD_QUANTITIES])
    p.add_argument("--pitch", dest="field_pitch_m", type=float)

    command("fingerprint", _cmd_fingerprint, "build and persist the fingerprint table")

    p = command("optimize", _cmd_optimize, "solve one mode's power allocation")
    p.add_argument("--mode", choices=["uniformity", "enhanced"], required=True)
    p.add_argument("--pitch", dest="opt_pitch_m", type=float)
    p.add_argument("--snr-threshold", dest="snr_threshold", type=float)

    p = command("simulate", _cmd_simulate, "run the adaptive scenario loop")
    p.add_argument("--trajectory-seed", type=int, default=7)
    p.add_argument("--noise-seed", type=int, default=1)
    p.add_argument("--noise-sigma", dest="noise_rel_sigma", type=float)
    p.add_argument("--step-period", dest="step_period_s", type=float)

    p = command("report", _cmd_report, "aggregate metrics from trace CSVs")
    p.add_argument("--trace", required=True)
    p.add_argument("--baseline", required=True)
    p.set_defaults(out=None)
    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one command as the module docstring describes; returns its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        scene = _resolve_scene(args)
        out = None if args.out is None else _OutputDir(Path(args.out))
        status = args.handler(args, scene, out)
        if out is not None:
            seeds = {k.removesuffix("_seed"): v for k, v in vars(args).items()
                     if k.endswith("_seed")}
            out.write_manifest(args.command, scene, seeds)
        return status
    except ValueError as exc:  # SceneError, GeometryError and SimplificationError too
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy says which array it could not allocate; Python's allocator says nothing
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
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
