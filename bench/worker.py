"""Worker process of the benchmark: one in-process pass against isci.

run.py starts this script once per measurement so that every pass gets a
fresh interpreter and its own peak RSS.  It prints one JSON object as its last
line of output.  Modes:

  setup   <workload> --seed S          set-up repeated, times only
  measure <workload> --seed S --seconds T
                                       untraced closed loop for T seconds
  fixed   <workload> --seed S          a fixed, seed-derived list of ops,
                                       untraced and traced in turn
  cli-traced --seed S --out DIR        one traced simulate in a fresh process
  cli-warm --seed S --out DIR          cli.main in-process, cold then warm
  ladder  <rung> --seed S              scaling-ladder rung: set-up, localize, RSS
"""

from __future__ import annotations

import time

# Taken before anything else is imported, so that run.py can tell the
# interpreter's start-up from the work that follows it.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc
import importlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402
from tracer import Tracer, count, median_ms, total_s  # noqa: E402

sys.path.insert(0, str(common.SRC))

VIOLATION_TOL = 1e-6   # scaled fine-grid violation of an OPTIMAL solve
KKT_TOL = 1e-6         # scaled KKT residual of an OPTIMAL solve
OBJECTIVE_RTOL = 1e-6  # relative objective change against reference.json
POWER_TOL = 1e-9       # W, power-box slack allowed on a loop step
FIXED_PASSES = {"loop-large": 2, "solve-sweep": 3}
LADDER_PROBES = 20

perf = time.perf_counter


def isci_module(name: str):
    """Import an isci module, refusing a copy from outside this checkout."""
    module = importlib.import_module(name)
    if not Path(module.__file__).resolve().is_relative_to(common.SRC):
        raise SystemExit(f"isci imported from {module.__file__}, not {common.SRC}")
    return module


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


# ---------------------------------------------------------------------------
# Inputs and set-up
# ---------------------------------------------------------------------------

def sensing_setup(make_scene):
    """Scene, partition, sensing model and fingerprint table, as the loop needs."""
    geometry = isci_module("isci.geometry")
    sensing = isci_module("isci.sensing")
    scene = make_scene()
    partition = geometry.build_partition(scene)
    model = sensing.SensingModel(scene)
    table = sensing.build_fingerprint_table(scene, model)
    return scene, partition, model, table


def large_setup():
    scene_mod = isci_module("isci.scene")
    config = common.lattice_config(*common.LOOP_LARGE)
    return sensing_setup(lambda: scene_mod.scene_from_dict(config))


def default_setup():
    scene_mod = isci_module("isci.scene")
    return sensing_setup(scene_mod.default_scene)


def sweep_setup():
    scene_mod = isci_module("isci.scene")
    geometry = isci_module("isci.geometry")
    layouts = {}
    for seed in common.SWEEP_LAYOUT_SEEDS:
        scene = scene_mod.default_scene(seed)
        layouts[seed] = (scene, geometry.build_partition(scene))
    return layouts


SETUPS = {"cli-default": default_setup, "loop-large": large_setup,
          "solve-sweep": sweep_setup}
SETUP_REPS = {"cli-default": 15, "loop-large": 3, "solve-sweep": 5}


def timed_setups(make, reps: int):
    """Run ``make`` reps times, freeing each result before the next build."""
    times = []
    built = None
    for _ in range(reps):
        built = None
        gc.collect()
        t0 = perf()
        built = make()
        times.append(perf() - t0)
    return built, times


def make_trajectory(scene, partition, seed: int):
    controller = isci_module("isci.controller")
    ctl = scene.controller
    return controller.generate_trajectory(partition, seed=seed, dt=ctl.step_period_s,
                                          speed=ctl.user_speed_m_per_s,
                                          dwell_time=ctl.dwell_time_s)


class StepClock:
    """Iterates a trajectory and stamps the clock at every request.

    run_scenario iterates its trajectory once, in order, and does one step's
    work between two requests, so consecutive stamps bound one step.
    """

    def __init__(self, trajectory):
        self.trajectory = trajectory
        self.stamps: list[float] = []

    def __iter__(self):
        stamps = self.stamps
        for point in self.trajectory:
            stamps.append(perf())
            yield point
        stamps.append(perf())

    def latencies(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def replay(setup, noise_seed: int, trajectory):
    """One run_scenario through the step clock; returns (trace, step latencies)."""
    controller = isci_module("isci.controller")
    scene, partition, model, table = setup
    clock = StepClock(trajectory)
    trace = controller.run_scenario(scene, partition, table, clock,
                                    noise_seed=noise_seed, model=model)
    return trace, clock.latencies()


def failed_steps(scene, trace, trajectory) -> int:
    """Steps whose powers leave [p_min, p_max]; every step when the trace
    length differs from the trajectory's."""
    import numpy as np
    if len(trace.steps) != len(trajectory):
        return len(trajectory)
    p_min, p_max = scene.power_bounds()
    powers = np.array([s.powers for s in trace.steps])
    bad = np.any((powers < p_min - POWER_TOL) | (powers > p_max + POWER_TOL), axis=1)
    return int(bad.sum())


def solve_op(layouts, layout: int, mode: str):
    """One program build plus solve_refined; returns (refined problem, report)."""
    optimize = isci_module("isci.optimize")
    scene, partition = layouts[layout]
    build = optimize.build_uniformity_qp if mode == "uniformity" else optimize.build_enhanced_lp
    problem, report = optimize.solve_refined(build(scene, partition), scene, partition)
    return problem, report


def solve_ok(layouts, layout: int, mode: str, problem, report, reference: dict) -> bool:
    """An infeasible program is a defined outcome when the reference agrees; an
    OPTIMAL solve must pass the fine grid, the KKT check and the objective."""
    import numpy as np
    optimize = isci_module("isci.optimize")
    ref = reference["sweep"][f"{layout},{mode}"]
    if report.status.value != ref["status"]:
        return False
    if report.status is optimize.SolveStatus.INFEASIBLE:
        return True
    if report.status is not optimize.SolveStatus.OPTIMAL:
        return False
    scene, partition = layouts[layout]
    points = problem.check_points(scene, partition, scene.controller.field_pitch_m)
    g_mat, h_vec = problem.rows_at(scene, partition, points)
    scale = np.maximum(1.0, np.maximum(np.abs(g_mat).max(axis=1), np.abs(h_vec)))
    violation = float(((g_mat @ report.x - h_vec) / scale).max(initial=0.0))
    kkt = optimize.kkt_residual(problem, report.x)
    objective_ok = abs(report.objective - ref["objective"]) <= OBJECTIVE_RTOL * abs(ref["objective"])
    return violation <= VIOLATION_TOL and kkt <= KKT_TOL and objective_ok


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def mode_setup(workload: str) -> dict:
    _, times = timed_setups(SETUPS[workload], SETUP_REPS[workload])
    return {"setup_s": times}


def mode_measure(workload: str, seed: int, seconds: float) -> dict:
    """Whole blocks of ops until ``seconds`` have passed: a block is one
    replay (loop-large) or one pass through the solve pool (solve-sweep)."""
    built, setup = timed_setups(SETUPS[workload], SETUP_REPS[workload])
    blocks, failed, extra = [], 0, {}
    start = perf()
    if workload == "loop-large":
        for traj_seed, noise_seed in common.loop_seeds(seed, 10_000):
            if perf() - start >= seconds:
                break
            trajectory = make_trajectory(built[0], built[1], traj_seed)
            trace, steps = replay(built, noise_seed, trajectory)
            blocks.append(steps)
            failed += failed_steps(built[0], trace, trajectory)
        period = built[0].controller.step_period_s
        extra = {"deadline_misses": sum(t > period for b in blocks for t in b)}
    elif workload == "solve-sweep":
        reference = common.load_reference()
        for cycle in common.sweep_cycles(seed):
            if perf() - start >= seconds:
                break
            blocks.append([])
            for layout, mode in cycle:
                t0 = perf()
                problem, report = solve_op(built, layout, mode)
                blocks[-1].append(perf() - t0)
                failed += not solve_ok(built, layout, mode, problem, report, reference)
    else:
        raise SystemExit(f"no in-process loop for {workload}")
    return {"setup_s": setup, "blocks_s": blocks, "attempted": sum(map(len, blocks)),
            "failed": failed, **extra}


def instrument(tracer: Tracer, records: list) -> None:
    """Wrap the public functions of every layer under the names their callers
    use; ``records`` collects what the counts need from solver returns."""
    cli = isci_module("isci.cli")
    controller = isci_module("isci.controller")
    geometry = isci_module("isci.geometry")
    optimize = isci_module("isci.optimize")
    photometry = isci_module("isci.photometry")
    scene = isci_module("isci.scene")
    sensing = isci_module("isci.sensing")

    def keep(kind):
        return lambda idx, args, out: records.append((idx, kind, args, out))

    def field_name(*args, **kwargs):
        quantity = kwargs.get("quantity", args[3] if len(args) > 3 else "snr")
        return "photometry.field_snr_full" if quantity == "snr_full" else "photometry.field"

    def solve_name(problem, *args, **kwargs):
        kind = "uniformity" if isinstance(problem, optimize.UniformityQp) else "enhanced"
        return f"optimize.solve.{kind}"

    def table_size(idx, args, table):
        arrays = (table.candidates, table.baseline, table.deltas)
        records.append((idx, "table", None, (sum(a.nbytes for a in arrays), table.deltas.shape)))

    tracer.wrap([cli], "main", "cli.main")
    tracer.wrap([scene, cli], "default_scene", "scene.build")
    tracer.wrap([scene], "scene_from_dict", "scene.build")
    tracer.wrap([geometry, cli], "build_partition", "geometry.partition")
    tracer.wrap([geometry, optimize, photometry], "classify_points", "geometry.classify")
    tracer.wrap([optimize], "illuminance_coefficients", "photometry.coeff")
    tracer.wrap([optimize], "snr_coefficients", "photometry.coeff")
    tracer.wrap([photometry], "field", field_name)
    tracer.wrap([sensing.SensingModel], "__init__", "sensing.model")
    tracer.wrap([sensing.SensingModel], "received_power", "sensing.received_power")
    tracer.wrap([sensing], "build_fingerprint_table", "sensing.table", on_return=table_size)
    tracer.wrap([controller], "localize", "sensing.localize")
    tracer.wrap([optimize], "build_uniformity_qp", "optimize.build")
    tracer.wrap([optimize], "build_enhanced_lp", "optimize.build")
    tracer.wrap([optimize], "solve_refined", solve_name, on_return=keep("refined"))
    tracer.wrap([optimize], "solve_inequality_program", "optimize.ipm", on_return=keep("ipm"))
    tracer.wrap([optimize], "kkt_residual", "optimize.kkt")
    tracer.wrap([optimize.UniformityQp, optimize.EnhancedLp], "rows_at", "optimize.check_rows")
    tracer.wrap([controller], "run_scenario", "controller.run_scenario")
    tracer.wrap([controller], "apply_mode", "controller.apply_mode")
    tracer.wrap([controller], "select_mode", "controller.select_mode")
    tracer.wrap([controller], "generate_trajectory", "controller.trajectory")


def exact_counts(tracer: Tracer, records: list, roots: list[int]) -> dict:
    """Counts that must repeat exactly for the same inputs."""
    optimize = isci_module("isci.optimize")
    summary = tracer.summary(roots)
    inside = set(tracer.descendants(roots))
    mine = [r for r in records if r[0] in inside]

    def rows(problem):
        return len(problem.constraint_system()[1])

    refined = [(args[0], out) for _, kind, args, out in mine if kind == "refined"]
    return {
        "optimize.ipm_iters": sum(out.iterations for _, kind, _, out in mine if kind == "ipm"),
        "optimize.rows_added": sum(rows(out[0]) - rows(problem) for problem, out in refined),
        "optimize.infeasible": sum(out[1].status is optimize.SolveStatus.INFEASIBLE
                                   for _, out in refined),
        "controller.solves": count(summary["durations"], "controller.apply_mode"),
        "controller.steps": count(summary["durations"], "controller.select_mode"),
        "sensing.localize_calls": count(summary["durations"], "sensing.localize"),
    }


def layer_metrics(tracer: Tracer, records: list, timed_roots: list[int],
                  op_roots: list[int], count_roots: list[int]) -> dict:
    """Per-layer metrics: call times from the spans under ``timed_roots``,
    self-time shares from the ops under ``op_roots`` and exact counts from
    the ops under ``count_roots``."""
    d = tracer.summary(timed_roots)["durations"]
    ops = tracer.summary(op_roots)
    ops_s = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in op_roots)
    tables = [out for idx, kind, _, out in records if kind == "table"]
    table_bytes, shape = tables[-1] if tables else (0, (0, 0, 0))
    localize_ms = median_ms(d, "sensing.localize")
    # Bytes one localize touches, computed from array sizes: the (K, M, N)
    # deltas read once and the (K, N) prediction written and read back.
    localize_bytes = 8 * (shape[0] * shape[1] * shape[2] + 2 * shape[0] * shape[2])
    run_s = total_s(ops["durations"], "controller.run_scenario")
    out = {
        "scene.build_ms": median_ms(d, "scene.build"),
        "geometry.partition_ms": median_ms(d, "geometry.partition"),
        "geometry.classify_ms": median_ms(d, "geometry.classify"),
        "photometry.coeff_ms": median_ms(d, "optimize.check_rows>photometry.coeff"),
        "photometry.field_ms": median_ms(d, "photometry.field"),
        "photometry.field_snr_full_ms": median_ms(d, "photometry.field_snr_full"),
        "sensing.model_s": median_ms(d, "sensing.model") / 1e3,
        "sensing.table_s": median_ms(d, "sensing.table") / 1e3,
        "sensing.table_mb": table_bytes / 1e6,
        "sensing.localize_ms": localize_ms,
        "sensing.localize_gbps": localize_bytes / localize_ms / 1e6 if localize_ms else 0.0,
        "sensing.received_power_ms": median_ms(d, "sensing.received_power"),
        "optimize.build_ms": median_ms(d, "optimize.build"),
        "optimize.solve_ms.uniformity": median_ms(d, "optimize.solve.uniformity"),
        "optimize.solve_ms.enhanced": median_ms(d, "optimize.solve.enhanced"),
        "optimize.kkt_ms": median_ms(d, "optimize.kkt"),
        "controller.apply_mode_ms": median_ms(d, "controller.apply_mode"),
        "controller.localize_share": (total_s(ops["durations"], "sensing.localize") / run_s
                                      if run_s else 0.0),
    }
    for layer in common.LAYERS:
        out[f"{layer}.self_frac"] = ops["self_s"].get(layer, 0.0) / ops_s
    out.update(exact_counts(tracer, records, count_roots))
    return out


def isci_self_s(tracer: Tracer, roots: list[int]) -> float:
    """Self time of every isci layer under ``roots``: all but the benchmark's."""
    return sum(t for layer, t in tracer.summary(roots)["self_s"].items() if layer != "bench")


def traced_ops(tracer: Tracer, run_op, ops: list) -> list[int]:
    roots = []
    for op in ops:
        roots.append(tracer.begin("bench.op"))
        try:
            run_op(op)
        finally:
            tracer.end(roots[-1])
    return roots


def mode_fixed(workload: str, seed: int) -> dict:
    """The ops of the per-layer run: the first replay of the seed (loop-large)
    or one pass through the solve pool (solve-sweep).  Untraced and traced
    passes alternate in this process, so the tracing overhead is their
    difference; the first two traced passes give the exact counts to compare."""
    tracer, records = Tracer(), []
    instrument(tracer, records)
    setup_root = tracer.begin("bench.setup")
    built = SETUPS[workload]()
    tracer.end(setup_root)
    tracer.unwrap()
    outcomes = []
    if workload == "loop-large":
        (traj_seed, noise_seed), = common.loop_seeds(seed, 1)
        trajectory = make_trajectory(built[0], built[1], traj_seed)
        ops = [noise_seed]

        def run_op(op):
            outcomes.append(replay(built, op, trajectory))
    else:
        reference = common.load_reference()
        ops = next(common.sweep_cycles(seed))

        def run_op(op):
            outcomes.append((op, *solve_op(built, *op)))

    # An untimed first pass takes the one-time costs of the first solves in
    # this process, which would otherwise land on the first untraced pass.
    traced_ops(Tracer(), run_op, ops)
    plain_walls, traced_walls, roots = [], [], []
    for _ in range(FIXED_PASSES[workload]):
        t0 = perf()
        traced_ops(Tracer(), run_op, ops)
        plain_walls.append(perf() - t0)
        instrument(tracer, records)
        t0 = perf()
        roots.append(traced_ops(tracer, run_op, ops))
        traced_walls.append(perf() - t0)
        tracer.unwrap()
    every = [i for r in roots for i in r]
    result = {
        "plain_s": common.median(plain_walls),
        "traced_s": common.median(traced_walls),
        "isci_s": common.median([isci_self_s(tracer, r) for r in roots]),
        "layers": layer_metrics(tracer, records, [setup_root] + every, every, roots[0]),
        "counts_repeat": (exact_counts(tracer, records, roots[0])
                          == exact_counts(tracer, records, roots[1])),
    }
    failed = 0
    if workload == "loop-large":
        attempted = len(trajectory) * len(outcomes)
        failed = sum(failed_steps(built[0], trace, trajectory) for trace, _ in outcomes)
        # Untraced replays: the warm-up, then every other pass.
        steps = [t for _, latencies in outcomes[:1] + outcomes[1::2] for t in latencies]
        period = built[0].controller.step_period_s
        result["deadline_miss_frac"] = sum(t > period for t in steps) / len(steps)
        # The step clock must leave the trace as a plain list run does, and
        # cost little per step.
        controller = isci_module("isci.controller")
        plain = controller.run_scenario(built[0], built[1], built[3], trajectory,
                                        noise_seed=noise_seed, model=built[2])
        attempted += 1
        failed += plain != outcomes[0][0]
        result["step_timer_overhead_us"] = step_timer_overhead_us()
    else:
        attempted = len(outcomes)
        for (layout, mode), problem, report in outcomes:
            failed += not solve_ok(built, layout, mode, problem, report, reference)
    result.update({"attempted": attempted, "failed": failed, "rss_mb": rss_mb()})
    return result


def step_timer_overhead_us(n: int = 100_000) -> float:
    """Extra cost per step of iterating through StepClock instead of a list."""
    items = [(0.0, None)] * n
    t0 = perf()
    for _ in items:
        pass
    plain = perf() - t0
    t0 = perf()
    for _ in StepClock(items):
        pass
    return max(perf() - t0 - plain, 0.0) / n * 1e6


def mode_cli_traced(seed: int, out_dir: Path, started: float) -> dict:
    """One traced `isci simulate` in a fresh process, as the CLI would run it.
    The clock stamps let run.py split the process wall time into interpreter
    start, import, main and exit."""
    tracer, records = Tracer(), []
    result = {"started": started}
    root = tracer.begin("cli.import")
    cli = isci_module("isci.cli")
    tracer.end(root)
    instrument(tracer, records)
    reference = common.load_reference()
    pair = common.cli_pairs(seed)[0]
    main_root = len(tracer.spans)
    code = cli.main(common.cli_args(*pair, out_dir))
    result["main_end"] = perf()
    tracer.unwrap()
    ok, same = common.check_cli_output(out_dir, reference, pair)
    result.update({
        "layers": layer_metrics(tracer, records, [root, main_root], [main_root], [main_root]),
        "counts": exact_counts(tracer, records, [main_root]),
        "import_s": tracer.spans[root][2] - tracer.spans[root][1],
        "main_s": tracer.spans[main_root][2] - tracer.spans[main_root][1],
        "attempted": 1, "failed": int(code != 0 or not ok), "identical": int(same),
    })
    return result


def mode_cli_warm(seed: int, out_dir: Path) -> dict:
    """cli.main in-process, untraced: one cold call, then warm calls with the
    same arguments; then the full-model SNR field, which simulate does not
    use, traced."""
    cli = isci_module("isci.cli")
    reference = common.load_reference()
    pair = common.cli_pairs(seed)[0]
    main_s, failed, identical = [], 0, 0
    for call in range(4):
        out = out_dir / f"main-{call}"
        t0 = perf()
        code = cli.main(common.cli_args(*pair, out))
        main_s.append(perf() - t0)
        ok, same = common.check_cli_output(out, reference, pair)
        failed += code != 0 or not ok
        identical += same
    scene_mod = isci_module("isci.scene")
    geometry = isci_module("isci.geometry")
    photometry = isci_module("isci.photometry")
    scene = scene_mod.default_scene()
    partition = geometry.build_partition(scene)
    tracer = Tracer()
    instrument(tracer, [])
    for _ in range(3):
        photometry.field(scene, partition, quantity="snr_full")
    tracer.unwrap()
    return {"main_s": main_s, "attempted": len(main_s), "failed": failed,
            "identical": identical,
            "field_snr_full_ms": median_ms(tracer.summary()["durations"],
                                           "photometry.field_snr_full")}


def mode_ladder(rung: str, seed: int) -> dict:
    """Set-up time, localize time and peak RSS of one ladder rung; each probe
    puts a noiseless user on a seeded candidate and must localize it."""
    import numpy as np
    scene_mod = isci_module("isci.scene")
    sensing = isci_module("isci.sensing")
    config = common.lattice_config(*common.LADDER[rung])
    t0 = perf()
    scene, _, model, table = sensing_setup(lambda: scene_mod.scene_from_dict(config))
    setup_s = perf() - t0
    rng = np.random.default_rng(common.rng_for(f"ladder-{rung}", seed).randrange(2**31))
    powers = scene.power_vector()
    baseline = model.received_power(powers)
    times, failed = [], 0
    for k in rng.choice(len(table.candidates), LADDER_PROBES, replace=False):
        measured = model.received_power(powers, table.candidates[k])
        t0 = perf()
        loc = sensing.localize(measured, baseline, powers, table)
        times.append(perf() - t0)
        failed += int(loc.index != k)
    return {"setup_s": setup_s, "localize_s": times, "attempted": len(times),
            "failed": failed, "rss_mb": rss_mb()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=["setup", "measure", "fixed", "cli-traced",
                                         "cli-warm", "ladder"])
    parser.add_argument("target", nargs="?")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        result = mode_setup(args.target)
    elif args.mode == "measure":
        result = mode_measure(args.target, args.seed, args.seconds)
    elif args.mode == "fixed":
        result = mode_fixed(args.target, args.seed)
    elif args.mode == "cli-traced":
        result = mode_cli_traced(args.seed, args.out, STARTED)
    elif args.mode == "cli-warm":
        result = mode_cli_warm(args.seed, args.out)
    else:
        result = mode_ladder(args.target, args.seed)
    result.setdefault("rss_mb", rss_mb())
    result["blas_threads"] = blas_threads()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
