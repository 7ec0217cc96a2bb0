"""isci benchmark: end-to-end and per-layer timing of three closed-loop workloads.

    python3 bench/run.py --workload cli-default|loop-large|solve-sweep|all \\
        --seed N --seconds T --trace 0|1

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished, in one process, with no threads of the
benchmark's own.  Inputs (trajectory, noise and layout seeds) derive from
--seed.  The program is the isci package under src/ of this checkout.

  cli-default  fresh-process `isci simulate` runs on the built-in scene;
               an operation is one process, start-up included.
  loop-large   controller.run_scenario in a 10 m room with a 5 x 5 LED/PD
               lattice and a 0.05 m floor grid; an operation is one step.
  solve-sweep  program build plus solve_refined for both modes over seeded
               default_scene layouts; an operation is one build and solve.

--trace 0 measures the end-to-end metrics for --seconds, untraced.  --trace 1
runs a fixed op list untraced and again traced (spans around the public
functions of every isci layer), reports per-layer metrics, the tracing
overhead and the scaling ladder.  Human-readable lines come first; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

WORKLOADS = ("cli-default", "loop-large", "solve-sweep")
CHILD_TIMEOUT_S = 170.0
CLI_TRACED_RUNS = 5
CLI_CODE = "import sys; from isci.cli import main; sys.exit(main())"

END_TO_END = {  # name -> unit
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics; a layer a workload does not exercise reports 0.
PER_LAYER = {
    "cli.python_start_s": "s", "cli.import_s": "s", "cli.import_scipy_s": "s",
    "cli.simulate_warm_s": "s", "cli.trace_identical": "frac",
    "scene.build_ms": "ms",
    "geometry.partition_ms": "ms", "geometry.classify_ms": "ms",
    "photometry.coeff_ms": "ms", "photometry.field_ms": "ms",
    "photometry.field_snr_full_ms": "ms",
    "sensing.model_s": "s", "sensing.table_s": "s", "sensing.table_mb": "MB",
    "sensing.localize_ms": "ms", "sensing.localize_gbps": "GB/s",
    "sensing.received_power_ms": "ms", "sensing.localize_calls": "count",
    "optimize.build_ms": "ms", "optimize.solve_ms.uniformity": "ms",
    "optimize.solve_ms.enhanced": "ms", "optimize.kkt_ms": "ms",
    "optimize.ipm_iters": "count", "optimize.rows_added": "count",
    "optimize.infeasible": "count",
    "controller.apply_mode_ms": "ms", "controller.solves": "count",
    "controller.localize_share": "frac", "controller.steps": "count",
    "controller.deadline_miss_frac": "frac", "controller.step_timer_overhead_us": "us",
    **{f"{layer}.self_frac": "frac" for layer in common.LAYERS},
    "trace.overhead_frac": "frac", "trace.accounted_frac": "frac",
    "trace.counts_repeat": "flag",
    **{f"ladder.{rung}.{name}": unit for rung in common.LADDER
       for name, unit in (("setup_s", "s"), ("localize_ms", "ms"), ("rss_mb", "MB"))},
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(common.SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(*args: str) -> dict:
    cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expire(signum, frame):
    raise TimeoutError


def timed_process(cmd: list[str], log: Path) -> tuple[float, int, float]:
    """Run one process; returns (wall s, exit code, peak RSS MB) from wait4."""
    with log.open("wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=common.ROOT, env=child_env())
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -1
            raise BenchError(f"{cmd} timed out") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_runs(pairs, tmp: Path, reference: dict, seconds: float = 0.0, count: int = 0):
    """Fresh `isci simulate` processes, checked, until ``seconds`` have passed
    or ``count`` runs are done; returns walls, RSS, failed and identical counts."""
    walls, rss, failed, identical = [], [], 0, 0
    start = time.perf_counter()
    while (len(walls) < count if count else time.perf_counter() - start < seconds):
        pair = pairs[len(walls) % len(pairs)]
        out = tmp / f"cli-{len(walls)}"
        wall, code, peak = timed_process(
            [sys.executable, "-c", CLI_CODE, *common.cli_args(*pair, out)], tmp / "cli.log")
        ok, same = common.check_cli_output(out, reference, pair)
        shutil.rmtree(out, ignore_errors=True)
        walls.append(wall)
        rss.append(peak)
        failed += code != 0 or not ok
        identical += same
    return walls, rss, failed, identical


def end_to_end(blocks: list[list[float]], setup: list[float], rss: float) -> dict:
    """Latency percentiles and throughput as medians over blocks of ops."""
    return {
        "latency_ms_p50": 1e3 * common.block_median(blocks, common.median),
        "latency_ms_p90": 1e3 * common.block_median(blocks, common.p90),
        "ops_per_s": common.block_median(blocks, lambda b: len(b) / sum(b)),
        "setup_s": common.median(setup),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    if workload == "cli-default":
        setup = run_worker("setup", workload, "--seed", str(seed))
        reference = common.load_reference()
        pairs = common.cli_pairs(seed)
        # One untimed run first, so that compiling isci's bytecode in a fresh
        # checkout is not timed.
        cli_runs(pairs[-1:], tmp, reference, count=1)
        walls, rss, failed, identical = cli_runs(pairs, tmp, reference, seconds=seconds)
        # A fresh process is long enough to be its own sample; the runs form
        # one block.
        metrics = end_to_end([walls], setup["setup_s"], common.median(rss))
        notes = {"samples": (len(walls), "runs"), "blas_threads": (setup["blas_threads"], "threads"),
                 "run_s_p50": (metrics["latency_ms_p50"] / 1e3, "s"),
                 "run_s_p90": (metrics["latency_ms_p90"] / 1e3, "s"),
                 "trace_identical": (f"{identical}/{len(walls)}", "runs")}
        return {"metrics": metrics, "attempted": len(walls), "failed": failed, "notes": notes}
    raw = run_worker("measure", workload, "--seed", str(seed), "--seconds", str(seconds))
    blocks = raw["blocks_s"]
    metrics = end_to_end(blocks, raw["setup_s"], raw["rss_mb"])
    notes = {"samples": (raw["attempted"], "ops"), "blocks": (len(blocks), "blocks"),
             "blas_threads": (raw["blas_threads"], "threads")}
    if workload == "loop-large":
        notes |= {"step_ms_p50": (metrics["latency_ms_p50"], "ms"),
                  "step_ms_p90": (metrics["latency_ms_p90"], "ms"),
                  "steps_per_s": (metrics["ops_per_s"], "1/s"),
                  "deadline_miss_frac": (raw["deadline_misses"] / raw["attempted"], "frac")}
    else:
        notes |= {"solve_ms_p50": (metrics["latency_ms_p50"], "ms"),
                  "solve_ms_p90": (metrics["latency_ms_p90"], "ms")}
    return {"metrics": metrics, "attempted": raw["attempted"], "failed": raw["failed"],
            "notes": notes}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def import_breakdown() -> tuple[float, float]:
    """(import isci.cli, the scipy part of it) in s, from -X importtime.

    The report lists each import after its own sub-imports, indented one
    level deeper; an entry's parent is the next entry one level up.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import isci.cli"],
                          capture_output=True, text=True, cwd=common.ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import isci.cli failed:\n{proc.stderr[-2000:]}")
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) / 1e6))
    parents, stack = {}, []
    for i in reversed(range(len(entries))):
        depth = entries[i][0]
        while stack and entries[stack[-1]][0] >= depth:
            stack.pop()
        parents[i] = entries[stack[-1]][1] if stack else None
        stack.append(i)
    cli_s = sum(cum for i, (_, name, cum) in enumerate(entries)
                if name in ("isci", "isci.cli") and parents[i] is None)
    scipy_s = sum(cum for i, (_, name, cum) in enumerate(entries)
                  if name.split(".")[0] == "scipy"
                  and (parents[i] or "").split(".")[0] != "scipy")
    return cli_s, scipy_s


def python_start_s(reps: int = 5) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
    return common.median(walls)


def ladder(seed: int) -> tuple[dict, int, int]:
    layers, attempted, failed = {}, 0, 0
    for rung in common.LADDER:
        raw = run_worker("ladder", rung, "--seed", str(seed))
        layers[f"ladder.{rung}.setup_s"] = raw["setup_s"]
        layers[f"ladder.{rung}.localize_ms"] = 1e3 * common.median(raw["localize_s"])
        layers[f"ladder.{rung}.rss_mb"] = raw["rss_mb"]
        attempted += raw["attempted"]
        failed += raw["failed"]
    return layers, attempted, failed


def median_layers(runs: list[dict]) -> dict:
    return {name: common.median([r[name] for r in runs]) for name in runs[0]}


def traced(workload: str, seed: int, tmp: Path) -> dict:
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if workload == "cli-default":
        reference = common.load_reference()
        pair = common.cli_pairs(seed)[0]
        cli_runs([pair], tmp, reference, count=1)
        # Untraced and traced fresh processes alternate on the same arguments.
        walls, spans, failed, identical = [], [], 0, 0
        for i in range(CLI_TRACED_RUNS):
            run_walls, _, run_failed, same = cli_runs([pair], tmp, reference, count=1)
            walls += run_walls
            failed += run_failed
            identical += same
            out = tmp / f"traced-{i}"
            t_spawn = time.perf_counter()
            wall, code, _ = timed_process(
                [sys.executable, str(common.BENCH_DIR / "worker.py"), "cli-traced",
                 "--seed", str(seed), "--out", str(out)], tmp / "traced.log")
            log = (tmp / "traced.log").read_text()
            if code != 0:
                raise BenchError(f"traced simulate exited {code}:\n{log[-2000:]}")
            raw = json.loads(log.strip().splitlines()[-1])
            raw["wall"] = wall
            raw["start_s"] = raw["started"] - t_spawn
            raw["exit_s"] = t_spawn + wall - raw["main_end"]
            spans.append(raw)
            failed += raw["failed"]
            identical += raw["identical"]
            shutil.rmtree(out, ignore_errors=True)
        warm = run_worker("cli-warm", "--seed", str(seed), "--out", str(tmp / "warm"))
        imports = [import_breakdown() for _ in range(3)]
        run_s = common.median(walls)
        layers.update(median_layers([r["layers"] for r in spans]))
        layers.update({
            "cli.python_start_s": python_start_s(),
            "cli.import_s": common.median([i[0] for i in imports]),
            "cli.import_scipy_s": common.median([i[1] for i in imports]),
            "cli.simulate_warm_s": common.median(warm["main_s"][1:]),
            "cli.trace_identical": ((identical + warm["identical"])
                                    / (2 * CLI_TRACED_RUNS + warm["attempted"])),
            "photometry.field_snr_full_ms": warm["field_snr_full_ms"],
            "trace.overhead_frac": common.median([r["wall"] for r in spans]) / run_s - 1.0,
            # Blocking steps of one fresh run: interpreter start, import, the
            # layers under cli.main, and interpreter exit.
            "trace.accounted_frac": common.median(
                [r["start_s"] + r["import_s"] + r["main_s"] + r["exit_s"] for r in spans]) / run_s,
        })
        counts_repeat = all(r["counts"] == spans[0]["counts"] for r in spans)
        attempted = 2 * CLI_TRACED_RUNS + warm["attempted"]
        failed += warm["failed"]
        notes = {"run_s_p50": (run_s, "s"),
                 "traced_run_s_p50": (common.median([r["wall"] for r in spans]), "s"),
                 "start_s": (common.median([r["start_s"] for r in spans]), "s"),
                 "import_s": (common.median([r["import_s"] for r in spans]), "s"),
                 "main_s": (common.median([r["main_s"] for r in spans]), "s"),
                 "exit_s": (common.median([r["exit_s"] for r in spans]), "s")}
    else:
        raw = run_worker("fixed", workload, "--seed", str(seed))
        layers.update(raw["layers"])
        layers["trace.overhead_frac"] = raw["traced_s"] / raw["plain_s"] - 1.0
        layers["trace.accounted_frac"] = raw["isci_s"] / raw["plain_s"]
        if workload == "loop-large":
            layers["controller.deadline_miss_frac"] = raw["deadline_miss_frac"]
            layers["controller.step_timer_overhead_us"] = raw["step_timer_overhead_us"]
        counts_repeat = raw["counts_repeat"]
        attempted, failed = raw["attempted"], raw["failed"]
        notes = {"ops_untraced_s": (raw["plain_s"], "s"),
                 "ops_traced_s": (raw["traced_s"], "s")}
    layers["trace.counts_repeat"] = float(counts_repeat)
    if not counts_repeat:
        notes["UNSTEADY"] = ("exact counts differed between runs of the same ops", "")
    rungs, rung_attempted, rung_failed = ladder(seed)
    layers.update(rungs)
    return {"metrics": layers, "attempted": attempted + rung_attempted,
            "failed": failed + rung_failed, "notes": notes}


# ---------------------------------------------------------------------------

def report(workload: str, seed: int, result: dict, units: dict) -> None:
    print(f"== {workload} (seed {seed}; closed loop, 1 client) ==")
    for name, (value, unit) in result["notes"].items():
        print(f"  {name} = {value:.6g} {unit}" if isinstance(value, float)
              else f"  {name} = {value} {unit}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "isci" / "__init__.py").is_file() or not common.REFERENCE.is_file():
        sys.stderr.write(f"no isci source under {common.SRC}; run from a checkout\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    common.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=common.OUT_DIR))
    results = {}
    try:
        for workload in workloads:
            if args.trace:
                results[workload] = traced(workload, args.seed, tmp)
            else:
                results[workload] = measure(workload, args.seed, args.seconds, tmp)
            report(workload, args.seed, results[workload], units)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prefix = len(workloads) > 1
    metrics = {f"{w}.{name}" if prefix else name: {"value": value, "unit": units[name]}
               for w, r in results.items() for name, value in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
