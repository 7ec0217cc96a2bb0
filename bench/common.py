"""Shared by bench/run.py and its worker processes (stdlib only).

Holds the checkout layout, the derivation of every workload input from the
workload seed, the CLI output check and the order statistics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

# Pools of inputs whose outputs at the commit that defined the benchmark are
# stored in reference.json; a workload seed picks an order through a pool.
CLI_TRAJECTORY_SEEDS = range(20)
CLI_NOISE_SEEDS = range(5)
SWEEP_LAYOUT_SEEDS = range(50)
SWEEP_MODES = ("uniformity", "enhanced")

# Large-room control loop: 10 m room, 5 x 5 LED/PD lattice at 1.4 m spacing,
# 0.05 m floor grid.  At this spacing the enhanced LP is infeasible, so the
# loop also runs the controller's fallback.
LOOP_LARGE = (10.0, 5, 0.05, 1.4)

# Scaling ladder: name -> (room size m, LEDs per side, floor grid pitch m,
# LED spacing m).  A 20 m / 64-LED room at 0.1 m peaks near 6.8 GB, so its
# rung uses 0.2 m.
LADDER = {
    "5m-9led": (5.0, 3, 0.1, 5.0 / 3),
    "10m-25led": (10.0, 5, 0.1, 2.0),
    "10m-25led-0.05": (10.0, 5, 0.05, 2.0),
    "20m-64led-0.2": (20.0, 8, 0.2, 2.5),
}

SENSING_PD_OFFSET_M = 0.1

# Span-name prefixes of the traced run: the isci modules, then the
# benchmark's own glue.
LAYERS = ("cli", "scene", "geometry", "photometry", "sensing", "optimize",
          "controller", "bench")


def rng_for(workload: str, seed: int) -> random.Random:
    """Deterministic generator for one workload and seed (str seeds hash
    with SHA-512, independent of PYTHONHASHSEED)."""
    return random.Random(f"{workload}:{seed}")


def cli_pairs(seed: int) -> list[tuple[int, int]]:
    """Trajectory and noise seed pairs in the order the CLI workload runs them."""
    pairs = [(t, n) for t in CLI_TRAJECTORY_SEEDS for n in CLI_NOISE_SEEDS]
    rng_for("cli-default", seed).shuffle(pairs)
    return pairs


def loop_seeds(seed: int, count: int) -> list[tuple[int, int]]:
    """Trajectory and noise seeds of the large-room replays."""
    rng = rng_for("loop-large", seed)
    return [(rng.randrange(2**31), rng.randrange(2**31)) for _ in range(count)]


def sweep_cycles(seed: int):
    """Endless passes through the (layout seed, mode) pool, each in a fresh
    seeded order."""
    rng = rng_for("solve-sweep", seed)
    pool = [(s, m) for s in SWEEP_LAYOUT_SEEDS for m in SWEEP_MODES]
    while True:
        rng.shuffle(pool)
        yield list(pool)


def lattice_config(size: float, per_side: int, pitch: float, spacing: float) -> dict:
    """Scene config of a square room with an n x n LED lattice centred on the
    ceiling and one sensing PD offset +x from each LED."""
    first = (size - (per_side - 1) * spacing) / 2
    xs = [first + i * spacing for i in range(per_side)]
    return {
        "room": {"size_x": size, "size_y": size},
        "grid": {"pitch": pitch},
        "leds": [{"position": [x, y, 3.0]} for x in xs for y in xs],
        "sensing_pds": [{"position": [x + SENSING_PD_OFFSET_M, y, 3.0]} for x in xs for y in xs],
    }


def cli_args(trajectory_seed: int, noise_seed: int, out: Path) -> list[str]:
    return ["simulate", "--config", "default", "--trajectory-seed", str(trajectory_seed),
            "--noise-seed", str(noise_seed), "--out", str(out)]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_cli_output(out: Path, reference: dict, pair: tuple[int, int]) -> tuple[bool, bool]:
    """(manifest digests match the files, trace.csv equals the reference)."""
    try:
        files = json.loads((out / "manifest.json").read_text())["files"]
        ok = bool(files) and all(sha256(out / name) == digest for name, digest in files.items())
        identical = sha256(out / "trace.csv") == reference["cli_trace_sha256"][f"{pair[0]},{pair[1]}"]
    except (OSError, ValueError, KeyError):
        return False, False
    return ok, identical


def median(values) -> float:
    return float(statistics.median(values))


def block_median(blocks, stat) -> float:
    """Median over blocks of a statistic of each block, so that a burst of
    load from outside in one block does not move the result."""
    return median([stat(block) for block in blocks])


def p90(values) -> float:
    """90th percentile, linear between order statistics (numpy's default)."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    pos = 0.9 * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (pos - lo) * (values[hi] - values[lo]))
