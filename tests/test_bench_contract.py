"""The benchmark under bench/ calls isci by name: its traced runs wrap public
functions where their callers look them up, and its scaling ladder calls
sensing.localize directly.  A rename or signature change those calls miss
fails here rather than in a benchmark run, and so does a table that the
traced build's size hook cannot read.  bench/ is only read."""

import importlib
import math
import sys
from pathlib import Path

from isci import sensing
from isci.scene import default_scene

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_finds_every_isci_function_it_calls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    tracer, records = worker.Tracer(), []
    try:
        worker.instrument(tracer, records)
        # the traced table build runs the hook that sizes the table, which
        # reads its dense deltas
        table = sensing.build_fingerprint_table(default_scene())
    finally:
        tracer.unwrap()  # what was wrapped before a miss must not time the other tests
    (_, kind, _, (size, shape)), = records
    assert kind == "table" and shape == table.shape
    assert size == table.candidates.nbytes + table.baseline.nbytes + 8 * math.prod(shape)
    rung = worker.mode_ladder("5m-9led", 1)
    assert rung["attempted"] > 0 and rung["failed"] == 0
