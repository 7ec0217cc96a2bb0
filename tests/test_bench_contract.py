"""The benchmark under bench/ calls isci by name: its traced runs wrap public
functions where their callers look them up, and its scaling ladder calls
sensing.localize directly.  A rename or signature change those calls miss
fails here rather than in a benchmark run.  bench/ is only read."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_finds_every_isci_function_it_calls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    tracer = worker.Tracer()
    try:
        worker.instrument(tracer, [])
    finally:
        tracer.unwrap()  # what was wrapped before a miss must not time the other tests
    rung = worker.mode_ladder("5m-9led", 1)
    assert rung["attempted"] > 0 and rung["failed"] == 0
