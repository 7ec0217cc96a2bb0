import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isci
from isci import cli
from isci.cli import _read_traces, _run_metrics, main
from isci.controller import baseline_scenario, generate_trajectory, run_scenario
from isci.geometry import build_partition
from isci.scene import SceneError, default_scene, dump_scene, scene_to_dict
from isci.sensing import SensingModel, build_fingerprint_table
from tests.oracles import mic_radius_exact


def run(*args):
    return main(list(args))


def test_regions_csv(tmp_path, capsys):
    out = tmp_path / "r"
    assert run("regions", "--out", str(out)) == 0
    rows = list(csv.DictReader((out / "regions.csv").open()))
    kinds = [r["kind"] for r in rows]
    assert kinds.count("mec") == 1 and kinds.count("mic") == 1
    assert kinds.count("hull") >= 3
    mec = next(r for r in rows if r["kind"] == "mec")
    assert float(mec["radius"]) > 0
    hull = next(r for r in rows if r["kind"] == "hull")
    assert hull["radius"] == ""
    assert "mec_radius=" in capsys.readouterr().out


def test_regions_of_a_sliver_layout(tmp_path):
    # four LEDs within 1e-6 m of a line still bound an activity area
    leds = [(1.0, 1.0), (4.0, 3.999999), (2.0, 2.000001), (3.0, 2.999999)]
    cfg = tmp_path / "sliver.yaml"
    cfg.write_text(yaml.safe_dump({"leds": [{"position": [x, y, 3.0]} for x, y in leds],
                                   "sensing_pds": [{"position": [2.5, 2.5, 3.0]}]}))
    out = tmp_path / "r"
    assert run("regions", "--config", str(cfg), "--out", str(out)) == 0
    rows = list(csv.DictReader((out / "regions.csv").open()))
    (mic,) = [r for r in rows if r["kind"] == "mic"]
    hull = [(float(r["x"]), float(r["y"])) for r in rows if r["kind"] == "hull"]
    exact = mic_radius_exact(hull)
    assert 0 < float(mic["radius"]) and abs(float(mic["radius"]) - exact) <= 1e-6 * exact


def test_field_outputs(tmp_path):
    out = tmp_path / "f"
    assert run("field", "--quantity", "illuminance", "--pitch", "0.5",
               "--out", str(out)) == 0
    rows = list(csv.DictReader((out / "field.csv").open()))
    assert len(rows) == 100
    assert {r["region"] for r in rows} <= {"outside", "non_activity", "activity"}
    pgm = (out / "field.pgm").read_bytes()
    assert pgm.startswith(b"P5\n10 10\n255\n")
    assert len(pgm) == len(b"P5\n10 10\n255\n") + 100
    sidecar = (out / "field_range.txt").read_text()
    assert "vmin=" in sidecar and "vmax=" in sidecar


def test_field_snr_full_matches_oracle(tmp_path, capsys):
    from tests.oracles import snr_full_at
    out = tmp_path / "f"
    assert run("field", "--quantity", "snr-full", "--pitch", "0.5", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("samples=100 ")
    rows = list(csv.DictReader((out / "field.csv").open()))
    assert len(rows) == 100
    assert "quantity=snr_full" in (out / "field_range.txt").read_text()
    scene = default_scene()
    z = scene.room.plane_z
    for row in rows[::17]:
        x, y, value = float(row["x"]), float(row["y"]), float(row["value"])
        expected = snr_full_at(scene.leds, (x, y, z), scene.comm_pd, scene.noise)
        assert abs(value - expected) <= 1e-12 * expected


def test_fingerprint_file(tmp_path):
    out = tmp_path / "fp"
    assert run("fingerprint", "--out", str(out)) == 0
    blob = (out / "fingerprint.lfpt").read_bytes()
    assert blob[:4] == b"LFPT" and struct.unpack_from("<H", blob, 4) == (2,)
    k, m, n = struct.unpack_from("<III", blob, 6)
    assert (k, m, n) == (2500, 8, 8)
    from isci.sensing import load_fingerprint
    table = load_fingerprint(blob)
    assert table.deltas.shape == (2500, 8, 8)


def test_optimize_enhanced_summary(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("optimize", "--mode", "enhanced", "--out", str(out)) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("status=Optimal total_W=")
    total = float(line.split("total_W=")[1])
    assert total <= 640.0
    rows = list(csv.DictReader((out / "powers.csv").open()))
    assert len(rows) == 8
    assert abs(sum(float(r["power_w"]) for r in rows) - total) < 1e-9


@pytest.mark.parametrize("mode", ["uniformity", "enhanced"])
def test_optimize_writes_the_powers_simulate_applies(tmp_path, mode):
    # both take the mode's powers from controller.apply_mode: powers.csv holds,
    # as text, the P_i cells of the first trace.csv row in that mode
    assert run("optimize", "--mode", mode, "--out", str(tmp_path / "o")) == 0
    assert run("simulate", "--out", str(tmp_path / "s")) == 0
    with (tmp_path / "o" / "powers.csv").open(newline="") as fh:
        powers = [row["power_w"] for row in csv.DictReader(fh)]
    with (tmp_path / "s" / "trace.csv").open(newline="") as fh:
        first = next(row for row in csv.DictReader(fh) if row["mode"] == mode)
    assert len(powers) == 8
    assert powers == [first[f"P_{i + 1}"] for i in range(len(powers))]


def test_optimize_infeasible_exit_code(tmp_path):
    out = tmp_path / "inf"
    assert run("optimize", "--mode", "enhanced", "--snr-threshold", "1e15",
               "--out", str(out)) == 2
    assert "status=Infeasible" in (out / "report.txt").read_text()


def test_optimize_max_iter_exit_code(tmp_path, capsys, monkeypatch):
    # a solve that stops at its iteration cap certifies no allocation either
    def stalled(problem, scene, partition):
        return problem, isci.SolveReport(x=np.full(8, 40.0), objective=320.0,
                                         max_violation=0.5, kkt_residual=1.0, iterations=200,
                                         status=isci.SolveStatus.MAX_ITER)

    monkeypatch.setattr(isci.optimize, "solve_refined", stalled)
    out = tmp_path / "stalled"
    assert run("optimize", "--mode", "enhanced", "--out", str(out)) == 2
    assert capsys.readouterr().out == "status=MaxIter\n"
    assert "status=MaxIter" in (out / "report.txt").read_text().splitlines()
    assert not (out / "powers.csv").exists()


_NUMPY_MEMORY_ERROR = ("Unable to allocate 1.49 GiB for an array with shape (400000000,) "
                       "and data type float32")


@pytest.mark.parametrize("command, module, builder, exc, message", [
    (["simulate"], "sensing", "build_fingerprint_table", MemoryError(_NUMPY_MEMORY_ERROR),
     _NUMPY_MEMORY_ERROR),
    (["optimize", "--mode", "enhanced"], "optimize", "build_enhanced_lp",
     MemoryError(_NUMPY_MEMORY_ERROR), _NUMPY_MEMORY_ERROR),
    (["simulate"], "controller", "generate_trajectory", MemoryError(), "out of memory"),
], ids=["grid-pitch", "opt-pitch", "dwell-time"])
def test_memory_error_exit_one(tmp_path, capsys, monkeypatch, command, module, builder, exc,
                               message):
    # what a tiny pitch or a huge dwell time runs into, raised without allocating
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(getattr(isci, module), builder, exhausted)
    assert run(*command, "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flags, settings", [
    (["simulate"], ["--noise-sigma", "0.02", "--step-period", "0.25"],
     {"noise_rel_sigma": 0.02, "step_period_s": 0.25}),
    (["field"], ["--pitch", "0.5"], {"field_pitch_m": 0.5}),
    (["optimize", "--mode", "enhanced"], ["--pitch", "0.2", "--snr-threshold", "2e7"],
     {"opt_pitch_m": 0.2, "snr_threshold": 2e7}),
], ids=["simulate", "field", "optimize"])
def test_setting_flags_are_recorded_and_replayable(tmp_path, command, flags, settings):
    flagged, replayed = tmp_path / "flagged", tmp_path / "replayed"
    assert run(*command, *flags, "--out", str(flagged)) == 0
    config = json.loads((flagged / "manifest.json").read_text())["config"]
    for key, value in settings.items():
        assert config["controller"][key] == value
    if command == ["simulate"]:
        times = [float(r["t"]) for r in csv.DictReader((flagged / "trace.csv").open())]
        assert times[:3] == [0.0, 0.25, 0.5]
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(yaml.safe_dump(config))
    assert run(*command, "--config", str(cfg), "--out", str(replayed)) == 0
    names = sorted(p.name for p in flagged.iterdir())
    assert names == sorted(p.name for p in replayed.iterdir())
    for name in names:
        assert (flagged / name).read_bytes() == (replayed / name).read_bytes(), name


@pytest.mark.parametrize("args, message", [
    (["simulate", "--noise-sigma", "-0.5"], "controller.noise_rel_sigma: must be nonnegative"),
    (["simulate", "--noise-sigma", "nan"], "controller.noise_rel_sigma: must be nonnegative"),
    (["field", "--pitch", "nan"], "controller.field_pitch_m: must be positive"),
    (["simulate", "--noise-sigma", "inf"], "controller.noise_rel_sigma: must be finite"),
    (["simulate", "--step-period", "inf"], "controller.step_period_s: must be finite"),
    (["optimize", "--mode", "enhanced", "--snr-threshold", "inf"],
     "controller.snr_threshold: must be finite"),
    (["field", "--pitch", "inf"], "controller.field_pitch_m: must be finite"),
    (["optimize", "--mode", "enhanced", "--pitch", "inf"],
     "controller.opt_pitch_m: must be finite"),
], ids=["noise-negative", "noise-nan", "pitch-nan", "noise-inf", "step-inf", "snr-inf",
        "field-pitch-inf", "opt-pitch-inf"])
def test_invalid_setting_flag_exit_one(tmp_path, capsys, args, message):
    out = tmp_path / "x"
    assert run(*args, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["field"], ["optimize", "--mode", "enhanced"]],
                         ids=["field", "optimize"])
def test_pitch_wider_than_room_exit_one(tmp_path, capsys, command):
    # the default room is 5 m square: an 11 m pitch's one sample, at 5.5 m, lies outside it
    out = tmp_path / "x"
    assert run(*command, "--pitch", "11", "--out", str(out)) == 1
    assert capsys.readouterr().err == ("error: pitch 11.0 m must be positive and no wider than "
                                       "the room's shorter side, 5.0 m\n")
    assert not out.exists()


def test_optimize_without_plane_samples_exit_one(tmp_path, capsys):
    # three LEDs in one corner: the 5 m pitch's one sample, the room's
    # centre, lies outside their MEC, so the uniformity QP has no rows
    cfg = tmp_path / "corner.yaml"
    cfg.write_text(yaml.safe_dump({"leds": [{"position": [x, y, 3.0]}
                                            for x, y in ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0))],
                                   "sensing_pds": [{"position": [2.5, 2.5, 3.0]}]}))
    out = tmp_path / "x"
    assert run("optimize", "--mode", "uniformity", "--pitch", "5", "--config", str(cfg),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: no receiving-plane samples at this pitch\n"
    assert not out.exists()


def test_optimize_zero_snr_threshold(tmp_path, capsys):
    out = tmp_path / "z"
    assert run("optimize", "--mode", "enhanced", "--snr-threshold", "0",
               "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("status=Optimal total_W=")


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run("simulate", "--trajectory-seed", "7", "--noise-seed", "3",
               "--out", str(out1)) == 0
    assert run("simulate", "--trajectory-seed", "7", "--noise-seed", "3",
               "--out", str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_different_seed_differs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("simulate", "--trajectory-seed", "7", "--out", str(out1))
    run("simulate", "--trajectory-seed", "8", "--out", str(out2))
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_manifest_digests(tmp_path, capsys):
    # every command's manifest is written by the one dispatch path: it names
    # the command, its seed flags, and digests every other file it wrote
    sim = tmp_path / "simulate"
    expected = {
        "regions": ([], {"regions.csv"}),
        "field": ([], {"field.csv", "field.pgm", "field_range.txt"}),
        "fingerprint": ([], {"fingerprint.lfpt"}),
        "optimize": (["--mode", "enhanced"], {"powers.csv", "report.txt"}),
        "simulate": ([], {"trace.csv", "baseline_trace.csv", "benchmark.csv", "summary.txt"}),
        "report": (["--trace", str(sim / "trace.csv"), "--baseline",
                    str(sim / "baseline_trace.csv")], {"report.txt"}),
    }
    for command, (flags, names) in expected.items():
        out = tmp_path / command
        assert run(command, *flags, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        seeds = {"scene": 2, "trajectory": 7, "noise": 1} if command == "simulate" else {"scene": 2}
        assert manifest["seeds"] == seeds
        assert manifest["config"]["room"]["size_x"] == 5.0
        files = manifest["files"]
        assert set(files) == names
        assert {p.name for p in out.iterdir()} == names | {"manifest.json"}
        for name, digest in files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert (tmp_path / "report" / "report.txt").read_text() in capsys.readouterr().out


def test_report_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    sim = tmp_path / "simulate"
    assert run("simulate", "--out", str(sim)) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert run("report", "--trace", str(sim / "trace.csv"),
               "--baseline", str(sim / "baseline_trace.csv")) == 0
    assert capsys.readouterr().out.startswith("savings=")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["simulate"]


def test_trace_csv_shape(tmp_path):
    out = tmp_path / "t"
    run("simulate", "--out", str(out))
    rows = list(csv.DictReader((out / "trace.csv").open()))
    assert rows, "empty trace"
    expected = ["t", "x_true", "y_true", "x_est", "y_est", "mode"] \
        + [f"P_{i}" for i in range(1, 9)] + ["energy_J", "error_m"]
    assert list(rows[0].keys()) == expected
    assert rows[0]["mode"] == "no_user"
    assert rows[0]["x_true"] == ""


def test_report_aggregates(tmp_path, capsys):
    out = tmp_path / "r"
    run("simulate", "--out", str(out))
    capsys.readouterr()
    code = run("report", "--trace", str(out / "trace.csv"),
               "--baseline", str(out / "baseline_trace.csv"))
    assert code == 0
    text = capsys.readouterr().out
    assert "savings=" in text and "%" in text
    assert "violations=0" in text
    assert "variance_reduction=" in text


def test_report_identical_traces_zero_savings(tmp_path, capsys):
    out = tmp_path / "r0"
    run("simulate", "--out", str(out))
    capsys.readouterr()
    run("report", "--trace", str(out / "baseline_trace.csv"),
        "--baseline", str(out / "baseline_trace.csv"))
    assert "savings=0.00%" in capsys.readouterr().out


def test_config_file_resolution(tmp_path, capsys):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(dump_scene(default_scene(seed=5)))
    out = tmp_path / "regions"
    assert run("regions", "--config", str(cfg), "--out", str(out)) == 0


def test_config_env_applies_without_config_flag(tmp_path, monkeypatch):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(dump_scene(default_scene(seed=5)))
    monkeypatch.setenv("ISCI_CONFIG", str(cfg))

    def config(*flags):
        out = tmp_path / f"out{len(flags)}"
        assert run("regions", *flags, "--out", str(out)) == 0
        return json.loads((out / "manifest.json").read_text())["config"]

    assert config() == scene_to_dict(default_scene(seed=5))
    assert config("--config", "default") == scene_to_dict(default_scene())


def test_invalid_config_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("room:\n  size_x: -4\nleds: []\n")
    assert run("regions", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    # a value of the wrong type is a validation error naming the field, not a traceback
    cfg.write_text(dump_scene(default_scene()).replace("size_x: 5.0", "size_x: abc", 1))
    capsys.readouterr()
    assert run("regions", "--config", str(cfg), "--out", str(tmp_path / "y")) == 1
    assert capsys.readouterr().err == "error: room.size_x: must be a finite number, got 'abc'\n"


@pytest.mark.parametrize("section, key, literal, message", [
    ("room", "size_x", "1e308",
     "grid.pitch: 0.1 m cuts the 1e+308 x 5.0 m floor into too many cells"),
    ("grid", "pitch", "1e-300",
     "grid.pitch: 1e-300 m cuts the 5.0 x 5.0 m floor into too many cells"),
    ("noise", "temperature_k", str(10**400),
     f"noise.temperature_k: must be a finite number, got {10**400}"),
    ("noise", "temperature_k", "1" * 5000,
     "parse error at line {line}, column {column}: an integer of 5000 digits is too long to read"),
    ("room", "size_x", "[" * 5000, "parse error: collections nested too deeply to read"),
    ("room", "size_x", "1" + ":59" * 200 + ".5", "parse error: int too large to convert to float"),
    ("room", "size_x", "2001-02-30", "room.size_x: must be a finite number, got '2001-02-30'"),
    ("room", "size_x", "2001-02-03", "room.size_x: must be a finite number, got '2001-02-03'"),
], ids=["huge-room", "fine-pitch", "int-past-float", "int-past-str-digits", "nested-past-recursion",
        "sexagesimal-past-float", "no-such-date", "date"])
def test_overflowing_config_exit_one(tmp_path, capsys, section, key, literal, message):
    # the first three used to end in an OverflowError traceback, the fourth in
    # Python's ValueError on converting a string of over 4300 digits to an int,
    # the fifth in PyYAML's RecursionError, the sixth in its OverflowError and
    # the seventh in its "day is out of range for month", naming no field; a
    # YAML timestamp is read as its text
    cfg = scene_to_dict(default_scene())
    cfg[section][key] = "VALUE"
    text = yaml.safe_dump(cfg)
    before = text[:text.index("VALUE")]
    path = tmp_path / "scene.yaml"
    path.write_text(text.replace("VALUE", literal))
    out = tmp_path / "x"
    assert run("regions", "--config", str(path), "--out", str(out)) == 1
    line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
    assert capsys.readouterr().err == f"error: {message.format(line=line, column=column)}\n"
    assert not out.exists()


def test_yaml_syntax_error_exit_one(tmp_path, capsys):
    # PyYAML's own text of this error spans seven lines: marks and source
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("room:\n  size_x: [oops\n")
    out = tmp_path / "x"
    assert run("regions", "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == ("error: parse error at line 3, column 1: expected ',' or "
                                       "']', but got '<stream end>' while parsing a flow sequence\n")
    assert not out.exists()


def test_footprint_wider_than_the_room_exit_one(tmp_path, capsys):
    # a footprint diameter over the room's shorter side used to end in numpy's
    # broadcast error from the occlusion stencil
    cfg = tmp_path / "wide.yaml"
    cfg.write_text(dump_scene(default_scene()).replace("footprint_radius_m: 0.3",
                                                       "footprint_radius_m: 50", 1))
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr().err == ("error: user.footprint_radius_m: footprint diameter "
                                       "100.0 exceeds the room's shorter side 5.0\n")


def test_unknown_flag_exit_one(capsys):
    assert run("regions", "--nope") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exit_one(capsys):
    assert run("frobnicate") == 1


def test_missing_trace_file_exit_io(tmp_path):
    assert run("report", "--trace", str(tmp_path / "none.csv"),
               "--baseline", str(tmp_path / "none2.csv")) == 3


@pytest.mark.parametrize("trajectory, noise", [("7", "1"), ("0", "0"), ("3", "9"), ("11", "4")])
def test_report_of_written_traces_matches_summary(tmp_path, capsys, trajectory, noise):
    # summary.txt is the report of the traces simulate writes: the same
    # numbers, each printed to its own precision
    out = tmp_path / "run"
    assert run("simulate", "--trajectory-seed", trajectory, "--noise-seed", noise,
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("report", "--trace", str(out / "trace.csv"),
               "--baseline", str(out / "baseline_trace.csv")) == 0
    report = capsys.readouterr().out.splitlines()
    lines = (out / "summary.txt").read_text().splitlines()
    summary = dict(line.split("=", 1) for line in lines)
    values = dict(line.split("=", 1) for line in report)
    errors = [line for line in lines if line.startswith(("mean_error_m=", "max_error_m="))]
    assert len(errors) == 2
    assert [line for line in report if line.startswith(("mean_error_m=", "max_error_m="))] == errors
    assert values["violations"] == summary["power_violations"]
    for key, pct in (("savings", "savings_pct"),
                     ("variance_reduction", "snr_variance_reduction_pct")):
        assert values[key].endswith("%")
        assert abs(float(values[key][:-1]) - float(summary[pct])) <= 0.005 + 1e-9, key


def test_simulate_narrow_ring_exit_one(tmp_path, capsys):
    # 6 LEDs on a 0.5 m hexagon: MEC 0.5 m and MIC 0.433 m leave no ring for waypoints
    cfg = scene_to_dict(default_scene())
    corners = [(2.5 + 0.5 * math.cos(k * math.pi / 3), 2.5 + 0.5 * math.sin(k * math.pi / 3))
               for k in range(6)]
    cfg["leds"] = [dict(cfg["leds"][0], position=[x, y, 3.0]) for x, y in corners]
    cfg["sensing_pds"] = [dict(cfg["sensing_pds"][0], position=[x + 0.1, y, 3.0])
                          for x, y in corners]
    path = tmp_path / "hexagon.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "MEC radius" in err and "MIC radius" in err


def test_summary_contents(tmp_path):
    out = tmp_path / "s"
    run("simulate", "--out", str(out))
    text = (out / "summary.txt").read_text()
    for key in ("savings_pct=", "snr_variance_baseline=", "power_violations=0",
                "mean_error_m=", "illuminance_uniformity_lx="):
        assert key in text, key


def _write_trace(path, powers, energy_j, steps=3, mode="no_user"):
    header = (["t", "x_true", "y_true", "x_est", "y_est", "mode"]
              + [f"P_{i + 1}" for i in range(len(powers))] + ["energy_J", "error_m"])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(steps):
            writer.writerow([0.5 * k, "", "", "", "", mode, *powers, energy_j, ""])


def test_report_zero_energy_baseline_exit_one(tmp_path, capsys):
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 0.5 * float(p_min.sum()))
    _write_trace(tmp_path / "base.csv", [0.0] * len(p_min), 0.0, mode="baseline")
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    assert "error: baseline trace has no energy" in capsys.readouterr().err


def test_report_uniform_baseline_snr_exit_one(tmp_path, capsys):
    # dark LEDs give an SNR of 0 everywhere: the variance reduction would divide by 0
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0, mode="uniformity")
    _write_trace(tmp_path / "base.csv", [0.0] * len(p_min), 2.0, mode="baseline")
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    assert capsys.readouterr().err == ("error: the baseline's SNR is uniform, "
                                       "so it has no variance to reduce\n")


def test_report_power_column_mismatch_exit_one(tmp_path, capsys):
    p_min, _ = default_scene().power_bounds()
    short = list(p_min[:-1])
    _write_trace(tmp_path / "trace.csv", short, 1.0)
    _write_trace(tmp_path / "base.csv", short, 2.0, mode="baseline")
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    err = capsys.readouterr().err
    assert f"{len(short)} power columns" in err
    assert f"{len(p_min)} LEDs" in err


def _drop_column(path, column):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = [c for c in rows[0] if c != column]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("file, column", [
    ("trace.csv", "mode"),
    ("trace.csv", "error_m"),
    ("base.csv", "P_3"),  # a power column of the trace that the baseline lacks
])
def test_report_missing_column_exit_one(tmp_path, capsys, file, column):
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0)
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0, mode="baseline")
    _drop_column(tmp_path / file, column)
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / file}: not a trace CSV "
                                       f"(missing {column} column)\n")


@pytest.mark.parametrize("file, row, extra", [
    ("trace.csv", 2, -1),  # short: the last field missing
    ("trace.csv", 1, 1),   # long: one field past the header
    ("base.csv", 3, -3),
])
def test_report_ragged_row_exit_one(tmp_path, capsys, file, row, extra):
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0)
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0, mode="baseline")
    lines = (tmp_path / file).read_text().splitlines()
    fields = lines[row].split(",")
    fields = fields[:extra] if extra < 0 else fields + ["1.0"] * extra
    lines[row] = ",".join(fields)
    (tmp_path / file).write_text("\n".join(lines) + "\n")
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    header = len(lines[0].split(","))
    assert capsys.readouterr().err == (f"error: {tmp_path / file}: row {row} has "
                                       f"{header + extra} fields, header has {header}\n")


def _set_cells(path, cells):
    """Set ``{(row, column): text}`` in a trace CSV, rows counted from 1
    after the header."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for (row, column), text in cells.items():
        rows[row - 1][column] = text
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("file", ["trace.csv", "base.csv"])
@pytest.mark.parametrize("column", ["energy_J", "P_1", "error_m"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN", "+Infinity", "ten",
                                   "a\nb", "inf\n"])
def test_report_non_finite_value_exit_one(tmp_path, capsys, file, column, value):
    # before, a nan compared false against both power bounds and was reported,
    # ten was float()'s error, naming no file, row or column, and a cell's
    # newline split the one error line in two; the cell is echoed by repr
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0)
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0, mode="baseline")
    _set_cells(tmp_path / file, {(2, column): value})
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    problem = "a number" if value in ("ten", "a\nb") else "finite"
    assert captured.err == (f"error: {tmp_path / file}: row 2, column {column}: "
                            f"{value!r} is not {problem}\n")


def test_report_header_only_trace_exit_one(tmp_path, capsys):
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0, steps=0)
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0, mode="baseline")
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'trace.csv'}: empty trace\n"


@pytest.mark.parametrize("file", ["trace.csv", "base.csv"])
@pytest.mark.parametrize("column, problem", [
    ("energy_J", "is not a number"),
    ("P_1", "is not a number"),
    ("x_true", "in a half-empty pair"),
    ("y_est", "in a half-empty pair"),
])
def test_report_empty_cell_exit_one(tmp_path, capsys, file, column, problem):
    # only a position, an estimate (both cells) or error_m may be empty; an
    # empty energy_J or P_1 cell was float()'s error, naming no file, row or
    # column, and half a position was accepted
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0)
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0, mode="baseline")
    _set_cells(tmp_path / file, {(k, c): "0.5" for k in (1, 2, 3)
                                 for c in ("x_true", "y_true", "x_est", "y_est")})
    _set_cells(tmp_path / file, {(2, column): ""})
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / file}: row 2, column {column}: '' {problem}\n"


@pytest.mark.parametrize("layout, trajectory_seed, noise_seed", [(3, 7, 1), (5, 0, 0), (11, 3, 9)])
def test_read_traces_inverts_write_trace(tmp_path, layout, trajectory_seed, noise_seed):
    # %.17g round-trips every float, so report reads back the very
    # ScenarioTraces that simulate wrote
    scene = default_scene(layout)
    partition = build_partition(scene)
    model = SensingModel(scene)
    ctl = scene.controller
    trajectory = generate_trajectory(partition, seed=trajectory_seed, dt=ctl.step_period_s,
                                     speed=ctl.user_speed_m_per_s, dwell_time=ctl.dwell_time_s)
    written = (run_scenario(scene, partition, build_fingerprint_table(scene, model), trajectory,
                            noise_seed=noise_seed, model=model),
               baseline_scenario(scene, trajectory))
    steps = written[0].steps
    assert {s.mode for s in steps} == {"no_user", "uniformity", "enhanced"}
    assert {s.detected for s in steps} == {True, False}
    for name, trace in zip(_TRACES, written):
        cli._write_trace(cli._OutputDir(tmp_path), name, trace, scene.num_leds)
    assert tuple(_read_traces(*(tmp_path / name for name in _TRACES))) == written


@pytest.mark.parametrize("file", ["trace.csv", "base.csv"])
def test_report_field_past_the_csv_limit_exit_one(tmp_path, capsys, file):
    # a 200 000-character cell ended in csv's "field larger than field limit"
    # traceback; the error names the file and the line that holds it
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0)
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0, mode="baseline")
    _set_cells(tmp_path / file, {(2, "mode"): "x" * 200_000})
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {tmp_path / file}: line 3: field larger than field limit "
                            f"({csv.field_size_limit()})\n")


@pytest.mark.parametrize("file, mode", [("trace.csv", "uniformty"), ("trace.csv", ""),
                                        ("baseline_trace.csv", "Baseline"),
                                        ("baseline_trace.csv", "no_user")])
def test_report_refuses_an_unknown_mode(tmp_path, capsys, file, mode):
    # a misspelt mode was reported with exit 0, as if no step were in that
    # mode; a baseline's steps read baseline, a run's a mode or baseline
    sim = tmp_path / "simulate"
    assert run("simulate", "--out", str(sim)) == 0
    with (sim / file).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    replaced = [n for n, row in enumerate(rows, 1) if row["mode"] in ("uniformity", "baseline")]
    _set_cells(sim / file, {(n, "mode"): mode for n in replaced})
    capsys.readouterr()
    assert run("report", "--trace", str(sim / "trace.csv"),
               "--baseline", str(sim / "baseline_trace.csv")) == 1
    modes = ["baseline"] + (["enhanced", "no_user", "uniformity"] if file == "trace.csv" else [])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {sim / file}: row {replaced[0]}, column mode: "
                            f"{mode!r} is not one of {modes}\n")


def test_report_refuses_swapped_traces(tmp_path, capsys):
    # the run's trace given as the baseline was reported as -99.69% savings
    sim = tmp_path / "simulate"
    assert run("simulate", "--out", str(sim)) == 0
    capsys.readouterr()
    assert run("report", "--trace", str(sim / "baseline_trace.csv"),
               "--baseline", str(sim / "trace.csv")) == 1
    assert capsys.readouterr().err == (f"error: {sim / 'trace.csv'}: row 1, column mode: "
                                       f"'no_user' is not one of ['baseline']\n")


def test_report_names_the_first_non_finite_row(tmp_path, capsys):
    # nan and inf powers on two rows once printed violations=1 and exited 0
    sim = tmp_path / "simulate"
    assert run("simulate", "--out", str(sim)) == 0
    _set_cells(sim / "trace.csv", {(3, "P_1"): "nan", (5, "P_1"): "inf"})
    capsys.readouterr()
    assert run("report", "--trace", str(sim / "trace.csv"),
               "--baseline", str(sim / "baseline_trace.csv")) == 1
    assert capsys.readouterr().err == (f"error: {sim / 'trace.csv'}: row 3, column P_1: "
                                       f"'nan' is not finite\n")


# ---------------------------------------------------------------------------
# report's reader on mutated traces (hypothesis, derandomized)
# ---------------------------------------------------------------------------

_TRACES = ("trace.csv", "baseline_trace.csv")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A default simulate run's directory and the text of its two traces."""
    out = tmp_path_factory.mktemp("simulated")
    assert run("simulate", "--out", str(out)) == 0
    return out, {name: (out / name).read_text() for name in _TRACES}


_TRACE_TEXTS = ("x" * 200_000, "", "nan", "-inf", "1e999", "1e-400", "-0", "ten", " 1 ",
                "1" * 5000, '"', "a,b", "a\nb", "\x00", "no_user", "uniformity", "enhanced",
                "uniformty", "baseline", "P_1", "P_9", "mode", "energy_J", "error_m")
_ROW, _COLUMN, _OFFSET = st.integers(0, 80), st.integers(0, 20), st.integers(0, 10_000)
_TRACE_EDITS = st.one_of(
    st.tuples(st.just("cell"), _ROW, _COLUMN, st.sampled_from(_TRACE_TEXTS)),
    st.tuples(st.sampled_from(("delete", "duplicate", "blank", "extend")), _ROW),
    st.tuples(st.just("cut"), _ROW, _COLUMN),
    st.tuples(st.just("char"), _OFFSET, st.sampled_from(('"', ",", "\n", "\r", "\x00"))),
)


def _edited(text, edits):
    """A trace CSV's text with each edit applied: a cell rewritten (the
    header's names too), a row deleted, duplicated, cut short or extended, a
    blank row put in, and then a character put into the text itself.  Row,
    column and offset indices wrap."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    for kind, i, *rest in edits:
        if kind == "char" or not rows:
            continue
        i %= len(rows)
        if kind == "cell" and rows[i]:
            rows[i][rest[0] % len(rows[i])] = rest[1]
        elif kind == "delete":
            del rows[i]
        elif kind == "duplicate":
            rows.insert(i, list(rows[i]))
        elif kind == "blank":
            rows.insert(i, [])
        elif kind == "extend":
            rows[i].append("1.0")
        elif kind == "cut":
            rows[i] = rows[i][:rest[0]]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    for kind, i, *rest in edits:
        if kind == "char":
            i %= len(text) + 1
            text = text[:i] + rest[0] + text[i:]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@example(file="trace.csv", edits=[("cell", 2, 6, "x" * 200_000)])  # csv.Error
@example(file="trace.csv", edits=[("cell", 2, 14, "")])  # energy_J
@example(file="baseline_trace.csv", edits=[("cell", 2, 6, "")])  # P_1
@example(file="trace.csv", edits=[("cell", 2, 6, "a\nb")])
@example(file="trace.csv", edits=[("cell", 2, 14, "inf\n")])
@given(file=st.sampled_from(_TRACES), edits=st.lists(_TRACE_EDITS, min_size=1, max_size=4))
def test_report_reads_or_refuses_mutated_traces(simulated, scene, partition, file, edits):
    # what report runs on a pair of traces either gives its metrics or
    # refuses them with a one-line ValueError, which exits 1.  The reader
    # refuses a file with a SceneError that names it; what it accepts it
    # reads back the same from the trace files that _write_trace writes
    out, texts = simulated
    paths = {name: out / name for name in _TRACES}
    paths[file] = out / f"mutated-{file}"
    paths[file].write_bytes(_edited(texts[file], edits).encode())
    try:
        traces = _read_traces(*paths.values())
    except ValueError as exc:
        assert isinstance(exc, SceneError) and str(exc).startswith(f"{paths[file]}: "), exc
        assert str(exc).splitlines() == [str(exc)]
        return
    again = out / "again"
    for name, trace in zip(_TRACES, traces):
        cli._write_trace(cli._OutputDir(again), name, trace, len(trace.steps[0].powers))
    assert _read_traces(*(again / name for name in _TRACES)) == traces
    try:
        _run_metrics(scene, partition, *traces)
    except ValueError as exc:
        assert str(exc).splitlines() == [str(exc)]


def test_simulate_runtime_imports_neither_scipy_nor_yaml(tmp_path):
    # numpy 1.x imports numpy.ma with numpy; on 2.x only calls like
    # np.unique load it, so simulate must load none beyond numpy's own
    code = (
        "import sys, numpy\n"
        "ma = {m for m in sys.modules if m.startswith('numpy.ma')}\n"
        "from isci.cli import main\n"
        f"assert main(['simulate', '--config', 'default', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted({m for m in sys.modules if m.startswith('numpy.ma')} - ma))\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(isci.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "trace.csv").is_file()


# sha256 of every file the default-scene commands write, manifests included,
# and of each stock layout's config: a change that means to keep the outputs
# must move none of these bytes.
_PINNED_RUNS = {
    "regions": ["regions"],
    "field-snr": ["field", "--quantity", "snr"],
    "field-snr-full": ["field", "--quantity", "snr-full"],
    "field-illuminance": ["field", "--quantity", "illuminance"],
    "fingerprint": ["fingerprint"],
    "optimize-uniformity": ["optimize", "--mode", "uniformity"],
    "optimize-enhanced": ["optimize", "--mode", "enhanced"],
    "simulate": ["simulate"],
}
_PINNED_FILES = {
    "field-illuminance": {
        "field.csv": "599e5a6113d86b9b38d91ae0e62af1267bfa481b4a3f69f6dae19d5f02457a2b",
        "field.pgm": "405f25af0119509ae9a7e0d8c2a7e00070bdec362657c94de396366a7f23be8b",
        "field_range.txt": "73fe0eb585ec11963b37826f564945d3bd04d4d8c3cad3dc00d169203bc9aefa",
        "manifest.json": "0f25ecb111146bf246fba39e5bd49820c1939b171b014f32ab5e93c09dbacf24",
    },
    "field-snr": {
        "field.csv": "fe744d518bf7c56c908fb3a3d6ba35697bf6ba8d6bb49f48c7de6088c0e9bf97",
        "field.pgm": "405f25af0119509ae9a7e0d8c2a7e00070bdec362657c94de396366a7f23be8b",
        "field_range.txt": "65cb09784847ecf7303c46edf984538d50964e8919edcfd04fcf23d5ff449f34",
        "manifest.json": "c048ae1626dfa10a07955d08f5cdd6d9c14d181ca2437368b2f854703d4b903f",
    },
    "field-snr-full": {
        "field.csv": "2613b2af381020a9beaf93144d3e6aacd0bad28383df1aaaa80ccb77e3ef40ab",
        "field.pgm": "aa5a99fda6298fc96eac6df3a57d65f9b0767e59e0dff8a6623344ef2eb1b36d",
        "field_range.txt": "1f3e21cee4b45faba0affbe9e724f69eea285e3816a556b4fc285e8ff8337beb",
        "manifest.json": "ba0c6ca60507d3a3d51b8924cdf058c9f18b312d11159ae9ac174dcdafbeb9f0",
    },
    "fingerprint": {
        "fingerprint.lfpt": "117c28f92a907cc4e5628707ca4760456e1e6a2309d4784e79d0ebaf5227a01e",
        "manifest.json": "2282760016f4e3458124054893db736a1f0ac548684e301c3957bbd12605b754",
    },
    "optimize-enhanced": {
        "manifest.json": "b59e02ec1566e1f04942f93eb4509f89b4cb2e4dd65324d7d4adf14cc0fbe476",
        "powers.csv": "55f894b0316d29fe58dd89117dc4ea1aadb853b003bc9829c493bdbc8022e158",
        "report.txt": "39bc7a7f6898787f8bdca6a51414b52fa3c5dea0d9a42900c028158cce2f52ed",
    },
    "optimize-uniformity": {
        "manifest.json": "45b5677d771ce5f3b71622e93f234ae112680dbd07f161914b7925dbf3ff6260",
        "powers.csv": "8b6454cb4cee691e2a32f2e7cc5d42cb407228fd0b64cbba55e23add25d78439",
        "report.txt": "615cd83c47f6167916ac571dfa76ab6c68d1549f2ec11421168870f3e5fd55a4",
    },
    "regions": {
        "manifest.json": "652150fc4267dbc4a09a5f772b4ca6e317bccc7334c956b619ad530cec333287",
        "regions.csv": "6bfedf6d5bb1705b6cba2a17413d41796f849025cf93044f91ee26c9eb62c2bd",
    },
    "report": {
        "manifest.json": "4bb57bfb65565579aabe9a4094cf7ec4e735895b192f903d5034c61345f973a8",
        "report.txt": "00e7da98e81abdd1bf3c3c66dbd904162edc3d3d3fba3299ec366c04b77ef08a",
    },
    "simulate": {
        "baseline_trace.csv": "c76b65f492de14f95a5da43bb2d651dec1d571a2dca6792421206f94769cdddc",
        "benchmark.csv": "2753b298eb824fe96e94d1d72b6d5a0a9455b4c86bf4e46b8c9006f70ef7d895",
        "manifest.json": "ab9401e05f8b674c09c7248c7f6025e5f8efe4294a34564949fe165795e63b1e",
        "summary.txt": "04e53e9493e7d47b8e8c054f026bab8db9103e2e660de10a18002b0dcaa85154",
        "trace.csv": "724cf2b9c0e30442c95bed6fa34340ab1a2de7bc289780968b4a152d827d93f5",
    },
}
_PINNED_SCENES = (  # json.dumps(scene_to_dict(default_scene(seed)), sort_keys=True), seeds 0-9
    "9c706f3f08921ca78dbb7e6bba06940fd5caba0077ed6d3132a5de58a335802e",
    "d63486cad6e756b25b8bd0e49f52100954eb4166f744afec092a1e8f53ebb3e9",
    "80b839dacc7fab855ba38a6a4bc9cb8c4452ef0508e56bb4b360eaa79e9b5192",
    "c0f10f40b0faca002ab949bd998a93e707344049da26f577acb001b1db136fb6",
    "0f34d7379ca6d71565edc5d7d3ab66aaa45ffa1280ddde5071bcc261352e1ebb",
    "cf8c9f3fe37bd4b3c724264ec9944545c5f70cc2d56ab54f919b62874cbc1798",
    "6519d8346ab583fc8ed3d0d1d378855f0aced1328182942ad2df0d22a02f100b",
    "b57478eade8d7cfbdc2815fb42e3c24ca6bb1bab0a7ef828f9a83ecc8b14d25d",
    "3f4bc45f8ad9dafa3761ec559ad31da58196ff515ed88c143e48569cd139c899",
    "5be8fb966a294602299780e402fcef446058ceee77852117280bddd36a96f3e8",
)


def test_default_scene_outputs_are_pinned(tmp_path, capsys):
    for name, args in _PINNED_RUNS.items():
        assert run(*args, "--out", str(tmp_path / name)) == 0, name
    sim = tmp_path / "simulate"
    assert run("report", "--trace", str(sim / "trace.csv"), "--baseline",
               str(sim / "baseline_trace.csv"), "--out", str(tmp_path / "report")) == 0
    written = {d.name: {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()}
               for d in tmp_path.iterdir()}
    assert written == _PINNED_FILES
    for seed, digest in enumerate(_PINNED_SCENES):
        config = json.dumps(scene_to_dict(default_scene(seed)), sort_keys=True)
        assert hashlib.sha256(config.encode()).hexdigest() == digest, seed
