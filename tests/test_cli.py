import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import isci
from isci.cli import main
from isci.scene import default_scene, dump_scene, scene_to_dict


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


def test_optimize_infeasible_exit_code(tmp_path):
    out = tmp_path / "inf"
    assert run("optimize", "--mode", "enhanced", "--snr-threshold", "1e15",
               "--out", str(out)) == 2
    assert "status=Infeasible" in (out / "report.txt").read_text()


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
], ids=["noise-negative", "noise-nan", "pitch-nan"])
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


def test_manifest_digests(tmp_path):
    out = tmp_path / "m"
    run("simulate", "--out", str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == {"scene": 2, "trajectory": 7, "noise": 1}
    assert manifest["config"]["room"]["size_x"] == 5.0
    files = manifest["files"]
    assert set(files) == {"trace.csv", "baseline_trace.csv", "benchmark.csv",
                          "summary.txt"}
    for name, digest in files.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


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


def test_invalid_config_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("room:\n  size_x: -4\nleds: []\n")
    assert run("regions", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    # a value of the wrong type is a validation error naming the field, not a traceback
    cfg.write_text(dump_scene(default_scene()).replace("size_x: 5.0", "size_x: abc", 1))
    capsys.readouterr()
    assert run("regions", "--config", str(cfg), "--out", str(tmp_path / "y")) == 1
    assert capsys.readouterr().err == "error: room.size_x: must be a finite number, got 'abc'\n"


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
    _write_trace(tmp_path / "base.csv", [0.0] * len(p_min), 0.0)
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    assert "error: baseline trace has no energy" in capsys.readouterr().err


def test_report_uniform_baseline_snr_exit_one(tmp_path, capsys):
    # dark LEDs give an SNR of 0 everywhere: the variance reduction would divide by 0
    p_min, _ = default_scene().power_bounds()
    _write_trace(tmp_path / "trace.csv", list(p_min), 1.0, mode="uniformity")
    _write_trace(tmp_path / "base.csv", [0.0] * len(p_min), 2.0)
    assert run("report", "--trace", str(tmp_path / "trace.csv"),
               "--baseline", str(tmp_path / "base.csv")) == 1
    assert capsys.readouterr().err == ("error: the baseline's SNR is uniform, "
                                       "so it has no variance to reduce\n")


def test_report_power_column_mismatch_exit_one(tmp_path, capsys):
    p_min, _ = default_scene().power_bounds()
    short = list(p_min[:-1])
    _write_trace(tmp_path / "trace.csv", short, 1.0)
    _write_trace(tmp_path / "base.csv", short, 2.0)
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
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0)
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
    _write_trace(tmp_path / "base.csv", list(p_min), 2.0)
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
    env.pop("ISCI_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "trace.csv").is_file()
