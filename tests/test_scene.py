import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isci.scene import (CommPd, ControllerConfig, Led, NoiseParams, Room, SceneError, SensingPd,
                        SurfaceGrid, UserModel, default_scene, dump_scene, load_scene,
                        scene_from_dict, scene_to_dict)


def test_default_scene_shape(scene):
    assert scene.num_leds == 8
    assert len(scene.sensing_pds) == 8
    assert (scene.room.size_x, scene.room.size_y, scene.room.size_z) == (5.0, 5.0, 3.0)
    assert scene.room.plane_drop == 2.15
    assert scene.grid.count == 2500


def test_default_power_bounds(scene):
    lo, hi = scene.power_bounds()
    assert np.all(lo == 10.0) and np.all(hi == 80.0)


def test_default_scene_deterministic():
    assert default_scene(seed=123) == default_scene(seed=123)
    assert default_scene(seed=123) != default_scene(seed=124)


def test_lambertian_order_via_config(scene):
    from isci.photometry import lambertian_order
    assert abs(lambertian_order(scene.leds[0].half_power_angle_deg) - 1.0) < 1e-12


def test_round_trip(scene):
    text = dump_scene(scene)
    assert load_scene(text) == scene


def test_grid_tiles_floor(scene):
    total = scene.grid.count * scene.grid.cell_area
    area = scene.room.size_x * scene.room.size_y
    assert abs(total - area) <= 1e-9 * area


@pytest.mark.parametrize("pitch, nx, ny", [(0.1, 50, 50), (0.05, 200, 120), (0.3, 7, 13),
                                            (0.8, 1, 8), (0.8, 8, 1), (1 / 3, 30, 3)])
def test_grid_centers_are_its_row_and_column_coordinates(pitch, nx, ny):
    # the sensing kernel works on the rows and columns, the occlusion test
    # and the table's candidates on the centers: both must be the same floats
    grid = SurfaceGrid(pitch, nx, ny, ())
    x, y = grid.coordinates()
    assert x.shape == (nx, 1) and y.shape == (1, ny)
    expected = [((ix + 0.5) * pitch, (iy + 0.5) * pitch) for ix in range(nx) for iy in range(ny)]
    assert np.array_equal(x[:, 0], [row for row, _ in expected[::ny]])
    assert np.array_equal(y[0], [col for _, col in expected[:ny]])
    assert np.array_equal(grid.centers(), expected)
    assert np.array_equal(grid.centers(),
                          [(x[ix, 0], y[0, iy]) for ix in range(nx) for iy in range(ny)])


def test_emitters_on_ceiling_inside_room(scene):
    for pos in [led.position for led in scene.leds]:
        assert pos[2] == scene.room.size_z
        assert scene.room.contains_xy(pos[0], pos[1])
    for pos in [pd.position for pd in scene.sensing_pds]:
        assert pos[2] == scene.room.size_z
        assert scene.room.contains_xy(pos[0], pos[1])


def test_infeasible_power_bounds_rejected(scene):
    text = dump_scene(scene).replace("power_min_w: 10.0", "power_min_w: 99.0")
    with pytest.raises(SceneError, match="power"):
        load_scene(text)


def test_unknown_key_rejected(scene):
    text = dump_scene(scene).replace("plane_drop", "plane_dorp")
    with pytest.raises(SceneError, match="plane_dorp"):
        load_scene(text)


def test_parse_error_carries_line():
    with pytest.raises(SceneError, match="line"):
        load_scene("room:\n  size_x: [oops\n")


@pytest.mark.parametrize("text", ["[" * 5000, "{a: " * 3000], ids=["sequences", "mappings"])
def test_deeply_nested_config_is_a_parse_error(text):
    # PyYAML composes each nested collection by recursion: these ended in a
    # RecursionError from inside it
    with pytest.raises(SceneError, match="^parse error: collections nested too deeply to read$"):
        load_scene(text)


def test_led_off_ceiling_rejected(scene):
    cfg = scene_to_dict(scene)
    cfg["leds"][0]["position"][2] = 2.5
    with pytest.raises(SceneError, match=r"leds\[0\].position"):
        scene_from_dict(cfg)


def test_bad_grid_pitch_rejected(scene):
    cfg = scene_to_dict(scene)
    cfg["grid"]["pitch"] = 0.3  # 5 m is not a multiple of 0.3
    with pytest.raises(SceneError, match="pitch"):
        scene_from_dict(cfg)


def test_zero_snr_threshold_loads(scene):
    cfg = scene_to_dict(scene)
    cfg["controller"]["snr_threshold"] = 0
    assert scene_from_dict(cfg).controller.snr_threshold == 0
    cfg["controller"]["snr_threshold"] = -1.0
    with pytest.raises(SceneError, match="^controller.snr_threshold: must be nonnegative$"):
        scene_from_dict(cfg)


def test_exponent_floats_load_as_yaml_1_2_floats(scene):
    # YAML 1.1 reads 1e-2 as a string; the loader takes it as YAML 1.2 does
    text = dump_scene(scene)
    assert "noise_rel_sigma: 0.01\n" in text
    assert (load_scene(text.replace("noise_rel_sigma: 0.01", "noise_rel_sigma: 1e-2"))
            == load_scene(text))
    assert load_scene(text.replace("step_period_s: 0.5", "step_period_s: 5E-1")) == scene


def test_nonuniform_reflectance_round_trip(scene):
    cfg = scene_to_dict(scene)
    rho = [0.8] * scene.grid.count
    rho[7] = 0.25
    cfg["grid"]["reflectance"] = rho
    s2 = scene_from_dict(cfg)
    assert s2.grid.reflectance[7] == 0.25
    assert load_scene(dump_scene(s2)) == s2


@pytest.mark.parametrize("path, value, field", [
    (("leds",), 5, "leds"),
    (("leds",), {"position": [1.0, 1.0, 3.0]}, "leds"),
    (("room", "size_x"), "abc", "room.size_x"),
    (("room", "size_x"), float("inf"), "room.size_x"),
    (("room", "plane_drop"), True, "room.plane_drop"),
    (("leds", 0, "power_w"), "x", r"leds\[0\].power_w"),
    (("leds", 0, "position"), "abc", r"leds\[0\]"),
    (("controller", "snr_threshold"), [1], "controller.snr_threshold"),
    (("controller", "step_period_s"), None, "controller.step_period_s"),
    (("grid", "pitch"), float("nan"), "grid.pitch"),
    (("grid", "reflectance"), ["a"], r"grid.reflectance\[0\]"),
    (("grid", "reflectance"), [0.8] * 1234 + [1.5] + [0.8] * 765 + [-1.0] + [0.8] * 499,
     r"grid.reflectance\[1234\]"),
    pytest.param(("noise", "temperature_k"), 10**5000, "noise.temperature_k",
                 id="int-past-str-digits"),  # its repr raised Python's ValueError
])
def test_malformed_values_name_the_field(scene, path, value, field):
    cfg = scene_to_dict(scene)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SceneError, match=rf"^{field}: "):
        scene_from_dict(cfg)


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@pytest.mark.parametrize("path, value, message", [
    (("room", "size_x"), 0.0, "room.size_x: must be positive"),
    (("room", "plane_drop"), 3.0, "room.plane_drop: must lie strictly between 0 and size_z"),
    (("leds", 0, "half_power_angle_deg"), 90.0,
     "leds[0].half_power_angle_deg: must be in (0, 90) degrees"),
    (("comm_pd", "fov_deg"), 0.0, "comm_pd.fov_deg: must be in (0, 90] degrees"),
    (("sensing_pds", 0, "refractive_index"), 0.5, "sensing_pds[0].refractive_index: must be >= 1"),
    (("user", "reflectance"), 1.5, "user.reflectance: must be in [0, 1]"),
    (("controller", "dwell_time_s"), -1.0, "controller.dwell_time_s: must be nonnegative"),
    (("controller", "e_uniform_min_lx"), 2000.0,
     "controller.e_uniform_min_lx: lower bound 2000.0 exceeds upper bound 1500.0"),
])
def test_out_of_range_messages(scene, path, value, message):
    # each single-field message is derived from the field's declared interval
    cfg = scene_to_dict(scene)
    _at(cfg, path[:-1])[path[-1]] = value
    with pytest.raises(SceneError, match=f"^{re.escape(message)}$"):
        scene_from_dict(cfg)


def test_constructed_scene_refuses_nonfinite_fields(scene):
    # a Scene built in code, not loaded from a config, takes the same field checks
    led = replace(scene.leds[0], efficacy_lm_per_w=math.inf)
    pd = replace(scene.sensing_pds[0], area_m2=math.nan)
    for bad, message in [
        (replace(scene, noise=replace(scene.noise, bandwidth_hz=math.inf)),
         "noise.bandwidth_hz: must be finite"),
        (replace(scene, leds=(led, *scene.leds[1:])), "leds[0].efficacy_lm_per_w: must be finite"),
        (replace(scene, sensing_pds=(pd, *scene.sensing_pds[1:])),
         "sensing_pds[0].area_m2: must be positive"),
    ]:
        with pytest.raises(SceneError, match=f"^{re.escape(message)}$"):
            bad.validate()


# ---------------------------------------------------------------------------
# the loader against the field schema (hypothesis, derandomized)
# ---------------------------------------------------------------------------

_SECTIONS = ((("room",), Room), (("leds", 0), Led), (("comm_pd",), CommPd),
             (("sensing_pds", 0), SensingPd), (("user",), UserModel), (("noise",), NoiseParams),
             (("grid",), SurfaceGrid), (("controller",), ControllerConfig))

# config path -> interval, for each field that declares one
_INTERVALS = {(*prefix, f.name): f.metadata["interval"]
              for prefix, cls in _SECTIONS for f in fields(cls) if "interval" in f.metadata}


def _edges(interval):
    """Each finite end, just inside and just outside it; for an infinite end,
    the largest float inside it."""
    for end, inward in ((interval.lo, math.inf), (interval.hi, -math.inf)):
        if math.isinf(end):
            yield math.nextafter(end, inward)
        else:
            yield from (end, math.nextafter(end, inward), math.nextafter(end, -inward))


_CASES = [(path, value) for path, interval in _INTERVALS.items()
          for value in (*_edges(interval), math.nan, math.inf, -math.inf, True, "x", 10**400)]


def test_schema_covers_every_numeric_config_field(scene):
    # all but the positions and the grid's reflectance, which is checked cell by cell
    cfg = scene_to_dict(scene)
    numeric = {(*prefix, key) for prefix, _ in _SECTIONS for key in _at(cfg, prefix)
               if key != "position" and prefix + (key,) != ("grid", "reflectance")}
    assert numeric == set(_INTERVALS)


def test_readme_config_gives_each_interval():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Scene configuration", 1)[1].split("```yaml\n", 1)[1].split("```")[0]
    load_scene(block)  # the documented config is a valid one
    comments, section = {}, None
    for line in block.splitlines():
        key, _, rest = line.strip().removeprefix("- ").partition(":")
        section = section if line.startswith(" ") else key
        comments[section, key] = rest.partition("#")[2].strip()
    for path, interval in _INTERVALS.items():
        assert comments[path[0], path[-1]].startswith(interval.text), path


@settings(derandomize=True, database=None, deadline=None, max_examples=len(_CASES))
@example(case=(("room", "size_x"), 1e308))  # its cell count overflowed int()
@example(case=(("grid", "pitch"), 1e-300))  # its reflectance tuple overflowed an index
@example(case=(("noise", "temperature_k"), 10**400))  # overflowed math.isfinite
@given(case=st.sampled_from(_CASES))
def test_loader_names_the_field_of_each_bound(scene, case):
    path, value = case
    cfg = scene_to_dict(scene)
    _at(cfg, path[:-1])[path[-1]] = value
    where = re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path)))
    inside = (not isinstance(value, (bool, str)) and abs(value) <= sys.float_info.max
              and value in _INTERVALS[path])
    try:
        built = scene_from_dict(cfg)
    except SceneError as exc:
        # outside its interval or not a finite number: refused by name; inside
        # it, a cross-field check (bound order, ceiling, tiling) may name a partner
        named = "|".join({key[0] for key in _INTERVALS}) if inside else re.escape(where)
        assert re.match(rf"({named})[.:\[]", str(exc)), str(exc)
    else:
        assert inside
        assert _at(scene_to_dict(built), path) == value


# ---------------------------------------------------------------------------
# load_scene on mutated configs (hypothesis, derandomized)
# ---------------------------------------------------------------------------

_CONFIG_LINES = dump_scene(default_scene()).splitlines()

# Values at the edges of YAML's and Python's number readers.  None of them,
# as a room side or a pitch, cuts the floor into a count of cells that is
# refused only once it is allocated (no budget refuses those yet), so each
# example stays small.
_EDGE_LITERALS = ("1" + ":59" * 200 + ".5", "1" * 5000, "9" * 400, "1e999", "1.8e308",
                  "1.7976931348623157e+308", "-1e308", "5e-324", "2.2250738585072014e-308", "0",
                  "-0.0", ".nan", ".inf", "-.inf", "nan", "0x1f", "0o17", "1_0", "0:02.15", "true",
                  "~", "''", "2001-02-30", "&a [*a]", "!!binary aGk=", "[]", "{}", "? [1]")


@st.composite
def _mutated_configs(draw):
    """The default config's YAML with one to four line edits: a line spliced
    in from elsewhere, deleted or duplicated, a value nested in flow
    collections (past the parser's recursion limit too) or written as an
    edge literal."""
    lines = list(_CONFIG_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        key, colon, value = lines[i].partition(": ")
        op = draw(st.sampled_from(("splice", "delete", "duplicate", "nest", "literal")))
        if op == "splice":
            lines.insert(i, draw(st.sampled_from(_CONFIG_LINES)))
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "nest" and colon:
            depth = draw(st.sampled_from((600, 3, 1)))
            opener, closer = draw(st.sampled_from((("[", "]"), ("{a: ", "}"))))
            lines[i] = f"{key}: {opener * depth}{value}{closer * depth}"
        elif op == "literal":
            literal = draw(st.sampled_from(_EDGE_LITERALS))
            if colon:
                lines[i] = f"{key}: {literal}"
            elif lines[i].lstrip().startswith("- "):  # a list item: "  - 3.0"
                lines[i] = lines[i][:lines[i].index("- ") + 2] + literal
            else:  # a section's line, such as "room:"
                lines[i] = f"{lines[i]} {literal}"
    return "\n".join(lines) + "\n"


def _with_value(key, value):
    """The default config's YAML with the first ``key`` line's value replaced."""
    i = next(i for i, line in enumerate(_CONFIG_LINES) if line.strip().startswith(f"{key}: "))
    return "\n".join([*_CONFIG_LINES[:i], f"{_CONFIG_LINES[i].split(':')[0]}: {value}",
                      *_CONFIG_LINES[i + 1:]]) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@example(text=_with_value("power_w", "[" * 600 + "45.2" + "]" * 600))  # a RecursionError
@example(text=_with_value("size_x", _EDGE_LITERALS[0]))  # an OverflowError from PyYAML
@given(text=_mutated_configs())
def test_load_scene_builds_or_refuses_mutated_configs(text):
    # a config either builds a Scene or is refused with a ValueError
    # (SceneError is one), which the commands turn into exit 1
    try:
        load_scene(text)
    except ValueError:
        pass
