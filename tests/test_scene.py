import numpy as np
import pytest

from isci.scene import (SceneError, default_scene, dump_scene, load_scene,
                        scene_from_dict, scene_to_dict)


def test_default_scene_shape(scene):
    assert scene.num_leds == 8
    assert scene.num_sensing_pds == 8
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
    assert abs(total - scene.room.floor_area) <= 1e-9 * scene.room.floor_area


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


def test_with_powers(scene):
    p = np.linspace(12, 70, scene.num_leds)
    s2 = scene.with_powers(p)
    assert np.allclose(s2.power_vector(), p)
    assert s2.room == scene.room
    with pytest.raises(SceneError):
        scene.with_powers([10.0])


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
])
def test_malformed_values_name_the_field(scene, path, value, field):
    cfg = scene_to_dict(scene)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SceneError, match=rf"^{field}: "):
        scene_from_dict(cfg)
