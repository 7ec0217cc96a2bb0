"""Physical scene configuration: room, LED array, photodiodes, floor grid, user model.

Everything the simulator needs to know about the physical setup lives here.
A Scene is immutable after construction.  Loading a config validates every
invariant and rejects unknown keys, so typos in a config file fail loudly
instead of silently falling back to defaults.

Config files are YAML with the top-level sections ``room``, ``grid``,
``leds``, ``comm_pd``, ``sensing_pds``, ``user``, ``noise`` and
``controller``.  Any omitted field takes the documented default;
``dump_scene`` writes a file that round-trips to a value-equal Scene.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "SceneError",
    "Room",
    "Led",
    "CommPd",
    "SensingPd",
    "SurfaceGrid",
    "UserModel",
    "NoiseParams",
    "ControllerConfig",
    "Scene",
    "load_scene",
    "dump_scene",
    "default_scene",
    "scene_from_dict",
    "scene_to_dict",
]

# Seed for the stock random LED layout; chosen so the resulting layout keeps
# the activity-area nesting and feasibility properties exercised by the tests.
DEFAULT_LAYOUT_SEED = 2

_WALL_MARGIN = 0.6          # LEDs are kept this far from the walls (m)
_SENSING_PD_OFFSET = 0.1    # sensing PD sits this far from its LED, +x (m)


class SceneError(ValueError):
    """Raised for config parse failures and scene invariant violations."""


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SceneError(f"{where}: {msg}")


@dataclass(frozen=True)
class Room:
    """Rectangular room; the receiving plane sits ``plane_drop`` below the ceiling."""

    size_x: float = 5.0
    size_y: float = 5.0
    size_z: float = 3.0
    plane_drop: float = 2.15

    @property
    def plane_z(self) -> float:
        return self.size_z - self.plane_drop

    @property
    def floor_area(self) -> float:
        return self.size_x * self.size_y

    def contains_xy(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.size_x and 0.0 <= y <= self.size_y

    def validate(self) -> None:
        _require(self.size_x > 0 and self.size_y > 0 and self.size_z > 0,
                 "room", "all dimensions must be positive")
        _require(0.0 < self.plane_drop < self.size_z,
                 "room.plane_drop", "must lie strictly between 0 and size_z")


def _require_on_ceiling(position: tuple[float, float, float], room: Room, where: str) -> None:
    """A ceiling LED or PD must sit at the ceiling height, inside the room."""
    x, y, z = position
    _require(abs(z - room.size_z) <= 1e-9, f"{where}.position",
             f"z={z} must equal the ceiling height {room.size_z}")
    _require(room.contains_xy(x, y), f"{where}.position", "must lie inside the room")


@dataclass(frozen=True)
class Led:
    """Ceiling LED with a generalized Lambertian beam."""

    position: tuple[float, float, float]
    half_power_angle_deg: float = 60.0
    efficacy_lm_per_w: float = 140.0
    power_w: float = 45.2
    power_min_w: float = 10.0
    power_max_w: float = 80.0

    def validate(self, room: Room, where: str) -> None:
        _require(0.0 < self.half_power_angle_deg < 90.0, f"{where}.half_power_angle_deg",
                 "must be in (0, 90) degrees")
        _require(self.efficacy_lm_per_w > 0, f"{where}.efficacy_lm_per_w", "must be positive")
        _require(self.power_min_w <= self.power_max_w, f"{where}.power_min_w",
                 f"lower bound {self.power_min_w} exceeds upper bound {self.power_max_w}")
        _require(self.power_min_w >= 0, f"{where}.power_min_w", "must be nonnegative")
        _require(self.power_min_w <= self.power_w <= self.power_max_w, f"{where}.power_w",
                 f"{self.power_w} outside bounds [{self.power_min_w}, {self.power_max_w}]")
        _require_on_ceiling(self.position, room, where)


@dataclass(frozen=True)
class CommPd:
    """Communication photodiode model (receiving plane, facing up)."""

    area_m2: float = 1.0e-4
    refractive_index: float = 1.5
    fov_deg: float = 90.0
    filter_gain: float = 1.0
    responsivity_a_per_w: float = 0.54

    def validate(self) -> None:
        _require(self.area_m2 > 0, "comm_pd.area_m2", "must be positive")
        _require(self.refractive_index >= 1.0, "comm_pd.refractive_index", "must be >= 1")
        _require(0.0 < self.fov_deg <= 90.0, "comm_pd.fov_deg", "must be in (0, 90] degrees")
        _require(self.filter_gain > 0, "comm_pd.filter_gain", "must be positive")
        _require(self.responsivity_a_per_w > 0, "comm_pd.responsivity_a_per_w",
                 "must be positive")


@dataclass(frozen=True)
class SensingPd:
    """Ceiling sensing photodiode (facing down)."""

    position: tuple[float, float, float]
    area_m2: float = 1.0e-4
    fov_deg: float = 90.0
    refractive_index: float = 1.5
    filter_gain: float = 1.0

    def validate(self, room: Room, where: str) -> None:
        _require(self.area_m2 > 0, f"{where}.area_m2", "must be positive")
        _require(0.0 < self.fov_deg <= 90.0, f"{where}.fov_deg", "must be in (0, 90] degrees")
        _require(self.refractive_index >= 1.0, f"{where}.refractive_index", "must be >= 1")
        _require(self.filter_gain > 0, f"{where}.filter_gain", "must be positive")
        _require_on_ceiling(self.position, room, where)


@dataclass(frozen=True)
class SurfaceGrid:
    """Floor discretized into square reflective cells.

    Cells are cell-centered: cell (ix, iy) has center
    ((ix + 0.5) * pitch, (iy + 0.5) * pitch) and area pitch**2.  Cell index
    k = ix * ny + iy, i.e. ascending x first, then y.
    """

    pitch: float
    nx: int
    ny: int
    reflectance: tuple[float, ...] = field(repr=False)

    @property
    def count(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.pitch * self.pitch

    def centers(self) -> np.ndarray:
        """Cell center coordinates, shape (K, 2), x-major order."""
        ix, iy = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="ij")
        xs = (ix.ravel() + 0.5) * self.pitch
        ys = (iy.ravel() + 0.5) * self.pitch
        return np.column_stack([xs, ys])

    def reflectance_array(self) -> np.ndarray:
        return np.asarray(self.reflectance, dtype=float)

    def validate(self, room: Room) -> None:
        _require(self.pitch > 0, "grid.pitch", "must be positive")
        for name, size, n in (("x", room.size_x, self.nx), ("y", room.size_y, self.ny)):
            _require(abs(n * self.pitch - size) <= 1e-9 * max(1.0, size), "grid.pitch",
                     f"must tile the floor exactly: {n} * {self.pitch} != size_{name} {size}")
        _require(len(self.reflectance) == self.count, "grid.reflectance",
                 f"expected {self.count} values, got {len(self.reflectance)}")
        for k, rho in enumerate(self.reflectance):
            _require(0.0 <= rho <= 1.0, f"grid.reflectance[{k}]", "must be in [0, 1]")


@dataclass(frozen=True)
class UserModel:
    """Single-user reflection model: one horizontal Lambertian patch at
    ``patch_height_m`` plus a cylindrical occlusion footprint on the floor."""

    reflectance: float = 0.7
    patch_area_m2: float = 0.25
    patch_height_m: float = 1.7
    footprint_radius_m: float = 0.3

    def validate(self, room: Room) -> None:
        _require(0.0 <= self.reflectance <= 1.0, "user.reflectance", "must be in [0, 1]")
        _require(self.patch_area_m2 > 0, "user.patch_area_m2", "must be positive")
        _require(0.0 < self.patch_height_m < room.size_z, "user.patch_height_m",
                 "must lie strictly between floor and ceiling")
        _require(self.footprint_radius_m > 0, "user.footprint_radius_m", "must be positive")
        side = min(room.size_x, room.size_y)
        _require(2.0 * self.footprint_radius_m <= side, "user.footprint_radius_m",
                 f"footprint diameter {2.0 * self.footprint_radius_m} exceeds the room's "
                 f"shorter side {side}")


@dataclass(frozen=True)
class NoiseParams:
    """Receiver noise model constants (shot + thermal)."""

    electron_charge_c: float = 1.602e-19
    bandwidth_hz: float = 1.0e8
    background_current_a: float = 5.1e-3
    noise_factor_i2: float = 0.562
    noise_factor_i3: float = 0.0868
    boltzmann_j_per_k: float = 1.381e-23
    temperature_k: float = 298.0
    open_loop_gain: float = 10.0
    capacitance_f_per_m2: float = 1.12e-6
    fet_noise_factor: float = 1.5
    fet_transconductance_s: float = 0.03

    def validate(self) -> None:
        for f in fields(self):
            _require(getattr(self, f.name) > 0, f"noise.{f.name}", "must be positive")


@dataclass(frozen=True)
class ControllerConfig:
    """Control-loop settings: mode constraints, pitches, timing, noise."""

    step_period_s: float = 0.5
    baseline_power_w: float = 45.2
    e_uniform_min_lx: float = 300.0
    e_uniform_max_lx: float = 1500.0
    e_enhanced_min_lx: float = 800.0
    e_enhanced_max_lx: float = 2000.0
    snr_threshold: Optional[float] = None   # None: plane-average SNR at baseline power
    opt_pitch_m: float = 0.25
    field_pitch_m: float = 0.1
    noise_rel_sigma: float = 0.01
    user_speed_m_per_s: float = 0.9
    dwell_time_s: float = 15.0

    def validate(self) -> None:
        _require(self.step_period_s > 0, "controller.step_period_s", "must be positive")
        _require(self.baseline_power_w > 0, "controller.baseline_power_w", "must be positive")
        _require(0.0 < self.e_uniform_min_lx <= self.e_uniform_max_lx,
                 "controller.e_uniform_min_lx", "bounds must be positive and ordered")
        _require(0.0 < self.e_enhanced_min_lx <= self.e_enhanced_max_lx,
                 "controller.e_enhanced_min_lx", "bounds must be positive and ordered")
        if self.snr_threshold is not None:
            _require(self.snr_threshold >= 0, "controller.snr_threshold", "must be nonnegative")
        _require(self.opt_pitch_m > 0, "controller.opt_pitch_m", "must be positive")
        _require(self.field_pitch_m > 0, "controller.field_pitch_m", "must be positive")
        _require(self.noise_rel_sigma >= 0, "controller.noise_rel_sigma",
                 "must be nonnegative")
        _require(self.user_speed_m_per_s > 0, "controller.user_speed_m_per_s",
                 "must be positive")
        _require(self.dwell_time_s >= 0, "controller.dwell_time_s", "must be nonnegative")


@dataclass(frozen=True)
class Scene:
    """Validated, immutable bundle of the full physical configuration."""

    room: Room
    leds: tuple[Led, ...]
    comm_pd: CommPd
    sensing_pds: tuple[SensingPd, ...]
    user: UserModel
    noise: NoiseParams
    grid: SurfaceGrid
    controller: ControllerConfig

    @property
    def num_leds(self) -> int:
        return len(self.leds)

    @property
    def num_sensing_pds(self) -> int:
        return len(self.sensing_pds)

    def power_vector(self) -> np.ndarray:
        """Currently configured LED optical powers, shape (M,)."""
        return np.array([led.power_w for led in self.leds], dtype=float)

    def power_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([led.power_min_w for led in self.leds], dtype=float)
        hi = np.array([led.power_max_w for led in self.leds], dtype=float)
        return lo, hi

    def with_powers(self, powers: Sequence[float]) -> "Scene":
        """Copy of the scene with the LED powers replaced."""
        if len(powers) != self.num_leds:
            raise SceneError(f"power vector length {len(powers)} != {self.num_leds} LEDs")
        leds = tuple(replace(led, power_w=float(p)) for led, p in zip(self.leds, powers))
        return replace(self, leds=leds)

    def validate(self) -> None:
        self.room.validate()
        _require(len(self.leds) >= 1, "leds", "at least one LED is required")
        for i, led in enumerate(self.leds):
            led.validate(self.room, f"leds[{i}]")
        self.comm_pd.validate()
        _require(len(self.sensing_pds) >= 1, "sensing_pds",
                 "at least one sensing PD is required")
        for j, pd in enumerate(self.sensing_pds):
            pd.validate(self.room, f"sensing_pds[{j}]")
        self.user.validate(self.room)
        self.noise.validate()
        self.grid.validate(self.room)
        self.controller.validate()


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

_SECTIONS = ("room", "grid", "leds", "comm_pd", "sensing_pds", "user", "noise",
             "controller")


def _check_keys(where: str, data: Mapping[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SceneError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _section(cfg: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    value = cfg.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise SceneError(f"{name}: expected a mapping, got {type(value).__name__}")
    return value


def _is_number(value: Any) -> bool:
    """A finite int or float; a YAML boolean is not a number."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _number(value: Any, where: str) -> Any:
    if not _is_number(value):
        raise SceneError(f"{where}: must be a finite number, got {value!r}")
    return value


def _build(cls, data: Mapping[str, Any], where: str, **extra):
    """``cls`` from ``extra`` and ``data``, whose values are all numbers
    (or None, for a field whose default is None)."""
    names = [f.name for f in fields(cls) if f.name not in extra]
    _check_keys(where, data, names)
    kwargs = dict(extra)
    for f in fields(cls):
        if f.name in data:
            value = data[f.name]
            if value is not None or f.default is not None:
                _number(value, f"{where}.{f.name}")
            kwargs[f.name] = value
    return cls(**kwargs)


def _as_position(value: Any, where: str) -> tuple[float, float, float]:
    if not (isinstance(value, Sequence) and len(value) == 3 and all(map(_is_number, value))):
        raise SceneError(f"{where}: position must be a list of three numbers")
    return (float(value[0]), float(value[1]), float(value[2]))


def _entries(cfg: Mapping[str, Any], name: str, what: str, cls) -> tuple:
    """The list section ``name``: one ``cls`` per entry, each with a position."""
    entries = cfg.get(name)
    if not entries:
        raise SceneError(f"{name}: at least one {what} entry is required")
    if not isinstance(entries, (list, tuple)):
        raise SceneError(f"{name}: expected a list, got {type(entries).__name__}")
    built = []
    for i, entry in enumerate(entries):
        where = f"{name}[{i}]"
        if not isinstance(entry, Mapping):
            raise SceneError(f"{where}: expected a mapping")
        if "position" not in entry:
            raise SceneError(f"{where}.position: required")
        pos = _as_position(entry["position"], where)
        rest = {k: v for k, v in entry.items() if k != "position"}
        built.append(_build(cls, rest, where, position=pos))
    return tuple(built)


def _grid_from_config(data: Mapping[str, Any], room: Room) -> SurfaceGrid:
    _check_keys("grid", data, ("pitch", "reflectance"))
    pitch = float(_number(data.get("pitch", 0.1), "grid.pitch"))
    if not pitch > 0:
        raise SceneError("grid.pitch: must be positive")
    nx = int(round(room.size_x / pitch))
    ny = int(round(room.size_y / pitch))
    rho = data.get("reflectance", 0.8)
    if isinstance(rho, (list, tuple)):
        reflectance = tuple(float(_number(r, f"grid.reflectance[{k}]"))
                            for k, r in enumerate(rho))
    else:
        reflectance = (float(_number(rho, "grid.reflectance")),) * (nx * ny)
    return SurfaceGrid(pitch=pitch, nx=nx, ny=ny, reflectance=reflectance)


def scene_from_dict(cfg: Mapping[str, Any]) -> Scene:
    """Build and validate a Scene from a nested config mapping."""
    if not isinstance(cfg, Mapping):
        raise SceneError(f"top level: expected a mapping, got {type(cfg).__name__}")
    _check_keys("top level", cfg, _SECTIONS)

    room = _build(Room, _section(cfg, "room"), "room")
    leds = _entries(cfg, "leds", "LED", Led)
    pds = _entries(cfg, "sensing_pds", "sensing PD", SensingPd)
    scene = Scene(
        room=room,
        leds=leds,
        comm_pd=_build(CommPd, _section(cfg, "comm_pd"), "comm_pd"),
        sensing_pds=pds,
        user=_build(UserModel, _section(cfg, "user"), "user"),
        noise=_build(NoiseParams, _section(cfg, "noise"), "noise"),
        grid=_grid_from_config(_section(cfg, "grid"), room),
        controller=_build(ControllerConfig, _section(cfg, "controller"), "controller"),
    )
    scene.validate()
    return scene


# A YAML 1.2 core-schema float.  Integers match too, but SafeLoader's own
# int resolver is tried first, so they stay ints.
_YAML12_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$")


def load_scene(config_text: str) -> Scene:
    """Parse a YAML config document into a validated Scene.

    Raises SceneError naming the offending line (parse errors) or field
    (invariant violations).
    """
    import yaml  # deferred: the built-in scene and the JSON manifest never parse YAML

    class Loader(yaml.SafeLoader):
        """SafeLoader that also reads YAML 1.2 floats: YAML 1.1 leaves 1e-2
        and 1.5e3 strings (its floats need a dot and a signed exponent)."""

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _YAML12_FLOAT, list("-+.0123456789"))
    try:
        cfg = yaml.load(config_text, Loader=Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise SceneError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: {exc}"
            ) from exc
        raise SceneError(f"parse error: {exc}") from exc
    if cfg is None:
        raise SceneError("empty config document")
    return scene_from_dict(cfg)


def _dataclass_dict(obj) -> dict[str, Any]:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def scene_to_dict(scene: Scene) -> dict[str, Any]:
    """Inverse of scene_from_dict (uniform reflectance collapses to a scalar)."""
    grid: dict[str, Any] = {"pitch": scene.grid.pitch}
    rho = scene.grid.reflectance
    grid["reflectance"] = rho[0] if len(set(rho)) == 1 else list(rho)
    return {
        "room": _dataclass_dict(scene.room),
        "grid": grid,
        "leds": [_dataclass_dict(led) for led in scene.leds],
        "comm_pd": _dataclass_dict(scene.comm_pd),
        "sensing_pds": [_dataclass_dict(pd) for pd in scene.sensing_pds],
        "user": _dataclass_dict(scene.user),
        "noise": _dataclass_dict(scene.noise),
        "controller": _dataclass_dict(scene.controller),
    }


def dump_scene(scene: Scene) -> str:
    """Serialize a Scene to YAML that reloads to a value-equal Scene."""
    import yaml

    return yaml.safe_dump(scene_to_dict(scene), sort_keys=False)


def default_scene(seed: int = DEFAULT_LAYOUT_SEED) -> Scene:
    """Stock 5x5x3 m scene: 8 LEDs at seeded random ceiling positions, one
    sensing PD offset 0.1 m (+x) from each LED, 0.1 m floor grid."""
    room = Room()
    rng = np.random.default_rng(seed)
    lo = _WALL_MARGIN
    hi_x = room.size_x - _WALL_MARGIN
    hi_y = room.size_y - _WALL_MARGIN
    xy = np.column_stack([rng.uniform(lo, hi_x, 8), rng.uniform(lo, hi_y, 8)])
    leds = [Led(position=(float(x), float(y), room.size_z)) for x, y in xy]
    pds = [SensingPd(position=(float(x + _SENSING_PD_OFFSET), float(y), room.size_z))
           for x, y in xy]
    scene = Scene(
        room=room,
        leds=tuple(leds),
        comm_pd=CommPd(),
        sensing_pds=tuple(pds),
        user=UserModel(),
        noise=NoiseParams(),
        grid=_grid_from_config({}, room),
        controller=ControllerConfig(),
    )
    scene.validate()
    return scene
