"""Physical scene configuration: room, LED array, photodiodes, floor grid, user model.

Everything the simulator needs to know about the physical setup lives here.
A Scene is immutable after construction.  Each numeric field declares its
valid interval once, in its dataclass field metadata; one check derives every
single-field message from it.  Unknown config keys fail loudly.

Config files are YAML with the top-level sections ``room``, ``grid``,
``leds``, ``comm_pd``, ``sensing_pds``, ``user``, ``noise`` and
``controller``.  Any omitted field takes the documented default;
``dump_scene`` writes a file that round-trips to a value-equal Scene.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
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


class _Interval:
    """A field's valid values, written as in mathematics: "(0, inf)", "[0, 1]",
    "(0, 90]".  An infinite end admits inf, which the finiteness check refuses."""

    def __init__(self, text: str, unit: str = ""):
        lo, hi = text[1:-1].split(",")
        self.text, self.lo, self.hi = f"{text} {unit}".rstrip(), float(lo), float(hi)
        strict, bounded = text[0] == "(", self.hi < math.inf
        self.above = operator.lt if strict else operator.le
        self.below = operator.lt if text[-1] == ")" and bounded else operator.le
        self.message = (f"must be in {self.text}" if bounded
                        else f"must be {'>' if strict else '>='} {lo}" if self.lo
                        else "must be positive" if strict else "must be nonnegative")

    def __contains__(self, value: float) -> bool:
        return self.above(self.lo, value) and self.below(value, self.hi)


def _within(interval: str, default: Any = MISSING, unit: str = "") -> Any:
    """A dataclass field whose values must lie in ``interval``."""
    return field(default=default, metadata={"interval": _Interval(interval, unit)})


@functools.cache
def _schema(cls) -> tuple[tuple[str, _Interval, bool], ...]:
    """(name, interval, whether None passes: it is the default) per field with an interval."""
    return tuple((f.name, f.metadata["interval"], f.default is None)
                 for f in fields(cls) if "interval" in f.metadata)


def _check_fields(obj, where: str) -> None:
    """Each field of ``obj`` in its interval (NaN is not), then each finite."""
    schema = _schema(type(obj))
    for name, interval, optional in schema:
        value = getattr(obj, name)
        if not (optional if value is None else value in interval):
            raise SceneError(f"{where}.{name}: {interval.message}")
    for name, _, optional in schema:
        value = getattr(obj, name)
        if not (optional and value is None or abs(value) <= sys.float_info.max):
            raise SceneError(f"{where}.{name}: must be finite")


def _require_ordered(obj, lo: str, hi: str, where: str) -> None:
    low, high = getattr(obj, lo), getattr(obj, hi)
    _require(low <= high, f"{where}.{lo}", f"lower bound {low} exceeds upper bound {high}")


@dataclass(frozen=True)
class Room:
    """Rectangular room; the receiving plane sits ``plane_drop`` below the ceiling."""

    size_x: float = _within("(0, inf)", 5.0)
    size_y: float = _within("(0, inf)", 5.0)
    size_z: float = _within("(0, inf)", 3.0)
    plane_drop: float = _within("(0, inf)", 2.15)

    @property
    def plane_z(self) -> float:
        return self.size_z - self.plane_drop

    def contains_xy(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.size_x and 0.0 <= y <= self.size_y

    def validate(self) -> None:
        _check_fields(self, "room")
        _require(self.plane_drop < self.size_z, "room.plane_drop",
                 "must lie strictly between 0 and size_z")


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
    half_power_angle_deg: float = _within("(0, 90)", 60.0, "degrees")
    efficacy_lm_per_w: float = _within("(0, inf)", 140.0)
    power_w: float = _within("[0, inf)", 45.2)
    power_min_w: float = _within("[0, inf)", 10.0)
    power_max_w: float = _within("[0, inf)", 80.0)

    def validate(self, room: Room, where: str) -> None:
        _check_fields(self, where)
        _require_ordered(self, "power_min_w", "power_max_w", where)
        _require(self.power_min_w <= self.power_w <= self.power_max_w, f"{where}.power_w",
                 f"{self.power_w} outside bounds [{self.power_min_w}, {self.power_max_w}]")
        _require_on_ceiling(self.position, room, where)


@dataclass(frozen=True)
class CommPd:
    """Communication photodiode model (receiving plane, facing up)."""

    area_m2: float = _within("(0, inf)", 1.0e-4)
    refractive_index: float = _within("[1, inf)", 1.5)
    fov_deg: float = _within("(0, 90]", 90.0, "degrees")
    filter_gain: float = _within("(0, inf)", 1.0)
    responsivity_a_per_w: float = _within("(0, inf)", 0.54)


@dataclass(frozen=True)
class SensingPd:
    """Ceiling sensing photodiode (facing down)."""

    position: tuple[float, float, float]
    area_m2: float = _within("(0, inf)", 1.0e-4)
    fov_deg: float = _within("(0, 90]", 90.0, "degrees")
    refractive_index: float = _within("[1, inf)", 1.5)
    filter_gain: float = _within("(0, inf)", 1.0)

    def validate(self, room: Room, where: str) -> None:
        _check_fields(self, where)
        _require_on_ceiling(self.position, room, where)


@dataclass(frozen=True)
class SurfaceGrid:
    """Floor discretized into square reflective cells.

    Cells are cell-centered: cell (ix, iy) has center
    ((ix + 0.5) * pitch, (iy + 0.5) * pitch) and area pitch**2.  Cell index
    k = ix * ny + iy, i.e. ascending x first, then y.
    """

    pitch: float = _within("(0, inf)")
    nx: int
    ny: int
    reflectance: tuple[float, ...] = field(repr=False)

    @property
    def count(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.pitch * self.pitch

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell center coordinates as the grid's rows and columns: x (nx, 1)
        and y (1, ny), so cell (ix, iy) is at (x[ix, 0], y[0, iy])."""
        return ((np.arange(self.nx)[:, None] + 0.5) * self.pitch,
                (np.arange(self.ny)[None, :] + 0.5) * self.pitch)

    @functools.cached_property
    def _cell_axes(self) -> tuple[np.ndarray, ...]:
        """coordinates(), then ix * ny (nx, 1) and iy (ny,): their sum is k.  Read-only."""
        axes = (*self.coordinates(), np.arange(self.nx)[:, None] * self.ny, np.arange(self.ny))
        for axis in axes:
            axis.flags.writeable = False
        return axes

    def centers(self) -> np.ndarray:
        """Cell center coordinates, shape (K, 2), x-major order."""
        xs, ys = np.broadcast_arrays(*self.coordinates())
        return np.column_stack([xs.ravel(), ys.ravel()])

    def reflectance_array(self) -> np.ndarray:
        return np.fromiter(self.reflectance, dtype=float, count=len(self.reflectance))

    def validate(self, room: Room) -> None:
        _check_fields(self, "grid")
        for name, size, n in (("x", room.size_x, self.nx), ("y", room.size_y, self.ny)):
            _require(abs(n * self.pitch - size) <= 1e-9 * max(1.0, size), "grid.pitch",
                     f"must tile the floor exactly: {n} * {self.pitch} != size_{name} {size}")
        _require(len(self.reflectance) == self.count, "grid.reflectance",
                 f"expected {self.count} values, got {len(self.reflectance)}")
        rho = self.reflectance_array()
        bad = np.flatnonzero(~((rho >= 0.0) & (rho <= 1.0)))  # NaN fails both
        if len(bad):
            raise SceneError(f"grid.reflectance[{bad[0]}]: must be in [0, 1]")


@dataclass(frozen=True)
class UserModel:
    """Single-user reflection model: one horizontal Lambertian patch at
    ``patch_height_m`` plus a cylindrical occlusion footprint on the floor."""

    reflectance: float = _within("[0, 1]", 0.7)
    patch_area_m2: float = _within("(0, inf)", 0.25)
    patch_height_m: float = _within("(0, inf)", 1.7)
    footprint_radius_m: float = _within("(0, inf)", 0.3)

    def validate(self, room: Room) -> None:
        _check_fields(self, "user")
        _require(self.patch_height_m < room.size_z, "user.patch_height_m",
                 "must lie strictly between floor and ceiling")
        side = min(room.size_x, room.size_y)
        _require(2.0 * self.footprint_radius_m <= side, "user.footprint_radius_m",
                 f"footprint diameter {2.0 * self.footprint_radius_m} exceeds the room's "
                 f"shorter side {side}")


@dataclass(frozen=True)
class NoiseParams:
    """Receiver noise model constants (shot + thermal)."""

    electron_charge_c: float = _within("(0, inf)", 1.602e-19)
    bandwidth_hz: float = _within("(0, inf)", 1.0e8)
    background_current_a: float = _within("(0, inf)", 5.1e-3)
    noise_factor_i2: float = _within("(0, inf)", 0.562)
    noise_factor_i3: float = _within("(0, inf)", 0.0868)
    boltzmann_j_per_k: float = _within("(0, inf)", 1.381e-23)
    temperature_k: float = _within("(0, inf)", 298.0)
    open_loop_gain: float = _within("(0, inf)", 10.0)
    capacitance_f_per_m2: float = _within("(0, inf)", 1.12e-6)
    fet_noise_factor: float = _within("(0, inf)", 1.5)
    fet_transconductance_s: float = _within("(0, inf)", 0.03)


@dataclass(frozen=True)
class ControllerConfig:
    """Control-loop settings: mode constraints, pitches, timing, noise."""

    step_period_s: float = _within("(0, inf)", 0.5)
    baseline_power_w: float = _within("(0, inf)", 45.2)
    e_uniform_min_lx: float = _within("(0, inf)", 300.0)
    e_uniform_max_lx: float = _within("(0, inf)", 1500.0)
    e_enhanced_min_lx: float = _within("(0, inf)", 800.0)
    e_enhanced_max_lx: float = _within("(0, inf)", 2000.0)
    snr_threshold: Optional[float] = _within("[0, inf)", None)  # None: plane-mean SNR at baseline
    opt_pitch_m: float = _within("(0, inf)", 0.25)
    field_pitch_m: float = _within("(0, inf)", 0.1)
    noise_rel_sigma: float = _within("[0, inf)", 0.01)
    user_speed_m_per_s: float = _within("(0, inf)", 0.9)
    dwell_time_s: float = _within("[0, inf)", 15.0)

    def validate(self) -> None:
        _check_fields(self, "controller")
        _require_ordered(self, "e_uniform_min_lx", "e_uniform_max_lx", "controller")
        _require_ordered(self, "e_enhanced_min_lx", "e_enhanced_max_lx", "controller")


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

    def power_vector(self) -> np.ndarray:
        """Currently configured LED optical powers, shape (M,)."""
        return np.array([led.power_w for led in self.leds], dtype=float)

    def power_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([led.power_min_w for led in self.leds], dtype=float)
        hi = np.array([led.power_max_w for led in self.leds], dtype=float)
        return lo, hi

    def validate(self) -> None:
        self.room.validate()
        _require(len(self.leds) >= 1, "leds", "at least one LED is required")
        for i, led in enumerate(self.leds):
            led.validate(self.room, f"leds[{i}]")
        _check_fields(self.comm_pd, "comm_pd")
        _require(len(self.sensing_pds) >= 1, "sensing_pds", "at least one sensing PD is required")
        for j, pd in enumerate(self.sensing_pds):
            pd.validate(self.room, f"sensing_pds[{j}]")
        self.user.validate(self.room)
        _check_fields(self.noise, "noise")
        self.grid.validate(self.room)
        self.controller.validate()


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

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
    """A finite int or float (not an int past the float range, nor a YAML boolean)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(value: Any, where: str) -> Any:
    if not _is_number(value):
        try:
            got = repr(value)
        except ValueError:  # an int past Python's limit on int-to-str digits
            from decimal import Decimal
            got = f"an integer of {Decimal(value).adjusted() + 1} digits"
        raise SceneError(f"{where}: must be a finite number, got {got}")
    return value


def _build(cls, data: Mapping[str, Any], where: str, **extra):
    """``cls`` from ``data`` with ``extra`` in place of its values: each other
    key names a field with an interval, whose value is a number (or None where
    that is the default)."""
    schema = _schema(cls)
    _check_keys(where, data, [*extra, *(name for name, _, _ in schema)])
    for name, _, optional in schema:
        if name in data and not (optional and data[name] is None):
            _number(data[name], f"{where}.{name}")
    return cls(**{**data, **extra})


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
        built.append(_build(cls, entry, where, position=_as_position(entry["position"], where)))
    return tuple(built)


def _grid_from_config(data: Mapping[str, Any], room: Room) -> SurfaceGrid:
    _check_keys("grid", data, ("pitch", "reflectance"))
    pitch = float(_number(data.get("pitch", 0.1), "grid.pitch"))
    _check_fields(SurfaceGrid(pitch, 0, 0, ()), "grid")  # before the pitch divides anything
    nx, ny = room.size_x / pitch, room.size_y / pitch
    _require(math.isfinite(nx * ny) and round(nx) * round(ny) <= sys.maxsize, "grid.pitch",
             f"{pitch} m cuts the {room.size_x} x {room.size_y} m floor into too many cells")
    nx, ny = round(nx), round(ny)
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
    _check_keys("top level", cfg, [f.name for f in fields(Scene)])

    room = _build(Room, _section(cfg, "room"), "room")
    room.validate()  # before its sides are cut into grid cells
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

    def parse_error(mark, problem) -> SceneError:
        return SceneError(f"parse error at line {mark.line + 1}, column {mark.column + 1}: {problem}")

    class Loader(yaml.SafeLoader):
        """SafeLoader that also reads YAML 1.2 floats: YAML 1.1 leaves 1e-2
        and 1.5e3 strings (its floats need a dot and a signed exponent).  A date
        stays its text, so a number's field names it.  An int with more digits
        than Python converts is a parse error at its mark."""

        def construct_yaml_int(self, node):
            try:
                return super().construct_yaml_int(node)
            except ValueError:  # past Python's limit on str-to-int digits
                digits = sum(map(str.isdigit, node.value))
                raise parse_error(node.start_mark,
                                  f"an integer of {digits} digits is too long to read") from None

    Loader.add_constructor("tag:yaml.org,2002:int", Loader.construct_yaml_int)
    Loader.add_constructor("tag:yaml.org,2002:timestamp", Loader.construct_scalar)
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _YAML12_FLOAT, list("-+.0123456789"))
    try:
        cfg = yaml.load(config_text, Loader=Loader)
    except (yaml.YAMLError, OverflowError) as exc:  # OverflowError: a base-60 float past 1e308
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:  # one line, not PyYAML's text with its marks and source
            raise parse_error(mark, " ".join(filter(None, (exc.problem, exc.context)))) from exc
        raise SceneError(f"parse error: {str(exc).splitlines()[0]}") from exc
    except RecursionError:  # PyYAML composes each nested collection by recursion
        raise SceneError("parse error: collections nested too deeply to read") from None
    if cfg is None:
        raise SceneError("empty config document")
    return scene_from_dict(cfg)


def _dataclass_dict(obj) -> dict[str, Any]:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(obj).items()}


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
    """Stock scene: the default config with 8 LEDs at seeded random ceiling
    positions and one sensing PD offset 0.1 m (+x) from each LED."""
    room = Room()
    rng = np.random.default_rng(seed)
    lo = _WALL_MARGIN
    xy = np.column_stack([rng.uniform(lo, room.size_x - lo, 8),
                          rng.uniform(lo, room.size_y - lo, 8)])
    return scene_from_dict({
        "leds": [{"position": [x, y, room.size_z]} for x, y in xy],
        "sensing_pds": [{"position": [x + _SENSING_PD_OFFSET, y, room.size_z]} for x, y in xy],
    })
