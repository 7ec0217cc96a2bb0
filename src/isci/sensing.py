"""First-order diffuse (NLOS) sensing: floor-bounce channels, user-induced
power variations, fingerprint tables and least-squares localization.

Light travels LED -> reflector -> ceiling sensing PD, where the reflector is
either a floor cell or the user's horizontal body patch.  A user both adds a
reflection path and occludes the floor cells under their footprint, so the
per-PD received power shifts; matching the shifted readings against
precomputed per-candidate signatures yields the position estimate.

Fingerprints store per-LED, per-PD *gain* deltas rather than power deltas,
so predictions stay valid when the controller changes the LED powers: the
predicted variation for candidate k is |sum_i P_i * dH[k, i, j]|.  Every
one-bounce gain is an emitter factor times a collector factor, and the
sensing model and built tables store those factors, not (M, K, N) tensors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .photometry import _collector_terms, _lambertian_geometry, _lambertian_orders
from .scene import Led, Scene, SensingPd

__all__ = [
    "SensingModel",
    "FingerprintTable",
    "LocalizationResult",
    "Prediction",
    "occluded_set",
    "build_fingerprint_table",
    "predict_power_deltas",
    "localize",
    "save_fingerprint",
    "load_fingerprint",
]

_MAGIC = b"LFPT"
_VERSION = 2
_HEADER = "<H6I"  # after the magic: u16 version, u32 K, M, N, S (stencil offsets), nx, ny
_HEADER_LEN = 4 + struct.calcsize(_HEADER)
# The factor sections of an LFPT v2 body, in file order (and FingerprintTable field order).
_FACTORS = ("user_emitter", "user_collector", "floor_emitter", "floor_collector")

NOISELESS_DETECT_EPS = 1e-12

# Side, in grid cells, of the square tiles whose prediction envelopes bound
# _best_candidate's losses.  On loop-large (K = 40 000, N = 25) a detected
# step's match took a median 190 us with 8 x 8 tiles, 390 us with 4 x 4
# (four times the bounds to form) and 250 us with 16 x 16 (more candidates
# left to rescore).
_TILE = 8

# Shared footprint-boundary guard so the per-candidate occlusion stencil and
# occluded_set agree on cells whose centers sit exactly at the radius.
_OCCLUSION_TOL = 1e-9

# Bytes of partial sums that _stencil_sum keeps per block of grid rows.  On a
# 10 m room at 0.05 m with 25 PDs that is 12 rows, which with the source rows
# they read (the block plus the stencil's reach) fit in a 2 MB L2 cache.
_STENCIL_BLOCK_BYTES = 1 << 19


def occluded_set(scene: Scene, user_xy: Sequence[float]) -> np.ndarray:
    """Indices of floor cells whose centers fall inside the user footprint.

    A user outside the room occludes nothing.
    """
    return _occluded(scene, scene.grid.centers(), user_xy)


def _occluded(scene: Scene, centers: np.ndarray, user_xy: Sequence[float]) -> np.ndarray:
    ux, uy = float(user_xy[0]), float(user_xy[1])
    radius = scene.user.footprint_radius_m
    if radius <= 0 or not scene.room.contains_xy(ux, uy):
        return np.empty(0, dtype=int)
    # Only cells in the footprint's bounding box, widened by a cell against
    # rounding, can be inside it; x-major indices keep the result ascending.
    grid = scene.grid
    limit = radius + _OCCLUSION_TOL
    ix = np.arange(max(0, int((ux - limit) / grid.pitch) - 1),
                   min(grid.nx, int((ux + limit) / grid.pitch) + 2))
    iy = np.arange(max(0, int((uy - limit) / grid.pitch) - 1),
                   min(grid.ny, int((uy + limit) / grid.pitch) + 2))
    box = (ix[:, None] * grid.ny + iy).ravel()
    dist = np.hypot(centers[box, 0] - ux, centers[box, 1] - uy)
    return box[dist <= limit]


def _outer(emitter: np.ndarray, collector: np.ndarray) -> np.ndarray:
    """Gains (M, P, N) from the factors (M, P) and (P, N) of P patches."""
    return emitter[:, :, None] * collector[None, :, :]


def _read_only(values) -> np.ndarray:
    arr = np.asarray(values)
    arr.flags.writeable = False
    return arr


class _BounceKernel:
    """One-bounce gains LED i -> horizontal patch k at height z -> PD j, as
    an emitter factor (M, P) and a collector factor (P, N) whose _outer
    product is the gain, both on photometry's Lambertian geometry.

    The per-LED and per-PD constants are computed once, so a per-step call
    for one user patch only evaluates the geometry.
    """

    def __init__(self, leds: Sequence[Led], pds: Sequence[SensingPd]):
        self.led_pos = np.array([led.position for led in leds], dtype=float)
        self.exponent = _lambertian_orders(leds) + 1.0
        self.front = self.exponent / (2.0 * math.pi**2)
        self.pd_pos = np.array([pd.position for pd in pds], dtype=float)
        # FOV cut-off on cos(psi) and A_s * T_s * g(psi) inside the FOV, per PD
        self.cos_fov, self.collector_gain = _collector_terms(pds)

    def factors(self, points: np.ndarray, z: float,
                rho_area) -> tuple[np.ndarray, np.ndarray]:
        """Emitter factor (M, P), with ``rho_area`` (reflectance times area,
        per patch or shared by all) folded in, and collector factor (P, N)."""
        emitter = self.front[:, None] * self._emitter(points, z) * rho_area
        return emitter, self._collector(points, z)

    def _emitter(self, points: np.ndarray, z: float) -> np.ndarray:
        """cos^m(phi) * cos(alpha) / d^2 for every LED-to-patch pair, (M, P)."""
        d2, cos_ang = _lambertian_geometry(self.led_pos, points, z)
        return cos_ang ** self.exponent[:, None] / d2

    def _collector(self, points: np.ndarray, z: float) -> np.ndarray:
        """A_s * T_s * g(psi) * cos(beta) * cos(psi) / d^2 per patch-PD pair, (P, N)."""
        d2, cos_ang = _lambertian_geometry(self.pd_pos, points, z)
        gains = np.where(cos_ang >= self.cos_fov[:, None],
                         self.collector_gain[:, None] * cos_ang ** 2 / d2, 0.0)
        return np.ascontiguousarray(gains.T)


class SensingModel:
    """One-bounce floor channels of a fixed scene, stored as their factors.

    The first-order diffuse gain LED i -> floor cell k -> PD j separates into
    emitter[i, k] * collector[k, j] (Kahn & Barry, Proc. IEEE 1997):
    ``emitter`` (M, K) holds the LED-side terms with the cell's reflectance
    times area folded in, ``collector`` (K, N) the PD-side terms.  Both are
    read-only.  No (M, K, N) array is kept: ``baseline_gains`` (M, N) is
    their matrix product, and ``received_power`` forms only the occluded
    cells' gains.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        self._kernel = _BounceKernel(scene.leds, scene.sensing_pds)
        self.centers = _read_only(scene.grid.centers())
        emitter, collector = self._kernel.factors(
            self.centers, 0.0, scene.grid.reflectance_array() * scene.grid.cell_area)
        self.emitter, self.collector = _read_only(emitter), _read_only(collector)
        self.baseline_gains = self.emitter @ self.collector

    def user_factors(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Emitter (M, P) and collector (P, N) factors of the gains through a
        user patch at each of the P ``points``."""
        user = self.scene.user
        return self._kernel.factors(points, user.patch_height_m,
                                    user.reflectance * user.patch_area_m2)

    def user_gain(self, user_xy: Sequence[float]) -> np.ndarray:
        """Gain matrix (M, N) contributed by the user patch at ``user_xy``."""
        pt = np.array([[float(user_xy[0]), float(user_xy[1])]])
        return _outer(*self.user_factors(pt))[:, 0, :]

    def received_power(self, powers: np.ndarray,
                       user_xy: Optional[Sequence[float]] = None) -> np.ndarray:
        """Per-PD received optical power (N,), with or without a user."""
        powers = np.asarray(powers, dtype=float)
        gains = self.baseline_gains
        if user_xy is not None:
            occ = _occluded(self.scene, self.centers, user_xy)
            # einsum without optimize sums the cells in order and calls no
            # BLAS: the same floats as _outer(...).sum(axis=1), 3x sooner
            occluded = (np.einsum("ip,pj->ij", self.emitter[:, occ], self.collector[occ])
                        if len(occ) else 0.0)
            gains = gains - occluded + self.user_gain(user_xy)
        return powers @ gains


def _stencil_offsets(scene: Scene) -> tuple[tuple[int, int], ...]:
    """Grid index offsets (di, dj) of the cells that a user centred on a cell
    occludes."""
    grid, radius = scene.grid, scene.user.footprint_radius_m
    reach = int(radius / grid.pitch) + 1 if radius > 0 else -1
    limit = radius + _OCCLUSION_TOL
    return tuple((di, dj) for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)
                 if grid.pitch * math.hypot(di, dj) <= limit)


def _stencil_sum(cells: np.ndarray, offsets: Sequence[tuple[int, int]],
                 grid_shape: tuple[int, int]) -> np.ndarray:
    """For every cell k, the sum of ``cells[:, c, :]`` over the cells
    c = k + offset that lie on the grid, (L, K, N).

    ``cells`` is (L, K, N) over the x-major (nx, ny) grid; the sum runs over
    shifted views, offsets in the given order.  It is taken one block of
    grid rows at a time, so a block's partial sums stay in cache across all
    offsets; each output element still gets its additions in offset order.
    """
    nx, ny = grid_shape
    lead, _, n = cells.shape
    src = cells.reshape(lead, nx, ny, n)
    out = np.zeros_like(src)
    rows = max(1, _STENCIL_BLOCK_BYTES // src[:, 0].nbytes)
    for start in range(0, nx, rows):
        stop = min(start + rows, nx)
        for di, dj in offsets:
            lo, hi = max(start, -di), min(stop, nx - di)
            if lo < hi:
                block = out[:, lo:hi, max(0, -dj):ny - max(0, dj)]
                np.add(block, src[:, lo + di:hi + di, max(0, dj):ny + min(0, dj)], out=block)
    return out.reshape(lead, nx * ny, n)


@dataclass(frozen=True, eq=False)
class FingerprintTable:
    """Per-candidate gain deltas for power-scaled variation prediction.

    deltas[k, i, j] is the change in the gain LED i -> PD j that a user at
    candidate k causes: the user-patch gain outer(user_emitter[:, k],
    user_collector[k]) minus the floor gains outer(floor_emitter[:, c],
    floor_collector[c]) summed over the occluded cells c = k + offset.  The
    table holds only those factors, as build_fingerprint_table and
    load_fingerprint make them, and no (K, M, N) array: reading ``deltas``
    forms one, on every access.  ``shape`` is (K, M, N).  The arrays are
    read-only.  Tables compare by identity.
    """

    candidates: np.ndarray       # (K, 2) floor cell centers
    baseline: np.ndarray         # (M, N) no-user gain sums
    user_emitter: np.ndarray     # (M, K) at the patch height
    user_collector: np.ndarray   # (K, N)
    floor_emitter: np.ndarray    # (M, K)
    floor_collector: np.ndarray  # (K, N)
    offsets: tuple[tuple[int, int], ...]
    grid_shape: tuple[int, int]  # (nx, ny)

    def __post_init__(self):
        for name in ("candidates", "baseline", *_FACTORS):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.candidates), *self.baseline.shape)

    @property
    def deltas(self) -> np.ndarray:
        """The (K, M, N) gain deltas, formed from the factors, read-only."""
        occluded = _stencil_sum(_outer(self.floor_emitter, self.floor_collector),
                                self.offsets, self.grid_shape)
        deltas = _outer(self.user_emitter, self.user_collector) - occluded
        return _read_only(np.ascontiguousarray(deltas.transpose(1, 0, 2)))

    def predict(self, powers: np.ndarray) -> np.ndarray:
        """Signed power variation sum_i P_i * delta[k, i, j], (K, N)."""
        user = (powers @ self.user_emitter)[:, None] * self.user_collector
        floor = (powers @ self.floor_emitter)[:, None] * self.floor_collector
        return user - _stencil_sum(floor[None], self.offsets, self.grid_shape)[0]


@dataclass(frozen=True)
class LocalizationResult:
    """A fingerprint match: the chosen candidate's position, index and
    least-squares loss, all None (``detected`` False) when nobody is detected."""

    position: Optional[tuple[float, float]]
    index: Optional[int]
    loss: Optional[float]

    @property
    def detected(self) -> bool:
        return self.index is not None


def build_fingerprint_table(scene: Scene, model: Optional[SensingModel] = None) -> FingerprintTable:
    """Fingerprint table of a user at every floor-cell center, in factored form.

    delta[k, i, j] = user-patch gain at candidate k minus the summed gains of
    the floor cells the footprint occludes there.  Both terms are separable,
    so the table keeps the user-patch factors at ``patch_height_m``, (M, K)
    and (K, N), the model's floor factors, and the stencil of grid offsets
    that a footprint centred on a cell covers: K * (2M + 2N) numbers instead
    of K * M * N.  Deterministic; independent of the LED powers.
    """
    if model is None:
        model = SensingModel(scene)
    return FingerprintTable(model.centers, model.baseline_gains.copy(),
                            *model.user_factors(model.centers), model.emitter, model.collector,
                            _stencil_offsets(scene), (scene.grid.nx, scene.grid.ny))


def _checked_powers(table: FingerprintTable, powers) -> np.ndarray:
    """``powers`` as a float vector, or ValueError if it does not fit the table."""
    powers = np.asarray(powers, dtype=float)
    n_leds = table.shape[1]
    if powers.ndim != 1:
        raise ValueError(f"powers must be a 1-D vector, got shape {powers.shape}")
    if len(powers) != n_leds:
        raise ValueError(f"{len(powers)} powers but the fingerprint table has {n_leds} LEDs")
    return powers


def predict_power_deltas(table: FingerprintTable, powers: np.ndarray) -> np.ndarray:
    """Predicted per-PD power variation for every candidate, (K, N).

    The prediction is |sum_i P_i * deltas[k, i, j]|, formed as
    (P @ user_emitter) times user_collector minus the stencil sum of
    (P @ floor_emitter) times floor_collector, without the (K, M, N) deltas.
    Each call forms a new read-only array and keeps nothing.  It is the
    transpose view of a C-contiguous (N, K) array, so each PD's predictions
    are one contiguous K-vector.
    """
    signed = table.predict(_checked_powers(table, powers))
    columns = np.abs(signed.T, out=np.empty(signed.shape[::-1]))
    columns.flags.writeable = False
    return columns.T


@dataclass(frozen=True, eq=False)
class Prediction:
    """A table's (K, N) prediction at some powers, with the envelopes that
    _best_candidate bounds losses by.

    The x-major (nx, ny) candidate grid is cut into _TILE x _TILE tiles,
    smaller at the far edges.  ``tiles`` (T, _TILE ** 2) holds each tile's
    candidate indices in ascending order, padded with -1, and ``lo`` and
    ``hi`` (N, T) each tile's least and greatest prediction per PD.
    ``values`` is the read-only predict_power_deltas(table, powers), not a
    copy.  All four are read-only.  Form one with Prediction.at.
    """

    values: np.ndarray  # (K, N)
    lo: np.ndarray      # (N, T)
    hi: np.ndarray      # (N, T)
    tiles: np.ndarray   # (T, _TILE ** 2)

    @classmethod
    def at(cls, table: FingerprintTable, powers) -> "Prediction":
        """The prediction of ``table`` at ``powers`` and its envelopes over
        the table's candidate grid; powers that do not fit raise ValueError."""
        values = predict_power_deltas(table, powers)
        nx, ny = table.grid_shape
        grid = values.T.reshape(-1, nx, ny)
        bands = [grid[:, start:start + _TILE] for start in range(0, nx, _TILE)]
        cuts_y = np.arange(0, ny, _TILE)
        # each band of grid rows is reduced on its own: reduceat along the
        # rows took 8x as long
        lo, hi = (_read_only(reduce.reduceat(np.stack([reduce.reduce(band, axis=1)
                                                       for band in bands], axis=1),
                                             cuts_y, axis=2).reshape(len(grid), -1))
                  for reduce in (np.minimum, np.maximum))
        padded = np.pad(np.arange(nx * ny).reshape(nx, ny),
                        ((0, -nx % _TILE), (0, -ny % _TILE)), constant_values=-1)
        tiles = padded.reshape(-1, _TILE, len(cuts_y), _TILE).swapaxes(1, 2)
        return cls(values, lo, hi, _read_only(tiles.reshape(-1, _TILE * _TILE)))


def _losses_of(actual: np.ndarray, columns: np.ndarray, keep) -> np.ndarray:
    """Per candidate ``keep`` of the (N, K) prediction ``columns``, the sum
    over PDs j of (actual[j] - columns[j, k]) ** 2, added in PD order."""
    terms = columns.take(keep, axis=1)
    np.subtract(actual[:, None], terms, out=terms)
    return _pd_order_sums(np.multiply(terms, terms, out=terms))


def _pd_order_sums(terms: np.ndarray) -> np.ndarray:
    """Column sums of ``terms`` (N, C), added one row at a time, in place."""
    sums = terms[0]
    for row in terms[1:]:
        sums += row
    return sums


def _best_candidate(actual: np.ndarray, prediction: Prediction) -> tuple[int, float]:
    """Index and loss of the first candidate with the least PD-order loss
    sum over j of (actual[j] - predicted[k, j]) ** 2, bit for bit as a full
    scan finds them (branch and bound, Fukunaga & Narendra 1975).

    A tile's bound sums, in the same PD order, max(lo - a, a - hi, 0) ** 2.
    Each of its terms is at most the matching term of every candidate in
    the tile, since rounding is monotone, so the bound is at most each
    member's loss, bit for bit.  The least loss in the lowest-bound tile
    caps the minimum, so only tiles whose bound does not exceed it are
    rescored.  Ties survive the ``<=``, and the least index among the least
    losses wins.  When every tile survives, the rescore costs about twice a
    full scan.
    """
    columns = prediction.values.T
    reading = actual[:, None]
    gaps = np.maximum(prediction.lo - reading, reading - prediction.hi)
    np.maximum(gaps, 0.0, out=gaps)
    bounds = _pd_order_sums(np.multiply(gaps, gaps, out=gaps))
    lowest = prediction.tiles[int(np.argmin(bounds))]
    cap = _losses_of(actual, columns, lowest[lowest >= 0]).min()
    keep = prediction.tiles[bounds <= cap]
    keep = keep[keep >= 0]
    losses = _losses_of(actual, columns, keep)
    least = losses.min()
    return int(keep[losses == least].min()), float(least)


def localize(measured: np.ndarray, baseline: np.ndarray, predicted, table: FingerprintTable,
             epsilon_detect: float = NOISELESS_DETECT_EPS) -> LocalizationResult:
    """Least-squares fingerprint match of measured power variations.

    ``predicted`` is Prediction.at(table, powers) of the powers the readings
    were taken under.  Given those powers (1-D) instead, as the benchmark's
    scaling ladder does, a detected call forms it.  The user counts as
    detected when any PD's variation reaches ``epsilon_detect``; otherwise
    the call returns at once.  A detected user is placed at the candidate
    whose loss, the squared misses (actual - predicted) ** 2 added one PD at
    a time in PD order, is least, ties broken toward the lowest index, and
    _best_candidate finds it and its loss bit for bit as a full scan would.
    Non-finite readings, and inputs that do not fit the table, raise
    ValueError.
    """
    measured = np.asarray(measured, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    k, _, n = table.shape
    if measured.shape != baseline.shape:
        raise ValueError(f"measured shape {measured.shape} != baseline {baseline.shape}")
    if measured.shape[0] != n:
        raise ValueError(f"{measured.shape[0]} PD readings for a {n}-PD fingerprint table")
    for name, values in (("measured", measured), ("baseline", baseline)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    if not isinstance(predicted, Prediction):
        powers = _checked_powers(table, predicted)
    elif predicted.values.shape != (k, n):
        raise ValueError(f"prediction shape {predicted.values.shape} does not fit a fingerprint "
                         f"table of {k} candidates and {n} PDs, ({k}, {n})")
    actual = np.abs(measured - baseline)
    if actual.max() < epsilon_detect:
        return LocalizationResult(position=None, index=None, loss=None)
    if not isinstance(predicted, Prediction):
        predicted = Prediction.at(table, powers)
    best, loss = _best_candidate(actual, predicted)
    pos = (float(table.candidates[best, 0]), float(table.candidates[best, 1]))
    return LocalizationResult(position=pos, index=best, loss=loss)


# ---------------------------------------------------------------------------
# Fingerprint persistence
# ---------------------------------------------------------------------------

def save_fingerprint(table: FingerprintTable) -> bytes:
    """Serialize as LFPT v2: magic, u16 version, u32 K, M, N, S, nx, ny; then
    float64 baseline (M, N), candidates (K, 2), user_emitter (M, K),
    user_collector (K, N), floor_emitter (M, K) and floor_collector (K, N);
    then S int32 (di, dj) stencil offsets; all little-endian."""
    head = _MAGIC + struct.pack(_HEADER, _VERSION, *table.shape, len(table.offsets),
                                *table.grid_shape)
    arrays = (table.baseline, table.candidates, *(getattr(table, name) for name in _FACTORS))
    return b"".join([head, *(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays),
                     np.array(table.offsets, dtype="<i4").tobytes()])


def load_fingerprint(blob: bytes) -> FingerprintTable:
    """The table that save_fingerprint wrote into ``blob``.  It holds the
    saved factors, so it predicts bit for bit like the saved table.

    Raises ValueError on a bad magic, a short or mis-sized blob, a version
    other than 2, no candidates, LEDs or PDs, K != nx * ny, a stencil offset
    off the grid, or a non-finite value, naming the section that holds it.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("not a fingerprint table (bad magic)")
    if len(blob) < _HEADER_LEN:
        raise ValueError(f"fingerprint blob is {len(blob)} bytes, expected at least {_HEADER_LEN}")
    version, k, m, n, s, nx, ny = struct.unpack_from(_HEADER, blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported fingerprint version {version}")
    for count, name in ((k, "candidates"), (m, "LEDs"), (n, "PDs")):
        if count == 0:
            raise ValueError(f"fingerprint has 0 {name}")
    if k != nx * ny:
        raise ValueError(f"fingerprint has {k} candidates for a {nx} x {ny} grid")
    expected = _HEADER_LEN + 8 * (m * n + 2 * k + 2 * k * (m + n) + s)
    if len(blob) != expected:
        raise ValueError(f"fingerprint blob is {len(blob)} bytes, expected {expected}")
    shapes = ((m, n), (k, 2), (m, k), (k, n), (m, k), (k, n))
    arrays, offset = {}, _HEADER_LEN
    for name, shape in zip(("baseline", "candidates", *_FACTORS), shapes):
        values = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=offset)
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite value in fingerprint {name}")
        arrays[name] = values.reshape(shape).copy()
        offset += values.nbytes
    pairs = np.frombuffer(blob, dtype="<i4", offset=offset).reshape(s, 2).tolist()
    offsets = tuple(map(tuple, pairs))
    off_grid = [(di, dj) for di, dj in offsets if abs(di) >= nx or abs(dj) >= ny]
    if off_grid:
        raise ValueError(f"fingerprint stencil offset {off_grid[0]} is off the {nx} x {ny} grid")
    return FingerprintTable(**arrays, offsets=offsets, grid_shape=(nx, ny))
