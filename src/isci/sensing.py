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

# PDs whose partial losses bound the full loss from below in _best_candidate:
# the ones with the largest variation.  On loop-large (K = 40 000, N = 25),
# 2, 3 and 4 PDs gave step times within noise of each other; 4 keeps more
# of the loss, so fewer candidates survive the bound when readings are noisy.
_BOUND_PDS = 4

# _best_candidate falls back to the full scan when more than K // 8
# candidates survive the bound: gathering and rescanning them would cost
# more than the scan it saves.  Without the fallback, a loop-large match
# whose bound kept most candidates took 15.6-16.8 ms, against about 1.2 ms
# for a full scan; with it, the slowest of 85 noisy matches took 1.9 ms.
_PRUNE_FRACTION = 8

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
            occluded = (_outer(self.emitter[:, occ], self.collector[occ]).sum(axis=1)
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
    least-squares loss, all None when nobody is detected."""

    position: Optional[tuple[float, float]]
    index: Optional[int]
    loss: Optional[float]
    detected: bool


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
    are one contiguous K-vector, and localize sums the losses over those
    vectors in PD order.
    """
    signed = table.predict(_checked_powers(table, powers))
    columns = np.abs(signed.T, out=np.empty(signed.shape[::-1]))
    columns.flags.writeable = False
    return columns.T


def _pd_order_losses(actual: np.ndarray, columns: np.ndarray, pds) -> np.ndarray:
    """Per candidate (column), the sum over the PDs (rows) ``pds`` of
    (actual[j] - columns[j]) ** 2, added one PD at a time in that order."""
    first, *rest = pds
    losses = np.subtract(actual[first], columns[first])
    np.multiply(losses, losses, out=losses)
    scratch = np.empty_like(losses)
    for j in rest:
        np.subtract(actual[j], columns[j], out=scratch)
        losses += np.multiply(scratch, scratch, out=scratch)
    return losses


def _losses_of(actual: np.ndarray, columns: np.ndarray, keep) -> np.ndarray:
    """_pd_order_losses over every PD for the candidates ``keep`` only: the
    same terms, added in the same order."""
    terms = actual[:, None] - columns[:, keep]
    np.multiply(terms, terms, out=terms)
    losses = terms[0]
    for row in terms[1:]:
        losses += row
    return losses


def _best_candidate(actual: np.ndarray, columns: np.ndarray) -> tuple[int, float]:
    """Index and loss of the first candidate with the least PD-order loss
    sum over j of (actual[j] - columns[j, k]) ** 2, bit for bit as a full
    scan finds them, from the (N, K) prediction ``columns``.

    The loss over the _BOUND_PDS largest readings, summed in PD order, is a
    lower bound on the full loss: every term is the same float in both sums,
    the terms are nonnegative and rounding is monotone.  So a candidate
    whose bound exceeds the full loss of the bound's own argmin cannot win,
    and only the rest get a full loss.  Ties survive the ``<=``, so the
    lowest index still wins them.
    """
    n, k = columns.shape
    if n > _BOUND_PDS:
        pds = np.sort(np.argpartition(actual, n - _BOUND_PDS)[n - _BOUND_PDS:])
        bound = _pd_order_losses(actual, columns, pds)
        misses = actual - columns[:, int(np.argmin(bound))]
        best = 0.0  # the bound's argmin's full loss, from the same terms in the same order
        for term in (misses * misses).tolist():
            best += term
        keep = np.flatnonzero(bound <= best)
        if len(keep) <= k // _PRUNE_FRACTION:
            losses = _losses_of(actual, columns, keep)
            i = int(np.argmin(losses))
            return int(keep[i]), float(losses[i])
    losses = _pd_order_losses(actual, columns, range(n))
    i = int(np.argmin(losses))
    return i, float(losses[i])


def localize(measured: np.ndarray, baseline: np.ndarray, predicted: np.ndarray,
             table: FingerprintTable,
             epsilon_detect: float = NOISELESS_DETECT_EPS) -> LocalizationResult:
    """Least-squares fingerprint match of measured power variations.

    ``predicted`` is predict_power_deltas(table, powers), (K, N), at the
    powers the readings were taken under.  Given those powers (1-D) instead,
    as the benchmark's scaling ladder does, a detected call forms it.  The
    user counts as detected when any PD's variation reaches
    ``epsilon_detect``; otherwise the call returns at once.  A detected user
    is placed at the candidate whose loss ``((actual - predicted) **
    2).sum(axis=1)`` is least, ties broken toward the lowest index, and
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
    predicted = np.asarray(predicted, dtype=float)
    if predicted.ndim == 1:
        predicted = _checked_powers(table, predicted)
    elif predicted.shape != (k, n):
        raise ValueError(f"prediction shape {predicted.shape} does not fit a fingerprint "
                         f"table of {k} candidates and {n} PDs, ({k}, {n})")
    actual = np.abs(measured - baseline)
    if actual.max() < epsilon_detect:
        return LocalizationResult(position=None, index=None, loss=None, detected=False)
    if predicted.ndim == 1:
        predicted = predict_power_deltas(table, predicted)
    best, loss = _best_candidate(actual, predicted.T)
    pos = (float(table.candidates[best, 0]), float(table.candidates[best, 1]))
    return LocalizationResult(position=pos, index=best, loss=loss, detected=True)


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
    other than 2, K != nx * ny, a stencil offset off the grid, or a
    non-finite value, naming the section that holds it.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("not a fingerprint table (bad magic)")
    if len(blob) < _HEADER_LEN:
        raise ValueError(f"fingerprint blob is {len(blob)} bytes, expected at least {_HEADER_LEN}")
    version, k, m, n, s, nx, ny = struct.unpack_from(_HEADER, blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported fingerprint version {version}")
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
