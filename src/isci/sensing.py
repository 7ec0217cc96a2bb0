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

from .photometry import _checked_powers, _collector_terms, _lambertian_geometry, _lambertian_orders
from .scene import Led, Scene, SensingPd

__all__ = [
    "SensingModel",
    "FingerprintTable",
    "LocalizationResult",
    "Prediction",
    "build_fingerprint_table",
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
# _best_candidate's losses; a Prediction holds one slab per tile.  On
# loop-large (K = 40 000, N = 25), with slabs, a detected step's match took
# a median 97 us with 8 x 8 tiles, 187 us with 4 x 4 (four times the bounds
# to form), 70 us with 12 x 12 and 94 us with 16 x 16 (more candidates left
# to rescore), in one process on one 2-core x86-64 host; yet whole replays
# with 12 x 12 ran 5% fewer steps a second (faster in 3 of 16 rounds).
_TILE = 8

# Shared footprint-boundary guard so the per-candidate occlusion stencil and
# occluded_set agree on cells whose centers sit exactly at the radius.
_OCCLUSION_TOL = 1e-9

# Bytes of partial sums that _stencil_sum keeps per block of a band's grid
# rows.  On a 10 m room at 0.05 m with 25 PDs that is 13 rows, which with
# the source rows they read (the block plus the stencil's reach) fit in a
# 2 MB L2 cache.
_STENCIL_BLOCK_BYTES = 1 << 19

# Bytes of the signed prediction that FingerprintTable._signed_bands forms
# per band of whole tile rows (one tile row at least).  A band also holds its
# floor term over the stencil's row reach on either side, so a prediction
# holds about two bands besides what it keeps, never a (K, N) array.  On
# loop-large (200-cell rows, 25 PDs) a band is 24 rows; the default scene's
# 50 x 50 grid is one band.
_BAND_BYTES = 1 << 20

# Bytes of each array that _BounceKernel.factors forms per block of grid rows
# over the PDs; a block holds at most four at once.  On loop-large (200-cell
# rows, 25 PDs) that is 6 rows, and its set-up's two factor calls took a
# median 41.0 ms against 48.7 ms with 64 KB blocks and 42.9 ms with 2 MB ones
# (one process, 15 interleaved rounds, one 2-core x86-64 host); the default
# scene's took 1.23 ms, and 0.96 ms with 64 KB.  With the whole grid in one
# block the PDs' geometry would hold several (K, N) arrays at once, 8 MB each
# on loop-large.
_FACTOR_BLOCK_BYTES = 1 << 18


def occluded_set(scene: Scene, user_xy: Sequence[float]) -> np.ndarray:
    """Indices, ascending, of the floor cells whose centers fall inside the
    user footprint.  A user outside the room occludes nothing."""
    ux, uy = float(user_xy[0]), float(user_xy[1])
    radius = scene.user.footprint_radius_m
    if radius <= 0 or not scene.room.contains_xy(ux, uy):
        return np.empty(0, dtype=int)
    # Only cells in the footprint's bounding box, widened by a cell against
    # rounding, can be inside it; their centers are the grid's (i + 0.5) * pitch
    grid = scene.grid
    limit = radius + _OCCLUSION_TOL
    ix = np.arange(max(0, int((ux - limit) / grid.pitch) - 1),
                   min(grid.nx, int((ux + limit) / grid.pitch) + 2))[:, None]
    iy = np.arange(max(0, int((uy - limit) / grid.pitch) - 1),
                   min(grid.ny, int((uy + limit) / grid.pitch) + 2))
    inside = np.hypot((ix + 0.5) * grid.pitch - ux, (iy + 0.5) * grid.pitch - uy) <= limit
    return (ix * grid.ny + iy)[inside]


def _read_only(values) -> np.ndarray:
    """``values`` as an array, read-only down to the array that owns its memory."""
    arr = view = np.asarray(values)
    while isinstance(view, np.ndarray):
        view.flags.writeable = False
        view = view.base
    return arr


class _BounceKernel:
    """One-bounce gains LED i -> horizontal patch k at height z -> PD j, as
    an emitter factor (M, P) and a collector factor (P, N) whose outer
    product over LEDs and PDs, patch by patch, is the gain, both on
    photometry's Lambertian geometry.

    The per-LED and per-PD constants are computed once, so a per-step call
    for one user patch only evaluates the geometry.
    """

    def __init__(self, leds: Sequence[Led], pds: Sequence[SensingPd]):
        # x, y and z of the LEDs then the PDs, each contiguous: numpy
        # subtracts from those sooner.  A point takes them whole, a grid the
        # LEDs' ahead of its two axes and the PDs' after them.
        positions = [led.position for led in leds] + [pd.position for pd in pds]
        self.ends = tuple(np.array(positions, dtype=float).T.copy())
        # per-LED columns: the Lambertian exponent m + 1 and front (m + 1) / (2 pi^2)
        self.exponent = (_lambertian_orders(leds) + 1.0)[:, None]
        self.front = self.exponent / (2.0 * math.pi**2)
        # FOV cut-off on cos(psi) and A_s * T_s * g(psi) inside the FOV, per PD
        self.cos_fov, self.collector_gain = _collector_terms(pds)

    def factors(self, x: np.ndarray, y: np.ndarray, z: float,
                rho_area) -> tuple[np.ndarray, np.ndarray]:
        """Emitter factor (M, P), front * cos^m(phi) * cos(alpha) / d^2 with
        ``rho_area`` (reflectance times area, per patch or shared by all)
        folded in, and collector factor (P, N),
        A_s * T_s * g(psi) * cos(beta) * cos(psi) / d^2 inside each PD's FOV,
        over the P = nx * ny patches, x-major, of the grid with row
        coordinates ``x`` (nx, 1) and column coordinates ``y`` (1, ny).

        The LEDs' geometry is formed over the whole grid in the emitter's
        (M, nx, ny) layout, and the power taken over all P at once: numpy's
        power on a broadcast exponent rounds some elements differently with
        the extent of its loop.  The PDs' is formed a block of grid rows at
        a time in the collector's (rows, ny, N) layout and written straight
        into it."""
        m = len(self.front)
        d2, cos_ang = _lambertian_geometry([a[:m, None, None] for a in self.ends], x, y, z)
        _, nx, ny = cos_ang.shape
        # not in place: numpy's in-place power took 4x as long
        emitter = np.power(cos_ang.reshape(m, -1), self.exponent)
        np.divide(emitter, d2.reshape(m, -1), out=emitter)
        del d2, cos_ang  # the full (M, P) geometry goes before the collector comes
        np.multiply(self.front, emitter, out=emitter)
        np.multiply(emitter, rho_area, out=emitter)
        # zeros outside each PD's FOV, which the masked divide leaves alone
        collector = np.zeros((nx, ny, len(self.cos_fov)))
        rows = _FACTOR_BLOCK_BYTES // collector[0].nbytes or 1
        y = y[..., None]
        for start in range(0, nx, rows):
            d2, cos_ang = _lambertian_geometry([a[m:] for a in self.ends],
                                               x[start:start + rows, :, None], y, z)
            np.divide(self.collector_gain * (cos_ang * cos_ang), d2,
                      out=collector[start:start + rows], where=cos_ang >= self.cos_fov)
        return emitter, collector.reshape(nx * ny, -1)

    def point(self, x: float, y: float, z, rho_area) -> tuple[np.ndarray, np.ndarray]:
        """Emitter (M,) and collector (N,) factors through one patch at
        (``x``, ``y``), the floats ``factors`` gives for a 1 x 1 grid there,
        from one geometry call over the LEDs and PDs together."""
        d2, cos_ang = _lambertian_geometry(self.ends, x, y, z)
        m = len(self.front)
        emitter = cos_ang[:m] ** self.exponent[:, 0] / d2[:m] * self.front[:, 0] * rho_area
        cos_pd = cos_ang[m:]
        # times 1 inside each PD's FOV and 0 outside, where the factor is finite and >= 0
        return emitter, self.collector_gain * (cos_pd * cos_pd) / d2[m:] * (cos_pd >= self.cos_fov)


class SensingModel:
    """One-bounce floor channels of a fixed scene, stored as their factors.

    The first-order diffuse gain LED i -> floor cell k -> PD j separates into
    emitter[i, k] * collector[k, j] (Kahn & Barry, Proc. IEEE 1997):
    ``emitter`` (M, K) holds the LED-side terms with the cell's reflectance
    times area folded in, ``collector`` (K, N) the PD-side terms.  Both are
    read-only.  No (M, K, N) array is kept, and no gain matrix is formed per
    reading: ``baseline_gains`` (M, N), read-only too, is their product, and
    ``received_power`` forms a reading with a user in the power domain, from
    the occluded cells' factors and the user patch's.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        self._kernel = _BounceKernel(scene.leds, scene.sensing_pds)
        self.centers = _read_only(scene.grid.centers())
        emitter, collector = self._kernel.factors(
            *scene.grid.coordinates(), 0.0, scene.grid.reflectance_array() * scene.grid.cell_area)
        self.emitter, self.collector = _read_only(emitter), _read_only(collector)
        self.baseline_gains = _read_only(self.emitter @ self.collector)
        # the patch height and reflectance times area as 0-d arrays, which
        # numpy combines with a small array sooner than Python floats
        user = scene.user
        self._patch = (np.array(user.patch_height_m),
                       np.array(user.reflectance * user.patch_area_m2))

    def received_power(self, powers: np.ndarray,
                       user_xy: Optional[Sequence[float]] = None) -> np.ndarray:
        """Per-PD received optical power (N,) at LED ``powers`` (M,):
        ``powers @ baseline_gains``, and with a user at ``user_xy`` that
        minus ``(powers @ emitter[:, occ]) @ collector[occ]`` over the
        occluded cells plus ``(powers @ u_e) * u_c`` for the user patch's
        factors, in O(M P + P N) for P occluded cells.  Powers that are not
        M finite values raise ValueError."""
        powers = _checked_powers(powers, len(self.emitter), "sensing model")
        reading = powers @ self.baseline_gains
        if user_xy is None:
            return reading
        occ = occluded_set(self.scene, user_xy)
        # take gathers C-ordered: the matvec on an F-ordered gather rounds differently
        reading -= (powers @ self.emitter.take(occ, axis=1)) @ self.collector.take(occ, axis=0)
        user_emitter, user_collector = self._kernel.point(float(user_xy[0]), float(user_xy[1]),
                                                          *self._patch)
        reading += (powers @ user_emitter) * user_collector
        return reading


def _stencil_offsets(scene: Scene) -> tuple[tuple[int, int], ...]:
    """Grid index offsets (di, dj) of the cells that a user centred on a cell
    occludes."""
    grid, radius = scene.grid, scene.user.footprint_radius_m
    reach = int(radius / grid.pitch) + 1 if radius > 0 else -1
    limit = radius + _OCCLUSION_TOL
    return tuple((di, dj) for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)
                 if grid.pitch * math.hypot(di, dj) <= limit)


def _stencil_sum(src: np.ndarray, first: int, out: np.ndarray, start: int,
                 offsets: Sequence[tuple[int, int]], nx: int) -> None:
    """Into ``out``, rows ``start`` on of an x-major (nx, ny, N) grid, the
    sum for every cell k of ``src[c]`` over the cells c = k + offset that
    lie on the grid, offsets in the given order.

    ``src`` holds the grid's rows from ``first`` on, every row the offsets
    reach from ``out``'s.  The sum runs over shifted views one block of rows
    at a time, so a block's partial sums stay in cache across all offsets;
    each element of ``out`` gets its additions from zero in offset order.
    """
    out.fill(0.0)
    ny = out.shape[1]
    stop = start + len(out)
    rows = max(1, _STENCIL_BLOCK_BYTES // out[0].nbytes)
    for block in range(start, stop, rows):
        end = min(block + rows, stop)
        for di, dj in offsets:
            lo, hi = max(block, -di), min(end, nx - di)
            if lo < hi:
                into = out[lo - start:hi - start, max(0, -dj):ny - max(0, dj)]
                np.add(into, src[lo + di - first:hi + di - first, max(0, dj):ny + min(0, dj)],
                       out=into)


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
    read-only.  Tables compare by identity.  An offset that reaches no cell
    of the (nx, ny) grid, |di| >= nx or |dj| >= ny, raises ValueError.
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
        nx, ny = self.grid_shape
        off_grid = [(di, dj) for di, dj in self.offsets if abs(di) >= nx or abs(dj) >= ny]
        if off_grid:
            raise ValueError(f"fingerprint stencil offset {off_grid[0]} is off the "
                             f"{nx} x {ny} grid")
        for name in ("candidates", "baseline", *_FACTORS):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.candidates), *self.baseline.shape)

    # Kept only for bench/worker.py, which sizes a table by its dense deltas (ROADMAP item 1).
    @property
    def deltas(self) -> np.ndarray:
        """The (K, M, N) gain deltas, read-only: deltas[:, i] is the signed
        prediction at LED i's unit power vector, written band by band."""
        deltas = np.empty(self.shape)
        rows = deltas.reshape(*self.grid_shape, *self.shape[1:])
        for i, unit in enumerate(np.eye(self.shape[1])):
            for start, band in self._signed_bands(unit):
                rows[start:start + len(band), :, i] = band[:len(rows) - start, :rows.shape[1]]
        return _read_only(deltas)

    def _signed_bands(self, powers: np.ndarray):
        """Yield (start, band): the signed prediction at ``powers`` on grid
        rows ``start`` on, (rows, columns, N), one band of whole tile rows at
        a time under _BAND_BYTES.  A band is padded with NaN to whole tiles
        on both axes, so band[:nx - start, :ny] holds the grid's cells.  Each
        band is the user term minus the stencil sum, from zeros, of the floor
        term formed over the band's rows and the stencil's row reach.  A band
        lives in a buffer that the next one reuses.

        powers @ emitter is formed once over all K candidates for each term:
        a matvec over a slice can round differently.  All else is
        elementwise, so each band holds the floats a whole-grid formation
        would."""
        _, _, n = self.shape
        nx, ny = self.grid_shape
        user_w = (powers @ self.user_emitter).reshape(nx, ny, 1)
        floor_w = (powers @ self.floor_emitter).reshape(nx, ny, 1)
        user_c = self.user_collector.reshape(nx, ny, n)
        floor_c = self.floor_collector.reshape(nx, ny, n)
        reach = max((abs(di) for di, _ in self.offsets), default=0)
        rows = max(1, _BAND_BYTES // (8 * ny * n) // _TILE) * _TILE
        # x + -x % _TILE is x cells rounded up to whole tiles
        padded = np.full((min(rows, nx + -nx % _TILE), ny + -ny % _TILE, n), np.nan)
        terms = np.empty((min(rows + 2 * reach, nx), ny, n))
        for start in range(0, nx, rows):
            stop = min(start + rows, nx)
            first, last = max(0, start - reach), min(nx, stop + reach)
            floor = np.multiply(floor_w[first:last], floor_c[first:last], out=terms[:last - first])
            band = padded[:stop - start, :ny]
            _stencil_sum(floor, first, band, start, self.offsets, nx)
            # the floor term is spent, and the user term takes its buffer
            user = np.multiply(user_w[start:stop], user_c[start:stop], out=terms[:stop - start])
            np.subtract(user, band, out=band)
            band = padded[:stop - start + (start - stop) % _TILE]
            band[stop - start:] = np.nan  # a short last band's rows past the grid
            yield start, band


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
                            *model._kernel.factors(*scene.grid.coordinates(), *model._patch),
                            model.emitter, model.collector, _stencil_offsets(scene),
                            (scene.grid.nx, scene.grid.ny))


@dataclass(frozen=True, eq=False)
class Prediction:
    """A table's prediction at some powers, laid out tile by tile, with the
    envelopes that _best_candidate bounds losses by.

    The x-major (nx, ny) candidate grid is cut into _TILE x _TILE tiles,
    smaller at the far edges.  ``tiles`` (T, _TILE ** 2) holds each tile's
    candidate indices in ascending order, padded with -1.  ``slabs``
    (T, N, _TILE ** 2) holds the prediction |sum_i P_i * delta[k, i, j]| in
    the same order: slabs[t, j, s] is the prediction at PD j of candidate
    tiles[t, s], and +inf where that is a pad, so a pad never wins a match.
    ``lo`` and ``hi`` (N, T) hold each tile's least and greatest prediction
    per PD over its candidates.  ``shape`` is the (K, N) of the prediction.
    No (K, N) array is formed: Prediction.at writes each band of the signed
    prediction's absolute values straight into the slabs, so forming one
    holds about two bands (_BAND_BYTES) besides what it keeps.  The arrays
    are read-only.
    """

    slabs: np.ndarray   # (T, N, _TILE ** 2)
    lo: np.ndarray      # (N, T)
    hi: np.ndarray      # (N, T)
    tiles: np.ndarray   # (T, _TILE ** 2)
    shape: tuple[int, int]

    @classmethod
    def at(cls, table: FingerprintTable, powers) -> "Prediction":
        """The prediction of ``table`` at ``powers`` and its envelopes over
        the table's candidate grid; powers that do not fit raise ValueError."""
        k, m, n = table.shape
        nx, ny = table.grid_shape
        columns = -(-ny // _TILE)
        # slab (tile row, tile column): PD, then x and y within the tile
        slabs = np.empty((-(-nx // _TILE), columns, n, _TILE, _TILE))
        for start, band in table._signed_bands(_checked_powers(powers, m, "fingerprint table")):
            into = slabs[start // _TILE:(start + len(band)) // _TILE]
            np.abs(band.reshape(-1, _TILE, columns, _TILE, n), out=into.transpose(0, 3, 1, 4, 2))
        # the slots past the grid's far edges, empty where a side is whole
        pads = (slabs[-1, :, :, nx % _TILE or _TILE:], slabs[:, -1, :, :, ny % _TILE or _TILE:])
        slabs = slabs.reshape(-1, n, _TILE * _TILE)
        # the envelopes skip the pads' NaN, and the pads are then set to +inf
        hi, lo = (_read_only(np.ascontiguousarray(reduce.reduce(slabs, axis=2).T))
                  for reduce in (np.fmax, np.fmin))
        for view in pads:
            view[...] = np.inf
        padded = np.pad(np.arange(nx * ny).reshape(nx, ny),
                        ((0, -nx % _TILE), (0, -ny % _TILE)), constant_values=-1)
        tiles = padded.reshape(-1, _TILE, columns, _TILE).swapaxes(1, 2)
        return cls(_read_only(slabs), lo, hi, _read_only(tiles.reshape(-1, _TILE * _TILE)),
                   (k, n))


def _tile_losses(actual: np.ndarray, prediction: Prediction, tiles) -> np.ndarray:
    """Per slab slot of ``prediction``'s tile ``tiles`` (an index, or an
    index array), the loss sum over PDs j of (actual[j] - predicted[j]) ** 2,
    (_TILE ** 2,) or (C, _TILE ** 2); pads lose +inf.  Each tile is one
    contiguous block.  The PD axis is not the fast one, so numpy's reduce
    adds the squared misses one PD at a time, in PD order."""
    terms = prediction.slabs.take(tiles, axis=0)
    np.subtract(actual[:, None], terms, out=terms)
    return np.add.reduce(np.multiply(terms, terms, out=terms), axis=-2)


def _pd_order_sums(terms: np.ndarray) -> np.ndarray:
    """Column sums of the C-contiguous ``terms`` (N, C), added one row at a
    time in PD order.  numpy sums pairwise only along the fast axis, so its
    reduce down the rows adds them in order whenever C >= 2; a lone column
    is the fast axis, so it is added by a loop over the rows, in place."""
    if terms.shape[1] >= 2:
        return np.add.reduce(terms, axis=0)
    sums = terms[0]
    for row in terms[1:]:
        sums += row
    return sums


def _best_candidate(actual: np.ndarray, prediction: Prediction) -> tuple[int, float]:
    """Index and loss of the first candidate with the least PD-order loss
    sum over j of (actual[j] - predicted[k, j]) ** 2, bit for bit as a full
    scan finds them (branch and bound, Fukunaga & Narendra 1975).

    A tile's bound sums, in the same PD order, d ** 2 for
    d = min(max(a, lo), hi) - a: that is lo - a below the envelope, hi - a
    above it (rounding is symmetric, so it is exactly -(a - hi)) and 0
    inside, so d ** 2 is max(lo - a, a - hi, 0) ** 2 for every float.  Each of its terms is at most the matching
    term of every candidate in the tile, since rounding is monotone, so the
    bound is at most each member's loss, bit for bit.  The least loss in
    the lowest-bound tile caps the minimum, so only tiles whose bound does
    not exceed it are rescored.  Ties survive the ``<=``, and the least
    index among the least losses wins; pads are never it.  When every tile
    survives, the rescore costs about twice a full scan.
    """
    reading = actual[:, None]
    gaps = np.maximum(reading, prediction.lo)
    np.minimum(gaps, prediction.hi, out=gaps)
    np.subtract(gaps, reading, out=gaps)
    bounds = _pd_order_sums(np.multiply(gaps, gaps, out=gaps))
    cap = _tile_losses(actual, prediction, int(np.argmin(bounds))).min()
    kept = np.flatnonzero(bounds <= cap)
    losses = _tile_losses(actual, prediction, kept)
    least = losses.min()
    members = prediction.tiles[kept][losses == least]
    return int(members[members >= 0].min()), float(least)


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
    _best_candidate finds it and its loss bit for bit as a full scan would,
    reading the slabs of only the tiles its bound cannot rule out.  A
    Prediction whose ``shape`` is not the table's (K, N), non-finite
    readings, inputs that do not fit the table and an
    ``epsilon_detect`` that is not finite and positive raise ValueError: at
    0 an empty room's zero variation would count as a user.
    """
    if not (math.isfinite(epsilon_detect) and epsilon_detect > 0):
        raise ValueError(f"epsilon_detect must be finite and positive, got {epsilon_detect}")
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
    # The power-vector form is kept only for bench/worker.py's ladder (ROADMAP item 1).
    if not isinstance(predicted, Prediction):
        powers = _checked_powers(predicted, table.shape[1], "fingerprint table")
    elif predicted.shape != (k, n):
        raise ValueError(f"prediction shape {predicted.shape} does not fit a fingerprint "
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
    return FingerprintTable(**arrays, offsets=tuple(map(tuple, pairs)), grid_shape=(nx, ny))
