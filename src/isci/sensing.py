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

from .photometry import concentrator_gain, lambertian_order
from .scene import Led, Scene, SensingPd, UserModel

__all__ = [
    "SensingModel",
    "FingerprintTable",
    "LocalizationResult",
    "nlos_element_gain",
    "nlos_user_gain",
    "occluded_set",
    "received_sensing_power",
    "build_fingerprint_table",
    "predict_power_deltas",
    "localize",
    "save_fingerprint",
    "load_fingerprint",
]

_MAGIC = b"LFPT"
_VERSION = 1

NOISELESS_DETECT_EPS = 1e-12

# Distinct power vectors whose predictions a FingerprintTable keeps.  A
# scenario applies at most three: p_min and the two mode allocations.
_PREDICTION_MEMO_SIZE = 4

# Shared footprint-boundary guard so the per-candidate occlusion stencil and
# occluded_set agree on cells whose centers sit exactly at the radius.
_OCCLUSION_TOL = 1e-9

# Bytes of partial sums that _stencil_sum keeps per block of grid rows.  On a
# 10 m room at 0.05 m with 25 PDs that is 12 rows, which with the source rows
# they read (the block plus the stencil's reach) fit in a 2 MB L2 cache.
_STENCIL_BLOCK_BYTES = 1 << 19


def nlos_element_gain(led: Led, element_xy: Sequence[float], element_area: float,
                      reflectance: float, pd: SensingPd) -> float:
    """One-bounce gain LED -> floor element -> sensing PD (scalar reference)."""
    ex, ey = float(element_xy[0]), float(element_xy[1])
    return _one_bounce_gain(led, (ex, ey, 0.0), element_area, reflectance, pd)


def nlos_user_gain(led: Led, user_xy: Sequence[float], user: UserModel,
                   pd: SensingPd) -> float:
    """One-bounce gain LED -> user body patch -> sensing PD (scalar reference)."""
    ux, uy = float(user_xy[0]), float(user_xy[1])
    return _one_bounce_gain(led, (ux, uy, user.patch_height_m), user.patch_area_m2,
                            user.reflectance, pd)


def _one_bounce_gain(led: Led, patch: tuple[float, float, float], area: float,
                     reflectance: float, pd: SensingPd) -> float:
    px, py, pz = patch
    dz1 = led.position[2] - pz
    dz2 = pd.position[2] - pz
    if dz1 <= 0 or dz2 <= 0:
        raise ValueError("reflecting patch must lie below the ceiling")
    d1sq = (led.position[0] - px) ** 2 + (led.position[1] - py) ** 2 + dz1 * dz1
    d2sq = (pd.position[0] - px) ** 2 + (pd.position[1] - py) ** 2 + dz2 * dz2
    cos_emit = dz1 / math.sqrt(d1sq)       # irradiance angle at the LED
    cos_in = cos_emit                      # incidence on the horizontal patch
    cos_out = dz2 / math.sqrt(d2sq)        # emission from the patch
    cos_pd = cos_out                       # incidence at the ceiling PD
    psi_deg = math.degrees(math.acos(min(1.0, cos_pd)))
    if psi_deg > pd.fov_deg + 1e-12:
        return 0.0
    g = concentrator_gain(psi_deg, pd.refractive_index, pd.fov_deg)
    m = lambertian_order(led.half_power_angle_deg)
    return (reflectance * (m + 1.0) * pd.area_m2 * area
            * cos_emit**m * cos_pd * cos_in * cos_out * pd.filter_gain * g
            / (2.0 * math.pi**2 * d1sq * d2sq))


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
    product is the gain.

    The per-LED and per-PD constants are computed once per scene, so a
    per-step call for one user patch only evaluates the geometry.
    """

    def __init__(self, scene: Scene):
        m_ord = np.array([lambertian_order(led.half_power_angle_deg) for led in scene.leds])
        self.led_pos = scene.led_positions()
        self.exponent = m_ord + 1.0
        self.front = self.exponent / (2.0 * math.pi**2)
        self.pd_pos = scene.sensing_pd_positions()
        # FOV cut-off on cos(psi) and A_s * T_s * g(psi) inside the FOV, per PD
        self.cos_fov = np.array([math.cos(math.radians(pd.fov_deg)) - 1e-15
                                 for pd in scene.sensing_pds])
        self.collector_gain = np.array([
            pd.area_m2 * pd.filter_gain
            * (pd.refractive_index**2 / math.sin(math.radians(pd.fov_deg)) ** 2)
            for pd in scene.sensing_pds])

    def factors(self, points: np.ndarray, z: float,
                rho_area) -> tuple[np.ndarray, np.ndarray]:
        """Emitter factor (M, P), with ``rho_area`` (reflectance times area,
        per patch or shared by all) folded in, and collector factor (P, N)."""
        emitter = self.front[:, None] * self._emitter(points, z) * rho_area
        return emitter, self._collector(points, z)

    def _emitter(self, points: np.ndarray, z: float) -> np.ndarray:
        """cos^m(phi) * cos(alpha) / d^2 for every LED-to-patch pair, (M, P)."""
        led_pos = self.led_pos
        dz = led_pos[:, 2][:, None] - z
        dx = led_pos[:, 0][:, None] - points[:, 0][None, :]
        dy = led_pos[:, 1][:, None] - points[:, 1][None, :]
        d2 = dx * dx + dy * dy + dz * dz
        cos_ang = dz / np.sqrt(d2)
        return cos_ang ** self.exponent[:, None] / d2

    def _collector(self, points: np.ndarray, z: float) -> np.ndarray:
        """A_s * T_s * g(psi) * cos(beta) * cos(psi) / d^2 per patch-PD pair, (P, N)."""
        pd_pos = self.pd_pos
        dz = pd_pos[:, 2][None, :] - z
        dx = pd_pos[:, 0][None, :] - points[:, 0][:, None]
        dy = pd_pos[:, 1][None, :] - points[:, 1][:, None]
        d2 = dx * dx + dy * dy + dz * dz
        cos_ang = dz / np.sqrt(d2)
        return np.where(cos_ang >= self.cos_fov, self.collector_gain * cos_ang ** 2 / d2, 0.0)


class SensingModel:
    """One-bounce floor channels of a fixed scene, stored as their factors.

    The first-order diffuse gain LED i -> floor cell k -> PD j separates into
    emitter[i, k] * collector[k, j] (Kahn & Barry, Proc. IEEE 1997):
    ``emitter`` (M, K) holds the LED-side terms with the cell's reflectance
    times area folded in, ``collector`` (K, N) the PD-side terms.  Both are
    read-only.  No (M, K, N) array is kept: ``baseline_gains`` (M, N) is
    summed one LED at a time, ``received_power`` forms only the occluded
    cells' gains, and ``element_gains`` builds the full tensor on each access.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        self._kernel = _BounceKernel(scene)
        self._centers = _read_only(scene.grid.centers())
        emitter, collector = self._kernel.factors(
            self._centers, 0.0, scene.grid.reflectance_array() * scene.grid.cell_area)
        self.emitter, self.collector = _read_only(emitter), _read_only(collector)
        self.baseline_gains = np.array([(e[:, None] * collector).sum(axis=0)
                                        for e in emitter])

    @property
    def element_gains(self) -> np.ndarray:
        """Gains (M, K, N): LED i via floor cell k to PD j."""
        return _outer(self.emitter, self.collector)

    def user_gain(self, user_xy: Sequence[float]) -> np.ndarray:
        """Gain matrix (M, N) contributed by the user patch at ``user_xy``."""
        user = self.scene.user
        pt = np.array([[float(user_xy[0]), float(user_xy[1])]])
        return _outer(*self._kernel.factors(pt, user.patch_height_m,
                                            user.reflectance * user.patch_area_m2))[:, 0, :]

    def received_power(self, powers: np.ndarray,
                       user_xy: Optional[Sequence[float]] = None) -> np.ndarray:
        """Per-PD received optical power (N,), with or without a user."""
        powers = np.asarray(powers, dtype=float)
        gains = self.baseline_gains
        if user_xy is not None:
            occ = _occluded(self.scene, self._centers, user_xy)
            occluded = (_outer(self.emitter[:, occ], self.collector[occ]).sum(axis=1)
                        if len(occ) else 0.0)
            gains = gains - occluded + self.user_gain(user_xy)
        return powers @ gains


def received_sensing_power(scene: Scene, powers: np.ndarray,
                           user_xy: Optional[Sequence[float]] = None) -> np.ndarray:
    """One-shot wrapper around SensingModel.received_power."""
    return SensingModel(scene).received_power(powers, user_xy)


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
class _SeparableDeltas:
    """Fingerprint deltas as read-only factors: the gain change of a user at
    cell k is the user-patch gain outer(user_emitter[:, k], user_collector[k])
    minus the floor gains outer(floor_emitter[:, c], floor_collector[c])
    summed over the occluded cells c = k + offset."""

    user_emitter: np.ndarray     # (M, K) at the patch height
    user_collector: np.ndarray   # (K, N)
    floor_emitter: np.ndarray    # (M, K)
    floor_collector: np.ndarray  # (K, N)
    offsets: tuple[tuple[int, int], ...]
    grid_shape: tuple[int, int]  # (nx, ny)

    def dense(self) -> np.ndarray:
        """The (K, M, N) deltas."""
        occluded = _stencil_sum(_outer(self.floor_emitter, self.floor_collector),
                                self.offsets, self.grid_shape)
        deltas = _outer(self.user_emitter, self.user_collector) - occluded
        return np.ascontiguousarray(deltas.transpose(1, 0, 2))

    def predict(self, powers: np.ndarray) -> np.ndarray:
        """Signed power variation sum_i P_i * delta[k, i, j], (K, N)."""
        user = (powers @ self.user_emitter)[:, None] * self.user_collector
        floor = (powers @ self.floor_emitter)[:, None] * self.floor_collector
        return user - _stencil_sum(floor[None], self.offsets, self.grid_shape)[0]


class FingerprintTable:
    """Per-candidate gain deltas for power-scaled variation prediction.

    deltas[k, i, j] is the change in the gain LED i -> PD j that a user at
    candidate k causes.  ``FingerprintTable(candidates, baseline, deltas)``
    holds a dense (K, M, N) array, as load_fingerprint builds it.  A table
    from build_fingerprint_table holds the deltas' factors instead and keeps
    no (K, M, N) array: reading ``deltas`` builds one, on every access.
    ``shape`` is (K, M, N) for both.

    The arrays are read-only, so the predictions that predict_power_deltas
    memoizes on the table cannot go stale.
    """

    def __init__(self, candidates: np.ndarray, baseline: np.ndarray,
                 deltas: Optional[np.ndarray] = None, *,
                 factors: Optional[_SeparableDeltas] = None):
        if (deltas is None) == (factors is None):
            raise ValueError("a fingerprint table takes either deltas or factors")
        self.candidates = _read_only(candidates)  # (K, 2) floor cell centers
        self.baseline = _read_only(baseline)      # (M, N) no-user gain sums
        self._dense = None if deltas is None else _read_only(deltas)
        self._factors = factors
        self.shape = (self._dense.shape if factors is None
                      else (len(self.candidates), *self.baseline.shape))
        self._predictions: dict[bytes, np.ndarray] = {}

    @property
    def deltas(self) -> np.ndarray:
        """The (K, M, N) gain deltas, read-only."""
        if self._factors is None:
            return self._dense
        return _read_only(self._factors.dense())


@dataclass(frozen=True)
class LocalizationResult:
    position: Optional[tuple[float, float]]
    index: Optional[int]
    losses: np.ndarray
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
    user = scene.user
    user_emitter, user_collector = map(_read_only, model._kernel.factors(
        model._centers, user.patch_height_m, user.reflectance * user.patch_area_m2))
    factors = _SeparableDeltas(user_emitter, user_collector, model.emitter, model.collector,
                               _stencil_offsets(scene), (scene.grid.nx, scene.grid.ny))
    return FingerprintTable(model._centers, model.baseline_gains.copy(), factors=factors)


def predict_power_deltas(table: FingerprintTable, powers: np.ndarray) -> np.ndarray:
    """Predicted per-PD power variation for every candidate, (K, N).

    The prediction is |sum_i P_i * deltas[k, i, j]|.  A factored table forms
    it as (P @ user_emitter) times user_collector minus the stencil sum of
    (P @ floor_emitter) times floor_collector, without the (K, M, N) deltas.
    Predictions are memoized on the table per power vector, keyed by its
    exact float64 bytes, for the last few distinct vectors.  The returned
    array is read-only and shared between calls with equal powers.  It is
    the transpose view of a C-contiguous (N, K) array, so each PD's
    predictions are one contiguous K-vector for localize's loss scan.
    """
    powers = np.asarray(powers, dtype=float)
    n_leds = table.shape[1]
    if powers.ndim != 1:
        raise ValueError(f"powers must be a 1-D vector, got shape {powers.shape}")
    if len(powers) != n_leds:
        raise ValueError(f"{len(powers)} powers but the fingerprint table has {n_leds} LEDs")
    memo = table._predictions
    key = powers.tobytes()
    predicted = memo.pop(key, None)
    if predicted is None:
        signed = (np.einsum("kij,i->kj", table.deltas, powers) if table._factors is None
                  else table._factors.predict(powers))
        columns = np.abs(signed.T, out=np.empty(signed.shape[::-1]))
        columns.flags.writeable = False
        predicted = columns.T
        if len(memo) >= _PREDICTION_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[key] = predicted  # (re)inserted last: the memo evicts the least recently used
    return predicted


def _row_losses(actual: np.ndarray, predicted_t: np.ndarray) -> np.ndarray:
    """``((actual[None, :] - P) ** 2).sum(axis=1)`` for a C-contiguous (K, N)
    P equal to ``predicted_t.T``, bit for bit.

    numpy sums each length-N row of that array with its pairwise summation,
    one short inner loop per candidate.  This replays the same additions in
    the same order on the K-long rows of the (N, K) ``predicted_t``, so each
    numpy call covers every candidate at once.  The 0.0 that numpy's
    reduction starts from is left out: adding it does not change a sum of
    squares.
    """
    n, k = predicted_t.shape
    if n > 128:  # numpy's PW_BLOCKSIZE
        half = n // 2 - (n // 2) % 8
        acc = _row_losses(actual[:half], predicted_t[:half])
        acc += _row_losses(actual[half:], predicted_t[half:])
        return acc
    scratch = np.empty(k)

    def square(j: int, out: np.ndarray) -> np.ndarray:
        np.subtract(actual[j], predicted_t[j], out=out)
        return np.multiply(out, out, out=out)

    if n < 8:
        acc, rest = np.zeros(k), 0
    else:
        r = [square(j, np.empty(k)) for j in range(8)]
        rest = n - n % 8
        for i in range(8, rest, 8):
            for j in range(8):
                r[j] += square(i + j, scratch)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        acc = r[0]
    for j in range(rest, n):
        acc += square(j, scratch)
    return acc


def localize(measured: np.ndarray, baseline: np.ndarray, powers: np.ndarray,
             table: FingerprintTable,
             epsilon_detect: float = NOISELESS_DETECT_EPS) -> LocalizationResult:
    """Least-squares fingerprint match of measured power variations.

    The user counts as detected when any PD's variation reaches
    ``epsilon_detect``; the estimate is the loss-minimizing candidate, ties
    broken toward the lowest index.  The predicted variations come from
    predict_power_deltas, so a call with a power vector seen recently reuses
    the table's memoized prediction instead of forming it again.  The losses
    are summed over that prediction's (N, K) layout, one K-long PD column at
    a time, in the order numpy's row sum adds them on a row-major (K, N)
    array, so they equal ``((actual - predicted) ** 2).sum(axis=1)`` on a
    C-contiguous copy of the prediction bit for bit.
    """
    measured = np.asarray(measured, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    if measured.shape != baseline.shape:
        raise ValueError(f"measured shape {measured.shape} != baseline {baseline.shape}")
    if measured.shape[0] != table.shape[2]:
        raise ValueError(f"{measured.shape[0]} PD readings for a "
                         f"{table.shape[2]}-PD fingerprint table")
    actual = np.abs(measured - baseline)
    predicted = predict_power_deltas(table, powers)
    losses = _row_losses(actual, predicted.T)
    detected = bool(actual.max() >= epsilon_detect)
    if not detected:
        return LocalizationResult(position=None, index=None, losses=losses,
                                  detected=False)
    k = int(np.argmin(losses))
    pos = (float(table.candidates[k, 0]), float(table.candidates[k, 1]))
    return LocalizationResult(position=pos, index=k, losses=losses, detected=True)


# ---------------------------------------------------------------------------
# Fingerprint persistence
# ---------------------------------------------------------------------------

def save_fingerprint(table: FingerprintTable) -> bytes:
    """Serialize: magic, u16 version, u32 K/M/N, then baseline (M*N f64),
    candidate coordinates (K*2 f64) and deltas (K*M*N f64), little-endian."""
    deltas = table.deltas
    k, m, n = deltas.shape
    head = _MAGIC + struct.pack("<H", _VERSION) + struct.pack("<III", k, m, n)
    body = (np.ascontiguousarray(table.baseline, dtype="<f8").tobytes()
            + np.ascontiguousarray(table.candidates, dtype="<f8").tobytes()
            + np.ascontiguousarray(deltas, dtype="<f8").tobytes())
    return head + body


def load_fingerprint(blob: bytes) -> FingerprintTable:
    if blob[:4] != _MAGIC:
        raise ValueError("not a fingerprint table (bad magic)")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported fingerprint version {version}")
    k, m, n = struct.unpack_from("<III", blob, 6)
    offset = 18
    expected = offset + 8 * (m * n + 2 * k + k * m * n)
    if len(blob) != expected:
        raise ValueError(f"fingerprint blob is {len(blob)} bytes, expected {expected}")
    baseline = np.frombuffer(blob, dtype="<f8", count=m * n, offset=offset).reshape(m, n)
    offset += 8 * m * n
    candidates = np.frombuffer(blob, dtype="<f8", count=2 * k, offset=offset).reshape(k, 2)
    offset += 16 * k
    deltas = np.frombuffer(blob, dtype="<f8", count=k * m * n, offset=offset).reshape(k, m, n)
    return FingerprintTable(candidates=candidates.copy(), baseline=baseline.copy(),
                            deltas=deltas.copy())
