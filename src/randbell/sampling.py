"""Seedable generation of random measurement directions.

Every trial owns eight uniform doubles addressed by (master seed, trial
index) through numpy's counter-based Philox4x64-10 generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): the master seed is
the key, and trial i reads counter blocks 2i+1 and 2i+2.  Trial i's settings
therefore never depend on how many numbers any other trial consumed.  The
batched `uniform_block` used by the Monte Carlo hot loop and the scalar
`RandomSource` API read the same stream, so the two are bit-identical by
construction.

Uniform points on the sphere use the standard area-preserving map
(n_z uniform on [-1, 1], azimuth uniform); orthogonal pairs draw the second
axis uniformly on the great circle perpendicular to the first; orthogonal
triads are the columns of a rotation drawn Haar-uniformly from SO(3) via a
normalized Gaussian quaternion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantum import MeasurementDirection
from .tolerances import TABLE_ATOL

__all__ = [
    "RandomSource",
    "MeasurementTriad",
    "uniform_block",
    "direction_from_angles",
    "sample_direction",
    "sample_orthogonal_pair",
    "sample_orthogonal_triad",
    "rim_settings_from_uniforms",
    "rom_settings_from_uniforms",
    "rotm_settings_from_uniforms",
]

# Uniform draws owned by one trial: two Philox4x64 blocks of 4 words each.
_DRAWS = 8
_MASK64 = 0xFFFFFFFFFFFFFFFF


def uniform_block(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Uniform [0, 1) draws of trials [lo, hi), shape (hi - lo, 8).

    Row i is exactly the stream RandomSource(master_seed, lo + i) draws from.
    """
    # np.random is reached here rather than at import: processes that never
    # draw (the pool parent) stay smaller and start faster.
    bits = np.random.Philox(key=master_seed & _MASK64, counter=2 * lo)
    return np.random.Generator(bits).random(_DRAWS * (hi - lo)).reshape(hi - lo, _DRAWS)


@dataclass
class RandomSource:
    """Per-trial random stream, a pure function of (master seed, trial index).

    The stream is the trial's row of `uniform_block`: eight doubles from its
    own pair of counter blocks of the keyed Philox4x64-10 generator, so
    distinct trials are statistically independent.  Instances are
    single-owner: each trial constructs its own.
    """

    master_seed: int
    trial_index: int
    _position: int = field(default=0, repr=False)

    def __post_init__(self):
        self.master_seed = int(self.master_seed) & _MASK64
        self.trial_index = int(self.trial_index) & _MASK64

    def uniform(self, n: int) -> np.ndarray:
        """Next n uniform doubles in [0, 1) from this trial's stream."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        end = self._position + n
        if end > _DRAWS:
            raise ValueError(f"a trial's stream holds {_DRAWS} draws, {end} requested")
        row = uniform_block(self.master_seed, self.trial_index, self.trial_index + 1)[0]
        start, self._position = self._position, end
        return row[start:end]


@dataclass(frozen=True)
class MeasurementTriad:
    """Right-handed orthonormal triple of measurement directions."""

    d1: MeasurementDirection
    d2: MeasurementDirection
    d3: MeasurementDirection

    def __post_init__(self):
        vs = [self.d1.n, self.d2.n, self.d3.n]
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(float(vs[i] @ vs[j])) > TABLE_ATOL:
                    raise ValueError("triad directions are not orthogonal")
        if np.abs(np.cross(vs[0], vs[1]) - vs[2]).max() > TABLE_ATOL:
            raise ValueError("triad is not right-handed (d1 x d2 != d3)")

    def as_array(self) -> np.ndarray:
        return np.stack([self.d1.n, self.d2.n, self.d3.n])


def direction_from_angles(u, v) -> np.ndarray:
    """Bloch vector of sin(phi)|0> + e^{i v_phi} cos(phi)|1> for
    phi = arccos(2v - 1)/2 and v_phi = 2*pi*u.

    Equivalently n_z = 1 - 2v with azimuth 2*pi*u, the area-preserving map
    that carries the uniform measure on [0,1]^2 to the uniform measure on
    the sphere.  Broadcasts; scalars give one 3-vector.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0) or np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("u and v must lie in [0, 1]")
    nz = 1.0 - 2.0 * v
    rad = np.sqrt(np.maximum(0.0, 1.0 - nz * nz))
    az = 2.0 * np.pi * u
    return np.stack([rad * np.cos(az), rad * np.sin(az), nz], axis=-1)


def _perpendicular_circle_point(d1: np.ndarray, psi_uniform: np.ndarray) -> np.ndarray:
    """Point at angle 2*pi*psi_uniform on the unit circle perpendicular to d1.

    The in-plane basis (w, d1 x w) is built from whichever coordinate axis is
    least aligned with d1, so the construction never degenerates.
    """
    d1 = np.asarray(d1, dtype=float)
    ref = np.where(
        (np.abs(d1[..., 0]) > 0.9)[..., None],
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    w = np.cross(d1, ref)
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    psi = 2.0 * np.pi * np.asarray(psi_uniform, dtype=float)
    return (w * np.cos(psi)[..., None]
            + np.cross(d1, w) * np.sin(psi)[..., None])


def _rotation_from_quaternion_uniforms(u4: np.ndarray) -> np.ndarray:
    """Haar-uniform SO(3) rotations from 4 uniforms per row, shape (..., 3, 3).

    The quaternion components are standard normals obtained by Box-Muller so
    each rotation consumes exactly four uniform draws (a fixed budget keeps
    per-trial streams aligned; rejection-free).  log1p(-u) keeps the radius
    finite at u = 0.  A numerically zero quaternion (probability ~2^-106)
    falls back to the identity rotation.
    """
    u4 = np.asarray(u4, dtype=float)
    r1 = np.sqrt(-2.0 * np.log1p(-u4[..., 0]))
    t1 = 2.0 * np.pi * u4[..., 1]
    r2 = np.sqrt(-2.0 * np.log1p(-u4[..., 2]))
    t2 = 2.0 * np.pi * u4[..., 3]
    q = np.stack(
        [r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)],
        axis=-1,
    )
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    identity_q = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.where(norm > 0.0, q / np.where(norm == 0.0, 1.0, norm), identity_q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rot = np.empty(q.shape[:-1] + (3, 3))
    rot[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[..., 0, 1] = 2.0 * (x * y - w * z)
    rot[..., 0, 2] = 2.0 * (x * z + w * y)
    rot[..., 1, 0] = 2.0 * (x * y + w * z)
    rot[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[..., 1, 2] = 2.0 * (y * z - w * x)
    rot[..., 2, 0] = 2.0 * (x * z - w * y)
    rot[..., 2, 1] = 2.0 * (y * z + w * x)
    rot[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


# ---------------------------------------------------------------------------
# Batched per-scenario settings.  Column layout of the uniform matrix is the
# draw order of one trial's stream: party A first, then party B.
# ---------------------------------------------------------------------------

def rim_settings_from_uniforms(u: np.ndarray):
    """u: (B, 8) as (uA0, vA0, uA1, vA1, uB0, vB0, uB1, vB1) ->
    two direction arrays of shape (B, 2, 3)."""
    a = direction_from_angles(u[:, 0:4:2], u[:, 1:4:2])
    b = direction_from_angles(u[:, 4:8:2], u[:, 5:8:2])
    return a, b


def rom_settings_from_uniforms(u: np.ndarray):
    """u: (B, 8) as (uA, vA, psiA, uB, vB, psiB, unused, unused) ->
    (B, 2, 3) per party, second axis uniform on the circle perpendicular to
    the first."""
    out = []
    for k in (0, 3):
        d1 = direction_from_angles(u[:, k], u[:, k + 1])
        d2 = _perpendicular_circle_point(d1, u[:, k + 2])
        out.append(np.stack([d1, d2], axis=1))
    return out[0], out[1]


def rotm_settings_from_uniforms(u: np.ndarray):
    """u: (B, 8), four quaternion uniforms per party -> (B, 3, 3) per party;
    row k of each trial is the image of the k-th coordinate axis."""
    out = []
    for k in (0, 4):
        rot = _rotation_from_quaternion_uniforms(u[:, k:k + 4])
        out.append(rot.transpose(0, 2, 1))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Scalar sampling API.  Each function consumes a fixed number of draws from
# the trial's stream, matching the batched layout above.
# ---------------------------------------------------------------------------

def sample_direction(rng: RandomSource) -> MeasurementDirection:
    """One direction uniform on the Bloch sphere (consumes 2 draws)."""
    u = rng.uniform(2)
    return MeasurementDirection(direction_from_angles(u[0], u[1]))


def sample_orthogonal_pair(rng: RandomSource):
    """First direction uniform on the sphere, second uniform on its
    perpendicular great circle (consumes 3 draws)."""
    u = rng.uniform(3)
    d1 = direction_from_angles(u[0], u[1])
    d2 = _perpendicular_circle_point(d1, u[2])
    return MeasurementDirection(d1), MeasurementDirection(d2)


def sample_orthogonal_triad(rng: RandomSource) -> MeasurementTriad:
    """Images of the coordinate axes under a Haar-uniform rotation
    (consumes 4 draws)."""
    u = rng.uniform(4)
    rot = _rotation_from_quaternion_uniforms(u)
    return MeasurementTriad(
        MeasurementDirection(rot[:, 0]),
        MeasurementDirection(rot[:, 1]),
        MeasurementDirection(rot[:, 2]),
    )
