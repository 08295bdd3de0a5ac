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
(n_z uniform on [-1, 1], azimuth uniform).  Orthogonal triads are the
columns of a rotation drawn Haar-uniformly from SO(3) via a normalized
Gaussian quaternion, and orthogonal pairs are the first two axes of that
triad, so ROM settings are ROTM settings restricted to two per party.

The scalar samplers build these directions one trial at a time, as the
oracle.  The Monte Carlo kernel never builds them: `rim_coordinates` and
`triad_coordinates` map a block of uniforms straight to the numbers its
Born probabilities need (see the layout below).
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
    "rim_coordinates",
    "triad_coordinates",
]

# Uniform draws owned by one trial: two Philox4x64 blocks of 4 words each.
_DRAWS = 8
_MASK64 = 0xFFFFFFFFFFFFFFFF


def uniform_block(master_seed: int, lo: int, hi: int, out=None) -> np.ndarray:
    """Uniform [0, 1) draws of trials [lo, hi), shape (hi - lo, 8), written
    to `out` if given.

    Row i is exactly the stream RandomSource(master_seed, lo + i) draws from,
    for 0 <= lo <= hi <= 2**64: RandomSource reduces an index mod 2**64.
    """
    # np.random is reached here rather than at import: processes that never
    # draw (the pool parent) stay smaller and start faster.
    bits = np.random.Philox(key=master_seed & _MASK64, counter=2 * lo)
    return np.random.Generator(bits).random((hi - lo, _DRAWS), out=out)


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
    _row: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        if self._row is None:  # drawn once, at first use
            self._row = uniform_block(self.master_seed, self.trial_index,
                                      self.trial_index + 1)[0]
        start, self._position = self._position, end
        return self._row[start:end]


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
# Batched coordinate rows.  A trial's Born probabilities see its directions
# only through each direction's z-component and the in-plane product
# a_x b_x + a_y b_y of each pair (a of A's, b of B's).  Layout for s settings
# per party, one column per trial: row x*s + y holds the in-plane product of
# A's x-th and B's y-th direction, then s rows hold A's z-components and s
# rows B's.  A map may also write the products z_a z_b, one row per pair in
# the same order.  The uniform columns are the draw order of one trial's
# stream: party A first, then party B.
# ---------------------------------------------------------------------------

def rim_coordinates(u: np.ndarray, out=None, spare=None, products=None) -> np.ndarray:
    """u: (B, 8) as (uA0, vA0, uA1, vA1, uB0, vB0, uB1, vB1) -> (8, B) rows
    of `direction_from_angles`' directions, written to `out` if given, and
    z_a[k] z_b[l] to row 2k + l of `products` if given.  `spare`'s first 4
    rows, if given, take r once u is read, so they may be u's own memory.

    With z = 1 - 2v and r = sqrt(1 - z^2), the in-plane product of two
    directions is r_a * r_b * cos(2*pi*(u_a - u_b)).
    """
    ut = u.T
    rows = np.empty((8, len(u))) if out is None else out
    inplane, z = rows[:4].reshape(2, 2, -1), rows[4:]
    np.subtract(ut[0:4:2, None], ut[None, 4:8:2], out=inplane)
    inplane *= 2.0 * np.pi
    np.cos(inplane, out=inplane)
    np.multiply(ut[1::2], -2.0, out=z)
    z += 1.0
    # u is read
    r = np.empty((4, len(u))) if spare is None else spare[:4]
    # |z| <= 1, so z*z rounds to at most 1 and the root is real
    np.multiply(z, z, out=r)
    np.subtract(1.0, r, out=r)
    np.sqrt(r, out=r)
    inplane *= r[:2, None]
    inplane *= r[None, 2:]
    if products is not None:
        np.multiply(z[:2, None], z[None, 2:], out=products.reshape(2, 2, -1))
    return rows


def triad_coordinates(u: np.ndarray, settings: int, out=None, spare=None,
                      products=None) -> np.ndarray:
    """u: (B, 8), four quaternion uniforms per party -> (s*s + 2*s, B) rows
    of the first s = `settings` axes of each party's Haar-random triad, the
    columns of `_rotation_from_quaternion_uniforms` on the same uniforms;
    written to `out` if given, and z_a[k] z_b[l] to row k*s + l of
    `products` if given.  `spare`'s first 5 rows, if given, take the
    quaternions' conjugate product and a temporary once u is read, so they
    may be u's own memory.  The map takes no other rows: while it reads u,
    A's quaternion sits in the first in-plane rows, B's in the first
    product rows and their temporary in A's first z row, each of which it
    writes only once it is done with what it held.

    A's axes are R(q_A) e_k and B's R(q_B) e_l, so their z-components are
    the third rows of R(q_A) and R(q_B), and their dot products are the
    entries of R(q_A)^T R(q_B) = R(conj(q_A) q_B); the in-plane product is
    the dot product less the product of the z-components.  Every entry is
    computed on its own, so s = 2 gives the s = 3 rows restricted to two
    axes, bit for bit.
    """
    ut = u.T
    s, n = settings, len(u)
    rows = np.empty((s * s + 2 * s, n)) if out is None else out
    z_ab = np.empty((s * s, n)) if products is None else products
    z_a, z_b = rows[s * s:s * s + s], rows[s * s + s:]
    q_a, q_b = rows[0:4], z_ab[0:4]
    _unit_quaternions(ut[0:4], q_a, z_a[0])
    _unit_quaternions(ut[4:8], q_b, z_a[0])
    # u is read
    spare = np.empty((5, n)) if spare is None else spare
    relative, tmp = spare[:4], spare[4]
    for k in range(s):
        _rotation_entry(q_a, 2, k, z_a[k], tmp)
        _rotation_entry(q_b, 2, k, z_b[k], tmp)
    _conjugate_product(q_a, q_b, relative, tmp)
    # the quaternions are spent
    for k in range(s):
        for l in range(s):
            product = np.multiply(z_a[k], z_b[l], out=z_ab[k * s + l])
            row = _rotation_entry(relative, k, l, rows[k * s + l], tmp)
            row -= product
    return rows


def _unit_quaternions(u4: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Writes to out the (w, x, y, z) rows of the unit quaternions that
    `_rotation_from_quaternion_uniforms` draws from uniform rows u4; tmp is
    a scratch row.

    Box-Muller radii r^2 = -2 log(1 - u) make the normalized quaternion
    (rho_1 cos t1, rho_1 sin t1, rho_2 cos t2, rho_2 sin t2) with
    rho_1^2 = r1^2 / (r1^2 + r2^2); a zero quaternion (u0 = u2 = 0) gives the
    identity, as there.
    """
    w, x, y, z = out
    l1, l2, total = x, z, w
    np.log1p(np.negative(u4[0], out=l1), out=l1)
    np.log1p(np.negative(u4[2], out=l2), out=l2)
    np.add(l1, l2, out=total)
    # y is not written until zero's last use, so its bytes hold zero
    zero = np.equal(total, 0.0, out=y.view(bool)[:len(y)])
    total += zero
    rho1 = np.sqrt(np.divide(l1, total, out=x), out=x)
    rho2 = np.sqrt(np.divide(l2, total, out=z), out=z)
    t = np.multiply(2.0 * np.pi, u4[1], out=tmp)
    np.multiply(rho1, np.cos(t, out=w), out=w)
    w += zero
    rho1 *= np.sin(t, out=t)
    t = np.multiply(2.0 * np.pi, u4[3], out=tmp)
    np.multiply(rho2, np.cos(t, out=y), out=y)
    rho2 *= np.sin(t, out=t)


def _conjugate_product(p, q, out, tmp) -> None:
    """Writes to out conj(p) q for quaternion rows (w, x, y, z), so that
    R(out) = R(p)^T R(q); tmp is a scratch row."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    add, sub = np.add, np.subtract
    for row, (first, *rest) in zip(out, (
            ((pw, qw), (add, px, qx), (add, py, qy), (add, pz, qz)),
            ((pw, qx), (sub, px, qw), (sub, py, qz), (add, pz, qy)),
            ((pw, qy), (sub, py, qw), (sub, pz, qx), (add, px, qz)),
            ((pw, qz), (sub, pz, qw), (sub, px, qy), (add, py, qx)))):
        np.multiply(*first, out=row)
        for op, a, b in rest:
            op(row, np.multiply(a, b, out=tmp), out=row)


def _rotation_entry(q, k: int, l: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Entry (k, l) of R(q) for unit quaternion rows q = (w, x, y, z), with
    the arithmetic of `_rotation_from_quaternion_uniforms`, in out; tmp is
    a scratch row."""
    w, v = q[0], q[1:]
    if k == l:
        i, j = (m for m in range(3) if m != k)
        np.multiply(v[i], v[i], out=out)
        out += np.multiply(v[j], v[j], out=tmp)
        return np.subtract(1.0, np.multiply(2.0, out, out=out), out=out)
    np.multiply(v[k], v[l], out=out)
    wv = np.multiply(w, v[3 - k - l], out=tmp)
    # R = I + 2w[v]x + 2[v]x^2: the w term is -w v_m for (k, l, m) cyclic
    (np.subtract if (l - k) % 3 == 1 else np.add)(out, wv, out=out)
    return np.multiply(2.0, out, out=out)


# ---------------------------------------------------------------------------
# Scalar sampling API.  Each function consumes a fixed number of draws from
# the trial's stream, matching the batched layout above.
# ---------------------------------------------------------------------------

def sample_direction(rng: RandomSource) -> MeasurementDirection:
    """One direction uniform on the Bloch sphere (consumes 2 draws)."""
    u = rng.uniform(2)
    return MeasurementDirection(direction_from_angles(u[0], u[1]))


def sample_orthogonal_pair(rng: RandomSource):
    """First two axes of `sample_orthogonal_triad` (consumes 4 draws)."""
    triad = sample_orthogonal_triad(rng)
    return triad.d1, triad.d2


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
