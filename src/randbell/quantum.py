"""Two-qubit states, projective measurements, and outcome probabilities.

The shared state is |Psi> = alpha|01> + beta|10> with real non-negative
amplitudes, optionally mixed with white noise at visibility V:

    rho = V |Psi><Psi| + (1 - V) I/4

Measurements are rank-1 projectors onto Bloch directions, M = (I + n.sigma)/2.
Probabilities follow the Born rule p = tr(rho (M_A x M_B)).

Two evaluation routes are provided and cross-checked in the test suite:

* exact route: explicit 4x4 operators, `joint_probability` and
  `marginal_probability`, each the density-operator trace tr(rho M);
* closed-form route: `joint_outcome00` / `marginal_outcome0` /
  `doubled_correlator`, which evaluate the same Born-rule values, and the
  correlator, from correlator coordinates and broadcast over arrays of them:
  the z-components of the two directions and their in-plane product
  a_x b_x + a_y b_y, the only numbers of a direction pair the state below
  sees.  The Monte Carlo kernel's hot path takes `doubled_correlator` and
  `marginal_outcome0` on the coordinate rows of `sampling.rim_coordinates` /
  `triad_coordinates` and on the products z_a z_b those maps write,
  formed once for every state;
  `joint_outcome00` is the closed-form p(0,0) its tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalConsistencyError
from .tolerances import DEFAULT_ATOL

__all__ = [
    "PureTwoQubitState",
    "NoisyState",
    "MeasurementDirection",
    "Projector",
    "projector_from_direction",
    "joint_probability",
    "marginal_probability",
    "joint_outcome00",
    "marginal_outcome0",
    "doubled_correlator",
]

# Basis ordering is (|00>, |01>, |10>, |11>); tensor products put the A factor
# in the most significant slot, matching np.kron(A, B).
_IDENTITY2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class PureTwoQubitState:
    """|Psi> = alpha|01> + beta|10> with alpha, beta real and non-negative."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("amplitudes must be non-negative")
        norm = self.alpha * self.alpha + self.beta * self.beta
        if abs(norm - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"amplitudes not normalized: alpha^2+beta^2 = {norm!r}")

    @classmethod
    def from_ratio(cls, alpha_over_beta: float) -> "PureTwoQubitState":
        """State with a given amplitude ratio r = alpha/beta.

        r = 1 is the maximally entangled state; r -> 0 or r -> inf approaches
        a product state.
        """
        r = float(alpha_over_beta)
        if not (r > 0) or not math.isfinite(r * r):
            raise ValueError("alpha/beta ratio must be positive, with a finite square")
        beta = 1.0 / math.sqrt(1.0 + r * r)
        return cls(alpha=r * beta, beta=beta)

    @property
    def concurrence(self) -> float:
        """Entanglement monotone C = 2*alpha*beta, 1 at the MES."""
        return 2.0 * self.alpha * self.beta

    @property
    def amplitudes(self) -> np.ndarray:
        """Amplitude vector over (|00>, |01>, |10>, |11>)."""
        return np.array([0.0, self.alpha, self.beta, 0.0], dtype=complex)


@dataclass(frozen=True)
class NoisyState:
    """Pure state mixed with white noise: rho = V|Psi><Psi| + (1-V) I/4."""

    pure: PureTwoQubitState
    visibility: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility!r}")

    @classmethod
    def from_ratio(cls, alpha_over_beta: float, visibility: float = 1.0) -> "NoisyState":
        return cls(PureTwoQubitState.from_ratio(alpha_over_beta), visibility)

    @cached_property
    def density_matrix(self) -> np.ndarray:
        """rho, built once per state and read-only."""
        psi = self.pure.amplitudes
        rho = self.visibility * np.outer(psi, psi.conj())
        rho += (1.0 - self.visibility) * 0.25 * np.eye(4)
        rho.setflags(write=False)
        return rho

    @property
    def bloch_z(self) -> float:
        """<sigma_z x I> of the pure part, alpha^2 - beta^2."""
        return self.pure.alpha ** 2 - self.pure.beta ** 2


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit Bloch vector defining a projective qubit measurement axis."""

    n: np.ndarray = field()

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"direction must be a 3-vector, got shape {n.shape}")
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"direction must be unit length, |n| = {norm!r}")
        n = n.copy()
        n.setflags(write=False)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class Projector:
    """Rank-1 projector on one qubit, validated on construction."""

    m: np.ndarray = field()

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"projector must be 2x2, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > DEFAULT_ATOL:
            raise ValueError("projector is not Hermitian")
        if np.abs(m @ m - m).max() > DEFAULT_ATOL:
            raise ValueError("projector is not idempotent")
        if abs(np.trace(m).real - 1.0) > DEFAULT_ATOL or abs(np.trace(m).imag) > DEFAULT_ATOL:
            raise ValueError("projector must have unit trace (rank 1)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def complement(self) -> "Projector":
        """Projector onto the opposite outcome, I - m."""
        return Projector(_IDENTITY2 - self.m)


def projector_from_direction(direction: MeasurementDirection) -> Projector:
    """Projector onto the +1 eigenstate of n.sigma, (I + n.sigma)/2."""
    nx, ny, nz = direction.n
    m = 0.5 * np.array(
        [[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]], dtype=complex
    )
    return Projector(m)


def _check_probability(value: complex) -> float:
    if abs(value.imag) > DEFAULT_ATOL:
        raise NumericalConsistencyError(
            f"probability has imaginary residue {value.imag!r}"
        )
    p = value.real
    if p < -DEFAULT_ATOL or p > 1.0 + DEFAULT_ATOL:
        raise NumericalConsistencyError(f"probability {p!r} outside [0, 1]")
    return p


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two 2x2 matrices, entry for entry: the outer product
    a[i, j] b[k, l] at row 2i + k, column 2j + l."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def joint_probability(state: NoisyState, m_a: Projector, m_b: Projector) -> float:
    """Born-rule joint probability tr(rho (m_a x m_b))."""
    value = np.trace(state.density_matrix @ _kron(m_a.m, m_b.m))
    return _check_probability(complex(value))


def marginal_probability(state: NoisyState, m: Projector, party: str) -> float:
    """Single-party outcome probability, tr(rho (m x I)) or tr(rho (I x m))."""
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    op = _kron(m.m, _IDENTITY2) if party == "A" else _kron(_IDENTITY2, m.m)
    value = np.trace(state.density_matrix @ op)
    return _check_probability(complex(value))


# ---------------------------------------------------------------------------
# Closed-form correlator-coordinate route (vectorized).
#
# For rho built from |Psi> = alpha|01> + beta|10>, the correlation matrix is
# diag(C, C, -1) with C = 2*alpha*beta, and the local Bloch vectors are
# (0, 0, +-(alpha^2 - beta^2)).  Mixing with white noise scales all of them
# by the visibility.
# ---------------------------------------------------------------------------

def joint_outcome00(state: NoisyState, z_a, z_b, inplane) -> np.ndarray:
    """p(0,0) from the z-components z_a, z_b of the two directions and their
    in-plane product a_x b_x + a_y b_y; broadcasts.

    p = (1 + V (c_z (z_a - z_b) + C inplane - z_a z_b)) / 4, grouped so that
    the terms in z_a alone are computed once per broadcast row.
    """
    v = state.visibility
    cz = state.bloch_z
    own = 0.25 * (1.0 + v * cz * z_a)
    cross = (0.25 * v) * (cz + z_a)
    return own - cross * z_b + (0.25 * v * state.pure.concurrence) * inplane


def doubled_correlator(state: NoisyState, inplane, z_product, out=None) -> np.ndarray:
    """D = 2E = 2 <(a.sigma) x (b.sigma)> from the in-plane product
    a_x b_x + a_y b_y and the product z_a z_b of the z-components, which
    broadcasts to the shape of `inplane`; writes to `out` if given.

    The correlation matrix is diag(C, C, -1) scaled by V, so
    D = 2V (C inplane - z_a z_b), which is 8 p00 - 4 pA0 - 4 pB0 + 2 with no
    probability formed.
    """
    d = np.multiply(inplane, state.pure.concurrence, out=out)
    d -= z_product
    d *= 2.0 * state.visibility
    return d


def marginal_outcome0(state: NoisyState, z, party: str, out=None) -> np.ndarray:
    """p(outcome 0) for one party from its directions' z-components z;
    writes to `out` if given."""
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    sign = 1.0 if party == "A" else -1.0
    p = np.multiply(sign * state.visibility * state.bloch_z, z, out=out)
    p = np.add(1.0, p, out=out)
    return np.multiply(0.5, p, out=out)
