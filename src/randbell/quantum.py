"""Two-qubit states, projective measurements, and outcome probabilities.

The shared state is |Psi> = alpha|01> + beta|10> with real non-negative
amplitudes, optionally mixed with white noise at visibility V:

    rho = V |Psi><Psi| + (1 - V) I/4

Measurements are rank-1 projectors onto Bloch directions, M = (I + n.sigma)/2.
Probabilities follow the Born rule p = tr(rho (M_A x M_B)).

Two evaluation routes are provided and cross-checked in the test suite:

* exact route: explicit 4x4 operators, `joint_probability` and
  `marginal_probability`, each the density-operator trace tr(rho M);
* closed-form route: `joint_outcome00` / `marginal_outcome0`, which evaluate
  the same Born-rule values directly from Bloch coordinates and broadcast
  over direction arrays.  This is the hot path of the Monte Carlo kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if not (r > 0) or not math.isfinite(r):
            raise ValueError("alpha/beta ratio must be positive and finite")
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

    @property
    def density_matrix(self) -> np.ndarray:
        psi = self.pure.amplitudes
        rho = self.visibility * np.outer(psi, psi.conj())
        rho += (1.0 - self.visibility) * 0.25 * np.eye(4)
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

    def __neg__(self) -> "MeasurementDirection":
        return MeasurementDirection(-self.n)


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


def _check_probability(value: complex, atol: float) -> float:
    if abs(value.imag) > atol:
        raise NumericalConsistencyError(
            f"probability has imaginary residue {value.imag!r}"
        )
    p = value.real
    if p < -atol or p > 1.0 + atol:
        raise NumericalConsistencyError(f"probability {p!r} outside [0, 1]")
    return p


def joint_probability(state: NoisyState, m_a: Projector, m_b: Projector,
                      atol: float = DEFAULT_ATOL) -> float:
    """Born-rule joint probability tr(rho (m_a x m_b))."""
    value = np.trace(state.density_matrix @ np.kron(m_a.m, m_b.m))
    return _check_probability(complex(value), atol)


def marginal_probability(state: NoisyState, m: Projector, party: str,
                         atol: float = DEFAULT_ATOL) -> float:
    """Single-party outcome probability, tr(rho (m x I)) or tr(rho (I x m))."""
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    op = np.kron(m.m, _IDENTITY2) if party == "A" else np.kron(_IDENTITY2, m.m)
    value = np.trace(state.density_matrix @ op)
    return _check_probability(complex(value), atol)


# ---------------------------------------------------------------------------
# Closed-form Bloch-coordinate route (vectorized).
#
# For rho built from |Psi> = alpha|01> + beta|10>, the correlation matrix is
# diag(C, C, -1) with C = 2*alpha*beta, and the local Bloch vectors are
# (0, 0, +-(alpha^2 - beta^2)).  Mixing with white noise scales all of them
# by the visibility.
# ---------------------------------------------------------------------------

def joint_outcome00(state: NoisyState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p(0,0) for direction arrays a, b of shape (..., 3); broadcasts."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cz = state.bloch_z
    conc = state.pure.concurrence
    corr = (
        cz * (a[..., 2] - b[..., 2])
        + conc * (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
        - a[..., 2] * b[..., 2]
    )
    return 0.25 * (1.0 + state.visibility * corr)


def marginal_outcome0(state: NoisyState, n: np.ndarray, party: str) -> np.ndarray:
    """p(outcome 0) for one party, direction array of shape (..., 3)."""
    n = np.asarray(n, dtype=float)
    sign = 1.0 if party == "A" else -1.0
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return 0.5 * (1.0 + state.visibility * sign * state.bloch_z * n[..., 2])
