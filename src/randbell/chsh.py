"""Clauser-Horne form of the CHSH inequality and its relabeling orbit.

The base functional over a 2-setting/2-outcome probability table is

    I = J - N_A - N_B,  J = p(00|00) + p(00|01) + p(00|10) - p(00|11),
                        N_A = p_A(0|0),  N_B = p_B(0|0),

with the local-hidden-variable bound I <= 0 and quantum maximum
1/sqrt(2) - 1/2 (Tsirelson).  Relabeling parties, settings, and outcomes
generates the equivalent forms of the inequality; with three settings per
party each form also embeds a choice of two of the three settings.

With the same detection efficiency eta on every detector the inequality
extends (Eberhard) to

    I(eta) = eta^2 I - eta(1 - eta) N <= 0,  N = N_A + N_B,

which crosses zero at the required efficiency eta_req = N / J.  All of
these read the triple (J, N_A, N_B) of the relabeled table of the form
under test, which `_form_parts` alone computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalConsistencyError, NoViolationError
from .quantum import (
    MeasurementDirection,
    NoisyState,
    joint_probability,
    marginal_probability,
    projector_from_direction,
)
from .tolerances import DEFAULT_ATOL, TABLE_ATOL

__all__ = [
    "TSIRELSON_BOUND",
    "ProbabilityTable",
    "CHForm",
    "ViolationRecord",
    "build_probability_table",
    "apply_form",
    "ch_value",
    "enumerate_forms",
    "form_coefficients",
    "max_violation",
    "eta_req",
    "efficiency_corrected_value",
    "lhv_brute_force_bound",
    "deterministic_strategy_table",
]

TSIRELSON_BOUND = 1.0 / np.sqrt(2.0) - 0.5


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint and marginal outcome probabilities for one choice of settings.

    joint[a, b, x, y] with outcomes a, b in {0, 1} and settings x, y in
    {0..S-1}; marg_a[a, x] and marg_b[b, y].  S is 2 for RIM/ROM tables and
    3 for ROTM tables.
    """

    joint: np.ndarray = field()
    marg_a: np.ndarray = field()
    marg_b: np.ndarray = field()

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=float)
        marg_a = np.asarray(self.marg_a, dtype=float)
        marg_b = np.asarray(self.marg_b, dtype=float)
        s = joint.shape[-1]
        if joint.shape != (2, 2, s, s) or marg_a.shape != (2, s) or marg_b.shape != (2, s):
            raise ValueError("inconsistent table shapes")
        for arr in (joint, marg_a, marg_b):
            arr.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marg_a", marg_a)
        object.__setattr__(self, "marg_b", marg_b)

    def validate(self) -> None:
        """Probability range, normalization per setting pair, no-signaling."""
        for arr in (self.joint, self.marg_a, self.marg_b):
            if arr.min() < -DEFAULT_ATOL or arr.max() > 1.0 + DEFAULT_ATOL:
                raise NumericalConsistencyError("table entry outside [0, 1]")
        totals = self.joint.sum(axis=(0, 1))
        if np.abs(totals - 1.0).max() > TABLE_ATOL:
            raise NumericalConsistencyError("joint outcomes do not sum to 1")
        # Marginals must match row sums for every setting of the other party.
        row_a = self.joint.sum(axis=1)            # (a, x, y)
        row_b = self.joint.sum(axis=0)            # (b, x, y)
        if np.abs(row_a - self.marg_a[:, :, None]).max() > TABLE_ATOL:
            raise NumericalConsistencyError("no-signaling violated for party A")
        if np.abs(row_b - self.marg_b[:, None, :]).max() > TABLE_ATOL:
            raise NumericalConsistencyError("no-signaling violated for party B")


@dataclass(frozen=True)
class CHForm:
    """One relabeling of the base inequality.

    setting_perm_* map the form's two setting slots to original setting
    indices (a permutation for two settings per party, an ordered selection
    for three).  outcome_flip_*[slot] swaps the outcome labels of the setting
    selected into that slot.  party_swap exchanges the roles of A and B
    before the per-party maps apply.
    """

    party_swap: bool
    setting_perm_a: tuple[int, int]
    setting_perm_b: tuple[int, int]
    outcome_flip_a: tuple[bool, bool]
    outcome_flip_b: tuple[bool, bool]

    @classmethod
    def identity(cls) -> "CHForm":
        return cls(False, (0, 1), (0, 1), (False, False), (False, False))


@dataclass(frozen=True)
class ViolationRecord:
    """Best form for one table: its value and, if violated, eta_req."""

    i_value: float
    form: CHForm
    form_index: int
    eta_req: float | None = None

    def __post_init__(self):
        if (self.eta_req is not None) != (self.i_value > 0.0):
            raise ValueError("eta_req must be present exactly when i_value > 0")
        if self.eta_req is not None and not (0.0 < self.eta_req < 1.0):
            raise ValueError(f"eta_req outside (0, 1): {self.eta_req!r}")


def build_probability_table(state: NoisyState,
                            a_dirs: tuple[MeasurementDirection, ...],
                            b_dirs: tuple[MeasurementDirection, ...]) -> ProbabilityTable:
    """Full outcome table for the given settings via the exact operator route.

    Outcome 1 uses the complement projector I - M.  Marginals are computed
    directly and cross-checked against the joint row sums.
    """
    s = len(a_dirs)
    if len(b_dirs) != s or s not in (2, 3):
        raise ValueError("need 2 or 3 directions per party")
    # each setting's projectors, indexed by outcome
    outcomes_a = [(p, p.complement) for p in map(projector_from_direction, a_dirs)]
    outcomes_b = [(p, p.complement) for p in map(projector_from_direction, b_dirs)]
    joint = np.empty((2, 2, s, s))
    for a, b, x, y in itertools.product(range(2), range(2), range(s), range(s)):
        joint[a, b, x, y] = joint_probability(state, outcomes_a[x][a], outcomes_b[y][b])
    marg_a = [[marginal_probability(state, m[a], "A") for m in outcomes_a] for a in range(2)]
    marg_b = [[marginal_probability(state, m[b], "B") for m in outcomes_b] for b in range(2)]
    table = ProbabilityTable(joint, marg_a, marg_b)
    table.validate()
    return table


def apply_form(table: ProbabilityTable, form: CHForm) -> ProbabilityTable:
    """Relabeled 2-setting table the form's inequality is evaluated on."""
    if form.party_swap:
        joint = table.joint.transpose(1, 0, 3, 2)
        marg_a, marg_b = table.marg_b, table.marg_a
    else:
        joint = table.joint
        marg_a, marg_b = table.marg_a, table.marg_b
    pa, pb = form.setting_perm_a, form.setting_perm_b
    fa, fb = form.outcome_flip_a, form.outcome_flip_b
    new_joint = np.empty((2, 2, 2, 2))
    new_marg_a = np.empty((2, 2))
    new_marg_b = np.empty((2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    new_joint[a, b, x, y] = joint[a ^ fa[x], b ^ fb[y], pa[x], pb[y]]
    for x in range(2):
        new_marg_a[0, x] = marg_a[0 ^ fa[x], pa[x]]
        new_marg_a[1, x] = marg_a[1 ^ fa[x], pa[x]]
        new_marg_b[0, x] = marg_b[0 ^ fb[x], pb[x]]
        new_marg_b[1, x] = marg_b[1 ^ fb[x], pb[x]]
    return ProbabilityTable(new_joint, new_marg_a, new_marg_b)


def _form_parts(table: ProbabilityTable, form: CHForm) -> tuple[float, float, float]:
    """(J, N_A, N_B) of the form's inequality on this table: the module
    docstring's terms, read from the relabeled table."""
    relabeled = apply_form(table, form)
    j = relabeled.joint
    return (float(j[0, 0, 0, 0] + j[0, 0, 0, 1] + j[0, 0, 1, 0] - j[0, 0, 1, 1]),
            float(relabeled.marg_a[0, 0]), float(relabeled.marg_b[0, 0]))


def ch_value(table: ProbabilityTable, form: CHForm) -> float:
    """Value I = J - N_A - N_B of the form's inequality."""
    joint, n_a, n_b = _form_parts(table, form)
    return joint - n_a - n_b


# ---------------------------------------------------------------------------
# Enumeration of distinct forms.
#
# Two relabelings can induce the same functional on every valid table (the
# raw entry-coefficient vectors differ only through normalization and
# no-signaling identities), so deduplication compares functionals in the
# reduced parametrization (p(00|xy), p_A(0|x), p_B(0|y), 1), where the
# representation is unique.  Coefficients are exact integers.
# ---------------------------------------------------------------------------

def _outcome0(form: CHForm, party: int, slot: int):
    """How the relabeled table's p(outcome 0 | slot) of party A (0) or B (1)
    reads the original table: (original party, setting, c, sign), meaning
    c + sign * p(0) of that party at that setting.  A party swap reads the
    other party, and an outcome flip reads 1 - p(0)."""
    x, flip = ((form.setting_perm_b[slot], form.outcome_flip_b[slot]) if party
               else (form.setting_perm_a[slot], form.outcome_flip_a[slot]))
    return party ^ form.party_swap, x, int(flip), 1 - 2 * flip


def _reduced_coefficients(form: CHForm, s: int):
    """(const, c_p00[x * s + y], c_a[x], c_b[y]) of the form's functional,
    as Python ints in lists."""
    const = 0
    cp = [0] * (s * s)
    marg = ([0] * s, [0] * s)
    a0, a1 = _outcome0(form, 0, 0), _outcome0(form, 0, 1)
    b0, b1 = _outcome0(form, 1, 0), _outcome0(form, 1, 1)
    # p'(00|xy) = E[(c_A + s_A 1[A=0])(c_B + s_B 1[B=0])], for the terms
    # p'(00|00) + p'(00|01) + p'(00|10) - p'(00|11)
    for (party_a, xa, c_a, s_a), (party_b, xb, c_b, s_b), sign in (
            (a0, b0, 1), (a0, b1, 1), (a1, b0, 1), (a1, b1, -1)):
        const += sign * c_a * c_b
        marg[party_a][xa] += sign * s_a * c_b
        marg[party_b][xb] += sign * c_a * s_b
        xo, yo = (xa, xb) if party_a == 0 else (xb, xa)
        cp[xo * s + yo] += sign * s_a * s_b
    # I = joint part - N, with N = p'_A(0|0) + p'_B(0|0) (`_marginal_part`)
    for original, x, c, sign in (a0, b0):
        const -= c
        marg[original][x] -= sign
    return const, cp, marg[0], marg[1]


def _form_key(form: CHForm, s: int):
    const, cp, ca, cb = _reduced_coefficients(form, s)
    return (const, tuple(cp), tuple(ca), tuple(cb))


def _marginal_part(form: CHForm, s: int):
    """(const, n_a[x], n_b[y]) of N = p'_A(0|0) + p'_B(0|0) for this form,
    as Python ints in lists."""
    const = 0
    n = ([0] * s, [0] * s)
    for original, x, c, sign in (_outcome0(form, 0, 0), _outcome0(form, 1, 0)):
        const += c
        n[original][x] += sign
    return const, n[0], n[1]


def _generate_all_forms(s: int):
    perms = list(itertools.permutations(range(s), 2))
    flips = list(itertools.product((False, True), repeat=2))
    for swap in (False, True):
        for pa in perms:
            for pb in perms:
                for fa in flips:
                    for fb in flips:
                        yield CHForm(swap, pa, pb, fa, fb)


def enumerate_forms(settings_per_party: int) -> list[CHForm]:
    """All distinct relabeling-equivalent forms of the inequality.

    One representative per distinct functional, in first-generated order
    (the identity form leads the list).  Yields 8 forms for two settings per
    party and 72 for three (9 setting-pair choices x 8).
    """
    if settings_per_party not in (2, 3):
        raise ValueError(f"settings_per_party must be 2 or 3, got {settings_per_party!r}")
    seen = {}
    for form in _generate_all_forms(settings_per_party):
        key = _form_key(form, settings_per_party)
        if key not in seen:
            seen[key] = form
    return list(seen.values())


def form_coefficients(forms: list[CHForm], settings_per_party: int):
    """Dense coefficient arrays for batched evaluation of many tables.

    Returns (const, weights, n_const, n_a, n_b) where for the reduced
    coordinate vector x = (p00 flattened, pA0, pB0) of a table,
    I = x @ weights + const, and the marginal part of each form is
    N = n_const + pA0 @ n_a + pB0 @ n_b.
    """
    s = settings_per_party
    nf = len(forms)
    const = np.empty(nf)
    weights = np.empty((s * s + 2 * s, nf))
    n_const = np.empty(nf)
    n_a = np.empty((nf, s))
    n_b = np.empty((nf, s))
    for i, form in enumerate(forms):
        c, cp, ca, cb = _reduced_coefficients(form, s)
        const[i] = c
        weights[:, i] = cp + ca + cb
        nc, na, nb = _marginal_part(form, s)
        n_const[i] = nc
        n_a[i] = na
        n_b[i] = nb
    return const, weights, n_const, n_a, n_b


def eta_req(table: ProbabilityTable, form: CHForm) -> float:
    """Required detection efficiency N / J of the form's inequality on this
    table; NoViolationError unless its I, as `ch_value` has it, is > 0."""
    joint, n_a, n_b = _form_parts(table, form)
    value = joint - n_a - n_b
    if value <= 0.0:
        raise NoViolationError(f"inequality not violated (I = {value!r})")
    if joint <= 0.0:
        raise NoViolationError(f"non-positive denominator {joint!r}")
    return (n_a + n_b) / joint


def efficiency_corrected_value(table: ProbabilityTable, form: CHForm, eta: float) -> float:
    """Value eta^2 I - eta(1 - eta) N of the detection-efficiency-corrected
    inequality at efficiency eta.

    The one-sided detection terms are the functional evaluated with the
    undetected party's joint and marginal entries set to zero, which leaves
    -N_A and -N_B; the zero-detection term vanishes.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0, 1], got {eta!r}")
    joint, n_a, n_b = _form_parts(table, form)
    return eta * eta * (joint - n_a - n_b) + eta * (1.0 - eta) * -(n_a + n_b)


def max_violation(table: ProbabilityTable, forms: list[CHForm],
                  policy: str = "max-i") -> ViolationRecord:
    """Best form for this table.

    "max-i" keeps the form with the largest inequality value (ties to the
    lowest index); "min-eta" instead keeps the violating form with the
    smallest required efficiency, falling back to max-i when nothing is
    violated.
    """
    if not forms:
        raise ValueError("form list must be non-empty")
    values = [ch_value(table, form) for form in forms]
    best = int(np.argmax(values))
    if policy == "min-eta":
        etas = [
            eta_req(table, form) if value > 0.0 else np.inf
            for form, value in zip(forms, values)
        ]
        if np.isfinite(min(etas)):
            best = int(np.argmin(etas))
    elif policy != "max-i":
        raise ValueError(f"unknown selection policy {policy!r}")
    i_value = values[best]
    record_eta = eta_req(table, forms[best]) if i_value > 0.0 else None
    return ViolationRecord(i_value=i_value, form=forms[best], form_index=best,
                           eta_req=record_eta)


def deterministic_strategy_table(a_assign: tuple[int, ...],
                                 b_assign: tuple[int, ...]) -> ProbabilityTable:
    """0/1 table of the local deterministic strategy (a(x), b(y))."""
    s = len(a_assign)
    joint = np.zeros((2, 2, s, s))
    marg_a = np.zeros((2, s))
    marg_b = np.zeros((2, s))
    for x in range(s):
        marg_a[a_assign[x], x] = 1.0
        marg_b[b_assign[x], x] = 1.0
    for x in range(s):
        for y in range(s):
            joint[a_assign[x], b_assign[y], x, y] = 1.0
    return ProbabilityTable(joint, marg_a, marg_b)


def lhv_brute_force_bound(settings_per_party: int, forms: list[CHForm]) -> float:
    """Maximum of every form over all local deterministic strategies.

    The deterministic strategies are the extreme points of the local polytope,
    so this is the exact LHV bound; it must come out 0.
    """
    if settings_per_party not in (2, 3):
        raise ValueError(f"settings_per_party must be 2 or 3, got {settings_per_party!r}")
    best = -np.inf
    outcomes = list(itertools.product((0, 1), repeat=settings_per_party))
    for a_assign in outcomes:
        for b_assign in outcomes:
            table = deterministic_strategy_table(a_assign, b_assign)
            for form in forms:
                best = max(best, ch_value(table, form))
    return float(best)
