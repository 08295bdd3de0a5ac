"""Inequality engine checks: form enumeration against the local-polytope
facet structure, LHV bounds by strategy enumeration, the quantum maximum,
and the required-efficiency algebra."""

import hashlib
import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from randbell import (
    CHForm,
    MeasurementDirection,
    NoisyState,
    NoViolationError,
    PureTwoQubitState,
    TSIRELSON_BOUND,
    build_probability_table,
    ch_value,
    efficiency_corrected_value,
    enumerate_forms,
    eta_req,
    lhv_brute_force_bound,
    max_violation,
)
from randbell.chsh import (
    ProbabilityTable,
    apply_form,
    deterministic_strategy_table,
    form_coefficients,
    _form_key,
    _generate_all_forms,
)
from randbell.sampling import direction_from_angles

MES = NoisyState.from_ratio(1.0)
SQ2 = 1.0 / np.sqrt(2.0)

Z = MeasurementDirection(np.array([0.0, 0.0, 1.0]))
X = MeasurementDirection(np.array([1.0, 0.0, 0.0]))
# settings reaching the quantum maximum for |Psi> = (|01> + |10>)/sqrt(2)
B0 = MeasurementDirection(np.array([SQ2, 0.0, -SQ2]))
B1 = MeasurementDirection(np.array([-SQ2, 0.0, -SQ2]))

FORMS2 = enumerate_forms(2)
FORMS3 = enumerate_forms(3)


def _random_table(rng, nsettings=2, ratio=None, visibility=None):
    state = NoisyState.from_ratio(
        ratio if ratio is not None else rng.uniform(0.2, 1.0),
        visibility if visibility is not None else 1.0,
    )
    dirs = direction_from_angles(rng.random(2 * nsettings), rng.random(2 * nsettings))
    a_dirs = tuple(MeasurementDirection(d) for d in dirs[:nsettings])
    b_dirs = tuple(MeasurementDirection(d) for d in dirs[nsettings:])
    return build_probability_table(state, a_dirs, b_dirs)


def _table_in_64ths(rng, s):
    """A valid s-setting table whose entries are multiples of 1/64, p00
    within its Frechet bounds."""
    pa0, pb0 = rng.integers(0, 65, s), rng.integers(0, 65, s)
    a, b = pa0[:, None], pb0[None]
    p00 = rng.integers(np.maximum(0, a + b - 64), np.minimum(a, b) + 1)
    joint = np.array([[p00, a - p00], [b - p00, 64 - a - b + p00]]) / 64
    table = ProbabilityTable(joint, np.array([pa0, 64 - pa0]) / 64,
                             np.array([pb0, 64 - pb0]) / 64)
    table.validate()
    return table


class TestProbabilityTable:
    def test_mes_marginals(self):
        table = build_probability_table(MES, (Z, X), (Z, X))
        np.testing.assert_allclose(table.marg_a, 0.5, atol=1e-12)
        np.testing.assert_allclose(table.marg_b, 0.5, atol=1e-12)

    def test_product_state_definite_block(self):
        state = NoisyState(PureTwoQubitState(1.0, 0.0))  # |01>
        table = build_probability_table(state, (Z, Z), (Z, Z))
        assert table.joint[0, 1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert table.joint[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table.joint[1, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_invariants_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            _random_table(rng, visibility=rng.random()).validate()

    def test_three_setting_table(self):
        rng = np.random.default_rng(1)
        table = _random_table(rng, nsettings=3)
        assert table.joint.shape == (2, 2, 3, 3)
        table.validate()


class TestChValue:
    def test_deterministic_all_zero_strategy(self):
        table = deterministic_strategy_table((0, 0), (0, 0))
        assert ch_value(table, CHForm.identity()) == pytest.approx(0.0, abs=1e-15)

    def test_quantum_maximum(self):
        table = build_probability_table(MES, (Z, X), (B0, B1))
        best = max(ch_value(table, f) for f in FORMS2)
        assert best == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_product_states_never_violate(self):
        rng = np.random.default_rng(2)
        for alpha in (0.0, 1.0):
            state = NoisyState(PureTwoQubitState(alpha, 1.0 - alpha))
            for _ in range(20):
                dirs = direction_from_angles(rng.random(4), rng.random(4))
                table = build_probability_table(
                    state,
                    tuple(MeasurementDirection(d) for d in dirs[:2]),
                    tuple(MeasurementDirection(d) for d in dirs[2:]),
                )
                assert max(ch_value(table, f) for f in FORMS2) <= 1e-10

    def test_mixed_state_never_violates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            table = _random_table(rng, visibility=0.0)
            assert max(ch_value(table, f) for f in FORMS2) <= 1e-10


def _local_polytope_vertices():
    """Deterministic strategies in reduced coordinates
    (p00 flattened, pA0, pB0)."""
    vertices = []
    for a_assign in itertools.product((0, 1), repeat=2):
        for b_assign in itertools.product((0, 1), repeat=2):
            pa0 = [1 - a for a in a_assign]
            pb0 = [1 - b for b in b_assign]
            p00 = [pa0[x] * pb0[y] for x in range(2) for y in range(2)]
            vertices.append(p00 + pa0 + pb0)
    return np.array(vertices, dtype=float)


def _positivity_facets():
    """The 16 outcome-positivity inequalities as (coeffs, const):
    coeffs . x + const >= 0."""
    facets = []
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    c = np.zeros(8)
                    const = 0.0
                    sign = 1.0
                    # expansion of p(ab|xy) over (p00, pA0, pB0, 1)
                    if (a, b) == (0, 0):
                        c[2 * x + y] = 1.0
                    elif (a, b) == (0, 1):
                        c[4 + x] = 1.0
                        c[2 * x + y] = -1.0
                    elif (a, b) == (1, 0):
                        c[6 + y] = 1.0
                        c[2 * x + y] = -1.0
                    else:
                        const = 1.0
                        c[4 + x] = -1.0
                        c[6 + y] = -1.0
                        c[2 * x + y] = 1.0
                    facets.append((c, const, sign))
    return facets


class TestEnumerateForms:
    def test_counts(self):
        assert len(FORMS2) == 8
        assert len(FORMS3) == 72

    def test_identity_present_and_first(self):
        assert FORMS2[0] == CHForm.identity()
        assert CHForm.identity() in FORMS3

    def test_unsupported_settings(self):
        with pytest.raises(ValueError):
            enumerate_forms(4)

    def test_all_transformations_generated(self):
        assert sum(1 for _ in _generate_all_forms(2)) == 128
        assert sum(1 for _ in _generate_all_forms(3)) == 1152

    def test_forms_are_distinct_functionals(self):
        keys = {_form_key(f, 2) for f in FORMS2}
        assert len(keys) == 8

    @pytest.mark.parametrize("s,digest", [
        (2, "019780041d5e835abbc7e619dd00397e4820b96a664239e7a90375886fe546b0"),
        (3, "6b07d4fac524baa2c4417614e755c0858fd0a3b66c88db78f76bb14d78ee95d4"),
    ])
    def test_coefficients_match_pinned_digests(self, s, digest):
        # the forms, their order and their coefficients, as the numpy-array
        # enumeration wrote them; the kernel's runs and the output digests
        # rest on all three
        arrays = form_coefficients(enumerate_forms(s), s)
        assert [a.dtype for a in arrays] == [np.float64] * 5
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    @pytest.mark.parametrize("s", [2, 3])
    def test_every_relabeling_matches_the_exact_route(self, s):
        # every relabeling of the orbit, not only each functional's first:
        # on valid tables in 64ths every sum is exact, so the coefficients
        # give I and N of the relabeled table bit for bit
        forms = list(_generate_all_forms(s))
        const, weights, n_const, n_a, n_b = form_coefficients(forms, s)
        rng = np.random.default_rng(s)
        for _ in range(16):
            table = _table_in_64ths(rng, s)
            pa0, pb0 = table.marg_a[0], table.marg_b[0]
            values = np.concatenate([table.joint[0, 0].ravel(), pa0, pb0]) @ weights + const
            n_values = n_const + n_a @ pa0 + n_b @ pb0
            for form, value, n_value in zip(forms, values, n_values):
                relabeled = apply_form(table, form)
                assert value == ch_value(table, form)
                assert n_value == relabeled.marg_a[0, 0] + relabeled.marg_b[0, 0]

    def test_three_setting_forms_embed_pair_choices(self):
        pairs = {(tuple(sorted(f.setting_perm_a)), tuple(sorted(f.setting_perm_b)))
                 for f in FORMS3}
        assert len(pairs) == 9  # 3 unordered choices per party

    def test_facet_count_oracle(self):
        # brute-force facet enumeration of the 2-setting local polytope:
        # 16 positivity facets plus one facet per distinct inequality form
        vertices = _local_polytope_vertices()
        hull = ConvexHull(vertices)
        eqs = hull.equations
        normals = eqs / np.abs(eqs).max(axis=1, keepdims=True)
        distinct = np.unique(np.round(normals, 9), axis=0)
        assert len(distinct) == 16 + len(FORMS2) == 24

    def test_forms_are_facets(self):
        # every enumerated form is tight at >= 8 vertices and valid at all
        vertices = _local_polytope_vertices()
        const, weights, _, _, _ = form_coefficients(FORMS2, 2)
        values = vertices @ weights + const
        assert values.max() <= 1e-12
        assert ((np.abs(values) <= 1e-12).sum(axis=0) >= 8).all()


class TestApplyForm:
    def test_identity_maps_to_itself(self):
        rng = np.random.default_rng(4)
        table = _random_table(rng)
        relabeled = apply_form(table, CHForm.identity())
        np.testing.assert_array_equal(relabeled.joint, table.joint)
        np.testing.assert_array_equal(relabeled.marg_a, table.marg_a)

    def test_relabeled_tables_valid(self):
        rng = np.random.default_rng(5)
        for nsettings, forms in ((2, FORMS2), (3, FORMS3)):
            table = _random_table(rng, nsettings=nsettings)
            for form in forms[:: max(1, len(forms) // 10)]:
                apply_form(table, form).validate()

    def test_form_closure(self):
        rng = np.random.default_rng(6)
        identity = CHForm.identity()
        for _ in range(10):
            table = _random_table(rng)
            for form in FORMS2:
                direct = ch_value(table, form)
                via_relabel = ch_value(apply_form(table, form), identity)
                assert direct == pytest.approx(via_relabel, abs=1e-12)


class TestMaxViolation:
    def test_lhv_boundary(self):
        table = deterministic_strategy_table((0, 0), (0, 0))
        record = max_violation(table, FORMS2)
        assert record.i_value == pytest.approx(0.0, abs=1e-15)
        assert record.eta_req is None

    def test_mes_optimal(self):
        table = build_probability_table(MES, (Z, X), (B0, B1))
        record = max_violation(table, FORMS2)
        assert record.i_value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert record.eta_req == pytest.approx(2.0 / (1.0 + np.sqrt(2.0)), abs=1e-10)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            table = _random_table(rng)
            record = max_violation(table, FORMS2)
            explicit = [ch_value(table, f) for f in FORMS2]
            assert record.i_value == max(explicit)
            assert record.form_index == int(np.argmax(explicit))

    def test_min_eta_policy(self):
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(200):
            table = _random_table(rng, ratio=0.6)
            record = max_violation(table, FORMS2, policy="min-eta")
            if record.eta_req is None:
                continue
            found += 1
            etas = []
            for f in FORMS2:
                if ch_value(table, f) > 0:
                    etas.append(eta_req(table, f))
            assert record.eta_req == pytest.approx(min(etas), abs=1e-14)
        assert found > 5

    def test_empty_forms(self):
        with pytest.raises(ValueError):
            max_violation(deterministic_strategy_table((0, 0), (0, 0)), [])


class TestEtaReq:
    def test_mes_optimal_value(self):
        table = build_probability_table(MES, (Z, X), (B0, B1))
        record = max_violation(table, FORMS2)
        assert eta_req(table, record.form) == pytest.approx(
            2.0 / (1.0 + np.sqrt(2.0)), abs=1e-12)

    def test_no_violation_error(self):
        table = deterministic_strategy_table((0, 0), (0, 0))
        with pytest.raises(NoViolationError):
            eta_req(table, CHForm.identity())

    def test_boundary_approach(self):
        # weakly violating tables need efficiencies approaching 1
        state = NoisyState.from_ratio(1.0, visibility=0.7072)
        table = build_probability_table(state, (Z, X), (B0, B1))
        record = max_violation(table, FORMS2)
        assert 0.0 < record.i_value < 1e-3
        assert record.eta_req > 0.999

    def test_independent_reconstruction(self):
        # recompute the winning form's efficiency from scratch: relabel the
        # directions, rebuild every probability by raw 4-dim inner products
        rng = np.random.default_rng(9)
        psi = np.array([0.0, MES.pure.alpha, MES.pure.beta, 0.0], dtype=complex)
        checked = 0
        trial = 0
        while checked < 25 and trial < 500:
            trial += 1
            dirs = direction_from_angles(rng.random(4), rng.random(4))
            a_dirs = tuple(MeasurementDirection(d) for d in dirs[:2])
            b_dirs = tuple(MeasurementDirection(d) for d in dirs[2:])
            table = build_probability_table(MES, a_dirs, b_dirs)
            record = max_violation(table, FORMS2)
            if record.eta_req is None:
                continue
            checked += 1
            form = record.form
            base_a = [d.n for d in (b_dirs if form.party_swap else a_dirs)]
            base_b = [d.n for d in (a_dirs if form.party_swap else b_dirs)]
            eff_a = [
                (-1.0 if form.outcome_flip_a[slot] else 1.0) * base_a[form.setting_perm_a[slot]]
                for slot in range(2)
            ]
            eff_b = [
                (-1.0 if form.outcome_flip_b[slot] else 1.0) * base_b[form.setting_perm_b[slot]]
                for slot in range(2)
            ]

            def proj(n):
                return 0.5 * np.array(
                    [[1 + n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], 1 - n[2]]]
                )

            def p00(na, nb):
                op = np.kron(proj(na), proj(nb))
                return float(np.real(psi.conj() @ op @ psi))

            def pa0(na):
                op = np.kron(proj(na), np.eye(2))
                return float(np.real(psi.conj() @ op @ psi))

            def pb0(nb):
                op = np.kron(np.eye(2), proj(nb))
                return float(np.real(psi.conj() @ op @ psi))

            numer = pa0(eff_a[0]) + pb0(eff_b[0])
            denom = (p00(eff_a[0], eff_b[0]) + p00(eff_a[0], eff_b[1])
                     + p00(eff_a[1], eff_b[0]) - p00(eff_a[1], eff_b[1]))
            assert record.eta_req == pytest.approx(numer / denom, abs=1e-10)
        assert checked == 25

    def test_bisection_oracle(self):
        # eta_req is the root of the efficiency-corrected value in (0, 1)
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(200):
            table = _random_table(rng, ratio=0.7)
            record = max_violation(table, FORMS2)
            if record.eta_req is None:
                continue
            checked += 1
            lo, hi = 1e-9, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if efficiency_corrected_value(table, record.form, mid) > 0:
                    hi = mid
                else:
                    lo = mid
            assert record.eta_req == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert checked > 10


class TestEfficiencyCorrectedValue:
    def test_eta_one_equals_ch_value(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = _random_table(rng)
            for form in FORMS2[:3]:
                assert efficiency_corrected_value(table, form, 1.0) == pytest.approx(
                    ch_value(table, form), abs=1e-14)

    def test_eta_zero(self):
        rng = np.random.default_rng(12)
        table = _random_table(rng)
        assert efficiency_corrected_value(table, CHForm.identity(), 0.0) == 0.0

    def test_zero_at_threshold_and_sign_flip(self):
        table = build_probability_table(MES, (Z, X), (B0, B1))
        record = max_violation(table, FORMS2)
        e = record.eta_req
        assert efficiency_corrected_value(table, record.form, e) == pytest.approx(0.0, abs=1e-10)
        assert efficiency_corrected_value(table, record.form, e + 1e-6) > 0.0
        assert efficiency_corrected_value(table, record.form, e - 1e-6) < 0.0

    def test_domain_error(self):
        table = deterministic_strategy_table((0, 0), (0, 0))
        with pytest.raises(ValueError):
            efficiency_corrected_value(table, CHForm.identity(), 1.2)


class TestLhvBound:
    def test_two_settings(self):
        assert lhv_brute_force_bound(2, FORMS2) == pytest.approx(0.0, abs=1e-12)

    def test_three_settings(self):
        assert lhv_brute_force_bound(3, FORMS3) == pytest.approx(0.0, abs=1e-12)

    def test_every_strategy_nonpositive(self):
        for a_assign in itertools.product((0, 1), repeat=2):
            for b_assign in itertools.product((0, 1), repeat=2):
                table = deterministic_strategy_table(a_assign, b_assign)
                for form in FORMS2:
                    assert ch_value(table, form) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            lhv_brute_force_bound(5, FORMS2)


class TestTsirelsonCap:
    def test_random_quantum_tables_capped(self):
        rng = np.random.default_rng(13)
        worst = -np.inf
        for _ in range(300):
            table = _random_table(rng, ratio=rng.uniform(0.3, 1.0))
            worst = max(worst, max_violation(table, FORMS2).i_value)
        assert worst <= TSIRELSON_BOUND + 1e-9
