import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entbat.battery import CONTINUITY_OPTS
from entbat.errors import ApplicabilityError, CapacityError, DomainError, ShapeError, ValidationError
from entbat.measures import (
    ENTANGLEMENT_COST_PURE,
    ENTROPY_OF_ENTANGLEMENT,
    ER_VALUE_SLACK,
    GEOMETRIC,
    LOG_NEGATIVITY,
    MEASURES,
    RELATIVE_ENTROPY,
    SQUASHED_PURE,
    SQUASHED_UPPER,
    MeasureResult,
    OptimizerOptions,
    SeparableAnsatz,
    ansatz_objective,
    dephasing_upper_bound,
    entanglement_entropy,
    evaluate,
    geometric_entanglement,
    log_negativity,
    measure_spec,
    product_overlap,
    relative_entropy_of_entanglement,
    squashed_upper,
)
from entbat.measures import _initial_points, _local_gradients, _product_vectors, _weight_gradient
from entbat.qmat import partial_trace, tensor, von_neumann_entropy
from entbat.states import (
    bell,
    maximally_correlated_lami,
    maximally_mixed,
    product_pure,
    pure_alpha,
    random_mixed,
    random_pure,
    random_schmidt,
    werner,
)

from oracles import (
    pure_alpha_entropy,
    pure_alpha_log_negativity,
    pure_log_negativity,
    shannon_bits,
    werner_log_negativity,
)

# Small budgets keep the variational tests fast; the structured starts make
# them exact on the fixtures used here.
QUICK = OptimizerOptions(restarts=2, max_iters=800)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestPureStateMeasures:
    def test_bell_entropy_is_one_bit(self):
        assert_allclose(entanglement_entropy(bell()), 1.0, atol=1e-12)

    def test_entropy_matches_shannon_of_schmidt_probs(self):
        psi = random_schmidt(4, rng_for(11))
        assert_allclose(entanglement_entropy(psi), shannon_bits(psi.probs), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_matrix_route_agrees_with_schmidt_route(self, seed):
        psi = random_schmidt(3, rng_for(seed))
        assert_allclose(
            entanglement_entropy(psi.to_bipartite()),
            entanglement_entropy(psi),
            atol=1e-10,
        )

    def test_pure_alpha_entropy_closed_form(self):
        for alpha in (0.05, 0.3, 0.7, math.pi / 4):
            assert_allclose(
                entanglement_entropy(pure_alpha(alpha)), pure_alpha_entropy(alpha), atol=1e-12
            )

    def test_cost_equals_entropy_on_pure_states(self):
        psi = random_schmidt(5, rng_for(3))
        assert evaluate(ENTANGLEMENT_COST_PURE, psi).value == entanglement_entropy(psi)

    def test_squashed_pure_equals_entropy(self):
        psi = random_schmidt(3, rng_for(4))
        assert evaluate(SQUASHED_PURE, psi).value == entanglement_entropy(psi)

    def test_mixed_input_rejected(self):
        with pytest.raises(ApplicabilityError, match="pure states only"):
            entanglement_entropy(werner(0.8))

    def test_product_state_has_zero_entropy(self):
        assert_allclose(entanglement_entropy(product_pure(2, 3)), 0.0, atol=1e-12)


class TestLogNegativity:
    def test_bell_is_one(self):
        assert_allclose(log_negativity(bell()), 1.0, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_pure_state_closed_form(self, seed):
        psi = random_schmidt(3, rng_for(seed))
        assert_allclose(log_negativity(psi), pure_log_negativity(psi.probs), atol=1e-10)

    def test_werner_closed_form(self):
        for p in (0.4, 0.6, 0.85, 1.0):
            assert_allclose(log_negativity(werner(p)), werner_log_negativity(p), atol=1e-12)

    def test_ppt_states_snap_to_exact_zero(self):
        assert log_negativity(werner(0.2)) == 0.0
        assert log_negativity(maximally_mixed(2, 2)) == 0.0
        assert log_negativity(product_pure(3, 2)) == 0.0

    def test_pure_alpha_closed_form(self):
        for alpha in (0.1, 0.5, math.pi / 4):
            assert_allclose(
                log_negativity(pure_alpha(alpha)), pure_alpha_log_negativity(alpha), atol=1e-12
            )


class TestGeometric:
    def test_bell_value_is_half(self):
        res = geometric_entanglement(bell())
        assert res.measure == GEOMETRIC
        assert_allclose(res.value, 0.5, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_value_is_one_minus_top_schmidt_prob(self, seed):
        psi = random_schmidt(4, rng_for(seed))
        res = geometric_entanglement(psi)
        assert_allclose(res.value, 1.0 - psi.probs[0], atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_certificate_overlap_matches_value(self, seed):
        s = random_pure(2, 3, rng_for(seed))
        res = geometric_entanglement(s)
        assert_allclose(product_overlap(s, res.certificate), 1.0 - res.value, atol=1e-9)

    def test_schmidt_route_certificate_matches(self):
        psi = random_schmidt(3, rng_for(9))
        res = geometric_entanglement(psi)
        assert_allclose(product_overlap(psi, res.certificate), 1.0 - res.value, atol=1e-9)

    def test_bell_powers(self):
        state = bell()
        for n in (1, 2, 3):
            assert_allclose(geometric_entanglement(state).value, 1.0 - 0.5**n, atol=1e-12)
            state = tensor(state, bell())

    def test_mixed_input_rejected(self):
        with pytest.raises(ApplicabilityError, match="pure states only"):
            geometric_entanglement(werner(0.7))

    def test_product_state_value_zero(self):
        assert_allclose(geometric_entanglement(product_pure(2, 2)).value, 0.0, atol=1e-12)


class TestSquashedUpper:
    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_equals_entropy_on_pure_states(self, seed):
        s = random_pure(2, 2, rng_for(seed))
        assert_allclose(squashed_upper(s), entanglement_entropy(s), atol=1e-9)

    def test_maximally_mixed_is_zero(self):
        assert squashed_upper(maximally_mixed(2, 3)) == 0.0

    def test_half_mutual_information_by_hand(self):
        s = werner(0.8)
        ia_b = (
            von_neumann_entropy(partial_trace(s, "a"))
            + von_neumann_entropy(partial_trace(s, "b"))
            - von_neumann_entropy(s)
        )
        assert_allclose(squashed_upper(s), 0.5 * ia_b, atol=1e-12)


class TestRelativeEntropyMeasure:
    def test_bell_is_one_bit(self):
        res = relative_entropy_of_entanglement(bell(), QUICK)
        assert_allclose(res.value, 1.0, atol=1e-9)

    def test_maximally_correlated_fixture_value(self):
        res = relative_entropy_of_entanglement(
            maximally_correlated_lami(), OptimizerOptions(restarts=3, max_iters=1500)
        )
        assert_allclose(res.value, math.log2(1.5), atol=1e-9)

    def test_pure_state_matches_entropy(self):
        s = pure_alpha(0.3).to_bipartite()
        res = relative_entropy_of_entanglement(s, QUICK)
        assert_allclose(res.value, entanglement_entropy(s), atol=1e-9)

    def test_separable_states_are_zero(self):
        opts = OptimizerOptions(restarts=1, max_iters=200)
        assert relative_entropy_of_entanglement(maximally_mixed(2, 2), opts).value <= 1e-9
        assert relative_entropy_of_entanglement(product_pure(2, 2), opts).value <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_never_exceeds_dephasing_bound(self, seed):
        s = random_mixed(2, 2, rng_for(seed))
        res = relative_entropy_of_entanglement(s, OptimizerOptions(restarts=2, max_iters=600))
        assert res.value <= dephasing_upper_bound(s) + 1e-9
        assert res.value >= 0.0

    def test_certificate_reproduces_value(self):
        res = relative_entropy_of_entanglement(werner(0.9), QUICK)
        assert_allclose(ansatz_objective(werner(0.9), res.certificate), res.value, atol=1e-9)

    def test_warm_start_resumes_from_certificate(self):
        first = relative_entropy_of_entanglement(werner(0.9), OptimizerOptions(restarts=1, max_iters=50))
        opts = OptimizerOptions(restarts=0, max_iters=400, warm_start=first.certificate)
        second = relative_entropy_of_entanglement(werner(0.9), opts)
        assert second.value <= first.value + 1e-12

    def test_warm_start_dims_must_match(self):
        cert = relative_entropy_of_entanglement(bell(), OptimizerOptions(restarts=1, max_iters=50)).certificate
        with pytest.raises(ShapeError, match="warm start"):
            relative_entropy_of_entanglement(
                maximally_mixed(2, 3), OptimizerOptions(restarts=0, warm_start=cert)
            )

    def test_needs_at_least_one_start(self):
        with pytest.raises(DomainError, match="at least one start"):
            relative_entropy_of_entanglement(bell(), OptimizerOptions(restarts=0))

    def test_dimension_cap(self):
        with pytest.raises(CapacityError, match="capped"):
            relative_entropy_of_entanglement(maximally_mixed(6, 7))

    def test_reports_iterations(self):
        res = relative_entropy_of_entanglement(bell(), OptimizerOptions(restarts=1, max_iters=100))
        assert res.iterations > 0


class TestDescentKernel:
    """The descent's matrix-product contractions and two pinned trajectories."""

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_contractions_match_einsum(self, k, da, db, seed):
        rng = rng_for(seed)
        d = da * db
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        grad = m + m.conj().T
        a = rng.standard_normal((k, da)) + 1j * rng.standard_normal((k, da))
        b = rng.standard_normal((k, db)) + 1j * rng.standard_normal((k, db))
        a /= np.linalg.norm(a, axis=1)[:, None]
        b /= np.linalg.norm(b, axis=1)[:, None]
        w = rng.dirichlet(np.ones(k))
        v = _product_vectors(a, b)
        assert_allclose(v, np.einsum("ka,kb->kab", a, b).reshape(k, d), rtol=0, atol=1e-12)

        gv = v @ grad.T
        gw = _weight_gradient(v, gv)
        ga, gb = _local_gradients(gv, w, a, b)

        t4 = grad.reshape(da, db, da, db)
        ma = np.einsum("ku,xuyv,kv->kxy", b.conj(), t4, b)
        mb = np.einsum("kx,xuyv,ky->kuv", a.conj(), t4, a)
        assert_allclose(gw, np.real(np.einsum("kx,xy,ky->k", v.conj(), grad, v)), rtol=0, atol=1e-12)
        assert_allclose(ga, 2.0 * w[:, None] * np.einsum("kxy,ky->kx", ma, a), rtol=0, atol=1e-12)
        assert_allclose(gb, 2.0 * w[:, None] * np.einsum("kuv,kv->ku", mb, b), rtol=0, atol=1e-12)

    # The two trajectory pins hold the iteration counts and values of the
    # einsum-form descent.  Near convergence a line-search step gains about
    # 1e-15 bit, so reordering a sum inside the descent can move a count by
    # one or two; these two cases did not move.
    def test_werner_trajectory_pinned(self):
        res = relative_entropy_of_entanglement(werner(0.85))
        assert res.iterations == 2074
        assert abs(res.value - 0.4925890366716129) <= 1e-12

    def test_continuity_triple_trajectory_pinned(self):
        # rho (x) tau of the first triple drawn by acceptance test c06; the
        # middle draw is its sigma.  1001 = 1000 (the budget) + 1 (a stalled start).
        rng = rng_for(606)
        rho = random_mixed(2, 2, rng)
        random_mixed(2, 2, rng)
        tau = random_mixed(2, 2, rng)
        res = relative_entropy_of_entanglement(tensor(rho, tau), CONTINUITY_OPTS)
        assert res.iterations == 1001
        assert abs(res.value - 0.13893804662314801) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="low-restart stall: a dephasing start can only reweight and rotate its own basis "
        "terms, and from both dephasings of werner(0.4) no line-search step lowers the objective, "
        "so two restarts stop after 2 iterations at 0.1753 while reporting convergence",
    )
    def test_low_restart_budget_reaches_werner_value(self):
        lam = (1.0 + 3.0 * 0.4) / 4.0
        exact = 1.0 - shannon_bits([lam, 1.0 - lam])
        res = relative_entropy_of_entanglement(werner(0.4), OptimizerOptions(restarts=2, max_iters=1000))
        assert res.value <= exact + ER_VALUE_SLACK


def c06_first_rho_tau():
    """rho (x) tau of the first triple drawn by acceptance test c06."""
    rng = rng_for(606)
    rho = random_mixed(2, 2, rng)
    random_mixed(2, 2, rng)
    return tensor(rho, random_mixed(2, 2, rng))


class TestDephasingStarts:
    def test_dephasing_starts_carry_only_live_terms(self):
        for s in (c06_first_rho_tau(), pure_alpha(0.3).to_bipartite(), bell(), werner(0.4)):
            for w, a, b in _initial_points(s, 2, 0):
                assert 1 <= w.size <= s.dim
                assert a.shape == (w.size, s.dim_a) and b.shape == (w.size, s.dim_b)
                assert np.all(w > 0.0)
                assert_allclose(w.sum(), 1.0, atol=1e-15)

    def test_start_sizes(self):
        assert [w.size for w, _, _ in _initial_points(c06_first_rho_tau(), 2, 0)] == [16, 16]
        computational = _initial_points(pure_alpha(0.3).to_bipartite(), 1, 0)
        assert [w.size for w, _, _ in computational] == [2]

    def test_random_starts_keep_full_size(self):
        starts = _initial_points(werner(0.7), 4, 3)
        assert [w.size for w, _, _ in starts[2:]] == [16, 16]
        assert _initial_points(werner(0.7), 0, 3) == []


class TestDephasingBound:
    def test_bell_bound_is_one(self):
        assert_allclose(dephasing_upper_bound(bell()), 1.0, atol=1e-12)

    def test_zero_on_separable_fixtures(self):
        assert dephasing_upper_bound(maximally_mixed(2, 2)) == 0.0
        assert_allclose(dephasing_upper_bound(product_pure(2, 2)), 0.0, atol=1e-12)

    def test_bound_is_the_better_dephasing_start(self):
        rng = rng_for(17)
        states = [bell(), *(werner(p) for p in (0.0, 0.3, 0.6, 0.9))]
        states += [random_mixed(2, 2, rng), random_mixed(2, 3, rng), random_mixed(3, 3, rng)]
        states += [random_pure(2, 2, rng), random_pure(2, 3, rng)]
        for s in states:
            best = min(ansatz_objective(s, SeparableAnsatz(*start)) for start in _initial_points(s, 2, 0))
            assert_allclose(max(0.0, best), dephasing_upper_bound(s), rtol=0, atol=1e-9)


class TestSeparableAnsatz:
    def _rows(self, k, d, seed):
        rng = rng_for(seed)
        return rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))

    def test_normalizes_rows_and_checks_weights(self):
        a = SeparableAnsatz(weights=[0.25, 0.75], vecs_a=self._rows(2, 2, 0), vecs_b=self._rows(2, 3, 1))
        assert_allclose(a.weights.sum(), 1.0, atol=1e-15)
        assert_allclose(np.linalg.norm(a.vecs_a, axis=1), 1.0, atol=1e-12)
        assert a.k == 2
        assert a.dims == (2, 3)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValidationError, match="sum to"):
            SeparableAnsatz(weights=[2.0, 2.0], vecs_a=self._rows(2, 2, 0), vecs_b=self._rows(2, 3, 1))

    def test_separable_matrix_is_a_state(self):
        a = SeparableAnsatz(weights=[0.5, 0.5], vecs_a=self._rows(2, 2, 2), vecs_b=self._rows(2, 2, 3))
        m = a.separable_matrix()
        assert_allclose(np.trace(m).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError, match="negative"):
            SeparableAnsatz(weights=[1.5, -0.5], vecs_a=self._rows(2, 2, 4), vecs_b=self._rows(2, 2, 5))

    def test_rejects_zero_vector(self):
        va = self._rows(2, 2, 6)
        va[1] = 0.0
        with pytest.raises(ValidationError, match="zero local vector"):
            SeparableAnsatz(weights=[0.5, 0.5], vecs_a=va, vecs_b=self._rows(2, 2, 7))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            SeparableAnsatz(weights=[1.0], vecs_a=self._rows(2, 2, 8), vecs_b=self._rows(2, 2, 9))


class TestAdditivity:
    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_log_negativity_additive_under_tensor(self, seed):
        rng = rng_for(seed)
        s1 = random_pure(2, 2, rng)
        s2 = random_pure(2, 2, rng)
        assert_allclose(
            log_negativity(tensor(s1, s2)),
            log_negativity(s1) + log_negativity(s2),
            atol=1e-9,
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_entropy_additive_under_tensor(self, seed):
        rng = rng_for(seed)
        s1 = random_pure(2, 2, rng)
        s2 = random_pure(2, 2, rng)
        assert_allclose(
            entanglement_entropy(tensor(s1, s2)),
            entanglement_entropy(s1) + entanglement_entropy(s2),
            atol=1e-9,
        )

    def test_log_negativity_additive_for_mixed_pair(self):
        s1, s2 = werner(0.9), werner(0.6)
        assert_allclose(
            log_negativity(tensor(s1, s2)),
            log_negativity(s1) + log_negativity(s2),
            atol=1e-9,
        )


class TestRegistryAndDispatch:
    def test_registry_flags(self):
        assert measure_spec(LOG_NEGATIVITY).additive and not measure_spec(LOG_NEGATIVITY).pure_only
        assert measure_spec(ENTROPY_OF_ENTANGLEMENT).pure_only
        assert measure_spec(GEOMETRIC).pure_only and not measure_spec(GEOMETRIC).additive
        assert not measure_spec(RELATIVE_ENTROPY).additive
        assert measure_spec(RELATIVE_ENTROPY).value_slack > 0.0
        assert measure_spec(SQUASHED_UPPER).additive
        assert set(MEASURES) == {
            ENTROPY_OF_ENTANGLEMENT,
            ENTANGLEMENT_COST_PURE,
            LOG_NEGATIVITY,
            RELATIVE_ENTROPY,
            GEOMETRIC,
            SQUASHED_UPPER,
            SQUASHED_PURE,
        }

    def test_unknown_measure_rejected(self):
        with pytest.raises(DomainError, match="unknown measure"):
            measure_spec("negativity")

    def test_evaluate_wraps_closed_form_measures(self):
        res = evaluate(LOG_NEGATIVITY, bell())
        assert isinstance(res, MeasureResult)
        assert res.measure == LOG_NEGATIVITY
        assert res.value == log_negativity(bell())
        assert res.certificate is None
        assert res.converged

    def test_evaluate_geometric_carries_certificate(self):
        res = evaluate(GEOMETRIC, bell())
        assert res.certificate is not None
        assert_allclose(product_overlap(bell(), res.certificate), 1.0 - res.value, atol=1e-9)

    def test_evaluate_forwards_optimizer_options(self):
        res = evaluate(RELATIVE_ENTROPY, bell(), OptimizerOptions(restarts=1, max_iters=150))
        assert res.iterations > 0
        assert_allclose(res.value, 1.0, atol=1e-6)

    def test_evaluate_squashed_pair(self):
        psi = random_schmidt(3, rng_for(12))
        assert evaluate(SQUASHED_PURE, psi).value == evaluate(ENTROPY_OF_ENTANGLEMENT, psi).value
        assert evaluate(SQUASHED_UPPER, psi.to_bipartite()).value == squashed_upper(psi)

    def test_evaluate_cost_pure(self):
        psi = random_schmidt(2, rng_for(13))
        assert evaluate(ENTANGLEMENT_COST_PURE, psi).value == entanglement_entropy(psi)
