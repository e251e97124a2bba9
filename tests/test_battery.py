import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entbat import battery, cli
from entbat.battery import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    MultiMeasureBound,
    ProtocolReport,
    RatePlan,
    _best_rational_below,
    continuity_bound_check,
    conversion_rate,
    feasible,
    multi_measure_bound,
    resource_balance_check,
    search_nonequivalent_pair,
    swap_protocol,
    zero_error_rate,
)
from entbat.errors import (
    ApplicabilityError,
    InfeasibleError,
    SearchExhaustedError,
    ShapeError,
    UnboundedRateError,
    ValidationError,
)
from entbat.measures import OptimizerOptions, evaluate, measure_spec
from entbat.qmat import permute_factors, trace_distance
from entbat.states import (
    PureSchmidtState,
    bell,
    maximally_mixed,
    product_pure,
    pure_alpha,
    random_schmidt,
    werner,
)

from oracles import best_fraction_below_exact, shannon_bits

ENTROPY = "entropy-of-entanglement"
LOG_NEG = "log-negativity"
GEOMETRIC = "geometric"
REL_ENT = "relative-entropy"
QUICK = OptimizerOptions(restarts=2, max_iters=800)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestFeasibility:
    def test_bell_downhill_is_feasible(self):
        assert feasible(bell(), pure_alpha(0.3), ENTROPY) == FEASIBLE

    def test_uphill_is_infeasible(self):
        assert feasible(pure_alpha(0.3), bell(), ENTROPY) == INFEASIBLE

    def test_reflexive(self):
        assert feasible(werner(0.8), werner(0.8), LOG_NEG) == FEASIBLE

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_verdict_matches_entropy_ordering(self, seed):
        rng = rng_for(seed)
        p1 = random_schmidt(2, rng)
        p2 = random_schmidt(2, rng)
        e1, e2 = shannon_bits(p1.probs), shannon_bits(p2.probs)
        assume(abs(e1 - e2) > 1e-6)
        want = FEASIBLE if e1 > e2 else INFEASIBLE
        assert feasible(p1, p2, ENTROPY) == want

    def test_optimizer_measure_ties_are_undecided(self):
        assert feasible(bell(), bell(), REL_ENT, QUICK) == UNDECIDED

    def test_optimizer_measure_decides_wide_gaps(self):
        assert feasible(bell(), werner(0.5), REL_ENT, QUICK) == FEASIBLE
        assert feasible(werner(0.5), bell(), REL_ENT, QUICK) == INFEASIBLE


class TestSwapProtocol:
    def test_licensed_swap_runs(self):
        rep = swap_protocol(bell(), pure_alpha(0.4), ENTROPY)
        assert rep.feasible
        assert rep.battery_measure == ENTROPY
        assert_allclose(rep.e_battery_before, evaluate(ENTROPY, pure_alpha(0.4)).value, atol=1e-12)
        assert_allclose(rep.e_battery_after, 1.0, atol=1e-12)
        assert rep.e_battery_after >= rep.e_battery_before
        assert rep.final_system_trace_distance <= 1e-12

    def test_swap_is_an_exact_relabeling(self):
        rep = swap_protocol(bell(), pure_alpha(0.4), ENTROPY)
        dims = (2, 2, 2, 2)
        swapped = permute_factors(rep.initial_global.matrix, dims, (1, 0, 3, 2))
        assert np.array_equal(swapped, rep.final_global.matrix)

    def test_unlicensed_swap_raises(self):
        with pytest.raises(InfeasibleError, match="infeasible"):
            swap_protocol(pure_alpha(0.3), bell(), ENTROPY)

    def test_mismatched_dimensions_are_padded(self):
        target = PureSchmidtState([0.9, 0.05, 0.05])
        rep = swap_protocol(bell(), target, ENTROPY)
        # both slots are padded to 6x6 operands, so the joint state is 36x36
        assert rep.initial_global.dim == 1296
        assert rep.final_system_trace_distance <= 1e-12
        assert_allclose(rep.e_battery_after, 1.0, atol=1e-12)

    def test_mixed_state_swap_under_log_negativity(self):
        rep = swap_protocol(werner(0.9), werner(0.6), LOG_NEG)
        assert rep.final_system_trace_distance <= 1e-12
        assert rep.e_battery_after >= rep.e_battery_before - 1e-12

    def test_report_guards_battery_decrease(self):
        rep = swap_protocol(bell(), pure_alpha(0.4), ENTROPY)
        with pytest.raises(ValidationError, match="decreased the battery"):
            ProtocolReport(
                initial_global=rep.initial_global,
                final_global=rep.final_global,
                battery_measure=ENTROPY,
                e_battery_before=1.0,
                e_battery_after=0.5,
                feasible=True,
                final_system_trace_distance=0.0,
            )


class TestRationalPlans:
    def test_exact_simple_fraction(self):
        assert _best_rational_below(0.5) == (1, 2, True)
        assert _best_rational_below(2.0) == (2, 1, True)
        assert _best_rational_below(0.0) == (0, 1, True)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_matches_exact_oracle(self, seed):
        rng = rng_for(seed)
        x = float(rng.uniform(0.01, 4.0))
        m, n, exact = _best_rational_below(x)
        if exact:
            assert abs(m / n - x) <= 1e-12
        else:
            assert (m, n) == best_fraction_below_exact(x, 10**6)

    def test_plan_sits_just_below(self):
        for x in (math.pi / 4, math.sqrt(2) / 3, 1.0 / shannon_bits(pure_alpha(0.3).probs)):
            m, n, exact = _best_rational_below(x)
            assert m / n <= x + 1e-12
            assert x - m / n < 1e-6
            if exact:
                assert abs(m / n - x) <= 1e-12

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            _best_rational_below(-0.1)
        with pytest.raises(ValidationError):
            _best_rational_below(float("inf"))


class TestConversionRate:
    def test_integer_rate_is_exact(self):
        two_bells = PureSchmidtState([0.25, 0.25, 0.25, 0.25])
        plan = conversion_rate(two_bells, bell(), ENTROPY)
        assert (plan.m, plan.n, plan.exact) == (2, 1, True)
        assert plan.epsilon_gap == 0.0
        assert_allclose(plan.rate, 2.0, atol=1e-12)

    def test_irrational_rate_has_tiny_gap(self):
        plan = conversion_rate(bell(), pure_alpha(0.3), ENTROPY)
        assert_allclose(plan.rate, 1.0 / shannon_bits(pure_alpha(0.3).probs), atol=1e-12)
        assert plan.m / plan.n <= plan.rate + 1e-12
        assert 0.0 <= plan.epsilon_gap < 1e-6

    def test_identity_conversion(self):
        plan = conversion_rate(bell(), bell(), LOG_NEG)
        assert (plan.m, plan.n, plan.exact) == (1, 1, True)

    def test_resource_free_target_is_unbounded(self):
        with pytest.raises(UnboundedRateError, match="no resource"):
            conversion_rate(bell(), product_pure(2, 2), LOG_NEG)

    def test_plan_validation(self):
        with pytest.raises(ValidationError, match="exceeds rate"):
            RatePlan(measure=ENTROPY, rate=1.0, m=3, n=2, epsilon_gap=0.0, exact=False)
        with pytest.raises(ValidationError, match="copy counts"):
            RatePlan(measure=ENTROPY, rate=1.0, m=1, n=0, epsilon_gap=0.0, exact=False)


class TestZeroError:
    def test_tags_plan(self):
        plan = zero_error_rate(bell(), pure_alpha(0.5), ENTROPY)
        base = conversion_rate(bell(), pure_alpha(0.5), ENTROPY)
        assert plan.zero_error and not base.zero_error
        assert (plan.m, plan.n) == (base.m, base.n)

    def test_declared_measures_only(self):
        assert not measure_spec(GEOMETRIC).additive
        for measure in (GEOMETRIC, REL_ENT):
            with pytest.raises(ApplicabilityError, match="additive measure"):
                zero_error_rate(bell(), pure_alpha(0.5), measure)

    def test_squashed_measures_are_additive(self):
        # half the mutual information adds over tensor products
        base = conversion_rate(bell(), pure_alpha(0.5), ENTROPY)
        for measure in ("squashed-upper", "squashed-pure"):
            plan = zero_error_rate(bell(), pure_alpha(0.5), measure)
            assert plan.zero_error
            assert (plan.m, plan.n) == (base.m, base.n)


class TestCycleAndMultiMeasure:
    def test_equal_states_give_unit_product(self):
        b = multi_measure_bound(bell(), bell(), ENTROPY, LOG_NEG)
        assert_allclose((b.r_forward, b.r_backward, b.product), (1.0, 1.0, 1.0), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_product_never_exceeds_one(self, seed):
        rng = rng_for(seed)
        p1 = random_schmidt(2, rng)
        p2 = random_schmidt(2, rng)
        assume(min(p1.probs[1], p2.probs[1]) > 1e-6)
        b = multi_measure_bound(p1, p2, ENTROPY, LOG_NEG)
        assert b.product <= 1.0 + 1e-12
        assert_allclose(b.product, b.r_forward * b.r_backward, atol=1e-15)

    def test_resource_free_targets_unbounded(self):
        with pytest.raises(UnboundedRateError):
            multi_measure_bound(product_pure(2, 2), bell(), ENTROPY, LOG_NEG)


class TestPairSearch:
    def test_finds_oppositely_ordered_mixed_pair(self):
        res = search_nonequivalent_pair(LOG_NEG, "squashed-upper", seed=0)
        assert res.samples_used <= 100
        v1r, v2r = res.values_rho
        v1s, v2s = res.values_sigma
        assert v1r > v1s and v2r < v2s
        bound = multi_measure_bound(res.rho, res.sigma, LOG_NEG, "squashed-upper")
        assert bound.product < 1.0 - 1e-3

    def test_reported_values_are_reproducible(self):
        res = search_nonequivalent_pair(LOG_NEG, "squashed-upper", seed=0)
        assert_allclose(evaluate(LOG_NEG, res.rho).value, res.values_rho[0], atol=1e-12)
        assert_allclose(evaluate("squashed-upper", res.sigma).value, res.values_sigma[1], atol=1e-12)
        bound = multi_measure_bound(res.rho, res.sigma, LOG_NEG, "squashed-upper")
        assert (res.bound.r_forward, res.bound.r_backward, res.bound.product) == (
            bound.r_forward, bound.r_backward, bound.product
        )

    def test_identically_ordered_measures_exhaust(self):
        with pytest.raises(SearchExhaustedError, match="no oppositely ordered pair"):
            search_nonequivalent_pair(ENTROPY, "entanglement-cost-pure", seed=0, budget=50)


class TestContinuity:
    def test_identical_operands(self):
        s = werner(0.9)
        tau = product_pure(2, 2)
        rep = continuity_bound_check(s, s, tau)
        assert rep.epsilon == 0.0
        assert rep.rhs == 0.0
        assert rep.holds

    def test_nearby_werner_states(self):
        rho, sigma = werner(0.9), werner(0.85)
        rep = continuity_bound_check(rho, sigma, product_pure(2, 2))
        assert_allclose(rep.epsilon, trace_distance(rho, sigma), atol=1e-12)
        assert rep.lhs <= rep.rhs + rep.slack
        assert rep.holds

    def test_trivial_battery(self):
        # a one-dimensional battery carries no entanglement but is still legal
        rep = continuity_bound_check(bell(), maximally_mixed(2, 2), product_pure(1, 1))
        assert rep.holds

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="different systems"):
            continuity_bound_check(bell(), maximally_mixed(2, 3), product_pure(2, 2))


class TestResourceBalance:
    def test_additive_swap_balances(self):
        rep = swap_protocol(bell(), pure_alpha(0.4), ENTROPY)
        bal = resource_balance_check(rep)
        assert bal.holds
        assert_allclose(bal.lhs, bal.rhs, atol=1e-9)

    def test_log_negativity_balance_value(self):
        rep = swap_protocol(bell(), pure_alpha(math.pi / 8), LOG_NEG)
        bal = resource_balance_check(rep)
        target = 1.0 - math.log2(1.0 + math.sin(math.pi / 4))
        assert_allclose(bal.lhs, target, atol=1e-6)
        assert_allclose(bal.rhs, target, atol=1e-6)

    def test_needs_additive_measure(self):
        rep = swap_protocol(bell(), pure_alpha(0.4), GEOMETRIC)
        with pytest.raises(ApplicabilityError, match="additive"):
            resource_balance_check(rep)


class TestEvaluateOnce:
    """Each (state, measure) value of a battery call chain is computed once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(measure_id, state, opts=None):
            seen.append((measure_id, opts))
            return evaluate(measure_id, state, opts)

        monkeypatch.setattr(battery, "evaluate", counting)
        return seen

    def test_swap_evaluates_each_state_once(self, calls):
        rep = swap_protocol(werner(0.9), werner(0.7), REL_ENT, QUICK)
        assert calls == [(REL_ENT, QUICK)] * 2
        assert rep.e_battery_after > rep.e_battery_before

    def test_search_confirms_with_two_evaluations_per_measure(self, calls):
        res = search_nonequivalent_pair(LOG_NEG, REL_ENT, seed=0)
        # screening: one evaluation per measure and sample, REE at the screening budget
        assert calls.count((REL_ENT, battery.SEARCH_SCREEN_OPTS)) == res.samples_used
        assert calls.count((REL_ENT, None)) == 2
        assert calls.count((LOG_NEG, None)) == res.samples_used + 2
        assert len(calls) == 2 * res.samples_used + 4

    def test_cli_search_pair_evaluates_nothing_after_the_search(self, calls, monkeypatch, capsys):
        returned_at = []

        def search(*args, **kwargs):
            res = search_nonequivalent_pair(*args, **kwargs)
            returned_at.append(len(calls))
            return res

        monkeypatch.setattr(cli, "search_nonequivalent_pair", search)
        argv = ["search-pair", "--measure-1", LOG_NEG, "--measure-2", "squashed-upper", "--seed", "0"]
        code = cli.main(argv)
        assert code == 0
        assert returned_at == [len(calls)]
        product = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        assert product < 1.0 - 1e-3
