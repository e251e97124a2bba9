import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entbat.battery import FEASIBLE, INFEASIBLE, ProtocolReport
from entbat.errors import (
    ApplicabilityError,
    CapacityError,
    DomainError,
    InfeasibleError,
    ParseError,
    ShapeError,
    ValidationError,
)
from entbat.qmat import permute_factors
from entbat.states import _matrix_to_payload
from entbat.thermo import (
    RELATIVE_TO_GIBBS,
    STANDARD_OFFSET,
    ThermoDilutionReport,
    ThermoState,
    compose,
    f_max,
    free_energy,
    incoherent_probs,
    load_thermo_scenario,
    renyi_free_energy,
    thermo_feasible,
    thermo_from_dict,
    thermo_self_dilution,
    thermo_swap_protocol,
)

from oracles import (
    gibbs_weights,
    kl_bits,
    qubit_f_max_bits,
    qubit_free_energy_bits,
    renyi_divergence_bits,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def qubit(p, energies=(0.0, 1.0), beta=1.0):
    """Incoherent qubit with excited-state population p."""
    return ThermoState(
        rho=np.diag([1.0 - p, p]).astype(complex), energies=np.asarray(energies, float), beta=beta
    )


def gibbs_state(energies, beta=1.0):
    g = gibbs_weights(energies, beta)
    return ThermoState(rho=np.diag(g).astype(complex), energies=np.asarray(energies, float), beta=beta)


def random_density(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


class TestThermoState:
    def test_rejects_bad_beta(self):
        for beta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="beta"):
                qubit(0.5, beta=beta)

    def test_rejects_nonfinite_energies(self):
        with pytest.raises(DomainError, match="finite"):
            qubit(0.5, energies=(0.0, math.inf))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError, match="energy levels"):
            ThermoState(rho=np.eye(2, dtype=complex) / 2, energies=np.zeros(3), beta=1.0)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(ValidationError, match="Hermitian"):
            ThermoState(rho=m, energies=np.array([0.0, 1.0]), beta=1.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            ThermoState(rho=np.eye(2, dtype=complex), energies=np.array([0.0, 1.0]), beta=1.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            ThermoState(rho=m, energies=np.array([0.0, 1.0]), beta=1.0)

    def test_rejects_non_finite_rho(self):
        for m in (np.diag([math.nan, 0.5]), np.full((3, 3), math.nan), np.diag([math.inf, 0.0])):
            with pytest.raises(ValidationError, match="non-finite"):
                ThermoState(rho=m.astype(complex), energies=np.arange(m.shape[0], dtype=float), beta=1.0)

    def test_rejects_singular_gibbs_state(self):
        with pytest.raises(DomainError, match="singular"):
            qubit(0.5, energies=(0.0, 5000.0))

    def test_log2_z_matches_direct_sum(self):
        e = np.array([0.0, 0.7, 1.9])
        s = ThermoState(rho=np.eye(3, dtype=complex) / 3, energies=e, beta=1.3)
        assert_allclose(s.log2_z, math.log2(sum(math.exp(-1.3 * x) for x in e)), atol=1e-12)

    def test_gibbs_probs_match_oracle(self):
        s = qubit(0.3, energies=(0.2, 1.4), beta=0.8)
        assert_allclose(s.gibbs_probs, gibbs_weights((0.2, 1.4), 0.8), atol=1e-15)

    def test_trace_renormalized_exactly(self):
        m = np.diag([0.5 + 1e-10, 0.5]).astype(complex)
        s = ThermoState(rho=m, energies=np.array([0.0, 1.0]), beta=1.0)
        assert abs(np.trace(s.rho).real - 1.0) < 1e-15


class TestFreeEnergy:
    def test_gibbs_state_sits_at_zero(self):
        s = gibbs_state((0.0, 1.0, 2.5))
        assert_allclose(free_energy(s, RELATIVE_TO_GIBBS).f, 0.0, atol=1e-12)
        assert_allclose(free_energy(s, STANDARD_OFFSET).f, -s.log2_z, atol=1e-12)

    def test_qubit_closed_form(self):
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            s = qubit(p, energies=(0.0, 1.5), beta=0.7)
            assert_allclose(
                free_energy(s, RELATIVE_TO_GIBBS).f,
                qubit_free_energy_bits(p, (0.0, 1.5), 0.7),
                atol=1e-12,
            )

    def test_standard_offset_shifts_by_log_z(self):
        s = qubit(0.7)
        assert_allclose(
            free_energy(s).f, free_energy(s, RELATIVE_TO_GIBBS).f - s.log2_z, atol=1e-12
        )

    def test_variant_is_tagged(self):
        assert free_energy(qubit(0.3)).variant == STANDARD_OFFSET
        assert free_energy(qubit(0.3), RELATIVE_TO_GIBBS).variant == RELATIVE_TO_GIBBS

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError, match="variant"):
            free_energy(qubit(0.3), "helmholtz")

    def test_f_max_zero_at_gibbs(self):
        assert_allclose(f_max(gibbs_state((0.0, 1.0))).f, 0.0, atol=1e-12)

    def test_f_max_qubit_closed_form(self):
        for p in (0.0, 0.4, 0.95, 1.0):
            s = qubit(p, energies=(0.1, 1.1), beta=1.2)
            assert_allclose(f_max(s).f, qubit_f_max_bits(p, (0.1, 1.1), 1.2), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_f_max_dominates_relative_free_energy(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 5))
        s = ThermoState(
            rho=random_density(dim, rng),
            energies=rng.uniform(0.0, 2.0, dim),
            beta=float(rng.uniform(0.3, 2.0)),
        )
        assert f_max(s).f >= free_energy(s, RELATIVE_TO_GIBBS).f - 1e-9


class TestIncoherent:
    def test_populations_of_diagonal_state(self):
        assert_allclose(incoherent_probs(qubit(0.3)), [0.7, 0.3], atol=1e-15)

    def test_coherences_rejected(self):
        m = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        s = ThermoState(rho=m, energies=np.array([0.0, 1.0]), beta=1.0)
        with pytest.raises(ApplicabilityError, match="coherences"):
            incoherent_probs(s)


class TestRenyiFreeEnergy:
    def test_matches_classical_oracle(self):
        g = gibbs_weights((0.0, 1.0), 1.0)
        for alpha in (0.0, 0.3, 0.5, 2.0, 3.0, math.inf):
            got = renyi_free_energy(qubit(0.8), alpha).f
            assert_allclose(got, renyi_divergence_bits([0.2, 0.8], g, alpha), atol=1e-12)

    def test_alpha_one_is_relative_free_energy(self):
        s = qubit(0.6)
        assert_allclose(
            renyi_free_energy(s, 1.0).f, free_energy(s, RELATIVE_TO_GIBBS).f, atol=1e-12
        )

    def test_alpha_infinity_is_f_max(self):
        s = qubit(0.9)
        assert_allclose(renyi_free_energy(s, math.inf).f, f_max(s).f, atol=1e-12)

    def test_alpha_zero_counts_support(self):
        s = qubit(1.0)
        g1 = gibbs_weights((0.0, 1.0), 1.0)[1]
        assert_allclose(renyi_free_energy(s, 0.0).f, -math.log2(g1), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_non_decreasing_in_alpha(self, seed):
        rng = rng_for(seed)
        s = qubit(float(rng.uniform(0.01, 0.99)), beta=float(rng.uniform(0.3, 2.0)))
        grid = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]
        vals = [renyi_free_energy(s, a).f for a in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError, match="Renyi order"):
            renyi_free_energy(qubit(0.5), -0.5)

    def test_coherent_state_rejected(self):
        m = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        s = ThermoState(rho=m, energies=np.array([0.0, 1.0]), beta=1.0)
        with pytest.raises(ApplicabilityError):
            renyi_free_energy(s, 2.0)


class TestFeasibilityAndSwap:
    def test_reflexive(self):
        assert thermo_feasible(qubit(0.4), qubit(0.4)) == FEASIBLE

    def test_downhill_feasible_uphill_not(self):
        hot = qubit(1.0)
        cool = qubit(0.4)
        assert thermo_feasible(hot, cool) == FEASIBLE
        assert thermo_feasible(cool, hot) == INFEASIBLE

    def test_requires_common_bath(self):
        with pytest.raises(DomainError, match="inverse temperatures"):
            thermo_feasible(qubit(0.5, beta=1.0), qubit(0.5, beta=2.0))

    def test_swap_report_fields(self):
        s1, s2 = qubit(1.0), qubit(0.7)
        rep = thermo_swap_protocol(s1, s2)
        assert rep.battery_measure == "free-energy"
        assert_allclose(rep.e_battery_before, free_energy(s2).f, atol=1e-15)
        assert_allclose(rep.e_battery_after, free_energy(s1).f, atol=1e-15)
        assert rep.e_battery_after >= rep.e_battery_before
        assert rep.final_system_trace_distance <= 1e-12

    def test_swap_is_exact_relabeling(self):
        s1, s2 = qubit(1.0), qubit(0.7)
        rep = thermo_swap_protocol(s1, s2)
        swapped = permute_factors(rep.initial_global.matrix, (2, 2), (1, 0))
        assert np.array_equal(swapped, rep.final_global.matrix)

    def test_swap_across_different_hamiltonians(self):
        s1 = qubit(1.0, energies=(0.0, 1.0))
        s2 = gibbs_state((0.0, 0.5, 2.0))
        assert thermo_feasible(s1, s2) == FEASIBLE
        rep = thermo_swap_protocol(s1, s2)
        assert (rep.initial_global.dim_a, rep.initial_global.dim_b) == (2, 3)
        assert (rep.final_global.dim_a, rep.final_global.dim_b) == (3, 2)
        assert rep.final_system_trace_distance <= 1e-12

    def test_infeasible_swap_raises(self):
        with pytest.raises(InfeasibleError, match="free energy"):
            thermo_swap_protocol(qubit(0.4), qubit(1.0))


class TestCompose:
    def test_free_energy_additive(self):
        s1 = qubit(0.9, energies=(0.0, 1.0))
        s2 = qubit(0.6, energies=(0.2, 0.8))
        joint = compose(s1, s2)
        assert_allclose(free_energy(joint).f, free_energy(s1).f + free_energy(s2).f, atol=1e-9)
        assert_allclose(
            free_energy(joint, RELATIVE_TO_GIBBS).f,
            free_energy(s1, RELATIVE_TO_GIBBS).f + free_energy(s2, RELATIVE_TO_GIBBS).f,
            atol=1e-9,
        )

    def test_f_max_additive(self):
        s1, s2 = qubit(0.9), qubit(0.3)
        assert_allclose(f_max(compose(s1, s2)).f, f_max(s1).f + f_max(s2).f, atol=1e-9)

    def test_energies_add_on_product_space(self):
        joint = compose(qubit(0.5, energies=(0.0, 1.0)), qubit(0.5, energies=(0.0, 10.0)))
        assert_allclose(joint.energies, [0.0, 10.0, 1.0, 11.0], atol=0)

    def test_requires_common_bath(self):
        with pytest.raises(DomainError, match="inverse temperatures"):
            compose(qubit(0.5, beta=1.0), qubit(0.5, beta=2.0))

    def test_capacity_cap(self):
        big = ThermoState(rho=np.eye(70, dtype=complex) / 70, energies=np.zeros(70), beta=1.0)
        with pytest.raises(CapacityError, match="dimension"):
            compose(big, big)


class TestSelfDilution:
    def test_pure_excited_endpoint_is_exactly_one(self):
        rep = thermo_self_dilution(qubit(1.0))
        assert rep.product == 1.0
        assert rep.r == 1.0
        assert rep.r_prime == 1.0
        assert not rep.at_gibbs

    def test_ground_state_endpoint_is_exactly_one(self):
        rep = thermo_self_dilution(qubit(0.0))
        assert rep.product == 1.0
        assert not rep.at_gibbs

    def test_interior_point_exceeds_one(self):
        rep = thermo_self_dilution(qubit(0.5))
        assert rep.product > 1.0
        assert_allclose(rep.product, rep.r * rep.r_prime, rtol=1e-12)

    def test_matches_classical_forms(self):
        p, e, b = 0.8, (0.0, 1.0), 1.0
        rep = thermo_self_dilution(qubit(p, energies=e, beta=b))
        assert_allclose(
            rep.product,
            qubit_f_max_bits(p, e, b) / qubit_free_energy_bits(p, e, b),
            rtol=1e-12,
        )

    def test_at_gibbs_reported(self):
        g1 = float(gibbs_weights((0.0, 1.0), 1.0)[1])
        rep = thermo_self_dilution(qubit(g1))
        assert rep.at_gibbs
        assert rep.product == 1.0
        assert rep.r == 0.0
        assert math.isinf(rep.r_prime)

    def test_needs_a_qubit(self):
        s = ThermoState(rho=np.eye(3, dtype=complex) / 3, energies=np.zeros(3), beta=1.0)
        with pytest.raises(ShapeError, match="qubit"):
            thermo_self_dilution(s)

    def test_needs_incoherent_state(self):
        m = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        s = ThermoState(rho=m, energies=np.array([0.0, 1.0]), beta=1.0)
        with pytest.raises(ApplicabilityError):
            thermo_self_dilution(s)

    def test_report_guards_product_below_one(self):
        with pytest.raises(ValidationError, match="fell below 1"):
            ThermoDilutionReport(r=0.5, r_prime=1.0, product=0.5, at_gibbs=False)


class TestScenarioIO:
    def test_population_payload(self):
        s = thermo_from_dict({"beta": 1.0, "energies": [0.0, 1.0], "rho": [0.3, 0.7]})
        assert_allclose(np.diag(s.rho).real, [0.3, 0.7], atol=1e-15)
        assert s.beta == 1.0

    def test_matrix_payload(self):
        # entries are [re, im] pairs
        rho = [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]]
        doc = {"beta": 2.0, "energies": [0.0, 1.0], "rho": rho}
        s = thermo_from_dict(doc)
        assert_allclose(s.rho[0, 1], 0.5j, atol=1e-15)

    def test_hamiltonian_rotates_to_eigenbasis(self):
        # H = sigma_x / 2 has eigenvalues -+1/2; |+> is its excited state.
        h = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
        rho = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        s = thermo_from_dict({"beta": 1.0, "hamiltonian": h, "rho": rho})
        assert_allclose(s.energies, [-0.5, 0.5], atol=1e-12)
        assert_allclose(np.diag(s.rho).real, [0.0, 1.0], atol=1e-12)
        direct = ThermoState(
            rho=np.diag([0.0, 1.0]).astype(complex), energies=np.array([-0.5, 0.5]), beta=1.0
        )
        assert_allclose(free_energy(s).f, free_energy(direct).f, atol=1e-12)

    # H = diag(0, 1, 1); rho is coherent only inside the degenerate level.
    DEGENERATE_H = _matrix_to_payload(np.diag([0.0, 1.0, 1.0]))
    BLOCK_COHERENT_RHO = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.1], [0.0, 0.1, 0.25]], dtype=complex)
    BLOCK_COHERENT = _matrix_to_payload(BLOCK_COHERENT_RHO)

    def test_degenerate_hamiltonian_block_is_diagonalized(self):
        doc = {"beta": 1.0, "hamiltonian": self.DEGENERATE_H, "rho": self.BLOCK_COHERENT}
        s = thermo_from_dict(doc)
        assert_allclose(s.energies, [0.0, 1.0, 1.0], atol=1e-12)
        assert_allclose(incoherent_probs(s), [0.5, 0.15, 0.35], atol=1e-12)
        direct = ThermoState(
            rho=np.diag([0.5, 0.15, 0.35]).astype(complex), energies=np.array([0.0, 1.0, 1.0]), beta=1.0
        )
        assert_allclose(renyi_free_energy(s, 2).f, renyi_free_energy(direct, 2).f, atol=1e-12)

    def test_degenerate_rotation_keeps_free_energies(self):
        doc = {"beta": 0.7, "hamiltonian": self.DEGENERATE_H, "rho": self.BLOCK_COHERENT}
        s = thermo_from_dict(doc)
        unrotated = ThermoState(rho=self.BLOCK_COHERENT_RHO, energies=np.array([0.0, 1.0, 1.0]), beta=0.7)
        for variant in (STANDARD_OFFSET, RELATIVE_TO_GIBBS):
            assert_allclose(free_energy(s, variant).f, free_energy(unrotated, variant).f, atol=1e-12)
        assert_allclose(f_max(s).f, f_max(unrotated).f, atol=1e-12)

    def test_coherence_between_energies_still_rejected(self):
        rho = np.array([[0.5, 0.1, 0.0], [0.1, 0.25, 0.0], [0.0, 0.0, 0.25]], dtype=complex)
        s = thermo_from_dict({"beta": 1.0, "hamiltonian": self.DEGENERATE_H, "rho": _matrix_to_payload(rho)})
        with pytest.raises(ApplicabilityError, match="coherences"):
            renyi_free_energy(s, 2)

    def test_energies_branch_keeps_the_given_basis(self):
        doc = {"beta": 1.0, "energies": [0.0, 1.0, 1.0], "rho": self.BLOCK_COHERENT}
        s = thermo_from_dict(doc)
        assert_allclose(s.rho, self.BLOCK_COHERENT_RHO, atol=1e-15)
        with pytest.raises(ApplicabilityError, match="coherences"):
            renyi_free_energy(s, 2)

    def test_missing_beta(self):
        with pytest.raises(ParseError, match="beta"):
            thermo_from_dict({"energies": [0.0, 1.0], "rho": [0.5, 0.5]})

    def test_boolean_beta_rejected(self):
        with pytest.raises(ParseError, match="beta"):
            thermo_from_dict({"beta": True, "energies": [0.0, 1.0], "rho": [0.5, 0.5]})

    def test_exactly_one_hamiltonian_source(self):
        with pytest.raises(ParseError, match="exactly one"):
            thermo_from_dict({"beta": 1.0, "rho": [0.5, 0.5]})
        with pytest.raises(ParseError, match="exactly one"):
            thermo_from_dict(
                {"beta": 1.0, "energies": [0.0, 1.0], "hamiltonian": [[[0.0]]], "rho": [1.0]}
            )

    def test_missing_rho(self):
        with pytest.raises(ParseError, match="rho"):
            thermo_from_dict({"beta": 1.0, "energies": [0.0, 1.0]})

    def test_population_count_mismatch(self):
        with pytest.raises(ParseError, match="populations"):
            thermo_from_dict({"beta": 1.0, "energies": [0.0, 1.0], "rho": [0.5, 0.25, 0.25]})

    def test_non_hermitian_hamiltonian(self):
        h = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValidationError, match="Hermitian"):
            thermo_from_dict({"beta": 1.0, "hamiltonian": h, "rho": [0.5, 0.5]})

    def test_non_finite_scenario_entries(self):
        h = [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValidationError, match="non-finite"):
            thermo_from_dict({"beta": 1.0, "hamiltonian": h, "rho": [0.5, 0.5]})
        with pytest.raises(ValidationError, match="non-finite"):
            thermo_from_dict({"beta": 1.0, "energies": [0.0, 1.0], "rho": [math.nan, 0.5]})

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"beta": 1.5, "energies": [0.0, 2.0], "rho": [0.6, 0.4]}))
        s = load_thermo_scenario(path)
        assert s.beta == 1.5
        assert_allclose(np.diag(s.rho).real, [0.6, 0.4], atol=1e-15)

    def test_broken_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"beta": 1.0,\n  "energies": [0.0, 1.0],,}')
        with pytest.raises(ParseError, match="line 2"):
            load_thermo_scenario(path)
