import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entbat.errors import CapacityError, DomainError, ShapeError, ValidationError
from entbat.qmat import (
    BipartiteState,
    binary_entropy,
    fidelity,
    partial_trace,
    partial_transpose,
    permute_factors,
    relative_entropy,
    spectrum,
    tensor,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from entbat.states import bell, maximally_mixed, product_pure, random_mixed, random_pure, werner

from oracles import dense_entropy_bits, fidelity_pure, kl_bits, shannon_bits


def rng_for(seed):
    return np.random.default_rng(seed)


class TestBipartiteState:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="Hermitian"):
            BipartiteState(2, 2, m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            BipartiteState(2, 2, np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            BipartiteState(2, 2, m)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            BipartiteState(2, 3, np.eye(4, dtype=complex) / 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.25, math.nan)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            BipartiteState(1, 1, np.array([[bad]], dtype=complex))
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            BipartiteState(2, 2, m)
        with pytest.raises(ValidationError, match="non-finite"):
            BipartiteState(2, 2, np.full((4, 4), bad, dtype=complex))

    def test_trace_renormalized(self):
        m = np.eye(4, dtype=complex) * (0.25 + 2e-10)
        s = BipartiteState(2, 2, m)
        assert abs(np.trace(s.matrix).real - 1.0) < 1e-15

    def test_factor_registry_defaults_to_own_dims(self):
        s = maximally_mixed(2, 3)
        assert s.factors == ((2, 3),)

    def test_bad_factor_registry(self):
        with pytest.raises(ShapeError):
            BipartiteState(2, 2, np.eye(4) / 4, factors=((2, 3),))


class TestTensorAndFactors:
    def test_tensor_dims_and_registry(self):
        s = tensor(maximally_mixed(2, 3), maximally_mixed(4, 5))
        assert (s.dim_a, s.dim_b) == (8, 15)
        assert s.factors == ((2, 3), (4, 5))

    def test_tensor_matches_kron_reordering(self):
        # For product states the joint matrix is the product of marginals
        # after regrouping (A, A' | B, B').
        a = random_mixed(2, 2, rng_for(1))
        b = random_mixed(2, 2, rng_for(2))
        joint = tensor(a, b)
        back_a = partial_trace(joint, keep=[0])
        back_b = partial_trace(joint, keep=[1])
        assert_allclose(back_a.matrix, a.matrix, atol=1e-12)
        assert_allclose(back_b.matrix, b.matrix, atol=1e-12)

    def test_capacity_limit(self):
        big = maximally_mixed(8, 8)
        mid = tensor(big, big)  # exactly at the 4096 cap
        assert mid.dim == 4096
        with pytest.raises(CapacityError):
            tensor(mid, maximally_mixed(2, 1))

    def test_partial_trace_keep_sides(self):
        s = tensor(product_pure(2, 2), bell())
        a = partial_trace(s, keep="a")
        assert (a.dim_a, a.dim_b) == (4, 1)
        assert_allclose(np.trace(a.matrix), 1.0, atol=1e-12)

    def test_partial_trace_bad_selector(self):
        s = bell()
        with pytest.raises(ShapeError):
            partial_trace(s, keep=[3])
        with pytest.raises(ShapeError):
            partial_trace(s, keep=[0, 0])

    def test_permute_factors_rejects_non_permutation(self):
        with pytest.raises(ShapeError):
            permute_factors(np.eye(4), (2, 2), (0, 0))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_permute_factors_inverse_round_trip(self, seed):
        rng = rng_for(seed)
        dims = (2, 3, 2)
        d = 12
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        perm = tuple(rng.permutation(3))
        inv = tuple(int(np.argsort(perm)[i]) for i in range(3))
        out = permute_factors(permute_factors(m, dims, perm), tuple(dims[p] for p in perm), inv)
        assert_allclose(out, m, atol=1e-13)


class TestPartialTranspose:
    def test_bell_negative_eigenvalue(self):
        pt = partial_transpose(bell())
        vals = np.linalg.eigvalsh(pt)
        assert_allclose(vals[0], -0.5, atol=1e-12)
        assert_allclose(sorted(vals)[1:], [0.5, 0.5, 0.5], atol=1e-12)

    def test_separable_stays_positive(self):
        s = werner(0.2)  # inside the separable ball
        vals = np.linalg.eigvalsh(partial_transpose(s))
        assert vals.min() > -1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        # PT output may fail PSD, so the second transpose runs on the raw
        # array rather than through a BipartiteState.
        s = random_mixed(2, 3, rng_for(seed))
        once = partial_transpose(s)
        twice = once.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
        assert_allclose(twice, s.matrix, atol=1e-14)


class TestNormsAndDistances:
    def test_trace_norm_requires_hermitian(self):
        with pytest.raises(ShapeError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_norm_of_state_is_one(self):
        assert_allclose(trace_norm(werner(0.7).matrix), 1.0, atol=1e-12)

    def test_trace_distance_extremes(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert_allclose(trace_distance(zero, one), 1.0, atol=1e-14)
        assert trace_distance(zero, zero) == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_trace_distance_triangle(self, seed):
        rng = rng_for(seed)
        a, b, c = (random_mixed(2, 2, rng) for _ in range(3))
        ab = trace_distance(a, b)
        bc = trace_distance(b, c)
        ac = trace_distance(a, c)
        assert ac <= ab + bc + 1e-12
        assert_allclose(ab, trace_distance(b, a), atol=1e-13)


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(bell()) < 1e-12

    def test_maximally_mixed_entropy(self):
        assert_allclose(von_neumann_entropy(maximally_mixed(2, 3)), math.log2(6), atol=1e-12)

    def test_matches_independent_eigenroute(self):
        s = random_mixed(2, 3, rng_for(7))
        assert_allclose(von_neumann_entropy(s), dense_entropy_bits(s.matrix), atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_additive_under_tensor(self, seed):
        rng = rng_for(seed)
        a = random_mixed(2, 2, rng)
        b = random_mixed(2, 2, rng)
        joint = tensor(a, b)
        assert_allclose(
            von_neumann_entropy(joint),
            von_neumann_entropy(a) + von_neumann_entropy(b),
            atol=1e-10,
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = rng_for(seed)
        s = random_mixed(2, 2, rng)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = q @ s.matrix @ q.conj().T
        assert_allclose(von_neumann_entropy(rotated), von_neumann_entropy(s), atol=1e-10)


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        s = werner(0.5)
        assert abs(relative_entropy(s, s)) < 1e-12

    def test_commuting_case_matches_classical(self):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        got = relative_entropy(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert_allclose(got, kl_bits(p, q), atol=1e-12)

    def test_infinite_on_support_mismatch(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sigma = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert relative_entropy(rho, sigma) == math.inf

    def test_pure_vs_maximally_mixed(self):
        got = relative_entropy(bell().matrix, np.eye(4, dtype=complex) / 4.0)
        assert_allclose(got, 2.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            relative_entropy(np.eye(2) / 2, np.eye(4) / 4)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_pinsker(self, seed):
        rng = rng_for(seed)
        rho = random_mixed(2, 2, rng)
        sigma = random_mixed(2, 2, rng)
        d = relative_entropy(rho, sigma)
        t = trace_distance(rho, sigma)
        assert d >= (2.0 / math.log(2.0)) * t**2 - 1e-9


class TestFidelity:
    def test_pure_overlap(self):
        rng = rng_for(3)
        a = random_pure(2, 2, rng)
        b = random_pure(2, 2, rng)
        va = spectrum(a.matrix).vectors[:, 0]
        vb = spectrum(b.matrix).vectors[:, 0]
        assert_allclose(fidelity(a, b), fidelity_pure(va, vb), atol=1e-10)

    def test_bounds_and_identity(self):
        s = random_mixed(2, 2, rng_for(4))
        t = random_mixed(2, 2, rng_for(5))
        f = fidelity(s, t)
        assert 0.0 <= f <= 1.0
        assert_allclose(fidelity(s, s), 1.0, atol=1e-10)


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert_allclose(binary_entropy(0.5), 1.0, atol=1e-15)
        assert_allclose(binary_entropy(0.11), shannon_bits([0.11, 0.89]), atol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)


class TestSpectrum:
    def test_descending_and_reconstructs(self):
        s = random_mixed(2, 2, rng_for(9))
        sp = spectrum(s.matrix)
        assert np.all(np.diff(sp.values) <= 1e-14)
        rebuilt = (sp.vectors * sp.values) @ sp.vectors.conj().T
        assert_allclose(rebuilt, s.matrix, atol=1e-12)
