import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entbat.errors import CapacityError, DomainError, ParseError, ValidationError
from entbat.qmat import partial_trace, von_neumann_entropy
from entbat.states import (
    PureSchmidtState,
    bell,
    embezzler_psi,
    load_state,
    maximally_correlated_lami,
    maximally_mixed,
    product_pure,
    pure_alpha,
    random_mixed,
    random_pure,
    random_schmidt,
    save_state,
    state_from_dict,
    state_to_dict,
    werner,
)

from oracles import schmidt_probs_svd


class TestPureSchmidtState:
    def test_probs_sorted_and_normalized(self):
        s = PureSchmidtState(np.array([0.2, 0.5, 0.3]))
        assert_allclose(s.probs, [0.5, 0.3, 0.2])
        assert_allclose(s.probs.sum(), 1.0, atol=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            PureSchmidtState(np.array([0.7, 0.7]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            PureSchmidtState(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [math.inf, 0.5], [0.5, 0.5, -math.inf]])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValidationError, match="non-finite"):
            PureSchmidtState(np.array(probs))

    def test_to_bipartite_is_capped(self):
        # d = 65 needs dimension 4225 > MAX_TENSOR_DIM; refused before allocating
        with pytest.raises(CapacityError, match="4225"):
            embezzler_psi(65).to_bipartite()

    def test_to_bipartite_is_pure_with_matching_schmidt(self):
        s = PureSchmidtState(np.array([0.6, 0.3, 0.1]))
        b = s.to_bipartite()
        purity = float(np.real(np.trace(b.matrix @ b.matrix)))
        assert abs(purity - 1.0) < 1e-12
        vec = _leading_vector(b.matrix)
        assert_allclose(schmidt_probs_svd(vec, 3, 3), s.probs, atol=1e-12)


def _leading_vector(mat):
    vals, vecs = np.linalg.eigh(mat)
    return vecs[:, -1]


class TestNamedStates:
    def test_bell_matrix(self):
        b = bell()
        expect = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expect[i, j] = 0.5
        assert_allclose(b.matrix, expect, atol=1e-15)

    def test_pure_alpha_interpolates(self):
        s = pure_alpha(math.pi / 4)
        assert_allclose(s.probs, [0.5, 0.5], atol=1e-15)
        tiny = pure_alpha(0.01)
        assert tiny.probs[0] > 0.99
        with pytest.raises(DomainError):
            pure_alpha(0.0)
        with pytest.raises(DomainError):
            pure_alpha(math.pi / 2)

    def test_embezzler_family(self):
        psi = embezzler_psi(5)
        assert_allclose(psi.probs[0], 0.5, atol=1e-15)
        assert_allclose(psi.probs[1:], [0.125] * 4, atol=1e-15)
        with pytest.raises(DomainError):
            embezzler_psi(1)

    def test_lami_state_structure(self):
        s = maximally_correlated_lami()
        assert (s.dim_a, s.dim_b) == (3, 3)
        m = s.matrix
        support = [0, 4, 8]
        assert_allclose([m[i, i].real for i in support], [1 / 3] * 3, atol=1e-15)
        for i in support:
            for j in support:
                if i != j:
                    assert_allclose(m[i, j].real, -1 / 6, atol=1e-15)
        # everything off the maximally correlated block vanishes
        mask = np.ones((9, 9), dtype=bool)
        for i in support:
            for j in support:
                mask[i, j] = False
        assert np.max(np.abs(m[mask])) == 0.0

    def test_werner_endpoints(self):
        assert_allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)
        assert_allclose(werner(1.0).matrix, bell().matrix, atol=1e-15)
        with pytest.raises(DomainError):
            werner(1.5)

    def test_product_pure_has_no_correlation(self):
        s = product_pure(2, 3)
        assert von_neumann_entropy(partial_trace(s, keep="a")) < 1e-12


class TestRandomStates:
    def test_random_pure_is_pure(self):
        s = random_pure(2, 3, np.random.default_rng(0))
        purity = float(np.real(np.trace(s.matrix @ s.matrix)))
        assert abs(purity - 1.0) < 1e-10

    def test_random_mixed_is_mixed_state(self):
        s = random_mixed(2, 2, np.random.default_rng(1))
        vals = np.linalg.eigvalsh(s.matrix)
        assert vals.min() > -1e-12
        assert_allclose(vals.sum(), 1.0, atol=1e-12)

    def test_random_schmidt_valid(self):
        s = random_schmidt(4, np.random.default_rng(2))
        assert s.probs.size == 4
        assert np.all(np.diff(s.probs) <= 0)

    def test_reproducible_with_seed(self):
        a = random_mixed(2, 2, np.random.default_rng(42))
        b = random_mixed(2, 2, np.random.default_rng(42))
        assert_allclose(a.matrix, b.matrix, atol=0)


class TestStateFiles:
    def test_matrix_round_trip(self, tmp_path):
        s = random_mixed(2, 3, np.random.default_rng(5))
        path = tmp_path / "s.json"
        save_state(s, path)
        back = load_state(path)
        assert (back.dim_a, back.dim_b) == (2, 3)
        assert_allclose(back.matrix, s.matrix, atol=0)

    def test_pure_schmidt_round_trip(self, tmp_path):
        s = PureSchmidtState(np.array([0.75, 0.25]))
        path = tmp_path / "p.json"
        save_state(s, path)
        back = load_state(path)
        assert isinstance(back, PureSchmidtState)
        assert_allclose(back.probs, s.probs, atol=0)

    def test_named_payloads(self):
        doc = {"kind": "named", "payload": {"name": "werner", "p": 0.5}}
        s = state_from_dict(doc)
        assert_allclose(s.matrix, werner(0.5).matrix, atol=0)
        doc = {"kind": "named", "payload": {"name": "pure-alpha", "alpha": 0.3}}
        assert isinstance(state_from_dict(doc), PureSchmidtState)

    def test_named_errors(self):
        with pytest.raises(ParseError, match="unknown named state"):
            state_from_dict({"kind": "named", "payload": {"name": "nope"}})
        with pytest.raises(ParseError, match="missing parameter"):
            state_from_dict({"kind": "named", "payload": {"name": "werner"}})

    def test_malformed_documents(self):
        with pytest.raises(ParseError):
            state_from_dict([1, 2, 3])
        with pytest.raises(ParseError):
            state_from_dict({"kind": "matrix", "dims": [2], "payload": []})
        with pytest.raises(ParseError):
            state_from_dict({"kind": "pure-schmidt", "dims": [2, 3], "payload": [1.0]})
        with pytest.raises(ParseError):
            state_from_dict({"kind": "matrix", "dims": [2, 2]})

    def test_broken_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "matrix",\n  "dims": [2 2]}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_state(path)

    def test_invalid_state_fails_validation(self, tmp_path):
        doc = {
            "kind": "matrix",
            "dims": [2, 1],
            "payload": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_state(path)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_any_state(self, seed):
        rng = np.random.default_rng(seed)
        s = random_mixed(2, 2, rng) if seed % 2 else random_pure(2, 2, rng)
        doc = state_to_dict(s)
        back = state_from_dict(json.loads(json.dumps(doc)))
        assert_allclose(back.matrix, s.matrix, atol=0)
