import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entbat.dilution import (
    ALPHA_MAX,
    CSV_HEADER,
    CurvePoint,
    EmbezzlementRow,
    curve_to_csv,
    distillation_bound,
    embezzlement_demo,
    embezzlement_to_csv,
    self_dilution_curve,
)
from entbat.errors import DomainError, ValidationError
from entbat.states import bell, product_pure, werner

from oracles import (
    embezzler_entropy,
    pure_alpha_entropy,
    pure_alpha_log_negativity,
    werner_log_negativity,
)


class TestSelfDilutionCurve:
    def test_grid_endpoints_and_length(self):
        pts = self_dilution_curve(alpha_min=0.1, alpha_max=ALPHA_MAX, steps=50)
        assert len(pts) == 50
        assert_allclose(pts[0].alpha, 0.1, atol=1e-15)
        assert_allclose(pts[-1].alpha, ALPHA_MAX, atol=1e-15)

    def test_ratio_is_one_at_maximal_entanglement(self):
        pts = self_dilution_curve(alpha_min=0.3, steps=10)
        assert_allclose(pts[-1].ratio, 1.0, atol=1e-9)

    def test_ratio_strictly_decreasing_toward_pi_over_four(self):
        pts = self_dilution_curve(alpha_min=0.05, steps=40)
        ratios = [p.ratio for p in pts]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r >= 1.0 - 1e-9 for r in ratios)

    def test_ratio_at_pi_over_eight(self):
        pt = self_dilution_curve(alpha_min=math.pi / 8, alpha_max=ALPHA_MAX, steps=2)[0]
        assert_allclose(pt.ratio, 1.284, atol=1e-3)

    def test_ratio_diverges_toward_product_states(self):
        near_product = self_dilution_curve(alpha_min=0.01, alpha_max=0.02, steps=2)[0]
        middling = self_dilution_curve(alpha_min=0.1, alpha_max=0.2, steps=2)[0]
        late = self_dilution_curve(alpha_min=0.5, alpha_max=0.6, steps=2)[0]
        assert near_product.ratio > middling.ratio > late.ratio
        assert near_product.ratio > 10.0

    def test_numeric_route_matches_closed_forms(self):
        pts = self_dilution_curve(alpha_min=0.05, steps=25)
        for p in pts:
            assert_allclose(p.e_n, pure_alpha_log_negativity(p.alpha), atol=1e-9)
            assert_allclose(p.e_c, pure_alpha_entropy(p.alpha), atol=1e-9)
            assert_allclose(
                p.ratio,
                pure_alpha_log_negativity(p.alpha) / pure_alpha_entropy(p.alpha),
                atol=1e-9,
            )

    def test_bad_ranges_rejected(self):
        with pytest.raises(DomainError, match="alpha"):
            self_dilution_curve(alpha_min=0.0)
        with pytest.raises(DomainError, match="alpha"):
            self_dilution_curve(alpha_min=0.3, alpha_max=0.2)
        with pytest.raises(DomainError, match="alpha"):
            self_dilution_curve(alpha_min=0.3, alpha_max=1.0)
        with pytest.raises(DomainError, match="grid points"):
            self_dilution_curve(steps=1)

    def test_point_consistency_guards(self):
        with pytest.raises(ValidationError, match="not e_n/e_c"):
            CurvePoint(alpha=0.3, e_n=0.8, e_c=0.7, ratio=2.0)
        with pytest.raises(ValidationError, match="fell below 1"):
            CurvePoint(alpha=0.3, e_n=0.5, e_c=1.0, ratio=0.5)


class TestCurveCsv:
    def test_header_and_row_count(self):
        pts = self_dilution_curve(alpha_min=0.2, steps=5)
        text = curve_to_csv(pts)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_rows_parse_back(self):
        pts = self_dilution_curve(alpha_min=0.2, steps=5)
        row = curve_to_csv(pts).splitlines()[1].split(",")
        assert len(row) == 4
        assert_allclose(float(row[0]), pts[0].alpha, rtol=1e-11)
        assert_allclose(float(row[3]), pts[0].ratio, rtol=1e-11)


class TestDistillationBound:
    def test_bell_yields_one(self):
        assert_allclose(distillation_bound(bell()), 1.0, atol=1e-12)

    def test_separable_yields_zero(self):
        assert distillation_bound(product_pure(2, 2)) == 0.0

    def test_werner_matches_closed_form(self):
        assert_allclose(distillation_bound(werner(0.9)), werner_log_negativity(0.9), atol=1e-12)


class TestEmbezzlementDemo:
    def test_geometric_value_is_half_for_all_d(self):
        for row in embezzlement_demo():
            assert abs(row.e_g - 0.5) <= 1e-12

    def test_entropy_matches_closed_form(self):
        for row in embezzlement_demo((2, 5, 17)):
            assert_allclose(row.entropy, embezzler_entropy(row.d), atol=1e-12)

    def test_amplification_hits_exact_factors(self):
        rows = {r.d: r for r in embezzlement_demo((2, 5, 17))}
        assert rows[2].amplification == 1.0
        assert rows[5].amplification == 2.0
        assert rows[17].amplification == 3.0

    def test_amplification_is_unbounded_in_d(self):
        rows = embezzlement_demo((2, 3, 4, 5, 9, 17))
        amps = [r.amplification for r in rows]
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_swap_executed_only_when_small(self):
        rows = {r.d: r for r in embezzlement_demo((2, 3, 4))}
        assert rows[2].swap_checked and rows[3].swap_checked
        assert not rows[4].swap_checked
        assert rows[4].battery_delta is None

    def test_executed_swaps_keep_battery_level(self):
        for row in embezzlement_demo((2, 3)):
            assert row.swap_checked
            assert abs(row.battery_delta) <= 1e-9

    def test_small_d_rejected(self):
        with pytest.raises(DomainError, match="d >= 2"):
            embezzlement_demo((1,))

    def test_large_d_uses_closed_forms(self):
        # d = 65 is past the cap of PureSchmidtState.to_bipartite
        (row,) = embezzlement_demo((65,))
        assert abs(row.e_g - 0.5) <= 1e-12
        assert_allclose(row.entropy, embezzler_entropy(65), atol=1e-12)
        assert not row.swap_checked


class TestEmbezzlementCsv:
    def test_format(self):
        rows = embezzlement_demo((2, 5))
        text = embezzlement_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "d,e_g,entropy,amplification,swap_checked"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2"
        assert first[4] in ("0", "1")
        assert_allclose(float(first[1]), 0.5, atol=1e-12)
