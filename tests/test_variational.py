import numpy as np
import pytest

import conftest as C
from eigenbound import measures, testfn, variational as va
from eigenbound.errors import DomainError


def linear_decreasing(table):
    g = table.grid
    return testfn.GridFunction(table, 1 - g, -np.ones_like(g))


def oriented(case, table):
    """The table the ND-written transforms take for this case."""
    return table.mirrored() if case == "DN" else table


class TestSingleIntegral:
    def test_nd_closed_form(self, lap_nd):
        op = va.single_integral_form(linear_decreasing(lap_nd))
        g = lap_nd.grid
        inside = op.window
        assert op.values[inside] == pytest.approx(g[inside] - g[inside] ** 2 / 2, abs=1e-10)
        assert op.sup == pytest.approx(0.5, abs=1e-10)
        assert g[inside][np.argmax(op.values[inside])] == pytest.approx(1.0)

    def test_nd_sqrt_seed_below_four_delta(self, lap_nd):
        f = testfn.power(testfn.seed_function(lap_nd), 0.5)
        op = va.single_integral_form(f)
        # closed form: sup of (4/3)(sqrt(u) - u^2) over u, attained where
        # u^{3/2} = 1/4, with value 4^{-1/3}
        assert op.sup == pytest.approx(4.0 ** (-1.0 / 3.0), abs=1e-6)
        assert op.sup <= 1.0 + 1e-9  # never exceeds 4*delta

    def test_dn_closed_form_at_zero(self, lap_dn):
        g = lap_dn.grid
        f = testfn.GridFunction(lap_dn, g.copy(), np.ones_like(g))
        op = va.single_integral_form(f.mirrored())
        # node 0 of this table is the last node of the mirror
        assert op.values[-1] == pytest.approx(0.5, abs=1e-10)

    def test_flat_regions_carry_infinite_marker(self, lap_nd):
        # plateau 1/2 on [0, 1/4], the scale mass 3/4 - x down to 3/4, then zero
        g = lap_nd.grid
        values = np.where(g <= 0.25, 0.5, np.where(g < 0.75, 0.75 - g, 0.0))
        deriv = np.where((g > 0.25) & (g < 0.75), -1.0, 0.0)
        f = testfn.GridFunction(lap_nd, values, deriv)
        op = va.single_integral_form(f)
        before = lap_nd.grid < 0.25 - 1e-9
        assert np.all(np.isinf(op.values[before]))
        # infimum over the window equals plateau * head mass, attained at
        # x0+; the first node inside the window adds an O(h) excess
        # (the +inf markers outside the window leave the minimum to it)
        assert op.values.min() == pytest.approx(0.5 * 0.25, rel=5e-3)
        assert op.values.min() >= 0.5 * 0.25 - 1e-12


class TestDoubleIntegral:
    def test_nd_value_at_zero_and_sup(self, lap_nd):
        op, _ = va.double_integral_form(linear_decreasing(lap_nd))
        assert op.values[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert op.sup == pytest.approx(0.5, abs=1e-6)

    def test_dn_closed_form(self, lap_dn):
        g = lap_dn.grid
        f = testfn.GridFunction(lap_dn, g.copy(), np.ones_like(g))
        op, _ = va.double_integral_form(f.mirrored())
        i = np.argmin(np.abs(g - 0.6))
        # node i of this table is node M - i of the mirror
        assert op.values[len(g) - 1 - i] == pytest.approx(0.5 - g[i] ** 2 / 6, abs=1e-6)
        assert op.sup == pytest.approx(0.5, abs=1e-6)

    def test_product_carries_analytic_derivative(self, lap_nd):
        f = linear_decreasing(lap_nd)
        _, product = va.double_integral_form(f)
        g = lap_nd.grid
        # product = f * II(f) = int_x^1 (s - s^2/2) ds, derivative -(x - x^2/2)
        assert product.values == pytest.approx(1 / 3 - g**2 / 2 + g**3 / 6, abs=1e-6)
        assert product.deriv == pytest.approx(-(g - g**2 / 2), abs=1e-10)

    def test_nonpositive_interior_raises(self, lap_nd):
        vals = lap_nd.grid - 0.5
        f = testfn.GridFunction(lap_nd, vals, np.ones_like(vals))
        with pytest.raises(DomainError):
            va.double_integral_form(f)

    @pytest.mark.parametrize("case,fixture", [("ND", "lap_nd"), ("DN", "lap_dn")])
    def test_cauchy_ordering_sup_ii_below_sup_i(self, case, fixture, request):
        table = request.getfixturevalue(fixture)
        for gamma in (1.0, 0.8, 0.5):
            f = testfn.power(testfn.seed_function(oriented(case, table)), gamma)
            op_i = va.single_integral_form(f)
            op_ii, _ = va.double_integral_form(f)
            assert op_ii.sup <= op_i.sup + 1e-9

    def test_cauchy_ordering_on_skewed_weight(self, ou_dn_4):
        for gamma in (1.0, 0.5):
            f = testfn.power(testfn.seed_function(ou_dn_4.mirrored()), gamma)
            op_i = va.single_integral_form(f)
            op_ii, _ = va.double_integral_form(f)
            assert op_ii.sup <= op_i.sup + 1e-9


class TestBounds:
    def test_lower_bound_from_sqrt_seed(self, lap_nd):
        f = testfn.power(testfn.seed_function(lap_nd), 0.5)
        op, _ = va.double_integral_form(f)
        assert op.sup > 0
        lb = 1.0 / op.sup
        assert lb == pytest.approx(1.0 / C.DELTA1_LAPLACIAN, rel=1e-5)
        assert lb <= C.PI_SQ_OVER_4

    def test_lower_bound_from_linear_seed(self, lap_nd):
        # brute-force verified: sup of the transform is 1/2, not 1/3,
        # so the certified bound is 2 (safely below pi^2/4)
        op, _ = va.double_integral_form(linear_decreasing(lap_nd))
        assert op.sup > 0
        lb = 1.0 / op.sup
        assert lb == pytest.approx(2.0, abs=1e-5)
        assert lb <= C.PI_SQ_OVER_4

    def test_upper_bound_localized(self, lap_nd):
        # plateau 3/4 on [0, 1/4], then the scale mass 1 - x down to the end
        g = lap_nd.grid
        values = np.where(g <= 0.25, 0.75, 1.0 - g)
        deriv = np.where((g > 0.25) & (g < 1.0), -1.0, 0.0)
        f = testfn.GridFunction(lap_nd, values, deriv)
        op, _ = va.double_integral_form(f)
        inf = op.values.min()  # the +inf markers sit outside the window
        assert inf > 0
        assert 1.0 / inf >= C.PI_SQ_OVER_4 - 1e-9

    def test_sandwich_on_analytic_eigenvalue(self, lap_nd, lap_dn):
        for case, table in (("ND", lap_nd), ("DN", lap_dn)):
            for gamma in (0.5, 0.75, 1.0):
                f = testfn.power(testfn.seed_function(oriented(case, table)), gamma)
                op, _ = va.double_integral_form(f)
                assert op.sup > 0
                assert 1.0 / op.sup <= C.PI_SQ_OVER_4 + 1e-9
