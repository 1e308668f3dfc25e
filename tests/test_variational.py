"""The single- and double-integral transforms, taken from the prefix/suffix
kernel of measures on closed-form test functions."""

import numpy as np
import pytest

import conftest as C
from eigenbound import measures, oracle
from eigenbound.errors import DomainError


def single_integral(table, values, slope):
    """I(f) = -(integral of f d(mu) over (0, x)) / (df/dnu) at the nodes,
    slope the derivative of f against the scale measure.  Returns the
    values, +inf outside the window of nodes where the slope is negative and
    the ratio finite, and their sup over the window."""
    inner = measures.prefix_integral(table, values, "mu")
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = -inner / slope
    window = (slope < 0) & np.isfinite(vals)
    return np.where(window, vals, np.inf), float(np.max(vals[window]))


def double_integral(table, values):
    """II(f) = (integral over (x, D) of d(nu) of the integral of f d(mu)
    over (0, y)) / f at the nodes: the values, +inf outside the window of
    nodes where f > 0 and the ratio is finite, their sup, and the product
    f * II(f)."""
    product = measures.suffix_integral(table, measures.prefix_integral(table, values, "mu"), "nu")
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = product / values
    window = (values > 0) & np.isfinite(vals)
    return np.where(window, vals, np.inf), float(np.max(vals[window])), product


def seed_power(table, gamma):
    """T^gamma for the scale tail T = nu(x, D), and its slope against nu."""
    tail = table.nu_tail
    with np.errstate(divide="ignore"):
        return tail**gamma, -gamma * tail ** (gamma - 1.0)


def oriented(case, table):
    """The table the ND-written transforms take for this case."""
    return table.mirrored() if case == "DN" else table


class TestSingleIntegral:
    def test_nd_closed_form(self, lap_nd):
        g = lap_nd.grid
        values, sup = single_integral(lap_nd, 1 - g, -np.ones_like(g))
        assert values == pytest.approx(g - g**2 / 2, abs=1e-10)
        assert sup == pytest.approx(0.5, abs=1e-10)
        assert g[np.argmax(values)] == pytest.approx(1.0)

    def test_nd_sqrt_seed_below_four_delta(self, lap_nd):
        _, sup = single_integral(lap_nd, *seed_power(lap_nd, 0.5))
        # closed form: sup of (4/3)(sqrt(u) - u^2) over u, attained where
        # u^{3/2} = 1/4, with value 4^{-1/3}
        assert sup == pytest.approx(4.0 ** (-1.0 / 3.0), abs=1e-6)
        assert sup <= 1.0 + 1e-9  # never exceeds 4*delta

    def test_dn_closed_form_at_zero(self, lap_dn):
        # f = x on this table is 1 - y on the mirror
        g = lap_dn.grid
        values, _ = single_integral(lap_dn.mirrored(), g[::-1].copy(), -np.ones_like(g))
        # node 0 of this table is the last node of the mirror
        assert values[-1] == pytest.approx(0.5, abs=1e-10)

    def test_flat_regions_carry_infinite_marker(self, lap_nd):
        # plateau 1/2 on [0, 1/4], the scale mass 3/4 - x down to 3/4, then zero
        g = lap_nd.grid
        values = np.where(g <= 0.25, 0.5, np.where(g < 0.75, 0.75 - g, 0.0))
        slope = np.where((g > 0.25) & (g < 0.75), -1.0, 0.0)
        op, _ = single_integral(lap_nd, values, slope)
        before = lap_nd.grid < 0.25 - 1e-9
        assert np.all(np.isinf(op[before]))
        # infimum over the window equals plateau * head mass, attained at
        # x0+; the first node inside the window adds an O(h) excess
        # (the +inf markers outside the window leave the minimum to it)
        assert op.min() == pytest.approx(0.5 * 0.25, rel=5e-3)
        assert op.min() >= 0.5 * 0.25 - 1e-12


class TestDoubleIntegral:
    def test_nd_value_at_zero_and_sup(self, lap_nd):
        values, sup, _ = double_integral(lap_nd, 1 - lap_nd.grid)
        assert values[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert sup == pytest.approx(0.5, abs=1e-6)

    def test_dn_closed_form(self, lap_dn):
        g = lap_dn.grid
        values, sup, _ = double_integral(lap_dn.mirrored(), g[::-1].copy())
        i = np.argmin(np.abs(g - 0.6))
        # node i of this table is node M - i of the mirror
        assert values[len(g) - 1 - i] == pytest.approx(0.5 - g[i] ** 2 / 6, abs=1e-6)
        assert sup == pytest.approx(0.5, abs=1e-6)

    def test_product_carries_analytic_derivative(self, lap_nd):
        g = lap_nd.grid
        _, _, product = double_integral(lap_nd, 1 - g)
        # product = f * II(f) = int_x^1 (s - s^2/2) ds; per unit scale mass
        # it falls on each panel by the panel mean of x - x^2/2
        assert product == pytest.approx(1 / 3 - g**2 / 2 + g**3 / 6, abs=1e-6)
        inner = g - g**2 / 2
        slope = (product[:-1] - product[1:]) / lap_nd.dnu
        assert slope == pytest.approx(0.5 * (inner[:-1] + inner[1:]), abs=1e-10)

    def test_nonpositive_interior_raises(self, lap_nd):
        # the identity check refuses an eigenfunction that changes sign
        vals = lap_nd.grid - 0.5
        sol = oracle.EigenSolution(1.0, lap_nd, vals, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            oracle.eigen_residuals(sol)

    @pytest.mark.parametrize("case,fixture", [("ND", "lap_nd"), ("DN", "lap_dn")])
    def test_cauchy_ordering_sup_ii_below_sup_i(self, case, fixture, request):
        table = oriented(case, request.getfixturevalue(fixture))
        for gamma in (1.0, 0.8, 0.5):
            values, slope = seed_power(table, gamma)
            _, sup_i = single_integral(table, values, slope)
            _, sup_ii, _ = double_integral(table, values)
            assert sup_ii <= sup_i + 1e-9

    def test_cauchy_ordering_on_skewed_weight(self, ou_dn_4):
        table = ou_dn_4.mirrored()
        for gamma in (1.0, 0.5):
            values, slope = seed_power(table, gamma)
            _, sup_i = single_integral(table, values, slope)
            _, sup_ii, _ = double_integral(table, values)
            assert sup_ii <= sup_i + 1e-9


class TestBounds:
    def test_lower_bound_from_sqrt_seed(self, lap_nd):
        _, sup, _ = double_integral(lap_nd, np.sqrt(lap_nd.nu_tail))
        assert sup > 0
        lb = 1.0 / sup
        assert lb == pytest.approx(1.0 / C.DELTA1_LAPLACIAN, rel=1e-5)
        assert lb <= C.PI_SQ_OVER_4

    def test_lower_bound_from_linear_seed(self, lap_nd):
        # brute-force verified: sup of the transform is 1/2, not 1/3,
        # so the certified bound is 2 (safely below pi^2/4)
        _, sup, _ = double_integral(lap_nd, 1 - lap_nd.grid)
        assert sup > 0
        lb = 1.0 / sup
        assert lb == pytest.approx(2.0, abs=1e-5)
        assert lb <= C.PI_SQ_OVER_4

    def test_upper_bound_localized(self, lap_nd):
        # plateau 3/4 on [0, 1/4], then the scale mass 1 - x down to the end
        g = lap_nd.grid
        values, _, _ = double_integral(lap_nd, np.where(g <= 0.25, 0.75, 1.0 - g))
        inf = values.min()  # the +inf markers sit outside the window
        assert inf > 0
        assert 1.0 / inf >= C.PI_SQ_OVER_4 - 1e-9

    def test_sandwich_on_analytic_eigenvalue(self, lap_nd, lap_dn):
        for case, table in (("ND", lap_nd), ("DN", lap_dn)):
            for gamma in (0.5, 0.75, 1.0):
                values, _ = seed_power(oriented(case, table), gamma)
                _, sup, _ = double_integral(oriented(case, table), values)
                assert sup > 0
                assert 1.0 / sup <= C.PI_SQ_OVER_4 + 1e-9
