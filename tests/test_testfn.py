import numpy as np
import pytest

import conftest as C
from eigenbound import measures, testfn
from eigenbound.errors import CriterionDegenerateError, DomainError, RangeError


class TestSeedFunction:
    def test_nd_is_scale_tail(self, lap_nd):
        f = testfn.seed_function("ND", lap_nd)
        assert f.values == pytest.approx(1 - lap_nd.grid, abs=1e-12)
        assert f.deriv == pytest.approx(-np.ones_like(lap_nd.grid))

    def test_dn_is_scale_head(self, lap_dn):
        f = testfn.seed_function("DN", lap_dn)
        assert f.values == pytest.approx(lap_dn.grid, abs=1e-12)
        assert f.deriv == pytest.approx(np.ones_like(lap_dn.grid))

    def test_degenerate_when_tail_flagged(self):
        p = measures.make_problem(preset="ou", D=40.0, case="ND", grid_size=256)
        t = measures.build_tables(p, 40.0)
        with pytest.raises(CriterionDegenerateError):
            testfn.seed_function("ND", t)


class TestPower:
    def test_sqrt_of_tail(self, lap_nd):
        f = testfn.power(testfn.seed_function("ND", lap_nd), 0.5)
        i = len(lap_nd.grid) // 2
        x = lap_nd.grid[i]
        assert f.values[i] == pytest.approx(np.sqrt(1 - x), rel=1e-10)
        assert f.deriv[i] == pytest.approx(-1 / (2 * np.sqrt(1 - x)), rel=1e-10)

    def test_identity_exponent(self, lap_nd):
        base = testfn.seed_function("ND", lap_nd)
        f = testfn.power(base, 1.0)
        assert f.values == pytest.approx(base.values)

    def test_zero_interior_value_rejected(self, lap_nd):
        vals = np.abs(lap_nd.grid - 0.5)
        g = testfn.GridFunction(lap_nd, vals, np.sign(lap_nd.grid - 0.5), 0, len(vals) - 1)
        with pytest.raises(DomainError):
            testfn.power(g, 0.5)

    def test_exponent_range(self, lap_nd):
        with pytest.raises(RangeError):
            testfn.power(testfn.seed_function("ND", lap_nd), 1.5)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("gamma", [1.0, 0.7, 0.5])
    def test_divided_differences_match_analytic(self, ou_nd_3, gamma):
        f = testfn.power(testfn.seed_function("ND", ou_nd_3), gamma)
        x, v = ou_nd_3.grid, f.values
        mid = (v[2:] - v[:-2]) / (x[2:] - x[:-2])
        inner = slice(1, -1)
        # stay away from the right endpoint where fractional powers cusp
        keep = x[inner] < 2.7
        scale = np.max(np.abs(f.deriv[inner][keep]))
        err = np.max(np.abs(mid[keep] - f.deriv[inner][keep]))
        assert err <= 5e-5 * scale

    def test_gradient_second_order(self):
        x = np.sort(np.random.default_rng(3).uniform(0, 1, 400))
        x = np.concatenate([[0.0], x, [1.0]])
        y = np.sin(3 * x)
        d = testfn.gradient(x, y)
        assert np.max(np.abs(d - 3 * np.cos(3 * x))) <= 2e-3
