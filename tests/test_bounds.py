import math

import numpy as np
import pytest

import conftest as C
from eigenbound import bounds, measures, oracle, testfn, variational as va
from eigenbound.errors import DegenerationError


def assert_build_refused(match, D, **coefficients):
    """A table whose masses leave the float range on a finite (0, D) is
    refused where it is built, so no constant is ever computed from it."""
    p = measures.make_problem(D=D, grid_size=256, **coefficients)
    with pytest.raises(DegenerationError, match=match):
        measures.build_tables(p, D)


class TestDelta:
    def test_laplacian_both_orientations(self, lap_nd, lap_dn):
        d, x = bounds.delta("ND", lap_nd)
        assert d == pytest.approx(0.25, abs=1e-9)
        assert x == pytest.approx(0.5, abs=1e-4)
        d2, _ = bounds.delta("DN", lap_dn)
        assert d2 == pytest.approx(0.25, abs=1e-9)

    def test_overflowed_tail_refused_before_delta(self):
        # OU's scale density e^{x^2/2} overflows on (0, 40)
        assert_build_refused(
            r"the scale-measure mass over \(0, 40\) overflowed", 40.0, preset="ou", case="ND"
        )

    def test_quadratic_weight_matches_scalar_optimum(self, quad_nd):
        # delta = sup arctan(x) (1 - x), maximized independently of the tables
        d, x = bounds.delta("ND", quad_nd)
        assert d == pytest.approx(0.23286826515374387, rel=1e-6)
        assert x == pytest.approx(0.4673377589811362, abs=1e-3)

    def test_duality_swap_preserves_delta(self, ou_nd_3):
        d_primal, _ = bounds.delta("ND", ou_nd_3)
        d_dual, _ = bounds.delta("DN", oracle.dual_table(ou_nd_3))
        assert d_dual == pytest.approx(d_primal, rel=1e-12)

    def test_nn_uses_increasing_orientation(self, lap_nn):
        d, _ = bounds.delta("NN", lap_nn)
        assert d == pytest.approx(0.25, abs=1e-9)


class TestBasicBounds:
    def test_laplacian_brackets_analytic_value(self, lap_nd, lap_dn):
        for table, case in ((lap_nd, "ND"), (lap_dn, "DN")):
            rep = bounds.compute_report(case, table)
            lo, hi = rep.lower_basic, rep.upper_basic
            assert lo == pytest.approx(1.0, abs=1e-8)
            assert hi == pytest.approx(4.0, abs=1e-7)
            assert lo <= C.PI_SQ_OVER_4 <= hi

    def test_zero_marker(self):
        # a zero eigenvalue is the (0, 0) bracket, with nothing improved
        rep = bounds.zero_report("DN")
        assert (rep.case, rep.lower_basic, rep.upper_basic) == ("DN", 0.0, 0.0)
        assert rep.lower_improved is None and rep.upper_improved is None

    @pytest.mark.parametrize("D", [1e-155, 1e-160])
    def test_unresolvable_delta_is_a_degeneration(self, D):
        # delta underflows to a subnormal (1/delta = inf) or to 0
        table = C.make_table(preset="laplacian", D=D, case="ND", grid_size=64)
        with pytest.raises(DegenerationError):
            bounds.compute_report("ND", table)


class TestDelta1:
    def test_laplacian_closed_form(self, lap_nd, lap_dn):
        for case, table in (("ND", lap_nd), ("DN", lap_dn)):
            d1, x1 = bounds.delta1(case, table)
            assert d1 == pytest.approx(C.DELTA1_LAPLACIAN, rel=1e-6)
        # argmax mirrors between the orientations
        _, x_nd = bounds.delta1("ND", lap_nd)
        _, x_dn = bounds.delta1("DN", lap_dn)
        assert x_nd == pytest.approx(1 - x_dn, abs=1e-3)

    @pytest.mark.parametrize(
        "case,fixture",
        [("ND", "lap_nd"), ("DN", "lap_dn"), ("ND", "quad_nd"), ("DN", "quad_dn")],
    )
    def test_matches_double_integral_of_sqrt_seed(self, case, fixture, request):
        table = request.getfixturevalue(fixture)
        d1, _ = bounds.delta1(case, table)
        f = testfn.power(testfn.seed_function(table.mirrored() if case == "DN" else table), 0.5)
        op, _ = va.double_integral_form(f)
        eps = table.problem.tolerances.bound_refine
        assert abs(d1 - op.sup) <= 5 * eps

    def test_degenerate_raises(self):
        # the DN head mass e^{25 x^2} overflows on (0, 10)
        assert_build_refused(
            r"the scale-measure mass over \(0, 10\) overflowed", 10.0, a="1", b="-50*x", case="DN"
        )


class TestDelta1Prime:
    def test_laplacian_closed_form(self, lap_nd, lap_dn):
        d1p, x = bounds.delta1_prime("ND", lap_nd)
        assert d1p == pytest.approx(0.375, rel=1e-6)
        assert x == pytest.approx(0.25, abs=1e-3)
        d1p_dn, x_dn = bounds.delta1_prime("DN", lap_dn)
        assert d1p_dn == pytest.approx(0.375, rel=1e-6)
        assert x_dn == pytest.approx(0.75, abs=1e-3)

    @pytest.mark.parametrize(
        "case,fixture",
        [
            ("ND", "lap_nd"),
            ("DN", "lap_dn"),
            ("ND", "quad_nd"),
            ("DN", "quad_dn"),
            ("DN", "ou_dn_4"),
            ("DN", "ou_dn_8"),
        ],
    )
    def test_containment_in_delta_bracket(self, case, fixture, request):
        table = request.getfixturevalue(fixture)
        d, _ = bounds.delta(case, table)
        d1p, _ = bounds.delta1_prime(case, table)
        eps = table.problem.tolerances.bound_refine
        assert d - 10 * eps <= d1p <= 2 * d + 10 * eps


class TestReport:
    def test_positive_report_fields(self, lap_nd):
        rep = bounds.compute_report("ND", lap_nd)
        d = rep.to_dict()
        assert set(d) == {
            "case", "delta", "lower_basic", "upper_basic", "delta1",
            "delta1_prime", "lower_improved", "upper_improved", "argmax_x",
            "positivity",
        }
        assert d["positivity"] == "positive"
        assert d["lower_basic"] <= d["lower_improved"] <= d["upper_improved"] <= d["upper_basic"]

    def test_zero_report(self):
        # a finite interval never reports a zero eigenvalue: each mass of
        # the laplacian on (0, 1e300) fits, their criterion product does not,
        # and the build refuses it; only the (0, inf) probe gives zero_report
        assert_build_refused(
            r"the product of the speed-measure mass of \(0, x\)", 1e300, preset="laplacian", case="ND"
        )
        rep = bounds.zero_report("ND")
        assert rep.positivity == "zero" and math.isinf(rep.delta)

    def test_nn_report_is_criterion_only(self, lap_nn):
        rep = bounds.compute_report("NN", lap_nn)
        assert rep.positivity == "positive"
        assert rep.lower_basic is None and rep.delta1 is None


class TestWeightedIntegralInequality:
    """For nonnegative locally integrable m, n with c = sup of (head of m
    times tail of n) finite, the head integral of m * psi^r stays below
    c/(1-r) * psi^{r-1}, psi being the tail of n."""

    @staticmethod
    def _piecewise(rng, x):
        breaks = np.linspace(0.0, 1.0, 17)
        levels = rng.uniform(0.0, 2.0, 16)
        idx = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, 15)
        return levels[idx]

    def test_hundred_random_weights(self):
        rng = np.random.default_rng(42)
        x = np.linspace(0.0, 1.0, 2001)
        dx = x[1] - x[0]
        for _ in range(100):
            m = self._piecewise(rng, 0.5 * (x[:-1] + x[1:]))
            n = self._piecewise(rng, 0.5 * (x[:-1] + x[1:]))
            r = rng.uniform(0.05, 0.95)
            M = np.concatenate([[0.0], np.cumsum(m * dx)])
            psi = np.concatenate([np.cumsum((n * dx)[::-1])[::-1], [0.0]])
            c = np.max(M * psi)
            if c == 0.0:
                continue
            w = m * (0.5 * (psi[:-1] + psi[1:])) ** r
            lhs = np.concatenate([[0.0], np.cumsum(w * dx)])
            keep = psi > 0
            rhs = np.full_like(psi, np.inf)
            rhs[keep] = c / (1 - r) * psi[keep] ** (r - 1)
            assert np.all(lhs[keep] <= rhs[keep] * (1 + 1e-6) + 1e-12)
