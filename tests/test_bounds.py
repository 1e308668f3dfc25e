import math

import numpy as np
import pytest

import conftest as C
from eigenbound import bounds, measures, oracle
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

    def test_takes_the_higher_of_two_panel_humps(self):
        # on 1+x^2 DN (0, 1024) each panel next to the best node peaks
        # inside, the right one higher; a search that follows one side
        # stops 2.2e-7 short of the supremum
        table = C.make_table(a="1+x^2", b="0", D=1024.0, case="DN")
        t = table.mirrored()
        k = int(np.argmax(t.mu_cum * t.nu_tail))
        f = np.linspace(0.0, 1.0, 10001)
        humps = [np.max((t.mu_cum[j] + t.dmu[j] * f) * (t.dnu[j] * (1 - f) + t.nu_tail[j + 1]))
                 for j in (k - 1, k)]
        assert humps[1] > humps[0] > t.mu_cum[k] * t.nu_tail[k]
        d, _ = bounds.delta("DN", table)
        assert humps[1] <= d <= humps[1] * (1 + 1e-12)

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


    def test_infinite_constant_has_no_reciprocal(self):
        # an overflowed constant is a degeneration, never an upper bound of 0
        with pytest.raises(DegenerationError, match="no finite nonzero reciprocal"):
            bounds._reciprocal("delta1_prime", math.inf, 27.0)


class TestDelta1:
    def test_laplacian_closed_form(self, lap_nd, lap_dn):
        rep_nd, rep_dn = bounds.compute_report("ND", lap_nd), bounds.compute_report("DN", lap_dn)
        for rep in (rep_nd, rep_dn):
            assert rep.delta1 == pytest.approx(C.DELTA1_LAPLACIAN, rel=1e-6)
        # argmax mirrors between the orientations
        x_nd, x_dn = rep_nd.argmax_x["delta1"], rep_dn.argmax_x["delta1"]
        assert x_nd == pytest.approx(1 - x_dn, abs=1e-3)

    @pytest.mark.parametrize(
        "case,fixture",
        [("ND", "lap_nd"), ("DN", "lap_dn"), ("ND", "quad_nd"), ("DN", "quad_dn")],
    )
    def test_matches_double_integral_of_sqrt_seed(self, case, fixture, request):
        table = request.getfixturevalue(fixture)
        d1 = bounds.compute_report(case, table).delta1
        t = table.mirrored() if case == "DN" else table
        f = np.sqrt(t.nu_tail)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = measures.suffix_integral(t, measures.prefix_integral(t, f, "mu"), "nu") / f
        sup = float(np.max(ratio[(f > 0) & np.isfinite(ratio)]))
        eps = table.problem.tolerances.bound_refine
        assert abs(d1 - sup) <= 5 * eps

    def test_degenerate_raises(self):
        # the DN head mass e^{25 x^2} overflows on (0, 10)
        assert_build_refused(
            r"the scale-measure mass over \(0, 10\) overflowed", 10.0, a="1", b="-50*x", case="DN"
        )


class TestDelta1Prime:
    def test_laplacian_closed_form(self, lap_nd, lap_dn):
        rep = bounds.compute_report("ND", lap_nd)
        assert rep.delta1_prime == pytest.approx(0.375, rel=1e-6)
        assert rep.argmax_x["delta1_prime"] == pytest.approx(0.25, abs=1e-3)
        rep_dn = bounds.compute_report("DN", lap_dn)
        assert rep_dn.delta1_prime == pytest.approx(0.375, rel=1e-6)
        assert rep_dn.argmax_x["delta1_prime"] == pytest.approx(0.75, abs=1e-3)

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
        d1p = bounds.compute_report(case, table).delta1_prime
        eps = table.problem.tolerances.bound_refine
        assert d - 10 * eps <= d1p <= 2 * d + 10 * eps


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def reference_golden_max(fun, lo, hi, iters=70):
    """Golden-section maximization of a continuous scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    h = b - a
    if h <= 0:
        return a, fun(a)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = fun(c), fun(d)
    for _ in range(iters):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = fun(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = fun(d)
    return (c, yc) if yc > yd else (d, yd)


def reference_scan_refine(xs, node_vals, objective):
    """Grid argmax plus golden refinement over the two bracketing panels."""
    k = int(np.nanargmax(node_vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    x_star, v_star = reference_golden_max(objective, lo, hi)
    if node_vals[k] >= v_star:
        return float(xs[k]), float(node_vals[k])
    return float(x_star), float(v_star)


def reference_locate(t, x):
    """Panel holding x and the fraction of that panel to the left of x."""
    x = min(x, t.right_end)
    i = int(np.searchsorted(t.grid, x, side="right") - 1)
    i = min(max(i, 0), t.n_panels - 1)
    return i, float((x - t.grid[i]) / (t.grid[i + 1] - t.grid[i]))


def reference_mass(t, d, cum, tail, alpha, beta):
    """Mass of (alpha, beta) with panel masses d, linear inside a panel: the
    head column from 0, the tail column to the right end, a partial sum of
    the panel masses otherwise."""
    if alpha == 0.0:
        j, fb = reference_locate(t, beta)
        return float(cum[j] + d[j] * fb)
    i, fa = reference_locate(t, alpha)
    if beta == t.right_end:
        return float(d[i] * (1.0 - fa) + tail[i + 1])
    j, fb = reference_locate(t, beta)
    if i == j:
        return float(d[i] * (fb - fa))
    return float(d[i] * (1.0 - fa) + np.sum(d[i + 1 : j]) + d[j] * fb)


def reference_delta(case, table):
    """delta as (value, argmax) the way a node scan, 70 golden-section steps
    over the two panels around the best node and a scalar objective that
    looks every probe up in the table found it: the frozen reference for
    the closed-form panel maximum."""
    t = table if case == "ND" else table.mirrored()
    D = t.right_end

    def delta(x):
        return (reference_mass(t, t.dmu, t.mu_cum, t.mu_tail, 0.0, x)
                * reference_mass(t, t.dnu, t.nu_cum, t.nu_tail, x, D))

    x, v = reference_scan_refine(t.grid, t.mu_cum * t.nu_tail, delta)
    return v, (x if case == "ND" else D - x)


REFERENCE_FIXTURES = [
    ("ND", "lap_nd"), ("DN", "lap_dn"), ("NN", "lap_nn"), ("ND", "quad_nd"),
    ("DN", "quad_dn"), ("DN", "ou_dn_4"), ("DN", "ou_dn_8"),
]

REFERENCE_TABLES = {
    "exp(x)/1 ND (0,3)": dict(a="exp(x)", b="1", D=3.0, case="ND"),
    "1/-x ND (0,5)": dict(a="1", b="-x", D=5.0, case="ND"),
    "2+sin(5x)/0 ND (0,3)": dict(a="2+sin(5*x)", b="0", D=3.0, case="ND"),
    "1+x^2/0 DN (0,4096)": dict(a="1+x^2", b="0", D=4096.0, case="DN"),
    "sqrt(x)/0 DN (0,1)": dict(a="sqrt(x)", b="0", D=1.0, case="DN"),
    "1/-1/sqrt(x) DN (0,1)": dict(a="1", b="-1/sqrt(x)", D=1.0, case="DN"),
}


class TestClosedFormMatchesGoldenSection:
    """delta's exact panel maximum against the golden-section search it
    replaced: value to 1e-12 relative, argmax in the reference's panel."""

    @staticmethod
    def check(case, table):
        v, x = bounds.delta(case, table)
        v_ref, x_ref = reference_delta(case, table)
        assert v == pytest.approx(v_ref, rel=1e-12)
        k, _ = reference_locate(table, x_ref)
        slack = 1e-12 * table.right_end
        assert table.grid[k] - slack <= x <= table.grid[k + 1] + slack, (x, x_ref)

    @pytest.mark.parametrize("case,fixture", REFERENCE_FIXTURES)
    def test_fixture_tables(self, case, fixture, request):
        self.check(case, request.getfixturevalue(fixture))

    @pytest.mark.parametrize("label", sorted(REFERENCE_TABLES))
    def test_more_tables(self, label):
        spec = REFERENCE_TABLES[label]
        self.check(spec["case"], C.make_table(**spec))

    @pytest.mark.parametrize("case,fixture", [("ND", "lap_nd"), ("DN", "lap_dn"), ("NN", "lap_nn")])
    def test_laplacian_delta_argmax_is_the_midpoint(self, case, fixture, request):
        _, x = bounds.delta(case, request.getfixturevalue(fixture))
        assert x == pytest.approx(0.5, abs=1e-12)


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

    UNSET_IMPROVED = {"delta1": None, "delta1_prime": None, "lower_improved": None, "upper_improved": None}

    @pytest.mark.parametrize("case, basic", [("ND", 0.0), ("DN", 0.0), ("NN", None)])
    def test_zero_report_shape(self, case, basic):
        # NN's brackets belong to the ND/DN eigenvalue, not the gap: unset
        # in its zero report as in its positive one
        expected = {
            "case": case, "delta": math.inf, "lower_basic": basic, "upper_basic": basic,
            **self.UNSET_IMPROVED, "argmax_x": {}, "positivity": "zero",
        }
        d = bounds.zero_report(case).to_dict()
        assert list(d) == list(expected) and d == expected

    def test_nn_report_shape(self, lap_nn):
        expected = {
            "case": "NN", "delta": pytest.approx(0.25, abs=1e-15), "lower_basic": None, "upper_basic": None,
            **self.UNSET_IMPROVED, "argmax_x": {"delta": 0.5}, "positivity": "positive",
        }
        d = bounds.compute_report("NN", lap_nn).to_dict()
        assert list(d) == list(expected) and d == expected


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
