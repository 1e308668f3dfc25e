import contextlib
import dataclasses
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

import conftest as C
from eigenbound import cli, expr, measures, oracle
from eigenbound.errors import (
    DegenerationError,
    DomainError,
    EigenboundError,
    HypothesisViolationError,
    RangeError,
)


class TestBuildTables:
    def test_laplacian_is_lebesgue_both_ways(self, lap_nd):
        assert np.all(lap_nd.Cvals == 0.0)  # zero drift integrates exactly
        assert lap_nd.mu_cum == pytest.approx(lap_nd.grid, abs=1e-12)
        assert lap_nd.nu_cum == pytest.approx(lap_nd.grid, abs=1e-12)
        assert lap_nd.mu_tail == pytest.approx(1 - lap_nd.grid, abs=1e-12)

    def test_ou_masses_match_quad_oracle(self):
        t = C.make_table(preset="ou", D=3.0, case="ND")
        assert t.mu_total() == pytest.approx(C.MU_0_3_OU, rel=1e-9)
        assert t.nu_cum[-1] == pytest.approx(C.NU_0_3_OU, rel=1e-9)
        assert np.interp(1.0, t.grid, t.nu_cum) == pytest.approx(C.NU_0_1_OU, rel=1e-5)

    def test_zero_drift_c_identically_zero(self, quad_nd):
        assert np.all(quad_nd.Cvals == 0.0)
        # speed measure carries the 1/a weight, scale measure is Lebesgue
        assert quad_nd.mu_total() == pytest.approx(math.atan(1.0), rel=1e-10)
        assert quad_nd.nu_cum[-1] == pytest.approx(1.0, rel=1e-12)

    def test_tail_plus_head_is_total(self, ou_dn_8):
        gap = ou_dn_8.mu_cum + ou_dn_8.mu_tail - ou_dn_8.mu_total()
        assert np.max(np.abs(gap)) <= 1e-10 * max(ou_dn_8.mu_total(), 1.0)

    def test_grid_refinement_changes_totals_below_tolerance(self):
        for kwargs in ({"preset": "laplacian"}, {"preset": "ou", "D": 3.0}, {"a": "1+x^2", "b": "0"}):
            t1 = C.make_table(case="ND", grid_size=500, **kwargs)
            t2 = C.make_table(case="ND", grid_size=1000, **kwargs)
            eps = t1.problem.tolerances.quadrature
            assert abs(t1.mu_total() - t2.mu_total()) < 4 * eps * max(1.0, t1.mu_total())
            assert abs(t1.nu_cum[-1] - t2.nu_cum[-1]) < 4 * eps * max(1.0, t1.nu_cum[-1])

    def test_positivity_enforced(self):
        p = measures.make_problem(a="x-0.5", b="0", D=1.0, case="ND")
        with pytest.raises(HypothesisViolationError):
            measures.build_tables(p, 1.0)

    def test_mu_overflow_raises_for_dn(self):
        p = measures.make_problem(a="1", b="x", D=40.0, case="DN", grid_size=256)
        with pytest.raises(DegenerationError, match=r"the speed-measure mass over \(0, 40\) overflowed"):
            measures.build_tables(p, 40.0)

    def test_nu_overflow_raises_for_nd(self):
        # every mass on a finite interval is finite, so an overflow is a
        # float-range failure in every case, not a divergent mass
        p = measures.make_problem(preset="ou", D=40.0, case="ND", grid_size=256)
        with pytest.raises(DegenerationError, match=r"the scale-measure mass over \(0, 40\) overflowed"):
            measures.build_tables(p, 40.0)

    def test_infinite_right_end_rejected(self):
        p = measures.make_problem(preset="laplacian", D="inf", case="ND")
        with pytest.raises(RangeError):
            measures.build_tables(p, math.inf)

    def test_integrable_endpoint_degeneracy_grades_into_tip(self):
        # a -> 0 at the left endpoint with e^C/a = x^{-1/2} still integrable:
        # the grid must grade into the singular tip instead of refusing
        p = measures.make_problem(a="sqrt(x)", b="0", D=1.0, case="ND", grid_size=500)
        t = measures.build_tables(p, 1.0)
        assert t.n_panels > 500  # cascade panels were inserted
        assert t.mu_total() == pytest.approx(2.0, abs=1e-9)

    def test_nonintegrable_endpoint_weight_refused(self):
        # e^C/a ~ 1/x near 0 is not locally integrable
        p = measures.make_problem(a="x*(1-x)", b="0", D=1.0, case="ND", grid_size=256)
        with pytest.raises(HypothesisViolationError):
            measures.build_tables(p, 1.0)


class TestBetween:
    """Masses between nodes, as the columns and the transform kernel give them."""

    def test_lebesgue_interval(self, lap_nd):
        i, j = np.searchsorted(lap_nd.grid, [0.25, 0.75])
        width = lap_nd.grid[j] - lap_nd.grid[i]
        assert math.fsum(lap_nd.dmu[i:j]) == pytest.approx(width, abs=1e-12)
        assert lap_nd.mu_cum[j] - lap_nd.mu_cum[i] == pytest.approx(width, abs=1e-12)

    def test_degenerate_interval(self, ou_dn_8):
        # (0, 0) and (D, D) carry no mass, in the columns and in the kernel
        ones = np.ones(len(ou_dn_8.grid))
        assert ou_dn_8.mu_cum[0] == ou_dn_8.mu_tail[-1] == ou_dn_8.nu_cum[0] == ou_dn_8.nu_tail[-1] == 0.0
        assert measures.prefix_integral(ou_dn_8, ones, "mu")[0] == 0.0
        assert measures.suffix_integral(ou_dn_8, ones, "nu")[-1] == 0.0

    def test_additivity(self, ou_dn_4):
        # the head and tail passes of the kernel split the total at every node
        ones = np.ones(len(ou_dn_4.grid))
        total = ou_dn_4.mu_total()
        head = measures.prefix_integral(ou_dn_4, ones, "mu")
        tail = measures.suffix_integral(ou_dn_4, ones, "mu")
        rng = np.random.default_rng(7)
        for i in rng.integers(0, len(ones), size=200):
            assert head[i] + tail[i] == pytest.approx(total, abs=1e-12 * max(1.0, total))

    def test_exact_at_nodes(self, ou_nd_3):
        i = len(ou_nd_3.grid) // 3
        head = measures.prefix_integral(ou_nd_3, np.ones(len(ou_nd_3.grid)), "mu")
        assert head[i] == pytest.approx(float(ou_nd_3.mu_cum[i]), rel=1e-15)


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            measures.make_problem(preset="laplacian", D=1.0, case="XY")
        with pytest.raises(ValueError):
            measures.make_problem(preset="laplacian", D=1.0, grid_size=8)
        with pytest.raises(ValueError):
            measures.make_problem(preset="laplacian", D=1.0, truncation_schedule=(2.0, 2.0))
        with pytest.raises(ValueError):
            measures.Tolerances(quadrature=-1.0)
        with pytest.raises(ValueError):
            measures.make_problem(preset="nope")

    def test_truncate(self):
        p = measures.make_problem(preset="ou", D="inf", case="DN")
        assert measures.truncate(p, 5.0).D == 5.0
        q = measures.make_problem(preset="laplacian", D=1.0, case="ND")
        assert measures.truncate(q, 0.5).D == 0.5
        with pytest.raises(RangeError):
            measures.truncate(q, 2.0)
        with pytest.raises(RangeError):
            measures.truncate(q, 0.0)


class TestHypothesisCheck:
    def test_laplacian_all_pass(self):
        p = measures.make_problem(preset="laplacian", D=1.0, case="ND")
        rep = measures.hypothesis_check(p)
        assert not rep.criterion_zero

    def test_ou_nd_infinite_forces_zero(self):
        p = measures.make_problem(preset="ou", D="inf", case="ND")
        rep = measures.hypothesis_check(p)
        assert rep.criterion_zero
        assert "scale mass" in rep.criterion_zero_reason

    def test_ou_dn_infinite_stays_positive(self):
        p = measures.make_problem(preset="ou", D="inf", case="DN")
        rep = measures.hypothesis_check(p)
        assert not rep.criterion_zero

    def test_laplacian_nd_infinite_forces_zero(self):
        # scale mass grows linearly without bound
        p = measures.make_problem(preset="laplacian", D="inf", case="ND")
        rep = measures.hypothesis_check(p)
        assert rep.criterion_zero

    # local integrability at an end is decided by the table build
    def test_nonintegrable_ratio_detected(self):
        p = measures.make_problem(a="1", b="1/x", D=1.0, case="ND")
        with pytest.raises(HypothesisViolationError, match="locally_integrable_near_0"):
            measures.build_tables(p, p.D)

    def test_integrable_singularity_passes(self):
        # b/a = x^{-1/2} is integrable at 0
        p = measures.make_problem(a="1", b="1/sqrt(x)", D=1.0, case="ND")
        assert np.isfinite(measures.build_tables(p, p.D).mu_total())

    def test_right_endpoint_singularity_detected(self):
        # b/a = 1/(1-x) is not integrable at the finite right endpoint
        p = measures.make_problem(a="1", b="1/(1-x)", D=1.0, case="ND")
        with pytest.raises(HypothesisViolationError, match="locally_integrable_near_right"):
            measures.build_tables(p, p.D)


# criterion_zero per case (ND, DN, NN), None where the mass trace refuses
# the run, and the probe's notes on (0, inf)
_PROBE_EXPECTED = [
    ("1", "0", (True, True, True), []),
    ("1", "-x", (True, False, False), []),
    ("1+x^2", "0", (True, False, False), []),
    ("2", "-x", (True, False, False), []),
    ("1", "1", (False, True, True), []),
    ("1", "x", (False, True, True), []),
    ("1", "-x^3", (True, False, False), []),
    ("1", "-1", (True, False, False), []),
    ("1", "1/(1+x)", (True, True, True), []),
    ("3-x", "0", (None, None, None), ["table build failed at truncation 4.0"]),
    ("exp(x)", "1", (True, False, False), ["table build failed at truncation 1024.0"]),
    # coefficients singular at or before a truncation point, and one that
    # needs many panels over the whole schedule
    ("1", "1/(x-8)", (None, None, None), ["table build failed at truncation 8.0"]),
    ("1", "1/(x-5)", (None, None, None), ["table build failed at truncation 8.0"]),
    ("1", "1/(x-2)", (None, None, None), ["table build failed at truncation 2.0"]),
    ("(x-4)^2", "0", (None, None, None), ["table build failed at truncation 4.0"]),
    ("1", "sin(10*x)", (True, True, True), []),
]


class TestMassProbe:
    @pytest.mark.parametrize("a, b, zero, notes", _PROBE_EXPECTED)
    def test_criterion_zero_and_notes(self, a, b, zero, notes):
        for case, expected in zip(measures.CASES, zero):
            problem = measures.make_problem(a=a, b=b, D="inf", case=case)
            if expected is None:  # the check raises the trace's refusal; the trace still notes its stop
                trace_notes = []
                refusal = measures._mass_trace(problem, trace_notes)[1]
                with pytest.raises(HypothesisViolationError, match="^" + re.escape(refusal) + "$"):
                    measures.hypothesis_check(problem)
                assert trace_notes == notes
                continue
            rep = measures.hypothesis_check(problem)
            assert (case, rep.criterion_zero, rep.notes) == (case, expected, notes)

    @pytest.mark.parametrize("a, b", [("1", "-x"), ("1+x^2", "0"), ("1", "sin(10*x)")])
    def test_masses_match_one_table_per_truncation(self, a, b):
        problem = measures.make_problem(a=a, b=b, D="inf", case="DN")
        trace = {p: (mu, nu) for p, mu, nu in measures.hypothesis_check(problem).mass_trace}
        for p in (2.0, 64.0, 4096.0):
            alone = dataclasses.replace(measures.truncate(problem, p), grid_size=problem.grid_size // 8)
            if max(trace[p]) >= measures.OVERFLOW_GUARD:
                # the probe reads the guard where the table's build refuses the mass
                name = "speed" if trace[p][0] >= measures.OVERFLOW_GUARD else "scale"
                with pytest.raises(DegenerationError, match=f"the {name}-measure mass over"):
                    measures.build_tables(alone, p)
                continue
            own = measures.build_tables(alone, p)
            assert trace[p] == pytest.approx((own.mu_total(), own.nu_cum[-1]), rel=1e-10)

    @pytest.mark.parametrize("a, b, points", [("1", "1/(x-8)", [2.0, 4.0]), ("(x-4)^2", "0", [2.0])])
    def test_trace_stops_before_a_point_whose_table_fails(self, a, b, points):
        trace, _ = measures._mass_trace(measures.make_problem(a=a, b=b, D="inf", case="ND"), [])
        assert [p for p, _, _ in trace] == points

    @pytest.mark.parametrize("a, refusal", [
        ("1", None), ("exp(x)", None), ("1+x^2", None),
        ("3-x", "diffusion coefficient not positive on (0, 4.0): value"),
        ("1-exp(x-50)", "diffusion coefficient not positive on (0, 64.0): value"),
        ("2-exp(x)^0.0001", "diffusion coefficient not positive on (0, 1024.0): value -inf"),
        ("sqrt(100-x)", "diffusion coefficient not positive on (0, 128.0): evaluation failed"),
        ("(x-4)^2", measures.UNCONVERGED_ENDPOINT),
    ])
    def test_refusal_of_a_past_the_trace(self, a, refusal):
        problem = measures.make_problem(a=a, b="0", D="inf", case="ND")
        if refusal is None:
            measures.hypothesis_check(problem)
        else:
            with pytest.raises(HypothesisViolationError, match="^" + re.escape(refusal)):
                measures.hypothesis_check(problem)

    @pytest.mark.parametrize("a, checked", [
        ("1+x^2", []), ("3-x", [4.0]), ("1-exp(x-50)", [64.0]),
        # a domain error in the one pass: every point is checked alone, up to the failing one
        ("sqrt(100-x)", [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
    ])
    def test_points_are_checked_alone_from_the_first_failure(self, a, checked, monkeypatch):
        calls, real = [], expr.validate_positive

        def recording(ast, upper, samples):
            calls.append(upper)
            return real(ast, upper, samples)

        monkeypatch.setattr(expr, "validate_positive", recording)
        with contextlib.suppress(HypothesisViolationError):
            measures.hypothesis_check(measures.make_problem(a=a, b="0", D="inf", case="ND"))
        assert calls == checked

    def test_finite_interval_report_is_empty(self):
        rep = measures.hypothesis_check(measures.make_problem(a="x-0.5", b="0", D=1.0, case="ND"))
        assert rep == measures.HypothesisReport(False, "", [], [])

    def test_one_grid_for_the_whole_schedule(self, monkeypatch):
        calls = []
        real = measures._refine

        def recording(problem, edges, ends):
            calls.append(ends)
            return real(problem, edges, ends)

        monkeypatch.setattr(measures, "_refine", recording)
        problem = measures.make_problem(preset="ou", D="inf", case="DN")
        rep = measures.hypothesis_check(problem)
        assert calls == [problem.truncation_schedule]
        assert [p for p, _, _ in rep.mass_trace] == list(problem.truncation_schedule)


class TestWalk:
    def test_overflowing_truncation_ends_the_walk_on_the_last_table(self):
        # OU's scale mass over (0, 64) leaves the float range; a quantity that
        # never settles walks up to that truncation and stops on (0, 32)
        problem = measures.make_problem(preset="ou", D="inf", case="DN", grid_size=256)
        walk = measures.walk_truncations(problem, lambda t: (t.right_end, t.nu_cum[-1]), lambda v: -1.0)
        assert walk.points == [2.0, 4.0, 8.0, 16.0, 32.0]
        assert walk.table.right_end == 32.0 and walk.result == walk.table.nu_cum[-1]
        assert not walk.settled
        assert walk.stop_reason == (
            "stopped at truncation 64.0: the scale-measure mass over (0, 64) overflowed the float range"
        )


class TestCsvDump:
    def test_columns_and_rows(self, lap_nd, tmp_path):
        path = tmp_path / "table.csv"
        lap_nd.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,C,mu_cum,nu_cum,mu_tail,nu_tail"
        assert len(lines) == len(lap_nd.grid) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0, pytest.approx(1.0), pytest.approx(1.0)]


class TestWindowMass:
    """The windows (x_i, D) a search visits start from the tail column and
    the kernel's suffix pass: partial sums of the panel masses."""

    def test_small_window_mass_is_a_panel_sum(self):
        # nu(x_i, 8) for the node x_i nearest 7.9 is under 50 ulps of
        # nu(0, 8) here: a difference of cumulative totals keeps two digits
        # of it, the panel masses all
        t = C.make_table(a="1", b="8-x", D=8.0, case="ND")
        i = int(np.searchsorted(t.grid, 7.9))
        expected = math.fsum(t.dnu[i:])
        assert t.nu_tail[i] == pytest.approx(expected, rel=1e-12)
        assert measures.suffix_integral(t, np.ones(len(t.grid)), "nu")[i] == pytest.approx(expected, rel=1e-12)
        assert t.nu_tail[i] < 50 * np.spacing(t.nu_cum[-1])

    def test_interior_window_is_a_panel_sum(self):
        t = C.make_table(a="1", b="8-x", D=8.0, case="ND")
        tail = measures.suffix_integral(t, np.ones(len(t.grid)), "nu")
        for i in (len(t.grid) // 2, 3 * len(t.grid) // 4):
            assert t.nu_tail[i] == pytest.approx(math.fsum(t.dnu[i:]), rel=1e-12)
            assert tail[i] == pytest.approx(math.fsum(t.dnu[i:]), rel=1e-12)


class TestMirror:
    @pytest.mark.parametrize("fixture", ["lap_nd", "quad_dn", "ou_dn_8", "ou_nd_3"])
    def test_double_mirror_reproduces_every_column(self, fixture, request):
        t = request.getfixturevalue(fixture)
        back = t.mirrored().mirrored()
        for f in dataclasses.fields(t):
            a, b = getattr(t, f.name), getattr(back, f.name)
            if f.name == "grid":
                # x -> D - (D - x) rounds twice
                assert np.max(np.abs(a - b)) <= 4 * np.finfo(float).eps * t.right_end
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_mirror_swaps_head_and_tail(self, ou_dn_4):
        m = ou_dn_4.mirrored()
        assert m.grid[0] == 0.0 and m.grid[-1] == ou_dn_4.right_end
        assert np.all(np.diff(m.grid) > 0)
        assert np.array_equal(m.mu_cum, ou_dn_4.mu_tail[::-1])
        assert np.array_equal(m.nu_tail, ou_dn_4.nu_cum[::-1])
        # the kernel's head pass on the mirror is its tail pass here
        ones = np.ones(len(m.grid))
        head = measures.prefix_integral(m, ones, "mu")
        tail = measures.suffix_integral(ou_dn_4, ones, "mu")
        assert head == pytest.approx(tail[::-1], rel=1e-12, abs=1e-300)


# A frozen copy of the quadrature pass as it summed before the column-wise
# rule sums and the in-place node densities; every output column of today's
# pass must equal it to the bit.
def _frozen_panel_nodes(xl, xr):
    mid = 0.5 * (xl + xr)
    half = 0.5 * (xr - xl)
    return mid[:, None] + half[:, None] * measures._GL_NODES[None, :]


class _FrozenPanelPass:
    def __init__(self, xl, xr, a_ast, b_ast):
        self.half = 0.5 * (xr - xl)
        t = _frozen_panel_nodes(xl, xr)
        flat = t.ravel()
        with np.errstate(all="ignore"):
            av = np.asarray(measures.expr.evaluate(a_ast, flat), dtype=float).reshape(t.shape)
            bv = np.asarray(measures.expr.evaluate(b_ast, flat), dtype=float).reshape(t.shape)
            self.g = bv / av
        self.t = t
        self.av = av

    def cumulant_increments(self):
        return self.half * np.sum(measures._GL_WEIGHTS[None, :] * self.g, axis=1)

    def columns(self, c_start):  # increments, masses and first moments, as the pass returned them
        w = measures._GL_WEIGHTS[None, :]
        dc = self.cumulant_increments()
        c_left = c_start + np.concatenate([[0.0], np.cumsum(dc[:-1])])
        c_nodes = c_left[:, None] + self.half[:, None] * (self.g @ measures._GL_CUM.T)
        with np.errstate(all="ignore"):
            dens_mu = np.exp(c_nodes) / self.av
            dens_nu = np.exp(-c_nodes)
            dmu = self.half * np.sum(w * dens_mu, axis=1)
            dnu = self.half * np.sum(w * dens_nu, axis=1)
            mom_mu = self.half * np.sum(w * self.t * dens_mu, axis=1)
            mom_nu = self.half * np.sum(w * self.t * dens_nu, axis=1)
        self.densities = dens_mu.T, dens_nu.T
        return dc, dmu, dnu, mom_mu, mom_nu

    def accumulate(self, c_start):  # the masses and the node-major densities they sum, as _refine reads them
        return (*self.columns(c_start)[:3], *self.densities)


def _new_columns(xl, xr, a_ast, b_ast, c_start):
    """The five columns of the frozen pass, from today's pass and moment step."""
    dc, dmu, dnu, dens_mu, dens_nu = measures._PanelPass(xl, xr, a_ast, b_ast).accumulate(c_start)
    return dc, dmu, dnu, *measures._pass_moments(xl, xr, dens_mu, dens_nu)


# (a, b, D): laplacian, 1+x^2, OU (0, 8), 1/8-x, exp(x)/1, 1+x^2 (0, 4096),
# OU (0, 64) with overflow and subnormals, a weight singular at the tip, an
# oscillating drift, and a pass that overflows to inf and then to NaN
_PASS_PROBLEMS = [
    ("1", "0", 1.0),
    ("1+x^2", "0", 1.0),
    ("1", "-x", 8.0),
    ("1", "8-x", 8.0),
    ("exp(x)", "1", 3.0),
    ("1+x^2", "0", 4096.0),
    ("1", "-x", 64.0),
    ("sqrt(x)", "0", 1.0),
    ("1", "sin(10*x)", 1.0),
    ("1", "x + exp(x) - exp(x)", 800.0),
]


def _same_columns(new, old):
    return [np.array_equal(n, o, equal_nan=True) and n.shape == o.shape for n, o in zip(new, old)]


class TestPanelPassFrozen:
    @pytest.mark.parametrize("a, b, D", _PASS_PROBLEMS)
    def test_fine_and_coarse_passes_equal_the_frozen_pass(self, a, b, D):
        p = measures.make_problem(a=a, b=b, D=D, case="ND", grid_size=500)
        edges = measures._graded_grid(p.grid_size, D)
        fine = np.empty(2 * len(edges) - 1)
        fine[0::2], fine[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
        assert np.array_equal(measures._halves(edges), fine)
        for e in (fine, edges):
            args = (e[:-1], e[1:], p.a, p.b)
            assert np.array_equal(measures._panel_nodes(e[:-1], e[1:]).T, _frozen_panel_nodes(e[:-1], e[1:]))
            assert _same_columns(_new_columns(*args, 0.0), _FrozenPanelPass(*args).columns(0.0)) == [True] * 5
            new, old = measures._PanelPass(*args).accumulate(0.0), _FrozenPanelPass(*args).accumulate(0.0)
            assert _same_columns(new, old) == [True] * 5

    def test_overflowing_pass_holds_inf_and_nan(self):
        p = measures.make_problem(a="1", b="x + exp(x) - exp(x)", D=800.0, case="ND")
        e = measures._graded_grid(256, 800.0)
        _, dmu, dnu, _, _ = measures._PanelPass(e[:-1], e[1:], p.a, p.b).accumulate(0.0)
        assert np.isinf(dmu).any() and np.isnan(dmu).any() and (dnu == 0.0).any()

    @pytest.mark.parametrize("xl, xr", [([], []), ([0.25], [0.75])])
    def test_empty_and_single_panel_passes(self, xl, xr):
        p = measures.make_problem(a="1+x^2", b="sin(10*x)", D=1.0, case="ND")
        args = (np.array(xl), np.array(xr), p.a, p.b)
        new, old = _new_columns(*args, 0.5), _FrozenPanelPass(*args).columns(0.5)
        assert _same_columns(new, old) == [True] * 5
        assert all(len(col) == len(xl) for col in new)

    @pytest.mark.parametrize("xl, xr", [([], []), ([0.25], [0.75])])
    def test_constant_coefficient_passes(self, xl, xr):
        # constants are evaluated on one node and broadcast, a 0-panel pass included
        p = measures.make_problem(a="2+sin(1)", b="-3", D=1.0, case="ND")
        args = (np.array(xl), np.array(xr), p.a, p.b)
        new, old = _new_columns(*args, 0.5), _FrozenPanelPass(*args).columns(0.5)
        assert _same_columns(new, old) == [True] * 5
        assert all(len(col) == len(xl) for col in new)

    def test_domain_error_names_the_leftmost_bad_node(self):
        # the node-major pass names the node that a pass in x order meets first
        p = measures.make_problem(a="1", b="sqrt((x-0.3)*(x-0.7))", D=1.0, case="ND")
        e = measures._graded_grid(500, 1.0)
        t = measures._panel_nodes(e[:-1], e[1:])
        x = float(t[(t - 0.3) * (t - 0.7) < 0].min())
        with pytest.raises(DomainError, match=re.escape(f"(x={x!r})")):
            measures._PanelPass(e[:-1], e[1:], p.a, p.b)

    # b/a is +0.0 at every node only for a constant +0.0 b and an a > 0 at
    # every node, and only then does the pass skip the cumulant: -0 keeps a
    # -0.0 cumulant, and an a that underflows to 0 on panels next to 0 makes
    # b/a NaN there
    @pytest.mark.parametrize("a, b, edges, c_start, drift_free", [
        ("1", "-0", measures._graded_grid(500, 1.0), 0.0, False),
        ("1+x^2", "1-1", measures._graded_grid(500, 64.0), 0.0, True),
        ("x^8", "0", np.array([0.0, 1e-50, 1e-45, 1e-30, 1e-10, 1e-3, 0.5, 1.0]), 0.0, False),
        ("1+x^2", "0", measures._graded_grid(500, 64.0), 0.5, True),
    ], ids=["minus-zero", "one-minus-one", "vanishing-a", "c-start"])
    def test_drift_free_gate_keeps_every_bit(self, a, b, edges, c_start, drift_free):
        p = measures.make_problem(a=a, b=b, D=float(edges[-1]), case="ND")
        args = (edges[:-1], edges[1:], p.a, p.b)
        assert (measures._PanelPass(*args).g is None) == drift_free
        for new, old in ((_new_columns(*args, c_start), _FrozenPanelPass(*args).columns(c_start)),
                         (measures._PanelPass(*args).accumulate(c_start), _FrozenPanelPass(*args).accumulate(c_start))):
            if b == "-0":  # the frozen pass summed the -0.0 increments of C to +0.0
                assert np.signbit(new[0]).all() and np.array_equal(new[0], old[0])
                new, old = new[1:], old[1:]
            assert [(n.shape, n.tobytes()) for n in new] == [(o.shape, o.tobytes()) for o in old]

    def test_gauss_legendre_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert measures._GL_NODES.tobytes() == nodes.tobytes()
        assert measures._GL_WEIGHTS.tobytes() == weights.tobytes()


def _table_or_error(problem, p):
    try:
        t = measures.build_tables(problem, p)
    except EigenboundError as exc:  # the same failure on both sides counts as equal
        return type(exc).__name__, str(exc)
    return {f.name: getattr(t, f.name) for f in dataclasses.fields(t) if f.name != "problem"}


def _assert_same_table(new, old):
    assert type(new) is type(old)
    if isinstance(new, tuple):
        assert new == old
        return
    for name, value in new.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, old[name], equal_nan=True), name
        else:
            assert value == old[name], name


# the benchmark problems; on (0, inf), every truncation point of the walk
_BENCH_TABLES = [
    ("1", "0", "ND", "1"), ("1", "0", "DN", "1"), ("1", "0", "NN", "1"),
    ("1+x^2", "0", "DN", "1"), ("1", "-x", "DN", "8"), ("1", "8-x", "ND", "8"),
    ("exp(x)", "1", "ND", "3"), ("1+x^2", "0", "DN", "4096"),
    ("1", "0", "ND", "inf"), ("1", "-x", "DN", "inf"), ("1+x^2", "0", "DN", "inf"),
]

# tables no benchmark problem builds: two weights singular at 0, whose
# refinement runs past round 0 to 14,513 panels, a weight that vanishes at 0,
# and constant coefficients, which the pass evaluates once and broadcasts
_REFINED_AND_CONSTANT_TABLES = [
    ("1", "-1/sqrt(x)", "DN", "1"), ("1", "1/sqrt(x)", "ND", "1"), ("sqrt(x)", "0", "DN", "1"),
    ("2+sin(1)", "-3", "ND", "2"), ("exp(1)", "pi", "DN", "1"), ("4", "1/(1+x)", "ND", "3"),
]

# drift-free tables, whose passes skip the cumulant, and b = -0, whose passes
# do not; a vanishing a is refused next to 0
_DRIFT_FREE_TABLES = [
    ("1", "0", "ND", "1"), ("1+x^2", "0", "DN", "inf"), ("1+x^2", "1-1", "DN", "64"), ("1", "-0", "ND", "1"),
    ("x^8", "0", "ND", "1"),
]


def _frozen_graded_grid(n, p, kappa=0.9):
    u = np.linspace(0.0, 1.0, n + 1)
    s = u - kappa * np.sin(2 * math.pi * u) / (2 * math.pi)
    s[0], s[-1] = 0.0, 1.0
    return p * s


def _frozen_prefix(d):
    return np.concatenate([[0.0], np.cumsum(d)])


def _frozen_suffix(d):
    return np.concatenate([np.cumsum(d[::-1])[::-1], [0.0]])


def _frozen_build_tables(problem, right_end):
    """build_tables' grid, column and centroid steps as they were written
    before they accumulated into their outputs; the refinement is shared."""
    if not (math.isfinite(right_end) and right_end > 0):
        raise RangeError("right_end must be finite and positive")
    pos = measures.expr.validate_positive(problem.a, right_end, samples=64)
    if not pos.passed:
        raise HypothesisViolationError(f"diffusion coefficient not positive on (0, {right_end}): {pos.detail}")
    edges, dc, dmu, dnu, _, _, bad, worst = measures._refine(
        problem, _frozen_graded_grid(problem.grid_size, right_end), (right_end,)
    )
    if bad[0]:
        raise measures._not_integrable_near("0")
    if bad[-1]:
        raise measures._not_integrable_near("right")
    if bad.any():
        x = edges[np.argmax(bad)]
        raise HypothesisViolationError(
            f"quadrature did not converge on the panel at x = {x:.12g}; "
            "a coefficient weight looks non-integrable there"
        )
    for name, d in (("speed", dmu), ("scale", dnu)):
        if not np.isfinite(d).all() or d.sum() > measures.OVERFLOW_GUARD:
            raise DegenerationError(f"the {name}-measure mass over (0, {right_end:g}) overflowed the float range")
    cvals = _frozen_prefix(dc)
    mu_cum, nu_cum = _frozen_prefix(dmu), _frozen_prefix(dnu)
    mu_tail, nu_tail = _frozen_suffix(dmu), _frozen_suffix(dnu)
    with np.errstate(over="ignore"):
        if problem.case == "ND":
            product, head, tail = mu_cum * nu_tail, "speed", "scale"
        else:
            product, head, tail = nu_cum * mu_tail, "scale", "speed"
    if not np.isfinite(product).all():
        raise DegenerationError(
            f"the product of the {head}-measure mass of (0, x) and the {tail}-measure "
            f"mass of (x, {right_end:g}) overflowed the float range"
        )
    if not (edges[1:] - edges[:-1] > 0).all():
        raise DegenerationError(f"(0, {right_end:g}) is too short for floats: a panel has zero width")
    return {
        "right_end": float(right_end), "grid": edges, "Cvals": cvals, "dmu": dmu, "dnu": dnu,
        "mu_cum": mu_cum, "nu_cum": nu_cum, "mu_tail": mu_tail, "nu_tail": nu_tail, "quad_residual": worst,
        **_frozen_weights(problem, edges, dmu, dnu),
    }


def _frozen_weights(problem, edges, dmu, dnu):
    """The four weight columns as build_tables formed them when it formed
    them eagerly: the first moments of its last refinement pass (the pass
    over the half-panels of edges, re-run here by the frozen pass), then
    centroids and weights."""
    fine = np.empty(2 * len(edges) - 1)
    fine[0::2], fine[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    _, _, _, mmu, mnu = _FrozenPanelPass(fine[:-1], fine[1:], problem.a, problem.b).columns(0.0)
    mmu, mnu = mmu[0::2] + mmu[1::2], mnu[0::2] + mnu[1::2]
    widths = edges[1:] - edges[:-1]
    mid = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        cen_mu = np.where(dmu > 0, mmu / np.where(dmu > 0, dmu, 1.0), mid)
        cen_nu = np.where(dnu > 0, mnu / np.where(dnu > 0, dnu, 1.0), mid)
    cen_mu = np.clip(np.nan_to_num(cen_mu, nan=0.0), edges[:-1], edges[1:])
    cen_nu = np.clip(np.nan_to_num(cen_nu, nan=0.0), edges[:-1], edges[1:])
    return {
        "mu_wL": dmu * (edges[1:] - cen_mu) / widths, "mu_wR": dmu * (cen_mu - edges[:-1]) / widths,
        "nu_wL": dnu * (edges[1:] - cen_nu) / widths, "nu_wR": dnu * (cen_nu - edges[:-1]) / widths,
    }


def _frozen_table_or_error(problem, p):
    try:
        return _frozen_build_tables(problem, p)
    except EigenboundError as exc:
        return type(exc).__name__, str(exc)


_SUM_INPUTS = [
    [], [2.5], [np.inf], [np.nan], [1.0, np.inf, 2.0], [np.inf, -np.inf, 1.0], [1.0, np.nan, 3.0],
    [1e308, 1e308, -1e308], [0.1] * 7, list(np.random.default_rng(3).random(1001)),
]


class TestColumnsFrozen:
    @pytest.mark.parametrize("d", _SUM_INPUTS, ids=range(len(_SUM_INPUTS)))
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_prefix_and_suffix_equal_the_frozen_sums(self, d):
        d = np.array(d, dtype=float)
        assert measures._prefix_from_panels(d).tobytes() == _frozen_prefix(d).tobytes()
        assert measures._suffix_from_panels(d).tobytes() == _frozen_suffix(d).tobytes()
        out = np.full(len(d) + 1, 7.0)
        assert measures._suffix_from_panels(d, out=out) is out
        assert out.tobytes() == _frozen_suffix(d).tobytes()
        assert measures._suffix_from_panels(d[::-1]).tobytes() == _frozen_suffix(d[::-1]).tobytes()

    def test_graded_grid_is_fresh_and_writable(self):
        first = measures._graded_grid(64, 3.0)
        assert first.flags.writeable and first.tobytes() == _frozen_graded_grid(64, 3.0).tobytes()
        first[:] = -1.0
        second = measures._graded_grid(64, 3.0)
        assert second is not first and second.tobytes() == _frozen_graded_grid(64, 3.0).tobytes()
        assert measures._graded_grid(64, 1.0).tobytes() == _frozen_graded_grid(64, 1.0).tobytes()

    @pytest.mark.parametrize("a, b, case, D", _BENCH_TABLES + _REFINED_AND_CONSTANT_TABLES)
    def test_tables_equal_the_frozen_column_tables(self, a, b, case, D):
        problem = measures.make_problem(a=a, b=b, D=D, case=case)
        ends = problem.truncation_schedule if problem.is_infinite else (problem.D,)
        for p in ends:
            q = measures.truncate(problem, p) if problem.is_infinite else problem
            _assert_same_table(_table_or_error(q, p), _frozen_table_or_error(q, p))


class TestTablesFrozen:
    @pytest.mark.parametrize("a, b, case, D", _BENCH_TABLES + _REFINED_AND_CONSTANT_TABLES)
    def test_tables_equal_the_frozen_pass_tables(self, a, b, case, D, monkeypatch):
        problem = measures.make_problem(a=a, b=b, D=D, case=case)
        ends = problem.truncation_schedule if problem.is_infinite else (problem.D,)
        new = [_table_or_error(measures.truncate(problem, p) if problem.is_infinite else problem, p) for p in ends]
        monkeypatch.setattr(measures, "_PanelPass", _FrozenPanelPass)
        old = [_table_or_error(measures.truncate(problem, p) if problem.is_infinite else problem, p) for p in ends]
        for n, o in zip(new, old):
            _assert_same_table(n, o)

    @pytest.mark.parametrize("a, b, case, D", _REFINED_AND_CONSTANT_TABLES[3:] + [("1", "0", "ND", "inf")])
    def test_constant_coefficients_equal_their_x_spelling(self, a, b, case, D):
        # a constant stays 0-d in the pass; + 0*x makes it a full node array
        const = measures.make_problem(a=a, b=b, D=D, case=case)
        spelled = measures.make_problem(a=f"{a} + 0*x", b=f"{b} + 0*x", D=D, case=case)
        for p in const.truncation_schedule if const.is_infinite else (const.D,):
            tables = [_table_or_error(measures.truncate(q, p) if q.is_infinite else q, p) for q in (const, spelled)]
            _assert_same_table(*tables)

    @pytest.mark.parametrize("a, b, case, D", _DRIFT_FREE_TABLES)
    def test_drift_free_tables_keep_every_bit(self, a, b, case, D, monkeypatch):
        # (b)*x^0 makes b/a a full node array of b's sign, which takes the
        # general pass; the frozen pass summed the -0.0 increments of C to +0.0
        def tables(a, b):
            problem = measures.make_problem(a=a, b=b, D=D, case=case)
            ends = problem.truncation_schedule if problem.is_infinite else (problem.D,)
            return [_table_or_error(measures.truncate(problem, p) if problem.is_infinite else problem, p)
                    for p in ends]

        def columns(table, signed_zero=True):
            return {k: np.asarray(v).tobytes() for k, v in table.items() if signed_zero or k != "Cvals"}

        new, spelled = tables(a, b), tables(a, f"({b})*x^0")
        monkeypatch.setattr(measures, "_PanelPass", _FrozenPanelPass)
        for n, s, f in zip(new, spelled, tables(a, b), strict=True):
            if isinstance(n, tuple):
                assert n == s == f
                continue
            assert columns(n) == columns(s) and columns(n, b != "-0") == columns(f, b != "-0")
            assert np.array_equal(n["Cvals"], f["Cvals"]) and np.signbit(n["Cvals"][1:]).all() == (b == "-0")

    @pytest.mark.parametrize("a, b, case, D", _REFINED_AND_CONSTANT_TABLES[:2])
    def test_singular_weights_refine_past_round_zero(self, a, b, case, D):
        # round 0 keeps the base grid's panels; more panels mean a later round
        problem = measures.make_problem(a=a, b=b, D=D, case=case)
        assert measures.build_tables(problem, problem.D).n_panels > problem.grid_size

    @pytest.mark.parametrize(
        "a, b, case", [("1", "0", "ND"), ("1", "-x", "DN"), ("1+x^2", "0", "DN"), ("1", "sin(10*x)", "ND")]
    )
    def test_mass_trace_equals_the_frozen_pass_trace(self, a, b, case, monkeypatch):
        problem = measures.make_problem(a=a, b=b, D="inf", case=case)
        new = measures.hypothesis_check(problem)
        monkeypatch.setattr(measures, "_PanelPass", _FrozenPanelPass)
        old = measures.hypothesis_check(problem)
        assert new.mass_trace == old.mass_trace
        assert (new.criterion_zero, new.notes) == (old.criterion_zero, old.notes)


# mirrored() and dual_table() as they moved the weights before they deferred
# them to the first read
def _frozen_mirror_weights(w):
    return {"mu_wL": w["mu_wR"][::-1], "mu_wR": w["mu_wL"][::-1], "nu_wL": w["nu_wR"][::-1], "nu_wR": w["nu_wL"][::-1]}


def _frozen_dual_weights(w):
    return {"mu_wL": w["nu_wL"], "mu_wR": w["nu_wR"], "nu_wL": w["mu_wL"], "nu_wR": w["mu_wR"]}


_WEIGHT_NAMES = ("mu_wL", "mu_wR", "nu_wL", "nu_wR")

# laplacian ND, DN and NN, 1+x^2 DN, OU DN (0, 8) and its mirror image,
# exp(x)/1 ND, and a table whose refinement ran past round 0 (see
# test_singular_weights_refine_past_round_zero)
_DEFERRED_TABLES = _BENCH_TABLES[:6] + [("exp(x)", "1", "ND", "3"), _REFINED_AND_CONSTANT_TABLES[0]]


def _counting_moments(monkeypatch):
    """Calls of the moment step, one per table whose weights form."""
    calls, real = [], measures._pass_moments

    def counting(*args):
        calls.append(float(args[1][-1]))  # the right end of the table
        return real(*args)

    monkeypatch.setattr(measures, "_pass_moments", counting)
    return calls


class TestDeferredWeightsFrozen:
    @pytest.mark.parametrize("a, b, case, D", _DEFERRED_TABLES)
    @pytest.mark.parametrize("derive", ["mirrored", "dual_table"])
    @pytest.mark.parametrize("source_first", [True, False], ids=["source-first", "derived-first"])
    def test_weights_equal_the_frozen_eager_weights(self, a, b, case, D, derive, source_first, monkeypatch):
        calls = _counting_moments(monkeypatch)
        problem = measures.make_problem(a=a, b=b, D=D, case=case)
        table = measures.build_tables(problem, problem.D)
        derived = table.mirrored() if derive == "mirrored" else oracle.dual_table(table)
        assert "_form" in vars(table) and "_form" in vars(derived) and not calls
        read = {id(t): {n: getattr(t, n) for n in _WEIGHT_NAMES}
                for t in ((table, derived) if source_first else (derived, table))}
        # one moment step, whichever table is read first; every kept
        # fine-pass array is dropped
        assert len(calls) == 1 and "_form" not in vars(table) and "_form" not in vars(derived)
        want = _frozen_weights(problem, table.grid, table.dmu, table.dnu)
        moved = (_frozen_mirror_weights if derive == "mirrored" else _frozen_dual_weights)(want)
        for got, expected in ((read[id(table)], want), (read[id(derived)], moved)):
            for name in _WEIGHT_NAMES:
                assert got[name].tobytes() == expected[name].tobytes(), name

    def test_given_weights_are_kept(self, lap_nd):
        # a table made with its weights, as replace() makes one, forms nothing
        w = {n: np.full(lap_nd.n_panels, float(i)) for i, n in enumerate(_WEIGHT_NAMES)}
        t = dataclasses.replace(lap_nd, **w)
        assert "_form" not in vars(t) and all(getattr(t, n) is w[n] for n in _WEIGHT_NAMES)
        with pytest.raises(AttributeError, match="no attribute 'mu_w'"):
            t.mu_w

    def test_tables_make_no_reference_cycle(self):
        problem = measures.make_problem(preset="ou", D=8.0, case="DN")
        gc.disable()
        try:
            for read in (False, True):
                table = measures.build_tables(problem, problem.D)
                derived = [table.mirrored(), oracle.dual_table(table), table.mirrored().mirrored()]
                if read:
                    [t.nu_wR for t in derived]
                refs = [weakref.ref(t) for t in [table, *derived]]
                del table, derived
                assert [r() for r in refs] == [None] * 4, read
        finally:
            gc.enable()


class TestDeferredWeightsFormed:
    """The moment step runs once per table whose weights a command reads: on
    (0, inf) the walk's last table, never a truncation the walk discards."""

    @pytest.mark.parametrize("a, b", [("1", "-x"), ("1+x^2", "0")])
    @pytest.mark.parametrize("command, tables", [("oracle", 0), ("bounds", 1), ("iterate", 1), ("verify", 1)])
    def test_a_walk_forms_the_weights_of_its_last_table_alone(self, a, b, command, tables, monkeypatch, capsys):
        calls = _counting_moments(monkeypatch)
        assert cli.main([command, "--a", a, "--b", b, "--D", "inf", "--case", "DN"]) in (0, 5)
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["criterion_zero"] is False
        assert len(calls) == tables
        if "right_end_used" in report["results"]:
            assert calls == [report["results"]["right_end_used"]]

    @pytest.mark.parametrize("a, b", [("1", "-x"), ("1+x^2", "0")])
    def test_the_mass_trace_forms_no_weights(self, a, b, monkeypatch):
        calls = _counting_moments(monkeypatch)
        rep = measures.hypothesis_check(measures.make_problem(a=a, b=b, D="inf", case="DN"))
        assert len(rep.mass_trace) == 12 and not calls
