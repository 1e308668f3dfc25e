import numpy as np
import pytest

import conftest as C
from eigenbound import bounds, iterate, measures, oracle, testfn, variational as va
from eigenbound.errors import CriterionDegenerateError, DivergenceError


def brute_force_lower_constants(n_max: int, nodes: int = 20001) -> list[float]:
    """Dense uniform-grid iteration for the Laplacian on (0,1), fully
    independent of the adaptive tables (plain trapezoid everywhere)."""
    x = np.linspace(0.0, 1.0, nodes)
    dx = x[1] - x[0]
    f = np.sqrt(1 - x)
    out = []
    for _ in range(n_max):
        F = np.concatenate([[0.0], np.cumsum(0.5 * (f[:-1] + f[1:]) * dx)])
        G = np.concatenate([np.cumsum((0.5 * (F[:-1] + F[1:]) * dx)[::-1])[::-1], [0.0]])
        out.append(float(np.max(G[1:-1] / f[1:-1])))
        f = G / np.max(G)
    return out


class TestLowerSequence:
    def test_laplacian_against_independent_brute_force(self, lap_nd):
        trace = iterate.lower_sequence("ND", lap_nd, 3)
        brute = brute_force_lower_constants(3)
        assert trace.values == pytest.approx(brute, rel=2e-4)
        # frozen closed forms for the first two constants
        assert trace.values[0] == pytest.approx(C.DELTA1_LAPLACIAN, rel=1e-5)
        assert trace.values[1] == pytest.approx(C.DELTA2_LAPLACIAN, rel=1e-5)
        assert trace.values[2] == pytest.approx(C.DELTA3_LAPLACIAN, rel=1e-4)

    @pytest.mark.parametrize("case,fixture", [
        ("ND", "lap_nd"), ("DN", "lap_dn"), ("ND", "quad_nd"), ("DN", "ou_dn_8"),
    ])
    def test_non_increasing_and_bounded_below(self, case, fixture, request):
        table = request.getfixturevalue(fixture)
        trace = iterate.lower_sequence(case, table, 5)
        eps = table.problem.tolerances.bound_refine
        assert trace.monotonicity in ("non-increasing", "constant")
        for a, b in zip(trace.values, trace.values[1:]):
            assert b <= a + 10 * eps
        d, _ = bounds.delta(case, table)
        assert trace.values[0] <= 4 * d + 10 * eps

    def test_first_step_matches_delta1(self, lap_nd):
        trace = iterate.lower_sequence("ND", lap_nd, 1)
        d1, _ = bounds.delta1("ND", lap_nd)
        eps = lap_nd.problem.tolerances.bound_refine
        assert abs(trace.values[0] - d1) <= 5 * eps

    def test_renormalization_invariance(self, lap_nd):
        # the double-integral transform is scale-invariant, so iterating the
        # products unnormalized gives the renormalized sequence's constants
        eps = lap_nd.problem.tolerances.bound_refine
        with_norm = iterate.lower_sequence("ND", lap_nd, 4)
        f = testfn.power(testfn.seed_function(lap_nd), 0.5)
        without = []
        for _ in range(4):
            op, f = va.double_integral_form(f)
            without.append(op.sup)
        assert with_norm.values == pytest.approx(without, abs=10 * eps)

    def test_degenerate_criterion_refused(self):
        p = measures.make_problem(preset="ou", D=40.0, case="ND", grid_size=256)
        t = measures.build_tables(p, 40.0)
        with pytest.raises(CriterionDegenerateError):
            iterate.lower_sequence("ND", t, 2)

    def test_nmax_validation(self, lap_nd):
        with pytest.raises(ValueError):
            iterate.lower_sequence("ND", lap_nd, 0)


class TestUpperSequenceND:
    def test_first_step_is_delta1_prime(self, lap_nd):
        trace = iterate.upper_sequence_nd(lap_nd, 1)
        assert trace.values[0] == pytest.approx(C.DELTA1P_LAPLACIAN, rel=1e-4)
        d1p, _ = bounds.delta1_prime("ND", lap_nd)
        assert trace.values[0] == pytest.approx(d1p, rel=1e-4)

    def test_rayleigh_companion_identities(self, lap_nd):
        trace = iterate.upper_sequence_nd(lap_nd, 3)
        eps = lap_nd.problem.tolerances.bound_refine
        assert abs(trace.companion_dbar[0] - trace.values[0]) <= 10 * eps
        for n in range(2):
            assert trace.companion_dbar[n + 1] >= trace.values[n] - 10 * eps

    def test_reciprocals_stay_above_eigenvalue(self, lap_nd):
        trace = iterate.upper_sequence_nd(lap_nd, 3)
        for ub in trace.bounds():
            assert ub >= C.PI_SQ_OVER_4 * (1 - 1e-2)

    def test_direction_recorded_not_asserted(self, lap_nd):
        trace = iterate.upper_sequence_nd(lap_nd, 2)
        assert trace.monotonicity in ("non-increasing", "non-decreasing", "mixed", "constant", "single")
        assert any("recorded" in n for n in trace.notes)


class TestUpperSequenceDN:
    def test_first_step_cap_location(self, lap_dn):
        trace = iterate.upper_sequence_dn(lap_dn, 1)
        assert trace.values[0] == pytest.approx(0.375, rel=1e-4)
        assert trace.pair_locations[0] == pytest.approx(0.75, abs=5e-3)
        assert "cap" in trace.notes[0]

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_non_decreasing(self, fixture, request):
        table = request.getfixturevalue(fixture)
        trace = iterate.upper_sequence_dn(table, 3)
        eps = table.problem.tolerances.bound_refine
        for a, b in zip(trace.values, trace.values[1:]):
            assert b >= a - 10 * eps
        assert trace.monotonicity in ("non-decreasing", "constant")

    def test_ou_truncation_brackets_unit_eigenvalue(self, ou_dn_8):
        lam = oracle.fd_eigensolve(ou_dn_8.problem).lambda_
        up = iterate.upper_sequence_dn(ou_dn_8, 2)
        low = iterate.lower_sequence("DN", ou_dn_8, 2)
        assert lam == pytest.approx(1.0, abs=1e-2)
        for ub in up.bounds():
            assert ub >= lam * (1 - 1e-2)
        for lb in low.bounds():
            assert lb <= lam * (1 + 1e-2)

    def test_divergent_mass_refused(self):
        p = measures.make_problem(a="1", b="x", D=40.0, case="ND", grid_size=256)
        t = measures.build_tables(p, 40.0)  # built under ND, mass flagged
        with pytest.raises(DivergenceError):
            iterate.upper_sequence_dn(t, 1)


class TestEtaSequence:
    def test_first_constant_closed_form(self, lap_nn):
        trace = iterate.eta_sequence(lap_nn, 1)
        assert trace.values[0] == pytest.approx(C.ETA1_LAPLACIAN, rel=1e-3)
        assert trace.locations[0] == pytest.approx(9.0 / 16.0, abs=1e-2)

    def test_gap_bounds_and_direction(self, lap_nn):
        trace = iterate.eta_sequence(lap_nn, 4)
        for b in trace.bounds():
            assert b <= C.PI_SQ * (1 + 1e-6)
        assert trace.monotonicity in ("non-increasing", "non-decreasing")
        assert any("direction" in n for n in trace.notes)
        assert len(trace.sign_changes) == 4
        assert all(np.isfinite(s) for s in trace.sign_changes)

    def test_bounds_improve_toward_gap(self, lap_nn):
        trace = iterate.eta_sequence(lap_nn, 4)
        recips = trace.bounds()
        assert recips[-1] > recips[0]
        assert recips[-1] == pytest.approx(C.PI_SQ, rel=2e-2)

    def test_degenerate_criterion_refused(self):
        p = measures.make_problem(a="1", b="x", D=40.0, case="ND", grid_size=256)
        t = measures.build_tables(p, 40.0)
        with pytest.raises(DivergenceError):
            iterate.eta_sequence(t, 2)


class TestNaiveTruncationWarning:
    def test_truncated_eigenfunction_infimum_collapses(self, lap_nd):
        """Cutting the eigenfunction off at an interior point drives the
        window infimum of the double-integral transform to zero instead of
        1/lambda, so that truncation is useless for upper bounds."""
        sol = oracle.fd_eigensolve(lap_nd.problem)
        g = sol.eigenfunction
        cut = measures.build_tables(lap_nd.problem, 0.8)
        trunc = testfn.GridFunction(
            cut, np.interp(cut.grid, lap_nd.grid, g.values), np.interp(cut.grid, lap_nd.grid, g.deriv)
        )
        op, _ = va.double_integral_form(trunc)
        assert op.inf <= 0.05 / sol.lambda_


class TestMirrorOrientation:
    """DN is ND on the mirrored table: the oriented DN operators of
    `variational` and the ND ones on the mirror give the same constants."""

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_lower_sequence_dn_is_nd_on_mirror(self, fixture, request):
        table = request.getfixturevalue(fixture)
        dn = iterate.lower_sequence("DN", table, 3)
        nd = iterate.lower_sequence("ND", table.mirrored(), 3)
        assert dn.values == pytest.approx(nd.values, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["lap_dn", "quad_dn", "ou_dn_4", "ou_dn_8"])
    def test_dn_constants_match_unmirrored_node_scans(self, fixture, request):
        # DN node values read straight off this table's columns; the golden
        # refinement on the mirror may only add a sliver inside a panel
        table = request.getfixturevalue(fixture)
        seed = table.nu_cum
        head_sq = measures.prefix_integral(table, seed**2, "mu")
        with np.errstate(divide="ignore", invalid="ignore"):
            d1p_nodes = np.where(seed > 0, head_sq / np.where(seed > 0, seed, 1.0) + seed * table.mu_tail, 0.0)
        for fn, nodes in ((bounds.delta, seed * table.mu_tail), (bounds.delta1_prime, d1p_nodes)):
            v, x = fn("DN", table)
            k = int(np.argmax(nodes))
            assert nodes[k] * (1 - 1e-15) <= v <= nodes[k] * (1 + 1e-4)
            assert table.grid[max(k - 1, 0)] - 1e-12 <= x <= table.grid[min(k + 1, len(nodes) - 1)] + 1e-12
        # the mapped-back argmax attains delta in this table's coordinates
        v, x = bounds.delta("DN", table)
        assert table.nu_between(0.0, x) * table.mu_between(x, table.right_end) == pytest.approx(v, rel=1e-12)
