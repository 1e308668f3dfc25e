import json
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as C
from eigenbound import bounds, cli, measures, oracle
from eigenbound.errors import DegenerationError, DomainError, RangeError


def _merged_panels(table: measures.MeasureTable):
    """Coalesce panels thinner than 1e-7 of the interval, preserving their
    masses, as the LAPACK bisection solve needed: (kept node indices, merged
    scale panels, merged speed panels)."""
    widths = np.diff(table.grid)
    floor = 1e-7 * table.right_end
    if np.all(widths >= floor):
        return np.arange(len(table.grid)), table.dnu, table.dmu
    kept = [0]
    acc = 0.0
    for j, w in enumerate(widths):
        acc += w
        if acc >= floor or j == len(widths) - 1:
            kept.append(j + 1)
            acc = 0.0
    kidx = np.asarray(kept)
    dnu = np.add.reduceat(table.dnu, kidx[:-1])
    dmu = np.add.reduceat(table.dmu, kidx[:-1])
    return kidx, dnu, dmu


def _frozen_dn_assembly(table):
    """The DN scheme as assembled per case before DN ran as ND on the reversed
    panels: rows 1..M of the zero-flux scheme on the merged panels, as
    (diagonal, coupling, cell masses, table node of each row)."""
    kidx, dnu, dmu = _merged_panels(table)
    m = len(dnu)
    inv = 1.0 / dnu
    full_diag = np.empty(m + 1)
    full_diag[0] = inv[0]
    full_diag[-1] = inv[-1]
    full_diag[1:-1] = inv[:-1] + inv[1:]
    full_cell = np.empty(m + 1)
    full_cell[0] = 0.5 * dmu[0]
    full_cell[-1] = 0.5 * dmu[-1]
    full_cell[1:-1] = 0.5 * (dmu[:-1] + dmu[1:])
    return full_diag[1:], inv[1:], full_cell[1:], kidx[1:]


def _frozen_dn_solve(table):
    """The DN solve of the per-case assembly by LAPACK bisection (stebz), with
    the probe x/D for the bisection tolerance and the sign read a quarter of
    the way along the rows."""
    from scipy.linalg import eigh_tridiagonal

    diag, coupling, cell, rows = _frozen_dn_assembly(table)

    def stiffness(v):
        av = diag * v
        av[:-1] -= coupling * v[1:]
        av[1:] -= coupling * v[:-1]
        return av

    mass_sqrt = np.sqrt(cell)
    probe = table.grid[rows] / table.grid[-1]
    rho = float(np.dot(probe, stiffness(probe)) / np.dot(probe, cell * probe))
    vals, vecs = eigh_tridiagonal(
        diag / cell, -coupling / (mass_sqrt[:-1] * mass_sqrt[1:]), select="i", select_range=(0, 0),
        lapack_driver="stebz", tol=1e-13 * max(rho, 1e-30),
    )
    lam = float(vals[0])
    g = vecs[:, 0] / mass_sqrt
    av = stiffness(g)
    residual = float(np.max(np.abs(av - lam * cell * g)) / max(np.max(np.abs(av)), 1e-300))
    rayleigh = float(np.dot(g, av) / np.dot(g, cell * g))
    xs_idx = np.unique(np.concatenate([[0], rows, [len(table.grid) - 1]]))
    ys = np.zeros(len(xs_idx))
    ys[np.searchsorted(xs_idx, rows)] = g
    full = np.interp(table.grid, table.grid[xs_idx], ys)
    probe_val = full[rows[len(rows) // 4]]
    if probe_val < 0 or (probe_val == 0 and np.sum(full) < 0):
        full = -full
    full = full / np.max(np.abs(full))
    return oracle.EigenSolution(lam, table, full, residual, rayleigh, lam, lam)


def _dn_single_integral_flux(sol):
    """The single-integral identity written for DN, where g increases: with S
    the suffix integral of g against mu, panel k carries the mean of S times
    dnu[k] / (g[k+1] - g[k]), on the panels where that rise is above the
    noise floor."""
    t, g = sol.table, sol.eigenfunction
    S = measures.suffix_integral(t, g, "mu")
    rise = g[1:] - g[:-1]
    signal = rise > 0.5e-6 * np.max(np.abs(g))
    flux = 0.5 * (S[:-1] + S[1:])[signal] * t.dnu[signal] / rise[signal]
    return {
        "i_deviation": float(np.max(np.abs(sol.lambda_ * flux - 1.0))),
        "i_window_fraction": float(np.mean(signal)),
    }


def _eigenvalues_below(table, x) -> int:
    """Eigenvalues of the per-case DN scheme below x, by a Sturm count of
    A - x B assembled and factored in 40-digit arithmetic from the merged
    panel masses.  A float assembly would not do: rounding the diagonal of A
    moves its least eigenvalue by about 1e-16 of the norm of A."""
    _, dnu, dmu = _merged_panels(table)
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        inv = [1 / mpmath.mpf(v) for v in dnu] + [0]
        mass = [mpmath.mpf(v) for v in dmu] + [0]
        count, pivot = 0, None
        for j in range(1, len(inv)):  # rows 1..M: the node at 0 is Dirichlet
            d = inv[j - 1] + inv[j] - x * (mass[j - 1] + mass[j]) / 2
            if pivot is not None:
                d -= inv[j - 1] ** 2 / pivot
            count += d < 0
            pivot = d
    return count


class TestEigensolve:
    def test_laplacian_nd(self):
        p = measures.make_problem(preset="laplacian", D=1.0, case="ND")
        t0 = time.perf_counter()
        sol = oracle.fd_eigensolve(p, 2000)
        assert time.perf_counter() - t0 < 1.0
        assert sol.lambda_ == pytest.approx(C.PI_SQ_OVER_4, rel=1e-4)
        assert sol.residual <= p.tolerances.oracle
        # analytic eigenfunction
        err = np.max(np.abs(sol.eigenfunction - np.cos(np.pi * sol.table.grid / 2)))
        assert err <= 1e-5

    def test_laplacian_dn(self):
        p = measures.make_problem(preset="laplacian", D=1.0, case="DN")
        sol = oracle.fd_eigensolve(p, 2000)
        assert sol.lambda_ == pytest.approx(C.PI_SQ_OVER_4, rel=1e-4)
        err = np.max(np.abs(sol.eigenfunction - np.sin(np.pi * sol.table.grid / 2)))
        assert err <= 1e-5

    def test_laplacian_nn_gap(self):
        p = measures.make_problem(preset="laplacian", D=1.0, case="NN")
        sol = oracle.fd_eigensolve(p, 2000)
        assert sol.lambda_ == pytest.approx(C.PI_SQ, rel=1e-4)
        err = np.max(np.abs(sol.eigenfunction - np.cos(np.pi * sol.table.grid)))
        assert err <= 1e-4
        # constant mode projected out against the speed measure
        w = np.concatenate([[0.5 * sol.table.dmu[0]],
                            0.5 * (sol.table.dmu[:-1] + sol.table.dmu[1:]),
                            [0.5 * sol.table.dmu[-1]]])
        assert abs(np.dot(w, sol.eigenfunction)) <= 1e-10

    def test_ou_truncation_linear_eigenfunction(self):
        p = measures.make_problem(preset="ou", D=8.0, case="DN")
        sol = oracle.fd_eigensolve(p, 4000)
        assert sol.lambda_ == pytest.approx(1.0, rel=1e-3)

    def test_rayleigh_consistency(self):
        for preset, case in (("laplacian", "ND"), ("laplacian", "NN"), ("ou", "DN")):
            p = measures.make_problem(preset=preset, D=2.0, case=case)
            sol = oracle.fd_eigensolve(p, 1500)
            assert abs(sol.rayleigh - sol.lambda_) <= 1e-10 * abs(sol.lambda_)

    def test_grid_convergence_second_order(self):
        p = measures.make_problem(preset="laplacian", D=1.0, case="ND")
        errs = [abs(oracle.fd_eigensolve(p, n).lambda_ - C.PI_SQ_OVER_4) for n in (250, 500, 1000)]
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_strict_domain_monotonicity(self):
        p = measures.make_problem(preset="ou", D=1.0, case="ND")
        pairs = [(0.4, 0.6), (0.6, 0.8), (0.5, 0.9)]
        for a, b in pairs:
            la = oracle.fd_eigensolve(measures.truncate(p, a), 800).lambda_
            lb = oracle.fd_eigensolve(measures.truncate(p, b), 800).lambda_
            assert la > lb

    def test_gap_exceeds_nd_eigenvalue(self):
        for D in (0.7, 1.0):
            p_nd = measures.make_problem(preset="laplacian", D=D, case="ND")
            p_nn = measures.make_problem(preset="laplacian", D=D, case="NN")
            assert oracle.fd_eigensolve(p_nn, 800).lambda_ > oracle.fd_eigensolve(p_nd, 800).lambda_

    def test_infinite_interval_rejected(self):
        p = measures.make_problem(preset="ou", D="inf", case="DN")
        with pytest.raises(RangeError):
            oracle.fd_eigensolve(p)

    def test_degenerate_coefficient_bracketed(self):
        # a = sqrt(x): the cascade-graded table carries panels far below the
        # scheme's width floor, which the assembly must merge away
        p = measures.make_problem(a="sqrt(x)", b="0", D=1.0, case="ND", grid_size=1000)
        table = measures.build_tables(p, 1.0)
        sol = oracle.fd_eigensolve(p)
        rep = bounds.compute_report("ND", table)
        lo, hi = rep.lower_basic, rep.upper_basic
        assert lo - 1e-6 <= sol.lambda_ <= hi + 1e-6
        assert abs(oracle.fd_eigensolve(p, 2000).lambda_ - sol.lambda_) <= 1e-5
        assert oracle.eigen_residuals(sol)["ii_deviation"] <= 5e-3


class TestResiduals:
    @pytest.mark.parametrize("case", ["ND", "DN"])
    def test_identities_near_exact(self, case):
        p = measures.make_problem(preset="laplacian", D=1.0, case=case)
        sol = oracle.fd_eigensolve(p, 2000)
        d = oracle.eigen_residuals(sol)
        assert d["ii_deviation"] <= 5e-3
        assert d["i_deviation"] <= 5e-3
        assert d["strictly_monotone"] and d["sign_constant"]

    def test_ou_identities(self):
        p = measures.make_problem(preset="ou", D=8.0, case="DN")
        sol = oracle.fd_eigensolve(p, 2000)
        d = oracle.eigen_residuals(sol)
        assert d["ii_deviation"] <= 5e-3
        assert d["rayleigh_gap"] <= 1e-10

    # eigen_residuals on DN tables, frozen from the oriented DN formulas the
    # mirrored ND evaluation replaced, and the single-integral flux form
    # written for DN; it must reproduce them exactly
    FROZEN_DN = {
        "lap_dn": {
            "ii_deviation": 3.6814966786202774e-07,
            "strictly_monotone": True,
            "sign_constant": True,
            "right_edge_interior_value": 0.9999999969156577,
            "residual": 9.371945530174437e-09,
            "rayleigh_gap": 7.148926792876445e-11,
        },
        "ou_dn_4": {
            "ii_deviation": 7.039720350765499e-06,
            "strictly_monotone": True,
            "sign_constant": True,
            "right_edge_interior_value": 0.9999999799796261,
            "residual": 3.765127355454612e-08,
            "rayleigh_gap": 7.592411756992789e-12,
        },
    }

    @pytest.mark.parametrize("fixture", ["lap_dn", "ou_dn_4"])
    def test_dn_residuals_match_the_oriented_formulas(self, fixture, request):
        table = request.getfixturevalue(fixture)
        sol = _frozen_dn_solve(table)
        d = oracle.eigen_residuals(sol)
        assert d == {**self.FROZEN_DN[fixture], **_dn_single_integral_flux(sol)}

    # DN problems as fixtures or (a, b, D): OU, 1+x^2 over four decades of D,
    # drifts both ways, and the two thin tips at the Dirichlet end
    DN_PROBLEMS = [
        "lap_dn", "ou_dn_4", "ou_dn_8", "quad_dn",
        ("1+x^2", "0", 2.0), ("1+x^2", "0", 512.0), ("1+x^2", "0", 4096.0),
        ("exp(x)", "1", 3.0), ("1", "x", 4.0), ("sqrt(x)", "0", 1.0), ("1", "-1/sqrt(x)", 1.0),
    ]

    @pytest.mark.parametrize("problem", DN_PROBLEMS, ids=str)
    def test_dn_solve_matches_the_per_case_assembly(self, problem, request):
        if isinstance(problem, str):
            table = request.getfixturevalue(problem)
        else:
            table = C.make_table(a=problem[0], b=problem[1], D=problem[2], case="DN")
        ref = _frozen_dn_solve(table)
        sol = oracle.solve_on_table(table, "DN")
        # the enclosure holds the per-case scheme's eigenvalue, and no other,
        # to 1e-12 relative, and is 1e-10 narrow
        assert sol.lambda_lo <= sol.lambda_ <= sol.lambda_hi
        assert sol.lambda_hi - sol.lambda_lo <= 1e-10 * sol.lambda_lo
        assert _eigenvalues_below(table, sol.lambda_lo * (1 - 1e-12)) == 0
        assert _eigenvalues_below(table, sol.lambda_hi * (1 + 1e-12)) == 1
        assert np.max(np.abs(sol.eigenfunction - ref.eigenfunction)) <= 1e-9
        assert sol.residual <= table.problem.tolerances.oracle

    def test_unknown_case_rejected(self, lap_nd):
        with pytest.raises(ValueError):
            oracle.solve_on_table(lap_nd, "XY")

    def test_decay_at_right_edge_for_large_truncation(self):
        # constant outward drift: scale mass finite, eigenvalue positive, and
        # the ND eigenfunction must die out at ever larger truncations (the
        # meaning of the boundary at infinity)
        p = measures.make_problem(a="1", b="1", D="inf", case="ND")
        edges = []
        for trunc in (8.0, 16.0, 32.0):
            sol = oracle.fd_eigensolve(measures.truncate(p, trunc), 1200)
            mid = np.argmin(np.abs(sol.table.grid - 0.75 * trunc))
            edges.append(abs(sol.eigenfunction[mid]))
        assert edges[0] > edges[1] > edges[2]
        assert edges[2] <= 1e-3


def _frozen_suffix(x):
    return np.cumsum(x[::-1])[::-1]


def _frozen_nd_green(dnu, cell):
    tail = _frozen_suffix(dnu)

    def apply(v):
        cv = cell * v
        w = tail * np.cumsum(cv)
        w[:-1] += _frozen_suffix(tail * cv)[1:]
        return w

    return apply, tail


def _frozen_nn_green(dnu, cell):
    head = np.cumsum(cell)[:-1]
    tail = _frozen_suffix(cell)[1:]
    total = head[-1] + tail[-1]

    def apply(phi):
        y = dnu * phi
        z = tail * np.cumsum(head * y)
        z[:-1] += head[:-1] * _frozen_suffix(tail * y)[1:]
        return z / total

    return apply, np.ones(len(dnu))


class TestGreenFrozen:
    """The operators on their buffers against their allocating form, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
    def test_nd_operator_equals_the_frozen_closure(self, n):
        rng = np.random.default_rng(n)
        dnu, cell = rng.random(n) + 1e-3, rng.random(n) + 1e-3
        (new, new_start), (old, old_start) = oracle._nd_green(dnu, cell), _frozen_nd_green(dnu, cell)
        assert new_start.tobytes() == old_start.tobytes()
        v1, v2 = rng.random(n) + 1e-3, rng.random(n) * 1e6 + 1e-3
        w1 = new(v1)
        kept = w1.copy()
        w2 = new(v2)
        assert w1 is not w2 and not np.shares_memory(w1, w2)
        assert w1.tobytes() == kept.tobytes() == old(v1).tobytes()
        assert w2.tobytes() == old(v2).tobytes()
        w1 *= 3.0  # Lanczos scales the returned vector in place
        assert new(v2).tobytes() == w2.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    def test_nn_operator_equals_the_frozen_closure(self, n):
        rng = np.random.default_rng(n)
        dnu, cell = rng.random(n) + 1e-3, rng.random(n + 1) + 1e-3
        (new, _), (old, _) = oracle._nn_green(dnu, cell), _frozen_nn_green(dnu, cell)
        for _ in range(2):
            phi = rng.random(n) - 0.5
            assert new(phi).tobytes() == old(phi).tobytes()

    @pytest.mark.parametrize("case", ["ND", "DN", "NN"])
    def test_solves_equal_the_frozen_operators(self, case, monkeypatch):
        table = C.make_table(preset="ou", D=8.0, case=case)
        new = oracle.solve_on_table(table, case)
        monkeypatch.setattr(oracle, "_nd_green", _frozen_nd_green)
        monkeypatch.setattr(oracle, "_nn_green", _frozen_nn_green)
        old = oracle.solve_on_table(table, case)
        for name in ("lambda_", "residual", "rayleigh", "lambda_lo", "lambda_hi"):
            assert getattr(new, name) == getattr(old, name), name
        assert new.eigenfunction.tobytes() == old.eigenfunction.tobytes()


class TestRayleighUnderflow:
    def test_a_normal_denominator_divides_once(self):
        rng = np.random.default_rng(5)
        for num, den, scale in rng.random((100, 3)) * [1e10, 1e-5, 1e3]:
            assert oracle._quotient(num, den, scale) == num / (den * scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_subnormal_denominator_divides_twice(self):
        assert oracle._quotient(1e-150, 1e-150, 1e-300) == 1e-150 / 1e-150 / 1e-300
        assert oracle._quotient(np.float64(1.0), np.float64(0.0), 1.0) == math.inf  # refused by the caller

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_denominator_divides_twice(self):
        # den * scale is inf: dividing by it once would give 0
        assert oracle._quotient(1e110, 1e200, 1e200) == 1e110 / 1e200 / 1e200 > 0

    @pytest.mark.parametrize("case", ["ND", "DN"])
    def test_rayleigh_quotient_of_a_huge_interval(self, case, capsys):
        # on (0, 1e110) the masses are about 1e107 and lambda about 2.5e-220,
        # so the Rayleigh quotient's denominator times its scale overflows
        argv = ["--a", "1", "--b", "0", "--D", "1e110", "--case", case]
        assert cli.main(["oracle", *argv]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["lambda_lo"] <= results["lambda"] <= results["lambda_hi"]
        assert results["lambda"] == pytest.approx(C.PI_SQ_OVER_4 / 1e220, rel=2e-7)
        assert cli.main(["verify", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["lambda_oracle"] == results["lambda"]

    @pytest.mark.parametrize("D", [1e-104, 1e-120, 1e-150])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rayleigh_quotient_of_a_tiny_interval(self, D):
        table = C.make_table(preset="laplacian", D=D, case="ND")
        sol = oracle.solve_on_table(table, "ND")
        assert sol.lambda_lo <= sol.lambda_ <= sol.lambda_hi
        assert sol.lambda_ == pytest.approx(C.PI_SQ_OVER_4 / D**2, rel=2e-7)
        assert sol.rayleigh == pytest.approx(sol.lambda_, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 10, 200, 360])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nn_masses_a_power_of_two_smaller_keep_their_bits(self, k):
        # G B multiplies three masses: at 2^-360 each, their products underflow.
        # Masses of total 1.5 are solved as they are; an even k keeps dnu's
        # weighted norms, whose square roots Lanczos takes, a power of two apart
        table = C.make_table(preset="laplacian", D=1.5, case="NN")
        small = replace(table, dmu=np.ldexp(table.dmu, -k), dnu=np.ldexp(table.dnu, -k))
        ref, sol = oracle.solve_on_table(table, "NN"), oracle.solve_on_table(small, "NN")
        for name in ("lambda_", "lambda_lo", "lambda_hi", "rayleigh"):
            assert getattr(sol, name) == math.ldexp(getattr(ref, name), 2 * k), name
        assert sol.residual == ref.residual
        assert sol.eigenfunction.tobytes() == ref.eigenfunction.tobytes()


class TestPowerIteration:
    """The Green's-function power iteration: enclosure, defect and refusal."""

    def test_ou_nn_gap_sums_the_tail_cells_from_the_right(self):
        # speed cells near 8 are e^-32 of the total: a tail taken as total -
        # head would cancel to 0 there
        sol = oracle.solve_on_table(C.make_table(preset="ou", D=8.0, case="NN"), "NN")
        assert sol.lambda_lo <= sol.lambda_ <= sol.lambda_hi
        assert sol.lambda_ == pytest.approx(1.99993208329, rel=1e-11)
        assert sol.residual <= 1e-12
        assert np.isfinite(sol.eigenfunction).all()

    @pytest.mark.parametrize("table", [
        ("laplacian", None, 1.0), (None, "-x", 5.0), (None, "-20*(x-1)*(x-2)*(x-3)", 4.0),
    ], ids=str)
    def test_green_defect_rejects_a_doctored_eigenfunction(self, table):
        preset, b, D = table
        t = C.make_table(preset=preset, a=None if preset else "1", b=b, D=D, case="ND")
        sol = oracle.solve_on_table(t, "ND")
        cell = 0.5 * (np.append(t.dmu, 0.0) + np.append(0.0, t.dmu))[:-1]
        apply, _ = oracle._nd_green(t.dnu, cell)
        g = sol.eigenfunction[:-1]  # the Dirichlet node is not an unknown
        assert oracle._green_defect(sol.lambda_, g, apply(g)) <= 1e-14
        doctored = g.copy()
        doctored[len(g) // 2:] *= 1.01
        assert oracle._green_defect(sol.lambda_, doctored, apply(doctored)) > t.problem.tolerances.oracle

    def test_an_enclosure_open_at_the_cap_is_refused(self, monkeypatch, capsys):
        # OU DN (0, 8) needs 38 steps to close its enclosure
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 3)
        with pytest.raises(DegenerationError):
            oracle.solve_on_table(C.make_table(preset="ou", D=8.0, case="DN"), "DN")
        assert cli.main(["oracle", "--a", "1", "--b", "-x", "--D", "8", "--case", "DN"]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 4

    def test_an_enclosure_closed_at_the_cap_holds_lambda(self, monkeypatch):
        # 20 applications of G B on OU DN (0, 8) are 16 Lanczos steps and 4
        # power steps, which leave the enclosure open by about 3e-15, inside
        # the tolerance; uncapped, 6 power steps close it to about 7e-16
        table = C.make_table(preset="ou", D=8.0, case="DN")
        full = oracle.solve_on_table(table, "DN")
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 20)
        budgets, power = [], oracle._power

        def counted(apply, v, steps):
            used = [0]

            def step(u):
                used[0] += 1
                return apply(u)

            out = power(step, v, steps)
            budgets.append((steps, used[0]))
            return out

        monkeypatch.setattr(oracle, "_power", counted)
        sol = oracle.solve_on_table(table, "DN")
        [(budget, used)] = budgets
        assert 0 < budget == used  # the cap, not the stop rule, ended the power phase
        width = (sol.lambda_hi - sol.lambda_lo) / sol.lambda_lo
        assert 1e-15 < width <= table.problem.tolerances.oracle
        assert sol.lambda_lo <= sol.lambda_ <= sol.lambda_hi
        assert sol.lambda_ == pytest.approx(full.lambda_, rel=1e-12)
        assert sol.residual <= width

    @pytest.mark.parametrize("b, D, case", [("-1", 64.0, "DN"), ("1", 128.0, "ND")], ids=str)
    def test_a_crowded_spectrum_bottom_closes_in_few_applications(self, monkeypatch, capsys, b, D, case):
        # drift -1 DN (0, 64) and drift 1 ND (0, 128): lambda_1 lies just above
        # the continuum edge 1/4 of (0, inf), where power iteration alone took
        # 1,086 and 3,509 steps
        table = C.make_table(a="1", b=b, D=D, case=case)
        steps, green = [0], oracle._nd_green

        def counted(dnu, cell):
            apply, start = green(dnu, cell)

            def step(v):
                steps[0] += 1
                return apply(v)

            return step, start

        monkeypatch.setattr(oracle, "_nd_green", counted)
        sol = oracle.solve_on_table(table, case)
        assert steps[0] <= 200
        assert sol.lambda_hi - sol.lambda_lo <= 1e-12 * sol.lambda_lo
        if case == "ND":  # the Sturm count runs on the DN orientation
            table = replace(table, grid=table.right_end - table.grid[::-1], dnu=table.dnu[::-1], dmu=table.dmu[::-1])
        assert _eigenvalues_below(table, sol.lambda_lo * (1 - 1e-12)) == 0
        assert _eigenvalues_below(table, sol.lambda_hi * (1 + 1e-12)) == 1
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 30)
        with pytest.raises(DegenerationError):
            oracle.solve_on_table(C.make_table(a="1", b=b, D=D, case=case), case)
        assert cli.main(["oracle", "--a", "1", "--b", b, "--D", f"{D:g}", "--case", case]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)), min_size=2, max_size=40))
    def test_enclosure_contains_the_bisection_eigenvalue(self, lap_dn, masses):
        dnu, dmu = (np.array(col) / len(masses) for col in zip(*masses))
        table = replace(lap_dn, grid=np.linspace(0.0, 1.0, len(masses) + 1), dnu=dnu, dmu=dmu)
        sol = oracle.solve_on_table(table, "DN")
        ref = _frozen_dn_solve(table).lambda_
        assert sol.lambda_lo * (1 - 1e-9) <= ref <= sol.lambda_hi * (1 + 1e-9)


class TestLanczosOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nn_masses_past_the_float_range_are_a_degeneration(self, capsys):
        # the speed masses of a = 1, b = 1 grow like e^x: on (0, 512) G B
        # overflows, and the Lanczos step's norm with it
        argv = ["--a", "1", "--b", "1", "--D", "512", "--case", "NN"]
        for command in ("oracle", "verify"):
            assert cli.main([command, *argv]) == 4
            out, err = capsys.readouterr()
            error = json.loads(out)["error"]
            assert (error["type"], error["exit_code"], err) == ("DegenerationError", 4, "")

    @pytest.mark.parametrize("D, lam", [("128", 0.250017202419), ("256", 0.247705054163)])
    def test_nn_masses_inside_the_float_range_solve(self, D, lam, capsys):
        assert cli.main(["oracle", "--a", "1", "--b", "1", "--D", D, "--case", "NN"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["lambda"] == pytest.approx(lam, rel=1e-9)


class TestThinTipDN:
    # panels graded to 1e-19 next to 0, the Dirichlet end of DN: a solve on a
    # grid mirrored as D - x would round those nodes onto D
    @pytest.mark.parametrize("a, b", [("sqrt(x)", "0"), ("1", "-1/sqrt(x)")])
    def test_oracle_and_verify_pass_inside_the_basic_bracket(self, a, b, capsys):
        argv = ["--a", a, "--b", b, "--D", "1", "--case", "DN"]
        assert cli.main(["oracle", *argv]) == 0
        lam = json.loads(capsys.readouterr().out)["results"]["lambda"]
        assert cli.main(["verify", *argv]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["lambda_oracle"] == lam
        assert results["bounds"]["lower_basic"] <= lam <= results["bounds"]["upper_basic"]


class TestInfiniteDomainLimit:
    def test_ou_dn_converges_to_one(self):
        p = measures.make_problem(preset="ou", D="inf", case="DN")
        lam, walk = oracle.infinite_domain_limit(p)
        assert walk.settled
        assert lam == pytest.approx(1.0, abs=1e-2)
        by_p8 = dict(zip(walk.points, walk.values))[8.0]
        assert by_p8 == pytest.approx(1.0, abs=1e-2)

    def test_laplacian_nd_trace_scales_to_zero(self):
        p = measures.make_problem(preset="laplacian", D="inf", case="ND", grid_size=600)
        lam, walk = oracle.infinite_domain_limit(p)
        expected = [(math.pi / (2 * q)) ** 2 for q in walk.points]
        assert walk.values == pytest.approx(expected, rel=1e-3)
        assert oracle.monotone_decreasing(walk)
        assert lam == pytest.approx(expected[-1], rel=1e-3)

    def test_finite_interval_rejected(self):
        p = measures.make_problem(preset="laplacian", D=1.0, case="ND")
        with pytest.raises(RangeError):
            oracle.infinite_domain_limit(p)

    def test_ou_nn_gap_limit(self):
        # the half-line gap is 2: L(x^2 - 1) = 2 - 2x^2 with zero slope at 0
        p = measures.make_problem(preset="ou", D="inf", case="NN")
        lam, walk = oracle.infinite_domain_limit(p)
        assert lam == pytest.approx(2.0, abs=1e-2)
        assert oracle.monotone_decreasing(walk)

    # verify exits 5 on 1+x^2: its walk runs out of truncations unsettled
    @pytest.mark.parametrize("a, b, verify_code", [("1", "-x", 0), ("1+x^2", "0", 5)])
    def test_verify_prints_the_oracle_walk_eigenvalue(self, a, b, verify_code, capsys):
        argv = ["--a", a, "--b", b, "--D", "inf", "--case", "DN"]
        assert cli.main(["oracle", *argv]) == 0
        printed = json.loads(capsys.readouterr().out)["results"]
        assert cli.main(["verify", *argv]) == verify_code
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["lambda_oracle"] == printed["lambda"] == printed["trace"][-1][1]
        assert "lambda_infinite_limit" not in results

    # 16 panels are too coarse for 1/x ND: its trace rises at p = 32
    @pytest.mark.parametrize("a, b, case, grid_size, monotone", [
        ("1", "-x", "DN", 2000, True), ("1+x^2", "0", "DN", 2000, True), ("1", "x", "ND", 16, False),
    ])
    def test_walk_is_what_oracle_prints(self, a, b, case, grid_size, monotone, capsys):
        problem = measures.make_problem(a=a, b=b, D="inf", case=case, grid_size=grid_size)
        lam, walk = oracle.infinite_domain_limit(problem)
        argv = ["--a", a, "--b", b, "--D", "inf", "--case", case, "--grid-size", str(grid_size)]
        assert cli.main(["oracle", *argv]) == 0
        printed = json.loads(capsys.readouterr().out)["results"]
        assert printed["converged"] == walk.settled
        assert printed["monotone_decreasing"] == oracle.monotone_decreasing(walk) == monotone
        assert printed["stop_reason"] == walk.stop_reason
        assert walk.stop_reason.endswith("; trace not monotone: discretization too coarse") == (not monotone)
        assert printed["trace"] == [[p, cli._round12(v)] for p, v in zip(walk.points, walk.values)]
        assert printed["lambda"] == cli._round12(lam)


def duality_pair(table):
    """ND eigenvalue on the table and DN eigenvalue on its measure-swapped dual."""
    return (
        oracle.solve_on_table(table, "ND").lambda_,
        oracle.solve_on_table(oracle.dual_table(table), "DN").lambda_,
    )


class TestDuality:
    def test_laplacian_self_dual(self, lap_nd):
        lam_nd, lam_dn = duality_pair(lap_nd)
        assert lam_nd == pytest.approx(C.PI_SQ_OVER_4, rel=2e-4)
        assert lam_dn == pytest.approx(C.PI_SQ_OVER_4, rel=2e-4)

    def test_ou_pair_two_grids(self):
        for n in (1000, 2000):
            lam_nd, lam_dn = duality_pair(C.make_table(preset="ou", D=3.0, case="ND", grid_size=n))
            assert abs(lam_nd - lam_dn) <= 1e-3 * abs(lam_nd)

    def test_delta_matches_dual_delta(self, ou_nd_3):
        eps = ou_nd_3.problem.tolerances.bound_refine
        d, _ = bounds.delta("ND", ou_nd_3)
        d_dual, _ = bounds.delta("DN", oracle.dual_table(ou_nd_3))
        assert abs(d - d_dual) <= 10 * eps

    def test_infinite_interval_rejected(self, capsys):
        # the duality check runs on finite intervals only: verify on (0, inf)
        # reports neither the dual pair nor its verdict
        code = cli.main(["verify", "--a", "1", "--b", "-x", "--D", "inf", "--case", "DN"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and "duality" not in results
        assert "duality" not in {v["check"] for v in results["verdicts"]}


class TestWarmStart:
    """Solves that start from an eigenvector the run holds, the walk's previous
    eigenfunction or the primal's flux for verify's dual, against cold solves
    on the same tables: each eigenvalue lies in the other's enclosure, and the
    warm solves take no more applications of G B."""

    @staticmethod
    def record(monkeypatch):
        """Record every solve as (solution, applications of G B, whether it
        started warm)."""
        solves, used = [], [0]
        lanczos, power, solve = oracle._lanczos, oracle._power, oracle.solve_on_table

        def counted_lanczos(apply, v, weight, budget):
            ritz, n = lanczos(apply, v, weight, budget)
            used[0] += n
            return ritz, n

        def counted_power(apply, v, steps):
            def step(u):
                used[0] += 1
                return apply(u)

            return power(step, v, steps)

        def recorded(table, case, *, start=None):
            before = used[0]
            sol = solve(table, case, start=start)
            solves.append((sol, used[0] - before, start is not None))
            return sol

        monkeypatch.setattr(oracle, "_lanczos", counted_lanczos)
        monkeypatch.setattr(oracle, "_power", counted_power)
        monkeypatch.setattr(oracle, "solve_on_table", recorded)
        return solves

    @staticmethod
    def against_cold(solves, case):
        """Solve cold on the table of each warm solve recorded so far, check
        that the two agree, and return the applications of each side."""
        warm = [s for s in solves if s[2]]
        assert warm
        for sol, _, _ in warm:
            cold = oracle.solve_on_table(sol.table, case)
            for x, y in ((sol, cold), (cold, sol)):
                assert y.lambda_lo * (1 - 1e-12) <= x.lambda_ <= y.lambda_hi * (1 + 1e-12)
        cold = solves[-len(warm):]
        assert not any(started for _, _, started in cold)
        return sum(n for _, n, _ in warm), sum(n for _, n, _ in cold)

    @pytest.mark.parametrize("a, b", [("1", "-x"), ("1+x^2", "0"), ("exp(x)", "1"), ("1", "-x^3")])
    def test_every_truncation_of_a_dn_walk(self, a, b, monkeypatch):
        solves = self.record(monkeypatch)
        walk = oracle.settle_lambda(measures.make_problem(a=a, b=b, D="inf", case="DN"))
        assert [s.lambda_ for s, _, _ in solves] == walk.values
        assert [started for _, _, started in solves] == [False] + [True] * (len(solves) - 1)
        warm, cold = self.against_cold(solves, "DN")
        assert warm <= cold

    @pytest.mark.parametrize("a, b, D, case", [
        ("1", "0", "1", "ND"), ("1", "0", "1", "DN"), ("1+x^2", "0", "1", "DN"),
        ("1", "-x", "8", "DN"), ("1", "8-x", "8", "ND"), ("exp(x)", "1", "3", "ND"),
    ])
    def test_verify_dual(self, a, b, D, case, monkeypatch, capsys):
        solves = self.record(monkeypatch)
        assert cli.main(["verify", "--a", a, "--b", b, "--D", D, "--case", case]) == 0
        capsys.readouterr()
        assert [started for _, _, started in solves] == [False, True]  # the primal, then the dual
        warm, cold = self.against_cold(solves, "DN" if case == "ND" else "ND")
        assert warm <= cold


# ---------------------------------------------------------------------------
# The single- and double-integral transforms, taken from the prefix/suffix
# kernel of measures on closed-form test functions.


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
