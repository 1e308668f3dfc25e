"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The whole run fits comfortably inside the three-minute
budget on a laptop-class machine.
"""

import math
import time

import numpy as np
import pytest

import conftest as C
from conftest import random_ast, strip_positions
from eigenbound import bounds, expr, iterate, measures, oracle

EPS_B = measures.Tolerances().bound_refine
SLACK = 10 * EPS_B


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def suite():
    """The finite-interval bracket suite with oracle eigenvalues."""
    specs = [
        ("laplacian-ND", dict(preset="laplacian", D=1.0, case="ND")),
        ("laplacian-DN", dict(preset="laplacian", D=1.0, case="DN")),
        ("ou-DN-p4", dict(preset="ou", D=4.0, case="DN")),
        ("ou-DN-p8", dict(preset="ou", D=8.0, case="DN")),
        ("quadratic-ND", dict(a="1+x^2", b="0", D=1.0, case="ND")),
        ("quadratic-DN", dict(a="1+x^2", b="0", D=1.0, case="DN")),
    ]
    out = []
    for name, kw in specs:
        problem = measures.make_problem(**kw)
        table = measures.build_tables(problem, problem.D)
        lam = oracle.fd_eigensolve(problem).lambda_
        out.append((name, problem, table, lam))
    return out


def test_criterion_1_closed_form_eigenvalues():
    details = []
    ok = True
    for case, exact in (("ND", C.PI_SQ_OVER_4), ("DN", C.PI_SQ_OVER_4), ("NN", C.PI_SQ)):
        problem = measures.make_problem(preset="laplacian", D=1.0, case=case)
        t0 = time.perf_counter()
        lam = oracle.fd_eigensolve(problem, 2000).lambda_
        dt = time.perf_counter() - t0
        rel = abs(lam - exact) / exact
        ok &= rel <= 1e-4 and dt < 1.0
        details.append(f"{case}: {lam:.8f} (rel {rel:.1e}, {dt * 1e3:.0f} ms)")
    _report(1, ok, "; ".join(details))


def test_criterion_2_basic_bracket(suite):
    t0 = time.perf_counter()
    ok = True
    worst = ""
    for name, problem, table, lam in suite:
        rep = bounds.compute_report(problem.case, table)
        lo, hi = rep.lower_basic, rep.upper_basic
        good = lo - 1e-6 <= lam <= hi + 1e-6
        ok &= good
        if not good:
            worst = f"{name}: {lo} <= {lam} <= {hi} fails"
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    _report(2, ok, worst or f"all 6 problems bracketed; {dt:.2f} s")


def test_criterion_3_improved_chain(suite):
    ok = True
    details = []
    for name, problem, table, lam in suite:
        rep = bounds.compute_report(problem.case, table)
        chain = (
            rep.lower_basic <= rep.lower_improved + SLACK
            and rep.lower_improved <= lam + SLACK
            and lam <= rep.upper_improved + SLACK
            and rep.upper_improved <= rep.upper_basic + SLACK
        )
        contain = rep.delta - SLACK <= rep.delta1_prime <= 2 * rep.delta + SLACK
        ok &= chain and contain
        if not (chain and contain):
            details.append(f"{name} chain/containment failed")
    rep = bounds.compute_report("ND", suite[0][2])  # suite[0] is laplacian-ND
    vals_ok = (
        abs(rep.delta - 0.25) <= 1e-3 * 0.25
        and abs(rep.delta1_prime - 0.375) <= 1e-3 * 0.375
        and abs(rep.delta1 - C.DELTA1_LAPLACIAN) <= 1e-3 * C.DELTA1_LAPLACIAN
    )
    ok &= vals_ok
    details.append(
        f"laplacian ND: delta={rep.delta:.6f}, delta1'={rep.delta1_prime:.6f}, "
        f"delta1={rep.delta1:.6f}"
    )
    _report(3, ok, "; ".join(details))


def test_criterion_4_iteration_monotonicity(suite):
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, problem, table, lam in suite:
        if problem.case not in ("ND", "DN"):
            continue
        low = iterate.lower_sequence(problem.case, table, 5)
        mono_low = all(b <= a + SLACK for a, b in zip(low.values, low.values[1:]))
        up = (
            iterate.upper_sequence_nd(table, 3)
            if problem.case == "ND"
            else iterate.upper_sequence_dn(table, 3)
        )
        bracket = all(lb <= lam * (1 + 1e-2) for lb in low.bounds()) and all(
            ub >= lam * (1 - 1e-2) for ub in up.bounds()
        )
        mono_up = True
        if problem.case == "DN":
            mono_up = all(b >= a - SLACK for a, b in zip(up.values, up.values[1:]))
        ok &= mono_low and mono_up and bracket
        if not (mono_low and mono_up and bracket):
            details.append(f"{name}: mono_low={mono_low} mono_up={mono_up} bracket={bracket}")
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _report(4, ok, "; ".join(details) or f"all sequences monotone and bracketing; {dt:.1f} s")


def test_criterion_5_nn_sequence():
    problem = measures.make_problem(preset="laplacian", D=1.0, case="NN")
    table = measures.build_tables(problem, 1.0)
    lam1 = oracle.fd_eigensolve(problem).lambda_
    trace = iterate.eta_sequence(table, 4)
    eta1_ok = abs(trace.values[0] - C.ETA1_LAPLACIAN) <= 1e-3 * C.ETA1_LAPLACIAN
    bounds_ok = all(b <= lam1 * (1 + 1e-6) for b in trace.bounds())
    direction_ok = trace.monotonicity in ("non-increasing", "non-decreasing")
    ok = eta1_ok and bounds_ok and direction_ok
    _report(
        5,
        ok,
        f"eta1={trace.values[0]:.7f} (9/64={9 / 64}); direction={trace.monotonicity}; "
        f"bounds {[f'{b:.3f}' for b in trace.bounds()]} <= {lam1:.4f}",
    )


def test_criterion_6_duality(suite):
    ok = True
    details = []
    for kw in (
        dict(preset="laplacian", D=1.0, case="ND"),
        dict(preset="ou", D=3.0, case="ND"),
        dict(a="1+x^2", b="0", D=1.0, case="ND"),
    ):
        problem = measures.make_problem(**kw)
        table = measures.build_tables(problem, problem.D)
        dual = oracle.dual_table(table)
        lam_nd = oracle.solve_on_table(table, "ND").lambda_
        lam_dn = oracle.solve_on_table(dual, "DN").lambda_
        d, _ = bounds.delta("ND", table)
        d_dual, _ = bounds.delta("DN", dual)
        lam_ok = abs(lam_nd - lam_dn) <= 1e-3 * abs(lam_nd)
        delta_ok = abs(d - d_dual) <= SLACK
        ok &= lam_ok and delta_ok
        details.append(f"{kw.get('preset') or kw['a']}: {lam_nd:.6f}/{lam_dn:.6f}")
    _report(6, ok, "; ".join(details))


def test_criterion_7_degenerate_and_limit():
    nd = measures.make_problem(preset="ou", D="inf", case="ND")
    hyp = measures.hypothesis_check(nd)
    zero_ok = hyp.criterion_zero
    dn = measures.make_problem(preset="ou", D="inf", case="DN")
    lam, trace = oracle.infinite_domain_limit(dn)
    by_p8 = dict(zip(trace.points, trace.values)).get(8.0)
    limit_ok = by_p8 is not None and abs(by_p8 - 1.0) <= 1e-2
    ok = zero_ok and limit_ok
    _report(
        7,
        ok,
        f"ND criterion zero: {zero_ok}; DN limit at p=8: {by_p8:.6f} (target 1.0)",
    )


def test_criterion_8_eigenfunction_identities():
    ok = True
    details = []
    for kw in (
        dict(preset="laplacian", D=1.0, case="ND"),
        dict(preset="laplacian", D=1.0, case="DN"),
        dict(preset="ou", D=8.0, case="DN"),
    ):
        problem = measures.make_problem(**kw)
        sol = oracle.fd_eigensolve(problem, 2000)
        resid = oracle.eigen_residuals(sol)
        good = resid["i_deviation"] <= 5e-3 and resid["ii_deviation"] <= 5e-3
        ok &= good
        details.append(
            f"{kw.get('preset')}-{kw['case']}: I {resid['i_deviation']:.1e}, "
            f"II {resid['ii_deviation']:.1e}"
        )
    _report(8, ok, "; ".join(details))


def test_criterion_9_property_suites(suite):
    t0 = time.perf_counter()
    checks = {}

    # measure additivity: the kernel's head and tail passes split the total
    # at random nodes
    table = suite[3][2]  # the widest table (ou p=8)
    ones = np.ones(len(table.grid))
    head = measures.prefix_integral(table, ones, "mu")
    tail = measures.suffix_integral(table, ones, "mu")
    nodes = np.random.default_rng(11).integers(0, len(ones), size=100)
    adds = np.abs(head[nodes] + tail[nodes] - table.mu_total())
    checks["measure_additivity"] = max(adds) <= 2 * table.problem.tolerances.quadrature

    # grid-doubling convergence of the eigensolver
    problem = measures.make_problem(preset="laplacian", D=1.0, case="ND")
    errs = [abs(oracle.fd_eigensolve(problem, n).lambda_ - C.PI_SQ_OVER_4) for n in (250, 500, 1000)]
    checks["grid_doubling_factor_3"] = errs[0] / errs[1] >= 3 and errs[1] / errs[2] >= 3

    # weighted integral inequality on 100 random piecewise weights
    x = np.linspace(0.0, 1.0, 1001)
    dx = x[1] - x[0]
    wi_ok = True
    rng = np.random.default_rng(42)
    for _ in range(100):
        breaks = np.linspace(0.0, 1.0, 17)
        mlev, nlev = rng.uniform(0.0, 2.0, (2, 16))
        idx = np.clip(np.searchsorted(breaks, 0.5 * (x[:-1] + x[1:]), side="right") - 1, 0, 15)
        m, n = mlev[idx], nlev[idx]
        r = rng.uniform(0.05, 0.95)
        M = np.concatenate([[0.0], np.cumsum(m * dx)])
        psi = np.concatenate([np.cumsum((n * dx)[::-1])[::-1], [0.0]])
        c = np.max(M * psi)
        if c == 0:
            continue
        lhs = np.concatenate([[0.0], np.cumsum(m * (0.5 * (psi[:-1] + psi[1:])) ** r * dx)])
        keep = psi > 0
        wi_ok &= bool(
            np.all(lhs[keep] <= c / (1 - r) * psi[keep] ** (r - 1) * (1 + 1e-6) + 1e-12)
        )
    checks["weighted_integral_inequality"] = wi_ok

    # strict truncation monotonicity
    p = measures.make_problem(preset="ou", D=2.0, case="ND")
    lams = [oracle.fd_eigensolve(measures.truncate(p, q), 800).lambda_ for q in (0.8, 1.2, 1.6)]
    checks["truncation_strictly_monotone"] = lams[0] > lams[1] > lams[2]

    # the gap dominates the ND eigenvalue on common truncations
    gap_ok = True
    for D in (0.7, 1.0):
        nn = measures.make_problem(preset="laplacian", D=D, case="NN")
        nd = measures.make_problem(preset="laplacian", D=D, case="ND")
        gap_ok &= oracle.fd_eigensolve(nn, 800).lambda_ > oracle.fd_eigensolve(nd, 800).lambda_
    checks["gap_dominates_nd"] = gap_ok

    # parser round-trip fuzz, 1000 seeded cases
    rng = np.random.default_rng(20260810)
    fuzz_ok = True
    for _ in range(1000):
        ast = random_ast(rng, 5)
        fuzz_ok &= strip_positions(expr.parse_expression(expr.to_text(ast))) == ast
    checks["parser_roundtrip_1000"] = fuzz_ok

    dt = time.perf_counter() - t0
    ok = all(checks.values()) and dt < 180.0
    failed = [k for k, v in checks.items() if not v]
    _report(9, ok, f"failed: {failed}" if failed else f"all property suites green; {dt:.1f} s")
