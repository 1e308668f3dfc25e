"""Seeded end-to-end sweep over random smooth coefficients.

Every generated operator must satisfy the full bracket story: criterion
bracket around the oracle eigenvalue, the improved chain, sequence
monotonicity, and the gap bounds for the double-Neumann case.  All draws
are deterministic, so these are regression tests, not flaky fuzz.
"""

import numpy as np
import pytest

from eigenbound import bounds, expr, iterate, measures, oracle

SLACK = 10 * measures.Tolerances().bound_refine


def random_problem(rng, case):
    c0 = rng.uniform(0.3, 2.0)
    c1, c2 = rng.uniform(0.0, 1.5, 2)
    d0, d1 = rng.uniform(-1.5, 1.5, 2)
    a = f"{c0:.3f} + {c1:.3f}*x + {c2:.3f}*x^2"
    b = f"{d0:.3f} + {d1:.3f}*x"
    D = float(rng.choice([0.7, 1.3, 2.5]))
    return measures.make_problem(a=a, b=b, D=D, case=case, grid_size=800)


def describe(problem):
    return f"a={expr.to_text(problem.a)}, b={expr.to_text(problem.b)}, D={problem.D}"


@pytest.mark.parametrize("case", ["ND", "DN"])
def test_random_smooth_coefficients_bracket(case):
    rng = np.random.default_rng(hash(case) % 2**32)
    for _ in range(10):
        problem = random_problem(rng, case)
        table = measures.build_tables(problem, problem.D)
        rep = bounds.compute_report(case, table)
        lam = oracle.fd_eigensolve(problem).lambda_
        label = f"{describe(problem)}, {case}"
        assert rep.lower_basic - 1e-6 <= lam <= rep.upper_basic + 1e-6, label
        assert rep.lower_basic <= rep.lower_improved + SLACK, label
        assert rep.lower_improved <= lam + SLACK, label
        assert lam <= rep.upper_improved + SLACK, label
        assert rep.upper_improved <= rep.upper_basic + SLACK, label
        assert rep.delta - SLACK <= rep.delta1_prime <= 2 * rep.delta + SLACK, label
        low = iterate.lower_sequence(case, table, 3)
        assert all(b2 <= a2 + SLACK for a2, b2 in zip(low.values, low.values[1:])), label
        assert all(lb <= lam * (1 + 1e-2) for lb in low.bounds()), label


def test_random_smooth_coefficients_gap():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem = random_problem(rng, "NN")
        table = measures.build_tables(problem, problem.D)
        gap = oracle.fd_eigensolve(problem).lambda_
        eta = iterate.eta_sequence(table, 3)
        label = describe(problem)
        assert all(b <= gap * (1 + 1e-2) for b in eta.bounds()), label
        assert eta.monotonicity in ("non-increasing", "non-decreasing", "constant"), label


def test_random_duality(ou_nd_3):
    rng = np.random.default_rng(3)
    for _ in range(5):
        problem = random_problem(rng, "ND")
        table = measures.build_tables(problem, problem.D)
        lam_nd = oracle.solve_on_table(table, "ND").lambda_
        lam_dn = oracle.solve_on_table(oracle.dual_table(table), "DN").lambda_
        assert abs(lam_nd - lam_dn) <= 1e-3 * abs(lam_nd), describe(problem)
