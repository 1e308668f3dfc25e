"""Independent finite-difference eigensolver used to validate every bound.

The operator is discretized in its conservation form: the flux difference
(f_{i+1} - f_i) / nu(panel) between neighbouring nodes, divided by the
speed-measure mass of the node cell.  Coefficients enter only through the
per-panel masses of the measure table (a finite-volume scheme), which keeps
the matrix symmetric positive semi-definite under the speed-measure inner
product and second-order accurate on the smoothly graded grid.

The generalized problem A f = lambda B f (A tridiagonal, B the diagonal of
cell masses) is symmetrized to B^{-1/2} A B^{-1/2} and the wanted eigenpair
is computed by LAPACK bisection with Sturm sign counts plus inverse
iteration (scipy's eigh_tridiagonal with the stebz/stein drivers).  The
scheme is assembled for ND (flux zero at 0, value zero at the right end) and
NN only.  DN is solved as ND on the panels in reverse order, and its values
are put back on the table's own nodes.  For the double-Neumann case the gap
is the second eigenvalue; the constant mode is projected out of the returned
eigenvector against the discrete speed measure rather than shifted away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import variational
from .errors import DegenerationError, RangeError
from .measures import MeasureTable, ProblemSpec, TruncationWalk, build_tables, walk_truncations
from .testfn import GridFunction, gradient


@dataclass
class EigenSolution:
    """Principal (or first nontrivial) eigenpair with solver diagnostics."""

    lambda_: float
    eigenfunction: GridFunction
    residual: float
    N: int
    rayleigh: float


def _merged_panels(table: MeasureTable):
    """Coalesce panels thinner than a width floor, preserving their masses.

    The adaptive tables may grade geometrically into an endpoint to resolve
    an integrable singular weight; panels that thin would blow the scheme's
    matrix norm past what float Sturm counts can resolve.  Merging is exact
    for the masses and perturbs the discrete eigenvalue only at the tip
    scale.  Returns (kept node indices, merged scale panels, merged speed
    panels)."""
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


def _assemble(dnu: np.ndarray, dmu: np.ndarray):
    """Tridiagonal stiffness/mass pair (diag, coupling, cell_mass) of the
    panels, one row per node, with zero flux at both ends."""
    if np.any(dnu <= 0):
        raise DegenerationError("degenerate scale-measure panel; grid too coarse here")
    inv = 1.0 / dnu
    diag = np.append(inv, 0.0)
    diag[1:] += inv
    cell = np.append(dmu, 0.0)
    cell[1:] += dmu
    return diag, inv, 0.5 * cell


def _stiffness(diag: np.ndarray, coupling: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The tridiagonal stiffness matrix applied to v."""
    av = diag * v
    av[:-1] -= coupling * v[1:]
    av[1:] -= coupling * v[:-1]
    return av


def solve_on_table(table: MeasureTable, case: str) -> EigenSolution:
    """Assemble and solve directly on an existing measure table."""
    # scipy.linalg is most of the package's import time; only solves need it
    from scipy.linalg import eigh_tridiagonal

    if case not in ("ND", "DN", "NN"):
        raise ValueError(f"unknown case {case!r}")
    # merged in the table's own orientation, so DN merges the same panels
    kidx, dnu, dmu = _merged_panels(table)
    if case == "DN":  # the ND problem on the reversed panels
        kidx, dnu, dmu = kidx[::-1], dnu[::-1], dmu[::-1]
    diag, coupling, cell = _assemble(dnu, dmu)
    x = np.abs(table.grid[kidx] - table.grid[kidx[0]])  # distance from the Neumann end
    if case == "NN":
        probe = x - np.dot(cell, x) / np.sum(cell)
    else:  # value zero at the far end: its row is dropped
        diag, coupling, cell = diag[:-1], coupling[:-1], cell[:-1]
        probe = 1.0 - x[:-1] / x[-1]
    if np.any(cell <= 0):
        raise DegenerationError(
            "non-positive speed-measure cell: either the diffusion "
            "coefficient slipped past validation without being positive, or "
            "the mass underflowed at this truncation and grid size"
        )
    mass_sqrt = np.sqrt(cell)
    d = diag / cell
    e = -coupling / (mass_sqrt[:-1] * mass_sqrt[1:])
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise DegenerationError("non-finite scheme coefficients after symmetrization")
    which = 1 if case == "NN" else 0
    # bisection tolerance scale: the Rayleigh quotient of a cheap admissible
    # test vector bounds the wanted eigenvalue from above, so a tolerance
    # relative to it keeps full accuracy even when tiny endpoint panels blow
    # up the matrix norm (the default norm-scaled tolerance would not)
    rho = float(np.dot(probe, _stiffness(diag, coupling, probe)) / np.dot(probe, cell * probe))
    try:
        vals, vecs = eigh_tridiagonal(
            d, e, select="i", select_range=(which, which),
            lapack_driver="stebz", tol=1e-13 * max(rho, 1e-30),
        )
    except np.linalg.LinAlgError as exc:
        raise DegenerationError(f"tridiagonal eigensolver failed on this table: {exc}") from exc
    lam = float(vals[0])
    if lam < 0:
        # the assembly is positive semi-definite by construction, so a
        # negative value can only be bisection noise around zero
        raise DegenerationError(
            f"eigenvalue {lam:.3e} is below the solver resolution at this "
            "grid size; it is indistinguishable from zero"
        )
    g = vecs[:, 0] / mass_sqrt
    if case == "NN":  # project out the discrete constant mode
        g = g - np.dot(cell, g) / np.sum(cell)

    # residual of the generalized problem, relative to the stiffness scale
    av = _stiffness(diag, coupling, g)
    defect = av - lam * cell * g
    residual = float(np.max(np.abs(defect)) / max(np.max(np.abs(av)), 1e-300))
    rayleigh = float(np.dot(g, av) / np.dot(g, cell * g))

    # on the full grid: zero at a Dirichlet end, interpolated inside merged tip panels
    ys = np.pad(g, (0, len(kidx) - len(g)))
    order = np.argsort(kidx)
    full = np.interp(table.grid, table.grid[kidx[order]], ys[order])
    full = full / np.copysign(np.max(np.abs(full)), g[0])  # positive at the Neumann end
    return EigenSolution(
        lambda_=lam,
        eigenfunction=GridFunction(table, full, gradient(table.grid, full)),
        residual=residual,
        N=table.n_panels,
        rayleigh=rayleigh,
    )


def fd_eigensolve(problem: ProblemSpec, N: int | None = None) -> EigenSolution:
    """Solve the mixed eigenproblem on a finite interval at grid size N."""
    if problem.is_infinite:
        raise RangeError("interval is infinite: truncate first or use infinite_domain_limit")
    table = build_tables(replace(problem, grid_size=N or problem.grid_size), problem.D)
    return solve_on_table(table, problem.case)


@dataclass
class TruncationTrace:
    points: list[float]
    values: list[float]
    converged: bool
    monotone_decreasing: bool
    stop_reason: str


def _lambda(table: MeasureTable) -> tuple[float, EigenSolution]:
    sol = solve_on_table(table, table.problem.case)
    return sol.lambda_, sol


def settle_lambda(problem: ProblemSpec) -> TruncationWalk:
    """Eigenvalues along the truncation schedule until successive values
    agree to the oracle tolerance relatively; the walk's result is the
    eigenpair on its last table."""
    eps = problem.tolerances.oracle
    return walk_truncations(problem, _lambda, lambda lam: eps * max(abs(lam), 1e-300))


def truncation_trace(walk: TruncationWalk) -> TruncationTrace:
    """The trace of an eigenvalue walk.  For the ND case the exact values
    decrease strictly in the endpoint; a non-monotone computed trace beyond
    tolerance marks the discretization as too coarse."""
    problem = walk.table.problem
    values = walk.values
    slack = 10 * problem.tolerances.oracle * max(abs(v) for v in values)
    monotone = all(b <= a + slack for a, b in zip(values, values[1:]))
    stop_reason = walk.stop_reason
    if not monotone and problem.case == "ND":
        stop_reason += "; trace not monotone: discretization too coarse"
    return TruncationTrace(
        points=walk.points,
        values=values,
        converged=walk.settled,
        monotone_decreasing=monotone,
        stop_reason=stop_reason,
    )


def infinite_domain_limit(problem: ProblemSpec) -> tuple[float, TruncationTrace]:
    """Eigenvalues along the truncation schedule of an infinite interval:
    the last one and the trace."""
    if not problem.is_infinite:
        raise RangeError("infinite_domain_limit needs an infinite interval")
    walk = settle_lambda(problem)
    return walk.values[-1], truncation_trace(walk)


def dual_table(table: MeasureTable) -> MeasureTable:
    """Swap the roles of the two measures (the dual operator's table)."""
    return replace(
        table,
        Cvals=-table.Cvals,
        dmu=table.dnu.copy(),
        dnu=table.dmu.copy(),
        mu_cum=table.nu_cum.copy(),
        nu_cum=table.mu_cum.copy(),
        mu_tail=table.nu_tail.copy(),
        nu_tail=table.mu_tail.copy(),
        mu_wL=table.nu_wL.copy(),
        mu_wR=table.nu_wR.copy(),
        nu_wL=table.mu_wL.copy(),
        nu_wR=table.mu_wR.copy(),
    )


def eigen_residuals(sol: EigenSolution) -> dict:
    """How exactly the computed eigenpair satisfies the defining identities.

    At the eigenfunction both integral transforms are constant with value
    1/lambda; reported are the sup interior deviations of lambda * I(g) and
    lambda * II(g) from one, plus monotonicity/sign diagnostics of g.  The
    single-integral deviation is measured only where the discrete derivative
    carries signal (the difference of neighbouring values is above the
    floating-point noise floor).  A DN eigenfunction is checked as the ND
    one it is on the mirrored table.
    """
    g = sol.eigenfunction
    case = g.table.problem.case
    lam = sol.lambda_
    diagnostics: dict = {}

    if case == "NN":
        diagnostics["ii_note"] = "integral identities apply to the ND/DN eigenfunctions"
        diagnostics["ii_deviation"] = float("nan")
        interior = g.values[1:-1]
        diagnostics["sign_changes"] = int(np.sum(np.sign(interior[:-1]) * np.sign(interior[1:]) < 0))
    else:
        nd = g.mirrored() if case == "DN" else g
        op_ii, _ = variational.double_integral_form(nd)
        diagnostics["ii_deviation"] = float(np.max(np.abs(lam * op_ii.values[op_ii.window] - 1.0)))

        # single-integral form with a noise-aware window
        gv = nd.values
        signal = np.zeros(len(gv), dtype=bool)
        signal[1:-1] = np.abs(gv[2:] - gv[:-2]) > 1e-6 * np.max(np.abs(gv))
        op_i = variational.single_integral_form(nd)
        window = op_i.window & signal
        diagnostics["i_deviation"] = float("nan")
        if window.any():
            diagnostics["i_deviation"] = float(np.max(np.abs(lam * op_i.values[window] - 1.0)))
            diagnostics["i_window_fraction"] = float(window.sum() / max(len(gv) - 2, 1))

        tol = 1e-9 * np.max(np.abs(gv))
        diagnostics["strictly_monotone"] = bool(np.all(np.diff(gv)[:-1] < tol))
        diagnostics["sign_constant"] = bool(np.all(gv[1:-1] > -tol))
    diagnostics["right_edge_interior_value"] = float(abs(g.values[-2]))
    diagnostics["residual"] = sol.residual
    diagnostics["rayleigh_gap"] = abs(sol.rayleigh - lam) / max(abs(lam), 1e-300)
    return diagnostics
