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
iteration (scipy's eigh_tridiagonal with the stebz/stein drivers).  For the
double-Neumann case the gap is the second eigenvalue; the constant mode is
projected out of the returned eigenvector against the discrete speed
measure rather than shifted away.
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


def _assemble(table: MeasureTable, case: str):
    """Tridiagonal stiffness/mass pair for the requested boundary case.

    Returns (diag, offdiag, cell_mass, node_index) where node_index maps
    matrix rows to (merged) grid nodes.
    """
    kidx, dnu, dmu = _merged_panels(table)
    if np.any(dnu <= 0):
        raise DegenerationError("degenerate scale-measure panel; grid too coarse here")
    m = len(dnu)
    inv = 1.0 / dnu
    full_diag = np.empty(m + 1)
    full_diag[0] = inv[0]
    full_diag[-1] = inv[-1]
    full_diag[1:-1] = inv[:-1] + inv[1:]
    cell = np.empty(m + 1)
    cell[0] = 0.5 * dmu[0]
    cell[-1] = 0.5 * dmu[-1]
    cell[1:-1] = 0.5 * (dmu[:-1] + dmu[1:])

    if case == "ND":  # flux zero at 0, value zero at the right end
        rows = np.arange(0, m)
    elif case == "DN":
        rows = np.arange(1, m + 1)
    elif case == "NN":
        rows = np.arange(0, m + 1)
    else:
        raise ValueError(f"unknown case {case!r}")
    diag = full_diag[rows]
    coupling = inv[rows[0] : rows[-1]]  # panel between consecutive kept nodes
    return diag, coupling, cell[rows], kidx[rows]


def solve_on_table(table: MeasureTable, case: str) -> EigenSolution:
    """Assemble and solve directly on an existing measure table."""
    # scipy.linalg is most of the package's import time; only solves need it
    from scipy.linalg import eigh_tridiagonal

    diag, coupling, cell, node_ids = _assemble(table, case)
    rows = node_ids  # grid indices of the unknowns
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
    x_rows = table.grid[rows]
    if case == "ND":
        probe = 1.0 - x_rows / table.grid[-1]
    elif case == "DN":
        probe = x_rows / table.grid[-1]
    else:
        probe = x_rows - np.dot(cell, x_rows) / np.sum(cell)
    a_probe = diag * probe
    a_probe[:-1] -= coupling * probe[1:]
    a_probe[1:] -= coupling * probe[:-1]
    rho = float(np.dot(probe, a_probe) / np.dot(probe, cell * probe))
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
    g_int = vecs[:, 0] / mass_sqrt

    if case == "NN":  # project out the discrete constant mode
        g_int = g_int - np.dot(cell, g_int) / np.sum(cell)

    # residual of the generalized problem, relative to the stiffness scale
    av = diag * g_int
    av[:-1] -= coupling * g_int[1:]
    av[1:] -= coupling * g_int[:-1]
    defect = av - lam * cell * g_int
    residual = float(np.max(np.abs(defect)) / max(np.max(np.abs(av)), 1e-300))
    rayleigh = float(np.dot(g_int, av) / np.dot(g_int, cell * g_int))

    # embed on the full grid: solved nodes keep their values, Dirichlet
    # boundaries are zero, and nodes inside merged tip panels interpolate
    last = len(table.grid) - 1
    xs_idx = np.unique(np.concatenate([[0], rows, [last]]))
    ys = np.zeros(len(xs_idx))
    ys[np.searchsorted(xs_idx, rows)] = g_int
    full = np.interp(table.grid, table.grid[xs_idx], ys)
    # sign conventions: positive near 0 (ND/NN), positive slope at 0 (DN)
    probe_val = full[rows[0]] if case != "DN" else full[rows[len(rows) // 4]]
    if probe_val < 0 or (probe_val == 0 and np.sum(full) < 0):
        full = -full
    full = full / np.max(np.abs(full))
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
    n = N or problem.grid_size
    table = build_tables(replace(problem, grid_size=n), problem.D)
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
