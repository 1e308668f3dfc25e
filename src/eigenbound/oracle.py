"""Independent finite-volume eigensolver used to validate every bound.

The operator is discretized in its conservation form: the flux difference
(f_{i+1} - f_i) / nu(panel) between neighbouring nodes, divided by the speed
mass of the node cell (half of each neighbouring panel's).  Coefficients
enter only through the table's panel masses, which keeps A f = lambda B f
symmetric under the speed-measure inner product and second-order accurate on
the smoothly graded grid.  The solve reads nothing of the bounds code.

The scheme's inverse G is explicit and positive, so the eigenpair comes from
power iteration on G B, the paper's lower-sequence iteration run on the
scheme.  It only sums positive terms, so it keeps full relative accuracy
however far lambda lies below the norm of A.  For every positive v, the least
and greatest entry of (G B v) / v bracket 1/lambda (Collatz-Wielandt): each
solve reports that enclosure [lambda_lo, lambda_hi], and refuses one it
cannot close to the oracle tolerance.  Its Green's-function defect
|lambda G B g - g| / max |g| is at most the enclosure's relative width.
- ND: G[i, k] = T[max(i, k)], T[i] the scale mass from node i to the right
  end, where the value is zero.  DN is ND on the panels in reverse order.
- NN: the gap is the principal eigenvalue of the panel fluxes w,
  Delta B^-1 Delta^T w = lambda diag(dnu) w, with inverse P[min(j, k)]
  Q[max(j, k)] / total, P and Q the node cells summed from either end.  The
  eigenfunction is the prefix sum of dnu * w, centred against the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import variational
from .errors import DegenerationError, RangeError
from .measures import MeasureTable, ProblemSpec, TruncationWalk, build_tables, walk_truncations
from .testfn import GridFunction, gradient

# power steps before a solve whose enclosure is still open gives up
MAX_ITERATIONS = 10_000


@dataclass
class EigenSolution:
    """Principal (or first nontrivial) eigenpair with solver diagnostics.  The
    residual and the Rayleigh quotient are those of the iterated vector: the
    node values for ND/DN, the panel fluxes for NN."""

    lambda_: float
    eigenfunction: GridFunction
    residual: float
    N: int
    rayleigh: float
    lambda_lo: float
    lambda_hi: float


def _suffix(x: np.ndarray) -> np.ndarray:
    """s[i] = sum of x[i:], summed from the far end."""
    return np.cumsum(x[::-1])[::-1]


def _nd_green(dnu: np.ndarray, cell: np.ndarray):
    """v -> G B v for ND, (G B v)_i = T[i] sum_{k<=i} cell_k v_k + sum_{k>i}
    T_k cell_k v_k; returns the operator and its start vector T."""
    tail = _suffix(dnu)

    def apply(v):
        cv = cell * v
        w = tail * np.cumsum(cv)
        w[:-1] += _suffix(tail * cv)[1:]
        return w

    return apply, tail


def _nn_green(dnu: np.ndarray, cell: np.ndarray):
    """w -> K^-1 diag(dnu) w on the panel fluxes, and a start vector.  Q is
    summed from the right, never taken as total - P: that difference cancels
    to 0 where the speed mass is tiny."""
    head = np.cumsum(cell)[:-1]
    tail = _suffix(cell)[1:]
    total = head[-1] + tail[-1]

    def apply(phi):
        y = dnu * phi
        z = tail * np.cumsum(head * y)
        z[:-1] += head[:-1] * _suffix(tail * y)[1:]
        return z / total

    return apply, np.ones(len(dnu))


def _power(apply, v: np.ndarray):
    """Power iteration until the Collatz-Wielandt bounds min/max apply(v)/v
    meet, stop tightening (in exact arithmetic they tighten at every step, so
    that is the rounding floor), or MAX_ITERATIONS steps.  Returns (v scaled
    to max 1, apply(v), min ratio, max ratio)."""
    spread = np.inf
    for step in range(1, MAX_ITERATIONS + 1):
        v = v / np.max(v)
        w = apply(v)
        ratio = w / v
        lo, hi = ratio.min(), ratio.max()
        if hi - lo <= 1e-15 * lo or not hi - lo < spread or step == MAX_ITERATIONS:
            break
        spread, v = hi - lo, w
    return v, w, lo, hi


def _green_defect(lam: float, v: np.ndarray, w: np.ndarray) -> float:
    """max |lambda w - v| / max |v| for w = G B v, free of differences of v."""
    return float(np.max(np.abs(lam * w - v)) / np.max(np.abs(v)))


def solve_on_table(table: MeasureTable, case: str) -> EigenSolution:
    """The principal eigenpair of the scheme on an existing measure table."""
    if case not in ("ND", "DN", "NN"):
        raise ValueError(f"unknown case {case!r}")
    dnu, dmu = (table.dnu[::-1], table.dmu[::-1]) if case == "DN" else (table.dnu, table.dmu)
    cell = 0.5 * (np.append(dmu, 0.0) + np.append(0.0, dmu))
    if case != "NN":  # value zero at the far end: its node is dropped
        cell = cell[:-1]
    if np.any(dnu <= 0) or np.any(cell <= 0):
        raise DegenerationError(
            "non-positive panel mass: a coefficient slipped past validation, or "
            "a mass underflowed at this truncation and grid size"
        )
    apply, start = _nn_green(dnu, cell) if case == "NN" else _nd_green(dnu, cell)
    weight = dnu if case == "NN" else cell  # the inner product the operator is symmetric in
    v, w, lo, hi = _power(apply, start)
    lam_lo, lam_hi = 1.0 / hi, 1.0 / lo
    if not lam_hi - lam_lo <= table.problem.tolerances.oracle * lam_lo:
        raise DegenerationError(
            f"power iteration could not close the eigenvalue enclosure [{lam_lo:.6g}, "
            f"{lam_hi:.6g}] to the oracle tolerance; the spectral gap is too small here"
        )
    scale = np.max(w)  # w is about v / lambda: rescaled, its squares cannot underflow
    u = w / scale
    vu = np.dot(weight * v, u)
    lam = float(np.dot(weight * v, v) / (vu * scale))  # the Rayleigh quotient of G B at v, inverted
    if case == "NN":  # the node values, centred against the cells
        g = np.concatenate([[0.0], np.cumsum(dnu * v)])
        g -= np.dot(cell, g) / np.sum(cell)
        g /= np.copysign(np.max(np.abs(g)), g[0])  # positive at the Neumann end
    else:
        g = np.append(v, 0.0)[::-1] if case == "DN" else np.append(v, 0.0)
    return EigenSolution(
        lambda_=lam,
        eigenfunction=GridFunction(table, g, gradient(table.grid, g)),
        residual=_green_defect(lam, v, w),
        N=table.n_panels,
        rayleigh=float(vu / (np.dot(weight * u, u) * scale)),  # of A at w, as A w = B v
        lambda_lo=lam_lo,
        lambda_hi=lam_hi,
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
