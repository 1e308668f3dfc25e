"""Independent finite-volume eigensolver used to validate every bound.

The operator is discretized in its conservation form: the flux difference
(f_{i+1} - f_i) / nu(panel) between neighbouring nodes, divided by the speed
mass of the node cell (half of each neighbouring panel's).  Coefficients
enter only through the table's panel masses, which keeps A f = lambda B f
symmetric under the speed-measure inner product and second-order accurate on
the smoothly graded grid.  The solve reads nothing of the bounds code; the
identity residuals of its eigenfunction take both integral transforms from
measures.prefix_integral and measures.suffix_integral, the one transform
kernel the bounds and sequences use.

The scheme's inverse G is explicit and positive, so G B sums positive terms
only and keeps full relative accuracy however far lambda lies below the norm
of A.  Restarted Lanczos on G B finds the eigenvector at a rate set by the
square root of the gap 1 - lambda_1/lambda_2; power iteration from it, the
paper's lower-sequence iteration run on the scheme, closes the enclosure: for
every positive v, the least and greatest entry of (G B v) / v bracket 1/lambda
(Collatz-Wielandt).  Each solve reports [lambda_lo, lambda_hi], and refuses
one still open to the oracle tolerance after MAX_ITERATIONS applications of
G B.  Its Green's-function defect is at most the enclosure's relative width.
- ND: G[i, k] = T[max(i, k)], T[i] the scale mass from node i to the right
  end, where the value is zero.  DN is ND on the panels in reverse order.
- NN: the gap is the principal eigenvalue of the panel fluxes w,
  Delta B^-1 Delta^T w = lambda diag(dnu) w, with inverse P[min(j, k)]
  Q[max(j, k)] / total, P and Q the node cells summed from either end.  The
  eigenfunction is the prefix sum of dnu * w, centred against the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerationError, DomainError, RangeError
from .measures import (
    _UNFORMED,
    MeasureTable,
    ProblemSpec,
    TruncationWalk,
    _suffix_from_panels,
    build_tables,
    prefix_integral,
    suffix_integral,
    walk_truncations,
)

# applications of G B, both phases together, before an open enclosure is refused
MAX_ITERATIONS = 10_000


@dataclass
class EigenSolution:
    """Principal (or first nontrivial) eigenpair with solver diagnostics.  The
    eigenfunction is its values at the nodes of ``table``.  The residual and
    the Rayleigh quotient are those of the iterated vector: the node values
    for ND/DN, the panel fluxes for NN."""

    lambda_: float
    table: MeasureTable
    eigenfunction: np.ndarray
    residual: float
    rayleigh: float
    lambda_lo: float
    lambda_hi: float

    @property
    def N(self) -> int:
        return self.table.n_panels


def _nd_green(dnu: np.ndarray, cell: np.ndarray):
    """v -> G B v for ND, (G B v)_i = T[i] sum_{k<=i} cell_k v_k + sum_{k>i}
    T_k cell_k v_k; returns the operator and its start vector T.

    The operator writes cell v, T cell v and the suffix sums of the latter
    into three buffers that live as long as it does, one solve.  The vector
    it returns is a new array at every call: Lanczos scales it in place, and
    the power phase keeps it as its next v.
    """
    tail = _suffix_from_panels(dnu)[:-1]
    cv, tcv, back = np.empty(len(cell)), np.empty(len(cell)), np.empty(len(cell) + 1)

    def apply(v):
        np.multiply(cell, v, out=cv)
        w = np.add.accumulate(cv)
        w *= tail
        _suffix_from_panels(np.multiply(tail, cv, out=tcv), out=back)
        w[:-1] += back[1:-1]
        return w

    return apply, tail


def _nn_green(dnu: np.ndarray, cell: np.ndarray):
    """w -> K^-1 diag(dnu) w on the panel fluxes, and a start vector.  Q is
    summed from the right, never taken as total - P: that difference cancels
    to 0 where the speed mass is tiny."""
    head = np.cumsum(cell)[:-1]
    tail = _suffix_from_panels(cell)[1:-1]
    total = head[-1] + tail[-1]

    def apply(phi):
        y = dnu * phi
        z = tail * np.cumsum(head * y)
        z[:-1] += head[:-1] * _suffix_from_panels(tail * y)[1:-1]
        return z / total

    return apply, np.ones(len(dnu))


def _lanczos(apply, v: np.ndarray, weight: np.ndarray, budget: int):
    """Lanczos on apply, self-adjoint in sum(weight u v): cycles of at most 20
    steps, orthogonalized twice, restarted from the top Ritz vector, until
    |beta_k s_k| <= 1e-13 theta (checked every 4 steps) or budget applications.
    Returns (the Ritz vector, applications used)."""
    used, scale = 0, 0.0
    while used < budget:
        m = min(20, len(v), budget - used)
        (basis, wbasis), (alpha, beta) = np.empty((2, m + 1, len(v))), np.zeros((2, m))
        v = v / np.max(np.abs(v))
        basis[0] = v / np.sqrt(np.dot(weight * v, v))
        wbasis[0] = weight * basis[0]  # wbasis = weight * basis throughout
        for k in range(m):
            w = apply(basis[k])
            if not scale:  # theta about 1 from here on: w^2 cannot overflow
                theta = float(np.dot(wbasis[0], w))  # at most 1/lambda
                scale = 1.0 / theta if theta > 0 else math.inf
                if scale == math.inf:
                    raise DegenerationError(
                        f"G B's Rayleigh quotient {theta!r} at the start has no finite reciprocal; "
                        "floats do not resolve the eigenvalue of this interval"
                    )
            w *= scale
            for _ in range(2):
                c = wbasis[: k + 1] @ w
                w -= c @ basis[: k + 1]
                alpha[k] += c[k]
            ww = weight * w
            beta[k] = np.sqrt(np.dot(ww, w))
            if (k + 1) % 4 == 0 or k + 1 == m or beta[k] <= 1e-13 * alpha[k]:
                theta, s = np.linalg.eigh(np.diag(alpha[: k + 1]) + np.diag(beta[:k], -1))  # lower half
                v = s[:, -1] @ basis[: k + 1]
                if beta[k] * abs(s[k, -1]) <= 1e-13 * theta[-1]:
                    return v, used + k + 1
            basis[k + 1], wbasis[k + 1] = w / beta[k], ww / beta[k]
        used += m
    return v, used


def _power(apply, v: np.ndarray, steps: int):
    """Power iteration until the Collatz-Wielandt bounds min/max apply(v)/v
    meet, stop tightening (in exact arithmetic they tighten at every step, so
    that is the rounding floor), or the given number of steps.  Returns (v
    scaled to max 1, apply(v), min ratio, max ratio)."""
    spread, w, lo, hi = np.inf, v, np.nan, np.nan  # no steps left: no enclosure
    for step in range(1, steps + 1):
        v = v / np.max(v)
        w = apply(v)
        ratio = w / v
        lo, hi = ratio.min(), ratio.max()
        if hi - lo <= 1e-15 * lo or not hi - lo < spread or step == steps:
            break
        spread, v = hi - lo, w
    return v, w, lo, hi


def _quotient(num, den, scale):
    """num / (den * scale), divided in two steps where that product is
    subnormal or 0: with lambda large against the masses, the product (about
    a mass over lambda) underflows though the quotient is a float."""
    prod = den * scale
    if prod >= np.finfo(float).tiny:
        return num / prod
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return num / den / scale


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
    weight = dnu if case == "NN" else cell  # the inner product the operator is self-adjoint in
    ritz, used = _lanczos(apply, start, weight, MAX_ITERATIONS)
    v, w, lo, hi = _power(apply, np.abs(ritz), MAX_ITERATIONS - used)
    if lo <= 0:  # NaN, when no power step was left, is refused below
        raise DegenerationError(
            f"G B's least ratio (G B v)/v is {float(lo)!r} after the power steps and has no finite reciprocal; "
            "floats do not resolve the eigenvalue of this interval"
        )
    lam_lo, lam_hi = 1.0 / hi, 1.0 / lo
    if not lam_hi - lam_lo <= table.problem.tolerances.oracle * lam_lo:
        raise DegenerationError(
            f"the eigenvalue enclosure [{lam_lo:.6g}, {lam_hi:.6g}] is still open to the oracle "
            f"tolerance after {MAX_ITERATIONS} applications of G B; the spectral gap is too small here"
        )
    scale = np.max(w)  # w is about v / lambda: rescaled, its squares cannot underflow
    u = w / scale
    vu = np.dot(weight * v, u)
    lam = float(_quotient(np.dot(weight * v, v), vu, scale))  # the Rayleigh quotient of G B at v, inverted
    if not math.isfinite(lam):
        raise DegenerationError(
            f"the eigenvector's Rayleigh quotient is {lam!r}: floats do not resolve this problem's scale"
        )
    if case == "NN":  # the node values, centred against the cells
        g = np.concatenate([[0.0], np.cumsum(dnu * v)])
        g -= np.dot(cell, g) / np.sum(cell)
        g /= np.copysign(np.max(np.abs(g)), g[0])  # positive at the Neumann end
    else:
        g = np.append(v, 0.0)[::-1] if case == "DN" else np.append(v, 0.0)
    return EigenSolution(
        lambda_=lam,
        table=table,
        eigenfunction=g,
        residual=_green_defect(lam, v, w),
        rayleigh=float(_quotient(vu, np.dot(weight * u, u), scale)),  # of A at w, as A w = B v
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
    """Swap the roles of the two measures (the dual operator's table); its
    weights are those of ``table``, swapped on their first read."""
    return replace(
        table,
        Cvals=-table.Cvals,
        dmu=table.dnu.copy(),
        dnu=table.dmu.copy(),
        mu_cum=table.nu_cum.copy(),
        nu_cum=table.mu_cum.copy(),
        mu_tail=table.nu_tail.copy(),
        nu_tail=table.mu_tail.copy(),
        **_UNFORMED,
    )._defer(lambda: tuple(w.copy() for w in (table.nu_wL, table.nu_wR, table.mu_wL, table.mu_wR)))


def eigen_residuals(sol: EigenSolution) -> dict:
    """How exactly the computed eigenpair satisfies the defining identities.

    At the eigenfunction both integral transforms are constant with value
    1/lambda; reported are the sup deviations of lambda * I(g) and
    lambda * II(g) from one, plus monotonicity/sign diagnostics of g.  With
    P the prefix integral of g against mu, II(g) = (suffix integral of P
    against nu) / g at the nodes where g > 0, and I(g) on panel k is the
    scheme's flux form, the panel mean of P times dnu[k] / (g[k] - g[k+1]),
    on the panels where that difference is above the floating-point noise
    floor.  A DN eigenfunction is checked as the ND one it is on the
    mirrored table.
    """
    g = sol.eigenfunction
    case = sol.table.problem.case
    lam = sol.lambda_
    diagnostics: dict = {}

    if case == "NN":
        diagnostics["ii_note"] = "integral identities apply to the ND/DN eigenfunctions"
        diagnostics["ii_deviation"] = float("nan")
        interior = g[1:-1]
        diagnostics["sign_changes"] = int(np.sum(np.sign(interior[:-1]) * np.sign(interior[1:]) < 0))
    else:
        if not (g[1:-1] > 0).all():
            i = 1 + int(np.argmin(g[1:-1] > 0))
            raise DomainError(f"eigenfunction not positive at interior node x={sol.table.grid[i]}")
        t, gv = (sol.table.mirrored(), g[::-1]) if case == "DN" else (sol.table, g)
        positive = gv > 0
        inner = prefix_integral(t, gv, "mu")
        with np.errstate(divide="ignore", invalid="ignore"):
            ii = suffix_integral(t, inner, "nu") / gv
        window = positive & np.isfinite(ii)
        if not window.any():
            raise DegenerationError("double integral: empty evaluation window")
        diagnostics["ii_deviation"] = float(np.max(np.abs(lam * ii[window] - 1.0)))

        drop = gv[:-1] - gv[1:]
        signal = drop > 0.5e-6 * np.max(np.abs(gv))
        diagnostics["i_deviation"] = float("nan")
        if signal.any():
            flux = 0.5 * (inner[:-1] + inner[1:])[signal] * t.dnu[signal] / drop[signal]
            diagnostics["i_deviation"] = float(np.max(np.abs(lam * flux - 1.0)))
            diagnostics["i_window_fraction"] = float(np.mean(signal))

        tol = 1e-9 * np.max(np.abs(gv))
        diagnostics["strictly_monotone"] = bool(np.all(np.diff(gv)[:-1] < tol))
        diagnostics["sign_constant"] = bool(np.all(gv[1:-1] > -tol))
    diagnostics["right_edge_interior_value"] = float(abs(g[-2]))
    diagnostics["residual"] = sol.residual
    diagnostics["rayleigh_gap"] = abs(sol.rayleigh - lam) / max(abs(lam), 1e-300)
    return diagnostics
