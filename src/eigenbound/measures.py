"""Problem description and the cumulative speed/scale measure tables.

For L = a(x) d^2/dx^2 + b(x) d/dx on (0, D) the cumulant is
C(x) = int_0^x b/a, the speed measure has density e^C / a and the scale
measure has density e^{-C}.  A MeasureTable carries both measures as
cumulative and tail columns on an adaptive grid, plus per-panel masses and
the node weights their first moments give, so that grid functions can be
integrated against either measure with second-order accuracy in two linear
passes: prefix_integral and suffix_integral, the package's one transform
kernel.  A mass over a window is a partial sum of panel masses, never a
difference of two cumulative totals.

Quadrature: each grid panel is integrated by a 7-point Gauss-Legendre rule
on each of its halves, with the error estimated by comparing against the
rule on the whole panel (the embedded estimate).  Panels that miss the
per-panel tolerance are split in half, so the final grid is refined exactly
where the weights vary fastest.  The cumulant is threaded left to right
through the same pass: a fixed 7x7 cumulative-integration matrix turns the
node samples of b/a into values of C at the quadrature nodes themselves.
One pass (_PanelPass) returns, per panel, the increment of C and the speed
and scale masses, with the node densities they sum; a table takes the
masses' first moments from those densities when its weights are first read.
Each refinement round makes one pass, over the half-panels followed by the
panels, with C threaded through each of the two runs from 0 as a pass over
that run alone would thread it, so both rules share one node array and
every number is the two separate passes' to the bit.  The pass lays out its nodes
node-major, a (7, P) array with one row per Gauss node, so every elementwise
step runs over contiguous rows of length P.  Each 7-point sum adds one node row at a time,
node 0 first: the order np.sum(w * X, axis=1) adds a 7-wide row of the
panel-major (P, 7) layout, so every sum is the reduction's to the bit.
X @ w would be faster still but rounds differently.  The coefficients come
from expr.walk, so a coefficient without x is evaluated once and broadcast
over the nodes.  Each pass also decides the hypothesis a > 0: it evaluates a
first, and refuses the pass at the smallest node where a is not positive or
cannot be evaluated, before b is evaluated.  A drift-free pass, whose b is a
constant +0.0, has b/a = +0.0 and so a constant C: it skips b/a, the cumulant
and both exponentials, and returns the general pass's numbers to the bit.

Every table covers a finite interval, where every mass is finite.  A mass
over the 1e300 guard there, or a criterion product head x tail that leaves
the float range, is a float-range failure: build_tables raises
DegenerationError naming it, and no table carries an overflowed value.  Only
on an infinite interval can a required mass diverge: when its value at a
truncation point reaches the guard, or when it keeps growing along the
truncation schedule by more than the quadrature noise floor (the quadrature
tolerance times the mass); the values at all truncation points are read off
one table whose nodes include every point.  Every bound and eigenvalue on an
infinite interval comes from one loop, walk_truncations, which tabulates
(0, p) along the schedule until the caller's quantity settles; a truncation
whose table overflows ends the walk on the last table that did not.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

import numpy as np

from . import expr
from .errors import (
    DegenerationError,
    DomainError,
    EigenboundError,
    HypothesisViolationError,
    LexError,
    ParseError,
    RangeError,
)

OVERFLOW_GUARD = 1e300

CASES = ("ND", "DN", "NN")

UNCONVERGED_ENDPOINT = (
    "quadrature did not converge next to an endpoint; a coefficient weight looks non-integrable there"
)

_DEFAULT_SCHEDULE = tuple(float(2**n) for n in range(1, 13))


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances: per-panel quadrature, sup/inf refinement, oracle stop.

    The oracle tolerance doubles as the relative stopping rule of the
    truncation limit; it has to sit above the discretization noise of the
    largest truncations, hence the looser default.
    """

    quadrature: float = 1e-10
    bound_refine: float = 1e-6
    oracle: float = 1e-4

    def __post_init__(self):
        if not (self.quadrature > 0 and self.bound_refine > 0 and self.oracle > 0):
            raise ValueError(f"tolerances must be positive (got {self})")


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, interval, boundary case, and numeric parameters.

    Every invalid field raises ValueError with a message that names it.
    """

    a: expr.ExprAst
    b: expr.ExprAst
    D: float
    case: str  # "ND" | "DN" | "NN"
    grid_size: int = 2000
    truncation_schedule: tuple[float, ...] = _DEFAULT_SCHEDULE
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"case must be one of {', '.join(CASES)} (got {self.case!r})")
        if not self.D > 0:
            raise ValueError(f"D must be positive or inf (got {self.D})")
        if self.grid_size < 16:
            raise ValueError("grid_size must be at least 16")
        sched = self.truncation_schedule
        if not all(0 < p < math.inf for p in sched):
            raise ValueError(f"truncation_schedule entries must be positive and finite (got {sched})")
        if any(q <= p for p, q in zip(sched, sched[1:])):
            raise ValueError("truncation_schedule must be strictly increasing")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.D)


def _parse_coefficient(name: str, text: str) -> expr.ExprAst:
    try:
        return expr.parse_expression(text)
    except (LexError, ParseError) as exc:
        raise ValueError(f"coefficient {name}: {exc}") from exc


def make_problem(
    a: str | None = None,
    b: str | None = None,
    preset: str | None = None,
    D: float | str = 1.0,
    case: str = "ND",
    grid_size: int = 2000,
    truncation_schedule: tuple[float, ...] | None = None,
    tolerances: Tolerances | None = None,
) -> ProblemSpec:
    """Build a ProblemSpec from coefficient text or a preset name.

    Raises ValueError for any invalid input, coefficient text included.
    """
    if preset is not None:
        if preset not in expr.PRESETS:
            raise ValueError(f"unknown preset {preset!r} (have {sorted(expr.PRESETS)})")
        a_ast, b_ast = expr.PRESETS[preset]
    else:
        if a is None or b is None:
            raise ValueError("either preset or both a and b must be given")
        a_ast, b_ast = _parse_coefficient("a", a), _parse_coefficient("b", b)
    return ProblemSpec(
        a=a_ast,
        b=b_ast,
        D=float(D),
        case=case,
        grid_size=grid_size,
        truncation_schedule=tuple(truncation_schedule) if truncation_schedule else _DEFAULT_SCHEDULE,
        tolerances=tolerances or Tolerances(),
    )


def truncate(problem: ProblemSpec, p: float) -> ProblemSpec:
    """Same coefficients and case on the smaller interval (0, p)."""
    if not p > 0:
        raise RangeError("truncation point must be positive")
    if not problem.is_infinite and p >= problem.D:
        raise RangeError(f"truncation point {p} must lie strictly inside (0, {problem.D})")
    return replace(problem, D=float(p))


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery

# np.polynomial.legendre.leggauss(7) to the bit, written out so that no
# process imports numpy.polynomial
_GL_NODES = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_GL_WEIGHTS = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])


def _cumulative_matrix() -> np.ndarray:
    """Q[i, j] = integral over (-1, node_i) of the j-th Lagrange basis polynomial."""
    n = len(_GL_NODES)
    q = np.empty((n, n))
    for j in range(n):
        roots = np.delete(_GL_NODES, j)
        coeffs = np.poly(roots)
        coeffs = coeffs / np.polyval(coeffs, _GL_NODES[j])
        anti = np.polyint(coeffs)
        q[:, j] = np.polyval(anti, _GL_NODES) - np.polyval(anti, -1.0)
    return q


_GL_CUM = _cumulative_matrix()


def _panel_nodes(xl: np.ndarray, xr: np.ndarray) -> np.ndarray:
    """(7, P) quadrature nodes for panels [xl, xr], node-major: row j holds
    the j-th Gauss node of every panel.  All are interior points."""
    t = np.multiply.outer(_GL_NODES, 0.5 * (xr - xl))
    t += 0.5 * (xl + xr)
    return t


def _rule_sum(f, v: np.ndarray) -> np.ndarray:
    """Per-panel sums of f * v over the 7 node rows, added one row at a time,
    node 0 first: the sum np.sum(f * v, axis=1) forms on the (P, 7) layout,
    to the bit.

    f is the weight vector or a (7, P) array of weighted factors.
    """
    s = f[0] * v[0]
    for j in range(1, len(v)):
        s += f[j] * v[j]
    return s


class _NotPositive(HypothesisViolationError):
    """a fails the hypothesis at the quadrature node x, as the message says;
    refuses is False where a is +inf or NaN, which only ends a trace."""

    def __init__(self, detail: str, x: float, refuses: bool = True):
        super().__init__(detail)
        self.x, self.refuses = x, refuses

    def refusal(self, right_end: float) -> str:
        return f"diffusion coefficient not positive on (0, {right_end}): {self}"


def _diffusion(a_ast, t: np.ndarray, finite_a: bool):
    """a at the nodes t, where it must be positive, and finite too when
    finite_a is set; otherwise _NotPositive names the smallest node where a is
    not, or where it cannot be evaluated.  A domain error stops a walk at
    the smallest node where its own operation fails, so the nodes left of
    it are walked again, for a failure further left, until none is left."""
    nodes, domain = t, None
    while True:
        try:
            av = expr.walk(a_ast, nodes)
            break
        except DomainError as exc:
            nodes, domain = nodes[nodes < exc.x], exc
            if not nodes.size:
                raise _NotPositive(f"evaluation failed: {exc}", exc.x) from None
    ok = (av > 0) & (av < np.inf) if finite_a else av > 0
    if not np.all(ok):
        i = np.argmin(np.where(ok, np.inf, nodes))
        x, v = float(nodes.flat[i]), float(np.broadcast_to(av, nodes.shape).flat[i])
        raise _NotPositive(f"value {v} at x={x} is not positive", x, refuses=v <= 0)
    if domain is not None:
        raise _NotPositive(f"evaluation failed: {domain}", domain.x)
    return av


class _PanelPass:
    """One vectorized quadrature pass over the panels [xl[i], xr[i]], on one
    node array; _refine passes it the panels of both rules of a round.

    a is evaluated first, by _diffusion: where a fails at a node, the pass
    raises before b is evaluated, at the pass's smallest failing node.
    """

    def __init__(self, xl: np.ndarray, xr: np.ndarray, a_ast, b_ast, finite_a: bool):
        self.half = 0.5 * (xr - xl)
        t = _panel_nodes(xl, xr)
        with np.errstate(all="ignore"):
            av = _diffusion(a_ast, t, finite_a)
            bv = expr.walk(b_ast, t)
            # b/a, integrand of the cumulant, as the full node array the
            # matrix product below needs; None where it would be +0.0 at every
            # node (b a constant +0.0, not -0.0, as a > 0): a drift-free pass
            drift_free = np.ndim(bv) == 0 and bv == 0.0 and not np.signbit(bv)
            self.g = None if drift_free else np.divide(bv, av, out=np.empty(t.shape))
        self.shape = t.shape  # not the nodes: their memory is freed before accumulate allocates
        self.av = av

    def accumulate(self, c_start: float, restart: int):
        """Panel increments of C, speed mass and scale mass, and the speed and
        scale densities at the nodes, (7, P) each.  The panels form two runs,
        [0, restart) and [restart, P), each of consecutive panels, and C is
        c_start at the left end of each: a run is integrated as a pass over
        its panels alone would integrate it.  restart 0 makes one run."""
        if self.g is None:
            # C is c_start + 0.0 at every node and dc is +0.0, as the general
            # path makes them; each density is a read-only broadcast, so
            # every panel's dnu has the rule sum of one node column
            c = np.array([c_start + 0.0])
            with np.errstate(all="ignore"):
                dens_mu = np.broadcast_to(np.exp(c) / self.av, self.shape)
                dens_nu = np.broadcast_to(np.exp(-c), self.shape)
                dmu = self.half * _rule_sum(_GL_WEIGHTS, dens_mu)
                dnu = self.half * _rule_sum(_GL_WEIGHTS, dens_nu[:, :1])
            return np.zeros(len(self.half)), dmu, dnu, dens_mu, dens_nu
        dc = self.half * _rule_sum(_GL_WEIGHTS, self.g)
        c_left = np.zeros(len(dc))
        for lo, hi in ((0, restart), (restart, len(dc))):
            if hi > lo:
                np.cumsum(dc[lo : hi - 1], out=c_left[lo + 1 : hi])
        c_left += c_start
        # cumulant at the quadrature nodes from its own node samples; the
        # buffer then holds exp(-C)
        c = _GL_CUM @ self.g
        c *= self.half
        c += c_left
        with np.errstate(all="ignore"):
            dens_mu = np.exp(c)
            dens_mu /= self.av
            dens_nu = np.exp(np.negative(c, out=c), out=c)
            dmu = self.half * _rule_sum(_GL_WEIGHTS, dens_mu)
            dnu = self.half * _rule_sum(_GL_WEIGHTS, dens_nu)
        return dc, dmu, dnu, dens_mu, dens_nu


def _pass_moments(xl: np.ndarray, xr: np.ndarray, *dens: np.ndarray) -> list[np.ndarray]:
    """Per-panel first moments of each density of dens, given at the (7, P)
    nodes of the panels [xl, xr] as _PanelPass.accumulate returns them."""
    half, wt = 0.5 * (xr - xl), _panel_nodes(xl, xr)
    wt *= _GL_WEIGHTS[:, None]
    with np.errstate(all="ignore"):
        return [half * _rule_sum(wt, d) for d in dens]


def _graded_grid(n: int, p: float, kappa: float = 0.9) -> np.ndarray:
    """Smoothly graded base grid on [0, p], refined toward both endpoints.

    The sine map keeps the smallest panel at (1 - kappa)/n of the interval,
    which bounds the stiffness of the downstream finite-volume matrices while
    still resolving endpoint behavior; genuinely singular weights trigger the
    adaptive splitting on top of this.
    """
    return p * _grid_shape(n, kappa)


@functools.lru_cache(maxsize=8)
def _grid_shape(n: int, kappa: float) -> np.ndarray:
    """The graded grid on [0, 1], made once per size and read-only."""
    u = np.linspace(0.0, 1.0, n + 1)
    s = u - kappa * np.sin(2 * math.pi * u) / (2 * math.pi)
    s[0], s[-1] = 0.0, 1.0
    s.flags.writeable = False
    return s


_WEIGHTS = ("mu_wL", "mu_wR", "nu_wL", "nu_wR")

#: the weights of a table made for _defer
_UNFORMED = dict.fromkeys(_WEIGHTS)


@dataclass
class MeasureTable:
    """Cumulative measure tables on a refined grid over (0, right_end).

    Column conventions: grid has M+1 strictly increasing nodes from 0 to
    right_end; d* and the *_wL/*_wR weights are per-panel (length M);
    cumulative and tail columns are per-node (length M+1) with
    cum[0] = tail[M] = 0.  Every mass, and the case's criterion product of
    head and tail masses, is finite (build_tables refuses a table otherwise).

    The tables of build_tables, mirrored() and dual_table() form their
    four weights on first read: a truncation that a walk discards, or a table
    read for its masses alone, never forms them.
    """

    problem: ProblemSpec
    right_end: float
    grid: np.ndarray
    Cvals: np.ndarray
    dmu: np.ndarray
    dnu: np.ndarray
    mu_cum: np.ndarray
    nu_cum: np.ndarray
    mu_tail: np.ndarray
    nu_tail: np.ndarray
    quad_residual: float
    # per-panel linear-exact weights for integrating grid functions
    mu_wL: np.ndarray = field(repr=False)
    mu_wR: np.ndarray = field(repr=False)
    nu_wL: np.ndarray = field(repr=False)
    nu_wR: np.ndarray = field(repr=False)

    def _defer(self, form: Callable[[], tuple[np.ndarray, ...]]) -> "MeasureTable":
        """This table, whose weights are dropped until their first read, which
        sets all four to form().  form must not refer to this table: the pair
        would be a reference cycle."""
        for name in _WEIGHTS:
            del self.__dict__[name]
        self.__dict__["_form"] = form
        return self

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: a weight that a
        # deferred table has not formed yet
        if name not in _WEIGHTS or "_form" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(zip(_WEIGHTS, self.__dict__["_form"]()))
        del self.__dict__["_form"]
        return self.__dict__[name]

    @property
    def n_panels(self) -> int:
        return len(self.grid) - 1

    def mirrored(self) -> "MeasureTable":
        """The same measures under x -> right_end - x, in O(M).

        The mirror swaps head and tail: cum and tail columns trade places,
        and so do the left/right panel weights.  The masses are moved, not
        recomputed, so every ND formula evaluated here is the DN formula of
        this table read backwards.  Node j of the mirror is node M - j of
        this table.  C keeps its additive constant, so exp(-C) stays the
        density of the moved scale masses.  `problem` is this table's own;
        its coefficients are not mirrored.  The weights are this table's,
        moved on their first read.
        """
        r = self.right_end
        return replace(
            self,
            grid=r - self.grid[::-1],
            Cvals=self.Cvals[::-1].copy(),
            dmu=self.dmu[::-1].copy(),
            dnu=self.dnu[::-1].copy(),
            mu_cum=self.mu_tail[::-1].copy(),
            nu_cum=self.nu_tail[::-1].copy(),
            mu_tail=self.mu_cum[::-1].copy(),
            nu_tail=self.nu_cum[::-1].copy(),
            **_UNFORMED,
        )._defer(lambda: tuple(w[::-1].copy() for w in (self.mu_wR, self.mu_wL, self.nu_wR, self.nu_wL)))

    def mu_total(self) -> float:
        return float(self.mu_cum[-1])

    def to_csv(self, path: str) -> None:
        """Write columns x, C, mu_cum, nu_cum, mu_tail, nu_tail as CSV to path."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("x,C,mu_cum,nu_cum,mu_tail,nu_tail\n")
            for i in range(len(self.grid)):
                row = (self.grid[i], self.Cvals[i], self.mu_cum[i], self.nu_cum[i],
                       self.mu_tail[i], self.nu_tail[i])
                out.write(",".join(f"{v:.12g}" for v in row) + "\n")


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


def _median(a: np.ndarray) -> float:  # np.median, whose import of numpy.ma costs a process 10 ms
    a = np.sort(a)
    return 0.5 * (a[(len(a) - 1) // 2] + a[len(a) // 2])


def _prefix_from_panels(d: np.ndarray) -> np.ndarray:
    """The M+1 partial sums of the M panel values, 0 first, summed left to right."""
    out = np.empty(len(d) + 1)
    out[0] = 0.0
    np.add.accumulate(d, out=out[1:])
    return out


def _suffix_from_panels(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """s[i] = sum of d[i:] for i = 0..M, summed from the far end into out (a
    new array when None); s[M] = 0."""
    if out is None:
        out = np.empty(len(d) + 1)
    out[-1] = 0.0
    np.add.accumulate(d[::-1], out=out[:-1][::-1])
    return out


def _not_integrable_near(end: str) -> HypothesisViolationError:
    """The refusal of the panel next to 0 (end "0") or to the right end
    ("right") when it did not converge."""
    return HypothesisViolationError(f"locally_integrable_near_{end} failed: {UNCONVERGED_ENDPOINT}")


class _Refined(NamedTuple):
    """Panel integrals over a refined grid, and the speed and scale densities
    at the nodes of the pass over its half-panels; bad marks the panels still
    over tolerance."""

    edges: np.ndarray
    dc: np.ndarray
    dmu: np.ndarray
    dnu: np.ndarray
    dens_mu: np.ndarray
    dens_nu: np.ndarray
    bad: np.ndarray
    worst: float


def _halves(edges: np.ndarray) -> np.ndarray:
    """The nodes of edges with every panel's midpoint between them."""
    fine = np.empty(2 * len(edges) - 1)
    fine[0::2] = edges
    fine[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return fine


def _refine(problem: ProblemSpec, edges: np.ndarray, ends: tuple[float, ...]) -> _Refined:
    """Integrate the cumulant and both measures over the panels of edges,
    splitting the panels that miss tolerances.quadrature.  Each round runs
    the fine rule (the half-panels) and the coarse rule (the panels) as one
    _PanelPass over both runs of panels.  A round raises _NotPositive where
    a fails at one of its nodes (see _diffusion): where it is not positive,
    or, on the mass trace of an infinite interval, +inf.  Should the shared
    pass raise, the round runs each rule's own pass, the fine rule's first,
    and raises what that raises: the smallest failing node of the fine
    rule, or else of the coarse rule, never a coarse node left of it.

    The grid serves as the table of (0, e) for each e in ends, ascending
    nodes of edges with edges[-1] last, and refinement treats each like a
    right end: a failing panel that ends at e is also graded geometrically
    into e, and no node at an e is ever dropped.  A panel fails when its
    cumulant increment dc or a mass misses the tolerance; a panel whose
    masses are not finite fails when its finite dc misses it, since masses
    that overflow on a converged cumulant are a float-range failure, while a
    dc that does not converge means b/a is not integrable there.  A panel
    whose dc is not finite never fails.  When splitting every
    failing panel would put the grid over the node cap, a round splits only
    those below the last e for which the grid stays within it, so (0, e)
    for small e is refined first.  Refinement stops after 14 rounds, when
    nothing can be split, or when no failing panel can be split within the
    cap; the returned arrays belong to the returned edges.
    """
    tol, finite_a = problem.tolerances.quadrature, problem.is_infinite
    max_nodes = max(16 * problem.grid_size, 20000)
    ends_arr = np.asarray(ends, dtype=float)
    for round_ in range(14):
        fine_edges = _halves(edges)
        mids = fine_edges[1::2]
        n = len(fine_edges) - 1

        # the fine rule's half-panels, then the coarse rule's panels, in one
        # pass whose cumulant starts again at the coarse rule's first panel
        failure = None
        try:
            both = _PanelPass(
                np.concatenate([fine_edges[:-1], edges[:-1]]),
                np.concatenate([fine_edges[1:], edges[1:]]),
                problem.a, problem.b, finite_a,
            )
        except EigenboundError as exc:
            failure = exc
        if failure is not None:
            # a failing node of the coarse rule may lie left of the fine rule's
            # first: the round refuses as the rules' own passes, fine first, do
            _PanelPass(fine_edges[:-1], fine_edges[1:], problem.a, problem.b, finite_a)
            _PanelPass(edges[:-1], edges[1:], problem.a, problem.b, finite_a)
            raise failure
        dc_b, dmu_b, dnu_b, dens_mu, dens_nu = both.accumulate(0.0, n)
        del both
        dens_mu, dens_nu = dens_mu[:, :n], dens_nu[:, :n]

        # combine half-panels back onto the table panels
        dc, dc_c = dc_b[0:n:2] + dc_b[1:n:2], dc_b[n:]
        dmu, dmu_c = dmu_b[0:n:2] + dmu_b[1:n:2], dmu_b[n:]
        dnu, dnu_c = dnu_b[0:n:2] + dnu_b[1:n:2], dnu_b[n:]

        with np.errstate(invalid="ignore"):
            err_c = np.abs(dc - dc_c) / np.maximum(1.0, np.abs(dc))
            err = np.maximum(
                err_c,
                np.maximum(
                    np.abs(dmu - dmu_c) / np.maximum(1.0, dmu),
                    np.abs(dnu - dnu_c) / np.maximum(1.0, dnu),
                ),
            )
        finite = np.isfinite(dc) & np.isfinite(dmu) & np.isfinite(dnu)
        bad = np.where(finite, err, err_c) > tol
        worst = float(np.fmax.reduce(np.where(finite, err, 0.0), initial=0.0))
        if not bad.any() or round_ == 13:
            break
        # node count after splitting the failing panels below each end e
        end_nodes = np.searchsorted(edges, ends_arr)
        counts = len(edges) + np.cumsum(bad)[end_nodes - 1]
        open_ends = end_nodes[counts <= max_nodes]
        if not len(open_ends):
            break
        split = bad.copy()
        split[open_ends[-1] :] = False
        if not split.any():
            break
        inserts = [mids[split]]
        # a panel next to an end that keeps failing points at an integrable
        # algebraic singularity; grade geometrically into the end so the
        # singular tip mass shrinks by orders of magnitude per round
        if split[0]:
            w0 = edges[1] - edges[0]
            inserts.append(edges[0] + w0 * np.array([1.0 / 256.0, 1.0 / 16.0]))
        for j in open_ends[split[open_ends - 1]]:
            w1 = edges[j] - edges[j - 1]
            inserts.append(edges[j] - w1 * np.array([1.0 / 256.0, 1.0 / 16.0]))
        new_edges = np.sort(np.concatenate([edges] + inserts))  # a repeated node has gap 0: dropped below
        gaps = np.diff(new_edges)
        # panels must stay resolvable in floating point, down to the Gauss
        # nodes of their halves, which must not round onto a panel end (where
        # a coefficient may be singular); near 0 that allows extremely thin
        # tips, elsewhere spacing is relative to magnitude
        floor = 128 * np.finfo(float).eps * np.abs(new_edges[1:]) + 1e-300
        keep = np.concatenate([[True], gaps > floor])
        # an end too close to the node before it keeps its place; that node goes
        crowded = np.flatnonzero(~keep & np.isin(new_edges, ends_arr))
        keep[crowded] = True
        keep[crowded - 1] = False
        new_edges = new_edges[keep]
        if len(new_edges) == len(edges):
            break  # cannot refine further at float resolution
        edges = new_edges
        # a round that refines leaves its densities unread: free them before the next pass
        del dens_mu, dens_nu
    return _Refined(edges, dc, dmu, dnu, dens_mu, dens_nu, bad, worst)


def build_tables(problem: ProblemSpec, right_end: float) -> MeasureTable:
    """Integrate the cumulant and both measures over (0, right_end).

    a must be positive (+inf included) at every node of every quadrature
    pass, or HypothesisViolationError names the interval and the smallest
    node of the first pass where a is not positive or cannot be evaluated.
    Per-panel error is held below
    tolerances.quadrature (relative to the panel mass once that exceeds 1);
    failing panels are split in half and the grid keeps the splits.  A panel
    still over tolerance after refinement raises HypothesisViolationError: a
    weight that is not integrable there would otherwise enter the masses as
    a finite number.  This is the only test of local integrability at 0 and
    at right_end; the refusal of an end panel names locally_integrable_near_0
    or _near_right.  A panel mass that is not finite, a mass total over
    OVERFLOW_GUARD, a criterion product (speed head x scale tail for ND,
    scale head x speed tail for DN and NN) that overflows or a zero-width
    panel raises DegenerationError naming it: on a finite interval each is a
    float-range failure, not a divergent mass.
    """
    if not (math.isfinite(right_end) and right_end > 0):
        raise RangeError("right_end must be finite and positive")
    try:
        edges, dc, dmu, dnu, dens_mu, dens_nu, bad, worst = _refine(
            problem, _graded_grid(problem.grid_size, right_end), (right_end,)
        )
    except _NotPositive as exc:
        raise HypothesisViolationError(exc.refusal(right_end)) from None
    if bad[0]:
        raise _not_integrable_near("0")
    if bad[-1]:
        raise _not_integrable_near("right")
    if bad.any():
        x = edges[np.argmax(bad)]
        raise HypothesisViolationError(
            f"quadrature did not converge on the panel at x = {x:.12g}; "
            "a coefficient weight looks non-integrable there"
        )

    for name, d in (("speed", dmu), ("scale", dnu)):
        if not np.isfinite(d).all() or d.sum() > OVERFLOW_GUARD:
            raise DegenerationError(
                f"the {name}-measure mass over (0, {right_end:g}) overflowed the float range"
            )
    cvals = _prefix_from_panels(dc)
    mu_cum, nu_cum = _prefix_from_panels(dmu), _prefix_from_panels(dnu)
    mu_tail, nu_tail = _suffix_from_panels(dmu), _suffix_from_panels(dnu)
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

    if not (edges[1:] > edges[:-1]).all():
        raise DegenerationError(f"(0, {right_end:g}) is too short for floats: a panel has zero width")

    return MeasureTable(
        problem=problem,
        right_end=float(right_end),
        grid=edges,
        Cvals=cvals,
        dmu=dmu,
        dnu=dnu,
        mu_cum=mu_cum,
        nu_cum=nu_cum,
        mu_tail=mu_tail,
        nu_tail=nu_tail,
        quad_residual=worst,
        **_UNFORMED,
    )._defer(functools.partial(_linear_weights, edges, dmu, dnu, dens_mu, dens_nu))


def _linear_weights(edges, dmu, dnu, dens_mu, dens_nu) -> tuple[np.ndarray, ...]:
    """mu_wL, mu_wR, nu_wL and nu_wR of the table with panels edges and masses
    dmu, dnu, from the densities of its last _refine pass.

    Each centroid is its panel's first moment over its mass, the midpoint
    where the mass is 0; a panel's weights split its mass between its ends
    so that linear functions integrate exactly against it.
    """
    fine = _halves(edges)
    widths = edges[1:] - edges[:-1]
    weights = []
    for d, m in zip((dmu, dnu), _pass_moments(fine[:-1], fine[1:], dens_mu, dens_nu)):
        cen = fine[1::2].copy()  # the panel midpoints
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(m[0::2] + m[1::2], d, out=cen, where=d > 0)
        cen[np.isnan(cen)] = 0.0  # then clipped, as +-inf are, to a panel end
        np.clip(cen, edges[:-1], edges[1:], out=cen)
        weights += [d * (edges[1:] - cen) / widths, d * (cen - edges[:-1]) / widths]
    return tuple(weights)


def prefix_integral(table: MeasureTable, values: np.ndarray, measure: str = "mu") -> np.ndarray:
    """P[i] = integral of the grid function over (0, x_i) against mu or nu."""
    wL, wR = (table.mu_wL, table.mu_wR) if measure == "mu" else (table.nu_wL, table.nu_wR)
    return _prefix_from_panels(wL * values[:-1] + wR * values[1:])


def suffix_integral(table: MeasureTable, values: np.ndarray, measure: str = "mu") -> np.ndarray:
    """S[i] = integral of the grid function over (x_i, right_end)."""
    wL, wR = (table.mu_wL, table.mu_wR) if measure == "mu" else (table.nu_wL, table.nu_wR)
    return _suffix_from_panels(wL * values[:-1] + wR * values[1:])


@dataclass
class TruncationWalk:
    """One quantity along the truncation schedule of an infinite interval.

    ``table`` is the last table tabulated and ``result`` the quantity's full
    result there, so a caller can carry on from the walk without rebuilding.
    """

    points: list[float]
    values: list[float]
    table: MeasureTable
    result: Any
    stop_reason: str
    settled: bool


def walk_truncations(
    problem: ProblemSpec,
    quantity: Callable[[MeasureTable], tuple[float, Any]],
    tolerance: Callable[[float], float],
) -> TruncationWalk:
    """Tabulate (0, p) along the schedule until the quantity settles.

    ``quantity`` maps a table to (value, result).  The walk stops when two
    successive values differ by at most ``tolerance(value)``, at a value
    that is not finite, or when a table or its quantity raises
    DegenerationError (a table whose masses leave the float range is one);
    it then keeps the last table that did not, unsettled, and the stop
    reason says which.  A HypothesisViolationError propagates: a
    coefficient that breaks the hypothesis on some (0, p) breaks it on
    (0, inf).
    """
    points: list[float] = []
    values: list[float] = []
    table = result = None
    stop_reason, settled = "schedule exhausted", False
    for p in problem.truncation_schedule:
        try:
            cand = build_tables(truncate(problem, p), p)
            value, out = quantity(cand)
        except DegenerationError as exc:
            stop_reason = f"stopped at truncation {p}: {exc}"
            break
        points.append(p)
        values.append(value)
        table, result = cand, out
        if not math.isfinite(value):
            stop_reason = f"value is not finite at truncation {p}"
            break
        if len(values) >= 2 and abs(value - values[-2]) <= tolerance(value):
            stop_reason, settled = "successive truncations agree to tolerance", True
            break
    if table is None:
        raise DegenerationError(f"no truncation could be evaluated: {stop_reason}")
    return TruncationWalk(points, values, table, result, stop_reason, settled)


# ---------------------------------------------------------------------------
# Hypothesis diagnostics


@dataclass
class HypothesisReport:
    criterion_zero: bool
    criterion_zero_reason: str
    mass_trace: list[tuple[float, float, float]]  # (p, mu(0,p), nu(0,p))
    notes: list[str]


def _mass_growth_divergent(masses: list[float], rel_noise: float) -> bool:
    """Divergence verdict for one mass along a doubling truncation schedule.

    A mass that reached the overflow guard diverges.  Otherwise only
    increments above the quadrature noise floor, rel_noise times the mass
    they were added to, count as growth, so a converged mass that wanders by
    a few ulps is not read as growing; the mass diverges when that growth
    does not shrink along the schedule.
    """
    if any(m >= OVERFLOW_GUARD for m in masses):
        return True
    if len(masses) < 3:
        return False
    m = np.asarray(masses)
    inc = np.diff(m)
    inc = inc[inc > rel_noise * m[1:]]
    if len(inc) < 2:
        return False
    ratios = inc[1:] / inc[:-1]
    return bool(_median(ratios[-4:]) >= 0.97)


#: cells of the graded base grid on each shell between truncation points
_PROBE_SHELL_CELLS = 32


def _probe_grid(points: tuple[float, ...]) -> np.ndarray:
    """Base grid on [0, points[-1]] with every truncation point as a node:
    a graded grid of _PROBE_SHELL_CELLS cells on each shell between them."""
    ends = (0.0, *points)
    shells = [lo + _graded_grid(_PROBE_SHELL_CELLS, hi - lo)[:-1] for lo, hi in zip(ends, ends[1:])]
    return np.concatenate(shells + [np.array([ends[-1]])])


def _mass_trace(problem: ProblemSpec, notes: list[str]) -> tuple[list[tuple[float, float, float]], str | None]:
    """(p, mu(0,p), nu(0,p)) at the truncation points of an infinite interval,
    and why the run must be refused, or None.

    One grid spans (0, p_reach), and its quadrature passes decide a > 0 at
    their nodes, a finite too: p_reach is the last truncation point below
    the first node where a fails.  The first pass over the grid of the whole
    schedule finds that node; should a later round's pass find one that its
    refinement added, the grid is cut again.  A node where a is not positive
    (-inf included) or cannot be evaluated refuses the run at the first
    point past it, however far a walk would get: a breaks the hypothesis on
    (0, inf).  A node where a is +inf or NaN, where it overflowed, only ends
    the trace.  Every truncation point is a node of the grid and is
    refined as a right end (see _refine), so the masses at p are prefix sums
    of the panel masses, capped at the overflow guard, which a non-finite
    panel below p enters at.  A panel next to 0 that did not converge raises
    HypothesisViolationError naming locally_integrable_near_0, as
    build_tables does; a panel ending at a later p that did not converge
    refuses the run with UNCONVERGED_ENDPOINT, before a node past p does.
    The trace stops before the first point whose own table could not be
    built, and notes it, or at the first point where both masses reached
    the guard.
    """
    points = problem.truncation_schedule
    probe = replace(problem, grid_size=max(256, problem.grid_size // 8))
    reach, refusal = len(points), None
    while reach:
        try:
            q = _refine(probe, _probe_grid(points[:reach]), points[:reach])
            break
        except _NotPositive as exc:
            reach = int(np.searchsorted(points, exc.x))
            refusal = exc.refusal(points[reach]) if exc.refuses else None
    built = 0
    trace: list[tuple[float, float, float]] = []
    if reach:
        if q.bad[0]:
            raise _not_integrable_near("0")
        nodes = np.searchsorted(q.edges, points[:reach])
        failed = q.bad[nodes - 1]
        built = int(np.argmax(failed)) if failed.any() else reach
        # a mass is >= 0, +inf or NaN: fmin makes the last two the guard, and a
        # panel over the guard puts every prefix past it over the guard, as before
        capped = [np.fmin(d, OVERFLOW_GUARD) for d in (q.dmu, q.dnu)]
        mu_at, nu_at = (np.minimum(_prefix_from_panels(d), OVERFLOW_GUARD)[nodes] for d in capped)
        for p, mu, nu in zip(points[:built], mu_at, nu_at):
            trace.append((p, float(mu), float(nu)))
            if mu >= OVERFLOW_GUARD and nu >= OVERFLOW_GUARD:
                return trace, refusal
    if built < len(points):
        notes.append(f"table build failed at truncation {points[built]}")
    return trace, (UNCONVERGED_ENDPOINT if built < reach else refusal)


def hypothesis_check(problem: ProblemSpec) -> HypothesisReport:
    """Check the degenerate criterion on an infinite interval.

    On (0, inf) it checks whether the mass whose finiteness the case needs
    diverges, which forces a zero eigenvalue: its value at some truncation
    point reached the overflow guard, or its increments stay above the
    quadrature noise floor without shrinking.  The masses mu(0,p) and
    nu(0,p) at every truncation point p are read off one table, whose
    quadrature passes decide a > 0 (see _mass_trace); a failure there raises
    HypothesisViolationError with the trace's refusal, so no report exists
    for a run that must be refused.  On a finite interval the report is
    empty: the positivity of a and the local integrability of b/a and e^C/a
    at the ends are decided where the masses are integrated, by
    build_tables, which raises HypothesisViolationError, as the mass trace
    does next to 0.
    """
    if not problem.is_infinite:
        return HypothesisReport(False, "", [], [])
    notes: list[str] = []
    mass_trace, refusal = _mass_trace(problem, notes)
    if refusal is not None:
        raise HypothesisViolationError(refusal)
    noise, reason = problem.tolerances.quadrature, ""
    if problem.case == "ND" and _mass_growth_divergent([nu for _, _, nu in mass_trace], noise):
        reason = "scale mass nu(0, inf) diverges, so the ND eigenvalue is 0"
    if problem.case in ("DN", "NN") and _mass_growth_divergent([mu for _, mu, _ in mass_trace], noise):
        reason = (
            "speed mass mu(0, inf) diverges, so the "
            + ("DN eigenvalue" if problem.case == "DN" else "NN spectral gap setting")
            + " degenerates to 0"
        )
    return HypothesisReport(bool(reason), reason, mass_trace, notes)
