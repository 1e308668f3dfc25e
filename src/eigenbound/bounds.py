"""Explicit bound constants and the two-sided basic and improved estimates.

For the ND case the criterion constant is the supremum over x of
mu(0,x) * nu(x,D).  The eigenvalue is positive exactly when the constant is
finite, and then it is bracketed between the reciprocal of the constant and
a quarter of it.  The map x -> D - x swaps the head and tail masses of both
measures, so every DN (and NN) constant is its ND formula evaluated on the
mirrored table, with the argmax mapped back.  The first iteration step
sharpens this to the improved constants delta1 (lower side) and delta1'
(upper side, always within [delta, 2*delta]).

Every supremum is a full grid scan followed by derivative-free
golden-section refinement on the bracketing panels; the objectives are
continuous but only piecewise smooth through the tables, so no derivatives
are assumed.  Every table covers a finite interval, where the constant is
finite (measures.build_tables refuses a table whose masses overflow), so
the constant is infinite only on (0, inf), where the hypothesis probe's
mass trace decides it and zero_report gives the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerationError
from .measures import MeasureTable, ProblemSpec, TruncationWalk, prefix_integral, suffix_integral, walk_truncations

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(fun, lo: float, hi: float, iters: int = 70) -> tuple[float, float]:
    """Golden-section maximization of a continuous scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    h = b - a
    if h <= 0:
        return a, fun(a)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = fun(c), fun(d)
    for _ in range(iters):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = fun(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = fun(d)
    return (c, yc) if yc > yd else (d, yd)


def _scan_refine(xs: np.ndarray, node_vals: np.ndarray, objective) -> tuple[float, float]:
    """Grid argmax plus golden refinement over the two bracketing panels."""
    k = int(np.nanargmax(node_vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    x_star, v_star = golden_max(objective, lo, hi)
    if node_vals[k] >= v_star:
        return float(xs[k]), float(node_vals[k])
    return float(x_star), float(v_star)


def _oriented(case: str, table: MeasureTable) -> MeasureTable:
    """The table the ND formulas run on: DN and NN are ND on the mirror."""
    if case == "ND":
        return table
    if case in ("DN", "NN"):
        return table.mirrored()
    raise ValueError(f"unknown case {case!r}")


def _back(case: str, table: MeasureTable, x: float) -> float:
    """An argmax found on the oriented table, in this table's coordinates."""
    return x if case == "ND" else table.right_end - x


def delta(case: str, table: MeasureTable) -> tuple[float, float]:
    """The criterion constant and its argmax.

    ND: sup of mu(0,x) * nu(x,D).  DN and NN: sup of nu(0,x) * mu(x,D), the
    same supremum on the mirrored table.
    """
    t = _oriented(case, table)
    node_vals = t.mu_cum * t.nu_tail

    def objective(x):
        return t.mu_between(0.0, x) * t.nu_between(x, t.right_end)

    x_star, v = _scan_refine(t.grid, node_vals, objective)
    return v, _back(case, table, x_star)


def _reciprocal(name: str, c: float, right_end: float) -> float:
    """1/c; DegenerationError when c is 0 or NaN or 1/c overflows, which
    means the interval is too short for the table to resolve its masses."""
    r = 1.0 / c if c > 0 else math.nan
    if not math.isfinite(r):
        raise DegenerationError(
            f"{name} = {c!r} on (0, {right_end}) has no finite reciprocal; "
            "the interval is too short to resolve"
        )
    return r


def delta1(case: str, table: MeasureTable) -> tuple[float, float]:
    """First-step lower-bound constant: the supremum the seed function
    produces under the double-integral transform, via prefix/suffix sums."""
    t = _oriented(case, table)
    g = t.grid
    seed = t.nu_tail
    s = np.sqrt(seed)
    head = prefix_integral(t, s, "mu")  # int_0^x sqrt(seed) dmu
    tail = suffix_integral(t, seed * s, "mu")  # int_x^D seed^{3/2} dmu
    with np.errstate(divide="ignore", invalid="ignore"):
        node_vals = np.where(s > 0, s * head + tail / np.where(s > 0, s, 1.0), 0.0)

    def objective(x):
        k, frac = t.locate(x)
        px = t.nu_between(x, t.right_end)
        sx = math.sqrt(px)
        if sx <= 0:
            return 0.0
        head_x = head[k] + 0.5 * (s[k] + sx) * t.dmu[k] * frac
        tail_x = tail[k + 1] + 0.5 * (px * sx + seed[k + 1] * s[k + 1]) * t.dmu[k] * (1.0 - frac)
        return sx * head_x + tail_x / sx

    x_star, v = _scan_refine(g, node_vals, objective)
    return v, _back(case, table, x_star)


def delta1_prime(case: str, table: MeasureTable) -> tuple[float, float]:
    """First-step upper-bound constant (the x1 -> D limit of the localized
    family); always lands in [delta, 2*delta]."""
    t = _oriented(case, table)
    seed = t.nu_tail
    tail_sq = suffix_integral(t, seed**2, "mu")
    with np.errstate(divide="ignore", invalid="ignore"):
        node_vals = np.where(seed > 0, t.mu_cum * seed + tail_sq / np.where(seed > 0, seed, 1.0), 0.0)

    def objective(x):
        k, frac = t.locate(x)
        px = t.nu_between(x, t.right_end)
        if px <= 0:
            return 0.0
        t_x = tail_sq[k + 1] + 0.5 * (px**2 + seed[k + 1] ** 2) * t.dmu[k] * (1.0 - frac)
        return t.mu_between(0.0, x) * px + t_x / px

    x_star, v = _scan_refine(t.grid, node_vals, objective)
    return v, _back(case, table, x_star)


@dataclass
class BoundsReport:
    """The basic and improved two-sided estimates for one problem."""

    case: str
    delta: float
    lower_basic: float | None
    upper_basic: float | None
    delta1: float | None
    delta1_prime: float | None
    lower_improved: float | None
    upper_improved: float | None
    argmax_x: dict[str, float]
    positivity: str  # "positive" | "zero"

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "delta": self.delta,
            "lower_basic": self.lower_basic,
            "upper_basic": self.upper_basic,
            "delta1": self.delta1,
            "delta1_prime": self.delta1_prime,
            "lower_improved": self.lower_improved,
            "upper_improved": self.upper_improved,
            "argmax_x": dict(self.argmax_x),
            "positivity": self.positivity,
        }


def zero_report(case: str) -> BoundsReport:
    """The report of a zero eigenvalue on (0, inf): infinite criterion
    constant, (0, 0) bracket."""
    return BoundsReport(
        case=case,
        delta=math.inf,
        lower_basic=0.0,
        upper_basic=0.0,
        delta1=None,
        delta1_prime=None,
        lower_improved=None,
        upper_improved=None,
        argmax_x={},
        positivity="zero",
    )


def settle_delta(problem: ProblemSpec) -> TruncationWalk:
    """The criterion constant along the truncation schedule of an infinite
    interval until successive values agree to 100 * eps_bound (relative
    above 1, absolute below).  The walk's result is delta's (value, argmax)
    on its last table."""
    eps = problem.tolerances.bound_refine

    def criterion(table: MeasureTable) -> tuple[float, tuple[float, float]]:
        d = delta(problem.case, table)
        return d[0], d

    return walk_truncations(problem, criterion, lambda d: 100 * eps * max(d, 1.0))


def compute_report(
    case: str, table: MeasureTable, criterion: tuple[float, float] | None = None
) -> BoundsReport:
    """Criterion constant, basic bracket, and the first-step improvements.

    ``criterion`` is delta(case, table) when the caller already has it (the
    last result of a settle_delta walk); it is computed otherwise.  For the
    double-Neumann case only the criterion applies (it decides positivity of
    the spectral gap); the improved constants describe the ND/DN eigenvalue
    and are left unset there.
    """
    d, xd = criterion if criterion is not None else delta(case, table)
    upper = _reciprocal("delta", d, table.right_end)
    lower = 1.0 / (4.0 * d)  # finite with 1/delta
    if case == "NN":
        # the criterion decides positivity of the spectral gap, but the
        # two-sided bracket belongs to the ND/DN eigenvalue, not the gap
        return BoundsReport(
            case=case,
            delta=d,
            lower_basic=None,
            upper_basic=None,
            delta1=None,
            delta1_prime=None,
            lower_improved=None,
            upper_improved=None,
            argmax_x={"delta": xd},
            positivity="positive",
        )
    d1, x1 = delta1(case, table)
    d1p, x1p = delta1_prime(case, table)
    return BoundsReport(
        case=case,
        delta=d,
        lower_basic=lower,
        upper_basic=upper,
        delta1=d1,
        delta1_prime=d1p,
        lower_improved=_reciprocal("delta1", d1, table.right_end),
        upper_improved=_reciprocal("delta1_prime", d1p, table.right_end),
        argmax_x={"delta": xd, "delta1": x1, "delta1_prime": x1p},
        positivity="positive",
    )
