"""Explicit bound constants and the two-sided basic and improved estimates.

For the ND case the criterion constant is the supremum over x of
mu(0,x) * nu(x,D).  The eigenvalue is positive exactly when the constant is
finite, and then it is bracketed between the reciprocal of the constant and
a quarter of it.  The map x -> D - x swaps the head and tail masses of both
measures, so every DN (and NN) constant is its ND formula evaluated on the
mirrored table, with the argmax mapped back.  The first iteration step
sharpens this to the improved constants delta1 (lower side) and delta1'
(upper side, always within [delta, 2*delta]).

Every supremum is a node scan, then the exact maximum on the two panels
around the best node: tables model each measure as linear inside a panel,
so there each objective is a low-degree rational function of one variable,
maximal at a panel end or at a real root of its derivative's numerator.
Every table covers a finite interval, where the constant is finite (tables
whose masses overflow are refused, and so is a node scan that overflows),
so it is infinite only on (0, inf), where the hypothesis probe's mass trace
decides it and zero_report gives the report.

BoundsReport is one record for every case; a case names only the fields it
sets.  NN sets the criterion and its argmax alone, a zero eigenvalue the
(0, 0) bracket; unset fields stay None, with argmax_x {} and "positive".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerationError
from .measures import MeasureTable, ProblemSpec, TruncationWalk, prefix_integral, suffix_integral, walk_truncations


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


def _real_roots(coeffs) -> np.ndarray:
    """Real parts of a polynomial's roots, none when a coefficient is not
    finite; a near-double root may come back as a complex pair."""
    c = np.asarray(coeffs, dtype=float)
    return np.roots(c).real if np.all(np.isfinite(c)) else np.empty(0)


def _panel_sup(
    name: str, case: str, table: MeasureTable, t: MeasureTable, node_vals: np.ndarray, objective, stationary
) -> tuple[float, float]:
    """Supremum and argmax (in table's coordinates) of an objective on the
    oriented table t: the best node, or a larger value on a panel next to it.
    objective(j, f) evaluates it at fractions f of panel j, and stationary(j)
    gives the fractions where its derivative vanishes; on a panel without
    speed or scale mass its maximum is at an end, so only the ends are tried."""
    k = int(np.nanargmax(node_vals))
    v, x = float(node_vals[k]), float(t.grid[k])
    if not math.isfinite(v):
        raise DegenerationError(f"{name} overflowed the float range on (0, {t.right_end:g})")
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(max(k - 1, 0), min(k + 1, t.n_panels)):
            f = np.concatenate([[0.0, 1.0], stationary(j) if t.dmu[j] > 0 and t.dnu[j] > 0 else []])
            f = f[(f >= 0) & (f <= 1)]
            vals = objective(j, f)
            i = int(np.argmax(vals))
            if vals[i] > v:
                v, x = float(vals[i]), float((1.0 - f[i]) * t.grid[j] + f[i] * t.grid[j + 1])
    return v, _back(case, table, x)


def delta(case: str, table: MeasureTable) -> tuple[float, float]:
    """The criterion constant and its argmax.

    ND: sup of mu(0,x) * nu(x,D).  DN and NN: sup of nu(0,x) * mu(x,D), the
    same supremum on the mirrored table.
    """
    t = _oriented(case, table)

    def objective(j, f):
        return (t.mu_cum[j] + t.dmu[j] * f) * (t.dnu[j] * (1.0 - f) + t.nu_tail[j + 1])

    def stationary(j):
        # vertex of the concave (m1 - dmu*g) * (P1 + dnu*g) in g = 1 - f
        g = 0.5 * (t.mu_cum[j + 1] / t.dmu[j] - t.nu_tail[j + 1] / t.dnu[j])
        return [1.0 - g]

    return _panel_sup("delta", case, table, t, t.mu_cum * t.nu_tail, objective, stationary)


def _reciprocal(name: str, c: float, right_end: float) -> float:
    """1/c; DegenerationError when c is 0, NaN or infinite, or 1/c
    overflows: floats do not resolve the masses of this interval."""
    r = 1.0 / c if 0 < c < math.inf else math.nan
    if not math.isfinite(r):
        raise DegenerationError(
            f"{name} = {c!r} on (0, {right_end}) has no finite nonzero reciprocal; "
            "floats do not resolve this interval"
        )
    return r


def delta1(case: str, table: MeasureTable) -> tuple[float, float]:
    """First-step lower-bound constant: the supremum the seed function
    produces under the double-integral transform, via prefix/suffix sums."""
    t = _oriented(case, table)
    seed = t.nu_tail
    s = np.sqrt(seed)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        head = prefix_integral(t, s, "mu")  # int_0^x sqrt(seed) dmu
        tail = suffix_integral(t, seed * s, "mu")  # int_x^D seed^{3/2} dmu
        node_vals = np.where(s > 0, s * head + tail / s, 0.0)

    def objective(j, f):
        px = t.dnu[j] * (1.0 - f) + seed[j + 1]
        sx = np.sqrt(px)
        head_x = head[j] + 0.5 * (s[j] + sx) * t.dmu[j] * f
        tail_x = tail[j + 1] + 0.5 * (px * sx + seed[j + 1] * s[j + 1]) * t.dmu[j] * (1.0 - f)
        return np.where(sx > 0, sx * head_x + tail_x / sx, 0.0)

    def stationary(j):
        # u^2 times the derivative of -(r s_j/2) u^3 + (dmu/2) u^2 + b u + c/u,
        # the objective in u = sqrt(px) (r = dmu/dnu; its u^4 terms cancel)
        p1, dmu, r = seed[j + 1], t.dmu[j], t.dmu[j] / t.dnu[j]
        b = head[j] + 0.5 * dmu * s[j] + 0.5 * r * p1 * (s[j] + s[j + 1])
        c = tail[j + 1] - 0.5 * r * p1**2 * s[j + 1]
        u = _real_roots([-1.5 * r * s[j], dmu, b, 0.0, -c])
        return 1.0 - (u * u - p1) / t.dnu[j]

    return _panel_sup("delta1", case, table, t, node_vals, objective, stationary)


def delta1_prime(case: str, table: MeasureTable) -> tuple[float, float]:
    """First-step upper-bound constant (the x1 -> D limit of the localized
    family); always lands in [delta, 2*delta]."""
    t = _oriented(case, table)
    seed = t.nu_tail
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tail_sq = suffix_integral(t, seed**2, "mu")
        node_vals = np.where(seed > 0, t.mu_cum * seed + tail_sq / seed, 0.0)

    def objective(j, f):
        px = t.dnu[j] * (1.0 - f) + seed[j + 1]
        t_x = tail_sq[j + 1] + 0.5 * (px**2 + seed[j + 1] ** 2) * t.dmu[j] * (1.0 - f)
        return np.where(px > 0, (t.mu_cum[j] + t.dmu[j] * f) * px + t_x / px, 0.0)

    def stationary(j):
        # p^2 times the derivative of -(r/2) p^2 + (m1 + r p1/2) p + (T1 - r p1^3/2)/p, the
        # objective in p = px up to a constant; r = dmu/dnu, m1 and T1: mu_cum, tail_sq at j+1
        p1, r = seed[j + 1], t.dmu[j] / t.dnu[j]
        p = _real_roots([-r, t.mu_cum[j + 1] + 0.5 * r * p1, 0.0, -(tail_sq[j + 1] - 0.5 * r * p1**3)])
        return 1.0 - (p - p1) / t.dnu[j]

    return _panel_sup("delta1_prime", case, table, t, node_vals, objective, stationary)


@dataclass
class BoundsReport:
    """The basic and improved two-sided estimates for one problem."""

    case: str
    delta: float
    lower_basic: float | None = None
    upper_basic: float | None = None
    delta1: float | None = None
    delta1_prime: float | None = None
    lower_improved: float | None = None
    upper_improved: float | None = None
    argmax_x: dict[str, float] = field(default_factory=dict)
    positivity: str = "positive"  # "positive" | "zero"

    def to_dict(self) -> dict:
        return asdict(self)


def zero_report(case: str) -> BoundsReport:
    """The report of a zero eigenvalue on (0, inf): infinite criterion
    constant, (0, 0) bracket."""
    return BoundsReport(case, math.inf, lower_basic=0.0, upper_basic=0.0, positivity="zero")


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
    if case == "NN":
        # the criterion decides positivity of the spectral gap, but the
        # two-sided bracket belongs to the ND/DN eigenvalue, not the gap
        return BoundsReport(case, d, argmax_x={"delta": xd})
    d1, x1 = delta1(case, table)
    d1p, x1p = delta1_prime(case, table)
    return BoundsReport(
        case=case,
        delta=d,
        lower_basic=1.0 / (4.0 * d),  # finite with 1/delta
        upper_basic=upper,
        delta1=d1,
        delta1_prime=d1p,
        lower_improved=_reciprocal("delta1", d1, table.right_end),
        upper_improved=_reciprocal("delta1_prime", d1p, table.right_end),
        argmax_x={"delta": xd, "delta1": x1, "delta1_prime": x1p},
    )
