"""Explicit bound constants and the two-sided basic and improved estimates.

For the ND case the criterion constant is the supremum over x of
mu(0,x) * nu(x,D).  The eigenvalue is positive exactly when the constant is
finite, and then it is bracketed between the reciprocal of the constant and
a quarter of it.  The map x -> D - x swaps the head and tail masses of both
measures, so every DN (and NN) constant is its ND formula evaluated on the
mirrored table, with the argmax mapped back.  The first iteration step
sharpens this to the improved constants delta1 (lower side) and delta1'
(upper side, within [delta, 2*delta]): step 1 of the lower sequence and of
the upper window family of the iterate module, one rule for each constant
whether it is printed alone or as the first of a sequence.

Only delta keeps a panel maximum: a node scan, then the exact maximum on
the two panels around the best node, where tables model each measure as
linear.  delta1 and delta1' are read at node resolution, delta1 at a node
and delta1' at the best window start (DN: cap).  Every table covers a
finite interval, where the constant is finite (tables whose masses
overflow are refused, and so is a node scan that overflows), so it is
infinite only on (0, inf), where the hypothesis probe's mass trace decides
it and zero_report gives the report.

BoundsReport is one record for every case; a case names only the fields it
sets.  NN sets the criterion and its argmax alone, a zero eigenvalue the
(0, 0) bracket; unset fields stay None, with argmax_x {} and "positive".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import iterate
from .errors import DegenerationError
from .measures import MeasureTable, ProblemSpec, TruncationWalk, walk_truncations


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
    same supremum on the mirrored table.  The best node, or a larger value
    on a panel next to it: both measures are linear inside a panel, where
    the product is a concave quadratic, maximal at an end or at its vertex.
    """
    t = _oriented(case, table)
    node_vals = t.mu_cum * t.nu_tail
    k = int(np.nanargmax(node_vals))
    v, x = float(node_vals[k]), float(t.grid[k])
    if not math.isfinite(v):
        raise DegenerationError(f"delta overflowed the float range on (0, {t.right_end:g})")
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(max(k - 1, 0), min(k + 1, t.n_panels)):
            f = [0.0, 1.0]
            if t.dmu[j] > 0 and t.dnu[j] > 0:
                # vertex of the concave (m1 - dmu*g) * (P1 + dnu*g) in g = 1 - f
                f.append(1.0 - 0.5 * (t.mu_cum[j + 1] / t.dmu[j] - t.nu_tail[j + 1] / t.dnu[j]))
            f = np.array(f)
            f = f[(f >= 0) & (f <= 1)]
            vals = (t.mu_cum[j] + t.dmu[j] * f) * (t.dnu[j] * (1.0 - f) + t.nu_tail[j + 1])
            i = int(np.argmax(vals))
            if vals[i] > v:
                v, x = float(vals[i]), float((1.0 - f[i]) * t.grid[j] + f[i] * t.grid[j + 1])
    return v, _back(case, table, x)


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


def _first_step(trace: iterate.IterationTrace) -> tuple[float, float]:
    """A sequence's first constant and where it is attained: a node of the
    lower sequence, a cap of the DN family, the start x0 of an ND window
    (x0, D)."""
    x = trace.pair_locations[0]
    return trace.values[0], x[0] if isinstance(x, tuple) else x


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
    case: str,
    table: MeasureTable,
    criterion: tuple[float, float] | None = None,
    sequences: tuple[iterate.IterationTrace, iterate.IterationTrace] | None = None,
) -> BoundsReport:
    """Criterion constant, basic bracket, and the first-step improvements.

    ``criterion`` is delta(case, table) when the caller already has it (the
    last result of a settle_delta walk); it is computed otherwise.  delta1
    and delta1' are step 1 of the lower sequence and of the upper window
    family: ``sequences`` is that (lower, upper) pair when the caller has
    run them (verify, to n_max); both run to n_max = 1 otherwise.  For the
    double-Neumann case only the criterion applies (it decides positivity of
    the spectral gap); the improved constants describe the ND/DN eigenvalue
    and are left unset there.
    """
    d, xd = criterion if criterion is not None else delta(case, table)
    if case == "NN":
        # the criterion decides positivity of the spectral gap, but the
        # two-sided bracket belongs to the ND/DN eigenvalue, not the gap,
        # and so does 1/delta
        return BoundsReport(case, d, argmax_x={"delta": xd})
    upper = _reciprocal("delta", d, table.right_end)
    low, up = sequences or (iterate.lower_sequence(case, table, 1), iterate.upper_sequence(case, table, 1))
    d1, x1 = _first_step(low)
    d1p, x1p = _first_step(up)
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
