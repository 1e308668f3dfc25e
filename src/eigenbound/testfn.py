"""Canonical test functions sampled on a measure grid.

A GridFunction carries node values, node derivatives, and a support window
on the grid of one MeasureTable.  The canonical families (the seed function,
its fractional powers, the localized variants, and centered functions for
the double-Neumann case) all have analytic derivatives, which matters
because the single-integral operator divides by f'; differencing noise there
would wreck the sup/inf extraction.  Where the flux e^C f' is known in
closed form it is stored per panel so Dirichlet energies reduce to exact
scale-measure masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CriterionDegenerateError,
    DivergenceError,
    DomainError,
    RangeError,
)
from .measures import MeasureTable, prefix_integral


@dataclass
class GridFunction:
    """A function sampled on the nodes of a measure table.

    Outside [i_lo, i_hi] the function is identically zero (localized
    decreasing families) or constant (localized increasing families).
    ``panel_flux`` holds e^C f' per panel when it is known analytically.
    """

    table: MeasureTable
    values: np.ndarray
    deriv: np.ndarray
    i_lo: int
    i_hi: int
    panel_flux: np.ndarray | None = field(default=None, repr=False)
    energy_exact: float | None = field(default=None, repr=False)

    def __post_init__(self):
        n = len(self.table.grid)
        if not (0 <= self.i_lo <= self.i_hi <= n - 1):
            raise RangeError("support window outside the grid")
        if len(self.values) != n or len(self.deriv) != n:
            raise ValueError("values/deriv must live on the table nodes")

    @property
    def x(self) -> np.ndarray:
        return self.table.grid

    def interior(self) -> np.ndarray:
        """Indices strictly inside (0, right_end) and inside the support."""
        n = len(self.values)
        idx = np.arange(n)
        return idx[(idx >= max(1, self.i_lo)) & (idx <= min(n - 2, self.i_hi))]

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(
            self.table,
            self.values * c,
            self.deriv * c,
            self.i_lo,
            self.i_hi,
            None if self.panel_flux is None else self.panel_flux * c,
            None if self.energy_exact is None else self.energy_exact * c * c,
        )


def gradient(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a non-uniform grid, one-sided at the ends."""
    n = len(x)
    out = np.empty(n)
    hl = x[1:-1] - x[:-2]
    hr = x[2:] - x[1:-1]
    out[1:-1] = (
        -hr / (hl * (hl + hr)) * y[:-2]
        + (hr - hl) / (hl * hr) * y[1:-1]
        + hl / (hr * (hl + hr)) * y[2:]
    )
    h0, h1 = x[1] - x[0], x[2] - x[1]
    out[0] = (
        -(2 * h0 + h1) / (h0 * (h0 + h1)) * y[0]
        + (h0 + h1) / (h0 * h1) * y[1]
        - h0 / (h1 * (h0 + h1)) * y[2]
    )
    hm, hn = x[-2] - x[-3], x[-1] - x[-2]
    out[-1] = (
        hn / (hm * (hm + hn)) * y[-3]
        - (hm + hn) / (hm * hn) * y[-2]
        + (2 * hn + hm) / (hn * (hm + hn)) * y[-1]
    )
    return out


def seed_function(case: str, table: MeasureTable) -> GridFunction:
    """The canonical starting test function of the approximating procedures.

    ND: the scale-measure tail, decreasing with derivative -e^{-C}.
    DN/NN: the scale-measure head, increasing with derivative +e^{-C}.
    """
    n = len(table.grid)
    if case == "ND":
        if table.nu_divergent:
            raise CriterionDegenerateError(
                "scale mass is flagged infinite, the ND eigenvalue is 0 and "
                "no seed test function exists"
            )
        values = table.nu_tail.copy()
        deriv = -table.exp_negC()
        flux = -np.ones(n - 1)
    elif case in ("DN", "NN"):
        values = table.nu_cum.copy()
        deriv = table.exp_negC()
        flux = np.ones(n - 1)
    else:
        raise ValueError(f"unknown case {case!r}")
    return GridFunction(table, values, deriv, 0, n - 1, flux, table.nu_total())


def power(f: GridFunction, gamma: float) -> GridFunction:
    """f^gamma with the chain-rule derivative; gamma in (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise RangeError("exponent must lie in (0, 1]")
    if gamma == 1.0:
        return GridFunction(f.table, f.values.copy(), f.deriv.copy(), f.i_lo, f.i_hi,
                            None if f.panel_flux is None else f.panel_flux.copy())
    inner = f.interior()
    if np.any(f.values[inner] <= 0):
        i = inner[np.argmax(f.values[inner] <= 0)]
        raise DomainError(f"fractional power of a non-positive value at node x={f.table.grid[i]}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.where(f.values > 0, f.values, 0.0) ** gamma
        dfactor = np.where(f.values > 0, gamma * f.values ** (gamma - 1.0), np.inf)
        deriv = dfactor * f.deriv
        flux = None
        if f.panel_flux is not None:
            flux = f.panel_flux * 0.5 * (dfactor[:-1] + dfactor[1:])
    return GridFunction(f.table, values, deriv, f.i_lo, f.i_hi, flux)


def localized_nd(table: MeasureTable, x0: float, x1: float) -> GridFunction:
    """Localized decreasing family: constant on [0, x0], the scale mass down
    to x1 on [x0, x1], and zero from x1 on."""
    if not (0.0 <= x0 < x1 <= table.right_end):
        raise RangeError("need 0 <= x0 < x1 <= right_end")
    g = table.grid
    # nu(x, x1) at the nodes left of x1: reverse partial sums of the panels,
    # never a difference of cumulative totals
    j, frac = table.locate(x1)
    vals = np.zeros(len(g))
    vals[: j + 1] = np.cumsum(np.append(table.dnu[:j], table.dnu[j] * frac)[::-1])[::-1]
    plateau = table.nu_between(x0, x1)
    inside = (g > x0) & (g < x1)
    values = np.where(g <= x0, plateau, np.where(g < x1, vals, 0.0))
    deriv = np.where(inside, -table.exp_negC(), 0.0)
    i_hi = int(np.searchsorted(g, x1, side="left") - 1)
    flux = np.where((g[:-1] >= x0) & (g[1:] <= x1), -1.0, 0.0)
    return GridFunction(table, values, deriv, 0, max(i_hi, 0), flux, plateau)


def localized_dn(table: MeasureTable, x0: float) -> GridFunction:
    """Localized increasing family: the scale-measure head capped at x0."""
    if not (0.0 < x0 <= table.right_end):
        raise RangeError("need 0 < x0 <= right_end")
    g = table.grid
    cap = table.nu_between(0.0, x0)
    values = np.minimum(table.nu_cum, cap)
    deriv = np.where(g < x0, table.exp_negC(), 0.0)
    i_hi = int(np.searchsorted(g, x0, side="right") - 1)
    flux = np.where(g[1:] <= x0, 1.0, 0.0)
    return GridFunction(table, values, deriv, 0, max(i_hi, 0), flux, cap)


def center(f: GridFunction) -> GridFunction:
    """Subtract the speed-measure average, so the result integrates to zero."""
    table = f.table
    if table.mu_divergent:
        raise DivergenceError("speed mass is flagged infinite, cannot center")
    total = table.mu_total()
    mean = prefix_integral(table, f.values, "mu")[-1] / total
    values = f.values - mean
    n = len(table.grid)
    return GridFunction(table, values, f.deriv.copy(), 0, n - 1,
                        None if f.panel_flux is None else f.panel_flux.copy(),
                        f.energy_exact)


def dirichlet_energy(f: GridFunction) -> float:
    """The quadratic form: integral of e^C f'^2 dx.

    Uses the per-panel flux when available (exact for the canonical
    families, whose flux is piecewise constant or a stored prefix integral);
    otherwise falls back to the trapezoid rule on e^C f'^2.
    """
    t = f.table
    if f.energy_exact is not None:
        return float(f.energy_exact)
    if f.panel_flux is not None:
        return float(np.sum(f.panel_flux**2 * t.dnu))
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(t.Cvals) * f.deriv**2
    widths = t.grid[1:] - t.grid[:-1]
    return float(np.sum(0.5 * (w[:-1] + w[1:]) * widths))


def l2_norm_sq(f: GridFunction) -> float:
    """Integral of f^2 against the speed measure."""
    return float(prefix_integral(f.table, f.values**2, "mu")[-1])

