"""Canonical test functions sampled on a measure grid.

A GridFunction carries node values, node derivatives, and a support window
on the grid of one MeasureTable.  The seed function and its fractional powers
have analytic derivatives, which matters because the single-integral operator
divides by f'; differencing noise there would wreck the sup/inf extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CriterionDegenerateError, DomainError, RangeError
from .measures import MeasureTable


@dataclass
class GridFunction:
    """A function sampled on the nodes of a measure table.

    Outside [i_lo, i_hi] the function is identically zero (decreasing
    functions) or constant (increasing functions).
    """

    table: MeasureTable
    values: np.ndarray
    deriv: np.ndarray
    i_lo: int
    i_hi: int

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
        return GridFunction(self.table, self.values * c, self.deriv * c, self.i_lo, self.i_hi)


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
    elif case in ("DN", "NN"):
        values = table.nu_cum.copy()
        deriv = table.exp_negC()
    else:
        raise ValueError(f"unknown case {case!r}")
    return GridFunction(table, values, deriv, 0, n - 1)


def power(f: GridFunction, gamma: float) -> GridFunction:
    """f^gamma with the chain-rule derivative; gamma in (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise RangeError("exponent must lie in (0, 1]")
    if gamma == 1.0:
        return GridFunction(f.table, f.values.copy(), f.deriv.copy(), f.i_lo, f.i_hi)
    inner = f.interior()
    if np.any(f.values[inner] <= 0):
        i = inner[np.argmax(f.values[inner] <= 0)]
        raise DomainError(f"fractional power of a non-positive value at node x={f.table.grid[i]}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.where(f.values > 0, f.values, 0.0) ** gamma
        dfactor = np.where(f.values > 0, gamma * f.values ** (gamma - 1.0), np.inf)
        deriv = dfactor * f.deriv
    return GridFunction(f.table, values, deriv, f.i_lo, f.i_hi)
