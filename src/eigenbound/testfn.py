"""Canonical test functions sampled on a measure grid.

A GridFunction carries node values and node derivatives on the grid of one
MeasureTable.  The seed function and its fractional powers have analytic
derivatives, which matters because the single-integral operator divides by
f'; differencing noise there would wreck the sup/inf extraction.  Test
functions are ND-oriented: a DN test function is the ND one of the mirrored
table, and GridFunction.mirrored() moves a function between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .measures import MeasureTable


@dataclass
class GridFunction:
    """A function sampled on the nodes of a measure table."""

    table: MeasureTable
    values: np.ndarray
    deriv: np.ndarray

    def __post_init__(self):
        if not len(self.values) == len(self.deriv) == len(self.table.grid):
            raise ValueError("values/deriv must live on the table nodes")

    def mirrored(self) -> "GridFunction":
        """The same function on the mirrored table, x -> right_end - x."""
        return GridFunction(self.table.mirrored(), self.values[::-1].copy(), -self.deriv[::-1])


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


def seed_function(table: MeasureTable) -> GridFunction:
    """The canonical starting test function of the approximating procedures:
    the scale-measure tail, decreasing with derivative -e^{-C}."""
    return GridFunction(table, table.nu_tail.copy(), -table.exp_negC())


def power(f: GridFunction, gamma: float) -> GridFunction:
    """f^gamma with the chain-rule derivative; gamma in (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise RangeError("exponent must lie in (0, 1]")
    if gamma == 1.0:
        return GridFunction(f.table, f.values.copy(), f.deriv.copy())
    nonpos = f.values[1:-1] <= 0
    if np.any(nonpos):
        i = 1 + int(np.argmax(nonpos))
        raise DomainError(f"fractional power of a non-positive value at node x={f.table.grid[i]}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.where(f.values > 0, f.values, 0.0) ** gamma
        dfactor = np.where(f.values > 0, gamma * f.values ** (gamma - 1.0), np.inf)
        deriv = dfactor * f.deriv
    return GridFunction(f.table, values, deriv)
