"""The single- and double-integral transforms of a test function.

Both transforms are evaluated pointwise on the measure grid.  Their key
property: the reciprocal of either transform at the eigenfunction is constant
and equals the principal eigenvalue, and for any admissible test function the
reciprocal of its supremum is a lower bound.

Both are written for ND only: the DN transforms of f are the ND ones of
f.mirrored(), read backwards.

Double integrals are never nested quadrature: the inner integral of f
against the speed measure is one prefix pass, the outer scale-measure
integral a suffix pass, so one operator application costs O(grid).  Nodes
where the defining ratio degenerates (f' = 0 on a flat stretch, f = 0 at an
endpoint) carry an infinite marker and sit outside the evaluation window,
matching the 1/0 = infinity convention of the sup/inf extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerationError, DomainError
from .measures import prefix_integral, suffix_integral
from .testfn import GridFunction


@dataclass
class OperatorValue:
    """Pointwise operator values with the window they are valid on."""

    values: np.ndarray  # +inf marker outside the window
    window: np.ndarray  # boolean mask
    sup: float


def _finalize(kind: str, values: np.ndarray, window: np.ndarray) -> OperatorValue:
    if not window.any():
        raise DegenerationError(f"{kind}: empty evaluation window")
    return OperatorValue(np.where(window, values, np.inf), window, float(np.max(values[window])))


def single_integral_form(f: GridFunction) -> OperatorValue:
    """-e^{-C}/f' times the head integral of f d(mu).

    The window keeps the nodes where f' is negative; nodes with f' = 0 carry
    the infinite marker, and so do nodes with a wrong-signed derivative.
    """
    table = f.table
    inner = prefix_integral(table, f.values, "mu")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = -table.exp_negC() / f.deriv * inner
    window = (f.deriv < 0) & np.isfinite(values)
    return _finalize("single_integral", values, window)


def double_integral_form(f: GridFunction) -> tuple[OperatorValue, GridFunction]:
    """The double-integral transform and the product iterate f * (transform).

    (1/f(x)) times the integral over (x, right end) of d(nu) of the head
    integral of f d(mu).  The product function comes back with its analytic
    derivative, -e^{-C} times the inner integral, ready to be the next
    iterate.
    """
    table = f.table
    inner = prefix_integral(table, f.values, "mu")
    product_vals = suffix_integral(table, inner, "nu")
    product_deriv = -table.exp_negC() * inner

    positive = f.values > 0
    if not positive[1:-1].all():
        i = 1 + int(np.argmin(positive[1:-1]))
        raise DomainError(f"test function not positive at interior node x={table.grid[i]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = product_vals / f.values
    # at an endpoint where f vanishes the ratio is excluded by positivity
    window = positive & np.isfinite(values)
    op = _finalize("double_integral", values, window)
    return op, GridFunction(table, product_vals, product_deriv)
