"""The single- and double-integral transforms of a test function.

Both transforms are evaluated pointwise on the measure grid.  Their key
property: the reciprocal of either transform at the eigenfunction is constant
and equals the principal eigenvalue, and for any admissible test function the
reciprocal of its supremum is a lower bound.

Double integrals are never nested quadrature: the inner integral of f
against the speed measure is one prefix (ND) or suffix (DN) pass, the outer
scale-measure integral is a second pass, so one operator application costs
O(grid).  Nodes where the defining ratio degenerates (f' = 0 outside the
support window, f = 0 at an endpoint) carry an infinite marker and sit
outside the evaluation window, matching the 1/0 = infinity convention of
the sup/inf extraction.
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

    kind: str
    x: np.ndarray
    values: np.ndarray  # +inf marker outside the window
    window: np.ndarray  # boolean mask
    inf: float
    sup: float
    argmin_x: float
    argmax_x: float


def _finalize(kind: str, x: np.ndarray, values: np.ndarray, window: np.ndarray) -> OperatorValue:
    if not window.any():
        raise DegenerationError(f"{kind}: empty evaluation window")
    vals = np.where(window, values, np.inf)
    wvals = values[window]
    wx = x[window]
    imin = int(np.argmin(wvals))
    imax = int(np.argmax(wvals))
    return OperatorValue(
        kind=kind,
        x=x,
        values=vals,
        window=window,
        inf=float(wvals[imin]),
        sup=float(wvals[imax]),
        argmin_x=float(wx[imin]),
        argmax_x=float(wx[imax]),
    )


def single_integral_form(case: str, f: GridFunction, *, strict_sign: bool = True) -> OperatorValue:
    """ND: -e^{-C}/f' times the head integral of f d(mu); DN: +e^{-C}/f'
    times the tail integral.

    The window keeps nodes where f' has the admissible sign (negative for
    ND, positive for DN); nodes with f' = 0 carry the infinite marker.  With
    strict_sign, a wrong-signed derivative at an interior support node is a
    domain error rather than a silent exclusion.
    """
    table = f.table
    x = table.grid
    expneg = table.exp_negC()
    if case == "ND":
        inner = prefix_integral(table, f.values, "mu")
        good = f.deriv < 0
        wrong = f.deriv > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = -expneg / f.deriv * inner
    elif case == "DN":
        inner = suffix_integral(table, f.values, "mu")
        good = f.deriv > 0
        wrong = f.deriv < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = expneg / f.deriv * inner
    else:
        raise ValueError("single integral form is oriented: case must be ND or DN")
    idx = np.arange(len(x))
    if strict_sign:
        interior = (idx > f.i_lo) & (idx < f.i_hi)
        if np.any(wrong & interior):
            i = int(np.flatnonzero(wrong & interior)[0])
            raise DomainError(
                f"derivative has the wrong sign for {case} at interior node x={x[i]}"
            )
    # flat stretches outside the support window have f' = 0 and carry the
    # infinite marker by the 1/0 convention
    window = good & np.isfinite(values)
    return _finalize("single_integral", x, values, window)


def double_integral_form(case: str, f: GridFunction) -> tuple[OperatorValue, GridFunction]:
    """The double-integral transform and the product iterate f * (transform).

    ND: (1/f(x)) int over (x, end of support) of d(nu) of the head integral
    of f d(mu); DN: (1/f(x)) int over (0, x) of d(nu) of the tail integral.
    The product function comes back with its analytic derivative, the
    +-e^{-C} times the inner integral, ready to be the next iterate.
    """
    table = f.table
    x = table.grid
    n = len(x)
    idx = np.arange(n)
    expneg = table.exp_negC()
    if case == "ND":
        inner = prefix_integral(table, f.values, "mu")
        terms = table.nu_wL * inner[:-1] + table.nu_wR * inner[1:]
        # the outer integral stops where the support does: panels whose left
        # node is inside [i_lo, i_hi] reach exactly up to the cutoff point
        terms = np.where(np.arange(n - 1) <= f.i_hi, terms, 0.0)
        product_vals = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
        product_deriv = -expneg * inner
    elif case == "DN":
        inner = suffix_integral(table, f.values, "mu")
        terms = table.nu_wL * inner[:-1] + table.nu_wR * inner[1:]
        product_vals = np.concatenate([[0.0], np.cumsum(terms)])
        product_deriv = expneg * inner
    else:
        raise ValueError("double integral form is oriented: case must be ND or DN")

    positive = f.values > 0
    interior = (idx > f.i_lo) & (idx < f.i_hi)
    nonpos = interior & ~positive
    if np.any(nonpos):
        i = int(np.flatnonzero(nonpos)[0])
        raise DomainError(f"test function not positive at interior node x={x[i]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = product_vals / f.values
    # beyond a decreasing support the values are zero (excluded by
    # positivity); beyond an increasing cap they stay positive and the
    # transform remains defined, so the window is positivity-driven
    window = positive & np.isfinite(values)
    op = _finalize("double_integral", x, values, window)
    product = GridFunction(table, product_vals, product_deriv, f.i_lo, f.i_hi)
    return op, product
