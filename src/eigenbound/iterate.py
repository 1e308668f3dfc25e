"""Approximating procedures: monotone sequences of certified bounds.

The lower sequence iterates f -> f * II(f), II the double-integral
transform, starting from the square root of the scale tail nu(x, D); the
supremum of the transform is non-increasing in n and each reciprocal is a
lower bound.  The lower and centered sequences take each transform from
measures.prefix_integral and measures.suffix_integral, the package's one
transform kernel; the window evaluator below is its window-local form.  The upper
sequences run the same iteration inside one localized family, the ND
windows (x0, D) whose end is pinned at D, take the window infimum, and
maximize over the family; reciprocals are upper bounds.  The DN cap is
that ND window on the mirrored table.  Every lower and upper sequence is
written for ND: DN runs it on the mirrored table and reads its caps back
off the original grid.  The double-Neumann sequence centers each iterate
against the speed measure and tracks the ratio of successive tail
integrals, the numerically stable form of the single-integral transform.
A trace carries the constants, their direction, and only what the reports
print beside them: the companions dbar_n and best window per step (ND),
the best cap per step (DN), and the sign changes and notes of the centered
sequence.

Iterates are renormalized to sup-norm one each step; the transforms are
scale-invariant, so this only prevents magnitude drift.  The outer
optimization scans a coarse candidate set snapped to table nodes, then
halves a local 5-point refinement step around the best member down to
single-node resolution.  A window (x_i0, D) costs O((M - i0) * n_max): the
iterate is constant on the plateau [0, x_i0], so the plateau enters each
transform as one prefix sum read at i0, and per-node work runs on the
window's own nodes.  The prefix sums, the start nu(x, D) every window
shares and its first-step terms are built once per search; only the ND
search, whose dbar_n is printed, computes the Rayleigh companion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerationError, DomainError
from .measures import MeasureTable, _suffix_from_panels, prefix_integral, suffix_integral


@dataclass
class IterationTrace:
    """One bound sequence with its direction and per-step diagnostics."""

    values: list[float]
    monotonicity: str
    companion_dbar: list[float] | None = None
    pair_locations: list[tuple[float, float]] | list[float] | None = None
    sign_changes: list[float] | None = None
    notes: list[str] = field(default_factory=list)

    def bounds(self) -> list[float]:
        """Reciprocals of the sequence values (the certified eigenvalue bounds)."""
        return [1.0 / v if v > 0 else float("inf") for v in self.values]


def monotone_verdict(values: list[float], eps_bound: float) -> str:
    """The direction of a sequence, each step allowed 10 * eps_bound against it."""
    slack = 10 * eps_bound
    if len(values) < 2:
        return "single"
    down = all(b <= a + slack for a, b in zip(values, values[1:]))
    up = all(b >= a - slack for a, b in zip(values, values[1:]))
    if down and up:
        return "constant"
    if down:
        return "non-increasing"
    if up:
        return "non-decreasing"
    return "mixed"


def lower_sequence(case: str, table: MeasureTable, n_max: int) -> IterationTrace:
    """Lower-bound constants from iterating the square root of the seed,
    until two successive constants agree to the bound tolerance relatively;
    DN runs as ND on the mirrored table, whose node k is node M - k here.

    One step maps f to its product f * II(f) = int_x^D dnu int_0^y f dmu, a
    prefix pass against mu and a suffix pass against nu, and takes the sup
    of the ratio over the nodes where f > 0 and the ratio is finite.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if case not in ("ND", "DN"):
        raise ValueError("lower sequence is defined for the ND and DN cases")
    eps = table.problem.tolerances.bound_refine
    oriented, grid = (table.mirrored(), table.grid[::-1]) if case == "DN" else (table, table.grid)
    f = np.sqrt(oriented.nu_tail)
    values: list[float] = []
    for n in range(1, n_max + 1):
        positive = f > 0
        if not positive[1:-1].all():
            i = 1 + int(np.argmin(positive[1:-1]))
            raise DomainError(f"test function not positive at interior node x={grid[i]} (step {n})")
        product = suffix_integral(oriented, prefix_integral(oriented, f, "mu"), "nu")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = product / f
        window = positive & np.isfinite(ratio)
        if not window.any():
            raise DegenerationError(f"double integral: empty evaluation window (step {n})")
        values.append(float(np.max(ratio[window])))
        bad = np.flatnonzero(product[1:-1] <= 0)
        if bad.size:
            raise DegenerationError(
                f"iterate lost positivity at node x={grid[bad[0] + 1]} (step {n})"
            )
        if n >= 2 and abs(values[-1] - values[-2]) <= eps * abs(values[-1]):
            break
        f = product * (1.0 / np.max(product))
    return IterationTrace(values=values, monotonicity=monotone_verdict(values, eps))


# ---------------------------------------------------------------------------
# Localized upper sequences


# coarse candidates per family, and the least number of refinement rounds
_COARSE = 32
_REFINE_ROUNDS = 7


def _index_candidates(lo: int, hi: int, count: int) -> np.ndarray:
    return np.linspace(lo, hi, min(count, hi - lo + 1)).round().astype(int)  # distinct: the step is >= 1


def _window_evaluator(table: MeasureTable, n_max: int, companion: bool):
    """The localized ND iteration of ``table`` on the windows (x_i0, D), the
    only ones a search visits, as ``eval_window(i0)``.

    Built once per search: S[i], the speed mass of (0, x_i) as the
    cumulative sum of the panel weights; W[j] = mu_wL[j] + mu_wR[j-1], the
    speed weight of node j in the companion's quadrature; T[i] = nu(x_i, D),
    a reverse partial sum of the panels whose tail T[i0:] (never written)
    starts window i0; and P, the panel terms of T its first step reads.
    """
    m = table.n_panels
    mu_wL, mu_wR = table.mu_wL, table.mu_wR
    nu_wL, nu_wR, dnu = table.nu_wL, table.nu_wR, table.dnu
    S = np.zeros(m + 1)
    np.cumsum(mu_wL + mu_wR, out=S[1:])
    W = mu_wL.copy()
    W[1:] += mu_wR[:-1]
    T = _suffix_from_panels(dnu)
    P = mu_wL * T[:m] + mu_wR * T[1:]

    def eval_window(i0: int):
        """Localized ND iteration on the node window (i0, M).

        Returns the per-step window infima and, with ``companion``, their
        Rayleigh-quotient companions.  The iterate is a constant c on the
        plateau [0, x_i0], decreasing on the window and zero at D: the
        plateau enters F as c * S[i0] and the companion's numerator as
        c^2 * S[i0].  The second transform G is a reverse cumulative sum of
        non-negative terms, so the iterate never increases: the scale is
        G[i0], no plateau node has a smaller ratio than i0, and the iterate
        is positive on the window exactly when it is at node M - 1.  The
        last step only checks the scale; nothing reads its renormalization.
        """
        L = m - i0
        wL, wR = mu_wL[i0:], mu_wR[i0:]
        gL, gR = nu_wL[i0:], nu_wR[i0:]
        v = T[i0:]  # the iterate on nodes i0..M; v[L] = 0 at D
        energy = float(v[0])  # unit flux on the window
        terms = np.empty(L + 1)
        F = np.empty(L + 1)
        infs, dbars = [], []
        for n in range(n_max):
            c = float(v[0])
            if companion:
                numer = c * c * (S[i0] + wL[0]) + W[i0 + 1 :] @ (v[1:L] * v[1:L])
                dbars.append(float(numer) / energy if energy > 0 else 0.0)
            terms[0] = c * S[i0]
            if n == 0:
                terms[1:] = P[i0:]
            else:
                np.add(wL * v[:L], wR * v[1:], out=terms[1:])
            np.add.accumulate(terms, out=F)
            G = np.add.accumulate((gL * F[:L] + gR * F[1:])[::-1])[::-1]
            if v[L - 1] > 0:
                ratio = G / v[:L]
            else:
                ratio = np.divide(G, v[:L], out=np.full(L, np.inf), where=v[:L] > 0)
            infs.append(float(ratio.min()))
            scale = float(G[0])
            if not scale > 0:
                raise DegenerationError(f"localized iterate vanished on window ({i0}, {m})")
            if n + 1 == n_max:
                break
            # renormalize for the next step; the plateau takes the value at i0
            v = np.zeros(L + 1)
            np.divide(G, scale, out=v[:L])
            if companion:
                flux = (0.5 / scale) * (F[:L] + F[1:])
                energy = float((flux * dnu[i0:]) @ flux)
        return infs, dbars

    return eval_window


def _family_sup(table: MeasureTable, n_max: int, start_of, lo: int, hi: int, companion: bool):
    """Sup over the ND windows (x_i0, D) of ``table`` of each step's infimum.

    Members are node indices k in [lo, hi], the window starting at node
    ``start_of(k)``.  The coarse scan covers _COARSE members; each
    refinement round halves the step and rescans a 5-point neighbourhood of
    each step's best member, for _REFINE_ROUNDS rounds and then on until the
    step is one node.  Ties go to the member visited first.
    Returns per step the best value, member and companion sup (-inf if none).
    """
    eval_window = _window_evaluator(table, n_max, companion)
    best_val = [-np.inf] * n_max
    best_at = [lo] * n_max
    best_dbar = [-np.inf] * n_max
    seen: set[int] = set()

    def consider(k):
        k = int(k)
        if k in seen:
            return
        seen.add(k)
        infs, dbars = eval_window(start_of(k))
        for n in range(n_max):
            if infs[n] > best_val[n]:
                best_val[n] = infs[n]
                best_at[n] = k
        for n, dbar in enumerate(dbars):
            if dbar > best_dbar[n]:
                best_dbar[n] = dbar

    cands = _index_candidates(lo, hi, _COARSE)
    for k in cands:
        consider(k)
    step = int(cands[1] - cands[0]) if len(cands) > 1 else 1
    rounds = 0
    while rounds < _REFINE_ROUNDS or step > 1:
        step = max(1, step // 2)
        for b in dict.fromkeys(best_at):
            for k in _index_candidates(max(lo, b - 2 * step), min(hi, b + 2 * step), 5):
                consider(k)
        rounds += 1
    return best_val, best_at, best_dbar


def upper_sequence_nd(table: MeasureTable, n_max: int) -> IterationTrace:
    """Upper-bound constants: sup over the windows (x0, D) of the window infimum.

    Window starts are snapped to table nodes; the outer sup scans 32 starts
    and then halves a local 5-point refinement step around the best start
    of each step down to single-node resolution.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    best_val, best_start, best_dbar = _family_sup(table, n_max, lambda i0: i0, 0, table.n_panels - 1, True)
    D = float(table.grid[-1])
    return IterationTrace(
        values=best_val,
        monotonicity=monotone_verdict(best_val, table.problem.tolerances.bound_refine),
        companion_dbar=best_dbar,
        pair_locations=[(float(table.grid[i0]), D) for i0 in best_start],
    )


def upper_sequence_dn(table: MeasureTable, n_max: int) -> IterationTrace:
    """Upper-bound constants for DN: sup over cap locations of the infimum.

    The DN family capped at node c is the ND window (M - c, M) of the
    mirrored table, so DN runs the ND search there, indexed by cap so that
    ties go to the smallest cap; cap locations are read back off this
    table's grid by index.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = table.n_panels
    best_val, best_cap, _ = _family_sup(table.mirrored(), n_max, lambda c: m - c, 1, m, False)
    return IterationTrace(
        values=best_val,
        monotonicity=monotone_verdict(best_val, table.problem.tolerances.bound_refine),
        pair_locations=[float(table.grid[c]) for c in best_cap],
    )


def eta_sequence(table: MeasureTable, n_max: int) -> IterationTrace:
    """The centered double-Neumann sequence bounding the spectral gap from below.

    Uses the ratio of successive centered tail integrals, the numerically
    stable equivalent of the single-integral transform (whose denominator
    derivative vanishes exactly where the iterate peaks).  The direction of
    the sequence is recorded empirically rather than asserted: both
    directions have been claimed for it, and the bound 1/eta_n is valid
    either way.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    grid = table.grid
    n_nodes = len(grid)
    mu_total = table.mu_total()

    def centered(vals: np.ndarray) -> np.ndarray:
        return vals - prefix_integral(table, vals, "mu")[-1] / mu_total

    def first_sign_change(vals: np.ndarray) -> float:
        sgn = np.sign(vals)
        flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
        return float(grid[flips[0]]) if flips.size else float("nan")

    s = np.sqrt(table.nu_cum)
    fbar = centered(s)
    if float(np.max(np.abs(fbar))) == 0.0:
        raise DegenerationError("centered seed vanishes identically")
    suf_prev = suffix_integral(table, fbar, "mu")

    # first step by the single-integral form with the analytic derivative
    with np.errstate(divide="ignore", invalid="ignore"):
        vals1 = 2.0 * s * suf_prev
    interior = np.arange(1, n_nodes - 1)
    values = [float(np.max(vals1[interior]))]
    sign_changes = [first_sign_change(fbar)]
    notes: list[str] = []

    scale = float(np.max(np.abs(fbar)))
    fbar = fbar / scale
    suf_prev = suf_prev / scale

    for n in range(2, n_max + 1):
        fbar_next = centered(prefix_integral(table, suf_prev, "nu"))
        suf_next = suffix_integral(table, fbar_next, "mu")
        # rounding bound of the reverse cumsum that produced suf_prev: tiny
        # where the speed density underflows, about eps * total near 0
        spread = np.abs(table.mu_wL * fbar[:-1] + table.mu_wR * fbar[1:])
        floor = 64 * np.finfo(float).eps * np.cumsum(spread[::-1])[::-1]
        window = interior[np.abs(suf_prev[interior]) > floor[interior]]
        if window.size < 0.98 * interior.size:
            raise DegenerationError(
                "tail integral of the previous centered iterate vanishes on "
                f"{interior.size - window.size} interior nodes; ratio window collapsed"
            )
        if window.size < interior.size:
            notes.append(
                f"step {n}: ratio window shrank by {interior.size - window.size} nodes"
            )
        ratios = suf_next[window] / suf_prev[window]
        values.append(float(np.max(ratios)))
        sign_changes.append(first_sign_change(fbar_next))
        scale = float(np.max(np.abs(fbar_next)))
        if not scale > 0:
            raise DegenerationError(f"centered iterate vanished at step {n}")
        fbar = fbar_next / scale
        suf_prev = suf_next / scale

    direction = monotone_verdict(values, table.problem.tolerances.bound_refine)
    notes.append(f"empirical direction of the sequence: {direction}")
    return IterationTrace(values=values, monotonicity=direction, sign_changes=sign_changes, notes=notes)
