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
print beside them: the argmax node per step of the lower sequence, the
companions dbar_n and best window per step (ND), the best cap per step
(DN), and the sign changes and notes of the centered sequence.  Step 1 of
the lower and upper sequences is what bounds reports as delta1 and delta1'.

Step 1 of an upper sequence is the maximum over every window start: one
scan gives the first infimum (and ND's companion) of all M windows in
O(M log M), with no window evaluated.  Steps from 2 on come from a search,
which runs only for n_max >= 2.  Iterates are renormalized to sup-norm one
each step; the transforms are scale-invariant, so this only prevents
magnitude drift.  The search scans a coarse candidate set snapped to table
nodes, then halves a local 5-point refinement step around the best member
of each step from 2 on, down to single-node resolution.  A window (x_i0, D)
costs O((M - i0) * n_max): the iterate is constant on the plateau [0, x_i0], so
the plateau enters each transform as one prefix sum read at i0, and
per-node work runs on the window's own nodes.  The prefix sums, the start
nu(x, D) every window shares and its first-step terms are built once per
table, for the scan and the search; the work arrays every window runs in
once per search, and a window writes every slice of those arrays it reads
before reading it.  A step is a few per-node passes, most of its time the
two sequential cumsums.  Only the ND family, whose dbar_n is printed,
computes the Rayleigh companion.
"""

from __future__ import annotations

import math
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
    of the ratio over the nodes where f > 0 and the ratio is finite; the
    trace's pair_locations holds each step's argmax node, the first one on
    ties in the oriented order.  The start is scaled by a power of two, which
    changes no bit of the ratios but keeps the products of a tiny interval,
    of order D^2 times the start, above the float range's floor.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if case not in ("ND", "DN"):
        raise ValueError("lower sequence is defined for the ND and DN cases")
    eps = table.problem.tolerances.bound_refine
    oriented, grid = (table.mirrored(), table.grid[::-1]) if case == "DN" else (table, table.grid)
    f = np.sqrt(oriented.nu_tail)
    f = np.ldexp(f, -np.frexp(f[0])[1])  # the seed over a power of two near its max, exactly
    values: list[float] = []
    argmax: list[float] = []
    for n in range(1, n_max + 1):
        positive = f > 0
        if not positive[1:-1].all():
            i = 1 + int(np.argmin(positive[1:-1]))
            raise DomainError(f"test function not positive at interior node x={grid[i]} (step {n})")
        product = suffix_integral(oriented, prefix_integral(oriented, f, "mu"), "nu")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = product / f
        ratio[~(positive & np.isfinite(ratio))] = -np.inf
        k = int(np.argmax(ratio))
        if ratio[k] == -np.inf:
            raise DegenerationError(f"double integral: empty evaluation window (step {n})")
        values.append(float(ratio[k]))
        argmax.append(float(grid[k]))
        bad = np.flatnonzero(product[1:-1] <= 0)
        if bad.size:
            raise DegenerationError(
                f"iterate lost positivity at node x={grid[bad[0] + 1]} (step {n})"
            )
        if n == n_max or (n >= 2 and abs(values[-1] - values[-2]) <= eps * abs(values[-1])):
            break
        top = float(np.max(product))
        if 1.0 / top == math.inf:
            raise DegenerationError(f"iterate maximum {top!r} has no finite reciprocal (step {n})")
        f = product * (1.0 / top)
    return IterationTrace(values=values, monotonicity=monotone_verdict(values, eps), pair_locations=argmax)


# ---------------------------------------------------------------------------
# Localized upper sequences


# coarse candidates per family, and the least number of refinement rounds
_COARSE = 32
_REFINE_ROUNDS = 7


def _index_candidates(lo: int, hi: int, count: int) -> list[int]:
    # np.linspace(lo, hi, count).round(), the last pinned to hi; distinct: the step is >= 1
    count = min(count, hi - lo + 1)
    step = (hi - lo) / max(count - 1, 1)
    return [round(i * step + lo) for i in range(count - 1)] + [hi if count > 1 else lo]


def _window_arrays(table: MeasureTable) -> tuple:
    """What every window (x_i0, D) of ``table`` shares, built once per table:
    (S, W, T, e, P).

    S[i], the speed mass of (0, x_i) as the cumulative sum of the panel
    weights; W[j] = mu_wL[j] + mu_wR[j-1], the speed weight of node j in the
    companion's quadrature; T[i] = nu(x_i, D) over 2^e, a power of two near
    nu(0, D), a reverse partial sum of the panels whose tail T[i0:] starts
    window i0, scaled exactly so that a tiny or huge interval's transforms
    stay in the float range; and P[p] = mu_wL[p] T[p] + mu_wR[p] T[p+1], the
    panel terms of T that every window's first step reads.
    """
    m = table.n_panels
    mu_wL, mu_wR = table.mu_wL, table.mu_wR
    S = np.zeros(m + 1)
    np.cumsum(mu_wL + mu_wR, out=S[1:])
    W = mu_wL.copy()
    W[1:] += mu_wR[:-1]
    T = _suffix_from_panels(table.dnu)
    e = int(np.frexp(T[0])[1])
    np.ldexp(T, -e, out=T)
    P = mu_wL * T[:m] + mu_wR * T[1:]
    return S, W, T, e, P


def _first_step_scan(table: MeasureTable, arrays: tuple, companion: bool):
    """Step 1 of the localized ND iteration of ``table`` at every window
    start at once: the infimum of window (x_i, D) for i = 0..M-1 and, with
    ``companion``, its Rayleigh companion (None without), in O(M log M)
    with no window evaluated.

    Window i's first transform at node j >= i is
    N[j] (T[i] S[i] + P[i:j].sum()) + H[j], with N[j] the scale mass of
    (x_j, D) as the suffix sums of nu_wL + nu_wR, and H[j] = H[j+1] +
    P[j] (nu_wR[j] + N[j+1]) the panels right of j.  With N[j] = 2^e T[j],
    its ratio to T[j] is 2^e T[i] S[i] + 2^e P[i:j].sum() + H[j] / T[j], and
    the infimum over j >= i is 2^e T[i] S[i] + low[i], where
    low[i] = min(H[i] / T[i], 2^e P[i] + low[i+1]).  That backward min-plus
    recursion runs by doubling, in log2(M) vector passes: after the pass of
    stride s, low holds each start's minimum over its next 2s nodes and c
    each start's sum of 2s panel terms.  Every term is >= 0, so nothing
    cancels.  A node with T[j] = 0 is skipped, as the window evaluator skips
    it.  The infimum is NaN where the window's transform vanishes at its
    start, T[i] S[i] N[i] + H[i], a window the evaluator refuses.
    """
    S, W, T, e, P = arrays
    m = table.n_panels
    nu_wR = table.nu_wR
    N = _suffix_from_panels(table.nu_wL + nu_wR)
    H = _suffix_from_panels(P * (nu_wR + N[1:]))
    Tm, TS = T[:m], T[:m] * S[:m]
    low = np.full(m, np.inf)
    np.divide(H[:m], Tm, out=low, where=Tm > 0)
    c = np.ldexp(P, e)
    s = 1
    while s < m:
        low[:-s] = np.minimum(low[:-s], c[:-s] + low[s:])
        c[:-s] = c[:-s] + c[s:]
        s *= 2
    infs = np.ldexp(TS, e) + low
    infs[~(TS * N[:m] + H[:m] > 0)] = np.nan
    if not companion:
        return infs, None
    # numerator T[i]^2 (S[i] + mu_wL[i]) + sum of W[j] T[j]^2 over j > i; flux 2^-e T[i]
    tail = _suffix_from_panels(W * (Tm * Tm))
    numer = Tm * Tm * (S[:m] + table.mu_wL) + tail[1:]
    energy = np.ldexp(Tm, -e)
    dbars = np.zeros(m)
    np.divide(numer, energy, out=dbars, where=energy > 0)
    return infs, dbars


def _window_evaluator(table: MeasureTable, n_max: int, companion: bool, arrays: tuple):
    """The localized ND iteration of ``table`` on the windows (x_i0, D), the
    only ones a search visits, as ``eval_window(i0)``.

    It runs on ``arrays``, the _window_arrays of ``table`` (T[i0:] never
    written), and in seven work arrays of length M + 1 built once per
    search.  Window i0 runs in their leading L + 1 = M - i0 + 1 entries and
    writes every slice it reads before reading it, so no window sees
    another's numbers.  What is left is a few per-node passes a step, the
    two sequential cumsums the most of them.
    """
    m = table.n_panels
    mu_wL, mu_wR = table.mu_wL, table.mu_wR
    nu_wL, nu_wR, dnu = table.nu_wL, table.nu_wR, table.dnu
    S, W, T, e, P = arrays
    terms, F, left, right, G, ratio, u = (np.empty(m + 1) for _ in range(7))

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
        wL, wR, gL, gR, d = mu_wL[i0:], mu_wR[i0:], nu_wL[i0:], nu_wR[i0:], dnu[i0:]
        t, f, g, r, lw, rw = terms[: L + 1], F[: L + 1], G[:L], ratio[:L], left[:L], right[:L]
        t1, F0, F1, g_rev, W1, sq = t[1:], f[:L], f[1:], g[::-1], W[i0 + 1 :], lw[: L - 1]
        v0, v1, vin = T[i0:m], T[i0 + 1 :], T[i0 + 1 : m]  # v[:L], v[1:], v[1:L] of the first step
        u0, u1, uin = u[:L], u[1 : L + 1], u[1:L]  # and of each later one
        u[L] = 0.0  # the iterate is zero at D
        energy = math.ldexp(float(v0[0]), -e)  # flux 2^-e on the window
        infs, dbars = [], []
        for n in range(n_max):
            c = float(v0[0])
            if companion:
                numer = c * c * (S[i0] + wL[0]) + W1 @ np.multiply(vin, vin, out=sq)
                dbars.append(float(numer) / energy if energy > 0 else 0.0)
            t[0] = c * S[i0]
            if n == 0:
                t1[:] = P[i0:]
            else:
                np.add(np.multiply(wL, v0, out=lw), np.multiply(wR, v1, out=rw), out=t1)
            np.add.accumulate(t, out=f)
            np.add(np.multiply(gL, F0, out=lw), np.multiply(gR, F1, out=rw), out=lw)
            np.add.accumulate(lw[::-1], out=g_rev)
            if v0[L - 1] > 0:
                np.divide(g, v0, out=r)
            else:
                r.fill(np.inf)
                np.divide(g, v0, out=r, where=v0 > 0)
            infs.append(float(np.minimum.reduce(r)))
            scale = float(g[0])
            if not scale > 0:
                raise DegenerationError(f"localized iterate vanished on window ({i0}, {m})")
            if n + 1 == n_max:
                break
            # renormalize for the next step; the plateau takes the value at i0
            v0, v1, vin = np.divide(g, scale, out=u0), u1, uin
            if companion:
                flux = np.multiply(0.5 / scale, np.add(F0, F1, out=lw), out=lw)
                energy = float(np.multiply(flux, d, out=rw) @ flux)
        return infs, dbars

    return eval_window


def _family_sup(
    table: MeasureTable, n_max: int, start_of, lo: int, hi: int, companion: bool, arrays: tuple
):
    """Sup over the ND windows (x_i0, D) of ``table`` of each step's infimum
    from step 2 on (n_max >= 2); step 1 is _first_step_scan's.

    Members are node indices k in [lo, hi], the window starting at node
    ``start_of(k)``; ``arrays`` are the _window_arrays of ``table``.  The
    coarse scan covers _COARSE members; each refinement round halves the
    step and rescans a 5-point neighbourhood of the best member of each step
    from 2 on, for _REFINE_ROUNDS rounds and then on until the step is one
    node.  Ties go to the member visited first.
    Returns per step from 2 on the best value, member and companion sup
    (-inf if none).
    """
    eval_window = _window_evaluator(table, n_max, companion, arrays)
    best_val = [-np.inf] * (n_max - 1)
    best_at = [lo] * (n_max - 1)
    best_dbar = [-np.inf] * (n_max - 1)
    seen: set[int] = set()

    def consider(k):
        if k in seen:
            return
        seen.add(k)
        infs, dbars = eval_window(start_of(k))
        for n, inf in enumerate(infs[1:]):
            if inf > best_val[n]:
                best_val[n] = inf
                best_at[n] = k
        for n, dbar in enumerate(dbars[1:]):
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


def _upper_family(table: MeasureTable, n_max: int, start_of, lo: int, hi: int, companion: bool):
    """Per step the best value, member and companion sup of the ND windows
    (x_i0, D) of ``table``, members k in [lo, hi] starting at ``start_of(k)``.

    Step 1 is the maximum of _first_step_scan over every member, ties to the
    smallest member, and its companion the maximum over every start; steps
    from 2 on are _family_sup's, which runs only for n_max >= 2, and first,
    so that a window it refuses is refused as before.
    """
    arrays = _window_arrays(table)
    vals, at, dbar = (
        _family_sup(table, n_max, start_of, lo, hi, companion, arrays) if n_max >= 2 else ([], [], [])
    )
    infs, dbars = _first_step_scan(table, arrays, companion)
    members = infs[start_of(np.arange(lo, hi + 1))]
    vanished = np.flatnonzero(np.isnan(members))
    if vanished.size:
        i0 = int(start_of(lo + int(vanished[0])))
        raise DegenerationError(f"localized iterate vanished on window ({i0}, {table.n_panels})")
    k = int(np.argmax(members))
    first_dbar = float(np.max(dbars)) if companion else -np.inf
    return [float(members[k])] + vals, [lo + k] + at, [first_dbar] + dbar


def upper_sequence_nd(table: MeasureTable, n_max: int) -> IterationTrace:
    """Upper-bound constants: sup over the windows (x0, D) of the window infimum.

    Window starts are table nodes.  Step 1 is the maximum over every start;
    from step 2 on, the outer sup scans 32 starts and then halves a local
    5-point refinement step around the best start of each step from 2 on
    down to single-node resolution.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    best_val, best_start, best_dbar = _upper_family(table, n_max, lambda i0: i0, 0, table.n_panels - 1, True)
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
    mirrored table, so DN runs the ND family there, indexed by cap so that
    ties go to the smallest cap; cap locations are read back off this
    table's grid by index.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = table.n_panels
    best_val, best_cap, _ = _upper_family(table.mirrored(), n_max, lambda c: m - c, 1, m, False)
    return IterationTrace(
        values=best_val,
        monotonicity=monotone_verdict(best_val, table.problem.tolerances.bound_refine),
        pair_locations=[float(table.grid[c]) for c in best_cap],
    )


def upper_sequence(case: str, table: MeasureTable, n_max: int) -> IterationTrace:
    """The localized upper sequence of the ND or the DN case."""
    if case == "ND":
        return upper_sequence_nd(table, n_max)
    if case == "DN":
        return upper_sequence_dn(table, n_max)
    raise ValueError("upper sequence is defined for the ND and DN cases")


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
