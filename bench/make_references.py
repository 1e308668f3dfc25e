"""Recompute bench/references.json: the exact principal eigenvalue of every
problem the workloads pose, and of each truncation (0, p) of their (0, inf)
problems at the points of eigenbound's default truncation schedule.

Closed forms where one is known; otherwise mpmath (20 digits) shooting on
a(x) f'' + b(x) f' + lambda f = 0 from the boundary condition at 0, in the
variable t = asinh(x) so that long intervals such as (0, 4096) stay short,
with the root in lambda found by mpmath.findroot within 2% of a rough value
and checked to be principal (no zero of the eigenfunction inside the
interval).  OU DN values are cross-checked against the confluent hypergeometric solution
f = x M((1 - lambda)/2, 3/2, x^2/2).  Nothing here uses eigenbound.
Run: python3 bench/make_references.py
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import mpmath as mp

from workloads import WORKLOADS

mp.mp.dps = 20

# coefficient text as the workloads write it -> mpmath function
COEFF = {
    "1": lambda x: mp.mpf(1),
    "0": lambda x: mp.mpf(0),
    "-x": lambda x: -x,
    "8-x": lambda x: 8 - x,
    "1+x^2": lambda x: 1 + x * x,
    "exp(x)": mp.exp,
}

# (a, b, case, D) -> (lambda, derivation)
CLOSED = {
    ("1", "0", "ND"): (lambda d: mp.pi**2 / (4 * d * d), "closed form pi^2/(4 D^2)"),
    ("1", "0", "DN"): (lambda d: mp.pi**2 / (4 * d * d), "closed form pi^2/(4 D^2)"),
    ("1", "0", "NN"): (lambda d: mp.pi**2 / (d * d), "closed form spectral gap pi^2/D^2"),
}
CLOSED_INF = {
    ("1", "0", "ND"): (0.0, "closed form: scale mass nu(0, inf) = inf, so lambda = 0"),
    ("1", "-x", "DN"): (1.0, "closed form: eigenfunction f = x (Hermite H_1), lambda = 1"),
    ("1+x^2", "0", "DN"): (
        0.25,
        "closed form: Hardy's inequality and 1/(1+x^2) <= 1/x^2 give lambda >= 1/4; "
        "test functions x^(1/2-e) give lambda <= 1/4 + o(1); delta = 1 makes 1/(4 delta) sharp",
    ),
}


def _solution(a, b, case, lam):
    """f and df/dt as functions of t = asinh(x): with x' = cosh t,
    f_tt = tanh(t) f_t - cosh(t)^2 (b f_t / cosh(t) + lam f) / a."""
    def rhs(t, y):
        x, c = mp.sinh(t), mp.cosh(t)
        return [y[1], mp.tanh(t) * y[1] - c * c * (b(x) * y[1] / c + lam * y[0]) / a(x)]

    start = [mp.mpf(1), mp.mpf(0)] if case == "ND" else [mp.mpf(0), mp.mpf(1)]
    return mp.odefun(rhs, 0, start)


def shoot(a, b, case, d, guess):
    """Principal eigenvalue of the ND or DN problem on (0, d) by shooting."""
    end = mp.asinh(d)

    def miss(lam):
        y = _solution(a, b, case, lam)(end)
        return y[0] if case == "ND" else y[1]  # f(d) = 0, or f'(d) = f_t / cosh = 0

    # a bracket of +-2% around the rough value: on long intervals the next
    # eigenvalue lies close enough for an open search to land on it
    lam = mp.findroot(miss, (mp.mpf(guess) * 0.98, mp.mpf(guess) * 1.02), solver="anderson")
    sol = _solution(a, b, case, lam)
    inner = [sol(end * k / 64)[0] for k in range(1, 64)]
    if not all(v > 0 for v in inner):
        raise RuntimeError(f"root {lam} on (0, {d}) is not the principal eigenvalue")
    return lam


def ou_dn_hypergeometric(d, guess):
    z = mp.mpf(d) ** 2 / 2

    def slope(lam):
        c = (1 - lam) / 2
        return mp.hyp1f1(c, 1.5, z) + d * d * (c / 1.5) * mp.hyp1f1(c + 1, 2.5, z)

    return mp.findroot(slope, mp.mpf(guess))


# eigenbound's default truncation schedule for (0, inf)
SCHEDULE = [2**k for k in range(1, 13)]
# starting points for the root search: rough values of each eigenvalue,
# truncations (0, p) of the (0, inf) problems included
GUESS = {
    ("1+x^2", "0", "DN", "1"): 3.65,
    ("1", "-x", "DN", "8"): 1.0,
    ("1", "8-x", "ND", "8"): 1.0,
    ("exp(x)", "1", "ND", "3"): 0.84,
    ("1", "-x", "DN", "2"): 1.24,
    ("1", "-x", "DN", "4"): 1.001,
} | {
    ("1+x^2", "0", "DN", str(p)): v
    for p, v in zip(SCHEDULE, [1.64, 0.983, 0.713, 0.576, 0.495, 0.443, 0.407, 0.380, 0.360, 0.345, 0.333, 0.322])
}
SHOOTING = "mpmath 1.3.0 odefun shooting at 20 digits, root by findroot, principal by sign check"


@functools.cache
def shoot_checked(a, b, case, d, guess):
    lam = shoot(COEFF[a], COEFF[b], case, mp.mpf(d), guess)
    why = SHOOTING
    if (a, b, case) == ("1", "-x", "DN"):
        hyp = ou_dn_hypergeometric(mp.mpf(d), guess)
        if abs(hyp - lam) > mp.mpf(10) ** -14 * lam:
            raise RuntimeError(f"shooting {lam} and hypergeometric {hyp} disagree")
        why += "; agrees with the hypergeometric root to 1e-14"
    return lam, why


def reference(a, b, case, d):
    if d == "inf":
        return CLOSED_INF[(a, b, case)]
    if (a, b, case) in CLOSED:
        fn, why = CLOSED[(a, b, case)]
        return float(fn(mp.mpf(d))), why
    lam, why = shoot_checked(a, b, case, d, GUESS[(a, b, case, d)])
    return float(lam), why


def truncations(a, b, case):
    """Eigenvalue of each truncation (0, p) of a (0, inf) problem, keyed by p,
    and how they were obtained."""
    if (a, b, case) in CLOSED:
        fn, why = CLOSED[(a, b, case)]
        return {str(p): float(fn(mp.mpf(p))) for p in SCHEDULE}, why
    ou = (a, b, case) == ("1", "-x", "DN")
    values = {}
    for p in SCHEDULE:
        if ou and p > 8:
            values[str(p)] = 1.0
            continue
        lam, why = shoot_checked(a, b, case, str(p), GUESS[(a, b, case, str(p))])
        values[str(p)] = float(lam)
    if ou:
        # the DN eigenvalue decreases in p (a test function on (0, p),
        # extended by a constant, serves on (0, q)) towards its limit 1
        why += "; for p > 8, 1: it lies between the limit 1 and lambda_8 = 1 + 8e-14"
    return values, why


def main() -> None:
    problems = {}
    for ops in WORKLOADS.values():
        for op in ops:
            _, _, a, _, b, _, ds, _, case = op["argv"]
            for d, key in zip(ds.split(","), op["problems"]):
                if key not in problems:
                    lam, why = reference(a, b, case, d)
                    problems[key] = {"lambda": lam, "source": why}
                    print(f"{key:28s} {lam!r:24s} {why}", flush=True)
                    if d == "inf":
                        values, why = truncations(a, b, case)
                        problems[key] |= {"truncations": values, "truncations_source": why}
                        print(f"  truncations {values}", flush=True)
    out = Path(__file__).with_name("references.json")
    out.write_text(json.dumps({"problems": problems}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
