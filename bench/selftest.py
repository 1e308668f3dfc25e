"""Show that the checker rejects doctored reports.

`doctor(op, stdout)` turns one passing CLI output into wrong ones, one per
claim it makes: an eigenvalue moved 10% up and 10% down, a certified lower
bound raised above the reference, an upper bound dropped below it, the
positivity flipped, a verdict failed, the exit code changed.  The benchmark
runs this on every passing op of its warm-up pass; `python3 bench/selftest.py`
runs it on hand-written reports, including OU DN on (0, inf) reported "zero"
as the program did when the benchmark was written, and an unconverged
truncation walk reporting lambda = 10.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import checker
from workloads import make_op


def _edits(report: dict, lam: float) -> list[tuple[str, list, object]]:
    """(label, JSON path, wrong value) for each claim of one report."""
    res = report.get("results", {})
    high, low = (1.1 * lam, 0.9 * lam) if lam > 0 else (0.1, -0.1)
    edits = []
    # eigenvalues, each moved 10% up and down from what the report states
    # (a truncation value is not lam)
    values = [(key, ["results", key], res[key]) for key in ("lambda", "lambda_oracle", "lambda_infinite_limit")
              if isinstance(res.get(key), float)]
    if res.get("trace"):
        values.append(("trace[-1]", ["results", "trace", -1, 1], res["trace"][-1][1]))
    for label, path, v in values:
        for wrong in ((1.1 * v, 0.9 * v) if v else (0.1, -0.1)):
            edits.append((f"{label} -> {wrong:.6g}", path, wrong))
    block = ["results", "bounds"] if "bounds" in res else ["results"]
    bounds = res.get("bounds", res)
    for key, wrong in (("lower_basic", high), ("lower_improved", high),
                       ("upper_basic", low), ("upper_improved", low)):
        if isinstance(bounds.get(key), float):
            edits.append((f"{key} -> {wrong:.6g}", block + [key], wrong))
    for key, wrong in (("lower_bounds", high), ("gap_lower_bounds", high), ("upper_bounds", low),
                       ("delta_n", 1 / high), ("eta_n", 1 / high)):
        if res.get(key):
            edits.append((f"{key}[-1] -> {wrong:.6g}", ["results", key, -1], wrong))
    if res.get("delta_n_prime") and lam > 0:
        edits.append(("delta_n_prime[-1] raised", ["results", "delta_n_prime", -1], 1 / low))
    if "duality" in res:
        edits.append(("lambda_dual moved", ["results", "duality", "lambda_dual"], high))
    if "positivity" in res or "positivity" in bounds:
        path = ["results", "positivity"] if "positivity" in res else block + ["positivity"]
        edits.append(("positivity flipped", path, "positive" if lam == 0 else "zero"))
    if res.get("verdicts"):
        edits.append(("first verdict failed", ["results", "verdicts", 0, "pass"], False))
    if report.get("all_pass") is True:
        edits.append(("all_pass false", ["all_pass"], False))
    return edits


def doctor(op: dict, stdout: str):
    """(label, exit code, output) for each doctored variant of a passing op."""
    reports = checker.parse(stdout)
    lam = checker.REFERENCES[op["problems"][0]]["lambda"]
    for label, path, wrong in _edits(reports[0], lam):
        bad = copy.deepcopy(reports)
        node = bad[0]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = wrong
        yield label, 0, json.dumps(bad if len(bad) > 1 else bad[0])
    yield "exit code 4", 4, json.dumps({"error": {"type": "DegenerationError", "message": "doctored"}})


def accepted_doctored(op: dict, stdout: str) -> list[str]:
    """Labels of doctored variants the checker wrongly accepts (empty: all rejected)."""
    return [label for label, rc, text in doctor(op, stdout) if not checker.check_op(op, rc, text)]


def main() -> int:
    lam = math.pi**2 / 4
    verify_nd = {
        "command": "verify", "config": {"D": 1.0}, "all_pass": True,
        "results": {
            "lambda_oracle": 2.46740081918,
            "bounds": {"lower_basic": 1.0, "upper_basic": 4.0, "lower_improved": 2.33921389458,
                       "upper_improved": 2.66666591063, "positivity": "positive"},
            "delta_n": [0.427493916446, 0.407427125258, 0.405594312739],
            "delta_n_prime": [0.374999856591, 0.400508954454, 0.404762387411],
            "duality": {"lambda_dual": 2.46740081906},
            "verdicts": [{"check": "basic_bracket", "pass": True}],
        },
    }
    ou_inf_zero = {
        "command": "bounds", "config": {"D": "inf"},
        "results": {"delta": "inf", "lower_basic": 0.0, "upper_basic": 0.0, "positivity": "zero"},
    }
    walk = {
        "command": "oracle", "config": {"D": "inf"},
        "results": {"lambda": 0.983220624534, "trace": [[2.0, 1.63548132929], [4.0, 0.983220624534]],
                    "converged": False},
    }
    walk_up = copy.deepcopy(walk)
    walk_up["results"]["lambda"] = 10.0
    hardy = make_op("oracle", "1+x^2", "0", "DN", "inf")
    nd = make_op("verify", "1", "0", "ND", "1")
    lifted = copy.deepcopy(verify_nd)
    lifted["results"]["delta_n"][-1] = 1 / (1.001 * lam)  # lower bound 0.1% above pi^2/4
    cases = [
        ("laplacian ND (0,1) verify as the program reports it", nd, verify_nd, True),
        ("same, delta_n lower bound 0.1% above pi^2/4", nd, lifted, False),
        ("OU DN (0,inf) bounds reported zero", make_op("bounds", "1", "-x", "DN", "inf"), ou_inf_zero, False),
        ("1+x^2 DN (0,inf) oracle walk stopped at p = 4", hardy, walk, True),
        ("same, lambda 10 at p = 4", hardy, walk_up, False),
    ]
    ok = True
    for label, op, report, should_pass in cases:
        reasons = checker.check_op(op, 0, json.dumps(report))
        good = (not reasons) == should_pass
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}: {label}: {'accepted' if not reasons else reasons}")
    wrongly = accepted_doctored(nd, json.dumps(verify_nd))
    ok &= not wrongly
    print(f"{'PASS' if not wrongly else 'FAIL'}: every doctored laplacian ND report rejected {wrongly or ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
