"""Check an eigenbound CLI report against the stored reference eigenvalues.

A report passes when it exits 0, every verdict it carries passes, and every
number it claims agrees with the reference eigenvalue of its problem:
- a certified lower bound may not exceed lambda, nor a certified upper bound
  fall below it, by more than CERTIFIED_REL;
- an oracle eigenvalue must match lambda to ORACLE_REL; a truncation (0, p)
  of a (0, inf) problem, in an oracle trace or as the value of a walk the
  report marks as not converged, must match the reference of that truncation;
- a reported positivity ("zero" or "positive") must match whether lambda is 0.
A report that claims nothing checkable fails, so no report passes vacuously.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# 10 x eigenbound's default eps_bound: the slack its own verify verdicts allow.
CERTIFIED_REL = 1e-5
# eigenbound's default eps_oracle.
ORACLE_REL = 1e-4

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())["problems"]


def _num(v) -> float:
    return float(v)  # numbers, or the strings "inf"/"-inf"/"nan" the CLI prints


def _recip(v) -> float:
    v = _num(v)
    return 1.0 / v if v != 0 else math.inf


def claims(report: dict) -> dict:
    """Every checkable number one report (one problem) states."""
    res = report.get("results", {})
    cmd = report.get("command")
    lower, upper, oracle = [], [], []
    truncation = [(p, _num(v)) for p, v in res.get("trace", [])] if cmd == "oracle" else []
    block = res.get("bounds", res) if cmd in ("bounds", "verify") else {}
    for key, out in (("lower_basic", lower), ("lower_improved", lower),
                     ("upper_basic", upper), ("upper_improved", upper)):
        if block.get(key) is not None:
            out.append(_num(block[key]))
    lower += [_num(v) for v in res.get("lower_bounds", []) + res.get("gap_lower_bounds", [])]
    upper += [_num(v) for v in res.get("upper_bounds", [])]
    # the constants themselves: their reciprocals are the certified bounds
    lower += [_recip(v) for v in res.get("delta_n", []) + res.get("eta_n", [])]
    upper += [_recip(v) for v in res.get("delta_n_prime", [])]
    if cmd == "verify":
        # on (0, inf), lambda_oracle solves the walk's last truncation, which
        # is lambda_infinite_limit, and a walk that did not converge fails
        # its own verdict
        if "lambda_oracle" in res:
            oracle.append(_num(res["lambda_oracle"]))
        if "lambda_infinite_limit" in res:
            oracle.append(_num(res["lambda_infinite_limit"]))
        if "duality" in res:
            oracle.append(_num(res["duality"]["lambda_dual"]))
    if cmd == "oracle" and "lambda" in res:
        if res.get("converged") is False:
            last = truncation[-1][0] if truncation else math.nan
            truncation.append((last, _num(res["lambda"])))
        else:
            oracle.append(_num(res["lambda"]))
    verdicts = res.get("verdicts", [])
    return {
        "lower": lower,
        "upper": upper,
        "oracle": oracle,
        "truncation": truncation,
        "positivity": res.get("positivity", block.get("positivity")),
        "failed_verdicts": [v.get("check") for v in verdicts if v.get("pass") is not True],
        "all_pass": report.get("all_pass"),
    }


def check_report(report: dict, ref: dict) -> list[str]:
    """Reasons this report contradicts reference `ref`, an entry of
    references.json (empty: passes)."""
    c = claims(report)
    lam = ref["lambda"]
    scale = lam if lam > 0 else 1.0
    reasons = []
    for v in c["lower"]:
        if not v <= lam + CERTIFIED_REL * scale:
            reasons.append(f"certified lower bound {v:.9g} above lambda {lam:.9g}")
    for v in c["upper"]:
        if not v >= lam - CERTIFIED_REL * scale:
            reasons.append(f"certified upper bound {v:.9g} below lambda {lam:.9g}")
    for v in c["oracle"]:
        if not abs(v - lam) <= ORACLE_REL * scale:
            reasons.append(f"oracle lambda {v:.9g} vs reference {lam:.9g}")
    for p, v in c["truncation"]:
        lam_p = ref.get("truncations", {}).get(f"{p:g}")
        if lam_p is None:
            reasons.append(f"no reference for the truncation at p = {p:g}")
        elif not abs(v - lam_p) <= ORACLE_REL * lam_p:
            reasons.append(f"truncation lambda {v:.9g} at p = {p:g} vs reference {lam_p:.9g}")
    if c["positivity"] is not None and c["positivity"] != ("zero" if lam == 0 else "positive"):
        reasons.append(f"positivity {c['positivity']!r} but lambda is {lam:.9g}")
    reasons += [f"verdict {name} failed" for name in c["failed_verdicts"]]
    if c["all_pass"] is False:
        reasons.append("all_pass is false")
    if not (c["lower"] or c["upper"] or c["oracle"] or c["truncation"] or c["positivity"]):
        reasons.append("report claims nothing checkable")
    return reasons


def parse(stdout: str):
    """The report list of one CLI run (a single report becomes a list of one)."""
    payload = json.loads(stdout)
    return payload if isinstance(payload, list) else [payload]


def check_op(op: dict, rc: int, stdout: str) -> list[str]:
    """Reasons the op failed (empty: it passed)."""
    try:
        reports = parse(stdout)
    except ValueError:
        return [f"exit {rc}: output is not JSON"]
    err = reports[0].get("error") if reports else None
    if err is not None:
        return [f"exit {rc}: {err.get('type')}: {err.get('message')}"]
    if len(reports) != len(op["problems"]):
        return [f"{len(reports)} reports for {len(op['problems'])} problems"]
    reasons = [f"exit {rc}"] if rc != 0 else []
    for report, key, d in zip(reports, op["problems"], op["D"]):
        got = report.get("config", {}).get("D")
        if got != d and not (isinstance(got, (int, float)) and math.isclose(got, float(d))):
            reasons.append(f"report for D={got} where D={d} was asked")
            continue
        reasons += [f"D={d}: {r}" for r in check_report(report, REFERENCES[key])]
    return reasons


def bracket_widths(stdout: str) -> list[float]:
    """(min certified upper - max certified lower) / max certified lower, per
    report that states both sides with a positive lower side."""
    out = []
    for report in parse(stdout):
        c = claims(report)
        if c["lower"] and c["upper"] and max(c["lower"]) > 0:
            lo = max(c["lower"])
            out.append((min(c["upper"]) - lo) / lo)
    return out


def fingerprint(stdout: str) -> dict[str, float]:
    """Every number in a CLI output, keyed by its JSON path."""
    flat: dict[str, float] = {}

    def walk(path, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{path}.{k}", v)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(f"{path}[{i}]", v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[path] = node
        elif node in ("inf", "-inf", "nan"):
            flat[path] = node

    walk("", json.loads(stdout))
    return flat
