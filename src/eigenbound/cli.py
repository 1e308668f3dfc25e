"""Batch front end: config ingestion, command dispatch, report emission.

Reports are JSON objects (default) or CSV rows per quantity, with all
numbers at 12 significant digits and plot-ready arrays under a "series" key
so external tools can chart without any bundled UI.  Exit codes: 0 all
checks pass, 2 configuration error, 3 hypothesis violation, 4 numerical
degeneration, 5 a bracketing verdict failed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, bounds, iterate, measures, oracle
from .errors import (
    ConfigError,
    DegenerationError,
    DomainError,
    HypothesisViolationError,
    RangeError,
)

_ENV_TOLERANCE = "EIGENBOUND_TOLERANCE"

_FORMATS = ("json", "csv")

_PROVENANCE = {
    "delta": "positivity criterion: the eigenvalue is positive iff this constant is finite",
    "lower_basic": "basic two-sided estimate, lower side: 1/(4*delta)",
    "upper_basic": "basic two-sided estimate, upper side: 1/delta",
    "delta1": "first-step improved lower constant (seed square root under the double integral)",
    "delta1_prime": "first-step improved upper constant; always within [delta, 2*delta]",
    "lower_improved": "improved lower estimate 1/delta1",
    "upper_improved": "improved upper estimate 1/delta1'",
    "delta_n": "iterated lower-bound constants; reciprocals are certified lower bounds",
    "delta_n_prime": "iterated localized upper-bound constants; reciprocals are upper bounds",
    "dbar_n": "Rayleigh-quotient companions of the localized iterates",
    "eta_n": "centered-iterate constants; reciprocals bound the spectral gap from below",
    "lambda": "finite-volume eigensolver (independent oracle) on the measure grid; "
    "lambda_lo and lambda_hi enclose the scheme's eigenvalue",
    "duality": "measure-swapped dual problem has the same principal eigenvalue",
}


def _parse_number_list(text: str) -> list[float]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("empty numeric list")
    return [float(item) for item in items]


def _option(default, read=str, flag: dict | None = None, echo: bool = True):
    """A RunConfig field that is a config key.

    ``read`` turns the key's text into its value, ``flag`` holds the argparse
    settings of the keys that are inline flags too (None for the others), and
    ``echo`` says whether reports show the key under "config".
    """
    meta = {"read": read, "flag": flag, "echo": echo}
    if isinstance(default, list):  # a mutable default needs a factory
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """One resolved run: problem description plus command parameters.

    Each field is declared once, here; the config-file keys, the inline
    flags and the report's config echo are all derived from these fields.
    """

    a: str | None = _option(None, flag={"help": "diffusion coefficient a(x) as expression text"})
    b: str | None = _option(None, flag={"help": "drift coefficient b(x) as expression text"})
    preset: str | None = _option(None)
    D: list[float] = _option(
        [1.0], _parse_number_list, flag={"help": "right endpoint (number, 'inf', or comma list to sweep)"}
    )
    case: str = _option("ND", flag={"choices": measures.CASES})
    grid_size: int = _option(2000, int, flag={})
    n_max: int = _option(3, int, flag={})
    format: str = _option("json", flag={"choices": _FORMATS})
    out: str | None = _option(None, flag={}, echo=False)
    eps_quadrature: float = _option(1e-10, float)
    eps_bound: float = _option(1e-6, float)
    eps_oracle: float = _option(1e-4, float)
    truncation_schedule: tuple[float, ...] | None = _option(
        None, lambda text: tuple(_parse_number_list(text)), echo=False
    )

    def validate(self) -> list[measures.ProblemSpec]:
        """The run's problems, one per value of D, each coefficient parsed
        once; ConfigError for anything invalid."""
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be json or csv (got {self.format!r})")
        if self.n_max < 1:
            raise ConfigError("n_max must be a positive integer")
        try:
            tol = measures.Tolerances(self.eps_quadrature, self.eps_bound, self.eps_oracle)
            first = measures.make_problem(
                a=self.a, b=self.b, preset=self.preset, D=self.D[0], case=self.case, grid_size=self.grid_size,
                truncation_schedule=self.truncation_schedule, tolerances=tol)
            return [replace(first, D=float(d)) for d in self.D]  # replace re-runs the checks
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["echo"]}


_FIELDS = {f.name: f for f in fields(RunConfig)}
_FLAGS = [f for f in _FIELDS.values() if f.metadata["flag"] is not None]


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _set(cfg: RunConfig, key: str, text: str, source: str) -> None:
    """Read ``text`` as the value of ``key``; ``source`` names it in errors."""
    try:
        setattr(cfg, key, _FIELDS[key].metadata["read"](text))
    except ValueError as exc:
        raise ConfigError(f"bad value for {source}: {exc}") from exc


def parse_config(path: str | None, text: str | None = None) -> RunConfig:
    """Flat key=value configuration with optional [section] headers.

    Values may be quoted and followed by a # or ; comment; D accepts a
    comma-separated sweep list and the word inf.  Unknown keys are rejected
    with their line number.
    """
    cfg = RunConfig()
    if path is None and text is None:
        return cfg
    if text is None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers are organizational only
        if "=" not in line:
            problems.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            _set(cfg, key, re.sub(r"\s[#;].*", "", value).strip().strip("\"'"), repr(key))
        except ConfigError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def _apply_cli_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for f in _FLAGS:
        if getattr(args, f.name) is not None:
            _set(cfg, f.name, getattr(args, f.name), _flag_name(f.name))
    if args.a is not None or args.b is not None:
        cfg.preset = None  # an inline coefficient replaces a config preset
    env_tol = os.environ.get(_ENV_TOLERANCE)
    if env_tol:
        _set(cfg, "eps_bound", env_tol, _ENV_TOLERANCE)
    return cfg


# ---------------------------------------------------------------------------
# number formatting and emission


def _round12(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round12(float(v)) for v in obj.tolist()]
    return obj


def _flatten_csv(prefix: str, obj, rows: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_csv(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten_csv(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, str(obj)))


# Tokens of "%.12g" that repr spells otherwise, each at the start of a line.
# Those without "." or "e": integral values, -0, inf and nan.  Those with an
# exponent e+1x, as repr writes e+12 to e+15 positionally (the others come
# along), or e-3xx, the subnormal range; the second pattern is the slower, and
# runs only where its exponents occur.
_PLAIN = re.compile(r"\n([^.e\n]+)(?![^\n])")
_EXPONENT = re.compile(r"\n([^\n]*e(?:\+1|-3)\d+)(?![^\n])")


def _respell(match: re.Match) -> str:
    token = match[1]
    return "\n" + (f'"{token}"' if token in ("inf", "-inf", "nan") else repr(float(token)))


def _float_array(values, depth: int) -> str:
    """The text json.dumps(indent=2) gives a list of floats rounded by
    _round12, for a list ``depth`` containers deep."""
    text = _PLAIN.sub(_respell, ("\n%.12g" * len(values)) % tuple(values))
    if "e+1" in text or "e-3" in text:
        text = _EXPONENT.sub(_respell, text)
    return "[" + text.replace("\n", ",\n" + "  " * (depth + 1))[1:] + "\n" + "  " * depth + "]"


# stands in the structure json.dumps writes for an array written by _float_array
_PLACEHOLDER = "\x00"
_MARKER = json.dumps(_PLACEHOLDER)


def _cook(obj, depth: int, arrays: list[str]):
    """obj as _round12 gives it, except that each non-empty list, tuple or
    ndarray of floats is written into ``arrays`` and left as _PLACEHOLDER."""
    if isinstance(obj, dict):
        return {k: _cook(v, depth + 1, arrays) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = [float(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) <= {float}:
            arrays.append(_float_array(obj, depth))
            return _PLACEHOLDER
        return [_cook(v, depth + 1, arrays) for v in obj]
    return _round12(obj)


def render_report(report, fmt: str) -> str:
    """The report as JSON, or as CSV rows without its series.

    The JSON is byte for byte json.dumps(_round12(report), indent=2): each
    number at 12 significant digits, spelled as Python's repr of the rounded
    value, and a value that is not finite as a string.  Arrays of floats,
    most of a report's numbers, are written in one "%.12g" pass each rather
    than by json.dumps's pure-Python encoder, and spliced into the one
    json.dumps of the rest.  For a normal finite v, "%.12g" % v has the
    digits of repr(float(f"{v:.12g}")): a decimal of at most 15 significant
    digits is the only such decimal that reads as its double (DBL_DIG).  The
    tokens spelled otherwise are written by repr, or quoted: those without
    "." or "e" (integral values, -0, inf, nan), those with an exponent e+1x
    (repr writes e+12 to e+15 positionally), and e-3xx, the subnormal range,
    where a double has fewer digits and 1e-320 formats as 9.99988867183e-321.
    """
    if fmt == "json":
        arrays: list[str] = []
        parts = json.dumps(_cook(report, 0, arrays), indent=2).split(_MARKER)
        if len(parts) != len(arrays) + 1:  # a string of the report spells a placeholder
            return json.dumps(_round12(report), indent=2)
        return "".join(part + array for part, array in zip(parts, [*arrays, ""]))
    cooked = _round12(report)
    reports = cooked if isinstance(cooked, list) else [cooked]
    lines = ["quantity,value"]
    for i, rep in enumerate(reports):
        rows: list[tuple[str, str]] = []
        _flatten_csv("", {k: v for k, v in rep.items() if k != "series"}, rows)
        tag = f"run{i}." if len(reports) > 1 else ""
        lines.extend(f"{tag}{name},{value}" for name, value in rows)
    return "\n".join(lines) + "\n"


def _decimate(arr: np.ndarray, cap: int = 512) -> list[float]:
    arr = np.asarray(arr, dtype=float)
    if len(arr) <= cap:
        return arr.tolist()
    return arr[np.linspace(0, len(arr) - 1, cap).round().astype(int)].tolist()  # distinct: the step exceeds 1


# ---------------------------------------------------------------------------
# command implementations


def _hypothesis_summary(rep: measures.HypothesisReport, problem: measures.ProblemSpec) -> dict:
    # a report is emitted only after its tables were built, and a build (or
    # the mass trace on (0, inf)) refuses an a that is not positive and an
    # end whose weights are not integrable, so every check the report covers
    # passed
    return {
        "positivity_of_a": True,
        "locally_integrable_near_0": True,
        "locally_integrable_near_right": None if problem.is_infinite else True,
        "criterion_zero": rep.criterion_zero,
        "criterion_zero_reason": rep.criterion_zero_reason,
        "notes": rep.notes,
    }


class Evaluation:
    """One problem's stages, read by every command.

    The hypothesis check runs first; on (0, inf) its criterion_zero decides a
    zero eigenvalue, and then ``walk`` and ``table`` are None.  Otherwise
    ``table`` is the one every later stage runs on: the problem's own on a
    finite interval, the last of ``walk`` on (0, inf).  That walk settles
    ``walk_of``: "delta" for bounds and iterate, "lambda" for oracle and
    verify.  The later stages run on first read, once each.  The record makes
    no reference cycle, so it is freed with its last reference.  A zero
    report has no table, so _run dumps none for it.
    """

    def __init__(self, problem: measures.ProblemSpec, walk_of: str, n_max: int):
        self.problem, self.walk_of, self.n_max = problem, walk_of, n_max
        self.hypothesis = measures.hypothesis_check(problem)
        self.walk = self.table = None
        if not problem.is_infinite:
            self.table = measures.build_tables(problem, problem.D)
        elif not self.hypothesis.criterion_zero:
            self.walk = (bounds.settle_delta if walk_of == "delta" else oracle.settle_lambda)(problem)
            self.table = self.walk.table

    @functools.cached_property
    def sequences(self) -> tuple[iterate.IterationTrace, ...]:
        """The ND/DN lower and localized upper sequences; NN's centered sequence alone."""
        case = self.problem.case
        if case == "NN":
            return (iterate.eta_sequence(self.table, self.n_max),)
        return (iterate.lower_sequence(case, self.table, self.n_max),
                iterate.upper_sequence(case, self.table, self.n_max))

    @functools.cached_property
    def solution(self) -> oracle.EigenSolution:
        """The eigenpair on the table: on (0, inf), the eigenvalue walk's last."""
        if self.walk_of == "lambda" and self.walk:
            return self.walk.result
        return oracle.solve_on_table(self.table, self.problem.case)

    @functools.cached_property
    def residuals(self) -> dict:
        return oracle.eigen_residuals(self.solution)

    @functools.cached_property
    def bounds_report(self) -> bounds.BoundsReport:
        """The basic and improved estimates, or the zero report.  delta1 and
        delta1' are step 1 of the sequences if a command read those first
        (verify); compute_report runs step 1 alone otherwise (bounds).
        Either way delta1' is the maximum over every window start, from the
        first-step scan; the window search serves steps 2 and later."""
        if self.table is None:
            return bounds.zero_report(self.problem.case)
        criterion = self.walk.result if self.walk_of == "delta" and self.walk else None
        return bounds.compute_report(self.problem.case, self.table, criterion, vars(self).get("sequences"))


def _delta_walk(walk: measures.TruncationWalk) -> dict:
    return {
        "delta_truncation_trace": [{"p": p, "delta": d} for p, d in zip(walk.points, walk.values)],
        "delta_truncation_settled": walk.settled,
        "delta_truncation_stop_reason": walk.stop_reason,
    }


def _bounds(ev: Evaluation) -> dict:
    results, table = ev.bounds_report.to_dict(), ev.table
    if table is None:
        return {"results": results, "series": {}}
    if ev.walk:
        results |= _delta_walk(ev.walk) | {"right_end_used": table.right_end}
    curve = table.mu_cum * table.nu_tail if ev.problem.case == "ND" else table.nu_cum * table.mu_tail
    return {"results": results, "series": {"x": _decimate(table.grid), "criterion_product": _decimate(curve)}}


def _iterate(ev: Evaluation) -> dict:
    if ev.table is None:
        return {"results": {"positivity": "zero", "note": "eigenvalue is 0; sequences undefined"},
                "series": {}}
    results: dict = {"right_end_used": ev.table.right_end}
    if ev.problem.case in ("ND", "DN"):
        low, up = ev.sequences
        results |= {"delta_n": low.values, "delta_n_monotonicity": low.monotonicity,
                    "lower_bounds": low.bounds()}
        if up.companion_dbar is not None:  # ND
            results["dbar_n"] = up.companion_dbar
        results |= {"delta_n_prime": up.values, "delta_n_prime_monotonicity": up.monotonicity,
                    "upper_bounds": up.bounds(), "window_locations": up.pair_locations}
    else:
        (eta,) = ev.sequences
        results |= {"eta_n": eta.values, "eta_n_monotonicity": eta.monotonicity,
                    "gap_lower_bounds": eta.bounds(), "sign_changes": eta.sign_changes, "notes": eta.notes}
    if ev.walk:
        results |= _delta_walk(ev.walk)
    series = ("delta_n", "dbar_n", "delta_n_prime", "eta_n")
    return {"results": results, "series": {k: results[k] for k in series if k in results}}


def _oracle(ev: Evaluation) -> dict:
    if ev.table is None:
        return {"results": {"lambda": 0.0, "positivity": "zero", "note": ev.hypothesis.criterion_zero_reason},
                "series": {}}
    sol = ev.solution
    results = {"lambda": sol.lambda_, "lambda_lo": sol.lambda_lo, "lambda_hi": sol.lambda_hi}
    if walk := ev.walk:
        results |= {"trace": [[p, v] for p, v in zip(walk.points, walk.values)], "converged": walk.settled,
                    "monotone_decreasing": oracle.monotone_decreasing(walk), "stop_reason": walk.stop_reason}
        return {"results": results, "series": {"p": walk.points, "lambda_p": walk.values}}
    resid = ev.residuals
    results |= {"residual": sol.residual, "N": sol.N,
                "identity_deviations": {"single_integral": resid.get("i_deviation"),
                                        "double_integral": resid.get("ii_deviation")},
                "diagnostics": {k: v for k, v in resid.items() if k not in ("i_deviation", "ii_deviation")}}
    return {
        "results": results,
        "series": {"x": _decimate(ev.table.grid), "eigenfunction": _decimate(sol.eigenfunction)},
    }


def _verdict(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "pass": bool(ok), "detail": detail}


def _chain(name: str, values: list[float], slack: float, detail: str | None = None) -> dict:
    """The verdict that ``values`` are in order, each at most the next plus
    ``slack``; the detail defaults to the chain itself."""
    ok = all(lo <= hi + slack for lo, hi in zip(values, values[1:]))
    return _verdict(name, ok, detail or " <= ".join(f"{v:.9g}" for v in values))


def _direction(name: str, label: str, trace: iterate.IterationTrace, *allowed: str) -> dict:
    """The verdict that a sequence runs in an allowed direction; a constant
    or single-valued sequence runs in every direction."""
    ok = trace.monotonicity in (*allowed, "constant", "single")
    return _verdict(name, ok, f"{label}: {trace.monotonicity}")


def _verify(ev: Evaluation) -> dict:
    if ev.table is None:
        # nothing to bracket; the criterion decides the value.  The oracle
        # backs it when p * lambda(p) does not grow over the first two
        # truncations: a positive limit makes that product grow like p
        problem = ev.problem
        points = problem.truncation_schedule[:2]
        lams = [oracle.solve_on_table(measures.build_tables(measures.truncate(problem, p), p),
                                      problem.case).lambda_ for p in points]
        falls = len(points) == 2 and points[1] * lams[1] <= points[0] * lams[0]
        verdict = _verdict(
            "criterion_zero",
            falls,
            f"{ev.hypothesis.criterion_zero_reason}; truncation eigenvalues "
            + ", ".join(f"lambda({p:g}) = {v:.6g}" for p, v in zip(points, lams))
            + "; passes when p*lambda(p) does not grow (lambda falls at least like 1/p)",
        )
        return {"results": {"positivity": "zero", "verdicts": [verdict]}, "series": {}, "all_pass": falls}
    case, table, walk, tol = ev.problem.case, ev.table, ev.walk, ev.problem.tolerances
    slack = 10 * tol.bound_refine
    verdicts: list[dict] = []
    if walk:
        verdicts.append(_verdict("truncation_limit_converged", walk.settled, walk.stop_reason))
    sol = ev.solution
    lam = sol.lambda_
    resid = ev.residuals
    sequences = ev.sequences  # read first: the ND/DN bounds report takes step 1 off them
    brep = ev.bounds_report
    results: dict = {"lambda_oracle": lam, "lambda_lo": sol.lambda_lo, "lambda_hi": sol.lambda_hi,
                     "bounds": brep.to_dict(), "residual": sol.residual}
    # bounds() gives inf for a constant that is not positive, so no bound
    # is NaN: the largest lower (smallest upper) bound passes a chain
    # exactly when every one would.  The oracle refuses a lambda that is
    # not finite, so a slack relative to lambda is finite
    if case == "NN":
        (eta,) = sequences
        results["eta_n"] = eta.values
        results["eta_monotonicity"] = eta.monotonicity
        gap_lb = max(eta.bounds())
        verdicts += [
            _chain("gap_lower_bounds", [gap_lb, lam], 1e-2 * lam,
                   f"max lower bound {gap_lb:.9g} vs gap {lam:.9g}"),
            _direction("eta_direction_consistent", "eta_n", eta, "non-increasing", "non-decreasing"),
        ]
    else:
        low, up = sequences
        results["delta_n"] = low.values
        results["delta_n_prime"] = up.values
        if up.companion_dbar:
            results["dbar_n"] = up.companion_dbar
        lb, ub = max(low.bounds()), min(up.bounds())
        i_dev, ii_dev = resid["i_deviation"], resid["ii_deviation"]
        verdicts += [
            _chain("basic_bracket", [brep.lower_basic, lam, brep.upper_basic], 1e-6),
            _chain("improved_chain", [brep.lower_basic, brep.lower_improved, lam,
                                      brep.upper_improved, brep.upper_basic], slack),
            _chain("delta1_prime_containment", [brep.delta, brep.delta1_prime, 2 * brep.delta], slack),
            _chain("iterated_bracket", [lb, lam, ub], 1e-2 * lam,
                   f"lower {lb:.9g} <= lambda <= upper {ub:.9g} (1e-2 relative slack)"),
            _direction("lower_sequence_monotone", "delta_n", low, "non-increasing"),
            *([_direction("upper_sequence_monotone", "delta_n_prime", up, "non-decreasing")]
              if case == "DN" else []),
            _chain("eigen_identities", [max(i_dev, ii_dev), 0.0], 5e-3,
                   f"sup |lambda*I(g)-1| = {i_dev:.3g}, sup |lambda*II(g)-1| = {ii_dev:.3g}"),
        ]
        if walk is None:
            # the dual swaps the measures and the boundary labels, so the
            # posed eigenvalue is compared against the opposite
            # orientation on the column-swapped table.  Its eigenfunction is
            # the primal's flux, the integral of g against mu from the
            # Neumann end, where its solve starts
            dual = oracle.dual_table(table)
            dual_case = "DN" if case == "ND" else "ND"
            flux = (measures.prefix_integral if case == "ND" else measures.suffix_integral)(
                table, sol.eigenfunction, "mu")
            lam_dual = oracle.solve_on_table(dual, dual_case, start=flux).lambda_
            d_dual, _ = bounds.delta(dual_case, dual)
            results["duality"] = {"lambda": lam, "lambda_dual": lam_dual,
                                  "delta": brep.delta, "delta_dual": d_dual}
            verdicts.append(_verdict(
                "duality",
                abs(lam - lam_dual) <= 1e-3 * max(abs(lam), 1e-300) and abs(brep.delta - d_dual) <= slack,
                f"lambda: {lam:.9g} vs dual {lam_dual:.9g}; delta: {brep.delta:.9g} vs {d_dual:.9g}",
            ))
    verdicts.append(_chain(
        "oracle_residual", [sol.residual, 0.0], tol.oracle,
        f"Green's-function defect max|lambda*G*B*g - g|/max|g| = {sol.residual:.3g}",
    ))
    results["verdicts"] = verdicts
    return {
        "results": results,
        "all_pass": all(v["pass"] for v in verdicts),
        "series": {"x": _decimate(table.grid), "eigenfunction": _decimate(sol.eigenfunction)},
    }


# command: what its walk on (0, inf) settles, its provenance keys, and its report's rest
_COMMANDS = {
    "bounds": ("delta", ("delta", "lower_basic", "upper_basic", "delta1", "delta1_prime",
                         "lower_improved", "upper_improved"), _bounds),
    "iterate": ("delta", ("delta_n", "delta_n_prime", "dbar_n", "eta_n"), _iterate),
    "oracle": ("lambda", ("lambda",), _oracle),
    "verify": ("lambda", tuple(_PROVENANCE), _verify),
}


def _run(cfg: RunConfig, command: str) -> list[dict]:
    """The pipeline every command runs: an Evaluation of each problem, in
    the order of --D, read into the report after its header.  On (0, inf)
    bounds and iterate read the criterion walk, oracle and verify the
    eigenvalue walk.  With --format csv --out, the first report's table is
    dumped next to it; none is when the first report is a zero report."""
    walk_of, provenance, read = _COMMANDS[command]
    reports, dump = [], None
    for problem in cfg.validate():
        ev = Evaluation(problem, walk_of, cfg.n_max)
        reports.append({
            "command": command,
            "version": __version__,
            "config": cfg.echo() | {"D": "inf" if problem.is_infinite else problem.D},
            "hypothesis": _hypothesis_summary(ev.hypothesis, problem),
            "provenance": {k: _PROVENANCE[k] for k in provenance},
        } | read(ev))
        dump = ev.table if len(reports) == 1 else dump
        del ev  # each record goes before the next one's stages run
    if cfg.out and cfg.format == "csv" and dump is not None:
        dump.to_csv(cfg.out + ".table.csv")
    return reports


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # one parser per process; parse_args does not change it
def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbound",
        description="Certified two-sided bounds, approximation sequences, and an "
        "independent eigensolver for mixed principal eigenvalues of "
        "a(x) f'' + b(x) f' on (0, D).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bounds", "criterion constant and basic/improved two-sided estimates"),
        ("iterate", "monotone bound sequences (lower, localized upper, centered)"),
        ("oracle", "finite-volume eigensolver / truncation limit"),
        ("verify", "run everything and check every bracketing verdict"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for f in _FLAGS:
            p.add_argument(_flag_name(f.name), **f.metadata["flag"])
    return parser


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _error_payload(exc: Exception, code: int) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}},
        indent=2,
    )


_VALUE_FLAGS = ("--config", *(_flag_name(f.name) for f in _FLAGS))


def _join_flag_values(argv: list[str]) -> list[str]:
    """Merge '--b -x' into '--b=-x' so coefficient text may start with '-'."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _VALUE_FLAGS else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc's malloc reuse freed memory instead of returning it.

    By default glibc maps each large allocation afresh and returns a freed
    heap top past a threshold to the system, so every table build faults its
    node arrays in again, page by page: about 1,000 minor faults per op of the
    benchmark's `infinite` workload, at about 3 us each on a 2-vCPU Xeon VM.
    Both thresholds are raised once per process.  Setting either one stops
    glibc from adjusting both itself, so the trim threshold is set only when
    the mmap threshold took.  Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    args = _build_argparser().parse_args(_join_flag_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        cfg = _apply_cli_overrides(parse_config(args.config), args)
        try:
            reports = _run(cfg, args.command)
            ok = all(r.get("all_pass", True) for r in reports)  # only verify's reports carry verdicts
            payload = render_report(reports[0] if len(reports) == 1 else reports, cfg.format)
            code = 0 if ok else 5
        except RangeError as exc:
            payload, code = _error_payload(exc, 2), 2
        except HypothesisViolationError as exc:
            payload, code = _error_payload(exc, 3), 3
        except (DegenerationError, DomainError) as exc:
            payload, code = _error_payload(exc, 4), 4
        _emit(payload, cfg.out)
    except (ConfigError, OSError) as exc:  # OSError: --out, or the table dump next to it, is not writable
        _emit(_error_payload(exc, 2), None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
