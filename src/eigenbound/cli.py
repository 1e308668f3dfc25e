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
from dataclasses import dataclass, field, fields

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
    items = [item.strip().lower() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("empty numeric list")
    return [math.inf if item in ("inf", "infinity") else float(item) for item in items]


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

    def validate(self) -> None:
        """Check what only the command line decides; the problems check the rest."""
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be json or csv (got {self.format!r})")
        if self.n_max < 1:
            raise ConfigError("n_max must be a positive integer")
        self.problems()

    def problems(self) -> list[measures.ProblemSpec]:
        """One problem per value of D; an invalid one raises ConfigError."""
        try:
            tol = measures.Tolerances(self.eps_quadrature, self.eps_bound, self.eps_oracle)
            return [
                measures.make_problem(
                    a=self.a, b=self.b, preset=self.preset, D=d, case=self.case,
                    grid_size=self.grid_size, truncation_schedule=self.truncation_schedule,
                    tolerances=tol,
                )
                for d in self.D
            ]
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


def render_report(report, fmt: str) -> str:
    cooked = _round12(report)
    if fmt == "json":
        return json.dumps(cooked, indent=2)
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
    # the mass trace, next to 0 on (0, inf)) refuses an end whose weights are
    # not integrable, so every end the report covers passed
    return {
        "positivity_of_a": rep.positivity.passed,
        "locally_integrable_near_0": True,
        "locally_integrable_near_right": None if problem.is_infinite else True,
        "criterion_zero": rep.criterion_zero,
        "criterion_zero_reason": rep.criterion_zero_reason,
        "notes": rep.notes,
    }


def _run(cfg: RunConfig, command: str, provenance, settle, zero, body) -> list[dict]:
    """The pipeline every command runs, once per problem.

    It checks that a is positive and, on (0, inf), that the mass trace's
    panel ending at each truncation point it reached converged, writes the
    report header, and on (0, inf) lets ``zero(problem, hyp)`` give the
    results when the criterion decides a zero eigenvalue.  Otherwise it gets
    the table: one build on a finite interval, the walk ``settle(problem)``
    on (0, inf).  Local integrability at the ends is the table build's test:
    a build refuses an end panel that does not converge, naming
    locally_integrable_near_0 or _near_right, and so does the mass trace
    next to 0 on (0, inf).  The command's
    ``body(table, walk)`` gives the rest of the report; walk is None on a
    finite interval.  With --format csv --out, the table the first report
    was computed on is dumped next to it.
    """

    def run_one(problem: measures.ProblemSpec):
        hyp = measures.hypothesis_check(problem)
        if not hyp.positivity.passed:
            raise HypothesisViolationError(hyp.positivity.detail)
        if hyp.unconverged_at is not None:
            raise HypothesisViolationError(measures.UNCONVERGED_ENDPOINT)
        report: dict = {
            "command": command,
            "version": __version__,
            "config": cfg.echo() | {"D": "inf" if problem.is_infinite else problem.D},
            "hypothesis": _hypothesis_summary(hyp, problem),
            "provenance": {k: _PROVENANCE[k] for k in provenance},
        }
        if problem.is_infinite and hyp.criterion_zero:
            return report | zero(problem, hyp), None
        if problem.is_infinite:
            walk = settle(problem)
            table = walk.table
        else:
            walk, table = None, measures.build_tables(problem, problem.D)
        return report | body(table, walk), table

    runs = [run_one(problem) for problem in cfg.problems()]
    table = runs[0][1]
    if cfg.out and cfg.format == "csv" and table is not None:
        table.to_csv(cfg.out + ".table.csv")
    return [report for report, _ in runs]


def _delta_walk(walk: measures.TruncationWalk) -> dict:
    return {
        "delta_truncation_trace": [{"p": p, "delta": d} for p, d in zip(walk.points, walk.values)],
        "delta_truncation_settled": walk.settled,
        "delta_truncation_stop_reason": walk.stop_reason,
    }


def cmd_bounds(cfg: RunConfig) -> list[dict]:
    def zero(problem, hyp) -> dict:
        return {"results": bounds.zero_report(cfg.case).to_dict(), "series": {}}

    def body(table, walk) -> dict:
        rep = bounds.compute_report(cfg.case, table, walk.result if walk else None)
        results = rep.to_dict()
        if walk:
            results |= _delta_walk(walk)
            results["right_end_used"] = table.right_end
        curve = table.mu_cum * table.nu_tail if cfg.case == "ND" else table.nu_cum * table.mu_tail
        return {
            "results": results,
            "series": {"x": _decimate(table.grid), "criterion_product": _decimate(curve)},
        }

    keys = ("delta", "lower_basic", "upper_basic", "delta1", "delta1_prime",
            "lower_improved", "upper_improved")
    return _run(cfg, "bounds", keys, bounds.settle_delta, zero, body)


def cmd_iterate(cfg: RunConfig) -> list[dict]:
    def zero(problem, hyp) -> dict:
        return {"results": {"positivity": "zero", "note": "eigenvalue is 0; sequences undefined"},
                "series": {}}

    def body(table, walk) -> dict:
        results: dict = {"right_end_used": table.right_end}
        series: dict = {}
        if cfg.case in ("ND", "DN"):
            low = iterate.lower_sequence(cfg.case, table, cfg.n_max)
            results["delta_n"] = low.values
            results["delta_n_monotonicity"] = low.monotonicity
            results["lower_bounds"] = low.bounds()
            series["delta_n"] = low.values
            if cfg.case == "ND":
                up = iterate.upper_sequence_nd(table, cfg.n_max)
                results["dbar_n"] = up.companion_dbar
                series["dbar_n"] = up.companion_dbar
            else:
                up = iterate.upper_sequence_dn(table, cfg.n_max)
            results["delta_n_prime"] = up.values
            results["delta_n_prime_monotonicity"] = up.monotonicity
            results["upper_bounds"] = up.bounds()
            results["window_locations"] = up.pair_locations
            series["delta_n_prime"] = up.values
        else:
            eta = iterate.eta_sequence(table, cfg.n_max)
            results["eta_n"] = eta.values
            results["eta_n_monotonicity"] = eta.monotonicity
            results["gap_lower_bounds"] = eta.bounds()
            results["sign_changes"] = eta.sign_changes
            results["notes"] = eta.notes
            series["eta_n"] = eta.values
        if walk:
            results |= _delta_walk(walk)
        return {"results": results, "series": series}

    keys = ("delta_n", "delta_n_prime", "dbar_n", "eta_n")
    return _run(cfg, "iterate", keys, bounds.settle_delta, zero, body)


def cmd_oracle(cfg: RunConfig) -> list[dict]:
    def zero(problem, hyp) -> dict:
        return {"results": {"lambda": 0.0, "positivity": "zero", "note": hyp.criterion_zero_reason},
                "series": {}}

    def body(table, walk) -> dict:
        if walk:
            tr = oracle.truncation_trace(walk)
            return {
                "results": {
                    "lambda": walk.values[-1],
                    "lambda_lo": walk.result.lambda_lo,
                    "lambda_hi": walk.result.lambda_hi,
                    "trace": [[p, v] for p, v in zip(tr.points, tr.values)],
                    "converged": tr.converged,
                    "monotone_decreasing": tr.monotone_decreasing,
                    "stop_reason": tr.stop_reason,
                },
                "series": {"p": tr.points, "lambda_p": tr.values},
            }
        sol = oracle.solve_on_table(table, cfg.case)
        resid = oracle.eigen_residuals(sol)
        return {
            "results": {
                "lambda": sol.lambda_,
                "lambda_lo": sol.lambda_lo,
                "lambda_hi": sol.lambda_hi,
                "residual": sol.residual,
                "N": sol.N,
                "identity_deviations": {
                    "single_integral": resid.get("i_deviation"),
                    "double_integral": resid.get("ii_deviation"),
                },
                "diagnostics": {k: v for k, v in resid.items() if k not in ("i_deviation", "ii_deviation")},
            },
            "series": {"x": _decimate(table.grid), "eigenfunction": _decimate(sol.eigenfunction)},
        }

    return _run(cfg, "oracle", ("lambda",), oracle.settle_lambda, zero, body)


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


def cmd_verify(cfg: RunConfig) -> list[dict]:
    def zero(problem, hyp) -> dict:
        # nothing to bracket; the criterion decides the value.  The oracle
        # backs it when p * lambda(p) does not grow over the first two
        # truncations: a positive limit makes that product grow like p
        points = problem.truncation_schedule[:2]
        lams = [oracle.fd_eigensolve(measures.truncate(problem, p)).lambda_ for p in points]
        falls = len(points) == 2 and points[1] * lams[1] <= points[0] * lams[0]
        verdict = _verdict(
            "criterion_zero",
            falls,
            f"{hyp.criterion_zero_reason}; truncation eigenvalues "
            + ", ".join(f"lambda({p:g}) = {v:.6g}" for p, v in zip(points, lams))
            + "; passes when p*lambda(p) does not grow (lambda falls at least like 1/p)",
        )
        return {"results": {"positivity": "zero", "verdicts": [verdict]}, "series": {}, "all_pass": falls}

    def body(table, walk) -> dict:
        case, tol = cfg.case, table.problem.tolerances
        slack = 10 * tol.bound_refine
        verdicts: list[dict] = []
        if walk:
            tr = oracle.truncation_trace(walk)
            verdicts.append(_verdict("truncation_limit_converged", tr.converged, tr.stop_reason))
        sol = walk.result if walk else oracle.solve_on_table(table, case)
        lam = sol.lambda_
        resid = oracle.eigen_residuals(sol)
        brep = bounds.compute_report(case, table)
        results: dict = {
            "lambda_oracle": lam,
            "lambda_lo": sol.lambda_lo,
            "lambda_hi": sol.lambda_hi,
            "bounds": brep.to_dict(),
            "residual": sol.residual,
        }
        if walk:
            results["lambda_infinite_limit"] = walk.values[-1]
        # bounds() gives inf for a constant that is not positive, so no bound
        # is NaN: the largest lower (smallest upper) bound passes a chain
        # exactly when every one would.  The oracle refuses a lambda that is
        # not finite, so a slack relative to lambda is finite
        if case == "NN":
            eta = iterate.eta_sequence(table, cfg.n_max)
            results["eta_n"] = eta.values
            results["eta_monotonicity"] = eta.monotonicity
            gap_lb = max(eta.bounds())
            verdicts += [
                _chain("gap_lower_bounds", [gap_lb, lam], 1e-2 * lam,
                       f"max lower bound {gap_lb:.9g} vs gap {lam:.9g}"),
                _direction("eta_direction_consistent", "eta_n", eta, "non-increasing", "non-decreasing"),
            ]
        else:
            low = iterate.lower_sequence(case, table, cfg.n_max)
            up = (iterate.upper_sequence_nd if case == "ND" else iterate.upper_sequence_dn)(table, cfg.n_max)
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
                # orientation on the column-swapped table
                dual = oracle.dual_table(table)
                dual_case = "DN" if case == "ND" else "ND"
                lam_dual = oracle.solve_on_table(dual, dual_case).lambda_
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

    return _run(cfg, "verify", tuple(_PROVENANCE), oracle.settle_lambda, zero, body)


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
    parser = _build_argparser()
    args = parser.parse_args(_join_flag_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        cfg = parse_config(args.config)
        cfg = _apply_cli_overrides(cfg, args)
        cfg.validate()
    except ConfigError as exc:
        _emit(_error_payload(exc, 2), None)
        return 2
    try:
        command = globals()[f"cmd_{args.command}"]
        reports = command(cfg)
        ok = all(r.get("all_pass", True) for r in reports)  # only verify's reports carry verdicts
        payload_obj = reports[0] if len(reports) == 1 else reports
        payload, code = render_report(payload_obj, cfg.format), 0 if ok else 5
    except (RangeError, ConfigError) as exc:
        payload, code = _error_payload(exc, 2), 2
    except HypothesisViolationError as exc:
        payload, code = _error_payload(exc, 3), 3
    except (DegenerationError, DomainError) as exc:
        payload, code = _error_payload(exc, 4), 4
    except OSError as exc:  # the --format csv table dump next to --out
        _emit(_error_payload(exc, 2), None)
        return 2
    try:
        _emit(payload, cfg.out)
    except OSError as exc:  # --out is not writable
        _emit(_error_payload(exc, 2), None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
