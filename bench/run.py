"""eigenbound benchmark: time to a checked, certified bracket, per workload.

    python3 bench/run.py --workload verify-finite --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the program is imported from ./src.  One
process with one generating thread drives `eigenbound.cli.main` in a closed
loop: the next op starts when the previous one returns.  Ops run in whole
passes over the workload, in an order drawn from --seed, until --seconds have
passed.  Every output is checked against references.json (see checker.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced passes with passes that wrap every exported function of
the program (tracer.py), and prints the per-layer metrics, per op, with the
tracing overhead.  The last line of stdout is one JSON object.  A per-run
report with every op's reported numbers (the fingerprint; compare two runs
with bench/fpdiff.py) goes to .bench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calibration  # noqa: E402
import checker  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

SETUP_PROBES = 11


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_probes(workload: str) -> list[dict]:
    """Run the set-up probe SETUP_PROBES times, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


class Tally:
    """Checked outcome of every op: times, failures, widths and fingerprint."""

    def __init__(self):
        self.times: dict[bool, list[float]] = {False: [], True: []}  # untraced, traced
        self.kernel: list[float] = []  # calibration kernel times
        self.op_times: dict[str, list[float]] = {}
        self.n_failed = 0
        self.failed: dict[str, list[str]] = {}
        self.widths: list[float] = []
        self.doctored_accepted: list[str] = []
        # op id -> exit code and numbers of its first run, and whether every
        # later run of the op reported exactly the same
        self.fingerprint: dict[str, dict] = {}

    def record(self, op: dict, rc: int, stdout: str, seconds: float, traced: bool | None) -> None:
        """Check one op; `traced` None marks the untimed warm-up."""
        reasons = checker.check_op(op, rc, stdout)
        if reasons:
            self.failed[op["id"]] = reasons
        seen = self.fingerprint.get(op["id"])
        numbers = checker.fingerprint(stdout)
        if seen is None:
            self.fingerprint[op["id"]] = {"exit": rc, "numbers": numbers, "repeatable": True}
            if not reasons:
                # show that the checker rejects every doctored variant of this output
                self.doctored_accepted += selftest.accepted_doctored(op, stdout)
        else:
            seen["repeatable"] &= seen["exit"] == rc and seen["numbers"] == numbers
        if traced is None:
            return
        self.times[traced].append(seconds)
        if not traced:
            self.op_times.setdefault(op["id"], []).append(seconds)
        self.n_failed += bool(reasons)
        # only brackets the checker accepts, from ops that are not known
        # defects, so that the set of widths stays fixed until the workload
        # or KNOWN_DEFECTS changes
        if not reasons and op["id"] not in KNOWN_DEFECTS:
            self.widths += checker.bracket_widths(stdout)


def run_op(cli, op: dict) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op["argv"]))
        out = buf.getvalue()
    except Exception as exc:  # a crash is a failed op, reported with its type
        rc, out = -1, json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
    return rc, out, time.perf_counter() - t0


def run_passes(cli, ops, rng, seconds, tally: Tally, trace: tracer.Tracer | None) -> list[str]:
    """Whole passes in seeded order until `seconds` have passed.  With a
    tracer, passes alternate untraced and traced, so both see the same
    machine; returns any sign that a wrapper was live in an untraced pass."""
    problems = []
    start = time.perf_counter()
    for i in itertools.count():
        traced = trace is not None and i % 2 == 1
        if not traced and tracer.wrapped_bindings():
            problems.append(f"tracer wrappers live in untraced pass {i}")
        order = list(ops)
        rng.shuffle(order)
        with trace.installed() if traced else contextlib.nullcontext():
            for op in order:
                if traced:
                    trace.op += 1
                tally.kernel.append(calibration.kernel_s())
                tally.record(op, *run_op(cli, op), traced=traced)
        if time.perf_counter() - start >= seconds and (trace is None or i >= 1):
            return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "eigenbound" / "cli.py").is_file():
        print(f"no eigenbound sources under {SRC}: run from the root of a source tree",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("EIGENBOUND_TOLERANCE", None)  # the program gets only the workload's inputs
    sys.path.insert(0, str(SRC))
    import eigenbound.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "eigenbound":
        print(f"imported eigenbound from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload]
    incorrect: list[str] = []
    if selftest.main() != 0:
        incorrect.append("checker self-test failed")

    tally = Tally()
    probes = setup_probes(args.workload)
    for p in probes:
        if p["reasons"] and ops[0]["id"] not in KNOWN_DEFECTS:
            incorrect.append(f"set-up op {ops[0]['id']}: {p['reasons']}")

    # untimed warm-up pass over the distinct ops: pays first-call costs, and
    # its outputs are checked and doctored (selftest.doctor) outside the clock
    for op in {op["id"]: op for op in ops}.values():
        tally.record(op, *run_op(cli, op), traced=None)

    rng = random.Random(args.seed)
    trace = tracer.Tracer() if args.trace else None
    incorrect += run_passes(cli, ops, rng, args.seconds, tally, trace)
    untraced = tally.times[False]
    speed = calibration.speed(tally.kernel)
    raw = {}
    if args.trace:
        traced = tally.times[True]
        values = trace.layer_metrics(len(traced))
        values["cli.import_s"] = statistics.median(p["import_s"] * p["speed"] for p in probes)
        values["trace.ops_per_s"] = len(traced) / sum(traced)
        values["trace.untraced_ops_per_s"] = len(untraced) / sum(untraced)
        values["trace.overhead_frac"] = values["trace.untraced_ops_per_s"] / values["trace.ops_per_s"] - 1
        values["machine.speed"] = speed
        wanted = spec["per_layer"]
    else:
        raw = {
            "ops_per_s": len(untraced) / sum(untraced),
            "op_s.p50": statistics.median(untraced),
            "op_s.p90": statistics.quantiles(untraced, n=10)[-1] if len(untraced) > 1 else untraced[0],
            "setup_s": statistics.median(p["setup_s"] for p in probes),
        }
        values = {
            "ops_per_s": raw["ops_per_s"] / speed,
            "op_s.p50": raw["op_s.p50"] * speed,
            "op_s.p90": raw["op_s.p90"] * speed,
            "pass_frac": 1 - tally.n_failed / len(untraced),
            "bracket_rel_width": statistics.median(tally.widths) if tally.widths else float("nan"),
            # scaled by the kernel each probe times right after its set-up
            "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    attempted = len(untraced) + len(tally.times[True])

    if tally.doctored_accepted:
        incorrect.append(f"checker accepted doctored outputs: {tally.doctored_accepted}")
    for op_id, reasons in tally.failed.items():
        if op_id not in KNOWN_DEFECTS:
            incorrect.append(f"{op_id}: {reasons}")
    if {m["name"] for m in wanted} != set(values):
        incorrect.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {tally.n_failed} failed")
    for name, m in metrics.items():
        as_measured = f"  (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{as_measured}")
    print(f"  machine speed {speed:.4g}: calibration kernel {1000 * calibration.K_REF_S / speed:.3g} ms"
          f" against {1000 * calibration.K_REF_S:g} ms at reference speed; timings are scaled to it")
    if args.trace:
        print(f"  tracing overhead: untraced {values['trace.untraced_ops_per_s']:.4g} ops/s, traced "
              f"{values['trace.ops_per_s']:.4g} ops/s ({100 * values['trace.overhead_frac']:.1f}% slower)")
    for op_id, reasons in tally.failed.items():
        tag = "known defect" if op_id in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  FAIL ({tag}) {op_id}: {'; '.join(reasons)}")
    for op_id, seen in tally.fingerprint.items():
        if not seen["repeatable"]:
            print(f"  NOT REPEATABLE: {op_id} reported different numbers on different runs")
    for msg in incorrect:
        print(f"  INCORRECT: {msg}")

    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "metrics": metrics, "as_measured": raw, "speed": speed,
        "kernel_s": tally.kernel, "setup_probes": probes,
        "failed_ops": tally.failed, "incorrect": incorrect, "op_times": tally.op_times,
        "fingerprint": tally.fingerprint,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if trace is not None:
        trace.dump(stem.with_suffix(".spans.jsonl"))

    print(json.dumps({
        "correct": not incorrect,
        "attempted": attempted,
        "failed": tally.n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
