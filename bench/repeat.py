"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (distance between first and third quartile, as a share of
the median), per workload.

    python3 bench/repeat.py --seeds 1-10 [--workloads infinite] [--out bench/baseline.json]

With --out, this set of runs (medians, spreads and every value, with the
failed ops of each workload) is appended to the sets already in that file,
and each median is compared with the first set's: the shift is the share of
the first median by which this one is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import KNOWN_DEFECTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in SPEC["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def worse_than_first(sets: list[dict]) -> dict:
    """Per later set, workload and metric: the share of the first set's median
    by which the later median is worse (negative: better)."""
    first = sets[0]["workloads"]
    out = {}
    for later in sets[1:]:
        shifts = {}
        for workload, res in later["workloads"].items():
            for name, s in res["metrics"].items():
                m0 = first.get(workload, {}).get("metrics", {}).get(name, {}).get("median")
                if m0:
                    worse = (s["median"] - m0) / m0
                    shifts.setdefault(workload, {})[name] = worse if LOWER_IS_BETTER[name] else -worse
        out[later["started"]] = shifts
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            line = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         **{k: line[k] for k in ("correct", "attempted", "failed")}})
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr)
        report = json.loads((ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace0.json").read_text())
        result[workload] = {
            "fail_frac": statistics.median(r["failed"] / r["attempted"] for r in runs),
            "failed_ops": {op_id: {"reasons": reasons, "known_defect": KNOWN_DEFECTS.get(op_id)}
                           for op_id, reasons in report["failed_ops"].items()},
            "metrics": {name: summary(v) for name, v in values.items()},
            "runs": runs,
        }
        for name, s in result[workload]["metrics"].items():
            flag = "" if s["spread"] < BOUNDS[name] / 3 else "  <-- spread above a third of the bound"
            print(f"{workload:14s} {name:18s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" (bound {BOUNDS[name]}){flag}")
    if args.out:
        out = Path(args.out)
        sets = json.loads(out.read_text())["sets"] if out.exists() else []
        sets.append({"started": started, "workloads": result})
        worse = worse_than_first(sets)
        out.write_text(json.dumps({
            "machine": report["machine"], "run_seconds": SPEC["run_seconds"],
            "worse_than_first_set": worse, "sets": sets,
        }, indent=1) + "\n")
        for workload, shifts in (worse.get(started) or {}).items():
            for name, w in shifts.items():
                flag = "" if w <= BOUNDS[name] else "  <-- worse than the first set by more than the bound"
                print(f"{workload:14s} {name:18s} {100 * w:+.2f}% against the first set{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
