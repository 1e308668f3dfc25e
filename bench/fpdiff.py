"""Compare the result fingerprints of two benchmark runs.

    python3 bench/fpdiff.py .bench_runs/A.json .bench_runs/B.json

Every op both runs made must exit the same way and report the same numbers
under the same JSON paths, each equal to within REL relative.  Prints each
difference; exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import sys

REL = 1e-12


def differences(a: dict, b: dict) -> list[str]:
    out = []
    for op_id in sorted(a.keys() & b.keys()):
        fa, fb = a[op_id], b[op_id]
        if fa["exit"] != fb["exit"]:
            out.append(f"{op_id}: exit {fa['exit']} vs {fb['exit']}")
        for path in sorted(fa["numbers"].keys() ^ fb["numbers"].keys()):
            out.append(f"{op_id}: {path} reported by one run only")
        for path in sorted(fa["numbers"].keys() & fb["numbers"].keys()):
            x, y = fa["numbers"][path], fb["numbers"][path]
            same = x == y if isinstance(x, str) or isinstance(y, str) else abs(x - y) <= REL * max(abs(x), abs(y))
            if not same:
                out.append(f"{op_id}: {path} {x!r} vs {y!r}")
    for op_id in sorted(a.keys() ^ b.keys()):
        out.append(f"{op_id}: run by one side only")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    fps = [json.load(open(p, encoding="utf-8"))["fingerprint"] for p in (args.a, args.b)]
    diffs = differences(*fps)
    for line in diffs:
        print(line)
    n = sum(len(fp["numbers"]) for fp in fps[0].values())
    print(f"{len(diffs)} differences over {len(fps[0])} ops and {n} numbers (relative tolerance {REL:g})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
