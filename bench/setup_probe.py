"""Set-up cost a shell user pays per command: in this fresh interpreter,
import eigenbound.cli and run the workload's first op up to its checked
result.  Then times the calibration kernel, so that the caller can scale the
set-up time by the speed the machine had at that moment.  Prints one JSON
object.  Run: python3 bench/setup_probe.py WORKLOAD
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402  (loaded before the clock starts)
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    op = WORKLOADS[sys.argv[1]][0]
    t0 = time.perf_counter()
    import eigenbound.cli as cli

    t1 = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(op["argv"])
    reasons = checker.check_op(op, rc, out.getvalue())
    t2 = time.perf_counter()
    import calibration  # imports numpy, so not before the clock starts

    speed = calibration.speed([calibration.kernel_s() for _ in range(10)])
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "speed": speed, "reasons": reasons}))


if __name__ == "__main__":
    main()
