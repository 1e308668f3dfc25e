"""The benchmark's workloads: eigenbound CLI commands, one op each.

Each op is one `eigenbound` command line and the problems its report covers,
one per value of --D and in that order.  Problem keys name the entries of
references.json.  The first op of each list is the one the set-up probe runs.
"""

from __future__ import annotations


def problem_key(a: str, b: str, case: str, d: str) -> str:
    return f"{a}/{b} {case} (0,{d})"


def make_op(command: str, a: str, b: str, case: str, ds: str) -> dict:
    return {
        "id": f"{command} {a}/{b} {case} D={ds}",
        "argv": [command, "--a", a, "--b", b, "--D", ds, "--case", case],
        "D": ds.split(","),
        "problems": [problem_key(a, b, case, d) for d in ds.split(",")],
    }


WORKLOADS = {
    # Every case and verdict, serial, at the default grid: the ND window
    # search sets the tail, the hypothesis probe about half of each cheap op.
    "verify-finite": [
        make_op("verify", "1", "0", "ND", "1"),
        make_op("verify", "1", "0", "DN", "1"),
        make_op("verify", "1+x^2", "0", "DN", "1"),
        make_op("verify", "1", "-x", "DN", "8"),
        make_op("verify", "1", "8-x", "ND", "8"),
        make_op("verify", "exp(x)", "1", "ND", "3"),
        make_op("verify", "1", "0", "NN", "1"),
    ],
    # Table builds and the truncation walks dominate; the window search is
    # almost absent.  The last op is the walk's last truncation as a finite
    # problem: the one op here that passes and states both sides of a bracket.
    "infinite": [
        make_op("bounds", "1", "0", "ND", "inf"),
        make_op("oracle", "1", "0", "ND", "inf"),
        make_op("verify", "1", "0", "ND", "inf"),
        make_op("bounds", "1", "-x", "DN", "inf"),
        make_op("oracle", "1", "-x", "DN", "inf"),
        make_op("verify", "1", "-x", "DN", "inf"),
        make_op("bounds", "1+x^2", "0", "DN", "inf"),
        make_op("oracle", "1+x^2", "0", "DN", "inf"),
        make_op("bounds", "1+x^2", "0", "DN", "4096"),
    ],
}

# Ops that fail at the commit that introduced the benchmark, with the cause.
# They stay in the workloads and count in `failed`; a failure of any other op
# makes the run incorrect.  Delete an entry once its op passes.
KNOWN_DEFECTS = {
    "verify 1/8-x ND D=8": "window mass from a difference of cumulative totals cancels to 0; "
    "exits 4 although its mirror image, OU DN (0,8), passes (ROADMAP item 2)",
    "bounds 1/-x DN D=inf": "rounding-level growth of mu(0,p) read as divergence: reports "
    "positivity zero for lambda = 1 (ROADMAP item 1)",
    "oracle 1/-x DN D=inf": "same cause: reports lambda = 0 for lambda = 1 (ROADMAP item 1)",
    "verify 1/-x DN D=inf": "same cause, and the criterion_zero verdict is hard-coded to pass "
    "(ROADMAP item 1)",
    "bounds 1+x^2/0 DN D=inf": "truncation walk ends at p = 4096 with delta still short of its "
    "limit 1: lower_basic 0.2513 and lower_improved 0.2879 exceed lambda = 1/4",
    "oracle 1+x^2/0 DN D=inf": "the oracle's default 2000-cell grid is too coarse for the long "
    "truncations: its lambda is off by 1.6e-4 at p = 2048 and 5.2e-4 at p = 4096, relative, "
    "beyond eps_oracle = 1e-4",
}
