"""Command lines pinned by their exit code and a check on the report, and
relations between the reports of several command lines.

Each command line runs in-process through cli.main with EIGENBOUND_TOLERANCE
unset, must write nothing to stderr, and fails on a RuntimeWarning.  A new
command-line check is a row of ROWS, or a test of a relation below.
"""

import json

import pytest

from eigenbound import cli

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def _default_tolerance(monkeypatch):
    monkeypatch.delenv("EIGENBOUND_TOLERANCE", raising=False)


def run(capsys, line: str, code: int = 0) -> str:
    """The stdout of a command line, its words split on spaces."""
    assert cli.main(line.split()) == code, line
    out, err = capsys.readouterr()
    assert err == "", line
    return out


def report(capsys, line: str):
    return json.loads(run(capsys, line))


_UNSET = {"delta1": None, "delta1_prime": None, "lower_improved": None, "upper_improved": None}
NN_SHAPE = {"case": "NN", "delta": 0.25, "lower_basic": None, "upper_basic": None, **_UNSET,
            "argmax_x": {"delta": 0.5}, "positivity": "positive"}
ZERO_SHAPE = {"case": "ND", "delta": "inf", "lower_basic": 0.0, "upper_basic": 0.0, **_UNSET,
              "argmax_x": {}, "positivity": "zero"}
NN_ZERO_SHAPE = {**ZERO_SHAPE, "case": "NN", "lower_basic": None, "upper_basic": None}

# each solve of a walk starts from the previous truncation's eigenfunction;
# the traces are those of solves started from the scale tail
COLD_TRACES = {
    "--a 1 --b -x": [1.24299176923, 1.00098900535, 0.999989833624, 0.999980861767],
    "--a 1+x^2 --b 0": [1.63548132944, 0.983220624572, 0.713404828773, 0.576055521625, 0.495312384698,
                        0.443000493256, 0.406738604306, 0.380340103875, 0.360397853601, 0.344887479991,
                        0.332523470562, 0.322415024533],
}


def _table_dump(tmp_path):
    rows = (tmp_path / "ou.table.csv").read_text().splitlines()
    return rows[0] == "x,C,mu_cum,nu_cum,mu_tail,nu_tail" and len(rows) == 2002


# (command line, exit code, check): {tmp} in a line is the run's directory;
# a check takes the parsed report (None for an empty stdout) and that
# directory, and is None where the exit code is the whole check
ROWS = [
    # the largest window search, a DN cap family past 255-node coarse steps
    ("iterate --a 1 --b -1/sqrt(x) --D 1 --case DN", 0,
     lambda r, tmp: len(r["results"]["delta_n_prime"]) == 3 and "dbar_n" not in r["results"]),
    # window searches run every step in their shared work arrays; at n-max 2
    # the search refines around one centre, step 2's best window
    *[(f"iterate {problem} --n-max {n}", 0, lambda r, tmp, n=n: len(r["results"]["delta_n_prime"]) == n)
      for n in (1, 2, 6) for problem in ("--a 1 --b 0 --D 1 --case ND", "--a 1 --b -x --D 8 --case DN")],
    # the lower sequence's early stop is scale-free
    ("iterate --a 1 --b 0 --D 0.001 --case ND --n-max 6", 0, lambda r, tmp: len(r["results"]["delta_n"]) == 6),
    # the oracle's last table is dumped, its weights never read
    ("oracle --a 1 --b -x --D inf --case DN --format csv --out {tmp}/ou", 0, lambda r, tmp: _table_dump(tmp)),
    # a spectrum that crowds at its bottom closes its enclosure
    ("oracle --a 1 --b 1 --D inf --case ND", 0,
     lambda r, tmp: r["results"]["lambda_lo"] <= r["results"]["lambda"] <= r["results"]["lambda_hi"]),
    # the multi-table walks
    ("bounds --a 1+x^2 --b 0 --D 4096 --case DN", 0, None),
    *[(f"oracle {coefficients} --D inf --case DN", 0,
       lambda r, tmp, lams=lams: r["results"]["trace"] == [[2.0**k, lam] for k, lam in enumerate(lams, 1)])
      for coefficients, lams in COLD_TRACES.items()],
    # the NN and zero-eigenvalue bounds reports keep their shape
    ("bounds --a 1 --b 0 --D 1 --case NN", 0, lambda r, tmp: list(r["results"].items()) == list(NN_SHAPE.items())),
    ("bounds --a 1 --b 0 --D inf --case ND", 0,
     lambda r, tmp: list(r["results"].items()) == list(ZERO_SHAPE.items())),
    ("bounds --a 1 --b 0 --D inf --case NN", 0,
     lambda r, tmp: list(r["results"].items()) == list(NN_ZERO_SHAPE.items())),
    # Laplacian delta's argmax is the exact panel maximum
    ("bounds --a 1 --b 0 --D 1 --case ND", 0, lambda r, tmp: r["results"]["argmax_x"]["delta"] == 0.5),
    # the identity residuals hold on the tightest DN case
    ("verify --a 1+x^2 --b 0 --D 4096 --case DN", 0,
     lambda r, tmp: {v["check"]: v["pass"] for v in r["results"]["verdicts"]}["eigen_identities"]),
    # a config-file sweep
    ("bounds --config {tmp}/sweep.cfg --D 1,2", 0, None),
]


@pytest.mark.parametrize("line, code, check", ROWS, ids=[row[0] for row in ROWS])
def test_command_line(line, code, check, tmp_path, capsys):
    (tmp_path / "sweep.cfg").write_text("preset = ou\ncase = DN\ngrid_size = 600\n")
    out = run(capsys, line.format(tmp=tmp_path), code)
    assert check is None or check(json.loads(out) if out else None, tmp_path)


def test_mirror_pair_runs_one_cap_family(capsys):
    # x -> 8 - x maps a = 1, b = 8 - x, ND on (0, 8) onto OU DN
    nd, dn = (report(capsys, f"iterate --a 1 --b {b} --D 8 --case {case}")["results"]["delta_n_prime"]
              for b, case in (("8-x", "ND"), ("-x", "DN")))
    assert nd == dn


@pytest.mark.parametrize("line, ds", [
    ("oracle --a 1 --b -x --D {} --case DN", "4,8"), ("bounds --a 1+x^2 --b 0 --D {} --case DN", "2,4"),
])
def test_the_problems_of_a_sweep_share_no_state(line, ds, capsys):
    sweep = report(capsys, line.format(ds))
    single = [report(capsys, line.format(d)) for d in ds.split(",")]
    assert [(r["results"], r["series"]) for r in sweep] == [(r["results"], r["series"]) for r in single]


def test_a_constant_prints_what_an_x_dependent_spelling_prints(capsys, tmp_path):
    c, x = (report(capsys, f"verify --a {a} --b {b} --D 1 --case ND")
            for a, b in (("1", "0"), ("1+0*x", "0*x")))
    assert (c["results"], c["series"]) == (x["results"], x["series"])
    c, x = (report(capsys, f"bounds --a {a} --b {b} --D 1 --case DN")
            for a, b in (("2", "-3"), ("2+0*x", "-3+0*x")))
    assert c["results"] == x["results"]
    # the drift-free problems of the benchmark skip the cumulant; their
    # x-dependent spellings do not
    for line, spellings in (("bounds {} --D inf --case DN", (("1+x^2", "0"), ("1+x^2", "0*x"))),
                            ("oracle {} --D inf --case DN", (("1+x^2", "0"), ("1+x^2", "0*x"))),
                            ("verify {} --D 1 --case NN", (("1", "0"), ("1+0*x", "0*x")))):
        c, x = (report(capsys, line.format(f"--a {a} --b {b}")) for a, b in spellings)
        assert c.pop("config") != x.pop("config") and c == x
    # -0 is not drift-free: its table keeps C = -0.0, as -0*x does
    for name, b in (("const", "-0"), ("spelled", "-0*x")):
        run(capsys, f"bounds --a 1 --b {b} --D 1 --case ND --format csv --out {tmp_path}/{name}")
    dump = (tmp_path / "const.table.csv").read_bytes()
    assert dump == (tmp_path / "spelled.table.csv").read_bytes() and b",-0," in dump


@pytest.mark.parametrize("problem", [
    "--a 1 --b 0 --D 1 --case ND", "--a 1 --b -x --D 8 --case DN", "--a 1 --b 0 --D 1 --case NN",
])
def test_every_command_reads_the_same_stages(problem, capsys):
    bounds, iterate, oracle, verify = (report(capsys, f"{command} {problem}")
                                       for command in ("bounds", "iterate", "oracle", "verify"))
    o, v = oracle["results"], verify["results"]
    assert [o[k] for k in ("lambda", "lambda_lo", "lambda_hi", "residual")] == \
        [v[k] for k in ("lambda_oracle", "lambda_lo", "lambda_hi", "residual")]
    assert oracle["series"] == verify["series"]
    keys = [k for k in ("delta_n", "delta_n_prime", "dbar_n", "eta_n") if k in iterate["results"]]
    assert keys and all(iterate["results"][k] == v[k] for k in keys)
    assert bounds["results"] == v["bounds"]


@pytest.mark.parametrize("line", [
    "verify --a 1 --b 0 --D 1 --case ND", "bounds --a 1 --b -x --D inf --case DN",
    "oracle --a 1 --b 0 --D 1,2 --case ND",
    "bounds --a 1 --b 0 --D 1e14 --case ND",  # e+12 and e+13 values in the series, which repr writes positionally
])
def test_a_report_is_a_fixed_point_of_json_loads_then_dumps(line, capsys):
    text = run(capsys, line)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
