"""The command pipeline: one hypothesis check, one table per truncation, one
run of each sequence, one dump."""

import csv
import json
import sys
from collections import Counter

import pytest

from eigenbound import bounds, cli, expr, iterate, measures, oracle

OU_DN_INF = ["--a", "1", "--b", "-x", "--D", "inf", "--case", "DN"]
INF = float("inf")


def count_builds(monkeypatch) -> Counter:
    """Count every table build by (right_end, grid_size), whichever module calls it."""
    real = measures.build_tables
    builds: Counter = Counter()

    def counting(problem, right_end, **kw):
        builds[(float(right_end), problem.grid_size)] += 1
        return real(problem, right_end, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("eigenbound") and getattr(module, "build_tables", None) is real:
            monkeypatch.setattr(module, "build_tables", counting)
    return builds


@pytest.mark.parametrize("command", ["bounds", "iterate", "oracle", "verify"])
def test_hypothesis_violated_at_a_later_truncation_exits_3(command, capsys):
    # a = 3 - x is positive on (0, 2) but not on (0, 4): no command may
    # certify anything on (0, inf) from the first truncation alone
    code = cli.main([command, "--a", "3-x", "--b", "0", "--D", "inf", "--case", "ND"])
    assert code == 3
    assert "HypothesisViolationError" in capsys.readouterr().out


def test_table_dump_is_the_table_of_the_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["verify", *OU_DN_INF, "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(f"{out}.table.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # the oracle walk settles at p = 16, and the report is computed there
    assert float(rows[-1]["x"]) == 16.0


@pytest.mark.parametrize("D, last_x", [("inf", None), ("inf,1", None), ("1,inf", 1.0), ("2,1", 2.0)])
def test_the_dump_is_the_table_of_the_first_report(D, last_x, tmp_path, capsys):
    # a zero report on (0, inf) has no table, so a sweep that starts with one dumps none
    out = tmp_path / "report.csv"
    code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", D, "--case", "ND", "--grid-size", "600",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    dump = tmp_path / "report.csv.table.csv"
    if last_x is None:
        assert any(line.endswith("results.positivity,zero") for line in out.read_text().splitlines())
        assert not dump.exists()
    else:
        with open(dump, encoding="utf-8") as fh:
            assert float(list(csv.DictReader(fh))[-1]["x"]) == last_x


def test_each_coefficient_is_parsed_once_per_run(monkeypatch, capsys):
    real = expr.parse_expression
    parsed = []
    monkeypatch.setattr(expr, "parse_expression", lambda text: parsed.append(text) or real(text))
    assert cli.main(["bounds", "--a", "1+x^2", "--b", "0", "--D", "1,2,4", "--case", "DN"]) == 0
    assert sorted(parsed) == ["0", "1+x^2"]


@pytest.mark.parametrize("argv", [
    ["verify", *OU_DN_INF],
    ["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND", "--grid-size", "600",
     "--format", "csv", "--out", "REPORT"],
])
def test_no_table_is_built_twice(argv, monkeypatch, tmp_path, capsys):
    argv = [str(tmp_path / "report.csv") if a == "REPORT" else a for a in argv]
    builds = count_builds(monkeypatch)
    assert cli.main(argv) == 0
    assert builds and max(builds.values()) == 1, {k: n for k, n in builds.items() if n > 1}


def count_stages(monkeypatch) -> Counter:
    """Count each stage's runs by the table it ran on, as (stage, ..., right end).

    The hypothesis check is keyed by its problem's D instead.  The criterion
    and the solve are keyed by the case they ran for too, as verify's dual
    runs the opposite case on the dual table, and the sequences by their n_max.
    """
    stages: Counter = Counter()

    def count(module, name, key, stage=None):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            stages[(stage or name, *key(*args))] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(measures, "hypothesis_check", lambda problem: (problem.D,))
    count(bounds, "delta", lambda case, table: (case, table.right_end))
    count(iterate, "lower_sequence", lambda case, table, n_max: (n_max, table.right_end))
    count(iterate, "_family_sup", lambda table, n_max, *rest: (n_max, table.right_end), "upper_search")
    count(iterate, "eta_sequence", lambda table, n_max: (n_max, table.right_end))
    count(oracle, "solve_on_table", lambda table, case: (case, table.right_end))
    count(oracle, "eigen_residuals", lambda sol: (sol.table.right_end,))
    return stages


STAGE_PROBLEMS = {
    "ND": ["--a", "1", "--b", "0", "--D", "1", "--case", "ND", "--grid-size", "600"],
    "DN": ["--a", "1", "--b", "0", "--D", "1", "--case", "DN", "--grid-size", "600"],
    "NN": ["--a", "1", "--b", "0", "--D", "1", "--case", "NN", "--grid-size", "600"],
    "DN-inf": OU_DN_INF,  # a walk
    "NN-inf": ["--a", "1", "--b", "-x", "--D", "inf", "--case", "NN"],
    "ND-inf": ["--a", "1", "--b", "0", "--D", "inf", "--case", "ND"],  # a zero report
}

# the stages each command runs on each problem, each on each table once.
# bounds runs the lower sequence and the upper window search for their first
# step alone, the others to the default n_max = 3, on the last table of the
# walk they settle on; verify's dual runs the opposite case on the dual
# table, and its criterion_zero check solves on the first two truncations
STAGE_RUNS = {
    ("bounds", "ND"): [("hypothesis_check", 1.0), ("delta", "ND", 1.0), ("lower_sequence", 1, 1.0),
        ("upper_search", 1, 1.0)],
    ("bounds", "DN"): [("hypothesis_check", 1.0), ("delta", "DN", 1.0), ("lower_sequence", 1, 1.0),
        ("upper_search", 1, 1.0)],
    ("bounds", "NN"): [("hypothesis_check", 1.0), ("delta", "NN", 1.0)],
    ("bounds", "DN-inf"): [("hypothesis_check", INF), ("delta", "DN", 2.0), ("delta", "DN", 4.0),
        ("delta", "DN", 8.0), ("lower_sequence", 1, 8.0), ("upper_search", 1, 8.0)],
    ("bounds", "NN-inf"): [("hypothesis_check", INF), ("delta", "NN", 2.0), ("delta", "NN", 4.0),
        ("delta", "NN", 8.0)],
    ("bounds", "ND-inf"): [("hypothesis_check", INF)],
    ("iterate", "ND"): [("hypothesis_check", 1.0), ("lower_sequence", 3, 1.0), ("upper_search", 3, 1.0)],
    ("iterate", "DN"): [("hypothesis_check", 1.0), ("lower_sequence", 3, 1.0), ("upper_search", 3, 1.0)],
    ("iterate", "NN"): [("hypothesis_check", 1.0), ("eta_sequence", 3, 1.0)],
    ("iterate", "DN-inf"): [("hypothesis_check", INF), ("delta", "DN", 2.0), ("delta", "DN", 4.0),
        ("delta", "DN", 8.0), ("lower_sequence", 3, 8.0), ("upper_search", 3, 8.0)],
    ("iterate", "NN-inf"): [("hypothesis_check", INF), ("delta", "NN", 2.0), ("delta", "NN", 4.0),
        ("delta", "NN", 8.0), ("eta_sequence", 3, 8.0)],
    ("iterate", "ND-inf"): [("hypothesis_check", INF)],
    ("oracle", "ND"): [("hypothesis_check", 1.0), ("solve_on_table", "ND", 1.0), ("eigen_residuals", 1.0)],
    ("oracle", "DN"): [("hypothesis_check", 1.0), ("solve_on_table", "DN", 1.0), ("eigen_residuals", 1.0)],
    ("oracle", "NN"): [("hypothesis_check", 1.0), ("solve_on_table", "NN", 1.0), ("eigen_residuals", 1.0)],
    ("oracle", "DN-inf"): [("hypothesis_check", INF), ("solve_on_table", "DN", 2.0),
        ("solve_on_table", "DN", 4.0), ("solve_on_table", "DN", 8.0), ("solve_on_table", "DN", 16.0)],
    ("oracle", "NN-inf"): [("hypothesis_check", INF), ("solve_on_table", "NN", 2.0),
        ("solve_on_table", "NN", 4.0), ("solve_on_table", "NN", 8.0), ("solve_on_table", "NN", 16.0)],
    ("oracle", "ND-inf"): [("hypothesis_check", INF)],
    ("verify", "ND"): [("hypothesis_check", 1.0), ("solve_on_table", "ND", 1.0), ("eigen_residuals", 1.0),
        ("lower_sequence", 3, 1.0), ("upper_search", 3, 1.0), ("delta", "ND", 1.0),
        ("solve_on_table", "DN", 1.0), ("delta", "DN", 1.0)],
    ("verify", "DN"): [("hypothesis_check", 1.0), ("solve_on_table", "DN", 1.0), ("eigen_residuals", 1.0),
        ("lower_sequence", 3, 1.0), ("upper_search", 3, 1.0), ("delta", "DN", 1.0),
        ("solve_on_table", "ND", 1.0), ("delta", "ND", 1.0)],
    ("verify", "NN"): [("hypothesis_check", 1.0), ("solve_on_table", "NN", 1.0), ("eigen_residuals", 1.0),
        ("delta", "NN", 1.0), ("eta_sequence", 3, 1.0)],
    ("verify", "DN-inf"): [("hypothesis_check", INF), ("solve_on_table", "DN", 2.0),
        ("solve_on_table", "DN", 4.0), ("solve_on_table", "DN", 8.0), ("solve_on_table", "DN", 16.0),
        ("eigen_residuals", 16.0), ("lower_sequence", 3, 16.0), ("upper_search", 3, 16.0),
        ("delta", "DN", 16.0)],
    ("verify", "NN-inf"): [("hypothesis_check", INF), ("solve_on_table", "NN", 2.0),
        ("solve_on_table", "NN", 4.0), ("solve_on_table", "NN", 8.0), ("solve_on_table", "NN", 16.0),
        ("eigen_residuals", 16.0), ("delta", "NN", 16.0), ("eta_sequence", 3, 16.0)],
    ("verify", "ND-inf"): [("hypothesis_check", INF), ("solve_on_table", "ND", 2.0),
        ("solve_on_table", "ND", 4.0)],
}


@pytest.mark.parametrize("command, problem", STAGE_RUNS)
def test_every_stage_runs_once_per_table(command, problem, monkeypatch, capsys):
    stages = count_stages(monkeypatch)
    assert cli.main([command, *STAGE_PROBLEMS[problem]]) == 0
    assert stages == Counter(STAGE_RUNS[command, problem])


@pytest.mark.parametrize("a, b, case, D", [
    ("1", "0", "ND", "1"), ("1", "0", "DN", "1"), ("1+x^2", "0", "DN", "1"),
    ("1", "-x", "DN", "8"), ("1", "8-x", "ND", "8"), ("exp(x)", "1", "ND", "3"),
])
def test_bounds_and_verify_print_the_same_improved_constants(a, b, case, D, capsys):
    # bounds searches the windows for step 1 alone, verify for n_max steps
    printed = {}
    for command in ("bounds", "verify"):
        cli.main([command, "--a", a, "--b", b, "--D", D, "--case", case])
        results = json.loads(capsys.readouterr().out)["results"]
        printed[command] = results.get("bounds", results)
    for key in ("delta1", "delta1_prime"):
        assert printed["bounds"][key] == printed["verify"][key], key
    assert printed["bounds"]["argmax_x"] == printed["verify"]["argmax_x"]
