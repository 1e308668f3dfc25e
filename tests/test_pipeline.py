"""The command pipeline: one hypothesis check, one table per truncation, one
run of each sequence, one dump."""

import csv
import json
import sys
from collections import Counter

import pytest

from eigenbound import cli, iterate, measures

OU_DN_INF = ["--a", "1", "--b", "-x", "--D", "inf", "--case", "DN"]


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


def test_no_table_dump_when_the_criterion_decides_zero(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", "inf", "--case", "ND",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    assert "results.positivity,zero" in out.read_text().splitlines()
    assert not (tmp_path / "report.csv.table.csv").exists()


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
    """Count the lower sequence and the upper window search by their n_max."""
    real_low, real_up = iterate.lower_sequence, iterate._family_sup
    stages: Counter = Counter()

    def lower(case, table, n_max):
        stages[("lower_sequence", n_max)] += 1
        return real_low(case, table, n_max)

    def upper(table, n_max, *rest):
        stages[("upper_search", n_max)] += 1
        return real_up(table, n_max, *rest)

    monkeypatch.setattr(iterate, "lower_sequence", lower)
    monkeypatch.setattr(iterate, "_family_sup", upper)
    return stages


@pytest.mark.parametrize("case", ["ND", "DN"])
@pytest.mark.parametrize("command, n_max", [("bounds", 1), ("verify", 3)])
def test_no_sequence_runs_twice(command, n_max, case, monkeypatch, capsys):
    # verify reads delta1 and delta1' off the traces it prints, at the
    # default n_max = 3; bounds runs both sequences for their first step alone
    stages = count_stages(monkeypatch)
    assert cli.main([command, "--a", "1", "--b", "0", "--D", "1", "--case", case, "--grid-size", "600"]) == 0
    assert stages == Counter({("lower_sequence", n_max): 1, ("upper_search", n_max): 1})


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
