"""The command pipeline: one hypothesis check, one table per truncation, one dump."""

import csv
import sys
from collections import Counter

import pytest

from eigenbound import cli, measures

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
