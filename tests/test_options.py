"""Run options: config keys, inline flags and where a problem is validated."""

import json
import math
import threading
from pathlib import Path

import pytest

from eigenbound import cli, measures


def run(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_every_inline_flag_overrides_its_config_key(tmp_path):
    path = write_config(
        tmp_path,
        "a=1\nb=0\nD=1\ncase=ND\ngrid_size=600\nn_max=2\nformat=json\nout=x.json\n",
    )
    argv = ["bounds", "--config", path, "--a", "2", "--b", "-x", "--D", "2,inf",
            "--case", "DN", "--grid-size", "700", "--n-max", "3", "--format", "csv",
            "--out", "y.csv"]
    args = cli._build_argparser().parse_args(cli._join_flag_values(argv))
    cfg = cli._apply_cli_overrides(cli.parse_config(path), args)
    assert (cfg.a, cfg.b, cfg.D, cfg.case) == ("2", "-x", [2.0, math.inf], "DN")
    assert (cfg.grid_size, cfg.n_max, cfg.format, cfg.out) == (700, 3, "csv", "y.csv")


def test_report_echo_keys_unchanged():
    assert list(cli.RunConfig().echo()) == [
        "a", "b", "preset", "D", "case", "grid_size", "n_max", "format",
        "eps_quadrature", "eps_bound", "eps_oracle",
    ]


class TestInlineCoefficientOverPreset:
    def test_one_coefficient_without_the_other_is_a_config_error(self, tmp_path, capsys):
        # the preset must not supply the coefficient that was not given
        path = write_config(tmp_path, "preset=ou\nD=4\ncase=DN\n")
        code, out = run(capsys, ["bounds", "--config", path, "--b", "0"])
        assert code == 2
        assert out["error"]["type"] == "ConfigError"

    def test_both_coefficients_replace_the_preset(self, tmp_path, capsys):
        path = write_config(tmp_path, "preset=ou\nD=4\ncase=DN\n")
        code, out = run(capsys, ["bounds", "--config", path, "--a", "1", "--b", "0"])
        assert code == 0
        assert out["config"]["preset"] is None
        assert out["results"]["delta"] == pytest.approx(4.0, rel=1e-9)  # laplacian: D^2/4


class TestMalformedInputExits2:
    def test_bad_number_in_inline_D(self, capsys):
        code, out = run(capsys, ["bounds", "--a", "1", "--b", "0", "--D", "abc"])
        assert code == 2
        assert out["error"]["type"] == "ConfigError"
        assert "--D" in out["error"]["message"]

    def test_bad_integer_in_inline_flag(self, capsys):
        code, out = run(capsys, ["bounds", "--a", "1", "--b", "0", "--n-max", "two"])
        assert code == 2
        assert "--n-max" in out["error"]["message"]

    def test_decreasing_schedule_in_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "preset=ou\nD=inf\ncase=DN\ntruncation_schedule=4, 2\n")
        code, out = run(capsys, ["bounds", "--config", path])
        assert code == 2
        assert out["error"]["type"] == "ConfigError"
        assert "truncation_schedule" in out["error"]["message"]

    def test_bad_coefficient_is_named(self, capsys):
        code, out = run(capsys, ["bounds", "--a", "1", "--b", "1+*x", "--D", "1"])
        assert code == 2
        assert "coefficient b" in out["error"]["message"]


class TestScheduleEntries:
    @pytest.mark.parametrize("schedule", [(2.0, 4.0, math.inf), (0.0, 2.0), (-1.0, 2.0), (math.nan,)])
    def test_problem_rejects_entries(self, schedule):
        with pytest.raises(ValueError, match="truncation_schedule"):
            measures.make_problem(preset="ou", D=math.inf, truncation_schedule=schedule)

    def test_rejected_before_any_walk(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(measures, "hypothesis_check", lambda problem: calls.append(problem))
        path = write_config(tmp_path, "preset=ou\nD=inf\ncase=DN\ntruncation_schedule=2, 4, inf\n")
        code, out = run(capsys, ["bounds", "--config", path])
        assert code == 2 and calls == []
        assert "truncation_schedule" in out["error"]["message"]


@pytest.mark.parametrize("command", ["bounds", "iterate"])
def test_delta_walk_reports_whether_it_settled(command, capsys):
    code, out = run(capsys, [command, "--a", "1", "--b", "-x", "--D", "inf", "--case", "DN"])
    assert code == 0
    assert out["results"]["delta_truncation_settled"] is True
    assert out["results"]["delta_truncation_stop_reason"] == "successive truncations agree to tolerance"


def test_delta_walk_that_runs_out_of_schedule_says_so(capsys):
    code, out = run(capsys, ["bounds", "--a", "1+x^2", "--b", "0", "--D", "inf", "--case", "DN"])
    assert code == 0
    assert out["results"]["delta_truncation_settled"] is False
    assert out["results"]["delta_truncation_stop_reason"] == "schedule exhausted"


def test_sweep_runs_in_order_on_the_calling_thread(monkeypatch):
    real = measures.hypothesis_check
    seen = []

    def recording(problem):
        seen.append((problem.D, threading.get_ident()))
        return real(problem)

    monkeypatch.setattr(measures, "hypothesis_check", recording)
    cli._run(cli.RunConfig(preset="laplacian", D=[2.0, 0.5, 1.0], grid_size=400), "bounds")
    assert seen == [(d, threading.get_ident()) for d in (2.0, 0.5, 1.0)]


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = cli.parse_config(None, text=example)
    cfg.validate()
    assert (cfg.preset, cfg.D, cfg.case, cfg.n_max, cfg.format) == ("ou", [math.inf], "DN", 4, "json")
    assert cfg.truncation_schedule == (2.0, 4.0, 8.0, 16.0) and cfg.out == "report.json"
