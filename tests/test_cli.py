import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as C
import eigenbound
from eigenbound import bounds, cli, iterate, measures
from eigenbound.errors import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_flat_keys(self, tmp_path):
        path = write_config(tmp_path, 'a="1"\nb="0"\nD=1\ncase=ND\n')
        cfg = cli.parse_config(path)
        cfg.validate()
        assert (cfg.a, cfg.b, cfg.D, cfg.case) == ("1", "0", [1.0], "ND")

    def test_preset_and_inf(self, tmp_path):
        path = write_config(tmp_path, 'preset="ou"\nD="inf"\ncase=DN\n')
        cfg = cli.parse_config(path)
        cfg.validate()
        assert cfg.preset == "ou" and math.isinf(cfg.D[0])

    def test_sections_and_comments_ignored(self, tmp_path):
        path = write_config(
            tmp_path,
            "[problem]\n# comment\npreset=laplacian\nD=1\n[run]\nn_max=4\n; other comment\n",
        )
        cfg = cli.parse_config(path)
        assert cfg.n_max == 4 and cfg.preset == "laplacian"

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path, "preset=laplacian\nwrong_key=1\n")
        with pytest.raises(ConfigError, match="line 2.*wrong_key"):
            cli.parse_config(path)

    def test_bad_case_listed(self, tmp_path):
        path = write_config(tmp_path, "preset=laplacian\ncase=XY\n")
        cfg = cli.parse_config(path)
        with pytest.raises(ConfigError, match="ND, DN, NN"):
            cfg.validate()

    def test_errors_aggregate(self, tmp_path):
        path = write_config(tmp_path, "bogus=1\nn_max=oops\n")
        with pytest.raises(ConfigError, match="line 1") as err:
            cli.parse_config(path)
        assert "line 2" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/path.cfg")

    def test_sweep_list(self, tmp_path):
        path = write_config(tmp_path, "preset=laplacian\nD=0.5, 1.0, 2.0\n")
        assert cli.parse_config(path).D == [0.5, 1.0, 2.0]

    def test_bad_expression_is_config_error(self, tmp_path):
        path = write_config(tmp_path, 'a="1+*x"\nb="0"\n')
        cfg = cli.parse_config(path)
        with pytest.raises(ConfigError):
            cfg.validate()


class TestRoundTrip:
    def test_echo_reparses_equivalent(self, tmp_path):
        path = write_config(tmp_path, 'preset="ou"\nD=2\ncase=DN\nn_max=5\ngrid_size=512\n')
        cfg = cli.parse_config(path)
        cfg.validate()
        echo = cfg.echo()
        lines = []
        for key in ("a", "b", "preset", "case"):
            if echo[key] is not None:
                lines.append(f"{key}={echo[key]}")
        lines.append("D=" + ",".join(str(d) for d in echo["D"]))
        for key in ("grid_size", "n_max", "format"):
            lines.append(f"{key}={echo[key]}")
        for key in ("eps_quadrature", "eps_bound", "eps_oracle"):
            lines.append(f"{key.replace('eps_quadrature','eps_quadrature')}={echo[key]}")
        cfg2 = cli.parse_config(None, text="\n".join(lines))
        cfg2.validate()
        for field in ("a", "b", "preset", "D", "case", "grid_size", "n_max",
                      "eps_quadrature", "eps_bound", "eps_oracle"):
            assert getattr(cfg2, field) == getattr(cfg, field)


class TestCommands:
    def test_bounds_laplacian(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="ND")
        cfg.validate()
        (rep,) = cli._run(cfg, "bounds")
        assert rep["results"]["delta"] == pytest.approx(0.25, abs=1e-9)
        assert rep["results"]["positivity"] == "positive"
        assert "criterion_product" in rep["series"]
        assert rep["provenance"]["delta"]

    def test_bounds_degenerate_infinite(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="ND", grid_size=512)
        cfg.validate()
        (rep,) = cli._run(cfg, "bounds")
        assert rep["results"]["positivity"] == "zero"
        assert rep["results"]["lower_basic"] == 0.0
        assert rep["results"]["upper_basic"] == 0.0
        # the infinite constant serializes as the string "inf" (strict JSON)
        assert cli._round12(rep["results"]["delta"]) == "inf"

    def test_bounds_infinite_positive_uses_stable_truncation(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="DN", grid_size=512)
        cfg.validate()
        (rep,) = cli._run(cfg, "bounds")
        assert rep["results"]["positivity"] == "positive"
        assert rep["results"]["right_end_used"] >= 4.0
        assert rep["results"]["lower_basic"] <= 1.0 <= rep["results"]["upper_basic"]

    def test_iterate_degenerate_infinite(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="ND", grid_size=512)
        cfg.validate()
        (rep,) = cli._run(cfg, "iterate")
        assert rep["results"]["positivity"] == "zero"

    def test_oracle_infinite_trace_field(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="DN", grid_size=800)
        cfg.validate()
        (rep,) = cli._run(cfg, "oracle")
        trace = dict((p, v) for p, v in rep["results"]["trace"])
        assert trace[8.0] == pytest.approx(1.0, abs=1e-2)
        assert rep["results"]["converged"]

    def test_iterate_nn(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="NN", n_max=2, grid_size=1000)
        cfg.validate()
        (rep,) = cli._run(cfg, "iterate")
        assert rep["results"]["eta_n"][0] == pytest.approx(C.ETA1_LAPLACIAN, rel=1e-3)
        assert rep["series"]["eta_n"] == rep["results"]["eta_n"]

    def test_oracle_finite(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="DN", grid_size=1000)
        cfg.validate()
        (rep,) = cli._run(cfg, "oracle")
        assert rep["results"]["lambda"] == pytest.approx(C.PI_SQ_OVER_4, rel=1e-4)
        assert len(rep["series"]["eigenfunction"]) <= 512

    def test_sweep_order_preserved(self):
        cfg = cli.RunConfig(preset="laplacian", D=[0.5, 1.0], case="ND", grid_size=600)
        cfg.validate()
        reps = cli._run(cfg, "bounds")
        assert [r["config"]["D"] for r in reps] == [0.5, 1.0]
        assert reps[0]["results"]["delta"] == pytest.approx(0.0625, abs=1e-9)

    def test_verify_passes(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="ND", n_max=2, grid_size=1000)
        cfg.validate()
        reps = cli._run(cfg, "verify")
        assert len(reps) == 1 and reps[0]["all_pass"] is True
        names = {v["check"] for v in reps[0]["results"]["verdicts"]}
        assert {"basic_bracket", "improved_chain", "iterated_bracket", "duality"} <= names


class TestMain:
    def test_verify_exit_zero(self, capsys):
        code = cli.main(["verify", "--a", "1", "--b", "0", "--D", "1",
                         "--case", "ND", "--n-max", "2", "--grid-size", "800"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["all_pass"]

    def test_negative_drift_expression(self, capsys):
        code = cli.main(["bounds", "--a", "1", "--b", "-x", "--D", "2", "--case", "DN",
                         "--grid-size", "600"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["positivity"] == "positive"

    OU_DN_INF = ["verify", "--a", "1", "--b", "-x", "--D", "inf", "--case", "DN"]

    def test_verify_ou_dn_infinite_is_positive(self, capsys):
        # a converged mass that wanders by an ulp along the schedule is not growth
        code = cli.main(self.OU_DN_INF)
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["all_pass"]
        assert out["results"]["lambda_oracle"] == pytest.approx(1.0, abs=1e-3)
        assert out["results"]["bounds"]["positivity"] == "positive"
        assert all(v["pass"] for v in out["results"]["verdicts"])

    def test_verify_false_criterion_zero_fails(self, monkeypatch, capsys):
        real = measures.hypothesis_check

        def claims_zero(problem):
            return dataclasses.replace(
                real(problem), criterion_zero=True, criterion_zero_reason="claimed zero"
            )

        monkeypatch.setattr(measures, "hypothesis_check", claims_zero)
        code = cli.main(self.OU_DN_INF)
        out = json.loads(capsys.readouterr().out)
        assert code == 5 and not out["all_pass"]
        assert [(v["check"], v["pass"]) for v in out["results"]["verdicts"]] == [
            ("criterion_zero", False)
        ]

    def test_verify_true_criterion_zero_passes(self, capsys):
        code = cli.main(["verify", "--a", "1", "--b", "0", "--D", "inf", "--case", "ND"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["results"]["positivity"] == "zero"
        assert [(v["check"], v["pass"]) for v in out["results"]["verdicts"]] == [
            ("criterion_zero", True)
        ]

    def test_oracle_criterion_zero_reports_lambda_zero(self, capsys):
        code = cli.main(["oracle", "--a", "1", "--b", "0", "--D", "inf", "--case", "ND"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"] == {
            "lambda": 0.0, "positivity": "zero", "note": out["hypothesis"]["criterion_zero_reason"],
        }
        assert "nu(0, inf) diverges" in out["results"]["note"]

    def test_walk_with_no_evaluable_truncation_exit_4(self, capsys):
        # the scale density e^{1000 x^2 / 2} overflows on the first truncation
        code = cli.main(["bounds", "--a", "1", "--b", "-1000*x", "--D", "inf", "--case", "DN"])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 4 and err["type"] == "DegenerationError"
        assert err["message"].startswith("no truncation could be evaluated: stopped at truncation 2.0")

    def test_nan_prints_as_a_string(self, capsys):
        # NN has no double-integral identity: its deviation is NaN
        code = cli.main(["oracle", "--a", "1", "--b", "0", "--D", "1", "--case", "NN"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["identity_deviations"]["double_integral"] == "nan"

    def test_config_error_exit_2(self, capsys):
        code = cli.main(["iterate", "--a", "1", "--b", "0", "--D", "1",
                         "--case", "ND", "--n-max", "0"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 2

    @pytest.mark.parametrize("a", [
        "1+²",
        "1" + "+0*x" * 999,
        "(" * 1500 + "x" + ")" * 1500,
        "-" * 3000 + "x",
        "1+0*" + "1^" * 700 + "x",
    ])
    def test_malformed_coefficient_exit_2(self, a, capsys):
        code = cli.main(["bounds", "--a", a, "--b", "0", "--D", "1", "--case", "ND"])
        err = json.loads(capsys.readouterr().out)["error"]
        assert (code, err["type"], err["exit_code"]) == (2, "ConfigError", 2)
        assert err["message"].startswith("coefficient a: ")

    def test_bad_number_is_quoted_as_typed(self, capsys):
        code = cli.main(["bounds", "--a", "1", "--b", "-x", "--D", "ABC", "--case", "DN"])
        err = json.loads(capsys.readouterr().out)["error"]
        assert (code, err["type"]) == (2, "ConfigError")
        assert err["message"] == "bad value for --D: could not convert string to float: 'ABC'"

    @pytest.mark.parametrize("text", ["INF", "Inf"])
    def test_inf_parses_in_any_case(self, text, capsys):
        outs = [(cli.main(["bounds", "--a", "1", "--b", "0", "--D", d, "--case", "ND"]), capsys.readouterr().out)
                for d in (text, "inf")]
        assert outs[0] == outs[1] and outs[0][0] == 0 and '"D": "inf"' in outs[0][1]

    def test_bad_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds", "--case", "XY"])
        assert err.value.code == 2

    @pytest.mark.parametrize("a, b, D, case, named", [
        ("x-0.5", "0", "1", "ND", "is not positive"),
        # weights not integrable at an end: the table build's end panel does
        # not converge (on (0, inf), the mass trace's panel next to 0)
        ("x", "0", "1", "ND", "locally_integrable_near_0"),
        ("x", "0", "1", "DN", "locally_integrable_near_0"),
        ("1", "1/x", "1", "ND", "locally_integrable_near_0"),
        ("1", "-1/x", "1", "DN", "locally_integrable_near_0"),
        ("x^2", "0", "1", "NN", "locally_integrable_near_0"),
        ("1", "1/(1-x)", "1", "ND", "locally_integrable_near_right"),
        ("1-x", "0", "1", "DN", "locally_integrable_near_right"),
        ("1", "0.5/x", "1", "ND", "locally_integrable_near_0"),
        ("1", "1/x", "inf", "ND", "locally_integrable_near_0"),
        ("x", "0", "inf", "DN", "locally_integrable_near_0"),
        # the masses overflow on every split of the end panel, and its cumulant
        # increment never converges
        ("1", "1/x^2", "1", "ND", "locally_integrable_near_0"),
        ("1", "-1/x^2", "1", "ND", "locally_integrable_near_0"),
        # on (0, inf), a that fails past every truncation a walk would reach:
        # finite and not positive, -inf, or not evaluable there
        ("1-exp(x-50)", "-x", "inf", "DN", "not positive on (0, 64.0)"),
        ("100-x", "0", "inf", "ND", "not positive on (0, 128.0)"),
        ("2-exp(x)^0.0001", "0", "inf", "DN", "value -inf"),
        ("sqrt(100-x)", "0", "inf", "ND", "sqrt of negative value"),
    ])
    def test_hypothesis_violation_exit_3(self, a, b, D, case, named, capsys):
        code = cli.main(["bounds", "--a", a, "--b", b, "--D", D, "--case", case])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 3 and err["type"] == "HypothesisViolationError"
        assert named in err["message"]

    def test_failed_integrability_probe_exit_3(self, capsys):
        # b/a = 1/x^2 is not integrable at 0: no bound may be certified
        code = cli.main(["bounds", "--a", "1", "--b", "1/x^2", "--D", "1", "--case", "ND"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "HypothesisViolationError"
        assert "locally_integrable_near_0" in err["message"]

    def test_weight_integrable_at_the_tip_passes(self, capsys):
        # e^C/a = 1/sqrt(x) blows up at 0 but stays integrable there
        code = cli.main(["bounds", "--a", "sqrt(x)", "--b", "0", "--D", "1", "--case", "ND"])
        assert code == 0
        hyp = json.loads(capsys.readouterr().out)["hypothesis"]
        assert hyp["locally_integrable_near_0"] is True

    def test_singular_at_a_truncation_point_exit_3(self, capsys):
        code = cli.main(["bounds", "--a", "1", "--b", "1/(x-8)", "--D", "inf", "--case", "ND"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "HypothesisViolationError"

    def test_zero_not_read_off_a_trace_cut_by_a_singularity(self, capsys):
        # the mass trace stops before 64, where b's panel does not converge;
        # the points 2 ... 32 before it do not decide a zero eigenvalue
        code = cli.main(["bounds", "--a", "1", "--b", "1/(x-64)", "--D", "inf", "--case", "ND"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "HypothesisViolationError"

    def test_verify_refuses_a_coefficient_past_the_walk(self, capsys):
        code = cli.main(["verify", "--a", "1-exp(x-50)", "--b", "-x", "--D", "inf", "--case", "DN"])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 3 and "diffusion coefficient not positive on (0, 64.0)" in err["message"]

    def test_coefficient_that_overflows_only_ends_the_trace(self, capsys):
        # exp(x) is +inf past x = 709.8: no sign that a is not positive (ND below)
        code = cli.main(["bounds", "--a", "exp(x)", "--b", "1", "--D", "inf", "--case", "DN"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["hypothesis"]["notes"] == [
            "table build failed at truncation 1024.0"
        ]

    def test_zero_read_off_a_trace_cut_by_positivity_sampling(self, capsys):
        # exp(x) overflows at 1024: the trace stops there, not on a panel
        code = cli.main(["bounds", "--a", "exp(x)", "--b", "1", "--D", "inf", "--case", "ND"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["criterion_zero"] is True
        assert report["hypothesis"]["notes"] == ["table build failed at truncation 1024.0"]
        assert report["results"]["positivity"] == "zero"

    def test_degeneration_exit_4(self, capsys):
        code = cli.main(["bounds", "--a", "1", "--b", "x", "--D", "40",
                         "--case", "DN", "--grid-size", "256"])
        assert code == 4

    def test_verdict_failure_exit_5(self, monkeypatch):
        # any report of a --D sweep that fails a verdict fails the run
        for reports in ([{"all_pass": False}], [{"all_pass": False}, {"all_pass": True}]):
            monkeypatch.setattr(cli, "_run", lambda cfg, command, reports=reports: reports)
            assert cli.main(["verify", "--a", "1", "--b", "0", "--D", "1", "--case", "ND"]) == 5

    def test_env_tolerance_override(self, monkeypatch, capsys):
        monkeypatch.setenv("EIGENBOUND_TOLERANCE", "1e-7")
        code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND",
                         "--grid-size", "600"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["eps_bound"] == pytest.approx(1e-7)

    def test_csv_output_and_table_dump(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND",
                         "--grid-size", "600", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,value"
        assert any(line.startswith("results.delta,") for line in lines)
        table = (tmp_path / "report.csv.table.csv").read_text().splitlines()
        assert table[0] == "x,C,mu_cum,nu_cum,mu_tail,nu_tail"

    def test_csv_sweep_tags_runs(self, capsys):
        code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", "0.5,1.0",
                         "--case", "ND", "--grid-size", "600", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("run0.results.delta,") for line in out)
        assert any(line.startswith("run1.results.delta,") for line in out)

    def test_json_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["oracle", "--a", "1", "--b", "0", "--D", "1", "--case", "ND",
                         "--grid-size", "600", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["lambda"] == pytest.approx(C.PI_SQ_OVER_4, rel=1e-3)

    def test_unwritable_out_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND",
                         "--grid-size", "600", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["exit_code"]) == ("FileNotFoundError", 2)
        assert not out.parent.exists()

    def test_unwritable_table_dump_exit_2(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        (tmp_path / "report.csv.table.csv").mkdir()  # the dump path is a directory
        code = cli.main(["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND",
                         "--grid-size", "600", "--format", "csv", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["exit_code"] == 2 and "report.csv.table.csv" in err["message"]
        assert not out.exists()

    def test_bounds_does_not_import_scipy_linalg(self):
        # no command needs scipy, whose import would cost a fresh process more
        # than its whole computation, nor numpy.ma (10-14 ms of one), nor
        # numpy.polynomial (2-4 ms)
        src = str(Path(eigenbound.__file__).resolve().parents[1])
        for argv in (["bounds", "--a", "1", "--b", "0", "--D", "inf", "--case", "ND"],
                     ["oracle", "--a", "1", "--b", "0", "--D", "1", "--case", "ND"],
                     ["verify", "--a", "1", "--b", "0", "--D", "1", "--case", "ND"]):
            script = (
                "import sys\n"
                "from eigenbound import cli\n"
                f"code = cli.main({argv!r})\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')), 'numpy.ma' in sys.modules,\n"
                "      'numpy.polynomial' in sys.modules, code)\n"
            )
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
            assert proc.stdout.splitlines()[-1] == "[] False False 0", argv

    def test_a_reused_parser_prints_what_fresh_processes_print(self, capsys):
        # the argument parser is built once per process
        src = str(Path(eigenbound.__file__).resolve().parents[1])
        runs = (["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND", "--grid-size", "600"],
                ["oracle", "--a", "1", "--b", "-x", "--D", "4", "--case", "DN", "--n-max", "2", "--format", "csv"])
        for argv in runs:
            cli.main(argv)
            fresh = subprocess.run([sys.executable, "-m", "eigenbound.cli", *argv], capture_output=True,
                                   text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
            assert capsys.readouterr().out == fresh.stdout, argv

    def test_bounds_infinite_evaluates_delta_once_per_walk_point(self, monkeypatch, capsys):
        calls = []
        real = bounds.delta

        def counted(case, table):
            calls.append(table.right_end)
            return real(case, table)

        monkeypatch.setattr(bounds, "delta", counted)
        code = cli.main(["bounds", "--a", "1", "--b", "-x", "--D", "inf", "--case", "DN"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert calls == [step["p"] for step in results["delta_truncation_trace"]]

    def test_twelve_significant_digits(self, capsys):
        cli.main(["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "ND",
                  "--grid-size", "600"])
        out = capsys.readouterr().out
        val = json.loads(out)["results"]["delta1"]
        assert len(repr(val).replace(".", "").replace("-", "").lstrip("0")) <= 13


class TestMirrorPair:
    """x -> 8 - x maps OU DN on (0, 8) onto a = 1, b = 8 - x, ND on (0, 8)."""

    SHARED = ("lambda_oracle", "delta_n", "delta_n_prime")
    BOUNDS = ("delta", "delta1", "delta1_prime")

    @staticmethod
    def verify(capsys, b, case):
        code = cli.main(["verify", "--a", "1", "--b", b, "--D", "8", "--case", case])
        return code, json.loads(capsys.readouterr().out)["results"]

    def test_nd_mirror_of_ou_dn_matches(self, capsys):
        code_nd, nd = self.verify(capsys, "8-x", "ND")
        code_dn, dn = self.verify(capsys, "-x", "DN")
        assert code_nd == 0 and code_dn == 0
        for key in self.SHARED:
            assert nd[key] == pytest.approx(dn[key], rel=1e-10), key
        for key in self.BOUNDS:
            assert nd["bounds"][key] == pytest.approx(dn["bounds"][key], rel=1e-10), key
        v_nd = {v["check"]: v["pass"] for v in nd["verdicts"]}
        v_dn = {v["check"]: v["pass"] for v in dn["verdicts"]}
        assert set(v_dn) - set(v_nd) == {"upper_sequence_monotone"}
        assert all(v_nd.values()) and all(v_dn.values())


class TestEtaWindow:
    def test_ou_nn_d12_keeps_its_ratio_window(self, capsys):
        # with speed density e^{-x^2/2} the centered tail integrals fall
        # far below 1e-12 of their maximum near x = 12; only values under
        # their own rounding bound may leave the ratio window
        code = cli.main(["verify", "--a", "1", "--b", "-x", "--D", "12", "--case", "NN"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["all_pass"]
        eta = out["results"]["eta_n"]
        assert eta == pytest.approx([0.683114828109, 0.552718703185, 0.519549284198], rel=1e-9)
        assert all(1 / e <= out["results"]["lambda_oracle"] for e in eta)


_TINY_INTERVALS = [
    ("oracle", "1e-100", "ND"), ("verify", "1e-100", "ND"), ("bounds", "1e-100", "ND"),
    ("bounds", "1e-155", "ND"), ("bounds", "1e-160", "ND"), ("bounds", "5e-324", "ND"),
    ("iterate", "1e-160", "ND"), ("oracle", "1e-106", "ND"), ("oracle", "1e-154", "ND"),
    ("oracle", "1e-155", "ND"), ("verify", "1e-155", "ND"), ("oracle", "1e-160", "ND"),
    ("verify", "1e-160", "ND"),
    # the sequences start from a power of two near their max, so their transforms stay normal
    ("bounds", "1e-110", "ND"), ("iterate", "1e-110", "ND"), ("verify", "1e-110", "ND"),
    ("iterate", "1e-154", "ND"),
    # NN: G B's products of three masses would underflow; the solve scales the masses
    ("oracle", "1e-106", "NN"), ("oracle", "1e-110", "NN"), ("oracle", "1e-130", "NN"),
]


class TestUnresolvableProblems:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--a", "1", "--b", "1/(x-0.5)", "--D", "1", "--case", "ND"],
        ["verify", "--a", "(x-0.5)^2", "--b", "0", "--D", "1", "--case", "DN"],
        # masses that overflow where b/a does not converge: not a float-range failure
        ["bounds", "--a", "1", "--b", "-1/(x-0.5)^2", "--D", "1", "--case", "ND"],
    ])
    def test_singularity_inside_the_interval_exit_3(self, argv, capsys):
        # a weight non-integrable at x = 0.5 leaves panels there over
        # tolerance after refinement; no bound may be certified
        code = cli.main(argv)
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 3 and err["type"] == "HypothesisViolationError"
        assert "x = 0.49999" in err["message"]

    @pytest.mark.parametrize("argv, overflowed", [
        (["bounds", "--a", "1", "--b", "0", "--D", "1e300", "--case", "ND"],
         "product of the speed-measure mass of (0, x) and the scale-measure mass"),
        (["bounds", "--a", "1", "--b", "-50*x", "--D", "10", "--case", "DN"],
         "the scale-measure mass over (0, 10) overflowed"),
        (["bounds", "--a", "1", "--b", "x", "--D", "40", "--case", "DN", "--grid-size", "256"],
         "the speed-measure mass over (0, 40) overflowed"),
        # OU DN: the scale mass e^(x^2/2) itself leaves the float range
        (["bounds", "--a", "1", "--b", "-x", "--D", "38", "--case", "DN"],
         "the scale-measure mass over (0, 38) overflowed"),
    ], ids=["ND-D1e300", "DN-b-50x", "DN-b-x-D40", "DN-ou-D38"])
    def test_overflow_on_a_finite_interval_exit_4(self, argv, overflowed, capsys):
        # every mass on a finite (0, D) is finite, so an overflow there is a
        # float-range failure, never a certified zero eigenvalue
        code = cli.main(argv)
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 4 and err["type"] == "DegenerationError"
        assert overflowed in err["message"]

    @pytest.mark.parametrize("D", ["26", "27", "32", "37"])
    def test_ou_dn_below_the_scale_overflow_resolves(self, D, capsys):
        # every D whose table fits brackets the eigenvalue 1: the improved
        # constants are sequence steps, started from a power of two
        code = cli.main(["bounds", "--a", "1", "--b", "-x", "--D", D, "--case", "DN"])
        res = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert res["lower_improved"] <= 1 <= res["upper_improved"]

    @staticmethod
    def non_finite(node):
        if isinstance(node, dict):
            return any(TestUnresolvableProblems.non_finite(v) for v in node.values())
        if isinstance(node, list):
            return any(TestUnresolvableProblems.non_finite(v) for v in node)
        return node in ("inf", "-inf", "nan") or (isinstance(node, float) and not math.isfinite(node))

    @pytest.mark.parametrize("command, D, case", _TINY_INTERVALS, ids=[
        "-".join(row[:2] if row[2] == "ND" else row) for row in _TINY_INTERVALS
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_interval_is_a_json_error_or_finite(self, command, D, case, capsys):
        code = cli.main([command, "--a", "1", "--b", "0", "--D", D, "--case", case])
        out = json.loads(capsys.readouterr().out)
        assert code != 1
        if code == 0:
            if case == "NN":  # no double-integral identity: its deviation is NaN at every D
                assert out["results"]["identity_deviations"].pop("double_integral") == "nan"
            assert not self.non_finite(out["results"])
        else:
            assert out["error"]["exit_code"] == code
        if (command, D) == ("bounds", "1e-100") or (D, case) == ("1e-110", "ND"):
            assert code == 0
        if command in ("oracle", "verify") and float(D) <= 1e-154:
            # refused at the start vector, where G B's Rayleigh quotient has no finite reciprocal
            assert code == 4
        if D == "5e-324":  # every panel has zero width: refused where the table is built
            assert code == 4 and "zero width" in out["error"]["message"]
        if case == "NN":
            assert code == 0
            assert out["results"]["lambda"] == pytest.approx(math.pi**2 / float(D) ** 2, rel=1e-6)

    @pytest.mark.parametrize("case, code", [("NN", 0), ("ND", 4)])
    def test_nn_bounds_print_a_delta_without_a_reciprocal(self, case, code, capsys):
        # delta = 2.5e-321 on (0, 1e-160) has no finite reciprocal: ND prints
        # 1/delta and refuses, NN prints delta alone
        assert cli.main(["bounds", "--a", "1", "--b", "0", "--D", "1e-160", "--case", case]) == code
        out = json.loads(capsys.readouterr().out)
        if code:
            assert out["error"]["exit_code"] == 4 and "no finite nonzero reciprocal" in out["error"]["message"]
        else:
            assert out["results"]["delta"] == 2.5e-321 and out["results"]["upper_basic"] is None

    @pytest.mark.parametrize("command, a, D", [
        ("oracle", "1", "1e-104"), ("oracle", "1", "1e-106"), ("oracle", "1", "1e-120"),
        ("oracle", "1", "1e-150"), ("oracle", "1e200", "1"), ("verify", "1e200", "1"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eigenvalue_large_against_the_masses_is_resolved(self, command, a, D, capsys):
        # the Rayleigh quotient's denominator, about a mass over lambda, is
        # subnormal here; lambda itself and its enclosure are floats
        code = cli.main([command, "--a", a, "--b", "0", "--D", D, "--case", "ND"])
        out = json.loads(capsys.readouterr().out)
        res = out["results"]
        lam = res["lambda" if command == "oracle" else "lambda_oracle"]
        assert code == 0 and not self.non_finite(res)
        assert res["lambda_lo"] <= lam <= res["lambda_hi"]
        # the grid's own error, as at D = 1: the scheme is scale-free
        assert lam == pytest.approx(math.pi**2 * float(a) / (4 * float(D) ** 2), rel=2e-7)
        if command == "verify":
            assert out["all_pass"]


class TestOverflowingTruncation:
    """b = -x^3 on (0, inf): the scale mass e^{x^4/4} leaves the float range
    on (0, 8), which says nothing of the eigenvalue (the speed mass converges,
    so it is positive).  The walk ends on (0, 4), unsettled."""

    CUBIC = ["--a", "1", "--b", "-x^3", "--case"]

    def run(self, capsys, command, case, D="inf"):
        code = cli.main([command, *self.CUBIC, case, "--D", D])
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("case", ["DN", "NN"])
    def test_bounds_positive(self, case, capsys):
        code, out = self.run(capsys, "bounds", case)
        res = out["results"]
        assert code == 0 and res["positivity"] == "positive"
        assert res["right_end_used"] == 4.0 and res["delta_truncation_settled"] is False
        assert "scale-measure mass over (0, 8) overflowed" in res["delta_truncation_stop_reason"]
        if case == "DN":
            _, ref = self.run(capsys, "oracle", "DN", D="4")
            lam = ref["results"]["lambda"]
            assert res["lower_improved"] <= lam <= res["upper_improved"]

    @pytest.mark.parametrize("case, lower", [("DN", "lower_bounds"), ("NN", "gap_lower_bounds")])
    def test_iterate_positive(self, case, lower, capsys):
        code, out = self.run(capsys, "iterate", case)
        assert code == 0
        assert all(v > 0 for v in out["results"][lower])


class TestReportKeys:
    """The keys each command reports under "results", and verify's verdicts."""

    SEQUENCES = {
        "ND": {"delta_n", "delta_n_monotonicity", "lower_bounds", "delta_n_prime",
               "delta_n_prime_monotonicity", "upper_bounds", "window_locations", "dbar_n"},
        "DN": {"delta_n", "delta_n_monotonicity", "lower_bounds", "delta_n_prime",
               "delta_n_prime_monotonicity", "upper_bounds", "window_locations"},
        "NN": {"eta_n", "eta_n_monotonicity", "gap_lower_bounds", "sign_changes", "notes"},
    }
    VERIFY = {
        "ND": {"delta_n", "delta_n_prime", "dbar_n", "duality"},
        "DN": {"delta_n", "delta_n_prime", "duality"},
        "NN": {"eta_n", "eta_monotonicity"},
    }
    VERDICTS = {
        "ND": ["basic_bracket", "improved_chain", "delta1_prime_containment", "iterated_bracket",
               "lower_sequence_monotone", "eigen_identities", "duality", "oracle_residual"],
        "DN": ["basic_bracket", "improved_chain", "delta1_prime_containment", "iterated_bracket",
               "lower_sequence_monotone", "upper_sequence_monotone", "eigen_identities", "duality",
               "oracle_residual"],
        "NN": ["gap_lower_bounds", "eta_direction_consistent", "oracle_residual"],
    }

    @staticmethod
    def results(command, case, capsys):
        code = cli.main([command, "--a", "1", "--b", "0", "--D", "1", "--case", case,
                         "--grid-size", "400", "--n-max", "2"])
        assert code == 0
        return json.loads(capsys.readouterr().out)["results"]

    @pytest.mark.parametrize("case", ["ND", "DN", "NN"])
    def test_iterate_keys(self, case, capsys):
        assert set(self.results("iterate", case, capsys)) == self.SEQUENCES[case] | {"right_end_used"}

    @pytest.mark.parametrize("case", ["ND", "DN", "NN"])
    def test_verify_keys(self, case, capsys):
        results = self.results("verify", case, capsys)
        assert set(results) == self.VERIFY[case] | {"lambda_oracle", "lambda_lo", "lambda_hi", "bounds",
                                                    "residual", "verdicts"}
        assert [v["check"] for v in results["verdicts"]] == self.VERDICTS[case]


class TestSmallEigenvalues:
    """ND problems whose eigenvalue lies far below the norm of the scheme's
    matrix: OU with its Dirichlet end far out, and two double wells.  The
    oracle's value must lie inside the certified improved bracket and inside
    its own enclosure."""

    @staticmethod
    def verify(b, D, capsys):
        code = cli.main(["verify", "--a", "1", "--b", b, "--D", D, "--case", "ND"])
        results = json.loads(capsys.readouterr().out)["results"]
        lam, rep = results["lambda_oracle"], results["bounds"]
        assert rep["lower_improved"] <= lam <= rep["upper_improved"]
        assert results["lambda_lo"] <= lam <= results["lambda_hi"]
        return code, results

    @pytest.mark.parametrize("D, lam", [
        ("5", 1.42110277621e-05), ("7", 1.2515670002e-10), ("8", 7.95302930201e-14),
    ])
    def test_ou_nd_passes(self, D, lam, capsys):
        code, results = self.verify("-x", D, capsys)
        assert code == 0
        assert results["lambda_oracle"] == pytest.approx(lam, rel=1e-10)

    @pytest.mark.parametrize("b, D, lam", [
        ("-20*(x-1)*(x-2)*(x-3)", "4", 4.05408313132e-18),
        ("-10*(x-1)*(x-2.5)*(x-4)", "5", 5.49840421993e-16),
    ])
    def test_double_well_fails_only_the_lower_sequence_direction(self, b, D, lam, capsys):
        # every verdict that reads the oracle passes; delta_n rising on a
        # double well is a finding about the lower sequence, left standing
        code, results = self.verify(b, D, capsys)
        assert results["lambda_oracle"] == pytest.approx(lam, rel=1e-10)
        failed = [v["check"] for v in results["verdicts"] if not v["pass"]]
        assert (code, failed) == (5, ["lower_sequence_monotone"])


class TestVerdicts:
    """Every verdict's check, pass and detail, frozen from the hand-written
    checks that the chain and direction lists replaced.  Together the problems
    reach every verdict name, the criterion_zero path, and failures of the
    truncation walk, both chains, the lower sequence's direction, the
    identities and duality."""

    FROZEN = {
    ('1', '0', '1', 'ND', ()): (0, [
        ('basic_bracket', True, '1 <= 2.46740082 <= 4'),
        ('improved_chain', True, '1 <= 2.33921457 <= 2.46740082 <= 2.66666769 <= 4'),
        ('delta1_prime_containment', True, '0.25 <= 0.374999857 <= 0.5'),
        ('iterated_bracket', True, 'lower 2.46551781 <= lambda <= upper 2.47058529 (1e-2 relative slack)'),
        ('lower_sequence_monotone', True, 'delta_n: non-increasing'),
        ('eigen_identities', True, 'sup |lambda*I(g)-1| = 5.57e-07, sup |lambda*II(g)-1| = 3.68e-07'),
        ('duality', True, 'lambda: 2.46740082 vs dual 2.46740082; delta: 0.25 vs 0.25'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 4.44e-16"),
    ]),
    ('1', '0', '1', 'DN', ()): (0, [
        ('basic_bracket', True, '1 <= 2.46740082 <= 4'),
        ('improved_chain', True, '1 <= 2.33921457 <= 2.46740082 <= 2.66666769 <= 4'),
        ('delta1_prime_containment', True, '0.25 <= 0.374999857 <= 0.5'),
        ('iterated_bracket', True, 'lower 2.46551781 <= lambda <= upper 2.47058529 (1e-2 relative slack)'),
        ('lower_sequence_monotone', True, 'delta_n: non-increasing'),
        ('upper_sequence_monotone', True, 'delta_n_prime: non-decreasing'),
        ('eigen_identities', True, 'sup |lambda*I(g)-1| = 5.57e-07, sup |lambda*II(g)-1| = 3.68e-07'),
        ('duality', True, 'lambda: 2.46740082 vs dual 2.46740082; delta: 0.25 vs 0.25'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 4.44e-16"),
    ]),
    ('1', '-x', '12', 'NN', ()): (0, [
        ('gap_lower_bounds', True, 'max lower bound 1.92474522 vs gap 1.99989385'),
        ('eta_direction_consistent', True, 'eta_n: non-increasing'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 4.44e-16"),
    ]),
    ('1', '0', 'inf', 'ND', ()): (0, [
        ('criterion_zero', True, 'scale mass nu(0, inf) diverges, so the ND eigenvalue is 0; truncation eigenvalues lambda(2) = 0.61685, lambda(4) = 0.154213; passes when p*lambda(p) does not grow (lambda falls at least like 1/p)'),
    ]),
    ('1', '-x', 'inf', 'DN', ()): (0, [
        ('truncation_limit_converged', True, 'successive truncations agree to tolerance'),
        ('basic_bracket', True, '0.522120569 <= 0.999980862 <= 2.08848228'),
        ('improved_chain', True, '0.522120569 <= 0.87242499 <= 0.999980862 <= 1.25419342 <= 2.08848228'),
        ('delta1_prime_containment', True, '0.478816608 <= 0.797325185 <= 0.957633216'),
        ('iterated_bracket', True, 'lower 0.990086884 <= lambda <= upper 1.04860699 (1e-2 relative slack)'),
        ('lower_sequence_monotone', True, 'delta_n: non-increasing'),
        ('upper_sequence_monotone', True, 'delta_n_prime: non-decreasing'),
        ('eigen_identities', True, 'sup |lambda*I(g)-1| = 7.71e-05, sup |lambda*II(g)-1| = 0.000987'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 2.22e-16"),
    ]),
    ('1', '1', 'inf', 'ND', ()): (5, [
        ('truncation_limit_converged', False, 'stopped at truncation 1024.0: the speed-measure mass over (0, 1024) overflowed the float range'),
        ('basic_bracket', True, '0.235777551 <= 0.239672048 <= 0.943110205'),
        ('improved_chain', False, '0.235777551 <= 0.247546822 <= 0.239672048 <= 0.495081084 <= 0.943110205'),
        ('delta1_prime_containment', True, '1.06032147 <= 2.01987115 <= 2.12064294'),
        ('iterated_bracket', False, 'lower 0.247547602 <= lambda <= upper 0.353637303 (1e-2 relative slack)'),
        ('lower_sequence_monotone', True, 'delta_n: constant'),
        ('eigen_identities', False, 'sup |lambda*I(g)-1| = 0.00309, sup |lambda*II(g)-1| = 0.0336'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 1.25e-14"),
    ]),
    ('1', '-20*(x-1)*(x-2)*(x-3)', '4', 'ND', ()): (5, [
        ('basic_bracket', True, '1.01352078e-18 <= 4.05408313e-18 <= 4.05408313e-18'),
        ('improved_chain', True, '1.01352078e-18 <= 4.05408313e-18 <= 4.05408313e-18 <= 4.05408313e-18 <= 4.05408313e-18'),
        ('delta1_prime_containment', True, '2.46664897e+17 <= 2.46664897e+17 <= 4.93329795e+17'),
        ('iterated_bracket', True, 'lower 4.05408313e-18 <= lambda <= upper 4.05408313e-18 (1e-2 relative slack)'),
        ('lower_sequence_monotone', False, 'delta_n: non-decreasing'),
        ('eigen_identities', True, 'sup |lambda*I(g)-1| = 2.66e-10, sup |lambda*II(g)-1| = 2.44e-15'),
        ('duality', True, 'lambda: 4.05408313e-18 vs dual 4.05408313e-18; delta: 2.46664897e+17 vs 2.46664897e+17'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 3.33e-16"),
    ]),
    ('1+x^2', '0', '8192', 'DN', ('--grid-size', '1000')): (5, [
        ('basic_bracket', True, '0.250645162 <= 0.312096585 <= 1.00258065'),
        ('improved_chain', True, '0.250645162 <= 0.281469049 <= 0.312096585 <= 0.507001695 <= 1.00258065'),
        ('delta1_prime_containment', True, '0.997425996 <= 1.97237999 <= 1.99485199'),
        ('iterated_bracket', True, 'lower 0.309737151 <= lambda <= upper 0.369251841 (1e-2 relative slack)'),
        ('lower_sequence_monotone', True, 'delta_n: non-increasing'),
        ('upper_sequence_monotone', True, 'delta_n_prime: non-decreasing'),
        ('eigen_identities', False, 'sup |lambda*I(g)-1| = 0.0557, sup |lambda*II(g)-1| = 0.0557'),
        ('duality', False, 'lambda: 0.312096585 vs dual 0.313705393; delta: 0.997425996 vs 0.997425996'),
        ('oracle_residual', True, "Green's-function defect max|lambda*G*B*g - g|/max|g| = 3.33e-16"),
    ]),
    }

    @pytest.mark.parametrize("problem", list(FROZEN), ids=lambda p: " ".join([*p[:4], *p[4]]))
    def test_verdicts_match_the_frozen_checks(self, problem, capsys):
        a, b, D, case, extra = problem
        code = cli.main(["verify", "--a", a, "--b", b, "--D", D, "--case", case, *extra])
        verdicts = json.loads(capsys.readouterr().out)["results"]["verdicts"]
        assert (code, [(v["check"], v["pass"], v["detail"]) for v in verdicts]) == self.FROZEN[problem]

    def test_frozen_problems_reach_every_verdict(self):
        names = {v[0] for _, verdicts in self.FROZEN.values() for v in verdicts}
        assert names == {
            "basic_bracket", "improved_chain", "delta1_prime_containment", "iterated_bracket",
            "lower_sequence_monotone", "upper_sequence_monotone", "eigen_identities", "duality",
            "truncation_limit_converged", "oracle_residual", "gap_lower_bounds",
            "eta_direction_consistent", "criterion_zero",
        }

    @pytest.mark.parametrize("hi, slack", [
        (0.0, 1e-6),  # an absolute slack
        (1.0, 10 * 1e-6),
        (2.46740082, 1e-2 * 2.46740082),  # a relative slack
        (0.312096585, 1e-2 * 0.312096585),
    ])
    def test_chain_passes_at_its_slack_and_fails_one_float_above(self, hi, slack):
        lo = hi + slack
        assert cli._chain("c", [lo, hi], slack)["pass"]
        assert not cli._chain("c", [math.nextafter(lo, math.inf), hi], slack)["pass"]

    def test_chain_checks_every_step_and_prints_the_chain(self):
        assert cli._chain("c", [1.0, 2.0, 3.0], 0.0) == {"check": "c", "pass": True, "detail": "1 <= 2 <= 3"}
        assert not cli._chain("c", [1.0, 3.0, 2.0], 0.5)["pass"]
        assert not cli._chain("c", [1.0, math.nan], 1.0)["pass"]
        assert cli._chain("c", [1.0, 2.0], 0.0, "custom")["detail"] == "custom"

    @pytest.mark.parametrize("label, passes", [
        ("non-increasing", True), ("constant", True), ("single", True),
        ("non-decreasing", False), ("mixed", False),
    ])
    def test_direction_allows_its_directions_and_the_constant_ones(self, label, passes):
        trace = iterate.IterationTrace(values=[1.0], monotonicity=label)
        verdict = cli._direction("d", "delta_n", trace, "non-increasing")
        assert verdict == {"check": "d", "pass": passes, "detail": f"delta_n: {label}"}



# The renderer that render_report's JSON path replaced, frozen here: its
# output must stay byte for byte what this gives on every report.
def _frozen_round12(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return _frozen_round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _frozen_round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_frozen_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_frozen_round12(float(v)) for v in obj.tolist()]
    return obj


def _frozen_render(obj):
    return json.dumps(_frozen_round12(obj), indent=2)


# floats whose "%.12g" repr spells otherwise, and their neighbours
_SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 123456789012.0, 0.99999999999999, 999999999999.5,
    1e12, 1.5e13, 9.99999999999e15, 1e16, 1.234e17, 1e19, 1e20, 1e300, 1.7976931348623157e308,
    2.2250738585072014e-308, 2.225e-308, 1e-300, 1e-299, 5e-324, 1e-320, -4.9e-322,
    1e-5, 1e-4, 0.1, math.inf, -math.inf, math.nan,
]
_floats = st.one_of(
    st.floats(),  # nan, inf, subnormals and +-0.0 among them
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(1e12, 1e16, exclude_max=True),
    st.floats(min_value=1e16),
    st.integers(-10**15, 10**15).map(float),
)
_float_lists = st.lists(_floats, max_size=12)
_strings = st.one_of(st.text(max_size=8), st.sampled_from(["\x00", 'a", "\x00']))
_leaves = st.one_of(
    _floats, _floats.map(np.float64), st.integers(), st.integers(-2**62, 2**62).map(np.int64),
    st.booleans(), st.none(), _strings,
    _float_lists, _float_lists.map(tuple), _float_lists.map(np.array),
    st.lists(st.integers(-2**53, 2**53), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_strings, kids, max_size=4),
    ),
    max_leaves=24,
)


def _benchmark_argv():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for ops in workloads.WORKLOADS.values() for op in ops]


class TestRenderReport:
    @settings(max_examples=400, deadline=None)
    @given(_trees)
    def test_json_matches_the_frozen_renderer(self, tree):
        assert cli.render_report(tree, "json") == _frozen_render(tree)

    @pytest.mark.parametrize("value", _SPECIAL_FLOATS, ids=repr)
    def test_special_floats_in_an_array_and_alone(self, value):
        for tree in ([value], [1.5, value, 2.5], {"a": {"b": (value, value)}}, value, np.array([value, 1.0])):
            assert cli.render_report(tree, "json") == _frozen_render(tree)

    @pytest.mark.parametrize("tree", [
        [], {"x": []}, {"x": np.array([])}, np.array([1, 2, -3]), {"n": np.array([2**60 + 1])},
        [np.float64(0.1), 0.2], {"D": [1.0, 2.0]}, [{"x": [1.0]}, {"x": [2.0]}],
        {"\x00": [1.0]}, {"s": "\x00", "x": [1.0, 2.0]},  # strings that spell the placeholder
    ], ids=repr)
    def test_edge_trees(self, tree):
        assert cli.render_report(tree, "json") == _frozen_render(tree)

    _ARGV = [
        *_benchmark_argv(),
        ["bounds", "--a", "1", "--b", "0", "--D", "1", "--case", "NN"],
        ["oracle", "--a", "1", "--b", "-x", "--D", "4", "--case", "NN"],
        ["iterate", "--a", "1", "--b", "0", "--D", "1", "--case", "NN"],
        ["oracle", "--a", "1", "--b", "-x", "--D", "4,8", "--case", "DN"],
        ["bounds", "--a", "1+x^2", "--b", "0", "--D", "2,inf", "--case", "DN"],
        ["iterate", "--a", "1", "--b", "0", "--D", "1,2", "--case", "ND"],
    ]

    @pytest.mark.parametrize("argv", _ARGV, ids=" ".join)
    def test_cli_prints_what_the_frozen_renderer_prints(self, argv, monkeypatch, capsys):
        seen = []
        render = cli.render_report

        def spy(report, fmt):
            seen.append(report)
            return render(report, fmt)

        monkeypatch.setattr(cli, "render_report", spy)
        cli.main(argv)
        assert len(seen) == 1
        assert capsys.readouterr().out == _frozen_render(seen[0]) + "\n"
