import dataclasses
import json
import math

import pytest

import conftest as C
from eigenbound import cli, measures
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
        (rep,) = cli.cmd_bounds(cfg)
        assert rep["results"]["delta"] == pytest.approx(0.25, abs=1e-9)
        assert rep["results"]["positivity"] == "positive"
        assert "criterion_product" in rep["series"]
        assert rep["provenance"]["delta"]

    def test_bounds_degenerate_infinite(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="ND", grid_size=512)
        cfg.validate()
        (rep,) = cli.cmd_bounds(cfg)
        assert rep["results"]["positivity"] == "zero"
        assert rep["results"]["lower_basic"] == 0.0
        assert rep["results"]["upper_basic"] == 0.0
        # the infinite constant serializes as the string "inf" (strict JSON)
        assert cli._round12(rep["results"]["delta"]) == "inf"

    def test_bounds_infinite_positive_uses_stable_truncation(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="DN", grid_size=512)
        cfg.validate()
        (rep,) = cli.cmd_bounds(cfg)
        assert rep["results"]["positivity"] == "positive"
        assert rep["results"]["right_end_used"] >= 4.0
        assert rep["results"]["lower_basic"] <= 1.0 <= rep["results"]["upper_basic"]

    def test_iterate_degenerate_infinite(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="ND", grid_size=512)
        cfg.validate()
        (rep,) = cli.cmd_iterate(cfg)
        assert rep["results"]["positivity"] == "zero"

    def test_oracle_infinite_trace_field(self):
        cfg = cli.RunConfig(preset="ou", D=[math.inf], case="DN", grid_size=800)
        cfg.validate()
        (rep,) = cli.cmd_oracle(cfg)
        trace = dict((p, v) for p, v in rep["results"]["trace"])
        assert trace[8.0] == pytest.approx(1.0, abs=1e-2)
        assert rep["results"]["converged"]

    def test_iterate_nn(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="NN", n_max=2, grid_size=1000)
        cfg.validate()
        (rep,) = cli.cmd_iterate(cfg)
        assert rep["results"]["eta_n"][0] == pytest.approx(C.ETA1_LAPLACIAN, rel=1e-3)
        assert rep["series"]["eta_n"] == rep["results"]["eta_n"]

    def test_oracle_finite(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="DN", grid_size=1000)
        cfg.validate()
        (rep,) = cli.cmd_oracle(cfg)
        assert rep["results"]["lambda"] == pytest.approx(C.PI_SQ_OVER_4, rel=1e-4)
        assert len(rep["series"]["eigenfunction"]) <= 512

    def test_sweep_order_preserved(self):
        cfg = cli.RunConfig(preset="laplacian", D=[0.5, 1.0], case="ND", grid_size=600)
        cfg.validate()
        reps = cli.cmd_bounds(cfg)
        assert [r["config"]["D"] for r in reps] == [0.5, 1.0]
        assert reps[0]["results"]["delta"] == pytest.approx(0.0625, abs=1e-9)

    def test_verify_passes(self):
        cfg = cli.RunConfig(preset="laplacian", D=[1.0], case="ND", n_max=2, grid_size=1000)
        cfg.validate()
        reps, ok = cli.cmd_verify(cfg)
        assert ok
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
        assert out["results"]["lambda_infinite_limit"] == pytest.approx(1.0, abs=1e-3)
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

    def test_config_error_exit_2(self, capsys):
        code = cli.main(["iterate", "--a", "1", "--b", "0", "--D", "1",
                         "--case", "ND", "--n-max", "0"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 2

    def test_bad_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bounds", "--case", "XY"])
        assert err.value.code == 2

    def test_hypothesis_violation_exit_3(self, capsys):
        code = cli.main(["bounds", "--a", "x-0.5", "--b", "0", "--D", "1", "--case", "ND"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "HypothesisViolationError"

    def test_degeneration_exit_4(self, capsys):
        code = cli.main(["bounds", "--a", "1", "--b", "x", "--D", "40",
                         "--case", "DN", "--grid-size", "256"])
        assert code == 4

    def test_verdict_failure_exit_5(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_verify", lambda cfg: ([{"all_pass": False}], False))
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
