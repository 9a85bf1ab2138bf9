"""End-to-end CLI checks, run in-process through main().

Sizes are kept tiny: the full-scale acceptance run already lives in
test_acceptance, so here the verify command is exercised at a path count
where the overshoot criterion honestly fails and the exit code must be 3.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from passagelab import analytic, cli, weber
from passagelab.acceptance import AcceptanceSettings
from passagelab.analytic import VolterraGrid
from passagelab.cli import _build_parser, main, resolve_config
from passagelab.errors import StructuralError
from passagelab.paths import Jump, PiecewisePath, Segment, save_path

TINY_SIM = ["--set", "sim.n_paths=600", "--set", "sim.step=0.005",
            "--set", "sim.horizon=25"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def kv_lines(out):
    pairs = {}
    for line in out.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def table_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


class TestClassify:
    def test_corpus_touch_and_jump(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--corpus",
                               "touch_and_jump")
        assert code == 0
        pairs = kv_lines(out)
        assert pairs["mode"] == "TOUCH_JUMP"
        assert pairs["premature_contact"] == "no"
        assert pairs["announcing_converged"] == "yes"
        assert float(pairs["tau_contact"]) == float(pairs["tau"])
        assert pairs["tau_gap"] == "inf"

    def test_corpus_premature_contact(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--corpus",
                               "premature_contact")
        assert code == 0
        pairs = kv_lines(out)
        assert pairs["mode"] == "CREEP"
        assert pairs["premature_contact"] == "yes"
        assert float(pairs["contact_witness"]) == 1.0
        assert pairs["announcing_converged"] == "no"
        assert float(pairs["sigma_limit"]) < float(pairs["tau"])

    def test_path_file(self, tmp_path, capsys):
        path = PiecewisePath(
            segments=(Segment(0.0, 4.0, -2.0, 1.0),), jumps=(), horizon=4.0)
        fname = tmp_path / "ramp.path"
        save_path(path, fname)
        code, out, _ = run_cli(capsys, "classify", str(fname))
        assert code == 0
        pairs = kv_lines(out)
        assert pairs["mode"] == "CREEP"
        assert math.isclose(float(pairs["tau"]), 2.0)

    def test_barrier_option_shifts_tau(self, tmp_path, capsys):
        path = PiecewisePath(
            segments=(Segment(0.0, 4.0, -2.0, 1.0),), jumps=(), horizon=4.0)
        fname = tmp_path / "ramp.path"
        save_path(path, fname)
        code, out, _ = run_cli(capsys, "classify", str(fname),
                               "--barrier", "1.0")
        assert code == 0
        assert math.isclose(float(kv_lines(out)["tau"]), 3.0)

    def test_supremum_rise_rounding_onto_its_end(self, tmp_path, capsys):
        # the start of the running supremum's rise on [2, 2.265...) rounds
        # to the end of that piece at this level
        path = PiecewisePath(
            segments=(Segment(0.0, 2.0, -1.0, 0.5),
                      Segment(2.0, 2.2651730038312357, -4.530346007662471, 2.0),
                      Segment(2.2651730038312357, 10.0, 0.0, 0.0)),
            jumps=(Jump(2.0, 0.0, -0.5303460076624712),), horizon=10.0)
        fname = tmp_path / "rise.path"
        save_path(path, fname)
        code, out, _ = run_cli(capsys, "classify", str(fname),
                               "--barrier", "0.413930191311247")
        assert code == 0
        assert kv_lines(out)["sigma"] == \
            "0.827860382622,1.82786038262,inf,inf,inf,inf,inf,inf"

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == 1 and "error: structural" in err
        code, _, err = run_cli(capsys, "classify", "x.path",
                               "--corpus", "touch_and_jump")
        assert code == 1 and "error: structural" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "classify",
                               str(tmp_path / "nope.path"))
        assert code == 1
        assert err.startswith("error: io:")

    def test_unknown_corpus(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--corpus", "nope")
        assert code == 1 and "error: structural" in err

    @pytest.mark.parametrize("flag,value", [
        ("--config", "run.ini"), ("--set", "model.x=5"), ("--workers", "2"),
        ("--seed", "7")])
    def test_takes_no_configuration(self, flag, value, capsys):
        code, out, err = run_cli(capsys, "classify", "--corpus",
                                 "touch_and_jump", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: usage") and flag in err

    def test_python_dash_m_runs_main(self, capsys):
        package = Path(cli.__file__).parent
        fname = str(package / "corpus" / "touch_and_jump.path")
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        proc = subprocess.run([sys.executable, "-m", "passagelab", "classify",
                               fname], env=env, capture_output=True, text=True)
        code, out, _ = run_cli(capsys, "classify", fname)
        assert proc.returncode == code == 0
        assert proc.stdout == out


class TestClosedForm:
    def test_boundary_and_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form",
                               "--set", "run.x_list=0 1")
        assert code == 0
        rows = table_rows(out)
        assert [r["x"] for r in rows] == ["0", "1"]
        assert math.isclose(float(rows[0]["g0"]), 0.789204514403,
                            abs_tol=1e-9)
        assert float(rows[1]["g0"]) == 0.0
        assert float(rows[1]["creep_prob"]) == 1.0
        slope_line = [ln for ln in out.splitlines()
                      if ln.startswith("# boundary_slope")]
        assert len(slope_line) == 1
        assert float(slope_line[0].split("=")[1]) > 0

    def test_partition_each_row(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form",
                               "--set", "run.x_list=-3 -1 0 0.5")
        assert code == 0
        for row in table_rows(out):
            total = float(row["g0"]) + float(row["creep_prob"])
            assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        report = tmp_path / "cf.txt"
        code, out, _ = run_cli(capsys, "closed-form",
                               "--report", str(report))
        assert code == 0
        assert report.read_bytes() == out.encode()

    def test_order_just_below_zero_at_large_negative_z(self, capsys):
        # nu + 1 = -1e-9 and z(a) = -39.95: the slope divides by
        # D_{nu+1}(z(a)), whose order sits next to the t = 0 singularity
        mp = pytest.importorskip("mpmath")
        argv = ["closed-form", "--set", "model.alpha=0", "--set",
                "model.beta=-0.5", "--set", "model.sigma=0.025", "--set",
                "model.lam=5e-10"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        params = resolve_config(_build_parser().parse_args(argv)).model
        ctx = weber.make_context(params, 0.0)
        za = ctx.z(params.a)
        with mp.workdps(30):
            # the model's orders, nu + 1 = -lam/b exactly
            nu1 = -mp.mpf(params.lam) / ctx.b
            want = float(math.sqrt(2.0) * params.lam
                         / (params.sigma * math.sqrt(ctx.b))
                         * mp.pcfd(nu1 - 1, za) / mp.pcfd(nu1, za))
        (slope_line,) = [ln for ln in out.splitlines()
                         if ln.startswith("# boundary_slope")]
        slope = float(slope_line.split("=")[1])
        assert abs(slope - want) <= 1e-10 * want
        (row,) = table_rows(out)
        assert 0.0 < float(row["g0"]) < 1.0

    def test_order_above_minus_one_keeps_its_digits(self, capsys):
        # nu + 1 = -lam/b = -1e-9 is formed directly: as nu + 1.0 it kept
        # only the digits left after cancelling 1, 8.3e-8 off, and the
        # slope, nearly proportional to 1/(nu + 1), read 1596.99735765
        code, out, _ = run_cli(capsys, "closed-form", "--set", "model.alpha=0",
                               "--set", "model.beta=-0.5", "--set",
                               "model.sigma=0.025", "--set", "model.lam=5e-10")
        assert code == 0
        assert "# boundary_slope = 1596.99748979\n" in out

    def test_run_line_echoes_only_x_list(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form",
                               "--set", "run.q_list=0.2")
        assert code == 0
        assert "# run x_list=0\n" in out and "q_list" not in out


class TestVolterra:
    def test_tiny_grid_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "volterra", "--set", "solver.n_cells=1024",
            "--set", "run.q_list=0.05", "--set", "run.x_list=0")
        assert code == 0
        (row,) = table_rows(out)
        assert math.isclose(float(row["gq"]), 0.688147299566, abs_tol=1e-6)
        assert row["converged"] == "yes"
        assert int(row["iterations"]) < 30
        assert float(row["sup_delta"]) <= 1e-10

    def test_start_below_the_decay_point(self, capsys):
        # psi decays within 0.5 of the barrier here, so the decay point
        # alone would leave x = 0 outside the solved domain
        code, out, _ = run_cli(
            capsys, "volterra", "--set", "model.sigma=0.1",
            "--set", "solver.n_cells=1024", "--set", "run.q_list=0.05")
        assert code == 0
        (row,) = table_rows(out)
        assert row["x"] == "0" and row["converged"] == "yes"
        assert float(row["truncation_error"]) <= analytic.TRUNCATION_TOL

    def test_truncation_above_tolerance_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(analytic, "TRUNCATION_TOL", 0.0)
        code, out, err = run_cli(
            capsys, "volterra", "--set", "solver.n_cells=64",
            "--set", "run.q_list=0.05")
        assert code == 2 and out == ""
        assert err.startswith("error: numerical: AccuracyError")

    def test_points_below_the_model_start_are_solved(self, capsys):
        # the domain is chosen for the lowest requested x, so x = -8 gets
        # the value a run started there gives
        code, out, _ = run_cli(
            capsys, "volterra", "--set", "run.x_list=0,-8",
            "--set", "solver.n_cells=1024")
        assert code == 0
        low = table_rows(out)[1]
        code, out, _ = run_cli(
            capsys, "volterra", "--set", "model.x=-8",
            "--set", "solver.n_cells=1024")
        assert code == 0
        (alone,) = table_rows(out)
        assert low["x"] == alone["x"] == "-8"
        # solver.tol=1e-13 gives the same digits
        assert low["gq"] == alone["gq"] == "0.572949950942"

    def test_nonconvergence_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "volterra", "--set", "solver.max_iter=2",
            "--set", "solver.n_cells=1024", "--set", "run.q_list=0.05")
        assert code == 2
        assert err.startswith("error: numerical: ConvergenceError")


class TestSimulate:
    def test_estimates_are_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *TINY_SIM,
                               "--set", "run.q_list=0.05")
        assert code == 0
        rows = {(r["metric"], r["q"]): r for r in table_rows(out)}
        probs = [float(rows[(f"P_{m}", "-")]["estimate"])
                 for m in ("CREEP", "JUMP_OVER", "CENSORED")]
        assert math.isclose(sum(probs), 1.0, abs_tol=1e-12)
        h = float(rows[("H_all_crossings", "0.05")]["estimate"])
        f = float(rows[("F_creep_only", "0.05")]["estimate"])
        g = float(rows[("G_indicator", "0.05")]["estimate"])
        assert math.isclose(h, f + g, abs_tol=1e-12)
        assert "seed=20260819" in out

    def test_seed_flag_changes_output(self, capsys):
        base = run_cli(capsys, "simulate", *TINY_SIM)
        other = run_cli(capsys, "simulate", *TINY_SIM, "--seed", "7")
        assert base[0] == other[0] == 0
        assert "seed=7" in other[1]
        assert base[1] != other[1]

    def test_worker_count_is_invisible(self, capsys):
        serial = run_cli(capsys, "simulate", *TINY_SIM, "--workers", "1")
        pooled = run_cli(capsys, "simulate", *TINY_SIM, "--workers", "2")
        assert serial[0] == pooled[0] == 0
        assert serial[1] == pooled[1]

    def test_unreadable_worker_count_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *TINY_SIM,
                                 "--set", "run.workers=two")
        assert code == 1 and out == ""
        assert "error: structural" in err and "workers" in err

    def test_worker_flag_below_one_is_rejected(self, capsys):
        for value in ("-3", "0"):
            code, out, err = run_cli(capsys, "simulate", *TINY_SIM,
                                     "--workers", value)
            assert code == 1 and out == ""
            assert "error: structural" in err and "workers" in err


class TestTable:
    def test_comparison_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--set", "sim.n_paths=3000",
            "--set", "sim.step=0.004", "--set", "sim.horizon=30",
            "--set", "run.q_list=0.05", "--set", "solver.n_cells=2048")
        assert code == 0
        (row,) = table_rows(out)
        ref = float(row["gq_ref"])
        assert math.isclose(ref, 0.688147, abs_tol=1e-4)
        for route in ("indicator", "compensator"):
            z = float(row[f"z_{route}"])
            est = float(row[f"gq_{route}"])
            se = float(row[f"se_{route}"])
            assert math.isclose(z, abs(est - ref) / se, rel_tol=1e-9)
            assert z < 4.0

    def test_run_line_shows_only_the_keys_read(self, capsys):
        # the row is computed at the model start point, whatever x_list says
        code, out, _ = run_cli(capsys, "table", *TINY_SIM,
                               "--set", "solver.n_cells=2048",
                               "--set", "run.x_list=-1")
        assert code == 0
        assert "x_list=-1" not in out
        assert "# run q_list=0.05\n" in out
        assert table_rows(out)[0]["x"] == "0"


class TestDegenerateInputs:
    """Exit codes of the degenerate inputs, per subcommand that reads them."""

    @pytest.mark.parametrize("command", ["closed-form", "volterra", "table"])
    def test_zero_beta_is_a_numerical_failure(self, command, capsys):
        code, out, err = run_cli(capsys, command, *TINY_SIM,
                                 "--set", "model.beta=0",
                                 "--set", "solver.n_cells=256")
        assert code == 2 and out == ""
        assert err.startswith("error: numerical: UnsupportedRegimeError")

    def test_large_barrier_argument_solves(self, capsys):
        # z(a) = 6.4, where D_{nu+1}(z(a)) is e^-36 of D_{nu+1}(-z(a)); a
        # 20,000-path compensator estimate reads 0.07292 +- 0.00035
        code, out, err = run_cli(
            capsys, "volterra", "--set", "model.alpha=0.07886166367937403",
            "--set", "model.beta=-0.22357392104536444",
            "--set", "model.sigma=0.9274927555198479",
            "--set", "model.lam=1.116579477307474",
            "--set", "model.eta=4.949874615285586",
            "--set", "run.q_list=0.0938374701172594",
            "--set", "solver.n_cells=256")
        assert code == 0 and err == ""
        (row,) = table_rows(out)
        assert float(row["gq"]) == pytest.approx(0.0731201622188, abs=1e-9)

    @pytest.mark.parametrize("command", ["simulate", "table"])
    def test_negative_q_is_a_usage_error(self, command, capsys):
        code, out, err = run_cli(capsys, command, *TINY_SIM,
                                 "--set", "run.q_list=-0.1")
        assert code == 1 and out == ""
        assert "nonnegative" in err

    def test_one_path_simulate_is_an_undersample_failure(self, capsys):
        # a standard error needs two paths; one path would print inf
        code, out, err = run_cli(capsys, "simulate", *TINY_SIM,
                                 "--set", "sim.n_paths=1")
        assert code == 2 and out == ""
        assert err.startswith("error: numerical: UnderSampleError")

    def test_one_path_table_is_an_undersample_failure(self, capsys):
        # an infinite standard error would print z = 0, a perfect agreement
        code, out, err = run_cli(capsys, "table", *TINY_SIM,
                                 "--set", "sim.n_paths=1",
                                 "--set", "solver.n_cells=256")
        assert code == 2 and out == ""
        assert err.startswith("error: numerical: UnderSampleError")


class TestConfigResolution:
    def test_config_file_and_override_precedence(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\neta = 3.0\n\n[run]\nx_list = 0\n")
        default = run_cli(capsys, "closed-form", "--set", "run.x_list=0")
        from_file = run_cli(capsys, "closed-form", "--config", str(ini))
        overridden = run_cli(capsys, "closed-form", "--config", str(ini),
                             "--set", "model.eta=2.0")
        assert default[0] == from_file[0] == overridden[0] == 0
        assert "eta=3" in from_file[1]
        assert from_file[1] != default[1]
        assert overridden[1] == default[1]

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "closed-form", "--config",
                               str(tmp_path / "none.ini"))
        assert code == 1 and "config file not found" in err

    def test_unknown_key_in_file(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\ntypo = 1\n")
        code, _, err = run_cli(capsys, "closed-form", "--config", str(ini))
        assert code == 1 and "unknown config key" in err

    @pytest.mark.parametrize("bad", ["model.eta", "eta=2", "model.nope=1",
                                     "sim.step=fast"])
    def test_bad_overrides(self, bad, capsys):
        code, _, err = run_cli(capsys, "closed-form", "--set", bad)
        assert code == 1 and "error: structural" in err

    @pytest.mark.parametrize("deleted", ["solver.x_min=-1",
                                         "solver.truncation_check=no"])
    def test_solver_domain_is_not_an_option(self, deleted, capsys):
        code, out, err = run_cli(capsys, "volterra", "--set", deleted)
        assert code == 1 and out == ""
        assert "unknown config key" in err

    def test_negative_q_rejected(self, capsys):
        code, _, err = run_cli(capsys, "volterra",
                               "--set", "run.q_list=-0.1")
        assert code == 1 and "nonnegative" in err

    def test_model_constraint_violation(self, capsys):
        code, _, err = run_cli(capsys, "closed-form",
                               "--set", "model.x=2.0")
        assert code == 1 and "error: structural" in err

    def test_defaults_are_the_reference_configuration(self):
        rc = resolve_config(_build_parser().parse_args(["verify"]))
        assert rc.verify_settings == AcceptanceSettings()
        assert rc.solver == VolterraGrid()

    def test_readme_config_is_the_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        ini = tmp_path / "readme.ini"
        ini.write_text(block)
        parser = _build_parser()
        from_readme = resolve_config(
            parser.parse_args(["verify", "--config", str(ini)]))
        assert from_readme == resolve_config(parser.parse_args(["verify"]))

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and err.startswith("error: usage")


class TestVerify:
    def test_small_run_fails_honestly(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code, out, err = run_cli(
            capsys, "verify", "--set", "sim.n_paths=2000",
            "--set", "verify.cp_n_paths=20000", "--report", str(report))
        assert code == 3
        assert "[ 6] FAIL overshoot law" in out
        assert "UnderSampleError" in out
        assert out.rstrip().endswith("overall FAIL (10/11 criteria)")
        # the resolved settings are embedded in the report itself
        assert "n_paths=2000 seed=20260819" in out
        assert "cp_n_paths=20000" in out
        assert report.read_bytes() == out.encode()
        # timings go to stderr only
        assert "total" in err and "total" not in out

    def test_ignored_settings_are_rejected(self, capsys):
        # the suite fixes the bridge correction and the solver grid, so it
        # refuses to run rather than print a report that ignores them
        code, out, err = run_cli(
            capsys, "verify", "--set", "sim.n_paths=2000",
            "--set", "verify.cp_n_paths=20000",
            "--set", "sim.bridge_correction=no",
            "--set", "solver.n_cells=64", "--set", "solver.tol=1e-3",
            "--set", "run.q_list=0.1", "--set", "run.x_list=-1")
        assert code == 1 and out == ""
        assert "error: structural" in err
        for key in ("[sim] bridge_correction", "[solver] n_cells",
                    "[solver] tol", "[run] q_list", "[run] x_list"):
            assert key in err
        assert "max_iter" not in err

    def test_default_values_spelled_out_are_accepted(self, monkeypatch,
                                                     capsys):
        def stub(settings, workers):
            raise StructuralError("suite reached")
        monkeypatch.setattr(cli, "run_acceptance", stub)
        code, _, err = run_cli(
            capsys, "verify", "--set", "sim.bridge_correction=yes",
            "--set", "solver.n_cells=16384", "--set", "solver.tol=1e-10",
            "--set", "solver.max_iter=100", "--set", "run.q_list=0.05",
            "--set", "run.x_list=0")
        assert code == 1 and "suite reached" in err
