import configparser
import csv
import json
import os
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from mgmlmc.cli import (FD_DIRECTIONS, FD_EPS, _fmt, _write_matrix_csv,
                         fd_gradient_checks, main)
from mgmlmc.config import KEYS, ExperimentConfig, build_problem, load_config
from mgmlmc.driver import OptimizerConfig
from mgmlmc.errors import ConfigError
from mgmlmc.grids import GAMMA
from mgmlmc.mlmc import (PURPOSE_USER, build_sample_sets, make_set_id,
                         mlmc_gradient)
from mgmlmc.random_fields import RngStream

from conftest import unit_direction


def write_config(path, text):
    path.write_text(text)
    return str(path)


MGOPT_CONFIG = """
[experiment]
problem = laplace
mode = mgopt
output_dir = {out}
global_seed = 99

[grid]
n0 = 9
K = 2

[optimizer]
tau = 2e-3
eps1 = 0.1
i_max = 8
warmup = 30

[run]
state_samples = 8
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=tmp_path / "o"))
        cfg = load_config(cfg_file)
        assert cfg.problem == "laplace" and cfg.K == 2 and cfg.n0 == 9
        assert cfg.tau == pytest.approx(2e-3)
        assert cfg.nested is True
        problem = build_problem(cfg)
        assert problem.name == "laplace"
        assert problem.hierarchy.nodes(2) == 33

    def test_config_is_the_optimizer_config(self, tmp_path):
        # the drivers run on the loaded config itself, and the CLI-only
        # defaults differ from the library's where they are re-declared
        cfg = load_config(write_config(tmp_path / "c.ini", "[grid]\nn0 = 9\n"))
        assert isinstance(cfg, OptimizerConfig)
        assert (cfg.tau, cfg.K, cfg.global_seed) == (5e-4, 2, 42)
        assert cfg.eps1 == OptimizerConfig.eps1 and cfg.warmup == OptimizerConfig.warmup

    def test_config_is_frozen_and_checked_on_replace(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.ini", "[grid]\nn0 = 9\n"))
        with pytest.raises(FrozenInstanceError):
            cfg.workers = 2
        with pytest.raises(ConfigError, match="theta"):
            replace(cfg, theta=1.5)
        with pytest.raises(ConfigError, match="workers"):
            replace(cfg, workers=0)
        assert replace(cfg, workers=2).workers == 2

    def test_unknown_problem_rejected(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.ini",
                                "[experiment]\nproblem = stokes\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    def test_bad_ranges_rejected(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.ini",
                                "[optimizer]\ntau = -1\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    # each range is checked by the object that uses the value
    @pytest.mark.parametrize("text", [
        "[optimizer]\ntheta = 1.5\n",
        "[optimizer]\nbaseline_max_steps = 0\n",
        "[optimizer]\nwarmup = 1\n",
        "[run]\nworkers = 0\n",
        "[grid]\nn0 = 2\n",
        "[covariance]\nlambda = 0\n",
        "[experiment]\nproblem = burgers\n[burgers]\nnt = 0\n",
        "[optimizer]\ni_max = 8192\n",
        "[optimizer]\nbaseline_max_steps = 8192\n",
    ])
    def test_owner_range_checks_rejected(self, tmp_path, text):
        cfg_file = write_config(tmp_path / "c.ini", text)
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    @pytest.mark.parametrize("text,named", [
        ("[optimizer]\ntua = 1e-3\n", "[optimizer] tua"),
        ("[optimiser]\ntau = 1e-3\n", "[optimiser] tau"),
        ("[DEFAULT]\ntau = 1e-3\n", "[DEFAULT] tau"),
    ])
    def test_unknown_key_rejected(self, tmp_path, text, named):
        cfg_file = write_config(tmp_path / "c.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(cfg_file)

    @pytest.mark.parametrize("text", [
        "tau = 1e-3\n",  # no section header
        "[experiment]\noutput_dir = out_%d\n",  # bad interpolation
    ])
    def test_malformed_file_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.ini", text))

    def test_key_table_names_every_field_once(self):
        attrs = sorted(attr for attr, _ in KEYS.values())
        assert attrs == sorted(f.name for f in fields(ExperimentConfig))

    def test_readme_example_sets_every_key(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(example)
        assert {(s, k) for s in parser.sections() for k in parser[s]} == set(KEYS)
        load_config(write_config(tmp_path / "c.ini", example))

    def test_misspelled_boolean_rejected(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.ini", "[optimizer]\nnested = ture\n")
        with pytest.raises(ConfigError, match=r"\[optimizer\] nested"):
            load_config(cfg_file)
        cfg_file = write_config(tmp_path / "c.ini", "[optimizer]\nnested = Off\n")
        assert load_config(cfg_file).nested is False

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=tmp_path / "o"))
        monkeypatch.setenv("MGMLMC_SEED", "1234")
        assert load_config(cfg_file).global_seed == 1234

    def test_dtn_needs_five_nodes(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "c.ini",
            "[experiment]\nproblem = dtn\n[grid]\nn0 = 3\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    @pytest.mark.parametrize("problem,nt", [("laplace", 1), ("dtn", 201)])
    def test_key_of_another_problem_rejected(self, tmp_path, problem, nt):
        cfg_file = write_config(
            tmp_path / "c.ini",
            f"[experiment]\nproblem = {problem}\n[burgers]\nnt = {nt}\n")
        with pytest.raises(ConfigError, match=re.escape("[burgers] nt")):
            load_config(cfg_file)

    def test_burgers_config_builds(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "c.ini",
            "[experiment]\nproblem = burgers\n[grid]\nn0 = 17\nK = 1\n"
            "[burgers]\nnt = 101\n")
        problem = build_problem(load_config(cfg_file))
        assert problem.name == "burgers" and problem.nt == 101
        assert problem.spec.covariance.scale == pytest.approx(1e-3)

    def test_workers_reach_the_problem(self, tmp_path):
        default = write_config(tmp_path / "a.ini", "[grid]\nn0 = 9\n")
        assert build_problem(load_config(default)).workers == 1
        two = write_config(tmp_path / "b.ini", "[grid]\nn0 = 9\n[run]\nworkers = 2\n")
        assert build_problem(load_config(two)).workers == 2


def csv_writer_matrix(path, array):
    """The matrix CSV as ``csv.writer`` writes ``_fmt`` of every value."""
    array = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(array.shape[1])])
        for row in array:
            writer.writerow([_fmt(v) for v in row])


class TestMatrixCsv:
    @pytest.mark.parametrize("array", [
        np.array([[np.nan, np.inf, -np.inf, -0.0],
                  [5e-324, 1e300, 3.0, -7.0],
                  [0.1, 1.0 / 3.0, -2.5e-17, 0.0]]),
        np.array([1.0, -0.0, np.nan, 5e-324, 1e300, 0.1]),
    ], ids=["2d", "1d"])
    def test_bytes_equal_csv_writer(self, tmp_path, array):
        _write_matrix_csv(tmp_path / "fast.csv", array)
        csv_writer_matrix(tmp_path / "ref.csv", array)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        assert fast.count(b"\r\n") == np.atleast_2d(array).shape[0] + 1


class TestFieldSampleCommand:
    def test_writes_positive_field(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=tmp_path / "o"))
        assert main(["field-sample", cfg_file]) == 0
        rows = read_csv(tmp_path / "o" / "field_sample.csv")
        assert rows[0][0] == "c0"
        values = np.array([[float(v) for v in r] for r in rows[1:]])
        assert values.shape == (33, 33)
        assert np.all(values > 0)

    def test_largest_seed_draws_its_own_field(self, tmp_path, monkeypatch):
        # 2**64 - 1 is a valid seed; it must not wrap to seed 0's field
        files = []
        for seed in ("0", "18446744073709551615"):
            out = tmp_path / f"o{seed}"
            cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=out))
            monkeypatch.setenv("MGMLMC_SEED", seed)
            assert main(["field-sample", cfg_file]) == 0
            files.append((out / "field_sample.csv").read_bytes())
        assert files[0] != files[1]


class TestGradcheckCommand:
    @pytest.mark.parametrize("problem,n0,extra", [
        ("laplace", 9, ""),
        ("dtn", 9, ""),
        ("burgers", 17, "[burgers]\nnt = 201\n"),
    ])
    def test_each_problem_passes(self, tmp_path, capsys, problem, n0, extra):
        cfg_file = write_config(
            tmp_path / "c.ini",
            f"[experiment]\nproblem = {problem}\n"
            f"output_dir = {tmp_path / 'o'}\nglobal_seed = 5\n"
            f"[grid]\nn0 = {n0}\nK = 1\n{extra}")
        assert main(["gradcheck", cfg_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize("name", ["laplace_small", "dtn_small", "burgers_small"])
    def test_checks_equal_reference_loop(self, request, name):
        # the per-sample check takes the generator's first FD_DIRECTIONS
        # directions and the estimator check (nested sets of 8 and 4
        # samples at K = 1) the next ones
        p = request.getfixturevalue(name)
        K, seed = 1, 5
        amp = 0.1 if p.name == "burgers" else 1.0
        if p.control_role == GAMMA or p.hierarchy.dim == 1:
            u0 = p.control_from_function(K, lambda x: amp * np.sin(np.pi * x))
        else:
            u0 = p.control_from_function(
                K, lambda a, b: amp * np.sin(np.pi * a) * np.sin(np.pi * b))
        stream = RngStream(seed, make_set_id(0, PURPOSE_USER), K, 0)
        sets = build_sample_sets((8, 4), 0.25, True, seed,
                                 make_set_id(1, PURPOSE_USER))
        checks = {
            "per_sample": (lambda u: p.cost_sample(u, stream),
                           p.gradient_sample(u0, stream)),
            "estimator": (lambda u: mlmc_gradient(p, u, sets).cost_value,
                          mlmc_gradient(p, u0, sets).value),
        }
        rng = np.random.default_rng(seed + 7)
        want = {}
        for check, (cost, g) in checks.items():
            want[check] = 0.0
            for _ in range(FD_DIRECTIONS):
                d = unit_direction(rng, u0)
                fd = (cost(u0 + FD_EPS * d) - cost(u0 - FD_EPS * d)) / (2 * FD_EPS)
                gd = float(np.vdot(g.values, d.values)) * u0.h ** u0.values.ndim
                want[check] = max(want[check], abs(fd - gd) / max(abs(gd), 1e-14))
        assert fd_gradient_checks(p, K, seed) == want

    def test_output_independent_of_workers(self, tmp_path, capsys):
        cfg_file = write_config(
            tmp_path / "c.ini",
            f"[experiment]\noutput_dir = {tmp_path / 'o'}\nglobal_seed = 5\n"
            "[grid]\nn0 = 9\nK = 1\n")
        outputs = []
        for workers in ("1", "2"):
            assert main(["gradcheck", cfg_file, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestMlmcReportCommand:
    def test_csv_columns(self, tmp_path, capsys):
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=tmp_path / "o"))
        assert main(["mlmc-report", cfg_file]) == 0
        rows = read_csv(tmp_path / "o" / "mlmc_report.csv")
        assert rows[0] == ["level", "V", "C", "n", "phi", "kappa", "rho"]
        assert len(rows) == 4  # header + levels 0..2
        assert float(rows[1][1]) > 0  # measured variance at level 0

    def test_every_level_measured_at_the_confirmation_budget(self, tmp_path,
                                                            capsys):
        # K = 2 as in the desk configs: the rates need levels 1 and 2
        # measured, and counts sized for r * tau are well above one
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=tmp_path / "o"))
        assert main(["mlmc-report", cfg_file]) == 0
        rows = read_csv(tmp_path / "o" / "mlmc_report.csv")
        level0 = dict(zip(rows[0], rows[1]))
        assert level0["phi"] != "" and level0["rho"] != ""
        assert int(level0["n"]) > 1


class TestRunCommand:
    def test_mgopt_run_artifacts(self, tmp_path):
        out = tmp_path / "o"
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=out))
        assert main(["run", cfg_file]) == 0
        report = read_csv(out / "report.csv")
        assert report[0] == ["i", "eps", "n0", "n1", "n2", "J0", "J",
                             "g0_norm", "g_norm", "solves", "time"]
        assert len(report) >= 2
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is True
        assert record["final_gradient_norm"] <= 2e-3
        control = read_csv(out / "control.csv")
        assert len(control) == 34  # header + 33 grid rows
        mean = read_csv(out / "mean_state.csv")
        var = read_csv(out / "var_state.csv")
        assert len(mean) == 34 and len(var) == 34

    def test_reproducible_except_time(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        f1 = write_config(tmp_path / "c1.ini", MGOPT_CONFIG.format(out=out1))
        f2 = write_config(tmp_path / "c2.ini", MGOPT_CONFIG.format(out=out2))
        assert main(["run", f1]) == 0
        assert main(["run", f2]) == 0
        r1, r2 = read_csv(out1 / "report.csv"), read_csv(out2 / "report.csv")
        assert len(r1) == len(r2)
        time_col = r1[0].index("time")
        for a, b in zip(r1, r2):
            assert a[:time_col] == b[:time_col]
        assert (out1 / "control.csv").read_text() == (out2 / "control.csv").read_text()

    def test_seed_changes_results(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        f1 = write_config(tmp_path / "c1.ini", MGOPT_CONFIG.format(out=out1))
        f2 = write_config(tmp_path / "c2.ini", MGOPT_CONFIG.format(out=out2))
        assert main(["run", f1]) == 0
        monkeypatch.setenv("MGMLMC_SEED", "31415")
        assert main(["run", f2]) == 0
        r1, r2 = read_csv(out1 / "report.csv"), read_csv(out2 / "report.csv")
        assert r1[1][5:9] != r2[1][5:9]  # J0/J/g0/g differ

    def test_baseline_mode(self, tmp_path):
        out = tmp_path / "o"
        text = MGOPT_CONFIG.format(out=out).replace("mode = mgopt", "mode = baseline")
        cfg_file = write_config(tmp_path / "c.ini", text)
        assert main(["run", cfg_file]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is True

    # both hierarchies end at 17 nodes per axis
    @pytest.mark.parametrize("problem", ["dtn", "burgers"])
    def test_run_each_problem(self, tmp_path, problem):
        out = tmp_path / "o"
        extra = "[burgers]\nnt = 201\n" if problem == "burgers" else ""
        cfg_file = write_config(
            tmp_path / "c.ini",
            f"[experiment]\nproblem = {problem}\noutput_dir = {out}\n"
            f"[grid]\nn0 = 9\nK = 1\n"
            f"[optimizer]\ni_max = 1\nwarmup = 8\n"
            f"[run]\nstate_samples = 4\n{extra}")
        status = main(["run", cfg_file])
        converged = json.loads((out / "run.json").read_text())["converged"]
        assert status == (0 if converged else 1)
        assert len(read_csv(out / "report.csv")) == 2  # header + one cycle
        control = np.loadtxt(out / "control.csv", delimiter=",", skiprows=1)
        mean = np.loadtxt(out / "mean_state.csv", delimiter=",", skiprows=1)
        var = np.loadtxt(out / "var_state.csv", delimiter=",", skiprows=1)
        assert control.shape == (17,) and control[0] == control[-1] == 0.0
        if problem == "dtn":
            # the state's column on Gamma (x2 = 0) is the Dirichlet control
            assert np.array_equal(mean[:, 0], control)
            assert np.all(var[:, 0] == 0.0)
        else:
            # space-time state: its first time level is the initial control
            assert mean.shape == (201, 17)
            assert np.array_equal(mean[0], control)
            assert np.all(var[0] == 0.0)

    @pytest.mark.parametrize("mode", ["mgopt", "baseline"])
    def test_unconverged_run_exits_1(self, tmp_path, capsys, mode):
        # no gradient norm reaches tau = 1e-12 in one cycle or one NCG step
        out = tmp_path / "o"
        text = (MGOPT_CONFIG.format(out=out)
                .replace("mode = mgopt", f"mode = {mode}")
                .replace("tau = 2e-3", "tau = 1e-12")
                .replace("i_max = 8", "i_max = 1\nbaseline_max_steps = 1"))
        assert main(["run", write_config(tmp_path / "c.ini", text)]) == 1
        assert "final |g|=unconfirmed" in capsys.readouterr().out
        record = json.loads((out / "run.json").read_text())
        assert record["converged"] is False
        assert record["final_gradient_norm"] is None

    # the subcommand picks the command; mode picks only the run's driver
    @pytest.mark.parametrize("mode", ["gradcheck", "mlmc-report", "field-sample"])
    def test_command_as_mode_rejected(self, tmp_path, capsys, mode):
        out = tmp_path / "o"
        text = MGOPT_CONFIG.format(out=out).replace("mode = mgopt", f"mode = {mode}")
        assert main(["run", write_config(tmp_path / "c.ini", text)]) == 2
        assert "error: unknown mode" in capsys.readouterr().err
        assert not out.exists()

    def test_coherence_failure_exits_with_partial_report(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr("mgmlmc.mgopt.COHERENCE_TOL", -1.0)
        out = tmp_path / "o"
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=out))
        assert main(["run", cfg_file]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert len(read_csv(out / "report.csv")) == 1  # the header only

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg_file = write_config(tmp_path / "c.ini", "[optimizer]\nq = 0.9\n")
        assert main(["run", cfg_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_exits_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = MGOPT_CONFIG.format(out=out).replace("warmup = 30", "theta = 1.5")
        cfg_file = write_config(tmp_path / "c.ini", text)
        assert main(["run", cfg_file]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    # stream keys hold 64 bits of the seed: a seed outside [0, 2**64)
    # would draw the same fields as its value modulo 2**64
    @pytest.mark.parametrize("ini_seed, env_seed", [
        ("18446744073709551616", None), ("99", "-1")])
    def test_seed_outside_64_bits_exits_before_any_output(
            self, tmp_path, capsys, monkeypatch, ini_seed, env_seed):
        out = tmp_path / "o"
        text = MGOPT_CONFIG.format(out=out).replace(
            "global_seed = 99", f"global_seed = {ini_seed}")
        if env_seed is not None:
            monkeypatch.setenv("MGMLMC_SEED", env_seed)
        assert main(["run", write_config(tmp_path / "c.ini", text)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "global_seed" in err
        assert not out.exists()

    def test_bad_workers_flag_nonzero_exit(self, tmp_path, capsys):
        cfg_file = write_config(tmp_path / "c.ini",
                                MGOPT_CONFIG.format(out=tmp_path / "o"))
        assert main(["run", cfg_file, "--workers", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "mlmc-report", "field-sample"])
    def test_uncreatable_output_dir_is_an_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_file = write_config(tmp_path / "c.ini",
                                MGOPT_CONFIG.format(out=blocker / "o"))
        assert main([command, cfg_file]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_workers_flag(self, tmp_path):
        out = tmp_path / "o"
        cfg_file = write_config(tmp_path / "c.ini", MGOPT_CONFIG.format(out=out))
        assert main(["run", cfg_file, "--workers", "2"]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["workers"] == 2
