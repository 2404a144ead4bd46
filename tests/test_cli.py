"""Config parsing, initial-law sampling, and end-to-end scenario runs."""

import json
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf import __version__
from kineticmf.cli import (
    ConfigError,
    InitialLaw,
    initial_law_sampler,
    main,
    parse_config,
)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """\
[run]
scenario = simulate
"""

SIMULATE = """\
[run]
scenario = simulate
seed = 3

[model]
d = 1
sigma = 0.0
n_particles = 4
initial = point
initial_x = 0.5
initial_v = -0.25

[grid]
t = 0.5
n_steps = 4
"""


def _law(kind="gaussian", d=1, **kw):
    base = dict(kind=kind, d=d,
                mean_x=np.zeros(d), mean_v=np.zeros(d),
                std=np.ones(d), box=np.ones(d))
    base.update(kw)
    return InitialLaw(**base)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        rc = parse_config(_write(tmp_path, MINIMAL))
        assert rc.scenario == "simulate"
        assert rc.seed == 0
        assert rc.d == 1
        assert rc.sigma == 0.1
        assert rc.n_particles == 64
        assert rc.T == 1.0
        assert rc.n_steps == 50
        assert rc.initial.kind == "gaussian"
        assert rc.resolved["grid"]["n_steps"] == "50"

    def test_scenario_is_required(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario is required"):
            parse_config(_write(tmp_path, "[model]\nd = 2\n"))

    def test_single_range_error(self, tmp_path):
        text = MINIMAL + "[model]\nsigma = -1\n"
        with pytest.raises(ConfigError, match="sigma must be >= 0"):
            parse_config(_write(tmp_path, text))

    def test_all_errors_collected(self, tmp_path):
        text = ("[run]\nscenario = simulate\n"
                "[model]\nsigma = -1\n"
                "[grid]\nn_steps = 0\n"
                "[control]\nbins = 0\n"
                "[experiment]\nmax_iter = 0\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path, text))
        joined = "\n".join(exc.value.errors)
        assert len(exc.value.errors) == 4
        assert "sigma" in joined
        assert "n_steps" in joined
        assert "bins" in joined
        assert "max_iter must be >= 1" in joined

    def test_unknown_key_gets_a_suggestion(self, tmp_path):
        text = MINIMAL + "[model]\nsigm = 0.1\n"
        with pytest.raises(ConfigError, match="did you mean 'sigma'"):
            parse_config(_write(tmp_path, text))

    def test_unknown_section_gets_a_suggestion(self, tmp_path):
        text = MINIMAL + "[modle]\nd = 1\n"
        with pytest.raises(ConfigError, match="did you mean 'model'"):
            parse_config(_write(tmp_path, text))

    def test_unknown_scenario_gets_a_suggestion(self, tmp_path):
        with pytest.raises(ConfigError, match="did you mean 'simulate'"):
            parse_config(_write(tmp_path, "[run]\nscenario = simulat\n"))

    def test_unknown_kernel_gets_a_suggestion(self, tmp_path):
        text = MINIMAL + "[model]\nk11 = bounded_atraction\n"
        with pytest.raises(ConfigError,
                           match="did you mean 'bounded_attraction'"):
            parse_config(_write(tmp_path, text))

    def test_leader_slots_must_hold_position_kernels(self, tmp_path):
        # zero and constant are phase kernels too: a leader right-hand side
        # calls them with dx only, which they reject.
        for name in ("bounded_alignment", "zero", "constant"):
            text = MINIMAL + f"[model]\nn_leaders = 1\nk21 = {name}\n"
            with pytest.raises(ConfigError, match="position kernel"):
                parse_config(_write(tmp_path, text))

    def test_unparseable_number_reported_with_description(self, tmp_path):
        text = MINIMAL + "[grid]\nn_steps = owl\n"
        with pytest.raises(ConfigError, match="cannot parse 'owl'"):
            parse_config(_write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(str(tmp_path / "nope.ini"))

    def test_garbage_file(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config(_write(tmp_path, "not an ini file at all\n"))

    def test_dimension_broadcast_mismatch(self, tmp_path):
        text = ("[run]\nscenario = simulate\n"
                "[model]\nd = 2\ninitial_x = 1,2,3\n")
        with pytest.raises(ConfigError, match="1 or 2 components"):
            parse_config(_write(tmp_path, text))

    def test_fractional_size_rejected(self, tmp_path):
        text = MINIMAL + "[experiment]\nn_list = 4,8.5\n"
        with pytest.raises(ConfigError, match="cannot parse '4,8.5'"):
            parse_config(_write(tmp_path, text))


class TestInitialLaw:
    def test_point_law_copies_the_mean(self):
        law = _law("point", mean_x=np.array([2.0]), mean_v=np.array([-1.0]))
        ens = initial_law_sampler(law, 5, seed=0)
        np.testing.assert_array_equal(ens.X, np.full((5, 1), 2.0))
        np.testing.assert_array_equal(ens.V, np.full((5, 1), -1.0))

    def test_gaussian_with_zero_std_is_a_point_mass(self):
        law = _law("gaussian", mean_x=np.array([0.5]), std=np.zeros(1))
        ens = initial_law_sampler(law, 4, seed=9)
        np.testing.assert_array_equal(ens.X, np.full((4, 1), 0.5))

    def test_gaussian_sample_mean_near_the_law_mean(self):
        law = _law("gaussian", mean_x=np.array([1.0]))
        N = 20000
        ens = initial_law_sampler(law, N, seed=1)
        assert abs(float(np.mean(ens.X)) - 1.0) < 4.0 / np.sqrt(N)
        assert abs(float(np.std(ens.X)) - 1.0) < 0.05

    def test_uniform_law_respects_the_box(self):
        law = _law("uniform", mean_x=np.array([2.0]), box=np.array([0.5]))
        ens = initial_law_sampler(law, 200, seed=4)
        assert np.all(np.abs(ens.X - 2.0) <= 0.5)
        assert np.all(np.abs(ens.V) <= 0.5)

    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=3),
           st.sampled_from(["point", "gaussian", "uniform", "mixture"]))
    @settings(max_examples=40, deadline=None)
    def test_prefix_stable_in_ensemble_size(self, seed, N_small, extra, d,
                                            kind):
        law = _law(kind, d=d, mean_x=np.arange(d, dtype=float),
                   mix_weight=0.3, mean_x2=np.full(d, 5.0),
                   mean_v2=np.full(d, -1.0), std2=np.full(d, 0.1))
        small = initial_law_sampler(law, N_small, seed=seed)
        large = initial_law_sampler(law, N_small + extra, seed=seed)
        np.testing.assert_array_equal(small.X, large.X[:N_small])
        np.testing.assert_array_equal(small.V, large.V[:N_small])

    def test_deterministic_in_the_seed(self):
        law = _law("mixture", mean_x2=np.array([5.0]),
                   mean_v2=np.zeros(1), std2=np.array([0.1]))
        a = initial_law_sampler(law, 16, seed=3)
        b = initial_law_sampler(law, 16, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        assert not np.array_equal(a.X, initial_law_sampler(law, 16, 4).X)

    def test_mixture_weight_extremes_select_one_component(self):
        common = dict(mean_x=np.zeros(1), mean_v=np.zeros(1),
                      std=np.zeros(1), box=np.ones(1),
                      mean_x2=np.array([5.0]), mean_v2=np.zeros(1),
                      std2=np.zeros(1))
        first = InitialLaw(kind="mixture", d=1, mix_weight=1.0, **common)
        second = InitialLaw(kind="mixture", d=1, mix_weight=0.0, **common)
        np.testing.assert_array_equal(
            initial_law_sampler(first, 8, 0).X, np.zeros((8, 1)))
        np.testing.assert_array_equal(
            initial_law_sampler(second, 8, 0).X, np.full((8, 1), 5.0))

    def test_law_validation(self):
        with pytest.raises(ValueError, match="unknown initial law"):
            _law("lognormal")
        with pytest.raises(ValueError, match=">= 0"):
            _law("gaussian", std=np.array([-1.0]))
        with pytest.raises(ValueError, match="second component"):
            _law("mixture")
        with pytest.raises(ValueError, match="weight"):
            _law("gaussian", mix_weight=1.5)


class TestRunScenarios:
    def test_simulate_writes_flow_and_manifest(self, tmp_path, capsys):
        cfg = _write(tmp_path, SIMULATE)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "flow.csv").read_text().splitlines()
        assert lines[0] == "t,particle,x0,v0"
        assert len(lines) == 1 + 5 * 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "simulate"
        assert manifest["outputs"] == ["flow.csv"]
        assert manifest["package"] == {"name": "kineticmf",
                                       "version": __version__}
        assert manifest["config"]["model"]["n_particles"] == "4"
        assert "wall_seconds=" in manifest["timestamp"]
        assert "flow.csv" in capsys.readouterr().out

    def test_simulate_with_leaders_writes_both_csvs(self, tmp_path):
        text = SIMULATE + ("\n[model2]" if False else "")
        text = SIMULATE.replace(
            "initial = point",
            "initial = point\nn_leaders = 1\nleader_x = 2.0\n"
            "k12 = bounded_attraction")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        leader_lines = (out / "leaders.csv").read_text().splitlines()
        assert leader_lines[0] == "t,leader,y0,w0"
        assert len(leader_lines) == 1 + 5

    def test_runs_are_byte_identical_across_invocations_and_threads(
            self, tmp_path):
        text = SIMULATE.replace("sigma = 0.0", "sigma = 0.4") \
                       .replace("initial = point", "initial = gaussian")
        cfg = _write(tmp_path, text)
        outs = [tmp_path / f"out{k}" for k in range(3)]
        assert main(["run", cfg, "--output-dir", str(outs[0])]) == 0
        assert main(["run", cfg, "--output-dir", str(outs[1])]) == 0
        assert main(["run", cfg, "--output-dir", str(outs[2]),
                     "--threads", "4"]) == 0
        flows = [(o / "flow.csv").read_bytes() for o in outs]
        assert flows[0] == flows[1] == flows[2]
        manifests = [json.loads((o / "manifest.json").read_text())
                     for o in outs]
        for m in manifests:
            del m["timestamp"]
        assert manifests[0] == manifests[1] == manifests[2]

    def test_meanfield_nonconvergence_exits_3(self, tmp_path, capsys):
        text = ("[run]\nscenario = meanfield\n"
                "[model]\nk11 = bounded_alignment\nsigma = 0.1\n"
                "n_particles = 8\n"
                "[grid]\nt = 0.5\nn_steps = 4\n"
                "[experiment]\ntol = 1e-30\nmax_iter = 1\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 3
        report = (out / "picard_report.txt").read_text()
        assert "converged: false" in report
        assert "gap[1]" in report

    def test_meanfield_state_overflow_exits_3(self, tmp_path, capsys):
        # A finite constant drift of 1e308 overflows the velocity in one
        # step of dt = 2: a solver failure, not a configuration error.
        text = ("[run]\nscenario = meanfield\n"
                "[model]\nk11 = constant\nconstant_value = 1e308\n"
                "sigma = 0.0\nn_particles = 1\n"
                "[grid]\nt = 4.0\nn_steps = 2\n")
        cfg = _write(tmp_path, text)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 3
        assert "non-finite state at step 1" in capsys.readouterr().out

    def test_meanfield_convergent_run_exits_0(self, tmp_path):
        text = ("[run]\nscenario = meanfield\n"
                "[model]\nk11 = bounded_alignment\nsigma = 0.1\n"
                "n_particles = 8\n"
                "[grid]\nt = 0.5\nn_steps = 4\n"
                "[experiment]\ntol = 1e-3\nmax_iter = 25\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        assert "converged: true" in (out / "picard_report.txt").read_text()

    def test_chaos_writes_table_and_plot_files(self, tmp_path):
        text = ("[run]\nscenario = chaos\nseed = 1\n"
                "[model]\nsigma = 0.1\n"
                "[grid]\nt = 0.25\nn_steps = 2\n"
                "[experiment]\nn_list = 2,4\nn_ref = 16\nseeds = 1,2\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == "N,mean,stderr,n_seeds"
        assert len(lines) == 3
        assert (out / "table.dat").exists()
        assert "set logscale xy" in (out / "table.gp").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["table.csv", "table.dat", "table.gp"]

    def test_gamma_zero_interaction_constant_cost_gaps_vanish(self, tmp_path):
        text = ("[run]\nscenario = gamma\n"
                "[model]\nsigma = 0.2\n"
                "[grid]\nt = 0.5\nn_steps = 3\n"
                "[cost]\nlagrangian = constant\nlagrangian_value = 2.0\n"
                "[experiment]\nn_list = 2,4\nseeds = 1,2\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        rows = (out / "table.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_optimize_writes_history_and_control(self, tmp_path):
        text = ("[run]\nscenario = optimize\nseed = 2\n"
                "[model]\nsigma = 0.0\nn_particles = 4\nn_leaders = 1\n"
                "initial = point\n"
                "[grid]\nt = 0.5\nn_steps = 4\n"
                "[control]\nbins = 1\n"
                "[cost]\npsi = quadratic\n"
                "[experiment]\nbudget = 6\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        hist = (out / "history.csv").read_text().splitlines()
        assert hist[0] == "eval,cost,best_cost"
        assert 2 <= len(hist) <= 7
        assert hist[1].split(",")[0] == "1"
        ctrl = (out / "control_h.csv").read_text().splitlines()
        assert ctrl[0] == "bin,i,j,value"
        assert len(ctrl) == 1 + 1 * 1 * 3

    def test_optimized_control_feeds_back_into_simulate(self, tmp_path):
        opt_text = ("[run]\nscenario = optimize\nseed = 2\n"
                    "[model]\nsigma = 0.0\nn_particles = 4\nn_leaders = 1\n"
                    "initial = gaussian\nk12 = bounded_attraction\n"
                    "[grid]\nt = 0.5\nn_steps = 4\n"
                    "[control]\nbins = 2\n"
                    "[cost]\nlagrangian = track_mean_x\ntarget = 0.5\n"
                    "[experiment]\nbudget = 10\nmax_iter = 30\n")
        out1 = tmp_path / "opt"
        assert main(["run", _write(tmp_path, opt_text, "opt.ini"),
                     "--output-dir", str(out1)]) == 0
        sim_text = ("[run]\nscenario = simulate\nseed = 2\n"
                    "[model]\nsigma = 0.0\nn_particles = 4\nn_leaders = 1\n"
                    "initial = gaussian\nk12 = bounded_attraction\n"
                    "[grid]\nt = 0.5\nn_steps = 4\n"
                    "[control]\nclass = sv\nbins = 2\n"
                    f"h_file = {out1 / 'control_h.csv'}\n")
        out2 = tmp_path / "sim"
        assert main(["run", _write(tmp_path, sim_text, "sim.ini"),
                     "--output-dir", str(out2)]) == 0
        assert (out2 / "leaders.csv").exists()

    def test_bad_h_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("a,b\n1,2\n")
        text = ("[run]\nscenario = simulate\n"
                "[model]\nn_leaders = 1\n"
                f"[control]\nclass = sv\nh_file = {bad}\n")
        cfg = _write(tmp_path, text)
        assert main(["run", cfg, "--output-dir",
                     str(tmp_path / "out")]) == 2
        assert "must start with header" in capsys.readouterr().out

    def test_unwritable_output_dir_exits_4(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        cfg = _write(tmp_path, SIMULATE)
        assert main(["run", cfg, "--output-dir",
                     str(blocker / "out")]) == 4

    def test_progress_lines_go_to_stderr(self, tmp_path, capsys):
        cfg = _write(tmp_path, SIMULATE)
        main(["run", cfg, "--progress", "--output-dir",
              str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "progress scenario=simulate phase=simulate" in err
        assert "phase=done" in err


class TestValidateScenario:
    def test_bounded_kernel_passes_all_validators(self, tmp_path, capsys):
        text = ("[run]\nscenario = validate\nseed = 4\n"
                "[model]\nk11 = bounded_alignment\nsigma = 0.1\n"
                "n_particles = 16\n"
                "[grid]\nt = 0.5\nn_steps = 8\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "validators.txt").read_text().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)
        assert {line.split()[1].rstrip(":") for line in lines} == {
            "sublinearity", "hoelder", "dissipativity", "control"}

    def test_unbounded_kernel_fails_and_exits_2(self, tmp_path):
        # A point mass at the origin keeps the flow moment term at zero, so
        # the linear-growth alignment drift overshoots its declared bound on
        # the sampled d = 2 box.
        text = ("[run]\nscenario = validate\nseed = 4\n"
                "[model]\nd = 2\nk11 = alignment\nsigma = 0.0\n"
                "n_particles = 16\ninitial = point\n"
                "[grid]\nt = 0.5\nn_steps = 8\n")
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        assert "FAIL sublinearity" in (out / "validators.txt").read_text()


class TestCommandLine:
    def test_validate_subcommand_accepts_good_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, SIMULATE)
        assert main(["validate", cfg]) == 0
        assert "config ok: scenario=simulate" in capsys.readouterr().out

    def test_validate_subcommand_rejects_bad_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nscenario = simulate\n"
                               "[model]\nsigma = -2\n")
        assert main(["validate", cfg]) == 2
        assert "config error: [model] sigma must be >= 0" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        pytest.param("[run]\nscenario = chaos\n[experiment]\nn_list = 8,16\n"
                     "n_ref = 32\n",
                     "reference size must be at least 4x the largest N",
                     id="chaos-reference-too-small"),
        pytest.param("[run]\nscenario = chaos\n[experiment]\nn_list = 8,600\n",
                     "reference size 4800 exceeds the exact-transport cap "
                     "4096", id="chaos-default-reference-over-cap"),
        pytest.param("[run]\nscenario = optimize\n",
                     "optimize scenario needs n_leaders >= 1",
                     id="optimize-without-leaders"),
    ] + [
        pytest.param(f"[run]\nscenario = {scenario}\n[control]\nclass = sv\n",
                     "control class sv needs n_leaders >= 1",
                     id=f"{scenario}-sv-control-without-leaders")
        for scenario in ("simulate", "coupled", "gamma", "validate")
    ])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, text,
                                               message):
        cfg = _write(tmp_path, text)
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().out
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().out

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("kineticmf")
        assert exe is not None
        cfg = _write(tmp_path, SIMULATE)
        proc = subprocess.run([exe, "validate", cfg], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "config ok" in proc.stdout
