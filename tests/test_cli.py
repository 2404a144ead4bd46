"""Config parsing, initial-law sampling, and end-to-end scenario runs."""

import dataclasses
import hashlib
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf import __version__, cli
from kineticmf.cli import (
    ConfigError,
    InitialLaw,
    initial_law_sampler,
    main,
    parse_config,
)
from kineticmf.control_opt import ev_control, validate_control
from kineticmf.drift import (
    drift_from_kernel,
    kernel,
    latin_hypercube_points,
    validate_dissipativity_v3pp,
    validate_hoelder,
    validate_sublinearity,
)
from kineticmf.phase_space import (
    MeasureFlow,
    ParticleEnsemble,
    read_leader_csv,
    time_grid,
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


def _with_key(section, key, value):
    """MINIMAL with one more key set."""
    head = "" if section == "run" else f"[{section}]\n"
    return MINIMAL + f"{head}{key} = {value}\n"


def _non_finite_float_cases():
    """inf and nan in every float key: a bound the value fails is reported
    as for a finite value; a value that meets its bound, or has none, must
    still be finite."""
    for section, keys in cli._SCHEMA.items():
        for key, (conv, _, _, rule) in keys.items():
            if conv not in (float, cli._parse_floats):
                continue
            for value in ("inf", "nan"):
                fails = rule is not None \
                    and not cli._BOUNDS[rule](float(value))
                yield pytest.param(
                    _with_key(section, key, value),
                    f"[{section}] {key} must be "
                    + (rule if fails else "finite"), id=f"{key}-{value}")


def _canonical(value):
    """value with arrays as (dtype, entries), dataclasses as dicts and
    callables by name: a repr that is the same in every process."""
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), value.tolist())
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(map(_canonical, value))
    return value.__name__ if callable(value) else value


def _digest(value):
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()[:16]


def _bench_config_text(workload):
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.config_text(workload, 1)


MIXTURE = """\
[run]
scenario = coupled
seed = 7

[model]
d = 2
n_leaders = 2
k11 = bounded_alignment
k12 = bounded_attraction
k21 = attraction_position
leader_x = 1.5,-0.5
initial = mixture
initial_x = 1,2
initial_v = -1
initial_std = 0.25,0.5
initial_box = 2
mix_weight = 0.3
initial_x2 = -3
initial_v2 = 0.5,0.75
initial_std2 = 0.1

[cost]
lagrangian = track_mean_x
target = 0.5,1.5
psi = quadratic
psi_weight = 0.01

[experiment]
n_list = 4,2
seeds = 3,1
"""

# The RunConfig attributes a parsed config had before each field carried
# its own [section] key row; the kernel names are pinned through resolved.
PINNED_ATTRS = (
    "scenario", "seed", "d", "sigma", "n_particles", "n_leaders",
    "constant_value", "leader_x", "initial", "T", "n_steps",
    "control_class", "bins", "M_h", "R_c", "h_file", "lagrangian",
    "lagrangian_value", "target", "psi", "psi_weight", "N_list", "N_ref",
    "seeds", "tol", "max_iter", "budget", "step0", "output_dir")


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
            with pytest.raises(ConfigError) as exc:
                parse_config(_write(tmp_path, text))
            assert ("[model] k21 must be a position kernel, one of "
                    "zero_position, attraction_position, "
                    "bounded_attraction_position") in exc.value.errors

    def test_unparseable_number_reported_with_description(self, tmp_path):
        text = MINIMAL + "[grid]\nn_steps = owl\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.errors == [
            "[grid] n_steps: cannot parse 'owl' (time steps, >= 1)"]

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

    def test_dimension_one_broadcast_mismatch_names_one_component(
            self, tmp_path):
        text = "[run]\nscenario = simulate\n[model]\ninitial_x = 1,2\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.errors == [
            "[model] initial_x needs 1 component, got 2"]

    def test_every_mis_sized_vector_is_reported(self, tmp_path):
        text = ("[run]\nscenario = simulate\n"
                "[model]\nd = 2\ninitial_x = 1,2,3\nleader_x = 1,2,3\n"
                "[cost]\ntarget = 1,2,3\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.errors == [
            f"[{section}] {key} needs 1 or 2 components, got 3"
            for section, key in (("model", "leader_x"), ("model", "initial_x"),
                                 ("cost", "target"))]

    def test_fractional_size_rejected(self, tmp_path):
        text = MINIMAL + "[experiment]\nn_list = 4,8.5\n"
        with pytest.raises(ConfigError, match="cannot parse '4,8.5'"):
            parse_config(_write(tmp_path, text))

    @pytest.mark.parametrize("value", ["8,inf", "8.0", "1e3"])
    def test_size_list_parts_parse_as_integers(self, tmp_path, value):
        # A list part follows the rule of a scalar integer key: int().
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path,
                                _with_key("experiment", "n_list", value)))
        assert exc.value.errors == [
            f"[experiment] n_list: cannot parse '{value}' (sweep sizes, >= 1)"]

    def test_seeds_above_two_to_the_53_stay_exact(self, tmp_path):
        rc = parse_config(_write(tmp_path, _with_key(
            "experiment", "seeds", "9007199254740993,2")))
        assert rc.seeds == (9007199254740993, 2)

    # (section, key, bound, a value just past it, the boundary or, for a
    # strict bound, a value just inside it). A list key is checked element
    # by element, so its bad value hides one offender behind a good one.
    BOUNDED = [
        ("run", "seed", ">= 0", "-1", "0"),
        ("model", "d", ">= 1", "0", "1"),
        ("model", "sigma", ">= 0", "-1e-12", "0"),
        ("model", "n_particles", ">= 1", "0", "1"),
        ("model", "n_leaders", ">= 0", "-1", "0"),
        ("model", "initial_std", ">= 0", "1,-1e-12", "0"),
        ("model", "initial_box", ">= 0", "1,-1e-12", "0"),
        ("model", "initial_std2", ">= 0", "1,-1e-12", "0"),
        ("model", "mix_weight", "in [0, 1]", "1.000001", "1"),
        ("grid", "t", "> 0", "0", "1e-12"),
        ("grid", "n_steps", ">= 1", "0", "1"),
        ("control", "bins", ">= 1", "0", "1"),
        ("control", "m_h", "> 0", "0", "1e-12"),
        ("control", "r_c", "> 0", "0", "1e-12"),
        ("cost", "psi_weight", ">= 0", "-1e-12", "0"),
        ("experiment", "n_list", ">= 1", "8,0", "1"),
        ("experiment", "n_ref", ">= 0", "-1", "0"),
        ("experiment", "seeds", ">= 0", "1,-1", "0"),
        ("experiment", "tol", "> 0", "0", "1e-12"),
        ("experiment", "max_iter", ">= 1", "0", "1"),
        ("experiment", "budget", ">= 1", "0", "1"),
        ("experiment", "step0", "> 0", "0", "1e-12"),
    ]

    @pytest.mark.parametrize("section, key, bound, bad, edge", BOUNDED,
                             ids=[row[1] for row in BOUNDED])
    def test_bound_rule(self, tmp_path, section, key, bound, bad, edge):
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path, _with_key(section, key, bad)))
        assert exc.value.errors == [f"[{section}] {key} must be {bound}"]
        rc = parse_config(_write(tmp_path, _with_key(section, key, edge)))
        assert rc.resolved[section][key] == edge

    NAMED = [
        ("run", "scenario", "simulat", "simulate"),
        ("model", "k11", "bounded_atraction", "bounded_attraction"),
        ("model", "k12", "bounded_alignmen", "bounded_alignment"),
        ("model", "k21", "attraction_positon", "attraction_position"),
        ("model", "k22", "zero_positio", "zero_position"),
        ("model", "initial", "gausian", "gaussian"),
        ("control", "class", "svv", "sv"),
        ("cost", "lagrangian", "track_mean", "track_mean_x"),
        ("cost", "psi", "quadratc", "quadratic"),
    ]

    @pytest.mark.parametrize("section, key, typo, name", NAMED,
                             ids=[row[1] for row in NAMED])
    def test_name_rule_suggests_the_nearest_name(self, tmp_path, section,
                                                 key, typo, name):
        text = f"[run]\nscenario = {typo}\n" if key == "scenario" \
            else _with_key(section, key, typo)
        with pytest.raises(ConfigError) as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.errors == [
            f"[{section}] unknown {key} '{typo}' (did you mean '{name}'?)"]

    # (digest of the PINNED_ATTRS values, digest of resolved), recorded
    # before the config keys were declared on RunConfig's fields.
    PINNED = {
        "chaos": ("d5c7a398560754ec", "3ec44dd3cbe13bed"),
        "optimize": ("6faa3bfddddb8d1c", "49d1900941df364f"),
        "simulate_n2048": ("21d6313403d63335", "7e1c499e5ef0513b"),
        "coupled_n512": ("8cac2feee76883de", "3f5cfc94cad00f8e"),
        "minimal": ("4b392e33ae43d09d", "e98647600a34baa6"),
        "mixture": ("5713a96e3592b2d3", "7790ae2685e7fe31"),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_parsed_values_match_the_recorded_digests(self, tmp_path, name):
        text = {"minimal": MINIMAL, "mixture": MIXTURE}.get(name) \
            or _bench_config_text(name)
        rc = parse_config(_write(tmp_path, text))
        values = {attr: getattr(rc, attr) for attr in PINNED_ATTRS}
        assert (_digest(values), _digest(rc.resolved)) == self.PINNED[name]

    def test_schema_index_matches_the_recorded_digest(self):
        assert _digest(cli._SCHEMA) == "d7da69b4dfbadea2"

    def test_every_rule_has_a_case(self):
        rules = {(section, key, type(row[3]))
                 for section, keys in cli._SCHEMA.items()
                 for key, row in keys.items() if row[3] is not None}
        assert rules == {(s, k, str) for s, k, *_ in self.BOUNDED} \
            | {(s, k, tuple) for s, k, *_ in self.NAMED}


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
        with pytest.raises(ValueError, match=">= 0"):
            _law("mixture", mean_x2=np.zeros(1), mean_v2=np.zeros(1),
                 std2=np.array([-1.0]))
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

    COUPLED = ("[run]\nscenario = coupled\n"
               "[model]\nk11 = bounded_alignment\nsigma = 0.1\n"
               "n_particles = 8\n{leaders}"
               "[grid]\nt = 0.5\nn_steps = 4\n"
               "[experiment]\ntol = 1e-3\nmax_iter = 25\n")

    def test_leaderless_coupled_run_writes_no_leaders_csv(self, tmp_path):
        cfg = _write(tmp_path, self.COUPLED.format(leaders=""))
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        assert not (out / "leaders.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["flow.csv", "picard_report.txt"]

    def test_coupled_run_with_leaders_writes_a_readable_leaders_csv(
            self, tmp_path):
        cfg = _write(tmp_path, self.COUPLED.format(
            leaders="n_leaders = 2\nk12 = bounded_attraction\n"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        leaders = read_leader_csv(out / "leaders.csv")
        assert leaders.m == 2 and len(leaders.times) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert "leaders.csv" in manifest["outputs"]

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

    def test_feature_clamp_radius_reaches_the_sv_control(self, tmp_path):
        # h weighs only the clamped second-moment feature, so the leader
        # path depends on [control] r_c through the feature map alone.
        h = tmp_path / "h.csv"
        h.write_text("bin,i,j,value\n0,0,2,1.0\n")
        leaders = {}
        for r_c in ("0.5", "5.0"):
            text = ("[run]\nscenario = simulate\nseed = 1\n"
                    "[model]\nsigma = 0.0\nn_particles = 8\nn_leaders = 1\n"
                    "initial = gaussian\n"
                    "[grid]\nt = 0.5\nn_steps = 4\n"
                    f"[control]\nclass = sv\nbins = 1\nr_c = {r_c}\n"
                    f"h_file = {h}\n")
            out = tmp_path / f"out{r_c}"
            assert main(["run", _write(tmp_path, text), "--output-dir",
                         str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["control"]["r_c"] == r_c
            leaders[r_c] = (out / "leaders.csv").read_text()
        assert leaders["0.5"] != leaders["5.0"]

    def test_optimize_starts_from_the_configured_features(self, tmp_path,
                                                          monkeypatch):
        seen = []

        def fake_optimize(u0, cost_fn, budget, step0, seed):
            seen.append(u0.features.name)
            return u0, [(1, 0.0, 0.0)]

        monkeypatch.setattr(cli, "optimize", fake_optimize)
        text = ("[run]\nscenario = optimize\n"
                "[model]\nn_particles = 4\nn_leaders = 1\n"
                "[control]\nbins = 1\nr_c = 2.0\n")
        assert main(["run", _write(tmp_path, text), "--output-dir",
                     str(tmp_path / "out")]) == 0
        assert seen == ["moments[R_c=2]"]

    def test_optimize_exits_3_when_every_candidate_fails(self, tmp_path):
        # One Picard iterate never meets tol = 1e-30, so every candidate
        # scores +inf; both outputs are still written, as meanfield does.
        text = ("[run]\nscenario = optimize\nseed = 1\n"
                "[model]\nsigma = 0.1\nn_particles = 4\nn_leaders = 1\n"
                "k11 = bounded_alignment\nk12 = bounded_attraction\n"
                "[grid]\nt = 0.5\nn_steps = 4\n"
                "[control]\nbins = 1\n"
                "[experiment]\ntol = 1e-30\nmax_iter = 1\nbudget = 3\n")
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, text), "--output-dir",
                     str(out)]) == 3
        history = (out / "history.csv").read_text().splitlines()
        assert history[1:] == [f"{k},inf,inf" for k in (1, 2, 3)]
        assert (out / "control_h.csv").exists()

    OPTIMIZE_H = ("[run]\nscenario = optimize\n"
                  "[model]\nn_particles = 4\nn_leaders = 1\n"
                  "[control]\nbins = 1\nh_file = {path}\n"
                  "[experiment]\nbudget = 2\n")

    def test_optimize_with_a_missing_h_file_exits_4(self, tmp_path, capsys):
        cfg = _write(tmp_path,
                     self.OPTIMIZE_H.format(path=tmp_path / "none.csv"))
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 4
        assert "I/O failure" in capsys.readouterr().out

    def test_optimize_rejects_a_bad_h_file(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("a,b\n1,2\n")
        cfg = _write(tmp_path, self.OPTIMIZE_H.format(path=bad))
        for argv in (["validate", cfg],
                     ["run", cfg, "--output-dir", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert "must start with header" in capsys.readouterr().out

    def test_optimize_starts_from_the_h_file(self, tmp_path, monkeypatch):
        seen = []

        def fake_optimize(u0, cost_fn, budget, step0, seed):
            seen.append(u0.h)
            return u0, [(1, 0.0, 0.0)]

        monkeypatch.setattr(cli, "optimize", fake_optimize)
        good = tmp_path / "h.csv"
        good.write_text("bin,i,j,value\n0,0,2,0.5\n")
        cfg = _write(tmp_path, self.OPTIMIZE_H.format(path=good))
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0
        (h,) = seen
        np.testing.assert_array_equal(h, [[[0.0, 0.0, 0.5]]])

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


    # validators.txt digests on three fixed configs, recorded before the
    # validators shared one report builder: the sampled checks must keep
    # their bytes, not only their %.6g text.
    GOLDEN = {
        "d1-leader-sv": (
            "[run]\nscenario = validate\nseed = 5\n"
            "[model]\nd = 1\nsigma = 0.2\nn_particles = 16\n"
            "n_leaders = 1\nk11 = bounded_alignment\n"
            "k12 = bounded_attraction\nk21 = attraction_position\n"
            "[grid]\nt = 0.5\nn_steps = 8\n"
            "[control]\nclass = sv\nh_file = {h}\n", 0,
            "79a7d735eda2fc1a3cc18e7418732c89051e03f2846fe267041ce0cf5805b695",
        ),
        "d2-bounded-alignment": (
            "[run]\nscenario = validate\nseed = 4\n"
            "[model]\nd = 2\nk11 = bounded_alignment\nsigma = 0.1\n"
            "n_particles = 16\n[grid]\nt = 0.5\nn_steps = 8\n", 0,
            "5537424d630835201497851e673396c719d72d58f4fa59741c0378649f4073d8",
        ),
        "d2-alignment-point-fails": (
            "[run]\nscenario = validate\nseed = 4\n"
            "[model]\nd = 2\nk11 = alignment\nsigma = 0.0\n"
            "n_particles = 16\ninitial = point\n"
            "[grid]\nt = 0.5\nn_steps = 8\n", 2,
            "06e3f5fb06cdfc1ddc3b6c389b9c27f17f5b06f202eb091e20efc432c19a45a8",
        ),
    }

    @pytest.mark.parametrize("name", GOLDEN)
    def test_validators_txt_is_byte_identical(self, tmp_path, name):
        text, code, digest = self.GOLDEN[name]
        h = tmp_path / "h.csv"
        h.write_text("bin,i,j,value\n0,0,0,0.8\n0,0,2,-0.5\n"
                     "3,0,1,0.7\n7,0,0,-0.9\n")
        cfg = _write(tmp_path, text.format(h=h))
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == code
        data = (out / "validators.txt").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_library_reports_are_bitwise_pinned(self):
        rng = np.random.default_rng(11)
        shared = ParticleEnsemble(rng.standard_normal((12, 1)),
                                  rng.standard_normal((12, 1)))

        def flow():
            later = [ParticleEnsemble(rng.standard_normal((12, 1)),
                                      rng.standard_normal((12, 1)))
                     for _ in range(4)]
            return MeasureFlow(time_grid(1.0, 4), [shared] + later)

        flow1, flow2 = flow(), flow()
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        pts = latin_hypercube_points(40, 1, -3.0, 3.0, seed=3)
        times = [0.0, 0.25, 0.6, 1.0]
        u = ev_control(lambda t, ens: [[np.tanh(ens.X.mean()) + t]],
                       m=1, d=1, M_u=4.0, L_u=1.0)
        dirac = MeasureFlow.constant(
            ParticleEnsemble(np.zeros((1, 1)), np.zeros((1, 1))),
            flow1.times)
        reports = [
            validate_sublinearity(f, flow1, pts, times),
            validate_hoelder(f, flow1, list(zip(pts[::2], pts[1::2])),
                             L=f.L, alpha=f.alpha),
            validate_dissipativity_v3pp(
                f, (flow1, flow2),
                [(t, a, b) for t in times
                 for a, b in zip(pts[:10], pts[10:20])]),
            validate_control(u, flow_pairs=[(flow1, flow2)], times=times,
                             dirac_flow=dirac),
        ]
        assert [(repr(r.worst_ratio), r.n_checked, r.worst["t"])
                for r in reports] == [
            ("np.float64(0.21348790423764755)", 160, 0.6),
            ("np.float64(0.4329314458997925)", 100, 0.5),
            ("0.646726814631993", 40, 0.0),
            ("0.28453363043400315", 7, 0.25),
        ]
        assert reports[3].worst["check"] == "lipschitz"
        assert all(r.passed for r in reports)


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
        pytest.param("[run]\nscenario = chaos\n[experiment]\nseeds = 1,-2\n",
                     "[experiment] seeds must be >= 0",
                     id="chaos-negative-seed"),
        pytest.param("[run]\nscenario = simulate\n"
                     "[model]\ninitial = mixture\ninitial_std2 = -1\n",
                     "[model] initial_std2 must be >= 0",
                     id="mixture-negative-std2"),
    ] + [
        pytest.param("[run]\nscenario = simulate\n"
                     f"[model]\ninitial = mixture\nmix_weight = {w}\n",
                     "[model] mix_weight must be in [0, 1]",
                     id=f"mixture-weight-{w}")
        for w in ("1.5", "nan")
    ] + [
        pytest.param(f"[run]\nscenario = {scenario}\n[control]\nclass = sv\n",
                     "control class sv needs n_leaders >= 1",
                     id=f"{scenario}-sv-control-without-leaders")
        for scenario in ("simulate", "coupled", "gamma", "validate")
    ] + [
        pytest.param(_with_key("experiment", "n_list", "8,inf"),
                     "[experiment] n_list: cannot parse '8,inf' "
                     "(sweep sizes, >= 1)", id="non-finite-size"),
    ] + [
        pytest.param(_with_key("experiment", "n_list", "4,4"),
                     "[experiment] n_list must not repeat a size",
                     id="repeated-size"),
        pytest.param(_with_key("experiment", "seeds", "1,1"),
                     "[experiment] seeds must not repeat a seed",
                     id="repeated-seed"),
    ] + list(_non_finite_float_cases()))
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, text,
                                               message):
        cfg = _write(tmp_path, text)
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().out
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().out

    H_CONFIG = ("[run]\nscenario = simulate\n"
                "[model]\nn_leaders = 1\n"
                "[control]\nclass = sv\nh_file = {path}\n")

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n", "must start with header"),
        ("bin,i,j,value\n0,0,x,1.0\n", "line 2"),
        ("bin,i,j,value\n0,0,3,1.0\n", "index (0,0,3) outside (8,1,3)"),
    ], ids=["header", "row", "index"])
    def test_validate_rejects_a_bad_h_file(self, tmp_path, capsys, text,
                                           message):
        bad = tmp_path / "h.csv"
        bad.write_text(text)
        cfg = _write(tmp_path, self.H_CONFIG.format(path=bad))
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_h_value_exits_2(self, tmp_path, capsys, value):
        bad = tmp_path / "h.csv"
        bad.write_text(f"bin,i,j,value\n0,0,0,{value}\n")
        message = f"h file '{bad}' line 2: value must be finite"
        for scenario in ("simulate", "coupled", "optimize"):
            cfg = _write(tmp_path, self.H_CONFIG.format(path=bad).replace(
                "simulate", scenario))
            for argv in (["validate", cfg],
                         ["run", cfg, "--output-dir", str(tmp_path / "out")]):
                assert main(argv) == 2
                assert f"config error: [control] {message}" \
                    in capsys.readouterr().out

    def test_repeated_h_index_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("bin,i,j,value\n0,0,0,0.5\n0,0,1,1.0\n0,0,0,-0.25\n")
        message = f"h file '{bad}' line 4: index (0,0,0) repeats line 2"
        cfg = _write(tmp_path, self.H_CONFIG.format(path=bad))
        for argv in (["validate", cfg],
                     ["run", cfg, "--output-dir", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert f"config error: [control] {message}" \
                in capsys.readouterr().out

    def test_validate_accepts_a_good_h_file(self, tmp_path, capsys):
        good = tmp_path / "h.csv"
        good.write_text("bin,i,j,value\n0,0,2,0.5\n7,0,0,-1.0\n")
        cfg = _write(tmp_path, self.H_CONFIG.format(path=good))
        assert main(["validate", cfg]) == 0
        assert "config ok: scenario=simulate" in capsys.readouterr().out
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 0

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
