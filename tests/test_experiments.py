"""Convergence-sweep drivers and their table plumbing."""

import inspect
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf.control_opt import (
    CostSpec,
    evaluate_cost_N,
    evaluate_cost_meanfield,
    lagrangian_constant,
    lagrangian_track_mean_x,
    lagrangian_zero,
    psi_quadratic,
    sv_control,
)
from kineticmf import experiments
from kineticmf.experiments import (
    ConvergenceTable,
    chaos_experiment,
    gamma_convergence_experiment,
    minima_convergence_experiment,
    reference_seed,
    table_to_csv,
    write_gnuplot,
)
from kineticmf.drift import kernel
from kineticmf.phase_space import LeaderState, ParticleEnsemble
from kineticmf.sde import SimConfig
from kineticmf.pdeode import LeaderFollowerModel


def _cfg(**kw):
    base = dict(T=0.5, n_steps=4, N=4, sigma=0.0, seed=11, d=1)
    base.update(kw)
    return SimConfig(**base)


def _point_sampler(d=1, x=0.0, v=0.0):
    def sampler(N, seed):
        return ParticleEnsemble(np.full((N, d), float(x)),
                                np.full((N, d), float(v)))
    return sampler


def _gauss_sampler(d=1):
    def sampler(N, seed):
        rng = np.random.default_rng(seed)
        return ParticleEnsemble(rng.standard_normal((N, d)),
                                rng.standard_normal((N, d)))
    return sampler


def _free_model(sampler, d=1, m=0):
    Y0 = LeaderState.empty(d) if m == 0 \
        else LeaderState(np.zeros((m, d)))
    return LeaderFollowerModel(kernels={}, Y0=Y0, sampler=sampler, d=d)


class TestConvergenceTable:
    def test_rows_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ConvergenceTable(rows=((4, 1.0, 0.0, 1), (2, 1.0, 0.0, 1)))

    def test_stderr_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceTable(rows=((2, 1.0, -0.1, 1),))

    def test_means_and_medians(self):
        table = ConvergenceTable(
            rows=((2, 2.0, 0.1, 2), (4, 0.6, 0.1, 2)),
            metadata={"raw": {2: [1.0, 3.0], 4: [0.5, 0.7]}})
        assert table.means() == [2.0, 0.6]
        assert table.medians() == [2.0, pytest.approx(0.6)]

    def test_medians_absent_without_raw_values(self):
        table = ConvergenceTable(rows=((2, 1.0, 0.0, 1),))
        assert table.medians() is None


class TestReferenceSeed:
    def test_deterministic_and_distinct_from_base(self):
        assert reference_seed(7) == reference_seed(7)
        assert reference_seed(7) != reference_seed(8)
        assert reference_seed(7) != 7


class TestChaosExperiment:
    def test_argument_guards(self):
        model = _free_model(_gauss_sampler())
        with pytest.raises(ValueError, match="positive"):
            chaos_experiment(model, [], 64, _cfg(), [1])
        with pytest.raises(ValueError, match="positive"):
            chaos_experiment(model, [0, 4], 64, _cfg(), [1])
        with pytest.raises(ValueError, match="at least 4x"):
            chaos_experiment(model, [8], 16, _cfg(), [1])
        with pytest.raises(ValueError, match="exact-transport"):
            chaos_experiment(model, [2048], 8192, _cfg(), [1])

    def test_point_initial_law_without_interaction_gives_zero(self):
        # Every particle rides the same deterministic path, so any
        # subsample of the reference coincides with the empirical cloud.
        model = _free_model(_point_sampler(x=0.5, v=-1.0))
        table = chaos_experiment(model, [4, 2], 16, _cfg(), seeds=[1, 2])
        assert [r[0] for r in table.rows] == [2, 4]
        assert all(r[1] == 0.0 and r[2] == 0.0 for r in table.rows)

    def test_self_distance_at_reference_seed_is_zero(self):
        cfg = _cfg(sigma=0.3, seed=5)
        model = _free_model(_gauss_sampler())
        table = chaos_experiment(model, [8], 8, cfg,
                                 seeds=[reference_seed(cfg.seed)],
                                 min_ref_factor=1)
        assert table.rows[0][1] == 0.0

    def test_metric_shrinks_with_ensemble_size(self):
        cfg = _cfg(T=0.5, n_steps=5, sigma=0.4, seed=2)
        model = _free_model(_gauss_sampler())
        table = chaos_experiment(model, [2, 64], 256, cfg, seeds=[1, 2, 3])
        means = table.means()
        assert means[1] < means[0]

    def test_metadata_records_the_run(self):
        model = _free_model(_point_sampler())
        cfg = _cfg(seed=9)
        table = chaos_experiment(model, [2], 8, cfg, seeds=[4, 5])
        md = table.metadata
        assert md["experiment"] == "chaos"
        assert md["N_ref"] == 8
        assert md["reference_seed"] == reference_seed(9)
        assert md["seeds"] == [4, 5]
        assert len(md["raw"][2]) == 2

    @given(st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                    min_size=1, max_size=3, unique=True),
           st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=3, unique=True),
           st.sampled_from(["bounded_alignment", "bounded_attraction"]),
           st.integers(min_value=1, max_value=2))
    @settings(max_examples=12, deadline=None)
    def test_threads_never_change_the_table(self, seeds, N_list, name, d):
        # An interacting model, so the table computed in a fresh thread
        # runs pair_mean on that thread's own, newly grown workspace.
        cfg = _cfg(sigma=0.2, seed=3, d=d)
        model = LeaderFollowerModel(kernels={"K11": kernel(name, d=d)},
                                    Y0=LeaderState.empty(d),
                                    sampler=_gauss_sampler(d), d=d)
        N_ref = 4 * max(N_list)
        main = chaos_experiment(model, N_list, N_ref, cfg, seeds)
        result = []
        worker = threading.Thread(target=lambda: result.append(
            chaos_experiment(model, N_list, N_ref, cfg, seeds)))
        worker.start()
        worker.join()
        assert main.rows == result[0].rows
        assert main.metadata == result[0].metadata

    @pytest.mark.parametrize("N_list, seeds, message", [
        ([4, 4], [1, 2], "N_list must not repeat a size"),
        ([4], [1, 1], "seeds must not repeat a seed"),
    ], ids=["size", "seed"])
    def test_repeats_refused_before_any_simulation(self, monkeypatch, N_list,
                                                   seeds, message):
        # A repeat would run its cells twice and count them twice in the
        # stderr, against an n_seeds column that counts them once.
        def no_run(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(experiments, "simulate_interacting", no_run)
        monkeypatch.setattr(experiments, "evaluate_cost_N", no_run)
        model = _free_model(_point_sampler())
        cost = CostSpec(lagrangian=lagrangian_zero(), psi=None, dim=1)
        with pytest.raises(ValueError, match=message):
            chaos_experiment(model, N_list, 16, _cfg(), seeds)
        with pytest.raises(ValueError, match=message):
            gamma_convergence_experiment(None, model, cost, N_list, _cfg(),
                                         seeds)

    def test_stderr_shrinks_with_more_seeds(self):
        cfg = _cfg(T=0.25, n_steps=2, sigma=0.5, seed=1)
        model = _free_model(_gauss_sampler())
        few = chaos_experiment(model, [2], 8, cfg, seeds=range(24))
        many = chaos_experiment(model, [2], 8, cfg, seeds=range(96))
        ratio = few.rows[0][2] / many.rows[0][2]
        assert 1.3 < ratio < 3.0


class TestGammaExperiment:
    def test_constant_running_cost_closes_the_gap_exactly(self):
        model = _free_model(_gauss_sampler())
        cost = CostSpec(lagrangian=lagrangian_constant(2.0), psi=None, dim=1)
        table = gamma_convergence_experiment(None, model, cost, [2, 8],
                                             _cfg(), seeds=[1, 2])
        assert all(r[1] == 0.0 for r in table.rows)
        assert table.metadata["reference_cost"] == pytest.approx(1.0)

    def test_tracking_cost_gap_shrinks_with_N(self):
        model = _free_model(_gauss_sampler())
        cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.0), psi=None,
                        dim=1)
        cfg = _cfg(N=512, seed=7)
        table = gamma_convergence_experiment(None, model, cost, [2, 64],
                                             cfg, seeds=[1, 2, 3, 4])
        means = table.means()
        assert means[1] < means[0]
        assert table.metadata["experiment"] == "gamma"
        assert table.metadata["reference_N"] == 512


def _steered_problem(N=64, seed=2):
    """A test_10-style problem, smaller: aligning followers, one leader
    attracting them, an sv control with nonzero gains."""
    model = LeaderFollowerModel(
        kernels={"K11": kernel("bounded_alignment", d=1),
                 "K12": kernel("bounded_attraction", d=1)},
        Y0=LeaderState(np.full((1, 1), 1.0)),
        sampler=_gauss_sampler(), d=1)
    u = sv_control(np.full((2, 1, 3), 0.2), T=0.5, M_h=1.0, m=1, d=1)
    cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.5),
                    psi=psi_quadratic(0.1), dim=1)
    return model, u, cost, _cfg(n_steps=10, N=N, sigma=0.1, seed=seed)


class TestMeanFieldReference:
    """Both cost experiments take the mean-field cost from one N-particle
    sweep at (cfg.N, cfg.seed): the exact discrete fixed point."""

    @pytest.mark.parametrize("N, seed", [(64, 2), (16, 5)])
    def test_reference_is_the_sweep_cost_bit_for_bit(self, N, seed):
        model, u, cost, cfg = _steered_problem(N, seed)
        table = gamma_convergence_experiment(u, model, cost, [4], cfg, [1])
        sweep = evaluate_cost_N(u, model, cost, cfg.N, cfg, [cfg.seed])[0]
        assert table.metadata["reference_cost"] == sweep

    @pytest.mark.parametrize("N, seed", [(64, 2), (16, 5)])
    def test_reference_meets_the_picard_cost(self, N, seed):
        # The sweep is the fixed point that the Picard solve meets to tol,
        # so rel=1e-8 covers tol=1e-6 alone.
        model, u, cost, cfg = _steered_problem(N, seed)
        table = gamma_convergence_experiment(u, model, cost, [4], cfg, [1])
        picard = evaluate_cost_meanfield(u, model, cost, cfg, tol=1e-6)
        assert table.metadata["reference_cost"] == pytest.approx(picard,
                                                                 rel=1e-8)

    @pytest.mark.parametrize("experiment", [gamma_convergence_experiment,
                                            minima_convergence_experiment])
    def test_no_picard_settings_are_taken(self, experiment):
        params = inspect.signature(experiment).parameters
        assert "tol" not in params and "max_iter" not in params

    def test_minima_reference_is_the_sweep_minimum(self, monkeypatch):
        model, _, cost, cfg = _steered_problem(16, 3)
        calls = []
        real = experiments.evaluate_cost_N

        def recording(u, model, cost, N, cfg, seeds):
            value = real(u, model, cost, N, cfg, seeds)
            calls.append((N, list(seeds), value[0]))
            return value

        monkeypatch.setattr(experiments, "evaluate_cost_N", recording)
        table = minima_convergence_experiment(model, cost, [4], budget=3,
                                              cfg=cfg, seeds=[1], K=1)
        assert [c[:2] for c in calls] == [(16, [3])] * 3 + [(4, [1])] * 3
        assert table.metadata["reference_min"] == min(c[2] for c in calls[:3])


class TestMinimaExperiment:
    def test_flat_cost_landscape_gives_zero_gaps(self):
        model = _free_model(_point_sampler(), m=1)
        cost = CostSpec(lagrangian=lagrangian_constant(3.0), psi=None, dim=1)
        table = minima_convergence_experiment(model, cost, [2, 4], budget=8,
                                              cfg=_cfg(), seeds=[1], K=1)
        assert all(r[1] == 0.0 for r in table.rows)
        assert table.metadata["reference_min"] == pytest.approx(1.5)
        assert "heuristic" in table.metadata["note"]
        assert table.metadata["budget"] == 8

    def test_quadratic_control_penalty_driven_to_zero(self):
        # Deterministic point mass away from the origin: the features are a
        # fixed nonzero vector, so the control penalty is a plain quadratic
        # in h and both searches walk it down from the same nonzero start.
        model = _free_model(_point_sampler(x=1.0), m=1)
        cost = CostSpec(lagrangian=lagrangian_zero(), psi=psi_quadratic(1.0),
                        dim=1)
        h0 = np.full((1, 1, 3), 0.4)
        u0 = sv_control(h0, T=0.5, M_h=1.0, m=1, d=1)
        table = minima_convergence_experiment(model, cost, [2, 4], budget=150,
                                              cfg=_cfg(), seeds=[1], u0=u0)
        assert table.metadata["reference_min"] < 1e-5
        assert all(r[1] == 0.0 for r in table.rows)


class TestTableOutput:
    def test_csv_layout_and_round_trip(self, tmp_path):
        table = ConvergenceTable(rows=((2, 1.0 / 3.0, 0.1, 5),
                                       (4, 2e-17, 0.0, 5)))
        path = tmp_path / "table.csv"
        table_to_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,mean,stderr,n_seeds"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2"
        assert float(first[1]) == 1.0 / 3.0
        assert lines[2].split(",")[1] == "2.0000000000000001e-17"
        assert lines[1].endswith(",5")

    @pytest.mark.parametrize("N", [1234567, np.int64(1234567), 1234567.0])
    def test_large_integral_sizes_written_in_full(self, tmp_path, N):
        table = ConvergenceTable(rows=((N, 0.5, 0.25, 3),))
        table_to_csv(table, tmp_path / "table.csv")
        write_gnuplot(table, tmp_path / "table.dat", tmp_path / "table.gp")
        csv_rows = (tmp_path / "table.csv").read_text().splitlines()
        dat_rows = (tmp_path / "table.dat").read_text().splitlines()
        assert csv_rows[1] == "1234567,0.5,0.25,3"
        assert dat_rows[1] == "1234567 0.5 0.25 3"

    def test_gnuplot_pair(self, tmp_path):
        table = ConvergenceTable(rows=((2, 0.5, 0.25, 3), (4, 0.25, 0.125, 3)),
                                 metadata={"experiment": "chaos"})
        dat = tmp_path / "chaos.dat"
        gp = tmp_path / "chaos.gp"
        write_gnuplot(table, dat, gp)
        dat_lines = dat.read_text().splitlines()
        assert dat_lines[0].startswith("#")
        assert dat_lines[1].split() == ["2", "0.5", "0.25", "3"]
        script = gp.read_text()
        assert "set logscale xy" in script
        assert "chaos.dat" in script
        assert str(tmp_path) not in script
