"""The benchmark tracer's hooks still fit the package.

bench/tracer.py patches package functions by name, and it wraps
experiments._map_cells with a (fn, cells, threads) signature. A renamed
target or a changed call makes install() or a traced run fail here, in the
tier-1 suite, rather than only in the benchmark's traced pass. The tracer
counts Picard iterates from the reports of picard_solve, so a cost
evaluation must still reach it, and solve_coupled, by those names; the
cost experiments take their mean-field cost from one sweep and reach
neither.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kineticmf import control_opt, sde
from kineticmf.control_opt import (evaluate_cost_meanfield, make_cost,
                                   sv_control)
from kineticmf.drift import kernel
from kineticmf.experiments import (chaos_experiment,
                                   gamma_convergence_experiment)
from kineticmf.meanfield import flow_gap
from kineticmf.pdeode import LeaderFollowerModel, solve_coupled
from kineticmf.phase_space import LeaderState, MeasureFlow, ParticleEnsemble
from kineticmf.sde import SimConfig, generate_brownian

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sampler(N, seed):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(rng.standard_normal((N, 1)),
                            rng.standard_normal((N, 1)))


def test_tracer_installs_and_counts_every_chaos_cell():
    tracing = _load_tracer()
    model = LeaderFollowerModel(kernels={"K11": kernel("bounded_alignment",
                                                       d=1)},
                                Y0=LeaderState.empty(1), sampler=_sampler, d=1)
    cfg = SimConfig(T=0.5, n_steps=4, N=4, sigma=0.2, seed=3, d=1)
    N_list, seeds = [2, 4], [1, 2]
    tracer = tracing.Tracer()
    try:
        installed = tracing.install(tracer)
        chaos_experiment(model, N_list, 16, cfg, seeds)
    finally:
        tracer.restore()
    assert "kineticmf.experiments._map_cells" in installed
    metrics = tracing.summarize(tracer)
    assert metrics["experiments.cells.count"] == len(N_list) * len(seeds)
    assert metrics["drift.kernel.count"] > 0


def test_traced_simulation_counts_steps_and_its_allocation_peak():
    # The tracer reads cfg at position 4 of simulate_interacting and takes
    # the tracemalloc peak around that name, so the name must still run
    # the whole simulation.
    cfg = SimConfig(T=0.5, n_steps=5, N=6, sigma=0.2, seed=3, d=2)
    rng = np.random.default_rng(1)
    init = ParticleEnsemble(rng.standard_normal((6, 2)),
                            rng.standard_normal((6, 2)))
    args = ({"K11": kernel("bounded_alignment", d=2)}, None, init,
            LeaderState.empty(2), cfg, generate_brownian(cfg))
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        installed = tracing.install(tracer)
        flow, _ = sde.simulate_interacting(*args)
    finally:
        tracer.restore()
    assert "kineticmf.sde.simulate_interacting" in installed
    assert len(flow) == cfg.n_steps + 1
    assert tracer.counters()["sde.particle_steps"] == cfg.N * cfg.n_steps
    assert tracer.maxima()["sde.simulate_interacting.peak_alloc_bytes"] > 0


def _steering_problem():
    """A one-leader cost evaluation at N = 16, shaped like the optimize
    scenario: K12 attraction, an sv control with nonzero gains."""
    model = LeaderFollowerModel(
        kernels={"K12": kernel("bounded_attraction", d=1)},
        Y0=LeaderState([[0.0]]), sampler=_sampler, d=1)
    cfg = SimConfig(T=1.0, n_steps=10, N=16, sigma=0.05, seed=5, d=1)
    u = sv_control(np.full((1, 1, 3), 0.4), cfg.T, 2.0, 1, 1)
    cost = make_cost("track_mean_x", "quadratic", 1,
                     {"target": 0.5, "weight": 1e-3})
    return model, cfg, u, cost


def test_traced_cost_evaluation_counts_the_untraced_iterations():
    model, cfg, u, cost = _steering_problem()
    reports = []
    real = control_opt.solve_coupled

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        reports.append(sol.picard)
        return sol

    with mock.patch.object(control_opt, "solve_coupled", recording):
        untraced = evaluate_cost_meanfield(u, model, cost, cfg, tol=1e-4,
                                           max_iter=30)
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        # Through the module: the tracer rebinds package namespaces only.
        traced = control_opt.evaluate_cost_meanfield(u, model, cost, cfg,
                                                     tol=1e-4, max_iter=30)
    finally:
        tracer.restore()
    metrics = tracing.summarize(tracer)
    (report,) = reports
    assert report.converged and report.iterations > 1
    assert metrics["meanfield.picard.iterations"] == report.iterations
    assert metrics["control_opt.cost_eval.count"] == 1
    assert traced == untraced
    # The decision runs the iterates that exact gaps run.
    v, w, F = model.mean_field_fields()
    exact = solve_coupled(v, w, F, u, model.initial(cfg.N, cfg.seed),
                          model.Y0, cfg, tol=1e-4, max_iter=30)
    assert exact.picard.iterations == report.iterations


def test_traced_gamma_experiment_runs_no_picard_iterate():
    # The reference cost is one more evaluate_cost_N call, at cfg.N.
    model, cfg, u, cost = _steering_problem()
    N_list, seeds = [2, 4], [1, 2, 3]
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        gamma_convergence_experiment(u, model, cost, N_list, cfg, seeds)
    finally:
        tracer.restore()
    metrics = tracing.summarize(tracer)
    cells = len(N_list) * len(seeds)
    assert metrics["experiments.cells.count"] == cells
    assert metrics["meanfield.picard.iterations"] == 0
    assert metrics["pdeode.solve_coupled.count"] == 0
    assert metrics["control_opt.cost_eval.count"] == cells + 1


def test_non_convergence_names_the_exact_last_gap():
    model, cfg, u, cost = _steering_problem()
    v, w, F = model.mean_field_fields()
    init = model.initial(cfg.N, cfg.seed)
    first = solve_coupled(v, w, F, u, init, model.Y0, cfg, tol=1e-4,
                          max_iter=1)
    gap = flow_gap(MeasureFlow.constant(init, cfg.grid()), first.flow,
                   model.p)
    assert first.picard.gaps == (gap,)
    message = ("mean-field cost: coupled solve did not converge "
               f"(last gap {gap:.3e})")
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with pytest.raises(RuntimeError) as raised:
            control_opt.evaluate_cost_meanfield(u, model, cost, cfg,
                                                tol=1e-4, max_iter=1)
    finally:
        tracer.restore()
    assert str(raised.value) == message
    metrics = tracing.summarize(tracer)
    assert metrics["meanfield.picard.iterations"] == 1
    assert metrics["control_opt.failed_candidates"] == 1
