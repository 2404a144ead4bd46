"""The benchmark tracer's hooks still fit the package.

bench/tracer.py patches package functions by name, and it wraps
experiments._map_cells with a (fn, cells, threads) signature. A renamed
target or a changed call makes install() or a traced run fail here, in the
tier-1 suite, rather than only in the benchmark's traced pass.
"""

import importlib.util
from pathlib import Path

import numpy as np

from kineticmf.drift import kernel
from kineticmf.experiments import chaos_experiment
from kineticmf.pdeode import LeaderFollowerModel
from kineticmf.phase_space import LeaderState, ParticleEnsemble
from kineticmf.sde import SimConfig

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
                                Y0=LeaderState.empty(1), sampler=_sampler,
                                sigma=0.2, d=1)
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
