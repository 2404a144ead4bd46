"""The benchmark worker's direct package calls still fit the package.

bench/worker.py's size sweep calls the package outside the tracer: the
config's initial law, cli.initial_law_sampler, generate_brownian handed to
simulate_interacting, LeaderState.empty and wasserstein_exact. A changed
name or signature among them makes the benchmark's traced pass fail; here
it fails in the tier-1 suite instead, at one small size per sweep.
"""

import importlib.util
import math
import sys
from pathlib import Path

import kineticmf.cli as cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

TINY_CONFIG = """\
[run]
scenario = simulate
seed = 2

[model]
d = 2
sigma = 0.1
n_particles = 8
k11 = bounded_alignment

[grid]
t = 0.5
n_steps = 4
"""


def _load_worker(monkeypatch):
    # The worker imports its sibling tracer by the bare name, as it does
    # when it runs as a script from bench/.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("bench_worker",
                                                  BENCH_DIR / "worker.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("tracer", None)
    return module


def test_sweep_reaches_every_direct_call(tmp_path, monkeypatch):
    worker = _load_worker(monkeypatch)
    monkeypatch.setattr(worker, "EXACT_SWEEP", (8,))
    monkeypatch.setattr(worker, "SIMULATE_SWEEP", (16,))
    config = tmp_path / "sweep.ini"
    config.write_text(TINY_CONFIG)
    out = worker.sweep(cli, str(config))
    assert sorted(out) == ["sweep.simulate_interacting.n16_peak_mib",
                           "sweep.simulate_interacting.n16_s",
                           "sweep.wasserstein_exact.n8_ms"]
    for key, value in out.items():
        assert math.isfinite(value) and value >= 0.0, key
