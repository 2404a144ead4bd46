"""Benchmark samples in a fresh process, as a `kineticmf run` would start.

    python3 bench/worker.py setup ROOT CONFIG
    python3 bench/worker.py e2e ROOT CONFIG OUT_DIR BUDGET_S
    python3 bench/worker.py trace ROOT CONFIG OUT_DIR SWEEP_CONFIG

Every mode times `import kineticmf` and `parse_config` and prints one JSON
object on stdout; the workload runs call `kineticmf.cli.run` with an
explicit thread count.

setup: nothing more.
e2e:   untraced runs at 2 threads, back to back, while the next one is
       expected to end within BUDGET_S (at least three); reports each run's
       wall time, exit code and output digests, and the peak resident
       memory of the process as it stood after its first run.
trace: an untraced run at 1 thread and one at 2 threads (the
       threads-invariance check and the pool speed-up), a traced run at 2
       threads with the per-layer metrics, then the size sweeps by direct
       calls: wasserstein_exact at N = 64, 256, 1024 and
       simulate_interacting at N = 256, 1024, 2048 (d = 2, 20 steps,
       K11 = SIMULATE_SWEEP_KERNEL, under tracemalloc), all built from
       SWEEP_CONFIG.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

THREADS = 2
MIN_RUNS = 3
EXACT_SWEEP = (64, 256, 1024)
SIMULATE_SWEEP = (256, 1024, 2048)
# The kernel of the ROADMAP's simulate_interacting baselines: its peak holds
# four N x N x d float arrays (dx, dv, dx * dx, the result), against three
# for bounded_alignment.
SIMULATE_SWEEP_KERNEL = "bounded_attraction"


def digests(out_dir):
    """SHA-256 of every output file except the timestamped manifest."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())
            if p.name != "manifest.json"}


def run_once(cli, rc, out_dir, threads, tracer=None):
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            code = cli.run(rc, threads=threads, output_dir=str(out_dir))
        else:
            code = tracer.call("cli.run", cli.run, (rc,),
                               {"threads": threads, "output_dir": str(out_dir)})
        wall = time.perf_counter() - start
    return {"threads": threads, "traced": tracer is not None, "code": code,
            "wall_s": wall, "digests": digests(out_dir)}


def env():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def sweep(cli, sweep_config):
    """Direct calls at fixed sizes, untraced."""
    import tracemalloc

    from kineticmf.drift import kernel
    from kineticmf.phase_space import LeaderState
    from kineticmf.sde import SimConfig, generate_brownian, simulate_interacting
    from kineticmf.wasserstein import wasserstein_exact

    rc = cli.parse_config(sweep_config)
    law = rc.initial
    out = {}
    for N in EXACT_SWEEP:
        a = cli.initial_law_sampler(law, N, rc.seed)
        b = cli.initial_law_sampler(law, N, rc.seed + 1)
        times = []
        begin = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - begin < 0.3:
            start = time.perf_counter()
            wasserstein_exact(a, b, 2.0)
            times.append(time.perf_counter() - start)
        out[f"sweep.wasserstein_exact.n{N}_ms"] = 1e3 * statistics.median(times)
    kernels = {"K11": kernel(SIMULATE_SWEEP_KERNEL, d=rc.d)}
    for N in SIMULATE_SWEEP:
        cfg = SimConfig(T=rc.T, n_steps=rc.n_steps, N=N, sigma=rc.sigma,
                        seed=rc.seed, d=rc.d)
        init = cli.initial_law_sampler(law, N, cfg.seed)
        paths = generate_brownian(cfg)
        tracemalloc.start()
        start = time.perf_counter()
        simulate_interacting(kernels, None, init, LeaderState.empty(rc.d), cfg,
                             paths)
        out[f"sweep.simulate_interacting.n{N}_s"] = time.perf_counter() - start
        out[f"sweep.simulate_interacting.n{N}_peak_mib"] = \
            tracemalloc.get_traced_memory()[1] / tracing.MIB
        tracemalloc.stop()
    return out


def main(argv):
    mode, root, config = argv[:3]
    start = time.perf_counter()
    sys.path.insert(0, str(Path(root) / "src"))
    import kineticmf
    import kineticmf.cli as cli
    imported = time.perf_counter()
    rc = cli.parse_config(config)
    parsed = time.perf_counter()
    result = {"import_s": imported - start, "parse_s": parsed - imported,
              "package": kineticmf.__file__, "env": env()}
    if mode == "e2e":
        out_dir, budget = argv[3], float(argv[4])
        begin = time.perf_counter()
        runs = [run_once(cli, rc, out_dir, THREADS)]
        # Peak of a fresh process that ran the workload once.
        result["maxrss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(runs) < MIN_RUNS or \
                (time.perf_counter() - begin) * (len(runs) + 1) / len(runs) \
                < budget:
            runs.append(run_once(cli, rc, out_dir, THREADS))
        result["runs"] = runs
    elif mode == "trace":
        out_dir = argv[3]
        # Each compared pair of runs is adjacent in time: host speed drifts.
        runs = [run_once(cli, rc, out_dir, 1),
                run_once(cli, rc, out_dir, THREADS)]
        tr = tracing.Tracer()
        result["installed"] = tracing.install(tr)
        try:
            runs.append(run_once(cli, rc, out_dir, THREADS, tracer=tr))
        finally:
            tr.restore()
        result["runs"] = runs
        result["layers"] = tracing.summarize(tr)
        result["sweep"] = sweep(cli, argv[4])
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
