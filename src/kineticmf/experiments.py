"""Headline convergence experiments: propagation of chaos (empirical flow
against a high-N reference), convergence of the finite-N cost functionals
to the mean-field cost, and convergence of optimized minima.

The mean-field law has no closed form, so a high-N run at its own fixed
seed stands in for it; its sampling error is part of the measured metric
and is acknowledged in the table metadata rather than subtracted. Results
are monotone-trend material, not rate fits: no convergence exponent is
asserted anywhere.
"""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .control_opt import (evaluate_cost_N, evaluate_cost_meanfield, optimize,
                          sv_zero)
from .phase_space import ParticleEnsemble
from .sde import STREAM_SUBSAMPLE, generate_brownian, path_rng, simulate_interacting
from .wasserstein import EXACT_SIZE_CAP, wasserstein_distance

__all__ = [
    "ConvergenceTable",
    "reference_seed",
    "chaos_experiment",
    "gamma_convergence_experiment",
    "minima_convergence_experiment",
    "table_to_csv",
    "write_gnuplot",
]

# The reference run draws its own seed from this tag so user seed lists
# cannot collide with it.
_REFERENCE_TAG = 0xEF


def reference_seed(base_seed):
    return int(np.random.SeedSequence([int(base_seed), _REFERENCE_TAG])
               .generate_state(1)[0])


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows (sweep value, metric mean, metric stderr, n_seeds), sorted by
    the sweep value; metadata carries enough to re-run the table (and the
    raw per-seed values under key 'raw' for median-based acceptance)."""

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        sweep = [r[0] for r in self.rows]
        if sorted(sweep) != list(sweep):
            raise ValueError("rows must be sorted by the sweep variable")
        if any(r[2] < 0 for r in self.rows):
            raise ValueError("stderr must be nonnegative")

    def means(self):
        return [r[1] for r in self.rows]

    def medians(self):
        raw = self.metadata.get("raw", {})
        return [float(np.median(raw[r[0]])) for r in self.rows] if raw else None


def _mean_stderr(vals):
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) \
        if len(vals) > 1 else 0.0
    return mean, stderr


def _map_cells(fn, cells, threads):
    """[fn(c) for c in cells], in order. threads is ignored and callers
    pass None: the parameter stays only because the benchmark tracer
    (bench/tracer.py) rebinds this name with a (fn, cells, threads)
    wrapper; it goes when that tracer target is re-pointed (ROADMAP
    item 6)."""
    return [fn(c) for c in cells]


def _sweep(cell_value, N_list, seeds):
    """cell_value over the (N, seed) cells in order: the per-N raw values
    and the table rows (N, mean, stderr, n_seeds)."""
    cells = [(N, s) for N in N_list for s in seeds]
    values = _map_cells(cell_value, cells, None)
    raw = {N: [v for (n, _), v in zip(cells, values) if n == N]
           for N in N_list}
    return raw, tuple((N, *_mean_stderr(raw[N]), len(seeds)) for N in N_list)


def check_reference_size(N_ref, N_max, min_ref_factor=4):
    """ValueError unless N_ref >= min_ref_factor N_max and N_ref is within
    the exact-transport cap; the CLI's config check calls it too."""
    if N_ref < min_ref_factor * N_max:
        raise ValueError(f"reference size must be at least "
                         f"{min_ref_factor}x the largest N")
    if N_ref > EXACT_SIZE_CAP:
        raise ValueError(f"reference size {N_ref} exceeds the exact-transport "
                         f"cap {EXACT_SIZE_CAP}")


def chaos_experiment(model, N_list, N_ref, cfg, seeds, min_ref_factor=4):
    """sup-in-time W_1 between the N-particle empirical flow and a frozen
    N_ref-particle reference, per N, mean and stderr over seeds.

    The reference runs once at its own derived seed; for each (N, seed)
    cell it is subsampled (without replacement, seeded, one index set per
    cell reused at every grid node) down to N points so the exact
    assignment solver applies. Requires N_ref >= 4 max(N_list) by default;
    pass a smaller min_ref_factor only for degenerate self-distance checks.
    """
    N_list = sorted(int(N) for N in N_list)
    if not N_list or N_list[0] < 1:
        raise ValueError("N_list must contain positive sizes")
    check_reference_size(N_ref, N_list[-1], min_ref_factor)
    ref_seed = reference_seed(cfg.seed)
    cfg_ref = replace(cfg, N=N_ref, seed=ref_seed)
    ref_flow, _ = simulate_interacting(model.kernels, None,
                                       model.initial(N_ref, ref_seed),
                                       model.Y0, cfg_ref,
                                       generate_brownian(cfg_ref))

    def cell_metric(cell):
        N, s = cell
        cfg_N = replace(cfg, N=N, seed=int(s))
        flow, _ = simulate_interacting(model.kernels, None,
                                       model.initial(N, int(s)), model.Y0,
                                       cfg_N, generate_brownian(cfg_N))
        idx = path_rng(int(s), STREAM_SUBSAMPLE, N).choice(N_ref, size=N,
                                                           replace=False)
        worst = 0.0
        for snap, ref in zip(flow.snapshots, ref_flow.snapshots):
            sub = ParticleEnsemble(ref.X[idx], ref.V[idx])
            worst = max(worst, wasserstein_distance(snap, sub, 1.0))
        return worst

    raw, rows = _sweep(cell_metric, N_list, seeds)
    return ConvergenceTable(rows=rows, metadata={
        "experiment": "chaos",
        "model": model.name,
        "metric": "sup_t W1(empirical, subsampled reference)",
        "N_ref": int(N_ref),
        "reference_seed": ref_seed,
        "seeds": list(map(int, seeds)),
        "grid": {"T": cfg.T, "n_steps": cfg.n_steps},
        "raw": raw,
    })


def gamma_convergence_experiment(u, model, cost, N_list, cfg, seeds,
                                 tol=1e-6, max_iter=25):
    """|F^N[u] - F[u]| per N, mean and stderr over seeds, against the
    mean-field cost computed once at cfg.N (the Picard reference size)."""
    N_list = sorted(int(N) for N in N_list)
    F_ref = evaluate_cost_meanfield(u, model, cost, cfg, tol=tol,
                                    max_iter=max_iter)

    def cell_gap(cell):
        N, s = cell
        val, _ = evaluate_cost_N(u, model, cost, N, cfg, [int(s)])
        return abs(val - F_ref)

    raw, rows = _sweep(cell_gap, N_list, seeds)
    return ConvergenceTable(rows=rows, metadata={
        "experiment": "gamma",
        "model": model.name,
        "metric": "|pathwise cost - mean-field cost|",
        "reference_cost": F_ref,
        "reference_N": cfg.N,
        "seeds": list(map(int, seeds)),
        "grid": {"T": cfg.T, "n_steps": cfg.n_steps},
        "raw": raw,
    })


def minima_convergence_experiment(model, cost, N_list, budget, cfg, seeds,
                                  u0=None, step0=0.5, K=4, M_h=1.0,
                                  tol=1e-6, max_iter=25):
    """|min_u F^N[u] - min_u F[u]| per N with both minima found by the same
    derivative-free search. Heuristic by nature (local minima, finite
    budget): the table is flagged as indicative in its metadata and should
    never be read as ground truth for the true minima."""
    N_list = sorted(int(N) for N in N_list)
    if u0 is None:
        u0 = sv_zero(model.m, model.d, cfg.T, K=K, M_h=M_h)

    def mf_cost(u):
        return evaluate_cost_meanfield(u, model, cost, cfg, tol=tol,
                                       max_iter=max_iter)

    _, hist_ref = optimize(u0, mf_cost, budget, step0=step0, seed=cfg.seed)
    min_ref = hist_ref[-1][2]
    rows = []
    raw = {}
    for N in N_list:
        def n_cost(u, N=N):
            return evaluate_cost_N(u, model, cost, N, cfg, seeds)[0]

        _, hist = optimize(u0, n_cost, budget, step0=step0, seed=cfg.seed)
        gap = abs(hist[-1][2] - min_ref)
        rows.append((N, gap, 0.0, len(seeds)))
        raw[N] = [gap]
    return ConvergenceTable(rows=tuple(rows), metadata={
        "experiment": "minima",
        "model": model.name,
        "metric": "|optimized finite-N cost - optimized mean-field cost|",
        "note": ("heuristic: both minima come from a local derivative-free "
                 "search under a finite budget; indicative only"),
        "reference_min": min_ref,
        "budget": int(budget),
        "seeds": list(map(int, seeds)),
        "raw": raw,
    })


def table_to_csv(table, path, sweep_name="N"):
    """CSV with header `<sweep>,mean,stderr,n_seeds`, full float precision."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{sweep_name},mean,stderr,n_seeds\n")
        for sweep, mean, stderr, n in table.rows:
            fh.write(f"{sweep:g},{mean:.17g},{stderr:.17g},{n}\n")


def write_gnuplot(table, dat_path, gp_path, title=None, sweep_name="N"):
    """Plain-text data file plus a minimal gnuplot script (log-log error
    bars); no plotting dependency enters the package."""
    title = title or table.metadata.get("experiment", "convergence")
    with open(dat_path, "w") as fh:
        fh.write(f"# {sweep_name} mean stderr n_seeds\n")
        for sweep, mean, stderr, n in table.rows:
            fh.write(f"{sweep:g} {mean:.17g} {stderr:.17g} {n}\n")
    with open(gp_path, "w") as fh:
        fh.write("set logscale xy\n"
                 f"set xlabel '{sweep_name}'\n"
                 "set ylabel 'metric'\n"
                 f"plot '{os.path.basename(dat_path)}' using 1:2:3 "
                 f"with yerrorlines title '{title}'\n")
