"""Config-driven command line.

One INI-style file describes a run: model block (kernels, diffusion,
initial law, leaders), grid, control, cost, experiment sweeps, and output
location. `kineticmf run config.ini` executes the configured scenario and
writes CSV outputs plus a JSON manifest that records the fully resolved
configuration; `kineticmf validate config.ini` only checks the file.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence,
4 I/O failure. `--threads` is accepted and has no effect: a run starts
no threads of its own. Identical configs produce byte-identical CSVs;
manifests differ only in their single timestamp line.
"""

import argparse
import configparser
import csv
import difflib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .control_opt import (evaluate_cost_meanfield, make_cost, optimize,
                          sv_control, sv_zero, validate_control, zero_control)
from .drift import (KERNEL_NAMES, kernel, latin_hypercube_points,
                    validate_dissipativity_v3pp, validate_hoelder,
                    validate_sublinearity)
from .experiments import (chaos_experiment, check_reference_size,
                          gamma_convergence_experiment, table_to_csv,
                          write_gnuplot)
from .meanfield import picard_solve
from .pdeode import LeaderFollowerModel, solve_coupled
from .phase_space import (LeaderState, MeasureFlow, ParticleEnsemble,
                          write_flow_csv, write_leader_csv)
from .sde import (STREAM_INITIAL, SimConfig, generate_brownian, path_rng,
                  simulate_interacting)

__all__ = [
    "ConfigError",
    "InitialLaw",
    "RunConfig",
    "parse_config",
    "initial_law_sampler",
    "run",
    "main",
]

SCENARIOS = ("simulate", "meanfield", "coupled", "optimize", "chaos", "gamma",
             "validate")
INITIAL_KINDS = ("point", "gaussian", "uniform", "mixture")
_POSITION_KERNELS = tuple(n for n in KERNEL_NAMES if n.endswith("_position"))


class ConfigError(Exception):
    """Carries every problem found in a config file, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class InitialLaw:
    """i.i.d. initial law: point mass, diagonal gaussian, uniform box, or a
    two-component gaussian mixture."""

    kind: str
    d: int
    mean_x: np.ndarray
    mean_v: np.ndarray
    std: np.ndarray
    box: np.ndarray
    mix_weight: float = 0.5
    mean_x2: np.ndarray | None = None
    mean_v2: np.ndarray | None = None
    std2: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial law '{self.kind}'")
        if np.any(self.std < 0) or np.any(self.box < 0):
            raise ValueError("initial std and box widths must be >= 0")
        if not (0.0 <= self.mix_weight <= 1.0):
            raise ValueError("mixture weight must lie in [0, 1]")
        if self.kind == "mixture" and (self.mean_x2 is None
                                       or self.mean_v2 is None
                                       or self.std2 is None):
            raise ValueError("mixture law needs the second component's "
                             "mean_x2, mean_v2, std2")


def _broadcast(vals, d, label):
    arr = np.atleast_1d(np.asarray(vals, dtype=float))
    if arr.size == 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ValueError(f"{label} needs 1 or {d} components, got {arr.size}")
    return arr


def initial_law_sampler(spec, N, seed):
    """N i.i.d. draws from the law, one keyed stream per particle index:
    deterministic in (spec, N, seed) and prefix-stable in N."""
    d = spec.d
    X = np.empty((N, d))
    V = np.empty((N, d))
    for i in range(N):
        rng = path_rng(seed, STREAM_INITIAL, i)
        if spec.kind == "point":
            x, v = spec.mean_x, spec.mean_v
        elif spec.kind == "gaussian":
            x = spec.mean_x + spec.std * rng.standard_normal(d)
            v = spec.mean_v + spec.std * rng.standard_normal(d)
        elif spec.kind == "uniform":
            x = spec.mean_x + rng.uniform(-1.0, 1.0, d) * spec.box
            v = spec.mean_v + rng.uniform(-1.0, 1.0, d) * spec.box
        else:
            if rng.random() < spec.mix_weight:
                mx, mv, sd = spec.mean_x, spec.mean_v, spec.std
            else:
                mx, mv, sd = spec.mean_x2, spec.mean_v2, spec.std2
            x = mx + sd * rng.standard_normal(d)
            v = mv + sd * rng.standard_normal(d)
        X[i], V[i] = x, v
    return ParticleEnsemble(X, V)


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    seed: int
    d: int
    sigma: float
    n_particles: int
    n_leaders: int
    kernel_names: dict
    constant_value: float
    leader_x: np.ndarray
    initial: InitialLaw
    T: float
    n_steps: int
    control_class: str
    bins: int
    M_h: float
    R_c: float
    h_file: str
    lagrangian: str
    lagrangian_value: float
    target: np.ndarray
    psi: str
    psi_weight: float
    N_list: tuple
    N_ref: int
    seeds: tuple
    tol: float
    max_iter: int
    budget: int
    step0: float
    output_dir: str
    resolved: dict = field(default_factory=dict, compare=False)


def _parse_floats(raw):
    return [float(part) for part in str(raw).split(",") if part.strip() != ""]


def _parse_ints(raw):
    out = []
    for part in str(raw).split(","):
        if part.strip() == "":
            continue
        val = float(part)
        if val != int(val):
            raise ValueError(f"'{part.strip()}' is not an integer")
        out.append(int(val))
    return out


# Schema: section -> key -> (converter, default-as-string, description).
# Defaults are strings so the resolved config in the manifest is uniform.
_SCHEMA = {
    "run": {
        "scenario": (str, None, f"one of {', '.join(SCENARIOS)}"),
        "seed": (int, "0", "base seed, >= 0"),
    },
    "model": {
        "d": (int, "1", "state dimension, >= 1"),
        "sigma": (float, "0.1", "diffusion strength, >= 0"),
        "n_particles": (int, "64", "follower count, >= 1"),
        "n_leaders": (int, "0", "leader count, >= 0"),
        "k11": (str, "none", "follower-follower kernel name or none"),
        "k12": (str, "none", "leader-to-follower kernel name or none"),
        "k21": (str, "none", "follower-to-leader position kernel or none"),
        "k22": (str, "none", "leader-leader position kernel or none"),
        "constant_value": (float, "1.0", "value for 'constant' kernels"),
        "leader_x": (_parse_floats, "1.0", "initial leader position(s)"),
        "initial": (str, "gaussian", f"one of {', '.join(INITIAL_KINDS)}"),
        "initial_x": (_parse_floats, "0.0", "initial mean position"),
        "initial_v": (_parse_floats, "0.0", "initial mean velocity"),
        "initial_std": (_parse_floats, "1.0", "gaussian std, >= 0"),
        "initial_box": (_parse_floats, "1.0", "uniform half-width, >= 0"),
        "mix_weight": (float, "0.5", "first mixture weight, in [0, 1]"),
        "initial_x2": (_parse_floats, "0.0", "second component mean position"),
        "initial_v2": (_parse_floats, "0.0", "second component mean velocity"),
        "initial_std2": (_parse_floats, "1.0", "second component std, >= 0"),
    },
    "grid": {
        "t": (float, "1.0", "horizon, > 0"),
        "n_steps": (int, "50", "time steps, >= 1"),
    },
    "control": {
        "class": (str, "zero", "zero or sv"),
        "bins": (int, "8", "piecewise-constant time bins, >= 1"),
        "m_h": (float, "1.0", "Frobenius budget per bin, > 0"),
        "r_c": (float, "5.0", "feature clamping radius, > 0"),
        "h_file": (str, "", "optional CSV of h entries (bin,i,j,value)"),
    },
    "cost": {
        "lagrangian": (str, "zero", "zero, constant, or track_mean_x"),
        "lagrangian_value": (float, "1.0", "value for the constant lagrangian"),
        "target": (_parse_floats, "0.0", "target for track_mean_x"),
        "psi": (str, "zero", "zero or quadratic"),
        "psi_weight": (float, "1.0", "quadratic control cost weight, >= 0"),
    },
    "experiment": {
        "n_list": (_parse_ints, "8,16,32", "sweep sizes"),
        "n_ref": (int, "0", "chaos reference size (0 = 8x the largest N)"),
        "seeds": (_parse_ints, "1,2,3,4,5", "per-cell seeds"),
        "tol": (float, "1e-6", "Picard tolerance, > 0"),
        "max_iter": (int, "25", "Picard iteration cap, >= 1"),
        "budget": (int, "120", "optimizer evaluation budget, >= 1"),
        "step0": (float, "0.5", "optimizer initial step, > 0"),
    },
    "io": {
        "output_dir": (str, "out", "output directory"),
    },
}


def _suggest(name, candidates):
    match = difflib.get_close_matches(name, candidates, n=1)
    return f" (did you mean '{match[0]}'?)" if match else ""


def _reference_size(n_ref, n_list):
    """The chaos reference size: n_ref, or 8x the largest N when it is 0."""
    return n_ref if n_ref else 8 * max(n_list)


def _check_ranges(values, errors):
    def bad(msg):
        errors.append(msg)

    if values[("run", "scenario")] is None:
        bad("[run] scenario is required, one of " + ", ".join(SCENARIOS))
    elif values[("run", "scenario")] not in SCENARIOS:
        bad(f"[run] unknown scenario '{values[('run', 'scenario')]}'"
            + _suggest(values[("run", "scenario")], SCENARIOS))
    if values[("run", "seed")] < 0:
        bad("[run] seed must be >= 0")
    if values[("model", "d")] < 1:
        bad("[model] d must be >= 1")
    if values[("model", "sigma")] < 0:
        bad("[model] sigma must be >= 0")
    if values[("model", "n_particles")] < 1:
        bad("[model] n_particles must be >= 1")
    if values[("model", "n_leaders")] < 0:
        bad("[model] n_leaders must be >= 0")
    for slot in ("k11", "k12", "k21", "k22"):
        name = values[("model", slot)]
        if name != "none" and name not in KERNEL_NAMES:
            bad(f"[model] unknown kernel '{name}' for {slot}"
                + _suggest(name, KERNEL_NAMES + ("none",)))
    for slot in ("k21", "k22"):
        name = values[("model", slot)]
        if name in KERNEL_NAMES and name not in _POSITION_KERNELS:
            bad(f"[model] {slot} must be a position kernel, one of "
                + ", ".join(_POSITION_KERNELS))
    if values[("model", "initial")] not in INITIAL_KINDS:
        bad(f"[model] unknown initial law '{values[('model', 'initial')]}'"
            + _suggest(values[("model", "initial")], INITIAL_KINDS))
    if values[("grid", "t")] <= 0:
        bad("[grid] t must be > 0")
    if values[("grid", "n_steps")] < 1:
        bad("[grid] n_steps must be >= 1")
    if values[("control", "class")] not in ("zero", "sv"):
        bad("[control] class must be zero or sv (other classes need code, "
            "not config)")
    if values[("control", "bins")] < 1:
        bad("[control] bins must be >= 1")
    if values[("control", "m_h")] <= 0:
        bad("[control] m_h must be > 0")
    if values[("control", "r_c")] <= 0:
        bad("[control] r_c must be > 0")
    if values[("cost", "lagrangian")] not in ("zero", "constant", "track_mean_x"):
        bad(f"[cost] unknown lagrangian '{values[('cost', 'lagrangian')]}'"
            + _suggest(values[("cost", "lagrangian")],
                       ("zero", "constant", "track_mean_x")))
    if values[("cost", "psi")] not in ("zero", "quadratic"):
        bad(f"[cost] unknown psi '{values[('cost', 'psi')]}'"
            + _suggest(values[("cost", "psi")], ("zero", "quadratic")))
    if values[("cost", "psi_weight")] < 0:
        bad("[cost] psi_weight must be >= 0")
    if not values[("experiment", "n_list")] \
            or min(values[("experiment", "n_list")], default=0) < 1:
        bad("[experiment] n_list must hold sizes >= 1")
    if values[("experiment", "n_ref")] < 0:
        bad("[experiment] n_ref must be >= 0")
    if not values[("experiment", "seeds")]:
        bad("[experiment] seeds must not be empty")
    if values[("experiment", "tol")] <= 0:
        bad("[experiment] tol must be > 0")
    if values[("experiment", "max_iter")] < 1:
        bad("[experiment] max_iter must be >= 1")
    if values[("experiment", "budget")] < 1:
        bad("[experiment] budget must be >= 1")
    if values[("experiment", "step0")] <= 0:
        bad("[experiment] step0 must be > 0")

    # What a scenario would refuse at run time is refused here.
    scenario = values[("run", "scenario")]
    no_leaders = values[("model", "n_leaders")] == 0
    n_list = values[("experiment", "n_list")]
    n_ref = values[("experiment", "n_ref")]
    if scenario == "chaos" and min(n_list, default=0) >= 1 and n_ref >= 0:
        try:
            check_reference_size(_reference_size(n_ref, n_list), max(n_list))
        except ValueError as e:
            bad(f"[experiment] {e}")
    if no_leaders and scenario == "optimize":
        bad("[model] optimize scenario needs n_leaders >= 1")
    if no_leaders and values[("control", "class")] == "sv" \
            and scenario in ("simulate", "coupled", "gamma", "validate"):
        bad("[control] control class sv needs n_leaders >= 1")


def parse_config(path):
    """Read and validate a config file; raises ConfigError carrying every
    problem found (unknown sections/keys with nearest-name suggestions,
    values out of range, unparseable numbers)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError([f"cannot read config file: {e}"]) from e
    except configparser.Error as e:
        raise ConfigError([f"malformed config: {e}"]) from e

    errors = []
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]"
                          + _suggest(section, list(_SCHEMA)))
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                errors.append(f"[{section}] unknown key '{key}'"
                              + _suggest(key, list(_SCHEMA[section])))

    values = {}
    resolved = {}
    for section, keys in _SCHEMA.items():
        resolved[section] = {}
        for key, (conv, default, desc) in keys.items():
            raw = parser.get(section, key, fallback=default) \
                if parser.has_section(section) else default
            if raw is None:
                values[(section, key)] = None
                resolved[section][key] = ""
                continue
            try:
                values[(section, key)] = conv(raw)
                resolved[section][key] = str(raw)
            except (TypeError, ValueError):
                errors.append(f"[{section}] {key}: cannot parse '{raw}' "
                              f"({desc})")
                values[(section, key)] = conv(default) if default is not None \
                    else None
                resolved[section][key] = str(default)
    _check_ranges(values, errors)

    d = values[("model", "d")]
    initial = None
    if not errors:
        try:
            kind = values[("model", "initial")]
            initial = InitialLaw(
                kind=kind, d=d,
                mean_x=_broadcast(values[("model", "initial_x")], d,
                                  "[model] initial_x"),
                mean_v=_broadcast(values[("model", "initial_v")], d,
                                  "[model] initial_v"),
                std=_broadcast(values[("model", "initial_std")], d,
                               "[model] initial_std"),
                box=_broadcast(values[("model", "initial_box")], d,
                               "[model] initial_box"),
                mix_weight=values[("model", "mix_weight")],
                mean_x2=_broadcast(values[("model", "initial_x2")], d,
                                   "[model] initial_x2"),
                mean_v2=_broadcast(values[("model", "initial_v2")], d,
                                   "[model] initial_v2"),
                std2=_broadcast(values[("model", "initial_std2")], d,
                                "[model] initial_std2"),
            )
            _broadcast(values[("model", "leader_x")], d, "[model] leader_x")
            _broadcast(values[("cost", "target")], d, "[cost] target")
        except ValueError as e:
            errors.append(str(e))
    if errors:
        raise ConfigError(errors)

    return RunConfig(
        scenario=values[("run", "scenario")],
        seed=values[("run", "seed")],
        d=d,
        sigma=values[("model", "sigma")],
        n_particles=values[("model", "n_particles")],
        n_leaders=values[("model", "n_leaders")],
        kernel_names={slot.upper(): values[("model", slot.lower())]
                      for slot in ("K11", "K12", "K21", "K22")},
        constant_value=values[("model", "constant_value")],
        leader_x=_broadcast(values[("model", "leader_x")], d, "leader_x"),
        initial=initial,
        T=values[("grid", "t")],
        n_steps=values[("grid", "n_steps")],
        control_class=values[("control", "class")],
        bins=values[("control", "bins")],
        M_h=values[("control", "m_h")],
        R_c=values[("control", "r_c")],
        h_file=values[("control", "h_file")],
        lagrangian=values[("cost", "lagrangian")],
        lagrangian_value=values[("cost", "lagrangian_value")],
        target=_broadcast(values[("cost", "target")], d, "target"),
        psi=values[("cost", "psi")],
        psi_weight=values[("cost", "psi_weight")],
        N_list=tuple(values[("experiment", "n_list")]),
        N_ref=values[("experiment", "n_ref")],
        seeds=tuple(values[("experiment", "seeds")]),
        tol=values[("experiment", "tol")],
        max_iter=values[("experiment", "max_iter")],
        budget=values[("experiment", "budget")],
        step0=values[("experiment", "step0")],
        output_dir=values[("io", "output_dir")],
        resolved=resolved,
    )


def _build_model(rc):
    def resolve(slot):
        name = rc.kernel_names[slot]
        if name == "none":
            return None
        return kernel(name, d=rc.d, params={"value": rc.constant_value})

    kernels = {slot: resolve(slot) for slot in ("K11", "K12", "K21", "K22")}
    m = rc.n_leaders
    if m == 0:
        Y0 = LeaderState.empty(rc.d)
    else:
        Y = np.tile(rc.leader_x, (m, 1))
        Y0 = LeaderState(Y, np.zeros_like(Y))
    label = ",".join(rc.kernel_names[s] for s in ("K11", "K12", "K21", "K22"))
    return LeaderFollowerModel(
        kernels=kernels, Y0=Y0,
        sampler=lambda N, seed: initial_law_sampler(rc.initial, N, seed),
        sigma=rc.sigma, d=rc.d, p=2.0, name=f"cli[{label}]")


def _load_h(path, K, md, ell):
    h = np.zeros((K, md, ell))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["bin", "i", "j", "value"]:
            raise ValueError(f"h file '{path}' must start with header "
                             "bin,i,j,value")
        for lineno, row in enumerate(reader, start=2):
            try:
                b, i, j, val = int(row[0]), int(row[1]), int(row[2]), float(row[3])
            except (ValueError, IndexError) as e:
                raise ValueError(f"h file '{path}' line {lineno}: {e}") from e
            if not (0 <= b < K and 0 <= i < md and 0 <= j < ell):
                raise ValueError(f"h file '{path}' line {lineno}: index "
                                 f"({b},{i},{j}) outside ({K},{md},{ell})")
            h[b, i, j] = val
    return h


def _write_h(path, h):
    with open(path, "w", newline="") as fh:
        fh.write("bin,i,j,value\n")
        K, md, ell = h.shape
        for b in range(K):
            for i in range(md):
                for j in range(ell):
                    fh.write(f"{b},{i},{j},{h[b, i, j]:.17g}\n")


def _build_control(rc):
    m, d = rc.n_leaders, rc.d
    if rc.control_class == "zero":
        return zero_control(m, d)
    base = sv_zero(m, d, rc.T, K=rc.bins, M_h=rc.M_h)
    if rc.h_file:
        h = _load_h(rc.h_file, rc.bins, m * d, base.features.ell)
        return sv_control(h, rc.T, rc.M_h, m, d, features=base.features)
    return base


def _build_cost(rc):
    dim = max(rc.n_leaders * rc.d, 1)
    params = {"value": rc.lagrangian_value, "target": rc.target,
              "weight": rc.psi_weight}
    return make_cost(rc.lagrangian, rc.psi, dim, params)


def _sim_config(rc):
    return SimConfig(T=rc.T, n_steps=rc.n_steps, N=rc.n_particles,
                     sigma=rc.sigma, seed=rc.seed, d=rc.d)


def _picard_report_text(rep):
    lines = [f"iterations: {rep.iterations}",
             f"converged: {str(rep.converged).lower()}"]
    lines += [f"gap[{k + 1}] = {g:.17g}" for k, g in enumerate(rep.gaps)]
    return "\n".join(lines) + "\n"


class _Progress:
    def __init__(self, enabled, scenario):
        self.enabled = enabled
        self.scenario = scenario

    def phase(self, name, **fields):
        if not self.enabled:
            return
        extra = "".join(f" {k}={v}" for k, v in fields.items())
        print(f"progress scenario={self.scenario} phase={name}{extra}",
              file=sys.stderr, flush=True)


def _write_manifest(out_dir, rc, outputs, wall_seconds):
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    manifest = {
        "scenario": rc.scenario,
        "seed": rc.seed,
        "config": rc.resolved,
        "package": {"name": "kineticmf", "version": __version__},
        "outputs": sorted(outputs),
        "timestamp": f"{stamp} wall_seconds={wall_seconds:.3f}",
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.name


def _scenario_simulate(rc, model, cfg, out, progress):
    u = None if rc.control_class == "zero" else _build_control(rc)
    progress.phase("simulate", N=cfg.N, steps=cfg.n_steps)
    init = model.initial(cfg.N, cfg.seed)
    flow, leaders = simulate_interacting(model.kernels, u, init, model.Y0,
                                         cfg, generate_brownian(cfg))
    outputs = []
    write_flow_csv(flow, out / "flow.csv")
    outputs.append("flow.csv")
    print(f"[simulate] N={cfg.N} steps={cfg.n_steps} d={cfg.d} -> flow.csv")
    if model.m > 0:
        write_leader_csv(leaders, out / "leaders.csv")
        outputs.append("leaders.csv")
        print(f"[simulate] m={model.m} leaders -> leaders.csv")
    return 0, outputs


def _scenario_meanfield(rc, model, cfg, out, progress):
    f = model.mean_field_fields()[0]
    progress.phase("picard", N=cfg.N, tol=rc.tol)
    rep = picard_solve(f, model.initial(cfg.N, cfg.seed), cfg, tol=rc.tol,
                       max_iter=rc.max_iter)
    write_flow_csv(rep.final_flow, out / "flow.csv")
    (out / "picard_report.txt").write_text(_picard_report_text(rep))
    outputs = ["flow.csv", "picard_report.txt"]
    print(f"[meanfield] iterations={rep.iterations} "
          f"converged={rep.converged} -> flow.csv, picard_report.txt")
    return (0 if rep.converged else 3), outputs


def _scenario_coupled(rc, model, cfg, out, progress):
    u = _build_control(rc)
    v, w, F = model.mean_field_fields()
    progress.phase("coupled", N=cfg.N, m=model.m)
    sol = solve_coupled(v, w, F, u, model.initial(cfg.N, cfg.seed), model.Y0,
                        cfg, tol=rc.tol, max_iter=rc.max_iter)
    write_flow_csv(sol.flow, out / "flow.csv")
    write_leader_csv(sol.leaders, out / "leaders.csv")
    (out / "picard_report.txt").write_text(_picard_report_text(sol.picard))
    outputs = ["flow.csv", "leaders.csv", "picard_report.txt"]
    print(f"[coupled] iterations={sol.picard.iterations} "
          f"converged={sol.picard.converged} -> flow.csv, leaders.csv")
    return (0 if sol.picard.converged else 3), outputs


def _scenario_optimize(rc, model, cfg, out, progress):
    cost = _build_cost(rc)
    u0 = sv_zero(model.m, model.d, rc.T, K=rc.bins, M_h=rc.M_h)
    progress.phase("optimize", budget=rc.budget)

    def cost_fn(u):
        return evaluate_cost_meanfield(u, model, cost, cfg, tol=rc.tol,
                                       max_iter=rc.max_iter)

    best, history = optimize(u0, cost_fn, rc.budget, step0=rc.step0,
                             seed=rc.seed)
    with open(out / "history.csv", "w", newline="") as fh:
        fh.write("eval,cost,best_cost\n")
        for k, c, b in history:
            fh.write(f"{k},{c:.17g},{b:.17g}\n")
    _write_h(out / "control_h.csv", best.h)
    outputs = ["history.csv", "control_h.csv"]
    print(f"[optimize] evaluations={len(history)} "
          f"best_cost={history[-1][2]:.6g} -> history.csv, control_h.csv")
    return 0, outputs


def _scenario_chaos(rc, model, cfg, out, progress):
    n_ref = _reference_size(rc.N_ref, rc.N_list)
    progress.phase("reference", N_ref=n_ref)
    table = chaos_experiment(model, rc.N_list, n_ref, cfg, rc.seeds)
    progress.phase("table", rows=len(table.rows))
    table_to_csv(table, out / "table.csv")
    write_gnuplot(table, out / "table.dat", out / "table.gp", title="chaos")
    outputs = ["table.csv", "table.dat", "table.gp"]
    print(f"[chaos] N_ref={n_ref} rows={len(table.rows)} "
          f"seeds={len(rc.seeds)} -> table.csv")
    return 0, outputs


def _scenario_gamma(rc, model, cfg, out, progress):
    u = _build_control(rc)
    cost = _build_cost(rc)
    progress.phase("reference", N=cfg.N)
    table = gamma_convergence_experiment(u, model, cost, rc.N_list, cfg,
                                         rc.seeds, tol=rc.tol,
                                         max_iter=rc.max_iter)
    progress.phase("table", rows=len(table.rows))
    table_to_csv(table, out / "table.csv")
    write_gnuplot(table, out / "table.dat", out / "table.gp", title="gamma")
    outputs = ["table.csv", "table.dat", "table.gp"]
    print(f"[gamma] reference_cost={table.metadata['reference_cost']:.6g} "
          f"rows={len(table.rows)} -> table.csv")
    return 0, outputs


def _scenario_validate(rc, model, cfg, out, progress):
    f = model.mean_field_fields()[0]
    progress.phase("flows", N=cfg.N)
    init = model.initial(cfg.N, cfg.seed)
    flow1 = simulate_interacting(model.kernels, None, init, model.Y0, cfg,
                                 generate_brownian(cfg))[0]
    cfg2 = replace(cfg, seed=cfg.seed + 1)
    flow2 = simulate_interacting(model.kernels, None, init, model.Y0, cfg2,
                                 generate_brownian(cfg2))[0]
    pts = latin_hypercube_points(100, rc.d, -3.0, 3.0, rc.seed)
    times = [float(t) for t in flow1.times[:: max(1, len(flow1.times) // 8)]]
    progress.phase("validators", points=len(pts))
    reports = {
        "sublinearity": validate_sublinearity(f, flow1, pts, times),
        "hoelder": validate_hoelder(f, flow1, list(zip(pts[:50:2], pts[1:50:2])),
                                    L=f.L, alpha=f.alpha),
        "dissipativity": validate_dissipativity_v3pp(
            f, (flow1, flow2),
            [(t, z1, z2) for t in times
             for z1, z2 in zip(pts[:20:2], pts[1:20:2])]),
    }
    u = _build_control(rc)
    dirac = MeasureFlow.constant(
        ParticleEnsemble(np.zeros((1, rc.d)), np.zeros((1, rc.d))),
        flow1.times)
    reports["control"] = validate_control(u, flow_pairs=[(flow1, flow2)],
                                          times=times, dirac_flow=dirac)
    lines = []
    for name, rep in reports.items():
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{status} {name}: worst={rep.worst_ratio:.6g} "
                     f"bound={rep.bound:.6g} checked={rep.n_checked}")
        print(f"[validate] {lines[-1]}")
    (out / "validators.txt").write_text("\n".join(lines) + "\n")
    ok = all(rep.passed for rep in reports.values())
    return (0 if ok else 2), ["validators.txt"]


_SCENARIO_FNS = {
    "simulate": _scenario_simulate,
    "meanfield": _scenario_meanfield,
    "coupled": _scenario_coupled,
    "optimize": _scenario_optimize,
    "chaos": _scenario_chaos,
    "gamma": _scenario_gamma,
    "validate": _scenario_validate,
}


def run(rc, threads=None, progress=False, output_dir=None):
    """Execute a parsed config; returns the process exit code. threads is
    accepted and has no effect: a run starts no threads of its own."""
    out = Path(output_dir or rc.output_dir)
    prog = _Progress(progress, rc.scenario)
    start = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}")
        return 4
    try:
        code, outputs = _SCENARIO_FNS[rc.scenario](
            rc, _build_model(rc), _sim_config(rc), out, prog)
    except ValueError as e:
        print(f"error: {e}")
        return 2
    except (RuntimeError, FloatingPointError) as e:
        print(f"error: solver failed: {e}")
        return 3
    except OSError as e:
        print(f"error: I/O failure: {e}")
        return 4
    wall = time.perf_counter() - start
    try:
        outputs.append(_write_manifest(out, rc, outputs, wall))
    except OSError as e:
        print(f"error: I/O failure: {e}")
        return 4
    prog.phase("done", exit=code)
    print(f"[{rc.scenario}] wrote {len(outputs)} files to {out} "
          f"({wall:.2f}s)")
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="kineticmf",
        description="Interacting-particle and mean-field solver toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a configured scenario")
    runp.add_argument("config", help="path to the INI config file")
    runp.add_argument("--threads", type=int, default=None,
                      help="accepted, no effect (a run starts no threads)")
    runp.add_argument("--progress", action="store_true",
                      help="machine-readable progress on standard error")
    runp.add_argument("--output-dir", default=None,
                      help="override the configured output directory")
    valp = sub.add_parser("validate", help="check a config file and exit")
    valp.add_argument("config", help="path to the INI config file")
    args = ap.parse_args(argv)
    try:
        rc = parse_config(args.config)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}")
        return 2
    if args.command == "validate":
        print(f"config ok: scenario={rc.scenario}")
        return 0
    return run(rc, threads=args.threads, progress=args.progress,
               output_dir=args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
