"""Config-driven command line.

One INI-style file describes a run: model block (kernels, diffusion,
initial law, leaders), grid, control, cost, experiment sweeps, and output
location. `kineticmf run config.ini` executes the configured scenario and
writes CSV outputs plus a JSON manifest that records the fully resolved
configuration; `kineticmf validate config.ini` only checks the file.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence
(for `optimize`, no candidate with a finite cost), 4 I/O failure.
A pair sum of at least 2^20 pairs runs on every core the process may run
on (see kineticmf.drift.pair_mean); a run starts no other threads.
`--threads` is accepted and has no effect: it changes neither that nor any
output. Identical configs produce byte-identical CSVs; manifests differ
only in their single timestamp line.
"""

import argparse
import configparser
import csv
import difflib
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .control_opt import (LAGRANGIAN_NAMES, PSI_NAMES, default_features,
                          evaluate_cost_meanfield, make_cost, optimize,
                          sv_control, sv_zero, validate_control,
                          zero_control)
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
# Arity does not depend on d; d = 1 only lets every kernel construct.
_POSITION_KERNELS = tuple(n for n in KERNEL_NAMES
                          if kernel(n, d=1).arity == "position")
_KERNEL_CHOICES = KERNEL_NAMES + ("none",)


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
        if any(np.any(a < 0) for a in (self.std, self.box, self.std2)
               if a is not None):
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
        need = f"1 or {d} components" if d > 1 else "1 component"
        raise ValueError(f"{label} needs {need}, got {arr.size}")
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


def _parse_floats(raw):
    return tuple(float(p) for p in str(raw).split(",") if p.strip())


def _parse_ints(raw):
    return tuple(int(p) for p in str(raw).split(",") if p.strip())


def _key(section, key, conv, default, desc, rule=None):
    """A RunConfig field read from `[section] key`. conv parses the raw
    string; the default is a string, so the resolved config in the manifest
    is uniform (None: the key is required); desc names the value in
    messages. A rule is a bound from _BOUNDS, which the value (every
    element of a list) must meet, or the tuple of allowed names; None checks
    nothing. Every float value (every element of a float list) must also be
    finite, and a float list is broadcast to a d-vector."""
    return field(metadata={"key": (section, key),
                           "row": (conv, default, desc, rule)})


@dataclass(frozen=True)
class RunConfig:
    """A parsed config: one field per config key, declared with its row,
    then the initial law built from the [model] initial_* keys."""

    scenario: str = _key("run", "scenario", str, None, "scenario to run",
                         SCENARIOS)
    seed: int = _key("run", "seed", int, "0", "base seed", ">= 0")
    d: int = _key("model", "d", int, "1", "state dimension", ">= 1")
    sigma: float = _key("model", "sigma", float, "0.1", "diffusion strength",
                        ">= 0")
    n_particles: int = _key("model", "n_particles", int, "64",
                            "follower count", ">= 1")
    n_leaders: int = _key("model", "n_leaders", int, "0", "leader count",
                          ">= 0")
    k11: str = _key("model", "k11", str, "none", "follower-follower kernel",
                    _KERNEL_CHOICES)
    k12: str = _key("model", "k12", str, "none", "leader-to-follower kernel",
                    _KERNEL_CHOICES)
    k21: str = _key("model", "k21", str, "none", "follower-to-leader kernel",
                    _KERNEL_CHOICES)
    k22: str = _key("model", "k22", str, "none", "leader-leader kernel",
                    _KERNEL_CHOICES)
    constant_value: float = _key("model", "constant_value", float, "1.0",
                                 "value for 'constant' kernels")
    leader_x: np.ndarray = _key("model", "leader_x", _parse_floats, "1.0",
                                "initial leader position(s)")
    initial_kind: str = _key("model", "initial", str, "gaussian",
                             "initial law", INITIAL_KINDS)
    initial_x: np.ndarray = _key("model", "initial_x", _parse_floats, "0.0",
                                 "initial mean position")
    initial_v: np.ndarray = _key("model", "initial_v", _parse_floats, "0.0",
                                 "initial mean velocity")
    initial_std: np.ndarray = _key("model", "initial_std", _parse_floats,
                                   "1.0", "gaussian std", ">= 0")
    initial_box: np.ndarray = _key("model", "initial_box", _parse_floats,
                                   "1.0", "uniform half-width", ">= 0")
    mix_weight: float = _key("model", "mix_weight", float, "0.5",
                             "first mixture weight", "in [0, 1]")
    initial_x2: np.ndarray = _key("model", "initial_x2", _parse_floats, "0.0",
                                  "second component mean position")
    initial_v2: np.ndarray = _key("model", "initial_v2", _parse_floats, "0.0",
                                  "second component mean velocity")
    initial_std2: np.ndarray = _key("model", "initial_std2", _parse_floats,
                                    "1.0", "second component std", ">= 0")
    T: float = _key("grid", "t", float, "1.0", "horizon", "> 0")
    n_steps: int = _key("grid", "n_steps", int, "50", "time steps", ">= 1")
    control_class: str = _key("control", "class", str, "zero",
                              "control class", ("zero", "sv"))
    bins: int = _key("control", "bins", int, "8",
                     "piecewise-constant time bins", ">= 1")
    M_h: float = _key("control", "m_h", float, "1.0",
                      "Frobenius budget per bin", "> 0")
    R_c: float = _key("control", "r_c", float, "5.0",
                      "feature clamping radius", "> 0")
    h_file: str = _key("control", "h_file", str, "",
                       "optional CSV of h entries (bin,i,j,value)")
    lagrangian: str = _key("cost", "lagrangian", str, "zero", "running cost",
                           LAGRANGIAN_NAMES)
    lagrangian_value: float = _key("cost", "lagrangian_value", float, "1.0",
                                   "value for the constant lagrangian")
    target: np.ndarray = _key("cost", "target", _parse_floats, "0.0",
                              "target for track_mean_x")
    psi: str = _key("cost", "psi", str, "zero", "control cost", PSI_NAMES)
    psi_weight: float = _key("cost", "psi_weight", float, "1.0",
                             "quadratic control cost weight", ">= 0")
    N_list: tuple = _key("experiment", "n_list", _parse_ints, "8,16,32",
                         "sweep sizes", ">= 1")
    N_ref: int = _key("experiment", "n_ref", int, "0",
                      "chaos reference size (0 = 8x the largest N)", ">= 0")
    seeds: tuple = _key("experiment", "seeds", _parse_ints, "1,2,3,4,5",
                        "per-cell seeds", ">= 0")
    tol: float = _key("experiment", "tol", float, "1e-6", "Picard tolerance",
                      "> 0")
    max_iter: int = _key("experiment", "max_iter", int, "25",
                         "Picard iteration cap", ">= 1")
    budget: int = _key("experiment", "budget", int, "120",
                       "optimizer evaluation budget", ">= 1")
    step0: float = _key("experiment", "step0", float, "0.5",
                        "optimizer initial step", "> 0")
    output_dir: str = _key("io", "output_dir", str, "out", "output directory")
    initial: InitialLaw
    resolved: dict = field(default_factory=dict, compare=False)


# (field name, section, key, row) of every config key, in field order.
_KEYS = tuple((f.name, *f.metadata["key"], f.metadata["row"])
              for f in fields(RunConfig) if f.metadata)


def _schema():
    """section -> key -> (conv, default, desc, rule), in field order."""
    schema = {}
    for _, section, key, row in _KEYS:
        schema.setdefault(section, {})[key] = row
    return schema


_SCHEMA = _schema()
_BOUNDS = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0,
           ">= 1": lambda v: v >= 1, "in [0, 1]": lambda v: 0 <= v <= 1}


def _suggest(name, candidates):
    match = difflib.get_close_matches(name, candidates, n=1)
    return f" (did you mean '{match[0]}'?)" if match else ""


def _reference_size(n_ref, n_list):
    """The chaos reference size: n_ref, or 8x the largest N when it is 0."""
    return n_ref if n_ref else 8 * max(n_list)


def _check_ranges(values, errors):
    """Each key's rule, then finiteness of its float values, then the rules
    that span keys. values holds the parsed value of each field by name."""
    bad = errors.append
    for name, section, key, (conv, _, _, rule) in _KEYS:
        value = values[name]
        if value is None:
            continue
        parts = value if isinstance(value, tuple) else (value,)
        if isinstance(rule, tuple):
            if value not in rule:
                bad(f"[{section}] unknown {key} '{value}'"
                    + _suggest(value, rule))
        elif rule is not None and not all(map(_BOUNDS[rule], parts)):
            bad(f"[{section}] {key} must be {rule}")
        elif conv in (float, _parse_floats) and not np.isfinite(value).all():
            bad(f"[{section}] {key} must be finite")

    scenario = values["scenario"]
    if scenario is None:
        bad("[run] scenario is required, one of " + ", ".join(SCENARIOS))
    for slot in ("k21", "k22"):
        name = values[slot]
        if name in KERNEL_NAMES and name not in _POSITION_KERNELS:
            bad(f"[model] {slot} must be a position kernel, one of "
                + ", ".join(_POSITION_KERNELS))
    n_list, seeds = values["N_list"], values["seeds"]
    if not n_list:
        bad("[experiment] n_list must not be empty")
    if len(set(n_list)) < len(n_list):
        bad("[experiment] n_list must not repeat a size")
    if not seeds:
        bad("[experiment] seeds must not be empty")
    if len(set(seeds)) < len(seeds):
        bad("[experiment] seeds must not repeat a seed")

    # What a scenario would refuse at run time is refused here.
    n_ref = values["N_ref"]
    no_leaders = values["n_leaders"] == 0
    if scenario == "chaos" and min(n_list, default=0) >= 1 and n_ref >= 0:
        try:
            check_reference_size(_reference_size(n_ref, n_list), max(n_list))
        except ValueError as e:
            bad(f"[experiment] {e}")
    if no_leaders and scenario == "optimize":
        bad("[model] optimize scenario needs n_leaders >= 1")
    builds_sv = values["control_class"] == "sv" \
        and scenario in ("simulate", "coupled", "gamma", "validate")
    if no_leaders and builds_sv:
        bad("[control] control class sv needs n_leaders >= 1")
    m, d, bins = values["n_leaders"], values["d"], values["bins"]
    h_file = values["h_file"]
    if (builds_sv or scenario == "optimize") and h_file \
            and min(m, d, bins) >= 1:
        try:
            _load_h(h_file, bins, m * d, default_features(d).ell)
        except ValueError as e:
            bad(f"[control] {e}")
        except OSError:
            pass  # an unreadable file stays an I/O failure of the run


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
    resolved = {section: {} for section in _SCHEMA}
    for name, section, key, (conv, default, desc, rule) in _KEYS:
        raw = parser.get(section, key, fallback=default) \
            if parser.has_section(section) else default
        if raw is None:
            values[name] = None
            resolved[section][key] = ""
            continue
        try:
            values[name] = conv(raw)
            resolved[section][key] = str(raw)
        except (TypeError, ValueError):
            hint = f"{desc}, {rule}" if isinstance(rule, str) else desc
            errors.append(f"[{section}] {key}: cannot parse '{raw}' "
                          f"({hint})")
            values[name] = conv(default) if default is not None else None
            resolved[section][key] = str(default)
    _check_ranges(values, errors)

    # Float lists become d-vectors once every key has passed its rule.
    d = values["d"]
    for name, section, key, (conv, *_) in () if errors else _KEYS:
        if conv is _parse_floats:
            try:
                values[name] = _broadcast(values[name], d,
                                          f"[{section}] {key}")
            except ValueError as e:
                errors.append(str(e))
    if errors:
        raise ConfigError(errors)
    initial = InitialLaw(
        kind=values["initial_kind"], d=d, mean_x=values["initial_x"],
        mean_v=values["initial_v"], std=values["initial_std"],
        box=values["initial_box"], mix_weight=values["mix_weight"],
        mean_x2=values["initial_x2"], mean_v2=values["initial_v2"],
        std2=values["initial_std2"])
    return RunConfig(**values, initial=initial, resolved=resolved)


def _build_model(rc):
    names = {"K11": rc.k11, "K12": rc.k12, "K21": rc.k21, "K22": rc.k22}
    kernels = {slot: None if name == "none"
               else kernel(name, d=rc.d, params={"value": rc.constant_value})
               for slot, name in names.items()}
    m = rc.n_leaders
    if m == 0:
        Y0 = LeaderState.empty(rc.d)
    else:
        Y = np.tile(rc.leader_x, (m, 1))
        Y0 = LeaderState(Y, np.zeros_like(Y))
    return LeaderFollowerModel(
        kernels=kernels, Y0=Y0,
        sampler=lambda N, seed: initial_law_sampler(rc.initial, N, seed),
        d=rc.d, p=2.0, name=f"cli[{','.join(names.values())}]")


def _load_h(path, K, md, ell):
    h = np.zeros((K, md, ell))
    seen = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["bin", "i", "j", "value"]:
            raise ValueError(f"h file '{path}' must start with header "
                             "bin,i,j,value")
        for lineno, row in enumerate(reader, start=2):
            try:
                b, i, j = int(row[0]), int(row[1]), int(row[2])
                val = float(row[3])
            except (ValueError, IndexError) as e:
                raise ValueError(f"h file '{path}' line {lineno}: {e}") from e
            if not (0 <= b < K and 0 <= i < md and 0 <= j < ell):
                raise ValueError(f"h file '{path}' line {lineno}: index "
                                 f"({b},{i},{j}) outside ({K},{md},{ell})")
            if not np.isfinite(val):
                raise ValueError(f"h file '{path}' line {lineno}: value "
                                 "must be finite")
            if (b, i, j) in seen:
                raise ValueError(f"h file '{path}' line {lineno}: index "
                                 f"({b},{i},{j}) repeats line "
                                 f"{seen[b, i, j]}")
            seen[b, i, j] = lineno
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


def _sv_control(rc):
    """The sv control with h read from [control] h_file, else all zero."""
    m, d = rc.n_leaders, rc.d
    features = default_features(d, R_c=rc.R_c)
    if not rc.h_file:
        return sv_zero(m, d, rc.T, K=rc.bins, M_h=rc.M_h, features=features)
    h = _load_h(rc.h_file, rc.bins, m * d, features.ell)
    return sv_control(h, rc.T, rc.M_h, m, d, features=features)


def _build_control(rc):
    if rc.control_class == "zero":
        return zero_control(rc.n_leaders, rc.d)
    return _sv_control(rc)


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
    outputs = ["flow.csv"]
    if model.m > 0:
        write_leader_csv(sol.leaders, out / "leaders.csv")
        outputs.append("leaders.csv")
    (out / "picard_report.txt").write_text(_picard_report_text(sol.picard))
    outputs.append("picard_report.txt")
    print(f"[coupled] iterations={sol.picard.iterations} "
          f"converged={sol.picard.converged} -> {', '.join(outputs[:-1])}")
    return (0 if sol.picard.converged else 3), outputs


def _scenario_optimize(rc, model, cfg, out, progress):
    cost = _build_cost(rc)
    u0 = _sv_control(rc)
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
    best_cost = history[-1][2]
    print(f"[optimize] evaluations={len(history)} "
          f"best_cost={best_cost:.6g} -> history.csv, control_h.csv")
    # Every candidate failed when no cost is finite.
    return (0 if np.isfinite(best_cost) else 3), outputs


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
    accepted and has no effect: pair sums of at least 2^20 pairs use every
    core the process may run on whatever its value, and no output depends
    on it."""
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
                      help="accepted, no effect: pair sums of at least "
                      "2^20 pairs use every core whatever its value, and "
                      "no output depends on it")
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
