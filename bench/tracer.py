"""Outside-in tracer for kineticmf.

Modules import each other's functions by name, so a function is patched by
rebinding it in every ``kineticmf.*`` namespace that holds it, not only in
the module that defines it. Methods are patched on their class. Nothing in
the package is edited; ``Tracer.restore`` undoes every rebinding.

Each call into a traced function records a span (id, parent id, name,
start, end). Every thread keeps its own span stack, because the ``chaos``
scenario runs its cells on a thread pool; a pool cell takes as parent the
span that was open on the submitting thread. A span's self time is its
duration minus the union of its children's intervals. Counters (LSAP
solves, RNG streams, kernel pairs, bytes) are kept per thread and summed at
the end, so no counter update is lost between threads.
"""

import functools
import itertools
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end); 0 = no parent
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters = []
        self._maxima = []
        self._patches = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], Counter(), {})
            with self._lock:
                self._counters.append(state[1])
                self._maxima.append(state[2])
        return state

    def add(self, key, value=1):
        self._state()[1][key] += value

    def peak(self, key, value):
        maxima = self._state()[2]
        maxima[key] = max(maxima.get(key, 0), value)

    def counters(self):
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def maxima(self):
        out = {}
        for m in self._maxima:
            for key, value in m.items():
                out[key] = max(out.get(key, 0), value)
        return out

    def current(self):
        stack = self._state()[0]
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, parent=0):
        """Run fn inside a span; parent applies only when this thread has
        no open span (a pool worker running a cell)."""
        stack = self._state()[0]
        sid = next(self._ids)
        par = stack[-1] if stack else parent
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.add(name + ".raised")
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, par, name, start, end))

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def count_calls(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def rebind(self, original, replacement):
        """Replace original in every loaded kineticmf namespace holding it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kineticmf"
                                   or mod_name.startswith("kineticmf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer):
    """Patch the public entry points of every kineticmf layer and return
    their names. A target that is missing raises AttributeError: a layer
    that silently went untraced would read 0 and look off the path."""
    from kineticmf import (cli, control_opt, drift, experiments, meanfield,
                           pdeode, phase_space, sde, wasserstein)

    installed = []

    def fn_target(module, attr, name, after=None):
        original = getattr(module, attr)
        tracer.rebind(original, tracer.wrap(name, original, after))
        installed.append(f"{module.__name__}.{attr}")

    def method_target(cls, attr, name, after=None):
        if attr not in cls.__dict__:
            raise AttributeError(f"{cls.__name__} defines no {attr}")
        tracer.patch(cls, attr, tracer.wrap(name, getattr(cls, attr), after))
        installed.append(f"{cls.__module__}.{cls.__name__}.{attr}")

    # cli
    fn_target(cli, "initial_law_sampler", "cli.initial_law")

    # phase_space
    def csv_bytes(t, args, kwargs, result):
        t.add("phase_space.csv.bytes", os.path.getsize(_arg(args, kwargs, 1,
                                                            "path")))

    method_target(phase_space.LeaderState, "__init__",
                  "phase_space.leader_state")
    method_target(phase_space.ParticleEnsemble, "__init__",
                  "phase_space.ensemble")
    fn_target(phase_space, "write_flow_csv", "phase_space.csv", csv_bytes)
    fn_target(phase_space, "write_leader_csv", "phase_space.csv", csv_bytes)

    # wasserstein
    def cost_matrix(t, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        t.add("wasserstein.cost_matrix_bytes", 8 * a.N * b.N)

    fn_target(wasserstein, "wasserstein_exact", "wasserstein.exact",
              cost_matrix)
    fn_target(wasserstein, "wasserstein_paired_bound", "wasserstein.paired")
    lsap = wasserstein.linear_sum_assignment
    tracer.rebind(lsap, tracer.count_calls("wasserstein.lsap.count", lsap))
    installed.append("kineticmf.wasserstein.linear_sum_assignment")

    # drift
    def kernel_input(t, args, kwargs, result):
        dx = _arg(args, kwargs, 1, "dx")
        dv = kwargs.get("dv", args[2] if len(args) > 2 else None)
        shape = getattr(dx, "shape", ())
        t.add("drift.kernel.pairs", math.prod(shape[:-1]) if shape else 1)
        size = int(getattr(dx, "size", 1)) \
            + (int(getattr(dv, "size", 1)) if dv is not None else 0)
        t.peak("drift.kernel.max_input_bytes", 8 * size)

    method_target(drift.InteractionKernel, "__call__", "drift.kernel",
                  kernel_input)
    method_target(drift.DriftField, "eval_batch", "drift.field_batch")
    method_target(drift.LeaderCouplingField, "eval_batch", "drift.field_batch")

    # sde
    def steps(index):
        def after(t, args, kwargs, result):
            cfg = _arg(args, kwargs, index, "cfg")
            t.add("sde.particle_steps", cfg.N * cfg.n_steps)
        return after

    sim = sde.simulate_interacting
    inner = tracer.wrap("sde.simulate_interacting", sim, steps(4))

    @functools.wraps(sim)
    def simulate_interacting(*args, **kwargs):
        # Allocation peak is taken only where no other thread can allocate
        # meanwhile: on the main thread, outside any pool.
        measure = (threading.current_thread() is threading.main_thread()
                   and not tracemalloc.is_tracing())
        if not measure:
            return inner(*args, **kwargs)
        tracemalloc.start()
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.peak("sde.simulate_interacting.peak_alloc_bytes",
                        tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    tracer.rebind(sim, simulate_interacting)
    installed.append("kineticmf.sde.simulate_interacting")
    fn_target(sde, "simulate_frozen", "sde.simulate_frozen", steps(2))
    fn_target(sde, "generate_brownian", "sde.brownian")
    rng = sde.path_rng
    tracer.rebind(rng, tracer.count_calls("sde.rng_streams.count", rng))
    installed.append("kineticmf.sde.path_rng")

    # meanfield
    def iterations(t, args, kwargs, result):
        t.add("meanfield.picard.iterations", result.iterations)

    fn_target(meanfield, "picard_solve", "meanfield.picard", iterations)
    fn_target(meanfield, "flow_gap", "meanfield.flow_gap")

    # pdeode
    fn_target(pdeode, "solve_leader_ode", "pdeode.leader_ode")
    fn_target(pdeode, "solve_coupled", "pdeode.solve_coupled")

    # control_opt: a candidate fails when its cost raises or is not finite;
    # evaluate_cost_N returns (mean, stderr)
    def cost_result(t, args, kwargs, result):
        value = result[0] if isinstance(result, tuple) else result
        if not math.isfinite(float(value)):
            t.add("control_opt.cost_eval.nonfinite")

    fn_target(control_opt, "evaluate_cost_meanfield", "control_opt.cost_eval",
              cost_result)
    fn_target(control_opt, "evaluate_cost_N", "control_opt.cost_eval",
              cost_result)

    # experiments: cells are closures, so wrap them where they are mapped
    map_cells = experiments._map_cells

    @functools.wraps(map_cells)
    def traced_map_cells(fn, cells, threads):
        parent = tracer.current()

        def cell(c):
            return tracer.call("experiments.cell", fn, (c,), {}, parent)

        return map_cells(cell, cells, threads)

    tracer.rebind(map_cells, traced_map_cells)
    installed.append("kineticmf.experiments._map_cells")
    return installed


def _covered(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def tail(durations):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest sample, i.e. percentile 100 (1 - 10/n). Below 20 samples
    that percentile would sit under the median, so the median is given."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    if len(ordered) < 20:
        return statistics.median(ordered)
    return ordered[-11]


def summarize(tracer):
    """Per-layer metrics from the recorded spans and counters."""
    children = defaultdict(list)
    for sid, par, name, start, end in tracer.spans:
        children[par].append((start, end))
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    count = Counter()
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    durations = defaultdict(list)
    exact_in_gap = 0
    for sid, par, name, start, end in tracer.spans:
        count[name] += 1
        incl_s[name] += end - start
        self_s[name] += (end - start) - _covered(children.get(sid, ()),
                                                 start, end)
        durations[name].append(end - start)
        if name == "wasserstein.exact" \
                and names.get(par) == "meanfield.flow_gap":
            exact_in_gap += 1
    c = tracer.counters()
    mx = tracer.maxima()

    def ratio(num, den):
        return num / den if den else 0.0

    ms = 1e3
    sims = incl_s["sde.simulate_interacting"] + incl_s["sde.simulate_frozen"]
    return {
        "phase_space.leader_state.count": count["phase_space.leader_state"],
        "phase_space.leader_state.self_s": self_s["phase_space.leader_state"],
        "phase_space.ensemble.count": count["phase_space.ensemble"],
        "phase_space.csv.self_s": self_s["phase_space.csv"],
        "phase_space.csv.bytes": c["phase_space.csv.bytes"],
        "wasserstein.exact.count": count["wasserstein.exact"],
        "wasserstein.exact.self_s": self_s["wasserstein.exact"],
        "wasserstein.exact.p50_ms":
            ms * statistics.median(durations["wasserstein.exact"] or [0.0]),
        "wasserstein.exact.ptail_ms": ms * tail(durations["wasserstein.exact"]),
        "wasserstein.lsap.count": c["wasserstein.lsap.count"],
        "wasserstein.lsap_per_exact": ratio(c["wasserstein.lsap.count"],
                                            count["wasserstein.exact"]),
        "wasserstein.cost_matrix_bytes": c["wasserstein.cost_matrix_bytes"],
        "wasserstein.paired.count": count["wasserstein.paired"],
        "wasserstein.paired.self_s": self_s["wasserstein.paired"],
        "drift.kernel.count": count["drift.kernel"],
        "drift.kernel.pairs": c["drift.kernel.pairs"],
        "drift.kernel.self_s": self_s["drift.kernel"],
        "drift.kernel.max_input_bytes":
            mx.get("drift.kernel.max_input_bytes", 0),
        "drift.field_batch.count": count["drift.field_batch"],
        "drift.field_batch.self_s": self_s["drift.field_batch"],
        "sde.simulate_interacting.self_s": self_s["sde.simulate_interacting"],
        "sde.simulate_interacting.peak_alloc_mib":
            mx.get("sde.simulate_interacting.peak_alloc_bytes", 0) / MIB,
        "sde.simulate_frozen.count": count["sde.simulate_frozen"],
        "sde.simulate_frozen.self_s": self_s["sde.simulate_frozen"],
        "sde.particle_steps": c["sde.particle_steps"],
        "sde.particle_steps_per_s": ratio(c["sde.particle_steps"], sims),
        "sde.brownian.self_s": self_s["sde.brownian"],
        "sde.rng_streams.count": c["sde.rng_streams.count"],
        "meanfield.picard.count": count["meanfield.picard"],
        "meanfield.picard.iterations": c["meanfield.picard.iterations"],
        "meanfield.picard.ms_per_iterate":
            ms * ratio(incl_s["meanfield.picard"],
                       c["meanfield.picard.iterations"]),
        "meanfield.flow_gap.count": count["meanfield.flow_gap"],
        "meanfield.flow_gap.self_s": self_s["meanfield.flow_gap"],
        "meanfield.exact_per_gap": ratio(exact_in_gap,
                                         count["meanfield.flow_gap"]),
        "pdeode.leader_ode.count": count["pdeode.leader_ode"],
        "pdeode.leader_ode.self_s": self_s["pdeode.leader_ode"],
        "pdeode.leader_ode_per_iterate":
            ratio(count["pdeode.leader_ode"], c["meanfield.picard.iterations"]),
        "pdeode.solve_coupled.count": count["pdeode.solve_coupled"],
        "control_opt.cost_eval.count": count["control_opt.cost_eval"],
        "control_opt.cost_eval.p50_ms":
            ms * statistics.median(durations["control_opt.cost_eval"] or [0.0]),
        "control_opt.cost_eval.ptail_ms":
            ms * tail(durations["control_opt.cost_eval"]),
        "control_opt.cost_eval.self_s": self_s["control_opt.cost_eval"],
        "control_opt.failed_candidates":
            c["control_opt.cost_eval.raised"]
            + c["control_opt.cost_eval.nonfinite"],
        "experiments.cells.count": count["experiments.cell"],
        "experiments.cell.p50_ms":
            ms * statistics.median(durations["experiments.cell"] or [0.0]),
        "cli.initial_law.self_s": self_s["cli.initial_law"],
    }
