"""Seeded Brownian increments and Euler-Maruyama integration of the
degenerate kinetic system.

The velocity carries all the noise; positions are pure transport. The
stepper uses the semi-implicit kinetic rule (x advanced with the already
updated velocity), which reproduces ballistic trajectories exactly when
sigma = 0 and the drift vanishes, and which the hand recurrences in the
tests assume.

Both simulators run one stepping loop. A finite-N step is the mean-field
fields (drift.kernel_fields) evaluated on the running empirical flow, so
the particle system and the mean-field solver share one engine. One such
sweep is the exact discrete fixed point that Picard iteration reaches.

Randomness is counter-based per path: path i draws from a Philox stream
keyed by (seed, stream tag, i). Results are therefore independent of the
thread count and prefix-stable in N: adding particles never changes the
paths that already existed.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .drift import kernel_fields
from .phase_space import LeaderPath, MeasureFlow, _locked, time_grid

__all__ = [
    "SimConfig",
    "generate_brownian",
    "simulate_frozen",
    "simulate_interacting",
    "DoobCheck",
    "doob_bound",
    "doob_check",
    "path_rng",
    "STREAM_BROWNIAN",
    "STREAM_INITIAL",
    "STREAM_SUBSAMPLE",
    "STREAM_OPTIMIZER",
]

# Stream tags keep independent uses of one user seed from colliding.
STREAM_BROWNIAN = 0xB0
STREAM_INITIAL = 0x1A
STREAM_SUBSAMPLE = 0x5B
STREAM_OPTIMIZER = 0x0F


def path_rng(seed, stream, index):
    """Generator for one (seed, stream, path index) triple."""
    ss = np.random.SeedSequence([int(seed), int(stream), int(index)])
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SimConfig:
    """Simulation plumbing: horizon, step count, population, diffusion."""

    T: float
    n_steps: int
    N: int
    sigma: float
    seed: int
    d: int

    def __post_init__(self):
        self.grid()  # refuses a bad horizon or step count
        if operator.index(self.seed) < 0:  # refuses 2.5, passes numpy ints
            raise ValueError("seed must be >= 0")
        if operator.index(self.N) < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.sigma < math.inf:
            # sqrt(2 sigma) in the velocity equation leaves no room for
            # negative diffusion.
            raise ValueError("sigma must be >= 0 and finite")
        if operator.index(self.d) < 1:
            raise ValueError("dimension d must be >= 1")

    @property
    def dt(self):
        return self.T / self.n_steps

    def grid(self):
        return time_grid(self.T, self.n_steps)


def generate_brownian(cfg):
    """Brownian increments for cfg, one read-only (n_steps, N, d) float
    array already scaled by sqrt(dt): path i is drawn from its own keyed
    stream, so the array is reproducible bit for bit and extending N keeps
    the existing paths unchanged."""
    scale = math.sqrt(cfg.dt)
    inc = np.empty((cfg.n_steps, cfg.N, cfg.d))
    for i in range(cfg.N):
        rng = path_rng(cfg.seed, STREAM_BROWNIAN, i)
        inc[:, i, :] = rng.standard_normal((cfg.n_steps, cfg.d))
    inc *= scale
    inc.flags.writeable = False
    return inc


def _euler_maruyama(init, cfg, paths, drift, resume=None):
    """The one kinetic Euler-Maruyama loop: v' = v + f dt + sqrt(2 sigma) dB,
    x' = x + v' dt, written node by node into the (n_steps + 1, N, d)
    arrays of the returned flow. f = drift(k, X, V) is an (N, d) array;
    X and V are locked views of the arrays being filled, valid on the
    nodes <= k, whose node k is the current state. resume = (flow, a), when
    given, is a flow that this run is known to agree with on the nodes
    0..a: those nodes are copied from it, and stepping starts at node a.

    X and V are the two halves of one array, so one check covers the
    state of a node. f is checked when that check fails: a non-finite f
    always makes V[k + 1] non-finite (dt > 0 and V[k] is finite), so a
    non-finite drift raises at the same step, with the same message, as a
    check of f before the step would."""
    if init.N != cfg.N or init.d != cfg.d:
        raise ValueError("initial ensemble does not match the configuration")
    if (paths.ndim != 3 or paths.shape[0] != cfg.n_steps
            or paths.shape[1] < cfg.N or paths.shape[2] != cfg.d):
        raise ValueError("Brownian paths are not shaped for this configuration")
    dt = cfg.dt
    noise = math.sqrt(2.0 * cfg.sigma)
    times = cfg.grid()
    state = np.empty((2, cfg.n_steps + 1, cfg.N, cfg.d))
    X, V = state
    if resume is None:
        start = 0
        X[0], V[0] = init.X, init.V
    else:
        base, start = resume
        X[: start + 1], V[: start + 1] = base.X[: start + 1], base.V[: start + 1]
    inc = paths[:, : cfg.N]
    X_read, V_read = _locked(X), _locked(V)
    for k in range(start, cfg.n_steps):
        f = drift(k, X_read, V_read)
        # (v + f dt) + sqrt(2 sigma) dB, in that order: the bits depend on it.
        np.add(V[k] + f * dt, noise * inc[k], out=V[k + 1])
        np.add(X[k], V[k + 1] * dt, out=X[k + 1])
        if not np.isfinite(state[:, k + 1]).all():
            if not np.isfinite(f).all():
                i = int(np.argwhere(~np.isfinite(f))[0][0])
                raise FloatingPointError(
                    f"non-finite drift at step {k} (t={times[k]}), particle {i}")
            raise FloatingPointError(f"non-finite state at step {k + 1}")
    return MeasureFlow._of(times, X, V)


def simulate_frozen(F, init, cfg, paths, *, _resume=None):
    """Euler-Maruyama for dX = V dt, dV = F(t, X, V) dt + sqrt(2 sigma) dB.

    F takes (t, X, V) with (N, d) arrays and returns something broadcastable
    to (N, d); an (N, d) float array is used as it is. Scheme per step:
    v' = v + F dt + sqrt(2 sigma) dB, then x' = x + v' dt. Velocity
    marginals are scheme-exact Gaussians when F has no state dependence.

    _resume = (flow, a) is for picard_solve: a flow known to agree with
    this run on the nodes 0..a, whose nodes are copied instead of stepped.
    """
    times = cfg.grid()
    shape = (cfg.N, cfg.d)

    def drift(k, X, V):
        f = F(times[k], X[k], V[k])
        if type(f) is np.ndarray and f.dtype == float and f.shape == shape:
            return f
        return np.broadcast_to(np.asarray(f, dtype=float), shape)

    return _euler_maruyama(init, cfg, paths, drift, resume=_resume)


def simulate_interacting(kernels, u, init_followers, init_leaders, cfg, paths):
    """Finite-N leader-follower system: _sweep_fields over the fields
    drift.kernel_fields(kernels, m) of slots K11, K12, K21 and K22, an
    absent or None slot adding nothing. The K11 average over all followers
    includes the self term (every library kernel vanishes at 0)."""
    return _sweep_fields(*kernel_fields(kernels, init_leaders.m), u,
                         init_followers, init_leaders, cfg, paths)


def _sweep_fields(v, w, F, u, init_followers, init_leaders, cfg, paths):
    """One forward sweep of the fields (v, w, F) along the running empirical
    flow mu^N and leader path H^N, returned as (MeasureFlow, LeaderPath):
    the exact discrete fixed point, which picard_solve and solve_coupled
    reach after at most n_steps + 1 iterates since every drift is
    non-anticipative. Followers feel v[t_k, mu^N] + w[t_k, H^N], a None v
    or w adding nothing. Leaders take solve_leader_ode's step
    (_leader_step) along mu^N, u being (t, flow prefix) -> (m, d) or None.
    No leaders: pass LeaderState.empty(d) and the F of kernel_fields({},
    0). Leaders whose d is not cfg.d raise ValueError; a non-finite state
    raises FloatingPointError."""
    if init_leaders.d != cfg.d:
        raise ValueError(
            f"leaders have d={init_leaders.d}, the followers d={cfg.d}")
    m = init_leaders.m
    u = u if m > 0 else None
    times = cfg.grid()
    Y = np.empty((cfg.n_steps + 1, m, cfg.d))
    W = np.empty_like(Y)
    Y[0] = init_leaders.Y

    def drift(k, X_all, V_all):
        prefix = MeasureFlow._of(times[: k + 1], X_all[: k + 1], V_all[: k + 1])
        _leader_step(F, u, times, prefix, Y, W, k)
        X, V = X_all[k], V_all[k]
        f = None if v is None else v.eval_batch(times[k], prefix, X, V)
        if w is not None:
            path = LeaderPath._of(times[: k + 1], Y[: k + 1], W[: k + 1])
            g = w.eval_batch(times[k], path, X, V)
            f = g if f is None else f + g
        return np.zeros_like(X) if f is None else f

    flow = _euler_maruyama(init_followers, cfg, paths, drift)
    _leader_step(F, u, times, flow, Y, W, cfg.n_steps)
    return flow, LeaderPath._of(times, Y, W)


def _leader_step(F, u, times, flow, Y, W, k):
    """The leaders' explicit Euler step at node k of the grid times, written
    into the (len(times), m, d) arrays Y and W: W[k] = F.rhs(times[k],
    flow, Y[k], u), then, before the last node, Y[k + 1] = Y[k] +
    (times[k + 1] - times[k]) W[k]. flow is read on the nodes <= k only.
    The sweep and solve_leader_ode both step their leaders here.

    A non-finite Y or right-hand side raises FloatingPointError naming the
    time. Y[k + 1] is checked once, and W[k] only when that check fails or
    at the last node: a non-finite W[k] always makes Y[k + 1] non-finite
    (the step is > 0, Y[k] is finite), so it raises at the same time, with
    the same message, as a check of W[k] would. Y[k] needs no check: it is
    Y0, a node copied from a checked path or the node checked one step
    earlier."""
    W[k] = F.rhs(times[k], flow, Y[k], u)
    last = k + 1 == len(times)
    if not last:
        Y[k + 1] = Y[k] + (times[k + 1] - times[k]) * W[k]
    if np.isfinite(W[k] if last else Y[k + 1]).all():
        return
    if not np.isfinite(W[k]).all():
        raise FloatingPointError(
            f"non-finite leader right-hand side at t={times[k]}")
    raise FloatingPointError(f"non-finite leader state at t={times[k + 1]}")


@dataclass(frozen=True)
class DoobCheck:
    estimate: float
    bound: float
    passed: bool
    p: float
    T: float
    n_paths: int
    n_steps: int
    seed: int


def doob_bound(p, T):
    """Maximal-inequality constant (1/sqrt(pi)) (2 p sqrt(T)/(p-1))^p
    Gamma((p+1)/2); equals 8 for p = 2, T = 1."""
    if p <= 1:
        raise ValueError("the maximal inequality needs p > 1")
    return (1.0 / math.sqrt(math.pi)) * (2.0 * p * math.sqrt(T) / (p - 1.0)) ** p \
        * math.gamma((p + 1.0) / 2.0)


def doob_check(p, T, n_paths, n_steps, seed):
    """Monte Carlo E[sup_k |B(t_k)|^p] for scalar Brownian motion against
    the closed-form bound. The discrete sup underestimates the continuous
    one, so the bound must hold a fortiori."""
    bound = doob_bound(p, T)
    cfg = SimConfig(T=T, n_steps=n_steps, N=n_paths, sigma=0.0, seed=seed, d=1)
    # B(t_k) per path: zeros at k = 0, then the summed increments.
    B = np.zeros((n_steps + 1, n_paths))
    np.cumsum(generate_brownian(cfg)[:, :, 0], axis=0, out=B[1:])
    sup_p = np.max(np.abs(B), axis=0) ** p
    est = float(np.mean(sup_p))
    return DoobCheck(estimate=est, bound=bound, passed=est <= bound, p=p, T=T,
                     n_paths=n_paths, n_steps=n_steps, seed=seed)
