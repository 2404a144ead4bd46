"""Seeded Brownian increments and Euler-Maruyama integration of the
degenerate kinetic system.

The velocity carries all the noise; positions are pure transport. The
stepper uses the semi-implicit kinetic rule (x advanced with the already
updated velocity), which reproduces ballistic trajectories exactly when
sigma = 0 and the drift vanishes, and which the hand recurrences in the
tests assume.

Both simulators run one stepping loop. A finite-N step is the mean-field
fields (drift.kernel_fields) evaluated on the running empirical flow, so
the particle system and the mean-field solver share one engine.

Randomness is counter-based per path: path i draws from a Philox stream
keyed by (seed, stream tag, i). Results are therefore independent of the
thread count and prefix-stable in N: adding particles never changes the
paths that already existed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .drift import kernel_fields
from .phase_space import LeaderPath, MeasureFlow, time_grid

__all__ = [
    "SimConfig",
    "BrownianPaths",
    "generate_brownian",
    "simulate_frozen",
    "simulate_interacting",
    "DoobCheck",
    "doob_bound",
    "doob_check",
    "path_rng",
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
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.sigma < 0:
            # sqrt(2 sigma) in the velocity equation leaves no room for
            # negative diffusion.
            raise ValueError("sigma must be >= 0")
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")

    @property
    def dt(self):
        return self.T / self.n_steps

    def grid(self):
        return time_grid(self.T, self.n_steps)


@dataclass(frozen=True)
class BrownianPaths:
    """Increment array (n_steps, n_paths, d), already scaled by sqrt(dt)."""

    increments: np.ndarray
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments)
        if inc.ndim != 3:
            raise ValueError("increments must have shape (n_steps, n_paths, d)")
        inc.flags.writeable = False

    @property
    def n_steps(self):
        return self.increments.shape[0]

    @property
    def n_paths(self):
        return self.increments.shape[1]

    @property
    def d(self):
        return self.increments.shape[2]

    def cumulative(self):
        """B(t_k) per path: zeros at k = 0, then summed increments."""
        n, N, d = self.increments.shape
        out = np.zeros((n + 1, N, d))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def generate_brownian(cfg):
    """Brownian increments for cfg: path i is drawn from its own keyed
    stream, so the array is reproducible bit for bit and extending N keeps
    the existing paths unchanged."""
    scale = math.sqrt(cfg.dt)
    inc = np.empty((cfg.n_steps, cfg.N, cfg.d))
    for i in range(cfg.N):
        rng = path_rng(cfg.seed, STREAM_BROWNIAN, i)
        inc[:, i, :] = rng.standard_normal((cfg.n_steps, cfg.d))
    inc *= scale
    return BrownianPaths(increments=inc, seed=cfg.seed)


def _euler_maruyama(init, cfg, paths, drift, Y=None):
    """The one kinetic Euler-Maruyama loop: v' = v + f dt + sqrt(2 sigma) dB,
    x' = x + v' dt, written node by node into the (n_steps + 1, N, d)
    arrays of the returned flow. f = drift(k, prefix) is an (N, d) array;
    prefix is the flow on the nodes <= k, locked views of those arrays,
    whose last node is the current state. Y, when given, is the
    (n_steps + 1, m, d) leader history that drift fills one node ahead;
    Y[k + 1] joins the state check of step k."""
    if init.N != cfg.N or init.d != cfg.d:
        raise ValueError("initial ensemble does not match the configuration")
    if paths.n_steps != cfg.n_steps or paths.n_paths < cfg.N or paths.d != cfg.d:
        raise ValueError("Brownian paths are not shaped for this configuration")
    dt = cfg.dt
    noise = math.sqrt(2.0 * cfg.sigma)
    times = cfg.grid()
    X = np.empty((cfg.n_steps + 1, cfg.N, cfg.d))
    V = np.empty_like(X)
    X[0], V[0] = init.X, init.V
    for k in range(cfg.n_steps):
        f = drift(k, MeasureFlow._of(times[: k + 1], X[: k + 1], V[: k + 1]))
        if not np.all(np.isfinite(f)):
            i = int(np.argwhere(~np.isfinite(f))[0][0])
            raise FloatingPointError(
                f"non-finite drift at step {k} (t={times[k]}), particle {i}")
        # (v + f dt) + sqrt(2 sigma) dB, in that order: the bits depend on it.
        np.add(V[k] + f * dt, noise * paths.increments[k, : cfg.N], out=V[k + 1])
        np.add(X[k], V[k + 1] * dt, out=X[k + 1])
        if not (np.all(np.isfinite(X[k + 1])) and np.all(np.isfinite(V[k + 1]))
                and (Y is None or np.all(np.isfinite(Y[k + 1])))):
            raise FloatingPointError(f"non-finite state at step {k + 1}")
    return MeasureFlow._of(times, X, V)


def simulate_frozen(F, init, cfg, paths):
    """Euler-Maruyama for dX = V dt, dV = F(t, X, V) dt + sqrt(2 sigma) dB.

    F takes (t, X, V) with (N, d) arrays and returns something broadcastable
    to (N, d). Scheme per step: v' = v + F dt + sqrt(2 sigma) dB, then
    x' = x + v' dt. Velocity marginals are scheme-exact Gaussians when F
    has no state dependence.
    """
    times = cfg.grid()

    def drift(k, prefix):
        X, V = prefix.X[k], prefix.V[k]
        return np.broadcast_to(np.asarray(F(times[k], X, V), dtype=float),
                               X.shape)

    return _euler_maruyama(init, cfg, paths, drift)


def simulate_interacting(kernels, u, init_followers, init_leaders, cfg, paths):
    """Finite-N leader-follower system: a step is the mean-field fields
    (v, w, F) = drift.kernel_fields(kernels, m) on the running empirical
    flow mu^N (the follower snapshots so far) and leader path H^N.

    Leaders: Y' = Y + (F[t_k, mu^N](Y) + u(t_k, mu^N)) dt, the right-hand
    side LeaderField.rhs that solve_leader_ode uses too; W stores it at
    every node, including t = 0 and t = T. Followers feel
    v[t_k, mu^N] + w[t_k, H^N]: the K11 average over all followers (self
    term included; every library kernel vanishes at 0) plus the K12
    average over the leaders at this node. The leader step is cfg.dt,
    while solve_leader_ode steps by times[k + 1] - times[k]; the two
    differ in the last bit (on 23 of 25 steps at T = 2 with 25 steps), so
    each level keeps its own step and its outputs.

    The running flow and leader path a step reads are locked views of the
    arrays the simulation fills, so a step copies and re-checks no earlier
    node. A non-finite state or final leader right-hand side raises
    FloatingPointError.

    kernels maps K11, K12, K21, K22 to kernels (an absent or None slot
    contributes nothing); u is a callable (t, flow prefix) -> (m, d) or
    None. Returns (follower MeasureFlow, LeaderPath).
    """
    m = init_leaders.m
    v, w, F = kernel_fields(kernels, m)
    u = u if m > 0 else None
    times = cfg.grid()
    Y = np.empty((cfg.n_steps + 1, m, cfg.d))
    W = np.empty_like(Y)
    Y[0] = init_leaders.Y

    def drift(k, prefix):
        W[k] = F.rhs(times[k], prefix, Y[k], u)
        Y[k + 1] = Y[k] + W[k] * cfg.dt
        X, V = prefix.X[k], prefix.V[k]
        f = v.eval_batch(times[k], prefix, X, V)
        if w is None:
            return f
        path = LeaderPath._of(times[: k + 1], Y[: k + 1], W[: k + 1])
        return f + w.eval_batch(times[k], path, X, V)

    flow = _euler_maruyama(init_followers, cfg, paths, drift, Y)
    W[-1] = F.rhs(times[-1], flow, Y[-1], u)
    if not np.all(np.isfinite(W[-1])):
        raise FloatingPointError(
            f"non-finite leader right-hand side at t={times[-1]}")
    return flow, LeaderPath._of(times, Y, W)


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
    B = generate_brownian(cfg).cumulative()[:, :, 0]
    sup_p = np.max(np.abs(B), axis=0) ** p
    est = float(np.mean(sup_p))
    return DoobCheck(estimate=est, bound=bound, passed=est <= bound, p=p, T=T,
                     n_paths=n_paths, n_steps=n_steps, seed=seed)
