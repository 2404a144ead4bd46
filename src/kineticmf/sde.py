"""Seeded Brownian increments and Euler-Maruyama integration of the
degenerate kinetic system.

The velocity carries all the noise; positions are pure transport. The
stepper uses the semi-implicit kinetic rule (x advanced with the already
updated velocity), which reproduces ballistic trajectories exactly when
sigma = 0 and the drift vanishes, and which the hand recurrences in the
tests assume.

Randomness is counter-based per path: path i draws from a Philox stream
keyed by (seed, stream tag, i). Results are therefore independent of the
thread count and prefix-stable in N: adding particles never changes the
paths that already existed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .drift import pair_mean
from .phase_space import LeaderPath, MeasureFlow, ParticleEnsemble, time_grid

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
    generator: str = "philox-counter-per-path"

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


def _check_paths(cfg, paths):
    if paths.n_steps != cfg.n_steps or paths.n_paths < cfg.N or paths.d != cfg.d:
        raise ValueError("Brownian paths are not shaped for this configuration")


def _first_bad(arr):
    bad = np.argwhere(~np.isfinite(arr))
    return int(bad[0][0]) if bad.size else -1


def simulate_frozen(F, init, cfg, paths):
    """Euler-Maruyama for dX = V dt, dV = F(t, X, V) dt + sqrt(2 sigma) dB.

    F takes (t, X, V) with (N, d) arrays and returns something broadcastable
    to (N, d). Scheme per step: v' = v + F dt + sqrt(2 sigma) dB, then
    x' = x + v' dt. Velocity marginals are scheme-exact Gaussians when F
    has no state dependence.
    """
    if init.N != cfg.N or init.d != cfg.d:
        raise ValueError("initial ensemble does not match the configuration")
    _check_paths(cfg, paths)
    dt = cfg.dt
    noise = math.sqrt(2.0 * cfg.sigma)
    times = cfg.grid()
    X = init.X.copy()
    V = init.V.copy()
    snapshots = [init]
    for k in range(cfg.n_steps):
        drift = np.broadcast_to(np.asarray(F(times[k], X, V), dtype=float),
                                X.shape)
        if not np.all(np.isfinite(drift)):
            i = _first_bad(drift)
            raise FloatingPointError(
                f"non-finite drift at step {k} (t={times[k]}), particle {i}")
        V = V + drift * dt + noise * paths.increments[k, : cfg.N]
        X = X + V * dt
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
            raise FloatingPointError(f"non-finite state at step {k + 1}")
        snapshots.append(ParticleEnsemble(X, V))
    return MeasureFlow(times, snapshots)


def simulate_interacting(kernels, u, init_followers, init_leaders, cfg, paths):
    """Finite-N leader-follower system.

    Followers feel the empirical mean-field sum of K11 over all followers
    (self term included; every library kernel vanishes at 0) plus the K12
    average over leaders. Leaders follow the first-order ODE whose
    right-hand side is the K21 average over followers, the K22 average
    over leaders, and the control u(t, mu^N) evaluated on the running
    empirical flow. All four kernel averages run through drift.pair_mean,
    the same engine the mean-field drift and leader fields use. W stores
    that evaluated right-hand side at every node, including t = 0 and
    t = T.

    kernels is a mapping with keys K11, K12, K21, K22 (None entries mean
    zero); u is a callable (t, flow prefix) -> (m, d) or None.
    Returns (follower MeasureFlow, LeaderPath).
    """
    if init_followers.N != cfg.N or init_followers.d != cfg.d:
        raise ValueError("initial followers do not match the configuration")
    _check_paths(cfg, paths)
    K11 = kernels.get("K11")
    K12 = kernels.get("K12")
    K21 = kernels.get("K21")
    K22 = kernels.get("K22")
    m = init_leaders.m
    d = cfg.d
    dt = cfg.dt
    noise = math.sqrt(2.0 * cfg.sigma)
    times = cfg.grid()

    X = init_followers.X.copy()
    V = init_followers.V.copy()
    Y = init_leaders.Y.copy()
    snapshots = [init_followers]
    Y_hist = np.empty((cfg.n_steps + 1, m, d))
    W_hist = np.empty((cfg.n_steps + 1, m, d))
    Y_hist[0] = Y

    def leader_rhs(k, X, Y):
        rhs = np.zeros((m, d))
        if K21 is not None:
            rhs += pair_mean(K21, Y, X)
        if K22 is not None:
            rhs += pair_mean(K22, Y, Y)
        if u is not None and m > 0:
            prefix = MeasureFlow(times[: k + 1], snapshots[: k + 1])
            rhs += np.asarray(u(times[k], prefix), dtype=float).reshape(m, d)
        return rhs

    for k in range(cfg.n_steps):
        # Leader velocities are defined as the evaluated RHS, so compute
        # them first: the K12 coupling below reads them at this node.
        rhs = leader_rhs(k, X, Y)
        W_hist[k] = rhs
        drift = np.zeros((cfg.N, d))
        if K11 is not None:
            drift += pair_mean(K11, X, X, V, V)
        if K12 is not None:
            drift += pair_mean(K12, X, Y, V, rhs)
        if not np.all(np.isfinite(drift)):
            raise FloatingPointError(
                f"non-finite follower drift at step {k}, particle {_first_bad(drift)}")
        V = V + drift * dt + noise * paths.increments[k, : cfg.N]
        X = X + V * dt
        Y = Y + rhs * dt
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))
                and np.all(np.isfinite(Y))):
            raise FloatingPointError(f"non-finite state at step {k + 1}")
        snapshots.append(ParticleEnsemble(X, V))
        Y_hist[k + 1] = Y
    W_hist[cfg.n_steps] = leader_rhs(cfg.n_steps, X, Y)
    flow = MeasureFlow(times, snapshots)
    return flow, LeaderPath(times, Y_hist, W_hist)


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
