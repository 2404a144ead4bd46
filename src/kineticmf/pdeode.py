"""Coupled mean-field followers with controlled leader ODEs.

The followers obey a McKean-Vlasov equation whose drift splits into a
follower-follower part v and a leader coupling w; the leaders solve a
first-order ODE driven by the follower flow and a control. Composing the
two gives one drift field on flows (the leader solve is the inner map),
so the coupled system reduces to the Picard machinery of meanfield.

LeaderFollowerModel packages the kernel quartet, the leader initial state
and the initial-law sampler, so experiments and cost evaluations can be
phrased against one object at both the finite-N and mean-field levels.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drift import DriftField, kernel_fields
from .meanfield import PicardReport, flow_gap, picard_solve
from .phase_space import LeaderPath, LeaderState, MeasureFlow

__all__ = [
    "LeaderFollowerModel",
    "CoupledSolution",
    "solve_leader_ode",
    "combined_drift",
    "solve_coupled",
    "control_stability",
    "leader_flow_sensitivity",
    "discrete_leader_growth",
]

# Leader paths cached per (flow, control) identity inside a combined field;
# a handful of live flows is plenty (one per Picard iterate).
_LEADER_CACHE_SIZE = 4


@dataclass(frozen=True)
class LeaderFollowerModel:
    """Model bundle: interaction kernels (None entries mean zero), leader
    initial state, i.i.d. initial-law sampler (N, seed) -> ParticleEnsemble,
    diffusion strength, and the Wasserstein order its drift is paired with.
    """

    kernels: dict
    Y0: LeaderState
    sampler: Callable
    sigma: float
    d: int
    p: float = 2.0
    name: str = "model"

    def __post_init__(self):
        unknown = set(self.kernels) - {"K11", "K12", "K21", "K22"}
        if unknown:
            raise ValueError(f"unknown kernel slots: {sorted(unknown)}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @property
    def m(self):
        return self.Y0.m

    def initial(self, N, seed):
        ens = self.sampler(N, seed)
        if ens.N != N or ens.d != self.d:
            raise ValueError("sampler returned a mismatched ensemble")
        return ens

    def mean_field_fields(self):
        """(v, w, F): follower self-interaction field, leader coupling field
        (None when the model has no K12), and the leader drive; absent
        kernel slots contribute nothing (drift.kernel_fields)."""
        return kernel_fields(self.kernels, self.m, p=self.p)


def solve_leader_ode(F, u, flow, Y0, grid=None, method="euler"):
    """Integrate the first-order leader equation dY/dt = F[t, mu](Y) + u(t, mu)
    along a given follower flow.

    Explicit Euler by default, with steps times[k + 1] - times[k];
    method="heun" adds one corrector stage. W stores the right-hand side
    F.rhs, shared with the finite-N simulator, at every node, both ends
    included. F reads the current (m, d) positions Y; a non-finite Y or
    right-hand side raises FloatingPointError naming the time.

    Both schemes are causal, so solving on the full grid subsumes every
    prefix solve.
    """
    if method not in ("euler", "heun"):
        raise ValueError("method must be 'euler' or 'heun'")
    times = np.asarray(flow.times if grid is None else grid, dtype=float)
    m, d = Y0.m, flow.d
    M = times.size - 1

    def rhs(t, Y):
        if not np.all(np.isfinite(Y)):
            raise FloatingPointError(f"non-finite leader state at t={t}")
        out = F.rhs(t, flow, Y, u)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"non-finite leader right-hand side at t={t}")
        return out

    Y_hist = np.empty((M + 1, m, d))
    W_hist = np.empty((M + 1, m, d))
    Y = Y0.Y.copy().reshape(m, d)
    Y_hist[0] = Y
    for k in range(M):
        dt = times[k + 1] - times[k]
        slope = rhs(times[k], Y)
        W_hist[k] = slope
        if method == "heun":
            pred = Y + dt * slope
            slope = 0.5 * (slope + rhs(times[k + 1], pred))
        Y = Y + dt * slope
        Y_hist[k + 1] = Y
    W_hist[M] = rhs(times[M], Y)
    return LeaderPath(times, Y_hist, W_hist)


def discrete_leader_growth(Y0, F_sup, M_u, T):
    """A priori Euler bound sup_t |Y(t)| <= |Y0| + T (sup|F| + M_u)."""
    base = float(np.linalg.norm(Y0.Y)) if Y0.m else 0.0
    return base + float(T) * (float(F_sup) + float(M_u))


def combined_drift(v, w, F, u, Y0, T=1.0):
    """Follower drift of the coupled system: G[t, mu](z) = v[t, mu](z) +
    w[t, S[mu, u]](z), where S[mu, u] is the leader path solved along mu.

    The leader solve (explicit Euler) is cached per (flow, control) object
    identity, so one Picard iterate triggers exactly one ODE solve.
    Declared constants: the sublinearity constant follows the composition rule
    K_G = K_v + K_w (1 + K_F)(1 + C1 + K_F + K_u) with the discrete
    a-priori leader bound C1 = (|Y0| + 1 + T (K_F + K_u)) e^{(K_F + 1) T};
    the dissipativity constant adds the leader-map Lipschitz factor
    C2 = T (L_F + L_u) e^{L_F T}.

    With no coupling (w is None) the field v is returned as-is.
    """
    if w is None:
        return v
    cache = []

    def leaders_for(flow):
        for entry in cache:
            if entry[0] is flow:
                return entry[1]
        path = solve_leader_ode(F, u, flow, Y0)
        cache.append((flow, path))
        if len(cache) > _LEADER_CACHE_SIZE:
            cache.pop(0)
        return path

    def batch(t, flow, X, V):
        return v.eval_batch(t, flow, X, V) \
            + w.eval_batch(t, leaders_for(flow), X, V)

    K_u = float(getattr(u, "M_u", 0.0)) if u is not None else 0.0
    L_u = float(getattr(u, "L_u", 0.0)) if u is not None else 0.0
    C1 = (float(np.linalg.norm(Y0.Y)) + 1.0 + T * (F.K_F + K_u)) \
        * math.exp((F.K_F + 1.0) * T)
    C2 = T * (F.L_F + L_u) * math.exp(F.L_F * T)
    K_G = v.K + w.K_w * (1.0 + F.K_F) * (1.0 + C1 + F.K_F + K_u)
    return DriftField(batch=batch, K=K_G, beta=v.beta, alpha=v.alpha,
                      L=v.L + w.L_w, D=v.D + w.L_w * (1.0 + C2), p=v.p,
                      name=f"{v.name}+{w.name}", unbounded=v.unbounded)


@dataclass(frozen=True)
class CoupledSolution:
    """Fixed point of the coupled system: follower flow, leader path on the
    same grid, and the Picard convergence report."""

    flow: MeasureFlow
    leaders: LeaderPath
    picard: PicardReport

    def __post_init__(self):
        if len(self.leaders.times) != len(self.flow.times):
            raise ValueError("flow and leader path must share the grid")


def solve_coupled(v, w, F, u, init_followers, Y0, cfg, tol=1e-6, max_iter=25):
    """Outer Picard loop on the combined drift; the leader path is re-solved
    inside every iterate (via the drift's cache) and once more along the
    final flow for the returned trajectory. Non-convergence is reported in
    the Picard field, not raised."""
    G = combined_drift(v, w, F, u, Y0, T=cfg.T)
    rep = picard_solve(G, init_followers, cfg, tol=tol, max_iter=max_iter)
    leaders = solve_leader_ode(F, u, rep.final_flow, Y0)
    return CoupledSolution(flow=rep.final_flow, leaders=leaders, picard=rep)


def _leader_sup_gap(a, b):
    if a.m == 0:
        return 0.0
    da = np.concatenate([a.Y.reshape(len(a.times), -1),
                         a.W.reshape(len(a.times), -1)], axis=1)
    db = np.concatenate([b.Y.reshape(len(b.times), -1),
                         b.W.reshape(len(b.times), -1)], axis=1)
    return float(np.max(np.linalg.norm(da - db, axis=1)))


def control_stability(u_seq, u, v, w, F, init, Y0, cfg, tol=1e-6, max_iter=25):
    """Per-control gaps sup_t W_p(mu^j_t, mu_t) + sup_t |H^j(t) - H(t)|,
    H = (Y, W), all solves sharing one Brownian realization (the seed lives
    in cfg, and the solver noise is a deterministic function of it).
    Raises naming the offending index if any member fails to converge."""
    ref = solve_coupled(v, w, F, u, init, Y0, cfg, tol=tol, max_iter=max_iter)
    if not ref.picard.converged:
        raise RuntimeError("control stability: reference control (index -1) "
                           "did not converge")
    gaps = []
    for j, uj in enumerate(u_seq):
        sol = solve_coupled(v, w, F, uj, init, Y0, cfg, tol=tol,
                            max_iter=max_iter)
        if not sol.picard.converged:
            raise RuntimeError(f"control stability: control index {j} did not converge")
        gaps.append(flow_gap(sol.flow, ref.flow, v.p)
                    + _leader_sup_gap(sol.leaders, ref.leaders))
    return gaps


def leader_flow_sensitivity(F, u, flow_pairs, Y0, p):
    """Observed Lipschitz quotients of the leader map: for each flow pair,
    sup_t |Y_mu(t) - Y_nu(t)| divided by sup_t W_p(mu_t, nu_t). Pairs with
    zero flow distance are skipped. max() over the returned list is the
    fitted discrete constant."""
    ratios = []
    for mu, nu in flow_pairs:
        den = flow_gap(mu, nu, p)
        if den == 0.0:
            continue
        pa = solve_leader_ode(F, u, mu, Y0)
        pb = solve_leader_ode(F, u, nu, Y0)
        num = float(np.max(np.linalg.norm(
            pa.Y.reshape(len(pa.times), -1) - pb.Y.reshape(len(pb.times), -1),
            axis=1)))
        ratios.append(num / den)
    return ratios
