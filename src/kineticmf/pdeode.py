"""Coupled mean-field followers with controlled leader ODEs.

The followers obey a McKean-Vlasov equation whose drift splits into a
follower-follower part v and a leader coupling w; the leaders solve a
first-order ODE driven by the follower flow and a control. Composing the
two gives one drift field on flows (the leader solve is the inner map),
so the coupled system reduces to the Picard machinery of meanfield;
control_stability takes its fixed points from one sweep instead.

LeaderFollowerModel packages the kernel quartet, the leader initial state
and the initial-law sampler, so experiments and cost evaluations can be
phrased against one object at both the finite-N and mean-field levels.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drift import DriftField, kernel_fields, zero_field
from .meanfield import PicardReport, flow_gap, picard_solve
from .phase_space import LeaderPath, LeaderState, MeasureFlow, _agreeing_nodes
from .sde import _leader_step, _sweep_fields, generate_brownian

__all__ = [
    "LeaderFollowerModel",
    "CoupledSolution",
    "solve_leader_ode",
    "solve_coupled",
    "control_stability",
    "leader_flow_sensitivity",
]


@dataclass(frozen=True)
class LeaderFollowerModel:
    """Model bundle: interaction kernels (None entries mean zero), leader
    start positions, i.i.d. initial-law sampler (N, seed) -> ParticleEnsemble,
    and the Wasserstein order its drift is paired with. The order rides on
    the K11 field, so a model without K11, whose coupled drift is paired
    with p = 2 (solve_coupled), refuses another p. The diffusion
    strength is not part of the model: simulations read SimConfig.sigma.
    """

    kernels: dict
    Y0: LeaderState
    sampler: Callable
    d: int
    p: float = 2.0
    name: str = "model"

    def __post_init__(self):
        unknown = set(self.kernels) - {"K11", "K12", "K21", "K22"}
        if unknown:
            raise ValueError(f"unknown kernel slots: {sorted(unknown)}")
        if self.kernels.get("K11") is None and self.p != zero_field().p:
            raise ValueError("a model without K11 is paired with p = 2")

    @property
    def m(self):
        return self.Y0.m

    def initial(self, N, seed):
        ens = self.sampler(N, seed)
        if ens.N != N or ens.d != self.d:
            raise ValueError("sampler returned a mismatched ensemble")
        return ens

    def mean_field_fields(self):
        """(v, w, F): follower self-interaction field (None when the model
        has no K11), leader coupling field (None when it has no K12), and
        the leader drive; absent kernel slots contribute nothing
        (drift.kernel_fields)."""
        return kernel_fields(self.kernels, self.m, p=self.p)


def solve_leader_ode(F, u, flow, Y0, *, _resume=None):
    """Integrate the first-order leader equation dY/dt = F[t, mu](Y) + u(t, mu)
    along a given follower flow.

    Explicit Euler on the flow's grid, written node by node into the
    arrays of the returned path by the finite-N sweep's leader step
    (sde._leader_step, which also checks each node); W[M] ends the path.

    The scheme is causal: Y at node k + 1 and W at node k read the flow on
    the nodes <= k only. So solving on the full grid subsumes every prefix
    solve, and a solve along a flow that agrees with an earlier one on its
    nodes 0..a - 1 agrees with that solve's path on Y at nodes 0..a and W
    at nodes 0..a - 1. _resume = (path, a) is for _leaders_along: that
    earlier path and a, whose nodes are copied instead of solved again.
    Leaders whose d is not the flow's raise ValueError.
    """
    times = flow.times
    m, d = Y0.m, flow.d
    if Y0.d != d:
        raise ValueError(f"leaders have d={Y0.d}, the followers d={d}")
    M = times.size - 1
    Y, W = np.empty((2, M + 1, m, d))
    prior, agree = _resume if _resume is not None else (None, 0)
    start = min(agree, M)
    if agree:
        Y[: start + 1], W[:agree] = prior.Y[: start + 1], prior.W[:agree]
    else:
        Y[0] = Y0.Y
    for k in range(start, M + (agree <= M)):
        _leader_step(F, u, times, flow, Y, W, k)
    return LeaderPath._of(times, Y, W)


def _leaders_along(F, u, Y0):
    """flow -> solve_leader_ode(F, u, flow, Y0), keeping the last flow read
    and its path, by identity. A new flow's solve restarts where it first
    differs from the last flow (phase_space._agreeing_nodes), so one solve
    per flow costs only the nodes that changed."""
    last = [None, None]

    def along(flow):
        seen, path = last
        if seen is not flow:
            resume = None if seen is None else (path, _agreeing_nodes(seen, flow))
            last[:] = flow, solve_leader_ode(F, u, flow, Y0, _resume=resume)
        return last[1]

    return along


def _coupled_drift(v, w, F, u, Y0, T):
    """(G, leaders_for): the coupled follower drift G[t, mu](z) =
    v[t, mu](z) + w[t, S[mu, u]](z), where S[mu, u] = leaders_for(mu) is
    the leader path (explicit Euler) solved along mu. leaders_for
    (_leaders_along) keeps the path of the last flow read, by identity, so
    one Picard iterate triggers exactly one solve_leader_ode call; it
    restarts from the node where the new flow first differs from the last.
    Declared constants: the sublinearity constant follows the composition rule
    K_G = K_v + K_w (1 + K_F)(1 + C1 + K_F + K_u) with the discrete
    a-priori leader bound C1 = (|Y0| + 1 + T (K_F + K_u)) e^{(K_F + 1) T};
    the dissipativity constant adds the leader-map Lipschitz factor
    C2 = T (L_F + L_u) e^{L_F T}.

    With no coupling (w is None) G is the field v as-is. An absent v
    (None, a model without K11) adds nothing: G is w's term alone, with
    zero_field()'s constants and its order p = 2.
    """
    leaders_for = _leaders_along(F, u, Y0)
    base = v if v is not None else zero_field()
    if w is None:
        return base, leaders_for

    def batch(t, flow, X, V):
        f = None if v is None else v.eval_batch(t, flow, X, V)
        g = w.eval_batch(t, leaders_for(flow), X, V)
        return g if f is None else f + g

    K_u = float(getattr(u, "M_u", 0.0)) if u is not None else 0.0
    L_u = float(getattr(u, "L_u", 0.0)) if u is not None else 0.0
    C1 = (float(np.linalg.norm(Y0.Y)) + 1.0 + T * (F.K_F + K_u)) \
        * math.exp((F.K_F + 1.0) * T)
    C2 = T * (F.L_F + L_u) * math.exp(F.L_F * T)
    K_G = base.K + w.K_w * (1.0 + F.K_F) * (1.0 + C1 + F.K_F + K_u)
    G = DriftField(batch=batch, K=K_G, beta=base.beta, alpha=base.alpha,
                   L=base.L + w.L_w, D=base.D + w.L_w * (1.0 + C2),
                   p=base.p, name=f"{base.name}+{w.name}",
                   unbounded=base.unbounded)
    return G, leaders_for


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


def solve_coupled(v, w, F, u, init_followers, Y0, cfg, tol=1e-6, max_iter=25,
                  *, record_gaps=True):
    """Outer Picard loop on the combined drift; the leader path is re-solved
    inside every iterate (via the drift's cache) and once more along the
    final flow for the returned trajectory, that last solve restarting from
    the last iterate's path as well. v may be None (no K11), as w may.
    Non-convergence is reported in the Picard field, not raised.
    record_gaps goes to picard_solve."""
    G, leaders_for = _coupled_drift(v, w, F, u, Y0, cfg.T)
    rep = picard_solve(G, init_followers, cfg, tol=tol, max_iter=max_iter,
                       record_gaps=record_gaps)
    leaders = leaders_for(rep.final_flow)
    return CoupledSolution(flow=rep.final_flow, leaders=leaders, picard=rep)


def control_stability(u_seq, u, v, w, F, init, Y0, cfg):
    """Per-control gaps sup_t W_p(mu^j_t, mu_t) + sup_t |H^j(t) - H(t)|,
    H = (Y, W), of the fixed point under each control in u_seq to the one
    under u, all sharing one Brownian realization and one initial ensemble.
    A fixed point is one sweep (sde._sweep_fields), bit for bit the one
    solve_coupled reaches. A non-finite state raises FloatingPointError."""
    p = v.p if v is not None else zero_field().p
    paths = generate_brownian(cfg)
    flow, leaders = _sweep_fields(v, w, F, u, init, Y0, cfg, paths)
    gaps = []
    for uj in u_seq:
        flow_j, lead_j = _sweep_fields(v, w, F, uj, init, Y0, cfg, paths)
        diff = LeaderPath._of(flow.times, lead_j.Y - leaders.Y,
                              lead_j.W - leaders.W)
        gaps.append(flow_gap(flow_j, flow, p) + diff.sup_norm())
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
        diff = pa.Y - pb.Y
        num = float(np.max(np.linalg.norm(
            diff.reshape(len(diff), -1), axis=1)))
        ratios.append(num / den)
    return ratios
