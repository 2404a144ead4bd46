"""Mean-field solver by Picard iteration on measure flows, plus the
diagnostics that make the existence theory observable: weak-form residuals
against smooth compactly supported test functions, stability under drift
perturbation (whose fixed points each come from one forward sweep, the
exact discrete fixed point), and moment / time-regularity certificates.

The iteration freezes the drift along the previous iterate and re-runs the
SDE with ONE fixed Brownian realization (common random numbers). At the
particle level that turns the law map into a deterministic map on flows,
so the recorded gaps are genuine coupling distances instead of Monte Carlo
noise.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drift import kernel_fields
from .phase_space import (LeaderState, MeasureFlow, _agreeing_nodes, gamma_p,
                          moment_p, sup_moment, young_moment)
from .sde import _sweep_fields, generate_brownian, simulate_frozen
# EXACT_GAP_MAX_N is re-exported: callers read the size switch from here.
from .wasserstein import (EXACT_GAP_MAX_N, gap_is_exact, paired_bounds,
                          wasserstein_gap)

__all__ = [
    "PicardReport",
    "picard_solve",
    "flow_gap",
    "TestFunction",
    "bump",
    "weakform_residual",
    "stability_experiment",
    "MomentCertificate",
    "moment_certificate",
]

# Exact W_p never exceeds the paired bound, but the two are summed in
# different orders, so a computed exact value can sit above its computed
# bound by rounding of order N * eps. A node is skipped only when its bound
# with this relative margin cannot reach the running max, which keeps the
# pruned sup bitwise equal to the full one. The same margin, taken of the
# paired bound, covers the rounding of the mean-displacement lower bound in
# _gap_below (its summation error scales with the displacements, which the
# paired bound dominates, not with their mean).
_PRUNE_RTOL = 1e-9


def _pruned_max(bounds, solve):
    """max(0, solve(k) over k) where bounds[k] dominates solve(k): the k
    are solved in descending bound order, and the rest skipped once
    bounds[k] * (1 + _PRUNE_RTOL) is at or below the running max. The
    tolerance covers the rounding between a bound and its solve, so the
    result is the full max bit for bit."""
    best = 0.0
    for k in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[k] * (1.0 + _PRUNE_RTOL) <= best:
            break
        best = max(best, solve(k))
    return best


def _mean_gaps(flow_a, flow_b):
    """|mean(z_a) - mean(z_b)| at every node, z = (x, v): a lower bound on
    W_1, hence on every W_p, by Jensen under any coupling. One array pass;
    the mean is taken of the paired differences, so near-equal flows lose
    no digits to cancellation between two large means."""
    diff = np.concatenate([(flow_a.X - flow_b.X).mean(axis=1),
                           (flow_a.V - flow_b.V).mean(axis=1)], axis=1)
    return np.sqrt(np.einsum("kj,kj->k", diff, diff))


def _gap_below(flow_a, flow_b, p, tol):
    """flow_gap(flow_a, flow_b, p) < tol for tol > 0, deciding from the
    bounds where they can.

    Each node's gap lies between its mean-displacement bound (_mean_gaps)
    and its paired bound. Above EXACT_GAP_MAX_N the gap is the largest
    paired bound itself. Otherwise the answer is yes when every paired
    bound times (1 + _PRUNE_RTOL) is below tol, no when some mean bound,
    less _PRUNE_RTOL times its paired bound, is at or above tol, and else
    the comparison of flow_gap with tol, taken by _pruned_max over the
    bounds already at hand. The margins cover the rounding of the computed
    bounds against the computed exact values, so the answer is the
    comparison of the computed gap, bit for bit."""
    upper = paired_bounds(flow_a.X, flow_a.V, flow_b.X, flow_b.V, p)
    if not gap_is_exact(flow_a.N):
        return max(upper) < tol
    if all(up * (1.0 + _PRUNE_RTOL) < tol for up in upper):
        return True
    lower = _mean_gaps(flow_a, flow_b)
    if any(lo - _PRUNE_RTOL * up >= tol for lo, up in zip(lower, upper)):
        return False
    snaps_a, snaps_b = flow_a.snapshots, flow_b.snapshots
    return _pruned_max(
        upper, lambda k: wasserstein_gap(snaps_a[k], snaps_b[k], p)) < tol


def flow_gap(flow_a, flow_b, p):
    """sup over grid nodes of wasserstein_gap between snapshots: exact
    optimal transport up to EXACT_GAP_MAX_N points, the paired bound above.

    The paired bounds of all nodes come from one array pass over the two
    flows' (nodes, N, d) arrays (paired_bounds, bitwise the per-node
    wasserstein_paired_bound). The bound dominates exact W_p and is far
    cheaper, so it prunes the sup: nodes are solved in descending bound
    order and the rest skipped once no bound can raise the running max
    (_pruned_max), which leaves the same sup bit for bit. Above
    EXACT_GAP_MAX_N the first node solved already attains the largest
    bound. The flows must share their node count, N and d.
    """
    if len(flow_a) != len(flow_b):
        raise ValueError("flows must have the same number of nodes")
    bounds = paired_bounds(flow_a.X, flow_a.V, flow_b.X, flow_b.V, p)
    snaps_a, snaps_b = flow_a.snapshots, flow_b.snapshots
    return _pruned_max(bounds,
                       lambda k: wasserstein_gap(snaps_a[k], snaps_b[k], p))


@dataclass(frozen=True)
class PicardReport:
    """Outcome of picard_solve. gaps holds flow_gap values only, never a
    bound standing in for one: by default the gap after every iterate;
    with record_gaps=False it is empty on convergence, and on
    non-convergence it holds the one flow_gap of the last two iterates."""

    iterations: int
    gaps: tuple
    converged: bool
    final_flow: MeasureFlow

    def __post_init__(self):
        if any(g < 0 for g in self.gaps):
            raise ValueError("gaps must be nonnegative")


def picard_solve(f, init, cfg, tol=1e-6, max_iter=25, *, record_gaps=True):
    """Fixed-point iteration for the McKean-Vlasov dynamics driven by f.

    Starts from the constant-in-time extension of init, then repeatedly
    simulates the SDE with the drift frozen along the previous iterate,
    reusing one Brownian realization throughout. The gap after each
    iterate is the sup-in-time coupling distance between successive flows
    (exact OT below the size switch). A drift with no measure dependence
    reproduces its first iterate bitwise on the second pass, so the gap
    hits exactly zero at iteration 2.

    Every drift is non-anticipative: step k reads the frozen flow on the
    nodes <= k only. So when the last two iterates agree bit for bit on
    the nodes 0..a - 1, the next iterate agrees with the last one on the
    nodes 0..a, and it copies them (phase_space._agreeing_nodes compares
    bits, so -0.0 and 0.0 differ) and steps from node a. Iterate j is
    therefore final on its first j + 1 nodes: the iteration reaches its
    discrete fixed point exactly, with gap 0.0, after at most
    cfg.n_steps + 1 iterates, and a run can fail to converge only when
    max_iter <= cfg.n_steps. That fixed point is the N-particle
    interacting system on the same initial ensemble and Brownian paths.

    record_gaps=False is for callers that read only the outcome: each
    iterate then decides gap < tol from per-node bounds, solving exact
    transport only where they cannot decide (_gap_below), with the same
    iterations, flows and convergence as the default. Its report holds no
    gaps on convergence; on non-convergence it holds the exact flow_gap of
    the last two iterates, as the default's last gap.

    Non-convergence is reported, not raised. A caller that wants the
    moment-truncation cutoff passes clamp_drift(f, cap) as f.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    if init.N != cfg.N:
        raise ValueError("initial ensemble does not match the configuration")
    paths = generate_brownian(cfg)
    times = cfg.grid()
    current = MeasureFlow.constant(init, times)
    gaps = []
    converged = False
    iterations = 0
    previous = None
    for _ in range(max_iter):
        frozen = current

        def F(t, X, V, frozen=frozen):
            return f.eval_batch(t, frozen, X, V)

        agree = 0 if previous is None else _agreeing_nodes(previous, current)
        nxt = simulate_frozen(F, init, cfg, paths,
                              _resume=(current, min(agree, cfg.n_steps)))
        iterations += 1
        if record_gaps:
            gaps.append(flow_gap(current, nxt, f.p))
            converged = gaps[-1] < tol
        else:
            converged = _gap_below(current, nxt, f.p, tol)
        previous, current = current, nxt
        if converged:
            break
    if not (record_gaps or converged) and previous is not None:
        gaps.append(flow_gap(previous, current, f.p))
    return PicardReport(iterations=iterations, gaps=tuple(gaps),
                        converged=converged, final_flow=current)


@dataclass(frozen=True)
class TestFunction:
    """Smooth test function with the derivative callbacks the weak form
    needs: value(X, V), grad_x(X, V), grad_v(X, V) with (N, d) outputs,
    and lap_v(X, V) with (N,) output."""

    value: Callable
    grad_x: Callable | None = None
    grad_v: Callable | None = None
    lap_v: Callable | None = None
    name: str = "custom"


def _bump_profile(u):
    """(inside, om, val) of exp(1 - 1/(1 - u)) for u < 1, zero outside;
    om is 1 - u, masked to 1 outside to keep the exponent finite."""
    inside = u < 1.0
    om = np.where(inside, 1.0 - u, 1.0)
    return inside, om, np.where(inside, np.exp(1.0 - 1.0 / om), 0.0)


def _bump_gradient(diff, inside, om, val, R2):
    """The profile's gradient in the coordinates diff of u = (|diff|^2 +
    ...) / R2: (d val / d u) (2 / R2) diff inside the support, 0 outside."""
    g = (-val / om**2) * (2.0 / R2)
    return np.where(inside[:, None], g[:, None] * diff, 0.0)


def bump(center_x, center_v, radius, name="bump"):
    """Compactly supported bump psi(z) = exp(1 - 1/(1 - r^2)) for r < 1,
    r^2 = (|x - cx|^2 + |v - cv|^2) / radius^2, with analytic gradients and
    velocity Laplacian. Smooth everywhere, identically zero outside the
    ball."""
    cx = np.atleast_1d(np.asarray(center_x, dtype=float))
    cv = np.atleast_1d(np.asarray(center_v, dtype=float))
    R2 = float(radius) ** 2

    def parts(X, V):
        dx = X - cx
        dv = V - cv
        u = (np.sum(dx * dx, axis=1) + np.sum(dv * dv, axis=1)) / R2
        return (dx, dv, *_bump_profile(u))

    def value(X, V):
        return parts(X, V)[4]

    def grad_x(X, V):
        dx, _, *profile = parts(X, V)
        return _bump_gradient(dx, *profile, R2)

    def grad_v(X, V):
        _, dv, *profile = parts(X, V)
        return _bump_gradient(dv, *profile, R2)

    def lap_v(X, V):
        _, dv, inside, om, val = parts(X, V)
        d = dv.shape[1]
        first = -val / om**2
        second = val * (1.0 / om**4 - 2.0 / om**3)
        r2v = np.sum(dv * dv, axis=1)
        out = second * (4.0 * r2v / R2**2) + first * (2.0 * d / R2)
        return np.where(inside, out, 0.0)

    return TestFunction(value=value, grad_x=grad_x, grad_v=grad_v, lap_v=lap_v,
                        name=name)


def weakform_residual(flow, f, sigma, psi, t_index):
    """Absolute weak-form residual of the kinetic equation at node t_index:

        | <psi, mu_t> - <psi, mu_0>
          - sum_k dt * < v . grad_x psi + f . grad_v psi + sigma lap_v psi,
                         mu_{t_k} > |

    with particle averages and left-endpoint quadrature over the nodes
    before t_index. O(dt) for flows generated by f (plus O(1/sqrt(N))
    Monte Carlo error when sigma > 0); bounded away from zero when the
    flow was generated by a different drift.
    """
    if psi.grad_x is None or psi.grad_v is None or psi.lap_v is None:
        raise ValueError("test function must supply grad_x, grad_v, and lap_v")
    if t_index < 1 or t_index >= len(flow):
        raise ValueError("t_index must point at a grid node after the first")

    def avg(values):
        # fsum: the particle average does not depend on particle order.
        return math.fsum(float(x) for x in values) / len(values)

    times = flow.times
    X_all, V_all = flow.X, flow.V
    total = avg(psi.value(X_all[t_index], V_all[t_index])) \
        - avg(psi.value(X_all[0], V_all[0]))
    for k in range(t_index):
        dt = float(times[k + 1] - times[k])
        X, V = X_all[k], V_all[k]
        gen = np.einsum("ij,ij->i", V, psi.grad_x(X, V))
        drift = f.eval_batch(times[k], flow, X, V)
        gen = gen + np.einsum("ij,ij->i", drift, psi.grad_v(X, V))
        if sigma != 0.0:
            gen = gen + sigma * psi.lap_v(X, V)
        total -= dt * avg(gen)
    return abs(total)


def stability_experiment(f_seq, f, init, cfg):
    """flow_gap of the fixed point of each field in f_seq to that of f, all
    under one Brownian realization and one initial ensemble. A fixed point
    is one sweep (sde._sweep_fields): the exact discrete fixed point that
    picard_solve reaches after at most n_steps + 1 iterates, so no
    tolerance enters. A non-finite state raises FloatingPointError."""
    paths, no_leaders = generate_brownian(cfg), LeaderState.empty(cfg.d)
    drive = kernel_fields({}, 0)[2]

    def fixed_point(g):
        return _sweep_fields(g, None, drive, None, init, no_leaders, cfg,
                             paths)[0]

    ref = fixed_point(f)
    return [flow_gap(fixed_point(g), ref, f.p) for g in f_seq]


@dataclass(frozen=True)
class MomentCertificate:
    """Boundedness certificate: the existence theory promises finiteness of
    these three quantities, not specific values, so PASS means finite."""

    sup_moment: float
    young_sup_moment: float
    holder: float
    p: float
    gamma: float
    passed: bool


def _gap_holder_ratio(flow, p):
    """Worst quotient wasserstein_gap(mu_t, mu_s) / |t - s|^gamma_p over all
    node pairs t != s, bit for bit as the full double loop gives it, but
    pruned as flow_gap is: the paired bound over |t - s|^gamma_p dominates
    each quotient, so the pairs are solved in descending order of it. The
    bounds of all later nodes against node i come from one array pass."""
    g = gamma_p(p)
    X, V, snaps = flow.X, flow.V, flow.snapshots
    pairs, bounds = [], []
    for i in range(len(flow) - 1):
        shape = X[i + 1:].shape
        row = paired_bounds(np.broadcast_to(X[i], shape),
                            np.broadcast_to(V[i], shape), X[i + 1:], V[i + 1:], p)
        for j, b in enumerate(row, start=i + 1):
            scale = float(flow.times[j] - flow.times[i]) ** g
            pairs.append((i, j, scale))
            bounds.append(b / scale)

    def quotient(n):
        i, j, scale = pairs[n]
        return wasserstein_gap(snaps[i], snaps[j], p) / scale

    return _pruned_max(bounds, quotient)


def moment_certificate(flow, p, Phi):
    """Evaluate sup-in-time p-moment, sup-in-time Young moment, and the
    worst Hoelder quotient at exponent gamma_p = 1/max(2, p). The Hoelder
    distance is the exact/paired switch wasserstein_gap, whose pair solves
    are pruned by the paired bound (the same value as the full loop over
    all pairs, bit for bit)."""
    mbar = sup_moment(flow, p, flow.T)
    ybar = max(young_moment(s, Phi, p) for s in flow.snapshots)
    holder = _gap_holder_ratio(flow, p) if len(flow) >= 2 else 0.0
    ok = all(math.isfinite(x) for x in (mbar, ybar, holder))
    return MomentCertificate(sup_moment=mbar, young_sup_moment=ybar,
                             holder=holder, p=p, gamma=gamma_p(p), passed=ok)
