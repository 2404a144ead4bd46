"""Admissible control classes, cost functionals at the mean-field and
finite-N levels, projection onto the admissible set, and a derivative-free
optimizer over the finitely parameterized class.

The workhorse class is the separated-variables control u(t, mu) = h(t) g(mu_t)
with piecewise-constant h over K time bins and a feature map g built from
squashed moments. Squashing buys certifiable constants: each feature is
1-Lipschitz in W_1 by Kantorovich duality and bounded by 1, so the
admissibility budget is arithmetic in M_h rather than an article of faith.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .drift import ValidationReport, running_sup_gap
from .pdeode import solve_coupled
from .phase_space import _TIME_TOL
from .sde import STREAM_OPTIMIZER, generate_brownian, path_rng, simulate_interacting

__all__ = [
    "FeatureMap",
    "default_features",
    "ControlSpec",
    "SVControl",
    "zero_control",
    "ev_control",
    "sv_control",
    "sv_zero",
    "evaluate_control",
    "project_admissible",
    "validate_control",
    "CostSpec",
    "make_cost",
    "lagrangian_zero",
    "lagrangian_constant",
    "lagrangian_track_mean_x",
    "psi_quadratic",
    "LAGRANGIAN_NAMES",
    "PSI_NAMES",
    "evaluate_cost_meanfield",
    "evaluate_cost_N",
    "optimize",
]

_SIMPLEX_DIAMETER_STOP = 1e-8
_CONVEXITY_SEED = 0xC09F


def _squash(x):
    """x / (1 + |x|): odd, bounded by 1, 1-Lipschitz, fixes 0."""
    return x / (1.0 + np.abs(x))


@dataclass(frozen=True)
class FeatureMap:
    """Measure features g(mu) in R^ell with certified constants: every
    component bounded by 1 and 1-Lipschitz in W_1 (hence in W_p).

    fn(X, V) maps (..., N, d) position and velocity arrays, with any
    leading node axes, to (..., ell) features: one stacked call covers
    every node of a flow, and an ensemble is the one-node case.
    """

    ell: int
    fn: Callable
    name: str = "features"

    def stacked(self, X, V):
        """Features of every node of (..., N, d) arrays, shape (..., ell)."""
        g = np.asarray(self.fn(X, V), dtype=float)
        want = np.shape(X)[:-2] + (self.ell,)
        if g.shape != want:
            raise ValueError(f"feature map returned shape {g.shape}, "
                             f"expected {want}")
        return g


def default_features(d, R_c=5.0):
    """[squash(mean x_c), squash(mean v_c), squash(clamped second moment)]:
    ell = 2 d + 1 features.

    First moments: z -> x_c and z -> v_c are 1-Lipschitz, so their means
    are 1-Lipschitz in W_1; squashing preserves that. Second moment: the
    clamp min(|z|^2, R_c^2) / (2 R_c) has gradient norm at most 1, same
    argument. All features vanish on the Dirac mass at the origin.

    The reductions run over the particle axis (-2) and the component axis
    (-1) of (..., N, d) arrays, so a stack of nodes gives every node's
    features bit for bit as one node alone does.
    """
    if R_c <= 0:
        raise ValueError("clamping radius R_c must be positive")
    R_c = float(R_c)

    def fn(X, V):
        mx = _squash(X.mean(axis=-2))
        mv = _squash(V.mean(axis=-2))
        r2 = np.sum(X**2, axis=-1) + np.sum(V**2, axis=-1)
        second = _squash(np.mean(np.minimum(r2, R_c**2), axis=-1) / (2.0 * R_c))
        return np.concatenate([mx, mv, second[..., None]], axis=-1)

    return FeatureMap(ell=2 * d + 1, fn=fn, name=f"moments[R_c={R_c:g}]")


@dataclass(frozen=True, kw_only=True)
class ControlSpec:
    """Feedback control u(t, flow) -> (m, d) with declared admissibility
    constants.

    fn(t, flow) sees the whole flow prefix; its result comes back as an
    (m, d) float array. zero_control and ev_control build the usual fn.
    The declared M_u bounds |u| at the Dirac reference and L_u is the
    total Lipschitz budget in the measure (per scalar component:
    L_u / (m d)).
    """

    fn: Callable
    m: int
    d: int
    M_u: float
    L_u: float
    name: str = "control"

    def __post_init__(self):
        if self.m < 0 or self.d < 1:
            raise ValueError("control needs m >= 0 leaders in dimension d >= 1")

    def __call__(self, t, flow):
        return np.asarray(self.fn(t, flow), dtype=float).reshape(self.m, self.d)


@dataclass(frozen=True, kw_only=True)
class SVControl:
    """Separated-variables control u(t, mu) = h(t) g(mu_t): piecewise
    constant h over K right-open time bins (the last bin closed at T),
    each bin an (m d) x ell matrix with Frobenius norm at most M_h.

    Derived constants: M_g = sqrt(ell) (features bounded by 1),
    M_u = M_h sqrt(ell), L_g = sqrt(ell), and the total measure-Lipschitz
    budget L_u = m d M_h sqrt(ell), i.e. M_h sqrt(ell) per scalar
    component (rows of h have norm at most the Frobenius norm).

    The features of a flow come from one stacked pass over all its nodes,
    kept for the last flow read, by identity: the leader ODE and the cost
    trapezoid read one flow at every node. A flow first read at its last
    node, as the finite-N simulator's running prefix is, gets that node's
    features alone, which keeps a simulation linear in its step count.
    Either way g is the same, bit for bit. h is copied, then locked.
    """

    h: np.ndarray
    T: float
    M_h: float
    features: FeatureMap
    m: int
    d: int
    name: str = "sv"

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.ndim != 3 or h.shape[1] != self.m * self.d \
                or h.shape[2] != self.features.ell:
            raise ValueError("h must have shape (K, m*d, ell)")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.M_h <= 0:
            raise ValueError("Frobenius budget M_h must be positive")
        object.__setattr__(self, "_last_features", (None, None))

    @property
    def K(self):
        return self.h.shape[0]

    @property
    def M_g(self):
        return math.sqrt(self.features.ell)

    @property
    def L_g(self):
        return math.sqrt(self.features.ell)

    @property
    def M_u(self):
        return self.M_h * self.M_g

    @property
    def L_u(self):
        return self.m * self.d * self.M_h * self.L_g

    def bin_index(self, t):
        tol = _TIME_TOL * max(1.0, self.T)
        if not -tol <= t <= self.T + tol:
            raise ValueError(f"time {t} outside [0, {self.T}]")
        return min(int(max(t, 0.0) * self.K / self.T), self.K - 1)

    def _features_at(self, flow, k):
        seen, G = self._last_features
        if seen is not flow:
            if k == len(flow) - 1:
                return self.features.stacked(flow.X[k], flow.V[k])
            G = self.features.stacked(flow.X, flow.V)
            object.__setattr__(self, "_last_features", (flow, G))
        return G[k]

    def __call__(self, t, flow):
        g = self._features_at(flow, flow.index_at(t))
        return (self.h[self.bin_index(t)] @ g).reshape(self.m, self.d)


def zero_control(m, d):
    return ControlSpec(fn=lambda t, flow: np.zeros((m, d)), m=m, d=d,
                       M_u=0.0, L_u=0.0, name="zero")


def ev_control(fn, m, d, M_u, L_u, name="ev"):
    """Wrap a marginal-only callback fn(t, ensemble) -> (m, d). The declared
    constants are the caller's promise; validate_control samples them. Only
    tests call it; inlined, its lines would move into them, not go."""
    return ControlSpec(fn=lambda t, flow: fn(t, flow.at_time(t)), m=m, d=d,
                       M_u=M_u, L_u=L_u, name=name)


def sv_control(h, T, M_h, m, d, features=None, name="sv"):
    if features is None:
        features = default_features(d)
    return SVControl(h=h, T=T, M_h=M_h, features=features, m=m, d=d,
                     name=name)


def sv_zero(m, d, T, K=8, M_h=1.0, features=None, name="sv"):
    """All-zero separated-variables control, the usual optimizer start."""
    if features is None:
        features = default_features(d)
    h = np.zeros((K, m * d, features.ell))
    return SVControl(h=h, T=T, M_h=M_h, features=features, m=m, d=d, name=name)


def evaluate_control(u, t, flow):
    """u(t, mu) as an (m d,) vector; a t off the flow's grid range, NaN
    included, raises ValueError (MeasureFlow.index_at)."""
    flow.index_at(t)
    return np.asarray(u(t, flow), dtype=float).ravel()


def project_admissible(u):
    """Shrink every h bin onto the Frobenius ball of radius M_h (direction
    preserved); controls that are already admissible come back unchanged,
    which makes the projection exactly idempotent. Non-sv controls carry
    no free parameters to project."""
    if not isinstance(u, SVControl):
        return u
    norms = np.linalg.norm(u.h.reshape(u.K, -1), axis=1)
    if np.all(norms <= u.M_h):
        return u
    scale = np.minimum(1.0, u.M_h / np.where(norms > 0, norms, 1.0))
    return replace(u, h=u.h * scale[:, None, None])


def validate_control(u, flow_pairs=(), times=(), dirac_flow=None):
    """Sampled admissibility check.

    Verifies (i) Frobenius bin norms within M_h for sv controls, (ii)
    |u(t, delta_0 flow)| <= M_u at the sampled times when a Dirac reference
    flow is supplied, and (iii) the componentwise measure-Lipschitz budget
    |u_j(t, mu) - u_j(t, nu)| <= (L_u / (m d)) sup_{s<=t} W_p(mu_s, nu_s)
    over the supplied flow pairs, each on one grid. Worst quotient as a
    fraction of its bound: PASS iff <= 1 within 1e-9 slack; NaN fails."""
    def quotients():
        if isinstance(u, SVControl):
            norms = np.linalg.norm(u.h.reshape(u.K, -1), axis=1)
            for k, nk in enumerate(norms):
                yield float(nk / u.M_h), {"check": "frobenius", "bin": k}
        if dirac_flow is not None and u.M_u > 0:
            for t in times:
                size = np.linalg.norm(evaluate_control(u, t, dirac_flow))
                yield float(size) / u.M_u, {"check": "dirac_bound", "t": t}
        budget = u.L_u / max(u.m * u.d, 1)
        for mu, nu in flow_pairs:
            sup_w = running_sup_gap(mu, nu, 1.0)
            for t in times:
                w = sup_w[mu.index_at(t)]
                if w == 0.0:
                    continue
                diff = np.abs(evaluate_control(u, t, mu)
                              - evaluate_control(u, t, nu))
                dmax = float(diff.max()) if diff.size else 0.0
                q = dmax / (budget * w) if budget > 0 else \
                    (math.inf if dmax > 0 else 0.0)
                yield q, {"check": "lipschitz", "t": t}
    return ValidationReport.worst_of(quotients(), 1.0,
                                     f"admissibility of '{u.name}'")


def _midpoint_convexity_check(psi, dim):
    rng = path_rng(_CONVEXITY_SEED, STREAM_OPTIMIZER, dim)
    for _ in range(16):
        a = rng.standard_normal(dim) * 3.0
        b = rng.standard_normal(dim) * 3.0
        lhs = float(psi(0.5 * (a + b)))
        rhs = 0.5 * (float(psi(a)) + float(psi(b)))
        if lhs > rhs + 1e-12 * max(1.0, abs(rhs)):
            raise ValueError("control cost psi fails the midpoint convexity "
                             f"check: psi(midpoint)={lhs} > {rhs}")


@dataclass(frozen=True)
class CostSpec:
    """Running cost L(t, flow, leaders) plus a convex control cost psi on
    the flattened control vector. Convexity of psi is spot-checked on
    seeded random segments at construction (midpoint inequality); dim is
    the control dimension m d that psi must accept."""

    lagrangian: Callable
    psi: Callable | None
    dim: int
    name: str = "cost"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cost dimension must be >= 1")
        if self.psi is not None:
            _midpoint_convexity_check(self.psi, self.dim)


def lagrangian_zero():
    return lambda t, flow, leaders: 0.0


def lagrangian_constant(c):
    c = float(c)
    return lambda t, flow, leaders: c


def lagrangian_track_mean_x(target):
    """|mean_x(mu_t) - target|^2: steers the follower barycenter."""
    target = np.atleast_1d(np.asarray(target, dtype=float))

    def L(t, flow, leaders):
        diff = flow.at_time(t).X.mean(axis=0) - target
        return float(diff @ diff)

    return L


def psi_quadratic(weight=1.0):
    weight = float(weight)
    return lambda uvec: weight * float(np.sum(np.square(uvec)))


# The cost library, name: builder from the config's params ("value",
# "target", "weight"). A zero control cost is no psi at all.
_LAGRANGIANS = {
    "zero": lambda params: lagrangian_zero(),
    "constant": lambda params: lagrangian_constant(params.get("value", 1.0)),
    "track_mean_x": lambda params: lagrangian_track_mean_x(
        params.get("target", 0.0)),
}
_PSIS = {
    "zero": lambda params: None,
    "quadratic": lambda params: psi_quadratic(params.get("weight", 1.0)),
}
LAGRANGIAN_NAMES = tuple(_LAGRANGIANS)
PSI_NAMES = tuple(_PSIS)


def make_cost(lagrangian_id, psi_id, dim, params=None):
    """Cost library lookup for the config layer."""
    params = dict(params or {})
    if lagrangian_id not in _LAGRANGIANS:
        raise ValueError(f"unknown lagrangian '{lagrangian_id}'")
    if psi_id not in _PSIS:
        raise ValueError(f"unknown control cost '{psi_id}'")
    return CostSpec(lagrangian=_LAGRANGIANS[lagrangian_id](params),
                    psi=_PSIS[psi_id](params), dim=dim,
                    name=f"{lagrangian_id}+{psi_id}")


# numpy renamed trapz to trapezoid in 2.0; support both.
_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _trapezoid(values, times):
    return float(_np_trapezoid(np.asarray(values, dtype=float),
                               np.asarray(times, dtype=float)))


def _pathwise_cost(cost, u, flow, leaders):
    times = flow.times
    vals = np.empty(len(times))
    for k, t in enumerate(times):
        v = float(cost.lagrangian(t, flow, leaders))
        if cost.psi is not None and u is not None:
            v += float(cost.psi(evaluate_control(u, t, flow)))
        vals[k] = v
    return _trapezoid(vals, times)


def evaluate_cost_meanfield(u, model, cost, cfg, tol=1e-6, max_iter=25):
    """F[u]: solve the coupled mean-field system for this control to tol,
    then integrate the running and control costs with the trapezoid rule;
    the optimize scenario's cost. The experiments take F[u] from one sweep
    (evaluate_cost_N at cfg.N over [cfg.seed], the exact discrete fixed
    point, which this meets up to tol). Only the cost is read, so the
    Picard loop decides each gap < tol from bounds (record_gaps=False):
    the same iterates and cost. A solve that does not converge raises
    RuntimeError naming the exact last gap."""
    v, w, F = model.mean_field_fields()
    init = model.initial(cfg.N, cfg.seed)
    sol = solve_coupled(v, w, F, u, init, model.Y0, cfg, tol=tol,
                        max_iter=max_iter, record_gaps=False)
    if not sol.picard.converged:
        last = f"{sol.picard.gaps[-1]:.3e}" if sol.picard.gaps else "n/a"
        raise RuntimeError("mean-field cost: coupled solve did not converge "
                           f"(last gap {last})")
    return _pathwise_cost(cost, u, sol.flow, sol.leaders)


def mean_stderr(vals):
    """Mean and standard error of per-seed values; one value has stderr 0."""
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) \
        if len(vals) > 1 else 0.0
    return mean, stderr


def evaluate_cost_N(u, model, cost, N, cfg, seeds):
    """F^N[u]: Monte Carlo mean and standard error (mean_stderr) of the
    pathwise cost of the finite-N system over the given seeds (one i.i.d.
    initial draw and noise realization per seed)."""
    if len(seeds) == 0:  # an array of seeds has no truth value
        raise ValueError("at least one seed is required")
    vals = []
    for s in seeds:
        cfg_s = replace(cfg, N=N, seed=int(s))
        init = model.initial(N, int(s))
        paths = generate_brownian(cfg_s)
        flow, leaders = simulate_interacting(model.kernels, u, init, model.Y0,
                                             cfg_s, paths)
        vals.append(_pathwise_cost(cost, u, flow, leaders))
    return mean_stderr(vals)


def optimize(u0, cost_fn, budget, step0=0.5, seed=0):
    """Nelder-Mead over the flattened h bins of a separated-variables
    control, with projection onto the admissible set before every cost
    evaluation (the search never leaves the feasible region, so the
    returned control is admissible by construction).

    A candidate whose cost_fn raises RuntimeError or FloatingPointError
    (a solver failure) or returns NaN scores +inf and counts against the
    budget; any other exception propagates. Deterministic given seed
    (used only to jitter the initial simplex off exact ties). Returns (best control, history) with history
    rows (evaluation index, cost, best cost so far). Stops at the budget
    or when the simplex diameter drops below 1e-8.
    """
    if not isinstance(u0, SVControl):
        raise ValueError("optimize needs the finitely parameterized sv class")
    if budget < 1:
        raise ValueError("evaluation budget must be >= 1")
    shape = u0.h.shape
    n = u0.h.size
    if n == 0:
        raise ValueError("control has no free parameters to optimize")
    history = []
    best = {"cost": math.inf, "control": project_admissible(u0)}

    def score(params):
        cand = project_admissible(replace(u0, h=params.reshape(shape)))
        try:
            c = float(cost_fn(cand))
            if math.isnan(c):
                c = math.inf
        except (RuntimeError, FloatingPointError):
            c = math.inf
        if c < best["cost"]:
            best["cost"], best["control"] = c, cand
        history.append((len(history) + 1, c, best["cost"]))
        return c

    rng = path_rng(seed, STREAM_OPTIMIZER, 0)
    x0 = u0.h.ravel().astype(float)
    simplex = [x0]
    for i in range(n):
        e = x0.copy()
        e[i] += step0
        simplex.append(e + step0 * 1e-3 * rng.standard_normal(n))
    costs = []
    for x in simplex:
        if len(history) >= budget:
            break
        costs.append(score(x))
    simplex = simplex[: len(costs)]

    alpha, gamma, rho, shrink = 1.0, 2.0, 0.5, 0.5
    while len(history) < budget and len(simplex) == n + 1:
        order = np.argsort(costs, kind="stable")
        simplex = [simplex[i] for i in order]
        costs = [costs[i] for i in order]
        diameter = max(float(np.linalg.norm(x - simplex[0])) for x in simplex[1:])
        if diameter < _SIMPLEX_DIAMETER_STOP:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        cr = score(xr)
        if cr < costs[0] and len(history) < budget:
            xe = centroid + gamma * (xr - centroid)
            ce = score(xe)
            if ce < cr:
                simplex[-1], costs[-1] = xe, ce
            else:
                simplex[-1], costs[-1] = xr, cr
        elif cr < costs[-2]:
            simplex[-1], costs[-1] = xr, cr
        else:
            xc = centroid + rho * (simplex[-1] - centroid)
            if len(history) >= budget:
                break
            cc = score(xc)
            if cc < costs[-1]:
                simplex[-1], costs[-1] = xc, cc
            else:
                for i in range(1, n + 1):
                    if len(history) >= budget:
                        break
                    simplex[i] = simplex[0] + shrink * (simplex[i] - simplex[0])
                    costs[i] = score(simplex[i])
    return best["control"], history
