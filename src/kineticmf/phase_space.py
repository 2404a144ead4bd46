"""Phase-space state types, empirical measures, and moment functionals.

Everything downstream works on uniform-weight empirical measures
mu = (1/N) sum_i delta_{z_i} over phase points z = (x, v) in R^d x R^d,
and on discrete measure flows: a time grid plus one ensemble per node,
where point i at node k samples the same particle's trajectory. That
persistent identity is what makes index-paired couplings meaningful.

A flow stores its nodes as two locked (nodes, N, d) arrays, so a flow
functional is one array expression over the node axis; its snapshots are
locked ParticleEnsemble views of those arrays.
"""

import csv
import math

import numpy as np

__all__ = [
    "PhasePoint",
    "ParticleEnsemble",
    "MeasureFlow",
    "LeaderState",
    "LeaderPath",
    "YoungFunction",
    "time_grid",
    "moment_p",
    "sup_moment",
    "young_moment",
    "holder_ratio",
    "write_flow_csv",
    "read_flow_csv",
    "write_leader_csv",
    "read_leader_csv",
]

# Relative slack used when locating a time node on a grid. Nodes are exact
# multiples of the base step, so this only has to absorb one rounding.
_TIME_TOL = 1e-9


def _index_at(times, t):
    """Largest k with times[k] <= t, up to the grid tolerance. A t outside
    the grid, NaN included, raises ValueError. The range check runs on
    Python floats and the lookup calls the ndarray method: every field,
    control and Lagrangian read comes through here."""
    lo, hi = times.item(0), times.item(-1)
    tol = _TIME_TOL * max(1.0, abs(hi))
    if not lo - tol <= t <= hi + tol:
        raise ValueError(f"time {t} outside grid range [{times[0]}, {times[-1]}]")
    return int(times.searchsorted(t + tol, side="right")) - 1


def _as_locked(a, dtype=float):
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _require_finite(name, a):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must contain only finite values")


def _grid(times):
    """Locked copy of a time grid: one axis, at least one node, finite and
    strictly increasing, else ValueError. Flows and leader paths share it."""
    times = _as_locked(np.atleast_1d(times))
    if times.ndim != 1 or times.size < 1:
        raise ValueError("grid needs at least one node on one axis")
    _require_finite("grid", times)
    if np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly increasing")
    return times


def _locked(a):
    """A read-only view of a: the view is locked even where a, or the
    buffer under it, stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


class PhasePoint:
    """One agent state z = (x, v) with position and velocity in R^d."""

    __slots__ = ("x", "v")

    def __init__(self, x, v):
        self.x = _as_locked(np.atleast_1d(x))
        self.v = _as_locked(np.atleast_1d(v))
        if self.x.ndim != 1 or self.v.ndim != 1:
            raise ValueError("x and v must be vectors")
        if self.x.shape != self.v.shape:
            raise ValueError("x and v must have the same length")
        if self.x.size < 1:
            raise ValueError("dimension d must be >= 1")
        _require_finite("x", self.x)
        _require_finite("v", self.v)

    @property
    def d(self):
        return self.x.size

    @property
    def z(self):
        """Concatenated (x, v) vector in R^{2d}."""
        return np.concatenate([self.x, self.v])

    def __repr__(self):
        return f"PhasePoint(x={self.x.tolist()}, v={self.v.tolist()})"


class ParticleEnsemble:
    """Uniform-weight empirical measure (1/N) sum_i delta_{(x_i, v_i)}.

    Stored as two (N, d) arrays. The particle order is part of the object:
    couplings and CSV output rely on it, while every measure-level
    functional is (and is tested to be) permutation-invariant.
    """

    __slots__ = ("X", "V")

    def __init__(self, X, V):
        self.X = _as_locked(np.atleast_2d(X))
        self.V = _as_locked(np.atleast_2d(V))
        if self.X.shape != self.V.shape:
            raise ValueError("position and velocity arrays must share shape (N, d)")
        if self.X.shape[0] < 1:
            raise ValueError("empty measure")
        _require_finite("positions", self.X)
        _require_finite("velocities", self.V)

    @classmethod
    def _view(cls, X, V):
        """Ensemble over locked, checked (N, d) arrays, taken as they are:
        no copy and no re-check."""
        ens = object.__new__(cls)
        ens.X, ens.V = X, V
        return ens

    @classmethod
    def from_points(cls, points):
        points = list(points)
        if not points:
            raise ValueError("empty measure")
        d = points[0].d
        if any(p.d != d for p in points):
            raise ValueError("all points must share one dimension d")
        return cls(np.stack([p.x for p in points]), np.stack([p.v for p in points]))

    @property
    def N(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def point(self, i):
        return PhasePoint(self.X[i], self.V[i])

    def points(self):
        return [self.point(i) for i in range(self.N)]

    def Z(self):
        """(N, 2d) array of concatenated states."""
        return np.hstack([self.X, self.V])

    def radii(self):
        """Euclidean norms |z_i| of the concatenated states."""
        return np.sqrt(np.einsum("ij,ij->i", self.X, self.X)
                       + np.einsum("ij,ij->i", self.V, self.V))

    def permuted(self, order):
        return ParticleEnsemble(self.X[order], self.V[order])

    def __repr__(self):
        return f"ParticleEnsemble(N={self.N}, d={self.d})"


def time_grid(T, n_steps):
    """Uniform grid 0 = t_0 < ... < t_M = T with t_k = k * (T / n_steps).

    Nodes are integer multiples of the base step (multiplied, never
    accumulated), so pairwise differences carry no summation drift.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return np.arange(n_steps + 1) * (T / n_steps)


class MeasureFlow:
    """A discrete curve of empirical measures on a strictly increasing grid.

    Snapshot k holds the same N particles as snapshot 0; the flow doubles
    as one admissible path-space coupling through that identity. The nodes
    live in two locked (nodes, N, d) arrays X and V, so flow functionals
    run one array pass over the node axis. snapshots, at_time and prefix
    hand out locked views of those arrays, never copies.
    """

    __slots__ = ("times", "X", "V")

    def __init__(self, times, snapshots):
        """Stack the ensembles on the grid into the flow's arrays, checking
        the grid and the shapes once."""
        snapshots = tuple(snapshots)
        self.times = _grid(times)
        if self.times.size != len(snapshots):
            raise ValueError("one snapshot per grid node required")
        if len({s.X.shape for s in snapshots}) != 1:
            raise ValueError("snapshots must share N and d")
        self.X = _as_locked(np.stack([s.X for s in snapshots]))
        self.V = _as_locked(np.stack([s.V for s in snapshots]))

    @classmethod
    def _of(cls, times, X, V):
        """Flow on a checked grid and (nodes, N, d) arrays of finite
        values, with no copy and no re-check: it keeps locked views."""
        flow = object.__new__(cls)
        flow.times, flow.X, flow.V = _locked(times), _locked(X), _locked(V)
        return flow

    @classmethod
    def constant(cls, ens, times):
        """Constant-in-time extension of one ensemble over a grid: a
        broadcast view of the ensemble's arrays, no copy."""
        times = _grid(times)
        shape = (times.size,) + ens.X.shape
        return cls._of(times, np.broadcast_to(ens.X, shape),
                       np.broadcast_to(ens.V, shape))

    @property
    def N(self):
        return self.X.shape[1]

    @property
    def d(self):
        return self.X.shape[2]

    @property
    def T(self):
        return float(self.times[-1])

    @property
    def snapshots(self):
        """One locked ParticleEnsemble view per node."""
        return tuple(ParticleEnsemble._view(X, V) for X, V in zip(self.X, self.V))

    def __len__(self):
        return self.times.size

    def index_at(self, t):
        """Largest node index k with t_k <= t (up to grid tolerance)."""
        return _index_at(self.times, t)

    def at_time(self, t):
        """Snapshot at the largest node <= t. Fields evaluate measures here,
        which keeps every shipped drift non-anticipative by construction."""
        k = self.index_at(t)
        return ParticleEnsemble._view(self.X[k], self.V[k])

    def prefix(self, t):
        """Sub-flow on the nodes <= t, a view of this flow's arrays."""
        k = self.index_at(t) + 1
        return MeasureFlow._of(self.times[:k], self.X[:k], self.V[:k])

    def __repr__(self):
        return f"MeasureFlow(nodes={len(self)}, N={self.N}, d={self.d}, T={self.T})"


class LeaderState:
    """Positions Y and velocities W of the m leaders; m = 0 is legal."""

    __slots__ = ("Y", "W")

    def __init__(self, Y, W):
        Y = np.asarray(Y, dtype=float)
        W = np.asarray(W, dtype=float)
        if Y.size == 0:
            Y = Y.reshape(0, W.shape[1] if W.ndim == 2 and W.shape[1] else 1)
            W = W.reshape(Y.shape)
        self.Y = _as_locked(np.atleast_2d(Y))
        self.W = _as_locked(np.atleast_2d(W))
        if self.Y.shape != self.W.shape:
            raise ValueError("Y and W must share shape (m, d)")
        _require_finite("Y", self.Y)
        _require_finite("W", self.W)

    @classmethod
    def empty(cls, d):
        return cls(np.zeros((0, d)), np.zeros((0, d)))

    @property
    def m(self):
        return self.Y.shape[0]

    @property
    def d(self):
        return self.Y.shape[1]

    def flat(self):
        """(2 m d,) vector (Y then W), the abstract R^{2md} view."""
        return np.concatenate([self.Y.ravel(), self.W.ravel()])

    def __repr__(self):
        return f"LeaderState(m={self.m}, d={self.d})"


class LeaderPath:
    """Leader trajectory on a grid: Y, W arrays of shape (M+1, m, d).

    W_k stores the evaluated right-hand side of the first-order leader
    equation at node k; it is not an independent state variable.
    """

    __slots__ = ("times", "Y", "W")

    def __init__(self, times, Y, W):
        """Copy and check: the grid as a flow's grid, Y and W finite."""
        self.times = _grid(times)
        self.Y = _as_locked(Y)
        self.W = _as_locked(W)
        if self.Y.shape != self.W.shape or self.Y.ndim != 3:
            raise ValueError("Y and W must share shape (nodes, m, d)")
        if self.Y.shape[0] != self.times.size:
            raise ValueError("one leader state per grid node required")
        _require_finite("Y", self.Y)
        _require_finite("W", self.W)

    @classmethod
    def _of(cls, times, Y, W):
        """Path on a checked grid and (nodes, m, d) arrays of finite
        values, with no copy and no re-check: it keeps locked views."""
        path = object.__new__(cls)
        path.times, path.Y, path.W = _locked(times), _locked(Y), _locked(W)
        return path

    @property
    def m(self):
        return self.Y.shape[1]

    @property
    def d(self):
        return self.Y.shape[2]

    def state(self, k):
        return LeaderState(self.Y[k], self.W[k])

    def index_at(self, t):
        return _index_at(self.times, t)

    def at_time(self, t):
        return self.state(self.index_at(t))

    def prefix(self, t):
        """Sub-path on the nodes <= t, a view of this path's arrays."""
        k = self.index_at(t) + 1
        return LeaderPath._of(self.times[:k], self.Y[:k], self.W[:k])

    def sup_norm(self):
        """sup over nodes of |(Y, W)| as a flattened vector per node."""
        if self.m == 0:
            return 0.0
        flat = np.concatenate([self.Y.reshape(len(self.times), -1),
                               self.W.reshape(len(self.times), -1)], axis=1)
        return float(np.max(np.linalg.norm(flat, axis=1)))

    def __repr__(self):
        return f"LeaderPath(nodes={len(self.times)}, m={self.m}, d={self.d})"


class YoungFunction:
    """A user-supplied Young function handle phi: [0, inf) -> [0, inf).

    Convexity is not verified globally (documented limitation): construction
    samples a grid and checks phi(0) = 0, nonnegativity, and monotonicity.
    The dominated_by_square flag asserts phi(x) <= x^2 and is trusted.
    """

    __slots__ = ("phi", "dominated_by_square")

    _CHECK_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 28)])

    def __init__(self, phi, dominated_by_square=False):
        self.phi = phi
        self.dominated_by_square = bool(dominated_by_square)
        vals = np.array([float(phi(x)) for x in self._CHECK_GRID])
        if abs(vals[0]) > 0.0:
            raise ValueError("Young function must satisfy phi(0) = 0")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("Young function must be nonnegative and finite on the check grid")
        if np.any(np.diff(vals) < -1e-15 * np.maximum(1.0, vals[:-1])):
            raise ValueError("Young function must be nondecreasing on the check grid")

    def __call__(self, x):
        return self.phi(x)


IDENTITY_YOUNG = YoungFunction(lambda x: x, dominated_by_square=False)


def moment_p(ens, p):
    """p-th radial moment M_p(mu) = (1/N) sum_i |z_i|^p.

    |z| is the Euclidean norm of the concatenated (x, v) vector. The sum is
    accumulated with math.fsum, so the value is exactly permutation-invariant
    and identical at every thread count.
    """
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    r = ens.radii()
    return math.fsum(r**p) / ens.N


def sup_moment(flow, p, t):
    """Running sup moment M_bar_p(t) = max over nodes s <= t of M_p(mu_s)."""
    return max(moment_p(s, p) for s in flow.prefix(t).snapshots)


def young_moment(ens, Phi, p):
    """Generalized moment M_{Phi_p}(mu) = (1/N) sum_i Phi(|z_i|^p),
    i.e. the moment of Phi_p(x) = Phi(x^p)."""
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    r = ens.radii()
    terms = [float(Phi(x)) for x in r**p]
    return math.fsum(terms) / ens.N


def gamma_p(p):
    """Time-regularity exponent gamma_p = 1 / max(2, p)."""
    return 1.0 / max(2.0, float(p))


def holder_ratio(flow, p, wp):
    """Worst Hoelder quotient max_{t != s} wp(mu_t, mu_s) / |t - s|^{gamma_p}.

    wp is a distance callback on ensemble pairs; the exponent is
    gamma_p = 1/max(2, p). All grid pairs are visited, so the value is
    invariant under time reversal of the flow.
    """
    if len(flow) < 2:
        raise ValueError("holder_ratio needs a flow with at least 2 snapshots")
    g = gamma_p(p)
    snaps = flow.snapshots
    worst = 0.0
    for i in range(len(flow)):
        for j in range(i + 1, len(flow)):
            dt = float(flow.times[j] - flow.times[i])
            q = wp(snaps[i], snaps[j]) / dt**g
            if q > worst:
                worst = q
    return worst


def _write_csv(path, names, times, X, V):
    """CSV with header t,<index>,<x>0..<x>{d-1},<v>0..<v>{d-1} for names =
    (index, x, v) and one row t_k,i,X[k][i],V[k][i] per node k and row i,
    byte for byte as csv.writer writes it (comma separated, \r\n line
    ends) with every float as format(x, ".17g"), full round-trip
    precision."""
    index, x, v = names
    d = X[0].shape[1]
    header = (["t", index] + [f"{x}{i}" for i in range(d)]
              + [f"{v}{i}" for i in range(d)])
    row = "%.17g,%d" + ",%.17g" * (2 * d) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, Xk, Vk in zip(times.tolist(), X, V):
            rows = np.concatenate([Xk, Vk], axis=1).tolist()
            fh.write("".join([row % (t, i, *z) for i, z in enumerate(rows)]))


def _read_csv(path):
    """Inverse of _write_csv: (times, X, V) with X and V of shape (nodes,
    rows, d), a node being a run of rows with one t. An empty file, no
    data rows, or ragged rows or nodes raise ValueError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"CSV file '{path}' has no data rows")
    width = len(rows[0])
    d = (width - 2) // 2
    data = np.array([[float(c) for c in r] for r in rows[1:]])
    t = data[:, 0]
    sizes = np.diff(np.r_[0, np.flatnonzero(t[1:] != t[:-1]) + 1, t.size])
    if np.any(sizes != sizes[0]):
        raise ValueError(f"CSV file '{path}' has ragged time nodes")
    data = data.reshape(sizes.size, sizes[0], width)
    return data[:, 0, 0], data[:, :, 2 : 2 + d], data[:, :, 2 + d :]


def write_flow_csv(flow, path):
    """Flow CSV: header t,particle,x0..x{d-1},v0..v{d-1}, one row per
    (time node, particle), full round-trip precision."""
    _write_csv(path, ("particle", "x", "v"), flow.times, flow.X, flow.V)


def read_flow_csv(path):
    """The flow write_flow_csv wrote; malformed files raise ValueError."""
    times, X, V = _read_csv(path)
    return MeasureFlow(times, [ParticleEnsemble(x, v) for x, v in zip(X, V)])


def write_leader_csv(lp, path):
    """Leader CSV: header t,leader,y0..y{d-1},w0..w{d-1}."""
    _write_csv(path, ("leader", "y", "w"), lp.times, lp.Y, lp.W)


def read_leader_csv(path):
    """The leader path write_leader_csv wrote; malformed files raise
    ValueError."""
    return LeaderPath(*_read_csv(path))
