"""Nonlocal drift fields, the interaction-kernel library, and executable
validators for the structural assumptions on drifts.

A drift field f[t, mu_flow](z) may depend on the whole measure flow up to
time t (never beyond: non-anticipativity is part of the contract) and on
the evaluation point z = (x, v). The validators turn the analytic
hypotheses (sublinearity, anisotropic Hoelder continuity, dissipativity
via its Lipschitz sufficient condition) into sampled regression checks:
they report worst quotients over finite sample sets, they do not prove
anything over all of phase space.
"""

import math
import os
import threading
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .phase_space import PhasePoint, sup_moment
from .wasserstein import gap_is_exact, wasserstein_gap

__all__ = [
    "InteractionKernel",
    "DriftField",
    "LeaderField",
    "LeaderCouplingField",
    "ValidationReport",
    "kernel",
    "KERNEL_NAMES",
    "pair_mean",
    "kernel_fields",
    "leader_field_from_kernels",
    "coupling_from_kernel",
    "drift_from_kernel",
    "constant_field",
    "zero_field",
    "validate_sublinearity",
    "validate_hoelder",
    "validate_dissipativity_v3pp",
    "running_sup_gap",
    "clamp_drift",
    "cutoff_eta",
    "latin_hypercube_points",
]

@dataclass(frozen=True)
class InteractionKernel:
    """Pairwise interaction kernel K with declared constants.

    arity "phase" kernels map (dx, dv) -> R^d; arity "position" kernels map
    dx -> R^d (used for the leader position couplings). fn(dx, dv, out)
    writes the values into out, a float array with dx's shape, and returns
    nothing; dv is None for position kernels. fn must not write into dx or
    dv other than through out.

    reads_dx declares that the values depend on dx. One that does not
    gives K(0, dv) at every dx, so pair_mean builds no position
    differences for it and passes a read-only zero view,
    np.broadcast_to(0.0, shape), in the dx slot: it still fixes the
    call's (n, tile, d) shape. reads_dv declares that a phase kernel's
    values depend on dv. One that reads dx alone may be called with dv
    None, and pair_mean builds no dv for it. A custom kernel reads both
    unless it says otherwise. pair_mean lays out out as the differences
    the kernel reads.

    elementwise declares that the value at an entry depends only on that
    entry of dx and dv, so fn may write over its own input. Then, and only
    then, out may be dx or dv itself (pair_mean hands such a kernel the dv
    it reads, else the dx it reads, and a fresh buffer when it reads
    neither); no other overlap of out with the inputs is allowed. A kernel
    that sums over components is not elementwise, and neither is a custom
    kernel unless it says so.

    The declared L_ker and M_ker are promises checked by the validators,
    not by construction; kernels with M_ker = inf are flagged unbounded and
    exist for closed-form tests only.
    """

    name: str
    fn: Callable
    L_ker: float
    M_ker: float
    arity: str = "phase"
    elementwise: bool = False
    reads_dv: bool = True
    reads_dx: bool = True

    def __post_init__(self):
        if self.arity not in ("phase", "position"):
            raise ValueError("kernel arity must be 'phase' or 'position'")

    @property
    def unbounded(self):
        return not math.isfinite(self.M_ker)

    def __call__(self, dx, dv=None, out=None):
        """K(dx, dv) written into out, a float array shaped like dx;
        without out, into a fresh np.empty_like(dx). Returns out."""
        dx = np.asarray(dx, dtype=float)
        if self.arity == "position":
            dv = None
        elif dv is not None:
            dv = np.asarray(dv, dtype=float)
        elif self.reads_dv:
            raise ValueError(f"kernel '{self.name}' needs both dx and dv")
        if out is None:
            out = np.empty_like(dx)
        self.fn(dx, dv, out)
        return out


def _k_zero(dx, dv, out):
    out[...] = 0.0


def _k_alignment(dx, dv, out):
    np.copyto(out, dv)


def _k_bounded_alignment(dx, dv, out):
    # tanh(dv) componentwise: |K| <= sqrt(d), Lipschitz 1.
    np.tanh(dv, out=out)


def _k_attraction(dx, dv, out):
    np.copyto(out, dx)


def _k_bounded_attraction(dx, dv, out):
    # dx / (1 + |dx|^2): |K| <= 1/2, gradient bounded by 1.
    np.multiply(dx, dx, out=out)
    r2 = np.add.reduce(out, axis=-1, keepdims=True)
    r2 += 1.0
    np.divide(dx, r2, out=out)


def _constant(d, params):
    c = np.full(d, float(params.get("value", 1.0)))

    def fn(dx, dv, out):
        out[...] = c

    return fn, float(np.linalg.norm(c))


# The kernel library, name: (fn, L_ker, M_ker, arity, elementwise,
# reads_dv, reads_dx). A row whose M_ker is None needs the dimension d: its
# fn maps (d, params) to (fn, M_ker). bounded_attraction sums over
# components: not elementwise. The alignment kernels read dv alone, the
# attraction kernels dx alone, and zero and constant neither.
_KERNELS = {
    "zero": (_k_zero, 0.0, 0.0, "phase", True, False, False),
    "constant": (_constant, 0.0, None, "phase", True, False, False),
    "alignment": (_k_alignment, 1.0, math.inf, "phase", True, True, False),
    "bounded_alignment": (lambda d, _: (_k_bounded_alignment, math.sqrt(d)),
                          1.0, None, "phase", True, True, False),
    "attraction": (_k_attraction, 1.0, math.inf, "phase", True, False, True),
    "bounded_attraction": (_k_bounded_attraction, 1.0, 0.5, "phase", False,
                           False, True),
    "zero_position": (_k_zero, 0.0, 0.0, "position", True, False, False),
    "attraction_position": (_k_attraction, 1.0, math.inf, "position", True,
                            False, True),
    "bounded_attraction_position": (_k_bounded_attraction, 1.0, 0.5,
                                    "position", False, False, True),
}

KERNEL_NAMES = tuple(_KERNELS)


def kernel(name, d=None, params=None):
    """Construct the library kernel called name, a key of the table above.

    Rows declaring M_ker = inf (the linear kernels) break the sublinearity
    assumption by design and are meant for closed-form tests. The constant
    kernel has params["value"] (default 1) in each of its d components.
    """
    if name not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel '{name}'")
    fn, L_ker, M_ker, arity, elementwise, reads_dv, reads_dx = _KERNELS[name]
    if M_ker is None:
        if d is None:
            raise ValueError(f"{name} kernel needs the dimension d")
        fn, M_ker = fn(d, params or {})
    return InteractionKernel(name, fn, L_ker, M_ker, arity, elementwise,
                             reads_dv, reads_dx)


@dataclass(frozen=True)
class DriftField:
    """Nonlocal drift f[t, flow](z) with its declared assumption constants.

    batch(t, flow, X, V) -> (n, d) evaluates the field at every row z_i =
    (X[i], V[i]) at once; eval_batch is the one way to call it.
    Constants: K and beta for sublinearity, alpha and L for the anisotropic
    Hoelder bound, D for the dissipativity sufficient condition, p for the
    Wasserstein order the field is paired with. Fields flagged unbounded
    ship constants that the validators are expected to reject.
    """

    batch: Callable
    K: float = 1.0
    beta: float = 0.0
    alpha: float = 1.0
    L: float = 1.0
    D: float = 1.0
    p: float = 2.0
    name: str = "custom"
    unbounded: bool = False

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("sublinearity exponent beta must lie in [0, 1)")
        if not (self.beta < self.alpha <= 1.0):
            raise ValueError("Hoelder exponent alpha must lie in (beta, 1]")
        if self.p < 1:
            raise ValueError("Wasserstein order p must be >= 1")

    def eval_batch(self, t, flow, X, V):
        return np.asarray(self.batch(t, flow, X, V), dtype=float)


@dataclass(frozen=True)
class LeaderField:
    """Leader drive F[t, flow](Y) -> (m, d) at the current (m, d) leader
    positions Y, with declared sublinearity constant K_F and Lipschitz
    constant L_F. Non-anticipative in the flow; rhs is the one way to
    call it."""

    fn: Callable
    K_F: float = 1.0
    L_F: float = 1.0
    name: str = "custom"

    def rhs(self, t, flow, Y, u=None):
        """F[t, flow](Y) + u(t, flow) (u may be None) as a fresh (m, d) array:
        the leader right-hand side of the finite-N and mean-field levels."""
        out = np.array(self.fn(t, flow, Y), dtype=float).reshape(Y.shape)
        if u is not None:
            out += np.asarray(u(t, flow), dtype=float).reshape(Y.shape)
        return out


@dataclass(frozen=True)
class LeaderCouplingField:
    """Leader-to-follower coupling w[t, path](z): batch(t, path, X, V) ->
    (n, d) reads the LeaderPath at its last node <= t, for every row."""

    batch: Callable
    K_w: float = 1.0
    L_w: float = 1.0
    name: str = "custom"

    def eval_batch(self, t, path, X, V):
        return np.asarray(self.batch(t, path, X, V), dtype=float)


_PAIR_BLOCK = 256
# A pair_mean call that fills and reduces at least this many values (n x
# len(A_to) x d) splits its target rows across _WORKERS threads, one per
# core the process may run on (at most _PAIR_BLOCK, so that a share's tiles
# keep a row): the calling thread and a pool of _WORKERS - 1. pair_mean's
# docstring gives the measured reason for the size.
_SPLIT_VALUES = 2**19
_WORKERS = min(len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
               _PAIR_BLOCK)
_POOL = None
_POOL_LOCK = threading.Lock()

# pair_mean's per-thread workspace: up to three flat float buffers (the
# differences a kernel reads and its values), each grown to the largest
# tile that used it.
_WORKSPACE = threading.local()


def _workspace(slot, size):
    """This thread's workspace buffer slot, at least size values: the
    differences a kernel reads take the first slots (dx before dv), and
    its values the next free one. Only the buffer asked for grows, so a
    thread whose calls never use a slot never allocates it.

    A split pair_mean call tiles each thread's share at _PAIR_BLOCK //
    _WORKERS rows, so the tiles that one call holds across all its threads
    add up to at most _PAIR_BLOCK x n x d values per buffer, as a serial
    call's one tile does; each thread keeps the largest tile it used."""
    bufs = getattr(_WORKSPACE, "bufs", None)
    if bufs is None:
        bufs = _WORKSPACE.bufs = [np.empty(0)] * 3
    if bufs[slot].size < size:
        bufs[slot] = np.empty(size)
    return bufs[slot]


def _pool():
    """The pair-sum pool of _WORKERS - 1 threads, built on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_WORKERS - 1,
                                       thread_name_prefix="pair_mean")
        return _POOL


def _drop_pool():
    """A forked child inherits the pool but none of its threads, so a split
    call would wait on it forever: the child builds a pool of its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _tile(buf, n, m, d):
    """An (n, m, d) view of the first n * m * d values of the flat buffer
    buf: component-major (n, d, m) behind it at 2 <= d <= 7, target-major
    (m, n, d) otherwise; pair_mean says why."""
    if 2 <= d <= 7:
        return buf[:n * d * m].reshape(n, d, m).transpose(0, 2, 1)
    return buf[:n * d * m].reshape(m, n, d).transpose(1, 0, 2)


def _differences(F, T, buf):
    """F[j] - T[i] for every source j and target i, written into buf and
    returned as the (n, tile, d) view _tile gives. The subtraction runs in
    the buffer's memory order: broadcast into the view itself, it is about
    six times slower at n = 512, d = 2."""
    (n, d), m = F.shape, len(T)
    flat = buf[:n * d * m]
    if 2 <= d <= 7:
        mem = flat.reshape(n, d, m)
        np.subtract(F[:, :, None], np.ascontiguousarray(T.T)[None], out=mem)
        return mem.transpose(0, 2, 1)
    mem = flat.reshape(m, n, d)
    np.subtract(F[None], T[:, None], out=mem)
    return mem.transpose(1, 0, 2)


def _pair_rows(K, A_to, A_from, B_to, B_from, out, start, stop, block):
    """Rows start:stop of pair_mean, written into out, in tiles of block
    target rows in this thread's workspace: the differences K reads take
    the first slots, and its values the next one unless K is elementwise
    and gets a difference to write over."""
    n, d = A_from.shape
    size = n * d * min(stop - start, block)
    with_dv = K.arity == "phase" and K.reads_dv and B_to is not None
    buf_a = _workspace(0, size) if K.reads_dx else None
    buf_b = _workspace(K.reads_dx, size) if with_dv else None
    in_place = K.elementwise and (K.reads_dx or with_dv)
    buf_k = None if in_place else _workspace(K.reads_dx + with_dv, size)
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        if K.reads_dx:
            dA = _differences(A_from, A_to[lo:hi], buf_a)
        else:
            dA = np.broadcast_to(0.0, (n, hi - lo, d))
        dB = _differences(B_from, B_to[lo:hi], buf_b) if with_dv else None
        if in_place:
            into = dA if dB is None else dB
        else:
            into = _tile(buf_k, n, hi - lo, d)
        # mean(axis=0) is this sum divided by n, bit for bit.
        np.divide(np.add.reduce(K(dA, dB, out=into), axis=0), n,
                  out=out[lo:hi])


def pair_mean(K, A_to, A_from, B_to=None, B_from=None):
    """(1/n) sum_j K(a_j - a_i, b_j - b_i) for every target row i.

    a_i, b_i are the rows of A_to, B_to and the sum runs over the n rows of
    A_from, B_from. Position kernels read A only, and so does a phase kernel
    that declares it reads no dv; one that reads dv and is given no B
    raises the kernel's own "needs both dx and dv". This is the one pairwise
    engine: every kernel-built field calls it, and the finite-N simulator
    steps those fields on its empirical flow. With no sources the result is
    zero rows of shape (len(A_to), d).

    Rows are processed in tiles of _PAIR_BLOCK targets, which bounds the
    temporaries to _PAIR_BLOCK x n x d values. The kernel always receives
    (n, tile, d) arrays and its values are averaged with mean(axis=0); only
    the memory layout behind that shape depends on d:

    - 2 <= d <= 7: component-major (n, d, tile). Every elementwise pass of
      the kernel and of the mean runs inner loops tile or tile x d long, not
      d long. The mean over sources is a left fold over j = 0..n-1 from +0,
      as the untiled (N, n, d) mean is at d >= 2.
    - d = 1: target-major (tile, n, 1). The sources are contiguous, so numpy
      sums them pairwise, as the untiled mean does; a component-major
      buffer would fold them left to right instead.
    - d >= 8: target-major (tile, n, d). A kernel that sums over components
      (bounded_attraction's |dx|^2) gets numpy's pairwise sum with eight
      accumulators over a contiguous component axis from 8 components on,
      and a left fold over a strided one; below 8 both are a plain left
      fold, so the component-major layout stops at d = 7.

    So every row comes out bit for bit as in the untiled sum, and never as
    -0.0 (tests/test_numpy_assumptions.py checks these summation orders),
    whatever the tile's width.

    A call that fills and reduces at least _SPLIT_VALUES = 2^19 values (n
    x len(A_to) x d; its tiles scale with d, so a rule in pairs alone would
    mis-size it by d) splits its target rows into _WORKERS contiguous
    shares, one per core the process may run on. The calling thread
    computes the first share, and a module pool of _WORKERS - 1 threads,
    built on the first such call, the others; every share is tiled at
    _PAIR_BLOCK // _WORKERS rows. numpy releases the interpreter lock in
    the differences, the kernel and the mean, so the shares overlap. Each
    row is still one tile's K(dx, dv, out=...).mean(axis=0), so the result
    has the same bytes at any core count. Smaller calls run the serial loop
    on the calling thread, and a run whose calls are all smaller builds no
    pool. If a share raises, the call raises in the caller once every
    share has finished.

    2^19 values is the smallest size at which a split did not lose when
    the second core had been idle before the call, as it is when a lone
    call starts: waking it costs about what a smaller share saves. On a
    2-core host (numpy 2.4.6; bounded_alignment and bounded_attraction at
    d = 1 and 2; 7 alternating rounds of medians of 21 calls, each after
    20 ms idle), split over serial time had medians of 1.03-1.36 below
    2^18 values, where the split won 3 of 84 rounds, 1.00-1.19 at
    2^18-2^18.5 (11 of 84) and 0.98-1.03 at 2^19 (16 of 28). Calls back
    to back gave 1.08-1.29 below 2^18 and 0.90-1.04 from 2^19 on. So the
    512 x 512, d = 2 follower sums of a coupled run split, and a 512 x 512
    sum at d = 1 does not.

    The differences live in a workspace of flat buffers per thread, reused
    across tiles and calls instead of allocated per tile: each tile takes a
    contiguous prefix of a buffer, laid out as above. A call builds only
    the differences its kernel reads (InteractionKernel.reads_dx and
    reads_dv), the first of them in the first buffer; a kernel that reads
    no dx gets a read-only zero view of the tile's shape in its place. An
    elementwise kernel writes its values over dv, else over dx, K(dx, dv,
    out=dv); any other kernel, and one that gets no difference, writes
    into the first buffer no difference holds. The values, and so the
    mean, keep the same layout either way; each tile's mean is the sum
    over sources divided by n, as mean(axis=0) computes it, written
    straight into the result. Each buffer lives as long as its thread and
    is as large as the largest tile that used it: at N = 2048, d = 2 a
    serial tile is 8 MiB and a split one on a 2-core host 4 MiB on each
    thread, so bounded_alignment keeps 8 MiB of tiles across both threads
    and bounded_attraction 16 MiB, as a serial call would. Threads never
    share them, but the engine is not reentrant: a kernel must not call
    pair_mean itself. The returned array is always fresh.
    """
    out = np.zeros(np.shape(A_to))
    n, m = len(A_from), len(A_to)
    if n == 0:
        return out
    if n * out.size < _SPLIT_VALUES or _WORKERS == 1:  # n x m x d values
        _pair_rows(K, A_to, A_from, B_to, B_from, out, 0, m, _PAIR_BLOCK)
        return out
    bounds = [m * k // _WORKERS for k in range(_WORKERS + 1)]
    shares = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    block = _PAIR_BLOCK // _WORKERS
    pool = _pool()
    futures = [pool.submit(_pair_rows, K, A_to, A_from, B_to, B_from, out,
                           lo, hi, block) for lo, hi in shares[1:]]
    try:
        _pair_rows(K, A_to, A_from, B_to, B_from, out, *shares[0], block)
    finally:
        errors = [f.exception() for f in futures]
    for error in errors:
        if error is not None:
            raise error
    return out


def drift_from_kernel(K, p=2.0):
    """Mean-field drift f[t, flow](z) = (K * mu_t)(z) where mu_t is the flow
    snapshot at the largest node <= t.

    Declared constants follow the kernel: sublinearity K = M_ker (the
    convolution of a bounded kernel is bounded), Hoelder L = L_ker with
    alpha = 1, dissipativity D = 2 L_ker (triangle split of the z and
    measure variations). Unbounded kernels propagate the unbounded flag.
    """

    def batch(t, flow, X, V, K=K):
        ens = flow.at_time(t)
        return pair_mean(K, X, ens.X, V, ens.V)

    return DriftField(batch=batch, K=K.M_ker if not K.unbounded else 1.0,
                      beta=0.0, alpha=1.0, L=K.L_ker, D=2.0 * K.L_ker, p=p,
                      name=f"conv[{K.name}]", unbounded=K.unbounded)


def constant_field(c, p=2.0):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return DriftField(batch=lambda t, flow, X, V: np.broadcast_to(c, X.shape).copy(),
                      K=float(np.linalg.norm(c)) if np.any(c) else 1.0,
                      beta=0.0, alpha=1.0, L=0.0, D=0.0, p=p, name="constant")


def zero_field(p=2.0):
    return DriftField(batch=lambda t, flow, X, V: np.zeros_like(X),
                      K=1.0, beta=0.0, alpha=1.0, L=0.0, D=0.0, p=p, name="zero")


_VALIDATOR_SLACK = 1e-9  # relative, granted to every sampled bound


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a sampled assumption check; carries the worst offender."""

    passed: bool
    worst_ratio: float
    bound: float
    n_checked: int
    worst: dict = dc_field(default_factory=dict)
    note: str = ""

    def __bool__(self):
        return self.passed

    @classmethod
    def worst_of(cls, quotients, bound, note):
        """Report on (quotient, where) samples: the worst is the first
        strict maximum, named by its where dict plus its ratio, and PASS
        iff it is <= bound within 1e-9 relative slack. A NaN quotient
        becomes the worst and stays the worst, so the check fails."""
        worst, where, n = 0.0, {}, 0
        for q, at in quotients:
            n += 1
            if not (q <= worst or math.isnan(worst)):
                worst, where = q, {**at, "ratio": q}
        return cls(passed=bool(worst <= bound * (1.0 + _VALIDATOR_SLACK)),
                   worst_ratio=worst, bound=bound, n_checked=n, worst=where,
                   note=note)


def running_sup_gap(flow_a, flow_b, p):
    """sup_{s <= t_k} wasserstein_gap(flow_a_s, flow_b_s, p) at every node
    k of two flows on a shared grid, as Python floats; a NaN gap is carried
    forward. The flows must share their node count, as for flow_gap."""
    if len(flow_a) != len(flow_b):
        raise ValueError("flows must have the same number of nodes")
    return np.maximum.accumulate(
        [wasserstein_gap(a, b, p)
         for a, b in zip(flow_a.snapshots, flow_b.snapshots)]).tolist()


def latin_hypercube_points(n, d, low, high, seed):
    """n Latin-hypercube phase points with coordinates in [low, high]^{2d}.

    Drawn with numpy alone, bit for bit scipy.stats.qmc.scale(
    qmc.LatinHypercube(d=2 d, seed=seed).random(n), low, high): uniform
    offsets, then one shuffled stratum order per coordinate."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, 2 * d))
    perms = np.tile(np.arange(1, n + 1), (2 * d, 1))
    for row in perms:
        rng.shuffle(row)
    u = (perms.T - u) / n * (high - low) + low
    return [PhasePoint(row[:d], row[d:]) for row in u]


def _at(f, t, flow, z):
    """f[t, flow](z) at one phase point, as a one-row batch."""
    return f.eval_batch(t, flow, z.x[None], z.v[None])[0]


def validate_sublinearity(f, flow, sample_z, sample_t):
    """Sampled check of the sublinear growth bound: PASS iff
    |f[t, flow](z)| <= K * (1 + |x|^{beta/3} + |v|^beta + Mbar_p(T)^{1/p})
    on every sample within 1e-9 relative slack; NaN fails. Note the
    anisotropic position exponent beta/3 (kinetic scaling: x ~ t^3, v ~ t)."""
    K, beta, p = f.K, f.beta, f.p
    mbar = sup_moment(flow, p, flow.T) ** (1.0 / p)
    quotients = ((float(np.linalg.norm(_at(f, t, flow, z)))
                  / (1.0 + np.linalg.norm(z.x) ** (beta / 3.0)
                     + np.linalg.norm(z.v) ** beta + mbar),
                  {"t": t, "z": z})
                 for t in sample_t for z in sample_z)
    return ValidationReport.worst_of(quotients, K,
                                     f"sublinearity with beta={beta}, p={p}")


def validate_hoelder(f, flow, pairs, L, alpha, R=None):
    """Sampled anisotropic Hoelder check at every node of flow.times: PASS
    iff |f(z1) - f(z2)| <= L * (|x1 - x2|^{alpha/3} + |v1 - v2|^alpha) on
    all sampled pairs within 1e-9 relative slack; NaN fails. Coincident
    pairs (quotient undefined) and, when R is given, pairs outside
    |z| <= R (the local form of the assumption) are skipped."""
    def quotients():
        for z1, z2 in pairs:
            if R is not None and (np.linalg.norm(z1.z) > R
                                  or np.linalg.norm(z2.z) > R):
                continue
            denom = np.linalg.norm(z1.x - z2.x) ** (alpha / 3.0) \
                + np.linalg.norm(z1.v - z2.v) ** alpha
            if denom == 0.0:
                continue
            for t in flow.times:
                diff = _at(f, t, flow, z1) - _at(f, t, flow, z2)
                yield (float(np.linalg.norm(diff)) / denom,
                       {"t": float(t), "z1": z1, "z2": z2})
    return ValidationReport.worst_of(quotients(), L,
                                     f"hoelder with alpha={alpha}")


def validate_dissipativity_v3pp(f, flows, samples):
    """Sampled check of the Lipschitz sufficient condition for
    dissipativity: |f[t, mu1](z1) - f[t, mu2](z2)| <= D * (sup_{s<=t}
    W_p(mu1_s, mu2_s) + |z1 - z2|) within 1e-9 relative slack; NaN fails.
    Passing certifies the integrated dissipativity assumption through the
    implication chain. The two flows must share their grid and their
    initial snapshot (the hypothesis of the condition).

    samples is an iterable of (t, z1, z2) triples.
    """
    flow1, flow2 = flows
    sup = running_sup_gap(flow1, flow2, f.p)
    if sup[0] > 1e-12:
        raise ValueError("dissipativity check requires flows sharing mu_0")

    def quotients():
        for t, z1, z2 in samples:
            denom = sup[flow1.index_at(t)] + float(np.linalg.norm(z1.z - z2.z))
            if denom == 0.0:
                continue
            diff = _at(f, t, flow1, z1) - _at(f, t, flow2, z2)
            yield (float(np.linalg.norm(diff)) / denom,
                   {"t": t, "z1": z1, "z2": z2})
    metric = "exact" if gap_is_exact(flow1.N) else "paired-bound"
    return ValidationReport.worst_of(
        quotients(), f.D, f"dissipativity sufficient condition, {metric} W_p")


def cutoff_eta(r, cap):
    """C^1 cubic cutoff: 1 on [0, cap], 0 from cap + 1 on, with
    eta(r) = 1 - 3 s^2 + 2 s^3 for s = clamp(r - cap, 0, 1). Pinned to this
    exact polynomial so truncation is reproducible bit for bit. Kept as
    clamp_drift's cutoff."""
    s = min(max(float(r) - float(cap), 0.0), 1.0)
    return min(max(1.0 - 3.0 * s * s + 2.0 * s * s * s, 0.0), 1.0)


def clamp_drift(f, N_cap):
    """Truncated field f_N[t, flow](z) = f[t, flow](z) * eta(Mbar_p(t, flow)).

    Never increases the field norm pointwise; equals f wherever the running
    moment stays at or below N_cap. Kept as the paper's moment truncation,
    which picard_solve's docstring points to.
    """
    if N_cap <= 0:
        raise ValueError("truncation cap must be positive")

    def batch(t, flow, X, V):
        eta = cutoff_eta(sup_moment(flow, f.p, t), N_cap)
        return eta * f.eval_batch(t, flow, X, V)

    return DriftField(batch=batch, K=f.K, beta=f.beta, alpha=f.alpha,
                      L=f.L, D=f.D, p=f.p, name=f"clamped[{f.name}]",
                      unbounded=f.unbounded)


def leader_field_from_kernels(K21, K22, m):
    """Kernel-built leader drive: component j is
    (K21 * mu_t)(Y_j) + (1/m) sum_i K22(Y_i - Y_j) at the current leader
    positions Y.

    A None slot contributes nothing: its pair sum is skipped, and its
    declared constants and name are those of zero_position. Declared
    constants: K_F = M_21 + M_22 and L_F = L_21 + 2 L_22 where finite.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")

    def fn(t, flow, Y):
        out = np.zeros(np.shape(Y))
        if K21 is not None:
            out += pair_mean(K21, Y, flow.at_time(t).X)
        if K22 is not None:
            out += pair_mean(K22, Y, Y)
        return out

    A, B = (K if K is not None else kernel("zero_position") for K in (K21, K22))
    K_F = (A.M_ker if not A.unbounded else 1.0) \
        + (B.M_ker if not B.unbounded else 1.0)
    L_F = A.L_ker + 2.0 * B.L_ker
    return LeaderField(fn=fn, K_F=K_F, L_F=L_F,
                       name=f"leader[{A.name},{B.name}]")


def coupling_from_kernel(K12):
    """Leader-to-follower coupling w[t, H](z) = (1/m) sum_i
    K12(Y_i(t) - x, W_i(t) - v), reading the LeaderPath H at its last
    node <= t; zero when m = 0."""

    def batch(t, path, X, V, K12=K12):
        k = path.index_at(t)
        return pair_mean(K12, X, path.Y[k], V, path.W[k])

    return LeaderCouplingField(batch=batch,
                               K_w=K12.M_ker if not K12.unbounded else 1.0,
                               L_w=K12.L_ker, name=f"coupling[{K12.name}]")


def kernel_fields(kernels, m, p=2.0):
    """(v, w, F) of the kernels in slots K11, K12, K21, K22, for m leaders:
    follower field (None without K11), coupling (None without K12) and
    leader drive; an absent or None slot contributes nothing, not even an
    added zero. Both the mean-field solver and the finite-N simulator step
    these fields."""
    K11, K12, K21, K22 = (kernels.get(s) for s in ("K11", "K12", "K21", "K22"))
    v = drift_from_kernel(K11, p=p) if K11 is not None else None
    w = coupling_from_kernel(K12) if K12 is not None else None
    return v, w, leader_field_from_kernels(K21, K22, m)
