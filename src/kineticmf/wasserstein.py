"""p-Wasserstein distances between equal-size uniform empirical measures.

For two uniform measures on N points each, an optimal coupling is attained
at a permutation, so W_p^p is an assignment problem on the cost matrix
|z_i - z'_j|^p. That reduction is exact, which is the whole point: these
distances are the yardstick every convergence claim in the package is
measured with.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransportPlan",
    "wasserstein_distance",
    "wasserstein_exact",
    "wasserstein_paired_bound",
    "paired_bounds",
    "wasserstein_gap",
    "gap_is_exact",
    "sliced_w1",
    "sliced_w1_points",
    "EXACT_SIZE_CAP",
    "EXACT_GAP_MAX_N",
]

_LSAP = "scipy.optimize._lsap"


def _load_lsap():
    """scipy's linear_sum_assignment, loaded from its compiled extension
    alone.

    `from scipy.optimize import ...` would load all of scipy.optimize
    (scipy.linalg and linprog among it), most of a process's start-up, for
    this one function. The extension is found in its file and registered
    under its own name, so a later import of scipy.optimize reuses it and
    hands out the same function. The file layout is private to scipy: on
    any failure the public import is used instead."""
    try:
        module = sys.modules.get(_LSAP)
        if module is None:
            scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
            finder = importlib.machinery.FileFinder(
                os.path.join(scipy_dirs[0], "optimize"),
                (importlib.machinery.ExtensionFileLoader,
                 importlib.machinery.EXTENSION_SUFFIXES))
            spec = finder.find_spec(_LSAP)
            if spec is None:
                raise ImportError(f"no compiled {_LSAP} in {finder.path}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[_LSAP] = module
            spec.loader.exec_module(module)
        return module.linear_sum_assignment
    except Exception:
        sys.modules.pop(_LSAP, None)
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment


linear_sum_assignment = _load_lsap()

# Cost matrices are dense float64; 4096^2 entries = 128 MiB is the
# ceiling. Larger ensembles must opt into sliced_w1 or the paired bound.
EXACT_SIZE_CAP = 4096

# Below this N convergence gaps use exact optimal transport; above it the
# index-paired coupling bound (an upper bound, so a convergent gap still
# certifies convergence).
EXACT_GAP_MAX_N = 256

@dataclass(frozen=True)
class TransportPlan:
    """An assignment coupling: source i pairs with target assignment[i]."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if sorted(a.tolist()) != list(range(a.size)):
            raise ValueError("assignment must be a permutation of 0..N-1")


def _check_pair(a, b, p):
    if a.N != b.N:
        raise ValueError("requires equal-size ensembles; resample to a common N first")
    if a.d != b.d:
        raise ValueError("ensembles must share the phase dimension d")
    if p < 1:
        raise ValueError("order p must be >= 1")


def _cost_matrix(a, b, p):
    za, zb = a.Z(), b.Z()
    diff = za[:, None, :] - zb[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return dist**p


def _solve(a, b, p):
    """Checks, cost matrix and one assignment solve: (cols, distance), where
    row i pairs with column cols[i] in an optimal assignment."""
    _check_pair(a, b, p)
    if a.N > EXACT_SIZE_CAP:
        raise ValueError(
            f"cost matrix {a.N}x{a.N} exceeds the exact-solver cap "
            f"{EXACT_SIZE_CAP}; use sliced_w1 or wasserstein_paired_bound")
    C = _cost_matrix(a, b, p)
    rows, cols = linear_sum_assignment(C)
    return cols, (float(C[rows, cols].sum()) / a.N) ** (1.0 / p)


def wasserstein_distance(a, b, p):
    """Exact W_p between equal-N uniform empirical measures, value only."""
    return _solve(a, b, p)[1]


def wasserstein_exact(a, b, p):
    """Exact W_p between equal-N uniform empirical measures.

    Returns (distance, TransportPlan). distance solves
    min over permutations of ((1/N) sum_i |z_i - z'_{sigma(i)}|^p)^(1/p),
    the same bits as wasserstein_distance from the same one assignment
    solve, and sigma is that solver's optimal assignment. Among cost-tied
    optima (measure-zero for continuous data) which one is returned is the
    solver's choice, the same on every call.
    """
    sigma, dist = _solve(a, b, p)
    return dist, TransportPlan(assignment=sigma)


def wasserstein_paired_bound(a, b, p):
    """Index-identity coupling bound ((1/N) sum_i |z_i - z'_i|^p)^(1/p).

    The pairing i <-> i is one admissible coupling, so this always sits at
    or above the exact distance. Under common random numbers it is the
    natural coupling between two runs of the same particles.
    """
    _check_pair(a, b, p)
    return paired_bounds(a.X[None], a.V[None], b.X[None], b.V[None], p)[0]


def paired_bounds(Xa, Va, Xb, Vb, p):
    """wasserstein_paired_bound at every node of (nodes, N, d) arrays, in
    one array pass: a list of one float per node (wasserstein_paired_bound
    is the one-node case). The differences, squared norms and means run
    over the node axis at once; only the final ** (1/p) stays a per-node
    scalar power, because numpy's array power can differ from it in the
    last bit."""
    if np.ndim(Xa) != 3 \
            or not np.shape(Xa) == np.shape(Va) == np.shape(Xb) == np.shape(Vb):
        raise ValueError("paired bounds need (nodes, N, d) arrays of one shape")
    if p < 1:
        raise ValueError("order p must be >= 1")
    diff = np.concatenate([Xa - Xb, Va - Vb], axis=2)
    dist = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
    return [float(m ** (1.0 / p)) for m in np.mean(dist**p, axis=1)]


def gap_is_exact(N):
    """Whether wasserstein_gap solves exact transport at ensemble size N."""
    return N <= EXACT_GAP_MAX_N


def wasserstein_gap(a, b, p):
    """The W_p used for convergence gaps: exact up to EXACT_GAP_MAX_N
    points, the paired bound above."""
    if gap_is_exact(a.N):
        return wasserstein_distance(a, b, p)
    return wasserstein_paired_bound(a, b, p)


def _sliced_w1_samples(A, B, n_proj, seed):
    """Per-projection 1-d W_1 values between point clouds A, B of shape (N, D)."""
    D = A.shape[1]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = np.empty(n_proj)
    for k in range(n_proj):
        if D == 1:
            # S^0 = {-1, +1}; either sign gives the same 1-d distance.
            theta = np.array([1.0 if rng.random() < 0.5 else -1.0])
        else:
            theta = rng.standard_normal(D)
            theta /= np.linalg.norm(theta)
        pa = np.sort(A @ theta)
        pb = np.sort(B @ theta)
        out[k] = np.mean(np.abs(pa - pb))
    return out


def sliced_w1_points(A, B, n_proj, seed):
    """Sliced W_1 between raw point clouds of shape (N, D), or (N,) for N
    points on the line: the average over n_proj random unit directions of
    the 1-d W_1 (sorted pairing) of the projections. In one dimension the
    projection is +/- identity and the value equals the exact W_1. Empty
    clouds are refused."""
    A, B = (np.asarray(C, dtype=float) for C in (A, B))
    A, B = (C[:, None] if C.ndim == 1 else C for C in (A, B))
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("point clouds must have shape (N,) or (N, D)")
    if A.shape != B.shape:
        raise ValueError("requires equal-size point clouds")
    if A.size == 0:
        raise ValueError("point clouds must not be empty")
    if n_proj < 1:
        raise ValueError("n_proj must be >= 1")
    return float(np.mean(_sliced_w1_samples(A, B, n_proj, seed)))


def sliced_w1(a, b, n_proj, seed):
    """Sliced W_1 surrogate on ensembles; projects the concatenated
    z = (x, v) cloud, deterministic for a given seed."""
    _check_pair(a, b, 1)
    return sliced_w1_points(a.Z(), b.Z(), n_proj, seed)
