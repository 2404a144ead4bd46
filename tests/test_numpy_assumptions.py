"""The numpy summation orders that the bitwise claims rest on.

pair_mean averages a (targets, sources, d) array of kernel values with
mean(axis=1). Two promises depend on the order numpy sums in: tiling the
targets leaves every row bit for bit as in the untiled sum, and the
finite-N simulator (the mean-field fields on the empirical flow)
reproduces its hand-written pair sums. Each order is checked here
directly, so a numpy that changes one fails a named test rather than only
the benchmark's output digests.
"""

import numpy as np
import pytest


def _pairwise(a):
    """numpy's pairwise sum of a contiguous 1-D float64 array: below 8
    terms a plain loop, up to 128 eight interleaved accumulators combined
    as a tree, beyond that the two halves split at a multiple of 8."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = list(a[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a[:n2]) + _pairwise(a[n2:])


def _left_fold(A):
    """sum_j A[:, j, :] added one source at a time, from +0."""
    acc = np.zeros((A.shape[0], A.shape[2]))
    for j in range(A.shape[1]):
        acc = acc + A[:, j, :]
    return acc


def _values(shape, seed):
    # Spread magnitudes so that a different summation order shows.
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)


def _cancelling(n, d):
    # One large term and n - 1 ones: a left fold loses every one, the
    # pairwise tree keeps most of them.
    A = np.ones((1, n, d))
    A[0, 0, :] = 1e16
    return A


@pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 64, 127, 128, 129, 300, 1000, 2048])
def test_mean_over_sources_at_d1_is_the_contiguous_pairwise_sum(n):
    A = _values((4, n, 1), seed=n)
    got = A.mean(axis=1)
    contiguous = np.array([[np.ascontiguousarray(A[i, :, 0]).sum() / n]
                           for i in range(4)])
    model = np.array([[_pairwise(A[i, :, 0].tolist()) / n] for i in range(4)])
    assert got.tobytes() == contiguous.tobytes()
    assert got.tobytes() == model.tobytes()


def test_pairwise_and_sequential_orders_differ_at_d1():
    A = _cancelling(16, 1)
    assert A.mean(axis=1)[0, 0] == (1e16 + 14.0) / 16
    assert _left_fold(A)[0, 0] == 1e16


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 5, 8, 9, 64, 300, 2048])
def test_mean_over_sources_at_d2_up_is_a_left_fold(n, d):
    A = _values((4, n, d), seed=10 * n + d)
    assert A.mean(axis=1).tobytes() == (_left_fold(A) / n).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_left_fold_at_d2_up_loses_what_pairwise_keeps(d):
    A = _cancelling(16, d)
    np.testing.assert_array_equal(A.mean(axis=1), np.full((1, d), 1e16 / 16))


@pytest.mark.parametrize("shape", [(2, 3, 1), (2, 16, 1), (2, 300, 1), (2, 9, 2)])
def test_sums_start_from_positive_zero(shape):
    # A pair mean is never -0.0, so adding it to a zeros accumulator (as a
    # hand-written drift sum does) changes no byte.
    A = -np.zeros(shape)
    assert A.mean(axis=1).tobytes() == np.zeros((shape[0], shape[2])).tobytes()
