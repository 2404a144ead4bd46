"""The numpy summation orders and powers that the bitwise claims rest on.

The untiled pair sum averages a (targets, sources, d) array of kernel
values with mean(axis=1); pair_mean hands the kernel (sources, tile, d)
views and averages with mean(axis=0), over a target-major buffer at d = 1
and d >= 8 and a component-major (sources, d, tile) one in between. Two
promises depend on the order numpy sums in: pair_mean leaves every row
bit for bit as in the untiled sum, and the finite-N simulator (the
mean-field fields on the empirical flow) reproduces its hand-written pair
sums. The W_p values depend on a scalar power. Each assumption is checked
here directly, so a numpy that changes one fails a named test rather than
only the benchmark's output digests.
"""

import math

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


def _component_major(n, tile, d, seed):
    """An (n, tile, d) view of a C-contiguous (n, d, tile) buffer, the
    layout pair_mean uses at 2 <= d <= 7."""
    return _values((n, d, tile), seed).transpose(0, 2, 1)


@pytest.mark.parametrize("tile", [1, 2, 256])
@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("n", [1, 8, 9, 300])
def test_mean_over_sources_of_a_component_major_view_is_a_left_fold(n, d, tile):
    A = _component_major(n, tile, d, seed=n * d + tile)
    want = _left_fold(A.transpose(1, 0, 2)) / n
    assert A.mean(axis=0).tobytes() == want.tobytes()


@pytest.mark.parametrize("tile", [1, 5])
def test_component_major_mean_starts_from_positive_zero(tile):
    A = -np.zeros((3, 2, tile)).transpose(0, 2, 1)
    assert A.mean(axis=0).tobytes() == np.zeros((tile, 2)).tobytes()


def test_component_major_left_fold_loses_what_pairwise_keeps():
    A = np.ones((16, 2, 4))
    A[0] = 1e16
    np.testing.assert_array_equal(A.transpose(0, 2, 1).mean(axis=0),
                                  np.full((4, 2), 1e16 / 16))


@pytest.mark.parametrize("d", range(1, 8))
def test_contiguous_sum_below_8_values_is_a_left_fold(d):
    # bounded_attraction sums |dx|^2 over the component axis: contiguous in
    # the target-major buffer, strided in the component-major one. Below 8
    # components both orders are the same plain left fold.
    A = _values((64, d), seed=d)
    fold = np.zeros(64)
    for k in range(d):
        fold = fold + A[:, k]
    assert A.sum(axis=-1).tobytes() == fold.tobytes()
    strided = np.ascontiguousarray(A.T).T
    assert strided.sum(axis=-1).tobytes() == fold.tobytes()


@pytest.mark.parametrize("d", [8, 9, 10, 16])
def test_contiguous_sum_from_8_values_is_pairwise_not_a_left_fold(d):
    # From 8 components the contiguous sum switches to eight interleaved
    # accumulators, so the component-major layout stops at d = 7.
    a = np.ones(d)
    a[0] = 1e16
    assert a.sum() == _pairwise(a.tolist()) != 1e16
    strided = np.ascontiguousarray(np.tile(a, (4, 1)).T).T
    np.testing.assert_array_equal(strided.sum(axis=-1), np.full(4, 1e16))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0])
def test_scalar_power_is_the_c_library_pow(p):
    # W_p distances end in a scalar ** (1/p), on a Python float or a numpy
    # float64. Both must be C pow, so either type gives the same bits. An
    # array ** may take a SIMD path that differs in the last bit (on an
    # AVX-512 machine it did for about 6% of these values at p = 1.5), so a
    # stacked W_p must keep a per-node scalar power.
    rng = np.random.default_rng(int(10 * p))
    x = np.abs(rng.standard_normal(2000)) * 10.0 ** rng.integers(-6, 7, 2000)
    e = 1.0 / p
    for v in x.tolist():
        want = math.pow(v, e)
        assert v ** e == want
        assert np.float64(v) ** e == want
        assert np.float64(v) ** np.float64(e) == want


# Flow functionals run over a leading node axis. paired_bounds and the
# stacked feature map give each node's value bit for bit as the per-node
# expressions do only because these stacked reductions sum each node in
# the per-node order.


@pytest.mark.parametrize("D", [2, 4, 6])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 512])
def test_stacked_row_einsum_equals_the_per_row_einsum(n, D):
    A = _values((5, n, D), seed=n + D)
    B = _values((5, n, D), seed=n + D + 1)
    got = np.einsum("kij,kij->ki", A, B)
    for k in range(5):
        assert got[k].tobytes() == np.einsum("ij,ij->i", A[k], B[k]).tobytes()


@pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 64, 127, 128, 129, 300, 2048])
def test_stacked_row_mean_equals_the_per_row_mean(n):
    # A (nodes, n) mean(axis=1) is each row's contiguous pairwise sum.
    A = _values((6, n), seed=n)
    got = A.mean(axis=1)
    for k in range(6):
        assert got[k].tobytes() == np.mean(A[k]).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 300])
def test_stacked_mean_over_particles_equals_the_per_node_mean(n, d):
    # mean(axis=-2) of a (nodes, n, d) stack, a broadcast one (a constant
    # flow) and a slice (a prefix) against mean(axis=0) of each (n, d)
    # node: pairwise over the particles at d = 1, a left fold at d >= 2.
    A = _values((6, n, d), seed=10 * n + d)
    for stack in (A, np.broadcast_to(A[2], A.shape), A[:3]):
        got = stack.mean(axis=-2)
        for k in range(len(stack)):
            assert got[k].tobytes() == stack[k].mean(axis=0).tobytes()
