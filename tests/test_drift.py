"""Kernel library, drift construction, truncation, and validator tests."""

import contextlib
import hashlib
import math
import os
import select
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf import cli, drift
from kineticmf.drift import (
    KERNEL_NAMES,
    DriftField,
    InteractionKernel,
    clamp_drift,
    constant_field,
    coupling_from_kernel,
    cutoff_eta,
    drift_from_kernel,
    kernel,
    latin_hypercube_points,
    leader_field_from_kernels,
    pair_mean,
    running_sup_gap,
    validate_dissipativity_v3pp,
    validate_hoelder,
    validate_sublinearity,
    zero_field,
)
from kineticmf.meanfield import flow_gap
from kineticmf.phase_space import (
    LeaderPath,
    LeaderState,
    MeasureFlow,
    ParticleEnsemble,
    PhasePoint,
    time_grid,
)


def _flow_from_seeds(N, d, seeds, times=None):
    snaps = []
    for s in seeds:
        rng = np.random.default_rng(s)
        snaps.append(ParticleEnsemble(rng.standard_normal((N, d)),
                                      rng.standard_normal((N, d))))
    if times is None:
        times = time_grid(1.0, len(seeds) - 1) if len(seeds) > 1 else [0.0]
    return MeasureFlow(times, snaps)


def _origin_flow(d=1, N=1):
    ens = ParticleEnsemble(np.zeros((N, d)), np.zeros((N, d)))
    return MeasureFlow.constant(ens, time_grid(1.0, 2))


# (name, d): (repr(L_ker), repr(M_ker), arity, unbounded, the first 16
# hex digits of the SHA-256 of K(dx, dv)'s bytes), with params {"value":
# -0.75} and dx, dv the two (7, d) standard normal draws of default_rng(d).
_RECORDED_KERNELS = {
    ("zero", 1):
        ("0.0", "0.0", "phase", False, "d4817aa5497628e7"),
    ("constant", 1):
        ("0.0", "0.75", "phase", False, "94f20fa4329688a3"),
    ("alignment", 1):
        ("1.0", "inf", "phase", True, "9544a88406e489e2"),
    ("bounded_alignment", 1):
        ("1.0", "1.0", "phase", False, "f680e1525f950ad1"),
    ("attraction", 1):
        ("1.0", "inf", "phase", True, "37fbcc933903188f"),
    ("bounded_attraction", 1):
        ("1.0", "0.5", "phase", False, "20b4d67630093839"),
    ("zero_position", 1):
        ("0.0", "0.0", "position", False, "d4817aa5497628e7"),
    ("attraction_position", 1):
        ("1.0", "inf", "position", True, "37fbcc933903188f"),
    ("bounded_attraction_position", 1):
        ("1.0", "0.5", "position", False, "20b4d67630093839"),
    ("zero", 2):
        ("0.0", "0.0", "phase", False, "b5fdab78d8947eac"),
    ("constant", 2):
        ("0.0", "1.0606601717798212", "phase", False, "f370e95c755f3bc6"),
    ("alignment", 2):
        ("1.0", "inf", "phase", True, "b24d2f1703e6879d"),
    ("bounded_alignment", 2):
        ("1.0", "1.4142135623730951", "phase", False, "e22944b163a31b5e"),
    ("attraction", 2):
        ("1.0", "inf", "phase", True, "f9ca33010ef9ad73"),
    ("bounded_attraction", 2):
        ("1.0", "0.5", "phase", False, "a19d4fa9b0d46163"),
    ("zero_position", 2):
        ("0.0", "0.0", "position", False, "b5fdab78d8947eac"),
    ("attraction_position", 2):
        ("1.0", "inf", "position", True, "f9ca33010ef9ad73"),
    ("bounded_attraction_position", 2):
        ("1.0", "0.5", "position", False, "a19d4fa9b0d46163"),
    ("zero", 3):
        ("0.0", "0.0", "phase", False, "e3c2af35d1dfc500"),
    ("constant", 3):
        ("0.0", "1.299038105676658", "phase", False, "c7c5eabbece4c0c6"),
    ("alignment", 3):
        ("1.0", "inf", "phase", True, "30674a1fc0130e07"),
    ("bounded_alignment", 3):
        ("1.0", "1.7320508075688772", "phase", False, "276ba4caff99382d"),
    ("attraction", 3):
        ("1.0", "inf", "phase", True, "8992b56d08e2257e"),
    ("bounded_attraction", 3):
        ("1.0", "0.5", "phase", False, "117f578d0d9d967e"),
    ("zero_position", 3):
        ("0.0", "0.0", "position", False, "e3c2af35d1dfc500"),
    ("attraction_position", 3):
        ("1.0", "inf", "position", True, "8992b56d08e2257e"),
    ("bounded_attraction_position", 3):
        ("1.0", "0.5", "position", False, "117f578d0d9d967e"),
}


class TestKernelLibrary:
    def test_all_names_construct(self):
        for name in KERNEL_NAMES:
            K = kernel(name, d=2, params={"value": 0.5})
            assert K.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="^unknown kernel 'gravity'$"):
            kernel("gravity")

    def test_bounded_attraction_hand_value(self):
        K = kernel("bounded_attraction")
        out = K(np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [0.5])
        # Magnitude peaks at |dx| = 1 with value 1/2, matching M_ker.
        assert K.M_ker == 0.5

    def test_bounded_alignment_is_tanh(self):
        K = kernel("bounded_alignment", d=2)
        dv = np.array([0.3, -1.2])
        np.testing.assert_allclose(K(np.zeros(2), dv), np.tanh(dv))
        assert K.M_ker == pytest.approx(math.sqrt(2))

    def test_alignment_returns_velocity_difference(self):
        K = kernel("alignment")
        np.testing.assert_array_equal(K(np.array([5.0]), np.array([2.0])), [2.0])
        assert K.unbounded

    def test_constant_kernel_uses_value_param(self):
        K = kernel("constant", d=2, params={"value": 3.0})
        np.testing.assert_array_equal(K(np.zeros(2), np.zeros(2)), [3.0, 3.0])
        with pytest.raises(ValueError, match="dimension"):
            kernel("constant")

    def test_phase_kernel_requires_dv(self):
        K = kernel("bounded_alignment", d=1)
        with pytest.raises(ValueError, match="needs both"):
            K(np.array([0.0]))

    def test_position_kernel_ignores_velocity(self):
        K = kernel("bounded_attraction_position")
        np.testing.assert_allclose(K(np.array([1.0])), [0.5])

    def test_library_matches_the_recorded_kernels(self):
        # _RECORDED_KERNELS pins every row of the table, bit for bit.
        assert KERNEL_NAMES == (
            "zero", "constant", "alignment", "bounded_alignment",
            "attraction", "bounded_attraction", "zero_position",
            "attraction_position", "bounded_attraction_position")
        assert {name for name, _ in _RECORDED_KERNELS} == set(KERNEL_NAMES)
        for (name, d), row in _RECORDED_KERNELS.items():
            rng = np.random.default_rng(d)
            dx, dv = rng.standard_normal((2, 7, d))
            K = kernel(name, d=d, params={"value": -0.75})
            digest = hashlib.sha256(K(dx, dv).tobytes()).hexdigest()
            assert (repr(K.L_ker), repr(K.M_ker), K.arity, K.unbounded,
                    digest[:16]) == row, (name, d)

    @pytest.mark.parametrize("name", ["constant", "bounded_alignment"])
    def test_dimension_free_construction_names_the_kernel(self, name):
        with pytest.raises(ValueError) as exc:
            kernel(name)
        assert str(exc.value) == f"{name} kernel needs the dimension d"

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            InteractionKernel("bad", lambda dx: dx, 1.0, 1.0,
                              arity="diagonal")


def _at_point(K, X, V, z):
    """(1/n) sum_i K(X_i - x, V_i - v) at the one point z = (x, v)."""
    return pair_mean(K, z.x[None], X, z.v[None], V)[0]


class TestConvolution:
    def test_two_particle_hand_value(self):
        # Attraction kernel: (K * mu)(z) = mean_i (x_i - x).
        K = kernel("attraction")
        ens = ParticleEnsemble([[0.0], [2.0]], [[0.0], [0.0]])
        out = _at_point(K, ens.X, ens.V, PhasePoint([1.0], [0.0]))
        np.testing.assert_allclose(out, [0.0])
        out = _at_point(K, ens.X, ens.V, PhasePoint([0.0], [0.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_dimension_mismatch_rejected(self):
        K = kernel("zero")
        ens = ParticleEnsemble([[0.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            _at_point(K, ens.X, ens.V, PhasePoint([0.0], [0.0]))

    def test_batch_agrees_with_scalar_path(self):
        rng = np.random.default_rng(60)
        flow = _flow_from_seeds(9, 2, seeds=[1, 2, 3])
        X = rng.standard_normal((7, 2))
        V = rng.standard_normal((7, 2))
        for name in ("bounded_alignment", "bounded_attraction", "zero"):
            f = drift_from_kernel(kernel(name, d=2))
            batch = f.eval_batch(0.5, flow, X, V)
            ens = flow.at_time(0.5)
            rows = np.stack([_at_point(kernel(name, d=2), ens.X, ens.V,
                                       PhasePoint(X[i], V[i]))
                             for i in range(7)])
            np.testing.assert_array_equal(batch, rows)

    def test_leader_coupling_empty_returns_zero(self):
        K = kernel("bounded_attraction_position")
        leaders = LeaderState.empty(3)
        out = _at_point(K, leaders.Y, np.zeros_like(leaders.Y),
                        PhasePoint([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_leader_coupling_hand_value(self):
        K = kernel("bounded_attraction_position")
        leaders = LeaderState([[2.0]])
        out = _at_point(K, leaders.Y, np.zeros_like(leaders.Y),
                        PhasePoint([1.0], [0.0]))
        np.testing.assert_allclose(out, [0.5])


class TestFieldConstruction:
    def test_drift_from_kernel_inherits_constants(self):
        f = drift_from_kernel(kernel("bounded_attraction"))
        assert f.K == 0.5
        assert f.L == 1.0
        assert f.D == 2.0
        assert f.name == "conv[bounded_attraction]"
        assert not f.unbounded

    def test_unbounded_flag_propagates(self):
        assert drift_from_kernel(kernel("alignment")).unbounded

    def test_constant_field_broadcasts(self):
        f = constant_field([1.0, -2.0])
        flow = _origin_flow(d=2)
        np.testing.assert_array_equal(
            f.eval_batch(0.0, flow, np.zeros((3, 2)), np.zeros((3, 2))),
            np.tile([1.0, -2.0], (3, 1)))

    def test_zero_field_is_zero(self):
        f = zero_field()
        flow = _origin_flow(d=2)
        out = f.eval_batch(0.3, flow, np.array([[1.0, 2.0]]),
                           np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_exponent_windows_enforced(self):
        ok = lambda t, flow, X, V: V
        with pytest.raises(ValueError):
            DriftField(batch=ok, beta=1.0)
        with pytest.raises(ValueError):
            DriftField(batch=ok, beta=0.5, alpha=0.5)
        with pytest.raises(ValueError):
            DriftField(batch=ok, p=0.5)


class TestLatinHypercube:
    def test_count_dimension_and_bounds(self):
        pts = latin_hypercube_points(50, 3, -2.0, 2.0, seed=9)
        assert len(pts) == 50
        for z in pts:
            assert z.d == 3
            assert np.all(np.abs(z.z) <= 2.0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32 + 5, 2**63,
                                      10**30])
    def test_is_scipy_latin_hypercube_bitwise(self, seed):
        from scipy.stats import qmc

        for n, d in [(1, 1), (2, 3), (13, 2), (100, 1), (37, 10)]:
            want = qmc.scale(qmc.LatinHypercube(d=2 * d, seed=seed).random(n),
                             -3.0, 3.0)
            got = [np.concatenate([z.x, z.v])
                   for z in latin_hypercube_points(n, d, -3.0, 3.0, seed)]
            assert np.array(got).tobytes() == want.tobytes(), (n, d)

    def test_deterministic_in_seed(self):
        a = latin_hypercube_points(10, 1, 0.0, 1.0, seed=4)
        b = latin_hypercube_points(10, 1, 0.0, 1.0, seed=4)
        for za, zb in zip(a, b):
            np.testing.assert_array_equal(za.z, zb.z)


class TestSublinearityValidator:
    def test_bounded_kernels_pass(self):
        flow = _flow_from_seeds(16, 1, seeds=[0, 1, 2])
        pts = latin_hypercube_points(100, 1, -5.0, 5.0, seed=2)
        for name in ("bounded_alignment", "bounded_attraction"):
            f = drift_from_kernel(kernel(name, d=1))
            rep = validate_sublinearity(f, flow, pts, flow.times)
            assert rep.passed
            assert bool(rep) is True
            assert rep.n_checked == 300

    def test_linear_kernel_fails_with_offender(self):
        f = drift_from_kernel(kernel("alignment"))
        flow = _origin_flow(d=1)
        pts = latin_hypercube_points(64, 1, -8.0, 8.0, seed=5)
        rep = validate_sublinearity(f, flow, pts, [0.0, 1.0])
        assert not rep.passed
        assert rep.worst_ratio > rep.bound
        # The offending sample must be reported, not just the ratio.
        assert "z" in rep.worst
        assert np.linalg.norm(rep.worst["z"].v) > 1.0


class TestHoelderValidator:
    def test_bounded_attraction_passes_with_declared_constants(self):
        flow = _flow_from_seeds(8, 1, seeds=[3, 4])
        pts = latin_hypercube_points(60, 1, -4.0, 4.0, seed=7)
        pairs = list(zip(pts[0::2], pts[1::2]))
        f = drift_from_kernel(kernel("bounded_attraction"))
        rep = validate_hoelder(f, flow, pairs, L=f.L, alpha=f.alpha)
        assert rep.passed
        assert rep.worst_ratio <= f.L * (1 + 1e-9)

    def test_coincident_pairs_skipped(self):
        f = zero_field()
        flow = _origin_flow(d=1)
        z = PhasePoint([1.0], [1.0])
        rep = validate_hoelder(f, flow, [(z, z)], L=1.0, alpha=1.0)
        assert rep.n_checked == 0
        assert rep.passed

    def test_radius_filter_skips_distant_pairs(self):
        f = zero_field()
        flow = _origin_flow(d=1)
        near = (PhasePoint([0.1], [0.0]), PhasePoint([0.2], [0.0]))
        far = (PhasePoint([50.0], [0.0]), PhasePoint([60.0], [0.0]))
        rep = validate_hoelder(f, flow, [near, far], L=1.0, alpha=1.0, R=1.0)
        assert rep.n_checked == len(flow.times)

    def test_violation_detected(self):
        # A step function is not Hoelder with any small constant.
        f = DriftField(batch=lambda t, flow, X, V: np.sign(V), L=0.01)
        flow = _origin_flow(d=1)
        pair = (PhasePoint([0.0], [-0.01]), PhasePoint([0.0], [0.01]))
        rep = validate_hoelder(f, flow, [pair], L=f.L, alpha=1.0)
        assert not rep.passed


class TestDissipativityValidator:
    @staticmethod
    def _paired_flows(N=12, d=1, seed=17):
        rng = np.random.default_rng(seed)
        shared = ParticleEnsemble(rng.standard_normal((N, d)),
                                  rng.standard_normal((N, d)))
        def later():
            return ParticleEnsemble(rng.standard_normal((N, d)),
                                    rng.standard_normal((N, d)))
        times = time_grid(1.0, 2)
        flow1 = MeasureFlow(times, [shared, later(), later()])
        flow2 = MeasureFlow(times, [shared, later(), later()])
        return flow1, flow2

    def test_bounded_alignment_within_declared_constant(self):
        flow1, flow2 = self._paired_flows()
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        rng = np.random.default_rng(23)
        samples = [(float(rng.uniform(0, 1)),
                    PhasePoint(rng.standard_normal(1), rng.standard_normal(1)),
                    PhasePoint(rng.standard_normal(1), rng.standard_normal(1)))
                   for _ in range(200)]
        rep = validate_dissipativity_v3pp(f, (flow1, flow2), samples)
        assert rep.passed
        assert "exact" in rep.note

    def test_shared_initial_snapshot_required(self):
        rng = np.random.default_rng(2)
        mk = lambda: MeasureFlow.constant(
            ParticleEnsemble(rng.standard_normal((4, 1)),
                             rng.standard_normal((4, 1))), [0.0, 1.0])
        f = zero_field()
        with pytest.raises(ValueError, match="mu_0"):
            validate_dissipativity_v3pp(f, (mk(), mk()), [])


class TestValidatorTieAndSkipRules:
    """Tied ratios keep the first sample in scan order (strict >), and
    samples whose quotient is undefined are skipped, not counted."""

    def test_sublinearity_tie_keeps_first_time_then_first_point(self):
        f = constant_field([0.6, 0.8, 0.0])
        flow = _origin_flow(d=3)
        a = PhasePoint([1.0, 0.0, 2.0], [0.5, 0.5, 0.0])
        b = PhasePoint(a.x, a.v)
        rep = validate_sublinearity(f, flow, [a, b], [0.0, 0.5])
        assert rep.n_checked == 4
        assert rep.worst["t"] == 0.0
        assert rep.worst["z"] is a

    def test_hoelder_tie_keeps_first_pair_then_first_time(self):
        f = DriftField(batch=lambda t, flow, X, V: np.tanh(X) + V)
        flow = _origin_flow(d=2)
        z1, z2 = PhasePoint([0.0, 1.0], [1.0, 0.0]), PhasePoint([1.0, 1.0], [0.0, 0.0])
        pairs = [(z1, z2), (PhasePoint(z1.x, z1.v), PhasePoint(z2.x, z2.v))]
        rep = validate_hoelder(f, flow, pairs, L=1.0, alpha=1.0)
        assert rep.n_checked == 2 * len(flow.times)
        assert rep.worst["z1"] is z1
        assert rep.worst["t"] == float(flow.times[0])

    def test_dissipativity_zero_denominator_skipped(self):
        flow1, flow2 = TestDissipativityValidator._paired_flows(N=4, d=2)
        f = drift_from_kernel(kernel("bounded_alignment", d=2))
        z = PhasePoint([0.3, -0.2], [1.0, 0.5])
        w = PhasePoint([0.0, 0.0], [0.0, 0.0])
        # Shared mu_0 and z1 = z2 at t = 0: the quotient is undefined.
        rep = validate_dissipativity_v3pp(f, (flow1, flow2), [(0.0, z, z)])
        assert (rep.n_checked, rep.worst_ratio, rep.worst) == (0, 0.0, {})
        rep = validate_dissipativity_v3pp(f, (flow1, flow2),
                                          [(0.0, z, z), (0.0, z, w)])
        assert rep.n_checked == 1
        assert rep.worst["z2"] is w

    def test_empty_samples_check_nothing(self):
        f = zero_field()
        flow = _origin_flow(d=2)
        for rep in (validate_sublinearity(f, flow, [], flow.times),
                    validate_sublinearity(f, flow,
                                          [PhasePoint([0, 0], [1, 1])], []),
                    validate_hoelder(f, flow, [], L=1.0, alpha=1.0)):
            assert (rep.n_checked, rep.worst_ratio, rep.worst) == (0, 0.0, {})
            assert rep.passed


def _nan_where(mask):
    """A field that is NaN on the rows mask(X, V) selects, 10 V elsewhere."""
    return DriftField(batch=lambda t, flow, X, V: np.where(mask(X, V),
                                                           np.nan, 10.0 * V))


class TestNanQuotientFails:
    """A NaN quotient is the worst sample from the first one on and fails
    the check; comparing it with > would lose it and pass."""

    def test_sublinearity_keeps_the_first_nan_over_larger_finite_ones(self):
        f = _nan_where(lambda X, V: X > 0)
        flow = _origin_flow(d=1)
        small, nan, big = (PhasePoint([-1.0], [0.5]), PhasePoint([1.0], [0.0]),
                           PhasePoint([-1.0], [5.0]))
        rep = validate_sublinearity(f, flow, [small, nan, big, nan],
                                    [0.0, 0.5])
        assert not rep.passed
        assert math.isnan(rep.worst_ratio)
        assert rep.n_checked == 8
        assert rep.worst["t"] == 0.0
        assert rep.worst["z"] is nan
        assert math.isnan(rep.worst["ratio"])

    def test_hoelder_nan_fails_at_the_first_pair_and_time(self):
        f = _nan_where(lambda X, V: np.ones_like(X, dtype=bool))
        flow = _origin_flow(d=1)
        pairs = [(PhasePoint([0.0], [0.0]), PhasePoint([1.0], [1.0])),
                 (PhasePoint([2.0], [0.0]), PhasePoint([1.0], [1.0]))]
        rep = validate_hoelder(f, flow, pairs, L=1.0, alpha=1.0)
        assert not rep.passed
        assert math.isnan(rep.worst_ratio)
        assert rep.n_checked == 2 * len(flow.times)
        assert rep.worst["z1"] is pairs[0][0]
        assert rep.worst["t"] == float(flow.times[0])

    def test_dissipativity_nan_fails_at_the_first_sample(self):
        flow1, flow2 = TestDissipativityValidator._paired_flows(N=4)
        f = _nan_where(lambda X, V: np.ones_like(X, dtype=bool))
        z, w = PhasePoint([0.3], [1.0]), PhasePoint([0.0], [0.0])
        rep = validate_dissipativity_v3pp(f, (flow1, flow2),
                                          [(0.5, z, w), (1.0, w, z)])
        assert not rep.passed
        assert math.isnan(rep.worst_ratio)
        assert rep.n_checked == 2
        assert (rep.worst["t"], rep.worst["z1"]) == (0.5, z)


class TestRunningSupGap:
    @pytest.mark.parametrize("N", [5, 300], ids=["exact", "paired-bound"])
    def test_is_flow_gap_of_every_prefix_bitwise(self, N):
        flow1 = _flow_from_seeds(N, 1, seeds=range(6))
        flow2 = _flow_from_seeds(N, 1, seeds=range(6, 12))
        sup = running_sup_gap(flow1, flow2, 1.0)
        assert all(type(w) is float for w in sup)
        assert sup == [flow_gap(flow1.prefix(t), flow2.prefix(t), 1.0)
                       for t in flow1.times]

    def test_refuses_flows_with_different_node_counts(self):
        flow1, _ = TestDissipativityValidator._paired_flows(N=4)
        short = MeasureFlow(time_grid(1.0, 1), flow1.snapshots[:2])
        with pytest.raises(ValueError, match="same number of nodes"):
            running_sup_gap(flow1, short, 2.0)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        z = PhasePoint([0.0], [1.0])
        with pytest.raises(ValueError, match="same number of nodes"):
            validate_dissipativity_v3pp(f, (flow1, short), [(0.0, z, z)])


class TestTruncation:
    def test_cutoff_pinned_values(self):
        assert cutoff_eta(0.0, 2.0) == 1.0
        assert cutoff_eta(2.0, 2.0) == 1.0
        assert cutoff_eta(2.5, 2.0) == 0.5
        assert cutoff_eta(3.0, 2.0) == 0.0
        assert cutoff_eta(10.0, 2.0) == 0.0

    def test_cutoff_monotone_on_ramp(self):
        vals = [cutoff_eta(2.0 + s, 2.0) for s in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamp_inactive_below_cap(self):
        flow = _origin_flow(d=1, N=4)
        f = constant_field([2.0])
        fc = clamp_drift(f, N_cap=1.0)
        X, V = np.array([[0.5]]), np.array([[0.5]])
        np.testing.assert_array_equal(fc.eval_batch(0.0, flow, X, V),
                                      f.eval_batch(0.0, flow, X, V))

    def test_clamp_kills_field_beyond_ramp(self):
        big = ParticleEnsemble([[10.0]], [[0.0]])
        flow = MeasureFlow.constant(big, time_grid(1.0, 1))
        fc = clamp_drift(constant_field([2.0]), N_cap=1.0)
        np.testing.assert_array_equal(
            fc.eval_batch(0.5, flow, np.zeros((1, 1)), np.zeros((1, 1))), [[0.0]])

    def test_clamp_never_increases_norm(self):
        rng = np.random.default_rng(11)
        flow = _flow_from_seeds(6, 2, seeds=[5, 6])
        f = drift_from_kernel(kernel("bounded_alignment", d=2))
        fc = clamp_drift(f, N_cap=0.5)
        for _ in range(20):
            X, V = rng.standard_normal((2, 1, 2))
            t = float(rng.uniform(0, 1))
            assert (np.linalg.norm(fc.eval_batch(t, flow, X, V))
                    <= np.linalg.norm(f.eval_batch(t, flow, X, V)) + 1e-15)

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            clamp_drift(zero_field(), N_cap=0.0)


def _untiled_pair_mean(K, A_to, A_from, B_to, B_from):
    """Reference: the whole N x n x d difference arrays in one kernel call
    (a position kernel ignores the second), averaged over the sources."""
    return np.asarray(K(A_from[None] - A_to[:, None],
                        B_from[None] - B_to[:, None]), dtype=float).mean(axis=1)


class TestPairMean:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1, 2, 255, 256, 257, 3 * 256 + 1]),
           st.sampled_from([1, 7, 8, 9, 129, 300]),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=80, deadline=None)
    def test_tiles_reproduce_the_untiled_sum_bitwise(self, seed, N, n, d):
        # pair_mean lays its tiles out component-major at 2 <= d <= 7 and
        # target-major at d = 1 and d >= 8; either way every library kernel
        # must give the untiled sum's bytes. Magnitudes spread over six
        # decades so that a changed summation order shows in the last bit.
        rng = np.random.default_rng(seed)

        def draw(rows):
            return (rng.standard_normal((2, rows, d))
                    * 10.0 ** rng.integers(-3, 4, size=(2, rows, d)))

        (A_to, B_to), (A_from, B_from) = draw(N), draw(n)
        for name in KERNEL_NAMES:
            K = kernel(name, d=d, params={"value": float(rng.standard_normal())})
            got = pair_mean(K, A_to, A_from, B_to, B_from)
            want = _untiled_pair_mean(K, A_to, A_from, B_to, B_from)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("name", ["bounded_alignment",
                                      "bounded_attraction_position"])
    def test_no_sources_gives_zero_rows(self, name):
        K = kernel(name, d=3)
        out = pair_mean(K, np.ones((5, 3)), np.empty((0, 3)),
                        np.ones((5, 3)), np.empty((0, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 3)))


def _laid_out(a, component_major):
    """A copy of the (n, m, d) array a behind a component-major (n, d, m)
    or a target-major (m, n, d) buffer, as pair_mean lays out its tiles."""
    if component_major:
        return np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


def _strides(a):
    """a's memory layout: the strides of its axes longer than one."""
    return [s for s, k in zip(a.strides, a.shape) if k > 1]


def _in_fresh_thread(fn, *args):
    """fn(*args) on a new thread, whose pair_mean workspace starts empty."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)))
    worker.start()
    worker.join()
    return result[0]


def _spread(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)


@contextlib.contextmanager
def _forced_split():
    """Yields force: force(workers, values=1) makes every pair_mean call of
    at least values values (n x len(A_to) x d) split its rows across
    workers threads, on a pool that the first such call builds. On leaving,
    and on the next force, that pool is shut down; a pool the module held
    before the first force is never touched, and comes back on leaving."""
    forced = False

    def shut_own_pool():
        if forced and drift._POOL is not None:
            drift._POOL.shutdown()

    with pytest.MonkeyPatch.context() as mp:
        def force(workers, values=1):
            nonlocal forced
            shut_own_pool()
            mp.setattr(drift, "_SPLIT_VALUES", values)
            mp.setattr(drift, "_WORKERS", workers)
            mp.setattr(drift, "_POOL", None)
            forced = True

        try:
            yield force
        finally:
            shut_own_pool()


@pytest.fixture
def split():
    """_forced_split's force for one test."""
    with _forced_split() as force:
        yield force


class TestPairWorkspace:
    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("component_major", [True, False])
    def test_out_path_equals_the_allocating_call(self, d, component_major):
        rng = np.random.default_rng(d)
        dx = _laid_out(_spread(rng, (9, 5, d)), component_major)
        dv = _laid_out(_spread(rng, (9, 5, d)), component_major)
        before = dx.tobytes(), dv.tobytes()
        for name in KERNEL_NAMES:
            K = kernel(name, d=d, params={"value": -0.25})
            fresh = K(dx, dv)
            assert _strides(fresh) == _strides(dx), name
            out = _laid_out(np.full(dx.shape, np.nan), component_major)
            assert K(dx, dv, out=out) is out
            assert out.tobytes() == fresh.tobytes(), name
            assert (dx.tobytes(), dv.tobytes()) == before, name

    def test_returned_values_survive_a_later_pair_mean(self):
        rng = np.random.default_rng(3)
        dx, dv = rng.standard_normal((2, 40, 300, 2))
        K = kernel("bounded_alignment", d=2)
        vals = K(dx, dv)
        kept = vals.tobytes()
        A, B = rng.standard_normal((2, 300, 2))
        pair_mean(K, A, A, B, B)
        assert vals.tobytes() == kept

    def test_growing_then_shrinking_calls_match_fresh_calls(self):
        # Sizes grow past one tile and shrink again with d and the kernel
        # changing between calls, so a stale prefix of a larger or
        # differently laid out tile would show in the bytes.
        rng = np.random.default_rng(11)
        calls = []
        for (N, n), d, name in zip(
                [(3, 4), (300, 40), (600, 257), (257, 600), (40, 300), (2, 3),
                 (513, 9), (1, 1)],
                [1, 3, 8, 2, 10, 7, 1, 4],
                ["bounded_attraction", "bounded_alignment", "bounded_attraction",
                 "constant", "attraction_position", "alignment", "zero",
                 "bounded_attraction_position"]):
            K = kernel(name, d=d, params={"value": 1.5})
            A_to, B_to = _spread(rng, (2, N, d))
            A_from, B_from = _spread(rng, (2, n, d))
            calls.append((K, A_to, A_from, B_to, B_from))

        def run_all(calls):
            return [pair_mean(*c).tobytes() for c in calls]

        fresh = [_in_fresh_thread(pair_mean, *c).tobytes() for c in calls]
        assert _in_fresh_thread(run_all, calls) == fresh
        assert _in_fresh_thread(run_all, calls[::-1]) == fresh[::-1]

    @pytest.mark.parametrize("workers", [None, 2, 3])
    def test_concurrent_threads_give_the_serial_bytes(self, split, workers):
        # With workers set, every call splits, and both callers' shares
        # queue on the one pool: up to five threads on the host's cores,
        # switching every 10 us.
        rng = np.random.default_rng(5)
        jobs = []
        for d, name in [(2, "bounded_alignment"), (1, "bounded_attraction")]:
            K = kernel(name, d=d)
            A, B = _spread(rng, (2, 600, d))
            jobs.append([(K, A[:N], A, B[:N], B) for N in (600, 300, 513)] * 4)
        serial = [[pair_mean(*c).tobytes() for c in job] for job in jobs]
        if workers is not None:
            split(workers)
        start = threading.Barrier(len(jobs))
        got = [None] * len(jobs)

        def worker(i):
            start.wait()
            got[i] = [pair_mean(*c).tobytes() for c in jobs[i]]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == serial

    def test_repeated_calls_reuse_the_workspace(self, split):
        # On one thread, one 256 x 512 x 2 tile of differences is 2 MiB; a
        # call that reuses the workspace allocates only its result and row
        # means.
        rng = np.random.default_rng(8)
        X, V = rng.standard_normal((2, 512, 2))
        K = kernel("bounded_alignment", d=2)
        split(1)

        def second_call_peak():
            pair_mean(K, X, X, V, V)
            tracemalloc.start()
            try:
                pair_mean(K, X, X, V, V)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(second_call_peak) < 256 * 1024

    def test_first_alignment_call_keeps_one_tile(self, split):
        # bounded_alignment reads dv alone and writes its values over it,
        # so a first call at 512 x 512, d = 2 on one thread allocates the
        # 2 MiB dv tile and neither a dx tile nor a tile for the kernel's
        # values.
        rng = np.random.default_rng(8)
        X, V = rng.standard_normal((2, 512, 2))
        K = kernel("bounded_alignment", d=2)
        split(1)

        def first_call_peak():
            tracemalloc.start()
            try:
                pair_mean(K, X, X, V, V)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(first_call_peak) < 3 * 2**20

    def test_first_split_alignment_call_keeps_one_tile_per_thread(self,
                                                                  split):
        # The same call splits on two threads (2^19 values), each tiling
        # its 256-row share at 128 rows: the caller and the fresh pool
        # thread each allocate one 1 MiB dv tile, under the same 3 MiB.
        rng = np.random.default_rng(8)
        X, V = rng.standard_normal((2, 512, 2))
        K = kernel("bounded_alignment", d=2)
        split(2, values=drift._SPLIT_VALUES)

        def sizes():
            return [buf.size for buf in drift._WORKSPACE.bufs]

        def first_call_peak():
            tracemalloc.start()
            try:
                pair_mean(K, X, X, V, V)
                return tracemalloc.get_traced_memory()[1], sizes()
            finally:
                tracemalloc.stop()

        peak, caller_sizes = _in_fresh_thread(first_call_peak)
        assert peak < 3 * 2**20
        assert caller_sizes == [128 * 512 * 2, 0, 0]
        assert drift._POOL.submit(sizes).result(timeout=30) == caller_sizes

    @pytest.mark.parametrize("name", ["zero", "constant", "zero_position"])
    def test_a_kernel_that_reads_no_difference_builds_none(self, monkeypatch,
                                                           split, name):
        # On one thread, the kernel's values take the first buffer, one
        # 256 x 512 x 2 tile, and no difference is ever computed.
        rng = np.random.default_rng(8)
        X, V = rng.standard_normal((2, 512, 2))
        K = kernel(name, d=2, params={"value": 0.5})
        split(1)
        built = []
        differences = drift._differences
        monkeypatch.setattr(drift, "_differences",
                            lambda *args: built.append(1) or differences(*args))

        def first_call():
            got = pair_mean(K, X, X, V, V)
            return got, [buf.size for buf in drift._WORKSPACE.bufs]

        got, sizes = _in_fresh_thread(first_call)
        assert got.tobytes() == _untiled_pair_mean(K, X, X, V, V).tobytes()
        assert built == []
        assert sizes == [256 * 512 * 2, 0, 0]

    def test_a_kernel_that_declares_nothing_gets_the_real_differences(self):
        # 300 targets in tiles of 256 and 44: every tile of a custom phase
        # kernel holds a_j - a_i and b_j - b_i, never the zero view.
        rng = np.random.default_rng(12)
        A_to, B_to = _spread(rng, (2, 300, 2))
        A_from, B_from = _spread(rng, (2, 257, 2))
        seen = []

        def spy(dx, dv, out):
            lo = sum(tile for tile, _ in seen)
            hi = lo + dx.shape[1]
            want_dx = A_from[:, None] - A_to[None, lo:hi]
            want_dv = B_from[:, None] - B_to[None, lo:hi]
            seen.append((dx.shape[1], dx.tobytes() == want_dx.tobytes()
                         and dv.tobytes() == want_dv.tobytes()))
            np.add(dx, dv, out=out)

        custom = InteractionKernel("custom", spy, 1.0, math.inf)
        assert custom.reads_dx and custom.reads_dv
        pair_mean(custom, A_to, A_from, B_to, B_from)
        assert seen == [(256, True), (44, True)]

    @pytest.mark.parametrize("name, writes_over", [
        ("bounded_alignment", "dv"), ("attraction_position", "dx"),
        ("bounded_attraction", None), ("bounded_attraction_position", None)])
    def test_only_elementwise_kernels_write_over_a_difference(
            self, split, name, writes_over):
        # On one thread: two tiles of 256 targets.
        rng = np.random.default_rng(9)
        X, V = rng.standard_normal((2, 512, 2))
        K = kernel(name, d=2)
        split(1)
        seen = []

        def spy(dx, dv, out):
            before = dx.tobytes(), None if dv is None else dv.tobytes()
            overlaps = {key for key, a in (("dx", dx), ("dv", dv))
                        if a is not None and np.shares_memory(out, a)}
            K.fn(dx, dv, out)
            after = dx.tobytes(), None if dv is None else dv.tobytes()
            seen.append((overlaps, after == before))

        spied = InteractionKernel(name, spy, K.L_ker, K.M_ker, K.arity,
                                  K.elementwise)
        got = _in_fresh_thread(pair_mean, spied, X, X, V, V)
        assert got.tobytes() == pair_mean(K, X, X, V, V).tobytes()
        assert len(seen) == 2
        if writes_over is None:
            assert seen == [(set(), True)] * 2
        else:
            assert all(overlaps == {writes_over} for overlaps, _ in seen)


class _ShareError(Exception):
    pass


class TestPairSplit:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_every_library_kernel_gives_the_serial_bytes(self, split,
                                                         workers, d):
        # 600 rows in shares of 300 or 200 leave a ragged last tile of the
        # 128 or 85 rows a share tiles at; 2 and 1 targets leave fewer
        # rows than workers, so a share may be empty.
        rng = np.random.default_rng(d)
        calls = []
        for N, n in [(600, 257), (2, 300), (1, 9)]:
            A_to, B_to = _spread(rng, (2, N, d))
            A_from, B_from = _spread(rng, (2, n, d))
            for name in KERNEL_NAMES:
                K = kernel(name, d=d, params={"value": -0.25})
                calls.append((K, A_to, A_from, B_to, B_from))
        serial = [pair_mean(*c).tobytes() for c in calls]
        split(workers)
        assert [pair_mean(*c).tobytes() for c in calls] == serial
        assert (drift._POOL is None) == (workers == 1)

    @pytest.mark.parametrize("d, below, at", [(1, (2, 2**18 - 1), (2, 2**18)),
                                              (2, (511, 513), (512, 512))])
    def test_the_split_starts_at_2_19_values(self, split, d, below, at):
        # (targets, sources) below give 2^19 - 2 values, the most below
        # the size that two targets or more reach (2^19 - 1 is prime), and
        # stay on one thread; at gives 2^19 and splits. 2 x (2^18 - 1) at
        # d = 1 is more pairs than 512 x 512 at d = 2, so no rule in pairs
        # splits the one and not the other.
        split(2, values=drift._SPLIT_VALUES)
        seen = set()

        def spy(dx, dv, out):
            seen.add(threading.current_thread().name)
            out[...] = 0.0

        K = InteractionKernel("spy", spy, 0.0, 0.0, "position")
        for (N, n), threads in [(below, 1), (at, 2)]:
            seen.clear()
            pair_mean(K, np.zeros((N, d)), np.zeros((n, d)))
            assert len(seen) == threads, N * n * d

    def test_forced_splits_shut_down_only_their_own_pools(self,
                                                          monkeypatch):
        # A pool the module built before a test forced a split must keep
        # running after it: shut down, every later split call would fail
        # with "cannot schedule new futures after shutdown".
        from concurrent.futures import ThreadPoolExecutor

        module_pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(drift, "_POOL", module_pool)
        K = kernel("zero_position")
        try:
            with _forced_split():
                pass
            assert drift._POOL is module_pool
            assert module_pool.submit(int).result(timeout=30) == 0
            with _forced_split() as force:
                built = []
                for workers in (2, 3):
                    force(workers)
                    pair_mean(K, np.zeros((3, 1)), np.zeros((1, 1)))
                    built.append(drift._POOL)
                assert module_pool not in built and built[0] is not built[1]
            assert drift._POOL is module_pool
            assert module_pool.submit(int).result(timeout=30) == 0
            for pool in built:
                with pytest.raises(RuntimeError, match="after shutdown"):
                    pool.submit(int)
        finally:
            module_pool.shutdown()

    def test_a_coupled_run_has_the_serial_bytes_at_any_core_count(
            self, split, tmp_path):
        # At 96 followers every pair sum of the run is serial unless forced;
        # forced, all four kernels' sums split, the two-leader ones too, so
        # at 3 workers one of their shares is empty.
        cfg = tmp_path / "coupled.ini"
        cfg.write_text("[run]\nscenario = coupled\nseed = 5\n"
                       "[model]\nd = 2\nsigma = 0.1\nn_particles = 96\n"
                       "n_leaders = 2\nleader_x = 1.0,-0.5\n"
                       "k11 = bounded_alignment\nk12 = bounded_attraction\n"
                       "k21 = bounded_attraction_position\n"
                       "k22 = bounded_attraction_position\n"
                       "initial = gaussian\n"
                       "[grid]\nt = 0.5\nn_steps = 10\n"
                       "[experiment]\ntol = 1e-6\nmax_iter = 25\n")

        def outputs(name):
            out = tmp_path / name
            assert cli.run(cli.parse_config(str(cfg)), output_dir=str(out)) == 0
            return {f: (out / f).read_bytes()
                    for f in ("flow.csv", "leaders.csv", "picard_report.txt")}

        serial = outputs("serial")
        for workers in (1, 2, 3):
            split(workers)
            assert outputs(f"workers{workers}") == serial, workers
            assert (drift._POOL is None) == (workers == 1)

    def test_a_raising_share_raises_after_every_share_finished(self, split):
        # Three shares of three rows each. The pool share of rows 3-5
        # raises at once, the one of rows 6-8 sleeps first, and the
        # caller's own share of rows 0-2 ends at once.
        finished = []

        def fn(dx, dv, out):
            row = int(-dx[0, 0, 0])
            if row == 3:
                raise _ShareError("rows 3-5")
            if row == 6:
                time.sleep(0.2)
            out[...] = 0.0
            finished.append(row)

        raising = InteractionKernel("raises", fn, 0.0, 0.0, "position")
        rng = np.random.default_rng(4)
        A, B = _spread(rng, (2, 300, 2))
        K = kernel("bounded_attraction", d=2)
        serial = pair_mean(K, A, A, B, B).tobytes()
        split(3)
        with pytest.raises(_ShareError, match="rows 3-5"):
            pair_mean(raising, np.arange(9.0)[:, None], np.zeros((4, 1)))
        assert sorted(finished) == [0, 6]
        assert pair_mean(K, A, A, B, B).tobytes() == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_splits_on_a_pool_of_its_own(self, split):
        rng = np.random.default_rng(6)
        A, B = _spread(rng, (2, 300, 2))
        K = kernel("bounded_alignment", d=2)
        serial = pair_mean(K, A, A, B, B).tobytes()
        split(2)
        assert pair_mean(K, A, A, B, B).tobytes() == serial
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report, and never return into pytest
            try:
                same = pair_mean(K, A, A, B, B).tobytes() == serial
                os.write(write_end, b"same" if same else b"differs")
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 30)
            answer = os.read(read_end, 16) if ready else b"timed out"
        finally:
            os.close(read_end)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert answer == b"same"


def _moves_only_its_own_entry(K, dx, dv):
    """The perturbation check of K's elementwise declaration: whether
    changing any one entry of dx (or of dv, for a phase kernel) leaves
    every other entry of K(dx, dv) as it was."""
    base = K(dx, dv)
    for a in (dx,) if K.arity == "position" else (dx, dv):
        for idx in np.ndindex(a.shape):
            kept = a[idx]
            a[idx] = kept + 1.0
            moved = K(dx, dv) != base
            a[idx] = kept
            moved[idx] = False
            if moved.any():
                return False
    return True


class TestElementwiseDeclaration:
    def test_declared_rows(self):
        assert [name for name in KERNEL_NAMES
                if kernel(name, d=2).elementwise] == [
            "zero", "constant", "alignment", "bounded_alignment",
            "attraction", "zero_position", "attraction_position"]
        custom = InteractionKernel("custom", lambda dx, dv, out: None, 1.0, 1.0)
        assert not custom.elementwise

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("component_major", [True, False])
    def test_elementwise_rows_pass_the_perturbation_check(
            self, d, component_major):
        rng = np.random.default_rng(d)
        dx = _laid_out(_spread(rng, (3, 4, d)), component_major)
        dv = _laid_out(_spread(rng, (3, 4, d)), component_major)
        for name in KERNEL_NAMES:
            K = kernel(name, d=d, params={"value": -0.25})
            if K.elementwise:
                assert _moves_only_its_own_entry(K, dx, dv), name

    @pytest.mark.parametrize("d", range(2, 11))
    @pytest.mark.parametrize("component_major", [True, False])
    @pytest.mark.parametrize("name", ["bounded_attraction",
                                      "bounded_attraction_position"])
    def test_the_check_catches_a_component_sum(self, name, d,
                                               component_major):
        rng = np.random.default_rng(d)
        dx = _laid_out(_spread(rng, (3, 4, d)), component_major)
        dv = _laid_out(_spread(rng, (3, 4, d)), component_major)
        assert not _moves_only_its_own_entry(kernel(name, d=d), dx, dv)

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("component_major", [True, False])
    def test_writing_over_an_input_gives_the_fresh_bytes(
            self, d, component_major):
        rng = np.random.default_rng(d)
        dx = _laid_out(_spread(rng, (9, 5, d)), component_major)
        dv = _laid_out(_spread(rng, (9, 5, d)), component_major)
        for name in KERNEL_NAMES:
            K = kernel(name, d=d, params={"value": -0.25})
            if not K.elementwise:
                continue
            fresh = K(dx, dv).tobytes()
            for over in ("dx",) if K.arity == "position" else ("dx", "dv"):
                a = _laid_out(dx, component_major)
                b = _laid_out(dv, component_major)
                out = a if over == "dx" else b
                assert K(a, b, out=out) is out
                assert out.tobytes() == fresh, (name, over)


class TestDvDeclaration:
    def test_declared_rows(self):
        assert [name for name in KERNEL_NAMES
                if kernel(name, d=2).reads_dv] == [
            "alignment", "bounded_alignment"]
        custom = InteractionKernel("custom", lambda dx, dv, out: None, 1.0, 1.0)
        assert custom.reads_dv

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("component_major", [True, False])
    def test_rows_that_skip_dv_never_read_it(self, d, component_major):
        rng = np.random.default_rng(d)
        dx = _laid_out(_spread(rng, (9, 5, d)), component_major)
        dv = _laid_out(_spread(rng, (9, 5, d)), component_major)
        other = _laid_out(_spread(rng, (9, 5, d)), component_major)
        for name in KERNEL_NAMES:
            K = kernel(name, d=d, params={"value": -0.25})
            if K.reads_dv:
                with pytest.raises(ValueError, match="needs both"):
                    K(dx)
                continue
            fresh = K(dx, dv).tobytes()
            assert K(dx, other).tobytes() == fresh, name
            assert K(dx).tobytes() == fresh, name

    @pytest.mark.parametrize("name, d", [("attraction", 1),
                                         ("bounded_attraction", 1),
                                         ("bounded_attraction", 2),
                                         ("bounded_alignment", 2),
                                         ("constant", 3)])
    def test_a_kernel_that_reads_only_dx_gets_no_dv(self, name, d):
        # The spy sees every tile: a dx-only kernel gets dv None, and every
        # kernel a dx of the tile's shape, the zero view when it reads no
        # dx (the pairs a tracer counts from dx stay the same); the row
        # means keep their bytes.
        rng = np.random.default_rng(d)
        A_to, B_to = _spread(rng, (2, 300, d))
        A_from, B_from = _spread(rng, (2, 257, d))
        K = kernel(name, d=d, params={"value": 0.5})
        seen = []

        def spy(dx, dv, out):
            seen.append((dx.shape, dv is None))
            K.fn(dx, dv, out)

        spied = InteractionKernel(name, spy, K.L_ker, K.M_ker, K.arity,
                                  K.elementwise, K.reads_dv, K.reads_dx)
        got = pair_mean(spied, A_to, A_from, B_to, B_from)
        assert got.tobytes() == _untiled_pair_mean(
            K, A_to, A_from, B_to, B_from).tobytes()
        assert seen == [((257, 256, d), not K.reads_dv),
                        ((257, 44, d), not K.reads_dv)]

    def test_a_dx_only_kernel_keeps_two_tiles(self, split):
        # bounded_attraction reads dx alone and is not elementwise: its
        # values go into the dv buffer it does not use, so a first call at
        # 512 x 512, d = 2 on one thread allocates two 2 MiB tiles, not
        # three, plus its 1 MiB tile of |dx|^2.
        rng = np.random.default_rng(8)
        X, V = rng.standard_normal((2, 512, 2))
        K = kernel("bounded_attraction", d=2)
        split(1)

        def first_call_peak():
            tracemalloc.start()
            try:
                pair_mean(K, X, X, V, V)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(first_call_peak) < 6 * 2**20


class TestDxDeclaration:
    def test_declared_rows(self):
        assert [name for name in KERNEL_NAMES
                if kernel(name, d=2).reads_dx] == [
            "attraction", "bounded_attraction", "attraction_position",
            "bounded_attraction_position"]
        custom = InteractionKernel("custom", lambda dx, dv, out: None, 1.0, 1.0)
        assert custom.reads_dx

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(KERNEL_NAMES),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_declarations_hold_on_random_tiles(self, seed, name, d, n, tile,
                                               component_major):
        # pair_mean skips the work a declaration says is unread: an unread
        # dx becomes zeros (the read-only view pair_mean passes, too), an
        # unread dv None, and an elementwise kernel may be fed any slice.
        rng = np.random.default_rng(seed)
        K = kernel(name, d=d, params={"value": float(rng.standard_normal())})
        dx, dv = (_laid_out(_spread(rng, (n, tile, d)), component_major)
                  for _ in range(2))
        fresh = K(dx, dv).tobytes()
        if not K.reads_dx:
            zeros = _laid_out(np.zeros((n, tile, d)), component_major)
            assert K(zeros, dv).tobytes() == fresh
            view = np.broadcast_to(0.0, (n, tile, d))
            assert K(view, dv, out=np.empty_like(dx)).tobytes() == fresh
        if not K.reads_dv:
            assert K(dx, None).tobytes() == fresh
        if K.elementwise:
            j, i = rng.integers(0, n, size=2), rng.integers(0, tile, size=2)
            part = np.s_[min(j):max(j) + 1, min(i):max(i) + 1]
            assert K(dx[part], dv[part]).tobytes() == K(dx, dv)[part].tobytes()


class TestLeaderFields:
    def test_leader_drive_hand_value(self):
        K21 = kernel("bounded_attraction_position")
        K22 = kernel("zero_position")
        F = leader_field_from_kernels(K21, K22, m=1)
        ens = ParticleEnsemble([[1.0]], [[0.0]])
        flow = MeasureFlow.constant(ens, time_grid(1.0, 1))
        out = F.rhs(0.0, flow, np.array([[0.0]]))
        # Single follower at x = 1, leader at 0: K21(1) = 1/2.
        np.testing.assert_allclose(out, [[0.5]])

    def test_leader_drive_empty(self):
        F = leader_field_from_kernels(kernel("zero_position"),
                                      kernel("zero_position"), m=0)
        flow = _origin_flow(d=2)
        out = F.rhs(0.0, flow, np.zeros((0, 2)))
        assert out.shape == (0, 2)

    def test_pairwise_term_sees_all_leaders(self):
        K21 = kernel("zero_position")
        K22 = kernel("attraction_position")
        F = leader_field_from_kernels(K21, K22, m=2)
        flow = _origin_flow(d=1)
        out = F.rhs(0.0, flow, np.array([[0.0], [2.0]]))
        # Leader 0: mean(0 - 0, 2 - 0) = 1; leader 1 mirrors to -1.
        np.testing.assert_allclose(out, [[1.0], [-1.0]])

    def test_coupling_from_kernel_batch_matches_scalar(self):
        K12 = kernel("bounded_attraction_position")
        w = coupling_from_kernel(K12)
        Y = np.array([[[1.0], [-1.0]], [[2.0], [0.5]]])
        path = LeaderPath([0.0, 1.0], Y, -Y)
        rng = np.random.default_rng(31)
        X = rng.standard_normal((5, 1))
        V = rng.standard_normal((5, 1))
        for t, k in ((0.0, 0), (0.7, 0), (1.0, 1)):
            batch = w.eval_batch(t, path, X, V)
            rows = np.stack([_at_point(K12, path.Y[k], path.W[k],
                                       PhasePoint(X[i], V[i]))
                             for i in range(5)])
            np.testing.assert_array_equal(batch, rows)

    def test_coupling_empty_leaders_zero(self):
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        path = LeaderPath([0.0, 1.0], np.zeros((2, 0, 1)), np.zeros((2, 0, 1)))
        out = w.eval_batch(0.0, path, np.ones((3, 1)), np.ones((3, 1)))
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
