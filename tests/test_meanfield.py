"""Picard solver, weak-form residual, stability, and certificate tests."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kineticmf import meanfield

from kineticmf.drift import (
    DriftField,
    clamp_drift,
    constant_field,
    drift_from_kernel,
    kernel,
    zero_field,
)
from kineticmf.meanfield import (
    EXACT_GAP_MAX_N,
    MomentCertificate,
    PicardReport,
    bump,
    flow_gap,
    moment_certificate,
    picard_solve,
    stability_experiment,
    weakform_residual,
)
from kineticmf.phase_space import (
    IDENTITY_YOUNG,
    LeaderState,
    MeasureFlow,
    ParticleEnsemble,
    _agreeing_nodes,
    gamma_p,
    time_grid,
)
from kineticmf.sde import (SimConfig, generate_brownian, simulate_frozen,
                           simulate_interacting)
from kineticmf.wasserstein import (wasserstein_exact, wasserstein_gap,
                                   wasserstein_paired_bound)


def _cfg(**kw):
    base = dict(T=1.0, n_steps=16, N=8, sigma=0.0, seed=11, d=1)
    base.update(kw)
    return SimConfig(**base)


def _spread_init(N, d, seed=2, scale=0.5):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(scale * rng.standard_normal((N, d)),
                            scale * rng.standard_normal((N, d)))


def _mean_reversion_field():
    """f[t, mu](z) = mean_v(mu_t) - v, the linear alignment convolution."""

    def batch(t, flow, X, V):
        return flow.at_time(t).V.mean(axis=0)[None, :] - V

    return DriftField(batch=batch, K=1.0, L=1.0, D=2.0, p=2.0,
                      name="mean_reversion", unbounded=True)


class TestFlowGap:
    def test_translated_point_masses(self):
        a = MeasureFlow.constant(ParticleEnsemble([[0.0]], [[0.0]]), [0.0, 1.0])
        b = MeasureFlow.constant(ParticleEnsemble([[0.75]], [[0.0]]), [0.0, 1.0])
        assert flow_gap(a, b, 2.0) == pytest.approx(0.75)

    def test_uses_exact_transport_below_switch(self):
        # Crossed pairing: identity coupling costs 9, optimal costs 1.
        a = ParticleEnsemble([[0.0], [10.0]], [[0.0], [0.0]])
        b = ParticleEnsemble([[9.0], [1.0]], [[0.0], [0.0]])
        fa = MeasureFlow.constant(a, [0.0])
        fb = MeasureFlow.constant(b, [0.0])
        assert flow_gap(fa, fb, 1.0) == pytest.approx(1.0)
        assert EXACT_GAP_MAX_N == 256

    def test_sup_over_nodes(self):
        small = ParticleEnsemble([[0.0]], [[0.0]])
        far = ParticleEnsemble([[3.0]], [[0.0]])
        a = MeasureFlow([0.0, 1.0], [small, small])
        b = MeasureFlow([0.0, 1.0], [small, far])
        assert flow_gap(a, b, 2.0) == pytest.approx(3.0)

    @given(st.sampled_from([1, 2, 7, 32, 33, 64, 256, 257]),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([1.0, 1.5, 2.0]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-12.0, max_value=0.0),
           st.lists(st.tuples(st.sampled_from(["same", "near", "shuffled",
                                               "translated"]),
                              st.floats(min_value=-1.0, max_value=0.0)),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_pruned_sup_equals_full_sup(self, N, d, p, seed, log_eps, nodes):
        # Per node, b is a copy of a (gap exactly 0), a perturbation of size
        # eps in 1e-13..1 (near the identity the paired coupling is optimal,
        # so exact and paired agree up to rounding), a shuffled copy plus
        # noise (exact far below paired), or a translate (exact = paired).
        # One scale with per-node offsets of at most a decade makes the
        # bound order and the exact order interleave.
        rng = np.random.default_rng(seed)
        snaps_a, snaps_b = [], []
        for kind, offset in nodes:
            eps = 10.0 ** (log_eps + offset)
            a = _spread_init(N, d, seed=int(rng.integers(2**32)))
            X = a.X + eps * rng.standard_normal((N, d))
            V = a.V + eps * rng.standard_normal((N, d))
            if kind == "same":
                b = a
            elif kind == "near":
                b = ParticleEnsemble(X, V)
            elif kind == "shuffled":
                order = rng.permutation(N)
                b = ParticleEnsemble(X[order], V[order])
            else:
                shift = eps * rng.standard_normal(2 * d)
                b = ParticleEnsemble(a.X + shift[:d], a.V + shift[d:])
            snaps_a.append(a)
            snaps_b.append(b)
        times = np.arange(len(nodes), dtype=float)
        fa, fb = MeasureFlow(times, snaps_a), MeasureFlow(times, snaps_b)
        if N <= EXACT_GAP_MAX_N:
            full = max(wasserstein_exact(a, b, p)[0]
                       for a, b in zip(snaps_a, snaps_b))
        else:
            full = max(wasserstein_paired_bound(a, b, p)
                       for a, b in zip(snaps_a, snaps_b))
        assert flow_gap(fa, fb, p) == full

    def test_pruning_skips_dominated_nodes(self):
        # Perturbations shrinking tenfold per node keep the identity
        # coupling optimal, so the first node solved attains its bound and
        # every later bound falls below it.
        rng = np.random.default_rng(4)
        base = _spread_init(16, 2, seed=9)
        shifted = [ParticleEnsemble(base.X + 10.0**-k * rng.standard_normal((16, 2)),
                                    base.V)
                   for k in range(1, 7)]
        times = np.arange(6, dtype=float)
        fa = MeasureFlow(times, [base] * 6)
        fb = MeasureFlow(times, shifted)
        full = max(wasserstein_exact(base, s, 2.0)[0] for s in shifted)
        with mock.patch.object(meanfield, "wasserstein_gap",
                               wraps=meanfield.wasserstein_gap) as spy:
            assert flow_gap(fa, fb, 2.0) == full
        assert spy.call_count < 6

    def test_pruning_margin_admits_a_solve_one_ulp_above_its_bound(self):
        # The second bound equals the running max after the first solve,
        # but its solve rounds one ulp above it: only the relative margin
        # keeps that node from being pruned.
        above = np.nextafter(0.5, 1.0)
        solves = {0: 0.5, 1: above}
        assert meanfield._pruned_max([1.0, 0.5], solves.__getitem__) == above

    def test_report_rejects_negative_gaps(self):
        flow = MeasureFlow.constant(ParticleEnsemble([[0.0]], [[0.0]]), [0.0])
        with pytest.raises(ValueError):
            PicardReport(iterations=1, gaps=(-0.5,), converged=True,
                         final_flow=flow)


def _node_pair(kind, N, d, eps, rng):
    """Snapshots (a, b) at one node: b is a copy of a, a perturbation of
    size eps, a shuffled copy plus noise, a translate by eps, or a shuffled
    translate (exact W_p equals the mean displacement, while the paired
    displacements are of the order of the spread and cancel in the mean)."""
    a = _spread_init(N, d, seed=int(rng.integers(2**32)))
    shift = eps * rng.standard_normal(2 * d)
    noise_x = eps * rng.standard_normal((N, d))
    noise_v = eps * rng.standard_normal((N, d))
    if kind == "same":
        return a, a
    if kind == "near":
        return a, ParticleEnsemble(a.X + noise_x, a.V + noise_v)
    if kind == "shuffled":
        order = rng.permutation(N)
        return a, ParticleEnsemble((a.X + noise_x)[order],
                                   (a.V + noise_v)[order])
    X, V = a.X + shift[:d], a.V + shift[d:]
    if kind == "shuffled_translated":
        order = rng.permutation(N)
        X, V = X[order], V[order]
    b = ParticleEnsemble(X, V)
    return a, b


def _constant_flows(a, b, times=(0.0,)):
    return MeasureFlow.constant(a, times), MeasureFlow.constant(b, times)


class TestGapDecision:
    """meanfield._gap_below, the certified decision flow_gap < tol that
    picard_solve(record_gaps=False) runs."""

    @given(st.one_of(st.sampled_from([1, 2, EXACT_GAP_MAX_N,
                                      EXACT_GAP_MAX_N + 1]),
                     st.integers(min_value=1, max_value=300)),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([1.0, 1.5, 2.0]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-13.0, max_value=1.0),
           st.lists(st.tuples(st.sampled_from(["same", "near", "shuffled",
                                               "translated",
                                               "shuffled_translated"]),
                              st.floats(min_value=-1.0, max_value=0.0)),
                    min_size=1, max_size=4),
           st.sampled_from(["gap", "upper", "lower", "gap_to_lower"]),
           st.integers(min_value=0, max_value=3),
           st.sampled_from([-1, 0, 1]))
    @settings(max_examples=150, deadline=None)
    def test_decision_equals_computed_gap_below_tol(self, N, d, p, seed,
                                                     log_eps, nodes, anchor,
                                                     node, ulps):
        # Flows range from equal (eps 1e-14) to far apart (eps 10); tol sits
        # at the computed gap, a node's paired bound, a node's mean bound or
        # halfway from the gap to it, or one ulp to either side of it.
        rng = np.random.default_rng(seed)
        pairs = [_node_pair(kind, N, d, 10.0 ** (log_eps + offset), rng)
                 for kind, offset in nodes]
        times = np.arange(len(nodes), dtype=float)
        fa = MeasureFlow(times, [a for a, _ in pairs])
        fb = MeasureFlow(times, [b for _, b in pairs])
        gap = flow_gap(fa, fb, p)
        k = node % len(nodes)
        if anchor == "gap":
            tol = gap
        elif anchor == "upper":
            tol = meanfield.paired_bounds(fa.X, fa.V, fb.X, fb.V, p)[k]
        else:
            tol = float(meanfield._mean_gaps(fa, fb)[k])
            if anchor == "gap_to_lower":
                tol = 0.5 * (gap + tol)
        for _ in range(abs(ulps)):
            tol = float(np.nextafter(tol, np.inf if ulps > 0 else 0.0))
        assume(tol > 0.0)
        assert meanfield._gap_below(fa, fb, p, tol) == (gap < tol)

    def test_mean_bound_decides_without_a_solve(self):
        # A translate far beyond tol: the mean displacement alone shows
        # the gap is at least tol.
        a = _spread_init(32, 2, seed=5)
        b = ParticleEnsemble(a.X + 1.0, a.V)
        fa, fb = _constant_flows(a, b, (0.0, 1.0))
        with mock.patch.object(meanfield, "wasserstein_gap",
                               wraps=meanfield.wasserstein_gap) as spy:
            assert meanfield._gap_below(fa, fb, 2.0, 0.5) is False
            assert meanfield._gap_below(fa, fb, 2.0, 1.5) is True
        assert spy.call_count == 0

    def test_lower_margin_admits_a_solve_below_the_mean_bound(self):
        # A shuffled translate by 1e-12: exact W_1 equals the mean
        # displacement, but the paired displacements are of order 1 and
        # cancel, so their computed mean rounds above the computed exact
        # W_1 by far more than 1e-9 of itself. At tol between the two the
        # gap is below tol; only the margin, taken of the paired bound,
        # keeps the mean bound from deciding no.
        rng = np.random.default_rng(2)
        X, V = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
        perm = rng.permutation(4)
        fa, fb = _constant_flows(ParticleEnsemble(X, V),
                                 ParticleEnsemble(X[perm] + 1e-12, V[perm]))
        lower = float(meanfield._mean_gaps(fa, fb)[0])
        gap = flow_gap(fa, fb, 1.0)
        assert gap < lower * (1.0 - 1e-6)
        assert meanfield._gap_below(fa, fb, 1.0, 0.5 * (gap + lower)) is True

    def test_upper_margin_admits_a_solve_one_ulp_above_its_bound(self):
        # A solve that rounds one ulp above its paired bound, at tol: the
        # gap is not below tol, and only the margin sends the node to its
        # solve instead of accepting the bound.
        a = _spread_init(8, 1, seed=6)
        b = ParticleEnsemble(a.X + 0.25, a.V)
        fa, fb = _constant_flows(a, b)
        bound = meanfield.paired_bounds(fa.X, fa.V, fb.X, fb.V, 2.0)[0]
        above = float(np.nextafter(bound, np.inf))
        with mock.patch.object(meanfield, "wasserstein_gap",
                               return_value=above):
            assert flow_gap(fa, fb, 2.0) == above
            assert meanfield._gap_below(fa, fb, 2.0, above) is False

    def test_above_the_switch_the_gap_is_the_top_paired_bound(self):
        N = EXACT_GAP_MAX_N + 1
        a = _spread_init(N, 1, seed=7)
        b = ParticleEnsemble(a.X + 0.1, a.V)
        fa, fb = _constant_flows(a, b)
        gap = flow_gap(fa, fb, 2.0)
        above = float(np.nextafter(gap, np.inf))
        with mock.patch.object(meanfield, "wasserstein_gap") as spy:
            assert meanfield._gap_below(fa, fb, 2.0, gap) is False
            assert meanfield._gap_below(fa, fb, 2.0, above) is True
        assert spy.call_count == 0


class TestPicard:
    def test_measure_independent_drift_stops_in_two_iterations(self):
        """With no measure coupling the second pass replays the first."""
        cfg = _cfg(sigma=0.3)
        rep = picard_solve(constant_field([0.4]), _spread_init(8, 1), cfg)
        assert rep.iterations == 2
        assert rep.converged
        assert rep.gaps[1] == 0.0
        assert rep.gaps[0] > 0.0

    def test_mean_zero_alignment_has_closed_form_fixed_point(self):
        # Velocities {-1, +1}: the empirical mean stays 0 through every
        # iterate, so the fixed point obeys v_{k+1} = (1 - dt) v_k and the
        # iteration closes after two passes.
        cfg = _cfg(N=2, n_steps=8, sigma=0.0)
        init = ParticleEnsemble([[0.0], [0.0]], [[-1.0], [1.0]])
        rep = picard_solve(_mean_reversion_field(), init, cfg, tol=1e-12)
        assert rep.converged
        assert rep.iterations == 2
        v = np.array([-1.0, 1.0])
        x = np.zeros(2)
        for k in range(cfg.n_steps):
            v = v * (1.0 - cfg.dt)
            x = x + v * cfg.dt
            np.testing.assert_allclose(rep.final_flow.snapshots[k + 1].V[:, 0],
                                       v, atol=1e-14)
            np.testing.assert_allclose(rep.final_flow.snapshots[k + 1].X[:, 0],
                                       x, atol=1e-14)

    def test_bounded_alignment_converges_with_shrinking_gaps(self):
        cfg = _cfg(N=16, n_steps=24, sigma=0.1, seed=3)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        rep = picard_solve(f, _spread_init(16, 1, seed=3), cfg, tol=1e-8)
        assert rep.converged
        assert rep.iterations <= 25
        assert rep.gaps[-1] < 1e-8
        # Contraction: after the warm-up step the gaps decay monotonically.
        tail = rep.gaps[1:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_deterministic_for_fixed_seed(self):
        cfg = _cfg(N=8, sigma=0.2)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        r1 = picard_solve(f, _spread_init(8, 1), cfg)
        r2 = picard_solve(f, _spread_init(8, 1), cfg)
        assert r1.gaps == r2.gaps
        np.testing.assert_array_equal(r1.final_flow.snapshots[-1].X,
                                      r2.final_flow.snapshots[-1].X)

    def test_non_convergence_reported_not_raised(self):
        cfg = _cfg(N=8, sigma=0.1)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        rep = picard_solve(f, _spread_init(8, 1), cfg, tol=1e-15, max_iter=1)
        assert not rep.converged
        assert rep.iterations == 1
        assert len(rep.gaps) == 1

    def test_truncation_cap_kills_drift_for_fat_initial_data(self):
        cfg = _cfg(N=4, sigma=0.2)
        init = ParticleEnsemble(np.full((4, 1), 50.0), np.zeros((4, 1)))
        clamped = picard_solve(clamp_drift(constant_field([3.0]), 1.0), init,
                               cfg)
        free = picard_solve(zero_field(), init, cfg)
        np.testing.assert_array_equal(clamped.final_flow.snapshots[-1].X,
                                      free.final_flow.snapshots[-1].X)

    @pytest.mark.parametrize("N, tol", [(16, 1e-8), (16, 1e-3),
                                        (EXACT_GAP_MAX_N + 1, 1e-6)])
    def test_decision_mode_runs_the_same_iterates(self, N, tol):
        cfg = _cfg(N=N, n_steps=12, sigma=0.1, seed=3)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        full = picard_solve(f, _spread_init(N, 1, seed=3), cfg, tol=tol)
        rep = picard_solve(f, _spread_init(N, 1, seed=3), cfg, tol=tol,
                           record_gaps=False)
        assert full.converged and rep.converged
        assert rep.iterations == full.iterations
        assert rep.gaps == ()
        np.testing.assert_array_equal(rep.final_flow.X, full.final_flow.X)
        np.testing.assert_array_equal(rep.final_flow.V, full.final_flow.V)

    def test_decision_mode_reports_the_exact_last_gap_on_failure(self):
        cfg = _cfg(N=8, sigma=0.1)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        full = picard_solve(f, _spread_init(8, 1), cfg, tol=1e-15, max_iter=3)
        rep = picard_solve(f, _spread_init(8, 1), cfg, tol=1e-15, max_iter=3,
                           record_gaps=False)
        assert not rep.converged and rep.iterations == 3
        assert rep.gaps == full.gaps[-1:]

    def test_decision_mode_with_no_iterations_reports_no_gap(self):
        rep = picard_solve(zero_field(), _spread_init(4, 1), _cfg(N=4),
                           max_iter=0, record_gaps=False)
        assert not rep.converged
        assert rep.iterations == 0 and rep.gaps == ()

    def test_argument_guards(self):
        cfg = _cfg(N=4)
        with pytest.raises(ValueError, match="tolerance"):
            picard_solve(zero_field(), _spread_init(4, 1), cfg, tol=0.0)
        # NaN fails tol > 0 as 0.0 does: no gap would ever meet it.
        with pytest.raises(ValueError, match="tolerance must be positive"):
            picard_solve(zero_field(), _spread_init(4, 1), cfg,
                         tol=float("nan"), max_iter=3)
        with pytest.raises(ValueError, match="initial ensemble"):
            picard_solve(zero_field(), _spread_init(5, 1), cfg)


def _reference_picard(f, init, cfg, tol, max_iter):
    """picard_solve's iterates written out with every iterate simulated
    from node 0: the reference the restarted iterates must reproduce."""
    paths = generate_brownian(cfg)
    current = MeasureFlow.constant(init, cfg.grid())
    gaps = []
    for _ in range(max_iter):
        frozen = current
        nxt = simulate_frozen(
            lambda t, X, V: f.eval_batch(t, frozen, X, V), init, cfg, paths)
        gaps.append(flow_gap(current, nxt, f.p))
        current = nxt
        if gaps[-1] < tol:
            break
    return current, gaps


_RESTART_KERNELS = ["bounded_alignment", "bounded_attraction", "alignment",
                    "attraction"]


class TestPicardRestart:
    """Every drift is non-anticipative, so an iterate agrees with the last
    one on every node up to the first node where the last two differ:
    picard_solve copies those nodes and steps from there."""

    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=8),
           st.sampled_from(_RESTART_KERNELS),
           st.sampled_from([0.0, 0.1]))
    @settings(max_examples=40, deadline=None)
    def test_n_steps_plus_one_iterates_reach_the_interacting_system(
            self, seed, N, d, n_steps, name, sigma):
        # Iterate j is final on its first j + 1 nodes, so n_steps + 1
        # iterates reach the discrete fixed point with a gap of exactly
        # 0.0, and with no leaders that fixed point is the N-particle
        # system on the same ensemble and paths, bit for bit.
        cfg = _cfg(N=N, d=d, n_steps=n_steps, sigma=sigma, seed=seed)
        init = _spread_init(N, d, seed=seed, scale=1.0)
        K = kernel(name, d=d)
        rep = picard_solve(drift_from_kernel(K), init, cfg, tol=1e-300,
                           max_iter=n_steps + 1)
        assert rep.converged
        assert rep.gaps[-1] == 0.0
        flow, _ = simulate_interacting({"K11": K}, None, init,
                                       LeaderState.empty(d), cfg,
                                       generate_brownian(cfg))
        assert rep.final_flow.X.tobytes() == flow.X.tobytes()
        assert rep.final_flow.V.tobytes() == flow.V.tobytes()

    @pytest.mark.parametrize("name", _RESTART_KERNELS)
    @pytest.mark.parametrize("tol", [1e-3, 1e-9])
    def test_restarted_iterates_equal_the_from_scratch_ones(self, name, tol):
        cfg = _cfg(N=12, d=2, n_steps=20, sigma=0.1, seed=5)
        init = _spread_init(12, 2, seed=5)
        f = drift_from_kernel(kernel(name, d=2))
        want, gaps = _reference_picard(f, init, cfg, tol, 30)
        rep = picard_solve(f, init, cfg, tol=tol, max_iter=30)
        assert rep.converged
        assert rep.gaps == tuple(gaps)
        assert rep.final_flow.X.tobytes() == want.X.tobytes()
        assert rep.final_flow.V.tobytes() == want.V.tobytes()

    def test_the_restart_node_counts_a_signed_zero_as_a_difference(self):
        # Two frozen flows that differ only in the sign of one zero: a
        # drift that reads the sign tells them apart, so the restart must
        # too, or it would copy steps that the new drift changes.
        cfg = _cfg(N=3, n_steps=6, sigma=0.1)
        init = ParticleEnsemble(np.zeros((3, 1)), np.zeros((3, 1)))
        paths = generate_brownian(cfg)
        plus = np.zeros((7, 3, 1))
        minus = plus.copy()
        minus[4, 1, 0] = -0.0
        times = cfg.grid()
        flow_plus = MeasureFlow._of(times, plus, plus)
        flow_minus = MeasureFlow._of(times, plus, minus)
        assert (flow_plus.V == flow_minus.V).all()
        assert _agreeing_nodes(flow_plus, flow_minus) == 4

        def sign_of(frozen):
            return lambda t, X, V: np.copysign(1.0, frozen.at_time(t).V)

        old = simulate_frozen(sign_of(flow_plus), init, cfg, paths)
        scratch = simulate_frozen(sign_of(flow_minus), init, cfg, paths)
        resumed = simulate_frozen(sign_of(flow_minus), init, cfg, paths,
                                  _resume=(old, 4))
        assert old.V.tobytes() != scratch.V.tobytes()
        assert resumed.X.tobytes() == scratch.X.tobytes()
        assert resumed.V.tobytes() == scratch.V.tobytes()

    def test_agreeing_nodes_compares_times_and_shapes(self):
        ens = _spread_init(4, 2)
        flow = MeasureFlow.constant(ens, time_grid(1.0, 5))
        assert _agreeing_nodes(flow, flow) == 6
        assert _agreeing_nodes(flow, MeasureFlow.constant(
            ens, time_grid(1.0, 3))) == 1
        assert _agreeing_nodes(flow, MeasureFlow.constant(
            ens, time_grid(2.0, 5))) == 1
        other = _spread_init(3, 2)
        assert _agreeing_nodes(flow, MeasureFlow.constant(
            other, time_grid(1.0, 5))) == 0


class TestWeakForm:
    @staticmethod
    def _ballistic(cfg, init):
        return simulate_frozen(lambda t, X, V: 0.0, init, cfg,
                               generate_brownian(cfg))

    def test_plateau_gives_exactly_zero(self):
        cfg = _cfg(N=6, n_steps=8)
        flow = self._ballistic(cfg, _spread_init(6, 1))
        # A compactly supported function on the region covering every
        # particle: constant value, vanishing derivatives.
        psi = meanfield.TestFunction(
            value=lambda X, V: np.full(X.shape[0], 2.5),
            grad_x=lambda X, V: np.zeros_like(X),
            grad_v=lambda X, V: np.zeros_like(X),
            lap_v=lambda X, V: np.zeros(X.shape[0]), name="plateau")
        assert weakform_residual(flow, zero_field(), 0.0, psi, 8) == 0.0

    def test_residual_halves_with_dt(self):
        init = _spread_init(32, 1, seed=5, scale=0.4)
        psi = bump([0.0], [0.0], 3.0)
        res = []
        for n in (16, 32):
            cfg = _cfg(N=32, n_steps=n)
            flow = self._ballistic(cfg, init)
            res.append(weakform_residual(flow, zero_field(), 0.0, psi, n))
        assert res[0] / res[1] == pytest.approx(2.0, abs=0.15)

    def test_mismatched_drift_detected(self):
        init = _spread_init(32, 1, seed=5, scale=0.4)
        cfg = _cfg(N=32, n_steps=64)
        flow = self._ballistic(cfg, init)
        psi = bump([0.0], [0.0], 3.0)
        matched = weakform_residual(flow, zero_field(), 0.0, psi, 64)
        mismatched = weakform_residual(flow, constant_field([0.5]), 0.0, psi, 64)
        assert mismatched >= 10.0 * matched

    def test_invariant_under_particle_permutation(self):
        rng = np.random.default_rng(9)
        cfg = _cfg(N=12, n_steps=8)
        flow = self._ballistic(cfg, _spread_init(12, 1, seed=9))
        perm = rng.permutation(12)
        shuffled = MeasureFlow(flow.times, [ParticleEnsemble(s.X[perm], s.V[perm])
                                            for s in flow.snapshots])
        psi = bump([0.0], [0.0], 2.0)
        f = constant_field([0.3])
        assert (weakform_residual(flow, f, 0.0, psi, 8)
                == weakform_residual(shuffled, f, 0.0, psi, 8))

    def test_sigma_term_enters_generator(self):
        cfg = _cfg(N=16, n_steps=8, sigma=0.5)
        flow = self._ballistic(cfg, _spread_init(16, 1, seed=12))
        psi = bump([0.0], [0.0], 3.0)
        with_term = weakform_residual(flow, zero_field(), 0.5, psi, 8)
        without = weakform_residual(flow, zero_field(), 0.0, psi, 8)
        assert with_term != without

    def test_bad_arguments_rejected(self):
        cfg = _cfg(N=4, n_steps=4)
        flow = self._ballistic(cfg, _spread_init(4, 1))
        psi = bump([0.0], [0.0], 2.0)
        with pytest.raises(ValueError, match="t_index"):
            weakform_residual(flow, zero_field(), 0.0, psi, 0)
        with pytest.raises(ValueError, match="t_index"):
            weakform_residual(flow, zero_field(), 0.0, psi, 5)
        from kineticmf.meanfield import TestFunction
        bare = TestFunction(value=lambda X, V: np.zeros(X.shape[0]))
        with pytest.raises(ValueError, match="grad_x"):
            weakform_residual(flow, zero_field(), 0.0, bare, 4)


class TestBumpCalculus:
    """Finite-difference checks of the analytic bump derivatives."""

    @staticmethod
    def _fd_grad(value, X, V, h=1e-6):
        gx = np.zeros_like(X)
        gv = np.zeros_like(V)
        for j in range(X.shape[1]):
            dx = np.zeros_like(X)
            dx[:, j] = h
            gx[:, j] = (value(X + dx, V) - value(X - dx, V)) / (2 * h)
            gv[:, j] = (value(X, V + dx) - value(X, V - dx)) / (2 * h)
        return gx, gv

    def test_gradients_match_finite_differences(self):
        psi = bump([0.2], [-0.1], 2.0)
        rng = np.random.default_rng(14)
        X = 0.8 * rng.standard_normal((40, 1))
        V = 0.8 * rng.standard_normal((40, 1))
        gx, gv = self._fd_grad(psi.value, X, V)
        np.testing.assert_allclose(psi.grad_x(X, V), gx, atol=1e-7)
        np.testing.assert_allclose(psi.grad_v(X, V), gv, atol=1e-7)

    def test_velocity_laplacian_matches_finite_differences(self):
        psi = bump([0.0, 0.0], [0.0, 0.0], 2.0)
        rng = np.random.default_rng(15)
        X = 0.5 * rng.standard_normal((30, 2))
        V = 0.5 * rng.standard_normal((30, 2))
        h = 1e-4
        lap = np.zeros(30)
        for j in range(2):
            dv = np.zeros_like(V)
            dv[:, j] = h
            lap += (psi.value(X, V + dv) - 2 * psi.value(X, V)
                    + psi.value(X, V - dv)) / h**2
        np.testing.assert_allclose(psi.lap_v(X, V), lap, atol=1e-5)

    def test_support_is_compact(self):
        psi = bump([0.0], [0.0], 1.0)
        X = np.array([[2.0], [0.9], [0.0]])
        V = np.zeros((3, 1))
        vals = psi.value(X, V)
        assert vals[0] == 0.0
        assert vals[1] > 0.0
        # Peak value exp(1 - 1) = 1 at the center.
        assert vals[2] == pytest.approx(1.0)
        np.testing.assert_array_equal(psi.grad_x(X, V)[0], [0.0])
        assert psi.lap_v(X, V)[0] == 0.0

    # First 16 hex digits of the SHA-256 of value, grad_x, grad_v and
    # lap_v, in that order, per d, recorded before bump's profile became a
    # shared helper.
    _RECORDED_DIGESTS = {
        ("bump", 1): "c985adb26e2b8a33",
        ("bump", 2): "edcc1d551459f7b9",
        ("bump", 3): "080e4e1d3c1860cd",
    }

    @staticmethod
    def _digests(d):
        """Digest of every callback output of bump at d, on seeded points
        that fall both inside and outside the support."""
        rng = np.random.default_rng(100 + d)
        cx, cv = rng.uniform(-0.3, 0.3, (2, d))
        X, V = 0.8 * rng.standard_normal((2, 50, d))
        psi = bump(cx, cv, 1.5)
        h = hashlib.sha256()
        for cb in (psi.value, psi.grad_x, psi.grad_v, psi.lap_v):
            h.update(np.ascontiguousarray(cb(X, V)).tobytes())
        return {("bump", d): h.hexdigest()[:16]}

    def test_callbacks_match_the_recorded_digests(self):
        got = {}
        for d in (1, 2, 3):
            got.update(self._digests(d))
        assert got == self._RECORDED_DIGESTS


class TestStability:
    def test_identical_drifts_give_zero_gaps(self):
        cfg = _cfg(N=8, sigma=0.1)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        gaps = stability_experiment([f, f], f, _spread_init(8, 1), cfg)
        assert gaps == [0.0, 0.0]

    def test_shrinking_perturbations_shrink_gaps(self):
        cfg = _cfg(N=16, n_steps=16, sigma=0.05, seed=21)
        base = drift_from_kernel(kernel("bounded_alignment", d=1))

        def perturbed(eps):
            def batch(t, flow, X, V, eps=eps):
                return base.eval_batch(t, flow, X, V) + eps
            return DriftField(batch=batch, K=base.K + abs(eps), L=base.L,
                              D=base.D, p=base.p, name=f"pert[{eps}]")

        init = _spread_init(16, 1, seed=21)
        gaps = stability_experiment([perturbed(0.4), perturbed(0.1)], base,
                                    init, cfg)
        assert gaps[0] > gaps[1] > 0.0

    @pytest.mark.parametrize("name", _RESTART_KERNELS)
    @pytest.mark.parametrize("n_steps,sigma", [(1, 0.0), (6, 0.1), (16, 0.05)])
    def test_gaps_are_those_of_the_picard_fixed_points(self, name, n_steps,
                                                       sigma):
        # One sweep is the discrete fixed point that n_steps + 1 Picard
        # iterates reach, so the gaps are the same bits.
        cfg = _cfg(N=12, d=2, n_steps=n_steps, sigma=sigma, seed=4)
        init = _spread_init(12, 2, seed=4, scale=1.0)
        base = drift_from_kernel(kernel(name, d=2))

        def perturbed(eps):
            def batch(t, flow, X, V, eps=eps):
                return base.eval_batch(t, flow, X, V) * (1.0 + eps)
            return DriftField(batch=batch, K=base.K * (1.0 + eps), L=base.L,
                              D=base.D, p=base.p, name=f"pert[{eps}]")

        members = [perturbed(0.5), perturbed(-0.25), base]

        def fixed_point(f):
            rep = picard_solve(f, init, cfg, tol=1e-300,
                               max_iter=cfg.n_steps + 1)
            assert rep.converged and rep.gaps[-1] == 0.0
            return rep.final_flow

        ref = fixed_point(base)
        want = [flow_gap(fixed_point(f), ref, base.p) for f in members]
        assert stability_experiment(members, base, init, cfg) == want
        assert want[-1] == 0.0 and want[0] > want[1] > 0.0


def holder_ratio(flow, p, wp):
    """Worst Hoelder quotient max_{t != s} wp(mu_t, mu_s) / |t - s|^{gamma_p}
    over all grid pairs, gamma_p = 1/max(2, p): the full loop that
    moment_certificate's pruned quotient must equal bit for bit."""
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


class TestHolderRatio:
    def test_two_node_hand_value(self):
        a = ParticleEnsemble([[0.0]], [[0.0]])
        b = ParticleEnsemble([[1.0]], [[0.0]])
        flow = MeasureFlow([0.0, 0.25], [a, b])

        def w1(u, w):
            return float(np.abs(u.X - w.X).mean() + np.abs(u.V - w.V).mean())

        # Distance 1 over dt^0.5 = 0.5, so the quotient is 2.
        assert holder_ratio(flow, 2.0, w1) == pytest.approx(2.0)

    def test_all_pairs_visited(self):
        ens = [ParticleEnsemble([[float(k)]], [[0.0]]) for k in (0, 0, 3)]
        flow = MeasureFlow([0.0, 1.0, 2.0], ens)
        seen = []

        def spy(u, w):
            seen.append((float(u.X[0, 0]), float(w.X[0, 0])))
            return 0.0

        holder_ratio(flow, 2.0, spy)
        assert len(seen) == 3

    def test_single_node_flow_rejected(self):
        flow = MeasureFlow.constant(ParticleEnsemble([[0.0]], [[0.0]]), [0.0])
        with pytest.raises(ValueError):
            holder_ratio(flow, 2.0, lambda a, b: 0.0)


class TestMomentCertificate:
    def test_origin_point_mass_scores_zero(self):
        ens = ParticleEnsemble(np.zeros((3, 1)), np.zeros((3, 1)))
        flow = MeasureFlow.constant(ens, time_grid(1.0, 4))
        cert = moment_certificate(flow, 2.0, IDENTITY_YOUNG)
        assert cert.passed
        assert cert.sup_moment == 0.0
        assert cert.young_sup_moment == 0.0
        assert cert.holder == 0.0
        assert cert.gamma == 0.5

    def test_simulated_flow_is_certified_finite(self):
        cfg = _cfg(N=12, n_steps=12, sigma=0.2)
        f = drift_from_kernel(kernel("bounded_alignment", d=1))
        rep = picard_solve(f, _spread_init(12, 1), cfg)
        cert = moment_certificate(rep.final_flow, 2.0, IDENTITY_YOUNG)
        assert isinstance(cert, MomentCertificate)
        assert cert.passed
        assert cert.sup_moment > 0.0
        assert cert.holder > 0.0

    @given(st.sampled_from([1, 2, 7, 32, 33, 64, 257]),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.tuples(st.sampled_from(["step", "repeat", "shuffled",
                                               "translated"]),
                              st.floats(min_value=-12.0, max_value=0.0)),
                    min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_pruned_holder_equals_full_holder(self, N, d, p, seed, nodes):
        # Each node moves from the one before by a random step of size
        # 1e-12..1, repeats it (gap 0), is a shuffled copy plus a step
        # (exact far below paired) or a translate (exact = paired). Uneven
        # time steps mix the Hoelder scales into the bound order.
        rng = np.random.default_rng(seed)
        snaps = [_spread_init(N, d, seed=int(rng.integers(2**32)))]
        for kind, log_eps in nodes:
            eps = 10.0 ** log_eps
            prev = snaps[-1]
            if kind == "repeat":
                nxt = prev
            elif kind == "translated":
                shift = eps * rng.standard_normal(2 * d)
                nxt = ParticleEnsemble(prev.X + shift[:d], prev.V + shift[d:])
            else:
                nxt = ParticleEnsemble(prev.X + eps * rng.standard_normal((N, d)),
                                       prev.V + eps * rng.standard_normal((N, d)))
                if kind == "shuffled":
                    order = rng.permutation(N)
                    nxt = ParticleEnsemble(nxt.X[order], nxt.V[order])
            snaps.append(nxt)
        times = np.cumsum(rng.uniform(0.01, 1.0, len(snaps)))
        flow = MeasureFlow(times, snaps)
        full = holder_ratio(flow, p, lambda a, b: wasserstein_gap(a, b, p))
        assert moment_certificate(flow, p, IDENTITY_YOUNG).holder == full

    def test_holder_pruning_skips_dominated_pairs(self):
        # Perturbations shrinking tenfold per node: the identity coupling
        # stays optimal, so few of the 15 pairs need a solve.
        rng = np.random.default_rng(4)
        base = _spread_init(16, 2, seed=9)
        snaps = [ParticleEnsemble(base.X + 10.0**-k * rng.standard_normal((16, 2)),
                                  base.V) for k in range(6)]
        flow = MeasureFlow(np.arange(6, dtype=float), snaps)
        full = holder_ratio(flow, 2.0, lambda a, b: wasserstein_gap(a, b, 2.0))
        with mock.patch.object(meanfield, "wasserstein_gap",
                               wraps=meanfield.wasserstein_gap) as spy:
            assert moment_certificate(flow, 2.0, IDENTITY_YOUNG).holder == full
        assert spy.call_count < 15
