"""Integrator tests built on scheme-exact recurrences.

The semi-implicit kinetic step has closed forms for frozen drifts: those
are reproduced here by hand and compared digit for digit where the scheme
admits it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf.control_opt import sv_control
from kineticmf.drift import (coupling_from_kernel, drift_from_kernel, kernel,
                             kernel_fields, leader_field_from_kernels,
                             pair_mean)
from kineticmf.pdeode import solve_leader_ode
from kineticmf.phase_space import (LeaderPath, LeaderState, MeasureFlow,
                                   ParticleEnsemble)
from kineticmf.sde import (
    STREAM_BROWNIAN,
    STREAM_INITIAL,
    SimConfig,
    doob_bound,
    doob_check,
    generate_brownian,
    path_rng,
    simulate_frozen,
    simulate_interacting,
)


def _cfg(**kw):
    base = dict(T=1.0, n_steps=8, N=4, sigma=0.0, seed=7, d=1)
    base.update(kw)
    return SimConfig(**base)


def _point_init(N, d, x=0.0, v=0.0):
    return ParticleEnsemble(np.full((N, d), x), np.full((N, d), v))


def _hand_built_interacting(kernels, u, init_followers, init_leaders, cfg,
                            paths):
    """The finite-N system written out with its own pair sums, leader
    right-hand side and stepping loop: the reference the shared engine of
    simulate_interacting must reproduce byte for byte."""
    K11, K12, K21, K22 = (kernels.get(s) for s in ("K11", "K12", "K21", "K22"))
    m, d, dt = init_leaders.m, cfg.d, cfg.dt  # dt steps the followers
    noise = math.sqrt(2.0 * cfg.sigma)
    times = cfg.grid()
    X = init_followers.X.copy()
    V = init_followers.V.copy()
    Y = init_leaders.Y.copy()
    snapshots = [init_followers]
    Y_hist = np.empty((cfg.n_steps + 1, m, d))
    W_hist = np.empty((cfg.n_steps + 1, m, d))
    Y_hist[0] = Y

    def leader_rhs(k, X, Y):
        rhs = np.zeros((m, d))
        if K21 is not None:
            rhs += pair_mean(K21, Y, X)
        if K22 is not None:
            rhs += pair_mean(K22, Y, Y)
        if u is not None and m > 0:
            prefix = MeasureFlow(times[: k + 1], snapshots[: k + 1])
            rhs += np.asarray(u(times[k], prefix), dtype=float).reshape(m, d)
        return rhs

    for k in range(cfg.n_steps):
        rhs = leader_rhs(k, X, Y)
        W_hist[k] = rhs
        drift = np.zeros((cfg.N, d))
        if K11 is not None:
            drift += pair_mean(K11, X, X, V, V)
        if K12 is not None:
            drift += pair_mean(K12, X, Y, V, rhs)
        V = V + drift * dt + noise * paths[k, : cfg.N]
        X = X + V * dt
        Y = Y + (times[k + 1] - times[k]) * rhs
        snapshots.append(ParticleEnsemble(X, V))
        Y_hist[k + 1] = Y
    W_hist[cfg.n_steps] = leader_rhs(cfg.n_steps, X, Y)
    return MeasureFlow(times, snapshots), LeaderPath(times, Y_hist, W_hist)


class TestConfig:
    def test_dt_and_grid(self):
        cfg = _cfg(T=2.0, n_steps=4)
        assert cfg.dt == 0.5
        np.testing.assert_array_equal(cfg.grid(), [0.0, 0.5, 1.0, 1.5, 2.0])

    # NaN passes an ordered comparison, and T = inf gives a grid of
    # [nan, inf, ...]: both bounds are checked.
    @pytest.mark.parametrize("kw", [dict(T=0.0), dict(n_steps=0), dict(N=0),
                                    dict(sigma=-0.1), dict(d=0),
                                    dict(T=math.nan), dict(T=math.inf),
                                    dict(sigma=math.nan),
                                    dict(sigma=math.inf)])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_rejected_by_name(self, seed):
        # numpy's own refusal, in generate_brownian, names no field.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            _cfg(seed=seed)
        assert _cfg(seed=np.int64(0)).seed == 0

    @pytest.mark.parametrize("name", ["n_steps", "N", "seed", "d"])
    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_non_integral_counts_rejected(self, name, value):
        with pytest.raises(TypeError, match="cannot be interpreted as an "
                           "integer"):
            _cfg(**{name: value})
        assert getattr(_cfg(**{name: np.int64(2)}), name) == 2


class TestRandomness:
    def test_path_rng_reproducible(self):
        a = path_rng(3, STREAM_BROWNIAN, 0).standard_normal(5)
        b = path_rng(3, STREAM_BROWNIAN, 0).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_do_not_collide(self):
        a = path_rng(3, STREAM_BROWNIAN, 0).standard_normal(5)
        b = path_rng(3, STREAM_INITIAL, 0).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_paths_do_not_collide(self):
        a = path_rng(3, STREAM_BROWNIAN, 0).standard_normal(5)
        b = path_rng(3, STREAM_BROWNIAN, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_prefix_stability_in_population_size(self, seed, N_small, extra, d):
        """Adding particles must not disturb the existing paths."""
        small = generate_brownian(_cfg(N=N_small, sigma=1.0, seed=seed, d=d))
        large = generate_brownian(_cfg(N=N_small + extra, sigma=1.0,
                                       seed=seed, d=d))
        np.testing.assert_array_equal(large[:, :N_small, :], small)

    def test_increments_scaled_by_sqrt_dt(self):
        cfg = _cfg(N=2000, n_steps=2, sigma=1.0)
        inc = generate_brownian(cfg)
        # Var of one increment is dt; loose MC window, tight enough to
        # catch a missing or squared scale factor.
        assert np.var(inc) == pytest.approx(cfg.dt, rel=0.1)

    def test_increments_are_a_read_only_float_array(self):
        paths = generate_brownian(_cfg(sigma=1.0))
        assert type(paths) is np.ndarray and paths.dtype == float
        assert paths.shape == (8, 4, 1)
        with pytest.raises(ValueError):
            paths[0, 0, 0] = 1.0

    def test_two_dimensional_increments_refused(self):
        cfg = _cfg(N=4, n_steps=3)
        with pytest.raises(ValueError, match="Brownian paths are not shaped "
                                             "for this configuration"):
            simulate_interacting({}, None, _point_init(4, 1),
                                 LeaderState.empty(1), cfg, np.zeros((3, 4)))


class TestFrozenDrift:
    def test_ballistic_transport_is_exact(self):
        cfg = _cfg(N=5, n_steps=64, sigma=0.0)
        rng = np.random.default_rng(1)
        init = ParticleEnsemble(rng.standard_normal((5, 1)),
                                rng.standard_normal((5, 1)))
        flow = simulate_frozen(lambda t, X, V: 0.0, init, cfg,
                               generate_brownian(cfg))
        for k, t in enumerate(flow.times):
            np.testing.assert_allclose(flow.snapshots[k].X,
                                       init.X + t * init.V, atol=1e-12)
            np.testing.assert_array_equal(flow.snapshots[k].V, init.V)

    def test_constant_drift_closed_form(self):
        """x_M = x0 + v0 T + a T^2/2 + a T dt/2 under the kinetic step."""
        a, x0, v0 = 0.7, -0.3, 1.1
        cfg = _cfg(N=1, n_steps=10, sigma=0.0)
        init = _point_init(1, 1, x=x0, v=v0)
        flow = simulate_frozen(lambda t, X, V: a, init, cfg,
                               generate_brownian(cfg))
        T, dt = cfg.T, cfg.dt
        want = x0 + v0 * T + 0.5 * a * T**2 + 0.5 * a * T * dt
        assert flow.snapshots[-1].X[0, 0] == pytest.approx(want, rel=1e-13)

    def test_constant_drift_error_halves_with_dt(self):
        a = 1.3
        exact = 0.5 * a  # x(T) with x0 = v0 = 0, T = 1
        errs = []
        for n in (16, 32):
            cfg = _cfg(N=1, n_steps=n, sigma=0.0)
            flow = simulate_frozen(lambda t, X, V: a, _point_init(1, 1), cfg,
                                   generate_brownian(cfg))
            errs.append(abs(flow.snapshots[-1].X[0, 0] - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=1e-9)

    def test_velocity_accumulates_exactly_the_noise(self):
        cfg = _cfg(N=6, n_steps=12, sigma=0.4)
        paths = generate_brownian(cfg)
        init = _point_init(6, 1, v=0.25)
        flow = simulate_frozen(lambda t, X, V: 0.0, init, cfg, paths)
        expect = init.V.copy()
        noise = math.sqrt(2.0 * cfg.sigma)
        for k in range(cfg.n_steps):
            expect = expect + noise * paths[k]
            np.testing.assert_array_equal(flow.snapshots[k + 1].V, expect)

    def test_nonfinite_drift_names_step_and_particle(self):
        cfg = _cfg(N=4, n_steps=6)

        def bad(t, X, V):
            out = np.zeros_like(X)
            if t >= 0.5:
                out[2] = np.inf
            return out

        with pytest.raises(FloatingPointError, match=r"step 3.*particle 2"):
            simulate_frozen(bad, _point_init(4, 1), cfg, generate_brownian(cfg))

    def test_state_overflow_names_the_step(self):
        # A finite drift whose Euler update overflows: 1e308 * dt with
        # dt = 2 leaves the velocity infinite after the first step.
        cfg = _cfg(T=4.0, n_steps=2, N=3)
        with pytest.raises(FloatingPointError,
                           match="non-finite state at step 1"):
            simulate_frozen(lambda t, X, V: np.full_like(X, 1e308),
                            _point_init(3, 1), cfg, generate_brownian(cfg))

    def test_init_and_path_guards(self):
        cfg = _cfg(N=4)
        paths = generate_brownian(cfg)
        with pytest.raises(ValueError, match="initial ensemble"):
            simulate_frozen(lambda t, X, V: 0.0, _point_init(3, 1), cfg, paths)
        with pytest.raises(ValueError, match="not shaped"):
            simulate_frozen(lambda t, X, V: 0.0, _point_init(4, 1),
                            _cfg(N=4, n_steps=9), paths)

    def test_reusing_larger_path_array_is_allowed(self):
        # Common random numbers across population sizes: a paths object
        # generated for N = 8 drives an N = 4 run via its first columns.
        big = generate_brownian(_cfg(N=8, sigma=0.3))
        cfg = _cfg(N=4, sigma=0.3)
        small = generate_brownian(cfg)
        f1 = simulate_frozen(lambda t, X, V: 0.0, _point_init(4, 1), cfg, big)
        f2 = simulate_frozen(lambda t, X, V: 0.0, _point_init(4, 1), cfg, small)
        np.testing.assert_array_equal(f1.snapshots[-1].V, f2.snapshots[-1].V)


class TestInteracting:
    def test_reduces_to_frozen_without_kernels(self):
        cfg = _cfg(N=5, n_steps=10, sigma=0.6)
        paths = generate_brownian(cfg)
        rng = np.random.default_rng(3)
        init = ParticleEnsemble(rng.standard_normal((5, 1)),
                                rng.standard_normal((5, 1)))
        flow_i, leaders = simulate_interacting({}, None, init,
                                               LeaderState.empty(1), cfg, paths)
        flow_f = simulate_frozen(lambda t, X, V: 0.0, init, cfg, paths)
        for a, b in zip(flow_i.snapshots, flow_f.snapshots):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.V, b.V)
        assert leaders.m == 0

    def test_permutation_equivariance(self):
        cfg = _cfg(N=6, n_steps=8, sigma=0.2)
        paths = generate_brownian(cfg)
        rng = np.random.default_rng(4)
        init = ParticleEnsemble(rng.standard_normal((6, 1)),
                                rng.standard_normal((6, 1)))
        perm = rng.permutation(6)
        permuted_paths = paths[:, perm, :]
        ks = {"K11": kernel("bounded_alignment", d=1)}
        base, _ = simulate_interacting(ks, None, init, LeaderState.empty(1),
                                       cfg, paths)
        swapped, _ = simulate_interacting(
            ks, None, ParticleEnsemble(init.X[perm], init.V[perm]),
            LeaderState.empty(1), cfg, permuted_paths)
        np.testing.assert_allclose(swapped.snapshots[-1].X,
                                   base.snapshots[-1].X[perm], atol=1e-13)

    def test_leaders_static_without_drive(self):
        cfg = _cfg(N=2, n_steps=4)
        flow, lp = simulate_interacting({}, None, _point_init(2, 1),
                                        LeaderState([[2.0]]), cfg,
                                        generate_brownian(cfg))
        np.testing.assert_array_equal(lp.Y, np.full((5, 1, 1), 2.0))
        np.testing.assert_array_equal(lp.W, np.zeros((5, 1, 1)))

    def test_leader_coupling_single_step_hand_value(self):
        cfg = SimConfig(T=0.5, n_steps=1, N=1, sigma=0.0, seed=0, d=1)
        ks = {"K12": kernel("bounded_attraction_position")}
        init = _point_init(1, 1, x=1.0, v=0.0)
        flow, lp = simulate_interacting(ks, None, init,
                                        LeaderState([[2.0]]), cfg,
                                        generate_brownian(cfg))
        # drift = K12(2 - 1) = 0.5; v1 = 0.25, x1 = 1 + 0.25 * 0.5.
        assert flow.snapshots[1].V[0, 0] == pytest.approx(0.25)
        assert flow.snapshots[1].X[0, 0] == pytest.approx(1.125)

    def test_constant_control_moves_leader_linearly(self):
        cfg = _cfg(N=2, n_steps=10)
        c = np.array([[0.8]])
        flow, lp = simulate_interacting({}, lambda t, pre: c, _point_init(2, 1),
                                        LeaderState([[0.0]]), cfg,
                                        generate_brownian(cfg))
        np.testing.assert_allclose(lp.Y[:, 0, 0], 0.8 * lp.times, atol=1e-12)
        # W is the evaluated right-hand side at every node, endpoints too.
        np.testing.assert_array_equal(lp.W, np.full((11, 1, 1), 0.8))

    def test_control_sees_growing_prefix(self):
        cfg = _cfg(N=2, n_steps=5)
        seen = []

        def spy(t, prefix):
            seen.append((float(t), len(prefix)))
            return np.zeros((1, 1))

        simulate_interacting({}, spy, _point_init(2, 1),
                             LeaderState([[0.0]]), cfg,
                             generate_brownian(cfg))
        # One call per step plus the final-node evaluation for W.
        assert len(seen) == 6
        assert seen[0] == (0.0, 1)
        assert seen[-1] == (1.0, 6)
        assert all(n == k + 1 for k, (_, n) in enumerate(seen))

    def test_followers_drag_leader_through_k21(self):
        cfg = SimConfig(T=0.5, n_steps=1, N=2, sigma=0.0, seed=0, d=1)
        ks = {"K21": kernel("bounded_attraction_position")}
        init = _point_init(2, 1, x=1.0)
        _, lp = simulate_interacting(ks, None, init,
                                     LeaderState([[0.0]]), cfg,
                                     generate_brownian(cfg))
        # rhs = K21(1 - 0) = 0.5, one Euler step of size 0.5.
        assert lp.Y[1, 0, 0] == pytest.approx(0.25)
        assert lp.W[0, 0, 0] == pytest.approx(0.5)

    def test_first_step_matches_the_mean_field_fields(self):
        # The finite-N right-hand sides are the mean-field fields evaluated
        # on the empirical state, bit for bit.
        cfg = SimConfig(T=0.5, n_steps=2, N=300, sigma=0.0, seed=3, d=2)
        rng = np.random.default_rng(12)
        init = ParticleEnsemble(rng.standard_normal((300, 2)),
                                rng.standard_normal((300, 2)))
        Y0 = LeaderState(rng.standard_normal((2, 2)))
        K11 = kernel("bounded_attraction")
        K12 = kernel("bounded_alignment", d=2)
        K21 = kernel("bounded_attraction_position")
        K22 = kernel("attraction_position")
        ks = {"K11": K11, "K12": K12, "K21": K21, "K22": K22}
        flow, lp = simulate_interacting(ks, None, init, Y0, cfg,
                                        generate_brownian(cfg))
        mu = MeasureFlow.constant(init, cfg.grid())
        np.testing.assert_array_equal(
            lp.W[0], leader_field_from_kernels(K21, K22, 2).rhs(0.0, mu, Y0.Y))
        drift = drift_from_kernel(K11).eval_batch(0.0, mu, init.X, init.V) \
            + coupling_from_kernel(K12).eval_batch(0.0, lp, init.X, init.V)
        np.testing.assert_array_equal(flow.snapshots[1].V,
                                      init.V + cfg.dt * drift)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_engine_matches_the_hand_built_loop(self, d, m):
        # Bytes, not array_equal: the CSVs tell a signed zero from +0.
        # Every subset of the four slots, without and with an sv control.
        slots = {"K11": kernel("bounded_alignment", d=d),
                 "K12": kernel("bounded_attraction"),
                 "K21": kernel("bounded_attraction_position"),
                 "K22": kernel("attraction_position")}
        cfg = SimConfig(T=2.0, n_steps=5, N=5, sigma=0.3, seed=11, d=d)
        paths = generate_brownian(cfg)
        rng = np.random.default_rng(10 * d + m)
        init = ParticleEnsemble(rng.standard_normal((5, d)),
                                rng.standard_normal((5, d)))
        Y0 = LeaderState(rng.standard_normal((m, d)))
        ctl = sv_control(0.5 * rng.standard_normal((3, m * d, 2 * d + 1)),
                         cfg.T, 5.0, m, d)
        for n in range(len(slots) + 1):
            for chosen in itertools.combinations(slots, n):
                ks = {s: slots[s] for s in chosen}
                for u in (None, ctl):
                    got = simulate_interacting(ks, u, init, Y0, cfg, paths)
                    want = _hand_built_interacting(ks, u, init, Y0, cfg, paths)
                    label = f"{sorted(ks)}, control {u is not None}"
                    assert len(got[0]) == len(want[0]) == cfg.n_steps + 1
                    for a, b in zip(got[0].snapshots, want[0].snapshots):
                        assert a.X.tobytes() == b.X.tobytes(), label
                        assert a.V.tobytes() == b.V.tobytes(), label
                    assert got[1].Y.tobytes() == want[1].Y.tobytes(), label
                    assert got[1].W.tobytes() == want[1].W.tobytes(), label

    def test_nonfinite_final_leader_rhs_detected(self):
        # The last right-hand side, W at t = T, moves no state; it is checked
        # on its own, as solve_leader_ode checks it.
        cfg = _cfg(N=2, n_steps=3)

        def bad(t, pre):
            return np.array([[np.inf if t == cfg.T else 0.0]])

        with pytest.raises(FloatingPointError, match="right-hand side"):
            simulate_interacting({}, bad, _point_init(2, 1),
                                 LeaderState([[0.0]]), cfg,
                                 generate_brownian(cfg))

    # test_pdeode's BLOWUPS: (node a where the control turns to value,
    # failure node, message) on 4 steps of 2. A right-hand side of inf
    # fails at the node it is read on, a finite 1e308 overflows Y one step
    # later.
    BLOWUPS = [(a, np.inf, a, "non-finite leader right-hand side")
               for a in range(5)] \
        + [(a, 1e308, a + 1, "non-finite leader state") for a in range(4)]

    @pytest.mark.parametrize("a, value, node, message", BLOWUPS)
    def test_nonfinite_leader_state_detected(self, a, value, node, message):
        # Both levels step the leaders by sde._leader_step: the same
        # message at the same time.
        cfg = _cfg(T=8.0, n_steps=4, N=2)
        times = cfg.grid()
        u = lambda t, flow: np.array([[value if t >= times[a] else 0.5]])
        init, Y0 = _point_init(2, 1), LeaderState([[0.0]])
        paths = generate_brownian(cfg)
        with pytest.raises(FloatingPointError) as sweep:
            simulate_interacting({}, u, init, Y0, cfg, paths)
        flow = simulate_frozen(lambda t, X, V: 0.0, init, cfg, paths)
        with pytest.raises(FloatingPointError) as ode:
            solve_leader_ode(kernel_fields({}, 1)[2], u, flow, Y0)
        assert str(sweep.value) == str(ode.value) \
            == f"{message} at t={times[node]}"

    @pytest.mark.parametrize("Y", [[[1.0]], np.zeros((0, 1)),
                                   [[1.0, 2.0, 3.0]]],
                             ids=["d=1", "leaderless-d=1", "d=3"])
    def test_leaders_of_another_d_refused(self, Y):
        # A d = 1 leader was once broadcast into a d = 2 path.
        cfg = _cfg(N=2, n_steps=3, d=2)
        leaders = LeaderState(Y)
        with pytest.raises(ValueError, match=rf"leaders have d={leaders.d}, "
                           "the followers d=2"):
            simulate_interacting({}, None, _point_init(2, 2), leaders, cfg,
                                 generate_brownian(cfg))


class TestDoob:
    def test_bound_hand_values(self):
        assert doob_bound(2.0, 1.0) == pytest.approx(8.0, rel=1e-12)
        # The constant scales like T^{p/2}.
        assert doob_bound(2.0, 4.0) == pytest.approx(32.0, rel=1e-12)

    def test_bound_needs_p_above_one(self):
        with pytest.raises(ValueError):
            doob_bound(1.0, 1.0)

    def test_small_monte_carlo_run_passes(self):
        chk = doob_check(2.0, 1.0, n_paths=400, n_steps=50, seed=5)
        assert chk.passed
        assert chk.estimate <= chk.bound
        # E sup |B|^2 is at least E |B(T)|^2 = T; guards against a
        # degenerate estimator that returns 0.
        assert chk.estimate > 0.5

    def test_estimate_is_the_mean_sup_of_the_running_sums(self):
        # B(t_k) summed one increment at a time, as cumsum adds a column.
        n_paths, n_steps, p = 30, 12, 2.0
        cfg = _cfg(T=1.0, n_steps=n_steps, N=n_paths, sigma=0.0, seed=4)
        B = np.zeros(n_paths)
        sup = np.zeros(n_paths)
        for inc in generate_brownian(cfg)[:, :, 0]:
            B = B + inc
            sup = np.maximum(sup, np.abs(B))
        chk = doob_check(p, 1.0, n_paths=n_paths, n_steps=n_steps, seed=4)
        assert chk.estimate == float(np.mean(sup ** p))

    def test_check_is_deterministic(self):
        a = doob_check(2.0, 1.0, n_paths=100, n_steps=20, seed=9)
        b = doob_check(2.0, 1.0, n_paths=100, n_steps=20, seed=9)
        assert a.estimate == b.estimate
