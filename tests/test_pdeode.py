"""Leader ODE, coupled drift, and coupled-solver tests."""

import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf import pdeode
from kineticmf.control_opt import sv_control
from kineticmf.drift import (
    InteractionKernel,
    LeaderField,
    constant_field,
    coupling_from_kernel,
    drift_from_kernel,
    kernel,
    kernel_fields,
    leader_field_from_kernels,
    pair_mean,
    zero_field,
)
from kineticmf.meanfield import flow_gap, picard_solve
from kineticmf.pdeode import (
    CoupledSolution,
    LeaderFollowerModel,
    control_stability,
    leader_flow_sensitivity,
    solve_coupled,
    solve_leader_ode,
)
from kineticmf.phase_space import (
    LeaderPath,
    LeaderState,
    MeasureFlow,
    ParticleEnsemble,
    _agreeing_nodes,
    time_grid,
    write_flow_csv,
    write_leader_csv,
)
from kineticmf.sde import (SimConfig, generate_brownian, simulate_frozen,
                           simulate_interacting)


def _cfg(**kw):
    base = dict(T=1.0, n_steps=10, N=4, sigma=0.0, seed=5, d=1)
    base.update(kw)
    return SimConfig(**base)


def _const_flow(x, n_steps=10, T=1.0, N=1, v=0.0):
    ens = ParticleEnsemble(np.full((N, 1), float(x)), np.full((N, 1), float(v)))
    return MeasureFlow.constant(ens, time_grid(T, n_steps))


def _zero_F(m=1):
    return leader_field_from_kernels(kernel("zero_position"),
                                     kernel("zero_position"), m)


def _gauss_sampler(d, scale=0.5):
    def sampler(N, seed):
        rng = np.random.default_rng(seed)
        return ParticleEnsemble(scale * rng.standard_normal((N, d)),
                                scale * rng.standard_normal((N, d)))
    return sampler


class TestModelBundle:
    def test_unknown_kernel_slot_rejected(self):
        with pytest.raises(ValueError, match="K13"):
            LeaderFollowerModel(kernels={"K13": kernel("zero")},
                                Y0=LeaderState.empty(1),
                                sampler=_gauss_sampler(1), d=1)

    def test_initial_checks_sampler_output(self):
        model = LeaderFollowerModel(kernels={}, Y0=LeaderState.empty(1),
                                    sampler=_gauss_sampler(2), d=1)
        with pytest.raises(ValueError, match="sampler"):
            model.initial(4, seed=0)

    def test_mean_field_fields_fill_missing_slots(self):
        model = LeaderFollowerModel(kernels={}, Y0=LeaderState([[0.0]]),
                                    sampler=_gauss_sampler(1), d=1)
        v, w, F = model.mean_field_fields()
        assert v is None
        assert w is None
        assert model.m == 1
        flow = _const_flow(1.0)
        np.testing.assert_array_equal(
            F.rhs(0.0, flow, np.array([[0.5]])), [[0.0]])

    def test_mean_field_fields_wire_the_kernels(self):
        model = LeaderFollowerModel(
            kernels={"K11": kernel("bounded_alignment", d=1),
                     "K12": kernel("bounded_attraction_position")},
            Y0=LeaderState([[2.0]]),
            sampler=_gauss_sampler(1), d=1)
        v, w, F = model.mean_field_fields()
        assert v.name == "conv[bounded_alignment]"
        assert w is not None
        assert w.name == "coupling[bounded_attraction_position]"

    @pytest.mark.parametrize("absent", [("K21",), ("K22",), ("K21", "K22")])
    @pytest.mark.parametrize("m", [1, 3])
    def test_absent_leader_slots_match_zero_kernel_substitution(self, absent, m):
        # An absent K21/K22 slot is skipped, not summed as zero_position;
        # the drive, the leader solves and the declared constants must be
        # those of the substituted field, byte for byte.
        kernels = {"K21": kernel("bounded_attraction_position"),
                   "K22": kernel("attraction_position")}
        for slot in absent:
            del kernels[slot]
        rng = np.random.default_rng(m)
        Y0 = LeaderState(rng.standard_normal((m, 2)))
        model = LeaderFollowerModel(kernels=kernels, Y0=Y0,
                                    sampler=_gauss_sampler(2), d=2)
        _, _, F = model.mean_field_fields()
        A, B = (kernels.get(s, kernel("zero_position")) for s in ("K21", "K22"))
        ref = LeaderField(
            fn=lambda t, flow, Y: pair_mean(A, Y, flow.at_time(t).X)
            + pair_mean(B, Y, Y),
            K_F=(A.M_ker if not A.unbounded else 1.0)
            + (B.M_ker if not B.unbounded else 1.0),
            L_F=A.L_ker + 2.0 * B.L_ker, name=f"leader[{A.name},{B.name}]")
        assert (F.K_F, F.L_F, F.name) == (ref.K_F, ref.L_F, ref.name)
        cfg = SimConfig(T=1.0, n_steps=6, N=5, sigma=0.1, seed=2, d=2)
        flow = simulate_frozen(lambda t, X, V: -X, model.initial(5, 3), cfg,
                               generate_brownian(cfg))
        for t in flow.times:
            assert F.rhs(t, flow, Y0.Y).tobytes() \
                == ref.rhs(t, flow, Y0.Y).tobytes()
        c = rng.standard_normal((m, 2))
        u = lambda t, mu: c * (1.0 + t)
        got = solve_leader_ode(F, u, flow, Y0)
        want = solve_leader_ode(ref, u, flow, Y0)
        assert got.Y.tobytes() == want.Y.tobytes()
        assert got.W.tobytes() == want.W.tobytes()


class TestLeaderOde:
    def test_no_drive_keeps_leaders_put(self):
        flow = _const_flow(0.0)
        path = solve_leader_ode(_zero_F(), None, flow,
                                LeaderState([[1.5]]))
        np.testing.assert_array_equal(path.Y, np.full((11, 1, 1), 1.5))
        np.testing.assert_array_equal(path.W, np.zeros((11, 1, 1)))

    @pytest.mark.parametrize("Y", [[[1.0]], np.zeros((0, 1))],
                             ids=["d=1", "leaderless-d=1"])
    def test_leaders_of_another_d_refused(self, Y):
        ens = ParticleEnsemble(np.zeros((3, 2)), np.zeros((3, 2)))
        flow = MeasureFlow.constant(ens, time_grid(1.0, 4))
        with pytest.raises(ValueError,
                           match="leaders have d=1, the followers d=2"):
            solve_leader_ode(_zero_F(len(Y)), None, flow, LeaderState(Y))

    def test_constant_control_integrates_exactly(self):
        flow = _const_flow(0.0, n_steps=8)
        c = np.array([[0.6]])
        path = solve_leader_ode(_zero_F(), lambda t, mu: c, flow,
                                LeaderState([[0.0]]))
        np.testing.assert_allclose(path.Y[:, 0, 0], 0.6 * path.times, atol=1e-14)
        # W carries the evaluated right-hand side at every node.
        np.testing.assert_array_equal(path.W, np.full((9, 1, 1), 0.6))

    def test_euler_matches_hand_quadrature(self):
        # dY/dt = (K21 * mu_t)(Y) along a two-particle static flow.
        K21 = kernel("bounded_attraction_position")
        F = leader_field_from_kernels(K21, kernel("zero_position"), 1)
        ens = ParticleEnsemble([[1.0], [3.0]], [[0.0], [0.0]])
        flow = MeasureFlow.constant(ens, time_grid(1.0, 20))
        path = solve_leader_ode(F, None, flow, LeaderState([[0.0]]))
        y = 0.0
        dt = 0.05
        for k in range(20):
            rhs = 0.5 * ((1.0 - y) / (1.0 + (1.0 - y) ** 2)
                         + (3.0 - y) / (1.0 + (3.0 - y) ** 2))
            assert path.W[k, 0, 0] == pytest.approx(rhs, rel=1e-13)
            y += dt * rhs
            assert path.Y[k + 1, 0, 0] == pytest.approx(y, rel=1e-13)

    @pytest.mark.parametrize("resume", [False, True])
    def test_returned_path_is_read_only(self, resume):
        K21 = kernel("bounded_attraction_position")
        F = leader_field_from_kernels(K21, kernel("zero_position"), 1)
        flow = _const_flow(1.0, n_steps=4)
        Y0 = LeaderState([[0.5]])
        path = solve_leader_ode(F, None, flow, Y0)
        if resume:
            path = solve_leader_ode(F, None, flow, Y0, _resume=(path, 2))
        for a in (path.times, path.Y, path.W):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_nonfinite_rhs_raises_with_time(self):
        flow = _const_flow(0.0)
        bad = lambda t, mu: np.array([[np.inf if t > 0.4 else 0.0]])
        with pytest.raises(FloatingPointError, match="t=0.5"):
            solve_leader_ode(_zero_F(), bad, flow,
                             LeaderState([[0.0]]))

    def test_state_overflow_raises_with_time(self):
        # A finite drive of 1e308 with dt = 2 overflows Y in one step.
        F = LeaderField(fn=lambda t, flow, Y: np.full_like(Y, 1e308))
        flow = _const_flow(0.0, n_steps=2, T=4.0)
        with pytest.raises(FloatingPointError,
                           match="non-finite leader state at t=2.0"):
            solve_leader_ode(F, None, flow, LeaderState([[0.0]]))

    def test_growth_bound_holds_for_bounded_drives(self):
        K21 = kernel("bounded_attraction_position")
        F = leader_field_from_kernels(K21, kernel("zero_position"), 1)
        flow = _const_flow(5.0, n_steps=30)
        Y0 = LeaderState([[1.0]])
        M_u = 0.3
        path = solve_leader_ode(F, lambda t, mu: np.array([[M_u]]), flow, Y0)
        # The a priori Euler bound |Y0| + T (K_F + M_u).
        bound = float(np.linalg.norm(Y0.Y)) + 1.0 * (F.K_F + M_u)
        assert float(np.max(np.abs(path.Y))) <= bound + 1e-12


class TestCombinedDrift:
    def test_no_coupling_returns_v_unchanged(self):
        v = zero_field()
        assert pdeode._coupled_drift(v, None, _zero_F(), None,
                                     LeaderState.empty(1), 1.0)[0] is v

    def test_static_leader_coupling_hand_value(self):
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        G = pdeode._coupled_drift(zero_field(), w, _zero_F(), None,
                                  LeaderState([[2.0]]), 1.0)[0]
        flow = _const_flow(1.0)
        out = G.eval_batch(0.5, flow, np.array([[1.0]]), np.array([[0.0]]))
        # Leader pinned at 2, follower at 1: K12(1) = 0.5.
        np.testing.assert_allclose(out, [[0.5]])

    def test_leader_solve_cached_per_flow_object(self, monkeypatch):
        calls, solves = [], []
        real_solve = pdeode.solve_leader_ode

        def counting_solve(*args, **kwargs):
            solves.append(args[2])
            return real_solve(*args, **kwargs)

        def counting(t, flow, leaders):
            calls.append(t)
            return np.zeros((1, 1))

        monkeypatch.setattr(pdeode, "solve_leader_ode", counting_solve)
        F = LeaderField(fn=counting, K_F=0.0, L_F=0.0)
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        G = pdeode._coupled_drift(zero_field(), w, F, None,
                                  LeaderState([[0.0]]), 1.0)[0]
        flow = _const_flow(0.0, n_steps=4)
        X, V = np.zeros((2, 1)), np.zeros((2, 1))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            G.eval_batch(t, flow, X, V)
        # One ODE solve: 4 steps + final-node evaluation = 5 rhs calls.
        assert solves == [flow]
        assert len(calls) == 5
        # An equal flow is a new object, so it gets its own solve; that
        # solve restarts past the last node, with no rhs call left.
        other = _const_flow(0.0, n_steps=4)
        for t in (0.0, 0.5, 1.0):
            G.eval_batch(t, other, X, V)
        assert solves == [flow, other]
        assert len(calls) == 5
        # A flow first differing at node 2 re-solves nodes 2 and 3 and the
        # final node.
        X_all = np.zeros((5, 1, 1))
        X_all[2:] = 0.5
        moved = MeasureFlow._of(time_grid(1.0, 4), X_all, np.zeros((5, 1, 1)))
        G.eval_batch(0.0, moved, X, V)
        assert solves == [flow, other, moved]
        assert calls[5:] == [0.5, 0.75, 1.0]

    def test_composition_constants_dominate_components(self):
        v = drift_from_kernel(kernel("bounded_alignment", d=1))
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        F = leader_field_from_kernels(kernel("bounded_attraction_position"),
                                      kernel("zero_position"), 1)
        G = pdeode._coupled_drift(v, w, F, None, LeaderState([[1.0]]),
                                  T=1.0)[0]
        assert G.K >= v.K
        assert G.D >= v.D
        assert G.L == v.L + w.L_w
        assert G.p == v.p
        assert G.name == "conv[bounded_alignment]+coupling[bounded_attraction_position]"


class TestSolveCoupled:
    def test_decoupled_flow_ignores_leader_side(self):
        cfg = _cfg(N=6, sigma=0.3)
        init = _gauss_sampler(1)(6, 0)
        v = drift_from_kernel(kernel("bounded_alignment", d=1))
        sol_a = solve_coupled(v, None, _zero_F(), None, init,
                              LeaderState([[5.0]]), cfg)
        sol_b = solve_coupled(v, None, _zero_F(),
                              lambda t, mu: np.array([[1.0]]), init,
                              LeaderState([[-5.0]]), cfg)
        direct = picard_solve(v, init, cfg)
        for a, b, c in zip(sol_a.flow.snapshots, sol_b.flow.snapshots,
                           direct.final_flow.snapshots):
            np.testing.assert_array_equal(a.X, c.X)
            np.testing.assert_array_equal(b.X, c.X)

    def test_measure_independent_coupling_closes_in_two_passes(self):
        # F = 0 and u = 0 pin the leader, so w contributes a fixed field
        # and the combined drift has no measure dependence.
        cfg = _cfg(N=4, sigma=0.2)
        init = _gauss_sampler(1)(4, 3)
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        sol = solve_coupled(constant_field([0.1]), w, _zero_F(), None, init,
                            LeaderState([[2.0]]), cfg)
        assert sol.picard.iterations == 2
        assert sol.picard.gaps[1] == 0.0
        assert sol.picard.converged

    def test_leader_path_rides_the_final_flow(self):
        cfg = _cfg(N=8, n_steps=12, sigma=0.1)
        init = _gauss_sampler(1)(8, 7)
        v = drift_from_kernel(kernel("bounded_alignment", d=1))
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        F = leader_field_from_kernels(kernel("bounded_attraction_position"),
                                      kernel("zero_position"), 1)
        sol = solve_coupled(v, w, F, None, init, LeaderState([[2.0]]),
                            cfg)
        assert sol.picard.converged
        again = solve_leader_ode(F, None, sol.flow,
                                 LeaderState([[2.0]]))
        np.testing.assert_array_equal(sol.leaders.Y, again.Y)
        np.testing.assert_array_equal(sol.leaders.W, again.W)

    def test_attractive_leader_pulls_follower_mean(self):
        cfg = _cfg(N=4, n_steps=20, sigma=0.0)
        init = ParticleEnsemble(np.zeros((4, 1)), np.zeros((4, 1)))
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        sol = solve_coupled(zero_field(), w, _zero_F(), None, init,
                            LeaderState([[2.0]]), cfg)
        assert sol.picard.converged
        assert float(sol.flow.snapshots[-1].X.mean()) > 0.05

    @pytest.mark.parametrize("tol", [float("nan"), 0.0])
    def test_a_tolerance_that_is_not_positive_is_refused(self, tol):
        # A NaN tolerance is refused as 0.0 is: no gap would ever meet it.
        init = _gauss_sampler(1)(4, 3)
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve_coupled(zero_field(), w, _zero_F(), None, init,
                          LeaderState([[2.0]]), _cfg(N=4), tol=tol)

    def test_grid_mismatch_rejected(self):
        flow = _const_flow(0.0, n_steps=4)
        lp = LeaderPath(time_grid(1.0, 2), np.zeros((3, 1, 1)),
                        np.zeros((3, 1, 1)))
        rep = picard_solve(zero_field(), flow.snapshots[0], _cfg(N=1, n_steps=4))
        with pytest.raises(ValueError, match="share the grid"):
            CoupledSolution(flow=flow, leaders=lp, picard=rep)


def _sign_leader_field():
    """A leader drive that reads the sign of follower 0's velocity, zeros
    included: flows differing only in the sign of a zero drive it apart."""
    return LeaderField(fn=lambda t, flow, Y: np.copysign(
        1.0, flow.at_time(t).V[:1]), K_F=1.0, L_F=0.0)


class TestLeaderRestart:
    """A leader solve along a flow that agrees with an earlier one on its
    nodes 0..a - 1 restarts from the earlier path at node a."""

    @pytest.mark.parametrize("a", range(0, 8))
    def test_restarted_path_equals_the_from_scratch_one(self, a):
        times = time_grid(2.0, 6)
        rng = np.random.default_rng(a)
        V_old = rng.standard_normal((7, 3, 1))
        V_new = V_old.copy()
        V_new[a:] = -V_new[a:]
        X = np.zeros((7, 3, 1))
        old = MeasureFlow._of(times, X, V_old)
        new = MeasureFlow._of(times, X, V_new)
        assert _agreeing_nodes(old, new) == a
        F = _sign_leader_field()
        u = lambda t, flow: flow.at_time(t).V[1:2] ** 2
        Y0 = LeaderState([[0.5]])
        prior = solve_leader_ode(F, u, old, Y0)
        scratch = solve_leader_ode(F, u, new, Y0)
        resumed = solve_leader_ode(F, u, new, Y0, _resume=(prior, a))
        assert resumed.Y.tobytes() == scratch.Y.tobytes()
        assert resumed.W.tobytes() == scratch.W.tobytes()

    def test_a_signed_zero_is_a_difference(self):
        times = time_grid(1.0, 4)
        plus = np.zeros((5, 2, 1))
        minus = plus.copy()
        minus[2, 0, 0] = -0.0
        old = MeasureFlow._of(times, plus, plus)
        new = MeasureFlow._of(times, plus, minus)
        F, Y0 = _sign_leader_field(), LeaderState([[0.0]])
        prior = solve_leader_ode(F, None, old, Y0)
        scratch = solve_leader_ode(F, None, new, Y0)
        assert prior.W.tobytes() != scratch.W.tobytes()
        resumed = solve_leader_ode(F, None, new, Y0,
                                   _resume=(prior, _agreeing_nodes(old, new)))
        assert resumed.Y.tobytes() == scratch.Y.tobytes()
        assert resumed.W.tobytes() == scratch.W.tobytes()

    # (a, control value once follower 0 moves, failure node, message): a
    # right-hand side of inf fails at the node it is read on, a finite
    # 1e308 overflows Y one step of 2 later.
    BLOWUPS = [(a, np.inf, a, "non-finite leader right-hand side")
               for a in range(5)] \
        + [(a, 1e308, a + 1, "non-finite leader state") for a in range(4)]

    @pytest.mark.parametrize("a, value, node, message", BLOWUPS)
    def test_restarted_failure_equals_the_from_scratch_one(self, a, value,
                                                           node, message):
        times = time_grid(8.0, 4)
        V_new = np.zeros((5, 1, 1))
        V_new[a:] = 1.0
        old = MeasureFlow._of(times, np.zeros((5, 1, 1)), np.zeros((5, 1, 1)))
        new = MeasureFlow._of(times, np.zeros((5, 1, 1)), V_new)
        assert _agreeing_nodes(old, new) == a
        u = lambda t, flow: np.array(
            [[value if flow.at_time(t).V[0, 0] else 0.5]])
        F, Y0 = _zero_F(), LeaderState([[0.0]])
        prior = solve_leader_ode(F, u, old, Y0)
        want = f"{message} at t={times[node]}"
        with pytest.raises(FloatingPointError) as scratch:
            solve_leader_ode(F, u, new, Y0)
        with pytest.raises(FloatingPointError) as resumed:
            solve_leader_ode(F, u, new, Y0, _resume=(prior, a))
        assert str(scratch.value) == str(resumed.value) == want

    def test_every_coupled_solve_equals_the_from_scratch_one(self,
                                                             monkeypatch):
        # The drift's leader solves restart from the last flow's path, and
        # the final one from the last iterate's: each returns the bytes of
        # a solve along its flow from node 0.
        cfg = _cfg(N=8, n_steps=12, sigma=0.1, seed=2)
        init = _gauss_sampler(1)(8, 4)
        v = drift_from_kernel(kernel("bounded_alignment", d=1))
        w = coupling_from_kernel(kernel("bounded_attraction"))
        F = leader_field_from_kernels(kernel("bounded_attraction_position"),
                                      kernel("bounded_attraction_position"), 2)
        Y0 = LeaderState([[1.0], [-0.5]])
        u = sv_control(np.full((2, 2, 3), 0.2), T=1.0, M_h=1.0, m=2, d=1)
        real_solve = pdeode.solve_leader_ode
        checked = []

        def checking_solve(F_, u_, flow, Y0_, **kwargs):
            path = real_solve(F_, u_, flow, Y0_, **kwargs)
            again = real_solve(F_, u_, flow, Y0_)
            checked.append((kwargs.get("_resume") is not None,
                            path.Y.tobytes() == again.Y.tobytes()
                            and path.W.tobytes() == again.W.tobytes()))
            return path

        monkeypatch.setattr(pdeode, "solve_leader_ode", checking_solve)
        sol = solve_coupled(v, w, F, u, init, Y0, cfg, tol=1e-10)
        assert sol.picard.converged
        assert len(checked) == sol.picard.iterations + 1
        assert [resumed for resumed, _ in checked] == \
            [False] + [True] * sol.picard.iterations
        assert all(same for _, same in checked)


class TestFixedPointAgainstTheParticleSystem:
    """n_steps + 1 Picard iterates reach the discrete fixed point, which is
    the N-particle system on the same ensemble and paths, bit for bit: both
    levels step the leaders by sde._leader_step."""

    # Grids whose steps times[k + 1] - times[k] all equal cfg.dt (T = 1
    # with 8 steps) and grids where most differ from it in the last bit.
    GRIDS = [(2.0, 25), (1.0, 25), (0.7, 13), (0.5, 20), (3.3, 17),
             (1.0, 8)]

    @pytest.mark.parametrize("T, n_steps", GRIDS)
    def test_equal_bits_on_every_grid(self, T, n_steps):
        cfg = _cfg(T=T, N=6, n_steps=n_steps, sigma=0.2, seed=8)
        model = LeaderFollowerModel(
            kernels={"K11": kernel("bounded_alignment", d=1),
                     "K12": kernel("bounded_attraction"),
                     "K21": kernel("bounded_attraction_position"),
                     "K22": kernel("bounded_attraction_position")},
            Y0=LeaderState([[1.0], [-1.0]]),
            sampler=_gauss_sampler(1), d=1)
        init = model.initial(cfg.N, 3)
        v, w, F = model.mean_field_fields()
        sol = solve_coupled(v, w, F, None, init, model.Y0, cfg, tol=1e-300,
                            max_iter=n_steps + 1)
        assert sol.picard.converged and sol.picard.gaps[-1] == 0.0
        flow, leaders = simulate_interacting(model.kernels, None, init,
                                             model.Y0, cfg,
                                             generate_brownian(cfg))
        for a, b in ((sol.flow.X, flow.X), (sol.flow.V, flow.V),
                     (sol.leaders.Y, leaders.Y), (sol.leaders.W, leaders.W)):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(T=st.floats(0.05, 5.0), n_steps=st.integers(1, 12),
           d=st.integers(1, 2), m=st.integers(0, 3),
           slots=st.sets(st.sampled_from(["K11", "K12", "K21", "K22"])),
           controlled=st.booleans(), seed=st.integers(0, 2**16))
    def test_equal_bits_as_a_property(self, T, n_steps, d, m, slots,
                                      controlled, seed):
        library = {"K11": kernel("bounded_alignment", d=d),
                   "K12": kernel("bounded_attraction"),
                   "K21": kernel("bounded_attraction_position"),
                   "K22": kernel("attraction_position")}
        kernels = {s: library[s] for s in slots}
        cfg = SimConfig(T=T, n_steps=n_steps, N=5, sigma=0.3, seed=seed, d=d)
        rng = np.random.default_rng(seed)
        init = ParticleEnsemble(rng.standard_normal((5, d)),
                                rng.standard_normal((5, d)))
        Y0 = LeaderState(rng.standard_normal((m, d)))
        u = sv_control(0.5 * rng.standard_normal((3, m * d, 2 * d + 1)), T,
                       5.0, m, d) if controlled and m > 0 else None
        sol = solve_coupled(*kernel_fields(kernels, m), u, init, Y0,
                            cfg, tol=1e-300, max_iter=n_steps + 1)
        assert sol.picard.converged and sol.picard.gaps[-1] == 0.0
        flow, leaders = simulate_interacting(kernels, u, init, Y0, cfg,
                                             generate_brownian(cfg))
        for a, b in ((sol.flow.X, flow.X), (sol.flow.V, flow.V),
                     (sol.leaders.Y, leaders.Y), (sol.leaders.W, leaders.W)):
            assert a.tobytes() == b.tobytes()


class TestAbsentK11:
    def test_a_model_without_k11_is_paired_with_w2(self):
        with pytest.raises(ValueError, match="p = 2"):
            LeaderFollowerModel(kernels={"K12": kernel("bounded_attraction")},
                                Y0=LeaderState([[0.0]]),
                                sampler=_gauss_sampler(1), d=1, p=1.0)
        G = pdeode._coupled_drift(None, coupling_from_kernel(
            kernel("bounded_attraction")), _zero_F(), None,
            LeaderState([[0.0]]), 1.0)[0]
        zero = zero_field()
        assert (G.beta, G.alpha, G.p, G.unbounded) == (
            zero.beta, zero.alpha, zero.p, zero.unbounded)
        assert G.name == "zero+coupling[bounded_attraction]"
        assert pdeode._coupled_drift(None, None, _zero_F(), None,
                                     LeaderState([[0.0]]), 1.0)[0].name == "zero"

    def test_signed_zeros_keep_the_bytes_of_an_added_zero_field(self):
        # No K11, a K12 whose every value is -0.0 and followers at
        # velocity -0.0 with sigma = 0, so a zero's sign survives a step.
        # The K12 average folds from +0.0 and comes out +0.0, as
        # 0.0 + (-0.0) did when an absent K11 added a zero field; these
        # SHA-256 digests of the CSVs were recorded with that zero field.
        def negative_zero(dx, dv, out):
            out[...] = -0.0

        K12 = InteractionKernel("negative_zero", negative_zero, 0.0, 0.0)
        init = ParticleEnsemble(np.zeros((6, 1)), np.full((6, 1), -0.0))
        model = LeaderFollowerModel(kernels={"K12": K12},
                                    Y0=LeaderState([[1.0]]),
                                    sampler=lambda N, seed: init, d=1)
        cfg = _cfg(N=6, n_steps=5, sigma=0.0, seed=3)
        paths = generate_brownian(cfg)
        assert np.any(paths[0, :, 0] < 0)
        flow, _ = simulate_interacting(model.kernels, None, init, model.Y0,
                                       cfg, paths)
        v, w, F = model.mean_field_fields()
        assert v is None
        sol = solve_coupled(v, w, F, None, init, model.Y0, cfg)
        for got in (flow, sol.flow):
            assert not np.signbit(got.V[1:]).any()
            assert _csv_digest(write_flow_csv, got) == (
                "5b271da5406d922e180b48cf696a1b920bcb85e7557496b6e6b51e30180322b9")
        assert _csv_digest(write_leader_csv, sol.leaders) == (
            "0c162e466de5a8378a918e531c80596cdfa1474c9056e81cbbddc98e55b5a264")


def _csv_digest(write, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(obj, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


class TestControlStability:
    @staticmethod
    def _setup(cfg):
        v = drift_from_kernel(kernel("bounded_alignment", d=1))
        w = coupling_from_kernel(kernel("bounded_attraction_position"))
        F = _zero_F()
        init = _gauss_sampler(1)(cfg.N, 13)
        Y0 = LeaderState([[1.0]])
        return v, w, F, init, Y0

    def test_identical_controls_have_zero_gap(self):
        cfg = _cfg(N=6, sigma=0.1)
        v, w, F, init, Y0 = self._setup(cfg)
        u = lambda t, mu: np.array([[0.2]])
        gaps = control_stability([u, u], u, v, w, F, init, Y0, cfg)
        assert gaps == [0.0, 0.0]

    def test_smaller_wiggles_give_smaller_gaps(self):
        cfg = _cfg(N=8, n_steps=16, sigma=0.05)
        v, w, F, init, Y0 = self._setup(cfg)
        base = lambda t, mu: np.array([[0.1]])

        def wiggled(eps):
            return lambda t, mu: np.array([[0.1 + eps * np.sin(2 * np.pi * t)]])

        gaps = control_stability([wiggled(0.5), wiggled(0.125)], base, v, w, F,
                                 init, Y0, cfg)
        assert gaps[0] > gaps[1] > 0.0

    def _against_picard(self, T, n_steps):
        """control_stability's gaps and those of the Picard fixed points,
        n_steps + 1 iterates of solve_coupled, on three controls."""
        cfg = _cfg(T=T, N=6, n_steps=n_steps, sigma=0.2, seed=8)
        v, w, _, init, Y0 = self._setup(cfg)
        F = leader_field_from_kernels(kernel("bounded_attraction_position"),
                                      kernel("zero_position"), 1)
        base = lambda t, mu: np.array([[0.1]])
        u_seq = [base] + [
            lambda t, mu, eps=eps: np.array([[0.1 + eps * np.sin(3.0 * t)]])
            for eps in (0.5, 0.125)]

        def fixed_point(u):
            sol = solve_coupled(v, w, F, u, init, Y0, cfg, tol=1e-300,
                                max_iter=n_steps + 1)
            assert sol.picard.converged and sol.picard.gaps[-1] == 0.0
            return sol

        ref = fixed_point(base)
        want = [flow_gap(sol.flow, ref.flow, v.p)
                + LeaderPath._of(ref.flow.times, sol.leaders.Y - ref.leaders.Y,
                                 sol.leaders.W - ref.leaders.W).sup_norm()
                for sol in map(fixed_point, u_seq)]
        got = control_stability(u_seq, base, v, w, F, init, Y0, cfg)
        assert got[0] == want[0] == 0.0 and got[1] > got[2] > 0.0
        return got, want

    @pytest.mark.parametrize("T, n_steps", [(1.0, 8), (2.0, 25)])
    def test_equal_to_the_picard_fixed_points(self, T, n_steps):
        # T = 2 with 25 steps: times[k + 1] - times[k] differs from cfg.dt
        # in the last bit; both levels step the leaders by the former.
        got, want = self._against_picard(T, n_steps)
        assert got == want


class TestLeaderSensitivity:
    def test_zero_distance_pairs_skipped(self):
        flow = _const_flow(1.0)
        out = leader_flow_sensitivity(_zero_F(), None, [(flow, flow)],
                                      LeaderState([[0.0]]), p=2.0)
        assert out == []

    def test_ratio_for_attractive_drive(self):
        K21 = kernel("bounded_attraction_position")
        F = leader_field_from_kernels(K21, kernel("zero_position"), 1)
        mu = _const_flow(1.0, n_steps=20)
        nu = _const_flow(1.5, n_steps=20)
        ratios = leader_flow_sensitivity(F, None, [(mu, nu)],
                                         LeaderState([[0.0]]), p=2.0)
        assert len(ratios) == 1
        assert 0.0 < ratios[0] < 1.0

    def test_zero_drive_is_insensitive(self):
        mu = _const_flow(0.0)
        nu = _const_flow(4.0)
        ratios = leader_flow_sensitivity(_zero_F(), None, [(mu, nu)],
                                         LeaderState([[1.0]]), p=2.0)
        assert ratios == [0.0]
