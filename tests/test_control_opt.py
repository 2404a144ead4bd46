"""Admissible controls, cost functionals, and the derivative-free optimizer."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf import pdeode
from kineticmf.control_opt import (
    ControlSpec,
    CostSpec,
    FeatureMap,
    SVControl,
    default_features,
    ev_control,
    evaluate_control,
    evaluate_cost_N,
    evaluate_cost_meanfield,
    lagrangian_constant,
    lagrangian_track_mean_x,
    lagrangian_zero,
    make_cost,
    optimize,
    project_admissible,
    psi_quadratic,
    sv_control,
    sv_zero,
    validate_control,
    zero_control,
)
from kineticmf.drift import kernel
from kineticmf.pdeode import LeaderFollowerModel
from kineticmf.phase_space import (
    LeaderState,
    MeasureFlow,
    ParticleEnsemble,
    time_grid,
)
from kineticmf.sde import SimConfig


def _cfg(**kw):
    base = dict(T=1.0, n_steps=10, N=4, sigma=0.0, seed=3, d=1)
    base.update(kw)
    return SimConfig(**base)


def _const_flow(x=0.0, v=0.0, N=2, n_steps=4, T=1.0):
    ens = ParticleEnsemble(np.full((N, 1), float(x)), np.full((N, 1), float(v)))
    return MeasureFlow.constant(ens, time_grid(T, n_steps))


def _unit_feature():
    return FeatureMap(ell=1, fn=lambda X, V: np.ones(X.shape[:-2] + (1,)),
                      name="one")


def _per_ensemble_features(ens, R_c):
    """default_features as it was written per ensemble, before the flow
    level form: the reference the stacked pass must reproduce."""
    def squash(x):
        return x / (1.0 + np.abs(x))

    mx = squash(ens.X.mean(axis=0))
    mv = squash(ens.V.mean(axis=0))
    r2 = np.sum(ens.X**2, axis=1) + np.sum(ens.V**2, axis=1)
    second = squash(np.mean(np.minimum(r2, R_c**2)) / (2.0 * R_c))
    return np.concatenate([mx, mv, [second]])


def _spread_flow(rng, nodes, N, d):
    """A flow whose nodes draw their own scale over six decades."""
    snaps = [ParticleEnsemble(*(10.0 ** rng.uniform(-3, 3)
                                * rng.standard_normal((N, d))
                                * 10.0 ** rng.uniform(-0.5, 0.5, (N, d))
                                for _ in range(2)))
             for _ in range(nodes)]
    return MeasureFlow(np.arange(nodes, dtype=float), snaps)


def _point_sampler(d, x=0.0, v=0.0):
    def sampler(N, seed):
        return ParticleEnsemble(np.full((N, d), float(x)),
                                np.full((N, d), float(v)))
    return sampler


def _free_model(d=1, m=0, sampler=None):
    Y0 = LeaderState.empty(d) if m == 0 \
        else LeaderState(np.zeros((m, d)))
    return LeaderFollowerModel(kernels={}, Y0=Y0,
                               sampler=sampler or _point_sampler(d), d=d)


class TestFeatures:
    def test_feature_count(self):
        assert default_features(1).ell == 3
        assert default_features(3).ell == 7

    def test_all_features_vanish_at_origin_dirac(self):
        g = default_features(2)
        ens = ParticleEnsemble(np.zeros((5, 2)), np.zeros((5, 2)))
        np.testing.assert_array_equal(g.stacked(ens.X, ens.V), np.zeros(5))

    def test_mean_velocity_feature_cancels_on_symmetric_pair(self):
        g = default_features(1)
        ens = ParticleEnsemble([[0.0], [0.0]], [[1.0], [-1.0]])
        vals = g.stacked(ens.X, ens.V)
        assert vals[0] == 0.0  # mean position
        assert vals[1] == 0.0  # mean velocity
        assert vals[2] > 0.0   # second moment survives

    def test_features_bounded_by_one(self):
        g = default_features(2, R_c=3.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            ens = ParticleEnsemble(10 * rng.standard_normal((6, 2)),
                                   10 * rng.standard_normal((6, 2)))
            assert np.all(np.abs(g.stacked(ens.X, ens.V)) <= 1.0)

    def test_shape_mismatch_caught(self):
        g = FeatureMap(ell=2, fn=lambda X, V: np.array([1.0]))
        with pytest.raises(ValueError, match="shape"):
            g.stacked(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_clamp_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            default_features(1, R_c=0.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1, 2, 7, 8, 9, 64, 127, 128, 129, 300]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([0.5, 5.0, 1e3]))
    @settings(max_examples=120, deadline=None)
    def test_stacked_features_match_the_per_ensemble_form_bitwise(
            self, seed, N, d, nodes, R_c):
        # N crosses 8 and 128, numpy's two pairwise-sum branches at d = 1.
        # A constant flow is a broadcast view, a prefix a slice: both must
        # reduce as the per-ensemble arrays do.
        rng = np.random.default_rng(seed)
        g = default_features(d, R_c=R_c)
        flow = _spread_flow(rng, nodes, N, d)
        const = MeasureFlow.constant(flow.snapshots[0], flow.times)
        for fl in (flow, const, flow.prefix(float(nodes // 2))):
            G = g.stacked(fl.X, fl.V)
            assert G.shape == (len(fl), 2 * d + 1)
            for k, ens in enumerate(fl.snapshots):
                want = _per_ensemble_features(ens, R_c).tobytes()
                assert G[k].tobytes() == want
                assert g.stacked(ens.X, ens.V).tobytes() == want

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1, 8, 9, 64, 129]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=6),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sv_control_matches_per_node_features_bitwise(self, seed, N, d,
                                                           nodes, last_first):
        # The control reads the features of the whole flow at once (first
        # read at node 0) or of the last node alone (first read there); both
        # must give h[bin] @ g(mu_t) with g the per-ensemble features.
        rng = np.random.default_rng(seed)
        flow = _spread_flow(rng, nodes, N, d)
        m = 2
        u = sv_control(rng.standard_normal((3, m * d, 2 * d + 1)),
                       T=flow.T or 1.0, M_h=10.0, m=m, d=d)
        order = list(range(nodes))[::-1] if last_first else range(nodes)
        for k in order:
            t = float(flow.times[k])
            g = _per_ensemble_features(flow.snapshots[k], 5.0)
            want = (u.h[u.bin_index(t)] @ g).reshape(m, d)
            assert u(t, flow).tobytes() == want.tobytes()


class TestControlSpecs:
    def test_zero_control_returns_zeros(self):
        u = zero_control(2, 3)
        out = u(0.5, _const_flow())
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_callable_required(self):
        with pytest.raises(TypeError, match="fn"):
            ControlSpec(m=1, d=1, M_u=1.0, L_u=1.0)

    def test_ev_control_sees_the_marginal_only(self):
        seen = []

        def fn(t, marginal):
            seen.append(marginal)
            return np.zeros((1, 1))

        u = ev_control(fn, m=1, d=1, M_u=1.0, L_u=1.0)
        flow = _const_flow()
        u(0.5, flow)
        assert isinstance(seen[0], ParticleEnsemble)

    def test_general_control_sees_the_flow(self):
        seen = []

        def fn(t, flow):
            seen.append(flow)
            return np.zeros((1, 1))

        u = ControlSpec(m=1, d=1, M_u=1.0, L_u=1.0, fn=fn)
        flow = _const_flow()
        u(0.5, flow)
        assert seen[0] is flow

    # First 16 hex digits of the SHA-256 of u(t, flow) at every node of
    # _pinned_flow, per control, recorded before the controls shared one
    # protocol.
    _RECORDED_DIGESTS = {"zero": "2d5565fb483d8ea4", "ev": "cc4bcca487af0994",
                         "sv": "d2a0e764df342239"}

    @staticmethod
    def _pinned_flow():
        rng = np.random.default_rng(41)
        times = time_grid(1.0, 8)
        snaps = [ParticleEnsemble(*rng.standard_normal((2, 5, 2)))
                 for _ in times]
        return MeasureFlow(times, snaps)

    def test_outputs_match_the_recorded_digests(self):
        flow = self._pinned_flow()
        h = np.random.default_rng(42).standard_normal((3, 4, 5))
        controls = {
            "zero": zero_control(2, 2),
            "ev": ev_control(lambda t, ens: np.tanh(t * ens.X[:2] - ens.V[3:]),
                             m=2, d=2, M_u=2.0, L_u=4.0),
            "sv": sv_control(h, T=1.0, M_h=10.0, m=2, d=2),
        }
        got = {}
        for name, u in controls.items():
            digest = hashlib.sha256()
            for t in flow.times:
                digest.update(u(float(t), flow).tobytes())
            got[name] = digest.hexdigest()[:16]
        assert got == self._RECORDED_DIGESTS


class TestSVControl:
    def test_bin_edges_right_open_last_closed(self):
        u = sv_zero(1, 1, T=1.0, K=4)
        assert u.bin_index(0.0) == 0
        assert u.bin_index(0.2499) == 0
        assert u.bin_index(0.25) == 1
        assert u.bin_index(0.75) == 3
        assert u.bin_index(1.0) == 3

    def test_time_outside_horizon_rejected(self):
        u = sv_zero(1, 1, T=1.0)
        with pytest.raises(ValueError, match="outside"):
            u.bin_index(1.5)
        with pytest.raises(ValueError):
            u.bin_index(-0.5)
        with pytest.raises(ValueError, match=r"time nan outside \[0, 1.0\]"):
            u.bin_index(float("nan"))

    def test_piecewise_constant_values_from_unit_feature(self):
        h = np.array([[[0.3]], [[-0.7]]])
        u = sv_control(h, T=1.0, M_h=1.0, m=1, d=1, features=_unit_feature())
        flow = _const_flow(n_steps=8)
        assert u(0.1, flow)[0, 0] == 0.3
        assert u(0.75, flow)[0, 0] == -0.7

    def test_velocity_only_rows_cancel_on_symmetric_ensemble(self):
        # h touches only the mean-velocity feature column; the symmetric
        # two-point ensemble zeroes that feature, so the control vanishes.
        feats = default_features(1)
        h = np.zeros((2, 1, feats.ell))
        h[:, 0, 1] = 0.9
        u = sv_control(h, T=1.0, M_h=1.0, m=1, d=1, features=feats)
        flow = _const_flow(x=0.3, v=0.0, N=2)
        sym = MeasureFlow.constant(
            ParticleEnsemble([[0.3], [0.3]], [[1.0], [-1.0]]), flow.times)
        np.testing.assert_array_equal(u(0.5, sym), np.zeros((1, 1)))

    def test_derived_constants(self):
        u = sv_zero(2, 1, T=1.0, K=3, M_h=2.0)
        ell = u.features.ell
        assert u.K == 3
        assert u.M_g == math.sqrt(ell)
        assert u.M_u == 2.0 * math.sqrt(ell)
        assert u.L_u == 2 * 1 * 2.0 * math.sqrt(ell)

    def test_h_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            sv_control(np.zeros((2, 3)), T=1.0, M_h=1.0, m=1, d=1)
        with pytest.raises(ValueError):
            sv_control(np.zeros((2, 2, 3)), T=1.0, M_h=1.0, m=1, d=1)

    def test_h_is_locked(self):
        u = sv_zero(1, 1, T=1.0)
        with pytest.raises(ValueError):
            u.h[0, 0, 0] = 1.0

    def test_caller_h_stays_writeable(self):
        # The control locks its own copy of h, not the caller's array.
        h = np.zeros((2, 1, 3))
        u = sv_control(h, T=1.0, M_h=1.0, m=1, d=1)
        h[0, 0, 0] = 5.0
        assert u.h[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            u.h[0, 0, 0] = 1.0

    def test_evaluate_control_flattens_and_guards(self):
        u = zero_control(2, 2)
        flow = _const_flow()
        assert evaluate_control(u, 0.5, flow).shape == (4,)
        with pytest.raises(ValueError, match="outside grid"):
            evaluate_control(u, 2.0, flow)

    def test_evaluate_control_refuses_a_nan_time(self):
        # Both comparisons of a plain range test are false for NaN, so a
        # NaN time must be refused explicitly, not evaluated.
        with pytest.raises(ValueError, match="outside grid"):
            evaluate_control(zero_control(2, 2), float("nan"), _const_flow())


class TestProjection:
    def test_admissible_control_passes_through_unchanged(self):
        u = sv_zero(1, 1, T=1.0, M_h=1.0)
        assert project_admissible(u) is u

    def test_oversized_bins_shrink_to_the_sphere(self):
        feats = _unit_feature()
        h = np.array([[[3.0]], [[0.5]]])
        u = sv_control(h, T=1.0, M_h=1.0, m=1, d=1, features=feats)
        pu = project_admissible(u)
        assert np.linalg.norm(pu.h[0]) == pytest.approx(1.0)
        # Direction preserved, and already-feasible bins untouched.
        assert pu.h[0, 0, 0] > 0
        assert pu.h[1, 0, 0] == 0.5

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(8)
        h = 4.0 * rng.standard_normal((3, 2, 5))
        u = sv_control(h, T=1.0, M_h=1.0, m=2, d=1,
                       features=FeatureMap(
                           ell=5, fn=lambda X, V: np.zeros(X.shape[:-2] + (5,))))
        once = project_admissible(u)
        twice = project_admissible(once)
        np.testing.assert_array_equal(once.h, twice.h)

    def test_non_sv_controls_untouched(self):
        u = zero_control(1, 1)
        assert project_admissible(u) is u


class TestValidateControl:
    def test_zero_sv_control_is_admissible(self):
        u = sv_zero(1, 1, T=1.0, K=5)
        rep = validate_control(u)
        assert rep.passed
        assert rep.n_checked == 5

    def test_frobenius_violation_located(self):
        h = np.zeros((3, 1, 1))
        h[2, 0, 0] = 2.0
        u = sv_control(h, T=1.0, M_h=1.0, m=1, d=1, features=_unit_feature())
        rep = validate_control(u)
        assert not rep.passed
        assert rep.worst["check"] == "frobenius"
        assert rep.worst["bin"] == 2

    def test_dirac_bound_checked_when_reference_supplied(self):
        dirac = _const_flow(x=0.0, v=0.0)
        lying = ev_control(lambda t, ens: np.array([[5.0]]), m=1, d=1,
                           M_u=0.1, L_u=1.0)
        rep = validate_control(lying, times=[0.0, 0.5], dirac_flow=dirac)
        assert not rep.passed
        assert rep.worst["check"] == "dirac_bound"

    def test_leaderless_zero_control_scores_zero_on_flow_pairs(self):
        # m = 0 gives an empty control vector; the Lipschitz quotient must
        # read as zero rather than choking on an empty max.
        u = zero_control(0, 1)
        pair = (_const_flow(x=0.0), _const_flow(x=1.0))
        rep = validate_control(u, flow_pairs=[pair], times=[0.5, 1.0])
        assert rep.passed
        assert rep.worst_ratio == 0.0

    def test_sv_control_meets_lipschitz_budget(self):
        rng = np.random.default_rng(19)
        h = rng.standard_normal((4, 1, 3))
        u = project_admissible(sv_control(h, T=1.0, M_h=1.0, m=1, d=1))
        times = [0.0, 0.3, 0.8, 1.0]

        def flow(seed):
            r = np.random.default_rng(seed)
            snaps = [ParticleEnsemble(r.standard_normal((8, 1)),
                                      r.standard_normal((8, 1)))
                     for _ in range(5)]
            return MeasureFlow(time_grid(1.0, 4), snaps)

        pairs = [(flow(1), flow(2)), (flow(3), flow(4))]
        rep = validate_control(u, flow_pairs=pairs, times=times,
                               dirac_flow=_const_flow())
        assert rep.passed
        assert rep.n_checked > 4

    NAN = staticmethod(lambda t, ens: [[np.nan]])

    def test_nan_dirac_bound_fails_at_the_first_time(self):
        u = ev_control(self.NAN, m=1, d=1, M_u=1.0, L_u=1.0)
        rep = validate_control(u, times=[0.25, 0.5], dirac_flow=_const_flow())
        assert not rep.passed
        assert math.isnan(rep.worst_ratio)
        assert rep.n_checked == 2
        assert rep.worst["check"] == "dirac_bound"
        assert rep.worst["t"] == 0.25
        assert math.isnan(rep.worst["ratio"])

    def test_nan_lipschitz_quotient_fails(self):
        u = ev_control(self.NAN, m=1, d=1, M_u=1.0, L_u=1.0)
        pair = (_const_flow(x=0.0), _const_flow(x=1.0))
        rep = validate_control(u, flow_pairs=[pair], times=[0.5, 1.0])
        assert not rep.passed
        assert math.isnan(rep.worst_ratio)
        assert (rep.worst["check"], rep.worst["t"]) == ("lipschitz", 0.5)

    def test_flow_pairs_must_share_their_node_count(self):
        # Both prefixes up to t = 0.5 hold three nodes; the flows do not.
        u = ev_control(lambda t, ens: [[0.0]], m=1, d=1, M_u=1.0, L_u=1.0)
        pair = (_const_flow(n_steps=4), _const_flow(x=1.0, n_steps=2, T=0.5))
        with pytest.raises(ValueError, match="same number of nodes"):
            validate_control(u, flow_pairs=[pair], times=[0.5])


class TestCosts:
    def test_nonconvex_control_cost_rejected_at_construction(self):
        with pytest.raises(ValueError, match="convexity"):
            CostSpec(lagrangian=lagrangian_zero(),
                     psi=lambda v: -float(np.sum(np.square(v))), dim=2)

    def test_quadratic_control_cost_accepted(self):
        spec = CostSpec(lagrangian=lagrangian_zero(), psi=psi_quadratic(2.0),
                        dim=3)
        assert spec.psi(np.array([1.0, 2.0, 0.0])) == 10.0

    def test_lagrangian_hand_values(self):
        flow = _const_flow(x=1.5)
        assert lagrangian_constant(4.0)(0.0, flow, None) == 4.0
        L = lagrangian_track_mean_x(0.5)
        assert L(0.0, flow, None) == pytest.approx(1.0)

    def test_make_cost_lookups(self):
        spec = make_cost("track_mean_x", "quadratic", dim=2,
                         params={"target": 1.0, "weight": 0.5})
        assert spec.name == "track_mean_x+quadratic"
        with pytest.raises(ValueError, match="lagrangian"):
            make_cost("tracking", "zero", dim=1)
        with pytest.raises(ValueError, match="control cost"):
            make_cost("zero", "cubic", dim=1)
        with pytest.raises(ValueError):
            make_cost("zero", "zero", dim=0)


class TestCostEvaluation:
    def test_constant_lagrangian_integrates_to_cT(self):
        model = _free_model()
        cost = CostSpec(lagrangian=lagrangian_constant(3.0), psi=None, dim=1)
        cfg = _cfg(T=2.0, n_steps=8, N=4)
        assert evaluate_cost_meanfield(None, model, cost, cfg) == pytest.approx(6.0)

    def test_tracking_cost_matches_hand_quadrature(self):
        # Ballistic point mass from x = 0 with v = 1: mean_x(t) = t, so the
        # running cost is t^2 sampled on the grid and integrated by
        # trapezoid, exactly what the evaluator must produce.
        model = _free_model(sampler=_point_sampler(1, x=0.0, v=1.0))
        cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.0), psi=None, dim=1)
        cfg = _cfg(T=1.0, n_steps=10, N=3)
        got = evaluate_cost_meanfield(None, model, cost, cfg)
        times = cfg.grid()
        want = float(np.trapz(times**2, times)) if not hasattr(np, "trapezoid") \
            else float(np.trapezoid(times**2, times))
        assert got == pytest.approx(want, rel=1e-13)

    def test_control_cost_term_added(self):
        model = _free_model(m=1)
        u = ev_control(lambda t, ens: np.array([[0.5]]), m=1, d=1, M_u=1.0,
                       L_u=1.0)
        cost = CostSpec(lagrangian=lagrangian_zero(), psi=psi_quadratic(1.0),
                        dim=1)
        cfg = _cfg(N=2)
        # psi(u) = 0.25 at every node; trapezoid of a constant is exact.
        assert evaluate_cost_meanfield(u, model, cost, cfg) == pytest.approx(0.25)

    def test_nonconvergent_solve_raises(self):
        model = LeaderFollowerModel(
            kernels={"K11": kernel("bounded_alignment", d=1)},
            Y0=LeaderState.empty(1),
            sampler=lambda N, seed: ParticleEnsemble(
                np.random.default_rng(seed).standard_normal((N, 1)),
                np.random.default_rng(seed + 1).standard_normal((N, 1))),
            d=1)
        cost = CostSpec(lagrangian=lagrangian_zero(), psi=None, dim=1)
        with pytest.raises(RuntimeError, match="did not converge"):
            evaluate_cost_meanfield(None, model, cost, _cfg(N=6), tol=1e-16,
                                    max_iter=2)

    def test_one_stacked_feature_pass_per_leader_solve(self, monkeypatch):
        solves, passes = [], []
        real_solve = pdeode.solve_leader_ode

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return real_solve(*args, **kwargs)

        def counting_fn(X, V):
            if X.ndim == 3:
                passes.append(1)
            return feats.fn(X, V)

        monkeypatch.setattr(pdeode, "solve_leader_ode", counting_solve)
        feats = default_features(1)
        counted = FeatureMap(ell=feats.ell, fn=counting_fn)
        h = np.full((2, 1, feats.ell), 0.3)
        u = sv_control(h, T=1.0, M_h=1.0, m=1, d=1, features=counted)

        def sampler(N, seed):
            rng = np.random.default_rng(seed)
            return ParticleEnsemble(rng.standard_normal((N, 1)),
                                    rng.standard_normal((N, 1)))

        model = LeaderFollowerModel(
            kernels={"K11": kernel("bounded_alignment", d=1),
                     "K12": kernel("bounded_attraction"),
                     "K21": kernel("bounded_attraction_position")},
            Y0=LeaderState([[1.0]]), sampler=sampler, d=1)
        cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.0),
                        psi=psi_quadratic(1.0), dim=1)
        evaluate_cost_meanfield(u, model, cost, _cfg(N=6, sigma=0.2),
                                tol=1e-3)
        # Every Picard iterate solves once and the final flow once more.
        assert len(solves) >= 3
        assert len(passes) == len(solves)

    def test_finite_N_single_seed_has_zero_stderr(self):
        model = _free_model()
        cost = CostSpec(lagrangian=lagrangian_constant(1.0), psi=None, dim=1)
        mean, stderr = evaluate_cost_N(None, model, cost, N=4, cfg=_cfg(),
                                       seeds=[7])
        assert mean == pytest.approx(1.0)
        assert stderr == 0.0

    def test_finite_N_spread_over_seeds(self):
        def sampler(N, seed):
            rng = np.random.default_rng(seed)
            return ParticleEnsemble(rng.standard_normal((N, 1)),
                                    rng.standard_normal((N, 1)))

        model = _free_model(sampler=sampler)
        cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.0), psi=None, dim=1)
        mean, stderr = evaluate_cost_N(None, model, cost, N=8, cfg=_cfg(),
                                       seeds=[1, 2, 3, 4])
        assert mean > 0.0
        assert stderr > 0.0

    def test_finite_N_takes_an_array_of_seeds(self):
        # minima_convergence_experiment passes its seeds through as given;
        # an array has no truth value, so the guard reads its length.
        def sampler(N, seed):
            rng = np.random.default_rng(seed)
            return ParticleEnsemble(rng.standard_normal((N, 1)),
                                    rng.standard_normal((N, 1)))

        model = _free_model(sampler=sampler)
        cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.0), psi=None, dim=1)
        got = evaluate_cost_N(None, model, cost, N=8, cfg=_cfg(),
                              seeds=np.array([1, 2]))
        assert got == evaluate_cost_N(None, model, cost, N=8, cfg=_cfg(),
                                      seeds=[1, 2])
        with pytest.raises(ValueError, match="at least one seed"):
            evaluate_cost_N(None, model, cost, N=8, cfg=_cfg(),
                            seeds=np.array([], dtype=int))

    def test_finite_N_guards(self):
        model = _free_model()
        cost = CostSpec(lagrangian=lagrangian_zero(), psi=None, dim=1)
        with pytest.raises(ValueError):
            evaluate_cost_N(None, model, cost, N=0, cfg=_cfg(), seeds=[1])
        with pytest.raises(ValueError):
            evaluate_cost_N(None, model, cost, N=4, cfg=_cfg(), seeds=[])

    def test_meanfield_and_finite_N_agree_without_interaction(self):
        """With no kernels both levels run the same Euler recursion."""
        def sampler(N, seed):
            rng = np.random.default_rng(seed)
            return ParticleEnsemble(rng.standard_normal((N, 1)),
                                    rng.standard_normal((N, 1)))

        model = _free_model(sampler=sampler)
        cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.0), psi=None, dim=1)
        cfg = _cfg(N=6, sigma=0.3, seed=9)
        mf = evaluate_cost_meanfield(None, model, cost, cfg)
        fn, _ = evaluate_cost_N(None, model, cost, N=6, cfg=cfg, seeds=[9])
        assert mf == fn


class TestOptimizer:
    def test_recovers_quadratic_minimum(self):
        u0 = SVControl(h=np.zeros((1, 1, 1)), T=1.0, M_h=10.0,
                       features=_unit_feature(), m=1, d=1)
        got, history = optimize(u0, lambda u: (u.h[0, 0, 0] - 3.0) ** 2,
                                budget=200, step0=0.5, seed=1)
        assert got.h[0, 0, 0] == pytest.approx(3.0, abs=1e-4)
        assert len(history) <= 200

    def test_zero_start_on_zero_cost_stays_put(self):
        u0 = sv_zero(1, 1, T=1.0, K=2)
        got, history = optimize(u0, lambda u: float(np.sum(u.h**2)), budget=60)
        assert float(np.sum(got.h**2)) == 0.0
        assert history[0][1] == 0.0

    def test_history_best_column_never_increases(self):
        u0 = sv_zero(1, 1, T=1.0, K=2, M_h=2.0)
        rng_target = 1.3

        def cost(u):
            return float(np.sum((u.h - rng_target) ** 2))

        _, history = optimize(u0, cost, budget=80, seed=3)
        evals = [row[0] for row in history]
        bests = [row[2] for row in history]
        assert evals == list(range(1, len(history) + 1))
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_every_candidate_is_admissible(self):
        seen = []

        def cost(u):
            seen.append(u)
            return float(np.sum((u.h - 5.0) ** 2))

        u0 = sv_zero(1, 1, T=1.0, K=1, M_h=0.4)
        best, _ = optimize(u0, cost, budget=50, step0=1.0, seed=2)
        for cand in seen:
            norms = np.linalg.norm(cand.h.reshape(cand.K, -1), axis=1)
            assert np.all(norms <= cand.M_h * (1 + 1e-9))
        norms = np.linalg.norm(best.h.reshape(best.K, -1), axis=1)
        assert np.all(norms <= best.M_h * (1 + 1e-9))

    def test_failures_scored_infinite_but_search_continues(self):
        # Solver failures: non-convergence (RuntimeError) and overflow
        # (FloatingPointError).
        for error in (RuntimeError, FloatingPointError):
            def cost(u, error=error):
                val = u.h[0, 0, 0]
                if val > 0.3:
                    raise error("window blew up")
                return (val - 0.25) ** 2

            u0 = SVControl(h=np.zeros((1, 1, 1)), T=1.0, M_h=1.0,
                           features=_unit_feature(), m=1, d=1)
            best, history = optimize(u0, cost, budget=120, step0=0.5, seed=0)
            assert any(math.isinf(row[1]) for row in history)
            assert best.h[0, 0, 0] == pytest.approx(0.25, abs=1e-3)

    def test_cost_function_bugs_propagate(self):
        # A TypeError is a bug in the cost function, not an infeasible
        # candidate: it must reach the caller instead of scoring +inf.
        def cost(u):
            if u.h[0, 0, 0] > 0.3:
                return None + 1.0
            return float(u.h[0, 0, 0]) ** 2

        u0 = SVControl(h=np.zeros((1, 1, 1)), T=1.0, M_h=1.0,
                       features=_unit_feature(), m=1, d=1)
        with pytest.raises(TypeError):
            optimize(u0, cost, budget=120, step0=0.5, seed=0)

    def test_deterministic_in_seed(self):
        u0 = sv_zero(1, 1, T=1.0, K=2)
        cost = lambda u: float(np.sum((u.h - 0.8) ** 2))
        _, h1 = optimize(u0, cost, budget=40, seed=12)
        _, h2 = optimize(u0, cost, budget=40, seed=12)
        assert h1 == h2

    def test_argument_guards(self):
        u0 = sv_zero(1, 1, T=1.0)
        with pytest.raises(ValueError, match="budget"):
            optimize(u0, lambda u: 0.0, budget=0)
        with pytest.raises(ValueError, match="sv class"):
            optimize(zero_control(1, 1), lambda u: 0.0, budget=5)
        empty = sv_zero(0, 1, T=1.0)
        with pytest.raises(ValueError, match="free parameters"):
            optimize(empty, lambda u: 0.0, budget=5)
