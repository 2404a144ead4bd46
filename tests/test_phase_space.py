"""Unit tests for state containers, moments, and CSV round trips."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticmf.phase_space import (
    IDENTITY_YOUNG,
    LeaderPath,
    LeaderState,
    MeasureFlow,
    ParticleEnsemble,
    PhasePoint,
    YoungFunction,
    gamma_p,
    moment_p,
    sup_moment,
    time_grid,
    write_flow_csv,
    write_leader_csv,
    young_moment,
)


def _reference_csv(path, header, times, Y, W):
    """What the writers must produce byte for byte: csv.writer rows with
    every float as format(x, ".17g")."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(times):
            for i in range(Y.shape[1]):
                w.writerow([format(float(t), ".17g"), str(i)]
                           + [format(float(x), ".17g") for x in Y[k, i]]
                           + [format(float(x), ".17g") for x in W[k, i]])


def _assert_reads_back(path, times, Y, W):
    """np.loadtxt parses the CSV at path back to the bits of the node times,
    the row index and the (nodes, rows, d) arrays Y and W it was written
    from."""
    M, n, d = Y.shape
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    for got, want in [(rows[:, 0], np.repeat(times, n)),
                      (rows[:, 1], np.tile(np.arange(n, dtype=float), M)),
                      (rows[:, 2 : 2 + d], Y.reshape(-1, d)),
                      (rows[:, 2 + d :], W.reshape(-1, d))]:
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


# Signed zero, the smallest subnormal, integer-valued floats (which %g
# prints without a point), values near the round-trip limit and huge ones.
_AWKWARD = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -3.0, 2.0**53,
                     1e16, 0.1, 1.0 / 3.0, -1.7976931348623157e308, 1e300,
                     123456789.0, 2.5e-10, -7.0e22, 1e-5])


def _gaussian_ensemble(N, d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(scale * rng.standard_normal((N, d)),
                            scale * rng.standard_normal((N, d)))


class TestPhasePoint:
    def test_z_concatenates_x_then_v(self):
        p = PhasePoint([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(p.z, [1.0, 2.0, 3.0, 4.0])
        assert p.d == 2

    def test_scalar_inputs_promote_to_vectors(self):
        p = PhasePoint(1.5, -2.5)
        assert p.d == 1
        assert p.x[0] == 1.5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint([1.0, 2.0], [3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint([np.nan], [0.0])
        with pytest.raises(ValueError):
            PhasePoint([0.0], [np.inf])

    def test_arrays_are_read_only(self):
        p = PhasePoint([1.0], [2.0])
        with pytest.raises(ValueError):
            p.x[0] = 9.0


class TestParticleEnsemble:
    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError, match="empty measure"):
            ParticleEnsemble(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(np.zeros((3, 2)), np.zeros((3, 1)))

    def test_radii_are_phase_space_norms(self):
        # |z| for x=(3,), v=(4,) is 5 exactly.
        ens = ParticleEnsemble([[3.0]], [[4.0]])
        np.testing.assert_allclose(ens.radii(), [5.0], rtol=0, atol=0)

    def test_Z_stacks_x_then_v(self):
        ens = ParticleEnsemble([[1.0, 2.0]], [[3.0, 4.0]])
        np.testing.assert_array_equal(ens.Z(), [[1.0, 2.0, 3.0, 4.0]])


class TestTimeGrid:
    def test_nodes_are_exact_multiples(self):
        g = time_grid(1.0, 4)
        np.testing.assert_array_equal(g, np.arange(5) * 0.25)

    def test_endpoints(self):
        g = time_grid(2.5, 10)
        assert g[0] == 0.0
        assert g[-1] == 2.5
        assert len(g) == 11

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            time_grid(0.0, 4)
        with pytest.raises(ValueError):
            time_grid(1.0, 0)
        for T in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                time_grid(T, 4)

    @pytest.mark.parametrize("n_steps", [2.5, 2.0, "2"])
    def test_non_integral_step_count_refused(self, n_steps):
        # 2.5 steps once gave [0, 0.4, 0.8, 1.2], a grid past T.
        with pytest.raises(TypeError, match="cannot be interpreted as an "
                           "integer"):
            time_grid(1.0, n_steps)
        assert time_grid(1.0, np.int64(2)).tolist() == [0.0, 0.5, 1.0]


def _same(a, b):
    """Two ensembles hold the same bytes."""
    return a.X.tobytes() == b.X.tobytes() and a.V.tobytes() == b.V.tobytes()


class TestMeasureFlow:
    def test_requires_strictly_increasing_grid(self):
        ens = _gaussian_ensemble(2, 1, seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasureFlow([0.0, 0.0], [ens, ens])

    def test_one_snapshot_per_node(self):
        ens = _gaussian_ensemble(2, 1, seed=0)
        with pytest.raises(ValueError):
            MeasureFlow([0.0, 1.0], [ens])

    def test_snapshots_must_share_shape(self):
        a = _gaussian_ensemble(2, 1, seed=0)
        b = _gaussian_ensemble(3, 1, seed=1)
        with pytest.raises(ValueError):
            MeasureFlow([0.0, 1.0], [a, b])

    def test_at_time_picks_left_node(self):
        snaps = [_gaussian_ensemble(2, 1, seed=s) for s in range(3)]
        flow = MeasureFlow([0.0, 0.5, 1.0], snaps)
        for t, k in [(0.0, 0), (0.49, 0), (0.5, 1), (1.0, 2)]:
            assert _same(flow.at_time(t), snaps[k])

    def test_at_time_tolerates_rounding(self):
        # 0.1 * 3 != 0.3 in binary; lookup must still land on the node.
        flow = MeasureFlow(time_grid(1.0, 10),
                           [_gaussian_ensemble(2, 1, seed=s) for s in range(11)])
        assert flow.index_at(0.1 * 3) == 3

    def test_out_of_range_time_rejected(self):
        flow = MeasureFlow.constant(_gaussian_ensemble(2, 1, seed=0), [0.0, 1.0])
        with pytest.raises(ValueError, match="outside grid"):
            flow.at_time(1.5)
        with pytest.raises(ValueError):
            flow.at_time(-0.2)

    @pytest.mark.parametrize("lookup", ["index_at", "at_time"])
    def test_nan_time_rejected(self, lookup):
        # NaN fails every range comparison; it must not land on the last
        # node, which would hand a field the final snapshot.
        flow = MeasureFlow.constant(_gaussian_ensemble(2, 1, seed=0),
                                    time_grid(1.0, 4))
        with pytest.raises(ValueError, match="outside grid"):
            getattr(flow, lookup)(float("nan"))

    def test_prefix_keeps_early_nodes(self):
        snaps = [_gaussian_ensemble(2, 1, seed=s) for s in range(4)]
        flow = MeasureFlow([0.0, 1.0, 2.0, 3.0], snaps)
        pre = flow.prefix(2.0)
        assert len(pre) == 3
        assert pre.T == 2.0
        assert _same(pre.snapshots[-1], snaps[2])
        # A view of the flow's arrays, not a copy.
        assert np.shares_memory(pre.X, flow.X)

    def test_constant_flow_reuses_ensemble(self):
        ens = _gaussian_ensemble(3, 2, seed=1)
        flow = MeasureFlow.constant(ens, time_grid(1.0, 5))
        assert all(_same(s, ens) for s in flow.snapshots)
        assert np.shares_memory(flow.X, ens.X)
        assert np.shares_memory(flow.V, ens.V)


def _assert_locked(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = 1.0


class TestLocking:
    """Every array a flow or leader path hands out is read-only: the
    arrays themselves, their snapshot views, at_time and prefix."""

    @staticmethod
    def _assert_flow_locked(flow):
        _assert_locked(flow.X)
        _assert_locked(flow.V)
        for s in flow.snapshots + (flow.at_time(flow.T),):
            _assert_locked(s.X)
            _assert_locked(s.V)
        pre = flow.prefix(float(flow.times[0]))
        _assert_locked(pre.X)
        _assert_locked(pre.V)

    def test_constructed_flow_is_locked(self):
        snaps = [_gaussian_ensemble(3, 2, seed=s) for s in range(3)]
        self._assert_flow_locked(MeasureFlow(time_grid(1.0, 2), snaps))
        self._assert_flow_locked(MeasureFlow.constant(snaps[0], time_grid(1.0, 2)))

    def test_constructed_flow_does_not_alias_its_inputs(self):
        X = np.zeros((2, 1))
        ens = ParticleEnsemble(X, X)
        flow = MeasureFlow([0.0, 1.0], [ens, ens])
        X[0, 0] = 5.0
        assert flow.X[0, 0, 0] == 0.0

    def test_simulated_flows_and_running_prefixes_are_locked(self):
        from kineticmf.drift import kernel
        from kineticmf.sde import (SimConfig, generate_brownian,
                                   simulate_frozen, simulate_interacting)

        cfg = SimConfig(T=1.0, n_steps=3, N=4, sigma=0.1, seed=1, d=2)
        paths = generate_brownian(cfg)
        init = _gaussian_ensemble(4, 2, seed=3)
        self._assert_flow_locked(
            simulate_frozen(lambda t, X, V: -V, init, cfg, paths))
        seen = []

        def u(t, prefix):
            # The running flow the simulator hands a control mid-run.
            self._assert_flow_locked(prefix)
            seen.append(len(prefix))
            return np.zeros((1, 2))

        kernels = {"K11": kernel("bounded_alignment", d=2),
                   "K12": kernel("bounded_attraction")}
        flow, leaders = simulate_interacting(
            kernels, u, init, LeaderState(np.ones((1, 2))),
            cfg, paths)
        assert seen == [1, 2, 3, 4]
        self._assert_flow_locked(flow)
        _assert_locked(leaders.Y)
        _assert_locked(leaders.W)


class TestLeaders:
    def test_empty_leader_state(self):
        s = LeaderState.empty(3)
        assert s.m == 0
        assert s.d == 3
        assert s.Y.shape == (0, 3)

    @pytest.mark.parametrize("Y", [np.zeros((2, 1, 3)), np.zeros((2, 0)),
                                   np.zeros(2), 0.5],
                             ids=["3-D", "d=0", "1-D", "scalar"])
    def test_leader_state_needs_an_m_by_d_array(self, Y):
        with pytest.raises(ValueError, match=r"shape \(m, d\) with d >= 1"):
            LeaderState(Y)

    def test_leader_state_positions_must_be_finite(self):
        with pytest.raises(ValueError, match="Y must contain only finite"):
            LeaderState([[0.0], [np.nan]])

    def test_leader_state_is_its_positions(self):
        s = LeaderState([[0.5, -1.0]])
        assert not hasattr(s, "W")
        np.testing.assert_array_equal(s.Y, [[0.5, -1.0]])
        assert not s.Y.flags.writeable

    def test_path_index_lookup(self):
        times = time_grid(1.0, 2)
        Y = np.arange(6, dtype=float).reshape(3, 1, 2)
        W = np.zeros_like(Y)
        lp = LeaderPath(times, Y, W)
        assert lp.index_at(0.5) == 1
        assert lp.index_at(0.75) == 1
        np.testing.assert_array_equal(lp.Y[lp.index_at(0.5)], [[2.0, 3.0]])

    def test_path_nan_time_rejected(self):
        Y = np.arange(6, dtype=float).reshape(3, 1, 2)
        lp = LeaderPath(time_grid(1.0, 2), Y, np.zeros_like(Y))
        with pytest.raises(ValueError, match="outside grid"):
            lp.index_at(float("nan"))

    def test_path_grid_must_increase(self):
        # A decreasing node once made index_at(0.25) answer 0.
        Y = np.zeros((3, 1, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            LeaderPath([0.0, 1.0, 0.5], Y, Y)

    def test_path_grid_must_be_finite(self):
        Y = np.zeros((3, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            LeaderPath([0.0, float("nan"), 1.0], Y, Y)

    @pytest.mark.parametrize("which", ["Y", "W"])
    def test_path_states_must_be_finite(self, which):
        good = np.zeros((2, 1, 1))
        bad = good.copy()
        bad[1, 0, 0] = np.inf
        arrays = {"Y": good, "W": good, which: bad}
        with pytest.raises(ValueError, match=f"{which} must contain only finite"):
            LeaderPath([0.0, 1.0], arrays["Y"], arrays["W"])

    def test_sup_norm_of_empty_path_is_zero(self):
        lp = LeaderPath(np.array([0.0, 1.0]), np.zeros((2, 0, 1)), np.zeros((2, 0, 1)))
        assert lp.sup_norm() == 0.0

    def test_sup_norm_hand_value(self):
        # Single leader, single node pair: norms are |(Y, W)| per node.
        lp = LeaderPath(np.array([0.0, 1.0]),
                        np.array([[[3.0]], [[0.0]]]),
                        np.array([[[4.0]], [[1.0]]]))
        assert lp.sup_norm() == 5.0


class TestYoungFunction:
    def test_identity_is_admissible(self):
        assert IDENTITY_YOUNG(2.5) == 2.5

    def test_zero_at_zero_enforced(self):
        with pytest.raises(ValueError, match="phi\\(0\\) = 0"):
            YoungFunction(lambda x: x + 1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            YoungFunction(lambda x: -x)

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            YoungFunction(lambda x: 1.0 if x == 0 else 0.0)


class TestMoments:
    def test_point_mass_at_origin_has_zero_moment(self):
        ens = ParticleEnsemble([[0.0]], [[0.0]])
        for p in (1.0, 2.0, 3.0):
            assert moment_p(ens, p) == 0.0

    def test_hand_value(self):
        # Radii are 5 and 0, so M_1 = 2.5 and M_2 = 12.5.
        ens = ParticleEnsemble([[3.0], [0.0]], [[4.0], [0.0]])
        assert moment_p(ens, 1.0) == 2.5
        assert moment_p(ens, 2.0) == 12.5

    def test_order_below_one_rejected(self):
        ens = ParticleEnsemble([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            moment_p(ens, 0.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance_is_exact(self, seed, p):
        """fsum accumulation makes the moment bitwise order-independent."""
        rng = np.random.default_rng(seed)
        ens = ParticleEnsemble(rng.standard_normal((17, 2)),
                               rng.standard_normal((17, 2)))
        perm = rng.permutation(17)
        shuffled = ParticleEnsemble(ens.X[perm], ens.V[perm])
        assert moment_p(ens, p) == moment_p(shuffled, p)

    def test_young_moment_with_identity_matches_moment_p(self):
        ens = _gaussian_ensemble(11, 3, seed=5)
        for p in (1.0, 2.0):
            assert young_moment(ens, IDENTITY_YOUNG, p) == moment_p(ens, p)

    def test_young_moment_applies_phi_to_radius_power(self):
        ens = ParticleEnsemble([[3.0]], [[4.0]])
        Phi = YoungFunction(lambda x: x * x)
        # |z| = 5, p = 1, Phi(5) = 25.
        assert young_moment(ens, Phi, 1.0) == 25.0

    def test_sup_moment_is_running_max(self):
        big = ParticleEnsemble([[10.0]], [[0.0]])
        small = ParticleEnsemble([[1.0]], [[0.0]])
        flow = MeasureFlow([0.0, 1.0, 2.0], [small, big, small])
        assert sup_moment(flow, 2.0, 0.0) == 1.0
        assert sup_moment(flow, 2.0, 1.0) == 100.0
        assert sup_moment(flow, 2.0, 2.0) == 100.0


class TestHolderRatio:
    def test_gamma_exponent_values(self):
        assert gamma_p(1.0) == 0.5
        assert gamma_p(2.0) == 0.5
        assert gamma_p(3.0) == pytest.approx(1.0 / 3.0)
        assert gamma_p(4.0) == 0.25


class TestCsvRoundTrips:
    def test_flow_csv_header_and_row_count(self, tmp_path):
        flow = MeasureFlow.constant(_gaussian_ensemble(3, 2, seed=1),
                                    time_grid(1.0, 4))
        path = tmp_path / "flow.csv"
        write_flow_csv(flow, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,particle,x0,x1,v0,v1"
        assert len(lines) == 1 + 5 * 3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flow_csv_matches_the_csv_writer_reference(self, tmp_path, d):
        rng = np.random.default_rng(d)
        M, N = 3, 11
        X = rng.permutation(np.resize(_AWKWARD, M * N * d)).reshape(M, N, d)
        V = rng.standard_normal((M, N, d)) * 10.0 ** rng.integers(-300, 300, (M, N, d))
        times = np.array([0.0, 0.1, 1e-300 + 1.0])
        flow = MeasureFlow(times, [ParticleEnsemble(X[k], V[k]) for k in range(M)])
        header = (["t", "particle"] + [f"x{i}" for i in range(d)]
                  + [f"v{i}" for i in range(d)])
        write_flow_csv(flow, tmp_path / "flow.csv")
        _reference_csv(tmp_path / "ref.csv", header, times, X, V)
        assert (tmp_path / "flow.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        _assert_reads_back(tmp_path / "flow.csv", times, X, V)

    @pytest.mark.parametrize("m", [1, 3])
    def test_leader_csv_matches_the_csv_writer_reference(self, tmp_path, m):
        d = 2
        Y = np.resize(_AWKWARD, 4 * m * d).reshape(4, m, d)
        W = -np.resize(_AWKWARD[::-1], 4 * m * d).reshape(4, m, d)
        lp = LeaderPath(time_grid(2.0, 3), Y, W)
        header = ["t", "leader", "y0", "y1", "w0", "w1"]
        write_leader_csv(lp, tmp_path / "leaders.csv")
        _reference_csv(tmp_path / "ref.csv", header, lp.times, Y, W)
        assert (tmp_path / "leaders.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        _assert_reads_back(tmp_path / "leaders.csv", lp.times, Y, W)

    def test_leaderless_path_refused_before_the_file_opens(self, tmp_path):
        # Header-only rows would lose the grid.
        lp = LeaderPath(time_grid(1.0, 2), np.zeros((3, 0, 1)),
                        np.zeros((3, 0, 1)))
        with pytest.raises(ValueError, match="at least one leader"):
            write_leader_csv(lp, tmp_path / "leaders.csv")
        assert not (tmp_path / "leaders.csv").exists()

    def test_flow_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        X, V = rng.standard_normal((2, 3, 4, 2))
        flow = MeasureFlow(time_grid(1.0, 2),
                           [ParticleEnsemble(X[k], V[k]) for k in range(3)])
        write_flow_csv(flow, tmp_path / "flow.csv")
        _assert_reads_back(tmp_path / "flow.csv", flow.times, X, V)

    def test_leader_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        Y, W = rng.standard_normal((2, 4, 2, 3))
        lp = LeaderPath(time_grid(2.0, 3), Y, W)
        write_leader_csv(lp, tmp_path / "leaders.csv")
        _assert_reads_back(tmp_path / "leaders.csv", lp.times, Y, W)


# (kind, nodes, rows, d): a single node and row, two-digit row indices,
# and the d = 2 and d = 3 component headers, for each writer.
_LAYOUTS = [(kind, M, n, d) for kind in ("flow", "leader")
            for M, n, d in [(1, 1, 1), (2, 12, 1), (3, 2, 2), (4, 3, 3)]]


@pytest.fixture(params=_LAYOUTS, ids=lambda c: "{}-{}x{}-d{}".format(*c))
def written(request, tmp_path):
    """A flow or leader path of one layout, written by its writer:
    (names, times, rows, d, lines) with names its (index, x, v) column
    stems and lines the file's ASCII text split at its \\r\\n line ends."""
    kind, M, n, d = request.param
    Y, W = np.random.default_rng(M * n * d).standard_normal((2, M, n, d))
    times = np.arange(M) / 3.0
    path = tmp_path / f"{kind}.csv"
    if kind == "flow":
        names = ("particle", "x", "v")
        write_flow_csv(MeasureFlow(times, [ParticleEnsemble(Y[k], W[k])
                                           for k in range(M)]), path)
    else:
        names = ("leader", "y", "w")
        write_leader_csv(LeaderPath(times, Y, W), path)
    text = path.read_bytes().decode("ascii")
    assert text.endswith("\r\n")
    return names, times, n, d, text[:-2].split("\r\n")


class TestCsvLayout:
    def test_the_header_names_each_component(self, written):
        (index, x, v), _, _, d, lines = written
        assert lines[0] == ",".join(["t", index] + [f"{x}{i}" for i in range(d)]
                                    + [f"{v}{i}" for i in range(d)])

    def test_every_row_has_the_header_width(self, written):
        _, times, n, d, lines = written
        assert len(lines) == 1 + times.size * n
        assert [row.count(",") for row in lines] == [1 + 2 * d] * len(lines)

    def test_the_time_column_holds_each_node_once_per_row(self, written):
        _, times, n, _, lines = written
        t = np.array([float(row.split(",")[0]) for row in lines[1:]])
        assert t.tobytes() == np.repeat(times, n).tobytes()

    def test_the_index_column_reads_0_to_n_at_every_node(self, written):
        _, times, n, _, lines = written
        index = [row.split(",")[1] for row in lines[1:]]
        assert index == [str(i) for i in range(n)] * times.size
