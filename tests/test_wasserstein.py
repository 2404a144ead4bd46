"""Tests for the exact assignment-based W_p and its cheap surrogates.

The exact solver is the package's measuring stick, so it gets the brute
force treatment: small instances are checked against explicit enumeration
over all permutations.
"""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kineticmf
from kineticmf import wasserstein
from kineticmf.phase_space import ParticleEnsemble
from kineticmf.wasserstein import (
    EXACT_SIZE_CAP,
    TransportPlan,
    paired_bounds,
    sliced_w1,
    sliced_w1_points,
    wasserstein_distance,
    wasserstein_exact,
    wasserstein_paired_bound,
)


def _ens(X, V=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if V is None:
        V = np.zeros_like(X)
    return ParticleEnsemble(X, V)


def _random_ens(rng, N, d):
    return ParticleEnsemble(rng.standard_normal((N, d)),
                            rng.standard_normal((N, d)))


def _brute_force(a, b, p):
    za, zb = a.Z(), b.Z()
    best = np.inf
    for sigma in itertools.permutations(range(a.N)):
        cost = np.mean(
            np.linalg.norm(za - zb[list(sigma)], axis=1) ** p)
        best = min(best, cost)
    return best ** (1.0 / p)


class TestHandValues:
    def test_shift_by_one_in_1d(self):
        a = _ens([[0.0], [1.0]])
        b = _ens([[1.0], [2.0]])
        d1, _ = wasserstein_exact(a, b, 1.0)
        d2, _ = wasserstein_exact(a, b, 2.0)
        assert d1 == pytest.approx(1.0, abs=1e-14)
        assert d2 == pytest.approx(1.0, abs=1e-14)

    def test_crossing_pairs_prefer_sorted_matching(self):
        # {0, 10} vs {9, 1}: matching 0-1 and 10-9 costs 1 each.
        a = _ens([[0.0], [10.0]])
        b = _ens([[9.0], [1.0]])
        d, plan = wasserstein_exact(a, b, 2.0)
        assert d == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(plan.assignment, [1, 0])

    def test_velocity_counts_like_position(self):
        a = _ens([[0.0]], [[0.0]])
        b = _ens([[3.0]], [[4.0]])
        d, _ = wasserstein_exact(a, b, 2.0)
        assert d == pytest.approx(5.0, abs=1e-12)

    def test_self_distance_zero_with_identity_plan(self):
        rng = np.random.default_rng(0)
        a = _random_ens(rng, 6, 2)
        d, plan = wasserstein_exact(a, a, 2.0)
        assert d == 0.0
        np.testing.assert_array_equal(plan.assignment, np.arange(6))


class TestBruteForceAgreement:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_small_random_instances(self, p):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            N = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            a, b = _random_ens(rng, N, d), _random_ens(rng, N, d)
            got, plan = wasserstein_exact(a, b, p)
            want = _brute_force(a, b, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            # The returned plan must realize the reported distance.
            za, zb = a.Z(), b.Z()
            realized = np.mean(
                np.linalg.norm(za - zb[plan.assignment], axis=1) ** p) ** (1 / p)
            assert realized == pytest.approx(got, rel=1e-12, abs=1e-12)


class TestValueOnly:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([1.0, 1.5, 2.0]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_bitwise(self, seed, N, d, p, lattice):
        # Points on a 3-point lattice make cost ties common; whichever tied
        # plan the solver returns, it realizes the one reported value.
        rng = np.random.default_rng(seed)
        if lattice:
            a, b = (ParticleEnsemble(rng.integers(0, 3, (N, d)).astype(float),
                                     rng.integers(0, 3, (N, d)).astype(float))
                    for _ in range(2))
        else:
            a, b = _random_ens(rng, N, d), _random_ens(rng, N, d)
        dist, plan = wasserstein_exact(a, b, p)
        assert wasserstein_distance(a, b, p) == dist
        realized = np.mean(np.linalg.norm(a.Z() - b.Z()[plan.assignment],
                                          axis=1) ** p) ** (1 / p)
        assert realized == pytest.approx(dist, rel=1e-12, abs=1e-12)

    def test_tie_refinement_keeps_solver_value(self):
        # In 1-d every pairing of {0.8, 0.7} with {3.0, 2.9} costs 4.4 in
        # W_1, but the two pairings sum to different floating-point values
        # (4.3999999999999995 and 4.4). Both paths report the solver's sum,
        # so they return the same bits.
        a = _ens([[0.8], [0.7]])
        b = _ens([[3.0], [2.9]])
        assert wasserstein_exact(a, b, 1.0)[0] == wasserstein_distance(a, b, 1.0)

    @pytest.mark.parametrize("N", [8, 40])
    def test_one_assignment_solve_per_call(self, N, monkeypatch):
        rng = np.random.default_rng(N)
        a, b = _random_ens(rng, N, 2), _random_ens(rng, N, 2)
        lsap = wasserstein.linear_sum_assignment
        calls = []

        def counting(C):
            calls.append(C.shape)
            return lsap(C)

        monkeypatch.setattr(wasserstein, "linear_sum_assignment", counting)
        wasserstein_exact(a, b, 2.0)
        assert calls == [(N, N)]
        wasserstein_distance(a, b, 2.0)
        assert calls == [(N, N)] * 2

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_near_coincident_points_keep_optimal_value(self, p):
        # {0, h} vs {h, 0}: swapping costs 0, the identity 2 h^p. Costs far
        # below 1 are still told apart: the swap and a distance of 0 win.
        h = 1e-7
        a = _ens([[0.0], [h]])
        b = _ens([[h], [0.0]])
        dist, plan = wasserstein_exact(a, b, p)
        assert dist == 0.0
        assert wasserstein_distance(a, b, p) == 0.0
        np.testing.assert_array_equal(plan.assignment, [1, 0])


def _per_pair_bound(a, b, p):
    """((1/N) sum_i |z_i - z'_i|^p)^(1/p) on one ensemble pair: the paired
    bound written out per pair, the reference for the stacked pass."""
    diff = a.Z() - b.Z()
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return float(np.mean(dist**p) ** (1.0 / p))


class TestPairedBounds:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1, 2, 7, 8, 9, 64, 127, 128, 129, 300, 512]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=120, deadline=None)
    def test_stacked_bounds_match_the_per_pair_bound_bitwise(self, seed, N, d,
                                                             nodes, p):
        # Every node draws its own scale over six decades, and every entry
        # a further decade of spread, so rounding differences would show.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, (nodes, 1, 1))
        Xa, Va, Xb, Vb = (scale * rng.standard_normal((nodes, N, d))
                          * 10.0 ** rng.uniform(-0.5, 0.5, (nodes, N, d))
                          for _ in range(4))
        got = paired_bounds(Xa, Va, Xb, Vb, p)
        pairs = [(ParticleEnsemble(Xa[k], Va[k]),
                  ParticleEnsemble(Xb[k], Vb[k])) for k in range(nodes)]
        assert len(got) == nodes
        assert all(type(g) is float for g in got)
        assert got == [_per_pair_bound(a, b, p) for a, b in pairs]
        assert got == [wasserstein_paired_bound(a, b, p) for a, b in pairs]

    def test_shapes_and_order_checked(self):
        A = np.zeros((2, 3, 1))
        with pytest.raises(ValueError, match="one shape"):
            paired_bounds(A, A, np.zeros((2, 4, 1)), np.zeros((2, 4, 1)), 2.0)
        with pytest.raises(ValueError, match="one shape"):
            paired_bounds(A[0], A[0], A[0], A[0], 2.0)
        with pytest.raises(ValueError, match="order"):
            paired_bounds(A, A, A, A, 0.5)


class TestTieBreaking:
    def test_tie_break_repeatable(self):
        a = _ens([[0.0], [2.0], [4.0]])
        b = _ens([[1.0], [1.0], [3.0]])
        first = wasserstein_exact(a, b, 1.0)[1].assignment
        for _ in range(3):
            again = wasserstein_exact(a, b, 1.0)[1].assignment
            np.testing.assert_array_equal(again, first)


class TestMetricProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        p = float(rng.choice([1.0, 2.0]))
        a, b, c = (_random_ens(rng, 5, 2) for _ in range(3))
        dab = wasserstein_exact(a, b, p)[0]
        dba = wasserstein_exact(b, a, p)[0]
        dac = wasserstein_exact(a, c, p)[0]
        dcb = wasserstein_exact(c, b, p)[0]
        assert dab == pytest.approx(dba, rel=1e-12, abs=1e-12)
        assert dab <= dac + dcb + 1e-9

    def test_value_invariant_under_source_permutation(self):
        rng = np.random.default_rng(77)
        a, b = _random_ens(rng, 8, 2), _random_ens(rng, 8, 2)
        base = wasserstein_exact(a, b, 2.0)[0]
        order = rng.permutation(8)
        shuffled = wasserstein_exact(ParticleEnsemble(a.X[order], a.V[order]),
                                     b, 2.0)[0]
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        a, b = _random_ens(rng, 6, 2), _random_ens(rng, 6, 2)
        shift = rng.standard_normal(2)
        a2 = ParticleEnsemble(a.X + shift, a.V)
        b2 = ParticleEnsemble(b.X + shift, b.V)
        assert wasserstein_exact(a2, b2, 2.0)[0] == pytest.approx(
            wasserstein_exact(a, b, 2.0)[0], rel=1e-10)

    def test_order_monotone_in_p(self):
        # W_1 <= W_2 by Jensen on the optimal coupling.
        rng = np.random.default_rng(13)
        a, b = _random_ens(rng, 10, 2), _random_ens(rng, 10, 2)
        assert (wasserstein_exact(a, b, 1.0)[0]
                <= wasserstein_exact(a, b, 2.0)[0] + 1e-12)


class TestPairedBound:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dominates_exact_distance(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _random_ens(rng, 6, 2), _random_ens(rng, 6, 2)
        for p in (1.0, 2.0):
            for exact in (wasserstein_exact(a, b, p)[0],
                          wasserstein_distance(a, b, p)):
                assert wasserstein_paired_bound(a, b, p) >= exact - 1e-12

    def test_hand_value(self):
        a = _ens([[0.0], [0.0]])
        b = _ens([[1.0], [3.0]])
        # Identity pairing: mean of (1^2, 3^2) is 5.
        assert wasserstein_paired_bound(a, b, 2.0) == pytest.approx(np.sqrt(5.0))

    def test_tight_when_pairing_is_optimal(self):
        a = _ens([[0.0], [10.0]])
        b = _ens([[0.5], [10.5]])
        assert wasserstein_paired_bound(a, b, 1.0) == pytest.approx(
            wasserstein_exact(a, b, 1.0)[0])


class TestSliced:
    def test_matches_exact_in_one_dimension(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 1))
        B = rng.standard_normal((20, 1))
        got = sliced_w1_points(A, B, n_proj=4, seed=11)
        # In 1-d every projection reduces to the sorted pairing.
        want = np.mean(np.abs(np.sort(A[:, 0]) - np.sort(B[:, 0])))
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_on_identical_clouds(self):
        rng = np.random.default_rng(8)
        a = _random_ens(rng, 12, 2)
        assert sliced_w1(a, a, n_proj=16, seed=0) == 0.0

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(21)
        a, b = _random_ens(rng, 9, 3), _random_ens(rng, 9, 3)
        v1 = sliced_w1(a, b, n_proj=8, seed=4)
        v2 = sliced_w1(a, b, n_proj=8, seed=4)
        assert v1 == v2

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_lower_bounds_exact_w1(self, seed, d):
        # Each projection is 1-Lipschitz, so each slice sits below W_1 and
        # so does their average. The 1e-12 slack covers rounding only: the
        # sorted 1-d sums and the assignment sum add in different orders.
        rng = np.random.default_rng(seed)
        a, b = _random_ens(rng, 10, d), _random_ens(rng, 10, d)
        exact = wasserstein_exact(a, b, 1.0)[0]
        assert sliced_w1(a, b, n_proj=32, seed=seed) <= exact + 1e-12

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(1)
        a = _random_ens(rng, 4, 1)
        with pytest.raises(ValueError):
            sliced_w1(a, a, n_proj=0, seed=0)
        with pytest.raises(ValueError):
            sliced_w1_points(np.zeros((3, 1)), np.zeros((4, 1)), 2, 0)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_one_dimensional_samples_are_points_on_the_line(self, seed, N):
        # An (N,) array is N points on the line, as its (N, 1) form, not one
        # point in R^N; so it too stays at or below the exact W_1.
        rng = np.random.default_rng(seed)
        A, B = rng.standard_normal(N), rng.standard_normal(N)
        got = sliced_w1_points(A, B, n_proj=8, seed=seed)
        assert got == sliced_w1_points(A[:, None], B[:, None], 8, seed)
        exact = wasserstein_distance(_ens(A[:, None]), _ens(B[:, None]), 1.0)
        assert got <= exact + 1e-12

    def test_reordered_one_dimensional_sample_is_at_distance_zero(self):
        assert sliced_w1_points([0, 1, 5], [5, 1, 0], 64, 3) == 0.0

    @pytest.mark.parametrize("shape", [(), (2, 2, 1)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"shape \(N,\) or \(N, D\)"):
            sliced_w1_points(np.zeros(shape), np.zeros(shape), 2, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0,), (0, 2), (3, 0)])
    def test_rejects_empty_clouds(self, shape):
        with pytest.raises(ValueError, match="must not be empty"):
            sliced_w1_points(np.zeros(shape), np.zeros(shape), 2, 0)


class TestGuards:
    def test_unequal_sizes_rejected_with_hint(self):
        a = _ens([[0.0], [1.0]])
        b = _ens([[0.0]])
        with pytest.raises(ValueError, match="equal-size"):
            wasserstein_exact(a, b, 1.0)

    def test_dimension_mismatch_rejected(self):
        a = _ens([[0.0]])
        b = _ens([[0.0, 0.0]])
        with pytest.raises(ValueError):
            wasserstein_exact(a, b, 1.0)

    def test_order_below_one_rejected(self):
        a = _ens([[0.0]])
        with pytest.raises(ValueError):
            wasserstein_exact(a, a, 0.5)

    def test_size_cap_enforced(self, monkeypatch):
        # The cap is checked before the cost matrix is built.
        def no_matrix(*args):
            raise AssertionError("cost matrix built past the cap")

        monkeypatch.setattr(wasserstein, "_cost_matrix", no_matrix)
        a = _ens(np.zeros((EXACT_SIZE_CAP + 1, 1)))
        for solve in (wasserstein_exact, wasserstein_distance):
            with pytest.raises(ValueError, match="exceeds the exact-solver cap"):
                solve(a, a, 2.0)
        assert EXACT_SIZE_CAP == 4096

    def test_plan_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            TransportPlan(assignment=np.array([0, 0]))


def _fresh_process(code):
    """Run code in a new interpreter that imports this kineticmf; return its
    last stdout line parsed as JSON."""
    src = str(Path(kineticmf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestSolverLoader:
    """linear_sum_assignment comes from scipy's compiled extension alone;
    scipy.optimize is the fallback. Each check runs in a fresh interpreter,
    since the test process may already hold scipy.optimize."""

    def test_cli_import_loads_no_scipy_optimize(self):
        loaded = _fresh_process("""
            import json, sys
            import kineticmf.cli
            print(json.dumps(sorted(m for m in sys.modules
                                    if m.startswith("scipy"))))
        """)
        for heavy in ("scipy.optimize", "scipy.linalg", "scipy.stats"):
            assert heavy not in loaded
        assert "scipy.optimize._lsap" in loaded

    def test_later_scipy_optimize_import_reuses_the_solver(self):
        assert _fresh_process("""
            import json
            from kineticmf import wasserstein
            import scipy.optimize
            print(json.dumps(wasserstein.linear_sum_assignment
                             is scipy.optimize.linear_sum_assignment))
        """)

    @pytest.mark.parametrize("breakage", ["missing_file", "failed_load"])
    def test_loader_failure_falls_back_to_public_import(self, breakage):
        result = _fresh_process(f"""
            import importlib, importlib.abc, importlib.machinery, json, sys
            from kineticmf import wasserstein

            # importlib.abc is loaded first: it registers the real loader
            # class, which a patched one would break.
            class Failing(importlib.machinery.ExtensionFileLoader):
                def exec_module(self, module):
                    raise ImportError("forced")

            del sys.modules["scipy.optimize._lsap"]
            if {breakage!r} == "missing_file":
                importlib.machinery.EXTENSION_SUFFIXES = [".missing.so"]
            else:  # found, then fails after registration
                importlib.machinery.ExtensionFileLoader = Failing
            importlib.reload(wasserstein)
            assert "scipy.optimize" in sys.modules
            import scipy.optimize
            from kineticmf.phase_space import ParticleEnsemble
            import numpy as np
            a = ParticleEnsemble(np.array([[0.0], [10.0]]), np.zeros((2, 1)))
            b = ParticleEnsemble(np.array([[9.0], [1.0]]), np.zeros((2, 1)))
            d, plan = wasserstein.wasserstein_exact(a, b, 1.0)
            print(json.dumps([
                wasserstein.linear_sum_assignment
                is scipy.optimize.linear_sum_assignment,
                d, plan.assignment.tolist()]))
        """)
        assert result == [True, 1.0, [1, 0]]

    def test_validate_after_the_loader_keeps_one_solver(self, tmp_path):
        # validate draws its Latin hypercube with numpy, so it loads no
        # scipy.stats; scipy.optimize imported after the run must still
        # hand out the registered solver object.
        cfg = tmp_path / "validate.ini"
        cfg.write_text("[run]\nscenario = validate\nseed = 4\n"
                       "[model]\nk11 = bounded_alignment\nsigma = 0.1\n"
                       "n_particles = 16\n"
                       "[grid]\nt = 0.5\nn_steps = 8\n")
        result = _fresh_process(f"""
            import json, sys
            from kineticmf import wasserstein
            from kineticmf.cli import parse_config, run
            assert "scipy.optimize" not in sys.modules
            code = run(parse_config({str(cfg)!r}),
                       output_dir={str(tmp_path / "out")!r})
            stats = "scipy.stats" in sys.modules
            import scipy.optimize
            print(json.dumps([code, stats,
                              wasserstein.linear_sum_assignment
                              is scipy.optimize.linear_sum_assignment]))
        """)
        assert result == [0, False, True]

    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_loaded_solver_matches_public_solver(self, n, seed, lattice):
        # Ties are where two solver builds could pick different optimal
        # assignments, so half the matrices take three values only.
        from scipy.optimize import linear_sum_assignment as public

        rng = np.random.default_rng(seed)
        if lattice:
            C = 0.5 * rng.integers(0, 3, size=(n, n))
        else:
            C = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4)
        rows, cols = wasserstein.linear_sum_assignment(C)
        want_rows, want_cols = public(C)
        assert rows.dtype == want_rows.dtype and cols.dtype == want_cols.dtype
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)


class TestNoPoolBelowTheSplit:
    """pair_mean builds its thread pool on its first call that splits (its
    docstring states the size), so a run whose pair sums are all smaller
    starts no thread and loads no executor."""

    def test_simulate_run_starts_no_thread(self, tmp_path):
        cfg = tmp_path / "simulate.ini"
        cfg.write_text("[run]\nscenario = simulate\nseed = 3\n"
                       "[model]\nk11 = bounded_alignment\nsigma = 0.1\n"
                       "n_particles = 64\nd = 2\n"
                       "[grid]\nt = 0.5\nn_steps = 8\n")
        result = _fresh_process(f"""
            import json, sys, threading
            from kineticmf.cli import parse_config, run
            code = run(parse_config({str(cfg)!r}),
                       output_dir={str(tmp_path / "out")!r})
            print(json.dumps([code, "concurrent.futures" in sys.modules,
                              threading.active_count()]))
        """)
        assert result == [0, False, 1]
