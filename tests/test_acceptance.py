"""End-to-end acceptance checks for the whole package.

Each test covers one headline property, prints one PASS/FAIL line (visible
with `pytest tests/test_acceptance.py -s`), and asserts it. The twelve
checks together exercise the SDE scheme, the exact transport oracle, the
noise maximal bound, the fixed-point solver, the weak-form residual, the
moment certificates, both stability experiments, the coupled leader
system, the two convergence sweeps, the optimizer, and the assumption
validators.
"""

import itertools
import math

import numpy as np
import pytest

from kineticmf.control_opt import (
    CostSpec,
    evaluate_cost_meanfield,
    lagrangian_track_mean_x,
    optimize,
    psi_quadratic,
    sv_control,
    sv_zero,
    validate_control,
    zero_control,
)
from kineticmf.drift import (
    DriftField,
    constant_field,
    coupling_from_kernel,
    drift_from_kernel,
    kernel,
    latin_hypercube_points,
    leader_field_from_kernels,
    validate_dissipativity_v3pp,
    validate_hoelder,
    validate_sublinearity,
    zero_field,
)
from kineticmf.experiments import chaos_experiment, gamma_convergence_experiment
from kineticmf.meanfield import (
    bump,
    moment_certificate,
    picard_solve,
    stability_experiment,
    weakform_residual,
)
from kineticmf.pdeode import (
    LeaderFollowerModel,
    control_stability,
    leader_flow_sensitivity,
    solve_coupled,
)
from kineticmf.phase_space import (
    IDENTITY_YOUNG,
    LeaderState,
    MeasureFlow,
    ParticleEnsemble,
    time_grid,
)
from kineticmf.sde import (
    STREAM_INITIAL,
    SimConfig,
    doob_check,
    generate_brownian,
    path_rng,
    simulate_frozen,
)
from kineticmf.wasserstein import wasserstein_exact


def _report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {num:>2} {name}: {detail}"
    print(line)
    assert ok, line


def _gauss(N, seed, d=1, std=1.0):
    X = np.empty((N, d))
    V = np.empty((N, d))
    for i in range(N):
        rng = path_rng(seed, STREAM_INITIAL, i)
        X[i] = std * rng.standard_normal(d)
        V[i] = std * rng.standard_normal(d)
    return ParticleEnsemble(X, V)


def _spread_init(N, d, seed=2, scale=0.5):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(scale * rng.standard_normal((N, d)),
                            scale * rng.standard_normal((N, d)))


def test_01_closed_form_sde_suite():
    """Ballistic exactness, first-order step error, noise variance."""
    # Free motion: no drift, no noise, positions advance by v0 T exactly.
    init = _spread_init(64, 2, seed=1, scale=1.0)
    cfg = SimConfig(T=1.5, n_steps=32, N=64, sigma=0.0, seed=1, d=2)
    flow = simulate_frozen(lambda t, X, V: 0.0, init, cfg,
                           generate_brownian(cfg))
    ball_err = float(np.max(np.abs(
        flow.snapshots[-1].X - (init.X + cfg.T * init.V))))
    vel_err = float(np.max(np.abs(flow.snapshots[-1].V - init.V)))
    ball_ok = ball_err <= 1e-12 and vel_err == 0.0

    # Constant acceleration: the position error against the closed form
    # x0 + v0 T + a T^2 / 2 is first order in the step, so halving the
    # step halves the error.
    a = 0.7
    init1 = ParticleEnsemble([[0.25]], [[-0.5]])
    errs = []
    for n in (32, 64):
        c = SimConfig(T=2.0, n_steps=n, N=1, sigma=0.0, seed=0, d=1)
        fl = simulate_frozen(lambda t, X, V: np.full_like(V, a), init1, c,
                             generate_brownian(c))
        exact = 0.25 - 0.5 * c.T + 0.5 * a * c.T**2
        errs.append(abs(float(fl.snapshots[-1].X[0, 0]) - exact))
    ratio = errs[0] / errs[1]
    ratio_ok = 1.8 <= ratio <= 2.2

    # Driftless diffusion: terminal velocity variance is 2 sigma T per
    # component, within 3 Monte Carlo standard errors at 1e5 paths.
    sigma, T, N = 0.25, 1.0, 100_000
    c = SimConfig(T=T, n_steps=8, N=N, sigma=sigma, seed=7, d=1)
    zero_init = ParticleEnsemble(np.zeros((N, 1)), np.zeros((N, 1)))
    fl = simulate_frozen(lambda t, X, V: 0.0, zero_init, c,
                         generate_brownian(c))
    var = float(np.var(fl.snapshots[-1].V[:, 0], ddof=1))
    target = 2.0 * sigma * T
    se = target * math.sqrt(2.0 / (N - 1))
    var_ok = abs(var - target) <= 3.0 * se

    _report(1, "closed-form SDE suite", ball_ok and ratio_ok and var_ok,
            f"ballistic={ball_err:.2e}, halving ratio={ratio:.4f}, "
            f"variance off by {abs(var - target) / se:.2f} SE")


def test_02_exact_transport_oracle():
    """Assignment solver against brute force, plus metric axioms."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for inst in range(200):
        N = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        p = 1.0 if inst % 2 == 0 else 2.0
        a = ParticleEnsemble(rng.standard_normal((N, d)),
                             rng.standard_normal((N, d)))
        b = ParticleEnsemble(rng.standard_normal((N, d)),
                             rng.standard_normal((N, d)))
        dist, plan = wasserstein_exact(a, b, p)
        za = np.hstack([a.X, a.V])
        zb = np.hstack([b.X, b.V])
        C = np.linalg.norm(za[:, None, :] - zb[None, :, :], axis=2) ** p
        brute = min(C[np.arange(N), perm].sum()
                    for perm in itertools.permutations(range(N)))
        brute = (brute / N) ** (1.0 / p)
        worst = max(worst, abs(dist - brute))
        assert abs(dist - brute) <= 1e-12 * max(1.0, brute)

    sym_worst = tri_worst = 0.0
    for _ in range(500):
        ens = [ParticleEnsemble(rng.standard_normal((5, 2)),
                                rng.standard_normal((5, 2)))
               for _ in range(3)]
        w_ab = wasserstein_exact(ens[0], ens[1], 2.0)[0]
        w_ba = wasserstein_exact(ens[1], ens[0], 2.0)[0]
        w_ac = wasserstein_exact(ens[0], ens[2], 2.0)[0]
        w_cb = wasserstein_exact(ens[2], ens[1], 2.0)[0]
        sym_worst = max(sym_worst, abs(w_ab - w_ba))
        tri_worst = max(tri_worst, w_ab - (w_ac + w_cb))
    ok = sym_worst <= 1e-9 and tri_worst <= 1e-9
    _report(2, "exact transport oracle", ok,
            f"200 brute-force matches (worst {worst:.2e}), symmetry "
            f"{sym_worst:.2e}, triangle slack {tri_worst:.2e}")


def test_03_running_max_moment_bound():
    """Monte Carlo running-max moments sit below the closed-form bound."""
    results = []
    for seed, (p, T) in enumerate([(2.0, 1.0), (4.0, 1.0), (2.0, 2.0),
                                   (3.0, 0.5)]):
        chk = doob_check(p, T, n_paths=10_000, n_steps=1_000, seed=seed)
        results.append(chk)
    ok = all(c.passed for c in results)
    detail = ", ".join(f"(p={c.p:g},T={c.T:g}): {c.estimate:.3f}<{c.bound:.3f}"
                       for c in results)
    _report(3, "running-max moment bound", ok, detail)


def test_04_picard_fixed_point():
    """Geometric convergence of the fixed-point iteration."""
    f = drift_from_kernel(kernel("bounded_alignment", d=1))
    cfg = SimConfig(T=1.0, n_steps=50, N=512, sigma=0.1, seed=3, d=1)
    rep = picard_solve(f, _gauss(512, 3), cfg, tol=1e-6, max_iter=25)
    tail = rep.gaps[-5:] if len(rep.gaps) >= 5 else rep.gaps
    slope = np.polyfit(range(len(tail)), np.log(tail), 1)[0]
    fitted = float(np.exp(slope))
    conv_ok = rep.converged and rep.iterations <= 25 and fitted < 1.0

    const = picard_solve(constant_field([0.4]), _gauss(64, 1),
                         SimConfig(T=1.0, n_steps=20, N=64, sigma=0.1,
                                   seed=1, d=1), tol=1e-6)
    indep_ok = const.iterations == 2 and const.gaps[1] == 0.0

    _report(4, "fixed-point solver", conv_ok and indep_ok,
            f"{rep.iterations} iterations, tail ratio {fitted:.3f}; "
            f"measure-independent drift closed in 2 passes with gap 0")


def test_05_weak_form_residual():
    """Residual is first order in the step and flags wrong drifts."""
    psi = bump([0.0], [0.0], 3.0)

    # Noise-free free motion.
    init = _spread_init(32, 1, seed=5, scale=0.4)
    ball = []
    for n in (32, 64):
        cfg = SimConfig(T=1.0, n_steps=n, N=32, sigma=0.0, seed=5, d=1)
        fl = simulate_frozen(lambda t, X, V: 0.0, init, cfg,
                             generate_brownian(cfg))
        ball.append(weakform_residual(fl, zero_field(), 0.0, psi, n))
    r_ball = ball[0] / ball[1]

    # Noise-free alignment fixed point, residual against its own drift.
    f = drift_from_kernel(kernel("bounded_alignment", d=1))
    align = []
    for n in (32, 64):
        cfg = SimConfig(T=1.0, n_steps=n, N=32, sigma=0.0, seed=5, d=1)
        rep = picard_solve(f, init, cfg, tol=1e-10, max_iter=50)
        align.append(weakform_residual(rep.final_flow, f, 0.0, psi, n))
    r_align = align[0] / align[1]
    halving_ok = 1.7 <= r_ball <= 2.3 and 1.7 <= r_align <= 2.3

    # Negative control: evaluating the free flow against a drift it never
    # saw must leave a residual far above the matched one.
    cfg = SimConfig(T=1.0, n_steps=64, N=32, sigma=0.0, seed=5, d=1)
    fl = simulate_frozen(lambda t, X, V: 0.0, init, cfg,
                         generate_brownian(cfg))
    matched = weakform_residual(fl, zero_field(), 0.0, psi, 64)
    mismatched = weakform_residual(fl, constant_field([0.5]), 0.0, psi, 64)
    control_ok = mismatched >= 10.0 * matched

    _report(5, "weak-form residual", halving_ok and control_ok,
            f"halving ratios {r_ball:.3f} (free) and {r_align:.3f} "
            f"(alignment), mismatch {mismatched / matched:.1f}x matched")


def test_06_moment_certificates():
    """Finite moments with a step-size-stable time-regularity quotient."""
    f = drift_from_kernel(kernel("bounded_alignment", d=1))
    worst_factor = 1.0
    for p in (1.0, 2.0, 3.0):
        for seed in range(1, 6):
            holders = []
            for n_steps in (16, 32):
                cfg = SimConfig(T=0.5, n_steps=n_steps, N=64, sigma=0.2,
                                seed=seed, d=1)
                rep = picard_solve(f, _gauss(64, seed), cfg, tol=1e-5,
                                   max_iter=25)
                cert = moment_certificate(rep.final_flow, p, IDENTITY_YOUNG)
                assert cert.passed, "certificate with non-finite entries"
                holders.append(cert.holder)
            worst_factor = max(worst_factor, max(holders) / min(holders))
    ok = worst_factor <= 2.0
    _report(6, "moment certificates", ok,
            f"p in {{1,2,3}}, 5 seeds, worst refinement factor "
            f"{worst_factor:.3f} <= 2")


def _perturbed(f, g, eps):
    return DriftField(
        batch=lambda t, fl, X, V: (f.eval_batch(t, fl, X, V)
                                   + eps * g.eval_batch(t, fl, X, V)),
        K=f.K + eps * g.K, beta=f.beta, alpha=f.alpha,
        L=f.L + eps * g.L, D=f.D + eps * g.D, p=f.p,
        name=f"{f.name}+{eps:g}*{g.name}")


def test_07_drift_perturbation_stability():
    """Shrinking drift perturbations shrink the fixed-point distance."""
    f = drift_from_kernel(kernel("bounded_alignment", d=1))
    g = drift_from_kernel(kernel("bounded_attraction", d=1))
    all_gaps = []
    for seed in range(1, 6):
        cfg = SimConfig(T=0.5, n_steps=20, N=128, sigma=0.1, seed=seed, d=1)
        members = [_perturbed(f, g, 1.0 / j) for j in (1, 2, 4, 8)]
        all_gaps.append(stability_experiment(members, f, _gauss(128, seed),
                                             cfg))
    med = np.median(np.array(all_gaps), axis=0)
    ok = all(med[i + 1] < med[i] for i in range(len(med) - 1))
    _report(7, "drift perturbation stability", ok,
            "medians " + " > ".join(f"{m:.2e}" for m in med))


def test_08_coupled_leader_system():
    """Decoupling, control stability, and the leader Lipschitz constant."""
    v = drift_from_kernel(kernel("bounded_alignment", d=1))
    w = coupling_from_kernel(kernel("bounded_attraction", d=1))
    F = leader_field_from_kernels(kernel("zero_position"),
                                  kernel("zero_position"), 1)
    Y0 = LeaderState(np.zeros((1, 1)))
    cfg = SimConfig(T=0.5, n_steps=16, N=64, sigma=0.1, seed=2, d=1)
    init = _gauss(64, 2)

    # Removing the coupling reproduces the follower-only fixed point bit
    # for bit.
    sol = solve_coupled(v, None, F, zero_control(1, 1), init, Y0, cfg,
                        tol=1e-6)
    direct = picard_solve(v, init, cfg, tol=1e-6)
    decouple_ok = all(
        np.array_equal(a.X, b.X) and np.array_equal(a.V, b.V)
        for a, b in zip(sol.flow.snapshots, direct.final_flow.snapshots))

    # Controls converging to the reference bring the coupled solution
    # with them.
    hstar = np.full((2, 1, 3), 0.2)
    delta = np.full((2, 1, 3), 0.3)
    u_ref = sv_control(hstar, T=0.5, M_h=2.0, m=1, d=1)
    all_gaps = []
    for seed in range(1, 6):
        c = SimConfig(T=0.5, n_steps=16, N=64, sigma=0.1, seed=seed, d=1)
        u_seq = [sv_control(hstar + delta / j, T=0.5, M_h=2.0, m=1, d=1)
                 for j in (1, 2, 4, 8)]
        all_gaps.append(control_stability(u_seq, u_ref, v, w, F,
                                          _gauss(64, seed), Y0, c))
    med = np.median(np.array(all_gaps), axis=0)
    control_ok = all(med[i + 1] < med[i] for i in range(len(med) - 1))

    # The observed leader-map Lipschitz constant is stable under grid
    # refinement.
    Cs = []
    for n_steps in (16, 32):
        flows = []
        for s in (1, 2, 3, 4):
            c = SimConfig(T=0.5, n_steps=n_steps, N=64, sigma=0.1, seed=s,
                          d=1)
            flows.append(picard_solve(v, _gauss(64, s), c, tol=1e-5,
                                      max_iter=25).final_flow)
        ratios = leader_flow_sensitivity(F, u_ref,
                                         [(flows[0], flows[1]),
                                          (flows[2], flows[3])], Y0, 1.0)
        Cs.append(max(ratios))
    sens_factor = max(Cs) / min(Cs)
    sens_ok = sens_factor <= 2.0

    _report(8, "coupled leader system",
            decouple_ok and control_ok and sens_ok,
            f"decoupling bitwise, control gap medians decreasing, "
            f"sensitivity refinement factor {sens_factor:.3f} <= 2")


def test_09_empirical_flow_convergence():
    """Empirical flows approach the high-N reference as N grows."""
    model = LeaderFollowerModel(
        kernels={"K11": kernel("bounded_alignment", d=1)},
        Y0=LeaderState.empty(1), sampler=_gauss, d=1,
        name="flocking")
    cfg = SimConfig(T=0.5, n_steps=20, N=8, sigma=0.1, seed=1, d=1)
    table = chaos_experiment(model, [8, 16, 32, 64, 128], 1024, cfg,
                             seeds=list(range(1, 11)))
    means = table.means()
    errs = [r[2] for r in table.rows]
    inversions = [i for i in range(len(means) - 1) if means[i + 1] >= means[i]]
    within = all(means[i + 1] - means[i] <= errs[i] + errs[i + 1]
                 for i in inversions)
    ok = len(inversions) <= 1 and within
    _report(9, "empirical flow convergence", ok,
            "means " + " ".join(f"{m:.4f}" for m in means)
            + f", {len(inversions)} inversion(s)")


def test_10_cost_convergence():
    """Pathwise costs close on the mean-field cost as N grows."""
    model = LeaderFollowerModel(
        kernels={"K11": kernel("bounded_alignment", d=1),
                 "K12": kernel("bounded_attraction", d=1)},
        Y0=LeaderState(np.full((1, 1), 1.0)),
        sampler=_gauss, d=1, name="steered")
    u = sv_control(np.full((4, 1, 3), 0.2), T=0.5, M_h=1.0, m=1, d=1)
    assert validate_control(u).passed
    cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.5),
                    psi=psi_quadratic(0.1), dim=1)
    cfg = SimConfig(T=0.5, n_steps=20, N=1024, sigma=0.1, seed=2, d=1)
    table = gamma_convergence_experiment(u, model, cost, [16, 64, 256], cfg,
                                         seeds=list(range(1, 11)))
    med = table.medians()
    ok = all(med[i + 1] < med[i] for i in range(len(med) - 1))
    _report(10, "cost convergence", ok,
            "gap medians " + " > ".join(f"{m:.4f}" for m in med))


def test_11_steering_optimization():
    """The optimizer beats the zero control on every seed, admissibly."""
    model = LeaderFollowerModel(
        kernels={"K12": kernel("bounded_attraction", d=1)},
        Y0=LeaderState(np.zeros((1, 1))),
        sampler=lambda N, seed: _gauss(N, seed, std=0.5),
        d=1, name="steering")
    cost = CostSpec(lagrangian=lagrangian_track_mean_x(0.5),
                    psi=psi_quadratic(1e-3), dim=1)
    improvements = []
    inadmissible = 0
    for seed in (1, 2, 3):
        cfg = SimConfig(T=2.0, n_steps=25, N=64, sigma=0.05, seed=seed, d=1)
        u0 = sv_zero(1, 1, T=2.0, K=1, M_h=2.0)

        def cost_fn(u):
            nonlocal inadmissible
            if not validate_control(u).passed:
                inadmissible += 1
            return evaluate_cost_meanfield(u, model, cost, cfg, tol=1e-4,
                                           max_iter=30)

        baseline = cost_fn(u0)
        best, hist = optimize(u0, cost_fn, budget=100, step0=0.5, seed=seed)
        assert validate_control(best).passed
        improvements.append((baseline, hist[-1][2]))
    ok = all(b2 < b1 for b1, b2 in improvements) and inadmissible == 0
    detail = ", ".join(f"seed{k + 1} {b1:.4f}->{b2:.4f}"
                       for k, (b1, b2) in enumerate(improvements))
    _report(11, "steering optimization", ok,
            detail + f", {inadmissible} inadmissible candidates")


def test_12_assumption_validators():
    """Bounded kernels certify; the linear one is caught with an offender."""
    times10 = [0.05 * k for k in range(10)]
    pass_ok = True
    for name in ("bounded_alignment", "bounded_attraction"):
        f = drift_from_kernel(kernel(name, d=1))
        cfg = SimConfig(T=0.5, n_steps=20, N=64, sigma=0.1, seed=4, d=1)
        init = _gauss(64, 4)
        flow = picard_solve(f, init, cfg, tol=1e-4, max_iter=25).final_flow
        cfg2 = SimConfig(T=0.5, n_steps=20, N=64, sigma=0.1, seed=5, d=1)
        flow2 = picard_solve(f, init, cfg2, tol=1e-4, max_iter=25).final_flow

        pts = latin_hypercube_points(100, 1, -3.0, 3.0, seed=4)
        sub = validate_sublinearity(f, flow, pts, times10)
        pairs = list(zip(pts[0:100:2], pts[1:100:2]))
        hoe = validate_hoelder(f, flow, pairs, L=f.L, alpha=f.alpha)
        wide_pts = latin_hypercube_points(200, 1, -3.0, 3.0, seed=6)
        dis_pairs = list(zip(wide_pts[0::2], wide_pts[1::2]))
        samples = [(t, z1, z2) for t in times10 for z1, z2 in dis_pairs]
        dis = validate_dissipativity_v3pp(f, (flow, flow2), samples)
        assert sub.n_checked >= 1000 and hoe.n_checked >= 1000 \
            and dis.n_checked >= 1000
        pass_ok = pass_ok and sub.passed and hoe.passed and dis.passed

    lin = drift_from_kernel(kernel("alignment", d=1))
    origin = MeasureFlow.constant(
        ParticleEnsemble(np.zeros((4, 1)), np.zeros((4, 1))),
        time_grid(1.0, 4))
    wide = latin_hypercube_points(100, 1, -8.0, 8.0, seed=9)
    rep = validate_sublinearity(lin, origin, wide, [0.0, 0.5, 1.0])
    fail_ok = (not rep.passed) and rep.worst["ratio"] > rep.bound \
        and "z" in rep.worst

    _report(12, "assumption validators", pass_ok and fail_ok,
            f"bounded kernels pass 3x1000 checks; linear kernel rejected "
            f"with worst ratio {rep.worst.get('ratio', float('nan')):.2f} "
            f"> {rep.bound:g}")
