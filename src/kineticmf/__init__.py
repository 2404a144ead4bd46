"""Interacting-particle and mean-field toolkit: kinetic SDE simulation,
exact empirical optimal transport, Picard solvers for measure flows,
leader-follower control, and the convergence experiments built on them."""

__version__ = "0.1.0"

from .phase_space import (IDENTITY_YOUNG, LeaderPath, LeaderState, MeasureFlow,
                          ParticleEnsemble, PhasePoint, YoungFunction, gamma_p,
                          holder_ratio, moment_p, read_flow_csv,
                          read_leader_csv, sup_moment, time_grid, young_moment,
                          write_flow_csv, write_leader_csv)
from .wasserstein import (EXACT_SIZE_CAP, TransportPlan, sliced_w1,
                          sliced_w1_points, wasserstein_distance,
                          wasserstein_exact, wasserstein_paired_bound)
from .drift import (KERNEL_NAMES, DriftField, InteractionKernel,
                    LeaderCouplingField, LeaderField, ValidationReport,
                    clamp_drift, constant_field, coupling_from_kernel,
                    cutoff_eta, drift_from_kernel, kernel,
                    kernel_convolution_drift, kernel_fields,
                    latin_hypercube_points, leader_coupling_drift,
                    leader_field_from_kernels, linear_damping_field,
                    validate_dissipativity_v3pp, validate_hoelder,
                    validate_sublinearity, zero_field)
from .sde import (STREAM_BROWNIAN, STREAM_INITIAL, STREAM_OPTIMIZER,
                  STREAM_SUBSAMPLE, BrownianPaths, DoobCheck, SimConfig,
                  doob_bound, doob_check, generate_brownian, path_rng,
                  simulate_frozen, simulate_interacting)
from .meanfield import (MomentCertificate, PicardReport, TestFunction, bump,
                        constant_test_function, flow_gap, moment_certificate,
                        picard_solve, stability_experiment, weakform_residual,
                        x_bump)
from .pdeode import (CoupledSolution, LeaderFollowerModel, combined_drift,
                     control_stability, discrete_leader_growth,
                     leader_flow_sensitivity, solve_coupled, solve_leader_ode)
from .control_opt import (ControlSpec, CostSpec, FeatureMap, SVControl,
                          default_features, ev_control, evaluate_control,
                          evaluate_cost_N, evaluate_cost_meanfield,
                          lagrangian_constant, lagrangian_track_mean_x,
                          lagrangian_zero, make_cost, optimize,
                          project_admissible, psi_quadratic, sv_control,
                          sv_zero, validate_control, zero_control)
from .experiments import (ConvergenceTable, chaos_experiment,
                          gamma_convergence_experiment,
                          minima_convergence_experiment, reference_seed,
                          table_to_csv, write_gnuplot)
