"""Multi-task imitation learning workbench for linear dynamical systems.

Modules:
    control_math: Lyapunov/Riccati solvers, the transient gain J.
    lti_env: plants, expert task ensembles, LQR synthesis, perceptual lifting.
    data_gen: seeded trajectory sampling and coupled rollouts.
    mtil_learn: two-stage representation learner and direct-OLS baseline.
    eval_metrics: excess risk, tracking error, diversity constants.
    theory_probe: Monte-Carlo probes of the concentration/tracking bounds.
    exp_harness: config loading, sweep execution, CSV persistence.
"""

__version__ = "0.1.0"
