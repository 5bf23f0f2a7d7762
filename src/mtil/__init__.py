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

# The version of the code's numbers: a change to the bytes of results.csv
# bumps it. manifest.json and verify_details.json record it.
RESULTS_VERSION = "9"
