"""Command-line entry points: `mtil run`, `mtil verify`, `mtil synth`.

The module and its parser load only the standard library and `.errors`:
`mtil --help`, an argparse error and a bad `--seed` answer before numpy
loads. Each command imports the modules it alone uses: `verify` loads no
sweep module (`exp_harness`, `mtil_learn`) and `run` no probe module
(`theory_probe`).

Imported before numpy, this module starts numpy's bundled OpenBLAS on one
thread, whatever `OPENBLAS_NUM_THREADS` the caller set: `run` pins BLAS to
one thread for all its work anyway, and `verify` and `synth` handle
matrices too small to gain from more. `verify` runs unpinned: its files
have the same bytes on one BLAS thread and on two.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

# OpenBLAS reads this once, when numpy first loads it. Unset, it starts one
# worker thread per core, and each idle worker spins for ~0.1 s of CPU that
# no command uses. At module level, not in `main()`, so that it also holds
# for a caller that imports this module and then numpy itself; the commands
# load numpy inside their functions, after it is set, and pool workers
# inherit it. A process whose numpy loaded first keeps its threads; its
# sweeps rely on `control_math.pinned_blas_threads` for the bits.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import MtilError, RankDeficient, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROBE_FAILURE = 3

PROBE_NAMES = (
    "covariance",
    "hanson_wright",
    "self_normalized",
    "maximal",
    "tracking",
    "sandwich",
)


def _scalar_task(a_cl: float):
    """Plant a = a_cl + 0.3 with w ~ N(0, 1) and sigma_z = 0; expert gain -0.3."""
    import numpy as np

    from . import lti_env

    system = lti_env.LinearSystem(A=np.array([[a_cl + 0.3]]), B=np.eye(1), sigma_z=0.0)
    return system, lti_env.make_task(system, np.array([[-0.3]]))


def _require_seed(seed: int) -> None:
    """`mtil run` checks its seed as run.seed; verify and synth check it here."""
    if seed < 0:
        raise ValidationError(f"--seed: must be >= 0, got {seed}")


def _at_out(write, *args, **kwargs):
    """Call `write`, which touches --out; an OSError there (a directory that
    cannot be created, a file name taken by a directory, a full disk) exits
    2 as `--out: <reason>`, not as a traceback."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise ValidationError(f"--out: {exc}") from exc


def run_probe_battery(names, seed: int) -> list:
    """Run the named probes at their reference scales."""
    import numpy as np

    from . import theory_probe
    from .data_gen import SeedTree

    tree = SeedTree(root=seed)
    reports = []
    if "covariance" in names:
        system, task = _scalar_task(0.5)
        reports.append(
            theory_probe.verify_covariance_concentration(
                system, task, N=250, T=20, trials=200,
                rng=tree.child("covariance").stream(),
            )
        )
    if "hanson_wright" in names:
        reports.append(
            theory_probe.verify_hanson_wright(
                np.eye(10), [0.5, 1.0, 2.0], trials=100_000,
                rng=tree.child("hanson_wright").stream(),
            )
        )
    if "self_normalized" in names:
        for H in (1, 4):
            for kind, d in (("gaussian-iid", 2), ("state-feedback", 1)):
                setup = theory_probe.MartingaleSetup(
                    H=H, T=100, dim_x=d, dim_eta=d, sigma=1.0
                )
                reports.append(
                    theory_probe.verify_self_normalized(
                        setup, delta=0.05, trials=10_000,
                        rng=tree.child("self_normalized", H).child(kind).stream(),
                        regressor_kind=kind,
                    )
                )
    if "maximal" in names:
        for i, T in enumerate((1, 10, 100)):
            reports.append(
                theory_probe.verify_maximal_inequality(
                    T=T, trials=100_000, rng=tree.child("maximal", i).stream()
                )
            )
    if "tracking" in names:
        system, task = _scalar_task(0.5)
        reports.append(
            theory_probe.verify_tracking_and_siss(
                system, task, K_hat=np.array([[-0.28]]), T=100,
                delta_prime=0.05, trials=10_000,
                rng=tree.child("tracking").stream(),
            )
        )
    if "sandwich" in names:
        reports.append(
            theory_probe.verify_scalar_sandwich(
                a_cl=0.5, eps=0.05, T=200, trials=100_000,
                rng=tree.child("sandwich").stream(),
            )
        )
    return reports


def _cmd_run(args) -> int:
    from . import exp_harness

    overrides = {
        key: getattr(args, key)
        for key in ("seed", "parallelism")
        if getattr(args, key) is not None
    }
    cfg = exp_harness.load_config(args.config, **overrides)
    # Created before any compute, so an --out that cannot be made fails at
    # once, not after the whole sweep. A failed sweep takes it away again if
    # this command made it and nothing was written to it.
    made = not os.path.exists(args.out)
    _at_out(os.makedirs, args.out, exist_ok=True)
    try:
        rows = exp_harness.run_sweep(cfg)
    except BaseException:
        if made and not os.listdir(args.out):
            os.rmdir(args.out)
        raise
    paths = _at_out(exp_harness.write_results, rows, args.out, cfg)
    if args.emit_plot_script:
        paths["plot"] = _at_out(exp_harness.emit_plot_script, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = PROBE_NAMES if args.probe == "all" else (args.probe,)
    _require_seed(args.seed)
    _at_out(os.makedirs, args.out, exist_ok=True)  # before the battery
    from . import theory_probe

    reports = run_probe_battery(names, args.seed)
    path = os.path.join(args.out, "verify.csv")
    _at_out(theory_probe.write_probe_csv, reports, path)
    details_path = os.path.join(args.out, "verify_details.json")
    _at_out(theory_probe.write_probe_details, reports, details_path)
    all_passed = True
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{status}  {r.name}: failures {r.failures}/{r.trials} "
            f"(target {r.delta_target}), margin {r.margin:.4g}"
        )
        all_passed = all_passed and r.passed
    print(f"wrote {path}")
    print(f"wrote {details_path}")
    return EXIT_OK if all_passed else EXIT_PROBE_FAILURE


def _cmd_synth(args) -> int:
    import numpy as np

    from . import control_math, exp_harness, lti_env
    from .eval_metrics import task_diversity_constants

    _require_seed(args.seed)
    try:  # named as the flag, not as the config key expert_family would name
        lti_env.get_preset(args.preset)
    except KeyError as exc:
        raise ValidationError(f"--preset: {exc.args[0]}") from exc
    # The family and lift of system trial 0 of `mtil run --seed S`.
    cfg = exp_harness.ExperimentConfig(
        preset=args.preset, lift_dim=args.lift_dim, seed=args.seed
    )
    plant, gains, alphas = exp_harness.expert_family(cfg)
    try:
        ensemble = exp_harness.lift_trial(cfg, plant, gains, 0)
    except RankDeficient as exc:
        raise ValidationError(f"--lift-dim: {exc}") from exc
    print(f"{'task':>6} {'alpha':>12} {'|K|_F':>12} {'rho_cl':>10} {'tr(Sx)':>12}")
    for h, (task, alpha) in enumerate(zip(ensemble.tasks, alphas)):
        rho = control_math.spectral_radius(
            ensemble.system.A + ensemble.system.B @ task.K
        )
        label = "target" if h == ensemble.H else f"src {h}"
        print(
            f"{label:>6} {alpha:12.4g} {np.linalg.norm(task.K):12.6g} "
            f"{rho:10.6f} {np.trace(task.sigma_x):12.6g}"
        )
    if ensemble.truth is not None:
        report = task_diversity_constants(ensemble)
        print(
            f"diversity: c {report.c:.6g}  nu {report.nu:.6g}  "
            f"nu*H {report.nu * ensemble.H:.6g}  lambda_bar {report.lambda_bar:.6g}  "
            f"lambda_under {report.lambda_under:.6g}"
        )
    return EXIT_OK


def __getattr__(name: str):
    """`mtil.cli.exp_harness`, imported on first use, for callers that reach
    that module through this one."""
    if name == "exp_harness":
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtil",
        description="Multi-task imitation learning workbench for linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep and write CSV results")
    p_run.add_argument("--config", default=None, help="YAML config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--parallelism", type=int, default=None)
    p_run.add_argument("--emit-plot-script", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run Monte-Carlo bound probes")
    p_verify.add_argument("--probe", default="all", choices=("all",) + PROBE_NAMES)
    p_verify.add_argument("--out", required=True, help="output directory")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_synth = sub.add_parser("synth", help="print the synthesized expert family")
    p_synth.add_argument("--preset", default="hong2021")
    p_synth.add_argument("--lift-dim", type=int, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except MtilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a config that validates but cannot fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`). Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1  # the status Python itself exits with on EPIPE


if __name__ == "__main__":
    sys.exit(main())
