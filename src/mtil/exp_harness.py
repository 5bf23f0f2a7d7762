"""Configuration loading, seeded sweep execution, and result persistence.

A sweep compares the multi-task pipeline (pretrain a shared representation on
H source tasks, fine-tune per-task weights on the target data) against direct
behavioral cloning, across a grid of target sample counts N2, over
trials_system realizations of the lift map times trials_noise realizations of
the data noise. All randomness derives from one SeedTree, so the output is a
pure function of (config, seed) regardless of parallelism.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import RESULTS_VERSION, __version__, control_math, lti_env, mtil_learn
from .data_gen import SeedTree, rollout_expert
from .errors import NotConverged, ParseError, UnstableMatrix, ValidationError
from .eval_metrics import evaluate_controller, summarize_quantiles

VALID_METHODS = ("multitask", "direct")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep configuration; defaults reproduce the reference setup."""

    preset: str = "hong2021"
    A: list | None = None
    B: list | None = None
    lift_dim: int | None = 50
    sigma_z: float = 1.0
    H: int = 9
    k: int = 4
    alphas: tuple = (-2.0, 2.0)
    T: int = 20
    T_test: int = 100
    N1: int = 10
    N2: tuple = tuple(range(1, 21))
    trials_system: int = 10
    trials_noise: int = 10
    methods: tuple = ("multitask", "direct")
    seed: int = 0
    parallelism: int = 1


@dataclass(frozen=True)
class ResultRow:
    """One results.csv row: method x grid point x system x noise trial."""

    method: str
    system_trial: int
    noise_trial: int
    N1: int
    N2: int
    H: int
    T: int
    k: int
    tracking_err: float
    param_err: float
    stable: bool
    excess_risk: float
    underdetermined: bool
    nonfinite: bool


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {message}")


def _convert(path: str, value, convert):
    """convert(value); a TypeError or ValueError from it names the field path."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _n2_grid(value) -> tuple:
    """An int n expands to the grid 1..n; a list is taken as given."""
    if isinstance(value, list):
        return tuple(_strict_int(v) for v in value)
    return tuple(range(1, _strict_int(value) + 1))


def _square_matrix(value) -> np.ndarray:
    A = np.array(value, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("must be a square matrix")
    return A


def _strict_int(value) -> int:
    """An integer as written: a float, a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _strict_float(value) -> float:
    """A number as written: a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _unchanged(value):
    return value


def _strict_list(value) -> list:
    """A list as written: a mapping, whose keys would iterate, is refused."""
    if not isinstance(value, list):
        raise TypeError(f"must be a list, got {value!r}")
    return value


# Config field path -> (ExperimentConfig attribute, conversion of the raw
# value). An absent key keeps the ExperimentConfig default. a and b stay as
# given so the manifest records them as written; _base_system converts them.
_FIELDS = {
    "system.preset": ("preset", str),
    "system.a": ("A", _unchanged),
    "system.b": ("B", _unchanged),
    "system.lift_dim": ("lift_dim", lambda v: None if v is None else _strict_int(v)),
    "system.sigma_z": ("sigma_z", _strict_float),
    "tasks.h": ("H", _strict_int),
    "tasks.k": ("k", _strict_int),
    "tasks.alphas": ("alphas", lambda v: tuple(map(_strict_float, _strict_list(v)))),
    "sweep.n1": ("N1", _strict_int),
    "sweep.n2": ("N2", _n2_grid),
    "sweep.t": ("T", _strict_int),
    "sweep.t_test": ("T_test", _strict_int),
    "sweep.trials_system": ("trials_system", _strict_int),
    "sweep.trials_noise": ("trials_noise", _strict_int),
    "sweep.methods": ("methods", lambda v: tuple(_strict_list(v))),
    "run.seed": ("seed", _strict_int),
    "run.parallelism": ("parallelism", _strict_int),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from a nested {section: {key: value}} dict."""
    if raw is None:
        raw = {}
    _require(isinstance(raw, dict), "<root>", "config must be a mapping")
    values = {}
    for section, keys in raw.items():
        known = any(path.startswith(f"{section}.") for path in _FIELDS)
        _require(known, section, "unknown section")
        _require(isinstance(keys, dict), section, "section must be a mapping")
        for key, value in keys.items():
            path = f"{section}.{key}"
            _require(path in _FIELDS, path, "unknown key")
            name, convert = _FIELDS[path]
            values[name] = _convert(path, value, convert)
    cfg = ExperimentConfig(**values)

    _require(
        len(cfg.N2) > 0 and min(cfg.N2) >= 1,
        "sweep.n2",
        "must be a nonempty list of counts >= 1",
    )
    _require(
        len(cfg.methods) > 0 and all(m in VALID_METHODS for m in cfg.methods),
        "sweep.methods",
        f"must be a nonempty subset of {VALID_METHODS}",
    )
    for path, entries in (("sweep.n2", cfg.N2), ("sweep.methods", cfg.methods)):
        _require(len(set(entries)) == len(entries), path, "must not repeat an entry")
    _require(len(cfg.alphas) == 2, "tasks.alphas", "must be (lo_exp, hi_exp)")
    _require(np.all(np.isfinite(cfg.alphas)), "tasks.alphas", "must be finite")
    # sigma_z is a standard deviation.
    _require(0.0 <= cfg.sigma_z < np.inf, "system.sigma_z", "must be finite and >= 0")
    base = _base_system(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = np.float64(cfg.sigma_z) ** 2 * (base.B @ base.B.T)
    _require(
        np.all(np.isfinite(forcing)), "system.sigma_z", "sigma_z^2 B B' must be finite"
    )
    state_dim = cfg.lift_dim if cfg.lift_dim is not None else base.n_x
    _require(cfg.H >= 1, "tasks.h", "must be >= 1")
    alphas = _task_alphas(cfg)
    _require(
        np.all(np.isfinite(alphas) & (alphas > 0.0)),
        "tasks.alphas",
        "10**exponent must be finite and > 0",
    )
    _require(1 <= cfg.k <= state_dim, "tasks.k", "must satisfy 1 <= k <= n_x")
    if cfg.lift_dim is not None:
        _require(
            cfg.lift_dim >= base.n_x, "system.lift_dim", "must be >= base n_x"
        )
        _require(2 * cfg.k <= cfg.lift_dim, "tasks.k", "needs 2k <= lifted dim")
    for name, value in (
        ("sweep.t", cfg.T),
        ("sweep.t_test", cfg.T_test),
        ("sweep.n1", cfg.N1),
        ("sweep.trials_system", cfg.trials_system),
        ("sweep.trials_noise", cfg.trials_noise),
        ("run.parallelism", cfg.parallelism),
    ):
        _require(value >= 1, name, "must be >= 1")
    if "multitask" in cfg.methods:  # pretraining needs k rows per source task
        _require(cfg.N1 * cfg.T >= cfg.k, "sweep.n1", "multitask needs n1 * t >= k")
    _require(cfg.seed >= 0, "run.seed", "must be >= 0")
    return cfg


def _repeated_key(node, path: str = "") -> str | None:
    """The path of the first key written twice in the root mapping of a composed
    YAML document or in a section, or None; no config value is a mapping."""
    if node is None or node.id != "mapping":
        return None
    keys = set()
    for key, value in node.value:
        here = f"{path}.{key.value}" if path else f"{key.value}"
        if here in keys:
            return here
        keys.add(here)
        if not path and (found := _repeated_key(value, here)):
            return found
    return None


def read_config(path: str) -> dict:
    """Parse a YAML config file into its raw mapping; an empty file gives {}.

    Raises:
        ParseError: unreadable or malformed file.
        ValidationError: a key written twice, named by its path.
    """
    import yaml  # only `mtil run` reads a config; `mtil verify` never loads it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            loader = yaml.SafeLoader(fh)  # safe_load's steps, nodes checked first
            node = loader.get_single_node()
            repeated = _repeated_key(node)
            _require(repeated is None, repeated, "repeated key")
            raw = None if node is None else loader.construct_document(node)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse config: {exc}") from exc
    return {} if raw is None else raw


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    """Parse and validate a YAML config file; an empty file, or no path,
    yields the defaults. `overrides` (seed, parallelism) go into `run`
    before validation, so an override is checked like a file value; a
    malformed file is left as it is for config_from_dict to reject.

    Raises:
        ParseError: unreadable or malformed file.
        ValidationError: invalid value, message carries the field path.
    """
    raw = {} if path is None else read_config(path)
    if overrides and isinstance(raw, dict) and isinstance(raw.get("run", {}), dict):
        raw = {**raw, "run": {**raw.get("run", {}), **overrides}}
    return config_from_dict(raw)


def _base_system(cfg: ExperimentConfig) -> lti_env.LinearSystem:
    if cfg.A is not None or cfg.B is not None:
        _require(
            cfg.A is not None and cfg.B is not None,
            "system.a",
            "inline systems need both a and b",
        )
        A = _convert("system.a", cfg.A, _square_matrix)
        _require(np.all(np.isfinite(A)), "system.a", "must be finite")
        system = _convert(
            "system.b", cfg.B, lambda B: lti_env.LinearSystem(A=A, B=np.array(B))
        )
        _require(np.all(np.isfinite(system.B)), "system.b", "must be finite")
    else:
        try:
            system = lti_env.get_preset(cfg.preset)
        except KeyError as exc:
            raise ValidationError(f"system.preset: {exc.args[0]}") from exc
    return replace(system, sigma_z=cfg.sigma_z)


def _task_alphas(cfg: ExperimentConfig) -> np.ndarray:
    """The H + 1 LQR state-cost scales, log-spaced between 10**cfg.alphas."""
    with np.errstate(over="ignore"):  # config_from_dict rejects an overflow
        return np.logspace(cfg.alphas[0], cfg.alphas[1], cfg.H + 1)


def expert_family(cfg: ExperimentConfig) -> tuple:
    """(family, alphas): task h is the LQR expert for Q = alphas[h] I and
    R = I, unlifted. A family without an expert for some alpha is a
    ValidationError naming tasks.alphas (and system.a/system.b if inline)."""
    base = _base_system(cfg)
    alphas = _task_alphas(cfg)
    try:
        gains = lti_env.synthesize_expert_family(base, alphas)
    except (NotConverged, UnstableMatrix) as exc:
        where = "tasks.alphas" if cfg.A is None else "tasks.alphas, system.a/system.b"
        raise ValidationError(f"{where}: {exc}") from exc
    return lti_env.build_ensemble(base, gains), alphas


def lift_trial(cfg: ExperimentConfig, family, system_trial: int):
    """The family as system trial `system_trial` sees it: lifted, if cfg lifts."""
    if cfg.lift_dim is None:
        return family
    rng = SeedTree(root=cfg.seed).child("lift", system_trial).stream()
    G = lti_env.sample_lift_map(family.system.n_x, cfg.lift_dim, rng)
    return lti_env.lift_ensemble(family, G)


def _cells(cfg: ExperimentConfig):
    """Yield the arguments (cfg, ensemble, system trial, noise trial) of each cell.

    The expert family is the same in every cell, so it is synthesized once;
    it is lifted once per system trial. A serial sweep holds one lifted
    ensemble at a time.
    """
    family, _ = expert_family(cfg)
    for s in range(cfg.trials_system):
        ensemble = family  # drops the last trial's lift before the next one
        ensemble = lift_trial(cfg, family, s)
        for j in range(cfg.trials_noise):
            yield cfg, ensemble, s, j


def _fit_grid(
    cfg: ExperimentConfig,
    ensemble: lti_env.TaskEnsemble,
    system_trial: int,
    noise_trial: int,
) -> dict:
    """method -> (K_hat per N2, underdetermined per N2) for one cell.

    The N2 grid takes nested prefixes of the one target pool: `direct_ols`
    fits every grid point at once, on x (direct) or phi_hat x (multitask).
    """
    tree = SeedTree(root=cfg.seed)
    system = ensemble.system
    pool_rng = (
        tree.child("target", system_trial).child("noise", noise_trial).stream()
    )
    pool = rollout_expert(system, ensemble.target, cfg.T, max(cfg.N2), pool_rng)
    grams = mtil_learn.prefix_grams(pool, cfg.T, cfg.N2)
    fits = {}
    if "multitask" in cfg.methods:
        source_tree = tree.child("source", system_trial).child("noise", noise_trial)
        source_stacks = [
            rollout_expert(
                system, task, cfg.T, cfg.N1, source_tree.child("task", h).stream()
            )
            for h, task in enumerate(ensemble.sources)
        ]
        phi_hat = mtil_learn.pretrain_alternating(
            mtil_learn.stacked_grams(source_stacks),
            cfg.N1 * cfg.T,
            cfg.k,
            rng=source_tree.child("init").stream(),
        ).phi_hat
        F, underdetermined = mtil_learn.direct_ols(grams.project(phi_hat))
        fits["multitask"] = (F @ phi_hat, underdetermined)
    if "direct" in cfg.methods:
        fits["direct"] = mtil_learn.direct_ols(grams)
    return fits


def _run_cell(
    cfg: ExperimentConfig,
    ensemble: lti_env.TaskEnsemble,
    system_trial: int,
    noise_trial: int,
) -> list:
    """All rows for one (system trial, noise trial) cell of the given ensemble.

    The fits come from `_fit_grid`, so the cell's training data is freed
    before the evaluation pass allocates its rollouts.
    """
    fits = _fit_grid(cfg, ensemble, system_trial, noise_trial)
    # All methods at one N2 are scored on the same eval stream, so each
    # stream is drawn once and the whole cell is evaluated in one pass.
    eval_tree = SeedTree(root=cfg.seed).child("eval", system_trial).child(
        "noise", noise_trial
    )
    K_hats = np.stack([fits[method][0] for method in cfg.methods], axis=1)
    records = evaluate_controller(
        ensemble.system,
        ensemble.target,
        K_hats,
        cfg.T_test,
        [eval_tree.child("n2", n2).stream() for n2 in cfg.N2],
    )
    grid = [(j, n2, method) for j, n2 in enumerate(cfg.N2) for method in cfg.methods]
    return [
        ResultRow(
            method=method,
            system_trial=system_trial,
            noise_trial=noise_trial,
            N1=cfg.N1,
            N2=n2,
            H=cfg.H,
            T=cfg.T,
            k=cfg.k,
            underdetermined=bool(fits[method][1][j]),
            **vars(record),
        )
        for (j, n2, method), record in zip(grid, records)
    ]


def _cell_worker(args) -> list:
    return _run_cell(*args)


def run_sweep(cfg: ExperimentConfig) -> list:
    """Execute the full sweep; output is deterministic given (config, seed).

    Ensembles are built in this process and sent to the cells that use them.
    The cells run in a pool of min(parallelism, cells, os.cpu_count())
    processes, or serially when that is 1. The sweep runs under
    `control_math.pinned_blas_threads`, its pool workers too.
    """
    rows = []
    cells = cfg.trials_system * cfg.trials_noise
    workers = min(cfg.parallelism, cells, os.cpu_count() or 1)
    with control_math.pinned_blas_threads():
        if workers <= 1:
            outputs = list(map(_cell_worker, _cells(cfg)))
        else:
            import concurrent.futures  # a serial sweep or `mtil verify` never pools

            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                initializer=control_math.pin_blas_threads,
            ) as pool:
                outputs = list(pool.map(_cell_worker, _cells(cfg)))
    for cell_rows in outputs:
        rows.extend(cell_rows)
    rows.sort(
        key=lambda r: (r.method, r.N1, r.N2, r.system_trial, r.noise_trial)
    )
    return rows


RESULTS_COLUMNS = [f.name for f in fields(ResultRow)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(rows: list, out_dir: str, cfg: ExperimentConfig):
    """Write results.csv, summary.csv, and manifest.json; returns the paths.

    results.csv carries the fixed per-row schema (wall-clock timing is kept
    out so identical (config, seed) runs are byte-identical); summary.csv
    aggregates median and 20/80% quantiles per method x grid point plus the
    stable fraction. The manifest records RESULTS_VERSION, the config, the
    OpenBLAS thread count of run_sweep (null when it cannot be pinned) and
    the package, numpy and BLAS versions.
    """
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")

    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in RESULTS_COLUMNS])

    groups = {}
    for row in rows:
        groups.setdefault((row.method, row.N1, row.N2), []).append(row)
    metrics = ("tracking_err", "param_err", "excess_risk")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["method", "N1", "N2"]
        for metric in metrics:
            header += [f"{metric}_median", f"{metric}_q20", f"{metric}_q80"]
        header.append("stable_frac")
        writer.writerow(header)
        for key in sorted(groups):
            group = groups[key]
            values = [[getattr(r, m) for r in group] for m in metrics]
            quantiles = summarize_quantiles(values, [0.5, 0.2, 0.8]).ravel().tolist()
            out = [key[0], key[1], key[2]] + [_fmt(v) for v in quantiles]
            out.append(_fmt(sum(r.stable for r in group) / len(group)))
            writer.writerow(out)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    manifest = {
        "version": RESULTS_VERSION,
        "n_rows": len(rows),
        "config": asdict(cfg),
        "blas_threads": (
            None if control_math.blas_threads() is None else control_math.BLAS_THREADS
        ),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy_version": np.__version__,
        "package_version": __version__,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
    return {
        "results": results_path,
        "summary": summary_path,
        "manifest": manifest_path,
    }


PLOT_SCRIPT = """\
# Plot medians from summary.csv (gnuplot). Usage: gnuplot plot_summary.gp
set datafile separator ','
set key autotitle columnhead
set logscale y
set xlabel 'N2'
set ylabel 'median tracking error'
plot '< awk -F, "NR==1 || $1==\\"multitask\\"" summary.csv' using 3:4 with linespoints title 'multitask', \\
     '< awk -F, "NR==1 || $1==\\"direct\\"" summary.csv' using 3:4 with linespoints title 'direct'
"""


def emit_plot_script(out_dir: str) -> str:
    """Write a plain gnuplot script that reads summary.csv."""
    path = os.path.join(out_dir, "plot_summary.gp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PLOT_SCRIPT)
    return path
