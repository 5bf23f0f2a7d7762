"""Tests for config loading, sweep execution, persistence, and the CLI."""

import concurrent.futures
import csv
import filecmp
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mtil
from mtil import cli, control_math, exp_harness as eh, lti_env
from mtil.errors import MtilError, ParseError, ValidationError


def tiny_cfg(**sweep):
    base = {"trials_system": 1, "trials_noise": 1, "n2": [1]}
    base.update(sweep)
    return eh.config_from_dict({"sweep": base})


def readme_config_example():
    """The YAML example under the README's "## Configuration" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


class TestConfig:
    def test_empty_gives_reference_defaults(self):
        cfg = eh.config_from_dict({})
        assert cfg.preset == "hong2021"
        assert cfg.lift_dim == 50
        assert cfg.H == 9
        assert cfg.k == 4
        assert cfg.T == 20
        assert cfg.T_test == 100
        assert cfg.N1 == 10
        assert cfg.N2 == tuple(range(1, 21))
        assert cfg.alphas == (-2.0, 2.0)
        assert cfg.trials_system == 10
        assert cfg.trials_noise == 10
        assert cfg.methods == ("multitask", "direct")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        cfg = eh.load_config(str(path))
        assert cfg.H == 9

    def test_missing_file(self):
        with pytest.raises(ParseError):
            eh.load_config("/nonexistent/cfg.yaml")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("system: [unclosed")
        with pytest.raises(ParseError):
            eh.load_config(str(path))

    def test_k_too_large(self):
        with pytest.raises(ValidationError, match="tasks.k"):
            eh.config_from_dict({"tasks": {"k": 60}})

    def test_unknown_key_has_field_path(self):
        with pytest.raises(ValidationError, match="sweep.bogus"):
            eh.config_from_dict({"sweep": {"bogus": 1}})

    def test_single_grid_point(self):
        cfg = eh.config_from_dict({"sweep": {"n2": [5]}})
        assert cfg.N2 == (5,)

    def test_scalar_n2_expands(self):
        cfg = eh.config_from_dict({"sweep": {"n2": 3}})
        assert cfg.N2 == (1, 2, 3)

    def test_bad_method(self):
        with pytest.raises(ValidationError, match="sweep.methods"):
            eh.config_from_dict({"sweep": {"methods": ["direct", "magic"]}})

    def test_readme_example_is_a_valid_config(self):
        # The example spells out the defaults, but for a shorter n2 grid.
        cfg = eh.config_from_dict(yaml.safe_load(readme_config_example()))
        assert cfg == eh.ExperimentConfig(N2=(1, 2, 5, 10, 20))

    def test_readme_example_names_every_key(self):
        # The README documents exactly the keys the parser accepts: those of
        # its YAML example, plus the inline a and b named in a comment there.
        example = readme_config_example()
        keys = {
            f"{section}.{key}"
            for section, values in yaml.safe_load(example).items()
            for key in values
        }
        inline = example.split("# or inline:", 1)[1].split("\n", 1)[0]
        keys |= {f"system.{key}" for key in re.findall(r"(\w+): \[\[", inline)}
        assert keys == set(eh._FIELDS)


class TestRunSweep:
    def test_single_row(self):
        cfg = eh.config_from_dict(
            {"sweep": {"trials_system": 1, "trials_noise": 1, "n2": [1],
                       "methods": ["direct"]}}
        )
        rows = eh.run_sweep(cfg)
        assert len(rows) == 1
        assert rows[0].method == "direct"
        assert rows[0].N2 == 1

    def test_row_count_arithmetic(self):
        cfg = eh.config_from_dict(
            {"sweep": {"trials_system": 2, "trials_noise": 2, "n2": [1, 3]}}
        )
        rows = eh.run_sweep(cfg)
        assert len(rows) == 2 * 2 * 2 * 2

    def test_rows_sorted(self):
        cfg = eh.config_from_dict(
            {"sweep": {"trials_system": 2, "trials_noise": 1, "n2": [2, 1]}}
        )
        rows = eh.run_sweep(cfg)
        keys = [(r.method, r.N1, r.N2, r.system_trial, r.noise_trial) for r in rows]
        assert keys == sorted(keys)

    def test_parallelism_determinism_small(self, tmp_path):
        raw = {"sweep": {"trials_system": 2, "trials_noise": 2, "n2": [1, 2]}}
        cfg1 = eh.config_from_dict(raw)
        cfg4 = eh.config_from_dict({**raw, "run": {"parallelism": 4}})
        eh.write_results(eh.run_sweep(cfg1), str(tmp_path / "p1"), cfg1)
        eh.write_results(eh.run_sweep(cfg4), str(tmp_path / "p4"), cfg4)
        assert filecmp.cmp(
            str(tmp_path / "p1" / "results.csv"),
            str(tmp_path / "p4" / "results.csv"),
            shallow=False,
        )

    @pytest.mark.parametrize(
        "parallelism, cpus, workers",
        [(100_000, 2, 2), (100_000, 8, 4), (3, 8, 3), (2, 1, None), (9, None, None)],
    )
    def test_pool_size_is_capped(self, monkeypatch, parallelism, cpus, workers):
        # The fork start method launches every worker at the first map, so the
        # pool holds at most one worker per cell and per CPU; at one worker the
        # sweep runs serially. A fake pool records its size and maps serially.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = eh.config_from_dict(
            {"sweep": {"trials_system": 2, "trials_noise": 2, "n2": [1],
                       "methods": ["direct"]},
             "run": {"parallelism": parallelism}}
        )
        assert len(eh.run_sweep(cfg)) == 4
        assert sizes == ([] if workers is None else [workers])


# results.csv of this sweep at RESULTS_VERSION "9": a speed-up must keep these
# bytes, a change of them needs a RESULTS_VERSION bump. Version 8 moved its
# multitask N2 = 1 rows by rounding only (2.5e-14 relative): fine-tuning went
# from an LU solve of the projected Grams to `direct_ols`, whose first prefix
# is an `lstsq` fit. Version 9 moved every row by rounding: the expert
# trajectories, of the training data and of the scoring alike, follow one
# closed-loop recurrence, x[t+1] = (A + B K) x[t] + (B z[t] + w[t]).
GOLDEN_SWEEP = "sweep:\n  trials_system: 2\n  trials_noise: 1\n  n2: [1, 2, 5]\n"
GOLDEN_DIGEST = "51d70e2e0fe82a005deeb1a7b1ca43885367323ea7aa9f6b7f7bebec5ba2d648"
# The same sweep on the unlifted plant. Version 6 moved it by rounding only:
# its stationary covariances come from the range form, on the identity basis.
# Version 8 moved its multitask N2 = 1 rows as above (1.8e-14 relative), and
# version 9 every row, as above.
UNLIFTED_SWEEP = "system:\n  lift_dim: null\n" + GOLDEN_SWEEP
UNLIFTED_GOLDEN_DIGEST = (
    "a5a2af5f4b2c89e471242eb3bcf36a89b7b23199d7e7d523c2bfdc6586a87d01"
)
# Its `direct` rows alone. Version 4 moved them by rounding only: the
# stationary covariances come from the lift's range, the fits from prefix
# Grams and the tracking errors from the deviation form. Version 5 changed
# pretraining alone and kept them, and so did version 8. Version 9 moved them
# by rounding only: one expert recurrence for the data and the scoring.
GOLDEN_DIRECT_DIGEST = (
    "e9dbaad3af08f8bee98e55d4b76dfa031d58e7161558ec0780decd84f7c3f892"
)
# sha256 of the sigma_x bytes of the lifted tasks of system trial 0 at
# run.seed 2 (reference config). At seed 0 the lifted forcing Q'A_cl A_cl'Q
# has the same bits from a GEMM as from numpy's symmetric (SYRK) product, so
# GOLDEN_DIGEST cannot tell them apart; at seed 2 it has not.
LIFTED_SIGMA_X_DIGEST = (
    "34a90a45c29dfacf4adf7f09f4ac8bfd6a2d6dfac371284de091519844092dad"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def cli_env(threads):
    """Environment of a `python -m mtil.cli` process: this package on the path
    and OPENBLAS_NUM_THREADS = threads; None leaves every BLAS variable unset."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


INLINE_SWEEP = (
    "system:\n  a: [[0.9, 0.5], [0.0, 0.8]]\n  b: [[0.0], [1.0]]\n"
    "  lift_dim: {lift_dim}\ntasks:\n  h: 3\n  k: 1\n"
    "sweep:\n  n2: [1, 5]\n  trials_system: 2\n  trials_noise: 2\n"
)


class TestInlinePlant:
    @pytest.mark.parametrize("lift_dim", ["null", "6"])
    def test_sweep_is_the_same_at_any_parallelism(self, tmp_path, lift_dim):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(INLINE_SWEEP.format(lift_dim=lift_dim))
        for p in ("1", "2"):
            out = str(tmp_path / f"p{p}")
            argv = ["run", "--config", str(cfg_path), "--out", out]
            assert cli.main(argv + ["--parallelism", p]) == 0
        assert filecmp.cmp(
            str(tmp_path / "p1" / "results.csv"),
            str(tmp_path / "p2" / "results.csv"),
            shallow=False,
        )


class TestSweepReuse:
    def test_golden_results_digest(self, tmp_path):
        cfg = eh.config_from_dict(yaml.safe_load(GOLDEN_SWEEP))
        paths = eh.write_results(eh.run_sweep(cfg), str(tmp_path), cfg)
        with open(paths["results"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert eh.RESULTS_VERSION == "9"
        assert digest == GOLDEN_DIGEST

    def test_unlifted_golden_results_digest(self, tmp_path):
        cfg = eh.config_from_dict(yaml.safe_load(UNLIFTED_SWEEP))
        paths = eh.write_results(eh.run_sweep(cfg), str(tmp_path), cfg)
        with open(paths["results"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == UNLIFTED_GOLDEN_DIGEST

    def test_lifted_covariances_digest(self):
        cfg = eh.ExperimentConfig(seed=2)
        with control_math.pinned_blas_threads():
            family, _ = eh.expert_family(cfg)
            tasks = eh.lift_trial(cfg, family, 0).tasks
        digest = hashlib.sha256(b"".join(t.sigma_x.tobytes() for t in tasks))
        assert digest.hexdigest() == LIFTED_SIGMA_X_DIGEST

    def test_golden_direct_rows_digest(self, tmp_path):
        cfg = eh.config_from_dict(yaml.safe_load(GOLDEN_SWEEP))
        paths = eh.write_results(eh.run_sweep(cfg), str(tmp_path), cfg)
        with open(paths["results"], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        direct = [line for line in lines if line.startswith(b"direct,")]
        assert len(direct) == 6
        assert hashlib.sha256(b"".join(direct)).hexdigest() == GOLDEN_DIRECT_DIGEST

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    @pytest.mark.parametrize("threads", [None, "1", "2", "4"])
    def test_golden_digest_under_any_blas_threads(
        self, tmp_path, threads, parallelism
    ):
        # The entry point starts OpenBLAS on one thread whatever the caller
        # set, so the caller's thread count must not reach the bits; the pin
        # itself is checked in process, where numpy loaded first.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(GOLDEN_SWEEP)
        subprocess.run(
            [sys.executable, "-m", "mtil.cli", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--parallelism", parallelism],
            env=cli_env(threads), check=True, capture_output=True, timeout=300,
        )
        digest = hashlib.sha256((tmp_path / "out" / "results.csv").read_bytes())
        assert digest.hexdigest() == GOLDEN_DIGEST
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["version"] == "9"
        assert manifest["blas_threads"] == 1

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_run_sweep_restores_blas_threads(self, parallelism):
        blas = control_math.blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread-count symbols")
        before = blas.get()
        try:
            blas.set(3)
            cfg = eh.config_from_dict(
                {"sweep": {"trials_system": 2, "trials_noise": 1, "n2": [1],
                           "methods": ["direct"]},
                 "run": {"parallelism": parallelism}}
            )
            eh.run_sweep(cfg)
            assert blas.get() == 3
        finally:
            blas.set(before)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_golden_digest_in_process_under_two_blas_threads(
        self, tmp_path, parallelism
    ):
        # numpy loaded before mtil.cli here, so only the pin of run_sweep
        # keeps a multi-threaded OpenBLAS away from the bits.
        blas = control_math.blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread-count symbols")
        before = blas.get()
        try:
            blas.set(2)
            cfg = eh.config_from_dict(
                {**yaml.safe_load(GOLDEN_SWEEP), "run": {"parallelism": parallelism}}
            )
            paths = eh.write_results(eh.run_sweep(cfg), str(tmp_path), cfg)
            assert blas.get() == 2
        finally:
            blas.set(before)
        with open(paths["results"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_DIGEST

    def test_verify_csv_under_any_blas_threads(self, tmp_path):
        # The entry point starts OpenBLAS on one thread whatever the caller
        # set, so the caller's thread count must not reach verify.csv.
        written = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "mtil.cli", "verify", "--probe",
                 "covariance", "--out", str(out)],
                env=cli_env(threads), check=True, capture_output=True, timeout=300,
            )
            written.append((out / "verify.csv").read_bytes())
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_verify_in_process_under_two_blas_threads(
        self, tmp_path, monkeypatch, seed
    ):
        # numpy loaded before mtil.cli here, and `mtil verify` does not pin
        # BLAS: its probes run on the caller's two threads and must still
        # write the bytes of a one-thread run.
        blas = control_math.blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread-count symbols")
        seen = []
        battery = cli.run_probe_battery

        def recording(names, seed):
            seen.append(blas.get())
            return battery(names, seed)

        monkeypatch.setattr(cli, "run_probe_battery", recording)
        files = ("verify.csv", "verify_details.json")
        written = []
        before = blas.get()
        try:
            for threads in (1, 2):
                blas.set(threads)
                out = tmp_path / f"threads-{threads}"
                assert cli.main(["verify", "--seed", seed, "--out", str(out)]) == 0
                written.append([(out / name).read_bytes() for name in files])
        finally:
            blas.set(before)
        assert seen == [1, 2]
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "parallelism, lift_dim, lifts", [(1, 50, 3), (2, 50, 3), (1, None, 0)]
    )
    def test_family_once_and_lift_once_per_system_trial(
        self, tmp_path, monkeypatch, parallelism, lift_dim, lifts
    ):
        log = tmp_path / "calls.log"

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                # Appended to a file so calls in forked workers count too.
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(name + "\n")
                return fn(*args, **kwargs)

            return wrapper

        for name in ("synthesize_expert_family", "lift_ensemble"):
            monkeypatch.setattr(lti_env, name, counted(name, getattr(lti_env, name)))
        cfg = eh.config_from_dict(
            {
                "system": {"lift_dim": lift_dim},
                "sweep": {"trials_system": 3, "trials_noise": 2, "n2": [1],
                          "methods": ["direct"]},
                "run": {"parallelism": parallelism},
            }
        )
        assert len(eh.run_sweep(cfg)) == 3 * 2
        calls = log.read_text(encoding="utf-8").split()
        assert calls.count("synthesize_expert_family") == 1
        assert calls.count("lift_ensemble") == lifts


class TestFewerTargetRowsThanK:
    # With T = 2 the N2 = 1 prefix holds 2 target rows for k = 4, so the
    # fine-tune system Phi X'X Phi' is singular.
    def test_multitask_fit_is_minimum_norm(self):
        # An LU solve of the singular system returns finite rounding noise
        # here, an excess risk of 432, against 4.6 for the minimum-norm fit
        # and 1.4 for direct.
        rows = eh.run_sweep(tiny_cfg(t=2, n2=[1, 2, 3]))
        (row,) = [r for r in rows if r.method == "multitask" and r.N2 == 1]
        assert row.underdetermined
        assert row.excess_risk == pytest.approx(4.604812963446886, rel=1e-9)

    def test_full_rank_representation_fits_the_direct_gain(self):
        # Unlifted with k = n_x = 4, Phi is orthogonal: the minimum-norm
        # F Phi is the minimum-norm gain that the direct baseline fits.
        cfg = eh.config_from_dict(
            {"system": {"lift_dim": None},
             "sweep": {"t": 2, "n2": [1, 2, 3], "trials_system": 3,
                       "trials_noise": 1}}
        )
        rows = {(r.method, r.system_trial, r.N2): r for r in eh.run_sweep(cfg)}
        for trial in range(3):
            multi, direct = rows["multitask", trial, 1], rows["direct", trial, 1]
            assert multi.underdetermined and direct.underdetermined
            assert multi.excess_risk == pytest.approx(direct.excess_risk, rel=1e-9)
            assert multi.param_err == pytest.approx(direct.param_err, rel=1e-9)


class TestWriteResults:
    def test_empty_rows_header_only(self, tmp_path):
        paths = eh.write_results([], str(tmp_path), eh.ExperimentConfig())
        lines = open(paths["results"]).read().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",")[0] == "method"

    def test_summary_median(self, tmp_path):
        rows = [
            eh.ResultRow(
                method="direct", system_trial=i, noise_trial=0, N1=1, N2=1,
                H=1, T=1, k=1, tracking_err=float(v), param_err=0.0,
                stable=True, excess_risk=0.0, underdetermined=False,
                nonfinite=False,
            )
            for i, v in enumerate([3.0, 1.0, 2.0])
        ]
        paths = eh.write_results(rows, str(tmp_path), eh.ExperimentConfig())
        lines = open(paths["summary"]).read().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[3]) == 2.0  # median tracking error
        assert float(fields[-1]) == 1.0  # stable fraction

    def test_summary_groups_of_unequal_size(self, tmp_path):
        # Hand-built rows need not give every group one row per cell.
        rows = [
            eh.ResultRow(
                method=method, system_trial=i, noise_trial=0, N1=1, N2=1,
                H=1, T=1, k=1, tracking_err=float(v), param_err=float(2 * v),
                stable=True, excess_risk=0.0, underdetermined=False,
                nonfinite=False,
            )
            for method, values in (
                ("direct", [3.0, 1.0, 2.0]), ("multitask", [1.0, 4.0])
            )
            for i, v in enumerate(values)
        ]
        paths = eh.write_results(rows, str(tmp_path), eh.ExperimentConfig())
        lines = open(paths["summary"]).read().splitlines()[1:]
        # Each group's tracking_err quantiles, as one np.quantile per value.
        for line, values in zip(lines, ([3.0, 1.0, 2.0], [1.0, 4.0])):
            expected = [repr(float(np.quantile(values, q))) for q in (0.5, 0.2, 0.8)]
            assert line.split(",")[3:6] == expected
        assert [float(line.split(",")[6]) for line in lines] == [4.0, 5.0]

    def test_manifest_records_versions(self, tmp_path):
        paths = eh.write_results([], str(tmp_path), eh.ExperimentConfig())
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["version"] == eh.RESULTS_VERSION
        assert manifest["numpy_version"] == np.__version__
        assert manifest["package_version"] == mtil.__version__
        pinned = control_math.blas_threads() is not None
        expected = control_math.BLAS_THREADS if pinned else None
        assert manifest["blas_threads"] == expected
        assert {"blas_name", "blas_version"} <= manifest.keys()

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = tiny_cfg()
        rows = eh.run_sweep(cfg)
        p1 = eh.write_results(rows, str(tmp_path / "a"), cfg)
        p2 = eh.write_results(rows, str(tmp_path / "b"), cfg)
        assert open(p1["results"]).read() == open(p2["results"]).read()
        assert open(p1["summary"]).read() == open(p2["summary"]).read()
        assert open(p1["manifest"]).read() == open(p2["manifest"]).read()


# (n, text, extra, path): a config text and extra `mtil run` arguments that
# must exit 2 naming path. Row n has the fixed test id "<text>-extra<n>-<path>",
# so adding or deleting a row renames no other row's test.
BAD_INPUTS = [
    (0, "tasks:\n  h: abc\n", [], "tasks.h"),
    (1, "sweep:\n  n2: [x]\n", [], "sweep.n2"),
    (2, "system:\n  lift_dim: x\n", [], "system.lift_dim"),
    (3, "tasks:\n  alphas: 5\n", [], "tasks.alphas"),
    (4, "system:\n  a: [[1, 2]]\n  b: [[1]]\n", [], "system.a"),
    (5, "run:\n  restarts: 1\n", [], "run.restarts: unknown key"),
    (6, "run:\n  reuse_source_data: false\n", [], "run.reuse_source_data: unknown key"),
    (7, "run:\n  seed: -1\n", [], "run.seed"),
    (8, "", ["--seed", "-1"], "run.seed"),
    (9, "", ["--parallelism", "0"], "run.parallelism"),
    (10, "sweep:\n  n1: 1\n  t: 2\n", [], "sweep.n1"),
    (11, "system:\n  sigma_z: .nan\n", [], "system.sigma_z"),
    (12, "system:\n  sigma_z: .inf\n", [], "system.sigma_z"),
    (36, "tasks:\n  r_scale: 1.0\n", [], "tasks.r_scale: unknown key"),
    (15, "tasks:\n  alphas: [.nan, 2]\n", [], "tasks.alphas"),
    (16, "sweep:\n  methods: [direct, direct]\n", [], "sweep.methods"),
    (17, "sweep:\n  n2: [1, 1]\n", [], "sweep.n2"),
    (18, "tasks:\n  alphas: [300, 400]\n", [], "tasks.alphas"),
    (19, "tasks:\n  alphas: [-400, 2]\n", [], "tasks.alphas"),
    (20, "tasks:\n  h: 2.5\n", [], "tasks.h"),
    (21, "system:\n  lift_dim: 49.9\n", [], "system.lift_dim"),
    (22, "run:\n  seed: 1.9\n", [], "run.seed"),
    (23, "sweep:\n  t_test: true\n", [], "sweep.t_test"),
    (24, "sweep:\n  n2: true\n", [], "sweep.n2"),
    (25, "sweep:\n  n2: [1.5, 2]\n", [], "sweep.n2"),
    (26, "system:\n  a: [[0.5]]\n  b: [[.inf]]\n", [], "system.b"),
    (27, "system:\n  a: [[.nan]]\n  b: [[1.0]]\n", [], "system.a"),
    (28, "tasks:\n  alphas: '12'\n", [], "tasks.alphas"),
    (29, "tasks:\n  alphas: [true, 2]\n", [], "tasks.alphas"),
    (30, "tasks:\n  alphas: ['-1', 2]\n", [], "tasks.alphas"),
    (31, "system:\n  sigma_z: true\n", [], "system.sigma_z"),
    (32, "system:\n  sigma_z: '1.0'\n", [], "system.sigma_z"),
    (35, "run:\n  eval_task: target\n", [], "run.eval_task: unknown key"),
    # sigma_z^2 B B' overflows on the base plant.
    (37, "system:\n  sigma_z: 1.0e+200\n", [], "system.sigma_z"),
    (38, "system:\n  sigma_z: 1.0e+154\n", [], "system.sigma_z"),
    (
        39,
        "system:\n  preset: bogus\n",
        [],
        "system.preset: unknown preset 'bogus'; known: ['hong2021']",
    ),
    (
        40,
        "system:\n  a: [[0.9, 0.5], [0.0, 0.8]]\n  b: [[1.0]]\n",
        [],
        "system.b: B must have the same row count as A",
    ),
    # A mapping where a list is expected would run as its keys.
    (
        41,
        "sweep:\n  methods: {direct: 1}\n",
        [],
        "sweep.methods: must be a list, got {'direct': 1}",
    ),
    (
        42,
        "tasks:\n  alphas: {-2: 0, 2: 0}\n",
        [],
        "tasks.alphas: must be a list, got {-2: 0, 2: 0}",
    ),
    # Valid values whose expert family cannot be synthesized.
    (
        43,
        "tasks:\n  alphas: [-300, 300]\n  h: 1\n",
        [],
        "tasks.alphas: no LQR expert at alpha = 1e+300: "
        "DARE doubling met a singular I + GH",
    ),
    (
        44,
        "system:\n  a: [[2, 0], [0, 0.5]]\n  b: [[0], [1]]\n  lift_dim: null\n"
        "tasks:\n  k: 1\n",
        [],
        "tasks.alphas, system.a/system.b: no LQR expert at alpha = 0.01: "
        "closed-loop spectral radius 2.0 >= 1",
    ),
    # A key written twice, whose last value a YAML loader would keep.
    (45, "sweep:\n  n1: 3\nsweep:\n  n2: [1, 2]\n", [], "sweep: repeated key"),
    (46, "sweep: {n1: 3, n1: 40}\n", [], "sweep.n1: repeated key"),
]


class TestCli:
    def test_run_and_plot_script(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1]\n"
            "  methods: [direct]\n"
        )
        out = tmp_path / "out"
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(out),
             "--emit-plot-script"]
        )
        assert rc == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "plot_summary.gp").exists()

    def test_run_validation_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("tasks:\n  k: 60\n")
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "text, extra, path",
        [row[1:] for row in BAD_INPUTS],
        ids=[f"{text}-extra{n}-{path}" for n, text, _, path in BAD_INPUTS],
    )
    def test_bad_input_exits_2_with_field_path(
        self, tmp_path, capsys, text, extra, path
    ):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
            + extra
        )
        err = capsys.readouterr().err
        assert rc == 2
        # A row names the field path, or the whole message after "error: ".
        assert err.startswith(f"error: {path}: ") or err == f"error: {path}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lifted_forcing_overflow_exits_2(self, tmp_path, capsys):
        # sigma_z^2 B B' is finite on the base plant, but the lifted forcing
        # overflows; make_task refuses it before the Lyapunov solve, with one
        # error line and no RuntimeWarning.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  sigma_z: 1.2e+153\n"
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1]\n"
            "  methods: [direct]\n"
        )
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Lyapunov forcing ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "methods, grams", [("[multitask, direct]", "source"), ("[direct]", "target")]
    )
    @pytest.mark.parametrize("out_exists", [False, True])
    def test_nonfinite_grams_exit_2(self, tmp_path, capsys, methods, grams, out_exists):
        # Every state near 1e153 overflows the Grams of the training data:
        # one error line names them, and an --out this run made is removed.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  sigma_z: 1.0e+152\n"
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1, 20]\n"
            f"  methods: {methods}\n"
        )
        out = tmp_path / "out"
        if out_exists:
            out.mkdir()
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grams} Grams are not finite")
        assert err.count("\n") == 1
        assert out.exists() == out_exists

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unfactorable_covariance_exits_2(self, tmp_path, capsys):
        # A lifted stationary covariance near 1e305 is numerically singular
        # and its trace overflows: one error line, no RuntimeWarning, and no
        # NaN factor passed on to the rollouts.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  sigma_z: 3.0e+152\n"
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1, 20]\n"
        )
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: covariance does not factor, and its trace overflows\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_projected_gram_overflow_exits_2(self, tmp_path, capsys):
        # Every source Gram is finite, but Phi X'X Phi' overflows in an ALS
        # step: one error line names it, with no RuntimeWarning.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  sigma_z: 1.0e+147\n"
            "sweep:\n  trials_system: 4\n  trials_noise: 3\n  n2: [1, 5, 20]\n"
        )
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: projected Grams Phi X'X Phi' overflow\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, size",
        [
            ("tasks: {h: 1000000000000000}\n", "7.11 PiB"),
            (
                "sweep: {t: 1000000000000000, n2: [1], trials_system: 1, "
                "trials_noise: 1}\n",
                "369. PiB",
            ),
        ],
        ids=["config", "rollout"],
    )
    def test_config_too_big_for_memory_exits_2(self, tmp_path, capsys, text, size):
        # The first allocation asks for petabytes, so it fails at once
        # whatever the overcommit setting: one error line, no --out left.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory: Unable to allocate {size}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_excess_risk_is_quiet(self, tmp_path, capsys):
        # delta @ sigma_x overflows in the excess risk: the run writes its
        # rows (excess_risk nan, as README says) and prints nothing to stderr.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  sigma_z: 1.0e+151\n"
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1, 20]\n"
            "  methods: [direct]\n"
        )
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        with open(out / "results.csv") as f:
            risks = [row["excess_risk"] for row in csv.DictReader(f)]
        assert "nan" in risks

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("sweep: [1, 2\n")
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot parse config: ")

    @pytest.mark.parametrize("threads", [None, "4"])
    def test_entry_point_starts_openblas_on_one_thread(self, threads):
        # Each idle OpenBLAS worker spins for CPU time that no command uses.
        code = (
            "import mtil.cli\n"
            "from mtil import control_math\n"
            "blas = control_math.blas_threads()\n"
            "print(None if blas is None else blas.get())\n"
            "try:\n"
            "    status = open('/proc/self/status').read().splitlines()\n"
            "except OSError:\n"
            "    status = []\n"
            "print([line.split()[1] for line in status if line.startswith('Threads:')])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=cli_env(threads), check=True,
            capture_output=True, text=True, timeout=300,
        )
        count, os_threads = proc.stdout.splitlines()
        if count == "None":
            pytest.skip("numpy's BLAS exports no thread-count symbols")
        assert count == "1"
        if sys.platform.startswith("linux"):
            assert os_threads == "['1']"

    @pytest.mark.parametrize(
        "argv, compute",
        [
            (["run"], "mtil.exp_harness.run_sweep"),
            (["verify", "--probe", "sandwich"], "mtil.cli.run_probe_battery"),
        ],
    )
    def test_out_that_cannot_be_created_exits_2_before_compute(
        self, tmp_path, capsys, monkeypatch, argv, compute
    ):
        def no_compute(*args):
            raise AssertionError("ran before --out was created")

        monkeypatch.setattr(compute, no_compute)
        (tmp_path / "file").write_text("")
        rc = cli.main(argv + ["--out", str(tmp_path / "file" / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --out: ")

    @pytest.mark.parametrize(
        "kind", MtilError.__subclasses__(), ids=lambda kind: kind.__name__
    )
    def test_every_error_kind_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        def failing(*args):
            raise kind(f"{kind.__name__} raised in the sweep")

        monkeypatch.setattr("mtil.exp_harness.run_sweep", failing)
        rc = cli.main(["run", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {kind.__name__} raised in the sweep\n"
        assert captured.out == ""

    def test_verify_write_failure_exits_2(self, tmp_path, capsys):
        (tmp_path / "verify.csv").mkdir()
        rc = cli.main(["verify", "--probe", "sandwich", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --out: ")

    def test_verify_details_write_failure_exits_2(self, tmp_path, capsys):
        (tmp_path / "verify_details.json").mkdir()
        rc = cli.main(["verify", "--probe", "hanson_wright", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --out: ")

    @pytest.mark.parametrize("taken", ["results.csv", "plot_summary.gp"])
    def test_run_write_failure_exits_2(self, tmp_path, capsys, taken):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1]\n"
            "  methods: [direct]\n"
        )
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(out),
             "--emit-plot-script"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --out: ")

    def test_verify_loads_no_run_only_module(self, tmp_path):
        # YAML parsing, the process pool and the sweep modules serve
        # `mtil run` alone; the plant modules serve only the probes that
        # run on a plant (covariance, tracking).
        run_only = {"yaml", "concurrent.futures", "mtil.exp_harness", "mtil.mtil_learn"}
        plant = {"mtil.lti_env", "mtil.control_math", "mtil.eval_metrics"}
        code = (
            "import sys, mtil.cli\n"
            "mtil.cli.main(['verify', '--probe', 'hanson_wright',"
            " '--out', sys.argv[1]])\n"
            f"print(sorted({run_only!r} & set(sys.modules)))\n"
            f"print(sorted({plant!r} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=cli_env(None), check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]

    def test_parser_and_argument_errors_load_no_numpy(self, tmp_path):
        # The parser and argument validation answer before any command
        # imports numpy: parsing, a negative --seed (exit 2) and an unknown
        # --probe (argparse's SystemExit 2).
        code = (
            "import contextlib, io, sys, mtil.cli\n"
            "loaded = []\n"
            "mtil.cli.build_parser().parse_args("
            "['verify', '--probe', 'sandwich', '--out', 'x'])\n"
            "loaded.append('numpy' in sys.modules)\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = mtil.cli.main("
            "['verify', '--seed', '-1', '--out', sys.argv[1]])\n"
            "loaded.append((code, 'numpy' in sys.modules))\n"
            "try:\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        mtil.cli.main(['verify', '--probe', 'bogus', '--out', 'x'])\n"
            "except SystemExit as exc:\n"
            "    loaded.append((exc.code, 'numpy' in sys.modules))\n"
            "print(loaded)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out")],
            env=cli_env(None), check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.stdout.splitlines()[-1] == "[False, (2, False), (2, False)]"
        assert not (tmp_path / "out").exists()

    def test_exp_harness_reachable_through_cli(self, tmp_path):
        # A config shaped as the benchmark's sweep config loads through
        # `mtil.cli.exp_harness`, the attribute its setup command reads.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  preset: hong2021\n  lift_dim: 50\n  sigma_z: 1.0\n"
            "tasks:\n  h: 9\n  k: 4\n"
            "sweep:\n  n1: 10\n  n2: 20\n  t: 20\n  t_test: 100\n"
            "  trials_system: 2\n  trials_noise: 2\n"
            "  methods: [multitask, direct]\n"
            "run:\n  seed: 7\n  parallelism: 1\n"
        )
        code = (
            "import sys, mtil.cli\n"
            "cfg = mtil.cli.exp_harness.load_config(sys.argv[1])\n"
            "print(cfg.seed, cfg.lift_dim)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg_path)],
            env=cli_env(None), check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.stdout.splitlines()[-1] == "7 50"

    def test_run_loads_no_probe_module(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1]\n"
            "  t_test: 5\n"
        )
        code = (
            "import sys, mtil.cli\n"
            "mtil.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print('mtil.theory_probe' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out")],
            env=cli_env(None), check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "out" / "results.csv").exists()

    def test_maximal_probe_loads_no_scipy(self, tmp_path):
        # The maximal probe's normal quantile is numpy code; importing
        # scipy.special alone would cost more than the probe's work.
        code = (
            "import sys, mtil.cli\n"
            "mtil.cli.main(['verify', '--probe', 'maximal', '--out', sys.argv[1]])\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=cli_env(None), check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "verify.csv").exists()

    def test_run_does_not_import_numpy_ma(self, tmp_path):
        # np.quantile imports numpy.ma through np.unique; summary.csv's
        # quantiles are taken without it.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "sweep:\n  trials_system: 1\n  trials_noise: 2\n  n2: [1, 2]\n"
            "  t_test: 5\n"
        )
        code = (
            "import sys, mtil.cli\n"
            "mtil.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print([m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out")],
            env=cli_env(None), check=True, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--probe", "sandwich", "--seed", "-1"],
            ["verify", "--seed", "-1"],
            ["synth", "--seed", "-1"],
            ["synth", "--lift-dim", "50", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] == "verify":
            argv = argv + ["--out", str(out)]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: --seed: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("lift_dim", ["3", "2", "0", "-1"])
    def test_synth_wide_lift_exits_2(self, capsys, lift_dim):
        # Named as the flag, as --preset is.
        rc = cli.main(["synth", "--lift-dim", lift_dim])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"error: --lift-dim: lift dimension {lift_dim} is below n_x = 4\n"
        )
        assert captured.out == ""

    def test_poorly_conditioned_lift_runs(self, tmp_path):
        # Lift to 4 dimensions at seed 0 has cond(G) ~ 200; its Lyapunov
        # solves used to fail a residual test blind to the ||A||^2 scale.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "system:\n  lift_dim: 4\ntasks:\n  k: 2\n"
            "sweep:\n  trials_system: 1\n  trials_noise: 1\n  n2: [1]\n"
        )
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        assert cli.main(["synth", "--lift-dim", "4"]) == 0

    def test_closed_stdout_exits_quietly(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtil.cli", "verify", "--probe", "covariance",
             "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader goes away before any output
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""
        assert (tmp_path / "verify.csv").exists()

    def test_verify_single_probe(self, tmp_path):
        rc = cli.main(["verify", "--probe", "sandwich", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify.csv").exists()

    def test_verify_unknown_probe(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--probe", "bogus", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synth(self, capsys):
        rc = cli.main(["synth", "--preset", "hong2021", "--lift-dim", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "target" in out
        assert "diversity" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "bdb69500fabf2e307225f7bf1e269b56f1fe148161287bcfb81554b41af131bb"),
            (["--lift-dim", "50", "--seed", "5"],
             "c5e6b757e8e6ba6cc60a2e1a47deef3d849535fb69c62030f2eff7d69ccc7436"),
        ],
    )
    def test_synth_golden_stdout(self, capsys, argv, digest):
        # synth prints the family (and lift) of system trial 0 of a sweep.
        assert cli.main(["synth"] + argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_synth_unknown_preset(self, capsys):
        # Named as the flag typed, not as the config key system.preset.
        rc = cli.main(["synth", "--preset", "bogus"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            "error: --preset: unknown preset 'bogus'; known: ['hong2021']\n"
        )
        assert captured.out == ""


class TestFactoredAdvantage:
    def test_median_tracking_beats_direct_at_n2_2(self):
        cfg = eh.config_from_dict(
            {"sweep": {"trials_system": 4, "trials_noise": 5, "n2": [2]}}
        )
        rows = eh.run_sweep(cfg)
        mt = np.median([r.tracking_err for r in rows if r.method == "multitask"])
        dr = np.median([r.tracking_err for r in rows if r.method == "direct"])
        assert mt < dr
