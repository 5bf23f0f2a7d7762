"""Tests for config loading, sweep execution, persistence, and the CLI."""

import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mtil
from mtil import cli, exp_harness as eh, lti_env
from mtil.errors import ParseError, ValidationError


def tiny_cfg(**sweep):
    base = {"trials_system": 1, "trials_noise": 1, "n2": [1]}
    base.update(sweep)
    return eh.config_from_dict({"sweep": base})


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

    def test_reuse_source_data(self):
        raw = {"sweep": {"trials_system": 1, "trials_noise": 2, "n2": [2],
                         "methods": ["multitask"]}}
        fresh = eh.run_sweep(eh.config_from_dict(raw))
        reused = eh.run_sweep(
            eh.config_from_dict({**raw, "run": {"reuse_source_data": True}})
        )
        assert len(reused) == len(fresh) == 2
        # Noise trial 0 uses the same source draws either way.
        assert fresh[0].tracking_err == reused[0].tracking_err
        # Noise trial 1 redraws source data only in the fresh run.
        assert fresh[1].tracking_err != reused[1].tracking_err


# results.csv of this sweep at RESULTS_VERSION "2": a speed-up must keep
# these bytes, a change of them needs a RESULTS_VERSION bump.
GOLDEN_SWEEP = "sweep:\n  trials_system: 2\n  trials_noise: 1\n  n2: [1, 2, 5]\n"
GOLDEN_DIGEST = "edaca7be863b12bd8b7b30c4b877e05bfec9d02f030d9c4fb461876ada01a2a5"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestSweepReuse:
    def test_golden_results_digest(self, tmp_path):
        cfg = eh.config_from_dict(yaml.safe_load(GOLDEN_SWEEP))
        paths = eh.write_results(eh.run_sweep(cfg), str(tmp_path), cfg)
        with open(paths["results"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert eh.RESULTS_VERSION == "2"
        assert digest == GOLDEN_DIGEST

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    @pytest.mark.parametrize("threads", [None, "1", "2", "4"])
    def test_golden_digest_under_any_blas_threads(
        self, tmp_path, threads, parallelism
    ):
        # The thread count the process starts with must not reach the bits.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(GOLDEN_SWEEP)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-m", "mtil.cli", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--parallelism", parallelism],
            env=env, check=True, capture_output=True, timeout=300,
        )
        digest = hashlib.sha256((tmp_path / "out" / "results.csv").read_bytes())
        assert digest.hexdigest() == GOLDEN_DIGEST
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["version"] == "2"
        assert manifest["blas_threads"] == 1

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_run_sweep_restores_blas_threads(self, parallelism):
        blas = eh._blas_threads()
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


class TestWriteResults:
    def test_empty_rows_header_only(self, tmp_path):
        paths = eh.write_results([], str(tmp_path), None)
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
        paths = eh.write_results(rows, str(tmp_path), None)
        lines = open(paths["summary"]).read().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[3]) == 2.0  # median tracking error
        assert float(fields[-1]) == 1.0  # stable fraction

    def test_manifest_records_versions(self, tmp_path):
        paths = eh.write_results([], str(tmp_path), None)
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["version"] == eh.RESULTS_VERSION
        assert manifest["numpy_version"] == np.__version__
        assert manifest["package_version"] == mtil.__version__
        pinned = eh._blas_threads() is not None
        assert manifest["blas_threads"] == (eh.SWEEP_BLAS_THREADS if pinned else None)
        assert {"blas_name", "blas_version"} <= manifest.keys()

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = tiny_cfg()
        rows = eh.run_sweep(cfg)
        p1 = eh.write_results(rows, str(tmp_path / "a"), cfg)
        p2 = eh.write_results(rows, str(tmp_path / "b"), cfg)
        assert open(p1["results"]).read() == open(p2["results"]).read()
        assert open(p1["summary"]).read() == open(p2["summary"]).read()
        assert open(p1["manifest"]).read() == open(p2["manifest"]).read()


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
        [
            ("tasks:\n  h: abc\n", [], "tasks.h"),
            ("sweep:\n  n2: [x]\n", [], "sweep.n2"),
            ("system:\n  lift_dim: x\n", [], "system.lift_dim"),
            ("tasks:\n  alphas: 5\n", [], "tasks.alphas"),
            ("system:\n  a: [[1, 2]]\n  b: [[1]]\n", [], "system.a"),
            ("run:\n  eval_task: true\n", [], "run.eval_task"),
            ("run:\n  reuse_source_data: 'no'\n", [], "run.reuse_source_data"),
            ("run:\n  seed: -1\n", [], "run.seed"),
            ("", ["--seed", "-1"], "run.seed"),
            ("", ["--parallelism", "0"], "run.parallelism"),
            ("sweep:\n  n1: 1\n  t: 2\n", [], "sweep.n1"),
            ("system:\n  sigma_z: .nan\n", [], "system.sigma_z"),
            ("system:\n  sigma_z: .inf\n", [], "system.sigma_z"),
            ("tasks:\n  r_scale: -1\n", [], "tasks.r_scale"),
            ("tasks:\n  r_scale: .nan\n", [], "tasks.r_scale"),
            ("tasks:\n  alphas: [.nan, 2]\n", [], "tasks.alphas"),
            ("sweep:\n  methods: [direct, direct]\n", [], "sweep.methods"),
            ("sweep:\n  n2: [1, 1]\n", [], "sweep.n2"),
            ("tasks:\n  alphas: [300, 400]\n", [], "tasks.alphas"),
            ("tasks:\n  alphas: [-400, 2]\n", [], "tasks.alphas"),
        ],
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
        assert err.startswith(f"error: {path}: ")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("lift_dim", ["3", "2", "0"])
    def test_synth_wide_lift_exits_2(self, capsys, lift_dim):
        rc = cli.main(["synth", "--lift-dim", lift_dim])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: lift dimension {lift_dim} ")
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

    def test_verify_unknown_probe(self, tmp_path):
        rc = cli.main(["verify", "--probe", "bogus", "--out", str(tmp_path)])
        assert rc == 2

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

    def test_synth_unknown_preset(self):
        rc = cli.main(["synth", "--preset", "unknown"])
        assert rc == 2


class TestFactoredAdvantage:
    def test_median_tracking_beats_direct_at_n2_2(self):
        cfg = eh.config_from_dict(
            {"sweep": {"trials_system": 4, "trials_noise": 5, "n2": [2]}}
        )
        rows = eh.run_sweep(cfg)
        mt = np.median([r.tracking_err for r in rows if r.method == "multitask"])
        dr = np.median([r.tracking_err for r in rows if r.method == "direct"])
        assert mt < dr
