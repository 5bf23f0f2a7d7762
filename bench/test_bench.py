"""Tests of the benchmark's own logic. Run with `python3 -m pytest bench`."""

import json
import os
import sys

import run
import tracer

sys.path.insert(0, run.SRC)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        [1, 0, "a", 0, 100, None],
        [2, 1, "b", 10, 30, None],
        [3, 1, "c", 20, 50, None],  # overlaps b: the overlap counts once
        [4, 1, "d", 60, 70, None],
        [5, 4, "e", 62, 64, None],  # grandchild: only d loses it
        [6, 1, "f", 95, 120, None],  # overruns a: clipped to a's end
    ]
    assert tracer.self_times(spans) == {1: 45, 2: 20, 3: 30, 4: 8, 5: 2, 6: 25}


def test_untraced_time_is_the_root_minus_its_children():
    trace = {"root": [0, 100], "spans": [[1, 0, "a", 10, 40, None], [2, 1, "b", 20, 90, None]]}
    assert run.untraced_ns(trace) == 70


def test_install_wraps_names_imported_by_other_modules():
    import mtil

    tracer.Tracer().install(mtil)
    from mtil import data_gen, eval_metrics, exp_harness, theory_probe

    assert exp_harness.evaluate_controller is eval_metrics.evaluate_controller
    assert eval_metrics.coupled_rollout is data_gen.coupled_rollout
    assert theory_probe.coupled_rollout is data_gen.coupled_rollout
    assert data_gen.coupled_rollout.layer == "data_gen.coupled_rollout"


def _config_text(seed, k, parallelism, tmp_path):
    tmp_path.mkdir()
    runner = run.Runner(run.WORKLOADS["sweep_serial"], seed, str(tmp_path))
    with open(runner.mtil_args(k, "out", parallelism)[2]) as fh:
        return fh.read()


def test_same_workload_seed_generates_the_same_config(tmp_path):
    from mtil.exp_harness import config_from_dict
    import yaml

    first = _config_text(7, 0, 1, tmp_path / "a")
    assert first == _config_text(7, 0, 1, tmp_path / "b")
    assert first != _config_text(8, 0, 1, tmp_path / "c")
    assert first != _config_text(7, 1, 1, tmp_path / "d")
    serial = config_from_dict(yaml.safe_load(first))
    parallel = config_from_dict(yaml.safe_load(_config_text(7, 0, 2, tmp_path / "e")))
    assert serial.seed == parallel.seed == run.program_seed(7, 0)
    assert (serial.parallelism, parallel.parallelism) == (1, 2)
    assert (serial.lift_dim, serial.H, serial.k, serial.N1, serial.T) == (50, 9, 4, 10, 20)
    assert serial.N2 == tuple(range(1, 21))
    assert serial.trials_system * serial.trials_noise >= 4


def _write_output(directory, body: bytes, version="1"):
    os.makedirs(directory)
    with open(os.path.join(directory, "results.csv"), "wb") as fh:
        fh.write(body)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump({"version": version}, fh)


def test_gate_flags_one_changed_byte_and_counts_the_run_failed(tmp_path):
    runner = run.Runner(run.WORKLOADS["sweep_serial"], 0, str(tmp_path))
    runner.gate = run.OutputGate("results.csv")
    body = b"method,N2\nmultitask,1\n"
    for i, data in enumerate((body, body, body.replace(b"1", b"2", 1))):
        out = str(tmp_path / f"out{i}")
        _write_output(out, data)
        runner._finish(run.Command(f"cmd{i}", 1.0, 1.0, 1.0, 0), 0, out)
    result = run.summary(runner.commands, {})
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert "differs" in runner.commands[2].failure


def _command(program_seed):
    return run.Command("cmd", 1.0, 1.0, 1.0, 0, program_seed=program_seed)


def test_gate_compares_outputs_of_the_same_program_seed_only(tmp_path):
    gate = run.OutputGate("results.csv")
    _write_output(str(tmp_path / "a"), b"a\n")
    _write_output(str(tmp_path / "b"), b"b\n")
    assert gate.check(str(tmp_path / "a"), _command(1)) is None
    assert gate.check(str(tmp_path / "b"), _command(2)) is None
    assert gate.check(str(tmp_path / "b"), _command(1)) is not None


def test_gate_checks_the_digest_recorded_for_the_results_version(tmp_path):
    recorded = {"1": {"5": "0" * 64}}
    _write_output(str(tmp_path / "v1"), b"x\n", version="1")
    _write_output(str(tmp_path / "v2"), b"x\n", version="2")
    gate = run.OutputGate("results.csv", recorded)
    assert "recorded for RESULTS_VERSION 1" in gate.check(str(tmp_path / "v1"), _command(5))
    assert run.OutputGate("results.csv", recorded).check(str(tmp_path / "v2"), _command(5)) is None
    command = _command(6)
    assert run.OutputGate("results.csv", recorded).check(str(tmp_path / "v1"), command) is None
    assert (command.results_version, command.digest) == ("1", run.file_digest(
        str(tmp_path / "v1" / "results.csv")))


def test_nonzero_exit_and_failing_probe_count_as_failed(tmp_path):
    runner = run.Runner(run.WORKLOADS["verify_all"], 0, str(tmp_path))
    command = run.Command("cmd0", 1.0, 1.0, 1.0, 3, failure="exit code 3")
    runner._finish(command, 0, str(tmp_path / "missing"))
    out = tmp_path / "probes"
    out.mkdir()
    (out / "verify.csv").write_text(
        "name,trials,failures,delta_target,margin,pass\n"
        "tracking_siss,10,0,0.05,0.2,true\n"
        "scalar_sandwich,10,1,0.05,1.5,false\n"
    )
    runner._finish(run.Command("cmd1", 1.0, 1.0, 1.0, 0), 1, str(out))
    assert run.summary(runner.commands, {})["failed"] == 2
    assert runner.commands[1].failure == "probes failed: scalar_sandwich"


def test_round_metrics_sum_per_probe_medians():
    def cmd(probe, wall, cpu, rss, cells):
        return run.Command("cmd", wall, cpu, rss, 0, cells=cells, probe=probe)

    runs = [cmd("a", w, w, 10.0, 2) for w in (1.0, 9.0, 2.0)]
    runs += [cmd("b", w, 2 * w, 30.0, 3) for w in (4.0, 5.0, 40.0)]
    metrics = run.end_to_end(runs, [cmd(None, 0.3, 0.3, 1.0, 0)])
    assert metrics["wall_s"] == (2.0 + 5.0, "s")
    assert metrics["cpu_s"] == (2.0 + 10.0, "s")
    assert metrics["cells_per_s"] == (5 / 7.0, "1/s")
    assert metrics["peak_rss_mb"] == (30.0, "MB")
    assert metrics["setup_s"] == (0.3, "s")


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert listed == {k: u for k, (_, u) in run.end_to_end([], []).items()}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {k: u for k, (_, u) in run.per_layer([], [], [], [], []).items()}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_spawn_kills_a_command_at_the_deadline():
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    command, _ = run.spawn("slow", argv, run.Deadline(0.5))
    assert command.wall_s < 10
    assert command.failure == "exit code -9"
