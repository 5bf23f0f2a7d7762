"""Benchmark of the `mtil` command line, end to end and per layer.

    python3 bench/run.py --workload sweep_serial --seed 3 --seconds 50 --trace 0

Run it from the root of a source checkout: every command is a fresh
`python -m mtil.cli` process with `PYTHONPATH=src`, fed only a config or
arguments generated from `--seed`. With `--trace 0` it reports the end-to-end
metrics of the untraced commands; with `--trace 1` it reports per-layer
metrics from separate traced runs (see tracer.py). Every command passes an
output gate. Human-readable lines come first; the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Spans and a full
report go to `.bench_work/` in the checkout. Workloads and metrics are
explained in bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# A benchmark run must end within 180 s: no command starts after this, and a
# running one is killed (and counted as failed) when it is reached.
DEADLINE_S = 170.0
SETUP_REPEATS = 9
# p99 needs at least ten samples beyond it.
P99_SAMPLES = 1000
MAX_TRACED_REPS = 12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))

# Reference per-cell shape (hong2021 lifted to 50-D, H=9, k=4, N1=10,
# N2=1..20, T=20, T_test=100, both methods) on a 2x2 grid: two lift maps
# times two noise draws, so per-sweep and per-system-trial reuse can show.
TRIALS_SYSTEM = 2
TRIALS_NOISE = 2
SWEEP_CONFIG = """\
system:
  preset: hong2021
  lift_dim: 50
  sigma_z: 1.0
tasks:
  h: 9
  k: 4
sweep:
  n1: 10
  n2: 20
  t: 20
  t_test: 100
  trials_system: {trials_system}
  trials_noise: {trials_noise}
  methods: [multitask, direct]
run:
  seed: {seed}
  parallelism: {parallelism}
"""

SETUP_SWEEP = "import sys, mtil.cli; mtil.cli.exp_harness.load_config(sys.argv[1])"
SETUP_VERIFY = "import sys, mtil.cli; mtil.cli.build_parser().parse_args(sys.argv[1:])"

# Layers whose total time (ms) is reported with --trace 1. A layer that a
# workload bypasses reads 0 there.
LAYER_TIMES = [
    "exp_harness.write_results",
    "lti_env.synthesize_expert_family",
    "lti_env.lift_ensemble",
    "control_math.solve_dare",
    "control_math.solve_discrete_lyapunov",
    "mtil_learn.pretrain_alternating",
    "mtil_learn.finetune_target",
    "mtil_learn.direct_ols",
    "data_gen.sample_noise",
    "data_gen.rollout_expert",
    "control_math.stability_profile",
    "theory_probe.verify_covariance_concentration",
    "theory_probe.verify_hanson_wright",
    "theory_probe.verify_self_normalized",
    "theory_probe.verify_maximal_inequality",
    "theory_probe.verify_tracking_and_siss",
    "theory_probe.verify_scalar_sandwich",
]
LAYER_SELF_TIMES = ["exp_harness.run_sweep", "eval_metrics.evaluate_controller"]
LAYER_CALLS = [
    "lti_env.synthesize_expert_family",
    "lti_env.lift_ensemble",
    "control_math.solve_dare",
    "control_math.solve_discrete_lyapunov",
    "eval_metrics.evaluate_controller",
    "data_gen.sample_noise",
    "data_gen.coupled_rollout",
]
PERCENTILE_LAYER = "data_gen.coupled_rollout"
PRETRAIN = "mtil_learn.pretrain_alternating"


# The probes whose `mtil verify --probe <name>` command takes a few seconds at
# most. The tracking probe (`tracking`) alone runs about 19 s, so a 50 s run
# fits only two of its commands, and a median of two does not hold steady on
# a shared host.
SHORT_PROBES = ("covariance", "hanson_wright", "self_normalized", "maximal", "sandwich")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "verify"
    parallelism: int = 1
    # verify only: one timed process per probe in a round; "all" is one
    # `--probe all` process. Traced runs always run `--probe all`.
    probes: tuple = ("all",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_serial", "sweep", 1),
        Workload("sweep_parallel", "sweep", NPROC),
        Workload("verify_probes", "verify", probes=SHORT_PROBES),
        Workload("verify_all", "verify"),
    )
}


def program_seed(seed: int, k: int) -> int:
    """Seed of the k-th command of a run, derived from the workload seed.

    Each command of a run gets its own program seed: ALS sweep counts vary
    several-fold between seeds, so a run's median over many seeds is steady
    where one seed's cost is not.
    """
    return random.Random(f"{seed}/{k}").randrange(2**31)


def sweep_config(seed: int, parallelism: int) -> str:
    """YAML sweep config for one program seed; a pure function of its arguments."""
    return SWEEP_CONFIG.format(
        trials_system=TRIALS_SYSTEM,
        trials_noise=TRIALS_NOISE,
        seed=seed,
        parallelism=parallelism,
    )


@dataclass
class Command:
    """One finished program process, as seen from outside."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    failure: str | None = None
    probe: str | None = None  # verify only: the --probe argument
    cells: int = 0
    program_seed: int | None = None
    digest: str | None = None  # sha256 of the gated output file
    results_version: str | None = None


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def spawn(label: str, argv: list, deadline: Deadline, capture: bool = False):
    """Run argv to completion; returns (Command, captured stdout bytes).

    Wall time runs from spawn to exit. CPU time and peak RSS come from
    os.wait4, which covers the process and every descendant it waited for
    (the sweep's pool workers included). The environment is the caller's plus
    PYTHONPATH=src; BLAS thread variables pass through untouched.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(deadline.left(), 0.001))
    try:
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if proc.stdout:
            proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    command = Command(
        label=label,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )
    if proc.returncode != 0:
        command.failure = f"exit code {proc.returncode}"
    return command, out


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def failing_probes(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row["name"] for row in csv.DictReader(fh) if row.get("pass") != "true"]


class OutputGate:
    """Checks that every output of one program seed is byte-identical.

    The reference is the digest recorded for that seed and the output's
    RESULTS_VERSION when one exists, else the first output the gate saw.
    """

    def __init__(self, filename: str, recorded: dict | None = None):
        self.filename = filename
        self.recorded = recorded or {}  # RESULTS_VERSION -> seed -> sha256
        self.expected = {}

    def check(self, out_dir: str, command: Command) -> str | None:
        """Returns why the command's output in out_dir fails, or None.

        Stores the output's digest and RESULTS_VERSION on the command.
        """
        path = os.path.join(out_dir, self.filename)
        if not os.path.exists(path):
            return f"{self.filename} missing"
        digest = command.digest = file_digest(path)
        seed = command.program_seed
        manifest = os.path.join(out_dir, "manifest.json")
        if os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as fh:
                version = command.results_version = str(json.load(fh).get("version"))
            want = self.recorded.get(version, {}).get(str(seed))
            if want is not None and digest != want:
                return (
                    f"{self.filename} sha256 {digest[:12]} differs from "
                    f"{want[:12]} recorded for RESULTS_VERSION {version}"
                )
        want = self.expected.setdefault((seed, command.probe), digest)
        if digest != want:
            return f"{self.filename} sha256 {digest[:12]} differs from {want[:12]}"
        return None


def recorded_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs the commands of one benchmark invocation and gates their output."""

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = Deadline(DEADLINE_S)
        self.commands = []
        self.traces = []
        if workload.kind == "sweep":
            self.gate = OutputGate("results.csv", recorded_digests())
        else:
            self.gate = OutputGate("verify.csv")

    def mtil_args(self, k: int, out_dir: str, parallelism: int, probe: str = "all") -> list:
        """Arguments of the k-th command: program seed k of this run."""
        seed = program_seed(self.seed, k)
        if self.workload.kind == "verify":
            return ["verify", "--probe", probe, "--seed", str(seed), "--out", out_dir]
        path = os.path.join(self.work_dir, f"config-{k}-p{parallelism}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sweep_config(seed, parallelism))
        return ["run", "--config", path, "--out", out_dir]

    def setup(self) -> list:
        """Times fresh processes that import mtil.cli and validate the input."""
        args = self.mtil_args(0, "unused", 1)
        if self.workload.kind == "sweep":
            argv = [sys.executable, "-c", SETUP_SWEEP, args[2]]
        else:
            argv = [sys.executable, "-c", SETUP_VERIFY] + args
        setups = []
        for i in range(SETUP_REPEATS):
            command, _ = spawn(f"setup{i}", argv, self.deadline)
            self.commands.append(command)
            setups.append(command)
        return setups

    def _finish(self, command: Command, k: int, out_dir: str, probe: str | None = None) -> Command:
        command.program_seed = program_seed(self.seed, k)
        command.probe = probe
        if command.failure is None:
            command.failure = self.gate.check(out_dir, command)
        if command.failure is None and self.workload.kind == "verify":
            failing = failing_probes(os.path.join(out_dir, "verify.csv"))
            if failing:
                command.failure = f"probes failed: {', '.join(failing)}"
        if self.workload.kind == "sweep":
            command.cells = TRIALS_SYSTEM * TRIALS_NOISE
        elif command.failure is None:
            with open(os.path.join(out_dir, "verify.csv"), encoding="utf-8") as fh:
                command.cells = sum(1 for _ in csv.DictReader(fh))
        self.commands.append(command)
        shutil.rmtree(out_dir, ignore_errors=True)
        return command

    def command(self, k: int, parallelism: int, probe: str | None = None) -> Command:
        """One untraced `python -m mtil.cli` run with program seed k."""
        label = f"cmd{len(self.commands)}-k{k}-p{parallelism}" + (f"-{probe}" if probe else "")
        out_dir = os.path.join(self.work_dir, label)
        args = self.mtil_args(k, out_dir, parallelism, probe or "all")
        command, _ = spawn(label, [sys.executable, "-m", "mtil.cli"] + args, self.deadline)
        return self._finish(command, k, out_dir, probe)

    def round(self, k: int) -> list:
        """The commands of round k: one sweep, or one command per timed probe."""
        if self.workload.kind == "sweep":
            return [self.command(k, self.workload.parallelism)]
        return [self.command(k, 1, probe) for probe in self.workload.probes]

    def traced(self, k: int) -> Command:
        """One traced serial run with program seed k, in a fresh process;
        verify traces `--probe all`."""
        label = f"traced{len(self.traces)}-k{k}"
        out_dir = os.path.join(self.work_dir, label)
        run_id = f"{self.workload.name}-s{self.seed}-{label}"
        argv = [sys.executable, os.path.join(os.path.dirname(__file__), "tracer.py"),
                run_id, "--"] + self.mtil_args(k, out_dir, 1)
        command, out = spawn(label, argv, self.deadline, capture=True)
        if command.failure is None:
            self.traces.append(json.loads(out))
        probe = "all" if self.workload.kind == "verify" else None
        return self._finish(command, k, out_dir, probe)

    def write_spans(self) -> str:
        path = os.path.join(self.work_dir, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for trace in self.traces:
                for span in trace["spans"]:
                    fh.write(json.dumps([trace["run_id"]] + span) + "\n")
        return path


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 unless at least ten samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return 0.0
    ordered = sorted(values)
    return ordered[min(n - 1, int(q * n))]


def end_to_end(runs: list, setups: list) -> dict:
    """Medians per probe (one group for sweeps), summed over the probes of a
    round: wall_s and cpu_s are those of one round, peak_rss_mb its largest
    process."""
    groups = {}
    for c in runs:
        groups.setdefault(c.probe, []).append(c)

    def total(key):
        return sum(median([getattr(c, key) for c in g]) for g in groups.values())

    wall = total("wall_s")
    return {
        "setup_s": (median([c.wall_s for c in setups]), "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (total("cells") / wall if wall else 0.0, "1/s"),
        "cpu_s": (total("cpu_s"), "s"),
        "peak_rss_mb": (
            max((median([c.peak_rss_mb for c in g]) for g in groups.values()), default=0.0),
            "MB",
        ),
    }


def layer_table(trace: dict) -> dict:
    """Per-layer calls, total ns, self ns, per-call ns and extras of one trace."""
    self_ns = tracer.self_times(trace["spans"])
    table = {}
    for span_id, _, name, start, end, extra in trace["spans"]:
        row = table.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "each": [], "sweeps": 0})
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += self_ns[span_id]
        row["each"].append(end - start)
        if extra:
            row["sweeps"] += extra["sweeps"]
    return table


def untraced_ns(trace: dict) -> int:
    lo, hi = trace["root"]
    top = [(s[3], s[4]) for s in trace["spans"] if s[1] == 0]
    return (hi - lo) - tracer.covered_ns(top, lo, hi)


def per_layer(tables: list, traces: list, traced_runs: list, serial: list, parallel: list) -> dict:
    """Per-layer metrics: medians over traced runs, percentiles pooled."""
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "each": [], "sweeps": 0}

    def rows(name):
        return [t.get(name, empty) for t in tables]

    def med_ms(name, key):
        return median([r[key] / 1e6 for r in rows(name)])

    metrics = {}
    for name in LAYER_SELF_TIMES:
        metrics[f"{name}.self_ms"] = (med_ms(name, "self_ns"), "ms")
    for name in LAYER_TIMES:
        metrics[f"{name}.ms"] = (med_ms(name, "ns"), "ms")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (median([r["calls"] for r in rows(name)]), "count")
    metrics[f"{PRETRAIN}.sweeps"] = (median([r["sweeps"] for r in rows(PRETRAIN)]), "count")
    metrics[f"{PRETRAIN}.ms_per_sweep"] = (
        median([r["ns"] / 1e6 / r["sweeps"] for r in rows(PRETRAIN) if r["sweeps"]]),
        "ms",
    )
    pooled = [ns / 1e3 for r in rows(PERCENTILE_LAYER) for ns in r["each"]]
    metrics[f"{PERCENTILE_LAYER}.p50_us"] = (percentile(pooled, 0.50), "us")
    metrics[f"{PERCENTILE_LAYER}.p99_us"] = (percentile(pooled, 0.99), "us")
    metrics["untraced_ms"] = (median([untraced_ns(t) / 1e6 for t in traces]), "ms")
    metrics["trace_overhead_s"] = (
        median([c.wall_s for c in traced_runs]) - median([c.wall_s for c in serial]),
        "s",
    )
    efficiency = 0.0
    if serial and parallel:
        serial_cps = median([c.cells / c.wall_s for c in serial])
        parallel_cps = median([c.cells / c.wall_s for c in parallel])
        efficiency = parallel_cps / (NPROC * serial_cps)
    metrics["exp_harness.parallel_efficiency"] = (efficiency, "ratio")
    metrics["exp_harness.parallel_cpu_s"] = (median([c.cpu_s for c in parallel]), "s")
    return metrics


def counts_differ(tables: list) -> str | None:
    """The calls and ALS sweeps of one config must repeat exactly."""
    shapes = {
        json.dumps({name: [row["calls"], row["sweeps"]] for name, row in sorted(t.items())})
        for t in tables
    }
    return "call or sweep counts differ between traced runs" if len(shapes) > 1 else None


def measure(runner: Runner, seconds: float) -> dict:
    """--trace 0: untraced commands of the workload for `seconds`."""
    setups = runner.setup()
    runs, rounds = [], []
    start = time.perf_counter()
    while not rounds or (
        time.perf_counter() - start + median(rounds) <= seconds
        and runner.deadline.left() > 0
    ):
        commands = runner.round(len(rounds))
        runs += commands
        rounds.append(sum(c.wall_s for c in commands))
    return end_to_end(runs, setups)


def measure_layers(runner: Runner) -> dict:
    """--trace 1: untraced reference runs, then traced serial runs, all of
    them with the run's first program seed."""
    sweep = runner.workload.kind == "sweep"
    probe = None if sweep else "all"
    serial = [runner.command(0, 1, probe) for _ in range(3 if sweep else 1)]
    parallel = [runner.command(0, NPROC)] if sweep else []
    traced_runs = []
    while runner.deadline.left() > 0 and len(traced_runs) < MAX_TRACED_REPS:
        traced_runs.append(runner.traced(0))
        samples = sum(s[2] == PERCENTILE_LAYER for t in runner.traces for s in t["spans"])
        if samples >= P99_SAMPLES or traced_runs[-1].failure:
            break
    tables = [layer_table(t) for t in runner.traces]
    mismatch = counts_differ(tables)
    if mismatch:
        traced_runs[-1].failure = mismatch
    return per_layer(tables, runner.traces, traced_runs, serial, parallel)


def summary(commands: list, metrics: dict) -> dict:
    """The result object printed as the last line of stdout."""
    failed = sum(1 for c in commands if c.failure)
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    """Where the numbers were taken. Imports numpy, so call it after timing."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "mp_start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "mtil", "cli.py")):
        print(f"error: no mtil sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(
        WORK, f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(workload, args.seed, work_dir)
    if args.trace:
        metrics = measure_layers(runner)
    else:
        metrics = measure(runner, args.seconds)
    spans_path = runner.write_spans()

    result = summary(runner.commands, metrics)
    failed_frac = result["failed"] / result["attempted"]
    machine = machine_record()
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "result": result,
        "failed_frac": failed_frac,
        "commands": [vars(c) for c in runner.commands],
        "layers": {
            trace["run_id"]: {
                name: {k: v for k, v in row.items() if k != "each"}
                for name, row in sorted(layer_table(trace).items())
            }
            for trace in runner.traces
        },
    }
    report_path = os.path.join(work_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, value in machine.items():
        print(f"machine {key}: {value}")
    for command in runner.commands:
        if command.failure:
            print(f"FAILED {command.label}: {command.failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<52} {failed_frac:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} processes)")
    print(f"report {os.path.relpath(report_path, ROOT)}  spans {os.path.relpath(spans_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
