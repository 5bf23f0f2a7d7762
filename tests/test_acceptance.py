"""End-to-end acceptance checks.

Each test covers one headline requirement at its stated tolerance and budget
and prints a single PASS/FAIL line (visible with pytest -s or on failure).
"""

import filecmp
import time
from dataclasses import replace

import numpy as np
import pytest

from mtil import cli, control_math as cm, exp_harness, lti_env, mtil_learn
from mtil import theory_probe
from mtil.data_gen import SeedTree, rollout_expert
from mtil.eval_metrics import excess_risk


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _scaled_sweep_config(parallelism=1):
    return exp_harness.config_from_dict(
        {
            "sweep": {"trials_system": 4, "trials_noise": 5},
            "run": {"parallelism": parallelism},
        }
    )


@pytest.fixture(scope="module")
def scaled_sweep(tmp_path_factory):
    """Shared scaled sweep: rows plus results.csv at parallelism 1 and 8."""
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.perf_counter()
    cfg1 = _scaled_sweep_config(parallelism=1)
    rows = exp_harness.run_sweep(cfg1)
    exp_harness.write_results(rows, str(out / "p1"), cfg1)
    cfg8 = _scaled_sweep_config(parallelism=8)
    exp_harness.write_results(exp_harness.run_sweep(cfg8), str(out / "p8"), cfg8)
    elapsed = time.perf_counter() - t0
    return rows, str(out / "p1" / "results.csv"), str(out / "p8" / "results.csv"), elapsed


def test_criterion_1_solver_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_dare = 0.0
    worst_lyap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(cm.spectral_radius(A), 0.5)
        B = rng.standard_normal((n, m))
        Q = np.eye(n)
        R = np.eye(m)
        sol = cm.solve_dare(A, B, Q, R)
        P = sol.P
        BtPB = B.T @ P @ B + R
        res = (
            A.T @ P @ A
            - P
            - (A.T @ P @ B) @ np.linalg.solve(BtPB, B.T @ P @ A)
            + Q
        )
        worst_dare = max(worst_dare, np.linalg.norm(res) / np.linalg.norm(P))
        S = cm.solve_discrete_lyapunov(A, Q)
        lyap_res = A @ S @ A.T + Q - S
        worst_lyap = max(
            worst_lyap, np.linalg.norm(lyap_res) / np.linalg.norm(S)
        )
    scalar = cm.solve_dare(
        np.array([[0.5]]), np.array([[1.0]]), np.eye(1), np.eye(1)
    )
    p_err = abs(scalar.P[0, 0] - 1.132782)
    k_err = abs(scalar.K[0, 0] + 0.265565)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_dare <= 1e-8
        and worst_lyap <= 1e-10
        and p_err <= 1e-5
        and k_err <= 1e-5
        and elapsed < 5.0
    )
    _report(
        1,
        "solver correctness",
        ok,
        f"dare res {worst_dare:.2e}, lyap res {worst_lyap:.2e}, "
        f"P err {p_err:.2e}, K err {k_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_noiseless_identifiability():
    t0 = time.perf_counter()
    tree = SeedTree(root=1)
    base = lti_env.get_preset("hong2021")
    gains = lti_env.synthesize_expert_family(base, np.logspace(-2.0, 2.0, 10))
    ens = lti_env.build_ensemble(base, gains)
    G = lti_env.sample_lift_map(4, 50, tree.child("lift").stream())
    lifted = lti_env.lift_ensemble(ens, G)
    truth = lifted.truth
    system = replace(lifted.system, sigma_z=0.0)
    noiseless = [lti_env.make_task(system, t.K) for t in lifted.tasks]
    stacks = [
        rollout_expert(system, t, 20, 2, tree.child("d", i).stream())
        for i, t in enumerate(noiseless[:9])
    ]
    pre = mtil_learn.pretrain_alternating(
        mtil_learn.stacked_grams(stacks), 2 * 20, 4, rng=tree.child("init").stream()
    )
    cos_min = mtil_learn.principal_cosines(pre.phi_hat, truth.phi_star)[-1]
    sub = np.sqrt(1.0 - cos_min**2)
    tgt = rollout_expert(system, noiseless[9], 20, 2, tree.child("t").stream())
    (F,), _ = mtil_learn.direct_ols(
        mtil_learn.prefix_grams(tgt, 20, [2]).project(pre.phi_hat)
    )
    param = np.linalg.norm(F @ pre.phi_hat - noiseless[9].K)
    elapsed = time.perf_counter() - t0
    ok = param <= 1e-6 and sub <= 1e-6 and elapsed < 30.0
    _report(
        2,
        "noiseless identifiability",
        ok,
        f"param err {param:.2e}, subspace {sub:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_learning_curve_trend(scaled_sweep):
    rows, _, _, elapsed = scaled_sweep

    def med(method, n2, metric):
        return np.median(
            [
                getattr(r, metric)
                for r in rows
                if r.method == method and r.N2 == n2
            ]
        )

    def stable_frac(method, n2):
        vals = [r.stable for r in rows if r.method == method and r.N2 == n2]
        return sum(vals) / len(vals)

    track_ok = all(
        med("multitask", n2, "tracking_err") <= med("direct", n2, "tracking_err")
        for n2 in range(1, 11)
    )
    stable_ok = all(
        stable_frac("multitask", n2) >= stable_frac("direct", n2)
        for n2 in range(1, 6)
    )
    ok = track_ok and stable_ok and elapsed < 600.0
    _report(
        3,
        "learning-curve trend",
        ok,
        f"tracking medians ordered: {track_ok}, stable fractions ordered: "
        f"{stable_ok}, {elapsed:.1f}s",
    )


def test_criterion_4_excess_risk_rate():
    t0 = time.perf_counter()
    tree = SeedTree(root=7)
    base = lti_env.get_preset("hong2021")
    gains = lti_env.synthesize_expert_family(base, np.logspace(-2.0, 2.0, 10))
    ens = lti_env.lift_ensemble(
        lti_env.build_ensemble(base, gains),
        lti_env.sample_lift_map(4, 50, tree.child("lift").stream()),
    )
    phi = ens.truth.phi_star
    tgt = ens.target
    n2_grid = [4, 8, 16, 32, 64]
    medians = []
    for n2 in n2_grid:
        ers = []
        for s in range(50):
            data = rollout_expert(
                ens.system, tgt, 20, n2, tree.child("d", s).child("n", n2).stream()
            )
            (F,), _ = mtil_learn.direct_ols(
                mtil_learn.prefix_grams(data, 20, [n2]).project(phi)
            )
            ers.append(excess_risk(F @ phi, tgt.K, tgt.sigma_x))
        medians.append(np.median(ers))
    slope = np.polyfit(np.log(n2_grid), np.log(medians), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = -1.3 <= slope <= -0.7 and elapsed < 120.0
    _report(4, "excess-risk rate", ok, f"slope {slope:.3f}, {elapsed:.1f}s")


def test_criterion_5_covariance_concentration():
    t0 = time.perf_counter()
    system, task = cli._scalar_task(0.5)
    report = theory_probe.verify_covariance_concentration(
        system, task, N=250, T=20, trials=200,
        rng=SeedTree(root=0).child("covariance").stream(),
    )
    elapsed = time.perf_counter() - t0
    ok = report.failures / report.trials <= 0.1 and elapsed < 30.0
    _report(
        5,
        "covariance concentration",
        ok,
        f"failures {report.failures}/{report.trials}, {elapsed:.1f}s",
    )


def test_criterion_6_quadratic_tail_bound():
    t0 = time.perf_counter()
    report = theory_probe.verify_hanson_wright(
        np.eye(10), [0.5, 1.0, 2.0], trials=100_000,
        rng=SeedTree(root=0).child("hanson_wright").stream(),
    )
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 10.0
    _report(
        6,
        "quadratic-form tail bound",
        ok,
        f"failures {report.failures}/{report.trials}, margin "
        f"{report.margin:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_self_normalized():
    t0 = time.perf_counter()
    tree = SeedTree(root=0)
    all_passed = True
    joint_lt_union = True
    cells = []
    for H in (1, 4):
        for kind, d in (("gaussian-iid", 2), ("state-feedback", 1)):
            setup = theory_probe.MartingaleSetup(
                H=H, T=100, dim_x=d, dim_eta=d, sigma=1.0
            )
            report = theory_probe.verify_self_normalized(
                setup, delta=0.05, trials=10_000,
                rng=tree.child("self_normalized", H).child(kind).stream(),
                regressor_kind=kind,
            )
            all_passed = all_passed and report.passed
            cells.append(f"H={H}/{kind}: {report.failures}")
            if H == 4:
                joint_lt_union = joint_lt_union and (
                    report.details["mean_bound_joint"]
                    < report.details["mean_bound_union"]
                )
    elapsed = time.perf_counter() - t0
    ok = all_passed and joint_lt_union and elapsed < 60.0
    _report(
        7,
        "self-normalized martingale",
        ok,
        f"{'; '.join(cells)}; joint<union: {joint_lt_union}, {elapsed:.1f}s",
    )


def test_criterion_8_maximal_inequality():
    t0 = time.perf_counter()
    tree = SeedTree(root=0)
    margins = []
    all_passed = True
    for i, T in enumerate((1, 10, 100)):
        report = theory_probe.verify_maximal_inequality(
            T=T, trials=100_000, rng=tree.child("maximal", i).stream()
        )
        all_passed = all_passed and report.passed
        margins.append(f"T={T}: {report.margin:.3f}")
    elapsed = time.perf_counter() - t0
    ok = all_passed and elapsed < 20.0
    _report(8, "maximal inequality", ok, f"{'; '.join(margins)}, {elapsed:.1f}s")


def test_criterion_9_scalar_sandwich():
    t0 = time.perf_counter()
    report = theory_probe.verify_scalar_sandwich(
        a_cl=0.5, eps=0.05, T=200, trials=100_000,
        rng=SeedTree(root=0).child("sandwich").stream(),
    )
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 30.0
    _report(
        9,
        "scalar sandwich",
        ok,
        f"estimate {report.details['estimate']:.5f} in "
        f"[{report.details['lower']:.5f}, {report.details['upper']:.5f}], "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_tracking_bound():
    t0 = time.perf_counter()
    system, task = cli._scalar_task(0.5)
    report = theory_probe.verify_tracking_and_siss(
        system, task, K_hat=np.array([[-0.28]]), T=100,
        delta_prime=0.05, trials=10_000,
        rng=SeedTree(root=0).child("tracking").stream(),
    )
    elapsed = time.perf_counter() - t0
    se = np.sqrt(0.05 * 0.95 / report.trials)
    ok = (
        report.details["det_violations"] == 0
        and report.failures / report.trials <= 0.05 + 3 * se
        and elapsed < 30.0
    )
    _report(
        10,
        "tracking bound",
        ok,
        f"det violations {report.details['det_violations']}, high-prob "
        f"failures {report.failures}/{report.trials}, {elapsed:.1f}s",
    )


def test_criterion_11_determinism(scaled_sweep):
    _, p1, p8, elapsed = scaled_sweep
    identical = filecmp.cmp(p1, p8, shallow=False)
    ok = identical and elapsed < 600.0
    _report(
        11,
        "parallel determinism",
        ok,
        f"results.csv byte-identical at parallelism 1 vs 8: {identical}, "
        f"{elapsed:.1f}s",
    )
