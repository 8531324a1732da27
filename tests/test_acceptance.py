"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Budgets are generous upper bounds; the substantive tolerances are
pinned in each test body.
"""

import hashlib
import os
import time

import numpy as np

from feaslearn import cli, data, metrics, models, oracle, trainers
from feaslearn.data import cosine_wave, gen_conflicting_pairs, gen_noisy_cosine, gen_two_moons
from feaslearn.models import MLP, LinearModel, PolyModel, classification_margins
from feaslearn.trainers import TrainerConfig, train

SEEDS = (0, 1, 2, 3, 4)


def _report(pid: str, ok: bool, detail: str):
    print(f"\n{pid} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{pid}: {detail}"


def test_p1_analytic_dual_identity():
    start = time.perf_counter()
    report = oracle.check_cserm_identity(n_trials=1000, tol=1e-10, seed=0)
    elapsed = time.perf_counter() - start
    ok = report["passed"] and elapsed < 10.0
    _report("P1", ok,
            f"1000 trials, max |L_alpha(lam*) - penalty| = {report['max_discrepancy']:.3e} "
            f"(tol 1e-10), {elapsed:.1f}s")


def test_p2_slack_inner_minimum():
    start = time.perf_counter()
    report = oracle.slack_elimination_suite(n_trials=100, n_perturbations=100, tol=1e-10, seed=0)
    elapsed = time.perf_counter() - start
    ok = report["passed"] and elapsed < 10.0
    _report("P2", ok,
            f"100 trials, worst inner gap = {report['worst_inner_gap']:.3e}, "
            f"worst identity discrepancy = {report['worst_identity_discrepancy']:.3e} "
            f"(tol 1e-10), {elapsed:.1f}s")


def test_p3_gradient_correctness():
    start = time.perf_counter()
    report = oracle.gradient_check_report(n_draws=20, tol=1e-5, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(f["rel_error"] for f in report["families"].values())
    ok = report["passed"] and elapsed < 30.0
    _report("P3", ok,
            f"20 draws x {len(report['families'])} families, worst rel error = {worst:.3e} "
            f"(tol 1e-5), {elapsed:.1f}s")


def test_p4_equivalent_trajectories():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    ds = data.Dataset(features=rng.normal(size=(16, 2)), targets=rng.normal(size=16),
                      ids=np.arange(16), task=data.REGRESSION)
    model = MLP((2, 8, 1), task=data.REGRESSION)
    kw = dict(eta_theta=5e-3, eps=0.05, epochs=100, primal_optimizer="sgd", seed=0)
    # eta_lambda = alpha: rfl's own ascent step is the best response alpha * [g - eps]_+
    rec_rfl = train(TrainerConfig(method="rfl", alpha=2.0, eta_lambda=2.0, **kw), model, ds)
    rec_cserm = train(TrainerConfig(method="cserm", alpha=2.0, **kw), model, ds)
    dist = float(np.linalg.norm(rec_rfl.params.theta - rec_cserm.params.theta))
    rows_equal = all(
        ra["train_mean_loss"] == rb["train_mean_loss"] and ra["train_max_loss"] == rb["train_max_loss"]
        for ra, rb in zip(rec_rfl.trajectory, rec_cserm.trajectory))
    elapsed = time.perf_counter() - start
    ok = dist <= 1e-10 and rows_equal and elapsed < 30.0
    _report("P4", ok,
            f"rfl (eta_lambda = alpha) vs clamped-squared over 100 full-batch steps: "
            f"final parameter distance = {dist:.3e} (tol 1e-10), "
            f"per-step losses identical = {rows_equal}, {elapsed:.1f}s")


def test_p5_polynomial_band_fit():
    start = time.perf_counter()
    eps = 0.2  # one noise standard deviation, as a squared-error bound
    fl_feasible, erm_interpolates, smoother = [], [], []
    for seed in SEEDS:
        ds = gen_noisy_cosine(20, 0.2, seed)
        x = ds.features[:, 0]
        model = PolyModel(20, "chebyshev", (0.0, 1.0))
        rec_fl = train(TrainerConfig(method="fl", eta_theta=5e-3, eta_lambda=0.5, eps=eps,
                                     epochs=3000, primal_optimizer="sgd", seed=seed), model, ds)
        rec_erm = train(TrainerConfig(method="erm", eta_theta=0.3, epochs=3000,
                                      primal_optimizer="sgd", seed=seed), model, ds)
        viol = max(0.0, min(r["train_max_loss"] for r in rec_fl.trajectory) - eps)
        fl_feasible.append(viol <= 1e-4)
        erm_interpolates.append(min(r["train_mean_loss"] for r in rec_erm.trajectory) <= 1e-6)
        grid = np.linspace(x.min(), x.max(), 1001)[:, None]
        curve = cosine_wave(grid[:, 0])
        se_fl = float(np.max((model.forward(rec_fl.params.theta, grid) - curve) ** 2))
        se_erm = float(np.max((model.forward(rec_erm.params.theta, grid) - curve) ** 2))
        smoother.append(se_fl < se_erm)
    elapsed = time.perf_counter() - start
    ok = (all(fl_feasible) and all(erm_interpolates) and sum(smoother) >= 4
          and elapsed < 120.0)
    _report("P5", ok,
            f"degree-20 band fit: feasible {sum(fl_feasible)}/5 (viol<=1e-4 within 3000<=50k "
            f"full-batch steps), interpolation {sum(erm_interpolates)}/5 (MSE<=1e-6), "
            f"band solution smoother between points {sum(smoother)}/5 (need >=4), {elapsed:.1f}s")


def test_p6_infeasibility_dynamics():
    start = time.perf_counter()
    ds = gen_conflicting_pairs(8, 2, 2.0, 0)
    model = LinearModel(2)
    kw = dict(eta_theta=1e-4, eta_lambda=1e-2, eps=0.0, epochs=5000,
              primal_optimizer="sgd", seed=0)
    rec_fl = train(TrainerConfig(method="fl", **kw), model, ds)
    rec_rfl = train(TrainerConfig(method="rfl", alpha=1.0, **kw), model, ds)
    max_fl = float(rec_fl.multipliers.max())
    max_rfl = float(rec_rfl.multipliers.max())
    V = max(r["max_step_violation"] for r in rec_rfl.trajectory)
    bound = 1.0 * V + 1e-2 * V
    bounded = bool(np.all(rec_rfl.multipliers <= bound))
    elapsed = time.perf_counter() - start
    ok = (rec_fl.status == "completed" and rec_rfl.status == "completed"
          and max_fl > 10.0 * max_rfl and bounded and elapsed < 60.0)
    _report("P6", ok,
            f"unsatisfiable bounds after 5k steps: max multiplier {max_fl:.1f} (hard) vs "
            f"{max_rfl:.2f} (relaxed), ratio {max_fl / max_rfl:.1f} (need >10); relaxed "
            f"multipliers within alpha*V + eta*V = {bound:.2f}: {bounded}; {elapsed:.1f}s")


def test_p7_two_moons_multiplier_informativity():
    start = time.perf_counter()
    eps = -np.log(0.9)
    informative, satisfied = [], []
    for seed in SEEDS:
        ds = gen_two_moons(1000, 0.1, seed)
        model = MLP((2, 70, 70, 2))
        cfg = TrainerConfig(method="fl", eta_theta=5e-4, eta_lambda=1e-2, eps=eps,
                            batch_size=512, epochs=250, primal_optimizer="adamw", seed=seed)
        rec = train(cfg, model, ds)
        sat = rec.trajectory[-1]["sat_fraction"]
        logits = model.forward(rec.params.theta, ds.features)
        margins = classification_margins(logits, ds.targets)
        rho, degenerate = metrics.margin_multiplier_correlation(rec.multipliers, margins)
        informative.append((not degenerate) and rho > 0.3)
        satisfied.append(sat >= 0.95)
    elapsed = time.perf_counter() - start
    ok = sum(informative) >= 4 and all(satisfied) and elapsed < 180.0
    _report("P7", ok,
            f"boundary samples carry large multipliers: spearman>0.3 in "
            f"{sum(informative)}/5 seeds (need >=4); satisfaction>=0.95 in "
            f"{sum(satisfied)}/5; {elapsed:.1f}s")


def _outlier_mixture(seed: int, n: int) -> data.Dataset:
    ds = gen_noisy_cosine(n, 0.1, seed)
    return data.with_label_outliers(ds, 0.05, 1.2, seed, placement="upper_window")


def test_p8_tail_shaping(tmp_path):
    start = time.perf_counter()
    quantiles = (0.9, 0.95, 0.99)
    wins = {q: 0 for q in quantiles}
    erm_means, rfl_means = [], []
    for seed in SEEDS:
        train_ds = _outlier_mixture(seed, 300)
        test_ds = _outlier_mixture(seed + 1000, 600)
        model = PolyModel(8, "chebyshev", (0.0, 1.0))
        rec_erm = train(TrainerConfig(method="erm", eta_theta=1e-2, epochs=2000,
                                      primal_optimizer="adamw", seed=seed),
                        model, train_ds, test_ds)
        rec_rfl = train(TrainerConfig(method="rfl", alpha=1.0, eps=0.02, eta_lambda=0.1,
                                      eta_theta=1e-2, epochs=2000, primal_optimizer="adamw",
                                      seed=seed), model, train_ds, test_ds)
        # persist and compare through the CLI artifact path
        erm_dir = tmp_path / f"erm_{seed}"
        rfl_dir = tmp_path / f"rfl_{seed}"
        trainers.save_run(rec_erm, erm_dir)
        trainers.save_run(rec_rfl, rfl_dir)
        cli.compare([str(erm_dir), str(rfl_dir)], quantiles=list(quantiles),
                    out_dir=str(tmp_path / f"cmp_{seed}"))
        curves = {}
        for label in ("erm", "rfl_alpha1.0"):
            path = tmp_path / f"cmp_{seed}" / f"cvar_{label}_test.csv"
            rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
            curves[label] = {float(q): float(v) for q, v in rows}
        for q in quantiles:
            wins[q] += curves["rfl_alpha1.0"][q] <= curves["erm"][q]
        erm_means.append(float(rec_erm.test_losses.mean()))
        rfl_means.append(float(rec_rfl.test_losses.mean()))
    mean_ratio = float(np.mean(rfl_means) / np.mean(erm_means))
    elapsed = time.perf_counter() - start
    ok = all(wins[q] >= 4 for q in quantiles) and mean_ratio <= 1.25 and elapsed < 180.0
    _report("P8", ok,
            f"tail shaping on 5% outlier-label regression: cvar wins "
            f"{ {q: wins[q] for q in quantiles} } (need >=4 each); mean test loss ratio "
            f"{mean_ratio:.3f} (need <=1.25); {elapsed:.1f}s")


def test_p9_cost_parity():
    start = time.perf_counter()
    eps = -np.log(0.9)
    ds = gen_two_moons(1000, 0.1, 0)

    def run(method, seed, epochs=250):
        model = MLP((2, 70, 70, 2))
        cfg = TrainerConfig(method=method, eta_theta=5e-4, eta_lambda=1e-2, eps=eps,
                            batch_size=512, epochs=epochs, primal_optimizer="adamw", seed=seed)
        return train(cfg, model, ds)

    erm_full = run("erm", 0)
    fl_full = run("fl", 0)
    counts_equal = erm_full.train_pass_counts == fl_full.train_pass_counts
    # Shared-host load is strictly additive noise, so timing follows best-of-N
    # practice (as timeit does): GC off while measuring, many short alternating
    # slices per repetition so both methods see the same load profile, then
    # compare the least-contaminated repetition totals.
    import gc
    erm_totals, fl_totals = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(5):
            run("erm", rep, epochs=10)
            run("fl", rep, epochs=10)
            t_erm = t_fl = 0.0
            for i in range(16):
                t_erm += run("erm", i, epochs=25).wall_clock_s
                t_fl += run("fl", i, epochs=25).wall_clock_s
            erm_totals.append(t_erm)
            fl_totals.append(t_fl)
    finally:
        if gc_was_enabled:
            gc.enable()
    overhead = min(fl_totals) / min(erm_totals) - 1.0
    elapsed = time.perf_counter() - start
    ok = counts_equal and overhead <= 0.10
    _report("P9", ok,
            f"pass counts identical = {counts_equal} "
            f"({erm_full.train_pass_counts}); wall-clock overhead "
            f"{100 * overhead:+.1f}% from best-of-5 totals (need <=10%); {elapsed:.1f}s")


def test_p10_determinism(tmp_path):
    start = time.perf_counter()
    hashes = []
    configs = {
        "moons": {
            "name": "det_moons",
            "dataset": {"generator": "two_moons", "n": 200, "noise": 0.1, "seed": 0},
            "split": {"test_fraction": 0.2, "seed": 0},
            "model": {"family": "mlp", "layers": [2, 16, 2]},
            "trainer": {"method": "fl", "eta_theta": 5e-4, "eta_lambda": 1e-2,
                        "eps": 0.2, "batch_size": 64, "epochs": 10,
                        "primal_optimizer": "adamw"},
            "seeds": [0],
        },
        "poly": {
            "name": "det_poly",
            "dataset": {"generator": "noisy_cosine", "n": 20, "sigma": 0.2, "seed": 0},
            "model": {"family": "poly", "degree": 20, "basis": "chebyshev",
                      "domain": [0.0, 1.0]},
            "trainer": {"method": "rfl", "alpha": 1.0, "eta_theta": 5e-3,
                        "eta_lambda": 0.5, "eps": 0.2, "epochs": 100,
                        "primal_optimizer": "sgd"},
            "seeds": [0],
        },
    }
    identical = True
    for tag, cfg in configs.items():
        digests = []
        for attempt in ("a", "b"):
            cfg = dict(cfg)
            cfg["output_dir"] = str(tmp_path / f"{tag}_{attempt}")
            cli.run_experiment(cfg)
            blob = open(os.path.join(cfg["output_dir"], "seed_0", "trajectory.csv"), "rb").read()
            digests.append(hashlib.sha256(blob).hexdigest())
        hashes.append((tag, digests[0][:12]))
        identical = identical and digests[0] == digests[1]
    elapsed = time.perf_counter() - start
    _report("P10", identical,
            f"rerun trajectory checksums identical for {[t for t, _ in hashes]}; {elapsed:.1f}s")
