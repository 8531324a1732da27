"""Oracle self-tests: these run before anything else is trusted."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feaslearn import feasibility as fs
from feaslearn import models, oracle
from feaslearn.data import Dataset
from feaslearn.errors import NumericError, ParameterError, ShapeError
from feaslearn.models import LinearModel
from feaslearn.trainers import TrainerConfig, train


def test_finite_diff_on_quadratic():
    grad = oracle.finite_diff_grad(lambda thetas: 0.5 * np.vecdot(thetas, thetas),
                                   np.array([1.0, 2.0]), h=1e-5)
    assert np.allclose(grad, [1.0, 2.0], atol=1e-8)


def test_finite_diff_constant_function():
    grad = oracle.finite_diff_grad(lambda thetas: np.full(len(thetas), 3.5),
                                   np.array([0.3, -1.2, 4.0]))
    assert np.allclose(grad, 0.0)


def test_finite_diff_rejects_bad_step():
    for h in (0.0, math.nan):  # NaN used to pass the check
        with pytest.raises(ParameterError, match="h must be positive"):
            oracle.finite_diff_grad(lambda thetas: np.zeros(len(thetas)), np.zeros(2), h=h)


def test_cserm_identity_hand_instance():
    g = np.array([0.6, 0.3])
    lam_star = fs.analytic_dual_opt(g, 0.51, 2.0)
    lhs = fs.lagrangian_alpha(g, 0.51, lam_star, 2.0)
    rhs = fs.cserm_objective(g, 0.51, 2.0)
    assert lhs == pytest.approx(0.0081, abs=1e-15)
    assert abs(lhs - rhs) < 1e-15


def test_cserm_identity_feasible_case_is_zero():
    g = np.array([0.1, 0.2])
    eps = 0.5  # above max(g): both sides exactly zero
    lam_star = fs.analytic_dual_opt(g, eps, 3.0)
    assert fs.lagrangian_alpha(g, eps, lam_star, 3.0) == 0.0
    assert fs.cserm_objective(g, eps, 3.0) == 0.0


def test_cserm_identity_thousand_trials():
    report = oracle.check_cserm_identity(n_trials=1000, tol=1e-10, seed=0)
    assert report["passed"], report
    assert report["max_discrepancy"] <= 1e-10


def _cserm_identity_one_trial_at_a_time(n_trials, tol, seed):
    """Reference: check_cserm_identity as a loop with three value calls per trial."""
    rng = np.random.default_rng(seed)
    discs, failures = [], []
    for trial in range(n_trials):
        family = oracle.DEFAULT_FAMILIES[trial % len(oracle.DEFAULT_FAMILIES)]
        model, theta, batch, kind = oracle.random_problem(family, rng)
        g = models.per_sample_loss(kind, model.forward(theta, batch.features), batch.targets)
        if rng.random() < 0.5:
            eps = float(rng.uniform(0.0, 1.5))
        else:
            eps = rng.uniform(0.0, 1.5, size=g.shape)
        alpha = float(10.0 ** rng.uniform(-2, 2))
        lam_star = fs.analytic_dual_opt(g, eps, alpha)
        disc = abs(fs.lagrangian_alpha(g, eps, lam_star, alpha) - fs.cserm_objective(g, eps, alpha))
        discs.append(disc)
        if not disc <= tol:
            failures.append({"trial": trial, "family": family, "alpha": alpha, "discrepancy": disc})
    return {"check": "cserm_identity", "passed": not failures, "n_trials": n_trials,
            "tol": tol, "max_discrepancy": float(np.max(discs)), "failures": failures}


@pytest.mark.parametrize("n_trials", [1, 5, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_cserm_identity_equals_one_trial_at_a_time(seed, n_trials):
    # at the smallest positive tol, every trial whose discrepancy exceeds one
    # subnormal is a failure, so the lists compare the discrepancies bit by bit
    expected = _cserm_identity_one_trial_at_a_time(n_trials, 5e-324, seed)
    got = oracle.check_cserm_identity(n_trials=n_trials, tol=5e-324, seed=seed)
    assert got == expected
    assert all(type(f["trial"]) is int and type(f["discrepancy"]) is float for f in got["failures"])


def test_cserm_identity_groups_by_sample_count(monkeypatch):
    # one stacked call per value function and distinct sample count
    calls = []
    for name in ("analytic_dual_opt", "lagrangian_alpha", "cserm_objective"):
        real = getattr(fs, name)
        monkeypatch.setattr(fs, name, lambda *args, real=real, name=name:
                            calls.append((name, np.shape(args[0]))) or real(*args))
    oracle.check_cserm_identity(n_trials=200, seed=0)
    sizes = sorted({shape[1] for _, shape in calls})
    assert sizes == list(range(3, oracle.MAX_ROWS + 1))
    assert len(calls) == 3 * len(sizes)
    assert sum(shape[0] for name, shape in calls if name == "cserm_objective") == 200


def test_slack_inner_min_zero_multipliers():
    # g = 0.4 meets eps = 0.5, so the maximizer row alpha [g - eps]_+ is lam = 0
    assert fs.analytic_dual_opt([0.4], 0.5, 2.0).tolist() == [0.0]
    report = oracle.check_slack_inner_min(np.array([0.4]), 0.5, 2.0)
    assert report["passed"]
    assert report["saddle_discrepancy"] == 0.0
    # with lam = 0 the inner minimum sits at u = 0 with value 0
    assert fs.lagrangian_rfl_slack([0.4], 0.5, [0.0], [0.0], 2.0) == 0.0


def test_slack_inner_min_hand_grid():
    # u* = lam/alpha = 0.09; sweep u' over [0, 1] step 0.01
    g, eps, alpha = np.array([0.6]), 0.51, 2.0
    lam = np.array([0.18])
    base = fs.lagrangian_rfl_slack(g, eps, lam / alpha, lam, alpha)
    for u in np.arange(0.0, 1.0 + 1e-12, 0.01):
        assert fs.lagrangian_rfl_slack(g, eps, np.array([u]), lam, alpha) >= base - 1e-12
    assert np.allclose(lam / alpha, [0.09])


def test_slack_minimum_equals_regularized_value_in_lam():
    # the minimized slack form agrees with the regularized dual value for any lam
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        g = rng.uniform(0, 3, n)
        eps = rng.uniform(0, 1, n)
        alpha = float(10.0 ** rng.uniform(-1, 1))
        lam = rng.uniform(0, 2, n)
        inner = fs.lagrangian_rfl_slack(g, eps, lam / alpha, lam, alpha)
        assert abs(inner - fs.lagrangian_alpha(g, eps, lam, alpha)) < 1e-12


def test_slack_elimination_suite_passes():
    report = oracle.slack_elimination_suite(n_trials=100, n_perturbations=100, tol=1e-10, seed=0)
    assert report["passed"], report


def _slack_inner_min_one_call_per_candidate(g, eps, alpha, n_perturbations, tol, seed):
    """Reference: check_slack_inner_min as a loop with one value call per candidate."""
    g = np.asarray(g, dtype=np.float64)
    rng = np.random.default_rng(seed)
    lam_star = fs.analytic_dual_opt(g, eps, alpha)
    lam_draws = [rng.uniform(0.0, 2.0, size=g.shape) for _ in range(5)] + [lam_star]
    worst_gap, worst_identity = -math.inf, 0.0
    for lam_vec in lam_draws:
        u_opt = fs.slack_view(lam_vec, alpha)
        base = fs.lagrangian_rfl_slack(g, eps, u_opt, lam_vec, alpha)
        worst_identity = max(worst_identity, abs(base - fs.lagrangian_alpha(g, eps, lam_vec, alpha)))
        grid = np.linspace(0.0, max(1.0, float(u_opt.max()) * 2.0), 21)
        for j in range(g.size):
            u_try = np.repeat(u_opt[None, :], grid.size, axis=0)
            u_try[:, j] = grid
            for row in u_try:
                worst_gap = max(worst_gap, base - fs.lagrangian_rfl_slack(g, eps, row, lam_vec, alpha))
        for _ in range(n_perturbations):
            u_try = np.maximum(u_opt + rng.normal(scale=0.5, size=g.shape), 0.0)
            worst_gap = max(worst_gap, base - fs.lagrangian_rfl_slack(g, eps, u_try, lam_vec, alpha))
    saddle_gap = abs(fs.lagrangian_alpha(g, eps, lam_star, alpha) - fs.cserm_objective(g, eps, alpha))
    return {"check": "slack_inner_min",
            "passed": worst_gap <= tol and worst_identity <= tol and saddle_gap <= tol, "tol": tol,
            "worst_inner_gap": worst_gap, "worst_identity_discrepancy": worst_identity,
            "saddle_discrepancy": saddle_gap}


@pytest.mark.parametrize("case", range(48))
def test_slack_inner_min_matches_per_candidate_loop(case):
    rng = np.random.default_rng(1000 + case)
    # cases 40-47 reach the lengths where the stack's layout differs most from one row
    n = 1 if case < 8 else int(rng.integers(1, 10)) if case < 40 else int(rng.integers(10, 42))
    g = rng.uniform(0.0, 3.0, n)
    eps = rng.uniform(0.0, 1.5, n) if case % 2 else float(rng.uniform(0.0, 1.5))
    alpha = float(10.0 ** rng.uniform(-2, 2))
    n_perturbations = 0 if case % 4 == 1 else int(rng.integers(1, 120))
    seed = int(rng.integers(0, 2**31))
    expected = _slack_inner_min_one_call_per_candidate(g, eps, alpha, n_perturbations, 1e-10, seed)
    got = oracle.check_slack_inner_min(g, eps, alpha, n_perturbations=n_perturbations,
                                       tol=1e-10, seed=seed)
    assert got == expected
    assert got["passed"]


def test_suite_at_verify_defaults_equals_per_candidate_reference(monkeypatch):
    stacked = oracle.slack_elimination_suite()
    monkeypatch.setattr(oracle, "check_slack_inner_min", _slack_inner_min_one_call_per_candidate)
    assert oracle.slack_elimination_suite() == stacked


@pytest.mark.parametrize("call,error,match", [
    (lambda: oracle.slack_elimination_suite(n_trials=0), ParameterError, "n_trials must be at least 1"),
    (lambda: oracle.slack_elimination_suite(n_trials=2, n_perturbations=-1), ParameterError,
     "n_perturbations must be non-negative"),
    (lambda: oracle.check_slack_inner_min([0.6], 0.5, 1.0, n_perturbations=-1), ParameterError,
     "n_perturbations must be non-negative"),
    (lambda: oracle.check_slack_inner_min([], 0.5, 1.0), ShapeError,
     r"g must be a non-empty vector, got shape \(0,\)"),
    (lambda: oracle.check_slack_inner_min(np.ones((2, 2)), 0.5, 1.0), ShapeError,
     r"g must be a non-empty vector, got shape \(2, 2\)"),
    (lambda: oracle.check_slack_inner_min([0.6, 0.1], [0.5], 1.0), ShapeError,
     r"eps must be a scalar or of g's length 2, got shape \(1,\)"),
    (lambda: oracle.check_cserm_identity(n_trials=-1), ParameterError, "n_trials must be at least 1"),
    (lambda: oracle.check_cserm_identity(n_trials=0), ParameterError, "n_trials must be at least 1"),
    (lambda: oracle.gradient_check_report(n_draws=0), ParameterError, "n_draws must be at least 1"),
    (lambda: oracle.gradient_check_report(families=()), ParameterError,
     "families must name at least one model family"),
], ids=["suite_no_trials", "suite_negative_perturbations", "check_negative_perturbations",
        "empty_g", "matrix_g", "eps_length", "cserm_negative_trials",
        "cserm_no_trials", "gradients_no_draws", "gradients_no_families"])
def test_bad_oracle_input_is_a_parameter_error(call, error, match):
    # each used to end in a bare NumPy error or a report that checked nothing
    with pytest.raises(error, match=match):
        call()


def test_slack_inner_min_fails_on_non_optimal_slack(monkeypatch):
    monkeypatch.setattr(fs, "slack_view", lambda lam, alpha: np.asarray(lam) / alpha + 0.05)
    report = oracle.check_slack_inner_min(np.array([0.9, 0.2, 1.4]), 0.3, 2.0)
    assert not report["passed"]
    assert report["worst_inner_gap"] > 1e-10


def test_slack_inner_min_fails_on_nan_value(monkeypatch):
    original = fs.lagrangian_rfl_slack
    monkeypatch.setattr(fs, "lagrangian_rfl_slack", lambda *args: original(*args) * math.nan)
    report = oracle.check_slack_inner_min(np.array([0.9, 0.2, 1.4]), 0.3, 2.0, n_perturbations=5)
    assert not report["passed"]
    assert math.isnan(report["worst_inner_gap"])
    assert math.isnan(report["worst_identity_discrepancy"])


def test_cserm_identity_fails_on_nan_value(monkeypatch):
    monkeypatch.setattr(fs, "lagrangian_alpha", lambda *args: math.nan)
    report = oracle.check_cserm_identity(n_trials=8, seed=0)
    assert not report["passed"]
    assert math.isnan(report["max_discrepancy"])
    assert len(report["failures"]) == 8


def test_gradient_check_all_families():
    report = oracle.gradient_check_report(n_draws=5, tol=1e-5, seed=0)
    assert report["passed"], report
    for fam in oracle.DEFAULT_FAMILIES:
        assert report["families"][fam]["rel_error"] < 1e-5


def test_gradient_check_rejects_a_bare_family_name():
    # iterated, the string would be the families "l", "i", "n", ...
    with pytest.raises(ParameterError, match="sequence of family names, got the string 'linear'"):
        oracle.gradient_check_report("linear", n_draws=1)


def _finite_diff_one_coordinate_at_a_time(f, theta, h):
    """Reference: central differences as a loop with one scalar call per probe."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        bumped = theta.copy()
        bumped[j] = theta[j] + h
        f_plus = f(bumped)
        bumped[j] = theta[j] - h
        f_minus = f(bumped)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"objective non-finite near coordinate {j}")
        grad[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def _gradient_check_one_coordinate_at_a_time(families, n_draws, tol, h, seed):
    """Reference: gradient_check_report with one forward pass per probe."""
    rng = np.random.default_rng(seed)
    out = {"check": "gradients", "tol": tol, "families": {}, "passed": True}
    for family in families:
        worst = {"rel_error": 0.0}
        for draw in range(n_draws):
            model, theta, batch, kind = oracle.random_problem(family, rng)
            weights = rng.uniform(0.1, 2.0, size=len(batch))
            eps = float(rng.uniform(0.0, 1.0))
            alpha = float(10.0 ** rng.uniform(-1, 1))

            def losses(th):
                return models.per_sample_loss(kind, model.forward(th, batch.features), batch.targets)

            def penalty_value(th):
                clamped = np.maximum(losses(th) - eps, 0.0)
                return 0.5 * alpha * float(clamped @ clamped)

            checks = [("weighted", weights, lambda th: float(weights @ losses(th))),
                      ("envelope", alpha * np.maximum(losses(theta) - eps, 0.0), penalty_value)]
            for name, w, value_fn in checks:
                analytic = models.weighted_loss_grad(model, theta, batch, w, kind)
                numeric = _finite_diff_one_coordinate_at_a_time(value_fn, theta, h)
                scale = max(float(np.linalg.norm(numeric)), 1e-8)
                rel = float(np.linalg.norm(analytic - numeric)) / scale
                if rel > worst["rel_error"]:
                    coord = int(np.argmax(np.abs(analytic - numeric)))
                    worst = {"rel_error": rel, "draw": draw, "gradient": name,
                             "coordinate": coord, "analytic": float(analytic[coord]),
                             "numeric": float(numeric[coord])}
        out["families"][family] = worst
        if worst["rel_error"] > tol:
            out["passed"] = False
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_check_equals_one_coordinate_at_a_time_loop(seed):
    args = dict(n_draws=20, tol=1e-5, h=1e-6, seed=seed)
    expected = _gradient_check_one_coordinate_at_a_time(oracle.DEFAULT_FAMILIES, **args)
    assert oracle.gradient_check_report(**args) == expected


def test_finite_diff_probes_and_values_match_the_loop():
    rng = np.random.default_rng(5)
    theta, h = rng.normal(size=4), 1e-6
    seen = []

    def stacked(thetas):
        seen.append(thetas.copy())
        return np.vecdot(np.sin(thetas), np.arange(1.0, 5.0)) + np.vecdot(thetas, thetas)

    grad = oracle.finite_diff_grad(stacked, theta, h=h)
    [probes] = seen  # one call for all 2P probes
    for j in range(4):
        for row, sign in ((probes[j], 1.0), (probes[4 + j], -1.0)):
            expected = theta.copy()
            expected[j] = theta[j] + sign * h
            assert np.array_equal(row, expected)
    reference = _finite_diff_one_coordinate_at_a_time(lambda th: float(stacked(th[None])[0]), theta, h)
    assert np.array_equal(grad, reference)


def test_finite_diff_names_the_non_finite_coordinate():
    def stacked(thetas):
        values = np.zeros(len(thetas))
        values[[4 + 2, 3]] = [math.inf, math.nan]  # minus probe of 2, plus probe of 3
        return values

    with pytest.raises(NumericError, match="coordinate 2"):
        oracle.finite_diff_grad(stacked, np.zeros(4))


def test_finite_diff_needs_one_value_per_probe():
    with pytest.raises(ShapeError, match="6 values"):
        oracle.finite_diff_grad(lambda thetas: 0.5 * float(thetas[0] @ thetas[0]), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(oracle.DEFAULT_FAMILIES), seed=st.integers(0, 2**32 - 1),
       extra_rows=st.integers(0, 5))
def test_stacked_forward_slices_equal_model_forward_bitwise(family, seed, extra_rows):
    rng = np.random.default_rng(seed)
    model, theta, batch, _ = oracle.random_problem(family, rng)
    # probe-like rows, as finite_diff_grad builds them, plus free draws
    p = model.n_params
    probes = np.concatenate([theta + 1e-6 * np.eye(p), theta - 1e-6 * np.eye(p),
                             rng.normal(size=(extra_rows, p))])
    stacked, _ = model.forward_cache(probes, model.featurize(batch.features))
    single = [model.forward(th, batch.features) for th in probes]
    assert stacked.shape == (len(probes),) + single[0].shape
    for s, preds in enumerate(single):
        assert np.array_equal(stacked[s], preds)


def brute_force_feasible(dataset: Dataset, spec, model: models.Model,
                         grid=(-5.0, 5.0, 201), tol: float = 1e-6) -> dict:
    """Exhaustive grid search for parameters meeting every constraint.

    Only for models with one or two parameters; every parameter sweeps
    ``np.linspace(*grid)``. Returns a witness when some grid point has max
    violation <= tol; otherwise the grid minimum of the max violation stands
    as an infeasibility certificate (valid up to grid resolution and the
    smoothness of the losses).
    """
    if model.n_params > 2:
        raise ParameterError("brute force search supports at most 2 parameters")
    kind = models.loss_kind(dataset.task)
    axis = np.linspace(float(grid[0]), float(grid[1]), int(grid[2]))
    best_theta, best_maxviol = None, math.inf
    for point in itertools.product(axis, repeat=model.n_params):
        theta = np.array(point, dtype=np.float64)
        g = models.per_sample_loss(kind, model.forward(theta, dataset.features), dataset.targets)
        maxviol = float(np.maximum(fs.violations(g, spec), 0.0).max())
        if maxviol < best_maxviol:
            best_theta, best_maxviol = theta, maxviol
    feasible = best_maxviol <= tol
    return {"feasible": feasible, "witness": best_theta.tolist() if feasible else None,
            "min_max_violation": best_maxviol}


def _constant_predictor_dataset(base: Dataset) -> Dataset:
    return Dataset(features=np.ones((base.n_samples, 1)), targets=base.targets,
                   ids=base.ids.copy(), task=base.task)


def test_brute_force_infeasible_conflicting_pairs():
    from feaslearn.data import gen_conflicting_pairs
    ds = _constant_predictor_dataset(gen_conflicting_pairs(1, 1, 2.0, 0))
    report = brute_force_feasible(ds, 0.0, LinearModel(1), grid=(-6.0, 6.0, 601))
    assert not report["feasible"]
    # midpoint is the optimum: max squared error exactly 1; allow grid slack
    assert report["min_max_violation"] >= 1.0 - 0.05
    assert report["witness"] is None


def test_brute_force_feasible_with_loose_bound():
    from feaslearn.data import gen_conflicting_pairs
    pairs = gen_conflicting_pairs(1, 1, 2.0, 0)
    ds = _constant_predictor_dataset(pairs)
    midpoint = pairs.targets.mean()
    # eps = 1 makes the midpoint the unique feasible constant, so the
    # feasibility tolerance must absorb the grid spacing
    report = brute_force_feasible(ds, 1.0, LinearModel(1), grid=(-6.0, 6.0, 601), tol=0.05)
    assert report["feasible"]
    assert abs(report["witness"][0] - midpoint) < 0.05


def test_brute_force_single_sample_interpolation():
    ds = Dataset(features=np.array([[2.0]]), targets=np.array([3.0]),
                 ids=np.array([0]), task="regression")
    report = brute_force_feasible(ds, 0.0, LinearModel(1), grid=(-5.0, 5.0, 201))
    assert report["feasible"]
    assert report["witness"][0] == pytest.approx(1.5, abs=1e-12)


def test_brute_force_agrees_with_trainer_on_feasible_problem():
    # exact linear relation: trainer reaches ~zero violation, oracle concurs
    x = np.linspace(0.5, 2.0, 6)
    ds = Dataset(features=x[:, None], targets=2.0 * x, ids=np.arange(6), task="regression")
    model = LinearModel(1)
    cfg = TrainerConfig(method="fl", eta_theta=1e-3, eta_lambda=0.1, eps=0.05,
                        epochs=1000, primal_optimizer="sgd", seed=0)
    record = train(cfg, model, ds)
    trained_viol = max(0.0, record.trajectory[-1]["train_max_loss"] - 0.05)
    assert trained_viol <= 1e-6
    report = brute_force_feasible(ds, 0.05, model, grid=(-5.0, 5.0, 201), tol=1e-6)
    assert report["feasible"]


def test_brute_force_rejects_large_models():
    ds = Dataset(features=np.ones((2, 3)), targets=np.zeros(2), ids=np.arange(2), task="regression")
    with pytest.raises(ParameterError):
        brute_force_feasible(ds, 0.0, LinearModel(3))


def test_random_problem_unknown_family():
    with pytest.raises(ParameterError):
        oracle.random_problem("resnet", np.random.default_rng(0))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
@pytest.mark.parametrize("check", [
    lambda tol: oracle.check_cserm_identity(n_trials=1, tol=tol),
    lambda tol: oracle.check_slack_inner_min([0.6, 0.1], 0.5, 1.0, n_perturbations=1, tol=tol),
    lambda tol: oracle.gradient_check_report(n_draws=1, tol=tol),
], ids=["check_cserm_identity", "check_slack_inner_min", "gradient_check_report"])
def test_non_positive_tol_is_rejected(check, tol):
    # a NaN tol used to pass the check; gradient_check_report had none and passed every draw
    with pytest.raises(ParameterError, match="tol must be positive"):
        check(tol)
