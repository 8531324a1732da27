"""Independent verification machinery.

These routines validate the analytic building blocks against independent
formulas: hand-written gradients against central finite differences of the
trainer's own forward pass and losses, the closed-form dual maximizer
against direct evaluation of both objective forms, and slack elimination
against explicit perturbations of the slack-form value. The test suite
trusts the trainer only after these pass.
"""

from __future__ import annotations

import math

import numpy as np

from . import feasibility as fs
from . import models
from .data import Batch, CLASSIFICATION, REGRESSION
from .errors import NumericError, ParameterError, ShapeError

DEFAULT_FAMILIES = ("linear", "poly", "mlp_regressor", "mlp_classifier")
# The most samples a random problem holds; it holds at least 3.
MAX_ROWS = 11


def finite_diff_grad(f, theta, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a function evaluated on a stack of probes.

    With P = theta.size, ``f`` takes a (2P, P) stack whose row j is
    theta + h e_j and whose row P + j is theta - h e_j, and returns the 2P
    values of the function at those rows; coordinate j of the gradient is
    (value j - value P + j) / 2h. One call evaluates every probe, so ``f``
    can run each step of the objective once over the whole stack.

    h = 1e-6 roughly balances truncation against rounding for 64-bit values
    of order one.
    """
    if not h > 0:
        raise ParameterError("h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    p = theta.size
    probes = np.tile(theta, (2, p, 1))
    coords = np.arange(p)
    probes[0, coords, coords] = theta + h
    probes[1, coords, coords] = theta - h
    values = np.asarray(f(probes.reshape(2 * p, p)), dtype=np.float64)
    if values.shape != (2 * p,):
        raise ShapeError(f"objective must return {2 * p} values, one per probe, "
                         f"got shape {values.shape}")
    plus, minus = values[:p], values[p:]
    bad = ~(np.isfinite(plus) & np.isfinite(minus))
    if bad.any():
        raise NumericError(f"objective non-finite near coordinate {int(np.argmax(bad))}")
    return (plus - minus) / (2.0 * h)


def random_problem(family: str, rng: np.random.Generator):
    """Draw a small random (model, theta, batch, loss kind) instance of a family."""
    n = int(rng.integers(3, MAX_ROWS + 1))
    if family == "linear":
        model = models.LinearModel(int(rng.integers(1, 6)))
        theta = rng.normal(size=model.n_params)
        X = rng.normal(size=(n, model.n_features))
    elif family == "poly":
        model = models.PolyModel(int(rng.integers(1, 7)), "chebyshev", (0.0, 1.0))
        theta = rng.normal(size=model.n_params)
        X = rng.uniform(0.0, 1.0, size=(n, 1))
    elif family in ("mlp_regressor", "mlp_classifier"):
        d, hdim = int(rng.integers(1, 4)), int(rng.integers(2, 8))
        if family == "mlp_regressor":
            model = models.MLP((d, hdim, 1), task=REGRESSION)
        else:
            model = models.MLP((d, hdim, int(rng.integers(2, 5))), task=CLASSIFICATION)
        theta = model.init_params(int(rng.integers(0, 2**31))) + 0.1 * rng.normal(size=model.n_params)
        X = rng.normal(size=(n, d))
    else:
        raise ParameterError(f"unknown model family {family!r}")
    y = rng.integers(0, model.layers[-1], size=n) if model.task == CLASSIFICATION else rng.normal(size=n)
    return model, theta, Batch(np.arange(n), X, y), models.loss_kind(model.task)


def check_cserm_identity(n_trials: int = 1000, tol: float = 1e-10, seed: int = 0) -> dict:
    """Verify that the regularized dual value at its analytic maximizer equals
    the clamped-and-squared objective, on random (theta, data, eps, alpha)
    drawn from each of ``DEFAULT_FAMILIES`` in turn.

    Both sides are evaluated by independent formulas: lam = alpha [g - eps]_+
    plugged into lam^T (g - eps) - ||lam||^2 / (2 alpha) on one side, the
    direct penalty (alpha/2) ||[g - eps]_+||^2 on the other.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    if n_trials < 1:
        raise ParameterError("n_trials must be at least 1")
    rng = np.random.default_rng(seed)
    # Draw every trial first, row t of the (n_trials, MAX_ROWS) arrays holding
    # trial t's losses and bounds in its first n_t entries; then check the
    # trials of each sample count n in one stack, one alpha per row. Each
    # row's values are bit-equal to the same calls on that trial alone.
    sizes = np.empty(n_trials, dtype=np.intp)
    alphas = np.empty(n_trials)
    losses, bounds = np.empty((2, n_trials, MAX_ROWS))
    for trial in range(n_trials):
        family = DEFAULT_FAMILIES[trial % len(DEFAULT_FAMILIES)]
        model, theta, batch, kind = random_problem(family, rng)
        n = sizes[trial] = len(batch)
        losses[trial, :n] = models.per_sample_loss(kind, model.forward(theta, batch.features),
                                                   batch.targets)
        if rng.random() < 0.5:
            bounds[trial, :n] = rng.uniform(0.0, 1.5)
        else:
            bounds[trial, :n] = rng.uniform(0.0, 1.5, size=n)
        alphas[trial] = 10.0 ** rng.uniform(-2, 2)

    discs = np.empty(n_trials)
    for n in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        rows = np.flatnonzero(sizes == n)
        g, eps, alpha = losses[rows, :n], bounds[rows, :n], alphas[rows]
        lam_star = fs.analytic_dual_opt(g, eps, alpha)
        discs[rows] = np.abs(fs.lagrangian_alpha(g, eps, lam_star, alpha)
                             - fs.cserm_objective(g, eps, alpha))
    failures = [{"trial": trial, "family": DEFAULT_FAMILIES[trial % len(DEFAULT_FAMILIES)],
                 "alpha": float(alphas[trial]), "discrepancy": float(discs[trial])}
                for trial in np.flatnonzero(~(discs <= tol)).tolist()]  # a NaN fails too
    return {"check": "cserm_identity", "passed": not failures, "n_trials": n_trials,
            "tol": tol, "max_discrepancy": float(np.max(discs)), "failures": failures}


def check_slack_inner_min(g, eps, alpha: float, n_perturbations: int = 100,
                          tol: float = 1e-10, seed: int = 0) -> dict:
    """Verify slack elimination on one (g, eps, alpha) instance.

    (a) For each multiplier vector (five random non-negative draws and the
        analytic maximizer), u = lam/alpha must minimize the slack-form
        value: no perturbed u' >= 0 (coordinate grids around u plus joint
        random moves) may undercut it by more than tol.
    (b) The minimized value must equal the regularized dual value
        identically in lam, and at the analytic maximizer both orderings of
        the saddle agree with the clamped-and-squared objective.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    if n_perturbations < 0:
        raise ParameterError("n_perturbations must be non-negative")
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ShapeError(f"g must be a non-empty vector, got shape {g.shape}")
    if np.ndim(eps) and np.shape(eps) != g.shape:
        raise ShapeError(f"eps must be a scalar or of g's length {g.size}, "
                         f"got shape {np.shape(eps)}")
    n, points = g.size, 21
    rng = np.random.default_rng(seed)
    lams = np.empty((6, n))
    lams[:-1] = rng.uniform(0.0, 2.0, size=(5, n))
    lams[-1] = fs.analytic_dual_opt(g, eps, alpha)
    u_opt = fs.slack_view(lams, alpha)
    base = fs.lagrangian_rfl_slack(g, eps, u_opt, lams, alpha)
    duals = fs.lagrangian_alpha(g, eps, lams, alpha)

    # Each row's candidates: coordinate sweeps, then joint random moves. The
    # value is separable in u, so sweeping one coordinate at a time probes the
    # full minimum. Sweep (j, k) is u_opt with coordinate j set to grid[k].
    grid = np.linspace(0.0, np.maximum(1.0, 2.0 * u_opt.max(axis=1)), points, axis=-1)
    candidates = np.empty((len(lams), points * n + n_perturbations, n))
    sweeps = candidates[:, :points * n].reshape(len(lams), n, points, n)
    sweeps[...] = u_opt[:, None, None, :]
    sweeps[:, np.arange(n), :, np.arange(n)] = grid
    jumps = candidates[:, points * n:]
    np.add(u_opt[:, None, :], rng.normal(scale=0.5, size=jumps.shape), out=jumps)
    np.maximum(jumps, 0.0, out=jumps)
    values = fs.lagrangian_rfl_slack(g, eps, candidates, lams[:, None, :], alpha)

    # np.max, unlike max(), propagates NaN, so a non-finite value fails the check.
    worst_gap = float(np.max(base[:, None] - values))
    worst_identity = float(np.max(np.abs(base - duals)))
    saddle_gap = abs(float(duals[-1]) - fs.cserm_objective(g, eps, alpha))
    passed = all(math.isfinite(x) and x <= tol for x in (worst_gap, worst_identity, saddle_gap))
    return {"check": "slack_inner_min", "passed": passed, "tol": tol,
            "worst_inner_gap": worst_gap, "worst_identity_discrepancy": worst_identity,
            "saddle_discrepancy": saddle_gap}


def slack_elimination_suite(n_trials: int = 100, n_perturbations: int = 100,
                            tol: float = 1e-10, seed: int = 0) -> dict:
    """Run :func:`check_slack_inner_min` on random instances."""
    if n_trials < 1:
        raise ParameterError("n_trials must be at least 1")
    rng = np.random.default_rng(seed)
    reports = []
    for trial in range(n_trials):
        n = int(rng.integers(1, 10))
        g = rng.uniform(0.0, 3.0, size=n)
        eps = rng.uniform(0.0, 1.5, size=n) if rng.random() < 0.5 else float(rng.uniform(0.0, 1.5))
        alpha = float(10.0 ** rng.uniform(-2, 2))
        reports.append(check_slack_inner_min(g, eps, alpha, n_perturbations=n_perturbations,
                                             tol=tol, seed=int(rng.integers(0, 2**31))))
    failures = [r for r in reports if not r["passed"]]
    return {"check": "slack_elimination_suite", "passed": not failures, "n_trials": n_trials,
            "tol": tol,
            "worst_inner_gap": float(np.max([r["worst_inner_gap"] for r in reports])),
            "worst_identity_discrepancy": float(np.max([r["worst_identity_discrepancy"] for r in reports])),
            "worst_saddle_discrepancy": float(np.max([r["saddle_discrepancy"] for r in reports])),
            "n_failures": len(failures)}


def gradient_check_report(families=DEFAULT_FAMILIES, n_draws: int = 20,
                          tol: float = 1e-5, h: float = 1e-6, seed: int = 0) -> dict:
    """Compare analytic gradients against central finite differences.

    Two gradients per draw: the weighted per-sample loss gradient with random
    non-negative weights, and the clamped-and-squared penalty gradient taken
    through its envelope weights alpha [g - eps]_+. The finite differences
    run the model's own ``forward_cache`` and ``loss_kernel`` on the whole
    probe stack, the kernels of the trainer's step on one theta. Reports the
    worst relative error and the offending coordinate.
    """
    if isinstance(families, str):
        raise ParameterError(f"families must be a sequence of family names, got the string {families!r}")
    if not families:
        raise ParameterError("families must name at least one model family")
    if n_draws < 1:
        raise ParameterError("n_draws must be at least 1")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    rng = np.random.default_rng(seed)
    out = {"check": "gradients", "tol": tol, "families": {}, "passed": True}
    for family in families:
        worst = {"rel_error": 0.0}
        for draw in range(n_draws):
            model, theta, batch, kind = random_problem(family, rng)
            weights = rng.uniform(0.1, 2.0, size=len(batch))
            eps = float(rng.uniform(0.0, 1.0))
            alpha = float(10.0 ** rng.uniform(-1, 1))

            features = model.featurize(batch.features)

            def stacked_losses(thetas):
                return models.loss_kernel(kind, model.forward_cache(thetas, features)[0], batch.targets)

            g0 = stacked_losses(theta)
            checks = [
                ("weighted", weights, lambda thetas: np.vecdot(stacked_losses(thetas), weights)),
                ("envelope", fs.analytic_dual_opt(g0, eps, alpha),
                 lambda thetas: fs.cserm_objective(stacked_losses(thetas), eps, alpha)),
            ]
            for name, w, value_fn in checks:
                analytic = models.weighted_loss_grad(model, theta, batch, w, kind)
                numeric = finite_diff_grad(value_fn, theta, h=h)
                scale = max(float(np.linalg.norm(numeric)), 1e-8)
                rel = float(np.linalg.norm(analytic - numeric)) / scale
                if rel > worst["rel_error"]:
                    coord = int(np.argmax(np.abs(analytic - numeric)))
                    worst = {"rel_error": rel, "draw": draw, "gradient": name,
                             "coordinate": coord,
                             "analytic": float(analytic[coord]),
                             "numeric": float(numeric[coord])}
        out["families"][family] = worst
        if worst["rel_error"] > tol:
            out["passed"] = False
    return out
