"""Constraint bookkeeping, Lagrangian values, and dual update rules.

The core objects are the per-sample bounds (eps), the non-negative
multiplier vector (lam), and the resilience coefficient alpha. Plain
feasibility training corresponds to alpha = inf: the multiplier decay
term vanishes and one code path serves both update rules.

Slack variables are never stored: the inner minimization over slacks has
the closed-form solution u = lam / alpha, so slacks are always derived on
demand from the multipliers.

The value functions (:func:`lagrangian_alpha`, :func:`lagrangian_rfl_slack`,
:func:`analytic_dual_opt` and :func:`cserm_objective`) take g, eps, u and lam
as vectors of length n or as stacks (..., n) whose leading axes broadcast
together; a non-scalar eps, u or lam of another last-axis length is a
ShapeError naming both lengths. alpha is a positive number or an array of
the stack's leading shape, one alpha per row; NaN is not positive. Each row
of a result is bit-equal to the call on that row alone (the products by
alpha are elementwise and each row of a ``vecdot`` is one BLAS dot product).
The three scalar values are each a float exactly when no stack axis is left.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, named_rows

# Multipliers past this are treated as dual blow-up (unsatisfiable
# constraints under pure ascent); trainers abort with the offending ids.
BLOWUP_THRESHOLD = 1e12
# A constraint g <= eps counts as satisfied up to this slack.
SAT_TOL = 1e-8
# Multipliers at or below this count as zero.
ZERO_MULTIPLIER_TOL = 1e-12


def violations(g, spec) -> np.ndarray:
    """g - eps elementwise; positive entries are unsatisfied constraints."""
    return np.asarray(g, dtype=np.float64) - np.asarray(spec, dtype=np.float64)


def _checked(g, spec, alpha, **operands) -> tuple[np.ndarray, float | np.ndarray]:
    """The violations g - eps and alpha of a value function, once the shapes
    and alpha meet the module's contract. The training step calls
    :func:`violations` alone. A positive float alpha skips the array checks.
    """
    g = np.asarray(g, dtype=np.float64)
    spec = np.asarray(spec, dtype=np.float64)
    if g.ndim == 0:
        raise ShapeError("g has no sample axis")
    n = g.shape[-1]
    if spec.ndim:
        operands = {"eps": spec, **operands}
    for name, x in operands.items():
        if x.shape[-1:] != (n,):
            got = f"length {x.shape[-1]}" if x.ndim else "no sample axis"
            raise ShapeError(f"{name} has {got}, but g has length {n}")
    v = violations(g, spec)
    if type(alpha) is float and alpha > 0:
        return v, alpha
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim:
        lead = np.broadcast_shapes(v.shape[:-1], *(x.shape[:-1] for x in operands.values()))
        if alpha.shape != lead:
            raise ShapeError(f"alpha has shape {alpha.shape}, but the stack has "
                             f"leading shape {lead}")
    if not (alpha > 0).all():
        raise ParameterError("alpha must be positive")
    return v, alpha if alpha.ndim else float(alpha)


def dual_step_rfl(lam, v, eta_lam: float, alpha: float, ids=None) -> np.ndarray:
    """Ascent with multiplier decay 1/alpha: [lam + eta * (v - lam/alpha)]_+.

    The decay discounts historical violations, which keeps multipliers of
    unsatisfiable constraints bounded (fixed point alpha * v for constant
    violation v). alpha = inf is the plain projected ascent [lam + eta * v]_+
    of fl, exactly. eta = alpha gives alpha * [v]_+ whatever lam was, up to
    rounding: the best response of :func:`analytic_dual_opt`.
    A non-finite result names its samples by ``ids`` (positions when None).
    The formula is :func:`dual_ascent`; this function adds the checks.
    """
    if not eta_lam > 0:
        raise ParameterError("eta_lam must be positive")
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = dual_ascent(lam, v, eta_lam, alpha)
    if not np.all(np.isfinite(out)):
        named = named_rows(~np.isfinite(out), ids)
        raise NumericError(f"dual update produced non-finite multipliers at {named}", ids=named)
    return out


def dual_ascent(lam, v, eta_lam: float, alpha: float) -> np.ndarray:
    """The formula of :func:`dual_step_rfl` alone, without its checks: float64
    arrays in, and floating-point warnings left to the caller's error state."""
    return np.maximum(lam + eta_lam * (v - lam / alpha), 0.0)


def lagrangian_alpha(g, spec, lam, alpha: float) -> float | np.ndarray:
    """Quadratically-regularized value: lam^T (g - eps) - ||lam||^2 / (2 alpha).

    Strictly concave in lam for finite alpha, so the inner maximization has
    the unique solution given by :func:`analytic_dual_opt`. alpha = inf gives
    the plain Lagrangian term lam^T (g - eps) of fl.
    """
    lam = np.asarray(lam, dtype=np.float64)
    v, alpha = _checked(g, spec, alpha, lam=lam)
    value = np.vecdot(lam, v) - np.vecdot(lam, lam) / (2.0 * alpha)
    return value if value.ndim else float(value)


def lagrangian_rfl_slack(g, spec, u, lam, alpha: float) -> float | np.ndarray:
    """Slack-form value (alpha/2)||u||^2 + lam^T (g - eps - u)."""
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    v, alpha = _checked(g, spec, alpha, u=u, lam=lam)
    value = 0.5 * alpha * np.vecdot(u, u) + np.vecdot(v - u, lam)
    return value if value.ndim else float(value)


def analytic_dual_opt(g, spec, alpha: float) -> np.ndarray:
    """Closed-form maximizer of the regularized value: alpha * [g - eps]_+.

    The maximizer is unique, so by the envelope theorem these are also the
    per-sample weights whose weighted loss gradient equals the gradient of
    :func:`cserm_objective`; the cserm trainer steps with them.
    The formula is :func:`best_response`; this function adds the checks.
    """
    v, alpha = _checked(g, spec, alpha)
    return best_response(v, alpha if type(alpha) is float else alpha[..., None])


def best_response(v, alpha: float) -> np.ndarray:
    """The formula of :func:`analytic_dual_opt` alone, on violations ``v``:
    alpha * [v]_+, without its checks."""
    return alpha * np.maximum(v, 0.0)


def slack_view(lam, alpha: float) -> np.ndarray:
    """Recover the eliminated slack variables u = lam / alpha."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ParameterError("slack variables are only defined for finite positive alpha")
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0).any():
        raise ParameterError("multipliers must be non-negative")
    return lam / alpha


def cserm_objective(g, spec, alpha: float) -> float | np.ndarray:
    """Clamped-and-squared penalty (alpha/2) * ||[g - eps]_+||^2.

    Equals :func:`lagrangian_alpha` evaluated at :func:`analytic_dual_opt`;
    minimizing it over model parameters is equivalent to the slack-relaxed
    feasibility problem.
    """
    v, alpha = _checked(g, spec, alpha)
    clamped = np.maximum(v, 0.0)
    value = 0.5 * alpha * np.vecdot(clamped, clamped)
    return value if value.ndim else float(value)
