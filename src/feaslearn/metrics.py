"""Tail-risk statistics over per-sample losses, and multiplier analytics."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def empirical_cdf(losses) -> list[tuple[float, float]]:
    """Step points (value, fraction of samples <= value), right-continuous."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ParameterError("empirical_cdf needs a non-empty loss vector")
    values, counts = np.unique(losses, return_counts=True)
    fractions = np.cumsum(counts) / losses.size
    return list(zip(values.tolist(), fractions.tolist()))


def empirical_quantile(losses, q: float) -> float:
    """The ceil(q * n)-th order statistic, 1-indexed (at least the minimum)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ParameterError("quantile of an empty loss vector")
    if not 0.0 <= q < 1.0:
        raise ParameterError(f"quantile q must lie in [0, 1), got {q!r}")
    idx = max(int(np.ceil(q * losses.size)), 1)
    return float(np.sort(losses)[idx - 1])


def cvar(losses, q: float) -> float:
    """Rockafellar-Uryasev CVaR: VaR + mean([L - VaR]_+) / (1 - q), VaR the q-th
    empirical quantile. It equals the minimum over t of t + mean([L - t]_+) / (1 - q),
    so it never decreases as q or any loss grows; CVaR(0) is the mean loss.
    """
    losses = np.asarray(losses, dtype=np.float64)
    var = empirical_quantile(losses, q)
    return float(var + np.maximum(losses - var, 0.0).mean() / (1.0 - q))


def margin_multiplier_correlation(lam, margins) -> tuple[float, bool]:
    """Spearman rank correlation between multipliers and negated margins.

    Large multipliers on small-margin samples give a positive correlation.
    Returns (correlation, degenerate); degenerate inputs (either vector
    constant) report 0.0 with the flag set.
    """
    lam = np.asarray(lam, dtype=np.float64)
    margins = np.asarray(margins, dtype=np.float64)
    if lam.shape != margins.shape:
        raise ParameterError("multipliers and margins must have equal length")
    if (np.all(lam == lam[0]) or np.all(margins == margins[0])
            or np.isnan(lam).any() or np.isnan(margins).any()):
        return 0.0, True
    # The Pearson correlation of average ranks, computed the way
    # scipy.stats.spearmanr computes it (bit-equal), without its import cost.
    ranks = np.column_stack((_average_ranks(lam), _average_ranks(-margins)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0]), False


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks
