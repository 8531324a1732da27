import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feaslearn import metrics
from feaslearn.errors import ParameterError

loss_vec = st.lists(st.floats(0, 100), min_size=1, max_size=30).map(np.array)


class TestEmpiricalCdf:
    def test_counting(self):
        cdf = dict(metrics.empirical_cdf([1.0, 2.0, 2.0, 5.0]))
        assert cdf[2.0] == pytest.approx(0.75)
        assert cdf[5.0] == pytest.approx(1.0)

    def test_degenerate_distribution(self):
        assert metrics.empirical_cdf([3.0, 3.0, 3.0]) == [(3.0, 1.0)]

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            metrics.empirical_cdf([])

    @settings(max_examples=40, deadline=None)
    @given(losses=loss_vec)
    def test_nondecreasing_and_ends_at_one(self, losses):
        points = metrics.empirical_cdf(losses)
        fractions = [p[1] for p in points]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(losses=loss_vec, seed=st.integers(0, 100))
    def test_permutation_invariant(self, losses, seed):
        shuffled = np.random.default_rng(seed).permutation(losses)
        assert metrics.empirical_cdf(losses) == metrics.empirical_cdf(shuffled)


class TestCvar:
    def test_median_tail(self):
        assert metrics.cvar([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(3.5)

    def test_zero_quantile_convention(self):
        # quantile(0) is the minimum, so CVaR(0) averages every loss
        assert metrics.cvar([1.0, 2.0, 3.0, 4.0], 0.0) == pytest.approx(2.5)

    def test_ties_at_top_fall_back_to_max(self):
        assert metrics.cvar([2.0, 2.0, 2.0], 0.5) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError, match="quantile of an empty loss vector"):
            metrics.empirical_quantile([], 0.5)
        with pytest.raises(ParameterError, match="quantile of an empty loss vector"):
            metrics.cvar([], 0.5)

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ParameterError):
            metrics.cvar([1.0], 1.0)
        with pytest.raises(ParameterError):
            metrics.cvar([1.0], -0.1)

    @settings(max_examples=40, deadline=None)
    @given(losses=loss_vec)
    def test_nondecreasing_in_quantile(self, losses):
        qs = [0.0, 0.25, 0.5, 0.75, 0.9]
        values = [metrics.cvar(losses, q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @settings(max_examples=20, deadline=None)
    @given(losses=loss_vec, seed=st.integers(0, 100))
    def test_permutation_invariant(self, losses, seed):
        shuffled = np.random.default_rng(seed).permutation(losses)
        for q in (0.0, 0.5, 0.9):
            assert metrics.cvar(losses, q) == pytest.approx(metrics.cvar(shuffled, q))

    @settings(max_examples=30, deadline=None)
    @given(losses=loss_vec, bumps=st.lists(st.floats(0, 5), min_size=30, max_size=30))
    def test_sorted_dominance(self, losses, bumps):
        dominated = np.sort(losses)
        dominating = dominated + np.array(bumps[:len(losses)])
        for q in (0.0, 0.5, 0.9):
            assert metrics.cvar(dominating, q) >= metrics.cvar(dominated, q) - 1e-12


class TestMarginCorrelation:
    def test_perfect_ranking(self):
        margins = np.array([3.0, 2.0, 1.0, 0.5])
        lam = np.array([0.1, 0.2, 0.3, 0.4])  # monotone decreasing in margin
        rho, degenerate = metrics.margin_multiplier_correlation(lam, margins)
        assert rho == pytest.approx(1.0)
        assert not degenerate

    def test_constant_multipliers_flagged(self):
        rho, degenerate = metrics.margin_multiplier_correlation(
            np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))
        assert rho == 0.0
        assert degenerate

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            metrics.margin_multiplier_correlation(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [3, 7, 300])
    def test_bit_equal_to_scipy_spearmanr(self, n, ties):
        from scipy import stats
        rng = np.random.default_rng(n)
        lam, margins = rng.exponential(size=n), rng.normal(size=n)
        if ties:  # many exact zeros, as fl multipliers have, and repeated margins
            lam[: n // 2] = 0.0
            margins = np.round(margins, 1)
        rho, degenerate = metrics.margin_multiplier_correlation(lam, margins)
        assert not degenerate
        assert rho == stats.spearmanr(lam, -margins).statistic

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), min_size=3, max_size=40))
    def test_bit_equal_to_scipy_spearmanr_on_tied_draws(self, pairs):
        from scipy import stats
        lam, margins = np.array(pairs, dtype=np.float64).T
        rho, degenerate = metrics.margin_multiplier_correlation(lam, margins)
        if degenerate:
            assert rho == 0.0
            assert np.all(lam == lam[0]) or np.all(margins == margins[0])
        else:
            assert rho == stats.spearmanr(lam, -margins).statistic

    def test_nan_input_is_degenerate(self):
        assert metrics.margin_multiplier_correlation(
            np.array([0.0, 1.0, 2.0]), np.array([1.0, np.nan, 0.0])) == (0.0, True)
