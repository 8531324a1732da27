import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feaslearn import feasibility as fs
from feaslearn import models, oracle
from feaslearn.data import Batch, gen_noisy_cosine
from feaslearn.errors import NumericError, ParameterError, ShapeError
from feaslearn.trainers import TrainerConfig, load_run, save_run, train

nonneg_vec = st.lists(st.floats(0, 10), min_size=1, max_size=8).map(np.array)


class TestViolations:
    def test_basic_subtraction(self):
        assert fs.violations([0.8], 0.51).tolist() == pytest.approx([0.29])

    def test_boundary_is_zero(self):
        g = np.array([0.3, 0.7])
        assert np.all(fs.violations(g, g) == 0.0)

    def test_strictly_feasible_is_negative(self):
        assert fs.violations([0.3], 0.51)[0] == pytest.approx(-0.21)


class TestDualSteps:
    # fl's dual step is dual_step_rfl at alpha = inf.
    def test_fl_one_step(self):
        out = fs.dual_step_rfl(np.array([0.0]), np.array([0.29]), 0.1, math.inf)
        assert out[0] == pytest.approx(0.029)

    def test_fl_projection_clamps_at_zero(self):
        out = fs.dual_step_rfl(np.array([0.05]), np.array([-1.0]), 0.1, math.inf)
        assert out[0] == 0.0

    def test_fl_feasible_fixed_point(self):
        lam = np.zeros(4)
        v = np.array([-0.1, -0.5, 0.0, -2.0])
        for _ in range(50):
            lam = fs.dual_step_rfl(lam, v, 0.3, math.inf)
        assert np.all(lam == 0.0)

    def test_rfl_one_step(self):
        out = fs.dual_step_rfl(np.array([1.0]), np.array([0.0]), 0.1, 2.0)
        assert out[0] == pytest.approx(0.95)

    def test_rfl_converges_to_alpha_times_violation(self):
        lam = np.array([0.0])
        for _ in range(10_000):
            lam = fs.dual_step_rfl(lam, np.array([0.3]), 0.1, 1.0)
        assert lam[0] == pytest.approx(0.3, abs=1e-9)

    def test_infinite_alpha_reproduces_fl_exactly(self):
        lam = np.array([0.2, 0.0, 1.5])
        v = np.array([0.3, -0.2, 0.05])
        projected_ascent = np.maximum(lam + 0.07 * v, 0.0)
        assert np.array_equal(fs.dual_step_rfl(lam, v, 0.07, math.inf), projected_ascent)

    def test_rejects_bad_steps(self):
        with pytest.raises(ParameterError):
            fs.dual_step_rfl(np.zeros(1), np.zeros(1), 0.0, math.inf)
        with pytest.raises(ParameterError):
            fs.dual_step_rfl(np.zeros(1), np.zeros(1), 0.1, 0.0)

    def test_non_finite_update_raises_numeric_error(self):
        with pytest.raises(NumericError):
            fs.dual_step_rfl(np.array([1e308]), np.array([1e308]), 1e5, math.inf)

    def test_non_finite_update_names_given_ids(self):
        with pytest.raises(NumericError, match=r"at \[7\]") as info:
            fs.dual_step_rfl(np.array([0.0, 1e308]), np.array([0.0, 1e308]), 1e5, math.inf,
                             np.array([3, 7]))
        assert info.value.ids == [7]

    @settings(max_examples=40, deadline=None)
    @given(lam=nonneg_vec, seed=st.integers(0, 1000))
    def test_nonnegativity_after_any_step_sequence(self, lam, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            v = rng.normal(scale=3.0, size=lam.shape)
            lam = fs.dual_step_rfl(lam, v, 0.2, 2.0)
        assert lam.min() >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_rfl_boundedness_under_bounded_violations(self, seed):
        # eta/alpha <= 1 and |v| <= V keep every multiplier below alpha*V
        rng = np.random.default_rng(seed)
        alpha, eta, V = 2.0, 1.0, 3.0
        lam = np.zeros(5)
        for _ in range(200):
            v = rng.uniform(-V, V, size=5)
            lam = fs.dual_step_rfl(lam, v, eta, alpha)
            assert lam.max() <= alpha * V + 1e-9


class TestLagrangians:
    # At alpha = inf the regularized value is fl's plain lam^T (g - eps).
    def test_zero_multipliers_give_zero(self):
        assert fs.lagrangian_alpha([0.3, 0.9], 0.5, np.zeros(2), math.inf) == 0.0
        assert fs.lagrangian_alpha([0.3, 0.9], 0.5, np.zeros(2), 2.0) == 0.0

    def test_hand_value(self):
        assert fs.lagrangian_alpha([0.6], 0.51, [0.18], math.inf) == pytest.approx(0.0162)

    def test_feasible_point_keeps_value_nonpositive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(0, 1, 4)
            eps = g + rng.uniform(0, 1, 4)  # strictly feasible
            lam = rng.uniform(0, 5, 4)
            assert fs.lagrangian_alpha(g, eps, lam, math.inf) <= 0.0

    def test_length_mismatch_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            fs.lagrangian_alpha([0.6, 0.2], 0.51, [0.18], 2.0)

    @pytest.mark.parametrize("call,match", [
        # each of the first three used to return a number, broadcasting the short operand
        (lambda: fs.lagrangian_rfl_slack([0.4, 0.5], 0.2, [0.1], [0.1, 0.2], 1.0),
         "u has length 1, but g has length 2"),
        (lambda: fs.cserm_objective([0.4], [0.2, 0.1], 1.0), "eps has length 2, but g has length 1"),
        (lambda: fs.lagrangian_alpha([0.4], [0.2, 0.1], [0.1, 0.1], 1.0),
         "eps has length 2, but g has length 1"),
        (lambda: fs.lagrangian_rfl_slack([0.4, 0.5], 0.2, [0.1, 0.1], [0.1], 1.0),
         "lam has length 1, but g has length 2"),
        (lambda: fs.lagrangian_alpha([0.4, 0.5], 0.2, np.zeros((3, 4)), 1.0),
         "lam has length 4, but g has length 2"),
        (lambda: fs.lagrangian_alpha([0.4], 0.2, 0.1, 1.0), "lam has no sample axis, but g has length 1"),
        (lambda: fs.cserm_objective(np.zeros((3, 2)), [0.1, 0.2, 0.3], 1.0),
         "eps has length 3, but g has length 2"),
        (lambda: fs.cserm_objective(0.4, 0.2, 1.0), "g has no sample axis"),
    ], ids=["slack_short_u", "cserm_long_eps", "alpha_long_eps", "slack_short_lam",
            "alpha_stacked_lam", "alpha_scalar_lam", "cserm_stacked_g", "cserm_scalar_g"])
    def test_operand_length_mismatch_names_both_lengths(self, call, match):
        with pytest.raises(ShapeError, match=match):
            call()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           stack=st.lists(st.integers(1, 5), min_size=1, max_size=2),
           vector_eps=st.booleans(), finite_alpha=st.booleans())
    def test_regularized_value_stack_equals_rows_bitwise(self, seed, n, stack, vector_eps,
                                                          finite_alpha):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 3.0, n)
        eps = rng.uniform(0.0, 1.5, n) if vector_eps else float(rng.uniform(0.0, 1.5))
        alpha = float(10.0 ** rng.uniform(-2, 2)) if finite_alpha else math.inf
        lams = rng.uniform(0.0, 2.0, size=(*stack, n))
        values = fs.lagrangian_alpha(g, eps, lams, alpha)
        assert values.shape == lams.shape[:-1]
        v = g - eps
        for idx in np.ndindex(lams.shape[:-1]):
            lam = lams[idx]
            single = fs.lagrangian_alpha(g, eps, lam, alpha)
            assert type(single) is float
            # the single-vector formula before stacks were accepted
            reference = float(lam @ v) - float(lam @ lam) / (2.0 * alpha)
            assert values[idx] == single == reference

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda alpha: fs.lagrangian_alpha([0.6], 0.5, [0.1], alpha),
        lambda alpha: fs.lagrangian_rfl_slack([0.6], 0.5, [0.1], [0.1], alpha),
        lambda alpha: fs.analytic_dual_opt([0.6], 0.5, alpha),
        lambda alpha: fs.cserm_objective([0.6], 0.5, alpha),
    ], ids=["lagrangian_alpha", "lagrangian_rfl_slack", "analytic_dual_opt", "cserm_objective"])
    def test_non_positive_alpha_is_rejected(self, call, alpha):
        with pytest.raises(ParameterError, match="alpha must be positive"):
            call(alpha)

    def test_regularized_hand_value(self):
        assert fs.lagrangian_alpha([0.6], 0.51, [0.18], 2.0) == pytest.approx(0.0081)

    def test_strict_concavity_in_multipliers(self):
        g, eps, alpha = np.array([0.7, 0.1]), 0.3, 1.5
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.uniform(0, 3, 2), rng.uniform(0, 3, 2)
            if np.allclose(a, b):
                continue
            mid = fs.lagrangian_alpha(g, eps, (a + b) / 2, alpha)
            ends = 0.5 * (fs.lagrangian_alpha(g, eps, a, alpha) + fs.lagrangian_alpha(g, eps, b, alpha))
            assert mid > ends

    def test_slack_form_at_optimal_slack(self):
        val = fs.lagrangian_rfl_slack([0.6], 0.51, [0.09], [0.18], 2.0)
        assert val == pytest.approx(fs.lagrangian_alpha([0.6], 0.51, [0.18], 2.0), abs=1e-15)

    @pytest.mark.parametrize("vector_eps", [False, True])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_slack_form_stack_equals_rows_bitwise(self, n, vector_eps):
        rng = np.random.default_rng(n)
        g = rng.uniform(0.0, 3.0, n)
        eps = rng.uniform(0.0, 1.5, n) if vector_eps else float(rng.uniform(0.0, 1.5))
        lam, alpha = rng.uniform(0.0, 2.0, n), float(10.0 ** rng.uniform(-2, 2))
        v = g - eps
        stack = np.maximum(rng.normal(scale=0.5, size=(3, 40, n)), 0.0)
        for u in (stack, stack[1]):
            values = fs.lagrangian_rfl_slack(g, eps, u, lam, alpha)
            assert values.shape == u.shape[:-1]
            for idx in np.ndindex(u.shape[:-1]):
                row = u[idx]
                single = fs.lagrangian_rfl_slack(g, eps, row, lam, alpha)
                assert type(single) is float
                # the single-vector formula before stacks were accepted
                reference = 0.5 * alpha * float(row @ row) + float(lam @ (v - row))
                assert values[idx] == single == reference


class TestAnalyticDualOpt:
    def test_formula(self):
        out = fs.analytic_dual_opt([0.6, 0.3], 0.51, 2.0)
        assert np.allclose(out, [0.18, 0.0])

    def test_feasible_gives_zero_vector(self):
        out = fs.analytic_dual_opt([0.1, 0.2], 0.5, 2.0)
        assert np.all(out == 0.0)

    def test_identity_on_random_draws(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            g = rng.uniform(0, 4, n)
            eps = rng.uniform(0, 2, n)
            alpha = float(10.0 ** rng.uniform(-2, 2))
            lam_star = fs.analytic_dual_opt(g, eps, alpha)
            lhs = fs.lagrangian_alpha(g, eps, lam_star, alpha)
            assert abs(lhs - fs.cserm_objective(g, eps, alpha)) <= 1e-12

    def test_maximality_against_perturbations(self):
        rng = np.random.default_rng(3)
        g, eps, alpha = rng.uniform(0, 3, 6), rng.uniform(0, 1, 6), 1.7
        lam_star = fs.analytic_dual_opt(g, eps, alpha)
        best = fs.lagrangian_alpha(g, eps, lam_star, alpha)
        for _ in range(100):
            perturbed = np.maximum(lam_star + rng.normal(scale=0.3, size=6), 0.0)
            assert fs.lagrangian_alpha(g, eps, perturbed, alpha) <= best + 1e-12


class TestSlackView:
    def test_zero_multipliers_zero_slack(self):
        assert np.all(fs.slack_view(np.zeros(3), 2.0) == 0.0)

    def test_recovers_violation_at_optimum(self):
        u = fs.slack_view(np.array([0.18]), 2.0)
        assert u[0] == pytest.approx(0.09)
        assert u[0] == pytest.approx(max(0.6 - 0.51, 0.0))

    @settings(max_examples=30, deadline=None)
    @given(lam=nonneg_vec, alpha=st.floats(0.01, 100))
    def test_always_nonnegative(self, lam, alpha):
        assert fs.slack_view(lam, alpha).min() >= 0.0

    def test_undefined_without_finite_alpha(self):
        with pytest.raises(ParameterError):
            fs.slack_view(np.zeros(2), math.inf)

    def test_negative_multipliers_are_rejected(self):
        with pytest.raises(ParameterError, match="multipliers must be non-negative"):
            fs.slack_view(np.array([0.5, -1e-3]), 2.0)


class TestCsermObjective:
    def test_hand_value(self):
        assert fs.cserm_objective([0.6, 0.3], 0.51, 2.0) == pytest.approx(0.0081)

    def test_feasible_gives_zero(self):
        assert fs.cserm_objective([0.1, 0.4], 0.5, 2.0) == 0.0

    def test_unit_alpha(self):
        assert fs.cserm_objective([1.51], 0.51, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("vector_eps", [False, True])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_stack_equals_rows_bitwise(self, n, vector_eps):
        rng = np.random.default_rng(n)
        eps = rng.uniform(0.0, 1.5, n) if vector_eps else float(rng.uniform(0.0, 1.5))
        alpha = float(10.0 ** rng.uniform(-2, 2))
        stack = rng.uniform(0.0, 3.0, size=(3, 40, n))
        for g in (stack, stack[1]):
            values = fs.cserm_objective(g, eps, alpha)
            assert values.shape == g.shape[:-1]
            for idx in np.ndindex(g.shape[:-1]):
                row = g[idx]
                single = fs.cserm_objective(row, eps, alpha)
                assert type(single) is float
                # the single-vector formula before stacks were accepted
                clamped = np.maximum(row - eps, 0.0)
                reference = 0.5 * alpha * float(clamped @ clamped)
                assert values[idx] == single == reference


class TestEnvelopeGradient:
    def test_penalty_gradient_equals_weighted_gradient(self):
        rng = np.random.default_rng(4)
        model = models.MLP((2, 6, 1), task="regression")
        theta = model.init_params(0) + 0.1 * rng.normal(size=model.n_params)
        batch = Batch(np.arange(5), rng.normal(size=(5, 2)), rng.normal(size=5))
        eps, alpha = 0.3, 1.5

        g = models.per_sample_loss(models.SQUARED_ERROR, model.forward(theta, batch.features),
                                   batch.targets)
        analytic = models.weighted_loss_grad(model, theta, batch,
                                             fs.analytic_dual_opt(g, eps, alpha),
                                             models.SQUARED_ERROR)

        def penalty(thetas):
            losses = np.stack([models.per_sample_loss(models.SQUARED_ERROR,
                                                      model.forward(th, batch.features),
                                                      batch.targets) for th in thetas])
            return fs.cserm_objective(losses, eps, alpha)

        numeric = oracle.finite_diff_grad(penalty, theta, h=1e-6)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5


class TestMultipliers:
    # Non-negativity rests on the projection in dual_ascent; the third draw is rfl's
    # best-response step, eta_lambda = alpha.
    @settings(max_examples=20, deadline=None)
    @given(method=st.sampled_from([("fl", False), ("rfl", False), ("rfl", True)]),
           seed=st.integers(0, 2**16), eps=st.floats(0.0, 0.6),
           log_eta=st.floats(-2.0, 1.0), log_alpha=st.floats(-1.0, 1.0),
           batch_size=st.sampled_from([None, 4]))
    def test_non_negative_and_bit_equal_after_reload(self, method, seed, eps, log_eta,
                                                     log_alpha, batch_size):
        name, best_response = method
        alpha = 10.0 ** log_alpha if name == "rfl" else "inf"
        cfg = TrainerConfig(method=name, eps=eps, epochs=6, eta_theta=0.05,
                            eta_lambda=alpha if best_response else 10.0 ** log_eta, alpha=alpha,
                            batch_size=batch_size, seed=seed)
        record = train(cfg, models.PolyModel(3, "chebyshev", (0.0, 1.0)),
                       gen_noisy_cosine(10, 0.3, seed))
        lam = record.multipliers
        assert isinstance(lam, np.ndarray) and lam.shape == (10,) and np.all(lam >= 0.0)
        with tempfile.TemporaryDirectory() as outdir:
            save_run(record, outdir)
            back = load_run(outdir).multipliers
        assert back.dtype == lam.dtype and back.tobytes() == lam.tobytes()
