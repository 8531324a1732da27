import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feaslearn import models, oracle
from feaslearn.data import Batch
from feaslearn.errors import NumericError, ParameterError, ShapeError


class TestForward:
    def test_zero_parameters_give_zero_predictions(self):
        model = models.LinearModel(3)
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert np.all(model.forward(np.zeros(3), X) == 0.0)

    def test_polynomial_at_one_sums_coefficients(self):
        model = models.PolyModel(3, "monomial")
        coeffs = np.array([0.5, -1.0, 2.0, 0.25])
        pred = model.forward(coeffs, np.array([[1.0]]))
        assert pred[0] == pytest.approx(coeffs.sum())

    def test_mlp_output_width_two(self):
        model = models.MLP((2, 70, 70, 2))
        theta = model.init_params(0)
        out = model.forward(theta, np.zeros((4, 2)))
        assert out.shape == (4, 2)

    def test_shape_mismatch_raises(self):
        model = models.LinearModel(3)
        with pytest.raises(ShapeError):
            model.forward(np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            model.forward(np.zeros(4), np.zeros((2, 3)))
        # a stack of thetas whose last axis is not P
        for thetas in (np.zeros((2, 4)), np.zeros((3, 2))):
            message = f"expected 3 parameters, got shape {thetas.shape}"
            with pytest.raises(ShapeError, match=re.escape(message)):
                model.forward(thetas, np.zeros((2, 3)))
        mlp = models.MLP((2, 3, 1), "regression")
        with pytest.raises(ShapeError):
            mlp.forward(np.zeros((2, mlp.n_params + 1)), np.zeros((4, 2)))
        # a stack of thetas with a workspace, which holds the pass of one theta
        with pytest.raises(ShapeError, match=re.escape(f"a workspace takes one theta, shape ({mlp.n_params},)")):
            mlp.forward_cache(np.zeros((2, mlp.n_params)), np.zeros((4, 2)), models.Workspace())

    @pytest.mark.parametrize("build,message", [
        (lambda: models.LinearModel(0), "n_features must be >= 1"),
        (lambda: models.MLP((2,)), "layers must list at least input and output widths >= 1"),
        (lambda: models.MLP((2, 0, 2)), "layers must list at least input and output widths >= 1"),
        (lambda: models.MLP((2, 2), task="ranking"), "unknown task 'ranking'"),
        (lambda: models.MLP((1, 4, 2), task="regression"), "regression MLPs need output width 1"),
    ], ids=["linear_no_features", "mlp_one_layer", "mlp_zero_width", "mlp_unknown_task",
            "mlp_regression_width_2"])
    def test_constructors_reject_bad_arguments(self, build, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            build()

    def test_one_dimensional_features_raise_shape_error(self):
        with pytest.raises(ShapeError, match=r"expected 3 features, got shape \(3,\)"):
            models.LinearModel(3).forward(np.zeros(3), np.zeros(3))

    def test_regression_mlp_returns_vector(self):
        model = models.MLP((2, 5, 1), task="regression")
        out = model.forward(model.init_params(1), np.zeros((3, 2)))
        assert out.shape == (3,)


class TestPerSampleLoss:
    def test_squared_error_arithmetic(self):
        out = models.per_sample_loss("squared_error", np.array([3.0]), np.array([1.0]))
        assert out.tolist() == [4.0]

    def test_cross_entropy_matches_probability_bound(self):
        # logits chosen so the true-class probability is exactly exp(-0.51)
        p = math.exp(-0.51)
        logits = np.log(np.array([[p, 1.0 - p]]))
        loss = models.per_sample_loss("cross_entropy", logits, np.array([0]))
        assert loss[0] == pytest.approx(0.51, abs=1e-12)

    def test_cross_entropy_uniform_logits(self):
        loss = models.per_sample_loss("cross_entropy", np.zeros((1, 2)), np.array([1]))
        assert loss[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_non_finite_prediction_reports_sample_ids(self):
        preds = np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericError) as err:
            models.per_sample_loss("cross_entropy", preds, np.array([0, 1, 0]))
        assert err.value.ids == [1]

    @pytest.mark.parametrize("kind", [models.SQUARED_ERROR, models.CROSS_ENTROPY])
    def test_stacked_predictions_raise_shape_error(self, kind):
        # one row set only: a stack of rows goes through loss_kernel
        targets = np.zeros(4) if kind == models.SQUARED_ERROR else np.zeros(4, dtype=int)
        preds = np.zeros((2, 4) if kind == models.SQUARED_ERROR else (2, 4, 2))
        with pytest.raises(ShapeError):
            models.per_sample_loss(kind, preds, targets)

    @pytest.mark.parametrize("kind", [models.SQUARED_ERROR, models.CROSS_ENTROPY])
    def test_overflowing_losses_raise_without_warning(self, kind):
        ids = np.array([5, 6])
        if kind == models.SQUARED_ERROR:
            preds, targets = np.array([0.0, 1e200]), np.zeros(2)
        else:
            preds, targets = np.array([[0.0, 0.0], [-1e308, 1e308]]), np.zeros(2, dtype=int)
        with pytest.raises(NumericError, match=r"non-finite losses for samples \[6\]"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            models.per_sample_loss(kind, preds, targets, ids)

    def test_targets_must_be_one_per_sample(self):
        with pytest.raises(ShapeError):
            models.per_sample_loss(models.SQUARED_ERROR, np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            models.per_sample_loss(models.CROSS_ENTROPY, np.zeros((2, 3, 2)), np.zeros(2, dtype=int))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown loss kind 'hinge'"):
            models.per_sample_loss("hinge", np.zeros(1), np.zeros(1))
        with pytest.raises(ParameterError, match="unknown loss kind 'hinge'"):
            models.loss_grad("hinge", np.zeros(1), np.zeros(1))
        # a classifier's logits and labels fit the cross-entropy formula, but the kind is checked
        model = models.MLP((2, 2))
        batch = Batch(np.arange(2), np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(ParameterError, match="unknown loss kind 'hinge'"):
            models.weighted_loss_grad(model, model.init_params(0), batch, np.ones(2), "hinge")

    @pytest.mark.parametrize("label", [-1, 2, 7])
    def test_class_label_outside_the_output_width_names_its_sample(self, label):
        # indexing alone would score label -1 as the last class
        with pytest.raises(ParameterError, match=r"samples \[11\] have class labels outside \[0, 2\)"):
            models.per_sample_loss(models.CROSS_ENTROPY, [[0.0, 5.0]] * 2, [1, label], np.array([10, 11]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.integers(0, 5))
    def test_cross_entropy_nonnegative(self, logits, label):
        label = label % len(logits)
        loss = models.per_sample_loss("cross_entropy", np.array([logits]), np.array([label]))
        assert loss[0] >= 0.0

    def test_cross_entropy_zero_only_at_certainty(self):
        # finite logits always leave positive loss; it vanishes in the limit
        gaps = np.array([5.0, 20.0, 200.0])
        losses = [models.per_sample_loss("cross_entropy", np.array([[g, 0.0]]), np.array([0]))[0]
                  for g in gaps]
        assert all(l > 0.0 for l in losses[:2])
        assert losses[0] > losses[1] >= losses[2]

    def test_cross_entropy_is_stable_for_huge_logits(self):
        logits = np.array([[1000.0, 0.0]])
        loss = models.per_sample_loss("cross_entropy", logits, np.array([0]))
        assert loss[0] == pytest.approx(0.0, abs=1e-12)


class TestLossKernel:
    """The oracle's probe stacks run the training step's loss formula."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([models.SQUARED_ERROR, models.CROSS_ENTROPY]),
           lead=st.lists(st.integers(1, 4), min_size=1, max_size=2), n=st.integers(1, 11),
           classes=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_stacked_rows_equal_single_calls_bitwise(self, kind, lead, n, classes, seed):
        rng = np.random.default_rng(seed)
        if kind == models.SQUARED_ERROR:
            preds, targets = rng.normal(scale=3.0, size=(*lead, n)), rng.normal(size=n)
        else:
            preds, targets = rng.normal(scale=3.0, size=(*lead, n, classes)), rng.integers(0, classes, n)
        losses = models.loss_kernel(kind, preds, targets)
        assert losses.shape == (*lead, n)
        for idx in np.ndindex(*lead):
            assert np.array_equal(losses[idx], models.loss_kernel(kind, preds[idx], targets))


class TestLossKernelGradient:
    """A step's losses and loss gradient come from one loss_kernel call."""

    @pytest.mark.parametrize("kind", [models.SQUARED_ERROR, models.CROSS_ENTROPY])
    @pytest.mark.parametrize("n", [1, 7, 512])
    def test_fused_pair_is_bit_equal_to_the_loss_and_the_gradient_formula(self, kind, n):
        rng = np.random.default_rng(n)
        if kind == models.CROSS_ENTROPY:
            preds, targets = rng.normal(scale=30.0, size=(n, 3)), rng.integers(0, 3, n)
            expz = np.exp(preds - preds.max(axis=1, keepdims=True))
            want_grad = expz / expz.sum(axis=1, keepdims=True)
            want_grad[np.arange(n), targets] -= 1.0
        else:
            preds, targets = rng.normal(size=n), rng.normal(size=n)
            want_grad = 2.0 * (preds - targets)
        before = preds.copy()
        losses, grad = models.loss_kernel(kind, preds, targets, grad=True)
        assert losses.tobytes() == models.loss_kernel(kind, preds, targets).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert models.loss_grad(kind, preds, targets).tobytes() == want_grad.tobytes()
        assert np.array_equal(preds, before)


class TestCacheRows:
    """A step built from rows of a forward over every row, as the trainer's
    look-ahead builds the first step of an epoch, against a fresh forward."""

    @pytest.mark.parametrize("family", ["linear", "poly", "mlp"])
    def test_gradient_matches_a_fresh_forward_and_backward_on_the_batch(self, family):
        rng = np.random.default_rng(3)
        n, rows = 1000, rng.permutation(1000)[:512]
        if family == "mlp":
            model, kind = models.MLP((2, 70, 70, 2)), models.CROSS_ENTROPY
            X, y = rng.normal(size=(n, 2)), rng.integers(0, 2, n)
        else:
            model = models.LinearModel(3) if family == "linear" else models.PolyModel(8, "chebyshev", (0.0, 1.0))
            kind = models.SQUARED_ERROR
            X = model.featurize(rng.uniform(0.0, 1.0, (n, 3 if family == "linear" else 1)))
            y = rng.normal(size=n)
        theta, weights = rng.normal(size=model.n_params), rng.uniform(0.0, 1.0, len(rows))
        ws = models.Workspace()
        preds, cache = model.forward_cache(theta, X, ws)
        taken = model.cache_rows(cache, rows, X[rows])
        dpred = models.loss_grad(kind, preds[rows], y[rows])
        got = models.weighted_grad(model, taken, dpred, weights)
        fresh_preds, fresh = model.forward_cache(theta, X[rows])
        want = models.weighted_grad(model, fresh, models.loss_grad(kind, fresh_preds, y[rows]), weights)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        if family == "mlp":  # the rows are copied into the workspace, apart from the forward's buffers
            assert all(not np.shares_memory(a, b) for a in taken[1][1:] for b in cache[1])
        else:  # the cache of a linear forward is its features: the same loss gradient, the same bits
            assert models.weighted_grad(model, fresh, dpred, weights).tobytes() == got.tobytes()


def _reference_mlp(model, theta, X, G):
    """The MLP's forward and backward written with fresh arrays and pre-activation masks."""
    weights, biases = model._unpack(theta)
    activations, pre_acts, a = [X], [], X
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W.T + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        activations.append(a)
    delta = G if G.ndim == 2 else G[:, None]
    grads = []
    for i in range(len(weights) - 1, -1, -1):
        grads = [(delta.T @ activations[i]).ravel(), delta.sum(axis=0)] + grads
        if i > 0:
            delta = (delta @ weights[i]) * (pre_acts[i - 1] > 0.0)
    return activations[-1], np.concatenate(grads)


class TestMlpInPlaceLayers:
    @pytest.mark.parametrize("layers,task", [((2, 70, 70, 2), "classification"),
                                             ((3, 9, 1), "regression")])
    @pytest.mark.parametrize("n", [1, 2, 7, 512, 1000])
    def test_bitwise_equal_to_reference_and_inputs_untouched(self, layers, task, n):
        rng = np.random.default_rng(n)
        model = models.MLP(layers, task)
        theta = rng.normal(size=model.n_params)
        X = rng.normal(size=(n, layers[0]))
        G = rng.normal(size=(n, layers[-1])) if task == "classification" else rng.normal(size=n)
        X_before, G_before, theta_before = X.copy(), G.copy(), theta.copy()
        preds, cache = model.forward_cache(theta, X)
        grad = model.backward(cache, G)
        want_out, want_grad = _reference_mlp(model, theta, X, G)
        assert np.array_equal(preds, want_out if task == "classification" else want_out[:, 0])
        assert np.array_equal(grad, want_grad)
        for after, before in ((X, X_before), (G, G_before), (theta, theta_before)):
            assert np.array_equal(after, before)


class TestWorkspace:
    """Passes on one reused workspace give the bits of passes on fresh arrays."""

    @settings(max_examples=60, deadline=None)
    @given(hidden=st.lists(st.integers(1, 12), max_size=3), in_w=st.integers(1, 4),
           out_w=st.integers(1, 4), regression=st.booleans(),
           sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_reused_workspace_is_bit_equal_to_fresh_arrays(self, hidden, in_w, out_w, regression,
                                                           sizes, seed):
        task = "regression" if regression else "classification"
        model = models.MLP((in_w, *hidden, 1 if regression else out_w), task)
        rng = np.random.default_rng(seed)
        ws = models.Workspace()
        # The row count grows to its largest, then shrinks: a ragged last batch.
        counts = sorted(sizes) + sorted(sizes, reverse=True)[1:]
        largest = None
        for n in counts:
            theta = rng.normal(size=model.n_params)
            X = rng.normal(size=(n, in_w))
            G = rng.normal(size=n) if regression else rng.normal(size=(n, model.layers[-1]))
            X_before, G_before = X.copy(), G.copy()
            preds, cache = model.forward_cache(theta, X, ws)
            got_preds, got_grad = preds.copy(), model.backward(cache, G)
            fresh_preds, fresh_cache = model.forward_cache(theta, X)
            want_out, want_grad = _reference_mlp(model, theta, X, G)
            assert np.array_equal(got_preds, fresh_preds)
            assert np.array_equal(got_grad, model.backward(fresh_cache, G))
            assert np.array_equal(got_preds, want_out[:, 0] if regression else want_out)
            assert np.array_equal(got_grad, want_grad)
            assert np.array_equal(X, X_before) and np.array_equal(G, G_before)
            assert not np.shares_memory(preds, fresh_preds)
            if n == max(sizes):
                largest = preds
            elif largest is not None:  # a batch after the largest reuses its buffer
                assert np.shares_memory(preds, largest)
        X = rng.normal(size=(3, in_w))
        first, second = model.forward(theta, X), model.forward(theta, X)
        assert np.array_equal(first, second) and not np.shares_memory(first, second)


def _random_batch(model, rng, kind):
    n = 6
    if kind == models.CROSS_ENTROPY:
        X = rng.normal(size=(n, model.layers[0]))
        y = rng.integers(0, model.layers[-1], size=n)
    else:
        d = getattr(model, "n_features", None) or (model.layers[0] if isinstance(model, models.MLP) else 1)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
    return Batch(np.arange(n), X, y)


class TestWeightedLossGrad:
    def test_zero_weights_give_zero_gradient(self):
        model = models.LinearModel(2)
        batch = _random_batch(model, np.random.default_rng(0), models.SQUARED_ERROR)
        grad = models.weighted_loss_grad(model, np.array([0.3, -0.7]), batch,
                                         np.zeros(6), models.SQUARED_ERROR)
        assert np.all(grad == 0.0)

    def test_uniform_weights_reproduce_average_loss_gradient(self):
        rng = np.random.default_rng(1)
        model = models.LinearModel(3)
        theta = rng.normal(size=3)
        batch = Batch(np.arange(5), rng.normal(size=(5, 3)), rng.normal(size=5))
        grad = models.weighted_loss_grad(model, theta, batch, np.full(5, 0.2),
                                         models.SQUARED_ERROR)
        preds = batch.features @ theta
        manual = batch.features.T @ ((1.0 / 5.0) * 2.0 * (preds - batch.targets))
        assert np.allclose(grad, manual, rtol=1e-14)

    def test_matches_finite_differences_on_random_mlp(self):
        rng = np.random.default_rng(2)
        model = models.MLP((2, 6, 3), task="classification")
        theta = model.init_params(0) + 0.1 * rng.normal(size=model.n_params)
        batch = _random_batch(model, rng, models.CROSS_ENTROPY)
        weights = rng.uniform(0.1, 1.0, size=6)
        analytic = models.weighted_loss_grad(model, theta, batch, weights, models.CROSS_ENTROPY)

        def value(thetas):
            g = np.stack([models.per_sample_loss(models.CROSS_ENTROPY,
                                                 model.forward(th, batch.features), batch.targets)
                          for th in thetas])
            return np.vecdot(g, weights)

        numeric = oracle.finite_diff_grad(value, theta, h=1e-6)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5

    def test_linear_in_weights(self):
        rng = np.random.default_rng(3)
        model = models.MLP((2, 4, 1), task="regression")
        theta = model.init_params(4)
        batch = _random_batch(model, rng, models.SQUARED_ERROR)
        w1, w2 = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
        g1 = models.weighted_loss_grad(model, theta, batch, w1, models.SQUARED_ERROR)
        g2 = models.weighted_loss_grad(model, theta, batch, w2, models.SQUARED_ERROR)
        g12 = models.weighted_loss_grad(model, theta, batch, w1 + w2, models.SQUARED_ERROR)
        assert np.allclose(g1 + g2, g12, rtol=1e-12, atol=1e-12)

    def test_rejects_negative_weights(self):
        model = models.LinearModel(1)
        batch = Batch(np.arange(2), np.ones((2, 1)), np.zeros(2))
        with pytest.raises(ParameterError):
            models.weighted_loss_grad(model, np.zeros(1), batch, np.array([1.0, -0.1]),
                                      models.SQUARED_ERROR)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_rejects_class_labels_outside_the_output_width(self, label):
        model = models.MLP((2, 2))
        batch = Batch(np.array([4, 9]), np.ones((2, 2)), np.array([0, label]))
        with pytest.raises(ParameterError, match=r"samples \[9\] have class labels outside \[0, 2\)"):
            models.weighted_loss_grad(model, model.init_params(0), batch, np.ones(2), models.CROSS_ENTROPY)

    @pytest.mark.parametrize("x,weights,error,message", [
        (1.0, [1.0, 1.0, 1.0], ShapeError, "weights must have one entry per batch sample"),
        (1e200, [1.0, 1.0], NumericError, r"non-finite losses for samples \[0, 1\]"),
        (1e154, [1.0, 1.0], NumericError, "non-finite entries in weighted loss gradient"),
    ], ids=["wrong_length_weights", "overflowing_losses", "overflowing_gradient"])
    def test_rejects_wrong_length_weights_and_non_finite_gradients(self, x, weights, error, message):
        # at x = 1e200 the loss x^2 overflows, as train() reports it; at x = 1e154
        # each loss x^2 is finite, but the gradient x * 2 (x - 0) overflows
        batch = Batch(np.arange(2), np.full((2, 1), x), np.zeros(2))
        with np.errstate(over="ignore"), pytest.raises(error, match=message) as err:
            models.weighted_loss_grad(models.LinearModel(1), np.ones(1), batch, np.array(weights),
                                      models.SQUARED_ERROR)
        if x == 1e200:
            assert err.value.ids == [0, 1]

    @pytest.mark.parametrize("theta_shape", [(3, 2), (1, 2), (3,)])
    def test_rejects_a_theta_stack(self, theta_shape):
        # backward serves one theta: a (3, 2) stack over 3 rows would pass for a (2, 3) gradient
        batch = Batch(np.arange(3), np.ones((3, 2)), np.zeros(3))
        with pytest.raises(ShapeError, match=r"weighted_loss_grad takes one theta, shape \(2,\)"):
            models.weighted_loss_grad(models.LinearModel(2), np.ones(theta_shape), batch, np.ones(3),
                                      models.SQUARED_ERROR)

    def test_single_forward_single_backward(self):
        model = models.MLP((2, 8, 2))
        batch = _random_batch(model, np.random.default_rng(5), models.CROSS_ENTROPY)
        calls = []

        def counted(name):
            method = getattr(model, name)

            def wrapper(*args):
                calls.append(name)
                return method(*args)
            return wrapper

        model.forward_cache, model.backward = counted("forward_cache"), counted("backward")
        models.weighted_loss_grad(model, model.init_params(0), batch,
                                  np.ones(6), models.CROSS_ENTROPY)
        assert calls == ["forward_cache", "backward"]


class TestGradientChecksPerFamily:
    @pytest.mark.parametrize("family", oracle.DEFAULT_FAMILIES)
    def test_twenty_random_draws(self, family):
        report = oracle.gradient_check_report(families=(family,), n_draws=20, tol=1e-5, seed=7)
        assert report["passed"], report["families"][family]


class TestMargins:
    def test_margin_is_logit_gap(self):
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 3.0]])
        margins = models.classification_margins(logits, np.array([0, 1]))
        assert margins.tolist() == [1.5, -2.0]


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = models.MLP((2, 5, 2))
        theta = model.init_params(9)
        path = tmp_path / "ckpt.bin"
        models.save_checkpoint(path, models.ModelParams(theta, model.descriptor()))
        back = models.load_checkpoint(path)
        assert back.descriptor == model.descriptor()
        assert np.array_equal(back.theta, theta)
        rebuilt = models.model_from_descriptor(back.descriptor)
        assert rebuilt.n_params == model.n_params

    def test_little_endian_float64_layout(self, tmp_path):
        theta = np.array([1.0, -2.5])
        path = tmp_path / "ckpt.bin"
        models.save_checkpoint(path, models.ModelParams(theta, "linear 2"))
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        assert np.array_equal(raw, theta)

    def test_descriptor_round_trip_all_families(self):
        for model in (models.LinearModel(4), models.PolyModel(3, "chebyshev", (0.0, 1.0)),
                      models.MLP((2, 7, 3)), models.MLP((1, 4, 1), task="regression")):
            rebuilt = models.model_from_descriptor(model.descriptor())
            assert rebuilt.descriptor() == model.descriptor()
            assert rebuilt.n_params == model.n_params

    @pytest.mark.parametrize("descriptor", ["bogus", "", "linear", "mlp 2,2"])
    def test_unparseable_descriptor_is_a_parameter_error(self, descriptor):
        with pytest.raises(ParameterError, match=re.escape(f"unparseable shape descriptor {descriptor!r}")):
            models.model_from_descriptor(descriptor)

    def test_params_must_match_descriptor(self):
        with pytest.raises(ShapeError):
            models.ModelParams(np.zeros(3), "linear 2")
