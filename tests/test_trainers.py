import math
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feaslearn import data, feasibility as fs, models, oracle, trainers
from feaslearn.errors import ParameterError
from feaslearn.trainers import TrainerConfig, train


def _line_dataset(n=6, slope=2.0):
    x = np.linspace(0.5, 2.0, n)
    return data.Dataset(features=x[:, None], targets=slope * x, ids=np.arange(n),
                        task=data.REGRESSION)


class TestConfigValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(ParameterError):
            TrainerConfig(method="sgd_only")

    def test_fl_forces_infinite_alpha(self):
        cfg = TrainerConfig(method="fl", alpha=3.0)
        assert math.isinf(cfg.alpha)

    def test_rfl_needs_finite_alpha(self):
        with pytest.raises(ParameterError):
            TrainerConfig(method="rfl", alpha=math.inf)

    def test_cserm_needs_finite_alpha(self):
        with pytest.raises(ParameterError):
            TrainerConfig(method="cserm", alpha=math.inf)

    def test_dual_step_required_for_constrained_methods(self):
        with pytest.raises(ParameterError):
            TrainerConfig(method="fl", eta_lambda=0.0)

    def test_optimizer_alias(self):
        cfg = TrainerConfig(method="erm", primal_optimizer="adaptive_moments_decoupled_decay")
        assert cfg.primal_optimizer == "adamw"

    def test_alpha_spelled_inf_or_null_is_infinite(self):
        for alpha in ("inf", None):
            cfg = TrainerConfig(method="erm", alpha=alpha)
            assert cfg.alpha == math.inf and cfg.echo()["alpha"] == "inf"
        with pytest.raises(ParameterError, match="alpha"):
            TrainerConfig(method="rfl", alpha="INF")

    @pytest.mark.parametrize("field,value", [
        ("eta_theta", True), ("epochs", True), ("epochs", -1), ("seed", 1.0),
        ("cosine_decay", 1), ("primal_optimizer", None), ("method", ["fl"]),
        ("eps", [0.1, "x"]), ("eps", [[0.1], [0.2, 0.3]]),
    ])
    def test_fields_are_type_checked(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            TrainerConfig(**{"method": "erm", field: value})

    def test_numpy_and_int_values_are_accepted(self):
        cfg = TrainerConfig(method="fl", eta_theta=1, epochs=np.int64(3), batch_size=np.int32(2),
                            eps=np.array([0.1, 0.2]))
        assert cfg.echo()["eps"] == [0.1, 0.2]

    def test_scalar_eps_is_broadcast(self):
        ds = _line_dataset()
        kw = dict(method="fl", eta_theta=0.05, eta_lambda=0.5, epochs=5, batch_size=4, seed=0)
        scalar = train(TrainerConfig(eps=0.2, **kw), models.LinearModel(1), ds)
        vector = train(TrainerConfig(eps=[0.2] * ds.n_samples, **kw), models.LinearModel(1), ds)
        assert scalar.trajectory == vector.trajectory
        assert np.array_equal(scalar.multipliers, vector.multipliers)
        assert np.array_equal(scalar.params.theta, vector.params.theta)

    def test_per_sample_eps_follows_sample_ids(self):
        # only sample 5 has a bound its loss violates, so only its multiplier may grow,
        # whichever batch position it lands in
        ds = _line_dataset()
        eps = [1e6] * 5 + [0.0]
        cfg = TrainerConfig(method="fl", eta_theta=1e-3, eta_lambda=0.5, eps=eps, epochs=3,
                            batch_size=2, seed=0)
        lam = train(cfg, models.LinearModel(1), ds).multipliers
        assert lam[5] > 0.0 and np.all(lam[:5] == 0.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ParameterError, match="eps"):
            train(TrainerConfig(method="fl", eps=[0.1, -0.2]), models.LinearModel(1), _line_dataset(2))

    def test_eps_of_the_wrong_length_rejected(self):
        with pytest.raises(ParameterError, match="length-6"):
            train(TrainerConfig(method="fl", eps=[0.1, 0.2]), models.LinearModel(1), _line_dataset())

    def test_test_set_of_another_task_rejected(self):
        test_ds = data.Dataset(features=np.zeros((2, 1)), targets=np.array([0, 1]), ids=np.arange(2),
                               task=data.CLASSIFICATION)
        with pytest.raises(ParameterError, match="train and test datasets must share a task"):
            train(TrainerConfig(method="erm", epochs=1), models.LinearModel(1), _line_dataset(), test_ds)


class TestFixedPoints:
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_feasible_at_init_keeps_everything_frozen(self, optimizer):
        # losses at theta0 = 0 are below eps, so multipliers stay zero and
        # theta never receives a non-zero update
        ds = _line_dataset()
        eps = float((ds.targets ** 2).max()) + 1.0
        model = models.LinearModel(1)
        cfg = TrainerConfig(method="fl", eta_theta=0.1, eta_lambda=0.5, eps=eps,
                            epochs=20, primal_optimizer=optimizer, seed=0)
        record = train(cfg, model, ds)
        assert np.all(record.multipliers == 0.0)
        assert np.all(record.params.theta == 0.0)

    def test_erm_full_batch_matches_plain_gradient_descent(self):
        ds = _line_dataset(n=8)
        model = models.LinearModel(1)
        lr = 0.05
        cfg = TrainerConfig(method="erm", eta_theta=lr, epochs=40,
                            primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)

        theta = np.zeros(1)
        n = ds.n_samples
        for _ in range(40):
            preds = ds.features @ theta
            dpred = np.full(n, 1.0 / n) * (2.0 * (preds - ds.targets))
            theta = theta - lr * (ds.features.T @ dpred)
        assert np.allclose(record.params.theta, theta, rtol=0, atol=1e-14)


class TestFullBatchEpochs:
    """A full-batch step takes the rows in id order, and its forward is the
    previous epoch's end-of-epoch train evaluation."""

    METHOD_KW = {
        "erm": {},
        "fl": {"eta_lambda": 0.3},
        "rfl": {"eta_lambda": 0.3, "alpha": 1.0},
        "cserm": {"alpha": 1.0},
    }

    @staticmethod
    def _poly_run(method, epochs):
        train_ds, test_ds = data.split_train_test(data.gen_noisy_cosine(40, 0.2, 1), 0.25, 1)
        cfg = TrainerConfig(method=method, eta_theta=5e-3, eps=0.05, epochs=epochs,
                            primal_optimizer="sgd", seed=1, **TestFullBatchEpochs.METHOD_KW[method])
        return train(cfg, models.PolyModel(6, "chebyshev", (0.0, 1.0)), train_ds, test_ds)

    @staticmethod
    def _mlp_run(method, epochs):
        train_ds, test_ds = data.split_train_test(data.gen_two_moons(60, 0.2, 2), 0.25, 2)
        cfg = TrainerConfig(method=method, eta_theta=2e-2, eps=0.3, epochs=epochs,
                            primal_optimizer="adamw", seed=2, **TestFullBatchEpochs.METHOD_KW[method])
        return train(cfg, models.MLP((2, 8, 2)), train_ds, test_ds)

    def test_erm_equals_id_order_gradient_descent_bitwise(self):
        ds = data.gen_noisy_cosine(600, 0.1, 0)
        model = models.PolyModel(8, "chebyshev", (0.0, 1.0))
        lr, epochs = 0.5, 50
        cfg = TrainerConfig(method="erm", eta_theta=lr, epochs=epochs, primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)

        phi, y, n = model.featurize(ds.features), ds.targets, ds.n_samples
        theta = np.zeros(model.n_params)
        for _ in range(epochs):
            theta = theta - lr * (phi.T @ (np.full(n, 1.0 / n) * (2.0 * (phi @ theta - y))))
        assert np.array_equal(record.params.theta, theta)

    @pytest.mark.parametrize("run", ["_poly_run", "_mlp_run"])
    @pytest.mark.parametrize("method", ["erm", "fl", "rfl", "cserm"])
    def test_rows_equal_the_last_row_of_shorter_runs_bitwise(self, method, run):
        # Row e of a longer run comes from the shared forward, the last row of
        # an (e + 1)-epoch run from the final evaluation: the same numbers.
        epochs = 4
        full = getattr(self, run)(method, epochs)
        assert full.status == "completed"
        assert full.train_pass_counts == {"forward": epochs, "backward": epochs}
        for e in range(epochs):
            short = getattr(self, run)(method, e + 1)
            assert [repr(v) for v in full.trajectory[e].values()] == \
                [repr(v) for v in short.trajectory[-1].values()]
            assert short.train_pass_counts == {"forward": e + 1, "backward": e + 1}
        if run == "_mlp_run":
            assert all(0 < row["train_accuracy"] <= 1 for row in full.trajectory)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_non_finite_epoch_end_forward_keeps_its_abort_record(self, epochs):
        # One step takes theta to ~2e197, finite, but the row with x = 1e200
        # (id 0) then predicts inf at the epoch-end forward, shared with the
        # next step unless this is the last epoch.
        ds = data.Dataset(features=np.array([[1.0], [1e200], [0.5]]), targets=np.ones(3),
                          ids=np.array([2, 0, 1]), task=data.REGRESSION)
        cfg = TrainerConfig(method="fl", eta_theta=1.0, eta_lambda=1e-3, eps=0.0,
                            epochs=epochs, primal_optimizer="sgd", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            record = train(cfg, models.LinearModel(1), ds)
        assert record.status == "aborted"
        assert record.abort_reason == \
            "epoch-end evaluation failed: non-finite predictions for samples [0]"
        assert record.abort == {"epoch": 0, "step": 1, "ids": [0]}
        assert record.trajectory == []
        assert np.isfinite(record.params.theta).all()


class TestStepProtocol:
    def test_dual_first_ordering_on_one_parameter_model(self):
        # lam0 = 0: a primal-first scheme would freeze theta on step one,
        # dual-first moves it by eta_theta * lam1 * grad exactly
        ds = data.Dataset(features=np.array([[1.0]]), targets=np.array([2.0]),
                          ids=np.array([0]), task=data.REGRESSION)
        model = models.LinearModel(1)
        eta_t, eta_l, eps = 0.01, 0.1, 0.5
        cfg = TrainerConfig(method="fl", eta_theta=eta_t, eta_lambda=eta_l, eps=eps,
                            epochs=1, primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)
        g0 = 4.0  # (0 - 2)^2
        lam1 = eta_l * (g0 - eps)
        expected_theta = 0.0 - eta_t * lam1 * 2.0 * (0.0 - 2.0) * 1.0
        assert record.params.theta[0] == pytest.approx(expected_theta, abs=1e-15)
        assert record.params.theta[0] != 0.0
        assert record.multipliers[0] == pytest.approx(lam1, abs=1e-15)

    def test_manual_two_batch_simulation_matches_trainer_bitwise(self):
        # replays the coordinate-wise protocol by hand: batch order from the
        # counter-based shuffle, dual update on batch ids only, primal step
        # with post-update multipliers
        rng = np.random.default_rng(0)
        n, d = 6, 2
        ds = data.Dataset(features=rng.normal(size=(n, d)), targets=rng.normal(size=n),
                          ids=np.arange(n), task=data.REGRESSION)
        model = models.LinearModel(d)
        eps, eta_t, eta_l, alpha = 0.05, 0.01, 0.2, 2.0
        cfg = TrainerConfig(method="rfl", alpha=alpha, eta_theta=eta_t, eta_lambda=eta_l,
                            eps=eps, batch_size=3, epochs=2, primal_optimizer="sgd", seed=11)
        record = train(cfg, model, ds)

        theta = np.zeros(d)
        lam = np.zeros(n)
        for epoch in range(2):
            for batch in data.batch_iter(ds, 3, data.combine_seed(11, epoch)):
                preds = batch.features @ theta
                g = (preds - batch.targets) ** 2
                before = lam.copy()
                lam[batch.ids] = np.maximum(
                    lam[batch.ids] + eta_l * ((g - eps) - lam[batch.ids] / alpha), 0.0)
                untouched = np.setdiff1d(np.arange(n), batch.ids)
                assert np.array_equal(lam[untouched], before[untouched])
                dpred = lam[batch.ids] * (2.0 * (preds - batch.targets))
                theta = theta - eta_t * (batch.features.T @ dpred)
        assert np.array_equal(record.params.theta, theta)
        assert np.array_equal(record.multipliers, lam)

    @staticmethod
    def _reference_run(cfg, model, ds):
        """(theta, lam) of cfg's run, from a loop over the checked public
        functions with the optimizers written out of place. Each epoch's
        first step but the first takes its batch's rows of a forward over
        every row at its theta, the previous epoch-end evaluation."""
        kind, n = models.loss_kind(ds.task), ds.n_samples
        rows = data.Batch(ds.ids, model.featurize(ds.features), ds.targets)
        eps = np.broadcast_to(np.asarray(cfg.eps, dtype=np.float64), (n,))
        theta, lam = model.init_params(cfg.seed), np.zeros(n)
        batch_size = cfg.batch_size or n
        total_steps = max(cfg.epochs * math.ceil(n / batch_size), 1)
        b1, b2, stabilizer = (trainers.ADAMW_DEFAULTS[k] for k in ("beta1", "beta2", "stabilizer"))
        buf = m = v = None
        step = 0
        for epoch in range(cfg.epochs):
            for i, batch in enumerate(data.batch_iter(rows, batch_size, data.combine_seed(cfg.seed, epoch))):
                if epoch and not i:
                    preds, cache = model.forward_cache(theta, rows.features)
                    preds, cache = preds[batch.ids], model.cache_rows(cache, batch.ids, batch.features)
                else:
                    preds, cache = model.forward_cache(theta, batch.features)
                g = models.per_sample_loss(kind, preds, batch.targets, batch.ids)
                eps_b = eps[batch.ids]
                if cfg.method == "erm":
                    weights = np.full(len(batch), 1.0 / len(batch))
                elif cfg.method == "cserm":
                    weights = fs.analytic_dual_opt(g, eps_b, cfg.alpha)
                else:
                    weights = fs.dual_step_rfl(lam[batch.ids], fs.violations(g, eps_b),
                                               cfg.eta_lambda, cfg.alpha, batch.ids)
                if cfg.method in ("fl", "rfl"):
                    lam[batch.ids] = weights
                grad = models.weighted_grad(model, cache, models.loss_grad(kind, preds, batch.targets),
                                            weights)
                lr = cfg.eta_theta
                if cfg.cosine_decay:
                    lr *= 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
                wd = cfg.weight_decay
                if cfg.primal_optimizer == "sgd":
                    theta = theta - lr * (grad + wd * theta)
                elif cfg.primal_optimizer == "sgd_momentum":
                    update = grad + wd * theta
                    buf = update if buf is None else cfg.momentum * buf + update
                    theta = theta - lr * buf
                else:
                    m = (1.0 - b1) * grad if m is None else b1 * m + (1.0 - b1) * grad
                    v = (1.0 - b2) * grad * grad if v is None else b2 * v + (1.0 - b2) * grad * grad
                    m_hat, v_hat = m / (1.0 - b1 ** (step + 1)), v / (1.0 - b2 ** (step + 1))
                    theta = theta * (1.0 - lr * wd)
                    theta = theta - lr * m_hat / (np.sqrt(v_hat) + stabilizer)
                step += 1
        return theta, lam

    @pytest.mark.parametrize("mini_batch", [False, True], ids=["full_batch", "mini_batch"])
    @pytest.mark.parametrize("method", ["erm", "fl", "rfl", "cserm"])
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(["linear", "poly", "mlp"]),
           optimizer=st.sampled_from(["sgd", "sgd_momentum", "adamw"]),
           weight_decay=st.sampled_from([0.0, 0.05]), cosine_decay=st.booleans(),
           best_response=st.booleans(), per_sample_eps=st.booleans(),
           n=st.integers(3, 11), batch_size=st.integers(1, 10), epochs=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_trainer_equals_a_loop_of_the_checked_functions_bitwise(
            self, method, mini_batch, family, optimizer, weight_decay, cosine_decay,
            best_response, per_sample_eps, n, batch_size, epochs, seed):
        # The trainer runs the loss and dual-update kernels without their
        # checks and its loss gradient with its losses, its optimizers update
        # their moments in place, and full-batch steps index nothing: none of
        # that may move a bit. best_response gives rfl eta_lambda = alpha.
        rng = np.random.default_rng(seed)
        if family == "mlp":
            ds = data.Dataset(features=rng.normal(size=(n, 2)), targets=rng.integers(0, 3, n),
                              ids=rng.permutation(n), task=data.CLASSIFICATION)
            model = models.MLP((2, 4, 3))
        else:
            ds = data.Dataset(features=rng.uniform(-1.0, 1.0, (n, 1)), targets=rng.uniform(-1.0, 1.0, n),
                              ids=rng.permutation(n), task=data.REGRESSION)
            model = models.LinearModel(1) if family == "linear" else models.PolyModel(3)
        eps = rng.uniform(0.0, 0.5, n).tolist() if per_sample_eps else 0.2
        cfg = TrainerConfig(method=method, eta_theta=0.02,
                            eta_lambda=1.5 if best_response and method == "rfl" else 0.3, eps=eps,
                            alpha=1.5 if method in ("rfl", "cserm") else math.inf,
                            batch_size=min(batch_size, n - 1) if mini_batch else None,
                            epochs=epochs, primal_optimizer=optimizer, momentum=0.8,
                            weight_decay=weight_decay, cosine_decay=cosine_decay, seed=seed)
        record = train(cfg, model, ds)
        theta, lam = self._reference_run(cfg, model, ds)
        assert record.status == "completed"
        assert record.params.theta.tobytes() == theta.tobytes()
        assert record.multipliers.tobytes() == lam.tobytes()
        final = models.per_sample_loss(models.loss_kind(ds.task), model.forward(theta, ds.features),
                                       ds.targets)
        assert record.train_losses.tobytes() == final.tobytes()

    def test_multipliers_outside_batch_are_bitwise_stale(self):
        rng = np.random.default_rng(1)
        n = 8
        ds = data.Dataset(features=rng.normal(size=(n, 1)), targets=rng.normal(size=n) + 3.0,
                          ids=np.arange(n), task=data.REGRESSION)
        model = models.LinearModel(1)
        cfg = TrainerConfig(method="fl", eta_theta=1e-4, eta_lambda=0.1, eps=0.0,
                            batch_size=4, epochs=1, primal_optimizer="sgd", seed=5)
        record = train(cfg, model, ds)
        batches = list(data.batch_iter(ds, 4, data.combine_seed(5, 0)))
        first, second = batches[0].ids, batches[1].ids
        # second-batch multipliers reflect losses at the post-step theta;
        # verify the first primal step happened before their dual update
        theta_after_one = np.zeros(1)
        preds = batches[0].features @ theta_after_one
        g = (preds - batches[0].targets) ** 2
        lam_b1 = np.maximum(0.1 * (g - 0.0), 0.0)
        dpred = lam_b1 * 2.0 * (preds - batches[0].targets)
        theta_after_one = theta_after_one - 1e-4 * (batches[0].features.T @ dpred)
        preds2 = batches[1].features @ theta_after_one
        lam_b2 = np.maximum(0.1 * ((preds2 - batches[1].targets) ** 2), 0.0)
        assert np.array_equal(record.multipliers[second], lam_b2)
        assert np.array_equal(record.multipliers[first], lam_b1)

    def test_interleaved_runs_match_sequential_runs(self, monkeypatch):
        # Each train() call owns its shuffle generator: a whole run started in
        # the middle of another's epoch changes neither record.
        ds = data.gen_noisy_cosine(12, 0.1, 0)
        cfg_a = TrainerConfig(method="fl", eta_theta=0.05, eta_lambda=0.2, eps=0.05,
                              batch_size=5, epochs=4, seed=3)
        cfg_b = TrainerConfig(method="rfl", alpha=2.0, eta_theta=0.05, eta_lambda=0.2,
                              eps=0.05, batch_size=4, epochs=3, seed=8)
        model = models.PolyModel(4, "chebyshev", (0.0, 1.0))
        sequential = [train(cfg_a, model, ds), train(cfg_b, model, ds)]
        nested = []
        real_batch_iter = trainers.batch_iter

        def batch_iter_running_b(rows, batch_size, epoch_seed, rng=None):
            for i, batch in enumerate(real_batch_iter(rows, batch_size, epoch_seed, rng)):
                if epoch_seed == data.combine_seed(cfg_a.seed, 2) and i == 1:
                    nested.append(train(cfg_b, model, ds))
                yield batch

        monkeypatch.setattr(trainers, "batch_iter", batch_iter_running_b)
        interleaved = [train(cfg_a, model, ds), *nested]
        assert len(nested) == 1
        for seq, inter in zip(sequential, interleaved):
            assert inter.trajectory == seq.trajectory
            assert np.array_equal(inter.params.theta, seq.params.theta)
            assert np.array_equal(inter.multipliers, seq.multipliers)
            assert inter.train_pass_counts == seq.train_pass_counts

    @pytest.mark.parametrize("n", [37, 601])
    def test_epoch_statistics_equal_np_mean_bitwise(self, n):
        # The last row is evaluated at the final theta and multipliers.
        ds = data.gen_two_moons(2 * n, 0.2, 0)
        train_ds, test_ds = data.split_train_test(ds, 0.5, 1)
        model = models.MLP((2, 8, 2))
        cfg = TrainerConfig(method="fl", eta_theta=0.05, eta_lambda=0.3, eps=0.3,
                            batch_size=5, epochs=3, primal_optimizer="adamw", seed=2)
        record = train(cfg, model, train_ds, test_ds)
        last, lam = record.trajectory[-1], record.multipliers
        logits = model.forward(record.params.theta, train_ds.features)
        assert 0 < last["lam_frac_zero"] < 1
        assert last["train_mean_loss"] == float(np.mean(record.train_losses))
        assert last["train_max_loss"] == float(record.train_losses.max())
        assert last["test_mean_loss"] == float(np.mean(record.test_losses))
        assert last["sat_fraction"] == float(np.mean(record.train_losses <= 0.3 + fs.SAT_TOL))
        assert last["lam_mean"] == float(np.mean(lam))
        assert last["lam_frac_zero"] == float(np.mean(lam <= fs.ZERO_MULTIPLIER_TOL))
        assert last["train_accuracy"] == float(np.mean(logits.argmax(axis=1) == train_ds.targets))

    def test_determinism_bitwise(self):
        ds = data.gen_two_moons(40, 0.1, 0)
        model = models.MLP((2, 6, 2))
        cfg = TrainerConfig(method="rfl", alpha=1.0, eta_theta=1e-2, eta_lambda=0.1,
                            eps=0.2, batch_size=16, epochs=5,
                            primal_optimizer="adamw", seed=3)
        a = train(cfg, model, ds)
        b = train(cfg, model, ds)
        assert np.array_equal(a.params.theta, b.params.theta)
        assert np.array_equal(a.multipliers, b.multipliers)
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert ra == rb


class TestCostParity:
    def test_same_pass_counts_for_all_methods(self):
        ds = data.gen_two_moons(60, 0.1, 0)
        model = models.MLP((2, 8, 2))
        counts = {}
        for method, extra in [("erm", {}), ("fl", {}), ("rfl", {"alpha": 1.0}),
                              ("cserm", {"alpha": 1.0})]:
            cfg = TrainerConfig(method=method, eta_theta=1e-2, eta_lambda=0.1, eps=0.3,
                                batch_size=16, epochs=4, primal_optimizer="adamw",
                                seed=0, **extra)
            counts[method] = train(cfg, model, ds).train_pass_counts
        assert counts["erm"] == counts["fl"] == counts["rfl"] == counts["cserm"]
        steps = 4 * 4  # epochs * ceil(60/16)
        assert counts["erm"] == {"forward": steps, "backward": steps}

    @pytest.mark.parametrize("batch_size,epochs", [(16, 4), (16, 1), (20, 3)],
                             ids=["ragged", "one_epoch", "even"])
    def test_mini_batch_runs_make_one_forward_per_step_and_no_final_one(self, monkeypatch,
                                                                        batch_size, epochs):
        # Each epoch's first step but the first takes its rows of the previous
        # epoch-end forward, and the final losses are the last evaluation's:
        # beyond the steps, only each epoch's test and last train evaluation run.
        train_ds, test_ds = data.split_train_test(data.gen_two_moons(80, 0.1, 0), 0.25, 0)
        real, calls = models.MLP.forward_cache, []

        def counting(model, *args):
            calls.append(1)
            return real(model, *args)

        monkeypatch.setattr(models.MLP, "forward_cache", counting)
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.3, batch_size=batch_size,
                            epochs=epochs, primal_optimizer="adamw", seed=0)
        record = train(cfg, models.MLP((2, 8, 2)), train_ds, test_ds)
        steps = epochs * math.ceil(train_ds.n_samples / batch_size)
        assert record.status == "completed"
        assert record.train_pass_counts == {"forward": steps, "backward": steps}
        assert len(calls) == steps + 1 + epochs

    @pytest.mark.parametrize("batch_size,steps", [(None, 1), (7, 5)], ids=["full_batch", "batch_7"])
    def test_abort_at_epoch_end_counts_no_unused_forward(self, batch_size, steps):
        # The epoch-end train forward after the first epoch's steps would be
        # the next step's; the test evaluation then aborts, so no step uses it.
        test_ds = data.Dataset(features=np.array([[0.5], [1e200]]), targets=np.zeros(2),
                               ids=np.arange(2), task=data.REGRESSION)
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.05,
                            batch_size=batch_size, epochs=3, seed=0)
        record = train(cfg, models.MLP((1, 6, 1), data.REGRESSION),
                       data.gen_noisy_cosine(30, 0.1, 5), test_ds)
        assert record.abort_reason == "epoch-end evaluation failed: non-finite losses for samples [1]"
        assert record.abort == {"epoch": 0, "step": steps, "ids": [1]}
        assert record.train_pass_counts == {"forward": steps, "backward": steps}

    def test_shared_step_reaches_trainer_and_gradient_oracle(self, monkeypatch):
        # train() and weighted_loss_grad take their backward pass through
        # models.weighted_grad, so doubling its output doubles both. Under erm
        # with plain SGD that is the run with twice the step size, bit for bit.
        ds = _line_dataset()
        model = models.LinearModel(1)
        batch = data.Batch(ds.ids, ds.features, ds.targets)
        weights, theta = np.linspace(0.1, 1.0, ds.n_samples), np.array([0.3])

        def run(eta):
            cfg = TrainerConfig(method="erm", eta_theta=eta, epochs=5, primal_optimizer="sgd")
            return train(cfg, model, ds).params.theta

        theta_plain, theta_double_eta = run(0.01), run(0.02)
        grad = models.weighted_loss_grad(model, theta, batch, weights, models.SQUARED_ERROR)
        real = models.weighted_grad
        monkeypatch.setattr(models, "weighted_grad", lambda *args: 2.0 * real(*args))
        patched = run(0.01)
        assert not np.array_equal(patched, theta_plain)
        assert np.array_equal(patched, theta_double_eta)
        assert np.array_equal(
            models.weighted_loss_grad(model, theta, batch, weights, models.SQUARED_ERROR), 2.0 * grad)

    def test_one_forward_loss_path_for_trainer_and_gradient_oracle(self, monkeypatch):
        # Every forward of train(), of weighted_loss_grad and of the gradient
        # oracle's analytic side is a models.forward_loss call; the oracle's
        # probe stacks run the same kernels, forward_cache and loss_kernel, and
        # never the checked per_sample_loss.
        calls = dict.fromkeys(["forward_loss", "forward_cache", "loss_kernel"], 0)

        def count(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        def refused(*args, **kwargs):
            raise AssertionError("per_sample_loss called on a finite run")

        count(models, "forward_loss")
        count(models.MLP, "forward_cache")
        count(models, "loss_kernel")
        monkeypatch.setattr(models, "per_sample_loss", refused)

        train_ds, test_ds = data.split_train_test(data.gen_two_moons(80, 0.1, 0), 0.25, 0)
        epochs, batch_size = 3, 16
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.3, batch_size=batch_size,
                            epochs=epochs, primal_optimizer="adamw", seed=0)
        record = train(cfg, models.MLP((2, 8, 2)), train_ds, test_ds)
        steps = epochs * math.ceil(train_ds.n_samples / batch_size)
        assert record.status == "completed"
        # the steps, less the epoch firsts that take the look-ahead, plus that
        # look-ahead, the last train evaluation and every test evaluation
        assert calls["forward_loss"] == calls["forward_cache"] == steps + 1 + epochs

        model = models.MLP((2, 5, 3))
        theta = model.init_params(1)
        batch = data.Batch(np.arange(4), np.ones((4, 2)), np.array([0, 2, 1, 0]))
        calls.update(dict.fromkeys(calls, 0))
        for _ in range(3):
            models.weighted_loss_grad(model, theta, batch, np.ones(4), models.CROSS_ENTROPY)
        assert calls == {"forward_loss": 3, "forward_cache": 3, "loss_kernel": 3}

        calls.update(dict.fromkeys(calls, 0))
        n_draws = 4
        report = oracle.gradient_check_report(families=("mlp_classifier",), n_draws=n_draws)
        assert report["passed"]
        # per draw: two analytic gradients, and g0 plus two probe stacks
        assert calls["forward_loss"] == 2 * n_draws
        assert calls["forward_cache"] == calls["loss_kernel"] == 5 * n_draws


class TestEquivalentTrajectories:
    # rfl's ascent step [lam + eta (v - lam/alpha)]_+ with eta = alpha is
    # alpha [g - eps]_+ whatever lam was: cserm's weights, up to rounding.
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.1, 4.0), batch_size=st.sampled_from([None, 3, 5, 7]),
           optimizer=st.sampled_from(["sgd", "adamw"]), seed=st.integers(0, 2**16))
    def test_rfl_at_eta_lambda_alpha_reproduces_cserm(self, alpha, batch_size, optimizer, seed):
        rng = np.random.default_rng(7)  # one data set; the seed draws the init and the batches
        ds = data.Dataset(features=rng.normal(size=(12, 2)), targets=rng.normal(size=12),
                          ids=np.arange(12), task=data.REGRESSION)
        model = models.MLP((2, 6, 1), task=data.REGRESSION)
        kw = dict(alpha=alpha, eta_theta=1e-2, eps=0.05, epochs=60, batch_size=batch_size,
                  primal_optimizer=optimizer, seed=seed)
        rec_rfl = train(TrainerConfig(method="rfl", eta_lambda=alpha, **kw), model, ds)
        rec_cserm = train(TrainerConfig(method="cserm", **kw), model, ds)
        assert rec_rfl.status == rec_cserm.status
        if rec_cserm.status == "completed":
            theta = rec_cserm.params.theta
            assert np.linalg.norm(rec_rfl.params.theta - theta) <= 1e-12 * np.linalg.norm(theta)


class TestInfeasibleDynamics:
    def test_fl_multipliers_outgrow_rfl_on_conflicting_pairs(self):
        ds = data.gen_conflicting_pairs(4, 2, 2.0, 0)
        model = models.LinearModel(2)
        kw = dict(eta_theta=1e-4, eta_lambda=1e-2, eps=0.0, epochs=800,
                  primal_optimizer="sgd", seed=0)
        rec_fl = train(TrainerConfig(method="fl", **kw), model, ds)
        rec_rfl = train(TrainerConfig(method="rfl", alpha=1.0, **kw), model, ds)
        assert rec_fl.status == "completed" and rec_rfl.status == "completed"
        assert rec_fl.multipliers.max() > 5 * rec_rfl.multipliers.max()
        V = max(r["max_step_violation"] for r in rec_rfl.trajectory)
        assert np.all(rec_rfl.multipliers <= 1.0 * V + 1e-2 * V)

    def test_dual_blowup_aborts_with_sample_ids(self):
        ds = data.gen_conflicting_pairs(2, 1, 2.0, 0)
        model = models.LinearModel(1)
        cfg = TrainerConfig(method="fl", eta_theta=1e-12, eta_lambda=1e13, eps=0.0,
                            epochs=5, primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)
        assert record.status == "aborted"
        assert "dual blow-up" in record.abort_reason
        assert record.train_losses is not None  # partial artifacts retained

    def test_divergent_primal_aborts_on_non_finite(self):
        ds = _line_dataset()
        model = models.LinearModel(1)
        cfg = TrainerConfig(method="erm", eta_theta=1e30, epochs=50,
                            primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)
        assert record.status == "aborted"
        assert len(record.trajectory) < 50


class TestFeasibilityStatistics:
    """A trajectory row counts the satisfied constraints and the zero multipliers."""

    def test_hand_example(self):
        # predictions start at 0, so the first step's losses are 0.6 and 0.3;
        # with eps = 0.51 only id 0 violates, by 0.09, and only its lambda grows.
        ds = data.Dataset(features=np.eye(2), targets=np.sqrt([0.6, 0.3]), ids=np.arange(2),
                          task=data.REGRESSION)
        cfg = TrainerConfig(method="fl", eta_theta=0.1, eta_lambda=0.5, eps=0.51, epochs=1,
                            primal_optimizer="sgd", seed=0)
        record = train(cfg, models.LinearModel(2), ds)
        [row] = record.trajectory
        assert row["max_step_violation"] == pytest.approx(0.09, abs=1e-12)
        assert row["sat_fraction"] == 0.5
        assert row["lam_frac_zero"] == 0.5
        assert row["lam_min"] == 0.0
        assert row["lam_max"] == pytest.approx(0.5 * 0.09, abs=1e-12)
        assert record.multipliers[1] == 0.0

    @pytest.mark.parametrize("method", trainers.METHODS)
    def test_conflicting_pairs_never_satisfy_more_than_half_at_eps_zero(self, method):
        # The two rows of a pair share features but not targets, so at any
        # theta at most one of them has zero loss.
        ds = data.gen_conflicting_pairs(3, 2, 2.0, 0)
        cfg = TrainerConfig(method=method, eta_theta=0.01, eta_lambda=0.1, eps=0.0, epochs=20,
                            alpha=1.0, primal_optimizer="sgd", seed=0)
        record = train(cfg, models.LinearModel(2), ds)
        assert record.status == "completed"
        assert len(record.trajectory) == 20
        assert all(row["sat_fraction"] <= 0.5 for row in record.trajectory)
        assert np.mean(record.train_losses <= fs.SAT_TOL) <= 0.5


class TestEvalSplit:
    # A stand-in model whose predictions are its input rows, so the logits are given.
    identity = SimpleNamespace(forward_cache=lambda theta, features, workspace=None: (features, None))

    def _accuracy(self, logits, labels):
        rows = data.Batch(np.arange(len(labels)), logits, labels)
        return trainers._eval_split(self.identity, None, rows, models.CROSS_ENTROPY)[1]

    def test_accuracy_from_logits(self):
        logits = np.array([[2.0, 0.0], [0.0, 1.0], [3.0, -1.0], [0.5, 0.2]])
        assert self._accuracy(logits, np.array([0, 1, 1, 0])) == 0.75

    def test_uniform_random_classifier_accuracy(self):
        # Monte Carlo across seeds: accuracy hovers near 1/C
        C, n = 4, 2000
        for seed in range(5):
            rng = np.random.default_rng(seed)
            acc = self._accuracy(rng.normal(size=(n, C)), rng.integers(0, C, size=n))
            assert abs(acc - 1.0 / C) <= 0.05


class TestRunRecordPersistence:
    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(trainers.METHODS), classify=st.booleans(),
           batch_size=st.sampled_from([None, 4]), with_test=st.booleans(),
           epochs=st.sampled_from([0, 1, 3]), diverge=st.booleans(), seed=st.integers(0, 2**16))
    @example(method="cserm", classify=False, batch_size=4, with_test=False, epochs=3, diverge=False,
             seed=1)
    def test_load_run_returns_the_saved_record(self, method, classify, batch_size, with_test,
                                               epochs, diverge, seed):
        # eta_theta = 1e200 makes the poly model's losses overflow after the first
        # step, so the run aborts at its next forward (eps = 0 keeps every gradient
        # nonzero); the MLP's ReLUs may all die instead. At eta_theta = 0.05 a few
        # cserm seeds diverge with batch 4, as the example above does; at 0.02 no
        # poly run of any method, batch size or split diverges on seeds 0 to 2**16.
        cfg = TrainerConfig(method=method, eta_theta=1e200 if diverge else 0.02, eta_lambda=0.5,
                            alpha=2.0, eps=0.0 if diverge else 0.1, batch_size=batch_size,
                            epochs=epochs, seed=seed)
        if classify:
            ds, model = data.gen_two_moons(16, 0.2, seed), models.MLP((2, 4, 2))
        else:
            ds, model = data.gen_noisy_cosine(16, 0.2, seed), models.PolyModel(3, "chebyshev", (0.0, 1.0))
        train_ds, test_ds = data.split_train_test(ds, 0.25, seed) if with_test else (ds, None)
        with np.errstate(over="ignore", invalid="ignore"):
            record = train(cfg, model, train_ds, test_ds)
        assert classify or (record.status == "aborted") == (diverge and epochs > 0)
        with tempfile.TemporaryDirectory() as outdir:
            trainers.save_run(record, outdir)
            back = trainers.load_run(outdir)

        def raw(a):
            return None if a is None else (a.dtype, a.shape, a.tobytes())

        assert isinstance(back, trainers.RunRecord)
        assert back.config == record.config
        np.testing.assert_equal(back.trajectory, record.trajectory)  # NaN matches NaN
        for rows in (record.trajectory, back.trajectory):  # Python numbers, not NumPy scalars
            assert all(type(v) is (int if k == "epoch" else float) for row in rows for k, v in row.items())
        for name in ("train_losses", "test_losses", "multipliers"):
            assert raw(getattr(back, name)) == raw(getattr(record, name)), name
        assert raw(back.params.theta) == raw(record.params.theta)
        assert back.params.descriptor == record.params.descriptor
        meta = back.meta
        phases = dict(meta["phase_s"])
        assert phases.pop("persist") >= 0.0
        assert {**meta, "phase_s": phases} == record.meta

    def test_round_trip(self, tmp_path):
        ds = data.gen_two_moons(30, 0.1, 0)
        test = data.gen_two_moons(30, 0.1, 1)
        model = models.MLP((2, 5, 2))
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.4,
                            batch_size=10, epochs=3, primal_optimizer="adamw", seed=0)
        record = train(cfg, model, ds, test)
        outdir = tmp_path / "run"
        trainers.save_run(record, outdir)
        for name in ("config.json", "trajectory.csv", "final_losses_train.csv",
                     "final_losses_test.csv", "multipliers.csv", "checkpoint.bin",
                     "status.txt", "meta.json"):
            assert (outdir / name).exists(), name
        back = trainers.load_run(outdir)
        assert back.status == "completed"
        assert np.array_equal(back.train_losses, record.train_losses)
        assert np.array_equal(back.test_losses, record.test_losses)
        assert np.array_equal(back.multipliers, record.multipliers)
        assert np.array_equal(back.params.theta, record.params.theta)
        assert len(back.trajectory) == 3
        for column in trainers.TRAJECTORY_COLUMNS:
            assert np.array_equal([row[column] for row in back.trajectory],
                                  [row[column] for row in record.trajectory]), column
        assert back.config["dataset_signature"]["train"] == ds.signature()

    @pytest.mark.parametrize("breaks", ["meta", "trajectory"])
    def test_failed_rewrite_never_reads_completed(self, tmp_path, breaks):
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=2, seed=0)
        record = train(cfg, models.LinearModel(1), _line_dataset())
        outdir = tmp_path / "r"
        trainers.save_run(record, outdir)
        assert (outdir / "status.txt").read_text() == "completed\n"
        if breaks == "meta":
            record.metadata["unserializable"] = object()
        else:
            record.trajectory[-1]["lam_max"] = "not a number"
        with pytest.raises((TypeError, ValueError)):
            trainers.save_run(record, outdir)
        assert not (outdir / "status.txt").exists()
        meta = (outdir / "meta.json").read_text() if (outdir / "meta.json").exists() else ""
        assert '"status": "completed"' not in meta

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_meta_json_splits_the_time_into_phases(self, tmp_path, batch_size):
        cfg = TrainerConfig(method="fl", eta_theta=0.01, eta_lambda=0.1, eps=0.1,
                            batch_size=batch_size, epochs=20, seed=0)
        record = train(cfg, models.LinearModel(1), _line_dataset(), _line_dataset(4, 1.0))
        trainers.save_run(record, tmp_path / "r")
        meta = trainers.load_run(tmp_path / "r").meta
        phases = meta["phase_s"]
        assert set(phases) == {"forward_loss", "dual_update", "backward", "optimizer_step",
                               "epoch_eval", "persist"}
        assert all(phases[name] > 0.0 for name in phases)
        assert sum(phases.values()) <= meta["wall_clock_s"] + phases["persist"]

    def test_zero_epochs_emit_initial_state(self, tmp_path):
        ds = _line_dataset()
        model = models.LinearModel(1)
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=0,
                            primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)
        assert record.status == "completed"
        assert record.trajectory == []
        assert record.train_losses is not None
        trainers.save_run(record, tmp_path / "r")
        back = trainers.load_run(tmp_path / "r")
        assert len(back.trajectory) == 0


class TestOptimizers:
    def test_records_do_not_share_the_adamw_defaults(self):
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=1, primal_optimizer="adamw", seed=0)
        first = train(cfg, models.LinearModel(1), _line_dataset())
        first.metadata["adamw_defaults"]["beta1"] = 0.5
        second = train(cfg, models.LinearModel(1), _line_dataset())
        assert second.metadata["adamw_defaults"]["beta1"] == 0.9
        assert trainers.ADAMW_DEFAULTS["beta1"] == 0.9

    def test_adamw_weight_decay_is_decoupled(self):
        # zero gradient: adamw still shrinks parameters, plain sgd does not
        theta = np.array([1.0, -2.0])
        adamw = trainers._AdamW(weight_decay=0.1)
        out = adamw.step(theta, np.zeros(2), lr=0.5)
        assert np.allclose(out, theta * (1.0 - 0.5 * 0.1))
        sgd = trainers._Sgd(weight_decay=0.0)
        assert np.array_equal(sgd.step(theta, np.zeros(2), lr=0.5), theta)

    def test_sgd_momentum_accumulates(self):
        opt = trainers._SgdMomentum(momentum=0.5, weight_decay=0.0)
        theta = np.zeros(1)
        theta = opt.step(theta, np.array([1.0]), lr=1.0)   # buf = 1
        theta2 = opt.step(theta, np.array([1.0]), lr=1.0)  # buf = 1.5
        assert theta[0] == pytest.approx(-1.0)
        assert theta2[0] == pytest.approx(-2.5)

    @staticmethod
    def _adamw_one_moment_at_a_time(steps, theta, weight_decay):
        # The formulas with m and v as two arrays, each operation on one of them.
        beta1, beta2, stabilizer = (trainers.ADAMW_DEFAULTS[k] for k in ("beta1", "beta2", "stabilizer"))
        m, v, out = np.zeros_like(theta), np.zeros_like(theta), []
        for t, (grad, lr) in enumerate(steps, 1):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            theta = theta * (1.0 - lr * weight_decay)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + stabilizer)
            out.append(theta)
        return out

    @settings(max_examples=60, deadline=None)
    @given(n_params=st.integers(1, 12), n_steps=st.integers(1, 30), seed=st.integers(0, 2**16),
           weight_decay=st.sampled_from([0.0, 1e-2, 0.5]), scale=st.sampled_from([1e-3, 1.0, 1e150]))
    def test_adamw_equals_the_formulas_one_moment_at_a_time(self, n_params, n_steps, seed,
                                                            weight_decay, scale):
        # lr 0 makes the decay factor 1.0; scale 1e150 overflows g * g.
        rng = np.random.default_rng(seed)
        steps = [(scale * rng.normal(size=n_params), float(rng.choice([0.0, 1e-3, 0.1])))
                 for _ in range(n_steps)]
        theta = rng.normal(size=n_params)
        optimizer = trainers._AdamW(weight_decay)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = self._adamw_one_moment_at_a_time(steps, theta, weight_decay)
            for (grad, lr), want in zip(steps, expected):
                theta = optimizer.step(theta, grad, lr)
                assert theta.tobytes() == want.tobytes()

    @pytest.mark.parametrize("optimizer", [trainers._Sgd(0.1), trainers._SgdMomentum(0.5, 0.1),
                                           trainers._AdamW(0.1)], ids=["sgd", "sgd_momentum", "adamw"])
    def test_step_returns_a_new_theta_and_leaves_its_argument_alone(self, optimizer):
        # MLP caches hold views of theta, so a step must not write into it,
        # although the optimizers update their own moment buffers in place.
        theta = np.array([1.0, -2.0, 0.5])
        for grad in (np.array([0.3, 0.1, -0.2]), np.array([-0.1, 0.4, 0.2])):
            given = theta.copy()
            new = optimizer.step(theta, grad, lr=0.1)
            assert np.array_equal(theta, given) and not np.shares_memory(new, theta)
            theta = new

    def test_cosine_decay_runs_and_shrinks_steps(self):
        ds = _line_dataset()
        model = models.LinearModel(1)
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=30, cosine_decay=True,
                            primal_optimizer="sgd", seed=0)
        record = train(cfg, model, ds)
        assert record.status == "completed"


class TestFeaturizeOnce:
    """PolyModel is a Chebyshev feature map over LinearModel, expanded once per train()."""

    DEGREE, DOMAIN = 5, (0.0, 1.0)
    METHOD_KW = {
        "erm": {},
        "fl": {"eta_lambda": 0.5},
        "rfl": {"eta_lambda": 0.5, "alpha": 1.0},
        "cserm": {"alpha": 1.0},
    }

    def _splits(self):
        full = data.gen_noisy_cosine(24, 0.2, 3)
        return data.split_train_test(full, 0.25, 3)

    def _expanded(self, ds):
        phi = data.poly_features(ds.features[:, 0], self.DEGREE, "chebyshev", self.DOMAIN)
        return data.Dataset(features=phi, targets=ds.targets, ids=ds.ids, task=ds.task)

    @pytest.mark.parametrize("batch_size", [None, 5])
    @pytest.mark.parametrize("method", ["erm", "fl", "rfl", "cserm"])
    def test_poly_matches_linear_on_expanded_features_bitwise(self, method, batch_size):
        train_ds, test_ds = self._splits()
        cfg = TrainerConfig(method=method, eta_theta=5e-3, eps=0.05, batch_size=batch_size,
                            epochs=15, primal_optimizer="sgd", seed=2,
                            **self.METHOD_KW[method])
        poly = train(cfg, models.PolyModel(self.DEGREE, "chebyshev", self.DOMAIN),
                     train_ds, test_ds)
        lin = train(cfg, models.LinearModel(self.DEGREE + 1),
                    self._expanded(train_ds), self._expanded(test_ds))
        assert poly.status == lin.status == "completed"
        assert poly.trajectory == lin.trajectory
        assert np.array_equal(poly.params.theta, lin.params.theta)
        assert np.array_equal(poly.multipliers, lin.multipliers)
        assert np.array_equal(poly.test_losses, lin.test_losses)

    def test_poly_features_calls_do_not_grow_with_epochs(self, monkeypatch):
        train_ds, test_ds = self._splits()
        calls = []
        original = data.poly_features

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(data, "poly_features", counting)
        counts = []
        for epochs in (1, 20):
            calls.clear()
            cfg = TrainerConfig(method="rfl", alpha=1.0, eta_theta=5e-3, eta_lambda=0.5,
                                eps=0.05, batch_size=5, epochs=epochs, seed=0)
            train(cfg, models.PolyModel(self.DEGREE, "chebyshev", self.DOMAIN),
                  train_ds, test_ds)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 2

    def test_featurize_is_identity_without_copy(self):
        X = np.zeros((3, 2))
        assert models.LinearModel(2).featurize(X) is X
        assert models.MLP((2, 3, 2)).featurize(X) is X

    def test_overflowing_expansion_aborts_instead_of_raising(self):
        ds = data.Dataset(features=np.array([[0.5], [1e200], [0.2]]), targets=np.ones(3),
                          ids=np.array([2, 0, 1]), task=data.REGRESSION)
        cfg = TrainerConfig(method="erm", eta_theta=1.0, epochs=3, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            record = train(cfg, models.PolyModel(3, "chebyshev", self.DOMAIN), ds)
        assert record.status == "aborted"
        assert record.abort_reason == "non-finite predictions for samples [0]"
        assert record.abort == {"epoch": 0, "step": 0, "ids": [0]}


class TestWorkspaceBitIdentity:
    """train() gives the same record whether or not MLP passes reuse its workspaces."""

    @staticmethod
    def _record_bits(record):
        def raw(a):
            return None if a is None else a.tobytes()
        return ([[repr(v) for v in row.values()] for row in record.trajectory],
                raw(record.params.theta), raw(record.multipliers),
                raw(record.train_losses), raw(record.test_losses),
                record.status, record.abort_reason, record.abort, record.train_pass_counts)

    def _both_ways(self, monkeypatch, run):
        real = models.MLP.forward_cache
        given = []

        def fresh_arrays(model, theta, features, workspace=None):
            given.append(workspace is not None)
            return real(model, theta, features)

        reused = run()
        monkeypatch.setattr(models.MLP, "forward_cache", fresh_arrays)
        fresh = run()
        assert given and all(given)  # train() passed a workspace to every forward
        assert self._record_bits(reused) == self._record_bits(fresh)
        return reused

    def test_mini_batch_fl_with_test_split_and_ragged_last_batch(self, monkeypatch):
        train_ds, test_ds = data.split_train_test(data.gen_two_moons(100, 0.2, 3), 0.25, 3)
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.3, batch_size=20,
                            epochs=6, primal_optimizer="adamw", seed=3)
        assert train_ds.n_samples % cfg.batch_size != 0
        model = models.MLP((2, 10, 7, 2))
        record = self._both_ways(monkeypatch, lambda: train(cfg, model, train_ds, test_ds))
        assert record.status == "completed" and record.test_losses is not None

    def test_full_batch_erm_shares_the_epoch_end_forward(self, monkeypatch):
        train_ds, test_ds = data.split_train_test(data.gen_two_moons(80, 0.2, 4), 0.25, 4)
        cfg = TrainerConfig(method="erm", eta_theta=5e-2, epochs=6, primal_optimizer="sgd_momentum", seed=4)
        model = models.MLP((2, 12, 2))
        record = self._both_ways(monkeypatch, lambda: train(cfg, model, train_ds, test_ds))
        assert record.train_pass_counts == {"forward": 6, "backward": 6}

    def test_abort_at_epoch_end_evaluation_keeps_its_record(self, monkeypatch):
        # Training rows are tame; test id 1 at x = 1e200 overflows its squared
        # error at the first epoch-end evaluation, with the next full-batch
        # step's train forward already made.
        train_ds = data.gen_noisy_cosine(30, 0.1, 5)
        test_ds = data.Dataset(features=np.array([[0.5], [1e200]]), targets=np.zeros(2),
                               ids=np.array([0, 1]), task=data.REGRESSION)
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.05, epochs=4,
                            primal_optimizer="sgd", seed=5)
        model = models.MLP((1, 6, 1), "regression")
        with np.errstate(over="ignore"):
            record = self._both_ways(monkeypatch, lambda: train(cfg, model, train_ds, test_ds))
        assert record.status == "aborted"
        assert record.abort_reason == "epoch-end evaluation failed: non-finite losses for samples [1]"
        assert record.abort == {"epoch": 0, "step": 1, "ids": [1]}
        assert record.train_losses is not None and record.test_losses is None


class TestAbortNamesDatasetIds:
    def test_batch_abort_reports_dataset_ids_and_persists_them(self, tmp_path):
        # id 5 pushes theta to ~1e200 in the first batch; the second batch,
        # ids [6, 1], then overflows its squared errors
        x = np.ones((8, 1))
        x[5, 0] = 1e200
        ds = data.Dataset(features=x, targets=np.ones(8), ids=np.arange(8),
                          task=data.REGRESSION)
        assert [b.ids.tolist() for b in data.batch_iter(ds, 2, data.combine_seed(0, 0))][:2] \
            == [[5, 0], [6, 1]]
        cfg = TrainerConfig(method="erm", eta_theta=1.0, batch_size=2, epochs=3, seed=0)
        with np.errstate(over="ignore"):
            record = train(cfg, models.LinearModel(1), ds)
        assert record.abort_reason == "non-finite losses for samples [6, 1]"
        assert record.abort == {"epoch": 0, "step": 1, "ids": [6, 1]}
        trainers.save_run(record, tmp_path / "r")
        back = trainers.load_run(tmp_path / "r")
        assert back.meta["abort"] == {"epoch": 0, "step": 1, "ids": [6, 1]}

    def test_completed_run_persists_no_abort(self, tmp_path):
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=2, seed=0)
        record = train(cfg, models.LinearModel(1), _line_dataset())
        trainers.save_run(record, tmp_path / "r")
        assert record.abort is None
        assert trainers.load_run(tmp_path / "r").meta["abort"] is None


class TestAbortPathsUnderWarningsAsErrors:
    """train() ignores overflow and invalid operations in one error state for the
    whole run, so every abort below ends in its record, with the reason and ids
    of the checked functions, and never in a warning; the caller's error state
    is back in place when train() returns or raises."""

    @staticmethod
    def _train(cfg, model, train_ds, test_ds=None):
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="call", divide="warn"):
            warnings.simplefilter("error")
            before = np.geterr()
            try:
                return train(cfg, model, train_ds, test_ds)
            finally:
                assert np.geterr() == before

    def test_overflowing_dual_update_then_blow_up(self):
        # Sample 2's ascent overflows to -inf and projects to 0; samples 0 and 1
        # pass the blow-up threshold.
        ds = data.Dataset(features=np.ones((3, 1)), targets=np.array([1.0, 2.0, 0.0]),
                          ids=np.arange(3), task=data.REGRESSION)
        cfg = TrainerConfig(method="fl", eta_theta=1e-3, eta_lambda=1e300, eps=[0.0, 0.0, 1e10],
                            epochs=3, seed=0)
        record = self._train(cfg, models.LinearModel(1), ds)
        assert record.abort_reason == "dual blow-up: multipliers exceed 1e+12 on samples [0, 1]"
        assert record.abort == {"epoch": 0, "step": 0, "ids": [0, 1]}
        assert record.multipliers.tolist() == [1e300 * 1.0, 1e300 * 4.0, 0.0]

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_non_finite_dual_update_keeps_the_old_multipliers(self, batch_size, monkeypatch):
        ds = data.Dataset(features=np.ones((3, 1)), targets=np.array([1.0, 2.0, 1e5]),
                          ids=np.arange(3), task=data.REGRESSION)
        cfg = TrainerConfig(method="rfl", alpha=1.0, eta_theta=1e-3, eta_lambda=1e300, eps=0.0,
                            batch_size=batch_size, epochs=3, seed=0)

        def refused(*args, **kwargs):
            raise AssertionError("the step names its samples from the multipliers it holds")

        monkeypatch.setattr(fs, "dual_step_rfl", refused)
        record = self._train(cfg, models.LinearModel(1), ds)
        assert record.abort_reason == "dual update produced non-finite multipliers at [2]"
        assert record.abort["ids"] == [2]
        assert not record.multipliers[2]

    def test_non_finite_loss_at_epoch_end_evaluation(self):
        test_ds = data.Dataset(features=np.array([[0.5], [1e200]]), targets=np.zeros(2),
                               ids=np.arange(2), task=data.REGRESSION)
        cfg = TrainerConfig(method="fl", eta_theta=1e-2, eta_lambda=0.1, eps=0.05, epochs=4, seed=5)
        record = self._train(cfg, models.MLP((1, 6, 1), data.REGRESSION),
                             data.gen_noisy_cosine(30, 0.1, 5), test_ds)
        assert record.abort_reason == "epoch-end evaluation failed: non-finite losses for samples [1]"
        assert record.abort == {"epoch": 0, "step": 1, "ids": [1]}

    def test_non_finite_prediction_inside_a_step(self):
        # Batch [5, 0] takes theta to about 1e200; batch [6, 1] then predicts
        # inf for id 6, whose feature is 1e200 too.
        x = np.ones((8, 1))
        x[[5, 6], 0] = 1e200
        ds = data.Dataset(features=x, targets=np.ones(8), ids=np.arange(8), task=data.REGRESSION)
        cfg = TrainerConfig(method="erm", eta_theta=1.0, batch_size=2, epochs=3, seed=0)
        record = self._train(cfg, models.LinearModel(1), ds)
        assert record.abort_reason == "non-finite predictions for samples [6]"
        assert record.abort == {"epoch": 0, "step": 1, "ids": [6]}

    def test_minus_infinite_logit_aborts_although_its_loss_is_finite(self):
        # theta sends the logits of id 1 to (-inf, 0): its cross-entropy on
        # label 1 is 0, so only the logit check catches it.
        ds = data.Dataset(features=np.array([[0.0], [1e300]]), targets=np.array([0, 1]),
                          ids=np.arange(2), task=data.CLASSIFICATION)
        model = models.MLP((1, 2))
        theta = np.array([-1e10, 0.0, 0.0, 0.0])  # weights (2, 1), then biases
        with np.errstate(over="ignore"):
            preds, _ = model.forward_cache(theta, ds.features)
            assert models.loss_kernel(models.CROSS_ENTROPY, preds, ds.targets)[1] == 0.0
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=2, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "init_params", lambda seed: theta.copy())
            record = self._train(cfg, model, ds)
        assert record.abort_reason == "non-finite predictions for samples [1]"
        assert record.abort == {"epoch": 0, "step": 0, "ids": [1]}

    def test_non_finite_parameters_after_a_primal_step(self, tmp_path):
        # the first sgd step takes theta from 0 to -1e308 * 2 * (0 - 1) = inf
        ds = data.Dataset(features=np.ones((3, 1)), targets=np.ones(3), ids=np.arange(3),
                          task=data.REGRESSION)
        cfg = TrainerConfig(method="erm", eta_theta=1e308, primal_optimizer="sgd", epochs=3, seed=0)
        record = self._train(cfg, models.LinearModel(1), ds)
        assert record.status == "aborted"
        assert record.abort_reason == "parameters became non-finite after primal step"
        assert record.abort == {"epoch": 0, "step": 0, "ids": []}
        assert record.trajectory == [] and record.train_losses is None
        trainers.save_run(record, tmp_path / "r")
        back = trainers.load_run(tmp_path / "r")
        assert (back.status, back.abort_reason) == (record.status, record.abort_reason)
        assert back.meta["abort"] == {"epoch": 0, "step": 0, "ids": []}

    def test_raising_train_restores_the_error_state(self):
        ds = data.Dataset(features=np.zeros((4, 2)), targets=[0, 1, 2, 1], ids=np.arange(4),
                          task=data.CLASSIFICATION)
        cfg = TrainerConfig(method="erm", eta_theta=0.1, batch_size=2, epochs=1, seed=0)
        with pytest.raises(ParameterError, match=r"samples \[2\] have class labels"):
            self._train(cfg, models.MLP((2, 3, 2)), ds)


class TestLabelRange:
    def test_label_beyond_output_width_is_a_parameter_error(self):
        ds = data.Dataset(features=np.zeros((4, 2)), targets=[0, 1, 2, 1], ids=np.arange(4),
                          task=data.CLASSIFICATION)
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=1, seed=0)
        with pytest.raises(ParameterError, match=r"samples \[2\]"):
            train(cfg, models.MLP((2, 3, 2)), ds)


class TestSumBasedChecks:
    """The finiteness checks of a step: a finite array passes even when its sum
    overflows, and any NaN or infinity aborts with the record of the checked
    functions."""

    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize("method", ["erm", "fl", "rfl"])
    def test_losses_that_overflow_only_in_their_sum_complete(self, method, batch_size):
        # Each squared error, (4.5e153)^2 ~ 2.0e307, is finite; ten of them sum
        # past the largest float64. eps above them keeps every multiplier at 0.
        n = 10
        ds = data.Dataset(features=np.ones((n, 1)), targets=np.full(n, 4.5e153), ids=np.arange(n),
                          task=data.REGRESSION)
        cfg = TrainerConfig(method=method, eta_theta=1e-170, eta_lambda=0.1, alpha=1.0, eps=3e307,
                            batch_size=batch_size, epochs=3, primal_optimizer="adamw", seed=0)
        record = train(cfg, models.LinearModel(1), ds, ds)
        assert record.status == "completed" and record.abort is None
        assert np.isfinite(record.train_losses).all() and np.isfinite(record.params.theta).all()
        for row in record.trajectory:
            assert row["train_mean_loss"] == row["test_mean_loss"] == math.inf
            assert row["train_max_loss"] == row["test_max_loss"] == float(record.train_losses.max())
            assert row["sat_fraction"] == 1.0

    @pytest.mark.parametrize("optimizer", trainers.OPTIMIZERS)
    def test_parameters_that_overflow_only_in_their_sum_do_not_abort(self, optimizer):
        # Each row predicts 1e308 - 1e308 = 0, its target, so the gradient is
        # zero and the steps keep theta, whose sum is +inf.
        ds = data.Dataset(features=np.array([[1.0, -1.0], [-1.0, 1.0]]), targets=np.zeros(2),
                          ids=np.arange(2), task=data.REGRESSION)
        model = models.LinearModel(2)
        theta = np.array([1e308, 1e308])
        cfg = TrainerConfig(method="erm", eta_theta=0.1, epochs=3, primal_optimizer=optimizer,
                            weight_decay=0.0, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "init_params", lambda seed: theta.copy())
            record = train(cfg, model, ds)
        assert record.status == "completed"
        assert np.array_equal(record.params.theta, theta)
        assert [row["train_mean_loss"] for row in record.trajectory] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("batch_size, first_bad, reason, abort", [
        (None, 1, "non-finite losses for samples [2]", {"epoch": 0, "step": 0, "ids": [2]}),
        (None, 2, "epoch-end evaluation failed: non-finite losses for samples [2]",
         {"epoch": 0, "step": 1, "ids": [2]}),
        (2, 1, "non-finite losses for samples [2]", {"epoch": 0, "step": 0, "ids": [2]}),
        (2, 2, "epoch-end evaluation failed: non-finite losses for samples [2]",
         {"epoch": 0, "step": 2, "ids": [2]}),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_loss_aborts_naming_its_sample(self, monkeypatch, bad, batch_size,
                                                        first_bad, reason, abort):
        # From its first_bad-th call on, the loss formula gives sample 2, the one
        # whose target is 1.5, a non-finite loss; the checked per_sample_loss uses
        # the same formula. Batches of 2 take ids [1, 2], then [0, 3].
        ds = data.Dataset(features=np.linspace(0.5, 1.0, 4)[:, None],
                          targets=np.array([1.0, 1.0, 1.5, 1.0]), ids=np.arange(4),
                          task=data.REGRESSION)
        real_kernel, calls = models.loss_kernel, []

        def poisoned_kernel(kind, predictions, targets, grad=False):
            out = real_kernel(kind, predictions, targets, grad)
            calls.append(None)
            if len(calls) >= first_bad:
                (out[0] if grad else out)[targets == 1.5] = bad
            return out

        monkeypatch.setattr(models, "loss_kernel", poisoned_kernel)
        cfg = TrainerConfig(method="fl", eta_theta=0.1, eta_lambda=0.1, eps=0.0,
                            batch_size=batch_size, epochs=3, primal_optimizer="adamw", seed=0)
        record = train(cfg, models.LinearModel(1), ds)
        assert record.status == "aborted"
        assert record.abort_reason == reason
        assert record.abort == abort

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_a_non_finite_parameter_aborts(self, monkeypatch, bad, batch_size):
        # The second primal step leaves one non-finite entry among finite ones.
        ds = data.Dataset(features=np.ones((4, 3)), targets=np.ones(4), ids=np.arange(4),
                          task=data.REGRESSION)
        real_make, steps = trainers._make_optimizer, []

        def poisoning_optimizer(config):
            optimizer = real_make(config)

            class Poisoning:
                def step(self, theta, grad, lr):
                    new = optimizer.step(theta, grad, lr)
                    steps.append(None)
                    if len(steps) == 2:
                        new[1] = bad
                    return new
            return Poisoning()

        monkeypatch.setattr(trainers, "_make_optimizer", poisoning_optimizer)
        cfg = TrainerConfig(method="rfl", alpha=1.0, eta_theta=0.1, eta_lambda=0.1, eps=0.0,
                            batch_size=batch_size, epochs=3, primal_optimizer="adamw", seed=0)
        record = train(cfg, models.LinearModel(3), ds)
        assert record.status == "aborted"
        assert record.abort_reason == "parameters became non-finite after primal step"
        assert record.abort == {"epoch": 0 if batch_size else 1, "step": 1, "ids": []}
        assert repr(record.params.theta[1]) == repr(np.float64(bad))


class TestLastRowStatistics:
    @settings(max_examples=60, deadline=None)
    @given(method=st.sampled_from(trainers.METHODS), classify=st.booleans(),
           batch_size=st.sampled_from([None, 3, 5]), epochs=st.integers(1, 3),
           per_sample_eps=st.booleans(), seed=st.integers(0, 2**16))
    def test_last_row_is_the_statistics_of_the_final_arrays(self, method, classify, batch_size,
                                                            epochs, per_sample_eps, seed):
        # The row's sums, maxima and counts, whichever reductions the epoch
        # shares with its checks, are those of the arrays the record keeps.
        if classify:
            ds, model = data.gen_two_moons(16, 0.2, seed), models.MLP((2, 4, 2))
        else:
            ds, model = data.gen_noisy_cosine(16, 0.2, seed), models.PolyModel(3, "chebyshev", (0.0, 1.0))
        train_ds, test_ds = data.split_train_test(ds, 0.25, seed)
        eps = np.random.default_rng(seed).uniform(0.0, 0.5, train_ds.n_samples)
        cfg = TrainerConfig(method=method, eta_theta=0.02, eta_lambda=0.5, alpha=2.0,
                            eps=eps.tolist() if per_sample_eps else 0.1, batch_size=batch_size,
                            epochs=epochs, primal_optimizer="adamw", seed=seed)
        record = train(cfg, model, train_ds, test_ds)
        assert record.status == "completed"
        last, lam = record.trajectory[-1], record.multipliers
        losses, test_losses = record.train_losses, record.test_losses
        bound = (eps if per_sample_eps else 0.1) + fs.SAT_TOL
        expected = {
            "train_mean_loss": losses.mean(), "train_max_loss": losses.max(),
            "sat_fraction": (losses <= bound).mean(),
            "lam_min": lam.min(), "lam_mean": lam.mean(), "lam_max": lam.max(),
            "lam_frac_zero": (lam <= fs.ZERO_MULTIPLIER_TOL).mean(),
            "test_mean_loss": test_losses.mean(), "test_max_loss": test_losses.max(),
        }
        assert {k: repr(last[k]) for k in expected} == {k: repr(float(v)) for k, v in expected.items()}
