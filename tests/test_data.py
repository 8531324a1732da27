import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feaslearn import data
from feaslearn.errors import ParameterError, ShapeError


class TestTwoMoons:
    def test_balanced_classes_at_paper_size(self):
        ds = data.gen_two_moons(1000, 0.1, 0)
        assert ds.n_samples == 1000
        assert np.bincount(ds.targets).tolist() == [500, 500]
        assert ds.task == data.CLASSIFICATION

    def test_zero_noise_points_lie_on_half_circles(self):
        ds = data.gen_two_moons(4, 0.0, 7)
        expected = {(1.0, 0.0), (-1.0, 0.0), (0.0, 0.5), (2.0, 0.5)}
        got = {(round(x, 12), round(y, 12)) for x, y in ds.features}
        assert got == expected

    def test_deterministic_per_seed(self):
        a = data.gen_two_moons(1000, 0.1, 3)
        b = data.gen_two_moons(1000, 0.1, 3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("n,noise", [(3, 0.1), (0, 0.1), (10, -0.5)])
    def test_rejects_bad_parameters(self, n, noise):
        with pytest.raises(ParameterError):
            data.gen_two_moons(n, noise, 0)


class TestNoisyCosine:
    def test_paper_size(self):
        ds = data.gen_noisy_cosine(20, 0.2, 0)
        assert ds.n_samples == 20
        assert ds.task == data.REGRESSION
        assert np.all((ds.features >= 0) & (ds.features <= 1))

    def test_zero_noise_targets_on_curve(self):
        ds = data.gen_noisy_cosine(5, 0.0, 0)
        assert np.allclose(ds.targets, data.cosine_wave(ds.features[:, 0]))

    def test_residual_std_matches_noise_scale(self):
        ds = data.gen_noisy_cosine(20, 0.2, 1)
        residuals = ds.targets - data.cosine_wave(ds.features[:, 0])
        assert 0.1 <= residuals.std() <= 0.3

    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            data.gen_noisy_cosine(20, -0.1, 0)


class TestConflictingPairs:
    def test_single_pair_structure(self):
        ds = data.gen_conflicting_pairs(1, 1, 2.0, 0)
        assert ds.n_samples == 2
        assert ds.features[0] == pytest.approx(ds.features[1])
        assert abs(ds.targets[1] - ds.targets[0]) == pytest.approx(2.0)

    def test_midpoint_is_forced_optimum(self):
        # best constant predictor sits at the midpoint with max SE (gap/2)^2
        ds = data.gen_conflicting_pairs(1, 1, 2.0, 0)
        grid = np.linspace(ds.targets.min() - 1, ds.targets.max() + 1, 2001)
        worst = np.maximum((grid[:, None] - ds.targets) ** 2, 0).max(axis=1)
        assert worst.min() == pytest.approx(1.0, abs=1e-5)

    def test_each_row_appears_exactly_twice(self):
        ds = data.gen_conflicting_pairs(8, 2, 1.0, 0)
        assert ds.n_samples == 16
        unique = np.unique(ds.features, axis=0)
        assert unique.shape[0] == 8


class TestLabelOutliers:
    def test_random_placement_shifts_requested_fraction(self):
        ds = data.gen_noisy_cosine(100, 0.1, 0)
        out = data.with_label_outliers(ds, 0.05, 3.0, 1)
        moved = np.sum(out.targets != ds.targets)
        assert moved == 5

    def test_upper_window_shifts_largest_x(self):
        ds = data.gen_noisy_cosine(100, 0.1, 0)
        out = data.with_label_outliers(ds, 0.05, 3.0, 1, placement="upper_window")
        moved = np.nonzero(out.targets != ds.targets)[0]
        cutoff = np.sort(ds.features[:, 0])[-5]
        assert np.all(ds.features[moved, 0] >= cutoff)

    def test_rejects_classification(self):
        ds = data.gen_two_moons(10, 0.0, 0)
        with pytest.raises(ParameterError):
            data.with_label_outliers(ds, 0.1, 1.0, 0)


class TestPolyFeatures:
    def test_monomial_at_zero(self):
        assert data.poly_features(np.array([0.0]), 2, "monomial").tolist() == [[1.0, 0.0, 0.0]]

    def test_chebyshev_at_one(self):
        assert data.poly_features(np.array([1.0]), 3, "chebyshev").tolist() == [[1.0, 1.0, 1.0, 1.0]]

    def test_chebyshev_halfway(self):
        row = data.poly_features(np.array([0.5]), 2, "chebyshev")[0]
        assert row.tolist() == [1.0, 0.5, -0.5]

    def test_rejects_negative_degree(self):
        with pytest.raises(ParameterError):
            data.poly_features(np.array([0.0]), -1, "monomial")

    def test_rejects_unknown_basis(self):
        with pytest.raises(ParameterError):
            data.poly_features(np.array([0.0]), 2, "legendre")

    @pytest.mark.parametrize("degree", [5, 10, 20])
    def test_chebyshev_conditioning_beats_monomial(self, degree):
        x = data.gen_noisy_cosine(20, 0.2, 0).features[:, 0]
        cheb = np.linalg.cond(data.poly_features(x, degree, "chebyshev", (0.0, 1.0)))
        mono = np.linalg.cond(data.poly_features(x, degree, "monomial"))
        assert cheb <= mono


class TestBatchIter:
    def test_partition_sizes(self):
        ds = data.gen_noisy_cosine(10, 0.1, 0)
        sizes = [len(b) for b in data.batch_iter(ds, 4, 0)]
        assert sizes == [4, 4, 2]

    def test_full_batch(self):
        ds = data.gen_noisy_cosine(10, 0.1, 0)
        batches = list(data.batch_iter(ds, 10, 0))
        assert len(batches) == 1
        assert batches[0].ids.tolist() == list(range(10))
        for got, rows in ((batches[0].ids, ds.ids), (batches[0].features, ds.features),
                          (batches[0].targets, ds.targets)):
            assert np.shares_memory(got, rows)

    def test_full_batch_draws_nothing_from_the_generator(self):
        ds = data.gen_noisy_cosine(10, 0.1, 0)
        passed, untouched = data.epoch_rng(7), data.epoch_rng(7)
        passed.random(3), untouched.random(3)
        list(data.batch_iter(ds, 10, 0, passed))
        assert np.array_equal(passed.random(4), untouched.random(4))

    def test_same_epoch_seed_reproduces_order(self):
        ds = data.gen_noisy_cosine(10, 0.1, 0)
        a = [b.ids.tolist() for b in data.batch_iter(ds, 3, 42)]
        b = [b.ids.tolist() for b in data.batch_iter(ds, 3, 42)]
        assert a == b

    def test_rejects_zero_batch(self):
        ds = data.gen_noisy_cosine(10, 0.1, 0)
        with pytest.raises(ParameterError):
            list(data.batch_iter(ds, 0, 0))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), batch_size=st.integers(1, 40), epoch_seed=st.integers(0, 2**40))
    def test_epoch_union_is_full_id_set(self, n, batch_size, epoch_seed):
        batch_size = min(batch_size, n)
        ds = data.gen_noisy_cosine(n, 0.0, 0)
        ids = np.concatenate([b.ids for b in data.batch_iter(ds, batch_size, epoch_seed)])
        assert sorted(ids.tolist()) == list(range(n))


class TestEpochRng:
    SEEDS = [0, data.combine_seed(2**31 - 1, 2**32 - 1), 2**64 + 12345, 2**100 + 7]

    @staticmethod
    def _fresh_philox(seed):
        # A new generator per key: the reference the in-place re-keying must match.
        key = np.array([seed & (2**64 - 1), (seed >> 64) & (2**64 - 1)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    @staticmethod
    def _state(rng):
        st = rng.bit_generator.state
        return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(), st["buffer"].tolist(),
                st["buffer_pos"], st["has_uint32"], st["uinteger"])

    @staticmethod
    def _draws(rng):
        return (rng.bit_generator.random_raw(3), rng.permutation(37), rng.random(5),
                rng.integers(0, 2**40, size=3))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rekeyed_stream_matches_fresh_generator(self, seed):
        reused = data.epoch_rng(99)
        self._draws(reused)  # leave the counter and buffer mid-stream
        rekeyed = data.epoch_rng(seed, reused)
        assert rekeyed is reused
        for rng in (rekeyed, data.epoch_rng(seed)):
            fresh = self._fresh_philox(seed)
            assert self._state(rng) == self._state(fresh)
            for got, want in zip(self._draws(rng), self._draws(fresh)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_iter_order_is_independent_of_the_generator_passed(self, seed):
        ds = data.gen_noisy_cosine(11, 0.1, 0)
        rng = data.epoch_rng(5)
        rng.random(3)
        fresh = [b.ids.tolist() for b in data.batch_iter(ds, 4, seed)]
        reused = [b.ids.tolist() for b in data.batch_iter(ds, 4, seed, rng)]
        assert reused == fresh


class TestGeneratorPurity:
    @pytest.mark.parametrize("gen,args", [
        (data.gen_two_moons, (100, 0.1, 3)),
        (data.gen_noisy_cosine, (20, 0.2, 3)),
        (data.gen_conflicting_pairs, (5, 2, 1.5, 3)),
    ])
    def test_repeated_calls_bitwise_identical(self, gen, args):
        a, b = gen(*args), gen(*args)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.ids, b.ids)


class TestDatasetContract:
    def test_ids_must_be_permutation(self):
        with pytest.raises(ParameterError):
            data.Dataset(features=np.zeros((3, 1)), targets=np.zeros(3),
                         ids=np.array([0, 0, 2]), task="regression")

    def test_features_must_be_finite(self):
        with pytest.raises(ParameterError):
            data.Dataset(features=np.array([[np.inf]]), targets=np.zeros(1),
                         ids=np.array([0]), task="regression")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_regression_targets_must_be_finite(self, bad):
        # row 2 holds sample id 1
        with pytest.raises(ParameterError, match=r"regression targets of samples \[1\] are not finite"):
            data.Dataset(features=np.zeros((4, 1)), targets=np.array([0.0, 1.0, bad, 2.0]),
                         ids=np.array([3, 2, 1, 0]), task="regression")

    def test_classification_targets_must_be_integral(self):
        with pytest.raises(ParameterError, match="integer labels"):
            data.Dataset(features=np.zeros((2, 1)), targets=np.array([0.0, 1.7]),
                         ids=np.arange(2), task="classification")

    @pytest.mark.parametrize("features,targets,task,error,message", [
        (np.zeros(3), np.zeros(3), "regression", ShapeError, "features must be 2-d, got shape (3,)"),
        (np.zeros((2, 1)), np.array([0, -1]), "classification", ParameterError,
         "classification targets must be non-negative labels"),
        (np.zeros((2, 1)), np.zeros(2), "ranking", ParameterError, "unknown task 'ranking'"),
        (np.zeros((2, 1)), np.zeros(3), "regression", ShapeError,
         "targets must be a vector with one entry per sample"),
    ], ids=["one_dimensional_features", "negative_label", "unknown_task", "wrong_length_targets"])
    def test_rejects_malformed_inputs(self, features, targets, task, error, message):
        with pytest.raises(error, match=re.escape(message)):
            data.Dataset(features=features, targets=targets, ids=np.arange(len(features)), task=task)

    def test_integral_float_labels_are_accepted(self):
        ds = data.Dataset(features=np.zeros((2, 1)), targets=np.array([0.0, 1.0]),
                          ids=np.arange(2), task="classification")
        assert ds.targets.dtype == np.int64 and ds.targets.tolist() == [0, 1]

    def test_rows_are_kept_in_id_order(self):
        ds = data.Dataset(features=np.array([[2.0], [0.0], [1.0]]), targets=np.array([20.0, 0.0, 10.0]),
                          ids=np.array([2, 0, 1]), task="regression")
        assert ds.ids.tolist() == [0, 1, 2]
        assert ds.features[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert ds.targets.tolist() == [0.0, 10.0, 20.0]

    def test_id_ordered_rows_are_not_copied(self):
        # generated datasets are already in id order: their arrays stay as built
        features, targets = np.zeros((3, 1)), np.arange(3.0)
        ds = data.Dataset(features=features, targets=targets, ids=np.arange(3), task="regression")
        assert ds.features is features and ds.targets is targets

    def test_signature_changes_with_data(self):
        a = data.gen_noisy_cosine(10, 0.1, 0)
        b = data.gen_noisy_cosine(10, 0.1, 1)
        assert a.signature() != b.signature()
        assert a.signature() == data.gen_noisy_cosine(10, 0.1, 0).signature()


class TestSplit:
    def test_sizes_and_relabeled_ids(self):
        ds = data.gen_two_moons(100, 0.1, 0)
        train, test = data.split_train_test(ds, 0.2, 0)
        assert train.n_samples == 80 and test.n_samples == 20
        assert sorted(train.ids.tolist()) == list(range(80))
        assert sorted(test.ids.tolist()) == list(range(20))

    def test_split_partitions_rows(self):
        ds = data.gen_noisy_cosine(30, 0.1, 0)
        train, test = data.split_train_test(ds, 0.3, 1)
        stacked = np.vstack([train.features, test.features])
        assert np.array_equal(np.sort(stacked, axis=0), np.sort(ds.features, axis=0))

    @pytest.mark.parametrize("n,fraction", [(20, 0.01), (20, 0.0), (1, 0.6), (3, 0.9)])
    def test_empty_half_rejected(self, n, fraction):
        with pytest.raises(ParameterError, match="leaves"):
            data.split_train_test(data.gen_noisy_cosine(n, 0.1, 0), fraction, 0)


class TestParameterGuards:
    @pytest.mark.parametrize("call,message", [
        (lambda: data.gen_noisy_cosine(0, 0.1, 0), "n must be >= 1"),
        (lambda: data.gen_conflicting_pairs(0, 2, 2.0, 0), "n_pairs must be >= 1"),
        (lambda: data.gen_conflicting_pairs(2, 0, 2.0, 0), "d must be >= 1"),
        (lambda: data.gen_conflicting_pairs(2, 2, 0.0, 0), "label_gap must be positive"),
        (lambda: data.with_label_outliers(data.gen_noisy_cosine(10, 0.1, 0), 1.5, 1.0, 0),
         "fraction must lie in [0, 1]"),
        (lambda: data.with_label_outliers(data.gen_noisy_cosine(10, 0.1, 0), 0.1, 1.0, 0, "middle"),
         "unknown placement 'middle'"),
        (lambda: data.poly_features(np.zeros(2), 3, "chebyshev", (1.0, 1.0)), "domain must satisfy hi > lo"),
        (lambda: data.poly_features(np.zeros(2), 3, "chebyshev", (1.0, 0.0)), "domain must satisfy hi > lo"),
        (lambda: data.combine_seed(-1, 0), "run_seed and epoch must be non-negative"),
        (lambda: data.combine_seed(0, -1), "run_seed and epoch must be non-negative"),
        (lambda: data.split_train_test(data.gen_noisy_cosine(10, 0.1, 0), 1.0, 0),
         "test_fraction must lie in [0, 1)"),
        (lambda: data.split_train_test(data.gen_noisy_cosine(10, 0.1, 0), -0.1, 0),
         "test_fraction must lie in [0, 1)"),
    ], ids=["cosine_n", "pairs_n_pairs", "pairs_d", "pairs_label_gap", "outlier_fraction",
            "outlier_placement", "chebyshev_empty_domain", "chebyshev_reversed_domain",
            "seed_negative_run_seed", "seed_negative_epoch", "split_fraction_one",
            "split_fraction_negative"])
    def test_rejects_bad_parameters(self, call, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            call()


class TestCsvRoundTrip:
    def test_regression_round_trip(self, tmp_path):
        ds = data.gen_noisy_cosine(12, 0.1, 0)
        path = tmp_path / "ds.csv"
        data.save_dataset_csv(ds, path)
        back = data.load_dataset_csv(path, data.REGRESSION)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.ids, ds.ids)

    def test_classification_round_trip(self, tmp_path):
        ds = data.gen_two_moons(10, 0.05, 0)
        path = tmp_path / "moons.csv"
        data.save_dataset_csv(ds, path)
        back = data.load_dataset_csv(path, data.CLASSIFICATION)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

    def test_rows_written_out_of_id_order_load_in_id_order(self, tmp_path):
        path = tmp_path / "permuted.csv"
        path.write_text("id,feat_0,target\n2,0.2,5.0\n0,0.0,0.0\n1,0.1,0.0\n")
        back = data.load_dataset_csv(path, data.REGRESSION)
        assert back.ids.tolist() == [0, 1, 2]
        assert back.features[:, 0].tolist() == [0.0, 0.1, 0.2]
        assert back.targets.tolist() == [0.0, 0.0, 5.0]

    def test_loader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParameterError):
            data.load_dataset_csv(path, data.REGRESSION)

    @pytest.mark.parametrize("content,named", [
        ("", "line 1: expected header"),
        ("id,feat_0,target\n0,0.5,1.0\n1,abc,2.0\n", "line 3: could not convert string to float"),
        ("id,feat_0,target\n0,0.5,1.0\n\n1,2.0\n", "line 4: 2 cells, the header has 3"),
        ("id,feat_0,target\n0.5,0.5,1.0\n", "line 2: invalid literal for int"),
        ("id,feat_0,target\n", "no data rows"),
    ], ids=["empty", "non_numeric_cell", "short_row", "non_integer_id", "header_only"])
    def test_malformed_file_names_the_line(self, tmp_path, content, named):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ParameterError, match=named):
            data.load_dataset_csv(path, data.REGRESSION)
