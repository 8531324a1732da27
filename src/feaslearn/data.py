"""Synthetic dataset generators, polynomial feature maps, and mini-batch iteration.

All generators are pure functions of their parameters and seed: calling them
twice with the same arguments yields bitwise-identical arrays. Batch shuffling
uses a counter-based RNG keyed on the epoch seed so that trainer runs stay
reproducible regardless of thread count.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError, ShapeError, named_rows

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass
class Dataset:
    """Feature matrix, targets, and stable sample ids.

    Ids are always a permutation of 0..n-1; they index the per-sample
    constraints and multipliers throughout training. The rows are kept in id
    order (the constructor sorts rows given in another order), so row i is
    sample i in every per-sample vector a run computes or writes.
    """

    features: np.ndarray
    targets: np.ndarray
    ids: np.ndarray
    task: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-d, got shape {self.features.shape}")
        n = self.features.shape[0]
        if not np.all(np.isfinite(self.features)):
            raise ParameterError("features contain non-finite values")
        if self.ids.shape != (n,) or not np.array_equal(np.sort(self.ids), np.arange(n)):
            raise ParameterError("ids must be a permutation of 0..n-1")
        if self.task == CLASSIFICATION:
            labels = np.asarray(self.targets)
            if labels.dtype.kind not in "biu" and not np.all(np.mod(labels, 1.0) == 0.0):
                raise ParameterError("classification targets must be integer labels")
            self.targets = labels.astype(np.int64)
            if self.targets.min(initial=0) < 0:
                raise ParameterError("classification targets must be non-negative labels")
        elif self.task == REGRESSION:
            self.targets = np.asarray(self.targets, dtype=np.float64)
        else:
            raise ParameterError(f"unknown task {self.task!r}")
        if self.targets.shape != (n,):
            raise ShapeError("targets must be a vector with one entry per sample")
        if not np.array_equal(self.ids, np.arange(n)):  # rows given out of id order
            order = np.argsort(self.ids)
            self.features, self.targets, self.ids = self.features[order], self.targets[order], self.ids[order]
        if self.task == REGRESSION and not np.all(np.isfinite(self.targets)):
            raise ParameterError(f"regression targets of samples "
                                 f"{named_rows(~np.isfinite(self.targets), self.ids)} are not finite")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def signature(self) -> str:
        """Content hash used to refuse comparisons across different datasets."""
        h = hashlib.sha256()
        h.update(self.task.encode())
        h.update(self.features.tobytes())
        h.update(np.asarray(self.targets).tobytes())
        h.update(self.ids.tobytes())
        return h.hexdigest()[:16]


@dataclass
class Batch:
    """Rows of a dataset restricted to a subset of sample ids."""

    ids: np.ndarray
    features: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _take(dataset: Dataset, rows: np.ndarray) -> Dataset:
    """Subset with ids relabeled to 0..m-1 (constraints index the new set)."""
    return Dataset(
        features=dataset.features[rows],
        targets=dataset.targets[rows],
        ids=np.arange(len(rows)),
        task=dataset.task,
    )


def split_train_test(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random split; both halves get fresh contiguous ids and neither is empty."""
    if not 0.0 <= test_fraction < 1.0:
        raise ParameterError("test_fraction must lie in [0, 1)")
    n_test = int(round(test_fraction * dataset.n_samples))
    if not 0 < n_test < dataset.n_samples:
        raise ParameterError(f"test_fraction {test_fraction} of {dataset.n_samples} samples "
                             f"leaves {n_test} test and {dataset.n_samples - n_test} train samples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_samples)
    return _take(dataset, np.sort(perm[n_test:])), _take(dataset, np.sort(perm[:n_test]))


def gen_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles with additive Gaussian noise.

    The first class lies on the upper unit half-circle, the second on a
    shifted, reflected half-circle. Classes are exactly balanced (n must be
    even). Sample order is shuffled so mini-batches mix classes.
    """
    if n < 2 or n % 2 != 0:
        raise ParameterError("n must be an even integer >= 2")
    if noise < 0:
        raise ParameterError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    half = n // 2
    angles = np.linspace(0.0, np.pi, half)
    outer = np.column_stack([np.cos(angles), np.sin(angles)])
    inner = np.column_stack([1.0 - np.cos(angles), 0.5 - np.sin(angles)])
    features = np.vstack([outer, inner]) + rng.normal(0.0, noise, size=(n, 2))
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(features=features[order], targets=labels[order], ids=np.arange(n), task=CLASSIFICATION)


def gen_noisy_cosine(n: int, sigma: float, seed: int) -> Dataset:
    """Regression points y = cos(2*pi*x) + N(0, sigma^2), x sampled on [0, 1].

    x is drawn by stratified sampling from the arcsine density (one draw per
    angular stratum, sorted). That density matches the Chebyshev weight, so
    high-degree polynomial design matrices on these points stay
    well-conditioned enough for first-order optimization.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if sigma < 0:
        raise ParameterError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    phi = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) * np.pi / n
    x = np.sort((1.0 - np.cos(phi)) / 2.0)
    y = cosine_wave(x) + rng.normal(0.0, sigma, size=n)
    return Dataset(features=x[:, None], targets=y, ids=np.arange(n), task=REGRESSION)


def cosine_wave(x: np.ndarray) -> np.ndarray:
    """The noiseless generating curve for :func:`gen_noisy_cosine`."""
    return np.cos(2.0 * np.pi * np.asarray(x, dtype=np.float64))


def gen_conflicting_pairs(n_pairs: int, d: int, label_gap: float, seed: int) -> Dataset:
    """Regression set where every feature row appears twice with targets label_gap apart.

    No function can satisfy both copies of a pair below squared error
    (label_gap / 2)^2, so per-sample bounds tighter than that are infeasible
    for any model. Useful for exercising infeasible-constraint dynamics.
    """
    if n_pairs < 1:
        raise ParameterError("n_pairs must be >= 1")
    if d < 1:
        raise ParameterError("d must be >= 1")
    if label_gap <= 0:
        raise ParameterError("label_gap must be positive")
    rng = np.random.default_rng(seed)
    base_x = rng.normal(size=(n_pairs, d))
    base_y = rng.normal(size=n_pairs)
    features = np.repeat(base_x, 2, axis=0)
    targets = np.empty(2 * n_pairs)
    targets[0::2] = base_y
    targets[1::2] = base_y + label_gap
    order = rng.permutation(2 * n_pairs)
    return Dataset(features=features[order], targets=targets[order], ids=np.arange(2 * n_pairs), task=REGRESSION)


def with_label_outliers(dataset: Dataset, fraction: float, offset: float, seed: int,
                        placement: str = "random") -> Dataset:
    """Copy of a regression dataset with a fraction of targets shifted by offset.

    placement "random" corrupts uniformly chosen samples; "upper_window"
    shifts the samples with the largest first feature, which turns the
    corruption into a coherent minority mode concentrated in one region.
    """
    if dataset.task != REGRESSION:
        raise ParameterError("label outliers only apply to regression datasets")
    if not 0.0 <= fraction <= 1.0:
        raise ParameterError("fraction must lie in [0, 1]")
    n_out = int(round(fraction * dataset.n_samples))
    if placement == "random":
        rng = np.random.default_rng(seed)
        picks = rng.choice(dataset.n_samples, size=n_out, replace=False)
    elif placement == "upper_window":
        picks = np.argsort(dataset.features[:, 0])[dataset.n_samples - n_out:]
    else:
        raise ParameterError(f"unknown placement {placement!r}")
    targets = dataset.targets.copy()
    targets[picks] += offset
    return Dataset(features=dataset.features.copy(), targets=targets, ids=dataset.ids.copy(), task=REGRESSION)


def poly_features(x: np.ndarray, degree: int, basis: str = "monomial",
                  domain: tuple[float, float] | None = None) -> np.ndarray:
    """Design matrix whose column j is the j-th basis polynomial at x.

    ``monomial`` uses raw powers of x. ``chebyshev`` evaluates the Chebyshev
    recurrence on x rescaled affinely from ``domain`` to [-1, 1]; the default
    domain (-1, 1) leaves x untouched. The Chebyshev option exists because
    monomial design matrices become catastrophically ill-conditioned past
    degree ~10, which stalls first-order optimization.
    """
    if degree < 0:
        raise ParameterError("degree must be >= 0")
    x = np.asarray(x, dtype=np.float64).ravel()
    if basis == "monomial":
        return np.vander(x, degree + 1, increasing=True)
    if basis == "chebyshev":
        lo, hi = domain if domain is not None else (-1.0, 1.0)
        if not hi > lo:
            raise ParameterError("domain must satisfy hi > lo")
        t = 2.0 * (x - lo) / (hi - lo) - 1.0
        cols = np.empty((x.size, degree + 1))
        cols[:, 0] = 1.0
        if degree >= 1:
            cols[:, 1] = t
        for j in range(2, degree + 1):
            cols[:, j] = 2.0 * t * cols[:, j - 1] - cols[:, j - 2]
        return cols
    raise ParameterError(f"unknown basis {basis!r}")


def combine_seed(run_seed: int, epoch: int) -> int:
    """Pack (run_seed, epoch) into a single epoch_seed for batch_iter."""
    if run_seed < 0 or epoch < 0:
        raise ParameterError("run_seed and epoch must be non-negative")
    return (run_seed << 32) | (epoch & 0xFFFFFFFF)


def epoch_rng(epoch_seed: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """Philox generator keyed by the two low 64-bit words of ``epoch_seed``.

    Philox is counter-based: the key alone determines the stream, so the
    shuffle is reproducible under any thread count. Passing ``rng`` (one
    returned by an earlier call) re-keys it in place, which gives the same
    stream as a new generator at a fraction of the cost of building one.
    """
    if rng is None:
        # A fixed seed spares the OS-entropy read; the key set below replaces it.
        rng = np.random.Generator(np.random.Philox(0))
    key = np.array([epoch_seed & 0xFFFFFFFFFFFFFFFF, (epoch_seed >> 64) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def batch_iter(dataset: Dataset | Batch, batch_size: int, epoch_seed: int,
               rng: np.random.Generator | None = None) -> Iterator[Batch]:
    """Shuffled partition of the dataset into batches, without replacement.

    The union of batches over one epoch is exactly the full id set; the last
    batch may be smaller. The order depends on ``epoch_seed`` alone; ``rng``
    is a generator from :func:`epoch_rng` to re-key instead of building one.
    A Dataset's rows are in id order, so each of its batches' ids are also
    their row positions. A full batch (``batch_size == n``) is the rows as
    they are, without a copy and without a draw from the RNG: a permutation
    would only change the order of the sums. A Batch is its own full batch.
    """
    n = len(dataset.ids)
    if batch_size < 1 or batch_size > n:
        raise ParameterError(f"batch_size must lie in 1..{n}")
    if batch_size == n:
        yield dataset if type(dataset) is Batch else Batch(dataset.ids, dataset.features, dataset.targets)
        return
    perm = epoch_rng(epoch_seed, rng).permutation(n)
    for start in range(0, n, batch_size):
        rows = perm[start:start + batch_size]
        yield Batch(ids=dataset.ids[rows], features=dataset.features[rows], targets=dataset.targets[rows])


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write `id,feat_0..feat_{d-1},target` rows; the loader reads the same format."""
    header = ["id"] + [f"feat_{j}" for j in range(dataset.n_features)] + ["target"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n_samples):
            feats = [np.format_float_positional(v, unique=True) for v in dataset.features[i]]
            if dataset.task == CLASSIFICATION:
                target = str(int(dataset.targets[i]))
            else:
                target = np.format_float_positional(dataset.targets[i], unique=True)
            writer.writerow([int(dataset.ids[i])] + feats + [target])


def load_dataset_csv(path, task: str) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset_csv` (or user data)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 3 or header[0] != "id" or header[-1] != "target":
            raise ParameterError(f"{path} line 1: expected header id,feat_0..feat_{{d-1}},target")
        rows = []
        for row in filter(None, reader):
            where = f"{path} line {reader.line_num}"
            if len(row) != len(header):
                raise ParameterError(f"{where}: {len(row)} cells, the header has {len(header)}")
            try:
                rows.append((int(row[0]), [float(v) for v in row[1:-1]], float(row[-1])))
            except ValueError as err:
                raise ParameterError(f"{where}: {err}")
    if not rows:
        raise ParameterError(f"{path}: no data rows")
    ids, features, targets = zip(*rows)
    return Dataset(features=np.array(features, dtype=np.float64),
                   targets=np.array(targets, dtype=np.float64), ids=np.array(ids, dtype=np.int64), task=task)
