"""Small differentiable predictors with per-sample losses and exact gradients.

Models are stateless architecture objects; parameters travel as a flat
float64 vector so optimizers and checkpoints never care about layer
structure. All gradients are hand-written. A weighted gradient over a batch
costs exactly one forward and one backward pass, the same as an unweighted
(average-loss) gradient: per-sample gradients are never materialized. The
trainer and the gradient oracle take that backward pass through the same
function, :func:`weighted_grad`.

``forward_cache`` takes one parameter vector, shape (P,), or a stack of
them, shape (S, P), through the same code: the predictions then carry the
leading stack axis, and slice s is bit-equal to the pass at ``theta[s]``
alone (every slice of a stacked ``np.matmul`` is the BLAS product of that
vector alone, and the other steps are elementwise). So the trainer and the
gradient oracle's finite differences run one forward. ``backward`` and
:class:`Workspace` serve a single parameter vector only.

A :class:`Workspace` holds the per-row arrays of MLP passes (layer outputs,
backward deltas, ReLU masks), so a training loop that runs thousands of passes
reuses the same memory instead of faulting in fresh pages on every step. The
caller that creates a workspace owns it and passes it to ``forward_cache``; the
cache that returns carries it into ``backward``. What a pass on a workspace
returns (predictions and cache) stays valid only until the next forward on the
same workspace. Models themselves stay stateless, and a call without a
workspace gets fresh arrays that no other call shares.

Everything runs in 64-bit floats; the verification oracles demand ~1e-10
agreement between independent formulas, which single precision cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as _data
from .errors import NumericError, ParameterError, ShapeError, named_rows

SQUARED_ERROR = "squared_error"
CROSS_ENTROPY = "cross_entropy"

@dataclass
class ModelParams:
    """Flat parameter vector plus the plain-text shape descriptor it belongs to."""

    theta: np.ndarray
    descriptor: str

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        expected = model_from_descriptor(self.descriptor).n_params
        if self.theta.shape != (expected,):
            raise ShapeError(
                f"descriptor {self.descriptor!r} expects {expected} parameters, got {self.theta.shape}"
            )


class Workspace:
    """Reusable row buffers for the passes of one caller.

    ``rows(key, n, width)`` returns the first ``n`` rows of a (rows, width)
    array kept under ``key``, made anew only when ``n`` exceeds the rows it
    has (or the width or dtype differs), so batches of up to the largest size
    seen reuse one array. The content is whatever the last user left there.
    The arrays hold the pass of one parameter vector, never of a stack.
    """

    def __init__(self):
        self._arrays: dict = {}

    def rows(self, key, n: int, width: int, dtype=np.float64) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.shape[0] < n or arr.shape[1] != width or arr.dtype != dtype:
            arr = self._arrays[key] = np.empty((n, width), dtype)
        return arr[:n]


def _buffer(workspace: Workspace | None, key, n: int, width: int, dtype=np.float64):
    """``workspace.rows(...)``, or None (a fresh output array) without a workspace."""
    return None if workspace is None else workspace.rows(key, n, width, dtype)


class Model:
    """Base class: subclasses define forward_cache / backward and init.

    ``forward_cache`` takes what the fixed map ``featurize`` (by default the
    identity) returns; ``forward`` and :func:`weighted_loss_grad` take raw inputs.
    ``cache_rows(cache, rows, features)`` is the cache of a forward over
    ``features``, rows ``rows`` of the forward that made ``cache``, taken from
    that cache (by default the cache of a forward is its features).
    ``forward_cache`` may write into a caller's :class:`Workspace`; ``forward``
    passes none, so its result is the caller's alone.
    """

    task: str
    n_params: int

    def descriptor(self) -> str:
        raise NotImplementedError

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def featurize(self, features):
        return features

    def forward_cache(self, theta, features, workspace: Workspace | None = None):
        raise NotImplementedError

    def cache_rows(self, cache, rows, features):
        return features

    def backward(self, cache, grad_pred):
        raise NotImplementedError

    def forward(self, theta, features) -> np.ndarray:
        preds, _ = self.forward_cache(theta, self.featurize(features))
        return preds

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[-1:] != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got shape {theta.shape}")
        return theta


class LinearModel(Model):
    """Linear map features -> scalar prediction, no intercept.

    The feature matrix is expected to carry its own constant column when an
    intercept is wanted (polynomial bases always do). Parameters initialize
    to zero, so gradient descent explores small-coefficient solutions first.
    """

    task = _data.REGRESSION

    def __init__(self, n_features: int):
        if n_features < 1:
            raise ParameterError("n_features must be >= 1")
        self.n_features = n_features
        self.n_params = n_features

    def descriptor(self) -> str:
        return f"linear {self.n_features}"

    def init_params(self, seed: int) -> np.ndarray:
        return np.zeros(self.n_params)

    def forward_cache(self, theta, features, workspace: Workspace | None = None):
        # One output per row: too small to be worth a workspace.
        theta = self._check_theta(theta)
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeError(f"expected {self.n_features} features, got shape {X.shape}")
        return np.matmul(X, theta[..., None])[..., 0], X

    def backward(self, cache, grad_pred):
        """Gradient of sum(grad_pred * predictions) over a single theta."""
        return cache.T @ np.asarray(grad_pred, dtype=np.float64)


class PolyModel(LinearModel):
    """Polynomial regressor: a fixed basis expansion of a scalar input, then linear."""

    def __init__(self, degree: int, basis: str = "chebyshev",
                 domain: tuple[float, float] | None = None):
        if degree < 0:
            raise ParameterError("degree must be >= 0")
        super().__init__(degree + 1)
        self.degree = degree
        self.basis = basis
        self.domain = tuple(domain) if domain is not None else None

    def descriptor(self) -> str:
        dom = "none" if self.domain is None else f"{self.domain[0]!r},{self.domain[1]!r}"
        return f"poly {self.degree} {self.basis} {dom}"

    def featurize(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 2 and x.shape[1] != 1:
            raise ShapeError("polynomial models take a single input feature")
        return _data.poly_features(x, self.degree, self.basis, self.domain)


class MLP(Model):
    """Fully-connected ReLU network with a linear output layer.

    ``layers`` gives the width of every layer including input and output,
    e.g. (2, 70, 70, 2) for a two-hidden-layer classifier. Regression MLPs
    use an output width of 1 and return squeezed scalar predictions.
    Weights initialize uniformly at +-1/sqrt(fan_in), biases likewise.
    """

    def __init__(self, layers: tuple[int, ...], task: str = _data.CLASSIFICATION):
        layers = tuple(int(w) for w in layers)
        if len(layers) < 2 or any(w < 1 for w in layers):
            raise ParameterError("layers must list at least input and output widths >= 1")
        if task not in (_data.REGRESSION, _data.CLASSIFICATION):
            raise ParameterError(f"unknown task {task!r}")
        if task == _data.REGRESSION and layers[-1] != 1:
            raise ParameterError("regression MLPs need output width 1")
        self.layers = layers
        self.task = task
        self._shapes = [(layers[i + 1], layers[i]) for i in range(len(layers) - 1)]
        self.n_params = sum(o * i + o for o, i in self._shapes)

    def descriptor(self) -> str:
        return f"mlp {','.join(str(w) for w in self.layers)} {self.task}"

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        parts = []
        for out_w, in_w in self._shapes:
            bound = 1.0 / np.sqrt(in_w)
            parts.append(rng.uniform(-bound, bound, size=out_w * in_w))
            parts.append(rng.uniform(-bound, bound, size=out_w))
        return np.concatenate(parts)

    def _unpack(self, theta):
        """Each layer's weight matrix and bias as views of theta.

        theta's layout is, layer by layer, the (out, in) weights in row-major
        order, then the out biases. A stack of parameter vectors, shape
        (..., n_params), gives stacks of matrices and biases with the same
        leading axes.
        """
        lead = theta.shape[:-1]
        weights, biases, offset = [], [], 0
        for out_w, in_w in self._shapes:
            weights.append(theta[..., offset:offset + out_w * in_w].reshape(*lead, out_w, in_w))
            offset += out_w * in_w
            biases.append(theta[..., offset:offset + out_w])
            offset += out_w
        return weights, biases

    def forward_cache(self, theta, features, workspace: Workspace | None = None):
        """(predictions, cache) of one forward pass.

        Every layer output is written into ``workspace``, or into a fresh
        array when None. The predictions and the cache of a caller's
        workspace are valid only until its next forward pass. A stack of
        thetas takes no workspace (ShapeError).
        """
        theta = self._check_theta(theta)
        if workspace is not None and theta.ndim != 1:
            raise ShapeError(f"a workspace takes one theta, shape ({self.n_params},); got {theta.shape}")
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.layers[0]:
            raise ShapeError(f"expected input width {self.layers[0]}, got shape {X.shape}")
        weights, biases = self._unpack(theta)
        activations = [X]
        a = X
        for i, (W, b) in enumerate(zip(weights, biases)):
            # A workspace buffer or a new array, never X, so the in-place steps never touch the input.
            a = np.matmul(a, W.mT, out=_buffer(workspace, ("out", i), len(X), W.shape[-2]))
            a += b[..., None, :]
            if i < len(weights) - 1:
                np.maximum(a, 0.0, out=a)
            activations.append(a)
        out = activations[-1]
        preds = out[..., 0] if self.task == _data.REGRESSION else out
        return preds, (weights, activations, workspace)

    def cache_rows(self, cache, rows, features):
        """Copies each hidden layer's rows into buffers of the cache's workspace
        that no forward writes; ``backward`` reads no output layer."""
        weights, activations, workspace = cache
        # mode="raise" would copy through a temporary; every position is valid.
        hidden = [np.take(a, rows, axis=0, mode="clip", out=_buffer(workspace, ("rows", i), len(rows), a.shape[1]))
                  for i, a in enumerate(activations[1:-1], 1)]
        return weights, [features, *hidden], workspace

    def backward(self, cache, grad_pred):
        """Gradient of sum(grad_pred * predictions) over a single theta, as a
        fresh flat vector.

        The deltas and masks go into the workspace of the forward pass that
        made ``cache``, if it had one; the gradient is written straight into
        its slices.
        """
        weights, activations, workspace = cache
        G = np.asarray(grad_pred, dtype=np.float64)
        if G.ndim == 1:
            G = G[:, None]
        grad = np.empty(self.n_params)
        end = self.n_params  # layer i's weights and bias end here in theta's layout
        delta = G
        for i in range(len(weights) - 1, -1, -1):
            out_w, in_w = self._shapes[i]
            w_start, b_start = end - out_w * in_w - out_w, end - out_w
            np.matmul(delta.T, activations[i], out=grad[w_start:b_start].reshape(out_w, in_w))
            np.add.reduce(delta, axis=0, out=grad[b_start:end])
            end = w_start
            if i > 0:
                # relu(z) > 0 exactly where z > 0, so the activation gives the mask.
                rows = len(delta)
                delta = np.matmul(delta, weights[i], out=_buffer(workspace, ("delta", i), rows, in_w))
                mask = _buffer(workspace, ("mask", i), rows, in_w, bool)
                delta *= np.greater(activations[i], 0.0, out=mask)
        return grad


def model_from_descriptor(descriptor: str) -> Model:
    """Rebuild an architecture from its plain-text shape descriptor."""
    parts = descriptor.strip().split()
    if parts and parts[0] == "linear" and len(parts) == 2:
        return LinearModel(int(parts[1]))
    if parts and parts[0] == "poly" and len(parts) == 4:
        domain = None if parts[3] == "none" else tuple(float(v) for v in parts[3].split(","))
        return PolyModel(int(parts[1]), parts[2], domain)
    if parts and parts[0] == "mlp" and len(parts) == 3:
        return MLP(tuple(int(w) for w in parts[1].split(",")), parts[2])
    raise ParameterError(f"unparseable shape descriptor {descriptor!r}")


def loss_kind(task: str) -> str:
    """The per-sample loss a task trains and is checked with."""
    return CROSS_ENTROPY if task == _data.CLASSIFICATION else SQUARED_ERROR


def per_sample_loss(kind: str, predictions, targets, ids=None) -> np.ndarray:
    """Non-negative loss per sample.

    squared_error: (pred - y)^2 for scalar predictions.
    cross_entropy: -log softmax(logits)[y], computed from logits via a
    stable log-sum-exp (never from normalized probabilities).
    ``targets`` holds one entry per sample, shape (n,). ``predictions`` has
    shape (n,) or (n, C), or carries leading stack axes, (..., n) or
    (..., n, C), one row per stacked parameter vector: the losses then have
    shape (..., n), each row bit-equal to the call on that row alone.
    Errors name the offending samples by ``ids``, or by row position when None.
    The formula is :func:`loss_kernel`; this function adds the checks.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if kind == SQUARED_ERROR:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 1 or predictions.shape[-1:] != targets.shape:
            raise ShapeError(f"prediction shape {predictions.shape} != target shape {targets.shape}")
    elif kind == CROSS_ENTROPY:
        targets = np.asarray(targets, dtype=np.int64)
        if predictions.ndim < 2 or targets.shape != predictions.shape[-2:-1]:
            raise ShapeError("cross_entropy expects (n, C) logits and (n,) labels")
        _check_labels(targets, predictions.shape[-1], ids)
    else:
        raise ParameterError(f"unknown loss kind {kind!r}")
    bad = ~np.isfinite(predictions)
    if bad.any():
        named = named_rows(_per_sample(bad.any(axis=-1) if kind == CROSS_ENTROPY else bad), ids)
        raise NumericError(f"non-finite predictions for samples {named}", ids=named)
    # Finite predictions can still overflow; the check below names those samples.
    with np.errstate(over="ignore", invalid="ignore"):
        out = loss_kernel(kind, predictions, targets)
    overflow = ~np.isfinite(out)
    if overflow.any():
        named = named_rows(_per_sample(overflow), ids)
        raise NumericError(f"non-finite losses for samples {named}", ids=named)
    return out


def _check_labels(targets: np.ndarray, width: int, ids) -> None:
    """Int64 class labels outside [0, width) raise a ParameterError naming their
    samples (as unsigned, a negative label is past any width)."""
    outside = targets.view(np.uint64) >= width
    if outside.any():
        raise ParameterError(f"samples {named_rows(outside, ids)} have class labels outside "
                             f"[0, {width}) for the model's output width {width}")


def loss_kernel(kind: str, predictions, targets, grad: bool = False):
    """The formula of :func:`per_sample_loss` alone, without its checks; with
    ``grad``, the pair (losses, :func:`loss_grad` of unstacked predictions).

    Takes float64 predictions and a Dataset's targets (float64 values or
    int64 labels) of matching shapes, and leaves floating-point warnings to
    the caller's error state. A class label at or above the output width
    raises IndexError; a negative one indexes from the end.
    """
    if kind == SQUARED_ERROR:
        diff = predictions - targets
        return (diff ** 2, 2.0 * diff) if grad else diff ** 2
    idx = np.arange(len(targets))
    zmax = predictions.max(axis=-1, keepdims=True)
    expz = np.exp(predictions - zmax)
    total = expz.sum(axis=-1, keepdims=True)
    losses = np.log(total[..., 0]) + zmax[..., 0] - predictions[..., idx, targets]
    if not grad:
        return losses
    expz /= total  # the softmax, less one at the true class
    expz[idx, targets] -= 1.0
    return losses, expz


def _per_sample(mask) -> np.ndarray:
    """A (..., n) mask over stacked rows reduced to one entry per sample."""
    return mask.reshape(-1, mask.shape[-1]).any(axis=0)


def loss_grad(kind: str, predictions, targets) -> np.ndarray:
    """Gradient of each per-sample loss with respect to its own prediction."""
    if kind not in (SQUARED_ERROR, CROSS_ENTROPY):
        raise ParameterError(f"unknown loss kind {kind!r}")
    targets = np.asarray(targets, dtype=np.float64 if kind == SQUARED_ERROR else np.int64)
    return loss_kernel(kind, np.asarray(predictions, dtype=np.float64), targets, grad=True)[1]


def weighted_grad(model: Model, cache, dpred, weights) -> np.ndarray:
    """The backward half of a step: gradient of sum_i weights_i * loss_i at the
    forward pass that returned ``cache`` and the loss gradient ``dpred``.

    The training step and :func:`weighted_loss_grad` both run it; it checks
    nothing itself.
    """
    scaled = weights * dpred if dpred.ndim == 1 else weights[:, None] * dpred
    return model.backward(cache, scaled)


def weighted_loss_grad(model: Model, theta, batch, weights, kind: str) -> np.ndarray:
    """Gradient of sum_i weights_i * loss_i(theta) in one forward/backward pass.

    ``batch`` is any object with raw .features and .targets; errors name its
    samples by its .ids, if it has them. Weights must be non-negative; the
    result is linear in them.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(batch.targets),):
        raise ShapeError("weights must have one entry per batch sample")
    if (weights < 0).any():
        raise ParameterError("weights must be non-negative")
    preds, cache = model.forward_cache(theta, model.featurize(batch.features))
    if kind == CROSS_ENTROPY:
        _check_labels(np.asarray(batch.targets, dtype=np.int64), preds.shape[-1],
                      getattr(batch, "ids", None))
    grad = weighted_grad(model, cache, loss_grad(kind, preds, batch.targets), weights)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite entries in weighted loss gradient")
    return grad


def classification_margins(logits, targets) -> np.ndarray:
    """Signed margin per sample: true-class logit minus the best other logit."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    idx = np.arange(len(targets))
    true_logit = logits[idx, targets]
    masked = logits.copy()
    masked[idx, targets] = -np.inf
    return true_logit - masked.max(axis=1)


def save_checkpoint(path, params: ModelParams) -> None:
    """Raw little-endian float64 parameter dump plus a sidecar shape descriptor."""
    path = str(path)
    params.theta.astype("<f8").tofile(path)
    with open(path + ".shape", "w") as fh:
        fh.write(params.descriptor + "\n")


def load_checkpoint(path) -> ModelParams:
    path = str(path)
    with open(path + ".shape") as fh:
        descriptor = fh.read().strip()
    theta = np.fromfile(path, dtype="<f8")
    return ModelParams(theta=theta, descriptor=descriptor)
