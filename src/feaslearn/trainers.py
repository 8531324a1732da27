"""Training loops for average-loss, feasibility, resilient, and penalty methods.

One step on a mini-batch always costs one model forward and one backward
pass, whatever the method; the methods differ only in the per-sample weights
applied to the loss gradients:

  erm    uniform 1/|B|
  fl     multipliers after a projected ascent update (dual step first)
  rfl    multipliers after an ascent-with-decay update (dual step first)
  cserm  alpha * [g - eps]_+ computed directly from the batch losses

Multipliers of samples absent from a batch are untouched by that step. The
dual update always precedes the primal one within a step, so the very first
primal update already sees warmed-up multipliers.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import feasibility as fs
from . import models
from .data import Batch, Dataset, batch_iter, combine_seed, epoch_rng
from .errors import NumericError, ParameterError

ERM = "erm"
FL = "fl"
RFL = "rfl"
CSERM = "cserm"
METHODS = (ERM, FL, RFL, CSERM)

SGD = "sgd"
SGD_MOMENTUM = "sgd_momentum"
ADAMW = "adamw"
OPTIMIZERS = (SGD, SGD_MOMENTUM, ADAMW)
# Descriptive alias accepted in configs for the decoupled-decay adaptive
# optimizer.
_OPTIMIZER_ALIASES = {"adaptive_moments_decoupled_decay": ADAMW}
ADAMW_DEFAULTS = {"beta1": 0.9, "beta2": 0.999, "stabilizer": 1e-8}

TRAJECTORY_COLUMNS = [
    "epoch", "train_mean_loss", "train_max_loss", "train_accuracy",
    "sat_fraction", "max_step_violation",
    "lam_min", "lam_mean", "lam_max", "lam_frac_zero",
    "test_mean_loss", "test_max_loss", "test_accuracy",
]


def is_number(value, integer: bool = False) -> bool:
    """A number, an integer if ``integer``, as configs spell them: booleans are not numbers."""
    return isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(value, bool)


# What a TrainerConfig field admits, by its name or else by the type of its
# default: ints count as floats, and booleans are not numbers. train() checks
# the length of eps; dtype=object keeps a ragged list from raising here.
_ADMITS = {
    float: (is_number, "a number"),
    int: (lambda v: is_number(v, True) and v >= 0, "a non-negative integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    "method": (lambda v: v in METHODS, f"one of {METHODS}"),
    "alpha": (lambda v: is_number(v) and v > 0, "a positive number, 'inf' or null"),
    "eps": (lambda v: all(is_number(e) and e >= 0 for e in np.asarray(v, dtype=object).flat),
            "a non-negative number or a list of them"),
    "batch_size": (lambda v: v is None or is_number(v, True) and v > 0, "a positive integer or null"),
    "primal_optimizer": (lambda v: isinstance(v, str) and _OPTIMIZER_ALIASES.get(v, v) in OPTIMIZERS,
                         f"one of {OPTIMIZERS}"),
}


@dataclass
class TrainerConfig:
    method: str
    eta_theta: float = 1e-3
    eta_lambda: float = 1e-2
    alpha: float = math.inf  # also "inf", as echo() writes it, or None
    eps: float | list | np.ndarray = 0.0
    batch_size: int | None = None
    epochs: int = 100
    seed: int = 0
    primal_optimizer: str = SGD
    momentum: float = 0.9
    weight_decay: float = 0.0
    cosine_decay: bool = False

    def __post_init__(self):
        if self.alpha in ("inf", None):
            self.alpha = math.inf
        for f in fields(self):
            admits, kind = _ADMITS.get(f.name) or _ADMITS[type(f.default)]
            if not admits(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be {kind}, got {getattr(self, f.name)!r}")
        self.primal_optimizer = _OPTIMIZER_ALIASES.get(self.primal_optimizer, self.primal_optimizer)
        if not self.eta_theta > 0:
            raise ParameterError("eta_theta must be positive")
        if self.method in (FL, RFL) and not self.eta_lambda > 0:
            raise ParameterError("eta_lambda must be positive for fl/rfl")
        if self.method == FL:
            self.alpha = math.inf
        if self.method in (RFL, CSERM) and math.isinf(self.alpha):
            raise ParameterError("rfl/cserm need a finite positive alpha")

    def echo(self) -> dict:
        out = asdict(self)
        if isinstance(out["eps"], np.ndarray):
            out["eps"] = out["eps"].tolist()
        out["alpha"] = "inf" if math.isinf(out["alpha"]) else out["alpha"]
        return out


@dataclass
class RunRecord:
    """One run: what ``train()`` returns and ``load_run()`` reads back from its directory."""

    config: dict
    trajectory: list[dict]  # one row per epoch, keyed by TRAJECTORY_COLUMNS
    train_losses: np.ndarray | None  # final per-sample losses, indexed by id
    test_losses: np.ndarray | None
    multipliers: np.ndarray  # lambda of each training sample, indexed by id
    params: models.ModelParams
    status: str
    abort_reason: str | None
    wall_clock_s: float
    train_pass_counts: dict
    phase_s: dict = field(default_factory=dict)  # perf_counter seconds per phase
    metadata: dict = field(default_factory=dict)
    abort: dict | None = None  # {"epoch", "step", "ids"} of an aborted run

    @property
    def meta(self) -> dict:
        """The fields that ``meta.json`` holds."""
        return {name: getattr(self, name) for name in _META_FIELDS}


_META_FIELDS = ("status", "abort_reason", "abort", "wall_clock_s", "train_pass_counts",
                "phase_s", "metadata")


class _Sgd:
    def __init__(self, weight_decay: float):
        self.weight_decay = weight_decay

    def step(self, theta, grad, lr):
        return theta - lr * (grad + self.weight_decay * theta)


class _SgdMomentum:
    def __init__(self, momentum: float, weight_decay: float):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buf = None

    def step(self, theta, grad, lr):
        update = grad + self.weight_decay * theta
        if self.buf is None:
            self.buf = update
        else:  # momentum * buf + update, in place
            self.buf *= self.momentum
            self.buf += update
        return theta - lr * self.buf


class _AdamW:
    """Per-coordinate second-moment scaling with decoupled weight decay.

    The moments m and v are the rows of one array, each call updating both in
    place in the order of m = beta1 * m + (1 - beta1) * g and v = beta2 * v +
    (1 - beta2) * g * g, with beta and 1 - beta as (2, 1) columns.
    """

    def __init__(self, weight_decay: float):
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.stabilizer = (ADAMW_DEFAULTS[k] for k in ("beta1", "beta2", "stabilizer"))
        self.betas = np.array([[self.beta1], [self.beta2]])
        self.one_minus_betas = 1.0 - self.betas
        self.moments = None
        self.t = 0

    def step(self, theta, grad, lr):
        if self.moments is None:
            self.moments = np.zeros((2, len(theta)))
        self.t += 1
        self.moments *= self.betas
        update = self.one_minus_betas * grad
        update[1] *= grad
        self.moments += update
        del update  # freed before the temporaries below: one (2, P) array at a time
        m_hat = self.moments[0] / (1.0 - self.beta1 ** self.t)
        v_hat = self.moments[1] / (1.0 - self.beta2 ** self.t)
        decay = 1.0 - lr * self.weight_decay
        if decay != 1.0:  # theta * 1.0 is theta
            theta = theta * decay
        return theta - lr * m_hat / (np.sqrt(v_hat) + self.stabilizer)


def _make_optimizer(config: TrainerConfig):
    if config.primal_optimizer == SGD:
        return _Sgd(config.weight_decay)
    if config.primal_optimizer == SGD_MOMENTUM:
        return _SgdMomentum(config.momentum, config.weight_decay)
    return _AdamW(config.weight_decay)


def _featurized(model: models.Model, dataset: Dataset) -> Batch:
    # A Batch, not a Dataset: an expansion that overflows must abort the run
    # as a non-finite prediction, not be rejected as invalid input.
    return Batch(dataset.ids, model.featurize(dataset.features), dataset.targets)


def _eval_split(model, theta, rows: Batch, kind, workspace: models.Workspace | None = None):
    """(losses, accuracy, sum of the losses) of a forward pass over ``rows``."""
    preds, _, losses, _, total = models.forward_loss(model, theta, rows, kind, workspace)
    return losses, models.accuracy(preds, rows.targets, kind), total


def train(config: TrainerConfig, model: models.Model, train_ds: Dataset,
          test_ds: Dataset | None = None) -> RunRecord:
    """Run the full epoch budget of the configured method; deterministic for
    fixed config and seed.

    Each step makes one forward and one backward pass and updates the
    multipliers of exactly its batch's samples (fl/rfl) before its primal
    step, which uses the updated values. A completed run's final losses are
    those of its last epoch-end evaluation. Runs abort (status "aborted",
    reason and ids recorded) on non-finite losses or parameters, or when any
    multiplier exceeds the blow-up threshold. NumPy's overflow and invalid
    warnings are silenced for the call: every non-finite result aborts it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _train(config, model, train_ds, test_ds)


def _train(config: TrainerConfig, model: models.Model, train_ds: Dataset,
           test_ds: Dataset | None) -> RunRecord:
    if test_ds is not None and test_ds.task != train_ds.task:
        raise ParameterError("train and test datasets must share a task")
    kind = models.loss_kind(train_ds.task)
    n = train_ds.n_samples
    try:
        eps = np.broadcast_to(np.asarray(config.eps, dtype=np.float64), (n,)).copy()
    except ValueError:
        raise ParameterError(f"eps must be a scalar or a length-{n} vector")
    theta = model.init_params(config.seed)
    lam = np.zeros(n)
    weights_max = 0.0  # of fl/rfl's latest weights: lam's max after a full-batch step
    optimizer = _make_optimizer(config)
    batch_size = config.batch_size if config.batch_size is not None else n
    full_batch = batch_size == n  # every step takes all rows, in id order
    steps_per_epoch = math.ceil(n / batch_size)
    # erm's weights, per batch length: the last batch of an epoch may be shorter.
    uniform = {m: np.full(m, 1.0 / m) for m in {batch_size, n - (steps_per_epoch - 1) * batch_size}}
    lam_stats = None  # the lambda columns of a row; constants of erm and cserm, whose lambda stays 0
    sat_bound = eps + fs.SAT_TOL
    total_steps = max(config.epochs * steps_per_epoch, 1)
    train_rows = _featurized(model, train_ds)
    test_rows = _featurized(model, test_ds) if test_ds is not None else None
    shuffle_rng = epoch_rng(combine_seed(config.seed, 0))  # batch_iter re-keys it every epoch
    train_ws, test_ws = models.Workspace(), models.Workspace()

    trajectory: list[dict] = []
    abort_reason = abort = None
    passes = {"forward": 0, "backward": 0}
    step_idx = 0
    clock = time.perf_counter
    t_forward = t_dual = t_backward = t_step = t_eval = 0.0
    # forward_loss of an epoch-end train forward, at the next step's theta and over
    # all rows (a batch's ids are its row positions): that step's forward.
    ahead = None
    start = time.perf_counter()

    for epoch in range(config.epochs):
        max_step_violation = -math.inf
        try:
            epoch_seed = combine_seed(config.seed, epoch)
            for batch in batch_iter(train_rows, batch_size, epoch_seed, shuffle_rng):
                t0 = clock()
                if ahead is not None:
                    (_, cache, g, dpred, _), ahead = ahead, None
                    if not full_batch:
                        cache = model.cache_rows(cache, batch.ids, batch.features)
                        g, dpred = g[batch.ids], dpred[batch.ids]
                else:
                    _, cache, g, dpred, _ = models.forward_loss(model, theta, batch, kind, train_ws, grad=True)
                passes["forward"] += 1
                t1 = clock()
                eps_b = eps if full_batch else eps[batch.ids]
                v = fs.violations(g, eps_b)
                max_step_violation = max(max_step_violation, float(np.maximum.reduce(v)))

                if config.method == ERM:
                    weights = uniform[len(batch)]
                elif config.method == CSERM:
                    weights = fs.best_response(v, config.alpha)
                else:
                    lam_b = lam if full_batch else lam[batch.ids]
                    weights = fs.dual_ascent(lam_b, v, config.eta_lambda, config.alpha)
                    # One reduction for both checks: NaN fails the comparison, +inf exceeds.
                    weights_max = np.maximum.reduce(weights)
                    blown_up = not weights_max <= fs.BLOWUP_THRESHOLD
                    if blown_up:
                        # raises on a non-finite multiplier, naming its samples
                        fs.dual_step_rfl(lam_b, v, config.eta_lambda, config.alpha, batch.ids)
                    if full_batch:
                        lam = weights
                    else:
                        lam[batch.ids] = weights
                    if blown_up:
                        blown = batch.ids[weights > fs.BLOWUP_THRESHOLD]
                        raise NumericError(
                            f"dual blow-up: multipliers exceed {fs.BLOWUP_THRESHOLD:g} "
                            f"on samples {blown.tolist()}", ids=blown)

                t2 = clock()
                grad = models.weighted_grad(model, cache, dpred, weights)
                passes["backward"] += 1
                t3 = clock()
                lr = config.eta_theta
                if config.cosine_decay:
                    lr *= 0.5 * (1.0 + math.cos(math.pi * step_idx / total_steps))
                theta = optimizer.step(theta, grad, lr)
                # As in forward_loss: the entries decide only when the sum is not finite.
                if not math.isfinite(np.add.reduce(theta)) and not np.isfinite(theta).all():
                    raise NumericError("parameters became non-finite after primal step")
                step_idx += 1
                t4 = clock()
                t_forward += t1 - t0
                t_dual += t2 - t1
                t_backward += t3 - t2
                t_step += t4 - t3
        except NumericError as err:
            abort_reason, abort = str(err), {"epoch": epoch, "step": step_idx, "ids": err.ids}
        if abort is not None:
            break

        t0 = clock()
        try:
            if epoch < config.epochs - 1:
                ahead = models.forward_loss(model, theta, train_rows, kind, train_ws, grad=True)
                t1 = clock()  # the next step's forward, timed as one
                t_forward += t1 - t0
                t0 = t1
                preds, _, train_losses, _, train_total = ahead
                train_acc = models.accuracy(preds, train_rows.targets, kind)
            else:
                train_losses, train_acc, train_total = _eval_split(model, theta, train_rows, kind, train_ws)
            test_eval = (_eval_split(model, theta, test_rows, kind, test_ws)
                         if test_rows is not None else None)
        except NumericError as err:
            abort_reason = f"epoch-end evaluation failed: {err}"
            abort = {"epoch": epoch, "step": step_idx, "ids": err.ids}
            break
        # sum / n and count / n are the IEEE operations np.mean performs, and ndarray.sum,
        # .min and .max call the ufuncs' reduce: their bits without the per-call overhead.
        if lam_stats is None or config.method in (FL, RFL):
            lam_max = weights_max if full_batch else np.maximum.reduce(lam)
            lam_stats = {"lam_min": float(np.minimum.reduce(lam)),
                         "lam_mean": float(np.add.reduce(lam)) / n, "lam_max": float(lam_max),
                         "lam_frac_zero": int(np.count_nonzero(lam <= fs.ZERO_MULTIPLIER_TOL)) / n}
        row = {
            "epoch": epoch,
            "train_mean_loss": train_total / n,
            "train_max_loss": float(np.maximum.reduce(train_losses)),
            "train_accuracy": train_acc,
            "sat_fraction": int(np.count_nonzero(train_losses <= sat_bound)) / n,
            "max_step_violation": max_step_violation,
            **lam_stats,
            "test_mean_loss": math.nan,
            "test_max_loss": math.nan,
            "test_accuracy": math.nan,
        }
        if test_eval is not None:
            test_losses, test_acc, test_total = test_eval
            row["test_mean_loss"] = test_total / len(test_losses)
            row["test_max_loss"] = float(np.maximum.reduce(test_losses))
            row["test_accuracy"] = test_acc
        trajectory.append(row)
        t_eval += clock() - t0

    final_train = final_test = None
    if abort is None and trajectory:  # the last row was evaluated at the final theta
        final_train, final_test = train_losses, test_eval[0] if test_eval is not None else None
    else:
        t0 = clock()
        try:
            final_train = _eval_split(model, theta, train_rows, kind, train_ws)[0]
            if test_rows is not None:
                final_test = _eval_split(model, theta, test_rows, kind, test_ws)[0]
        except NumericError:
            pass  # aborted runs keep whatever is computable
        t_eval += clock() - t0

    wall = clock() - start
    config_echo = config.echo()
    config_echo["dataset_signature"] = {
        "train": train_ds.signature(),
        "test": test_ds.signature() if test_ds is not None else None,
    }
    return RunRecord(
        config=config_echo,
        trajectory=trajectory,
        train_losses=final_train,
        test_losses=final_test,
        multipliers=lam,
        params=models.ModelParams(theta=theta, descriptor=model.descriptor()),
        status="completed" if abort is None else "aborted",
        abort_reason=abort_reason,
        wall_clock_s=wall,
        train_pass_counts=passes,
        phase_s={"forward_loss": t_forward, "dual_update": t_dual, "backward": t_backward,
                 "optimizer_step": t_step, "epoch_eval": t_eval},
        abort=abort,
        metadata={
            "loss_kind": kind,
            "model": model.descriptor(),
            "activation": "relu" if isinstance(model, models.MLP) else "none",
            "init": "uniform_fan_in" if isinstance(model, models.MLP) else "zeros",
            "adamw_defaults": dict(ADAMW_DEFAULTS),
            "steps_per_epoch": steps_per_epoch,
        },
    )


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, a 2-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_run(record: RunRecord, outdir) -> None:
    """Persist a run directory; see the README for the file contract.

    The two files that carry the status, ``meta.json`` and ``status.txt``,
    are removed first and written last, so a directory whose writing failed
    part-way never reads as completed, even one that held an earlier run.
    """
    start = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    meta_path, status_path = os.path.join(outdir, "meta.json"), os.path.join(outdir, "status.txt")
    for path in (status_path, meta_path):
        if os.path.exists(path):
            os.remove(path)
    write_json(os.path.join(outdir, "config.json"), record.config)
    with open(os.path.join(outdir, "trajectory.csv"), "w") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        stats = TRAJECTORY_COLUMNS[1:]
        for row in record.trajectory:
            fh.write(",".join([str(int(row["epoch"]))] + [repr(float(row[c])) for c in stats]) + "\n")
    for name, column, values in (("final_losses_train.csv", "loss", record.train_losses),
                                 ("final_losses_test.csv", "loss", record.test_losses),
                                 ("multipliers.csv", "lambda", record.multipliers)):
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(f"id,{column}\n")
            for i, value in enumerate(values if values is not None else ()):
                fh.write(f"{i},{float(value)!r}\n")
    models.save_checkpoint(os.path.join(outdir, "checkpoint.bin"), record.params)
    persist = time.perf_counter() - start
    write_json(meta_path, {**record.meta, "phase_s": {**record.phase_s, "persist": persist}})
    with open(status_path, "w") as fh:
        fh.write("completed\n" if record.status == "completed"
                 else f"aborted: {record.abort_reason}\n")


def _read_loss_csv(path) -> np.ndarray | None:
    """The values of an ``id,<value>`` file as save_run writes it, None if it
    has no rows. A row that is not two cells, or whose id is not its row
    number (ids 0..n-1 in order), raises ValueError, as a non-numeric value does."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
    for i, row in enumerate(rows):
        if len(row) != 2 or row[0] != str(i):
            raise ValueError(f"{os.path.basename(path)} line {i + 2} must be '{i},<value>', "
                             f"got {','.join(row)!r}")
    return np.array([float(value) for _, value in rows]) if rows else None


def load_run(outdir) -> RunRecord:
    """Read a run directory back into the RunRecord that ``train()`` returned,
    without retraining. Its ``phase_s`` also holds the ``persist`` time that
    ``save_run`` added. Files of the wrong shape raise ValueError."""
    with open(os.path.join(outdir, "config.json")) as fh:
        config = json.load(fh)
    with open(os.path.join(outdir, "meta.json")) as fh:
        meta = json.load(fh)
    if not isinstance(config, dict) or "method" not in config:
        raise ValueError("config.json is not a trainer config: it has no 'method'")
    if not isinstance(meta, dict) or set(meta) != set(_META_FIELDS):
        raise ValueError(f"meta.json must hold exactly the fields {list(_META_FIELDS)}")
    header, width = ",".join(TRAJECTORY_COLUMNS), len(TRAJECTORY_COLUMNS)
    with open(os.path.join(outdir, "trajectory.csv")) as fh:
        if fh.readline() != header + "\n":
            raise ValueError(f"trajectory.csv must start with the header {header}")
        has_rows = os.fstat(fh.fileno()).st_size > len(header) + 1  # np.loadtxt warns on none
        rows = np.loadtxt(fh, delimiter=",", ndmin=2) if has_rows else np.zeros((0, width))
    if rows.shape[1] != width:  # np.loadtxt itself raises on rows of unequal width
        raise ValueError(f"trajectory.csv rows must have {width} columns")
    trajectory = [dict(zip(TRAJECTORY_COLUMNS, row)) for row in map(np.ndarray.tolist, rows)]
    for row in trajectory:
        row["epoch"] = int(row["epoch"])
    lam = _read_loss_csv(os.path.join(outdir, "multipliers.csv"))
    return RunRecord(
        config=config,
        trajectory=trajectory,
        train_losses=_read_loss_csv(os.path.join(outdir, "final_losses_train.csv")),
        test_losses=_read_loss_csv(os.path.join(outdir, "final_losses_test.csv")),
        multipliers=lam if lam is not None else np.zeros(0),
        params=models.load_checkpoint(os.path.join(outdir, "checkpoint.bin")),
        **meta,
    )
