"""Per-sample loss-constrained training via primal-dual updates.

The package trains small differentiable models subject to a loss bound on
every individual training sample, either as a hard feasibility problem or
relaxed through minimal-norm slacks, and ships the verification oracles and
experiment CLI used to exercise both.
"""

from .data import Batch, Dataset, gen_two_moons, poly_features
from .feasibility import (
    cserm_objective,
    dual_step_rfl,
    lagrangian_alpha,
    lagrangian_rfl_slack,
    slack_view,
    violations,
)
from .models import MLP, LinearModel, PolyModel, per_sample_loss, weighted_loss_grad
from .trainers import RunRecord, TrainerConfig, train

__all__ = [
    "Batch", "Dataset", "gen_two_moons", "poly_features",
    "cserm_objective", "dual_step_rfl", "lagrangian_alpha", "lagrangian_rfl_slack",
    "slack_view", "violations",
    "MLP", "LinearModel", "PolyModel", "per_sample_loss", "weighted_loss_grad",
    "RunRecord", "TrainerConfig", "train",
]

__version__ = "0.1.0"
