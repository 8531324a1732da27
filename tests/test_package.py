"""The package root exports exactly what the README documents."""

from pathlib import Path

import feaslearn

ROOT_EXPORTS = [
    "Batch", "Dataset", "LinearModel", "MLP", "PolyModel", "RunRecord", "TrainerConfig",
    "cserm_objective", "dual_step_rfl", "gen_two_moons", "lagrangian_alpha",
    "lagrangian_rfl_slack", "per_sample_loss", "poly_features", "slack_view", "train",
    "violations", "weighted_loss_grad",
]


def test_root_exports_are_pinned_resolve_and_are_documented():
    # Growing the root takes an edit here and a line in the README.
    assert sorted(feaslearn.__all__) == ROOT_EXPORTS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name in ROOT_EXPORTS:
        assert getattr(feaslearn, name) is not None
        assert f"`{name}`" in readme, f"{name} is exported from the root but not named in README.md"
