"""The package root and the trainer config are exactly what the README documents."""

import re
from dataclasses import fields
from pathlib import Path

import feaslearn

README = Path(__file__).resolve().parents[1] / "README.md"

ROOT_EXPORTS = [
    "Batch", "Dataset", "LinearModel", "MLP", "PolyModel", "RunRecord", "TrainerConfig",
    "cserm_objective", "dual_step_rfl", "gen_two_moons", "lagrangian_alpha",
    "lagrangian_rfl_slack", "per_sample_loss", "poly_features", "slack_view", "train",
    "violations", "weighted_loss_grad",
]


def test_root_exports_are_pinned_resolve_and_are_documented():
    # Growing the root takes an edit here and a line in the README.
    assert sorted(feaslearn.__all__) == ROOT_EXPORTS
    readme = README.read_text()
    for name in ROOT_EXPORTS:
        assert getattr(feaslearn, name) is not None
        assert f"`{name}`" in readme, f"{name} is exported from the root but not named in README.md"


def test_readme_trainer_example_and_its_note_name_every_trainer_field():
    # Adding or removing a TrainerConfig field takes a line in the README's config example.
    readme = README.read_text()
    example = re.search(r'^  "trainer": \{\n(.*?)^  \},', readme, re.S | re.M).group(1)
    keys = set(re.findall(r'"(\w+)":', example))
    note = r"`trainer` also accepts the remaining `TrainerConfig` field, `(\w+)`"
    keys.add(re.search(note, readme).group(1))
    assert keys == {f.name for f in fields(feaslearn.TrainerConfig)} - {"seed"}
