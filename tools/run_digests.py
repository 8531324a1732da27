"""Print one sha256 per run file that a checkout's feaslearn writes.

    python3 tools/run_digests.py CHECKOUT [--epochs 100]

Imports feaslearn from CHECKOUT/src, with BLAS pinned to one thread. Trains
seed 0 of every `feaslearn gen-config` template, for at most --epochs epochs,
under each trainer setting in SETTINGS (and, for the rfl templates, with
eta_lambda = alpha, rfl's best-response dual step), so every model family
runs full-batch and mini-batch to completion, then the runs of `aborts()`,
which end in an abort record. Each run is written with `trainers.save_run`,
and each of its files prints as

    <sha256>  <run>/<file>

`meta.json` is hashed without `wall_clock_s` and `phase_s`, the only bytes
that differ between two identical runs. Then `cli.run_experiment` runs every
template on seeds 0 and 1 under the same --epochs cap, through the seed pool
as `feaslearn run` does. Each seed file prints as above, and `summary.json`
prints hashed without the per-seed and aggregate `wall_clock_s` and without
the `output_dir` fields, as

    <sha256>  run-<template>/seed_<s>/<file>
    <sha256>  run-<template>/summary.json

Two more runs fail on seed 1 and print their error and the files left in
their output directory: one fails after writing that seed's directory, in a
new output directory, which must not be left; the other fails before
writing it, when rerun over the two-seed run of `noisy_cosine_fl`, whose
earlier `seed_0/`, `seed_1/` and `summary.json` must all stay:

    run-failing_seed: <error>; left: <files>
    run-failing_rerun: <error>; left: <files>

Then `cli.compare(..., svg=True)` compares, seed by seed, the seed
directories of the two templates of each pair in COMPARED (the seeds of a
template differ in their data). Each file it writes (the curve CSVs,
`table.csv`, the SVGs and `comparison.json`, hashed without its `out_dir`)
prints as

    <sha256>  compare-<pair>-seed_<s>/<file>

Then comes the report file that the checkout's own
`cli.verify("all", report_path=...)` writes, the file of
`feaslearn verify all --report`, as

    <sha256>  verify_all/report.json

and then P1's report at tol 5e-324, the smallest positive float, as
sorted-key JSON: it lists every trial whose discrepancy exceeds that tol,
where the report of `verify all` holds only the largest discrepancy:

    <sha256>  verify_cserm_identity/all_trials.json

So two checkouts train the same bits, abort with the same reasons and ids,
write the same experiment summaries, clean up the same way after a failing
seed, compare to the same files and verify to the same report, when the
outputs do not differ. Run one copy of this tool, the newer one, against
both checkouts, so that both outputs list the same runs:

    python3 tools/run_digests.py PARENT > parent.txt
    python3 tools/run_digests.py . > change.txt
    diff parent.txt change.txt

NumPy warnings go to stderr as usual; the parent of a change may emit some
that the change does not.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# name: trainer fields that override the template's
SETTINGS = {
    "as_given": {},
    "sgd": {"primal_optimizer": "sgd"},
    "momentum_wd_cosine": {"primal_optimizer": "sgd_momentum", "momentum": 0.8,
                           "weight_decay": 1e-3, "cosine_decay": True},
    "adamw_wd_cosine": {"primal_optimizer": "adamw", "weight_decay": 1e-2, "cosine_decay": True},
    # every template's train split has more than 7 rows and a ragged last batch
    "mini_batch": {"batch_size": 7},
}

# pair: the two templates whose seed_<s> directories one compare call pools
COMPARED = {
    "outlier_regression": ("outlier_regression_erm", "outlier_regression_rfl"),
    "two_moons": ("two_moons_fl", "two_moons_erm"),
}


def aborts(data, models, np):
    """{name: (trainer fields, model, train set, test set)} of runs that abort."""
    ones = np.ones((3, 1))
    step_x = np.ones((8, 1))
    step_x[[5, 6], 0] = 1e200  # batch [5, 0] takes theta to ~1e200, batch [6, 1] overflows
    logits_x = np.array([[1.0, 0.0], [1e300, 0.0], [0.0, 1.0], [1e300, 1e300]])
    cosine = data.gen_noisy_cosine(30, 0.1, 5)
    far = data.Dataset(features=np.array([[0.5], [1e200]]), targets=np.zeros(2), ids=np.arange(2),
                       task=data.REGRESSION)
    return {
        # sample 2's update overflows to -inf and projects to 0; 0 and 1 blow up
        "dual_overflow_then_blowup": (
            {"method": "fl", "eta_theta": 1e-3, "eta_lambda": 1e300, "eps": [0.0, 0.0, 1e10]},
            models.LinearModel(1),
            data.Dataset(features=ones, targets=np.array([1.0, 2.0, 0.0]), ids=np.arange(3),
                         task=data.REGRESSION), None),
        "dual_non_finite": (
            {"method": "rfl", "alpha": 1.0, "eta_theta": 1e-3, "eta_lambda": 1e300, "eps": 0.0},
            models.LinearModel(1),
            data.Dataset(features=ones, targets=np.array([1.0, 2.0, 1e5]), ids=np.arange(3),
                         task=data.REGRESSION), None),
        "eval_non_finite_loss": (
            {"method": "fl", "eta_theta": 1e-2, "eta_lambda": 0.1, "eps": 0.05},
            models.MLP((1, 6, 1), data.REGRESSION), cosine, far),
        "eval_non_finite_loss-mini_batch": (
            {"method": "fl", "eta_theta": 1e-2, "eta_lambda": 0.1, "eps": 0.05, "batch_size": 7},
            models.MLP((1, 6, 1), data.REGRESSION), cosine, far),
        "step_non_finite_prediction": (
            {"method": "erm", "eta_theta": 1.0, "batch_size": 2},
            models.LinearModel(1),
            data.Dataset(features=step_x, targets=np.ones(8), ids=np.arange(8),
                         task=data.REGRESSION), None),
        "step_non_finite_logit": (
            {"method": "erm", "eta_theta": 1.0, "batch_size": 2},
            models.MLP((2, 2)),
            data.Dataset(features=logits_x, targets=np.array([0, 1, 1, 0]), ids=np.arange(4),
                         task=data.CLASSIFICATION), None),
    }


def file_digests(run_dir: Path) -> dict:
    out = {}
    for path in sorted(run_dir.iterdir()):
        raw = path.read_bytes()
        if path.name == "meta.json":
            meta = json.loads(raw)
            for key in ("wall_clock_s", "phase_s"):
                meta.pop(key, None)
            raw = json.dumps(meta, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(raw).hexdigest()
    return out


def summary_digest(path: Path) -> str:
    summary = json.loads(path.read_bytes())
    for metrics in summary["per_seed"].values():
        metrics.pop("wall_clock_s", None)
    summary["aggregate"].pop("wall_clock_s", None)
    summary.pop("output_dir")
    summary["config"].pop("output_dir")
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def run_templates(cli, tmp: Path, epochs: int) -> None:
    """Digest a two-seed `run_experiment` of every template, then the failing-seed runs."""
    for name, template in sorted(cli.config_templates().items()):
        trainer = {**template["trainer"], "epochs": min(template["trainer"]["epochs"], epochs)}
        outdir = tmp / f"run-{name}"
        cli.run_experiment({**template, "trainer": trainer, "seeds": [0, 1], "output_dir": str(outdir)})
        for seed in (0, 1):
            for file, digest in file_digests(outdir / f"seed_{seed}").items():
                print(f"{digest}  run-{name}/seed_{seed}/{file}")
        print(f"{summary_digest(outdir / 'summary.json')}  run-{name}/summary.json")

    template = cli.config_templates()["noisy_cosine_fl"]
    failing_run(cli, "run-failing_seed", "_seed_metrics", lambda record, *_: record.config["seed"] == 1,
                {**template, "trainer": {**template["trainer"], "epochs": min(epochs, 10)},
                 "seeds": [0, 1, 2], "output_dir": str(tmp / "run-failing_seed")})
    trainer = {**template["trainer"], "epochs": min(template["trainer"]["epochs"], epochs)}
    failing_run(cli, "run-failing_rerun", "build_dataset", lambda seed: seed == 1,
                {**template, "trainer": trainer, "seeds": [0, 1],
                 "output_dir": str(tmp / "run-noisy_cosine_fl")})


def compare_templates(cli, tmp: Path) -> None:
    """Digest what `compare --svg` writes for each pair of COMPARED, seed by seed."""
    for (pair, names), seed in itertools.product(COMPARED.items(), (0, 1)):
        label = f"compare-{pair}-seed_{seed}"
        cli.compare([str(tmp / f"run-{name}" / f"seed_{seed}") for name in names],
                    out_dir=str(tmp / label), svg=True)
        for path in sorted((tmp / label).iterdir()):
            raw = path.read_bytes()
            if path.name == "comparison.json":
                report = json.loads(raw)
                report.pop("out_dir")
                raw = json.dumps(report, sort_keys=True).encode()
            print(f"{hashlib.sha256(raw).hexdigest()}  {label}/{path.name}")


def failing_run(cli, label: str, where: str, fails, config: dict) -> None:
    """Run ``config`` with ``cli.<where>`` raising on the seeds that ``fails``
    picks, then print the error and the files left in the output directory."""
    real = getattr(cli, where)

    def patched(cfg, *args):
        if fails(*args):
            raise cli.ConfigError(f"seed 1 fails in {where}")
        return real(cfg, *args)

    setattr(cli, where, patched)  # forked pool workers inherit it
    try:
        cli.run_experiment(config)
        error = "none"
    except cli.ConfigError as err:
        error = f"error: {err}"
    finally:
        setattr(cli, where, real)
    outdir = Path(config["output_dir"])
    left = (sorted(str(p.relative_to(outdir)) for p in outdir.rglob("*")) if outdir.exists()
            else "no output dir")
    print(f"{label}: {error}; left: {left}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--epochs", type=int, default=100)
    args = parser.parse_args(argv)
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    from feaslearn import cli, data, models, oracle, trainers
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"feaslearn was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    runs = []  # (name, trainer fields, model, train set, test set)
    for name, template in sorted(cli.config_templates().items()):
        cfg = cli.load_config(template)
        train_ds, test_ds = cli.build_dataset(cfg, 0)
        model = cli.build_model(cfg, train_ds)
        settings = dict(SETTINGS)
        if cfg["trainer"]["method"] == trainers.RFL:
            settings["best_response"] = {"eta_lambda": cfg["trainer"]["alpha"]}
        for setting, fields in settings.items():
            trainer = {**cfg["trainer"], **fields, "epochs": min(cfg["trainer"]["epochs"], args.epochs)}
            runs.append((f"{name}-{setting}", trainer, model, train_ds, test_ds))
    for name, (fields, model, train_ds, test_ds) in aborts(data, models, np).items():
        runs.append((f"abort-{name}", {"epochs": 3, **fields}, model, train_ds, test_ds))

    with tempfile.TemporaryDirectory() as tmp:
        for name, trainer, model, train_ds, test_ds in runs:
            record = trainers.train(trainers.TrainerConfig(seed=0, **trainer), model, train_ds, test_ds)
            run_dir = Path(tmp) / name
            trainers.save_run(record, run_dir)
            for file, digest in file_digests(run_dir).items():
                print(f"{digest}  {name}/{file}")
        run_templates(cli, Path(tmp), args.epochs)
        compare_templates(cli, Path(tmp))
        report = Path(tmp) / "verify_all.json"
        cli.verify("all", report_path=str(report))
        print(f"{hashlib.sha256(report.read_bytes()).hexdigest()}  verify_all/report.json")
        identity = oracle.check_cserm_identity(n_trials=1000, tol=5e-324, seed=0)
        raw = json.dumps(identity, sort_keys=True).encode()
        print(f"{hashlib.sha256(raw).hexdigest()}  verify_cserm_identity/all_trials.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
