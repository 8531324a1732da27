"""Tests of the benchmark's own code. Run with `python -m pytest bench`."""

import os
import sys
import warnings
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_only_child_coverage():
    # job [0, 10] > train [1, 9] > {forward [2, 5] > poly [3, 4]; eval [6, 8] > forward [6.5, 7]}
    spans = [
        (tracing.JOB_SPAN, 0.0, 10.0, -1, 0),
        (tracing.TRAIN_SPAN, 1.0, 9.0, 0, 0),
        ("models.forward_cache", 2.0, 5.0, 1, 0),
        ("data.poly_features", 3.0, 4.0, 2, 0),
        (tracing.EVAL_SPAN, 6.0, 8.0, 1, 0),
        ("models.forward_cache", 6.5, 7.0, 4, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 1.0, 1.5, 0.5])

    summary = tracing.layer_summary(spans, steps=1)
    names = summary["names"]
    assert summary["jobs"] == 1 and summary["job_wall_s"] == 10.0
    assert names["models.forward_cache"]["calls"] == 2
    assert names["models.forward_cache"]["self_s"] == pytest.approx(2.5)
    # The forward inside eval is not a step's forward.
    assert names["models.forward_cache"]["per_step"] == 1.0
    assert names["data.poly_features"]["per_step"] == 1.0
    assert sum(e["self_s"] for e in names.values()) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [("a", 0.0, 4.0, -1, 0), ("b", 1.0, 3.0, 0, 0), ("c", 2.0, 5.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_spans_outside_jobs_are_ignored():
    spans = [("models.backward", 0.0, 1.0, -1, None), (tracing.JOB_SPAN, 1.0, 2.0, -1, 0)]
    assert "models.backward" not in tracing.layer_summary(spans, steps=0)["names"]


class _FlakyWorkload:
    """Job 1 raises, job 2 fails its check, the others pass."""

    def reference(self):
        return 1.0

    def prepare(self, j):
        return SimpleNamespace(seeds=[j], j=j)

    def run(self, job):
        if job.j == 1:
            raise RuntimeError("boom")
        return job.j

    def check(self, job, result):
        return workloads.outcome(result != 2, "bad output" if result == 2 else None)


def test_failed_jobs_are_counted_and_the_loop_continues():
    records = worker.run_jobs(_FlakyWorkload(), seconds=0.0, min_jobs=5)
    assert [r["ok"] for r in records] == [True, False, False, True, True]
    assert "boom" in records[1]["reason"]
    summary = run.job_summary({"jobs": records})
    assert (summary["attempted"], summary["failed"]) == (5, 2)
    assert summary["failed_frac"] == pytest.approx(0.4)


def test_seed_selects_library_inputs(tmp_path):
    def signature(seed, job=0):
        inputs = workloads.TwoMoonsFl(seed, str(tmp_path)).prepare(job)
        return inputs.seeds, inputs.dataset.signature(), inputs.config.seed

    assert signature(1) == signature(1)
    assert signature(1) != signature(2)
    assert signature(1, job=0) != signature(1, job=1)


def test_seed_selects_cli_configs(tmp_path):
    def configs(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir(exist_ok=True)
        inputs = workloads.OutlierCli(seed, str(workdir)).prepare(0)
        with open(inputs.configs["rfl"]) as fh:
            return inputs.seeds, fh.read()

    first = configs(1)
    assert first[0] != configs(2)[0]
    (tmp_path / "1" / "job_0" / "rfl.json").unlink()
    (tmp_path / "1" / "job_0" / "erm.json").unlink()
    (tmp_path / "1" / "job_0").rmdir()
    assert configs(1) == first


def _small_train():
    from feaslearn import data, models, trainers
    ds = data.gen_two_moons(64, 0.1, 0)
    cfg = trainers.TrainerConfig(method="fl", eta_theta=5e-3, eta_lambda=1e-2, eps=0.2,
                                 batch_size=16, epochs=3, primal_optimizer="adamw", seed=0)
    return trainers.train(cfg, models.MLP((2, 8, 2)), ds)


def test_tracer_leaves_results_unchanged_and_counts_one_pass_per_step():
    from feaslearn import trainers
    untraced = workloads.record_digest(_small_train())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        traced = workloads.record_digest(tracer.call(tracing.JOB_SPAN, _small_train))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert trainers.train.__name__ == "train" and not hasattr(trainers.train, "__wrapped__")
    summary = tracing.layer_summary(tracer.spans, tracer.yields[tracing.STEP_SPAN])
    assert summary["steps"] == 3 * 4
    for name in run.ONE_PER_STEP:
        assert summary["names"][name]["per_step"] == 1.0
    assert summary["names"]["trainers.optimizer_step"]["calls"] == 12
    assert tracer.missing == []


def test_missing_target_warns_and_is_skipped():
    tracer = tracing.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.patch_function("feaslearn.models", "no_such_function", "models.no_such_function")
        tracer.patch_function("feaslearn.no_such_module", "f", "gone.f")
    assert tracer.missing == ["models.no_such_function", "gone.f"]
    assert len(caught) == 2

    layers = {"names": {}, "jobs": 1, "job_wall_s": 1.0, "steps": 0}
    wanted = [{"name": "setup.import_s", "unit": "s"}, {"name": "data.batch_iter.calls", "unit": "count"}]
    metrics = run.per_layer_metrics(layers, 1.5, 1.1, wanted)
    assert metrics["data.batch_iter.calls"]["value"] == 0
    assert metrics["setup.import_s"]["value"] == 1.5
