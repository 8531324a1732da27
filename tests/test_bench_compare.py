"""tools/bench_compare.py on synthetic bench/results files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
SPEC = {"end_to_end": [
    {"name": "job_rel", "unit": "ratio", "better": "lower", "bound": 0.2},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}
ENV = {"python": "3.x", "numpy": "2.x", "scipy": "1.x", "nproc": 2, "cpus_usable": 2,
       "blas_threads": 1, "seconds": 32.0}


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(results: Path, workload, seed, trace, record, commit):
    results.mkdir(parents=True, exist_ok=True)
    record = dict(record, env=dict(ENV, commit=commit))
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def _untraced(job_rel, jobs_per_s, digests, failed=0, worker="main"):
    return {"result": {"failed": failed, "metrics": {"job_rel": {"value": job_rel},
                                                     "jobs_per_s": {"value": jobs_per_s}}},
            worker: {"jobs": [{"digest": d} for d in digests]}}


def _traced(forward_calls, forward_self_s, problems=()):
    return {"problems": list(problems), "traced": {"layers": {
        "jobs": 4, "job_wall_s": 8.0, "steps": 400,
        "names": {"models.forward_cache": {"calls": forward_calls, "self_s": forward_self_s,
                                           "per_step": 1.0}}}}}


def test_quartiles_better_pairs_and_digests(tmp_path, bench_compare):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent_rel, change_rel = [5.0, 4.0, 6.0, 5.5, 4.5], [3.0, 4.5, 3.2, 3.1, 3.3]
    for seed, (p, c) in enumerate(zip(parent_rel, change_rel), start=1):
        _write(parent, "w", seed, 0, _untraced(p, 1.0 / p, ["a", "b", "c"]), "abc123")
        # seed 1 repeats the parent's digests but one; the rest repeat them all
        digests = ["a", "x"] if seed == 1 else ["a", "b", "c"]
        _write(change, "w", seed, 0, _untraced(c, 1.0 / c, digests, failed=seed == 2, worker="plain"),
               None)
    _write(parent, "w", 9, 0, _untraced(1.0, 1.0, ["z"]), "abc123")  # no change run on seed 9
    _write(parent, "w", 7, 1, _traced(800, 2.0), "abc123")
    _write(change, "w", 7, 1, _traced(400, 1.0, ["traced and untraced digests differ"]), None)
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", str(parent), "--change", str(change),
                               "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0

    report = json.loads(out.read_text())
    e2e = report["end_to_end"]["w"]
    assert e2e["seeds"] == [1, 2, 3, 4, 5]
    job_rel = e2e["metrics"]["job_rel"]
    assert job_rel["parent"] == {"q1": 4.5, "median": 5.0, "q3": 5.5}
    assert job_rel["change"] == pytest.approx({"q1": 3.1, "median": 3.2, "q3": 3.3})
    assert job_rel["parent_iqr"] == 1.0
    assert job_rel["median_change"] == pytest.approx(3.2 / 5.0 - 1.0)
    assert (job_rel["change_better_pairs"], job_rel["pairs"]) == (4, 5)  # seed 2: 4.5 > 4.0
    # higher is better: the same pairs win, inverted
    assert e2e["metrics"]["jobs_per_s"]["change_better_pairs"] == 4
    assert e2e["job_digests_equal"] == {"matched": 13, "compared": 14}
    assert e2e["failed_jobs"] == {"parent": 0, "change": 1}

    layers = report["per_layer"]["w"]
    assert layers["seed"] == 7
    assert layers["parent"]["steps_per_job"] == 100.0
    assert layers["parent"]["spans"]["models.forward_cache"] == {"calls": 200.0, "share": 0.25,
                                                                 "per_step": 1.0}
    assert layers["change"]["spans"]["models.forward_cache"]["calls"] == 100.0
    assert layers["parent"]["traced_equals_untraced_digests"]
    assert not layers["change"]["traced_equals_untraced_digests"]
    assert report["parent_commit"] == "abc123"
    assert report["env"]["nproc"] == 2


TIGHT = [5.00, 5.02, 4.98, 5.01, 4.99, 5.03, 4.97, 5.00, 5.02, 4.98]  # IQR 0.0375, 0.75 %


@pytest.mark.parametrize("parent_rel,change_rel,verdict", [
    # better in 9 of 10 pairs, median gap 1.99 > parent IQR
    (TIGHT, [3.0] * 9 + [5.5], "gain"),
    # better in 10 of 10, but the median gap 0.02 is inside the parent's IQR
    (TIGHT, [v - 0.02 for v in TIGHT], "unchanged"),
    # better in 8 of 10 only
    (TIGHT, [3.0] * 8 + [5.5, 5.5], "unchanged"),
    # median 4 % worse: inside the 0.2 bound, still reported
    (TIGHT, [v * 1.04 for v in TIGHT], "worse"),
    # median 30 % worse: beyond the bound
    (TIGHT, [v * 1.3 for v in TIGHT], "regression"),
    # the parent's own IQR (2.0 around a median of 5.0) exceeds the bound
    ([4.0, 6.0, 4.0, 6.0, 5.0, 4.0, 6.0, 5.0, 4.0, 6.0], [5.0, 4.9] * 5, "unresolved"),
    # wide parent spread, but every change run beats every parent run
    ([4.0, 6.0, 4.0, 6.0, 5.0, 4.0, 6.0, 5.0, 4.0, 6.0], [3.9] * 10, "unchanged"),
])
def test_verdicts(tmp_path, bench_compare, parent_rel, change_rel, verdict):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate(zip(parent_rel, change_rel)):
        _write(parent, "w", seed, 0, _untraced(p, 1.0 / p, ["a"]), "abc123")
        _write(change, "w", seed, 0, _untraced(c, 1.0 / c, ["a"]), None)
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", str(parent), "--change", str(change),
                               "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["end_to_end"]["w"]["metrics"]
    assert metrics["job_rel"]["verdict"] == verdict
    # jobs_per_s = 1 / job_rel: higher is better, under its own 0.1 bound
    assert metrics["jobs_per_s"]["verdict"] == verdict


@pytest.mark.parametrize("recorded,flag,code,written", [
    (None, None, 0, None),
    (None, "abc123", 0, "abc123"),  # a git-archive checkout records no commit
    ("abc123", "abc123", 0, "abc123"),
    ("abc123", None, 0, "abc123"),
    ("abc123", "def456", 2, None),  # the flag contradicts the results
])
def test_parent_commit_flag(tmp_path, bench_compare, capsys, recorded, flag, code, written):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(4):
        _write(parent, "w", seed, 0, _untraced(5.0, 0.2, ["a"]), recorded)
        _write(change, "w", seed, 0, _untraced(4.0, 0.25, ["a"]), None)
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--spec", str(tmp_path / "spec.json"),
            "--out", str(out)] + (["--parent-commit", flag] if flag else [])
    assert bench_compare.main(argv) == code
    if code:
        assert not out.exists()
        assert "def456 differs from the parent's recorded commit abc123" in capsys.readouterr().err
    else:
        assert json.loads(out.read_text())["parent_commit"] == written
