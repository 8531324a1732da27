"""feaslearn benchmark: end-to-end timings per workload, and a traced per-layer split.

Run from the root of a checkout:

    python3 bench/run.py --workload two_moons_fl --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Each workload runs in fresh single-threaded Python processes, started one at a
time, with BLAS threads pinned to 1 and PYTHONHASHSEED fixed. The workload
seed selects the run seeds; the library sees only the generated configs and
datasets. Workloads and their metrics are declared in BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off. Jobs run in a
closed loop with one client: the next job starts when the last one ends.
  setup_s      median over SETUP_SAMPLES fresh processes of the time from
               spawn to the first call into trainers.train / cli.main
  job_rel      median over jobs of the job's wall time divided by the time of a
               fixed NumPy loop like the workload's work, timed around the job
               (the *_reference functions in workloads.py)
  peak_rss_mb  peak resident memory of the process that ran the jobs
The median job wall time (job_s), the failed fraction and training samples per
second are printed as well. job_s is not a BENCHMARK.json metric: on a shared
VM whose speed shifts by up to 2x for minutes at a time, run medians of wall
time spread by more than any usable bound, and job_rel cancels those shifts.

--trace 1 gives the per-layer metrics: half of --seconds runs untraced, half
traced, in two fresh processes on the same job inputs. It checks that both
produce byte-identical trajectory digests and that every training step costs
exactly one forward_cache and one backward call, and reports per span name
the calls per job and the share of traced job time spent in it (self time),
plus the tracing overhead (traced over untraced job_rel).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Full results, the environment and each job's
trajectory digest go to bench/results/, and the last traced run's spans of each
workload to a gzipped CSV beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # the job process plus SETUP_SAMPLES - 1 set-up-only processes
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Each training step must cost exactly one of each (the paper's cost claim).
ONE_PER_STEP = ("models.forward_cache", "models.backward")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str | None:
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def worker(self, workdir: str, tag: str, seconds: float, trace: int = 0,
               setup_only: bool = False, spans: Path | None = None) -> dict:
        """Run one fresh worker process to completion and return its JSON result."""
        procdir = os.path.join(workdir, tag)
        os.makedirs(procdir)
        out = os.path.join(procdir, "result.json")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", repr(seconds), "--trace", str(trace),
               "--workdir", procdir, "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        cmd += ["--spawn-time", repr(time.time())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} did not finish within {timeout:.0f} s")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not os.path.exists(out):
            raise BenchError(f"worker {tag} exited with code {proc.returncode}")
        with open(out) as fh:
            return json.load(fh)


def job_summary(result: dict) -> dict:
    jobs = result["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    train_s = sum(j["train_s"] for j in jobs)
    return {
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs),
        "job_s": statistics.median(j["seconds"] for j in jobs),
        "job_rel": statistics.median(j["seconds"] / j["ref_s"] for j in jobs),
        "samples_per_s": sum(j["samples"] for j in jobs) / train_s if train_s else None,
        "failures": [f"job {j['job']}: {j['reason']}" for j in jobs if not j["ok"]],
    }


def measure_untraced(runner: Runner, workdir: str, seconds: float) -> dict:
    probes = [runner.worker(workdir, f"setup_{i}", seconds, setup_only=True)
              for i in range(SETUP_SAMPLES - 1)]
    main = runner.worker(workdir, "jobs", seconds)
    jobs = job_summary(main)
    setup = [p["setup_s"] for p in probes] + [main["setup_s"]]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "job_rel": {"value": jobs["job_rel"], "unit": "ratio"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    problems = jobs["failures"] + ([main["run_check"]["reason"]] if not main["run_check"]["ok"] else [])
    lines = [f"setup_s {metrics['setup_s']['value']:.6f} s (median of {len(setup)} fresh processes)",
             f"job_s {jobs['job_s']:.6f} s (median of {jobs['attempted']} jobs)",
             f"job_rel {jobs['job_rel']:.6f} ratio (median job time over reference loop time)",
             f"peak_rss_mb {main['peak_rss_mb']:.3f} MB",
             f"failed_frac {jobs['failed_frac']:.6g} ratio ({jobs['failed']} of {jobs['attempted']} jobs)"]
    if jobs["samples_per_s"] is not None:
        lines.append(f"samples_per_s {jobs['samples_per_s']:.6g} samples/s")
    record = {"main": main, "setup_s_samples": setup, "summary": jobs}
    return {"metrics": metrics, "attempted": jobs["attempted"], "failed": jobs["failed"],
            "problems": problems, "lines": lines, "record": record}


def per_layer_metrics(layers: dict, import_s: float, overhead: float, wanted: list[dict]) -> dict:
    """The per_layer metrics BENCHMARK.json names, from a traced worker's summary."""
    names, jobs, wall = layers["names"], layers["jobs"], layers["job_wall_s"]
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        if name == "setup.import_s":
            value = import_s
        elif name == "trace.overhead":
            value = overhead
        else:
            span, _, field = name.rpartition(".")
            entry = names.get(span, {"calls": 0, "self_s": 0.0, "per_step": 0.0})
            value = {"calls": entry["calls"] / jobs, "share": entry["self_s"] / wall,
                     "per_step": entry["per_step"]}[field]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def measure_traced(runner: Runner, workdir: str, seconds: float, per_layer: list,
                   spans: Path) -> dict:
    plain = runner.worker(workdir, "plain", seconds / 2)
    traced = runner.worker(workdir, "traced", seconds / 2, trace=1, spans=spans)
    plain_jobs, traced_jobs = job_summary(plain), job_summary(traced)
    problems = plain_jobs["failures"] + traced_jobs["failures"]
    for result in (plain, traced):
        if not result["run_check"]["ok"]:
            problems.append(result["run_check"]["reason"])
    mismatched = [a["job"] for a, b in zip(plain["jobs"], traced["jobs"]) if a["digest"] != b["digest"]]
    if mismatched:
        problems.append(f"traced and untraced trajectory digests differ on jobs {mismatched}")
    layers = traced["layers"]
    if layers["steps"]:
        for name in ONE_PER_STEP:
            per_step = layers["names"].get(name, {}).get("per_step")
            if name not in traced["missing"] and per_step != 1.0:
                problems.append(f"{name} ran {per_step} times per training step, not 1")
    overhead = traced_jobs["job_rel"] / plain_jobs["job_rel"]
    missing = set(traced["missing"])
    wanted = [m for m in per_layer if m["name"].rpartition(".")[0] not in missing]
    metrics = per_layer_metrics(layers, traced["import_s"], overhead, wanted)
    lines = [f"untraced job_s {plain_jobs['job_s']:.6f} s over {plain_jobs['attempted']} jobs, "
             f"traced job_s {traced_jobs['job_s']:.6f} s over {traced_jobs['attempted']} jobs, "
             f"overhead {overhead:.4f}",
             f"trajectory digests identical on {min(len(plain['jobs']), len(traced['jobs']))} "
             f"common jobs: {not mismatched}",
             f"training steps per job {layers['steps'] / layers['jobs']:g}",
             f"{'span':36s} {'calls/job':>12s} {'self s/job':>12s} {'share':>8s} {'per_step':>9s}"]
    for name, entry in sorted(layers["names"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:36s} {entry['calls'] / layers['jobs']:12.6g} "
                     f"{entry['self_s'] / layers['jobs']:12.6f} "
                     f"{entry['self_s'] / layers['job_wall_s']:8.4f} {entry['per_step']:9.6g}")
    lines += [f"missing trace target: {name}" for name in traced["missing"]]
    record = {"plain": plain, "traced": traced, "overhead": overhead}
    return {"metrics": metrics, "attempted": plain_jobs["attempted"] + traced_jobs["attempted"],
            "failed": plain_jobs["failed"] + traced_jobs["failed"], "problems": problems,
            "lines": lines, "record": record}


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    runner = Runner(root, workload, seed, deadline)
    results_dir = BENCH_DIR / "results"
    work_parent = BENCH_DIR / ".work"
    results_dir.mkdir(exist_ok=True)
    work_parent.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    with tempfile.TemporaryDirectory(dir=work_parent) as workdir:
        if trace:
            out = measure_traced(runner, workdir, seconds, spec["per_layer"],
                                 results_dir / f"{workload}.spans.csv.gz")
        else:
            out = measure_untraced(runner, workdir, seconds)
    problems = out["problems"]
    worker = out["record"].get("main") or out["record"]["plain"]
    env = dict(worker["env"], nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               blas_threads=int(PINNED_ENV["OPENBLAS_NUM_THREADS"]), commit=git_commit(root),
               workload_seed=seed, workload=workload, seconds=seconds, trace=trace)
    for line in [f"workload {workload} seed {seed} trace {trace}",
                 "env " + json.dumps(env, sort_keys=True)] + out["lines"]:
        print(line)
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    result = {"correct": not problems, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": out["metrics"]}
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "result": result, "problems": problems, **out["record"]}, fh,
                  indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    root = Path.cwd()
    try:
        with open(root / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"cannot read BENCHMARK.json in {root}: {err}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "feaslearn" / "__init__.py").is_file():
        print(f"no feaslearn sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            result = run_workload(root, spec, workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
