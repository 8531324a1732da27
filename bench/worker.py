"""One fresh benchmark process: set a workload up, run its jobs, report as JSON.

Started by run.py with BLAS threads pinned to 1. Set-up time is counted from
the moment run.py spawned this process (``--spawn-time``, a ``time.time()``
value) until the first job is about to start; it covers interpreter start, the
feaslearn import, data generation and model build. With ``--setup-only`` the
process exits there. Otherwise it runs jobs back to back (a closed loop with
one client) until ``--seconds`` have passed and at least MIN_JOBS have run,
checks each job's outputs, and writes a JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracer as tracing
import workloads

MIN_JOBS = 3


def run_jobs(workload, seconds: float, first=None, tracer=None, min_jobs: int = MIN_JOBS) -> list:
    """Run jobs until ``seconds`` have passed and ``min_jobs`` have run.

    A job that raises or fails its check is recorded as failed and the loop
    goes on. ``first`` is job 0's prepared input, when set-up already made it.
    Each record's ``ref_s`` is the mean of the workload's reference timings
    before and after the job.
    """
    records = []
    begin = time.perf_counter()
    ref_before = workload.reference()
    while len(records) < min_jobs or time.perf_counter() - begin < seconds:
        j = len(records)
        inputs = first if j == 0 and first is not None else workload.prepare(j)
        if tracer is not None:
            tracer.job = j
        result, error = None, None
        start = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.call(tracing.JOB_SPAN, workload.run, inputs)
            else:
                result = workload.run(inputs)
        except Exception:
            error = traceback.format_exc(limit=-3)
        rec = {"job": j, "seconds": time.perf_counter() - start, "seeds": inputs.seeds}
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            try:
                rec.update(workloads.outcome(False, error) if error else workload.check(inputs, result))
            except Exception:
                rec.update(workloads.outcome(False, traceback.format_exc(limit=-3)))
        if tracer is not None:
            tracer.job = None
        ref_after = workload.reference()
        rec["ref_s"] = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        records.append(rec)
    return records


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here as gzipped CSV")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    start = time.time()
    module = importlib.import_module(cls.entry_module)
    import_s = time.time() - start
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(module.__file__).startswith(src + os.sep):
        print(f"feaslearn was imported from {module.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = cls(args.seed, args.workdir)
    first = workload.prepare(0)
    setup_s = time.time() - args.spawn_time
    result = {"setup_s": setup_s, "import_s": import_s}
    if not args.setup_only:
        jobs = run_jobs(workload, args.seconds, first, tracer)
        result.update(jobs=jobs, run_check=workload.finish(jobs), env=environment(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_summary(
                tracer.spans, tracer.yields[tracing.STEP_SPAN])
            result["missing"] = tracer.missing
            if args.spans:
                tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
