"""Count the minor page faults of benchmark jobs, one job at a time.

Runs jobs of one ``bench/workloads.py`` workload in this process, with BLAS
pinned to one thread as ``bench/run.py`` pins it, and reads
``resource.getrusage(RUSAGE_SELF).ru_minflt`` just before and just after each
job's timed call, so input generation and output checks are not counted. The
checkout given by ``--root`` supplies both the feaslearn sources and the
workload, so a parent and a change checkout can be measured the same way:

    python3 tools/page_faults.py --root CHECKOUT --workload two_moons_fl --jobs 5

It prints one JSON object: the faults of every job and their median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and bench/ are measured (default: this one)")
    parser.add_argument("--workload", default="two_moons_fl")
    parser.add_argument("--seed", type=int, default=0, help="the workload seed")
    parser.add_argument("--jobs", type=int, default=5)
    args = parser.parse_args(argv)
    for name in BLAS_THREADS:
        os.environ[name] = "1"  # before NumPy loads, as bench/run.py sets it for its workers
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    faults = []
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for j in range(args.jobs):
            job = workload.prepare(j)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            workload.run(job)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(json.dumps({"root": str(root), "workload": args.workload, "seed": args.seed,
                      "ru_minflt_per_job": faults, "median": statistics.median(faults)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
