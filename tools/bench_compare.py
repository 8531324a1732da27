"""Summarise paired benchmark runs of two checkouts into one JSON file.

Run ``bench/run.py`` in a checkout of the parent commit and in one of the
change, alternating, with the same ``--seed`` values on both sides; each run
leaves ``bench/results/<workload>-seed<N>-trace<T>.json``. Then:

    python3 tools/bench_compare.py --parent PARENT/bench/results \\
        --change CHANGE/bench/results --out BENCH_<n>.json

A parent checkout made with ``git archive`` has no .git, so its results carry
no commit; ``--parent-commit SHA`` names it. The flag is refused (exit 2) when
the parent's results carry a different commit.

For every workload found with ``--trace 0`` on both sides, the output holds
the seeds, the q1/median/q3 of each end-to-end metric on each side, in how
many seed pairs the change was better, a verdict, and whether the per-job
trajectory digests matched. For every workload traced on both sides it holds
the per-layer calls/job, share and per_step of each side.

The verdict on each (workload, metric), first match wins; a relative change
or spread is taken against the parent's median, and the bound is the
metric's in BENCHMARK.json:
  gain        the change is better in at least 9 of 10 pairs, and its median
              is better by more than the parent's IQR
  regression  the median is worse by more than the bound
  unresolved  the parent's IQR exceeds the bound, and not every change run
              is better than every parent run
  worse       the median is worse, by no more than the bound
  unchanged   none of the above
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def _load(results: Path) -> dict:
    """{(workload, trace): {seed: result record}} of one results directory."""
    runs: dict = {}
    for path in sorted(results.glob("*.json")):
        match = NAME.match(path.name)
        if match:
            key = (match["workload"], int(match["trace"]))
            runs.setdefault(key, {})[int(match["seed"])] = json.loads(path.read_text())
    return runs


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _digests(record: dict) -> list[str]:
    worker = record.get("main") or record["plain"]
    return [job["digest"] for job in worker["jobs"]]


def _verdict(metric: dict, pairs: list[tuple[float, float]]) -> str:
    """The verdict on one metric's summary, from its (parent, change) value pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    parent_median = metric["parent"]["median"]
    gap = sign * (metric["change"]["median"] - parent_median)
    allowed = metric["bound"] * abs(parent_median)
    if 10 * metric["change_better_pairs"] >= 9 * metric["pairs"] and -gap > metric["parent_iqr"]:
        return "gain"
    if gap > allowed:
        return "regression"
    every_run_better = max(sign * c for _, c in pairs) < min(sign * p for p, _ in pairs)
    if metric["parent_iqr"] > allowed and not every_run_better:
        return "unresolved"
    if gap > 0:
        return "worse"
    return "unchanged"


def _end_to_end(parent: dict, change: dict, spec: dict) -> dict:
    seeds = sorted(set(parent) & set(change))
    out = {"seeds": seeds, "metrics": {}}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(parent[s]["result"]["metrics"][name]["value"],
                  change[s]["result"]["metrics"][name]["value"]) for s in seeds]
        p_q, c_q = _quartiles([p for p, _ in pairs]), _quartiles([c for _, c in pairs])
        summary = out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p_q, "change": c_q,
            "median_change": c_q["median"] / p_q["median"] - 1.0,
            "parent_iqr": p_q["q3"] - p_q["q1"],
            "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": len(pairs),
        }
        summary["verdict"] = _verdict(summary, pairs)
    jobs = matched = 0
    for s in seeds:
        a, b = _digests(parent[s]), _digests(change[s])
        jobs += min(len(a), len(b))
        matched += sum(x == y for x, y in zip(a, b))
    out["failed_jobs"] = {side: sum(r[s]["result"]["failed"] for s in seeds)
                          for side, r in (("parent", parent), ("change", change))}
    out["job_digests_equal"] = {"matched": matched, "compared": jobs}
    return out


def _per_layer(record: dict) -> dict:
    layers = record["traced"]["layers"]
    jobs, wall = layers["jobs"], layers["job_wall_s"]
    return {
        "steps_per_job": layers["steps"] / jobs,
        "traced_equals_untraced_digests": not any("digests differ" in p for p in record["problems"]),
        "spans": {name: {"calls": e["calls"] / jobs, "share": e["self_s"] / wall,
                         "per_step": e["per_step"]}
                  for name, e in sorted(layers["names"].items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent's bench/results")
    parser.add_argument("--change", type=Path, required=True, help="change's bench/results")
    parser.add_argument("--spec", type=Path, default=Path("BENCHMARK.json"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-commit", help="the parent's commit, when its results carry none")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    parent, change = _load(args.parent), _load(args.change)
    recorded = {r["env"].get("commit") for runs in parent.values() for r in runs.values()} - {None}
    if args.parent_commit is not None and recorded - {args.parent_commit}:
        print(f"--parent-commit {args.parent_commit} differs from the parent's recorded commit "
              f"{', '.join(sorted(recorded))}", file=sys.stderr)
        return 2
    report = {"end_to_end": {}, "per_layer": {}}
    for (workload, trace), runs in sorted(parent.items()):
        other = change.get((workload, trace))
        if not other:
            continue
        if trace == 0:
            report["end_to_end"][workload] = _end_to_end(runs, other, spec)
        else:
            seed = max(set(runs) & set(other))
            report["per_layer"][workload] = {
                "seed": seed, "parent": _per_layer(runs[seed]), "change": _per_layer(other[seed])}
    any_run = next(iter(next(iter(parent.values())).values()))
    report["env"] = {k: any_run["env"].get(k) for k in
                     ("python", "numpy", "scipy", "nproc", "cpus_usable", "blas_threads", "seconds")}
    report["parent_commit"] = any_run["env"].get("commit") or args.parent_commit
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
