"""The benchmark's workloads: generated inputs, the timed job and its output checks.

Each workload derives every input from the workload seed and the job index,
so the library sees only generated datasets and configs. ``prepare(j)``
builds job j's inputs outside the timed region, ``run`` is the timed job,
and ``check`` validates the job's outputs and digests the trajectory it
produced. ``finish`` checks properties that hold only over many seeds.

This module imports only the standard library at load time, so the worker can
time the feaslearn import on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from types import SimpleNamespace


def run_seed(workload_seed: int, job: int, k: int = 0) -> int:
    """The k-th run seed of a job: a 31-bit hash of (workload seed, job, k)."""
    digest = hashlib.sha256(f"{workload_seed}/{job}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def outcome(ok: bool, reason: str | None = None, digest: str | None = None,
            samples: int = 0, train_s: float = 0.0, **extra) -> dict:
    return {"ok": bool(ok), "reason": reason, "digest": digest,
            "samples": samples, "train_s": train_s, **extra}


def record_digest(record) -> str:
    """sha256 of a RunRecord's trajectory rows and final parameters."""
    h = hashlib.sha256(json.dumps(record.trajectory, sort_keys=True).encode())
    h.update(record.params.theta.tobytes())
    return h.hexdigest()


# A shared virtual machine can change speed by up to 2x for minutes at a time:
# on a 2-vCPU x86-64 VM, identical `feaslearn verify all` jobs went from 1.0 s
# to 1.9 s within one run. Each workload therefore times a fixed NumPy loop that
# resembles its own work but never calls feaslearn, before the first job and
# after every job; run.py divides each job's time by it (job_rel), which
# cancels such shifts.

def mlp_reference(steps: int = 100) -> float:
    """Seconds for forward and backward passes of a (2,70,70,2) ReLU net on 512 rows."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.normal(size=(512, 2))
    w1, w2, w3 = (rng.normal(size=shape) / 8.0 for shape in ((70, 2), (70, 70), (2, 70)))
    start = time.perf_counter()
    for _ in range(steps):
        h1 = np.maximum(x @ w1.T, 0.0)
        h2 = np.maximum(h1 @ w2.T, 0.0)
        out = h2 @ w3.T
        p = np.exp(out - out.max(axis=1, keepdims=True))
        d3 = p / p.sum(axis=1, keepdims=True)
        d2 = (d3 @ w3) * (h2 > 0.0)
        d1 = (d2 @ w2) * (h1 > 0.0)
        d3.T @ h2, d2.T @ h1, d1.T @ x
    return time.perf_counter() - start


def small_array_reference(steps: int = 800) -> float:
    """Seconds for many calls on tiny arrays plus full-batch steps on a (600, 9) design."""
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.normal(size=20)
    x, y, theta = rng.normal(size=(600, 9)), rng.normal(size=600), np.zeros(9)
    total = 0.0
    start = time.perf_counter()
    for _ in range(steps):
        for _ in range(20):
            v = np.asarray(small, dtype=np.float64) - 0.1
            total += float(np.maximum(v, 0.0) @ v)
        r = x @ theta - y
        theta -= 1e-4 * (x.T @ (np.maximum(r * r - 0.02, 0.0) * r))
    return time.perf_counter() - start


def poly_fit_reference(steps: int = 3000) -> float:
    """Seconds for full-batch steps of a degree-8 Chebyshev fit to 600 points,
    each re-expanding the basis, with a projected dual update."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(size=600))
    y = np.cos(2.0 * np.pi * x) + 0.1 * rng.normal(size=600)
    theta, lam = np.zeros(9), np.zeros(600)
    start = time.perf_counter()
    for _ in range(steps):
        t = 2.0 * x - 1.0
        basis = np.empty((600, 9))
        basis[:, 0], basis[:, 1] = 1.0, t
        for j in range(2, 9):
            basis[:, j] = 2.0 * t * basis[:, j - 1] - basis[:, j - 2]
        r = basis @ theta - y
        lam = np.maximum(lam + 0.1 * (r * r - 0.02 - lam), 0.0)
        theta = theta - 1e-3 * (basis.T @ (lam * 2.0 * r)) / 600.0
    return time.perf_counter() - start


class TwoMoonsFl:
    """P7 through trainers.train: fl on two moons with a (2,70,70,2) MLP, adamw,
    batch 512, 250 epochs. A job is one train call on a freshly generated dataset.

    P7 claims a final satisfied fraction of at least 0.95 for each of its five
    seeds, not for every seed: a drawn seed (2087607289) ended at 0.942. So the
    jobs cycle through P7's seeds, starting at an offset the workload seed sets.
    """

    name = "two_moons_fl"
    entry_module = "feaslearn"
    reference = staticmethod(mlp_reference)
    p7_seeds = (0, 1, 2, 3, 4)
    min_sat_fraction = 0.95

    def __init__(self, seed: int, workdir: str):
        from feaslearn import data, models, trainers
        self.seed = seed
        self.data, self.models, self.trainers = data, models, trainers

    def prepare(self, job: int):
        s = self.p7_seeds[(self.seed + job) % len(self.p7_seeds)]
        config = self.trainers.TrainerConfig(
            method="fl", eta_theta=5e-4, eta_lambda=1e-2, eps=-math.log(0.9), batch_size=512,
            epochs=250, primal_optimizer="adamw", seed=s)
        return SimpleNamespace(seeds=[s], dataset=self.data.gen_two_moons(1000, 0.1, s),
                               model=self.models.MLP((2, 70, 70, 2)), config=config)

    def run(self, job):
        return self.trainers.train(job.config, job.model, job.dataset)

    def check(self, job, record) -> dict:
        common = dict(digest=record_digest(record), train_s=record.wall_clock_s,
                      samples=job.config.epochs * job.dataset.n_samples)
        if record.status != "completed":
            return outcome(False, f"run {record.status}: {record.abort_reason}", **common)
        sat = record.trajectory[-1]["sat_fraction"]
        ok = sat >= self.min_sat_fraction
        return outcome(ok, None if ok else f"final sat_fraction {sat} < {self.min_sat_fraction}",
                       **common)

    def finish(self, records) -> dict:
        return {"ok": True, "reason": None}


# Files the README promises in every seed directory of a run.
RUN_DIR_FILES = ("config.json", "trajectory.csv", "final_losses_train.csv", "final_losses_test.csv",
                 "multipliers.csv", "checkpoint.bin", "checkpoint.bin.shape", "status.txt",
                 "meta.json")


class OutlierCli:
    """P8 through the CLI: `feaslearn run` on the outlier_regression erm and rfl
    templates (two seeds each), then `feaslearn compare` on each erm/rfl seed pair."""

    name = "outlier_cli"
    entry_module = "feaslearn.cli"
    reference = staticmethod(poly_fit_reference)
    methods = ("erm", "rfl")
    seeds_per_job = 2
    max_loss_ratio = 1.25

    def __init__(self, seed: int, workdir: str):
        from feaslearn import cli, trainers
        self.seed, self.workdir = seed, workdir
        self.cli, self.trainers = cli, trainers
        self.templates = cli.config_templates()

    def prepare(self, job: int):
        root = os.path.join(self.workdir, f"job_{job}")
        os.makedirs(root)
        seeds = [run_seed(self.seed, job, k) for k in range(self.seeds_per_job)]
        configs = {}
        for method in self.methods:
            config = dict(self.templates[f"outlier_regression_{method}"], seeds=seeds,
                          output_dir=method)
            configs[method] = os.path.join(root, f"{method}.json")
            with open(configs[method], "w") as fh:
                json.dump(config, fh)
        return SimpleNamespace(seeds=seeds, root=root, configs=configs)

    def _seed_dir(self, job, method, s):
        return os.path.join(job.root, method, f"seed_{s}")

    def run(self, job):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for method in self.methods:
                codes.append(self.cli.main(["run", job.configs[method], "--output-root", job.root]))
            for s in job.seeds:
                codes.append(self.cli.main(
                    ["compare", self._seed_dir(job, "erm", s), self._seed_dir(job, "rfl", s),
                     "--out", os.path.join(job.root, f"compare_{s}")]))
        return codes

    def check(self, job, codes) -> dict:
        try:
            return self._check(job, codes)
        finally:
            shutil.rmtree(job.root, ignore_errors=True)

    def _check(self, job, codes) -> dict:
        if any(code != 0 for code in codes):
            return outcome(False, f"exit codes {codes}")
        digest = hashlib.sha256()
        samples, train_s = 0, 0.0
        test_loss = {method: [] for method in self.methods}
        for method in self.methods:
            with open(os.path.join(job.root, method, "summary.json")) as fh:
                summary = json.load(fh)
            statuses = {k: v["status"] for k, v in summary["per_seed"].items()}
            if set(statuses.values()) != {"completed"}:
                return outcome(False, f"{method} seed statuses {statuses}")
            for s in job.seeds:
                seed_dir = self._seed_dir(job, method, s)
                absent = [f for f in RUN_DIR_FILES if not os.path.isfile(os.path.join(seed_dir, f))]
                if absent:
                    return outcome(False, f"{seed_dir} lacks {absent}")
                with open(os.path.join(seed_dir, "status.txt")) as fh:
                    if fh.read().strip() != "completed":
                        return outcome(False, f"{seed_dir}/status.txt is not 'completed'")
                run = self.trainers.load_run(seed_dir)
                with open(os.path.join(seed_dir, "trajectory.csv"), "rb") as fh:
                    digest.update(fh.read())
                samples += run.config["epochs"] * len(run.train_losses)
                train_s += run.meta["wall_clock_s"]
                test_loss[method].append(float(run.test_losses.mean()))
        for s in job.seeds:
            table = os.path.join(job.root, f"compare_{s}", "table.csv")
            if not os.path.isfile(table):
                return outcome(False, f"compare wrote no {table}")
        return outcome(True, digest=digest.hexdigest(), samples=samples, train_s=train_s,
                       test_mean_loss=test_loss)

    def finish(self, records) -> dict:
        """P8's mean test loss ratio, pooled over every seed the run trained.

        P8 states the ratio over five seeds; a single seed exceeds the bound
        about one time in ten, so one job's two seeds are too few to check it.
        """
        pooled = {method: [] for method in self.methods}
        for rec in records:
            for method, losses in rec.get("test_mean_loss", {}).items():
                pooled[method].extend(losses)
        if not pooled["erm"]:
            return {"ok": False, "reason": "no completed job to pool"}
        ratio = (sum(pooled["rfl"]) / len(pooled["rfl"])) / (sum(pooled["erm"]) / len(pooled["erm"]))
        ok = ratio <= self.max_loss_ratio
        return {"ok": ok, "reason": None if ok else f"rfl/erm mean test loss ratio {ratio} > "
                f"{self.max_loss_ratio}", "rfl_erm_test_loss_ratio": ratio,
                "seeds_pooled": len(pooled["erm"])}


class VerifyAll:
    """`feaslearn verify all`. Its oracles fix their own seeds, so every job has
    the same inputs whatever the workload seed."""

    name = "verify_all"
    entry_module = "feaslearn.cli"
    reference = staticmethod(small_array_reference)

    def __init__(self, seed: int, workdir: str):
        from feaslearn import cli
        self.cli, self.workdir = cli, workdir

    def prepare(self, job: int):
        return SimpleNamespace(seeds=[], report=os.path.join(self.workdir, f"verify_{job}.json"))

    def run(self, job):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["verify", "all", "--report", job.report])

    def check(self, job, code) -> dict:
        try:
            with open(job.report, "rb") as fh:
                blob = fh.read()
        finally:
            if os.path.exists(job.report):
                os.remove(job.report)
        passed = json.loads(blob)["passed"]
        ok = code == 0 and passed is True
        return outcome(ok, None if ok else f"exit code {code}, passed {passed}",
                       digest=hashlib.sha256(blob).hexdigest())

    def finish(self, records) -> dict:
        return {"ok": True, "reason": None}


WORKLOADS = {cls.name: cls for cls in (TwoMoonsFl, OutlierCli, VerifyAll)}
