"""Span tracer for the benchmark's traced run.

The tracer wraps feaslearn's calls from outside the package: it replaces a
function wherever a feaslearn module holds it as an attribute, since callers
such as ``trainers`` import some functions by name. Every call made while a
job runs becomes one span (name, start, end, parent span, job id) kept in
memory; :func:`layer_summary` reduces the spans to calls and self time per
name once the run is over.

A target that a refactor removed is skipped with a warning, so its metric is
absent instead of the run crashing.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import inspect
import sys
import warnings
from collections import defaultdict
from time import perf_counter

PACKAGE = "feaslearn"
JOB_SPAN = "bench.job"
TRAIN_SPAN = "trainers.train"
EVAL_SPAN = "trainers.eval"
# One training step consumes one batch from this generator.
STEP_SPAN = "data.batch_iter"

# (module, attribute, span name) of the module-level functions to wrap.
FUNCTION_TARGETS = (
    ("feaslearn.data", "poly_features", "data.poly_features"),
    ("feaslearn.data", "batch_iter", STEP_SPAN),
    ("feaslearn.models", "per_sample_loss", "models.per_sample_loss"),
    ("feaslearn.models", "loss_grad", "models.loss_grad"),
    ("feaslearn.feasibility", "dual_step_rfl", "feasibility.dual_step"),
    ("feaslearn.feasibility", "violations", "feasibility.violations"),
    ("feaslearn.trainers", "train", TRAIN_SPAN),
    ("feaslearn.trainers", "_eval_split", EVAL_SPAN),
    ("feaslearn.trainers", "save_run", "trainers.save_run"),
    ("feaslearn.trainers", "load_run", "trainers.load_run"),
    ("feaslearn.cli", "main", "cli.main"),
    ("feaslearn.cli", "run_experiment", "cli.run_experiment"),
    ("feaslearn.cli", "compare", "cli.compare"),
    ("feaslearn.cli", "verify", "cli.verify"),
    ("feaslearn.oracle", "check_cserm_identity", "oracle.check_cserm_identity"),
    ("feaslearn.oracle", "slack_elimination_suite", "oracle.slack_elimination_suite"),
    ("feaslearn.oracle", "gradient_check_report", "oracle.gradient_check_report"),
)
# Methods wrapped on every models.Model subclass that defines them itself.
MODELS_MODULE = "feaslearn.models"
MODEL_METHODS = ("forward_cache", "backward")
# Every public function of this module is wrapped as "metrics.<name>".
METRICS_MODULE = "feaslearn.metrics"
OPTIMIZER_FACTORY = ("feaslearn.trainers", "_make_optimizer", "trainers.optimizer_step")


class Tracer:
    """Records spans in memory; ``install`` wraps the feaslearn targets."""

    def __init__(self):
        self.spans: list = []
        self.yields: dict = defaultdict(int)
        self.job = None
        self.enabled = True
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; a direct re-entry under the same name adds none."""
        stack = self._stack
        if not self.enabled or (stack and stack[-1][1] == name):
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append((idx, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, next, it)
                    except StopIteration:
                        return
                    if self.enabled:
                        self.yields[name] += 1
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, original, replacement):
        """Point every feaslearn module attribute holding ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def _warn_missing(self, name, detail):
        self.missing.append(name)
        warnings.warn(f"trace target {name} not found ({detail}); its metrics are absent",
                      stacklevel=3)

    def _module(self, module_name):
        try:
            return importlib.import_module(module_name)
        except ImportError:
            return None

    def patch_function(self, module_name, attr, name):
        module = self._module(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self._warn_missing(name, f"{module_name}.{attr}")
            return
        self.replace(original, self.wrap(original, name))

    def patch_model_methods(self):
        module_name = MODELS_MODULE
        module = self._module(module_name)
        base = getattr(module, "Model", None) if module is not None else None
        classes, todo = [], list(base.__subclasses__()) if base is not None else []
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for method in MODEL_METHODS:
            name = f"models.{method}"
            owners = [cls for cls in classes if method in vars(cls)]
            if not owners:
                self._warn_missing(name, f"no {module_name}.Model subclass defines {method}")
            for cls in owners:
                self._set(cls, method, self.wrap(vars(cls)[method], name))

    def patch_metrics(self):
        module = self._module(METRICS_MODULE)
        if module is None:
            self._warn_missing("metrics.*", METRICS_MODULE)
            return
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not attr.startswith("_"):
                self.replace(fn, self.wrap(fn, f"metrics.{attr}"))

    def patch_optimizer(self):
        module_name, attr, name = OPTIMIZER_FACTORY
        module = self._module(module_name)
        factory = getattr(module, attr, None) if module is not None else None
        if not callable(factory):
            self._warn_missing(name, f"{module_name}.{attr}")
            return

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            optimizer = factory(*args, **kwargs)
            optimizer.step = self.wrap(optimizer.step, name)
            return optimizer
        self.replace(factory, traced_factory)

    def install(self):
        for target in FUNCTION_TARGETS:
            self.patch_function(*target)
        self.patch_model_methods()
        self.patch_metrics()
        self.patch_optimizer()

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path):
        """Write every span as one row of a gzipped CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "job"])
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent,
                                 "" if job is None else job])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_summary(spans, steps: int) -> dict:
    """Per span name: calls, self seconds, and calls made inside training steps.

    Only spans inside a job count. A call is inside a step when its nearest
    enclosing train-or-eval span is trainers.train; ``per_step`` divides those
    calls by the number of steps (0 when the workload trains nothing).
    """
    selfs = self_times(spans)
    context: list[str | None] = []
    totals: dict[str, dict] = {}
    job_wall, jobs = 0.0, set()
    for i, (name, start, end, parent, job) in enumerate(spans):
        enclosing = context[parent] if parent >= 0 else None
        context.append("train" if name == TRAIN_SPAN else "eval" if name == EVAL_SPAN else enclosing)
        if job is None:
            continue
        if name == JOB_SPAN:
            job_wall += end - start
            jobs.add(job)
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "step_calls": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["step_calls"] += enclosing == "train"
    for entry in totals.values():
        entry["per_step"] = entry["step_calls"] / steps if steps else 0.0
    return {"jobs": len(jobs), "job_wall_s": job_wall, "steps": steps, "names": totals}
