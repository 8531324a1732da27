"""Config-driven experiment runner, comparison reports, and verification CLI.

Verbs:
  run <config.json>          train every seed, persist run dirs + summary.json
  compare <dirs...>          CDF/CVaR curves and a metrics table across runs
  verify {props,gradients,all}   run the verification oracles
  gen-config <template>      write a ready-to-edit experiment config

Exit codes: 0 success, 2 config error, 3 aborted run, 4 verification failure.
The FEASLEARN_OUTPUT_ROOT environment variable prefixes relative output
directories.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import errno
import json
import os
import shutil
import sys

import numpy as np

from . import data as dt
from . import feasibility as fs
from . import metrics as mt
from . import models as md
from . import oracle
from . import trainers as tr
from .errors import ConfigError, ParameterError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORTED = 3
EXIT_VERIFY = 4

OUTPUT_ROOT_ENV = "FEASLEARN_OUTPUT_ROOT"

# The fields of each config section with their defaults, by path ("" is the
# top level). An int, float, str or dict default admits only an integer, a
# number, a string or a JSON object. A dataset also has the fields of its
# generator, and a model those of its family.
CONFIG_DEFAULTS = {
    "": {"name": "experiment", "output_dir": "",  # "": runs/<name>
         "dataset": {}, "split": {}, "model": {"family": "linear"}, "trainer": {}, "metrics": {},
         "seeds": [0, 1, 2, 3, 4]},
    "split": {"test_fraction": 0.0, "seed": None},
    "metrics": {"quantiles": [0.9, 0.95, 0.99]},
    "dataset": {"seed": None, "outliers": {}},  # empty outliers: none
    "dataset.outliers": {"fraction": 0.05, "offset": 1.0, "placement": "random"},
}
# generator: (its function of its fields, in order, and the seed; its fields)
GENERATORS = {
    "two_moons": (dt.gen_two_moons, {"n": 1000, "noise": 0.1}),
    "noisy_cosine": (dt.gen_noisy_cosine, {"n": 20, "sigma": 0.2}),
    "conflicting_pairs": (dt.gen_conflicting_pairs, {"n_pairs": 8, "d": 2, "label_gap": 2.0}),
    "csv": (lambda path, task, seed: dt.load_dataset_csv(path, task),
            {"path": None, "task": dt.REGRESSION}),
}
# family: (its builder of the dataset and its fields, in order; its fields)
FAMILIES = {
    "linear": (lambda ds: md.LinearModel(ds.n_features), {}),
    "poly": (lambda ds, degree, basis, domain: md.PolyModel(degree, basis, domain),
             {"degree": 3, "basis": "chebyshev", "domain": None}),
    "mlp": (lambda ds, layers: md.MLP(tuple(layers), task=ds.task), {"layers": None}),
}
_KINDS = {int: (lambda v: tr.is_number(v, True), "an integer"), float: (tr.is_number, "a number"),
          str: (lambda v: isinstance(v, str), "a string"),
          dict: (lambda v: isinstance(v, dict), "a JSON object")}


def _fail(path: str, message: str):
    raise ConfigError(f"config field '{path}': {message}")


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError in the block into a ConfigError naming ``path``."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def _check_writable(path, walk_up: bool) -> None:
    """Raise the ConfigError of ``_writing``, creating nothing, unless the parent
    of ``path`` (with ``walk_up``, its nearest existing ancestor or ``path``
    itself) is a directory that this process may write to."""
    at = os.path.abspath(path) if walk_up else os.path.dirname(os.path.abspath(path))
    while walk_up and not os.path.exists(at):
        at = os.path.dirname(at)
    if os.path.isdir(at) and os.access(at, os.W_OK | os.X_OK):
        return
    code = errno.EACCES if os.path.isdir(at) else errno.ENOTDIR if os.path.exists(at) else errno.ENOENT
    with _writing(path):
        raise OSError(code, os.strerror(code))


def _section(given: dict, path: str, fields: dict) -> dict:
    """The config object ``given`` at ``path``, with the defaults of ``fields``
    filled in. A key that ``fields`` lacks, or a value of the wrong kind, is an
    error."""
    at = f"{path}." if path else ""
    unknown = sorted(set(given) - set(fields))
    if unknown:
        _fail(at + unknown[0], f"unknown {path or 'top-level'} field")
    out = {**copy.deepcopy(fields), **given}
    for key, default in fields.items():
        admits, kind = _KINDS.get(type(default), (None, None))
        if admits and not admits(out[key]):
            _fail(at + key, f"must be {kind}, got {out[key]!r}")
    return out


def load_config(source) -> dict:
    """Parse and validate an experiment config (path or dict), filling defaults."""
    if isinstance(source, dict):
        cfg = copy.deepcopy(source)
    elif not isinstance(source, (str, bytes, os.PathLike)):
        raise ConfigError(f"config must be a JSON object or a path to one, got {source!r}")
    else:
        try:
            with open(source) as fh:
                cfg = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "dataset" not in cfg:
        _fail("dataset", "required")
    cfg = _section(cfg, "", CONFIG_DEFAULTS[""])
    for path in ("split", "metrics"):
        cfg[path] = _section(cfg[path], path, CONFIG_DEFAULTS[path])
    gen = cfg["dataset"].get("generator")
    if gen not in GENERATORS:
        _fail("dataset.generator", f"unknown generator {gen!r}")
    fields = {"generator": gen, **CONFIG_DEFAULTS["dataset"], **GENERATORS[gen][1]}
    dataset = cfg["dataset"] = _section(cfg["dataset"], "dataset", fields)
    if dataset["outliers"]:
        dataset["outliers"] = _section(dataset["outliers"], "dataset.outliers",
                                       CONFIG_DEFAULTS["dataset.outliers"])
    else:
        del dataset["outliers"]  # echoed only when given
    family = cfg["model"].get("family")
    if family not in FAMILIES:
        _fail("model.family", f"unknown family {family!r}")
    model = cfg["model"] = _section(cfg["model"], "model", {"family": family, **FAMILIES[family][1]})

    trainer = cfg["trainer"]
    if "seed" in trainer:
        _fail("trainer.seed", "not allowed; the run seeds come from 'seeds'")
    # only the keys: TrainerConfig checks the values and fills the defaults
    _section(trainer, "trainer", dict.fromkeys(f.name for f in dataclasses.fields(tr.TrainerConfig)))
    if "method" not in trainer:
        _fail("trainer.method", "required")
    try:
        cfg["trainer"] = {k: v for k, v in tr.TrainerConfig(**trainer).echo().items() if k != "seed"}
    except ParameterError as err:
        _fail("trainer", str(err))
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds or any(not tr.is_number(s, True) or s < 0 for s in seeds):
        _fail("seeds", "must be a non-empty list of non-negative integers")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        _fail("seeds", f"repeated seeds {repeated}")
    quantiles = cfg["metrics"]["quantiles"]
    if not isinstance(quantiles, list) or any(not tr.is_number(q) or not 0.0 <= q < 1.0 for q in quantiles):
        _fail("metrics.quantiles", "must be a list of quantiles in [0, 1)")
    if not 0.0 <= cfg["split"]["test_fraction"] < 1.0:
        _fail("split.test_fraction", "must lie in [0, 1)")
    for path, seed in (("dataset.seed", dataset["seed"]), ("split.seed", cfg["split"]["seed"])):
        if seed is not None and not (tr.is_number(seed, True) and seed >= 0):
            _fail(path, "must be a non-negative integer or null")
    if gen == "csv" and not isinstance(dataset["path"], str):
        _fail("dataset.path", f"required for csv: a file path, got {dataset['path']!r}")
    domain = model.get("domain")
    if domain is not None and not (isinstance(domain, list) and len(domain) == 2
                                   and all(map(tr.is_number, domain))):
        _fail("model.domain", f"must be [lo, hi] or null, got {domain!r}")
    layers = model.get("layers")
    if family == "mlp" and not (isinstance(layers, list) and all(tr.is_number(w, True) for w in layers)):
        _fail("model.layers", f"required for mlp: a list of integer widths, got {layers!r}")
    cfg["output_dir"] = cfg["output_dir"] or os.path.join("runs", cfg["name"])
    return cfg


def build_dataset(cfg: dict, run_seed: int) -> tuple[dt.Dataset, dt.Dataset | None]:
    """Build the (train, test) pair a run sees. A null dataset/split seed
    follows the run seed so seeds resample the data; fixed seeds pin it."""
    dcfg, split = cfg["dataset"], cfg["split"]
    seed = run_seed if dcfg["seed"] is None else dcfg["seed"]
    make, fields = GENERATORS[dcfg["generator"]]
    try:
        full = make(*(dcfg[key] for key in fields), seed)
        if "outliers" in dcfg:
            full = dt.with_label_outliers(full, seed=seed, **dcfg["outliers"])
    except ParameterError as err:
        raise ConfigError(f"config field 'dataset': {err}")
    except (OSError, UnicodeDecodeError) as err:
        _fail("dataset.path", f"cannot read: {err}")
    if split["test_fraction"] == 0.0:
        return full, None
    try:
        return dt.split_train_test(full, split["test_fraction"],
                                   run_seed if split["seed"] is None else split["seed"])
    except ParameterError as err:
        _fail("split.test_fraction", str(err))


def build_model(cfg: dict, dataset: dt.Dataset) -> md.Model:
    mcfg = cfg["model"]
    make, fields = FAMILIES[mcfg["family"]]
    try:
        return make(dataset, *(mcfg[key] for key in fields))
    except ParameterError as err:
        raise ConfigError(f"config field 'model': {err}")


def _resolve_output_dir(cfg: dict, output_root: str | None) -> str:
    out = cfg["output_dir"]
    root = output_root or os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    return out


def _seed_metrics(cfg: dict, record: tr.RunRecord, model: md.Model,
                  train_ds: dt.Dataset, test_ds: dt.Dataset | None) -> dict:
    quantiles = cfg["metrics"]["quantiles"]
    eps = np.asarray(record.config["eps"], dtype=np.float64)
    out = {"status": record.status, "wall_clock_s": record.wall_clock_s}
    logits = {}
    for split, losses, ds in (("train", record.train_losses, train_ds),
                              ("test", record.test_losses, test_ds)):
        if losses is None:
            continue
        out[f"{split}_mean_loss"] = float(losses.mean())
        out[f"{split}_max_loss"] = float(losses.max())
        for q in quantiles:
            out[f"{split}_cvar_{q}"] = mt.cvar(losses, q)
        if ds is not None and ds.task == dt.CLASSIFICATION:
            logits[split] = model.forward(record.params.theta, ds.features)
            out[f"{split}_accuracy"] = float(np.mean(logits[split].argmax(axis=1) == ds.targets))
    if record.train_losses is not None:
        out["sat_fraction"] = float(np.mean(record.train_losses <= eps + fs.SAT_TOL))
    lam = record.multipliers
    out["lam_fraction_zero"] = float(np.mean(lam <= fs.ZERO_MULTIPLIER_TOL))
    out["lam_max"] = float(lam.max())
    if (train_ds.task == dt.CLASSIFICATION and record.config["method"] in (tr.FL, tr.RFL)
            and record.train_losses is not None):
        margins = md.classification_margins(logits["train"], train_ds.targets)
        rho, degenerate = mt.margin_multiplier_correlation(lam, margins)
        out["margin_multiplier_spearman"] = rho
        out["margin_corr_degenerate"] = degenerate
    return out


def _run_seed(cfg: dict, outdir: str, seed: int) -> dict:
    """Train one seed, write ``outdir/seed_<seed>/`` and return the seed's
    summary metrics."""
    train_ds, test_ds = build_dataset(cfg, seed)
    model = build_model(cfg, train_ds)
    try:
        tcfg = tr.TrainerConfig(seed=seed, **cfg["trainer"])
        record = tr.train(tcfg, model, train_ds, test_ds)
    except ParameterError as err:
        raise ConfigError(f"seed {seed}: {err}")
    record.config["experiment"] = {k: cfg[k] for k in ("name", "dataset", "split", "model", "metrics")}
    tr.save_run(record, os.path.join(outdir, f"seed_{seed}"))  # creates outdir too
    return _seed_metrics(cfg, record, model, train_ds, test_ds)


PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with_parent(parent_pid: int) -> None:
    """Pool worker initializer: on Linux, have the kernel kill this worker with
    SIGKILL as soon as the process that forked it is gone.

    Without it, a worker whose parent was killed alone (SIGKILL or SIGTERM to
    the parent's pid) trains on, writes a seed directory that no run will
    publish, and then blocks for good on the pool's call queue, which its
    siblings keep open. Elsewhere a worker is not tied to its parent.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:  # the parent was gone before the signal was armed
        os._exit(1)


def _run_seeds(cfg: dict, outdir: str) -> list[dict]:
    """``_run_seed`` of every seed of ``cfg``, in config order, staged in
    ``outdir/.partial-<pid>/`` and moved into ``outdir`` once every seed has
    succeeded, each replacing an earlier run's ``seed_<s>/``.

    More than one seed trains in a pool of ``min(len(seeds), os.cpu_count())``
    forked processes, which die with this one on Linux (see
    ``_die_with_parent``). Where fork is not available, in a daemonic process
    (which may start no process), or with one worker, the seeds run here, one
    after another. When a seed raises, the seeds not yet started are dropped,
    the started ones end, and the error of the first failing seed in config
    order is raised with ``outdir`` as it was.
    """
    import concurrent.futures
    import multiprocessing

    seeds = cfg["seeds"]
    made_outdir = not os.path.isdir(outdir)
    staging = os.path.join(outdir, f".partial-{os.getpid()}")
    workers = min(len(seeds), os.cpu_count() or 1)
    try:
        with _writing(outdir):
            if (workers > 1 and "fork" in multiprocessing.get_all_start_methods()
                    and not multiprocessing.current_process().daemon):
                with concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                        initializer=_die_with_parent, initargs=(os.getpid(),)) as pool:
                    futures = [pool.submit(_run_seed, cfg, staging, seed) for seed in seeds]
                    concurrent.futures.wait(futures, return_when=concurrent.futures.FIRST_EXCEPTION)
                    for future in futures:
                        future.cancel()  # fails, harmlessly, on started seeds
                # seeds start in config order, so none before a failing one was cancelled
                per_seed = [future.result() for future in futures]
            else:
                per_seed = [_run_seed(cfg, staging, seed) for seed in seeds]
            for seed in seeds:  # each rename is atomic, so no seed_<s>/ is ever half there
                staged = os.path.join(staging, f"seed_{seed}")
                published = os.path.join(outdir, f"seed_{seed}")
                if os.path.lexists(published):  # an earlier run's, removed with the staging directory
                    os.rename(published, staged + ".earlier")
                os.rename(staged, published)
            shutil.rmtree(staging)
    except BaseException:
        shutil.rmtree(outdir if made_outdir else staging, ignore_errors=True)
        raise
    return per_seed


def run_experiment(config, output_root: str | None = None) -> dict:
    """Train every seed of an experiment and persist artifacts.

    Returns the aggregate summary (also written to summary.json in the
    experiment output directory). Aborted runs keep their partial artifacts
    and are flagged in the summary. Each seed's files are byte-identical to
    those of the seed run alone, apart from the wall-clock values in
    ``meta.json``. An error on any seed raises the error of the first failing
    seed in config order and leaves the output directory as it was.
    """
    cfg = load_config(config)
    outdir = _resolve_output_dir(cfg, output_root)
    _check_writable(outdir, walk_up=True)
    per_seed = {str(seed): metrics for seed, metrics in zip(cfg["seeds"], _run_seeds(cfg, outdir))}

    scalar_keys = sorted({k for m in per_seed.values() for k, v in m.items()
                          if isinstance(v, (int, float)) and not isinstance(v, bool)})
    aggregate = {}
    for key in scalar_keys:
        values = [m[key] for m in per_seed.values() if key in m]
        aggregate[key] = {"mean": float(np.mean(values)), "std": float(np.std(values)),
                          "n": len(values)}
    summary = {
        "name": cfg["name"],
        "config": cfg,
        "per_seed": per_seed,
        "aggregate": aggregate,
        "any_aborted": any(m["status"] != "completed" for m in per_seed.values()),
        "output_dir": outdir,
    }
    tr.write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def _svg_polyline_chart(path, series, title, xlabel, ylabel) -> None:
    """Dependency-free SVG line chart; CSV remains the canonical output."""
    width, height, pad = 640, 420, 56
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
             f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
             f'<text x="16" y="{height / 2}" font-size="12" transform="rotate(-90 16 {height / 2})" '
             f'text-anchor="middle">{ylabel}</text>',
             f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{x_lo:.4g}</text>',
             f'<text x="{width - pad}" y="{height - pad + 16}" font-size="10" text-anchor="end">{x_hi:.4g}</text>',
             f'<text x="{pad - 4}" y="{height - pad}" font-size="10" text-anchor="end">{y_lo:.4g}</text>',
             f'<text x="{pad - 4}" y="{pad + 4}" font-size="10" text-anchor="end">{y_hi:.4g}</text>']
    for i, (label, xs, ys) in enumerate(series):
        color = palette[i % len(palette)]
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(f'<text x="{width - pad - 4}" y="{pad + 14 + 16 * i}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_curve_csv(path, xs, ys) -> None:
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in zip(xs, ys):
            fh.write(f"{repr(float(x))},{repr(float(y))}\n")


def compare(run_dirs, quantiles=None, out_dir="comparison", svg: bool = False) -> dict:
    """Pool runs by method and emit CDF/CVaR curves plus a summary table.

    All runs must carry identical dataset signatures; mixing runs trained on
    different data is refused.
    """
    if not run_dirs:
        raise ConfigError("compare needs at least one run directory")
    quantiles = sorted(quantiles if quantiles is not None else
                       [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99])
    runs = []
    for d in run_dirs:
        try:
            run = tr.load_run(d)
        except (OSError, ValueError) as err:  # missing, unreadable or corrupt files
            raise ConfigError(f"cannot read run directory {d}: {err}")
        run.trajectory = run.trajectory[-1:]  # the report reads only the last epoch
        runs.append(run)
    signatures = [json.dumps(r.config.get("dataset_signature"), sort_keys=True) for r in runs]
    if any(s == "null" for s in signatures):
        raise ConfigError("run directories lack dataset signatures; re-run training to compare")
    if len(set(signatures)) > 1:
        raise ConfigError(f"dataset signatures differ across runs: {sorted(set(signatures))}")

    groups: dict[str, list] = {}
    for run in runs:
        label = run.config["method"]
        if run.config["method"] in (tr.RFL, tr.CSERM):
            label = f"{label}_alpha{run.config['alpha']}"
        groups.setdefault(label, []).append(run)

    table = []
    curves: dict[str, dict] = {}
    for label, members in sorted(groups.items()):
        for split in ("train", "test"):
            done = [m for m in members if getattr(m, f"{split}_losses") is not None]
            if not done:
                continue
            pooled = np.concatenate([getattr(m, f"{split}_losses") for m in done])
            cdf_pts = mt.empirical_cdf(pooled)
            cvar_pts = [(q, mt.cvar(pooled, q)) for q in quantiles]
            curves.setdefault(split, {})[label] = {"cdf": cdf_pts, "cvar": cvar_pts}
            means = [float(getattr(m, f"{split}_losses").mean()) for m in done]
            maxes = [float(getattr(m, f"{split}_losses").max()) for m in done]
            accs = [m.trajectory[-1][f"{split}_accuracy"] for m in done
                    if m.trajectory and np.isfinite(m.trajectory[-1][f"{split}_accuracy"])]
            row = {"method": label, "split": split, "n_runs": len(done),
                   "mean_loss": float(np.mean(means)), "mean_loss_std": float(np.std(means)),
                   "max_loss": float(np.mean(maxes)), "max_loss_std": float(np.std(maxes))}
            if accs:
                row["accuracy"] = float(np.mean(accs))
                row["accuracy_std"] = float(np.std(accs))
            table.append(row)

    # Everything is computed, so a bad quantile has raised before anything is written.
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    for split, by_label in curves.items():
        for label, c in by_label.items():
            for kind in ("cdf", "cvar"):
                _write_curve_csv(os.path.join(out_dir, f"{kind}_{label}_{split}.csv"),
                                 [p[0] for p in c[kind]], [p[1] for p in c[kind]])
    with open(os.path.join(out_dir, "table.csv"), "w") as fh:
        cols = ["method", "split", "n_runs", "mean_loss", "mean_loss_std",
                "max_loss", "max_loss_std", "accuracy", "accuracy_std"]
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    report = {"quantiles": quantiles, "table": table, "out_dir": out_dir,
              "methods": sorted(groups), "n_runs": len(runs)}
    tr.write_json(os.path.join(out_dir, "comparison.json"), report)
    if svg:
        for split, by_label in curves.items():
            for kind in ("cdf", "cvar"):
                series = [(label, [p[0] for p in c[kind]], [p[1] for p in c[kind]])
                          for label, c in sorted(by_label.items())]
                _svg_polyline_chart(os.path.join(out_dir, f"{kind}_{split}.svg"), series,
                                    f"{kind.upper()} ({split})",
                                    "loss" if kind == "cdf" else "quantile",
                                    "fraction" if kind == "cdf" else "tail mean loss")
    return report


def verify(suite: str = "all", report_path: str | None = None) -> dict:
    """Run the verification oracles; used as the trust gate for the trainer."""
    if suite not in ("props", "gradients", "all"):
        raise ConfigError("suite must be props, gradients, or all")
    if report_path:
        _check_writable(report_path, walk_up=False)
    checks = []
    if suite in ("props", "all"):
        checks += [oracle.check_cserm_identity(), oracle.slack_elimination_suite()]
    if suite in ("gradients", "all"):
        checks.append(oracle.gradient_check_report())
    report = {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}
    if report_path:
        with _writing(report_path):
            tr.write_json(report_path, report)
    return report


def config_templates() -> dict:
    """The shipped experiments: four datasets and models, each trained by two methods."""
    ln9 = 0.10536051565782628  # -ln(0.9): demands 90% true-class probability
    moons = {"dataset": {"generator": "two_moons", "n": 1250, "noise": 0.1, "seed": None},
             "split": {"test_fraction": 0.2, "seed": None},
             "model": {"family": "mlp", "layers": [2, 70, 70, 2]}}
    cosine = {"dataset": {"generator": "noisy_cosine", "n": 20, "sigma": 0.2, "seed": None},
              "model": {"family": "poly", "degree": 20, "basis": "chebyshev", "domain": [0.0, 1.0]}}
    pairs = {"dataset": {"generator": "conflicting_pairs", "n_pairs": 8, "d": 2,
                         "label_gap": 2.0, "seed": 0},
             "model": {"family": "linear"}}
    outliers = {"dataset": {"generator": "noisy_cosine", "n": 900, "sigma": 0.1, "seed": None,
                            "outliers": {"fraction": 0.05, "offset": 1.2, "placement": "upper_window"}},
                "split": {"test_fraction": 0.333, "seed": None},
                "model": {"family": "poly", "degree": 8, "basis": "chebyshev", "domain": [0.0, 1.0]}}
    five = [0, 1, 2, 3, 4]
    experiments = {  # name: (base, trainer, seeds)
        "two_moons_fl": (moons, {"method": "fl", "eta_theta": 5e-4, "eta_lambda": 1e-2, "eps": ln9,
                                 "batch_size": 512, "epochs": 250, "primal_optimizer": "adamw"}, five),
        "two_moons_erm": (moons, {"method": "erm", "eta_theta": 5e-4, "batch_size": 512,
                                  "epochs": 250, "primal_optimizer": "adamw"}, five),
        "noisy_cosine_fl": (cosine, {"method": "fl", "eta_theta": 5e-3, "eta_lambda": 0.5, "eps": 0.2,
                                     "epochs": 3000, "primal_optimizer": "sgd"}, five),
        "noisy_cosine_erm": (cosine, {"method": "erm", "eta_theta": 0.3, "epochs": 3000,
                                      "primal_optimizer": "sgd"}, five),
        "conflicting_pairs_fl": (pairs, {"method": "fl", "eta_theta": 1e-4, "eta_lambda": 1e-2,
                                         "eps": 0.0, "epochs": 5000, "primal_optimizer": "sgd"}, [0]),
        "conflicting_pairs_rfl": (pairs, {"method": "rfl", "alpha": 1.0, "eta_theta": 1e-4,
                                          "eta_lambda": 1e-2, "eps": 0.0, "epochs": 5000,
                                          "primal_optimizer": "sgd"}, [0]),
        "outlier_regression_erm": (outliers, {"method": "erm", "eta_theta": 1e-2, "epochs": 2000,
                                              "primal_optimizer": "adamw"}, five),
        "outlier_regression_rfl": (outliers, {"method": "rfl", "alpha": 1.0, "eta_theta": 1e-2,
                                              "eta_lambda": 0.1, "eps": 0.02, "epochs": 2000,
                                              "primal_optimizer": "adamw"}, five),
    }
    return {name: copy.deepcopy({"name": name, **base, "trainer": trainer, "seeds": seeds})
            for name, (base, trainer, seeds) in experiments.items()}


def gen_config(template: str, out_path: str | None = None) -> str:
    templates = config_templates()
    if template not in templates:
        raise ConfigError(f"unknown template {template!r}; available: {sorted(templates)}")
    path = out_path or f"{template}.json"
    with _writing(path), open(path, "w") as fh:
        json.dump(templates[template], fh, indent=2)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="feaslearn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config across its seeds")
    p_run.add_argument("config")
    p_run.add_argument("--output-root", default=None,
                       help=f"prefix for relative output dirs (or ${OUTPUT_ROOT_ENV})")

    p_cmp = sub.add_parser("compare", help="compare persisted runs")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--quantiles", type=float, nargs="+", default=None)
    p_cmp.add_argument("--out", default="comparison")
    p_cmp.add_argument("--svg", action="store_true", help="also render SVG charts")

    p_ver = sub.add_parser("verify", help="run verification oracles")
    p_ver.add_argument("suite", choices=["props", "gradients", "all"])
    p_ver.add_argument("--report", default=None, help="write the JSON report here")

    p_gen = sub.add_parser("gen-config", help="write a config template")
    p_gen.add_argument("template")
    p_gen.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary = run_experiment(args.config, output_root=args.output_root)
            agg = summary["aggregate"]
            print(f"experiment {summary['name']}: {len(summary['per_seed'])} seeds "
                  f"-> {summary['output_dir']}")
            for key in sorted(agg):
                print(f"  {key}: {agg[key]['mean']:.6g} +- {agg[key]['std']:.3g}")
            if summary["any_aborted"]:
                print("at least one run aborted; partial artifacts retained", file=sys.stderr)
                return EXIT_ABORTED
            return EXIT_OK
        if args.command == "compare":
            report = compare(args.run_dirs, quantiles=args.quantiles,
                             out_dir=args.out, svg=args.svg)
            for row in report["table"]:
                acc = f" acc={row['accuracy']:.3f}" if "accuracy" in row else ""
                print(f"{row['method']:24s} {row['split']:5s} mean={row['mean_loss']:.6g} "
                      f"max={row['max_loss']:.6g}{acc}")
            print(f"curves written to {report['out_dir']}")
            return EXIT_OK
        if args.command == "verify":
            report = verify(args.suite, report_path=args.report)
            print(json.dumps(report, indent=2, sort_keys=True, default=str))
            return EXIT_OK if report["passed"] else EXIT_VERIFY
        if args.command == "gen-config":
            path = gen_config(args.template, args.out)
            print(f"wrote {path}")
            return EXIT_OK
    except (ConfigError, ParameterError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
