"""Workload set-up, timed fits and correctness checks for the training benchmark.

A run drives the library the way `tailssl train` does: load the workload's
run config, load a dataset CSV, build the TrainConfig, call `trainer.fit`.
The CSV is generated from the run seed before anything is timed.

Every run first trains once on the reference inputs (data seed
REFERENCE_SEED). That fit warms the process up, checks its epoch-log
fingerprint against the one recorded in reference.json, and gives the quality
metrics. Then it trains on the run seed's inputs, one fit after another, for
the measured window. Run seed s owns the data seeds s*DATASETS_PER_RUN + j;
the fits cycle through them, so a run's timing is a median over several
datasets and not the speed of one dataset's pseudo-label trajectory.
"""

import ctypes
import dataclasses
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np

from tailssl import config as cfgmod
from tailssl.cli import build_report
from tailssl.data import generate_dataset, load_dataset, save_dataset
from tailssl.trainer import fit

from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("bmb-default", "fixmatch-default", "bmb-churn")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEED = 0
DATASETS_PER_RUN = 4
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10

# The epoch-record fields the fingerprint covers. A field added to the record
# later (timings, say) must not change the fingerprint of unchanged arithmetic.
FINGERPRINT_KEYS = (
    "epoch",
    "acc",
    "avg_class_recall",
    "group_acc",
    "bank_entropy",
    "mask_rate",
    "per_class_recall",
    "confusion",
    "loss_total_mean",
    "enqueue_accept_rate",
    "bank_counts",
    "estimated_counts",
    "estimation_error",
)


def load_run_config(workload: str) -> dict:
    # Environment overrides are off so that TAILSSL_* variables cannot change a workload.
    path = os.path.join(BENCH_DIR, "workloads", f"{workload}.json")
    return cfgmod.load_run_config(path, use_env=False)


def data_seeds(seed: int) -> list[int]:
    return [seed * DATASETS_PER_RUN + j for j in range(DATASETS_PER_RUN)]


def write_dataset(workload: str, data_seed: int, workdir: str) -> tuple[str, str]:
    """Write a dataset CSV and oracle sidecar; returns their paths.

    The sample seed is the config's sample_seed plus data_seed, so data seed
    0 reproduces the dataset of configs/benchmark.json.
    """
    spec = cfgmod.build_dataset_spec(load_run_config(workload))
    spec = dataclasses.replace(spec, sample_seed=spec.sample_seed + data_seed)
    csv_path = os.path.join(workdir, f"{workload}-{data_seed}.csv")
    oracle_path = os.path.join(workdir, f"{workload}-{data_seed}.oracle.csv")
    save_dataset(generate_dataset(spec), csv_path, oracle_path)
    return csv_path, oracle_path


def set_up(workload: str, csv_path: str, oracle_path: str, seed: int):
    """Config load + validation, CSV load, TrainConfig build; returns (data, cfg, phase seconds)."""
    t0 = perf_counter()
    cfg = load_run_config(workload)
    t1 = perf_counter()
    data = load_dataset(csv_path, oracle_path, num_classes=cfg["dataset"]["num_classes"])
    t2 = perf_counter()
    train_cfg = cfgmod.build_train_config(cfg, seed)
    t3 = perf_counter()
    phases = {"config.load_s": t1 - t0, "data.load_dataset_s": t2 - t1, "setup_s": t3 - t0}
    return data, train_cfg, phases


def fingerprint(log: list[dict]) -> str:
    rows = [{key: record.get(key) for key in FINGERPRINT_KEYS} for record in log]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_log(log: list[dict], cfg) -> list[str]:
    """Problems with a finished fit: missing epochs, non-finite loss, bank over capacity."""
    problems = []
    if len(log) != cfg.epochs:
        problems.append(f"{len(log)} epoch records for {cfg.epochs} epochs")
    for record in log:
        if not math.isfinite(record["loss_total_mean"]):
            problems.append(f"epoch {record['epoch']}: non-finite loss")
        if sum(record["bank_counts"]) > cfg.memory_capacity:
            problems.append(f"epoch {record['epoch']}: bank holds more than its capacity")
    return problems


class EpochTimer:
    """fit callback: wall time of each epoch, training plus its evaluation."""

    def __init__(self):
        self.epoch_ms: list[float] = []
        self._last = perf_counter()

    def __call__(self, state, record) -> None:
        now = perf_counter()
        self.epoch_ms.append((now - self._last) * 1e3)
        self._last = now


@dataclasses.dataclass
class FitResult:
    seconds: float
    epoch_ms: list[float]
    log: list[dict]
    fingerprint: str | None
    problems: list[str]


def run_fit(data, cfg, tracer: Tracer | None = None) -> FitResult:
    """One training run. A fit that raises is reported as a problem, not propagated."""
    timer = EpochTimer()
    callbacks = [timer] if tracer is None else [timer, tracer.on_epoch]
    start = perf_counter()
    try:
        _, log = fit(data, cfg, callbacks=callbacks)
    except Exception as exc:  # any failure of the program is a failed operation
        seconds = perf_counter() - start
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return FitResult(seconds, timer.epoch_ms, [], None, [f"fit raised {detail}"])
    seconds = perf_counter() - start
    return FitResult(seconds, timer.epoch_ms, log, fingerprint(log), check_log(log, cfg))


def timed_fits(inputs: list, seconds: float, expected: dict[int, str], tracer=None, between=None):
    """Fit until the next fit would end after `seconds`; at least one fit.

    Fit i trains on inputs[i % len(inputs)], a (data, cfg) pair, and must
    reproduce expected[i % len(inputs)], which the first fit of each input
    sets when absent. `between`, if given, is called after every fit, inside
    the window. Returns the fit results and, when traced, one summary per fit.
    """
    results, summaries = [], []
    deadline = perf_counter() + seconds
    while True:
        index = len(results) % len(inputs)
        data, cfg = inputs[index]
        if tracer is None:
            result = run_fit(data, cfg)
        else:
            tracer.reset()
            result = run_fit(data, cfg, tracer)
            summaries.append(tracer.summary())
        want = expected.setdefault(index, result.fingerprint)
        if result.fingerprint is not None and result.fingerprint != want:
            result.problems.append(f"fit {len(results)}: fingerprint differs from the same inputs' first fit")
        results.append(result)
        if between is not None:
            between()
        typical = statistics.median(r.seconds for r in results)
        if perf_counter() + typical > deadline:
            return results, summaries


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_MIN_BEYOND values above it (nearest rank).

    Returns (percentile, value, number of values beyond it).
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1], n - rank


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def declared_metrics(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def openblas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded; None if unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail line)."""
    env = environment()
    # per-layer figures come from the first dataset alone, so their counts repeat exactly
    seeds = data_seeds(seed)[: 1 if trace else None]
    paths = {k: write_dataset(workload, k, workdir) for k in seeds}
    phases = []

    def set_up_once(k):
        data, train_cfg, times = set_up(workload, *paths[k], k)
        phases.append(times)
        return data, train_cfg

    # set-ups before the fits, then one after each timed fit, so that the
    # set-up median spans the whole run and not only its first second
    for _ in range(SETUP_REPEATS - len(seeds)):
        set_up_once(seeds[0])
    inputs = [set_up_once(k) for k in seeds]
    cycle = itertools.cycle(seeds)

    def between():
        set_up_once(next(cycle))

    if REFERENCE_SEED not in paths:
        paths[REFERENCE_SEED] = write_dataset(workload, REFERENCE_SEED, workdir)
    ref_data, ref_cfg, _ = set_up(workload, *paths[REFERENCE_SEED], REFERENCE_SEED)
    reference = load_reference()["fingerprints"][workload]
    ref = run_fit(ref_data, ref_cfg)
    if ref.fingerprint is not None and ref.fingerprint != reference:
        ref.problems.append(f"reference fingerprint {ref.fingerprint} != recorded {reference}")
    if not ref.log:
        raise RuntimeError(f"{workload}: reference fit failed: {ref.problems}")

    expected = {seeds.index(REFERENCE_SEED): reference} if REFERENCE_SEED in seeds else {}
    traced, summaries = [], []
    if trace:
        plain, _ = timed_fits(inputs, seconds / 2, expected, between=between)
        tracer = Tracer()
        with tracer.installed():
            traced, summaries = timed_fits(inputs, seconds / 2, dict(expected), tracer, between)
    else:
        plain, _ = timed_fits(inputs, seconds, expected, between=between)

    fits = [ref] + plain + traced
    failed = sum(1 for r in fits if r.problems)
    ok_plain = [r for r in plain if not r.problems]
    if not ok_plain:
        raise RuntimeError(f"{workload}: no timed fit succeeded: {plain[0].problems}")

    values: dict[str, float] = {}
    detail = {"workload": workload, "seed": seed, "environment": env}
    if trace:
        ok_traced = [s for r, s in zip(traced, summaries) if not r.problems] or summaries
        for key in ok_traced[0]:
            values[key] = _median_of(ok_traced, key)
        values["config.load_s"] = _median_of(phases, "config.load_s")
        values["data.load_dataset_s"] = _median_of(phases, "data.load_dataset_s")
        log = ok_plain[0].log
        values["trainer.mask_rate"] = float(np.mean([r["mask_rate"] for r in log]))
        values["membank.bank_entropy"] = log[-1]["bank_entropy"] or 0.0
        values["trace.overhead_ratio"] = statistics.median(r.seconds for r in traced) / (
            statistics.median(r.seconds for r in plain))
        detail["fits"] = {"untraced": len(plain), "traced": len(traced)}
    else:
        steps = ref_cfg.epochs * ref_cfg.iters_per_epoch
        epoch_ms = [ms for r in ok_plain for ms in r.epoch_ms]
        pct, tail, beyond = tail_percentile(epoch_ms)
        # the median epoch of the run's mean fit: a mean over fits moves in
        # proportion to the share of the run the machine spent slow, where a
        # median over all epochs jumps between its fast and slow clusters
        mean_fit = [statistics.fmean(column) for column in zip(*(r.epoch_ms for r in ok_plain))]
        headline = build_report(workload, REFERENCE_SEED, "", "", ref_cfg.mode, ref.log)["last20_mean"]
        values.update({
            "steps_per_s": steps * len(ok_plain) / sum(r.seconds for r in ok_plain),
            "epoch_ms_p50": statistics.median(mean_fit),
            "epoch_ms_tail": tail,
            "setup_s": _median_of(phases, "setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "top1": headline["top1"],
            "few_recall": headline["group_acc"]["few"],
            "avg_class_recall": headline["avg_class_recall"],
        })
        detail["fits"] = len(plain)
        detail["epoch_ms_tail"] = {"percentile": pct, "epochs": len(epoch_ms), "beyond": beyond}
    detail["setups"] = len(phases)
    detail["fingerprints"] = {seeds[i]: fp for i, fp in sorted(expected.items())}
    detail["reference_fingerprint"] = ref.fingerprint
    detail["problems"] = sorted({p for r in fits for p in r.problems})
    detail["environment"]["loadavg_end"] = list(os.getloadavg())

    declared = declared_metrics("per_layer" if trace else "end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": len(fits), "failed": failed, "metrics": metrics}
    return result, detail
