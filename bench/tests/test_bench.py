"""Self-tests of the training benchmark: tracing must not change training, and
the per-layer counts must agree with what the epoch log implies.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import pytest

import harness
from tracing import ROOT_NAMES, SPAN_NAMES, Tracer

EPOCHS, ITERS = 8, 20


@pytest.fixture(scope="module", params=harness.WORKLOADS)
def traced(request, tmp_path_factory):
    workload = request.param
    workdir = str(tmp_path_factory.mktemp(workload))
    paths = harness.write_dataset(workload, 1, workdir)
    data, cfg, _ = harness.set_up(workload, *paths, 1)
    cfg = dataclasses.replace(cfg, epochs=EPOCHS, iters_per_epoch=ITERS)
    plain = harness.run_fit(data, cfg)
    tracer = Tracer()
    with tracer.installed():
        result = harness.run_fit(data, cfg, tracer)
    return cfg, plain, result, tracer


def test_traced_fingerprint_equals_untraced(traced):
    _, plain, result, _ = traced
    assert plain.problems == [] and result.problems == []
    assert result.fingerprint == plain.fingerprint


def test_step_calls_equal_epochs_times_iters(traced):
    cfg, _, _, tracer = traced
    assert tracer.calls["trainer.step"] == cfg.epochs * cfg.iters_per_epoch
    assert tracer.calls["metrics.eval"] == cfg.epochs


def test_enqueue_calls_match_the_log(traced):
    cfg, _, result, tracer = traced
    confident = sum(
        round(r["mask_rate"] * cfg.iters_per_epoch * cfg.batch_size)
        for r in result.log
        if r["epoch"] >= cfg.warmup_epochs
    )
    views = 2 if cfg.memory_content == "both" else 1
    if cfg.mode == "bmb":
        assert confident > 0
        assert tracer.calls["estimator.record"] == confident
        assert tracer.calls["membank.enqueue"] == confident * views
    else:
        assert tracer.calls["membank.enqueue"] == 0


def test_fixmatch_never_calls_bank_estimator_or_weighting(traced):
    cfg, _, _, tracer = traced
    if cfg.mode != "fixmatch":
        pytest.skip("fixmatch workload only")
    layers = ("membank.", "estimator.", "weighting.")
    assert {n: c for n, c in tracer.calls.items() if n.startswith(layers) and c} == {}


def test_no_membank_calls_during_warmup(traced):
    cfg, _, _, tracer = traced
    after_warmup = tracer.epoch_calls[cfg.warmup_epochs - 1]
    assert sum(c for n, c in after_warmup.items() if n.startswith("membank.")) == 0
    if cfg.mode == "bmb":
        assert tracer.calls["membank.get"] > 0


def test_self_times_add_up_to_step_time(traced):
    cfg, _, _, tracer = traced
    children = sum(tracer.self_s[n] for n in SPAN_NAMES if n not in ROOT_NAMES)
    step = tracer.total_s["trainer.step"]
    assert math.isclose(tracer.self_s["trainer.step"] + children, step, rel_tol=1e-9)
    # enqueue's self time excludes the dequeue spans nested in it
    assert tracer.self_s["membank.enqueue"] <= tracer.total_s["membank.enqueue"]
    # evaluation runs the encoder too, but inside the opaque eval span: one
    # training forward pass per warmup step, three (labeled, weak, strong) after
    warm = cfg.warmup_epochs * cfg.iters_per_epoch
    post = (cfg.epochs - cfg.warmup_epochs) * cfg.iters_per_epoch
    assert tracer.calls["numerics.encoder_forward"] == warm + 3 * post


def test_tail_percentile_keeps_ten_values_beyond():
    assert harness.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0, 10)
    pct, value, beyond = harness.tail_percentile([float(v) for v in range(1, 31)])
    assert (pct, value, beyond) == (66, 20.0, 10)


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(tmp_path, trace):
    result, detail = harness.run("fixmatch-default", 1, 0.1, trace, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert detail["reference_fingerprint"] == harness.load_reference()["fingerprints"][
        "fixmatch-default"]
    declared = harness.declared_metrics("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bmb-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
