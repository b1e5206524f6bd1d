"""The bench's reference fits reproduce the fingerprints recorded in bench/reference.json.

`bench/run.py` refuses a run whose reference fit drifts from its recorded
fingerprint, so a change to the training arithmetic shows here first.
"""

import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from tailssl import trainer

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "bench")
WORKLOADS = ("bmb-default", "fixmatch-default", "bmb-churn")


@contextmanager
def bench_on_path():
    """Import from bench/: the environment and sys.path are restored after, and
    no bytecode is written under bench/."""
    path, env, no_bytecode = sys.path[:], dict(os.environ), sys.dont_write_bytecode
    sys.path.insert(0, BENCH_DIR)
    sys.dont_write_bytecode = True
    try:
        yield
    finally:
        sys.path[:] = path
        os.environ.clear()
        os.environ.update(env)
        sys.dont_write_bytecode = no_bytecode


@pytest.fixture(scope="module")
def harness():
    """The harness, imported as bench/tests/conftest.py does. Importing it pins
    the BLAS thread variables and prepends to sys.path; both are undone."""
    with bench_on_path():
        from run import import_harness

        return import_harness()


def test_every_traced_trainer_name_is_a_trainer_global():
    """The tracer wraps trainer globals by name and skips a missing one, so a
    rename in the trainer would silently zero a bench span."""
    with bench_on_path():
        import tracing

    assert sorted(set(tracing.TRAINER_GLOBALS) - set(vars(trainer))) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_fit_reproduces_the_recorded_fingerprint(harness, tmp_path, workload):
    assert harness.WORKLOADS == WORKLOADS  # a case for every workload
    seed = harness.REFERENCE_SEED
    paths = harness.write_dataset(workload, seed, str(tmp_path))
    data, cfg, _ = harness.set_up(workload, *paths, seed)
    result = harness.run_fit(data, cfg)
    assert result.problems == []
    assert result.fingerprint == harness.load_reference()["fingerprints"][workload]
