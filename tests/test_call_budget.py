"""Calls per training step: a deterministic measure of the step's Python overhead.

The step works on 64x16 blocks, so its time goes to numpy call overhead
rather than to arithmetic. The number of Python and C calls a step makes is
an exact, noise-free count of that overhead, where a timing on a shared
machine is not. Each mode has a budget, bounded from above at the count the
code reaches today; a change that needs more calls per step raises its budget
and says why.

The counts depend on numpy's Python wrappers, so they are measured under one
numpy version (2.4.6); a numpy upgrade re-measures them.
"""

import sys

import pytest

from tailssl import trainer as trainer_module
from tailssl.data import DatasetSpec, generate_dataset
from tailssl.trainer import TrainConfig, fit

# mean calls per post-warmup train_step under calls_per_step's fixed run
BUDGET = {"vanilla": 68, "fixmatch": 89, "bmb": 157}

# bmb at beta 0 with both memory contents: every arrival is accepted, so the
# bank fills and then evicts, and the victim draws are counted too
EVICTING, EVICTING_BUDGET = {"beta": 0.0, "memory_content": "both"}, 200

# the benchmark's dataset with a smaller test split; every train setting but
# the mode, tau and the length of the run is TrainConfig's default. At tau
# 0.6 most steps offer rows and the bank fills; at the default beta 1 it never
# evicts, which only the EVICTING run counts
SPEC = DatasetSpec(num_classes=10, feature_dim=16, n1=150, m1=300, gamma_l=20, gamma_u=20,
                   test_per_class=10, geometry_seed=26, sample_seed=27, separation=2.5)
WARMUP, STEPS = 1, 50


def calls_per_step(monkeypatch, mode: str, callbacks=None, **settings) -> float:
    """Mean number of Python and C calls ('call' and 'c_call' events of
    sys.setprofile) per train_step over the first epoch after warmup, seed 0.
    Each step's count includes the train_step call itself and the call that
    switches the profiler off. settings override TrainConfig fields; callbacks
    go to fit, outside the profiled steps."""
    cfg = TrainConfig(mode=mode, tau=0.6, warmup_epochs=WARMUP, epochs=WARMUP + 1,
                      iters_per_epoch=STEPS, seed=0, **settings)
    calls = 0
    steps = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    train_step = trainer_module.train_step

    def profiled_step(state, *batch):
        nonlocal steps
        if state.epoch < WARMUP:
            return train_step(state, *batch)
        steps += 1
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return train_step(state, *batch)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(trainer_module, "train_step", profiled_step)
    fit(generate_dataset(SPEC), cfg, callbacks)
    assert steps == STEPS
    return calls / steps


@pytest.mark.parametrize("mode", sorted(BUDGET))
def test_calls_per_step_stay_within_budget(monkeypatch, mode):
    assert calls_per_step(monkeypatch, mode) <= BUDGET[mode]


def test_bmb_calls_per_step_stay_within_budget_while_the_bank_evicts(monkeypatch):
    banks = []
    calls = calls_per_step(monkeypatch, "bmb", [lambda state, _: banks.append(state.bank)],
                           **EVICTING)
    assert banks[-1].evictions > 0 and calls <= EVICTING_BUDGET
