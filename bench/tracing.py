"""Per-layer spans recorded from outside the program.

The tracer replaces the layer functions that `tailssl.trainer` calls (its
module globals imported from numerics, data and weighting) and the
MemoryBank / PseudoLabelLedger methods with wrappers that time each call. A
span is recorded only inside a root span: a training step (`train_step`) or
the per-epoch evaluation (`predict`, `evaluate`). The evaluation span is
opaque: the encoder and head calls it makes count as its own time, so
training layers never include evaluation work.

Each span's self time is its duration minus the durations of its direct
children, so the self times of a step and of every span under it add up to
the step's duration, and nested calls (enqueue -> dequeue) are never counted
twice.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from tailssl import estimator, membank, trainer

# trainer-module global -> (span name, root, opaque, counted)
_LAYER = (False, False, True)
TRAINER_GLOBALS = {
    "train_step": ("trainer.step", True, False, True),
    "predict": ("metrics.eval", True, True, True),
    # evaluate() finishes the same per-epoch evaluation, so it adds time, not calls
    "evaluate": ("metrics.eval", True, True, False),
    "weak_augment": ("data.augment",) + _LAYER,
    "strong_augment": ("data.augment",) + _LAYER,
    "encoder_forward": ("numerics.encoder_forward",) + _LAYER,
    "encoder_backward": ("numerics.encoder_backward",) + _LAYER,
    "head_forward": ("numerics.head",) + _LAYER,
    "head_backward": ("numerics.head",) + _LAYER,
    "weighted_masked_ce": ("numerics.ce",) + _LAYER,
    "adam_step": ("numerics.adam",) + _LAYER,
    "ema_update": ("numerics.ema",) + _LAYER,
    "zeros_like_params": ("numerics.zero_grads",) + _LAYER,
    "batch_weights": ("weighting.batch_weights",) + _LAYER,
}

# (module, class, method) -> span name
METHODS = {
    (membank, "MemoryBank", "enqueue"): "membank.enqueue",
    (membank, "MemoryBank", "dequeue"): "membank.dequeue",
    (membank, "MemoryBank", "get"): "membank.get",
    (estimator, "PseudoLabelLedger", "record"): "estimator.record",
    (estimator, "PseudoLabelLedger", "estimated_counts"): "estimator.estimated_counts",
}

SPAN_NAMES = sorted({v[0] for v in TRAINER_GLOBALS.values()} | set(METHODS.values()))
ROOT_NAMES = ("trainer.step", "metrics.eval")


class Tracer:
    """Self time, total time and call count per span name for one traced fit."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.get_records = 0
        self.accepted = 0
        self.epoch_calls: list[dict[str, int]] = []
        self._stack: list[list[float]] = []  # open spans: [child seconds, opaque]

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.get_records = 0
        self.accepted = 0
        self.epoch_calls = []
        self._stack.clear()

    def on_epoch(self, state, record) -> None:
        """fit callback: snapshot the cumulative call counts after each epoch."""
        self.epoch_calls.append(dict(self.calls))

    def _count_accept(self, accepted) -> None:
        self.accepted += int(accepted)

    def _count_records(self, records) -> None:
        self.get_records += len(records)

    def wrap(self, fn, name, root=False, opaque=False, counted=True, on_result=None):
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            if stack:
                if stack[-1][1]:
                    return fn(*args, **kwargs)
            elif not root:
                return fn(*args, **kwargs)
            frame = [0.0, opaque]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                total_s[name] += duration
                if counted:
                    calls[name] += 1
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block.

        A name the program no longer defines is skipped, so its metrics read 0.
        """
        patches = []
        for attr, (name, root, opaque, counted) in TRAINER_GLOBALS.items():
            if hasattr(trainer, attr):
                patches.append((trainer, attr, self.wrap(
                    getattr(trainer, attr), name, root, opaque, counted)))
        hooks = {"membank.enqueue": self._count_accept, "membank.get": self._count_records}
        for (module, cls_name, attr), name in METHODS.items():
            cls = getattr(module, cls_name, None)
            if cls is not None and attr in vars(cls):
                patches.append((cls, attr, self.wrap(
                    vars(cls)[attr], name, on_result=hooks.get(name))))
        originals = [(target, attr, getattr(target, attr)) for target, attr, _ in patches]
        try:
            for target, attr, wrapper in patches:
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in originals:
                setattr(target, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the traced work: `<span>_s` is self time."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = self.self_s.get(name, 0.0)
            out[f"{name}_calls"] = self.calls.get(name, 0)
        out["trainer.step_s"] = self.total_s.get("trainer.step", 0.0)
        out["trainer.self_s"] = self.self_s.get("trainer.step", 0.0)
        enqueues = self.calls.get("membank.enqueue", 0)
        out["membank.accept_ratio"] = self.accepted / enqueues if enqueues else 0.0
        out["membank.get_records"] = self.get_records
        return out
