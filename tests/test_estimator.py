"""Ledger: replacement semantics, exact recount, clamping, position bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import record_each

from tailssl.estimator import PseudoLabelLedger


def record(ledger, position, label):
    """One (position, label) pair through record_batch."""
    ledger.record_batch(np.array([position]), np.array([label]))


def recount(ledger):
    """Brute-force histogram of the ledger's latest labels."""
    counts = np.zeros(ledger.num_classes, dtype=np.int64)
    for label in ledger.latest.tolist():
        if label >= 0:
            counts[label] += 1
    return counts


def test_new_ledger_has_no_labels():
    ledger = PseudoLabelLedger(3, 5)
    assert ledger.latest.tolist() == [-1] * 5
    assert ledger.latest.dtype == np.int64
    assert ledger.counts.tolist() == [0, 0, 0]


def test_record_fresh_sample():
    ledger = PseudoLabelLedger(4, 10)
    record(ledger, 7, 2)
    assert ledger.counts.tolist() == [0, 0, 1, 0]
    assert ledger.latest.tolist() == [-1] * 7 + [2, -1, -1]


def test_record_replaces_previous_label():
    ledger = PseudoLabelLedger(6, 10)
    record(ledger, 7, 2)
    record(ledger, 7, 5)
    assert ledger.counts.tolist() == [0, 0, 0, 0, 0, 1]
    assert ledger.latest[7] == 5 and np.count_nonzero(ledger.latest >= 0) == 1


def test_record_idempotent_for_same_pair():
    ledger = PseudoLabelLedger(3, 2)
    record(ledger, 1, 2)
    record(ledger, 1, 2)
    assert ledger.counts.tolist() == [0, 0, 1]
    assert ledger.latest.tolist() == [-1, 2]


def test_record_rejects_out_of_range_label():
    ledger = PseudoLabelLedger(3, 1)
    with pytest.raises(ValueError):
        record(ledger, 0, 3)
    with pytest.raises(ValueError):
        record(ledger, 0, -1)


@pytest.mark.parametrize("bad", [-1, 6], ids=["minus-one", "num-rows"])
def test_record_batch_rejects_a_position_outside_the_rows(bad):
    """numpy would wrap -1 to the last row; the ledger refuses it and changes nothing."""
    ledger = PseudoLabelLedger(3, 6)
    ledger.record_batch(np.array([0, 5]), np.array([1, 2]))
    with pytest.raises(ValueError, match=r"position outside \[0, 6\)"):
        ledger.record_batch(np.array([2, bad, 3]), np.array([0, 0, 1]))
    assert ledger.latest.tolist() == [1, -1, -1, -1, -1, 2]
    assert ledger.counts.tolist() == [0, 1, 1]


def test_ledger_over_no_rows_takes_only_empty_batches():
    ledger = PseudoLabelLedger(2, 0)
    ledger.record_batch(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="position outside"):
        record(ledger, 0, 1)
    assert ledger.counts.tolist() == [0, 0]


def test_counts_match_brute_force_recount_after_10k_records():
    rng = np.random.default_rng(0)
    ledger = PseudoLabelLedger(7, 500)
    for _ in range(100):  # batches of 100; positions repeat within and across batches
        ledger.record_batch(rng.integers(0, 500, size=100), rng.integers(0, 7, size=100))
    assert np.array_equal(ledger.counts, recount(ledger))
    assert ledger.counts.sum() == np.count_nonzero(ledger.latest >= 0)


def test_estimated_counts_clamping():
    ledger = PseudoLabelLedger(4, 7)
    assert ledger.estimated_counts().tolist() == [1, 1, 1, 1]
    ledger.record_batch(np.arange(7), np.ones(7, dtype=np.int64))
    assert ledger.estimated_counts().tolist() == [1, 7, 1, 1]
    assert ledger.counts.tolist() == [0, 7, 0, 0]  # raw counts untouched


def test_estimated_counts_no_clamp_needed():
    ledger = PseudoLabelLedger(3, 24)
    labels = np.array([0] * 3 + [1] * 9 + [2] * 12)
    ledger.record_batch(np.arange(len(labels)), labels)
    assert ledger.estimated_counts().tolist() == [3, 9, 12]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), max_size=200))
def test_recount_property(ops):
    ledger = PseudoLabelLedger(5, 31)
    for pos, label in ops:
        record(ledger, pos, label)
    assert np.array_equal(ledger.counts, recount(ledger))
    assert np.count_nonzero(ledger.latest >= 0) == len({pos for pos, _ in ops})


def test_record_batch_repeated_position_keeps_last_label_and_counts_it_once():
    ledger = PseudoLabelLedger(3, 8)
    record(ledger, 5, 0)
    ledger.record_batch(np.array([5, 7, 5, 5]), np.array([1, 2, 2, 1]))
    assert ledger.latest.tolist() == [-1] * 5 + [1, -1, 2]
    assert ledger.counts.tolist() == [0, 1, 1]


def test_record_batch_rejects_bad_labels_and_lengths():
    ledger = PseudoLabelLedger(3, 3)
    for positions, labels in [([1, 2], [0, 3]), ([1], [-1]), ([1, 2], [0])]:
        with pytest.raises(ValueError):
            ledger.record_batch(np.array(positions), np.array(labels))
    assert ledger.latest.tolist() == [-1, -1, -1] and ledger.counts.tolist() == [0, 0, 0]


def test_record_batch_checks_the_label_of_an_overwritten_repeat():
    """Position 1's first label is out of range and its second is not: only
    the last label of a position is kept, but every pair is checked."""
    ledger = PseudoLabelLedger(3, 4)
    record(ledger, 2, 1)
    for labels in ([3, 0, 2], [-1, 0, 2]):
        with pytest.raises(ValueError, match="label out of range for 3 classes"):
            ledger.record_batch(np.array([1, 0, 1]), np.array(labels))
        assert ledger.latest.tolist() == [-1, -1, 1, -1] and ledger.counts.tolist() == [0, 1, 0]


@pytest.mark.parametrize("positions, labels", [
    pytest.param([1.5], [0], id="float-position"),
    pytest.param([1], [0.0], id="float-label"),
    pytest.param([True], [0], id="bool-position"),
])
def test_record_batch_rejects_non_integer_arrays(positions, labels):
    ledger = PseudoLabelLedger(3, 4)
    with pytest.raises(ValueError, match="must be integer arrays"):
        ledger.record_batch(np.array(positions), np.array(labels))
    assert ledger.latest.tolist() == [-1] * 4 and ledger.counts.tolist() == [0, 0, 0]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=30), max_size=8
    )
)
def test_record_batch_equals_record_each(batches):
    """Batches with positions repeated inside and across them, against the per-record loop."""
    ledger = PseudoLabelLedger(5, 13)
    latest, counts = np.full(13, -1, dtype=np.int64), np.zeros(5, dtype=np.int64)
    for batch in batches:
        positions = np.array([pos for pos, _ in batch], dtype=np.int64)
        labels = np.array([label for _, label in batch], dtype=np.int64)
        ledger.record_batch(positions, labels)
        record_each(latest, counts, positions, labels)
        assert ledger.latest.tolist() == latest.tolist()
        assert ledger.counts.tolist() == counts.tolist()
