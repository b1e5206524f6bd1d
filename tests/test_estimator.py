"""Ledger: replacement semantics, exact recount, clamping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import record_each

from tailssl.estimator import PseudoLabelLedger


def record(ledger, sample_id, label):
    """One (id, label) pair through record_batch."""
    ledger.record_batch(np.array([sample_id]), np.array([label]))


def test_record_fresh_sample():
    ledger = PseudoLabelLedger(4)
    record(ledger, 7, 2)
    assert ledger.counts.tolist() == [0, 0, 1, 0]
    assert ledger.latest == {7: 2}


def test_record_replaces_previous_label():
    ledger = PseudoLabelLedger(6)
    record(ledger, 7, 2)
    record(ledger, 7, 5)
    assert ledger.counts.tolist() == [0, 0, 0, 0, 0, 1]
    assert ledger.latest == {7: 5}


def test_record_idempotent_for_same_pair():
    ledger = PseudoLabelLedger(3)
    record(ledger, 1, 2)
    record(ledger, 1, 2)
    assert ledger.counts.tolist() == [0, 0, 1]
    assert ledger.total() == 1


def test_record_rejects_out_of_range_label():
    ledger = PseudoLabelLedger(3)
    with pytest.raises(ValueError):
        record(ledger, 0, 3)
    with pytest.raises(ValueError):
        record(ledger, 0, -1)


def test_counts_match_brute_force_recount_after_10k_records():
    rng = np.random.default_rng(0)
    ledger = PseudoLabelLedger(7)
    for _ in range(100):  # batches of 100; ids repeat within and across batches
        ledger.record_batch(rng.integers(0, 500, size=100), rng.integers(0, 7, size=100))
    recount = np.zeros(7, dtype=np.int64)
    for label in ledger.latest.values():
        recount[label] += 1
    assert np.array_equal(ledger.counts, recount)
    assert ledger.counts.sum() == ledger.total() == len(ledger.latest)


def test_estimated_counts_clamping():
    ledger = PseudoLabelLedger(4)
    assert ledger.estimated_counts().tolist() == [1, 1, 1, 1]
    ledger.record_batch(np.arange(7), np.ones(7, dtype=np.int64))
    assert ledger.estimated_counts().tolist() == [1, 7, 1, 1]
    assert ledger.counts.tolist() == [0, 7, 0, 0]  # raw counts untouched


def test_estimated_counts_no_clamp_needed():
    ledger = PseudoLabelLedger(3)
    labels = np.array([0] * 3 + [1] * 9 + [2] * 12)
    ledger.record_batch(np.arange(len(labels)), labels)
    assert ledger.estimated_counts().tolist() == [3, 9, 12]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), max_size=200))
def test_recount_property(ops):
    ledger = PseudoLabelLedger(5)
    for sid, label in ops:
        record(ledger, sid, label)
    recount = np.zeros(5, dtype=np.int64)
    for label in ledger.latest.values():
        recount[label] += 1
    assert np.array_equal(ledger.counts, recount)
    assert ledger.total() == len({sid for sid, _ in ops})


def test_record_batch_repeated_id_keeps_last_label_and_counts_it_once():
    ledger = PseudoLabelLedger(3)
    record(ledger, 5, 0)
    ledger.record_batch(np.array([5, 7, 5, 5]), np.array([1, 2, 2, 1]))
    assert ledger.latest == {5: 1, 7: 2}
    assert ledger.counts.tolist() == [0, 1, 1]


def test_record_batch_rejects_bad_labels_and_lengths():
    ledger = PseudoLabelLedger(3)
    for ids, labels in [([1, 2], [0, 3]), ([1], [-1]), ([1, 2], [0])]:
        with pytest.raises(ValueError):
            ledger.record_batch(np.array(ids), np.array(labels))
    assert ledger.total() == 0 and ledger.counts.tolist() == [0, 0, 0]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=30), max_size=8
    )
)
def test_record_batch_equals_record_each(batches):
    """Batches with ids repeated inside and across them, against the per-record loop."""
    ledger = PseudoLabelLedger(5)
    latest, counts = {}, np.zeros(5, dtype=np.int64)
    for batch in batches:
        ids = np.array([sid for sid, _ in batch], dtype=np.int64)
        labels = np.array([label for _, label in batch], dtype=np.int64)
        ledger.record_batch(ids, labels)
        record_each(latest, counts, ids, labels)
        assert ledger.latest == latest
        assert list(ledger.latest) == list(latest)  # same insertion order
        assert ledger.counts.tolist() == counts.tolist()
