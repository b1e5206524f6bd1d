"""Memory bank: acceptance/eviction/retrieval probabilities, capacity, balance."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import enqueue_each, store

from tailssl.membank import (
    MemoryBank,
    accept_probability,
    eviction_distribution,
    retrieval_distribution,
    stream_entropy,
)

RNG = np.random.default_rng
FEAT = np.zeros(2)


def filled_bank(counts, capacity=None, beta=1.0):
    """counts[k] records of class k, inserted class by class without any draw.

    Feature 0 of each record is its insertion index, so order checks can read it.
    """
    bank = MemoryBank(capacity or (sum(counts) + 10), len(counts), beta, 2)
    tag = 0
    for k, c in enumerate(counts):
        for _ in range(c):
            store(bank, np.array([float(tag), 0.0]), k)
            tag += 1
    return bank


def class_tags(bank, k):
    """Insertion tags of class k, oldest first."""
    return bank.features[bank._fifo[k], 0].tolist()


def offer_one(bank, feature, label, rng):
    """One record through `offer`; True when it was accepted."""
    return bank.offer(np.reshape(feature, (1, -1)), np.array([label]), rng) == 1


# ---------------------------------------------------------------------------
# offer: acceptance
# ---------------------------------------------------------------------------


def test_offer_always_accepts_empty_or_singleton_class():
    for c, beta in [(0, 0.0), (0, 3.0), (1, 0.5), (1, 7.0)]:
        rng = RNG(0)
        for _ in range(50):
            bank = filled_bank([c, 5], beta=beta)  # a fresh bank keeps C_0 at c
            assert offer_one(bank, FEAT, 0, rng)


def test_offer_acceptance_rate_quarter_monte_carlo():
    # C_k = 4, beta = 1 -> P_in = 0.25; 100k trials within +-0.01
    bank = filled_bank([4], beta=1.0)
    rng = RNG(1)
    hits = 0
    trials = 100_000
    for _ in range(trials):
        if offer_one(bank, FEAT, 0, rng):
            hits += 1
            bank = filled_bank([4], beta=1.0)  # back to C_0 = 4
    assert abs(hits / trials - 0.25) < 0.01


def test_offer_beta_zero_always_accepts():
    bank = filled_bank([50, 3], beta=0.0)
    assert bank.offer(np.zeros((200, 2)), np.zeros(200, dtype=np.int64), RNG(2)) == 200


def test_offer_rejects_bad_label():
    bank = MemoryBank(4, 2, 1.0, 2)
    with pytest.raises(ValueError):
        offer_one(bank, FEAT, 2, RNG(3))


def test_offer_at_capacity_keeps_total_constant():
    bank = filled_bank([3, 3], capacity=6, beta=0.0)
    before = len(bank)
    assert offer_one(bank, FEAT, 0, RNG(4))
    assert len(bank) == before == 6


def test_offer_into_an_empty_bank_never_evicts():
    bank, rng = MemoryBank(1, 2, 1.0, 2), RNG(8)
    twin = RNG(8)
    assert offer_one(bank, FEAT, 1, rng)
    assert bank.evictions == 0 and bank.counts().tolist() == [0, 1]
    twin.random()  # the accept draw, and no victim draw
    assert rng.random() == twin.random()


@pytest.mark.parametrize("label", [-1, 2])
def test_offer_rejects_a_label_outside_the_classes(label):
    """Before any draw: the bank and the generator are left as they were."""
    bank, rng = filled_bank([1, 1], capacity=2), RNG(9)
    before, state = bank_state(bank), rng.bit_generator.state
    with pytest.raises(ValueError, match="out of range"):
        bank.offer(np.zeros((2, 2)), np.array([0, label]), rng)
    assert bank_state(bank) == before and rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# offer: eviction
# ---------------------------------------------------------------------------


def test_victim_only_nonzero_weight_class():
    # a full bank, C = (10, 1), beta=1: weights (0.9, 0) -> class 0 always
    # evicted; a class-1 row is always accepted (C_1 = 1)
    for seed in range(20):
        bank = filled_bank([10, 1], capacity=11, beta=1.0)
        assert offer_one(bank, FEAT, 1, RNG(seed))
        assert bank.evictions == 1 and bank.counts().tolist() == [9, 2]


def test_offer_evicts_oldest_within_class():
    # a full bank, C = (5, 1), beta = 1: a class-1 row is always accepted
    # (C_1 = 1), and class 0 is the only victim with a nonzero weight
    bank = filled_bank([5, 1], capacity=6, beta=1.0)
    assert class_tags(bank, 0) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert offer_one(bank, np.array([9.0, 0.0]), 1, RNG(5))
    assert bank.evictions == 1
    assert class_tags(bank, 0) == [1.0, 2.0, 3.0, 4.0]
    assert class_tags(bank, 1) == [5.0, 9.0]


def test_offer_evicts_each_class_in_insertion_order():
    # beta = 0 accepts every arrival, so once full every offered row evicts
    bank = MemoryBank(16, 3, 0.0, 1)
    rng = RNG(21)
    evictions = 0
    for tag, k in enumerate(RNG(22).integers(0, 3, size=400).tolist()):
        full = len(bank) == bank.capacity
        want = [class_tags(bank, c) + ([float(tag)] if c == k else []) for c in range(3)]
        assert offer_one(bank, np.array([float(tag)]), k, rng)
        got = [class_tags(bank, c) for c in range(3)]
        if full:
            (victim,) = [c for c in range(3) if len(got[c]) < len(want[c])]
            want[victim].pop(0)  # the victim class loses its oldest record
            evictions += 1
        assert got == want
    assert evictions == bank.evictions == 400 - bank.capacity


def test_victim_uniform_fallback_over_equal_classes_monte_carlo():
    # beta=0 with counts (5, 5): all eviction weights vanish; fallback is
    # uniform over stored records, so each class evicts at rate 1/2.
    bank = filled_bank([5, 5], beta=0.0)
    rng = RNG(6)
    trials = 100_000
    hits = sum(bank._victim([5, 5], rng.random()) == 0 for _ in range(trials))
    assert abs(hits / trials - 0.5) < 0.02


def test_victim_weighted_frequencies_monte_carlo():
    # C = (100, 10), beta=1 -> normalized weights (0.99, 0.9)/1.89
    want0 = 0.99 / 1.89  # 0.523809..., arbitrary-precision normalization
    bank = filled_bank([100, 10], beta=1.0)
    rng = RNG(7)
    trials = 100_000
    hits = sum(bank._victim([100, 10], rng.random()) == 0 for _ in range(trials))
    assert abs(hits / trials - want0) < 0.01


# ---------------------------------------------------------------------------
# get
# ---------------------------------------------------------------------------


def test_get_lambda_zero_is_uniform_over_nonempty_classes():
    bank = filled_bank([50, 1, 7])
    est = np.array([1000, 10, 1])
    rows = bank.get(est, 100_000, 0.0, RNG(9))
    freq = np.bincount(bank.labels[rows], minlength=3) / len(rows)
    assert np.all(np.abs(freq - 1 / 3) < 0.02)


def test_get_reversed_sampling_frequencies_monte_carlo():
    # M = (100, 10), lambda=1 -> probabilities (1/11, 10/11)
    bank = filled_bank([5, 5])
    rows = bank.get(np.array([100, 10]), 100_000, 1.0, RNG(10))
    freq = np.mean(bank.labels[rows] == 0)
    assert abs(freq - 1 / 11) < 0.01


def test_get_restricted_to_nonempty_classes():
    bank = filled_bank([0, 0, 0, 6])
    rows = bank.get(np.array([1000, 1, 1, 500]), 500, 2.0, RNG(11))
    assert len(rows) == 500
    assert np.all(bank.labels[rows] == 3)


def test_retrieval_distribution_huge_lambda_is_its_limit():
    """Every non-empty weight underflows to 0 here (2 ** -1e308); the result is
    the lambda -> infinity limit, uniform over the non-empty classes of least M_k."""
    counts = np.array([3, 0, 4, 1, 2])
    estimated = np.array([2, 1, 9, 2, 5])
    with np.errstate(divide="raise", invalid="raise"):
        probs = retrieval_distribution(estimated, counts, 1e308)
    assert probs.tolist() == [0.5, 0.0, 0.0, 0.5, 0.0]
    # class 1 has the smallest estimate but is empty; one weight that does not
    # underflow keeps the ordinary rule
    assert retrieval_distribution(np.array([1, 2]), np.array([1, 1]), 1e308).tolist() == [1.0, 0.0]


def test_get_huge_lambda_draws_only_the_least_estimated_classes():
    bank = filled_bank([5, 5, 5])
    rows = bank.get(np.array([3, 700, 3]), 1000, 1e308, RNG(14))
    freq = np.bincount(bank.labels[rows], minlength=3) / len(rows)
    assert freq[1] == 0 and abs(freq[0] - 0.5) < 0.06


def test_get_empty_bank_returns_empty():
    bank = MemoryBank(4, 3, 1.0, 2)
    assert len(bank.get(np.ones(3), 10, 1.0, RNG(12))) == 0


def reference_get(bank, estimated, n, lam, rng):
    """Straight-line get: one class draw for all n picks, then a scalar position draw per pick."""
    counts = bank.counts()
    probs = retrieval_distribution(estimated, counts, lam)
    support = np.flatnonzero(counts)
    classes = rng.choice(support, size=n, p=probs[support] / probs[support].sum())
    return [(int(k), int(rng.integers(int(counts[k])))) for k in classes]


def churned_bank(counts, seed):
    """A full filled_bank after a few evictions as `offer` makes them (`_victim` on
    one uniform picks the class whose oldest slot goes), each slot rewritten at
    once with a record of its victim's class: slots are out of position order,
    and the counts are unchanged."""
    bank = filled_bank(counts, capacity=sum(counts), beta=1.0)
    rng = RNG(seed)
    fifo = bank._fifo
    for _ in range(sum(counts) // 2):
        victim = bank._victim(list(map(len, fifo)), rng.random())
        slot = fifo[victim].pop(0)
        bank.features[slot] = FEAT
        fifo[victim].append(slot)
    return bank


@pytest.mark.parametrize(
    "counts, n",
    [((0, 0, 7, 0), 40), ((3, 1, 4, 1, 5), 1), ((0, 9), 1)]
    + [(tuple(RNG(s).integers(0, 12, size=1 + s % 7).tolist()) + (1,), 1 + 9 * s) for s in range(12)],
)
def test_get_matches_per_pick_reference_draws(counts, n):
    """The vectorised get picks the same (class, position) pairs from the same
    generator stream as the per-pick loop and leaves the generator in the same state."""
    bank = churned_bank(list(counts), seed=n)
    estimated = np.maximum(RNG(n + 1).integers(1, 500, size=len(counts)), 1)
    lam = 0.75
    fast, slow = RNG(100 + n), RNG(100 + n)
    rows = bank.get(estimated, n, lam, fast)
    want = reference_get(bank, estimated, n, lam, slow)
    got = []
    for row in rows.tolist():
        k = int(bank.labels[row])
        got.append((k, bank._fifo[k].index(row)))
    assert got == want
    assert fast.random() == slow.random()


def test_get_rejects_unclamped_counts():
    bank = filled_bank([2, 2])
    with pytest.raises(ValueError):
        bank.get(np.array([0, 5]), 4, 1.0, RNG(13))


@pytest.mark.parametrize("bank, n", [(filled_bank([2, 2]), 0), (MemoryBank(4, 2, 1.0, 2), 3)],
                         ids=["no-draws", "empty-bank"])
def test_get_checks_its_counts_even_when_it_draws_nothing(bank, n):
    rng = RNG(13)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="clamped >= 1"):
        bank.get(np.array([0, 5]), n, 1.0, rng)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# Draws are bit-identical to Generator.choice
# ---------------------------------------------------------------------------

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
RANDOM_BETA = float(RNG(70).uniform(0.05, 3.0))
NUM_CLASSES = [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 136, 255, 256, 300, 301]


def generator_drawing(u, seed):
    """A PCG64 Generator whose next random() is exactly u, a multiple of 2**-53 in [0, 1).

    PCG64 steps its 128-bit LCG state, then outputs the xor of the state's two
    halves rotated right by the state's top 6 bits; random() keeps the top 53
    output bits. The state before the step is solved backwards from u.
    """
    m = u * 2.0**53
    assert 0 <= m < 2**53 and m == int(m)
    out = int(m) << 11
    bitgen = np.random.PCG64(seed)
    inc = bitgen.state["state"]["inc"]
    high = bitgen.state["state"]["state"] >> 64
    rot = high >> 58
    xored = ((out << rot) | (out >> (64 - rot))) & MASK64
    stepped = (high << 64) | (xored ^ high)
    state = (stepped - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    bitgen.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    rng = np.random.Generator(bitgen)
    assert copy.deepcopy(rng).random() == u
    return rng


def boundary_uniforms(probs):
    """Uniforms next to every inner edge of the class CDF that rng.choice builds from
    probs: the smallest draw at or above the edge and the largest below it, where
    one bit of the CDF decides the class."""
    edges = np.cumsum(probs / probs.sum())
    edges /= edges[-1]
    out = set()
    for edge in edges[:-1].tolist():
        m = math.ceil(edge * 2.0**53)
        out |= {min(m, 2**53 - 1), max(m - 1, 0)}
    return [m * 2.0**-53 for m in sorted(out)]


def reference_victim(sizes, beta, rng):
    """Straight-line victim draw: rng.choice over the renormalised eviction_distribution."""
    counts = np.array(sizes)
    probs = eviction_distribution(counts, beta)
    support = np.flatnonzero(counts)
    return int(rng.choice(support, p=probs[support] / probs[support].sum()))


def victim_probs(sizes, beta):
    counts = np.array(sizes)
    return eviction_distribution(counts, beta)[counts > 0]


def assert_victim_matches_reference(bank, sizes, fast, slow):
    """`bank._victim` over the class sizes on `fast` against the reference draw
    on `slow`, a twin generator. Returns the victim."""
    want = reference_victim(sizes, bank.beta, slow)
    assert bank._victim(sizes, fast.random()) == want
    return want


def random_counts(k, seed, high=20):
    """k class sizes in [0, high), some zero, at least one non-zero."""
    counts = RNG(seed).integers(0, high, size=k)
    counts[seed % k] = max(counts[seed % k], 1)
    if k > 2:
        counts[(seed + 1) % k] = 0
    return counts.tolist()


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, RANDOM_BETA])
@pytest.mark.parametrize("k", NUM_CLASSES)
def test_victim_draws_equal_generator_choice(k, beta):
    """Victim and generator state equal rng.choice's: first along a stream of
    victims, each taken off the class sizes, that drains them, then at every
    CDF edge."""
    seed = 1000 * k + int(10 * beta)
    bank = filled_bank(random_counts(k, seed), beta=beta)
    sizes = bank.counts().tolist()
    fast, slow = RNG(seed), RNG(seed)
    for _ in range(min(sum(sizes), 120)):
        sizes[assert_victim_matches_reference(bank, sizes, fast, slow)] -= 1
    assert fast.random() == slow.random()

    if not any(sizes):
        bank = filled_bank(random_counts(k, seed + 1), beta=beta)
        sizes = bank.counts().tolist()
    for u in boundary_uniforms(victim_probs(sizes, beta)):
        fast, slow = generator_drawing(u, seed), generator_drawing(u, seed)
        assert_victim_matches_reference(bank, sizes, fast, slow)
        assert fast.random() == slow.random()


@pytest.mark.parametrize(
    "counts, beta",
    [
        ((1, 1), 0.5),  # beta > 0, every count 1: all weights vanish
        ((1, 0, 1, 1, 1), 2.0),
        ((0, 1) * 150, RANDOM_BETA),
        ((2, 2), 0.0),  # beta = 0: weights vanish whatever the counts
        ((3, 0, 1), 0.0),
        ((5, 0, 2, 1) * 40, 0.0),
    ],
)
def test_victim_fallback_draws_equal_generator_choice(counts, beta):
    """When every eviction weight vanishes the draw falls back to the counts. Most of
    these CDFs have edges a uniform can hit exactly, so ties are probed too."""
    bank, sizes = filled_bank(list(counts), beta=beta), list(counts)
    probs = victim_probs(sizes, beta)
    np.testing.assert_array_equal(probs, np.array([c for c in counts if c]) / sum(counts))
    for u in boundary_uniforms(probs):
        fast, slow = generator_drawing(u, 5), generator_drawing(u, 5)
        assert_victim_matches_reference(bank, sizes, fast, slow)
        assert fast.random() == slow.random()


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, RANDOM_BETA])
def test_tables_equal_accept_probability_and_eviction_weights(beta):
    capacity = 300
    bank = MemoryBank(capacity, 3, beta, 2)
    assert bank.p_in == [accept_probability(c, beta) for c in range(capacity + 1)]
    # eviction_distribution over every size at once, in a shuffled order, is the
    # table's weights normalised by their numpy sum
    sizes = RNG(71).permutation(capacity + 1)
    weights = np.array([bank.p_out[c] for c in sizes.tolist()])
    if beta == 0.0:
        assert not weights.any()
    else:
        np.testing.assert_array_equal(
            eviction_distribution(sizes, beta), weights / weights.sum()
        )
    assert bank.p_out[0] == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, RANDOM_BETA])
@pytest.mark.parametrize("k", [1, 2, 8, 9, 129, 300])
def test_get_class_draws_equal_generator_choice(k, lam):
    """Rows and generator state equal the rng.choice reference, for seeded draws
    and for a first uniform at every edge of the retrieval CDF."""
    seed = 2000 * k + int(10 * lam)
    bank = churned_bank(random_counts(k, seed), seed=seed)
    counts = bank.counts()
    estimated = RNG(seed).integers(1, 500, size=k)
    probs = retrieval_distribution(estimated, counts, lam)[counts > 0]
    rngs = [(RNG(seed), RNG(seed))] + [
        (generator_drawing(u, seed), generator_drawing(u, seed)) for u in boundary_uniforms(probs)
    ]
    for fast, slow in rngs:
        rows = bank.get(estimated, 3, lam, fast)
        want = reference_get(bank, estimated, 3, lam, slow)
        labels = bank.labels[rows].tolist()
        got = [(k, bank._fifo[k].index(r)) for k, r in zip(labels, rows.tolist())]
        assert got == want
        assert fast.random() == slow.random()


# ---------------------------------------------------------------------------
# offer: a batch of attempts
# ---------------------------------------------------------------------------


def bank_state(bank):
    """Everything a later draw, get or offer can depend on."""
    return (
        [list(f) for f in bank._fifo],
        bank.features.tolist(),
        bank.labels.tolist(),
        bank.evictions,
    )


def assert_offer_matches_enqueue_each(fast_bank, slow_bank, features, labels, fast, slow):
    """One offer on (fast_bank, fast) against the per-record loop on twins.

    Bounded integer draws first leave half of a 64-bit word buffered in the
    generator (one draw, or two when half a word is buffered already), which
    offer must leave in place.
    """
    highs = np.array([3, 1000])[: 1 + fast.bit_generator.state["has_uint32"]]
    np.testing.assert_array_equal(fast.integers(0, highs), slow.integers(0, highs))
    assert fast.bit_generator.state["has_uint32"] == 1
    accepted = fast_bank.offer(features, labels, fast)
    assert accepted == enqueue_each(slow_bank, features, labels, slow)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert bank_state(fast_bank) == bank_state(slow_bank)
    return accepted


@pytest.mark.parametrize("capacity", [1, 2, 24])
@pytest.mark.parametrize("start", ["empty", "full"])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_offer_equals_enqueue_each_draw_for_draw(beta, start, capacity):
    """Blocks of 1-40 rows, K = 5: at capacity 24 the bank fills part way through
    a block, and once full most accepts evict, so slots are reused in a block.
    At capacity 1 or 2 and beta 0 every accept evicts, so the uniforms that
    offer draws ahead run out on victim draws at many positions in a block."""
    data = RNG(int(beta * 10) + (start == "full"))
    bank = MemoryBank(capacity, 5, beta, 3)
    if start == "full":
        for i in range(capacity):
            store(bank, data.normal(size=3), int(data.integers(5)))
    twin = copy.deepcopy(bank)
    fast, slow = RNG(77), RNG(77)
    total_accepted = 0
    for _ in range(25):
        n = int(data.integers(1, 41))
        features = data.normal(size=(n, 3))
        labels = data.integers(0, 5, size=n)
        total_accepted += assert_offer_matches_enqueue_each(
            bank, twin, features, labels, fast, slow
        )
    assert total_accepted > 0 and bank.evictions > 0 and len(bank) == capacity
    assert fast.integers(0, 2**40, size=4).tolist() == slow.integers(0, 2**40, size=4).tolist()


class CountingGenerator:
    """A generator whose `random` calls are recorded, as the sizes drawn."""

    def __init__(self, seed):
        self.rng = RNG(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.mark.parametrize("stored, n, draws", [
    pytest.param(24, 80, [80, 40, 20, 10, 5, 3, 1, 1], id="full"),
    pytest.param(20, 80, [80, 38, 19, 10, 5, 2, 1, 1], id="four-free"),
    pytest.param(0, 10, [10], id="never-full"),
])
def test_offer_at_beta_zero_draws_ahead_only_the_remaining_attempts(stored, n, draws):
    """At beta 0 every attempt is accepted, and once the bank is full every
    accept evicts: one uniform per attempt and one per eviction. Out of
    uniforms at attempt i, offer draws the n - i that attempts i..n-1 are sure
    to use. The generator ends where the per-record loop leaves it."""
    data = RNG(9)
    bank = MemoryBank(24, 5, 0.0, 3)
    for _ in range(stored):
        store(bank, data.normal(size=3), int(data.integers(5)))
    twin = copy.deepcopy(bank)
    features, labels = data.normal(size=(n, 3)), data.integers(0, 5, size=n)
    counting, slow = CountingGenerator(21), RNG(21)
    assert bank.offer(features, labels, counting) == enqueue_each(twin, features, labels, slow)
    assert counting.sizes == draws
    assert counting.rng.bit_generator.state == slow.bit_generator.state
    assert bank_state(bank) == bank_state(twin)


def test_offer_keeps_the_last_write_to_a_slot():
    """Capacity 1, beta 0: every row is accepted into slot 0, evicting the one before."""
    bank = MemoryBank(1, 3, 0.0, 2)
    twin = copy.deepcopy(bank)
    features = np.arange(10.0).reshape(5, 2)
    labels = np.array([0, 2, 1, 2, 1])
    accepted = assert_offer_matches_enqueue_each(bank, twin, features, labels, RNG(3), RNG(3))
    assert accepted == 5 and bank.evictions == 4
    assert bank.features[0].tolist() == [8.0, 9.0] and bank.labels[0] == 1


def test_offer_of_nothing_draws_nothing():
    bank, rng = MemoryBank(4, 2, 1.0, 2), RNG(5)
    before = rng.bit_generator.state
    assert bank.offer(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), rng) == 0
    assert rng.bit_generator.state == before and len(bank) == 0


def test_offer_rejects_bad_labels_and_shapes_before_drawing():
    bank, rng = MemoryBank(4, 2, 1.0, 2), RNG(6)
    before = rng.bit_generator.state
    for features, labels in [
        (np.zeros((2, 2)), np.array([0, 2])),
        (np.zeros((2, 2)), np.array([-1, 0])),
        (np.zeros((2, 3)), np.array([0, 1])),
        (np.zeros((3, 2)), np.array([0, 1])),
    ]:
        with pytest.raises(ValueError):
            bank.offer(features, labels, rng)
    assert rng.bit_generator.state == before and len(bank) == 0


def count_exact_victims(monkeypatch):
    """Counts the calls of the bank's exact victim recipe, which still runs."""
    calls = []
    exact = MemoryBank._victim_exact

    def counted(self, sizes, u):
        calls.append(u)
        return exact(self, sizes, u)

    monkeypatch.setattr(MemoryBank, "_victim_exact", counted)
    return calls


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_offer_victims_at_every_cdf_edge_equal_enqueue_each(beta, monkeypatch):
    """A full bank, K = 9 with class 4 empty, takes one row of class 4, which
    is always accepted; the eviction's uniform sits at each edge of the victim
    CDF and at both ends of [0, 1). Each inner-edge uniform takes the exact
    recipe."""
    counts = [7, 1, 3, 12, 0, 2, 5, 1, 9]
    base = filled_bank(counts, capacity=sum(counts), beta=beta)
    edges = boundary_uniforms(victim_probs(counts, beta))
    exact = count_exact_victims(monkeypatch)
    for u in [*edges, 0.0, 1.0 - 2.0**-53]:
        bank, twin = copy.deepcopy(base), copy.deepcopy(base)
        fast, slow = generator_drawing(u, 11), generator_drawing(u, 11)
        for rng in (fast, slow):  # the accept draw comes first, then u
            rng.bit_generator.advance(-1)
        before = len(exact)
        assert bank.offer(np.ones((1, 2)), np.array([4]), fast) == 1
        assert enqueue_each(twin, np.ones((1, 2)), np.array([4]), slow) == 1
        assert fast.bit_generator.state == slow.bit_generator.state
        assert bank_state(bank) == bank_state(twin)
        assert bank.evictions == 1 and len(bank._fifo[4]) == 1
        if u in edges:
            assert len(exact) - before == 1
    assert len(edges) >= 8


def test_generic_offer_stream_never_needs_the_exact_victim(monkeypatch):
    """Seeded offers on full banks evict often, and every victim comes from
    the running sum alone."""
    exact = count_exact_victims(monkeypatch)
    evictions = 0
    for beta in (0.0, 0.5, 1.0):
        data = RNG(int(10 * beta) + 90)
        bank = MemoryBank(24, 7, beta, 3)
        twin = copy.deepcopy(bank)
        fast, slow = RNG(91), RNG(91)
        for _ in range(30):
            n = int(data.integers(1, 41))
            assert_offer_matches_enqueue_each(
                bank, twin, data.normal(size=(n, 3)), data.integers(0, 7, size=n), fast, slow
            )
        evictions += bank.evictions
    assert evictions > 500 and exact == []


# ---------------------------------------------------------------------------
# counts and entropy
# ---------------------------------------------------------------------------


def test_counts_fresh_bank_is_zero():
    assert MemoryBank(8, 5, 1.0, 2).counts().tolist() == [0] * 5


def test_counts_one_hot_after_single_offer():
    bank = MemoryBank(8, 5, 1.0, 2)
    offer_one(bank, FEAT, 2, RNG(14))
    assert bank.counts().tolist() == [0, 0, 1, 0, 0]


def test_counts_match_brute_force_recount_after_op_sequence():
    bank = MemoryBank(32, 6, 1.0, 2)
    rng = RNG(15)
    for _ in range(2000):
        op = rng.random()
        if op < 0.7 or len(bank) == 0:
            offer_one(bank, FEAT, int(rng.integers(6)), rng)
        elif op < 0.85:  # a few rows at once, evicting once the bank is full
            n = int(rng.integers(2, 6))
            bank.offer(np.zeros((n, 2)), rng.integers(6, size=n), rng)
        else:
            bank.get(np.maximum(rng.integers(1, 50, size=6), 1), 5, 1.0, rng)
        recount = np.zeros(6, dtype=int)
        for k in range(6):
            rows = bank._fifo[k]
            assert np.all(bank.labels[rows] == k)
            recount[k] = len(rows)
        assert np.array_equal(bank.counts(), recount)
        stored = np.concatenate([bank._fifo[k] for k in range(6)])
        assert len(np.unique(stored)) == len(stored) == len(bank)  # no slot held twice


def test_balance_entropy_uniform_is_one():
    assert filled_bank([7, 7, 7, 7]).balance_entropy() == pytest.approx(1.0, abs=1e-12)


def test_balance_entropy_single_class_is_zero():
    assert filled_bank([9, 0, 0]).balance_entropy() == pytest.approx(0.0, abs=1e-12)


def test_balance_entropy_three_one_split():
    # (-0.75 ln 0.75 - 0.25 ln 0.25)/ln 2, arbitrary-precision value
    assert filled_bank([3, 1]).balance_entropy() == pytest.approx(0.8112781244591328, abs=1e-12)


def test_balance_entropy_empty_bank_raises():
    with pytest.raises(ValueError):
        MemoryBank(4, 2, 1.0, 2).balance_entropy()


def test_entropy_of_fewer_than_two_classes_raises():
    """With one class ln K is 0, so the normalised entropy would be 0/0."""
    bank = MemoryBank(4, 1, 1.0, 2)
    offer_one(bank, FEAT, 0, RNG(16))
    for entropy in (bank.balance_entropy, lambda: stream_entropy(np.array([5]))):
        with pytest.raises(ValueError, match="at least 2 classes"):
            entropy()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 12),
    beta=st.floats(0.0, 3.0, allow_nan=False),
    ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=60),
    seed=st.integers(0, 2**31),
)
def test_capacity_never_exceeded_and_eviction_decrements(capacity, beta, ops, seed):
    bank = MemoryBank(capacity, 4, beta, 2)
    rng = RNG(seed)
    for label, kind in ops:
        before, counts, evictions = len(bank), bank.counts(), bank.evictions
        if kind < 2 or before == 0:  # kind + 1 rows of the class
            accepted = bank.offer(np.zeros((kind + 1, 2)), np.full(kind + 1, label), rng)
            evicted = bank.evictions - evictions
            assert evicted == max(0, before + accepted - capacity)
            assert len(bank) == before + accepted - evicted
            counts[label] += accepted
            lost = counts - bank.counts()
            assert lost.min() >= 0 and lost.sum() == evicted  # each eviction decrements a class
        else:
            bank.get(np.ones(4), 3, 1.0, rng)
            assert len(bank) == before
        assert len(bank) <= capacity


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 12),
    beta=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
    offers=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8), max_size=20),
    seed=st.integers(0, 2**31),
)
def test_offer_fills_slots_in_order(capacity, beta, offers, seed):
    """After every offer the classes hold exactly slots 0..len(bank)-1, each
    once, every slot's label is its class, and offer returns the number of rows
    that the per-record loop accepts."""
    bank = MemoryBank(capacity, 4, beta, 1)
    twin = copy.deepcopy(bank)
    fast, slow = RNG(seed), RNG(seed)
    for labels in offers:
        features = np.arange(len(labels), dtype=np.float64)[:, None]
        accepted = bank.offer(features, np.array(labels), fast)
        assert accepted == enqueue_each(twin, features, labels, slow)
        slots = sorted(slot for fifo in bank._fifo for slot in fifo)
        assert slots == list(range(len(bank)))
        for k, fifo in enumerate(bank._fifo):
            assert bank.labels[fifo].tolist() == [k] * len(fifo)


def test_acceptance_monotone_in_count_and_eviction_weight_monotone():
    beta = 1.5
    p_in = [1.0 if c == 0 else c ** (-beta) for c in range(1, 30)]
    p_out = [1.0 - c ** (-beta) for c in range(1, 30)]
    assert all(a >= b for a, b in zip(p_in, p_in[1:]))
    assert all(a <= b for a, b in zip(p_out, p_out[1:]))


def simulate_stream(beta, seed, num_classes=10, capacity=256, n_arrivals=20_000, gamma=100.0):
    """Feed a fixed long-tailed confident stream through a bank; return (bank, stream entropy)."""
    mu = -(np.arange(num_classes)) / (num_classes - 1)
    p = gamma**mu
    p /= p.sum()
    rng = RNG(seed)
    labels = rng.choice(num_classes, p=p, size=n_arrivals)
    bank = MemoryBank(capacity, num_classes, beta, 2)
    bank.offer(np.zeros((n_arrivals, 2)), labels, rng)
    return bank, stream_entropy(np.bincount(labels, minlength=num_classes))


def test_steady_state_beta_zero_tracks_stream_entropy():
    bank, s_entropy = simulate_stream(beta=0.0, seed=1)
    assert abs(bank.balance_entropy() - s_entropy) <= 0.05


def test_steady_state_beta_one_rebalances_above_stream():
    """beta=1 must push the bank strictly more balanced than the raw stream.

    A provisional >=0.97 target for this configuration was disconfirmed by
    the pre-registered simulation oracle (the process equilibrium is
    C_k ~ 1 + c*p_k; measured entropy is ~0.74-0.81 at K=10); the
    oracle-confirmed check is the balance improvement plus a floor frozen
    from the oracle runs.
    """
    bank1, s_entropy = simulate_stream(beta=1.0, seed=1)
    bank0, _ = simulate_stream(beta=0.0, seed=1)
    e1, e0 = bank1.balance_entropy(), bank0.balance_entropy()
    assert e1 > e0
    assert e1 >= 0.72  # frozen floor: min over oracle seeds 0..4 was 0.737
