"""Data: long-tail construction rule, generation invariants, augmentations, CSV I/O."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import load_dataset_rows
from tailssl.data import (
    CSV_SPLITS,
    AugmentConfig,
    Dataset,
    DatasetSpec,
    Split,
    generate_dataset,
    load_dataset,
    longtail_counts,
    save_dataset,
    strong_augment,
    weak_augment,
)
from tailssl.errors import DatasetFormatError


# Frozen from an arbitrary-precision (mpmath, 50 digits) evaluation of
# round_half_up(n1 * gamma ** (-(k-1)/(K-1))).
LONGTAIL_1500_20_10 = [1500, 1075, 771, 553, 396, 284, 204, 146, 105, 75]
LONGTAIL_600_50_10 = [600, 388, 252, 163, 105, 68, 44, 29, 19, 12]


def test_longtail_matches_reported_head_and_tail():
    counts = longtail_counts(1500, 20, 10)
    assert counts[0] == 1500
    assert counts[-1] == 75  # 1500/20
    assert counts.tolist() == LONGTAIL_1500_20_10


def test_longtail_balanced_when_gamma_is_one():
    assert longtail_counts(1500, 1, 10).tolist() == [1500] * 10


def test_longtail_middle_class_value():
    # k=5: 1500 * 20 ** (-4/9) = 396.15... -> 396
    assert longtail_counts(1500, 20, 10)[4] == 396


def test_longtail_mismatched_regime_tail():
    counts = longtail_counts(600, 50, 10)
    assert counts[-1] == 12
    assert counts.tolist() == LONGTAIL_600_50_10


def test_longtail_nonincreasing_and_ratio_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n1 = int(rng.integers(10, 5000))
        gamma = float(rng.uniform(1, 200))
        k = int(rng.integers(2, 60))
        counts = longtail_counts(n1, gamma, k)
        assert (np.diff(counts) <= 0).all()
        assert counts[0] == n1
        if counts[-1] >= 1:
            ratio = counts[0] / counts[-1]
            assert abs(ratio - gamma) / gamma <= 1.0 / counts[-1]


def test_longtail_rejects_bad_args():
    with pytest.raises(ValueError):
        longtail_counts(0, 2, 10)
    with pytest.raises(ValueError):
        longtail_counts(10, 0.5, 10)
    with pytest.raises(ValueError):
        longtail_counts(10, 2, 1)


# ---------------------------------------------------------------------------
# generate_dataset
# ---------------------------------------------------------------------------


def small_spec(**kw):
    base = dict(
        num_classes=4,
        feature_dim=6,
        n1=30,
        m1=60,
        gamma_l=10,
        gamma_u=5,
        test_per_class=8,
        geometry_seed=3,
        sample_seed=4,
    )
    base.update(kw)
    return DatasetSpec(**base)


def test_generate_balanced_when_gammas_are_one():
    ds = generate_dataset(small_spec(gamma_l=1, gamma_u=1))
    assert ds.labeled_class_counts().tolist() == [30] * 4
    assert ds.true_unlabeled_counts.tolist() == [60] * 4


def test_generate_follows_longtail_counts():
    ds = generate_dataset(small_spec())
    assert ds.labeled_class_counts().tolist() == longtail_counts(30, 10, 4).tolist()
    assert ds.true_unlabeled_counts.tolist() == longtail_counts(60, 5, 4).tolist()


def test_generate_mismatched_regime_shapes():
    # gamma_l fixed at 50 while gamma_u varies; labeled tail stays at 600/50 = 12
    for gamma_u in (1, 20, 100):
        ds = generate_dataset(
            DatasetSpec(
                num_classes=10,
                feature_dim=12,
                n1=600,
                m1=300,
                gamma_l=50,
                gamma_u=gamma_u,
                test_per_class=5,
            )
        )
        assert ds.labeled_class_counts()[-1] == 12
        assert ds.true_unlabeled_counts.tolist() == longtail_counts(300, gamma_u, 10).tolist()


def test_generate_is_deterministic():
    a = generate_dataset(small_spec())
    b = generate_dataset(small_spec())
    assert np.array_equal(a.labeled.x, b.labeled.x)
    assert np.array_equal(a.unlabeled.x, b.unlabeled.x)
    assert np.array_equal(a.test.x, b.test.x)
    assert np.array_equal(a.unlabeled_oracle_y, b.unlabeled_oracle_y)


def test_generate_ids_disjoint_and_test_balanced():
    ds = generate_dataset(small_spec())
    all_ids = np.concatenate([ds.labeled.ids, ds.unlabeled.ids, ds.test.ids])
    assert len(np.unique(all_ids)) == len(all_ids)
    assert np.bincount(ds.test.y, minlength=4).tolist() == [8] * 4
    assert np.all(ds.unlabeled.y == -1)  # training never sees unlabeled truth


def test_generate_class_means_have_requested_separation():
    spec = small_spec(separation=3.0)
    from tailssl.data import class_means

    means = class_means(spec)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(3.0, abs=1e-9)


def test_generate_labeled_floor_of_one():
    ds = generate_dataset(small_spec(n1=3, gamma_l=100.0, m1=0))
    assert ds.labeled_class_counts().min() == 1
    assert len(ds.unlabeled) == 0


# ---------------------------------------------------------------------------
# Augmentations
# ---------------------------------------------------------------------------


def test_weak_augment_zero_sigma_is_identity():
    cfg = AugmentConfig(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                        strong_dropout_prob=0.0, strong_scale_jitter=0.0)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(weak_augment(x, cfg, np.random.default_rng(1)), x)


def test_weak_augment_reproducible_and_label_free():
    cfg = AugmentConfig()
    x = np.random.default_rng(2).normal(size=(4, 3))
    a = weak_augment(x, cfg, np.random.default_rng(7))
    b = weak_augment(x, cfg, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_weak_augment_noise_scale_monte_carlo():
    cfg = AugmentConfig(weak_noise_sigma=0.1)
    x = np.zeros((10000, 4))
    out = weak_augment(x, cfg, np.random.default_rng(8))
    std = out.std(axis=0)
    assert np.all(np.abs(std - 0.1) < 0.005)  # within 5% of sigma


def test_strong_augment_zero_strengths_is_identity():
    cfg = AugmentConfig(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                        strong_dropout_prob=0.0, strong_scale_jitter=0.0)
    x = np.random.default_rng(3).normal(size=(5, 3))
    assert np.array_equal(strong_augment(x, cfg, np.random.default_rng(4)), x)


def test_strong_augment_full_dropout_zeroes_everything():
    cfg = AugmentConfig(strong_dropout_prob=1.0)
    x = np.random.default_rng(5).normal(size=(6, 3))
    assert np.array_equal(strong_augment(x, cfg, np.random.default_rng(6)), np.zeros_like(x))


def test_strong_augment_dropout_rate_monte_carlo():
    cfg = AugmentConfig(strong_noise_sigma=0.0, weak_noise_sigma=0.0,
                        strong_dropout_prob=0.2, strong_scale_jitter=0.0)
    x = np.ones((100, 100))
    out = strong_augment(x, cfg, np.random.default_rng(9))
    zero_frac = (out == 0).mean()
    assert abs(zero_frac - 0.2) < 0.02


def test_augment_config_rejects_weaker_strong_noise():
    with pytest.raises(ValueError):
        AugmentConfig(weak_noise_sigma=0.5, strong_noise_sigma=0.1)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ds = generate_dataset(small_spec())
    csv_path = tmp_path / "dataset.csv"
    oracle_path = tmp_path / "dataset.oracle.csv"
    save_dataset(ds, csv_path, oracle_path)
    loaded = load_dataset(csv_path, oracle_path, num_classes=4)
    for a, b in ((ds.labeled, loaded.labeled), (ds.unlabeled, loaded.unlabeled), (ds.test, loaded.test)):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
    assert np.array_equal(ds.unlabeled_oracle_y, loaded.unlabeled_oracle_y)
    assert np.array_equal(ds.true_unlabeled_counts, loaded.true_unlabeled_counts)


def edge_float_dataset():
    """Signed zeros, subnormals, exponents and 17-digit values in every split."""
    x = np.array([[-0.0, 1e-310, 0.1, 1e22], [1.0 / 3.0, -2.5e-7, 123456789.0, 5e-324]])
    return Dataset(
        Split(np.array([7, 3]), x, np.array([1, 0])),
        Split(np.array([11]), x[:1] * -3.0, np.array([-1])),
        Split(np.array([0]), x[1:] / 7.0, np.array([2])),
        unlabeled_oracle_y=np.array([2]),
    )


# sha256 of the saved CSV and oracle files: csv.writer's bytes, \r\n line ends.
SAVED_DATASET_SHA256 = {
    "generated": ("32c8bd841396c952fa7a44edf8ce7e4677a4376684d78cec6ad4399efd9bb9e5",
                  "0c569e7cc547aca6c46a1ea044e3a7f1e930df2d59c0a8cab56cca3c337947aa"),
    "edge-floats": ("af48c153514cb6a2f51b4a97a9d0c1d8beb3c3fd8f0f5f0d718eb42e59089e6d",
                    "8c0911e35bdcff9b9416a26b39f17e9c383af98675f9e5c80fbf17f85083c2a4"),
}


@pytest.mark.parametrize("name", sorted(SAVED_DATASET_SHA256))
def test_saved_dataset_bytes_are_pinned(tmp_path, name):
    ds = generate_dataset(small_spec()) if name == "generated" else edge_float_dataset()
    csv_path, oracle_path = tmp_path / "dataset.csv", tmp_path / "dataset.oracle.csv"
    save_dataset(ds, csv_path, oracle_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, oracle_path))
    assert digests == SAVED_DATASET_SHA256[name]


def test_csv_header_only_gives_empty_sets(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,split,label,f_0,f_1\n")
    ds = load_dataset(path)
    assert len(ds.labeled) == 0 and len(ds.unlabeled) == 0 and len(ds.test) == 0


def test_csv_hand_written_fixture(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "id,split,label,f_0,f_1\n"
        "0,train,1,0.5,-1.25\n"
        "1,train,-1,2.0,3.5\n"
        "2,test,0,0.0,1.0\n"
    )
    ds = load_dataset(path)
    assert ds.labeled.ids.tolist() == [0] and ds.labeled.y.tolist() == [1]
    assert ds.labeled.x.tolist() == [[0.5, -1.25]]
    assert ds.unlabeled.ids.tolist() == [1]
    assert ds.test.ids.tolist() == [2] and ds.test.x.tolist() == [[0.0, 1.0]]


def test_csv_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,f_0\n0,train,0,1.0\n1,train,zero,2.0\n")
    with pytest.raises(DatasetFormatError, match=":3:"):
        load_dataset(path)


def test_csv_dimension_mismatch_is_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,f_0,f_1\n0,train,0,1.0\n")
    with pytest.raises(DatasetFormatError, match="expected 5 fields"):
        load_dataset(path)


def test_csv_unknown_split_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,f_0\n0,validation,0,1.0\n")
    with pytest.raises(DatasetFormatError, match="unknown split"):
        load_dataset(path)


def test_csv_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,split,label,f_0\n7,train,0,1.0\n7,test,0,2.0\n")
    with pytest.raises(DatasetFormatError, match="duplicate sample ids"):
        load_dataset(path)


def test_oracle_missing_unlabeled_id_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,split,label,f_0\n0,train,-1,1.0\n1,train,-1,2.0\n")
    oracle = tmp_path / "d.oracle.csv"
    oracle.write_text("id,true_label\n0,1\n")
    with pytest.raises(DatasetFormatError, match="no true label"):
        load_dataset(path, oracle, num_classes=2)


# ---------------------------------------------------------------------------
# The columnar loader against the row-by-row reference
# ---------------------------------------------------------------------------


K_DIFF = 3
BAD_SPLITS = ["trainx", "Train", "valid", "tes", " train", "test ", "", "testing", "validation"]
BAD_INTS = ["1.0", "x", "", "1e3", "0x10", "--1", "1 2", "+-1"]
BAD_FLOATS = ["x", "", "1.5.2", "0x1p3", "e5", "--1", "1e", "nan1"]
NON_FINITE = ["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"]
DATASET_FAULTS = ["split", "label_low", "label_high", "test_unlabeled", "non_finite", "dup_id",
                  "field_count", "bad_int", "bad_float", "whitespace_line"]
ORACLE_FAULTS = ["missing", "dup_id", "label", "field_count", "bad_int"]


def load_outcome(load, *args):
    """The Dataset a loader returns, or the DatasetFormatError it raises."""
    try:
        return load(*args, num_classes=K_DIFF)
    except DatasetFormatError as exc:
        return exc


def error_location(exc):
    """`<file>:<line>:` of a located error, or its whole message when it names no line."""
    match = re.match(r"(.*?\.csv:\d+:) ", str(exc))
    return match.group(1) if match else str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, DatasetFormatError) or isinstance(got, DatasetFormatError):
        assert isinstance(got, DatasetFormatError) and isinstance(want, DatasetFormatError), (got, want)
        assert error_location(got) == error_location(want), (str(got), str(want))
        return
    arrays = [(f"{s}.{f}", getattr(getattr(got, s), f), getattr(getattr(want, s), f))
              for s in ("labeled", "unlabeled", "test") for f in ("ids", "x", "y")]
    arrays += [(f, getattr(got, f), getattr(want, f))
               for f in ("unlabeled_oracle_y", "true_unlabeled_counts")]
    for name, a, b in arrays:
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags["C_CONTIGUOUS"], name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def csv_files(draw):
    """Text of a dataset CSV and its oracle sidecar, written with the syntax both
    loaders accept (quoted fields, spaces or tabs around numbers, optional plus
    signs, leading zeros and exponents, LF or CRLF line ends, blank lines),
    with at most one fault injected into one of the two files."""
    faults = st.sampled_from([*DATASET_FAULTS, *(f"oracle_{f}" for f in ORACLE_FAULTS)])
    fault = draw(st.none() | faults)
    event(f"fault: {fault}")
    d = draw(st.integers(1, 3))
    min_rows = 0 if fault in (None, "whitespace_line") else 2
    ids = draw(st.lists(st.integers(0, 60), min_size=min_rows, max_size=6, unique=True))
    rows, truth = [], []
    for i, sid in enumerate(ids):
        if i == 0 and fault is not None and fault.startswith("oracle_"):
            split, label = "train", -1  # an oracle row to damage
        else:
            split = draw(st.sampled_from(CSV_SPLITS))
            label = draw(st.integers(0, K_DIFF - 1))
            if split == "train" and draw(st.booleans()):
                label = -1
        x = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d))
        rows.append([sid, split, label, *x])
        if split == "train" and label < 0:
            truth.append([sid, draw(st.integers(0, K_DIFF - 1))])
    for sid in draw(st.lists(st.integers(61, 70), max_size=2, unique=True)):
        truth.append([sid, draw(st.integers(0, K_DIFF - 1))])  # true labels of no row are allowed
    truth = draw(st.permutations(truth))

    def number(v):
        if isinstance(v, int):
            text = draw(st.sampled_from([str(v), f"{v:+d}", f"{v:03d}"]))
        else:
            text = draw(st.sampled_from([repr(v), f"{v:.17e}", f"{v:+.17g}", f"{v:.17E}"]))
        pad = st.sampled_from(["", " ", "  ", "\t"])
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if draw(st.booleans()) else text

    def render(row):
        return [number(v) if not isinstance(v, str) else
                (f'"{v}"' if draw(st.booleans()) else v) for v in row]

    fields = [render(row) for row in rows]
    oracle_fields = [render(row) for row in truth]
    extra_lines = []
    if fault == "whitespace_line":
        extra_lines.append((draw(st.integers(0, len(fields))), draw(st.sampled_from([" ", "\t", "  "]))))
    elif fault in DATASET_FAULTS:
        row = draw(st.sampled_from(fields))
        col = 3 + draw(st.integers(0, d - 1))
        if fault == "split":
            row[1] = draw(st.sampled_from(BAD_SPLITS))
        elif fault == "label_low":
            row[2] = str(draw(st.integers(-9, -2)))
        elif fault == "label_high":
            row[2] = str(draw(st.integers(K_DIFF, K_DIFF + 5)))
        elif fault == "test_unlabeled":
            row[1], row[2] = "test", "-1"
        elif fault == "non_finite":
            row[col] = draw(st.sampled_from(NON_FINITE))
        elif fault == "dup_id":
            row[0] = draw(st.sampled_from([r for r in fields if r is not row]))[0]
        elif fault == "field_count":
            if draw(st.booleans()):
                row.append("0")
            else:
                row.pop(draw(st.integers(0, len(row) - 1)))
        elif fault == "bad_int":
            row[draw(st.sampled_from([0, 2]))] = draw(st.sampled_from(BAD_INTS))
        elif fault == "bad_float":
            row[col] = draw(st.sampled_from(BAD_FLOATS))
    elif fault is not None:
        i = draw(st.integers(0, len(oracle_fields) - 1))
        row = oracle_fields[i]
        if fault == "oracle_missing":
            oracle_fields.pop(i)
        elif fault == "oracle_dup_id":
            oracle_fields.insert(draw(st.integers(i + 1, len(oracle_fields))), [row[0], "0"])
        elif fault == "oracle_label":
            row[1] = str(draw(st.sampled_from([-1, K_DIFF, K_DIFF + 7])))
        elif fault == "oracle_field_count":
            if draw(st.booleans()):
                row.append("0")
            else:
                row.pop(draw(st.integers(0, 1)))
        elif fault == "oracle_bad_int":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_INTS))

    def text(header, body, extra=()):
        lines = [",".join(header)] + [",".join(f) for f in body]
        for pos, line in sorted(extra, reverse=True):
            lines.insert(1 + pos, line)
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), "")
        ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
        if not draw(st.booleans()):
            ends[-1] = ""
        return "".join(line + end for line, end in zip(lines, ends))

    header = ["id", "split", "label", *(f"f_{i}" for i in range(d))]
    return text(header, fields, extra_lines), text(["id", "true_label"], oracle_fields)


@pytest.fixture(scope="module")
def diff_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("diff")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(files=csv_files())
def test_load_dataset_matches_row_reference(diff_dir, files):
    csv_path, oracle_path = diff_dir / "d.csv", diff_dir / "d.oracle.csv"
    csv_path.write_bytes(files[0].encode())
    oracle_path.write_bytes(files[1].encode())
    assert_same_outcome(
        load_outcome(load_dataset, csv_path, oracle_path),
        load_outcome(load_dataset_rows, csv_path, oracle_path),
    )


@pytest.mark.parametrize(
    "body, lineno",
    [
        pytest.param("0,train,0,1.0\n   \n1,test,0,2.0\n", 3, id="whitespace-only-line"),
        pytest.param("0,train,0,1.0\n1,trainx,0,2.0\n", 3, id="split-trainx"),
        pytest.param("0,train,0,1.0\n\n1.0,test,0,2.0\n", 4, id="id-1.0"),
    ],
)
def test_csv_fault_is_located_like_the_reference(tmp_path, body, lineno):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,f_0\n" + body)
    with pytest.raises(DatasetFormatError, match=f"bad.csv:{lineno}: "):
        load_dataset(path)
    with pytest.raises(DatasetFormatError, match=f"bad.csv:{lineno}: "):
        load_dataset_rows(path)


def test_header_only_files_load_without_warnings(tmp_path):
    path, oracle = tmp_path / "d.csv", tmp_path / "d.oracle.csv"
    path.write_text("id,split,label,f_0,f_1\r\n\r\n")
    oracle.write_text("id,true_label\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_dataset(path, oracle, num_classes=2)
    assert_same_outcome(got, load_dataset_rows(path, oracle, num_classes=2))


@pytest.mark.parametrize(
    "body, lineno",
    [
        pytest.param("0,train,0,1.0\n1_0,test,0,2.0\n", 3, id="digit-separator-in-id"),
        pytest.param("0,train,0,1_000.5\n", 2, id="digit-separator-in-feature"),
        # reported where the quoted field closes, as its own short row
        pytest.param('0,train,0,1.0\n1,test,0,"2.0\n"\n', 4, id="quoted-line-break"),
    ],
)
def test_csv_narrowed_syntax_is_rejected_at_its_line(tmp_path, body, lineno):
    """The row-by-row reader accepted these; the columnar one rejects them."""
    path = tmp_path / "narrow.csv"
    path.write_text("id,split,label,f_0\n" + body)
    with pytest.raises(DatasetFormatError, match=f"narrow.csv:{lineno}: "):
        load_dataset(path)
    load_dataset_rows(path)

