"""Synthetic long-tailed dataset generation, vector augmentations, and CSV I/O.

Class-conditional geometry is a set of unit-covariance Gaussian blobs whose
means sit on a scaled random orthonormal frame, so pairwise mean distance is
controlled by a single separation knob. Labeled/unlabeled class sizes follow
the exponential long-tail rule with per-split imbalance ratios; the test split
is exactly balanced. Ground-truth labels of unlabeled samples are kept in a
sidecar visible only to evaluation oracles, never to training.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError
from .schema import bounded, check_fields
from .util import round_half_up

CSV_SPLITS = ("train", "test")
# Wider than either split name, so a longer value still fails the split check
# once loadtxt truncates it to this width.
_SPLIT_DTYPE = "U6"


@dataclass(frozen=True)
class DatasetSpec:
    num_classes: int = bounded(minimum=2)
    feature_dim: int = bounded(minimum=1)
    n1: int = bounded(minimum=1)  # largest labeled class size
    m1: int = bounded(minimum=0)  # largest unlabeled class size
    gamma_l: float = bounded(1.0, minimum=1)  # labeled imbalance ratio (head/tail)
    gamma_u: float = bounded(1.0, minimum=1)  # unlabeled imbalance ratio
    test_per_class: int = bounded(100, minimum=0)
    geometry_seed: int = bounded(0, minimum=0)
    sample_seed: int = bounded(1, minimum=0)
    separation: float = bounded(3.0, exclusiveMinimum=0)  # pairwise distance between class means

    __post_init__ = check_fields


@dataclass
class Split:
    """A dataset split as parallel arrays; y is -1 for unlabeled samples."""

    ids: np.ndarray  # (n,) int64, unique across the whole dataset
    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Dataset:
    labeled: Split
    unlabeled: Split
    test: Split
    num_classes: int  # K, as configured; never inferred from the labels present
    # Oracle-only fields: true labels / counts of the unlabeled split.
    unlabeled_oracle_y: np.ndarray | None = None
    true_unlabeled_counts: np.ndarray | None = None

    def labeled_class_counts(self) -> np.ndarray:
        return np.bincount(self.labeled.y, minlength=self.num_classes).astype(np.int64)


def longtail_counts(n1: int, gamma: float, num_classes: int) -> np.ndarray:
    """Exponentially decaying class sizes: count_k = round(n1 * gamma^(-(k-1)/(K-1))).

    Half-up rounding; counts are nonincreasing, counts[0] == n1 and
    counts[-1] == round(n1/gamma).
    """
    if n1 < 1 or gamma < 1.0 or num_classes < 2:
        raise ValueError("need n1 >= 1, gamma >= 1, num_classes >= 2")
    exponents = -np.arange(num_classes) / (num_classes - 1)
    raw = n1 * np.power(float(gamma), exponents)
    return np.array([round_half_up(v) for v in raw], dtype=np.int64)


def class_means(spec: DatasetSpec) -> np.ndarray:
    """Deterministic class means at pairwise distance `separation` (exact when K <= d)."""
    rng = np.random.default_rng(spec.geometry_seed)
    k, d = spec.num_classes, spec.feature_dim
    scale = spec.separation / np.sqrt(2.0)
    if k <= d:
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        return scale * q.T
    # More classes than dimensions: fall back to random directions of the same norm.
    dirs = rng.standard_normal((k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return scale * dirs


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Draw labeled/unlabeled/test splits from the spec's seeded generators.

    Labeled sizes follow longtail_counts(n1, gamma_l) with a floor of one
    sample per class; unlabeled sizes follow longtail_counts(m1, gamma_u)
    unclamped. The test split holds test_per_class samples for every class.
    """
    k = spec.num_classes
    labeled_counts = np.maximum(longtail_counts(spec.n1, spec.gamma_l, k), 1)
    if spec.m1 >= 1:
        unlabeled_counts = longtail_counts(spec.m1, spec.gamma_u, k)
    else:
        unlabeled_counts = np.zeros(k, dtype=np.int64)
    means = class_means(spec)
    rng = np.random.default_rng(spec.sample_seed)

    def draw(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for cls in range(k):
            n = int(counts[cls])
            if n:
                xs.append(means[cls] + rng.standard_normal((n, spec.feature_dim)))
                ys.append(np.full(n, cls, dtype=np.int64))
        if not xs:
            return np.zeros((0, spec.feature_dim)), np.zeros(0, dtype=np.int64)
        return np.concatenate(xs), np.concatenate(ys)

    lab_x, lab_y = draw(labeled_counts)
    unl_x, unl_true_y = draw(unlabeled_counts)
    test_counts = np.full(k, spec.test_per_class, dtype=np.int64)
    test_x, test_y = draw(test_counts)

    n_lab, n_unl = len(lab_y), len(unl_true_y)
    lab_ids = np.arange(n_lab, dtype=np.int64)
    unl_ids = np.arange(n_lab, n_lab + n_unl, dtype=np.int64)
    test_ids = np.arange(n_lab + n_unl, n_lab + n_unl + len(test_y), dtype=np.int64)

    return Dataset(
        labeled=Split(lab_ids, lab_x, lab_y),
        unlabeled=Split(unl_ids, unl_x, np.full(n_unl, -1, dtype=np.int64)),
        test=Split(test_ids, test_x, test_y),
        num_classes=k,
        unlabeled_oracle_y=unl_true_y,
        true_unlabeled_counts=np.bincount(unl_true_y, minlength=k).astype(np.int64),
    )


# ---------------------------------------------------------------------------
# Augmentations (vector analogues of weak/strong input perturbations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig:
    weak_noise_sigma: float = bounded(0.1, minimum=0)
    strong_noise_sigma: float = bounded(0.4, minimum=0)
    strong_dropout_prob: float = bounded(0.3, minimum=0, maximum=1)
    strong_scale_jitter: float = bounded(0.1, minimum=0, exclusiveMaximum=1)

    def __post_init__(self):
        check_fields(self)
        # ">=" rather than ">" so the all-zero identity configuration stays valid.
        if self.strong_noise_sigma < self.weak_noise_sigma:
            raise ValueError("strong noise must be at least as large as weak noise")


def weak_augment(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise of scale weak_noise_sigma; labels are never touched."""
    x = np.asarray(x, dtype=np.float64)
    return x + cfg.weak_noise_sigma * rng.standard_normal(x.shape)


def strong_augment(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Heavier noise, then per-coordinate dropout, then a global scale jitter.

    Accepts a single vector or a (n, d) batch; the jitter factor is drawn per
    sample.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x + cfg.strong_noise_sigma * rng.standard_normal(x.shape)
    keep = rng.random(x.shape) >= cfg.strong_dropout_prob
    out = out * keep
    j = cfg.strong_scale_jitter
    if x.ndim == 2:
        scale = rng.uniform(1.0 - j, 1.0 + j, size=x.shape[0])[:, None]
    else:
        scale = rng.uniform(1.0 - j, 1.0 + j)
    return out * scale


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _header(d: int) -> list[str]:
    return ["id", "split", "label"] + [f"f_{i}" for i in range(d)]


def save_dataset(ds: Dataset, csv_path, oracle_path=None) -> None:
    """Write `id,split,label,f_0..f_{d-1}` rows; floats use repr so they round-trip exactly.

    If oracle_path is given, true labels of unlabeled rows go there as
    `id,true_label` (evaluation-only sidecar).
    """
    d = ds.labeled.x.shape[1]
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(_header(d)) + "\r\n")  # csv.writer's line ending
        for split_name, split in (("train", ds.labeled), ("train", ds.unlabeled), ("test", ds.test)):
            rows = map(np.ndarray.tolist, split.x)  # row by row: x.tolist() would raise peak RSS
            fh.writelines(
                f"{i},{split_name},{label}," + ",".join(map(repr, row)) + "\r\n"
                for i, label, row in zip(split.ids.tolist(), split.y.tolist(), rows)
            )
    if oracle_path is not None and ds.unlabeled_oracle_y is not None:
        with open(oracle_path, "w", newline="") as fh:
            fh.write("id,true_label\r\n")
            fh.writelines(
                f"{i},{label}\r\n"
                for i, label in zip(ds.unlabeled.ids.tolist(), ds.unlabeled_oracle_y.tolist())
            )


def load_dataset(csv_path, oracle_path=None, *, num_classes: int) -> Dataset:
    """Parse a dataset CSV of num_classes classes into splits; label -1 marks unlabeled rows.

    The body is parsed in one np.loadtxt pass and checked as whole columns;
    a malformed file raises DatasetFormatError naming `<file>:<line>` of its
    first bad row (duplicate ids are reported without a line).
    """
    with open(csv_path, encoding="utf-8") as fh:
        lines = _text_lines(fh, csv_path)
        header = next(csv.reader(lines), None)
        if header is None:
            raise DatasetFormatError(f"{csv_path}: empty file, missing header")
        if len(header) < 4 or header[:3] != ["id", "split", "label"]:
            raise DatasetFormatError(f"{csv_path}: bad header {header[:3]}")
        d = len(header) - 3
        if header != _header(d):
            raise DatasetFormatError(f"{csv_path}: malformed feature columns in header")
        dtype = np.dtype(
            [("id", "i8"), ("split", _SPLIT_DTYPE), ("label", "i8"), ("x", "f8", (d,))]
        )
        rows = _read_rows(
            csv_path, lines, dtype, lambda rows: _dataset_checks(rows, num_classes),
            f"expected {d + 3} fields, got {{}}",
        )
    ids = rows["id"]
    sorted_ids = np.sort(ids)  # np.unique would load numpy.ma to ask if ids is masked
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise DatasetFormatError(f"{csv_path}: duplicate sample ids")
    split, label = rows["split"], rows["label"]
    train = split == "train"
    lab, unl = train & (label >= 0), train & (label < 0)

    def pick(mask: np.ndarray) -> Split:
        return Split(ids[mask], rows["x"][mask], label[mask])

    dataset = Dataset(pick(lab), pick(unl), pick(split == "test"), num_classes)
    if oracle_path is not None:
        oracle_ids, oracle_labels = load_oracle_labels(oracle_path, num_classes)
        order = np.argsort(oracle_ids)
        sorted_ids, unl_ids = oracle_ids[order], dataset.unlabeled.ids
        pos = np.searchsorted(sorted_ids, unl_ids)
        found = pos < len(sorted_ids)
        found[found] = sorted_ids[pos[found]] == unl_ids[found]
        if not found.all():
            missing = unl_ids[~found][:5].tolist()
            raise DatasetFormatError(f"{oracle_path}: no true label for unlabeled id(s) {missing}")
        truth = oracle_labels[order[pos]]
        dataset.unlabeled_oracle_y = truth
        dataset.true_unlabeled_counts = np.bincount(truth, minlength=num_classes).astype(np.int64)
    return dataset


def load_oracle_labels(path, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ids and their true labels; one row per id, each label in [0, num_classes)."""
    with open(path, encoding="utf-8") as fh:
        lines = _text_lines(fh, path)
        header = next(csv.reader(lines), None)
        if header != ["id", "true_label"]:
            raise DatasetFormatError(f"{path}: bad oracle header {header}")
        rows = _read_rows(
            path, lines, np.dtype([("id", "i8"), ("true_label", "i8")]),
            lambda rows: _oracle_checks(rows, num_classes),
            "expected 2 fields (id, true_label), got {}",
        )
    return rows["id"], rows["true_label"]


def _dataset_checks(rows: np.ndarray, num_classes: int):
    """(failing rows, message) per dataset row check, in the order a row's faults are reported.

    A message is a function of the failing row's record and its CSV fields.
    """
    split, label = rows["split"], rows["label"]
    yield ~np.isin(split, CSV_SPLITS), lambda row, fields: f"unknown split {fields[1]!r}"
    yield label < -1, lambda row, fields: "label must be >= -1"
    yield label >= num_classes, (
        lambda row, fields: f"label {row['label']} >= num_classes {num_classes}"
    )
    yield (split == "test") & (label < 0), lambda row, fields: "test rows must be labeled"
    yield ~np.isfinite(rows["x"]).all(axis=1), lambda row, fields: "non-finite feature"


def _oracle_checks(rows: np.ndarray, num_classes: int):
    """(failing rows, message) per oracle row check; a repeated id fails where it repeats."""
    label = rows["true_label"]
    yield (label < 0) | (label >= num_classes), (
        lambda row, fields: f"true label {row['true_label']} outside [0, {num_classes})"
    )
    repeated = np.ones(len(rows), dtype=bool)
    repeated[np.unique(rows["id"], return_index=True)[1]] = False
    yield repeated, lambda row, fields: f"duplicate id {row['id']}"


def _text_lines(fh, path):
    """The lines of a file opened as UTF-8 text, LF, CRLF and CR ends all read as LF.

    Bytes that are not UTF-8 raise DatasetFormatError.
    """
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc})") from None


def _parse(lines, dtype: np.dtype) -> np.ndarray:
    """Structured rows of CSV lines, parsed in one np.loadtxt pass.

    Fields may be quoted and padded with whitespace; empty lines are skipped.
    A field that does not convert raises ValueError, and so does any warning
    numpy gives on the way: numpy 1.x reads an integer written as a float
    (`1.0`) with only a DeprecationWarning, and an input with no rows warns.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(
                lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        except Warning as exc:
            raise ValueError(str(exc)) from None


def _read_rows(path, lines, dtype: np.dtype, checks, fields_message: str) -> np.ndarray:
    """The rows of the rest of a CSV file, each of which passes every check.

    The whole body is parsed and checked at once, streamed from `lines`. Only
    when that fails does _locate read the file again, one line at a time, to
    name the first bad line.
    """
    nonempty = 0

    def counted():
        nonlocal nonempty
        for line in lines:
            nonempty += line != "\n"
            yield line

    try:
        rows = _parse(counted(), dtype)
    except DatasetFormatError:  # not UTF-8
        raise
    except ValueError:
        rows = None if nonempty else np.zeros(0, dtype)
    # loadtxt skips empty lines; fewer rows than the others means it skipped or joined some
    if rows is None or len(rows) != nonempty or any(bad.any() for bad, _ in checks(rows)):
        _locate(path, dtype, checks, fields_message)
    return rows


def _locate(path, dtype: np.dtype, checks, fields_message: str):
    """Raise DatasetFormatError at the first bad line of a CSV file's body.

    Each non-empty line is parsed on its own by the same parser as the whole
    body, up to the first line that does not parse. The row checks then run
    over the rows before it, so a row fault reports the earliest line either
    pass finds.
    """
    width = sum(int(np.prod(dtype[name].shape)) for name in dtype.names)
    parsed, fields_of, linenos, failure = [], [], [], None
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(_text_lines(fh, path), start=1)
        next(lines)  # the header
        for lineno, line in lines:
            fields = next(csv.reader([line]), [])
            if not fields:
                continue
            if len(fields) != width:
                failure = (lineno, fields_message.format(len(fields)))
                break
            try:
                parsed.append(_parse([line], dtype))
            except ValueError as exc:
                failure = (lineno, str(exc).split(" at row ")[0])
                break
            fields_of.append(fields)
            linenos.append(lineno)
    rows = np.concatenate(parsed) if parsed else np.zeros(0, dtype)
    faults = [(np.flatnonzero(bad), message) for bad, message in checks(rows)]
    first = min((bad[0] for bad, _ in faults if len(bad)), default=None)
    if first is not None:
        message = next(m for bad, m in faults if len(bad) and bad[0] == first)
        raise DatasetFormatError(
            f"{path}:{linenos[first]}: {message(rows[first], fields_of[first])}"
        )
    if failure is not None:
        raise DatasetFormatError(f"{path}:{failure[0]}: {failure[1]}")
    raise DatasetFormatError(f"{path}: rows do not parse as a whole (a quoted field spanning lines?)")
