"""Synthetic long-tailed dataset generation, vector augmentations, and CSV I/O.

Class-conditional geometry is a set of unit-covariance Gaussian blobs whose
means sit on a scaled random orthonormal frame, so pairwise mean distance is
controlled by a single separation knob. Labeled/unlabeled class sizes follow
the exponential long-tail rule with per-split imbalance ratios; the test split
is exactly balanced. Ground-truth labels of unlabeled samples are kept in a
sidecar visible only to evaluation oracles, never to training.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError
from .util import round_half_up

CSV_SPLITS = ("train", "test")


@dataclass(frozen=True)
class DatasetSpec:
    num_classes: int
    feature_dim: int
    n1: int  # largest labeled class size
    m1: int  # largest unlabeled class size
    gamma_l: float = 1.0  # labeled imbalance ratio (head/tail)
    gamma_u: float = 1.0  # unlabeled imbalance ratio
    test_per_class: int = 100
    geometry_seed: int = 0
    sample_seed: int = 1
    separation: float = 3.0  # pairwise distance between class means

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.n1 < 1 or self.m1 < 0:
            raise ValueError("n1 must be >= 1 and m1 >= 0")
        if self.gamma_l < 1.0 or self.gamma_u < 1.0:
            raise ValueError("imbalance ratios must be >= 1")
        if self.test_per_class < 0:
            raise ValueError("test_per_class must be >= 0")


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
    # Oracle-only fields: true labels / counts of the unlabeled split.
    unlabeled_oracle_y: np.ndarray | None = None
    true_unlabeled_counts: np.ndarray | None = None
    spec: DatasetSpec | None = None

    @property
    def num_classes(self) -> int:
        if self.spec is not None:
            return self.spec.num_classes
        labels = [s.y[s.y >= 0] for s in (self.labeled, self.test)]
        return int(max(l.max() for l in labels if len(l))) + 1

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
        unlabeled_oracle_y=unl_true_y,
        true_unlabeled_counts=np.bincount(unl_true_y, minlength=k).astype(np.int64),
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Augmentations (vector analogues of weak/strong input perturbations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig:
    weak_noise_sigma: float = 0.1
    strong_noise_sigma: float = 0.4
    strong_dropout_prob: float = 0.3
    strong_scale_jitter: float = 0.1

    def __post_init__(self):
        if self.weak_noise_sigma < 0 or self.strong_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        # ">=" rather than ">" so the all-zero identity configuration stays valid.
        if self.strong_noise_sigma < self.weak_noise_sigma:
            raise ValueError("strong noise must be at least as large as weak noise")
        if not 0.0 <= self.strong_dropout_prob <= 1.0:
            raise ValueError("dropout probability must lie in [0, 1]")
        if not 0.0 <= self.strong_scale_jitter < 1.0:
            raise ValueError("scale jitter must lie in [0, 1)")


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
        w = csv.writer(fh)
        w.writerow(_header(d))
        for split_name, split in (("train", ds.labeled), ("train", ds.unlabeled), ("test", ds.test)):
            for i in range(len(split)):
                row = [int(split.ids[i]), split_name, int(split.y[i])]
                row += [repr(float(v)) for v in split.x[i]]
                w.writerow(row)
    if oracle_path is not None and ds.unlabeled_oracle_y is not None:
        with open(oracle_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "true_label"])
            for i in range(len(ds.unlabeled)):
                w.writerow([int(ds.unlabeled.ids[i]), int(ds.unlabeled_oracle_y[i])])


def load_dataset(csv_path, oracle_path=None, num_classes: int | None = None) -> Dataset:
    """Parse a dataset CSV back into splits; label -1 marks unlabeled train rows."""
    ids = {"train": [], "test": []}
    xs = {"train": [], "test": []}
    ys = {"train": [], "test": []}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{csv_path}: empty file, missing header") from None
        if len(header) < 4 or header[:3] != ["id", "split", "label"]:
            raise DatasetFormatError(f"{csv_path}: bad header {header[:3]}")
        d = len(header) - 3
        if header != _header(d):
            raise DatasetFormatError(f"{csv_path}: malformed feature columns in header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 3:
                raise DatasetFormatError(
                    f"{csv_path}:{lineno}: expected {d + 3} fields, got {len(row)}"
                )
            try:
                sid = int(row[0])
                label = int(row[2])
                feats = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise DatasetFormatError(f"{csv_path}:{lineno}: {exc}") from None
            split = row[1]
            if split not in CSV_SPLITS:
                raise DatasetFormatError(f"{csv_path}:{lineno}: unknown split {split!r}")
            if label < -1:
                raise DatasetFormatError(f"{csv_path}:{lineno}: label must be >= -1")
            if num_classes is not None and label >= num_classes:
                raise DatasetFormatError(
                    f"{csv_path}:{lineno}: label {label} >= num_classes {num_classes}"
                )
            if split == "test" and label < 0:
                raise DatasetFormatError(f"{csv_path}:{lineno}: test rows must be labeled")
            ids[split].append(sid)
            xs[split].append(feats)
            ys[split].append(label)

    def pack(split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if ids[split]:
            return (
                np.array(ids[split], dtype=np.int64),
                np.array(xs[split], dtype=np.float64),
                np.array(ys[split], dtype=np.int64),
            )
        return np.zeros(0, dtype=np.int64), np.zeros((0, d)), np.zeros(0, dtype=np.int64)

    tr_ids, tr_x, tr_y = pack("train")
    te_ids, te_x, te_y = pack("test")
    if not (np.isfinite(tr_x).all() and np.isfinite(te_x).all()):
        with open(csv_path, newline="") as fh:  # failure path only: locate the first bad row
            rows = enumerate(csv.reader(fh), start=1)
            next(rows)  # header
            bad = next(
                n for n, r in rows if r and not np.isfinite(np.array(r[3:], dtype=float)).all()
            )
        raise DatasetFormatError(f"{csv_path}:{bad}: non-finite feature")
    all_ids = np.concatenate([tr_ids, te_ids])
    if len(np.unique(all_ids)) != len(all_ids):
        raise DatasetFormatError(f"{csv_path}: duplicate sample ids")
    lab = tr_y >= 0
    dataset = Dataset(
        labeled=Split(tr_ids[lab], tr_x[lab], tr_y[lab]),
        unlabeled=Split(tr_ids[~lab], tr_x[~lab], tr_y[~lab]),
        test=Split(te_ids, te_x, te_y),
    )
    if oracle_path is not None:
        k = num_classes if num_classes is not None else dataset.num_classes
        oracle = load_oracle_labels(oracle_path, k)
        missing = [int(i) for i in dataset.unlabeled.ids if int(i) not in oracle]
        if missing:
            raise DatasetFormatError(
                f"{oracle_path}: no true label for unlabeled id(s) {missing[:5]}"
            )
        truth = np.array([oracle[int(i)] for i in dataset.unlabeled.ids], dtype=np.int64)
        dataset.unlabeled_oracle_y = truth
        dataset.true_unlabeled_counts = np.bincount(truth, minlength=k).astype(np.int64)
    return dataset


def load_oracle_labels(path, num_classes: int) -> dict[int, int]:
    """Map sample id -> true label; one row per id, each label in [0, num_classes)."""
    labels: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "true_label"]:
            raise DatasetFormatError(f"{path}: bad oracle header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected 2 fields (id, true_label), got {len(row)}"
                )
            try:
                sid, label = int(row[0]), int(row[1])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= label < num_classes:
                raise DatasetFormatError(
                    f"{path}:{lineno}: true label {label} outside [0, {num_classes})"
                )
            if sid in labels:
                raise DatasetFormatError(f"{path}:{lineno}: duplicate id {sid}")
            labels[sid] = label
    return labels
