"""Experiment harness: generate / train / sweep / report / export-embeddings.

Exit codes: 0 success, 2 config or input error, 3 diverged training,
4 partial sweep failure. Every emitted file is re-parseable by the package's
own loaders, and each run directory stores the resolved config with its hash
plus the hash of the dataset it consumed, so reports can refuse to aggregate
runs from different datasets.
"""

import argparse
import copy
import csv
import json
import os
import sys
import zipfile

import numpy as np

from . import config as cfgmod
from .data import generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, DatasetFormatError, TrainingDivergedError
from .numerics import ModelParams, encoder_forward, named_arrays
from .trainer import fit
from .util import canonical_json, sha256_file

JSONL_KEYS = ("epoch", "acc", "avg_class_recall", "group_acc", "bank_entropy", "mask_rate")
LAST_K_EPOCHS = 20  # headline metrics average the last 20 epoch evaluations


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tailssl", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="generate dataset files from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output dir (default: config data_dir)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one run from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, default=None, help="override the config's first seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run one training per sweep value per seed")
    p.add_argument("--config", required=True, help="sweep config path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="consolidate finished run directories")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export-embeddings", help="write encoder features of a split to CSV")
    p.add_argument("--run", required=True, help="finished run directory")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--split", choices=("test", "labeled", "unlabeled"), default="test")
    p.add_argument("--raw-params", action="store_true", help="use raw instead of EMA params")
    p.set_defaults(func=cmd_export_embeddings)
    return parser


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def dataset_paths(data_dir: str) -> dict[str, str]:
    return {
        "csv": os.path.join(data_dir, "dataset.csv"),
        "oracle": os.path.join(data_dir, "dataset.oracle.csv"),
        "manifest": os.path.join(data_dir, "manifest.json"),
    }


def _resolve_data_dir(cfg: dict, config_path: str) -> str:
    if "data_dir_resolved" in cfg:  # self-contained resolved configs (run dirs)
        return cfg["data_dir_resolved"]
    data_dir = cfg["data_dir"]
    if not os.path.isabs(data_dir):
        data_dir = os.path.join(os.path.dirname(os.path.abspath(config_path)), data_dir)
    return data_dir


def cmd_generate(args) -> int:
    cfg = cfgmod.load_run_config(args.config)
    out_dir = args.out or _resolve_data_dir(cfg, args.config)
    os.makedirs(out_dir, exist_ok=True)
    spec = cfgmod.build_dataset_spec(cfg)
    ds = generate_dataset(spec)
    paths = dataset_paths(out_dir)
    save_dataset(ds, paths["csv"], paths["oracle"])
    manifest = {
        "dataset": cfg["dataset"],
        "labeled_counts": ds.labeled_class_counts().tolist(),
        "true_unlabeled_counts": ds.true_unlabeled_counts.tolist(),
        "rows": len(ds.labeled) + len(ds.unlabeled) + len(ds.test),
        "dataset_sha256": sha256_file(paths["csv"]),
    }
    with open(paths["manifest"], "w") as fh:
        fh.write(canonical_json(manifest) + "\n")
    print(f"wrote {paths['csv']} ({manifest['rows']} rows)")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_configured_dataset(cfg: dict, config_path: str):
    paths = dataset_paths(_resolve_data_dir(cfg, config_path))
    for key in ("csv", "manifest"):
        if not os.path.exists(paths[key]):
            raise ConfigError(f"dataset file missing: {paths[key]} (run `tailssl generate` first)")
    # generate writes the manifest last, so a manifest that parses marks a finished dataset
    manifest = cfgmod.read_json(paths["manifest"], f"cannot read {paths['manifest']}")
    if not isinstance(manifest, dict):
        raise ConfigError(f"{paths['manifest']}: not a tailssl dataset manifest (not an object)")
    oracle = paths["oracle"] if os.path.exists(paths["oracle"]) else None
    ds = load_dataset(paths["csv"], oracle, num_classes=cfg["dataset"]["num_classes"])
    return ds, sha256_file(paths["csv"])


def run_training(cfg: dict, run_dir: str, seed: int, config_path: str) -> dict:
    """Train one seed of a resolved config into run_dir; returns the report dict."""
    data_dir = _resolve_data_dir(cfg, config_path)
    ds, dataset_hash = _load_configured_dataset(cfg, config_path)
    train_cfg = cfgmod.build_train_config(cfg, seed)
    csv_path = dataset_paths(data_dir)["csv"]
    if len(ds.labeled) == 0:
        raise ConfigError(f"{csv_path}: no labeled train rows; training needs at least one")
    if train_cfg.mode in ("fixmatch", "bmb") and len(ds.unlabeled) == 0:
        raise ConfigError(f"{csv_path}: no unlabeled train rows; mode {train_cfg.mode} needs some")
    os.makedirs(run_dir, exist_ok=True)

    state, log = fit(ds, train_cfg)

    resolved = copy.deepcopy(cfg)
    resolved.pop("data_dir_resolved", None)
    resolved["resolved_seed"] = seed
    chash = cfgmod.config_hash(resolved)  # hash excludes machine-local absolute paths
    stored = {**resolved, "config_hash": chash, "dataset_hash": dataset_hash,
              "data_dir_resolved": data_dir}
    with open(os.path.join(run_dir, "config.resolved.json"), "w") as fh:
        fh.write(canonical_json(stored) + "\n")

    with open(os.path.join(run_dir, "epochs.jsonl"), "w") as fh:
        for record in log:
            line = {k: record[k] for k in JSONL_KEYS}
            # empty shot groups or an empty test split yield NaN; JSONL must stay strict
            line["acc"] = _nan_to_none(line["acc"])
            line["avg_class_recall"] = _nan_to_none(line["avg_class_recall"])
            line["group_acc"] = {g: _nan_to_none(v) for g, v in line["group_acc"].items()}
            fh.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")

    _write_snapshots(run_dir, log, ds)
    report = build_report(cfg["name"], seed, chash, dataset_hash, train_cfg.mode, log)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        fh.write(canonical_json(report) + "\n")
    save_model(os.path.join(run_dir, "model.npz"), state.params, state.ema.params)
    return report


def cmd_train(args) -> int:
    cfg = cfgmod.load_run_config(args.config)
    seed = args.seed if args.seed is not None else cfg["seeds"][0]
    report = run_training(cfg, args.out, seed, args.config)
    head = _headline(report)
    print(
        f"run {cfg['name']} seed {seed}: top1={_fmt(head['top1'])} "
        f"avg_recall={_fmt(head['avg_class_recall'])}"
    )
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _write_snapshots(run_dir: str, log: list[dict], ds) -> None:
    with open(os.path.join(run_dir, "bank_snapshots.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "class", "count"])
        for record in log:
            for k, c in enumerate(record["bank_counts"]):
                w.writerow([record["epoch"], k, c])
    true_counts = ds.true_unlabeled_counts
    with open(os.path.join(run_dir, "estimator_snapshots.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "class", "estimated_count", "true_count"])
        for record in log:
            for k, c in enumerate(record["estimated_counts"]):
                truth = int(true_counts[k]) if true_counts is not None else ""
                w.writerow([record["epoch"], k, c, truth])


def _nan_to_none(value):
    if value is None or (isinstance(value, float) and value != value):
        return None
    return value


def build_report(name, seed, config_hash, dataset_hash, mode, log) -> dict:
    """Final + trailing-window metrics; the window mean is the headline number."""
    last = log[-1] if log else None
    window = log[-LAST_K_EPOCHS:]

    def window_mean(getter):
        vals = [getter(r) for r in window]
        vals = [v for v in vals if _nan_to_none(v) is not None]
        return float(np.mean(vals)) if vals else None

    report = {
        "name": name,
        "seed": seed,
        "config_hash": config_hash,
        "dataset_hash": dataset_hash,
        "mode": mode,
        "epochs_run": len(log),
        "final": None,
        "last20_mean": None,
    }
    if last is not None:
        report["final"] = {
            "acc": _nan_to_none(last["acc"]),
            "avg_class_recall": _nan_to_none(last["avg_class_recall"]),
            "group_acc": {g: _nan_to_none(v) for g, v in last["group_acc"].items()},
            "per_class_recall": [_nan_to_none(v) for v in last["per_class_recall"]],
            "confusion": last["confusion"],
            "bank_entropy": _nan_to_none(last["bank_entropy"]),
            "mask_rate": last["mask_rate"],
            "estimation_error": _nan_to_none(last.get("estimation_error")),
        }
        report["last20_mean"] = {
            "top1": window_mean(lambda r: r["acc"]),
            "avg_class_recall": window_mean(lambda r: r["avg_class_recall"]),
            "group_acc": {
                g: window_mean(lambda r, g=g: r["group_acc"][g]) for g in ("many", "medium", "few")
            },
            "epochs_averaged": len(window),
        }
    return report


def _headline(report: dict) -> dict:
    """Window means and final bank entropy of a report; None where the run has
    none (no epochs, or no test rows), which csv writes as an empty cell."""
    mean = report["last20_mean"] or {"group_acc": {}}
    groups = mean["group_acc"]
    return {
        "top1": mean.get("top1"),
        "avg_class_recall": mean.get("avg_class_recall"),
        "many_acc": groups.get("many"),
        "medium_acc": groups.get("medium"),
        "few_acc": groups.get("few"),
        "bank_entropy": (report["final"] or {}).get("bank_entropy"),
    }


def save_model(path, params: ModelParams, ema_params: ModelParams) -> None:
    arrays = {f"params/{k}": v for k, v in named_arrays(params)}
    arrays.update({f"ema/{k}": v for k, v in named_arrays(ema_params)})
    np.savez(path, **arrays)


def load_model(path, hidden_sizes, input_dim, num_classes) -> tuple[ModelParams, ModelParams]:
    """Raw and EMA params of the config's shape, filled from the arrays save_model wrote.

    A file that is not such an archive, or does not fit the config, raises ConfigError.
    """
    dims = (input_dim, *hidden_sizes)
    raw, ema = ModelParams.zeros(dims, num_classes), ModelParams.zeros(dims, num_classes)
    views = {f"{prefix}/{name}": view for prefix, model in (("params", raw), ("ema", ema))
             for name, view in named_arrays(model)}
    try:
        with open(path, "rb") as fh:
            loaded = np.load(fh)
            if isinstance(loaded, np.ndarray):
                raise ValueError("a single .npy array, not an .npz archive")
            arrays = {key: loaded[key] for key in loaded.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a saved model ({exc})") from None
    for key, view in views.items():
        array = arrays.get(key)
        if array is None or array.shape != view.shape:
            found = "is missing" if array is None else f"has shape {array.shape}"
            raise ConfigError(f"{path}: {key} {found}, the config expects {view.shape}")
        view[...] = array
    extra = sorted(set(arrays) - set(views))
    if extra:
        raise ConfigError(f"{path}: {extra[0]} is not part of the configured model")
    return raw, ema


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    sweep = cfgmod.load_sweep_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    parameter, values, base = sweep["parameter"], sweep["values"], sweep["base"]
    rows = []
    failures = []
    for value in values:
        for seed in base["seeds"]:
            cell = copy.deepcopy(base)
            cell["train"][parameter] = value
            cell = cfgmod.validate_run_config(cell)
            run_dir = os.path.join(args.out, f"{parameter}-{value}", f"seed-{seed}")
            try:
                report = run_training(cell, run_dir, seed, args.config)
            except (ConfigError, DatasetFormatError, TrainingDivergedError) as exc:
                failures.append({"value": value, "seed": seed, "error": str(exc)})
                continue
            rows.append({"param_value": value, "seed": seed, **_headline(report)})
    with open(os.path.join(args.out, "aggregate.csv"), "w", newline="") as fh:
        w = csv.DictWriter(
            fh,
            fieldnames=["param_value", "seed", "top1", "avg_class_recall", "few_acc", "bank_entropy"],
            extrasaction="ignore",
        )
        w.writeheader()
        w.writerows(rows)
    manifest = {"parameter": parameter, "values": values, "failed_cells": failures}
    with open(os.path.join(args.out, "sweep_manifest.json"), "w") as fh:
        fh.write(canonical_json(manifest) + "\n")
    if failures:
        print(f"{len(failures)} sweep cell(s) failed; see sweep_manifest.json", file=sys.stderr)
        return 4
    print(f"sweep over {parameter}: {len(rows)} runs -> {args.out}/aggregate.csv")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _read_run_file(path: str, kind: str, keys, unreadable: str) -> dict:
    """A JSON run file that must be an object holding every dotted key path in keys."""
    data = cfgmod.read_json(path, unreadable)
    for key in keys:
        node = data
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"{path}: not a tailssl {kind} (missing '{key}')")
            node = node[part]
    return data


def _read_run(run_dir: str) -> dict:
    missing = f"{run_dir}: missing run outputs"
    report = _read_run_file(
        os.path.join(run_dir, "report.json"),
        "report",
        ("name", "seed", "mode", "dataset_hash", "final", "last20_mean"),
        missing,
    )
    resolved = _read_run_file(
        os.path.join(run_dir, "config.resolved.json"),
        "resolved config",
        ("train.beta", "train.lambda_sampling", "train.alpha", "train.memory_content"),
        missing,
    )
    snapshots = _read_bank_snapshots(os.path.join(run_dir, "bank_snapshots.csv"))
    return {"report": report, "config": resolved, "bank_snapshots": snapshots}


def _read_bank_snapshots(path: str) -> list[dict]:
    """The rows of a run's bank_snapshots.csv, whose header must hold epoch, class and count."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    missing = [key for key in ("epoch", "class", "count") if key not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path}: not a tailssl bank snapshot (missing column '{missing[0]}')")
    return rows


def cmd_report(args) -> int:
    runs = [_read_run(d) for d in args.runs]
    hashes = {r["report"]["dataset_hash"] for r in runs}
    if len(hashes) > 1:
        raise ConfigError(f"refusing to aggregate runs with mismatched dataset hashes: {hashes}")
    os.makedirs(args.out, exist_ok=True)

    with open(os.path.join(args.out, "per_class_recall.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "seed", "class", "recall"])
        for r in runs:
            rep = r["report"]
            for k, rec in enumerate((rep["final"] or {}).get("per_class_recall", [])):
                w.writerow([rep["name"], rep["seed"], k, "" if rec is None else rec])

    with open(os.path.join(args.out, "bank_distribution.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "seed", "epoch", "class", "count"])
        for r in runs:
            for row in r["bank_snapshots"]:
                w.writerow(
                    [r["report"]["name"], r["report"]["seed"], row["epoch"], row["class"], row["count"]]
                )

    with open(os.path.join(args.out, "accuracy_table.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "run", "seed", "mode", "beta", "lambda_sampling", "alpha", "memory_content",
                "top1", "avg_class_recall", "many_acc", "medium_acc", "few_acc", "bank_entropy",
            ]
        )
        for r in runs:
            rep, train = r["report"], r["config"]["train"]
            w.writerow(
                [
                    rep["name"], rep["seed"], rep["mode"], train["beta"], train["lambda_sampling"],
                    train["alpha"], train["memory_content"], *_headline(rep).values(),
                ]
            )
    print(f"wrote report tables for {len(runs)} run(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# export-embeddings
# ---------------------------------------------------------------------------


def cmd_export_embeddings(args) -> int:
    resolved_path = os.path.join(args.run, "config.resolved.json")
    cfg = _read_run_file(
        resolved_path,
        "resolved config",
        ("data_dir", "dataset.feature_dim", "dataset.num_classes", "train.hidden_sizes"),
        f"{args.run}: not a finished run directory",
    )
    ds, _ = _load_configured_dataset(cfg, resolved_path)
    params, ema = load_model(
        os.path.join(args.run, "model.npz"),
        cfg["train"]["hidden_sizes"],
        cfg["dataset"]["feature_dim"],
        cfg["dataset"]["num_classes"],
    )
    use = params if args.raw_params else ema
    split = {"test": ds.test, "labeled": ds.labeled, "unlabeled": ds.unlabeled}[args.split]
    feats, _ = encoder_forward(use, split.x)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"] + [f"feat_{i}" for i in range(feats.shape[1])])
        for i in range(len(split)):
            w.writerow(
                [int(split.ids[i]), int(split.y[i])] + [repr(float(v)) for v in feats[i]]
            )
    print(f"wrote {len(split)} embeddings to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
