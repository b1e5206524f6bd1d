"""Experiment harness: generate / train / sweep / report / export-embeddings.

Exit codes: 0 success, 2 config or input error or out of memory, 3 diverged
training, 4 partial sweep failure. Every emitted file is re-parseable by the
package's own loaders, and each run directory stores the resolved config with
its hash plus the hash of the dataset it consumed, so reports can refuse to
aggregate runs from different datasets.
"""

import argparse
import csv
import json
import os
import sys
import zipfile

import numpy as np

from . import config as cfgmod
from .data import generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, DatasetFormatError, TrainingDivergedError
from .metrics import GROUPS
from .numerics import ModelParams, encoder_forward, named_arrays
from .trainer import fit
from .util import canonical_json, sha256_file

# The fields of an epoch record that epochs.jsonl keeps, and that report.json's `final` keeps
JSONL_KEYS = ("epoch", "acc", "avg_class_recall", "group_acc", "bank_entropy", "mask_rate")
FINAL_KEYS = ("acc", "avg_class_recall", "group_acc", "per_class_recall", "confusion",
              "bank_entropy", "mask_rate", "estimation_error")
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's allocation errors say what failed
        print(f"error: out of memory{detail}", file=sys.stderr)
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
    data_dir = cfg["data_dir"]
    if not os.path.isabs(data_dir):
        data_dir = os.path.join(os.path.dirname(os.path.abspath(config_path)), data_dir)
    return data_dir


def _record(properties: dict, nullable=False) -> dict:
    """The schema of a JSON object (or null, if nullable) that requires every field it declares."""
    return {"type": ["object", "null"] if nullable else "object", "required": list(properties),
            "properties": properties}


_COUNTS = {"type": "array", "items": {"type": "integer", "minimum": 0}}

# The manifest.json that cmd_generate writes last, once the dataset files are complete.
MANIFEST_SCHEMA = {"$schema": "https://json-schema.org/draft/2020-12/schema", **_record({
    "dataset": cfgmod.RESOLVED_SCHEMA["properties"]["dataset"],
    "labeled_counts": _COUNTS,
    "true_unlabeled_counts": _COUNTS,
    "rows": {"type": "integer", "minimum": 0},
    "dataset_sha256": {"type": "string"},
})}


def cmd_generate(args) -> int:
    cfg = cfgmod.load_run_config(args.config)
    spec = cfgmod.build_dataset_spec(cfg)
    out_dir = args.out or _resolve_data_dir(cfg, args.config)
    os.makedirs(out_dir, exist_ok=True)
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


def _load_configured_dataset(cfg: dict, paths: dict[str, str]):
    for key in ("csv", "manifest"):
        if not os.path.exists(paths[key]):
            raise ConfigError(f"dataset file missing: {paths[key]} (run `tailssl generate` first)")
    # generate writes the manifest last, so a manifest that checks marks a finished dataset
    manifest = _read_run_file(
        paths["manifest"], MANIFEST_SCHEMA, "dataset manifest", f"cannot read {paths['manifest']}"
    )
    oracle = paths["oracle"] if os.path.exists(paths["oracle"]) else None
    ds = load_dataset(paths["csv"], oracle, num_classes=cfg["dataset"]["num_classes"])
    d = ds.test.x.shape[1]
    if d != cfg["dataset"]["feature_dim"]:
        raise ConfigError(
            f"{paths['csv']}: {d} feature columns, the config has feature_dim "
            f"{cfg['dataset']['feature_dim']}"
        )
    return ds, sha256_file(paths["csv"]), manifest


def run_training(cfg: dict, run_dir: str, seed: int, config_path: str) -> dict:
    """Train one seed of a resolved config into run_dir; returns the report dict."""
    data_dir = _resolve_data_dir(cfg, config_path)
    paths = dataset_paths(data_dir)
    ds, dataset_hash, manifest = _load_configured_dataset(cfg, paths)
    train_cfg = cfgmod.build_train_config(cfg, seed)
    csv_path = paths["csv"]
    if len(ds.labeled) == 0:
        raise ConfigError(f"{csv_path}: no labeled train rows; training needs at least one")
    if train_cfg.mode in ("fixmatch", "bmb") and len(ds.unlabeled) == 0:
        raise ConfigError(f"{csv_path}: no unlabeled train rows; mode {train_cfg.mode} needs some")
    for key, generated in manifest["dataset"].items():  # the same fields, in sorted order
        if cfg["dataset"][key] != generated:
            raise ConfigError(f"{paths['manifest']}: generated with dataset {key} {generated}, "
                              f"the config has {cfg['dataset'][key]}")
    if dataset_hash != manifest["dataset_sha256"]:
        raise ConfigError(f"{csv_path}: hash {dataset_hash} differs from manifest.json's "
                          f"dataset_sha256 {manifest['dataset_sha256']}")
    os.makedirs(run_dir, exist_ok=True)

    state, log = fit(ds, train_cfg)

    resolved = {**cfg, "resolved_seed": seed}
    chash = cfgmod.config_hash(resolved)  # hash excludes machine-local absolute paths
    stored = {**resolved, "config_hash": chash, "dataset_hash": dataset_hash,
              "data_dir_resolved": data_dir}
    with open(os.path.join(run_dir, "config.resolved.json"), "w") as fh:
        fh.write(canonical_json(stored) + "\n")

    with open(os.path.join(run_dir, "epochs.jsonl"), "w") as fh:
        for record in log:
            line = _nan_to_null({k: record[k] for k in JSONL_KEYS})
            fh.write(json.dumps(line, sort_keys=True, allow_nan=False) + "\n")

    _write_snapshots(run_dir, log, ds)
    report = build_report(cfg["name"], seed, chash, dataset_hash, train_cfg.mode, log)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        fh.write(canonical_json(report) + "\n")
    save_model(os.path.join(run_dir, "model.npz"), state.params, state.ema)
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


def _write_csv(path: str, header, rows) -> None:
    """A CSV file of a header row and rows; a None cell is written empty."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_snapshots(run_dir: str, log: list[dict], ds) -> None:
    _write_csv(
        os.path.join(run_dir, "bank_snapshots.csv"), ["epoch", "class", "count"],
        ([r["epoch"], k, c] for r in log for k, c in enumerate(r["bank_counts"])),
    )
    truth = ds.true_unlabeled_counts
    _write_csv(
        os.path.join(run_dir, "estimator_snapshots.csv"),
        ["epoch", "class", "estimated_count", "true_count"],
        ([r["epoch"], k, c, None if truth is None else int(truth[k])]
         for r in log for k, c in enumerate(r["estimated_counts"])),
    )


def _nan_to_null(value):
    """value with every NaN in it made None, which JSON writes as null: an empty test
    split or shot group has no accuracy, and JSON has no NaN."""
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nan_to_null(v) for v in value]
    return value


def build_report(name, seed, config_hash, dataset_hash, mode, log) -> dict:
    """Final + trailing-window metrics; the window mean is the headline number."""
    window = _nan_to_null(log[-LAST_K_EPOCHS:])

    def window_mean(key, group=None):
        vals = [r[key] if group is None else r[key][group] for r in window]
        vals = [v for v in vals if v is not None]
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
    if window:
        report["final"] = {k: window[-1].get(k) for k in FINAL_KEYS}
        report["last20_mean"] = {
            "top1": window_mean("acc"),
            "avg_class_recall": window_mean("avg_class_recall"),
            "group_acc": {g: window_mean("group_acc", g) for g in GROUPS},
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


# The report tables' headline columns, named once in _headline; the sweep aggregates a subset
HEADLINE_KEYS = tuple(_headline({"last20_mean": None, "final": None}))
AGGREGATE_KEYS = tuple(k for k in HEADLINE_KEYS if k not in ("many_acc", "medium_acc"))


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
    # zipfile raises RuntimeError for an entry flagged encrypted, NotImplementedError
    # for an unknown compression method
    except (OSError, EOFError, ValueError, RuntimeError, NotImplementedError,
            zipfile.BadZipFile) as exc:
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
    parameter, values = sweep["parameter"], sweep["values"]
    rows = []
    failures = []
    for value, cell in zip(values, sweep["cells"]):
        for seed in cell["seeds"]:
            run_dir = os.path.join(args.out, f"{parameter}-{value}", f"seed-{seed}")
            try:
                head = _headline(run_training(cell, run_dir, seed, sweep["base_path"]))
            except (ConfigError, DatasetFormatError, TrainingDivergedError) as exc:
                failures.append({"value": value, "seed": seed, "error": str(exc)})
                continue
            rows.append([value, seed, *(head[k] for k in AGGREGATE_KEYS)])
    _write_csv(os.path.join(args.out, "aggregate.csv"), ["param_value", "seed", *AGGREGATE_KEYS],
               rows)
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


_NUMBER_OR_NULL = {"type": ["number", "null"]}

# The fields of a build_report dict that `report` reads.
REPORT_SCHEMA = {"$schema": "https://json-schema.org/draft/2020-12/schema", **_record({
    "name": {"type": "string"},
    "seed": {"type": "integer"},
    "mode": {"type": "string"},
    "dataset_hash": {"type": "string"},
    "final": _record({
        "per_class_recall": {"type": "array", "items": _NUMBER_OR_NULL},
        "bank_entropy": _NUMBER_OR_NULL,
    }, nullable=True),
    "last20_mean": _record({
        "top1": _NUMBER_OR_NULL,
        "avg_class_recall": _NUMBER_OR_NULL,
        "group_acc": _record({g: _NUMBER_OR_NULL for g in GROUPS}),
    }, nullable=True),
})}


def _read_run_file(path: str, schema: dict, kind: str, unreadable: str) -> dict:
    """A JSON run file checked against schema; errors name the file and the field."""
    return cfgmod.check(cfgmod.read_json(path, unreadable), schema, f"{path}: {kind}")


def _read_run(run_dir: str) -> dict:
    missing = f"{run_dir}: missing run outputs"
    report = _read_run_file(os.path.join(run_dir, "report.json"), REPORT_SCHEMA, "report", missing)
    resolved = _read_run_file(
        os.path.join(run_dir, "config.resolved.json"), cfgmod.RESOLVED_SCHEMA, "resolved config",
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
            header = reader.fieldnames or ()  # read while open: an empty file has none yet
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    missing = [key for key in ("epoch", "class", "count") if key not in header]
    if missing:
        raise ConfigError(f"{path}: not a tailssl bank snapshot (missing column '{missing[0]}')")
    return rows


def cmd_report(args) -> int:
    runs = [_read_run(d) for d in args.runs]
    hashes = {r["report"]["dataset_hash"] for r in runs}
    if len(hashes) > 1:
        raise ConfigError(f"refusing to aggregate runs with mismatched dataset hashes: {hashes}")
    os.makedirs(args.out, exist_ok=True)

    reports = [r["report"] for r in runs]
    _write_csv(
        os.path.join(args.out, "per_class_recall.csv"), ["run", "seed", "class", "recall"],
        ([rep["name"], rep["seed"], k, recall] for rep in reports
         for k, recall in enumerate((rep["final"] or {}).get("per_class_recall", []))),
    )
    _write_csv(
        os.path.join(args.out, "bank_distribution.csv"), ["run", "seed", "epoch", "class", "count"],
        ([rep["name"], rep["seed"], row["epoch"], row["class"], row["count"]]
         for rep, r in zip(reports, runs) for row in r["bank_snapshots"]),
    )
    swept = [p for p in cfgmod.SWEEP_PARAMETERS if p != "mode"]
    _write_csv(
        os.path.join(args.out, "accuracy_table.csv"),
        ["run", "seed", "mode", *swept, *HEADLINE_KEYS],
        ([rep["name"], rep["seed"], rep["mode"], *(r["config"]["train"][k] for k in swept),
          *_headline(rep).values()] for rep, r in zip(reports, runs)),
    )
    print(f"wrote report tables for {len(runs)} run(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# export-embeddings
# ---------------------------------------------------------------------------


def cmd_export_embeddings(args) -> int:
    resolved_path = os.path.join(args.run, "config.resolved.json")
    cfg = _read_run_file(
        resolved_path, cfgmod.RESOLVED_SCHEMA, "resolved config",
        f"{args.run}: not a finished run directory",
    )
    paths = dataset_paths(cfg["data_dir_resolved"])
    ds, dataset_hash, _ = _load_configured_dataset(cfg, paths)
    if dataset_hash != cfg["dataset_hash"]:
        raise ConfigError(f"{paths['csv']}: hash {dataset_hash} differs from the run's "
                          f"dataset_hash {cfg['dataset_hash']}")
    params, ema = load_model(
        os.path.join(args.run, "model.npz"),
        cfg["train"]["hidden_sizes"],
        cfg["dataset"]["feature_dim"],
        cfg["dataset"]["num_classes"],
    )
    use = params if args.raw_params else ema
    split = {"test": ds.test, "labeled": ds.labeled, "unlabeled": ds.unlabeled}[args.split]
    feats = encoder_forward(use, split.x[None])[0][0]
    _write_csv(
        args.out, ["id", "label", *(f"feat_{i}" for i in range(feats.shape[1]))],
        ([i, y, *f] for i, y, f in zip(split.ids.tolist(), split.y.tolist(), feats.tolist())),
    )
    print(f"wrote {len(split)} embeddings to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
