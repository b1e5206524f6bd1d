"""CLI harness: generate/train/sweep/report/export, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import tailssl
from tailssl import cli
from tailssl.cli import MANIFEST_SCHEMA, REPORT_SCHEMA, main
from tailssl.config import (
    RESOLVED_SCHEMA,
    RUN_SCHEMA,
    SECTIONS,
    SWEEP_SCHEMA,
    apply_env_overrides,
    config_hash,
    load_run_config,
    load_sweep_config,
    validate_run_config,
)
from tailssl.data import load_dataset, longtail_counts
from tailssl.errors import ConfigError
from tailssl.numerics import encoder_forward


def tiny_config(**train_overrides):
    train = {
        "epochs": 2,
        "iters_per_epoch": 4,
        "batch_size": 8,
        "warmup_epochs": 1,
        "memory_capacity": 16,
        "tau": 0.6,
        "hidden_sizes": [8, 4],
    }
    train.update(train_overrides)
    return {
        "name": "tiny",
        "seeds": [0, 1],
        "data_dir": "data",
        "dataset": {
            "num_classes": 3,
            "feature_dim": 4,
            "n1": 20,
            "m1": 30,
            "gamma_l": 4,
            "gamma_u": 4,
            "test_per_class": 6,
        },
        "train": train,
    }


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    return tmp_path, cfg_path


def read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_consistent_files(workspace):
    tmp, cfg_path = workspace
    assert main(["generate", "--config", str(cfg_path)]) == 0
    ds = load_dataset(
        tmp / "data" / "dataset.csv", tmp / "data" / "dataset.oracle.csv", num_classes=3
    )
    manifest = json.loads(read(tmp / "data" / "manifest.json"))
    n_rows = len(ds.labeled) + len(ds.unlabeled) + len(ds.test)
    assert manifest["rows"] == n_rows
    want_lab = np.maximum(longtail_counts(20, 4, 3), 1)
    assert manifest["labeled_counts"] == want_lab.tolist()
    assert manifest["true_unlabeled_counts"] == longtail_counts(30, 4, 3).tolist()
    assert n_rows == sum(manifest["labeled_counts"]) + sum(manifest["true_unlabeled_counts"]) + 3 * 6


def test_generate_same_seed_is_byte_identical(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path), "--out", str(tmp / "a")])
    main(["generate", "--config", str(cfg_path), "--out", str(tmp / "b")])
    assert read(tmp / "a" / "dataset.csv") == read(tmp / "b" / "dataset.csv")
    assert read(tmp / "a" / "manifest.json") == read(tmp / "b" / "manifest.json")


def test_generate_bad_config_exits_2(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"name": "x", "dataset": {"num_classes": 1}}))
    assert main(["generate", "--config", str(bad)]) == 2
    assert "config field" in capsys.readouterr().err


@pytest.mark.parametrize("value", [5, [1], "ab", None, [], 0], ids=repr)
@pytest.mark.parametrize("section", ["dataset", "augment", "train"])
def test_generate_section_not_an_object_exits_2(workspace, capsys, section, value):
    tmp, _ = workspace
    cfg = tiny_config()
    cfg[section] = value
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(bad), "--out", str(tmp / "gen")]) == 2
    assert f"config field {section}: {value!r} is not of type 'object'" in capsys.readouterr().err
    assert not (tmp / "gen").exists()


def test_env_section_not_an_object_exits_2(workspace, capsys, monkeypatch):
    tmp, cfg_path = workspace
    monkeypatch.setenv("TAILSSL_TRAIN", "5")
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert "config field train: 5 is not of type 'object'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_produces_run_directory(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 0
    for name in (
        "config.resolved.json",
        "epochs.jsonl",
        "report.json",
        "bank_snapshots.csv",
        "estimator_snapshots.csv",
        "model.npz",
    ):
        assert (tmp / "run" / name).exists(), name
    lines = [json.loads(l) for l in read(tmp / "run" / "epochs.jsonl").splitlines()]
    assert [l["epoch"] for l in lines] == [0, 1]
    assert set(lines[0]) == {"epoch", "acc", "avg_class_recall", "group_acc", "bank_entropy", "mask_rate"}
    report = json.loads(read(tmp / "run" / "report.json"))
    assert report["seed"] == 0
    assert report["epochs_run"] == 2
    assert report["last20_mean"]["epochs_averaged"] == 2


def test_train_without_dataset_exits_2(workspace, capsys):
    tmp, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert "generate" in capsys.readouterr().err


def test_train_rerun_reproduces_report_byte_for_byte(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "r1"), "--seed", "3"])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "r2"), "--seed", "3"])
    assert read(tmp / "r1" / "report.json") == read(tmp / "r2" / "report.json")
    assert read(tmp / "r1" / "epochs.jsonl") == read(tmp / "r2" / "epochs.jsonl")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route to divergence
def test_train_diverged_exits_3(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config(lr=1e300)
    bad = tmp / "diverge.json"
    bad.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(bad), "--out", str(tmp / "run")]) == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("train", [{"shot_many_min": 10}, {"shot_few_max": 3}])
def test_train_half_set_shot_thresholds_exits_2(workspace, capsys, train):
    tmp, _ = workspace
    path = tmp / "half.json"
    path.write_text(json.dumps(tiny_config(**train)))
    main(["generate", "--config", str(path)])
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 2
    assert "shot_many_min and shot_few_max must be set together" in capsys.readouterr().err
    assert not (tmp / "run").exists()


@pytest.mark.parametrize("many_min, few_max", [(1, 5), (5, 5)])
def test_train_unordered_shot_thresholds_exit_2(workspace, capsys, many_min, few_max):
    tmp, _ = workspace
    path = tmp / "unordered.json"
    path.write_text(json.dumps(tiny_config(shot_many_min=many_min, shot_few_max=few_max)))
    main(["generate", "--config", str(path)])
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 2
    assert "shot_many_min must exceed shot_few_max" in capsys.readouterr().err
    assert not (tmp / "run").exists()


def test_train_negative_seed_option_exits_2(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    capsys.readouterr()
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp / "run"), "--seed", "-3"]
    assert main(argv) == 2
    assert "TrainConfig field seed: -3 is less than the minimum of 0" in capsys.readouterr().err
    assert not (tmp / "run").exists()


@pytest.mark.parametrize(
    "command, edit, message",
    [
        pytest.param("train", lambda cfg: cfg.update(seeds=[-1]),
                     "config field seeds/0: -1 is less than the minimum of 0", id="train-seeds"),
        pytest.param("generate", lambda cfg: cfg["dataset"].update(sample_seed=-1),
                     "config field dataset/sample_seed: -1 is less than the minimum of 0",
                     id="generate-sample-seed"),
        pytest.param("generate", lambda cfg: cfg["dataset"].update(geometry_seed=-2),
                     "config field dataset/geometry_seed: -2 is less than the minimum of 0",
                     id="generate-geometry-seed"),
    ],
)
def test_negative_seed_in_config_exits_2(workspace, capsys, command, edit, message):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    edit(cfg)
    path = tmp / "negative.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out", str(tmp / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp / "out").exists()


# Integral floats past int64, numpy's largest dimension, in the fields that size an array
SIZE_PAST_INT64 = [
    *[("train", "train", name, value, f"train/{name}")
      for name in ("memory_capacity", "batch_size") for value in (1e19, 1e308)],
    *[("train", "train", "hidden_sizes", [8, value], "train/hidden_sizes/1")
      for value in (1e19, 1e308)],
    *[("generate", "dataset", name, 1e308, f"dataset/{name}")
      for name in ("num_classes", "feature_dim", "n1", "m1", "test_per_class")],
]


@pytest.mark.parametrize("command, section, name, value, path", SIZE_PAST_INT64,
                         ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in SIZE_PAST_INT64])
def test_size_field_past_int64_exits_2(workspace, capsys, command, section, name, value, path):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    cfg[section][name] = value
    huge = tmp / "huge.json"
    huge.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(huge), "--out", str(tmp / "out")]) == 2
    item = value[-1] if isinstance(value, list) else value
    assert (f"config field {path}: {item!r} is greater than the maximum of 9223372036854775807"
            in capsys.readouterr().err)
    assert not (tmp / "out").exists()


# Run in a child under an address-space limit, so the allocation fails there and
# never for real in the test process.
_RLIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from tailssl.cli import main
sys.exit(main(sys.argv[1:]))
"""

OVERSIZED = [
    ("train", "train", "hidden_sizes", [1000000000]),
    ("train", "train", "memory_capacity", 1e12),
    ("train", "train", "batch_size", 1e12),
    ("generate", "dataset", "n1", 1e12),
]


def _run_rlimited(tmp, command, cfg) -> subprocess.CompletedProcess:
    """`tailssl <command>` on cfg in an address-space-limited child process."""
    huge = tmp / "huge.json"
    huge.write_text(json.dumps(cfg))
    src = str(Path(tailssl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = tmp / ("out" if command == "train" else "data")
    return subprocess.run(
        [sys.executable, "-c", _RLIMITED_MAIN, command, "--config", str(huge), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("command, section, name, value", OVERSIZED,
                         ids=[f"{c[0]}-{c[2]}" for c in OVERSIZED])
def test_oversized_config_exits_2_out_of_memory(workspace, command, section, name, value):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    cfg[section][name] = value
    proc = _run_rlimited(tmp, command, cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["num_classes", "feature_dim", "n1", "m1", "test_per_class"])
def test_generate_size_field_at_its_maximum_exits_2(workspace, name):
    # the schema admits the value; the dataset it sizes could not be stored at all
    tmp, _ = workspace
    cfg = tiny_config()
    cfg["dataset"][name] = 2**63 - 1
    proc = _run_rlimited(tmp, "generate", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: dataset ")
    assert f"{name} {2**63 - 1} " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, value", [
    ("memory_capacity", 2**63 - 1),
    ("batch_size", 2**63 - 1),
    ("hidden_sizes", [2**63 - 1]),
    ("hidden_sizes", [12, 2**63 - 1]),
], ids=["memory_capacity", "batch_size", "hidden_sizes-first", "hidden_sizes-last"])
def test_train_size_field_at_its_maximum_exits_2(workspace, name, value):
    # the schema admits the value; an array it sizes could not be stored at all
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    cfg["train"][name] = value
    proc = _run_rlimited(tmp, "train", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: train ")
    assert f"{name} {value} " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_of_memory_without_detail_prints_a_complete_line(workspace, capsys, monkeypatch):
    def no_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_generate", no_memory)
    assert main(["generate", "--config", str(workspace[1])]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_sweep_base_with_a_negative_seed_exits_2(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    base = tiny_config()
    base["seeds"] = [-1]
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps({"parameter": "beta", "values": [1.0], "base": base}))
    capsys.readouterr()
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 2
    assert "config field seeds/0: -1 is less than the minimum of 0" in capsys.readouterr().err
    assert not (tmp / "sw").exists()


def _floated(cfg, *path):
    """cfg with the integer (or each integer of the list) at path written as a float."""
    *sections, field = path
    node = cfg
    for key in sections:
        node = node[key]
    value = node[field]
    node[field] = [float(v) for v in value] if isinstance(value, list) else float(value)
    return cfg


def _tiny_with_seeds():
    cfg = tiny_config()
    cfg["dataset"].update(geometry_seed=0, sample_seed=1)  # the defaults, written out
    return cfg


@pytest.mark.parametrize(
    "path",
    [
        ("train", "batch_size"), ("train", "memory_capacity"), ("train", "epochs"),
        ("train", "iters_per_epoch"), ("train", "warmup_epochs"), ("train", "hidden_sizes"),
        ("seeds",), ("dataset", "num_classes"), ("dataset", "feature_dim"), ("dataset", "n1"),
        ("dataset", "geometry_seed"), ("dataset", "sample_seed"),
    ],
    ids="/".join,
)
def test_integral_float_in_an_integer_field_runs_as_its_int(workspace, path):
    """Draft 2020-12 counts 8.0 as an integer; the run it configures is the run of 8."""
    tmp, _ = workspace
    outputs = {}
    for form, cfg in (("int", _tiny_with_seeds()), ("float", _floated(_tiny_with_seeds(), *path))):
        cfg_path = tmp / f"{form}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp / f"data-{form}")]) == 0
        if form == "int":
            assert main(["generate", "--config", str(cfg_path)]) == 0  # the data_dir both train on
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp / form)]) == 0
        names = ("data-{}/dataset.csv", "data-{}/manifest.json", "{}/report.json", "{}/epochs.jsonl")
        outputs[form] = [read(tmp / name.format(form)) for name in names]
    assert outputs["float"] == outputs["int"]


def test_integral_float_from_the_environment_runs_as_its_int(workspace, monkeypatch):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "int")]) == 0
    monkeypatch.setenv("TAILSSL_TRAIN__BATCH_SIZE", "8.0")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "float")]) == 0
    assert read(tmp / "float" / "report.json") == read(tmp / "int" / "report.json")


def test_sweep_base_with_an_integral_float_batch_size_runs_its_cells(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    for form, base in (("int", tiny_config()), ("float", tiny_config(batch_size=8.0))):
        sweep_path = tmp / f"sweep-{form}.json"
        sweep_path.write_text(json.dumps({"parameter": "beta", "values": [1.0], "base": base}))
        assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / form)]) == 0
    for name in ("aggregate.csv", "beta-1.0/seed-1/report.json"):
        assert read(tmp / "float" / name) == read(tmp / "int" / name)


@pytest.mark.parametrize("path", [("train", "hidden_sizes"), ("dataset", "num_classes")],
                         ids="/".join)
def test_export_embeddings_reads_integral_floats_in_the_resolved_config(workspace, path):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    assert main(["export-embeddings", "--run", str(tmp / "run"), "--out", str(tmp / "int.csv")]) == 0
    resolved_path = tmp / "run" / "config.resolved.json"
    resolved_path.write_text(json.dumps(_floated(json.loads(read(resolved_path)), *path)))
    assert main(["export-embeddings", "--run", str(tmp / "run"), "--out", str(tmp / "float.csv")]) == 0
    assert read(tmp / "float.csv") == read(tmp / "int.csv")


def test_train_huge_lambda_sampling_draws_from_the_limit(workspace):
    """Every retrieval weight underflows at lambda 1e308; get used to draw
    classes from a NaN CDF (RuntimeWarning 'invalid value')."""
    tmp, _ = workspace
    path = tmp / "huge_lambda.json"
    path.write_text(json.dumps(tiny_config(lambda_sampling=1e308, tau=0.34)))
    main(["generate", "--config", str(path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    with open(tmp / "run" / "bank_snapshots.csv") as fh:
        assert sum(int(r["count"]) for r in csv.DictReader(fh) if r["epoch"] == "1") > 0


def test_train_label_at_or_above_num_classes_exits_2(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    csv_path = tmp / "data" / "dataset.csv"
    lines = read(csv_path).splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, start=1) if ",train,0," in line)
    lines[lineno - 1] = lines[lineno - 1].replace(",train,0,", ",train,3,", 1)
    csv_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    err = capsys.readouterr().err
    assert f"dataset.csv:{lineno}: label 3 >= num_classes 3" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_feature_exits_2(workspace, capsys, value):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    csv_path = tmp / "data" / "dataset.csv"
    lines = read(csv_path).splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, start=1) if ",test," in line)
    fields = lines[lineno - 1].split(",")
    fields[4] = value
    lines[lineno - 1] = ",".join(fields)
    csv_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert f"dataset.csv:{lineno}: non-finite feature" in capsys.readouterr().err


@pytest.mark.parametrize("label", [3, -2])
def test_train_oracle_label_outside_classes_exits_2(workspace, capsys, label):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    oracle_path = tmp / "data" / "dataset.oracle.csv"
    lines = read(oracle_path).splitlines(keepends=True)
    sid = lines[1].split(",")[0]
    lines[1] = f"{sid},{label}\n"
    oracle_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert f"dataset.oracle.csv:2: true label {label} outside [0, 3)" in capsys.readouterr().err


def test_train_oracle_duplicate_id_exits_2(workspace, capsys):
    """A second row for an id used to overwrite the first one silently."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    oracle_path = tmp / "data" / "dataset.oracle.csv"
    lines = read(oracle_path).splitlines(keepends=True)
    sid, label = lines[1].strip().split(",")
    lines.append(f"{sid},{(int(label) + 1) % 3}\n")
    oracle_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert f"dataset.oracle.csv:{len(lines)}: duplicate id {sid}" in capsys.readouterr().err


def test_train_oracle_extra_field_exits_2(workspace, capsys):
    """A row with a third field used to be read as its first two."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    oracle_path = tmp / "data" / "dataset.oracle.csv"
    lines = read(oracle_path).splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n") + ",extra\n"
    oracle_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    err = capsys.readouterr().err
    assert "dataset.oracle.csv:2: expected 2 fields (id, true_label), got 3" in err


@pytest.mark.parametrize("mode", ["fixmatch", "bmb"])
def test_train_ssl_mode_without_unlabeled_rows_exits_2(workspace, capsys, mode):
    """dataset.m1 = 0 is a valid config; fit used to raise an uncaught ValueError."""
    tmp, _ = workspace
    cfg = tiny_config(mode=mode)
    cfg["dataset"]["m1"] = 0
    path = tmp / "no_unlabeled.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 2
    err = capsys.readouterr().err
    assert f"dataset.csv: no unlabeled train rows; mode {mode} needs some" in err
    assert not (tmp / "run").exists()
    cfg["train"]["mode"] = "vanilla"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 0


def test_train_without_labeled_rows_exits_2(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    csv_path = tmp / "data" / "dataset.csv"
    lines = read(csv_path).splitlines(keepends=True)
    kept = [l for l in lines if not (l.split(",")[1] == "train" and l.split(",")[2] != "-1")]
    assert len(kept) < len(lines)
    csv_path.write_text("".join(kept))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert "dataset.csv: no labeled train rows" in capsys.readouterr().err
    assert not (tmp / "run").exists()


def test_dataset_csv_edited_since_generate_is_refused(workspace, capsys):
    """One feature value changed after generate: the CSV no longer hashes to the
    manifest's dataset_sha256; train used to exit 0 on it. A sweep records each cell."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    csv_path = tmp / "data" / "dataset.csv"
    lines = read(csv_path).splitlines(keepends=True)
    row = lines[1].split(",")
    lines[1] = ",".join([*row[:3], "9.5", *row[4:]])
    csv_path.write_text("".join(lines))
    generated = json.loads(read(tmp / "data" / "manifest.json"))["dataset_sha256"]
    current = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    message = f"dataset.csv: hash {current} differs from manifest.json's dataset_sha256 {generated}"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp / "run").exists()
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps({"parameter": "beta", "values": [1.0], "base": "config.json"}))
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 4
    failed = json.loads(read(tmp / "sw" / "sweep_manifest.json"))["failed_cells"]
    assert [c["seed"] for c in failed] == [0, 1] and all(message in c["error"] for c in failed)
    assert not (tmp / "sw" / "beta-1.0").exists()


def test_train_refuses_a_config_whose_dataset_section_differs_from_the_manifest(
    workspace, capsys
):
    """Rows generated at separation 3.0 and n1 20, trained under a config that says 9.0
    and 25: the run used to record 9.0 and 25 for them. The first field in sorted order
    is named, with both values."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    cfg["dataset"].update(separation=9.0, n1=25)
    other = tmp / "other.json"
    other.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(other), "--out", str(tmp / "run")]) == 2
    assert "manifest.json: generated with dataset n1 20, the config has 25" in (
        capsys.readouterr().err
    )
    assert not (tmp / "run").exists()
    cfg["dataset"]["n1"] = 20
    other.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(other), "--out", str(tmp / "run")]) == 2
    assert "manifest.json: generated with dataset separation 3.0, the config has 9.0" in (
        capsys.readouterr().err
    )
    cfg["dataset"]["separation"] = 3  # the same value as an int
    other.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(other), "--out", str(tmp / "run")]) == 0


def test_train_and_report_zero_epochs(workspace, capsys):
    """epochs = 0 is valid; train and report used to die on the missing metrics."""
    tmp, _ = workspace
    path = tmp / "zero.json"
    path.write_text(json.dumps(tiny_config(epochs=0)))
    main(["generate", "--config", str(path)])
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 0
    assert "top1=n/a avg_recall=n/a" in capsys.readouterr().out
    report = json.loads(read(tmp / "run" / "report.json"))
    assert (report["epochs_run"], report["final"], report["last20_mean"]) == (0, None, None)
    assert main(["report", "--runs", str(tmp / "run"), "--out", str(tmp / "rep")]) == 0
    with open(tmp / "rep" / "per_class_recall.csv") as fh:
        assert list(csv.DictReader(fh)) == []
    with open(tmp / "rep" / "accuracy_table.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["mode"] == "bmb"
    for key in ("top1", "avg_class_recall", "many_acc", "medium_acc", "few_acc", "bank_entropy"):
        assert row[key] == ""


def test_train_empty_test_split_prints_n_a(workspace, capsys):
    """test_per_class = 0 leaves every accuracy NaN; train used to die formatting None."""
    tmp, _ = workspace
    cfg = tiny_config()
    cfg["dataset"]["test_per_class"] = 0
    path = tmp / "no_test.json"
    path.write_text(json.dumps(cfg))
    main(["generate", "--config", str(path)])
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp / "run")]) == 0
    assert "top1=n/a avg_recall=n/a" in capsys.readouterr().out


@pytest.mark.parametrize("present", ["final", "last20_mean"])
def test_report_fills_the_headline_cells_of_the_one_section_present(workspace, capsys, present):
    """A report.json whose final or last20_mean alone is null: the accuracy table
    leaves that section's cells empty and fills the other's."""
    tmp, cfg_path = workspace
    cfg_path.write_text(json.dumps(tiny_config(tau=0.3)))  # tau 0.3 fills the bank: a bank_entropy
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    report = json.loads(read(tmp / "run" / "report.json"))
    absent = "last20_mean" if present == "final" else "final"
    _set_field(tmp / "run" / "report.json", absent, None)
    capsys.readouterr()
    assert main(["report", "--runs", str(tmp / "run"), "--out", str(tmp / "rep")]) == 0
    with open(tmp / "rep" / "accuracy_table.csv") as fh:
        (row,) = csv.DictReader(fh)
    mean, groups = report["last20_mean"], report["last20_mean"]["group_acc"]
    cells = {"final": {"bank_entropy": report["final"]["bank_entropy"]},
             "last20_mean": {"top1": mean["top1"], "avg_class_recall": mean["avg_class_recall"],
                             **{f"{g}_acc": groups[g] for g in ("many", "medium", "few")}}}
    assert {k: float(row[k]) for k in cells[present]} == cells[present]
    assert {row[k] for k in cells[absent]} == {""}
    assert set(cells["final"]) | set(cells["last20_mean"]) == set(cli.HEADLINE_KEYS)


def test_train_balanced_dataset_writes_strict_jsonl(workspace):
    tmp, _ = workspace
    cfg = tiny_config()
    cfg["dataset"]["gamma_l"] = 1.0  # all classes equal -> every shot group but medium is empty
    cfg["dataset"]["gamma_u"] = 1.0
    cfg["data_dir"] = "data_bal"
    path = tmp / "balanced.json"
    path.write_text(json.dumps(cfg))
    main(["generate", "--config", str(path)])
    assert main(["train", "--config", str(path), "--out", str(tmp / "rb")]) == 0
    lines = [json.loads(l) for l in read(tmp / "rb" / "epochs.jsonl").splitlines()]
    assert lines[0]["group_acc"]["many"] is None
    assert lines[0]["group_acc"]["few"] is None
    assert isinstance(lines[0]["group_acc"]["medium"], float)


def test_env_override_changes_resolved_config(workspace, monkeypatch):
    tmp, cfg_path = workspace
    monkeypatch.setenv("TAILSSL_TRAIN__BETA", "0.0")
    monkeypatch.setenv("TAILSSL_NAME", "renamed")
    cfg = load_run_config(cfg_path)
    assert cfg["train"]["beta"] == 0.0
    assert cfg["name"] == "renamed"


def test_env_override_is_validated(workspace, monkeypatch):
    tmp, cfg_path = workspace
    monkeypatch.setenv("TAILSSL_TRAIN__MODE", "bogus")
    with pytest.raises(ConfigError, match="train/mode"):
        load_run_config(cfg_path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_runs_all_cells_and_aggregates(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    sweep = {"parameter": "beta", "values": [0.0, 1.0], "base": tiny_config()}
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 0
    with open(tmp / "sw" / "aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 values x 2 seeds
    assert set(rows[0]) == {"param_value", "seed", "top1", "avg_class_recall", "few_acc", "bank_entropy"}
    assert {r["param_value"] for r in rows} == {"0.0", "1.0"}
    manifest = json.loads(read(tmp / "sw" / "sweep_manifest.json"))
    assert manifest["failed_cells"] == []
    # every cell consumed the same dataset
    hashes = set()
    for value in ("0.0", "1.0"):
        for seed in ("0", "1"):
            rep = json.loads(read(tmp / "sw" / f"beta-{value}" / f"seed-{seed}" / "report.json"))
            hashes.add(rep["dataset_hash"])
    assert len(hashes) == 1


def test_sweep_memory_content_values(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    base = tiny_config(epochs=1, iters_per_epoch=2)
    base["seeds"] = [0]
    sweep = {"parameter": "memory_content", "values": ["weak", "strong", "both"], "base": base}
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 0
    with open(tmp / "sw" / "aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["param_value"] for r in rows] == ["weak", "strong", "both"]


def test_sweep_cells_fail_without_dataset(workspace, capsys):
    tmp, cfg_path = workspace  # no generate step
    sweep = {"parameter": "beta", "values": [1.0], "base": tiny_config()}
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 4
    manifest = json.loads(read(tmp / "sw" / "sweep_manifest.json"))
    assert len(manifest["failed_cells"]) == 2  # one per seed


def test_sweep_records_cells_whose_mode_needs_missing_unlabeled_rows(workspace, capsys):
    tmp, _ = workspace
    base = tiny_config()
    base["dataset"]["m1"] = 0
    sweep = {"parameter": "mode", "values": ["vanilla", "bmb"], "base": base}
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    (tmp / "base.json").write_text(json.dumps(base))
    main(["generate", "--config", str(tmp / "base.json")])
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 4
    manifest = json.loads(read(tmp / "sw" / "sweep_manifest.json"))
    assert [(c["value"], c["seed"]) for c in manifest["failed_cells"]] == [("bmb", 0), ("bmb", 1)]
    assert all("no unlabeled train rows" in c["error"] for c in manifest["failed_cells"])
    with open(tmp / "sw" / "aggregate.csv") as fh:
        assert [r["param_value"] for r in csv.DictReader(fh)] == ["vanilla", "vanilla"]


def test_sweep_with_a_path_base_reads_the_dataset_beside_the_base_file(workspace):
    """A path base's data_dir resolves against the base file, as under `generate
    --config <base>` and `train --config <base>`; an inline base's against the sweep file."""
    tmp, _ = workspace
    base = tiny_config(epochs=1, iters_per_epoch=2)
    base["seeds"] = [0]
    (tmp / "sub").mkdir()
    (tmp / "sub" / "base.json").write_text(json.dumps(base))
    assert main(["generate", "--config", str(tmp / "sub" / "base.json")]) == 0
    assert not (tmp / "data").exists()
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps({"parameter": "beta", "values": [1.0], "base": "sub/base.json"}))
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 0
    resolved = json.loads(read(tmp / "sw" / "beta-1.0" / "seed-0" / "config.resolved.json"))
    assert resolved["data_dir_resolved"] == str(tmp / "sub" / "data")


def test_sweep_rejects_invalid_value(workspace):
    tmp, cfg_path = workspace
    sweep = {"parameter": "mode", "values": ["bogus"], "base": tiny_config()}
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    with pytest.raises(ConfigError):
        load_sweep_config(sweep_path)
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_consolidates_runs(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "r1"), "--seed", "0"])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "r2"), "--seed", "1"])
    assert main(["report", "--runs", str(tmp / "r1"), str(tmp / "r2"), "--out", str(tmp / "rep")]) == 0
    with open(tmp / "rep" / "per_class_recall.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3  # two runs, three classes
    with open(tmp / "rep" / "accuracy_table.csv") as fh:
        acc_rows = list(csv.DictReader(fh))
    assert len(acc_rows) == 2
    assert {r["seed"] for r in acc_rows} == {"0", "1"}
    with open(tmp / "rep" / "bank_distribution.csv") as fh:
        bank_rows = list(csv.DictReader(fh))
    assert len(bank_rows) == 2 * 2 * 3  # runs x epochs x classes
    # per-class table recomputes from the stored confusion matrix
    report = json.loads(read(tmp / "r1" / "report.json"))
    confusion = np.array(report["final"]["confusion"])
    for row in rows:
        if row["seed"] != "0" or row["recall"] == "":
            continue
        k = int(row["class"])
        assert float(row["recall"]) == pytest.approx(confusion[k, k] / confusion[k].sum())
    assert report["final"]["acc"] == pytest.approx(np.trace(confusion) / confusion.sum())


def test_report_refuses_mismatched_dataset_hashes(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "r1")])
    other = tiny_config()
    other["dataset"]["sample_seed"] = 99
    other["data_dir"] = "data2"
    other_path = tmp / "other.json"
    other_path.write_text(json.dumps(other))
    main(["generate", "--config", str(other_path)])
    main(["train", "--config", str(other_path), "--out", str(tmp / "r2")])
    assert main(["report", "--runs", str(tmp / "r1"), str(tmp / "r2"), "--out", str(tmp / "rep")]) == 2
    assert "mismatched" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export-embeddings
# ---------------------------------------------------------------------------


def test_export_embeddings_shape_and_ids(workspace):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    out = tmp / "emb.csv"
    assert main(["export-embeddings", "--run", str(tmp / "run"), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:2] == ["id", "label"]
    assert len(header) == 2 + 4  # feature dim of the encoder output (hidden_sizes[-1])
    assert len(body) == 3 * 6  # test split size
    ds = load_dataset(tmp / "data" / "dataset.csv", num_classes=3)
    assert sorted(int(r[0]) for r in body) == sorted(ds.test.ids.tolist())


def test_export_embeddings_raw_params_writes_the_raw_encoders_features(workspace):
    """The default output holds the EMA encoder's features and --raw-params the raw
    encoder's, for the same ids and labels."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    run = ["export-embeddings", "--run", str(tmp / "run"), "--out"]
    assert main([*run, str(tmp / "ema.csv")]) == 0
    assert main([*run, str(tmp / "raw.csv"), "--raw-params"]) == 0
    params, ema = cli.load_model(tmp / "run" / "model.npz", [8, 4], 4, 3)
    test = load_dataset(tmp / "data" / "dataset.csv", num_classes=3).test
    tables = {}
    for name, model in (("ema", ema), ("raw", params)):
        with open(tmp / f"{name}.csv") as fh:
            body = list(csv.reader(fh))[1:]
        assert [(int(r[0]), int(r[1])) for r in body] == list(zip(test.ids.tolist(), test.y.tolist()))
        tables[name] = np.array([[float(v) for v in r[2:]] for r in body])
        np.testing.assert_array_equal(tables[name], encoder_forward(model, test.x[None])[0][0])
    assert not np.array_equal(tables["ema"], tables["raw"])


def test_export_embeddings_refuses_a_dataset_regenerated_since_training(workspace, capsys):
    """A dataset regenerated with another sample_seed in the run's data_dir no longer
    hashes to the run's dataset_hash; exporting its embeddings used to exit 0."""
    tmp, cfg_path = workspace
    cfg = tiny_config()
    cfg["dataset"]["sample_seed"] = 1
    cfg_path.write_text(json.dumps(cfg))
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    cfg["dataset"]["sample_seed"] = 99
    cfg_path.write_text(json.dumps(cfg))
    main(["generate", "--config", str(cfg_path)])
    trained = json.loads(read(tmp / "run" / "config.resolved.json"))["dataset_hash"]
    current = hashlib.sha256((tmp / "data" / "dataset.csv").read_bytes()).hexdigest()
    assert trained != current
    capsys.readouterr()
    out = tmp / "emb.csv"
    assert main(["export-embeddings", "--run", str(tmp / "run"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"dataset.csv: hash {current} differs from the run's dataset_hash {trained}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "hidden_sizes, message",
    [
        ([8, 4, 2], "params/enc2.w is missing, the config expects (4, 2)"),
        ([8, 5], "params/enc1.w has shape (8, 4), the config expects (8, 5)"),
        ([8], "params/base.w has shape (4, 3), the config expects (8, 3)"),
    ],
    ids=["deeper", "wider", "shallower"],
)
def test_export_embeddings_model_config_mismatch_exits_2(workspace, capsys, hidden_sizes, message):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    resolved_path = tmp / "run" / "config.resolved.json"
    resolved = json.loads(read(resolved_path))
    resolved["train"]["hidden_sizes"] = hidden_sizes
    resolved_path.write_text(json.dumps(resolved))
    capsys.readouterr()
    out = tmp / "emb.csv"
    assert main(["export-embeddings", "--run", str(tmp / "run"), "--out", str(out)]) == 2
    assert f"model.npz: {message}" in capsys.readouterr().err
    assert not out.exists()


NOT_JSON = "{x"


@pytest.mark.parametrize(
    "command, damaged, content, message",
    [
        pytest.param("export-embeddings", "run/config.resolved.json", NOT_JSON,
                     " is not valid JSON", id="export-embeddings-run/config.resolved.json"),
        pytest.param("report", "run/report.json", NOT_JSON, " is not valid JSON",
                     id="report-run/report.json"),
        pytest.param("train", "data/manifest.json", NOT_JSON, " is not valid JSON",
                     id="train-data/manifest.json"),
        pytest.param("report", "run/report.json", '{"name": NaN}', " is not valid JSON",
                     id="report-nan"),
        pytest.param("export-embeddings", "run/config.resolved.json", '{"seeds": [Infinity]}',
                     " is not valid JSON", id="export-embeddings-infinity"),
        pytest.param("train", "data/manifest.json", '{"rows": -Infinity}', " is not valid JSON",
                     id="train-manifest-negative-infinity"),
        pytest.param("train", "data/manifest.json", "[1, 2]",
                     ": dataset manifest field <root>: [1, 2] is not of type 'object'",
                     id="train-manifest-list"),
        pytest.param("report", "run/report.json", "[]",
                     ": report field <root>: [] is not of type 'object'", id="report-list"),
        pytest.param("report", "run/report.json", "{}",
                     ": report field <root>: 'name' is a required property",
                     id="report-empty-object"),
        pytest.param("report", "run/config.resolved.json", '{"train": {}}',
                     ": resolved config field <root>: 'name' is a required property",
                     id="report-config-without-train-fields"),
        pytest.param("export-embeddings", "run/config.resolved.json", "{}",
                     ": resolved config field <root>: 'name' is a required property",
                     id="export-embeddings-empty-object"),
    ],
)
def test_corrupt_json_run_artefact_exits_2(workspace, capsys, command, damaged, content, message):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    (tmp / damaged).write_text(content)
    capsys.readouterr()
    argv = {
        "export-embeddings": ["--run", str(tmp / "run"), "--out", str(tmp / "emb.csv")],
        "report": ["--runs", str(tmp / "run"), "--out", str(tmp / "rep")],
        "train": ["--config", str(cfg_path), "--out", str(tmp / "run2")],
    }[command]
    assert main([command, *argv]) == 2
    assert f"{damaged}{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, field, constant",
    [
        ("generate", "dataset", "separation", "NaN"),
        ("train", "train", "lr", "NaN"),
        ("train", "train", "beta", "Infinity"),
        ("train", "augment", "weak_noise_sigma", "-Infinity"),
        ("sweep", "train", "tau", "NaN"),
        ("generate", "dataset", "separation", "1e400"),
        ("train", "train", "lambda_m", "-1e400"),
    ],
)
def test_non_finite_json_constant_in_a_config_exits_2(
    workspace, capsys, command, section, field, constant
):
    """Python's json reads NaN and the infinities, and reads a number past the
    float range as an infinity; a config file may not hold them. Read leniently,
    a NaN separation wrote all-NaN features, a NaN lr read as "training
    diverged", an infinite beta trained and a 1e400 separation crashed."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    cfg.setdefault(section, {})[field] = "PLACEHOLDER"
    text = json.dumps(cfg).replace('"PLACEHOLDER"', constant)
    if command == "sweep":
        text = '{"parameter": "beta", "values": [1.0], "base": %s}' % text
    path = tmp / "non_finite.json"
    path.write_text(text)
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out", str(tmp / "out")]) == 2
    reason = (f"config field {section}/{field}: {float(constant)!r} is not of type 'number'"
              if constant[-1].isdigit() else f"{path} is not valid JSON: {constant} is not a JSON number")
    assert reason in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_sweep_value_past_the_float_range_exits_2(workspace, capsys):
    """Python's json reads 1e400 as inf, which the sweep wrote into its manifest
    as Infinity, a run file the package's own reader refuses; the cell's config
    refuses it before anything is written."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    path = tmp / "sweep.json"
    path.write_text('{"parameter": "beta", "values": [0.5, 1e400], "base": "config.json"}')
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--out", str(tmp / "out")]) == 2
    assert "error: config field train/beta: inf is not of type 'number'" in capsys.readouterr().err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize(
    "command, section, name, cls",
    [
        ("train", "train", "beta", "TrainConfig"),
        ("train", "train", "lr", "TrainConfig"),
        ("train", "train", "alpha", "TrainConfig"),
        ("train", "train", "lambda_u", "TrainConfig"),
        ("generate", "dataset", "gamma_l", "DatasetSpec"),
    ],
)
def test_int_past_the_float_range_in_a_number_field_exits_2(
    workspace, capsys, command, section, name, cls
):
    """An integer literal that no float holds crashed with OverflowError in the
    first float arithmetic on it; the run schema and the field's dataclass refuse it."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    cfg = tiny_config()
    cfg[section][name] = 10**400
    path = tmp / "huge.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out", str(tmp / "out")]) == 2
    assert (f"error: config field {section}/{name}: {10**400!r} is not of type 'number'"
            in capsys.readouterr().err)
    assert not (tmp / "out").exists()
    assert SECTIONS[section].__name__ == cls
    with pytest.raises(ValueError, match=f"^{cls} field {name}: {10**400!r} is not of type "):
        SECTIONS[section](**cfg[section])


def test_env_override_past_the_float_range_exits_2(workspace, capsys, monkeypatch):
    """A bare 1e400 from the environment reads as inf, which the run schema refuses."""
    tmp, cfg_path = workspace
    monkeypatch.setenv("TAILSSL_DATASET__SEPARATION", "1e400")
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp / "out")]) == 2
    assert ("error: config field dataset/separation: inf is not of type 'number'"
            in capsys.readouterr().err)
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("base", ["config.json", "inline"])
def test_env_override_past_the_float_range_refuses_a_sweep_before_its_cells(
    workspace, capsys, monkeypatch, base
):
    """The run schema refuses the override when the sweep loads, so no cell runs and
    no output directory is made; a sweep whose every cell failed exited 4."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    sweep_path = tmp / "sweep.json"
    base = tiny_config() if base == "inline" else base
    sweep_path.write_text(json.dumps({"parameter": "beta", "values": [0.5], "base": base}))
    monkeypatch.setenv("TAILSSL_TRAIN__LAMBDA_M", "1e400")
    capsys.readouterr()
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp / "sw")]) == 2
    assert ("error: config field train/lambda_m: inf is not of type 'number'"
            in capsys.readouterr().err)
    assert not (tmp / "sw").exists()


def test_env_override_spelled_nan_fails_the_type_check(workspace, capsys, monkeypatch):
    tmp, cfg_path = workspace
    monkeypatch.setenv("TAILSSL_TRAIN__LR", "NaN")
    assert main(["generate", "--config", str(cfg_path)]) == 2
    assert "config field train/lr: 'NaN' is not of type 'number'" in capsys.readouterr().err


def _set_field(path, field, value):
    """Rewrite the JSON file at path with the slash-separated field set to value."""
    data = json.loads(read(path))
    *parents, last = field.split("/")
    node = data
    for part in parents:
        node = node[part]
    node[last] = value
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "command, damaged, field, value, message",
    [
        pytest.param("report", "run/report.json", "final", [1],
                     "report field final: [1] is not of type 'object', 'null'", id="report-final"),
        pytest.param("report", "run/report.json", "dataset_hash", [1],
                     "report field dataset_hash: [1] is not of type 'string'",
                     id="report-dataset-hash"),
        pytest.param("report", "run/report.json", "last20_mean/group_acc/few", "0.5",
                     "report field last20_mean/group_acc/few: '0.5' is not of type 'number', "
                     "'null'", id="report-group-acc"),
        pytest.param("report", "run/config.resolved.json", "train/beta", None,
                     "resolved config field train/beta: None is not of type 'number'",
                     id="report-config-beta"),
        pytest.param("export-embeddings", "run/config.resolved.json", "train/hidden_sizes", "4",
                     "resolved config field train/hidden_sizes: '4' is not of type 'array'",
                     id="export-embeddings-hidden-sizes"),
        pytest.param("export-embeddings", "run/config.resolved.json", "data_dir_resolved", 0,
                     "resolved config field data_dir_resolved: 0 is not of type 'string'",
                     id="export-embeddings-data-dir"),
        pytest.param("train", "data/manifest.json", "rows", "12",
                     "dataset manifest field rows: '12' is not of type 'integer'",
                     id="train-manifest-rows"),
        pytest.param("train", "data/manifest.json", "labeled_counts", [1.5],
                     "dataset manifest field labeled_counts/0: 1.5 is not of type 'integer'",
                     id="train-manifest-labeled-counts"),
        pytest.param("export-embeddings", "data/manifest.json", "dataset/num_classes", None,
                     "dataset manifest field dataset/num_classes: None is not of type 'integer'",
                     id="export-embeddings-manifest-num-classes"),
        pytest.param("export-embeddings", "data/manifest.json", "dataset_sha256", 7,
                     "dataset manifest field dataset_sha256: 7 is not of type 'string'",
                     id="export-embeddings-manifest-sha256"),
    ],
)
def test_run_file_field_of_the_wrong_type_exits_2(
    workspace, capsys, command, damaged, field, value, message
):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    _set_field(tmp / damaged, field, value)
    capsys.readouterr()
    out = tmp / "out"
    argv = {
        "export-embeddings": ["--run", str(tmp / "run"), "--out", str(out)],
        "report": ["--runs", str(tmp / "run"), "--out", str(out)],
        "train": ["--config", str(cfg_path), "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    assert f"{damaged}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_run_file_without_a_resolved_key_exits_2(workspace, capsys):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    resolved_path = tmp / "run" / "config.resolved.json"
    resolved = json.loads(read(resolved_path))
    del resolved["train"]["alpha"]
    resolved_path.write_text(json.dumps(resolved))
    capsys.readouterr()
    assert main(["report", "--runs", str(tmp / "run"), "--out", str(tmp / "rep")]) == 2
    err = capsys.readouterr().err
    assert "config.resolved.json: resolved config field train: 'alpha' is a required property" in err


def required_fields(schema, path=()):
    """(path, key) for each field that an object of schema, or of its properties, requires."""
    for key in schema.get("required", ()):
        yield path, key
    for key, subschema in schema.get("properties", {}).items():
        yield from required_fields(subschema, (*path, key))


@pytest.mark.parametrize(
    "command, damaged, kind, path, key",
    [
        pytest.param(command, damaged, kind, path, key, id=f"{command}-{'/'.join((*path, key))}")
        for command, damaged, kind, schema in (
            ("report", "run/report.json", "report", REPORT_SCHEMA),
            ("train", "data/manifest.json", "dataset manifest", MANIFEST_SCHEMA),
        )
        for path, key in required_fields(schema)
    ],
)
def test_run_file_without_a_required_field_exits_2(
    workspace, capsys, command, damaged, kind, path, key
):
    """Every field the schemas require, deleted from a freshly written file, is named.
    The cases come from the schemas, so a field declared later is covered too."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    data = json.loads(read(tmp / damaged))
    node = data
    for part in path:
        node = node[part]
    del node[key]
    (tmp / damaged).write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp / "out"
    argv = {
        "report": ["--runs", str(tmp / "run"), "--out", str(out)],
        "train": ["--config", str(cfg_path), "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    where = "/".join(path) or "<root>"
    err = capsys.readouterr().err
    assert f"{damaged}: {kind} field {where}: {key!r} is a required property" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "export-embeddings"])
def test_dataset_feature_columns_unlike_the_config_exit_2(workspace, capsys, command):
    """A dataset CSV with a feature column dropped no longer fits feature_dim 4."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    dataset = tmp / "data" / "dataset.csv"
    dataset.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in read(dataset).splitlines()))
    capsys.readouterr()
    out = tmp / "out"
    argv = {
        "train": ["--config", str(cfg_path), "--out", str(out)],
        "export-embeddings": ["--run", str(tmp / "run"), "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 2
    assert "dataset.csv: 3 feature columns, the config has feature_dim 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["dataset.csv", "dataset.oracle.csv"])
def test_train_non_utf8_dataset_file_exits_2(workspace, capsys, name):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    with open(tmp / "data" / name, "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")]) == 2
    assert f"{name}: not UTF-8 text (" in capsys.readouterr().err
    assert not (tmp / "run").exists()


@pytest.mark.parametrize(
    "damage, message",
    [
        pytest.param("drop-epoch", ": not a tailssl bank snapshot (missing column 'epoch')",
                     id="drop-epoch"),
        pytest.param("non-utf8", ": not UTF-8 text (", id="non-utf8"),
        pytest.param("empty", ": not a tailssl bank snapshot (missing column 'epoch')",
                     id="empty"),
    ],
)
def test_report_damaged_bank_snapshots_exits_2_before_writing(workspace, capsys, damage, message):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    snapshots = tmp / "run" / "bank_snapshots.csv"
    if damage == "drop-epoch":
        lines = read(snapshots).splitlines(keepends=True)
        snapshots.write_text("".join(line.split(",", 1)[1] for line in lines))
    elif damage == "empty":
        snapshots.write_text("")
    else:
        with open(snapshots, "ab") as fh:
            fh.write(b"0,\xff,1\n")
    capsys.readouterr()
    assert main(["report", "--runs", str(tmp / "run"), "--out", str(tmp / "rep")]) == 2
    assert f"bank_snapshots.csv{message}" in capsys.readouterr().err
    assert not (tmp / "rep").exists()


@pytest.mark.parametrize("command", ["generate", "train", "sweep", "report", "export-embeddings"])
def test_out_path_of_the_wrong_kind_exits_2(workspace, capsys, command):
    """--out names an existing file where a directory is written, or for
    export-embeddings a directory where a CSV file is written."""
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps({"parameter": "beta", "values": [1.0], "base": tiny_config()}))
    out = tmp / "taken"
    if command == "export-embeddings":
        out.mkdir()
    else:
        out.write_text("")
    capsys.readouterr()
    argv = {
        "generate": ["--config", str(cfg_path)],
        "train": ["--config", str(cfg_path)],
        "sweep": ["--config", str(sweep_path)],
        "report": ["--runs", str(tmp / "run")],
        "export-embeddings": ["--run", str(tmp / "run")],
    }[command]
    assert main([command, *argv, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage", ["garbage", "truncated", "npy-array", "empty", "encrypted", "unknown-compression"]
)
def test_export_embeddings_unreadable_model_exits_2(workspace, capsys, damage):
    tmp, cfg_path = workspace
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--out", str(tmp / "run")])
    model = tmp / "run" / "model.npz"
    if damage == "garbage":
        model.write_text("garbage")
    elif damage == "truncated":
        model.write_bytes(model.read_bytes()[:300])
    elif damage == "empty":
        model.write_bytes(b"")
    elif damage in ("encrypted", "unknown-compression"):
        # the first central directory entry: its flag bits at +8, its method at +10
        data = bytearray(model.read_bytes())
        entry = data.index(b"PK\x01\x02")
        if damage == "encrypted":
            data[entry + 8] |= 1  # zipfile: RuntimeError, password required
        else:
            data[entry + 10] = 1  # shrunk; zipfile: NotImplementedError
        model.write_bytes(bytes(data))
    else:
        with open(model, "wb") as f:  # np.save on a path would append .npy
            np.save(f, np.zeros(3))
    capsys.readouterr()
    out = tmp / "emb.csv"
    assert main(["export-embeddings", "--run", str(tmp / "run"), "--out", str(out)]) == 2
    assert "model.npz: not a saved model (" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# output bytes
# ---------------------------------------------------------------------------


def _run_every_command(tmp, cfg):
    """generate, train seed 0, a two-value beta sweep, report over all three runs and
    export-embeddings of the trained run, all under tmp/out; every command exits 0."""
    out = tmp / "out"
    cfg = {**cfg, "data_dir": "out/data"}
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    sweep_path = tmp / "sweep.json"
    sweep_path.write_text(json.dumps({"parameter": "beta", "values": [0.0, 1.0], "base": cfg}))
    runs = [str(out / "run"), *(str(out / "sw" / f"beta-{v}" / "seed-0") for v in ("0.0", "1.0"))]
    for argv in (
        ["generate", "--config", str(cfg_path)],
        ["train", "--config", str(cfg_path), "--out", str(out / "run")],
        ["sweep", "--config", str(sweep_path), "--out", str(out / "sw")],
        ["report", "--runs", *runs, "--out", str(out / "rep")],
        ["export-embeddings", "--run", str(out / "run"), "--out", str(out / "emb.csv"),
         "--split", "labeled"],
    ):
        assert main(argv) == 0, argv
    return out


def _output_digests(out):
    """sha256 of every file under out by relative path, but model.npz and
    config.resolved.json (which stores an absolute path)."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in ("model.npz", "config.resolved.json")
    }


# test_per_class -> {path under out: sha256}; recorded before cli.py's writers were merged
OUTPUT_DIGESTS = {
    6: {
        "data/dataset.csv":
            "039b5f956227f14c7cfd5e6f1727dd1be0f9bbb8bc5f3c71ef8d50b9f14bf12d",
        "data/dataset.oracle.csv":
            "a159a342575c61c98dc5504cebac9735a1c4889d3b0e45a13d79d88473667342",
        "data/manifest.json":
            "1988267ba94c189d2529bec80219d1b36d8869af7b7f7142b194a032c20cfadc",
        "emb.csv":
            "5c4718667fdef3e08bd5f6b41a1194eda1b775d88c3d97246f556853d17c8ec6",
        "rep/accuracy_table.csv":
            "e69a5a94a792fe31718d781b1759b9f4c56c225507e1dfd27e6a8131997cb09f",
        "rep/bank_distribution.csv":
            "2bf25857c63d7ce2ad1e4a7d611ad3f85fd544a52cf7ec04a5b43a9308f1d667",
        "rep/per_class_recall.csv":
            "4526dd3474909aaaf181fe10cf40b69cebb6bef131f96f96c188165ee335d9f7",
        "run/bank_snapshots.csv":
            "8285599346cc60b263f1742ee0148244cdbe7618629c54555f9eb15aab64b1d4",
        "run/epochs.jsonl":
            "a5ea5db2157b2650c652927ad5fd9ded1bbe31a9e1788cd6017fa6fa77884970",
        "run/estimator_snapshots.csv":
            "30c558c6a6bec311ef6d6b3009ceaf5cd9459db5f8fc4ff3435379436b13770a",
        "run/report.json":
            "75a051af838e589f4d432160fc700f21404d2274f49186ef81d4629c369f49fc",
        "sw/aggregate.csv":
            "11941beca47ea5f72786dac218f81637974aa4b708d47f966aeb486b1c81e7b4",
        "sw/beta-0.0/seed-0/bank_snapshots.csv":
            "8285599346cc60b263f1742ee0148244cdbe7618629c54555f9eb15aab64b1d4",
        "sw/beta-0.0/seed-0/epochs.jsonl":
            "a5ea5db2157b2650c652927ad5fd9ded1bbe31a9e1788cd6017fa6fa77884970",
        "sw/beta-0.0/seed-0/estimator_snapshots.csv":
            "30c558c6a6bec311ef6d6b3009ceaf5cd9459db5f8fc4ff3435379436b13770a",
        "sw/beta-0.0/seed-0/report.json":
            "ce8530d3f69e721369d55cb8669cc2846a768015ca9b0aa469b619807a0d70f5",
        "sw/beta-1.0/seed-0/bank_snapshots.csv":
            "8285599346cc60b263f1742ee0148244cdbe7618629c54555f9eb15aab64b1d4",
        "sw/beta-1.0/seed-0/epochs.jsonl":
            "a5ea5db2157b2650c652927ad5fd9ded1bbe31a9e1788cd6017fa6fa77884970",
        "sw/beta-1.0/seed-0/estimator_snapshots.csv":
            "30c558c6a6bec311ef6d6b3009ceaf5cd9459db5f8fc4ff3435379436b13770a",
        "sw/beta-1.0/seed-0/report.json":
            "75a051af838e589f4d432160fc700f21404d2274f49186ef81d4629c369f49fc",
        "sw/sweep_manifest.json":
            "bc877c314788dc3ec1a57c7561b681f93bb9167f5085eb4bc9eda0eaf9b8dcdd",
    },
    0: {
        "data/dataset.csv":
            "2bde9be79636c536e3c02048a9a97dd4dde3f3ac2b344118c518364c8e37ce43",
        "data/dataset.oracle.csv":
            "a159a342575c61c98dc5504cebac9735a1c4889d3b0e45a13d79d88473667342",
        "data/manifest.json":
            "b9d1c0992e93cbd6ac19f53f7f4b4ff5a1229f830fce733a9b77ac0fdcd5f3a2",
        "emb.csv":
            "5c4718667fdef3e08bd5f6b41a1194eda1b775d88c3d97246f556853d17c8ec6",
        "rep/accuracy_table.csv":
            "c8d1a05a737fad7be46629c19d3a1f12fb329335557c6702f5b086e616322a1d",
        "rep/bank_distribution.csv":
            "2bf25857c63d7ce2ad1e4a7d611ad3f85fd544a52cf7ec04a5b43a9308f1d667",
        "rep/per_class_recall.csv":
            "8a2906f898f147a5af47c2dc6f330f7d1439a1ef54f82bc54f920006c34818f3",
        "run/bank_snapshots.csv":
            "8285599346cc60b263f1742ee0148244cdbe7618629c54555f9eb15aab64b1d4",
        "run/epochs.jsonl":
            "c6e4a16f6a058a6092b949777bd5db050625a771e90444ed17f737167ac05c0b",
        "run/estimator_snapshots.csv":
            "30c558c6a6bec311ef6d6b3009ceaf5cd9459db5f8fc4ff3435379436b13770a",
        "run/report.json":
            "85d1aab22a3c443034d3cccfc1099a167199dfd843faf7d7a0bb20a28c4a1120",
        "sw/aggregate.csv":
            "fd44ac6bc941b5755a0cf3f3d31f71dcc1329b9c806986d6eae4e4174c48d478",
        "sw/beta-0.0/seed-0/bank_snapshots.csv":
            "8285599346cc60b263f1742ee0148244cdbe7618629c54555f9eb15aab64b1d4",
        "sw/beta-0.0/seed-0/epochs.jsonl":
            "c6e4a16f6a058a6092b949777bd5db050625a771e90444ed17f737167ac05c0b",
        "sw/beta-0.0/seed-0/estimator_snapshots.csv":
            "30c558c6a6bec311ef6d6b3009ceaf5cd9459db5f8fc4ff3435379436b13770a",
        "sw/beta-0.0/seed-0/report.json":
            "5d91e1357bdecfcf1b0ead7a6039798b876dc493120e02e7c47dd8dbf5a888ab",
        "sw/beta-1.0/seed-0/bank_snapshots.csv":
            "8285599346cc60b263f1742ee0148244cdbe7618629c54555f9eb15aab64b1d4",
        "sw/beta-1.0/seed-0/epochs.jsonl":
            "c6e4a16f6a058a6092b949777bd5db050625a771e90444ed17f737167ac05c0b",
        "sw/beta-1.0/seed-0/estimator_snapshots.csv":
            "30c558c6a6bec311ef6d6b3009ceaf5cd9459db5f8fc4ff3435379436b13770a",
        "sw/beta-1.0/seed-0/report.json":
            "85d1aab22a3c443034d3cccfc1099a167199dfd843faf7d7a0bb20a28c4a1120",
        "sw/sweep_manifest.json":
            "bc877c314788dc3ec1a57c7561b681f93bb9167f5085eb4bc9eda0eaf9b8dcdd",
    },
}


@pytest.mark.parametrize("test_per_class", [6, 0], ids=["tiny", "no-test-rows"])
def test_every_output_file_is_pinned(workspace, capsys, test_per_class):
    # Pins the run-file formats byte for byte; with no test rows every accuracy is
    # NaN, written as null in JSON and as an empty cell in CSV.
    tmp, _ = workspace
    cfg = tiny_config()
    cfg["seeds"] = [0]
    cfg["dataset"]["test_per_class"] = test_per_class
    digests = _output_digests(_run_every_command(tmp, cfg))
    assert digests == OUTPUT_DIGESTS[test_per_class]


def test_readme_documents_the_run_file_columns():
    """The README's epochs.jsonl keys and aggregate.csv header are the ones cli writes."""
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    epochs = readme.split("`epochs.jsonl` (per-epoch `{", 1)[1].split("}`", 1)[0]
    assert tuple(key.strip('"') for key in epochs.split(",")) == cli.JSONL_KEYS
    aggregate = readme.split("aggregates `", 1)[1].split("`", 1)[0]
    assert tuple(aggregate.split(",")) == ("param_value", "seed", *cli.AGGREGATE_KEYS)


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------


def test_validate_fills_defaults():
    cfg = validate_run_config({"name": "x", "dataset": {"num_classes": 2, "feature_dim": 3, "n1": 5, "m1": 5}})
    assert cfg["train"]["lr"] == 0.002
    assert cfg["train"]["ema_decay"] == 0.999
    assert cfg["train"]["lambda_u"] == 1.0
    assert cfg["train"]["hidden_sizes"] == [16, 8]
    assert cfg["train"]["shot_many_min"] is None
    assert cfg["augment"]["weak_noise_sigma"] == 0.1
    assert cfg["dataset"]["test_per_class"] == 100
    assert cfg["dataset"]["gamma_l"] == 1.0
    assert cfg["seeds"] == [0]
    assert "seed" not in cfg["train"] and "augment" not in cfg["train"]


@pytest.mark.parametrize(
    "path, digest",
    [
        ("configs/benchmark.json", "dd32e3f0cab67f9ecc8576b956c17ebd9438ab92e96b51fda86736db1e514569"),
        ("configs/quickstart.json", "d7bc3307fa9fc1d7f59cdaef9f0c4b155c0a988841b0bddae28015169f05c13e"),
    ],
)
def test_resolved_config_hash_is_pinned(path, digest):
    # Catches a drifted default, or an integer default that became a float.
    root = Path(__file__).resolve().parent.parent
    assert config_hash(load_run_config(root / path, use_env=False)) == digest


def test_shipped_sweep_config_resolves_to_its_cells(monkeypatch):
    """configs/sweep_beta.json loads under the current schema: one cell per beta, each
    the quickstart config with that beta."""
    for key in list(os.environ):
        if key.startswith("TAILSSL_"):
            monkeypatch.delenv(key)
    root = Path(__file__).resolve().parent.parent
    sweep = load_sweep_config(root / "configs" / "sweep_beta.json")
    base = load_run_config(root / "configs" / "quickstart.json")
    assert (sweep["parameter"], sweep["values"]) == ("beta", [0.0, 1.0, 3.0])
    assert sweep["cells"] == [{**base, "train": {**base["train"], "beta": v}} for v in (0.0, 1.0, 3.0)]
    assert Path(sweep["base_path"]) == root / "configs" / "quickstart.json"


def test_all_defaults_config_hash_is_pinned():
    # Only the required fields: every other dataset, augment and train value is a default.
    cfg = validate_run_config({"name": "x", "dataset": {"num_classes": 2, "feature_dim": 3, "n1": 5, "m1": 5}})
    assert config_hash(cfg) == "12dc0dfe2c1851c7a20c8e7922164884cb2ce701db74f46132dae3d77164c189"


@pytest.mark.parametrize(
    "schema", [RUN_SCHEMA, SWEEP_SCHEMA, RESOLVED_SCHEMA, REPORT_SCHEMA, MANIFEST_SCHEMA],
    ids=["run", "sweep", "resolved", "report", "manifest"],
)
def test_schemas_are_valid_draft_2020_12(schema):
    jsonschema.Draft202012Validator.check_schema(schema)


def test_validate_reports_field_path():
    with pytest.raises(ConfigError, match="dataset/num_classes"):
        validate_run_config({"name": "x", "dataset": {"num_classes": 1, "feature_dim": 3, "n1": 5, "m1": 5}})


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        validate_run_config(
            {"name": "x", "dataset": {"num_classes": 2, "feature_dim": 3, "n1": 5, "m1": 5}, "extra": 1}
        )


def test_apply_env_overrides_parses_json_values():
    cfg = {"train": {"beta": 1.0}}
    out = apply_env_overrides(cfg, env={"TAILSSL_TRAIN__HIDDEN_SIZES": "[16, 8]"})
    assert out["train"]["hidden_sizes"] == [16, 8]
    assert cfg["train"] == {"beta": 1.0}  # original untouched
