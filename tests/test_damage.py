"""Damage fuzzer: a damaged run artefact makes its reading command exit 0, 2 or 3.

One tiny finished run (its dataset files and its run directory) is built per
session. Each example applies one damage to one artefact, runs a command that
reads it through `cli.main`, and restores the artefact. An exception that
escapes `main` (exit 1 from the console script) fails the example.
"""

import csv
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli import tiny_config

from tailssl.cli import main

# artefact -> the commands that read it
READERS = {
    "data/dataset.csv": ("train", "export-embeddings"),
    "data/dataset.oracle.csv": ("train", "export-embeddings"),
    "data/manifest.json": ("train", "export-embeddings"),
    "run/config.resolved.json": ("report", "export-embeddings"),
    "run/report.json": ("report",),
    "run/bank_snapshots.csv": ("report",),
    "run/model.npz": ("export-embeddings",),
}
DAMAGES = ("truncate", "flip-byte", "json-type", "drop-column", "rename-column", "non-utf8")
OTHER_TYPES = ("x", [], {}, None, 7, 2.5, True)


@pytest.fixture(scope="session")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("damage")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return root, cfg_path


def json_paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


def damage(draw, name, data):
    """data (the bytes of artefact name) after one drawn damage."""
    is_json, is_csv = name.endswith(".json"), name.endswith(".csv")
    kinds = [k for k in DAMAGES if is_json or k != "json-type"]
    kinds = [k for k in kinds if is_csv or not k.endswith("-column")]
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip-byte":
        at, mask = draw(st.integers(0, len(data) - 1)), draw(st.integers(1, 255))
        return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    if kind == "non-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    if kind == "json-type":
        value = json.loads(data)
        path = draw(st.sampled_from(list(json_paths(value))))
        new = draw(st.sampled_from(OTHER_TYPES))
        if not path:
            return json.dumps(new).encode()
        node = value
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = new
        return json.dumps(value).encode()
    rows = list(csv.reader(io.StringIO(data.decode())))
    column = draw(st.integers(0, len(rows[0]) - 1))
    if kind == "drop-column":
        rows = [row[:column] + row[column + 1:] for row in rows]
    else:
        rows[0][column] = draw(st.sampled_from(["", "x", rows[0][column].upper()]))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def run_reader(root, cfg_path, command) -> int:
    out = root / "out"
    argv = {
        "train": ["--config", str(cfg_path), "--out", str(out)],
        "report": ["--runs", str(root / "run"), "--out", str(out)],
        "export-embeddings": ["--run", str(root / "run"), "--out", str(out)],
    }[command]
    try:
        return main([command, *argv])
    finally:
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_damaged_artefact_exits_0_2_or_3(finished_run, data):
    root, cfg_path = finished_run
    name = data.draw(st.sampled_from(sorted(READERS)), label="artefact")
    command = data.draw(st.sampled_from(READERS[name]), label="command")
    path = root / name
    pristine = path.read_bytes()
    path.write_bytes(damage(data.draw, name, pristine))
    try:
        assert run_reader(root, cfg_path, command) in (0, 2, 3)
    finally:
        path.write_bytes(pristine)
