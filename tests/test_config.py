"""The config checker: its keywords, its agreement with jsonschema, and the import footprint."""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailssl
from tailssl.cli import MANIFEST_SCHEMA, REPORT_SCHEMA
from tailssl.config import (
    KEYWORDS,
    RESOLVED_SCHEMA,
    RUN_SCHEMA,
    SWEEP_SCHEMA,
    check,
    schema_errors,
)
from tailssl.errors import ConfigError

SCHEMAS = {"run": RUN_SCHEMA, "sweep": SWEEP_SCHEMA, "resolved": RESOLVED_SCHEMA,
           "report": REPORT_SCHEMA, "manifest": MANIFEST_SCHEMA}
VALIDATORS = {name: jsonschema.Draft202012Validator(s) for name, s in SCHEMAS.items()}


def subschemas(schema):
    """schema and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_schema_keyword_is_one_the_checker_implements(name):
    for node in subschemas(SCHEMAS[name]):
        assert node.keys() <= KEYWORDS, node
        assert node.get("additionalProperties", False) is False, node


@pytest.mark.parametrize(
    "schema",
    [{"type": "string", "pattern": "a"}, {"type": "object", "additionalProperties": {"type": "integer"}}],
    ids=["pattern", "additionalProperties-schema"],
)
def test_checker_raises_on_a_keyword_it_does_not_implement(schema):
    with pytest.raises(NotImplementedError):
        check("a", schema, "config")


def run_python(code, cwd=None):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = Path(tailssl.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )


def test_importing_the_package_does_not_import_jsonschema():
    code = "import sys, tailssl, tailssl.config, tailssl.cli; assert 'jsonschema' not in sys.modules"
    result = run_python(code)
    assert result.returncode == 0, result.stderr


# generate, save, load with an oracle, a bmb fit past warmup, and its report
PIPELINE = """
import sys
from tailssl.cli import build_report
from tailssl.data import DatasetSpec, generate_dataset, load_dataset, save_dataset
from tailssl.trainer import TrainConfig, fit

spec = DatasetSpec(num_classes=3, feature_dim=4, n1=20, m1=30, gamma_l=4, gamma_u=4,
                   test_per_class=6)
save_dataset(generate_dataset(spec), "ds.csv", "ds.oracle.csv")
ds = load_dataset("ds.csv", "ds.oracle.csv", num_classes=3)
cfg = TrainConfig(num_classes=3, input_dim=4, hidden_sizes=(8, 4), batch_size=8,
                  memory_capacity=16, warmup_epochs=1, epochs=2, iters_per_epoch=5, tau=0.1)
state, log = fit(ds, cfg)
assert state.ledger.counts.sum() > 0
build_report("tiny", 0, "c", "d", cfg.mode, log)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_a_run_does_not_import_numpy_ma(tmp_path):
    """numpy.ma costs about 1.3 MB of resident memory and no step needs it."""
    result = run_python(PIPELINE, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "config field <root>: True is not of type 'integer'"),
        (1.0, None),
        (1.5, "config field <root>: 1.5 is not of type 'integer'"),
        (0, "config field <root>: 0 is less than the minimum of 1"),
    ],
    ids=repr,
)
def test_integer_follows_draft_2020_12(value, message):
    """1.0 is an integer and a boolean is not a number."""
    schema = {"type": "integer", "minimum": 1}
    if message is None:
        check(value, schema, "config")
    else:
        with pytest.raises(ConfigError) as info:
            check(value, schema, "config")
        assert str(info.value) == message


@pytest.mark.parametrize("value", [True, 1, 1.0, 0, False, "1"], ids=repr)
def test_enum_keeps_booleans_apart_from_numbers(value):
    """JSON equality: 1 equals 1.0 but not true, though Python has True == 1."""
    schema = {"enum": [1, "a"]}
    accepted = not list(schema_errors(value, schema))
    assert accepted == jsonschema.Draft202012Validator(schema).is_valid(value)
    assert accepted == (value == 1 and not isinstance(value, bool))


# ---------------------------------------------------------------------------
# differential: the checker against jsonschema's Draft 2020-12 validator
# ---------------------------------------------------------------------------

ANY_SCALAR = {"type": ["null", "boolean", "integer", "number", "string"]}


def instances(schema):
    """Strategy for JSON values that satisfy schema."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema.get("type", ANY_SCALAR["type"])
    types = [types] if isinstance(types, str) else types
    return st.one_of([_of_type(t, schema) for t in types])


def _of_type(json_type, schema):
    if json_type == "null":
        return st.none()
    if json_type == "boolean":
        return st.booleans()
    if json_type == "string":
        return st.text(min_size=schema.get("minLength", 0), max_size=4)
    if json_type == "array":
        items = instances(schema.get("items", ANY_SCALAR))
        return st.lists(items, min_size=schema.get("minItems", 0), max_size=3)
    if json_type == "object":
        properties, required = schema.get("properties", {}), schema.get("required", [])
        return st.fixed_dictionaries(
            {k: instances(s) for k, s in properties.items() if k in required},
            optional={k: instances(s) for k, s in properties.items() if k not in required},
        )
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    high = schema.get("maximum", schema.get("exclusiveMaximum"))
    int_low = None if low is None else math.floor(low) + 1 if "exclusiveMinimum" in schema else math.ceil(low)
    int_high = None if high is None else math.ceil(high) - 1 if "exclusiveMaximum" in schema else math.floor(high)
    ints = st.integers(min_value=int_low, max_value=int_high)
    if json_type == "integer":
        return ints
    floats = st.floats(
        min_value=low, max_value=high, exclude_min="exclusiveMinimum" in schema,
        exclude_max="exclusiveMaximum" in schema, allow_nan=False, allow_infinity=False,
    )
    return floats | ints if int_low is None or int_high is None or int_low <= int_high else floats


def nodes(value, schema, path=()):
    """(path, value, schema) of value and of each part of it that schema describes."""
    yield path, value, schema
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from nodes(value[key], sub, (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from nodes(item, schema["items"], (*path, i))


BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")

# Each damage, and the parts of a config it applies to.
MUTATIONS = {
    "wrong-type": lambda value, schema: True,
    "bool-for-number": lambda value, schema: type(value) in (int, float),
    "float-for-integer": lambda value, schema: type(value) is int,
    # out of range: just past a bound, or on an exclusive one
    **{k: lambda value, schema, k=k: k in schema and type(value) in (int, float) for k in BOUNDS},
    "unknown-key": lambda value, schema: isinstance(value, dict),
    "missing-required": lambda value, schema: isinstance(value, dict)
    and any(k in value for k in schema.get("required", ())),
    "empty": lambda value, schema: isinstance(value, (str, list)),
}


def mutated(draw, value, schema, kind):
    """value after one damage of the given kind."""
    if kind == "wrong-type":
        return draw(st.sampled_from(["x", [], {}, None, 7, 2.5, True]))
    if kind == "bool-for-number":
        return draw(st.booleans())
    if kind == "float-for-integer":
        return float(value)
    if kind in BOUNDS:
        step = draw(st.sampled_from([1, 0.5]))
        return {"minimum": schema[kind] - step, "maximum": schema[kind] + step}.get(kind, schema[kind])
    if kind == "unknown-key":
        return {**value, "bogus": 1}
    if kind == "missing-required":
        key = draw(st.sampled_from([k for k in schema["required"] if k in value]))
        return {k: v for k, v in value.items() if k != key}
    return draw(st.sampled_from(["", []]))


@st.composite
def damaged(draw, name):
    """A config valid under SCHEMAS[name], or the same config with one damage."""
    schema = SCHEMAS[name]
    value = draw(instances(schema))
    if draw(st.integers(0, 3)) == 0:
        return value
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    targets = [n for n in nodes(value, schema) if MUTATIONS[kind](n[1], n[2])]
    if not targets:
        return value
    path, part, node = draw(st.sampled_from(targets))
    if not path:
        return mutated(draw, part, node, kind)
    value = copy.deepcopy(value)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = mutated(draw, part, node, kind)
    return value


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_checker_agrees_with_jsonschema(name, data):
    """The checker accepts exactly what jsonschema accepts; a rejection names one of
    jsonschema's error paths, with jsonschema's message for it."""
    value = data.draw(damaged(name))
    got = list(schema_errors(value, SCHEMAS[name]))
    want = {(tuple(e.absolute_path), e.message) for e in VALIDATORS[name].iter_errors(value)}
    assert bool(got) == bool(want)
    assert {path for path, _ in got} == {path for path, _ in want}
    if got:
        assert got[0] in want
