"""The config checker: its keywords, its agreement with jsonschema, the import footprint,
and the field bounds that the run schema and the config dataclasses share."""

import copy
import dataclasses
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailssl
from tailssl.cli import MANIFEST_SCHEMA, REPORT_SCHEMA
from tailssl.config import (
    KEYWORDS,
    RESOLVED_SCHEMA,
    RUN_SCHEMA,
    SECTIONS,
    SWEEP_SCHEMA,
    check,
    schema_errors,
    validate_run_config,
)
from tailssl.data import AugmentConfig, DatasetSpec
from tailssl.errors import ConfigError
from tailssl.trainer import TrainConfig

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
cfg = TrainConfig(hidden_sizes=(8, 4), batch_size=8,
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


# ---------------------------------------------------------------------------
# field bounds: one declaration, read by the run schema and by the dataclass
# ---------------------------------------------------------------------------

# Valid fields for each section; weak noise 0 lets strong noise sit on its own bound.
BASES = {
    "dataset": {"num_classes": 3, "feature_dim": 4, "n1": 20, "m1": 30},
    "augment": {"weak_noise_sigma": 0.0},
    "train": {},
}


def constructs(section, fields, as_numpy=False):
    """Whether the section's dataclass accepts fields (over BASES), values as given
    or as numpy scalars."""
    fields = {**BASES[section], **fields}
    for name, value in fields.items():
        if isinstance(value, list):
            fields[name] = tuple(np.int64(v) for v in value) if as_numpy else tuple(value)
        elif as_numpy and isinstance(value, (int, float)) and not isinstance(value, bool):
            fields[name] = np.int64(value) if isinstance(value, int) else np.float64(value)
    try:
        SECTIONS[section](**fields)
    except ValueError:
        return False
    return True


def validates(section, fields):
    """Whether validate_run_config accepts fields (over BASES); TrainConfig.seed is
    the run config's `seeds` list."""
    cfg = {"name": "x", **copy.deepcopy(BASES)}
    cfg[section].update(fields)
    if "seed" in cfg["train"]:
        cfg["seeds"] = [cfg["train"].pop("seed")]
    try:
        validate_run_config(cfg)
    except ConfigError:
        return False
    return True


def bounded_fields():
    """(section, field name, JSON type, metadata) of every field that declares keywords."""
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.metadata:
                json_type = {int: "integer", float: "number", str: "string"}.get(hints[f.name], "array")
                yield section, f.name, json_type, dict(f.metadata)


def with_pair(section, name, value):
    """{name: value}, plus strong noise = weak noise so only the bound under test can fail."""
    if name == "weak_noise_sigma":
        return {name: value, "strong_noise_sigma": value}
    return {name: value}


def bound_cases():
    """(id, section, fields, accepted): the nearest value inside each bound, the
    bound itself and the nearest value past it; each enum member and one
    non-member; hidden_sizes around minItems and its items' minimum and maximum."""
    for section, name, json_type, metadata in bounded_fields():
        for keyword in BOUNDS:
            if keyword not in metadata:
                continue
            bound, exclusive = metadata[keyword], keyword.startswith("exclusive")
            outward = -1 if keyword in ("minimum", "exclusiveMinimum") else 1
            if json_type == "integer":
                values = {"inside": bound - outward, "on": bound, "past": bound + outward}
            else:
                bound = float(bound)
                values = {
                    "inside": math.nextafter(bound, -outward * math.inf),
                    "on": bound,
                    "past": math.nextafter(bound, outward * math.inf),
                }
            for where, value in values.items():
                accepted = where == "inside" or (where == "on" and not exclusive)
                yield (f"{section}.{name}-{keyword}-{where}", section,
                       with_pair(section, name, value), accepted)
        for member in metadata.get("enum", ()):
            yield f"{section}.{name}-enum-{member}", section, {name: member}, True
        if "enum" in metadata:
            yield f"{section}.{name}-enum-bogus", section, {name: "bogus"}, False
        if "minItems" in metadata:
            for value, accepted in (([], False), ([1], True)):
                yield f"{section}.{name}-minItems-{value}", section, {name: value}, accepted
        if "items" in metadata:
            for value, accepted in (([1, 1], True), ([0], False), ([16, 0], False),
                                    ([2**63 - 1], True), ([16, 2**63], False)):
                yield f"{section}.{name}-items-{value}", section, {name: value}, accepted


BOUND_CASES = list(bound_cases())

# The fields whose bound only the run schema enforced before it was declared on the field.
SCHEMA_ONLY_BOUNDS = [
    ("train", {"lr": 0.0}),
    ("train", {"lambda_sampling": -1}),
    ("train", {"warmup_epochs": -1}),
    ("train", {"adam_beta1": 1.0}),
    ("train", {"adam_beta2": -0.1}),
    ("train", {"adam_eps": 0.0}),
    ("train", {"ema_decay": 1.5}),
    ("train", {"hidden_sizes": []}),
    ("train", {"hidden_sizes": [0]}),
    ("train", {"memory_capacity": 0, "mode": "vanilla"}),
    ("dataset", {"feature_dim": 0}),
    ("dataset", {"separation": 0.0}),
    ("train", {"seed": -1}),
    ("dataset", {"geometry_seed": -1}),
    ("dataset", {"sample_seed": -1}),
]

# Values that the hand-written __post_init__ checks rejected before the bounds moved
# to the fields, NaN included (a bound compares false against it).
HAND_CHECKED = [
    ("dataset", {"num_classes": 1}), ("dataset", {"n1": 0}), ("dataset", {"m1": -1}),
    ("dataset", {"gamma_l": 0.999}), ("dataset", {"gamma_u": 0.5}),
    ("dataset", {"test_per_class": -1}),
    ("augment", {"weak_noise_sigma": -0.1}), ("augment", {"strong_noise_sigma": -0.1}),
    ("augment", {"weak_noise_sigma": 0.5, "strong_noise_sigma": 0.4}),
    ("augment", {"strong_dropout_prob": -0.1}), ("augment", {"strong_dropout_prob": 1.5}),
    ("augment", {"strong_dropout_prob": math.nan}),
    ("augment", {"strong_scale_jitter": -0.1}), ("augment", {"strong_scale_jitter": 1.0}),
    ("augment", {"strong_scale_jitter": math.nan}),
    ("train", {"mode": "nope"}), ("train", {"memory_content": "medium"}),
    ("train", {"tau": 0.0}), ("train", {"tau": 1.5}), ("train", {"tau": math.nan}),
    ("train", {"alpha": -1e-9}), ("train", {"beta": -1e-9}),
    ("train", {"lambda_u": -1e-9}), ("train", {"lambda_m": -1e-9}),
    ("train", {"get_fraction": -0.1}), ("train", {"get_fraction": 1.5}),
    ("train", {"get_fraction": math.nan}),
    ("train", {"memory_capacity": 0}), ("train", {"batch_size": 0}),
    ("train", {"epochs": -1}), ("train", {"iters_per_epoch": 0}),
    ("train", {"shot_many_min": 5}), ("train", {"shot_few_max": 5}),
]


def test_bound_cases_cover_every_declared_keyword():
    covered = {tuple(case[0].split("-")[:2]) for case in BOUND_CASES}
    declared = {(f"{section}.{name}", keyword)
                for section, name, _, metadata in bounded_fields() for keyword in metadata}
    assert declared == covered
    names = {name for name, _ in covered}
    assert {f"{s}.{next(iter(f))}" for s, f in SCHEMA_ONLY_BOUNDS} <= names
    assert {"train.seed", "dataset.geometry_seed", "dataset.sample_seed"} <= names


@pytest.mark.parametrize("section, fields, accepted", [c[1:] for c in BOUND_CASES],
                         ids=[c[0] for c in BOUND_CASES])
def test_schema_and_constructor_agree_on_each_bound(section, fields, accepted):
    assert validates(section, fields) == accepted
    assert constructs(section, fields) == accepted
    values = [v for value in fields.values()
              for v in (value if isinstance(value, list) else [value])]
    # no numpy int holds 2**63, the value just past a size field's maximum
    if not any(isinstance(v, str) or v > np.iinfo(np.int64).max for v in values):
        assert constructs(section, fields, as_numpy=True) == accepted


@pytest.mark.parametrize("section, fields", SCHEMA_ONLY_BOUNDS, ids=repr)
def test_constructor_rejects_what_only_the_schema_rejected(section, fields):
    assert not validates(section, fields)
    assert not constructs(section, fields)
    assert not constructs(section, fields, as_numpy=True)


@pytest.mark.parametrize("section, fields", HAND_CHECKED, ids=repr)
def test_constructor_still_rejects_what_its_hand_written_checks_rejected(section, fields):
    assert not constructs(section, fields)
    assert not constructs(section, fields, as_numpy=True)
    as_float32 = {k: np.float32(v) for k, v in fields.items() if isinstance(v, float)}
    if all(float(v) == fields[k] or math.isnan(v) for k, v in as_float32.items()) and as_float32:
        assert not constructs(section, {**fields, **as_float32})


def test_constructor_message_names_the_class_and_the_field():
    with pytest.raises(ValueError, match="^TrainConfig field tau: 0 is less than or equal to "
                                         "the minimum of 0$"):
        TrainConfig(tau=np.int64(0))
    with pytest.raises(ValueError, match="^TrainConfig field hidden_sizes/1: 0 is less than "):
        TrainConfig(hidden_sizes=(8, 0))
    with pytest.raises(ValueError, match="^AugmentConfig field strong_dropout_prob: nan is not "
                                         "of type 'number'$"):
        AugmentConfig(strong_dropout_prob=math.nan)
    with pytest.raises(ValueError, match="^DatasetSpec field sample_seed: -1 is less than"):
        DatasetSpec(num_classes=3, feature_dim=4, n1=5, m1=5, sample_seed=-1)


def test_constructor_stores_an_integral_float_of_an_int_field_as_an_int():
    """8.0 is an integer to the schema, so the constructor keeps 8, which numpy can
    size an array by."""
    cfg = TrainConfig(batch_size=np.float64(8.0), hidden_sizes=(6.0, 4), shot_many_min=5.0,
                      shot_few_max=2)
    assert (cfg.batch_size, cfg.hidden_sizes, cfg.shot_many_min) == (8, (6, 4), 5)
    assert all(type(v) is int for v in (cfg.batch_size, *cfg.hidden_sizes, cfg.shot_many_min))
    spec = DatasetSpec(num_classes=3, feature_dim=4.0, n1=5, m1=5, sample_seed=2.0)
    assert (type(spec.feature_dim), type(spec.sample_seed)) == (int, int)


@pytest.mark.parametrize(
    "fields",
    [{"batch_size": 8.5}, {"hidden_sizes": [6.5]}, {"epochs": "3"}, {"aux_stopgrad": 1},
     {"tau": True}],
    ids=repr,
)
def test_schema_and_constructor_reject_a_value_of_the_wrong_json_type(fields):
    assert not validates("train", fields)
    assert not constructs("train", fields)


# Python numbers that RFC 8259 does not have: Python's json reads 1e400 as inf.
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, -(10**400)]


@st.composite
def field_values(draw):
    """A bounded field and a value of its JSON type, often near or past a bound."""
    section, name, json_type, metadata = draw(st.sampled_from(list(bounded_fields())))
    if json_type == "integer":
        value = draw(st.integers(-3, 3) | st.integers())
    elif json_type == "number":
        near = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from([-math.inf, math.inf]))
        value = draw(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)
                     | near.map(lambda pair: math.nextafter(*pair)) | st.sampled_from(NOT_FINITE))
    elif json_type == "string":
        value = draw(st.sampled_from([*metadata["enum"], "x"]))
    else:
        value = draw(st.lists(st.integers(-2, 20), max_size=3))
    return section, with_pair(section, name, value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=field_values())
def test_schema_and_constructor_agree_on_any_value(case):
    section, fields = case
    assert validates(section, fields) == constructs(section, fields)


# ---------------------------------------------------------------------------
# the walker's one difference from Draft 2020-12: a number is finite
# ---------------------------------------------------------------------------

def types_of(node):
    types = node.get("type", [])
    return [types] if isinstance(types, str) else types


NUMERIC_NODES = list({repr(node): node for schema in SCHEMAS.values() for node in subschemas(schema)
                      if {"number", "integer"} & set(types_of(node))}.values())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(node=st.sampled_from([{"type": "number"}, *NUMERIC_NODES]),
       value=st.sampled_from(NOT_FINITE) | st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-(2**1000), 2**1000) | st.integers(-3, 3) | st.booleans() | st.none()
       | st.text(max_size=2))
def test_walker_refuses_exactly_the_non_finite_numbers_at_a_number_node(node, value):
    """Where jsonschema's validator accepts NaN, an infinity or an int past the float
    range at a `number` node, the walker refuses it as not of type 'number'; on every
    other value, and at every `integer` node, the two agree."""
    got = list(schema_errors(value, node))
    if "number" in types_of(node) and any(value is v or value == v for v in NOT_FINITE):
        assert got == [((), f"{value!r} is not of type {', '.join(map(repr, types_of(node)))}")]
        assert jsonschema.Draft202012Validator({"type": "number"}).is_valid(value)
    else:  # as in test_checker_agrees_with_jsonschema
        want = {(tuple(e.absolute_path), e.message)
                for e in jsonschema.Draft202012Validator(node).iter_errors(value)}
        assert bool(got) == bool(want)
        if got:
            assert got[0] in want
