"""Run and sweep configuration: JSON files validated against a published schema.

The schemas are Draft 2020-12 JSON Schema data, and `check` is this module's
own walker of them: it interprets exactly the keywords they use (KEYWORDS),
with Draft 2020-12 semantics, and raises on any other keyword. Run files are
read through the same walker.

A run config bundles the dataset spec, augmentation strengths, training
hyperparameters, a name, and a seed list. Any field can be overridden from the
environment with the prefix TAILSSL_ and double-underscore path separators,
e.g. TAILSSL_TRAIN__BETA=0.5; values are parsed as JSON with a plain-string
fallback. The resolved config (defaults applied) is what gets hashed and
stored next to run outputs.
"""

import copy
import dataclasses
import json
import operator
import os
import typing

from .data import AugmentConfig, DatasetSpec
from .errors import ConfigError
from .trainer import MEMORY_CONTENTS, MODES, TrainConfig
from .util import canonical_json, sha256_text

ENV_PREFIX = "TAILSSL_"

# Each config section is a dataclass; its fields give the section's names, JSON
# types, defaults and required fields. TrainConfig's num_classes, input_dim,
# seed and augment are filled from the other sections by build_train_config.
SECTIONS = {"dataset": DatasetSpec, "augment": AugmentConfig, "train": TrainConfig}
_FILLED_FROM_OTHER_SECTIONS = {"num_classes", "input_dim", "seed", "augment"}

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string", type(None): "null"}

# The constraints the schema adds to a field's JSON type, per section and field.
RANGES = {
    "dataset": {
        "num_classes": {"minimum": 2},
        "feature_dim": {"minimum": 1},
        "n1": {"minimum": 1},
        "m1": {"minimum": 0},
        "gamma_l": {"minimum": 1},
        "gamma_u": {"minimum": 1},
        "test_per_class": {"minimum": 0},
        "separation": {"exclusiveMinimum": 0},
    },
    "augment": {
        "weak_noise_sigma": {"minimum": 0},
        "strong_noise_sigma": {"minimum": 0},
        "strong_dropout_prob": {"minimum": 0, "maximum": 1},
        "strong_scale_jitter": {"minimum": 0, "exclusiveMaximum": 1},
    },
    "train": {
        "mode": {"enum": list(MODES)},
        "tau": {"exclusiveMinimum": 0, "maximum": 1},
        "alpha": {"minimum": 0},
        "beta": {"minimum": 0},
        "lambda_sampling": {"minimum": 0},
        "lambda_u": {"minimum": 0},
        "lambda_m": {"minimum": 0},
        "batch_size": {"minimum": 1},
        "memory_capacity": {"minimum": 1},
        "get_fraction": {"minimum": 0, "maximum": 1},
        "memory_content": {"enum": list(MEMORY_CONTENTS)},
        "warmup_epochs": {"minimum": 0},
        "epochs": {"minimum": 0},
        "iters_per_epoch": {"minimum": 1},
        "lr": {"exclusiveMinimum": 0},
        "ema_decay": {"minimum": 0, "maximum": 1},
        "adam_beta1": {"minimum": 0, "exclusiveMaximum": 1},
        "adam_beta2": {"minimum": 0, "exclusiveMaximum": 1},
        "adam_eps": {"exclusiveMinimum": 0},
        "hidden_sizes": {"items": {"type": "integer", "minimum": 1}, "minItems": 1},
    },
}


def _json_type(annotation) -> dict:
    """JSON schema type of an annotation: a scalar, `X | None`, or `tuple[X, ...]`."""
    if annotation in _JSON_TYPES:
        return {"type": _JSON_TYPES[annotation]}
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return {"type": "array", "items": _json_type(args[0])}
    return {"type": [_JSON_TYPES[arg] for arg in args]}


def _section(name: str) -> tuple[dict, dict]:
    """Schema and defaults of one config section, from its dataclass and its ranges."""
    cls = SECTIONS[name]
    hints = typing.get_type_hints(cls)
    properties, required, defaults = {}, [], {}
    for f in dataclasses.fields(cls):
        if name == "train" and f.name in _FILLED_FROM_OTHER_SECTIONS:
            continue
        properties[f.name] = {**_json_type(hints[f.name]), **RANGES[name].get(f.name, {})}
        if f.default is dataclasses.MISSING:
            required.append(f.name)
        else:
            defaults[f.name] = list(f.default) if isinstance(f.default, tuple) else f.default
    schema = {"type": "object", "additionalProperties": False, "properties": properties}
    if required:
        schema["required"] = required
    return schema, defaults


_SECTION_SCHEMAS, _DEFAULTS = {}, {"seeds": [0], "data_dir": "data"}
for _name in SECTIONS:
    _SECTION_SCHEMAS[_name], _DEFAULTS[_name] = _section(_name)

RUN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "dataset"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "data_dir": {"type": "string"},
        **_SECTION_SCHEMAS,
    },
}

SWEEP_PARAMETERS = ("beta", "lambda_sampling", "alpha", "memory_content", "mode")

SWEEP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["parameter", "values", "base"],
    "additionalProperties": False,
    "properties": {
        "parameter": {"enum": list(SWEEP_PARAMETERS)},
        "values": {"type": "array", "minItems": 1},
        "base": {"type": ["object", "string"]},  # inline run config or a path to one
    },
}

# The keys run_training stores in config.resolved.json beside the resolved config.
RESOLVED_KEYS = {
    "resolved_seed": {"type": "integer"},
    "config_hash": {"type": "string"},
    "dataset_hash": {"type": "string"},
    "data_dir_resolved": {"type": "string"},
}

# A run's config.resolved.json: the run schema with every default filled in, so
# every field of every section is present, plus RESOLVED_KEYS.
RESOLVED_SCHEMA = {
    **RUN_SCHEMA,
    "required": [*RUN_SCHEMA["properties"], *RESOLVED_KEYS],
    "properties": {
        **RUN_SCHEMA["properties"],
        **{name: {**s, "required": list(s["properties"])} for name, s in _SECTION_SCHEMAS.items()},
        **RESOLVED_KEYS,
    },
}

KEYWORDS = {
    "$schema", "type", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "minLength", "minItems", "items", "properties", "required", "additionalProperties",
}

_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}

_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("maximum", operator.gt, "greater than the maximum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"),
)


def schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way value breaks schema, in jsonschema's wording.

    A node's own keywords are checked before its children; a value of the
    wrong type yields only that error. A keyword outside KEYWORDS, or an
    `additionalProperties` other than false, raises NotImplementedError.
    """
    unknown = schema.keys() - KEYWORDS
    if unknown or schema.get("additionalProperties", False) is not False:
        raise NotImplementedError(f"schema keywords not implemented: {sorted(schema)}")
    if "type" in schema:
        types = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_IS_TYPE[t](value) for t in types):
            yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
            return
    # JSON equality: a boolean equals only a boolean, though Python has True == 1.
    if "enum" in schema and not any(
        value == e and isinstance(value, bool) == isinstance(e, bool) for e in schema["enum"]
    ):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if _IS_TYPE["number"](value):
        for keyword, fails, words in _BOUNDS:
            if keyword in schema and fails(value, schema[keyword]):
                yield path, f"{value!r} is {words} {schema[keyword]!r}"
    if isinstance(value, (str, list)):
        least = schema.get("minLength" if isinstance(value, str) else "minItems", 0)
        if len(value) < least:
            yield path, f"{value!r} {'should be non-empty' if least == 1 else 'is too short'}"
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from schema_errors(item, schema["items"], (*path, i))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        if "additionalProperties" in schema:
            extras = sorted(value.keys() - properties.keys(), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(repr, extras))
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        for key, subschema in properties.items():
            if key in value:
                yield from schema_errors(value[key], subschema, (*path, key))


def _merge_defaults(user: dict) -> dict:
    """Fill absent fields; a section that is present but not an object is left for the schema."""
    merged = copy.deepcopy(user)
    for key, default in copy.deepcopy(_DEFAULTS).items():
        value = merged.setdefault(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            merged[key] = {**default, **value}
    return merged


def check(instance, schema: dict, kind: str) -> None:
    """Raise ConfigError `<kind> field <path>: <message>` for the first error of instance."""
    for path, message in schema_errors(instance, schema):
        raise ConfigError(f"{kind} field {'/'.join(map(str, path)) or '<root>'}: {message}")


def read_json(path, unreadable: str):
    """Parse a JSON file; a file that cannot be read or parsed raises ConfigError.

    `unreadable` heads the message for an OSError, which follows in parentheses.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{unreadable} ({exc})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def apply_env_overrides(cfg: dict, env=None) -> dict:
    """Override config fields from TAILSSL_* variables (SECTION__FIELD paths)."""
    env = os.environ if env is None else env
    out = copy.deepcopy(cfg)
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower().split("__")
        raw = env[key]
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{key}: {part} is not a config section")
        node[path[-1]] = value
    return out


def validate_run_config(cfg: dict) -> dict:
    """Apply defaults and schema-validate; returns the resolved config dict."""
    resolved = _merge_defaults(cfg)
    check(resolved, RUN_SCHEMA, "config")
    return resolved


def load_run_config(path, env=None, use_env: bool = True) -> dict:
    raw = read_json(path, f"cannot read config {path}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    if use_env:
        raw = apply_env_overrides(raw, env)
    return validate_run_config(raw)


def load_sweep_config(path, env=None, use_env: bool = True) -> dict:
    raw = read_json(path, f"cannot read sweep config {path}")
    check(raw, SWEEP_SCHEMA, "sweep")
    base = raw["base"]
    if isinstance(base, str):
        base_path = os.path.join(os.path.dirname(os.fspath(path)), base)
        base = load_run_config(base_path, env=env, use_env=use_env)
    else:
        if use_env:
            base = apply_env_overrides(base, env)
        base = validate_run_config(base)
    # Type-check each sweep value by materializing the config it produces.
    for value in raw["values"]:
        trial = copy.deepcopy(base)
        trial["train"][raw["parameter"]] = value
        validate_run_config(trial)
    return {"parameter": raw["parameter"], "values": raw["values"], "base": base}


def build_dataset_spec(cfg: dict) -> DatasetSpec:
    return DatasetSpec(**cfg["dataset"])


def build_augment_config(cfg: dict) -> AugmentConfig:
    try:
        return AugmentConfig(**cfg["augment"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_train_config(cfg: dict, seed: int) -> TrainConfig:
    train = dict(cfg["train"])
    train["hidden_sizes"] = tuple(train["hidden_sizes"])
    try:
        return TrainConfig(
            num_classes=cfg["dataset"]["num_classes"],
            input_dim=cfg["dataset"]["feature_dim"],
            seed=seed,
            augment=build_augment_config(cfg),
            **train,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_hash(resolved_cfg: dict) -> str:
    return sha256_text(canonical_json(resolved_cfg))
