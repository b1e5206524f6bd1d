"""Run and sweep configuration: JSON files validated against a published schema.

The schemas are Draft 2020-12 JSON Schema data, checked by the walker in
`schema` (re-exported here). Config and run files are strict JSON: NaN and the
infinities are rejected.

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
import os
import typing

from .data import AugmentConfig, DatasetSpec
from .errors import ConfigError
from .schema import _BOUNDS, _IS_TYPE, KEYWORDS, check, schema_errors  # noqa: F401
from .trainer import TrainConfig
from .util import canonical_json, sha256_text

ENV_PREFIX = "TAILSSL_"

# Each config section is a dataclass; its fields give the section's names, JSON
# types, defaults, required fields and bounds. TrainConfig's num_classes, input_dim,
# seed and augment are filled from the other sections by build_train_config.
SECTIONS = {"dataset": DatasetSpec, "augment": AugmentConfig, "train": TrainConfig}
_FILLED_FROM_OTHER_SECTIONS = {"num_classes", "input_dim", "seed", "augment"}

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string", type(None): "null"}


def _json_type(annotation) -> dict:
    """JSON schema type of an annotation: a scalar, `X | None`, or `tuple[X, ...]`."""
    if annotation in _JSON_TYPES:
        return {"type": _JSON_TYPES[annotation]}
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return {"type": "array", "items": _json_type(args[0])}
    return {"type": [_JSON_TYPES[arg] for arg in args]}


def _property(cls, hints: dict, name: str) -> dict:
    """Schema of a dataclass field: its annotation's JSON type plus its metadata's keywords."""
    return {**_json_type(hints[name]), **cls.__dataclass_fields__[name].metadata}


def _section(name: str) -> tuple[dict, dict]:
    """Schema and defaults of one config section, from its dataclass."""
    cls = SECTIONS[name]
    hints = typing.get_type_hints(cls)
    properties, required, defaults = {}, [], {}
    for f in dataclasses.fields(cls):
        if name == "train" and f.name in _FILLED_FROM_OTHER_SECTIONS:
            continue
        properties[f.name] = _property(cls, hints, f.name)
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
        "seeds": {
            "type": "array",
            "items": _property(TrainConfig, typing.get_type_hints(TrainConfig), "seed"),
            "minItems": 1,
        },
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

def _merge_defaults(user: dict) -> dict:
    """Fill absent fields; a section that is present but not an object is left for the schema."""
    merged = copy.deepcopy(user)
    for key, default in copy.deepcopy(_DEFAULTS).items():
        value = merged.setdefault(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            merged[key] = {**default, **value}
    return merged


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# Python's json reads NaN, Infinity and -Infinity, which JSON does not have.
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def read_json(path, unreadable: str):
    """Parse a strict JSON file; a file that cannot be read or parsed raises ConfigError.

    `unreadable` heads the message for an OSError, which follows in parentheses.
    """
    try:
        with open(path) as fh:
            return _STRICT_JSON.decode(fh.read())
    except OSError as exc:
        raise ConfigError(f"{unreadable} ({exc})") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or a constant
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
            value = _STRICT_JSON.decode(raw)
        except ValueError:
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


def build_train_config(cfg: dict, seed: int) -> TrainConfig:
    train = dict(cfg["train"])
    train["hidden_sizes"] = tuple(train["hidden_sizes"])
    try:
        return TrainConfig(
            num_classes=cfg["dataset"]["num_classes"],
            input_dim=cfg["dataset"]["feature_dim"],
            seed=seed,
            augment=AugmentConfig(**cfg["augment"]),
            **train,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_hash(resolved_cfg: dict) -> str:
    return sha256_text(canonical_json(resolved_cfg))
