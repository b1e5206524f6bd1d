"""Run and sweep configuration: JSON files validated against a published schema.

The schemas are Draft 2020-12 JSON Schema data, checked by the walker in
`schema` (re-exported here). Config and run files are strict JSON: the literals NaN
and Infinity are rejected, and a number past the float range, which reads as an
infinity, fails its field's `number` type.

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

from .data import AugmentConfig, DatasetSpec
from .errors import ConfigError
from .schema import KEYWORDS, check, field_schemas, schema_errors  # noqa: F401
from .trainer import TrainConfig
from .util import canonical_json, sha256_text

ENV_PREFIX = "TAILSSL_"

# Each config section is a dataclass; its fields give the section's names, JSON
# types, defaults, required fields and bounds. TrainConfig's seed and augment are
# filled from the other sections by build_train_config; the class count and the
# feature width live in the dataset section alone, and fit reads them off the data.
SECTIONS = {"dataset": DatasetSpec, "augment": AugmentConfig, "train": TrainConfig}
_FILLED_FROM_OTHER_SECTIONS = {"seed", "augment"}


def _section(name: str) -> tuple[dict, dict]:
    """Schema and defaults of one config section, from its dataclass."""
    cls = SECTIONS[name]
    properties, required, defaults = {}, [], {}
    for f in dataclasses.fields(cls):
        if name == "train" and f.name in _FILLED_FROM_OTHER_SECTIONS:
            continue
        properties[f.name] = field_schemas(cls)[f.name]
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
            "items": field_schemas(TrainConfig)["seed"],
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
    return check(_merge_defaults(cfg), RUN_SCHEMA, "config")


def load_run_config(path, use_env: bool = True) -> dict:
    raw = read_json(path, f"cannot read config {path}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    if use_env:
        raw = apply_env_overrides(raw)
    return validate_run_config(raw)


def load_sweep_config(path) -> dict:
    """The sweep's parameter and values; `cells`: one resolved run config per value, the
    base with train[parameter] set to it; and `base_path`: the file a cell's relative
    data_dir resolves against (the base file, or the sweep file for an inline base)."""
    raw = read_json(path, f"cannot read sweep config {path}")
    check(raw, SWEEP_SCHEMA, "sweep")
    base, base_path = raw["base"], path
    if isinstance(base, str):
        base_path = os.path.join(os.path.dirname(os.fspath(path)), base)
        base = load_run_config(base_path)
    else:
        base = validate_run_config(apply_env_overrides(base))
    parameter = raw["parameter"]
    cells = [validate_run_config({**base, "train": {**base["train"], parameter: value}})
             for value in raw["values"]]
    return {"parameter": parameter, "values": raw["values"], "cells": cells,
            "base_path": base_path}


def build_dataset_spec(cfg: dict) -> DatasetSpec:
    try:
        return DatasetSpec(**cfg["dataset"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_train_config(cfg: dict, seed: int) -> TrainConfig:
    try:
        return TrainConfig(seed=seed, augment=AugmentConfig(**cfg["augment"]), **cfg["train"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_hash(resolved_cfg: dict) -> str:
    return sha256_text(canonical_json(resolved_cfg))
