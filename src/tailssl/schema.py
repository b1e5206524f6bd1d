"""A walker of the JSON Schema keywords in KEYWORDS (Draft 2020-12 semantics; any other
keyword raises), and config dataclass fields that declare their bounds in those keywords:
`config` builds the run schema from the declarations, and `check_fields` checks a dataclass.
"""

import dataclasses
import math
import operator

from .errors import ConfigError

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


def check(instance, schema: dict, kind: str) -> None:
    """Raise ConfigError `<kind> field <path>: <message>` for the first error of instance."""
    for path, message in schema_errors(instance, schema):
        raise ConfigError(f"{kind} field {'/'.join(map(str, path)) or '<root>'}: {message}")


def bounded(default=dataclasses.MISSING, **keywords):
    """A dataclass field whose metadata holds the schema keywords that bound its value."""
    return dataclasses.field(default=default, metadata=keywords)


def _as_json(value):
    """value as JSON: a tuple is an array, a numpy scalar its value, a boolean 0 or 1."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    if hasattr(value, "item"):
        value = value.item()
    return int(value) if isinstance(value, bool) else value


def check_fields(obj) -> None:
    """Raise ValueError `<Class> field <name>: <message>` for the first field of the
    dataclass obj that breaks the schema keywords in its metadata.

    NaN and the infinities break every field: JSON cannot write them, and a
    bound compares false against NaN.
    """
    for f in dataclasses.fields(obj):
        value = _as_json(getattr(obj, f.name))
        if isinstance(value, float) and not math.isfinite(value):
            errors = [((f.name,), f"{value!r} is not a JSON number")]
        else:
            errors = schema_errors(value, f.metadata, (f.name,))
        for path, message in errors:
            raise ValueError(f"{type(obj).__name__} field {'/'.join(map(str, path))}: {message}")
