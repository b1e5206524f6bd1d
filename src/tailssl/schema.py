"""A walker of the JSON Schema keywords in KEYWORDS (Draft 2020-12 semantics; any other
keyword raises), and config dataclass fields that declare their bounds in those keywords:
`config` builds the run schema from the declarations, and `check_fields` checks a dataclass.

The walker's one difference from Draft 2020-12: a `number` is finite (RFC 8259), so
NaN, the infinities and an int past the float range are not of type 'number'.
"""

import dataclasses
import functools
import math
import operator
import typing

from .errors import ConfigError

KEYWORDS = {
    "$schema", "type", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "minLength", "minItems", "items", "properties", "required", "additionalProperties",
}

# numpy's largest dimension: the maximum of every field that sizes an array
MAX_SIZE = 2**63 - 1


def _is_number(v) -> bool:
    """A JSON number: RFC 8259 numbers are finite, so NaN, the infinities and an int
    past the float range (on which float arithmetic overflows) are not."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
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
    if isinstance(value, (int, float)) and not isinstance(value, bool):
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


def check(instance, schema: dict, kind: str):
    """Raise ConfigError `<kind> field <path>: <message>` for the first error of instance;
    return instance with its integral floats at `integer` nodes made ints (as_ints)."""
    for path, message in schema_errors(instance, schema):
        raise ConfigError(f"{kind} field {'/'.join(map(str, path)) or '<root>'}: {message}")
    return as_ints(instance, schema)


def as_ints(value, schema: dict):
    """value with each integral float at an `integer` node of schema made an int; Draft
    2020-12 counts 8.0 as an integer, and the code reading the value needs 8."""
    # "type" is a type name or a list of them; "integer" is a substring of no other name
    if isinstance(value, float) and value.is_integer() and "integer" in schema.get("type", ()):
        return int(value)
    if isinstance(value, list) and "items" in schema:
        return [as_ints(item, schema["items"]) for item in value]
    if isinstance(value, dict) and "properties" in schema:
        properties = schema["properties"]
        return {k: as_ints(v, properties[k]) if k in properties else v for k, v in value.items()}
    return value


def bounded(default=dataclasses.MISSING, **keywords):
    """A dataclass field whose metadata holds the schema keywords that bound its value."""
    return dataclasses.field(default=default, metadata=keywords)


_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string", type(None): "null"}


def json_type(annotation) -> dict:
    """JSON schema type of an annotation: a scalar, `X | None`, or `tuple[X, ...]`."""
    if annotation in _JSON_TYPES:
        return {"type": _JSON_TYPES[annotation]}
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return {"type": "array", "items": json_type(args[0])}
    return {"type": [_JSON_TYPES[arg] for arg in args]}


@functools.cache
def field_schemas(cls) -> dict:
    """Schema of each field of the dataclass cls that holds JSON data (a nested dataclass
    does not): its annotation's JSON type plus the keywords in its metadata."""
    hints = typing.get_type_hints(cls)
    return {f.name: {**json_type(hints[f.name]), **f.metadata}
            for f in dataclasses.fields(cls) if not dataclasses.is_dataclass(hints[f.name])}


def _as_json(value):
    """value as JSON: a tuple is an array, a numpy scalar its value."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value.item() if hasattr(value, "item") else value


def check_fields(obj) -> None:
    """Raise ValueError `<Class> field <name>: <message>` for the first field of the
    dataclass obj that breaks its schema (field_schemas), and store an integral float
    of an `int` field as an int (as_ints), so a value accepted here is one the code can use."""
    for name, schema in field_schemas(type(obj)).items():
        value = _as_json(getattr(obj, name))
        for path, message in schema_errors(value, schema, (name,)):
            raise ValueError(f"{type(obj).__name__} field {'/'.join(map(str, path))}: {message}")
        fixed = as_ints(value, schema)
        if fixed is not value:  # an int for a float, or an array; the dataclasses are frozen
            object.__setattr__(obj, name, tuple(fixed) if isinstance(fixed, list) else fixed)
