"""A small interpreter of the JSON Schema keywords the config schemas use.

It reads exactly the keywords of ``config.CONFIG_SCHEMA`` and
``config.GRAPH_SCHEMA`` with their Draft 2020-12 meaning (type, properties,
required, additionalProperties: false, items, minItems/maxItems,
minimum/maximum and their exclusive forms, enum, const, allOf, anyOf, oneOf,
if/then/else and the boolean schema true), ignores the annotations
``$schema``, ``title`` and ``default`` and raises on any other keyword, so
the schema cannot outgrow it unnoticed. Errors come out in the order
jsonschema's ``Draft202012Validator.iter_errors`` yields them, with its messages.

One deviation from Draft 2020-12: ``"integer"`` means a JSON integer literal
(a Python ``int`` that is not a ``bool``), so ``4.0`` is not an integer.
"""

from __future__ import annotations

from typing import Any, Iterator

# (instance path, message, messages of the failed alternatives of anyOf/oneOf)
SchemaError = tuple[tuple, str, tuple[str, ...]]

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
}
_is_number = _TYPES["number"]


def _equal(a: Any, b: Any) -> bool:
    """JSON equality: numbers compare by value, but true is not 1."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def iter_errors(instance: Any, schema: dict | bool, path: tuple = ()) -> Iterator[SchemaError]:
    """Yield every way ``instance`` (found at ``path``) fails ``schema``."""
    if schema is True:
        return
    for keyword, value in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is None:
            raise ValueError(f"unsupported JSON Schema keyword {keyword!r}")
        yield from check(value, instance, schema, path)


def _type(t, x, schema, path):
    if not _TYPES[t](x):
        yield path, f"{x!r} is not of type {t!r}", ()


def _properties(props, x, schema, path):
    if isinstance(x, dict):
        for key, sub in props.items():
            if key in x:
                yield from iter_errors(x[key], sub, path + (key,))


def _required(keys, x, schema, path):
    if isinstance(x, dict):
        for key in keys:
            if key not in x:
                yield path, f"{key!r} is a required property", ()


def _additional_properties(allowed, x, schema, path):
    if allowed is not False:
        raise ValueError("only additionalProperties: false is supported")
    if isinstance(x, dict):
        extras = sorted(key for key in x if key not in schema.get("properties", {}))
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)", ()


def _items(sub, x, schema, path):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from iter_errors(item, sub, path + (i,))


def _min_items(n, x, schema, path):
    if isinstance(x, list) and len(x) < n:
        yield path, f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}", ()


def _max_items(n, x, schema, path):
    if isinstance(x, list) and len(x) > n:
        yield path, f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}", ()


def _bound(fails, text):
    def check(bound, x, schema, path):
        if _is_number(x) and fails(x, bound):
            yield path, f"{x!r} is {text} {bound!r}", ()
    return check


def _enum(options, x, schema, path):
    if not any(_equal(option, x) for option in options):
        yield path, f"{x!r} is not one of {options!r}", ()


def _const(value, x, schema, path):
    if not _equal(x, value):
        yield path, f"{value!r} was expected", ()


def _all_of(subs, x, schema, path):
    for sub in subs:
        yield from iter_errors(x, sub, path)


def _any_of(subs, x, schema, path):
    context = []
    for sub in subs:
        errors = list(iter_errors(x, sub, path))
        if not errors:
            return
        context += errors
    yield path, f"{x!r} is not valid under any of the given schemas", tuple(m for _, m, _ in context)


def _one_of(subs, x, schema, path):
    errors = [list(iter_errors(x, sub, path)) for sub in subs]
    valid = [sub for sub, errs in zip(subs, errors) if not errs]
    if not valid:
        context = tuple(m for errs in errors for _, m, _ in errs)
        yield path, f"{x!r} is not valid under any of the given schemas", context
    elif len(valid) > 1:
        # jsonschema names the later valid alternatives first, then the first one
        yield path, f"{x!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}", ()


def _if(cond, x, schema, path):
    branch = "then" if next(iter_errors(x, cond), None) is None else "else"
    if branch in schema:
        yield from iter_errors(x, schema[branch], path)


def _ignored(value, x, schema, path):
    return ()


_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _bound(lambda x, b: x < b, "less than the minimum of"),
    "maximum": _bound(lambda x, b: x > b, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda x, b: x <= b, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(lambda x, b: x >= b, "greater than or equal to the maximum of"),
    "enum": _enum,
    "const": _const,
    "allOf": _all_of,
    "anyOf": _any_of,
    "oneOf": _one_of,
    "if": _if,
    "then": _ignored,  # read by "if"
    "else": _ignored,  # read by "if"
    "$schema": _ignored,
    "title": _ignored,
    "default": _ignored,
}
