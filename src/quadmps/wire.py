"""Frozen records, and one JSON codec for the report types.

A `Record` subclass is a frozen value type whose fields are its own
annotations, in order; its methods are `Record`'s own, and no code is
generated per class. A report type is a record, and its field
annotations say how each field crosses the wire:

* `int`, `bool`, `str`: exactly that JSON type, so a bool is never an int;
* `Fraction`: a string, written by `format_rational` and read by
  `parse_rational`, and only in the form `format_rational` writes;
* `X | None`: null or X;
* `tuple[X, ...]`: a JSON array;
* `tuple[tuple[str, X], ...]`: a JSON object keyed by the str, sorted
  by key on load;
* another report type: an object with exactly its keys.

A record's `_wire_keys`, {field: key}, writes a field under another
key. A type may define `summary()`, returning keys derived from its
fields; they are written next to the fields, and on load each must
equal, in value and JSON type, what the loaded fields give. A payload
loads only with exactly its wire keys, and every failure to load is a
ParseError. Each type's field spec is resolved on first use and kept.
"""

from __future__ import annotations

import sys
import types
from fractions import Fraction
from functools import cache
from typing import get_args, get_origin

from .errors import ParseError
from .rationals import format_rational, parse_rational


def _json_object(value, what: str) -> dict:
    """A JSON object, not an array or scalar that has no keys to read."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _json_list(value, what: str) -> list:
    """A JSON array, not a string or object that would also iterate."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _exact_keys(data: dict, keys, what: str, optional=()) -> None:
    """Reject a key of data outside keys and optional, or a missing one of keys."""
    odd = (data.keys() - keys - set(optional)) | (set(keys) - data.keys())
    if odd:
        raise ParseError(
            f"{what}: unexpected or missing keys {', '.join(sorted(map(repr, odd)))}"
        )


def _typed(value, kind: type, what: str):
    """value when its type is exactly kind, so that a bool is no int."""
    if type(value) is not kind:
        raise ParseError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _canonical_rational(value, what: str) -> Fraction:
    """The Fraction of a string written exactly as format_rational writes it."""
    out = parse_rational(_typed(value, str, what))
    if format_rational(out) != value:
        raise ParseError(f"{what} must read {format_rational(out)!r}, got {value!r}")
    return out


def _nullable(fn):
    """fn that passes null through."""
    return lambda value, *what: None if value is None else fn(value, *what)


def _codec(tp):
    """(dump, load) for one evaluated field annotation; a dump of None
    writes the value as it is."""
    if tp in (int, bool, str):
        return None, lambda value, what: _typed(value, tp, what)
    if tp is Fraction:
        return format_rational, _canonical_rational
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        dump, load = _codec(next(a for a in args if a is not type(None)))
        return (None if dump is None else _nullable(dump)), _nullable(load)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = args[0]
        if get_origin(item) is tuple and get_args(item)[0] is str:
            dump, load = _codec(get_args(item)[1])
            return (
                lambda value: {k: v if dump is None else dump(v) for k, v in value},
                lambda value, what: tuple(
                    (key, load(v, f"{what}[{key!r}]"))
                    for key, v in sorted(_json_object(value, what).items())
                ),
            )
        dump, load = _codec(item)
        return (
            lambda value: [v if dump is None else dump(v) for v in value],
            lambda value, what: tuple(
                load(v, f"{what}[{i}]") for i, v in enumerate(_json_list(value, what))
            ),
        )
    if hasattr(tp, "_fields"):
        return _spec(tp)
    raise TypeError(f"no JSON form for {tp!r}")


@cache
def _spec(cls: type):
    """(dump, load) for a report type, built once per class."""
    renamed = getattr(cls, "_wire_keys", {})
    # the annotations are strings (postponed evaluation): evaluate each in
    # the namespace of the defining module, which costs far less than
    # typing.get_type_hints
    namespace = vars(sys.modules[cls.__module__])
    codecs = []
    for attr in cls._fields:
        text = cls.__annotations__[attr]
        codecs.append((attr, renamed.get(attr, attr), *_codec(eval(text, namespace))))
    keys = {key for _, key, _, _ in codecs}
    summary = getattr(cls, "summary", None)

    def dump(obj) -> dict:
        out = {}
        for attr, key, write, _ in codecs:
            value = getattr(obj, attr)
            out[key] = value if write is None else write(value)
        if summary is not None:
            out.update(summary(obj))
        return out

    def load(data, what: str):
        _json_object(data, what)
        obj = cls(
            **{attr: read(data[key], f"{what}.{key}") for attr, key, _, read in codecs}
        )
        derived = {} if summary is None else summary(obj)
        _exact_keys(data, keys | derived.keys(), what)
        for key, want in derived.items():
            if data[key] != want or type(data[key]) is not type(want):
                raise ParseError(
                    f"{what}: {key!r} is {data[key]!r}, but its fields give {want!r}"
                )
        return obj

    return dump, load


class Record:
    """A frozen value type: its fields are the subclass's own annotations,
    in order, with the class attributes of their names as defaults.
    `__post_init__` may convert a field with `object.__setattr__` or reject
    the values; an instance keeps a `__dict__`, for a `cached_property`."""

    _fields = ()

    def __init_subclass__(cls):
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._required = frozenset(name for name in cls._fields if name not in own)
        # every field in order, at its default or, until given, at None
        cls._defaults = {name: own.get(name) for name in cls._fields}

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args), **kwargs)
        # the merge fills in defaults and keeps the fields in field order
        values = {**self._defaults, **given}
        # zip drops a surplus argument, a keyword overrides a positional one,
        # and an unknown keyword adds a key
        if (
            len(given) < len(args) + len(kwargs)
            or len(values) != len(names)
            or not self._required <= given.keys()
        ):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(names)};"
                f" got {len(args)} positional and the keywords {sorted(kwargs)}"
            )
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        """Convert or check the fields; a plain record has nothing to do."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with some fields changed, validated again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen record")


class Wire(Record):
    """A record with `to_json`/`from_json` through the codec."""

    def to_json(self) -> dict:
        return _spec(type(self))[0](self)

    @classmethod
    def from_json(cls, data):
        try:
            return _spec(cls)[1](data, cls.__name__)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed {cls.__name__} payload: {exc}") from exc
