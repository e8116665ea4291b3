"""Shared exception type, the field checks every layer builds on, and the network, catalog and game document codec.

A check's label is a ``%`` format and its arguments, formatted only when the check raises. Only this module decides
what a check accepts: an exact int or float in range passes at once, alone or as a sequence (:func:`plain_numbers`).
"""

from __future__ import annotations

import dataclasses
import functools
import re
from enum import Enum
from os import PathLike
from typing import Collection, TypeVar, get_args, get_origin, get_type_hints

EnumT = TypeVar("EnumT", bound=Enum)
T = TypeVar("T")


class ValidationError(ValueError):
    """An input value, argument, or document was rejected by validation.

    Raised for out-of-range scores, malformed probability vectors, bad game
    shapes, and schema violations in loaded documents. The message always
    names the offending field or key.
    """


_KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean", list: "a list", dict: "a JSON object"}
FLOAT_MAX = float.fromhex("0x1.fffffffffffffp+1023")  # sys.float_info.max: the bound of every finite-number check


def check_number(value: object, lo: float, hi: float, what: str, *args: object) -> None:
    """Reject anything but an int or float (never a bool) in ``[lo, hi]``: finite bounds also reject NaN and inf."""
    if type(value) not in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValidationError(f"{what % args} must be a number, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise ValidationError(f"{what % args} must be in [{lo:g}, {hi:g}], got {value!r}")


def plain_numbers(items: tuple | list, lo: float, hi: float, ints: bool = True) -> bool:
    """Whether :func:`check_number` passes each element: an exact float (or int, if ``ints``), with a finite sum."""
    kinds = {*map(type, items)}
    if kinds <= {float} and abs(sum(items)) <= FLOAT_MAX:  # so no NaN or inf: test only a bound inside float range
        return not items or (lo <= -FLOAT_MAX or lo <= min(items)) and (FLOAT_MAX <= hi or max(items) <= hi)
    # An int may lie beyond float range, so its range test comes before the sum converts it.
    return ints and kinds <= {int, float} and lo <= min(items) <= max(items) <= hi and abs(sum(items, 0.0)) <= FLOAT_MAX


def check_type(value: object, kind: type, what: str, *args: object) -> None:
    """Reject ``value`` unless it is a ``kind``; a bool never counts as an int."""
    if type(value) is not kind and not is_kind(value, kind):
        name = _KIND_NAMES.get(kind) or f"{'an' if kind.__name__[0] in 'AEIOU' else 'a'} {kind.__name__}"
        raise ValidationError(f"{what % args} must be {name}, got {type(value).__name__}")


def is_kind(value: object, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` by :func:`check_type`'s rule: a bool never counts as an int."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def check_path(path: object, what: str) -> None:
    """Reject ``path`` unless it is a string or an ``os.PathLike``, the file paths a reader or writer takes."""
    if not isinstance(path, (str, PathLike)):
        raise ValidationError(f"{what} must be a string or path, got {type(path).__name__}")


def check_sequence(items: object, what: str, *args: object) -> tuple:
    """Return ``items`` as a tuple, rejecting anything but a tuple or list."""
    if not isinstance(items, (tuple, list)):
        raise ValidationError(f"{what % args} must be a tuple or list, got {type(items).__name__}")
    return tuple(items)


def check_items(items: object, kind: type[T], what: str, item_what: str, *args: object) -> tuple[T, ...]:
    """Return a tuple or list of ``kind`` instances as a tuple; ``item_what % args`` and an index name a bad one."""
    items = check_sequence(items, what, *args)
    if not {*map(type, items)} <= {kind}:
        for k, item in enumerate(items):
            check_type(item, kind, item_what + " %s", *args, k)
    return items


def check_keys(data: object, what: str, required: Collection[str], optional: Collection[str] = ()) -> None:
    """Reject ``data`` unless it is a JSON object with every required key and no others."""
    check_type(data, dict, what)
    if len(data) != len(required) or not all(map(data.__contains__, required)):  # not exactly the required keys
        missing = [key for key in required if key not in data]
        if missing:
            raise ValidationError(f"{what} missing keys: {missing}")
        unknown = sorted((key for key in data if key not in required and key not in optional), key=str)
        if unknown:
            raise ValidationError(f"{what} has unknown keys: {unknown}")


def check_enum(value: object, kind: type[EnumT], what: str) -> EnumT:
    """Return the member of ``kind`` whose value is ``value``, or reject it naming every allowed value."""
    try:
        return kind(value)
    except ValueError:
        allowed = "/".join(member.value for member in kind)
        raise ValidationError(f"{what} must be one of {allowed}, got {value!r}") from None


@functools.cache
def _schema(kind: type) -> tuple:
    """A dataclass's required keys as a dict, optional keys (``X | None = None`` fields: no reader) and readers."""
    hints, fields = get_type_hints(kind), dataclasses.fields(kind)
    readers = []
    for f in fields:
        hint = hints[f.name]
        if get_origin(hint) is tuple:
            item = get_args(hint)[0]
            readers.append((f.name, None, item if dataclasses.is_dataclass(item) else None))
        elif isinstance(hint, type) and issubclass(hint, Enum):
            readers.append((f.name, hint, None))
    optional = tuple(f.name for f in fields if f.default is None)
    return dict.fromkeys(f.name for f in fields if f.name not in optional), optional, tuple(readers)


def from_dict(kind: type[T], data: object, what: str, nested: bool = False) -> T:
    """Build a ``kind`` from its JSON document, keyed by field name: enums by value, tuples from lists.

    The constructor checks every value. Messages name a field by key (``'hosts'``), or after its ``nested``
    element (``host 0 state``); an element by its parents, its class's first word and index (``cloud 0``).
    """
    required, optional, readers = _schema(kind)
    check_keys(data, what, required, optional)
    if not readers:
        return kind(**data)
    args = dict(data)
    for name, enum, item in readers:
        label = f"{what} {name}" if nested else f"'{name}'"
        if enum is not None:
            args[name] = check_enum(args[name], enum, label)
        else:
            check_type(args[name], list, label)
        if item is not None:
            lead = (f"{what} " if nested else "") + re.match("[A-Z][a-z]*", item.__name__)[0].lower()
            args[name] = tuple([from_dict(item, x, f"{lead} {k}", True) for k, x in enumerate(args[name])])
    return kind(**args)


def to_dict(value: object) -> dict:
    """The document :func:`from_dict` reads back as ``value``; optional fields holding None are left out."""
    fields = ((f, getattr(value, f.name)) for f in dataclasses.fields(value))
    return {f.name: _to_json(x) for f, x in fields if x is not None or f.default is not None}


def _to_json(value: object) -> object:
    if isinstance(value, tuple):
        return [_to_json(x) for x in value]
    return value.value if isinstance(value, Enum) else to_dict(value) if dataclasses.is_dataclass(value) else value
