"""Shared exception type, the :class:`Record` base of every value type, the field checks, and the document codec.

A check's label is a ``%`` format and its arguments, formatted only when the check raises. Only this module decides
what a check accepts: an exact int or float in range passes at once, alone or as a sequence (:func:`plain_numbers`).
The value types are records, not dataclasses: each ``__init__`` checks its arguments and ends in one
:meth:`Record._store` call, so only this module knows how a frozen record stores its fields. :func:`fields` and
:func:`replace` stand in for the ``dataclasses`` functions of those names.
"""

from __future__ import annotations

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


def plain_numbers(items: tuple | list, lo: float, hi: float) -> bool:
    """Whether :func:`check_number` passes each element: an exact int or float, with a finite sum."""
    kinds = {*map(type, items)}
    if kinds <= {float} and abs(sum(items)) <= FLOAT_MAX:  # so no NaN or inf: test only a bound inside float range
        return not items or (lo <= -FLOAT_MAX or lo <= min(items)) and (FLOAT_MAX <= hi or max(items) <= hi)
    # An int may lie beyond float range, so its range test comes before the sum converts it.
    return kinds <= {int, float} and lo <= min(items) <= max(items) <= hi and abs(sum(items, 0.0)) <= FLOAT_MAX


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


def check_keys(
    data: object, what: str, required: Collection[str], optional: Collection[str] = (), *args: object
) -> None:
    """Reject ``data`` unless it is a JSON object with every required key and no others; ``what % args`` names it."""
    check_type(data, dict, what, *args)
    if len(data) != len(required) or not all(map(data.__contains__, required)):  # not exactly the required keys
        missing = [key for key in required if key not in data]
        if missing:
            raise ValidationError(f"{what % args} missing keys: {missing}")
        unknown = sorted((key for key in data if key not in required and key not in optional), key=str)
        if unknown:
            raise ValidationError(f"{what % args} has unknown keys: {unknown}")


def check_enum(value: object, kind: type[EnumT], what: str, *args: object) -> EnumT:
    """Return the member of ``kind`` whose value is ``value``, or reject it naming every allowed value."""
    try:
        return kind(value)
    except ValueError:
        allowed = "/".join(member.value for member in kind)
        raise ValidationError(f"{what % args} must be one of {allowed}, got {value!r}") from None


class Record:
    """A frozen value: its fields are its class's ``__init__`` parameters, which check them and :meth:`_store` them.

    An ``__init__`` may also store attributes it derives from the fields; equality, hashing and ``repr`` read only
    the fields, in order, as a frozen dataclass's do. Setting or deleting any attribute raises
    :class:`AttributeError`. A plain ``__dict__`` keeps ``pickle`` and ``copy`` working, derived attributes too.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _store(self, *values: object, **derived: object) -> None:
        """Store ``values`` as the fields, in signature order, then ``derived`` by name, one attribute at a time."""
        # Not ``self.__dict__.update``: an instance with a dict of its own reads its fields 2x slower on CPython 3.11.
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def fields(record: Record | type[Record]) -> tuple[str, ...]:
    """The field names of a record or record type, in order."""
    return record._fields


def replace(record: T, **changes: object) -> T:
    """A new record like ``record`` but with ``changes``, built (and so checked) by its class."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


@functools.cache
def _schema(kind: type[Record]) -> tuple:
    """A record type's required keys as a dict, optional keys (``X | None = None`` fields: no reader) and readers."""
    hints, names, defaults = get_type_hints(kind.__init__), kind._fields, kind.__init__.__defaults__ or ()
    optional = tuple(name for name, default in zip(names[len(names) - len(defaults) :], defaults) if default is None)
    readers = []
    for name in names:
        hint = hints[name]
        if get_origin(hint) is tuple:
            item = get_args(hint)[0]
            readers.append((name, None, item if isinstance(item, type) and issubclass(item, Record) else None))
        elif isinstance(hint, type) and issubclass(hint, Enum):
            readers.append((name, hint, None))
    return dict.fromkeys(name for name in names if name not in optional), optional, tuple(readers)


def from_dict(kind: type[T], data: object, what: str, *args: object) -> T:
    """Build a ``kind`` from its JSON document ``what % args``, keyed by field name: enums by value, tuples from lists.

    The constructor checks every value. A document's fields are named by key (``'hosts'``). An element's label is
    a format with its index among ``args`` (``cloud %s``); its fields are named after it (``host 0 state``), and its
    own elements by its label, their class's first word and index (``strategy 0 step 1``).
    """
    required, optional, readers = _schema(kind)
    check_keys(data, what, required, optional, *args)
    if not readers:
        return kind(**data)
    values = dict(data)
    for name, enum, item in readers:
        label = f"{what} {name}" if args else f"'{name}'"  # a format, as ``what`` is
        if enum is not None:
            values[name] = check_enum(values[name], enum, label, *args)
        else:
            check_type(values[name], list, label, *args)
        if item is not None:
            word = re.match("[A-Z][a-z]*", item.__name__)[0].lower()
            values[name] = _elements(item, values[name], f"{what} {word} %s" if args else f"{word} %s", args)
    return kind(**values)


def _elements(kind: type[T], docs: list, what: str, args: tuple) -> tuple[T, ...]:
    """A ``kind`` from each document in ``docs``, labelled ``what % (*args, index)``, as :func:`from_dict` builds it.

    When ``kind`` has no readers and every document has exactly its required keys, each goes straight to the
    constructor.
    """
    required, _, readers = _schema(kind)
    if not readers and all(type(doc) is dict and doc.keys() == required.keys() for doc in docs):
        return tuple([kind(**doc) for doc in docs])
    return tuple([from_dict(kind, doc, what, *args, k) for k, doc in enumerate(docs)])


def to_dict(value: Record) -> dict:
    """The document :func:`from_dict` reads back as ``value``; optional fields holding None are left out."""
    optional = _schema(type(value))[1]
    items = ((name, getattr(value, name)) for name in value._fields)
    return {name: _to_json(x) for name, x in items if x is not None or name not in optional}


def _to_json(value: object) -> object:
    if isinstance(value, tuple):
        return [_to_json(x) for x in value]
    return value.value if isinstance(value, Enum) else to_dict(value) if isinstance(value, Record) else value
