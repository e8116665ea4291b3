"""Loading and validation of JSON input documents.

All ingestion is strict: an absent or unexpected key and an out-of-range
value are each rejected with a message naming the offending key, never
coerced or clamped. Documents are UTF-8 JSON; numeric fields accept
integers or decimals.

Profile documents pair a display name with the nine scenario variables,
keyed by their uppercase letters::

    {"name": "Company A", "variables": {"A": 20, "B": 25, ..., "I": 15}}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import Record, ValidationError, check_keys, check_path, check_type
from .scoring import VARIABLE_KEYS, TraitProfile

if TYPE_CHECKING:
    from .simnet import Network
    from .strategies import StrategyCatalog

__all__ = [
    "ProfileDocument",
    "VARIABLE_KEYS",
    "parse_profile_document",
    "profile_document_to_dict",
    "load_profile_document",
    "load_profile",
    "load_catalog",
    "load_network",
    "load_json",
]

class ProfileDocument(Record):
    """A named trait profile as stored on disk."""

    def __init__(self, name: str, profile: TraitProfile) -> None:
        check_type(name, str, "'name'")
        check_type(profile, TraitProfile, "profile")
        self._store(name, profile)


def parse_profile_document(data: dict) -> ProfileDocument:
    """Parse and validate a profile document."""
    check_keys(data, "profile document", ("name", "variables"))
    variables = data["variables"]
    check_keys(variables, "'variables'", VARIABLE_KEYS)
    profile = TraitProfile(**{k.lower(): variables[k] for k in VARIABLE_KEYS})
    return ProfileDocument(name=data["name"], profile=profile)


def profile_document_to_dict(doc: ProfileDocument) -> dict:
    """JSON-ready document for a named profile."""
    check_type(doc, ProfileDocument, "profile document")
    p = doc.profile
    return {
        "name": doc.name,
        "variables": {k: getattr(p, k.lower()) for k in VARIABLE_KEYS},
    }


def load_json(path: str | Path) -> dict:
    """Read a UTF-8 JSON object from disk, reporting parse position on failure."""
    check_path(path, "input path")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # Nesting deeper than the interpreter's recursion limit, or an integer
        # literal longer than Python's int-conversion digit limit.
        raise ValidationError(f"{path}: unreadable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top-level value must be a JSON object")
    return data


def _load(path: str | Path, parse):
    """Parse the JSON object in ``path`` with ``parse``, prefixing a rejection with the path."""
    data = load_json(path)
    try:
        return parse(data)
    except ValidationError as exc:
        raise ValidationError(f"{Path(path)}: {exc}") from None


def load_profile_document(path: str | Path) -> ProfileDocument:
    """Load a named profile document from disk."""
    return _load(path, parse_profile_document)


def load_profile(path: str | Path) -> TraitProfile:
    """Load and validate a trait profile from a profile document file."""
    return load_profile_document(path).profile


def load_catalog(path: str | Path) -> StrategyCatalog:
    """Load and validate a strategy catalog file."""
    from .strategies import catalog_from_dict

    return _load(path, catalog_from_dict)


def load_network(path: str | Path) -> Network:
    """Load and validate a network file."""
    from .simnet import network_from_dict

    return _load(path, network_from_dict)
