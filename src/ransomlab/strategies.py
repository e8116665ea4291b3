"""Catalog of VirLock recovery strategies and profile-aware ranking.

Ships the five stock strategies (ransom payment, the 64-zeros decryption
flaw, shadow volume copies, plain antivirus removal, and antivirus plus a
dedicated cleaner) with their step lists, 0-10 complexities, effectiveness
and reinfection-risk levels. The default catalog is defined only by the
packaged ``data/default_catalog.json``, parsed once per process.

Ranking scores each strategy 0-100 for a concrete trait profile as a
weighted blend of effectiveness, complexity (discounted by up to half for a
fully literate user), reinfection risk, and the disinfection payoff of the
scenario itself.
"""

from __future__ import annotations

import functools
import json
from enum import Enum
from importlib import resources

from .errors import Record, ValidationError, check_items, check_number, check_sequence, check_type, from_dict, to_dict
from .scoring import TraitProfile, disinfection_payoff_of, severity

__all__ = [
    "Level",
    "Step",
    "Strategy",
    "StrategyCatalog",
    "default_catalog",
    "rank_strategies",
    "catalog_to_dict",
    "catalog_from_dict",
    "EFFECTIVENESS_VALUES",
    "RISK_VALUES",
]


class Level(Enum):
    """Ordinal three-point scale used for effectiveness and reinfection risk."""

    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


# Numeric interpretations of the ordinal levels for ranking purposes only.
# These are tool-defined mappings, not measured values.
EFFECTIVENESS_VALUES = {Level.LOW: 25.0, Level.MEDIUM: 60.0, Level.HIGH: 90.0}
RISK_VALUES = {Level.LOW: 10.0, Level.MEDIUM: 50.0, Level.HIGH: 90.0}


class Step(Record):
    """One action within a recovery strategy."""

    def __init__(self, description: str, complexity: float, note: str | None = None) -> None:
        check_type(description, str, "step description")
        check_number(complexity, 0, 10, "step '%s' complexity", description)
        if note is not None:
            check_type(note, str, "step '%s' note", description)
        self._store(description, complexity, note)


class Strategy(Record):
    """A named recovery strategy with its steps and overall ratings."""

    def __init__(
        self, name: str, steps: tuple[Step, ...], overall_complexity: float, effectiveness: Level,
        reinfection_risk: Level, note: str | None = None,
    ) -> None:
        check_type(name, str, "strategy name")
        steps = check_items(steps, Step, "strategy '%s' steps", "strategy '%s' step", name)  # a tuple, so it hashes
        check_number(overall_complexity, 0, 10, "strategy '%s' complexity", name)
        if not isinstance(effectiveness, Level) or not isinstance(reinfection_risk, Level):
            raise ValidationError(f"strategy '{name}' levels must be Low/Medium/High")
        if note is not None:
            check_type(note, str, "strategy '%s' note", name)
        self._store(name, steps, overall_complexity, effectiveness, reinfection_risk, note)


class StrategyCatalog(Record):
    """An ordered collection of uniquely named strategies."""

    def __init__(self, strategies: tuple[Strategy, ...] = ()) -> None:
        # Stored as a tuple, so equal catalogs hash equal.
        strategies = check_items(strategies, Strategy, "catalog strategies", "catalog strategy")
        names = [s.name for s in strategies]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate strategy names: {dupes}")
        self._store(strategies)


@functools.cache
def default_catalog() -> StrategyCatalog:
    """The shipped five-strategy catalog, parsed from ``data/default_catalog.json``.

    Parsed once per process; sharing the result is safe because a catalog is
    immutable. A missing packaged file raises :class:`OSError`.
    """
    resource = resources.files(__package__).joinpath("data/default_catalog.json")
    return catalog_from_dict(json.loads(resource.read_text(encoding="utf-8")))


def rank_strategies(
    cat: StrategyCatalog,
    p: TraitProfile,
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25),
) -> list[tuple[Strategy, float]]:
    """Score and order the catalog for one trait profile, best first.

    Each strategy scores ``w . (effectiveness, ease, safety, payoff)`` where
    effectiveness and reinfection risk map Low/Medium/High onto fixed numeric
    anchors, ease is ``100 - 10*complexity`` with the complexity discounted by
    up to half as user literacy (A) approaches 100, and payoff is the
    scenario's disinfection payoff. Weights must be nonnegative and sum to 1.
    Ties break by ascending complexity, then name.
    """
    check_type(cat, StrategyCatalog, "catalog")
    check_type(p, TraitProfile, "profile")
    weights = check_sequence(weights, "ranking weights")
    if len(weights) != 4:
        raise ValidationError(f"expected 4 ranking weights, got {len(weights)}")
    for w in weights:
        check_number(w, 0, 1, "ranking weight")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValidationError(f"ranking weights must sum to 1, got {sum(weights)}")

    payoff = disinfection_payoff_of(p.c, severity(p))  # severity checks G > 0; its value lies in [0, 100]
    literacy_discount = 1.0 - (p.a / 100.0) * 0.5
    scored: list[tuple[Strategy, float]] = []
    for s in cat.strategies:
        ease = 100.0 - 10.0 * s.overall_complexity * literacy_discount
        safety = 100.0 - RISK_VALUES[s.reinfection_risk]
        score = (
            weights[0] * EFFECTIVENESS_VALUES[s.effectiveness]
            + weights[1] * ease
            + weights[2] * safety
            + weights[3] * payoff
        )
        scored.append((s, score))
    scored.sort(key=lambda item: (-item[1], item[0].overall_complexity, item[0].name))
    return scored


def catalog_to_dict(cat: StrategyCatalog) -> dict:
    """JSON-ready document for a catalog."""
    check_type(cat, StrategyCatalog, "catalog")
    return to_dict(cat)


def catalog_from_dict(data: dict) -> StrategyCatalog:
    """Parse and validate a catalog document produced by :func:`catalog_to_dict`."""
    return from_dict(StrategyCatalog, data, "catalog document")
