"""Trait-profile scoring for a VirLock-style ransomware incident.

A scenario is described by nine 0-100 variables (A through I). Four scores
are derived from them, all on the same 0-100 scale:

* spreadability  SPS = 0.7 * (100 - A) + 0.3 * F
* severity       S   = 0.1*C + 0.25*E + 0.1*F + 0.25*SPS + 0.3*G   (G > 0)
* disinfection probability
                 DP  = 0.15*A + 0.2*B + 0.1*(100-E) + 0.15*(100-F)
                       + 0.3*H + 0.1*I
* disinfection payoff DC, a branching function of criticality and severity
  (see :func:`disinfection_payoff`).

All functions are pure and thread-safe. Out-of-range inputs raise
:class:`ValidationError`; nothing is clamped silently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import ValidationError, check_number

__all__ = [
    "TraitProfile",
    "VARIABLE_KEYS",
    "ScoreSet",
    "METRICS",
    "spreadability_score",
    "severity",
    "disinfection_probability",
    "disinfection_payoff",
    "score_all",
]


@dataclass(frozen=True)
class TraitProfile:
    """The nine scenario variables, each on the closed interval [0, 100].

    a: user's awareness of the threat / computer literacy
    b: economical state of the user or company
    c: criticality of the encrypted data
    d: total amount of data (kept for cataloguing; no formula uses it)
    e: amount of data the virus infects
    f: percentage of infected computers in the network
    g: known ways of effective disinfection (must be > 0 for severity)
    h: effectiveness of the known disinfection strategies
    i: safety of operations during/after the infection
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    g: float
    h: float
    i: float

    def __post_init__(self) -> None:
        for name, key in _VARIABLES:
            check_number(getattr(self, name), key, 0, 100)


# Each field's name and its document key (the letter, upper-cased), in field order.
_VARIABLES = tuple((field.name, field.name.upper()) for field in fields(TraitProfile))
VARIABLE_KEYS = tuple(key for _, key in _VARIABLES)


@dataclass(frozen=True)
class ScoreSet:
    """The four scores computed from one trait profile."""

    sps: float
    severity: float
    disinfection_probability: float
    disinfection_payoff: float

    def values(self) -> tuple[float, float, float, float]:
        """The four scores in :data:`METRICS` order."""
        return _metric_values(self)


# Metric name -> ScoreSet attribute, in the order every report and CLI output lists them.
METRICS = {"SPS": "sps", "S": "severity", "DP": "disinfection_probability", "DC": "disinfection_payoff"}
_metric_values = attrgetter(*METRICS.values())


def spreadability_score(p: TraitProfile) -> float:
    """Spreadability score: ``0.7 * (100 - A) + 0.3 * F``."""
    return 0.7 * (100.0 - p.a) + 0.3 * p.f


def severity(p: TraitProfile) -> float:
    """Infection severity: ``0.1*C + 0.25*E + 0.1*F + 0.25*SPS + 0.3*G``.

    Requires ``p.g > 0``. The positive weight on G is deliberate and kept
    as designed, even though more disinfection options might intuitively
    be expected to lower severity.
    """
    if p.g <= 0:
        raise ValidationError(f"severity requires G > 0, got {p.g}")
    return 0.1 * p.c + 0.25 * p.e + 0.1 * p.f + 0.25 * spreadability_score(p) + 0.3 * p.g


def disinfection_probability(p: TraitProfile) -> float:
    """Probability of a successful cleanup, per the weighted-sum model."""
    return (
        0.15 * p.a
        + 0.2 * p.b
        + 0.1 * (100.0 - p.e)
        + 0.15 * (100.0 - p.f)
        + 0.3 * p.h
        + 0.1 * p.i
    )


def disinfection_payoff(c: float, s: float) -> float:
    """Payoff of attempting disinfection, from criticality ``c`` and severity ``s``.

    Both arguments are 0-100 scores; they are normalized to [0, 1] before
    the branch tests and the result is scaled back to 0-100. Branch order
    is significant: a near-zero severity zeroes the payoff even when the
    criticality is very high.

    with ch = c/100 and sh = s/100:
      ch <= 0.2 or sh < 0.2  ->  0
      ch > 0.8               ->  100 * ch
      sh <= 0.8              ->  100 * ch * sh
      otherwise              ->  100 * ch
    """
    check_number(c, "C", 0, 100)
    check_number(s, "S", 0, 100)
    ch = c / 100.0
    sh = s / 100.0
    if ch <= 0.2 or sh < 0.2:
        return 0.0
    if ch > 0.8:
        return 100.0 * ch
    if sh <= 0.8:
        return 100.0 * ch * sh
    return 100.0 * ch


def score_all(p: TraitProfile) -> ScoreSet:
    """Compute all four scores; the payoff uses ``p.c`` and the computed severity."""
    s = severity(p)
    return ScoreSet(
        sps=spreadability_score(p),
        severity=s,
        disinfection_probability=disinfection_probability(p),
        disinfection_payoff=disinfection_payoff(p.c, s),
    )
