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

Each formula is written once, as a function of plain numbers
(:func:`spreadability_of`, :func:`severity_of`,
:func:`disinfection_probability_of`, :func:`disinfection_payoff_of`). The
profile functions delegate to them after their checks, and the report's
sweep maps them over whole columns, so both run the same float operations
in the same order.

All functions are pure and thread-safe. Out-of-range inputs, and anything
but a :class:`TraitProfile` where a profile is taken, raise
:class:`ValidationError`; nothing is clamped silently.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import Record, ValidationError, check_number, check_type, fields

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
    "spreadability_of",
    "severity_of",
    "disinfection_probability_of",
    "disinfection_payoff_of",
]


class TraitProfile(Record):
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

    def __init__(
        self, a: float, b: float, c: float, d: float, e: float, f: float, g: float, h: float, i: float
    ) -> None:
        check_number(a, 0, 100, "A")
        check_number(b, 0, 100, "B")
        check_number(c, 0, 100, "C")
        check_number(d, 0, 100, "D")
        check_number(e, 0, 100, "E")
        check_number(f, 0, 100, "F")
        check_number(g, 0, 100, "G")
        check_number(h, 0, 100, "H")
        check_number(i, 0, 100, "I")
        self._store(a, b, c, d, e, f, g, h, i)


# Each field's document key (the letter, upper-cased), in field order.
VARIABLE_KEYS = tuple(name.upper() for name in fields(TraitProfile))


class ScoreSet(Record):
    """The four scores computed from one trait profile."""

    def __init__(
        self, sps: float, severity: float, disinfection_probability: float, disinfection_payoff: float
    ) -> None:
        self._store(sps, severity, disinfection_probability, disinfection_payoff)

    def values(self) -> tuple[float, float, float, float]:
        """The four scores in :data:`METRICS` order."""
        return _metric_values(self)


# Metric name -> ScoreSet attribute, in the order every report and CLI output lists them.
METRICS = {"SPS": "sps", "S": "severity", "DP": "disinfection_probability", "DC": "disinfection_payoff"}
_metric_values = attrgetter(*METRICS.values())


def spreadability_of(a: float, f: float) -> float:
    """``0.7 * (100 - A) + 0.3 * F`` on plain numbers."""
    return 0.7 * (100.0 - a) + 0.3 * f


def severity_of(c: float, e: float, f: float, sps: float, g: float) -> float:
    """``0.1*C + 0.25*E + 0.1*F + 0.25*SPS + 0.3*G`` on plain numbers; the caller ensures G > 0."""
    return 0.1 * c + 0.25 * e + 0.1 * f + 0.25 * sps + 0.3 * g


def disinfection_probability_of(a: float, b: float, e: float, f: float, h: float, i: float) -> float:
    """The disinfection-probability weighted sum on plain numbers."""
    return 0.15 * a + 0.2 * b + 0.1 * (100.0 - e) + 0.15 * (100.0 - f) + 0.3 * h + 0.1 * i


def disinfection_payoff_of(c: float, s: float) -> float:
    """The disinfection-payoff branches on plain 0-100 numbers (see :func:`disinfection_payoff`)."""
    ch = c / 100.0
    sh = s / 100.0
    if ch <= 0.2 or sh < 0.2:
        return 0.0
    if ch > 0.8:
        return 100.0 * ch
    if sh <= 0.8:
        return 100.0 * ch * sh
    return 100.0 * ch


def spreadability_score(p: TraitProfile) -> float:
    """Spreadability score: ``0.7 * (100 - A) + 0.3 * F``."""
    check_type(p, TraitProfile, "profile")
    return spreadability_of(p.a, p.f)


def severity(p: TraitProfile) -> float:
    """Infection severity: ``0.1*C + 0.25*E + 0.1*F + 0.25*SPS + 0.3*G``.

    Requires ``p.g > 0``. The positive weight on G is deliberate and kept
    as designed, even though more disinfection options might intuitively
    be expected to lower severity.
    """
    check_type(p, TraitProfile, "profile")
    if p.g <= 0:
        raise ValidationError(f"severity requires G > 0, got {p.g}")
    return severity_of(p.c, p.e, p.f, spreadability_of(p.a, p.f), p.g)


def disinfection_probability(p: TraitProfile) -> float:
    """Probability of a successful cleanup, per the weighted-sum model."""
    check_type(p, TraitProfile, "profile")
    return disinfection_probability_of(p.a, p.b, p.e, p.f, p.h, p.i)


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
    check_number(c, 0, 100, "C")
    check_number(s, 0, 100, "S")
    return disinfection_payoff_of(c, s)


def score_all(p: TraitProfile) -> ScoreSet:
    """Compute all four scores; the payoff uses ``p.c`` and the computed severity.

    :func:`severity` checks the profile once; the other scores take the plain
    formulas, since every field is checked by the profile and the severity of
    any valid profile lies in [0, 100].
    """
    s = severity(p)
    return ScoreSet(
        sps=spreadability_of(p.a, p.f),
        severity=s,
        disinfection_probability=disinfection_probability_of(p.a, p.b, p.e, p.f, p.h, p.i),
        disinfection_payoff=disinfection_payoff_of(p.c, s),
    )
