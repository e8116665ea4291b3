"""Ransomware incident modeling: trait scoring, games, ranking, and spread.

The package mirrors its submodules:

* :mod:`ransomlab.scoring` - the four 0-100 incident scores.
* :mod:`ransomlab.games` - bimatrix games and solution concepts.
* :mod:`ransomlab.strategies` - the recovery-strategy catalog and ranking.
* :mod:`ransomlab.simnet` - seeded spread simulation over cloud-linked hosts.
* :mod:`ransomlab.ingest` - strict JSON document loading.
* :mod:`ransomlab.report` - profile comparisons, sweeps, CSV/SVG rendering.
* :mod:`ransomlab.cli` - the ``ransomlab`` command.

``import ransomlab`` loads no submodule. Each name in ``__all__``, and each
submodule above but ``cli``, is imported on first access (PEP 562), so
``ransomlab.TraitProfile`` loads only ``scoring`` and a ``ransomlab``
command loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule the package resolves, with the names it re-exports from it.
_EXPORTS = {
    "errors": ("ValidationError",),
    "games": ("BimatrixGame", "Equilibrium"),
    "ingest": ("ProfileDocument", "load_catalog", "load_network", "load_profile"),
    "report": ("SweepResult", "SweepSpec", "compare_profiles", "sweep"),
    "scoring": (
        "ScoreSet",
        "TraitProfile",
        "disinfection_payoff",
        "disinfection_probability",
        "score_all",
        "severity",
        "spreadability_score",
    ),
    "simnet": ("Host", "CloudStore", "Edge", "Network", "SimConfig", "Trajectory"),
    "strategies": ("Strategy", "StrategyCatalog", "default_catalog", "rank_strategies"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str) -> object:
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
