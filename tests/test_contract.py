"""Direct calls by introspection: every exported record and public function either works or raises ValidationError.

Each module's ``__all__`` is walked for :class:`~ransomlab.errors.Record` types. Each one has a valid
instance in ``VALID`` or a reason in ``OUTPUT_ONLY``, so a new type cannot
skip the contract. Replacing any one field of a valid instance with a
hostile value must raise :class:`ValidationError` or give an instance that
hashes, which shows it stored nothing mutable.

The ``__all__`` functions of ``scoring``, ``games``, ``strategies``,
``report``, ``ingest`` and ``simnet`` each have a valid call in ``CALLS``.
Replacing any one argument of that call with a hostile value must raise
:class:`ValidationError` or return. Only ``scoring``'s plain-number ``*_of``
formulas are exempt (``UNCHECKED``): they are the sweep's per-point kernels
and take numbers their callers have checked.
"""

from __future__ import annotations

import ast
import copy
import dis
import hashlib
import importlib
import inspect
import io
import json
import math
import pickle
import pkgutil
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ransomlab
from ransomlab import games, ingest, report, scoring, simnet, strategies
from ransomlab.errors import (
    Record, ValidationError, check_enum, check_items, check_keys, check_number, check_sequence, check_type, fields,
    from_dict,
)
from ransomlab.games import BimatrixGame, Equilibrium, pd_game, pure_nash, ransom_game
from ransomlab.ingest import ProfileDocument, parse_profile_document
from ransomlab.report import MetricComparison, ProfileComparison, SweepResult, SweepSpec, sweep
from ransomlab.scoring import ScoreSet, TraitProfile
from ransomlab.simnet import (
    CloudStore, Edge, Host, MonteCarloSummary, Network, SimConfig, TickCounts, Trajectory, network_from_dict,
)
from ransomlab.strategies import Step, Strategy, StrategyCatalog, catalog_from_dict

REPO_ROOT = Path(__file__).resolve().parent.parent


def _document(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# The document types come from the shipped documents, through their parsers.
_NETWORK = network_from_dict(_document(REPO_ROOT / "sample_data" / "star4.json"))
_CATALOG = catalog_from_dict(_document(REPO_ROOT / "src" / "ransomlab" / "data" / "default_catalog.json"))
_COMPANY_A = REPO_ROOT / "sample_data" / "company_a.json"
_PROFILE_DOCUMENT = parse_profile_document(_document(_COMPANY_A))
_SWEEP = sweep(SweepSpec("A", 20))

_CONFIG = SimConfig(ticks=5, base_infection_prob=0.5, clean_prob_per_tick=0.1, reinfection_allowed=True, seed=1)

VALID = {
    Host: _NETWORK.hosts[0],
    CloudStore: _NETWORK.clouds[0],
    Edge: _NETWORK.edges[0],
    Network: _NETWORK,
    Step: _CATALOG.strategies[1].steps[1],
    Strategy: _CATALOG.strategies[2],
    StrategyCatalog: _CATALOG,
    ProfileDocument: _PROFILE_DOCUMENT,
    TraitProfile: _PROFILE_DOCUMENT.profile,
    BimatrixGame: ransom_game(),
    SimConfig: _CONFIG,
    SweepSpec: _SWEEP.spec,
    SweepResult: _SWEEP,
}

OUTPUT_ONLY = {
    ScoreSet: "built by score_all on every call and 101 times per sweep, from scores it has just computed",
    TickCounts: "built by run from the kernel's own per-tick counts",
    Trajectory: "returned by run; its counts and final_f come from the kernel",
    MonteCarloSummary: "returned by monte_carlo_f from the final_f values it computed",
    MetricComparison: "built by compare_profiles from two ScoreSets",
    ProfileComparison: "returned by compare_profiles",
    Equilibrium: "returned by pure_nash and mixed_nash_2x2 from the cells of a checked game",
}

HOSTILE = (None, "ab", math.nan, math.inf, -1, 10**400, True, [], [1], {}, object())


def _fields(instance) -> dict:
    return {name: getattr(instance, name) for name in fields(instance)}


def _exported_records() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(ransomlab.__path__):
        module = importlib.import_module(f"ransomlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, Record):
                found.add(value)
    return found


def test_every_exported_record_is_frozen_and_registered():
    found = _exported_records()
    assert all(kind.__setattr__ is Record.__setattr__ and kind.__delattr__ is Record.__delattr__ for kind in found)
    assert not set(VALID) & set(OUTPUT_ONLY)
    assert found == set(VALID) | set(OUTPUT_ONLY)


@pytest.mark.parametrize("kind", VALID, ids=lambda kind: kind.__name__)
def test_registered_instances_rebuild_from_their_fields(kind):
    instance = VALID[kind]
    assert type(instance) is kind
    assert kind(**_fields(instance)) == instance
    hash(instance)


def _build_or_reject(kind: type, field: str, value: object) -> None:
    try:
        built = kind(**{**_fields(VALID[kind]), field: value})
    except ValidationError:
        return
    hash(built)


@pytest.mark.parametrize("kind", VALID, ids=lambda kind: kind.__name__)
def test_every_field_rejects_or_stores_each_hostile_value(kind):
    for field in fields(kind):
        for value in HOSTILE:
            _build_or_reject(kind, field, value)


_CASES = [(kind, field) for kind in VALID for field in fields(kind)]
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.sampled_from(HOSTILE),
    lambda children: st.lists(children, max_size=3) | st.tuples(children, children) | st.dictionaries(
        st.text(max_size=3), children, max_size=2
    ),
    max_leaves=6,
)


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(_CASES), value=_VALUES)
def test_any_field_value_is_rejected_or_stored(case, value):
    _build_or_reject(*case, value)


_PD = pd_game(5, 3, 1, 0)
_PROFILE = _PROFILE_DOCUMENT.profile

CALLS = {
    scoring.spreadability_score: (_PROFILE,),
    scoring.severity: (_PROFILE,),
    scoring.disinfection_probability: (_PROFILE,),
    scoring.disinfection_payoff: (25, 60),
    scoring.score_all: (_PROFILE,),
    games.ransom_game: (games.RANSOM_USER_DEFAULTS, games.RANSOM_VIRUS_DEFAULTS),
    games.pd_game: (5, 3, 1, 0),
    games.snowdrift_game: (4, 2),
    games.pure_nash: (_PD,),
    games.mixed_nash_2x2: (games.snowdrift_game(4, 2),),
    games.dominant_strategies: (_PD,),
    games.expected_payoffs: (_PD, (0.5, 0.5), (0.25, 0.75)),
    games.replicator_step: (_PD, (0.5, 0.5), 0.1),
    games.game_to_dict: (_PD,),
    games.game_from_dict: (games.game_to_dict(_PD),),
    strategies.default_catalog: (),
    strategies.rank_strategies: (_CATALOG, _PROFILE, (0.4, 0.2, 0.2, 0.2)),
    strategies.catalog_to_dict: (_CATALOG,),
    strategies.catalog_from_dict: (strategies.catalog_to_dict(_CATALOG),),
    report.compare_profiles: (_PROFILE, TraitProfile(a=90, b=60, c=90, d=100, e=10, f=15, g=25, h=60, i=75)),
    report.sweep: (_SWEEP.spec,),
    report.sweep_csv: (_SWEEP,),
    report.sweep_svg: (_SWEEP,),
    report.render_csv: (_SWEEP, "sweep.csv"),
    report.render_svg: (_SWEEP, "sweep.svg"),
    ingest.parse_profile_document: (_document(_COMPANY_A),),
    ingest.profile_document_to_dict: (_PROFILE_DOCUMENT,),
    ingest.load_json: (_COMPANY_A,),
    ingest.load_profile_document: (_COMPANY_A,),
    ingest.load_profile: (_COMPANY_A,),
    ingest.load_catalog: (REPO_ROOT / "src" / "ransomlab" / "data" / "default_catalog.json",),
    ingest.load_network: (REPO_ROOT / "sample_data" / "star4.json",),
    simnet.step: (_NETWORK, _CONFIG, random.Random(1)),
    simnet.run: (_NETWORK, _CONFIG),
    simnet.monte_carlo_f: (_NETWORK, _CONFIG, 3),  # HOSTILE's 10**400 runs is over the work cap
    simnet.trajectory_csv: (simnet.run(_NETWORK, _CONFIG),),
    simnet.network_to_dict: (_NETWORK,),
    simnet.network_from_dict: (simnet.network_to_dict(_NETWORK),),
}


# The plain-number formulas: the sweep maps them over columns it has already validated.
UNCHECKED = {
    scoring.spreadability_of,
    scoring.severity_of,
    scoring.disinfection_probability_of,
    scoring.disinfection_payoff_of,
}


def _exported_functions() -> set:
    found = set()
    for module in (scoring, games, strategies, report, ingest, simnet):
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value) and not isinstance(value, type):
                found.add(value)
    return found


def test_every_exported_function_has_a_valid_call():
    assert UNCHECKED <= _exported_functions()
    assert _exported_functions() - UNCHECKED == set(CALLS)


@pytest.mark.parametrize("function", CALLS, ids=lambda function: function.__name__)
def test_every_argument_rejects_or_takes_each_hostile_value(function, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the writers' path argument may be a relative name
    args = CALLS[function]
    function(*args)
    for k in range(len(args)):
        for value in HOSTILE:
            try:
                function(*args[:k], value, *args[k + 1 :])
            except ValidationError:
                pass


# -- labels: a format and its arguments, formatted only when a check raises ------


def _label_builders(tree: ast.AST):
    """Each call to ``from_dict`` or a ``check_*`` function (private ones too) that builds a string for an argument."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        if not (func.lstrip("_").startswith("check_") or func == "from_dict"):
            continue
        for arg in node.args:
            formats = isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute) and arg.func.attr == "format"
            if isinstance(arg, ast.JoinedStr) or isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod) or formats:
                yield node.lineno, func


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "src" / "ransomlab").glob("*.py")), ids=lambda path: path.name)
def test_no_check_call_formats_its_label_before_it_fails(path):
    assert list(_label_builders(ast.parse(path.read_text(encoding="utf-8")))) == []


def _raw_stores(tree: ast.AST):
    """The line of each use of ``object.__setattr__``, which only ``errors`` needs: records call ``self._store``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and getattr(node.value, "id", "") == "object":
            yield node.lineno


@pytest.mark.parametrize(
    "path", [path for path in sorted((REPO_ROOT / "src" / "ransomlab").glob("*.py")) if path.name != "errors.py"],
    ids=lambda path: path.name,
)
def test_only_errors_knows_how_a_record_stores_its_fields(path):
    assert list(_raw_stores(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_store_guard_sees_object_setattr():
    source = 'object.__setattr__(self, "a", a)\nset_field = object.__setattr__\nself._store(a)\nsetattr(x, "a", a)\n'
    assert sorted(_raw_stores(ast.parse(source))) == [1, 2]


def test_the_label_guard_sees_each_way_of_building_a_string():
    calls = 'check_type(x, int, f"a {k}")\n_check_mix(m, None, "%s" % w)\ncheck_number(x, 0, 1, "{}".format(k))\n'
    calls += 'from_dict(Host, d, f"host {k}")\ncheck_enum(v, HostState, "%s state" % w)\n'
    assert [func for _, func in _label_builders(ast.parse(calls))] == [
        "check_type", "_check_mix", "check_number", "from_dict", "check_enum",
    ]


class _Unprintable:
    """A label argument that fails the test if it is ever formatted."""

    def __str__(self) -> str:
        raise AssertionError("a passing check formatted its label")

    __repr__ = __str__


def test_a_passing_check_never_formats_its_label():
    class Count(int):
        pass

    arg = _Unprintable()
    for value in (5, 2.5, Count(3)):  # exact types, and a subclass that takes the per-value path
        check_number(value, 0, 10, "x %s", arg)
        check_type(value, type(value), "x %s", arg)
    check_type(True, bool, "x %s", arg)
    check_type(Count(1), int, "x %s", arg)
    check_sequence([1], "x %s", arg)
    check_items((1, Count(2)), int, "x %s", "x %s item", arg)
    check_enum("Infected", simnet.HostState, "x %s", arg)
    check_keys({"a": 1}, "x %s", ("a",), (), arg)
    # An element label: its fields and its own elements are named after it, all formatted only on failure.
    assert from_dict(Network, simnet.network_to_dict(_NETWORK), "x %s", arg) == _NETWORK
    assert from_dict(StrategyCatalog, strategies.catalog_to_dict(_CATALOG), "x %s", arg) == _CATALOG
    with pytest.raises(AssertionError, match="formatted its label"):
        check_number(11, 0, 10, "x %s", arg)


# -- records: repr, equality, hashing, pickling, copying and immutability, pinned ------

_COMPARISON = report.compare_profiles(_PROFILE, TraitProfile(a=90, b=60, c=90, d=100, e=10, f=15, g=25, h=60, i=75))
_TRAJECTORY = simnet.run(_NETWORK, _CONFIG)

# One instance of each output-only type, as the library builds it.
OUTPUTS = {
    ScoreSet: _COMPARISON.first,
    MetricComparison: _COMPARISON.metrics[0],
    ProfileComparison: _COMPARISON,
    TickCounts: _TRAJECTORY.counts[1],
    Trajectory: _TRAJECTORY,
    MonteCarloSummary: simnet.monte_carlo_f(_NETWORK, _CONFIG, 3),
    Equilibrium: pure_nash(pd_game(5, 3, 1, 0))[0],
}
RECORDS = {**VALID, **OUTPUTS}

# Each record's repr; one longer than 200 characters by the start of its SHA-256.
REPRS = {
    Host: "Host(id=0, state=<HostState.INFECTED: 'Infected'>, awareness=0, protection=0)",
    CloudStore: "CloudStore(id=0, contaminated=False)",
    Edge: "Edge(host=0, cloud=0, prob=1.0)",
    Network: "sha256:f2a0beb0c3878e0e",
    Step: "Step(description='Click in every file of the computer', complexity=8, "
    "note='depends since it is more time consuming than complex')",
    Strategy: "sha256:5fc6481e572c0a0e",
    StrategyCatalog: "sha256:c4960b55d0c37347",
    ProfileDocument: "ProfileDocument(name='Company A', "
    "profile=TraitProfile(a=20, b=25, c=25, d=100, e=80, f=90, g=25, h=60, i=15))",
    TraitProfile: "TraitProfile(a=20, b=25, c=25, d=100, e=80, f=90, g=25, h=60, i=15)",
    BimatrixGame: "BimatrixGame(row_labels=('NotPay', 'Pay'), col_labels=('Decrypt', 'NotDecrypt'), "
    "payoffs=(((100.0, 0.0), (-40.0, 0.0)), ((10.0, 100.0), (-100.0, 100.0))))",
    Equilibrium: "Equilibrium(row_mix=(0.0, 1.0), col_mix=(0.0, 1.0), row_value=1.0, col_value=1.0, kind='pure')",
    SimConfig: "SimConfig(ticks=5, base_infection_prob=0.5, clean_prob_per_tick=0.1, reinfection_allowed=True, seed=1)",
    SweepSpec: "SweepSpec(fixed_variable='A', fixed_value=20)",
    SweepResult: "SweepResult(spec=SweepSpec(fixed_variable='A', fixed_value=20))",
    ScoreSet: "ScoreSet(sps=83.0, severity=59.75, disinfection_probability=31.0, disinfection_payoff=14.9375)",
    MetricComparison: "MetricComparison(metric='SPS', first=83.0, second=11.5, higher='first')",
    ProfileComparison: "sha256:cf4afead4a9d0084",
    TickCounts: "TickCounts(tick=1, susceptible=3, infected=0, cleaned=1, contaminated_clouds=1)",
    Trajectory: "sha256:d167d24aeb5ac8d5",
    MonteCarloSummary: "MonteCarloSummary(mean_f=91.66666666666667, stddev_f=11.785113019775793, "
    "final_fs=(100.0, 100.0, 75.0))",
}


# Attributes an ``__init__`` derives from the fields and stores after them; equality, hashing and repr skip them.
DERIVED = {SweepResult: ("scores",)}


def _pinned_repr(instance) -> str:
    text = repr(instance)
    return text if len(text) <= 200 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_record_type_has_one_pinned_instance():
    assert set(OUTPUTS) == set(OUTPUT_ONLY)
    assert set(REPRS) == set(RECORDS)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_fields_are_its_init_parameters(kind):
    parameters = inspect.signature(kind).parameters.values()
    assert all(parameter.kind is parameter.POSITIONAL_OR_KEYWORD for parameter in parameters)
    assert tuple(parameter.name for parameter in parameters) == fields(kind) == fields(RECORDS[kind])
    assert tuple(vars(RECORDS[kind])) == fields(kind) + DERIVED.get(kind, ())


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11), reason="CPython 3.11+ only")
def test_record_fields_read_as_instance_values():
    """A record keeps no dict of its own, so the specializing interpreter reads its fields at full speed."""
    edges = [Edge(host=k, cloud=0, prob=0.5) for k in range(10)]

    def read():
        return [edge.prob for edge in edges]

    for _ in range(100):
        read()
    listing = io.StringIO()
    dis.dis(read, adaptive=True, file=listing)
    assert "LOAD_ATTR_INSTANCE_VALUE" in listing.getvalue()


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_repr_is_pinned(kind):
    assert _pinned_repr(RECORDS[kind]) == REPRS[kind]


def _listed(value):
    """``value`` with every tuple, nested ones too, turned into a list; records are left as they are."""
    return [_listed(x) for x in value] if isinstance(value, tuple) else value


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_built_from_lists_or_tuples_are_equal_and_hash_equal(kind):
    instance = RECORDS[kind]
    values = _fields(instance)
    # Only the checked types take lists; an output-only type stores what it is given.
    builds = [kind(**values), kind(**{name: _listed(x) for name, x in values.items()})] if kind in VALID else [
        kind(**values)
    ]
    for built in builds:
        assert built == instance and not built != instance
        assert hash(built) == hash(instance) == hash(tuple(values.values()))
    assert instance.__eq__(object()) is NotImplemented
    assert instance != object()


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_survive_pickle_and_copies(kind):
    instance = RECORDS[kind]
    for clone in (pickle.loads(pickle.dumps(instance)), copy.copy(instance), copy.deepcopy(instance)):
        assert type(clone) is kind
        assert clone == instance and hash(clone) == hash(instance) and repr(clone) == repr(instance)
        assert vars(clone) == vars(instance)  # derived attributes too


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_refuse_setting_and_deleting_attributes(kind):
    instance = RECORDS[kind]
    before = repr(instance)
    for name in [*_fields(instance), *DERIVED.get(kind, ()), "extra"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(instance, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(instance, name)
    assert repr(instance) == before
