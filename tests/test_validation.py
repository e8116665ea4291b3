"""Every input either works or raises ValidationError: parsers, constructors, CLI."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomlab import strategies as strategies_module
from ransomlab.cli import main
from ransomlab.errors import ValidationError, check_keys, check_number, plain_numbers, replace
from ransomlab.games import (
    BimatrixGame, expected_payoffs, game_from_dict, game_to_dict, pd_game, ransom_game, replicator_step,
    snowdrift_game,
)
from ransomlab.ingest import ProfileDocument, parse_profile_document
from ransomlab.report import SweepResult, SweepSpec, sweep, sweep_csv
from ransomlab.scoring import TraitProfile, score_all
from ransomlab.simnet import CloudStore, Edge, Host, Network, SimConfig, monte_carlo_f, network_from_dict
from ransomlab.strategies import (
    Level,
    Step,
    Strategy,
    StrategyCatalog,
    catalog_from_dict,
    catalog_to_dict,
    default_catalog,
    rank_strategies,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# -- property: parsers never leak a non-ValidationError -----------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# Integers past float range and values on either side of every bound.
edge_values = st.sampled_from([10**400, -(10**400), 1e308, -1.0, 0, 1, 100, 101, True, "1", [], {}, None])


def _paths(doc, prefix=()):
    """Every (container path, key or index) position inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


def _mutate(doc, data) -> object:
    """A deep copy of ``doc`` with one position replaced, deleted, or given an extra key."""
    doc = json.loads(json.dumps(doc))
    positions = list(_paths(doc))
    path, key = data.draw(st.sampled_from(positions))
    parent = doc
    for step in path:
        parent = parent[step]
    action = data.draw(st.sampled_from(["replace", "replace", "delete", "extra"]))
    if action == "delete":
        del parent[key]
    elif action == "extra" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4))] = data.draw(json_values)
    else:
        parent[key] = data.draw(edge_values | json_values)
    return doc


def _sample(name: str) -> dict:
    return json.loads((SRC_DIR.parent / "sample_data" / name).read_text(encoding="utf-8"))


PARSERS = {
    "network": (network_from_dict, lambda: _sample("star4.json")),
    "catalog": (catalog_from_dict, lambda: catalog_to_dict(default_catalog())),
    "game": (game_from_dict, lambda: game_to_dict(ransom_game())),
    "profile": (parse_profile_document, lambda: _sample("company_a.json")),
}


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_parsers_return_or_raise_validation_error(data):
    parse, good = PARSERS[data.draw(st.sampled_from(sorted(PARSERS)))]
    doc = data.draw(json_values) if data.draw(st.integers(0, 3)) == 0 else _mutate(good(), data)
    try:
        parse(doc)
    except ValidationError:
        pass


# -- direct construction -------------------------------------------------------

_PROFILE = TraitProfile(a=20, b=25, c=25, d=100, e=80, f=90, g=25, h=60, i=15)


BAD_CONSTRUCTIONS = {
    "host string id": lambda: Host(id="h1"),
    "host bool id": lambda: Host(id=True),
    "cloud string id": lambda: CloudStore(id="c1"),
    "cloud string contaminated": lambda: CloudStore(id=0, contaminated="yes"),
    "cloud int contaminated": lambda: CloudStore(id=0, contaminated=1),
    "edge string host": lambda: Edge(host="0", cloud=0, prob=0.5),
    "edge float cloud": lambda: Edge(host=0, cloud=1.0, prob=0.5),
    "network int host": lambda: Network(hosts=(1,), clouds=(), edges=()),
    "network tuple edge": lambda: Network(hosts=(Host(id=0),), clouds=(CloudStore(id=0),), edges=((0, 0, 0.5),)),
    "network none hosts": lambda: Network(hosts=None, clouds=(), edges=()),
    "network host as cloud": lambda: Network(hosts=(), clouds=(Host(id=0),), edges=()),
    "config string reinfection": lambda: SimConfig(
        ticks=5, base_infection_prob=0.5, clean_prob_per_tick=0.0, reinfection_allowed="no", seed=1
    ),
    "step int description": lambda: Step(description=5, complexity=1),
    "step int note": lambda: Step(description="scan", complexity=1, note=3),
    "strategy int name": lambda: Strategy(
        name=7, steps=(), overall_complexity=1, effectiveness=Level.LOW, reinfection_risk=Level.LOW
    ),
    "strategy list note": lambda: Strategy(
        name="x", steps=(), overall_complexity=1, effectiveness=Level.LOW, reinfection_risk=Level.LOW, note=["n"]
    ),
    "strategy int step": lambda: Strategy(
        name="x", steps=(1,), overall_complexity=1, effectiveness=Level.LOW, reinfection_risk=Level.LOW
    ),
    "strategy none steps": lambda: Strategy(
        name="x", steps=None, overall_complexity=1, effectiveness=Level.LOW, reinfection_risk=Level.LOW
    ),
    "catalog int strategy": lambda: StrategyCatalog((1,)),
    "catalog none strategies": lambda: StrategyCatalog(None),
    "game int row label": lambda: BimatrixGame([1], ["c"], [[(0, 0)]]),
    "game none column label": lambda: BimatrixGame(("r",), (None,), (((0.0, 0.0),),)),
    "game no rows": lambda: BimatrixGame([], ["c"], []),
    "game no columns": lambda: BimatrixGame(["a", "b"], [], [[], []]),
    "game no rows or columns": lambda: BimatrixGame((), (), ()),
    "game none row labels": lambda: BimatrixGame(None, ("c",), (((0, 0),),)),
    "game none payoffs": lambda: BimatrixGame(("r",), ("c",), None),
    "game string labels": lambda: BimatrixGame("rc", "c", [[(0, 0)], [(0, 0)]]),
    "game none payoff row": lambda: BimatrixGame(("r",), ("c",), (None,)),
    "expected payoffs none mix": lambda: expected_payoffs(ransom_game(), None, (0.5, 0.5)),
    "expected payoffs string mix": lambda: expected_payoffs(ransom_game(), ("a", "b"), (0.5, 0.5)),
    "sweep result none spec": lambda: SweepResult(None),
    "profile document int name": lambda: ProfileDocument(name=5, profile=_PROFILE),
    "profile document none profile": lambda: ProfileDocument("x", None),
    "ranking nan weight": lambda: rank_strategies(default_catalog(), _PROFILE, (math.nan, 0.5, 0.25, 0.25)),
    "ranking none weights": lambda: rank_strategies(default_catalog(), _PROFILE, None),
    "replicator string dt": lambda: replicator_step(pd_game(5, 3, 1, 0), (0.5, 0.5), "x"),
    "ransom game none payoffs": lambda: ransom_game(None),
    "ransom game int virus payoffs": lambda: ransom_game(virus_payoffs=4),
    "pd game string payoff": lambda: pd_game("a", 3, 1, 0),
    "snowdrift string benefit": lambda: snowdrift_game("a", 1),
    "snowdrift none cost": lambda: snowdrift_game(2, None),
}


@pytest.mark.parametrize("build", BAD_CONSTRUCTIONS.values(), ids=BAD_CONSTRUCTIONS.keys())
def test_constructors_reject_bad_fields(build):
    with pytest.raises(ValidationError):
        build()


# Each case's test id is its position, so a new message goes last and no existing id changes.
KEPT_MESSAGES = {
    "prisoner's dilemma requires T > R > P > S, got (1, 2, 3, 4)": lambda: pd_game(1, 2, 3, 4),
    "snowdrift requires b > c > 0, got (b=1.5, c=2)": lambda: snowdrift_game(1.5, 2),
    "dt must be positive and finite, got 0": lambda: replicator_step(pd_game(5, 3, 1, 0), (0.5, 0.5), 0),
    "ransom_game expects 4 user payoffs and 4 virus payoffs": lambda: ransom_game((1, 2, 3)),
    "expected 4 ranking weights, got 3": lambda: rank_strategies(default_catalog(), _PROFILE, [0.5, 0.25, 0.25]),
    "severity requires G > 0, got 0": lambda: score_all(replace(_PROFILE, g=0)),
    "severity requires G > 0, got 0.0": lambda: rank_strategies(default_catalog(), replace(_PROFILE, g=0.0)),
    "replicator step overflowed float range": lambda: replicator_step(snowdrift_game(1e308, 1e307), (0.5, 0.5), 10.0),
}


@pytest.mark.parametrize("message", KEPT_MESSAGES, ids=range(len(KEPT_MESSAGES)))
def test_well_typed_bad_values_keep_their_messages(message):
    with pytest.raises(ValidationError) as err:
        KEPT_MESSAGES[message]()
    assert str(err.value) == message


def _strategy(**fields) -> Strategy:
    return Strategy(**{
        "name": "x", "steps": (), "overall_complexity": 1, "effectiveness": Level.LOW, "reinfection_risk": Level.LOW,
        **fields,
    })


_NETWORK_DOC = {"hosts": [], "clouds": [], "edges": []}
_CONFIG = SimConfig(ticks=1, base_infection_prob=0.5, clean_prob_per_tick=0.1, reinfection_allowed=True, seed=1)

# One bad input per check whose label is built from the value's fields or position, per input that a
# type-and-range shortcut lets through when it is good, and per argument check the scoring, ranking and sweep
# entry points keep once the sweep computes its own columns: the exact message each raises. As in
# ``KEPT_MESSAGES``, a case's test id is its position, so a new message goes last and no existing id changes.
LABEL_MESSAGES = {
    "host 3 awareness must be in [0, 100], got 150": lambda: Host(id=3, awareness=150),
    "host 3 protection must be a number, got str": lambda: Host(id=3, protection="x"),
    "cloud 0 contaminated must be a boolean, got int": lambda: CloudStore(id=0, contaminated=1),
    "edge (0, 1) prob must be in [0, 1], got 1.5": lambda: Edge(host=0, cloud=1, prob=1.5),
    "edge (0, 1) prob must be a number, got bool": lambda: Edge(host=0, cloud=1, prob=True),
    "network hosts must be a tuple or list, got NoneType": lambda: Network(hosts=None, clouds=(), edges=()),
    "network host 0 must be a Host, got int": lambda: Network(hosts=(1,), clouds=(), edges=()),
    "network cloud 0 must be a CloudStore, got Host": lambda: Network(hosts=(), clouds=(Host(id=0),), edges=()),
    "network edges must be a tuple or list, got str": lambda: Network(hosts=(), clouds=(), edges="e"),
    "network edge 1 must be an Edge, got tuple": lambda: Network(
        hosts=(Host(id=0),), clouds=(CloudStore(id=0),), edges=(Edge(0, 0, 0.5), (0, 0, 0.5))
    ),
    "step 'scan' complexity must be in [0, 10], got 11": lambda: Step(description="scan", complexity=11),
    "step 'scan' note must be a string, got int": lambda: Step(description="scan", complexity=1, note=3),
    "strategy 'x' steps must be a tuple or list, got NoneType": lambda: _strategy(steps=None),
    "strategy 'x' step 0 must be a Step, got int": lambda: _strategy(steps=(1,)),
    "strategy 'it's' step 1 must be a Step, got str": lambda: _strategy(
        name="it's", steps=(Step(description="scan", complexity=1), "s")
    ),
    "strategy 'x' complexity must be in [0, 10], got 11": lambda: _strategy(overall_complexity=11),
    "strategy 'x' note must be a string, got list": lambda: _strategy(note=["n"]),
    "catalog strategy 0 must be a Strategy, got int": lambda: StrategyCatalog((1,)),
    "row label 1 must be a string, got int": lambda: BimatrixGame(["r", 1], ["c"], [[(0, 0)], [(0, 0)]]),
    "payoff row 0 must be a tuple or list, got NoneType": lambda: BimatrixGame(("r",), ("c",), (None,)),
    "payoff row 1 has 1 cells, expected 2": lambda: BimatrixGame(
        ["r0", "r1"], ["c0", "c1"], [[(0, 0), (0, 0)], [(0, 0)]]
    ),
    "payoff cell (0, 1) must be a [row, col] pair": lambda: BimatrixGame(["r"], ["c0", "c1"], [[(0, 0), 5]]),
    "payoff cell (1, 0) must be a number, got str": lambda: BimatrixGame(
        ["r0", "r1"], ["c"], [[(0, 0)], [(0, "x")]]
    ),
    "payoff cell (0, 0) must be a number, got bool": lambda: BimatrixGame(["r"], ["c"], [[(True, 0)]]),
    "payoff cell (0, 0) must be in [-1.79769e+308, 1.79769e+308], got nan": lambda: BimatrixGame(
        ["r"], ["c"], [[(math.nan, 0)]]
    ),
    "payoff cell (0, 1) must be in [-1.79769e+308, 1.79769e+308], got inf": lambda: BimatrixGame(
        ["r"], ["c0", "c1"], [[(0, 0), (1.5, math.inf)]]
    ),
    "payoff cell (0, 0) must be in [-1.79769e+308, 1.79769e+308], got " + repr(10**400): lambda: BimatrixGame(
        ["r"], ["c"], [[(10**400, 1.0)]]
    ),
    "prisoner's dilemma T must be a number, got str": lambda: pd_game("a", 3, 1, 0),
    "prisoner's dilemma S must be in [-1.79769e+308, 1.79769e+308], got nan": lambda: pd_game(5, 3, 1, math.nan),
    "row mix must be a tuple or list, got NoneType": lambda: expected_payoffs(ransom_game(), None, (0.5, 0.5)),
    "row mix entry must be a number, got str": lambda: expected_payoffs(ransom_game(), ("a", 1.0), (0.5, 0.5)),
    "column mix entry must be in [0, 1.79769e+308], got -0.5": lambda: expected_payoffs(
        ransom_game(), (1.0, 0.0), (-0.5, 1.5)
    ),
    "row mix entry must be in [0, 1.79769e+308], got nan": lambda: expected_payoffs(
        ransom_game(), (math.nan, 1.0), (0.5, 0.5)
    ),
    "row mix entry must be a number, got bool": lambda: expected_payoffs(ransom_game(), (True, 0), (0.5, 0.5)),
    "population mix has length 3, expected 2": lambda: replicator_step(pd_game(5, 3, 1, 0), (0.5, 0.25, 0.25), 0.1),
    "population mix entry must be in [0, 1.79769e+308], got inf": lambda: replicator_step(
        pd_game(5, 3, 1, 0), (math.inf, 0.5), 0.1
    ),
    "column mix must sum to 1, got 0.5": lambda: expected_payoffs(ransom_game(), (1, 0), (0.25, 0.25)),
    "network document must be a JSON object, got list": lambda: network_from_dict([]),
    "network document missing keys: ['edges']": lambda: network_from_dict({"hosts": [], "clouds": []}),
    "network document has unknown keys: ['extra']": lambda: network_from_dict({**_NETWORK_DOC, "extra": []}),
    "catalog document missing keys: ['strategies']": lambda: catalog_from_dict({"strategy": []}),
    "runs must be a positive integer, got True": lambda: monte_carlo_f(Network((), (), ()), _CONFIG, True),
    "runs must be a positive integer, got 1.5": lambda: monte_carlo_f(Network((), (), ()), _CONFIG, 1.5),
    "runs must be a positive integer, got 0": lambda: monte_carlo_f(Network((), (), ()), _CONFIG, 0),
    "profile must be a TraitProfile, got NoneType": lambda: score_all(None),
    "profile must be a TraitProfile, got dict": lambda: rank_strategies(default_catalog(), {"a": 1}),
    "fixed_value must be in [0, 100], got 101.0": lambda: SweepSpec("A", 101.0),
    "fixed_value must be a number, got str": lambda: SweepSpec("A", "20"),
    "sweep spec must be a SweepSpec, got NoneType": lambda: sweep(None),
    "sweep spec must be a SweepSpec, got str": lambda: SweepResult("A=20"),
    "sweep result must be a SweepResult, got SweepSpec": lambda: sweep_csv(SweepSpec("A", 20)),
}


@pytest.mark.parametrize("message", LABEL_MESSAGES, ids=range(len(LABEL_MESSAGES)))
def test_labelled_checks_keep_their_messages(message):
    with pytest.raises(ValidationError) as err:
        LABEL_MESSAGES[message]()
    assert str(err.value) == message


def test_list_built_values_equal_and_hash_like_tuple_built():
    step = Step(description="scan", complexity=1)

    def strategy(steps):
        return Strategy(name="x", steps=steps, overall_complexity=1, effectiveness=Level.LOW, reinfection_risk=Level.LOW)

    pairs = [
        (Network(hosts=[Host(id=0)], clouds=[], edges=[]), Network(hosts=(Host(id=0),), clouds=(), edges=())),
        (strategy([step]), strategy((step,))),
        (StrategyCatalog([strategy([step])]), StrategyCatalog((strategy((step,)),))),
        (BimatrixGame(["r"], ["c"], [[[1, 2]]]), BimatrixGame(("r",), ("c",), (((1.0, 2.0),),))),
    ]
    for from_lists, from_tuples in pairs:
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)


BAD_CELLS = {
    "non-numeric": ("x", 0),
    "triple": (1, 2, 3),
    "single": (1,),
    "not a pair": 5,
    "beyond float range": (10**400, 0),
    "bool": (True, 0),
    "nan": (0, math.nan),
    "infinity": (-math.inf, 0),
}


@pytest.mark.parametrize("cell", BAD_CELLS.values(), ids=BAD_CELLS.keys())
def test_bad_game_cells_name_the_cell(cell):
    payoffs = [[(0, 0), (0, 0)], [(0, 0), cell]]
    with pytest.raises(ValidationError, match=r"\(1, 1\)"):
        BimatrixGame(["r0", "r1"], ["c0", "c1"], payoffs)
    doc = {"row_labels": ["r0", "r1"], "col_labels": ["c0", "c1"], "payoffs": payoffs}
    with pytest.raises(ValidationError, match=r"\(1, 1\)"):
        game_from_dict(json.loads(json.dumps(doc)))


def test_game_document_with_empty_labels_is_rejected():
    with pytest.raises(ValidationError, match="at least one row and one column"):
        game_from_dict({"row_labels": [], "col_labels": [], "payoffs": []})
    with pytest.raises(ValidationError, match="at least one row and one column"):
        game_from_dict({"row_labels": ["a", "b"], "col_labels": [], "payoffs": [[], []]})


def test_game_cells_accept_ints_and_floats_but_not_bools():
    game = BimatrixGame(("r",), ("c",), [[[1, 2.5]]])
    assert game.payoffs == (((1.0, 2.5),),) and type(game.payoffs[0][0][0]) is float
    assert BimatrixGame(["r"], ["c"], [[(1, 2.5)]]).payoffs == (((1.0, 2.5),),)
    with pytest.raises(ValidationError, match=r"\(0, 0\)"):
        BimatrixGame(("r",), ("c",), (((False, 2.5),),))

    class Payoff(float):
        pass

    assert BimatrixGame(("r",), ("c",), (((Payoff(1.5), 2),),)).payoffs == (((1.5, 2.0),),)


# -- shared helper and catalog -------------------------------------------------


class _Score(float):
    pass


_MAX = sys.float_info.max
_ELEMENTS = (
    st.floats() | st.integers() | st.sampled_from([10**400, -(10**400), int(_MAX), int(_MAX) + 1, _MAX, True, None])
    | st.builds(_Score, st.floats(-10, 10))
)


@settings(max_examples=500, deadline=None)
@given(items=st.lists(_ELEMENTS, max_size=6), bounds=st.sampled_from([(-_MAX, _MAX), (0, _MAX), (0, 1), (-2.5, 7)]))
def test_plain_numbers_answers_exactly_what_check_number_passes(items, bounds):
    lo, hi = bounds

    def passes(x):
        try:
            check_number(x, lo, hi, "x")
        except ValidationError:
            return False
        return True

    exact = all(type(x) in (int, float) for x in items)
    finite = exact and all(map(passes, items)) and math.isfinite(sum(map(float, items)))  # the sum in float arithmetic
    assert plain_numbers(items, lo, hi) == finite


def test_enum_fields_name_every_allowed_value():
    host = {"id": 0, "state": "Zombie", "awareness": 0, "protection": 0}
    with pytest.raises(ValidationError) as err:
        network_from_dict({"hosts": [host], "clouds": [], "edges": []})
    assert str(err.value) == "host 0 state must be one of Susceptible/Infected/Cleaned, got 'Zombie'"
    doc = catalog_to_dict(default_catalog())
    doc["strategies"][1]["effectiveness"] = ["High"]
    with pytest.raises(ValidationError) as err:
        catalog_from_dict(doc)
    assert str(err.value) == "strategy 1 effectiveness must be one of Low/Medium/High, got ['High']"


def test_check_keys_reports_shape_then_missing_then_unknown():
    with pytest.raises(ValidationError, match="thing must be a JSON object"):
        check_keys([], "thing", ("a",))
    with pytest.raises(ValidationError, match=r"thing missing keys: \['a'\]"):
        check_keys({"z": 1}, "thing", ("a",))
    with pytest.raises(ValidationError, match=r"thing has unknown keys: \['y', 'z'\]"):
        check_keys({"a": 1, "b": 2, "z": 3, "y": 4}, "thing", ("a",), ("b",))


def test_default_catalog_is_parsed_once():
    assert default_catalog() is default_catalog()


def test_missing_packaged_catalog_exits_1(capsys, monkeypatch, tmp_path, sample_dir):
    monkeypatch.setattr(strategies_module.resources, "files", lambda package: tmp_path)
    default_catalog.cache_clear()
    try:
        code = main(["rank", "--profile", str(sample_dir / "company_a.json")])
    finally:
        monkeypatch.undo()
        default_catalog.cache_clear()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# -- CLI: unreadable files -----------------------------------------------------

UNREADABLE_FILES = {
    "non-utf8": b'\xff\xfe{"name": "x"}',
    "deep nesting": b"[" * 100_000,
    "long integer": b'{"name": "x", "variables": {"A": ' + b"1" * 5000 + b"}}",
}


@pytest.mark.parametrize("content", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys())
def test_cli_unreadable_profile_exits_2_with_one_error_line(tmp_path, content):
    path = tmp_path / "profile.json"
    path.write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, "-m", "ransomlab.cli", "score", "--profile", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr

