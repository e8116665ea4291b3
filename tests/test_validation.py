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
from ransomlab.errors import ValidationError, check_keys
from ransomlab.games import BimatrixGame, Equilibrium, game_from_dict, game_to_dict, make_game, ransom_game
from ransomlab.ingest import ProfileDocument, parse_profile_document
from ransomlab.scoring import TraitProfile
from ransomlab.simnet import CloudStore, Edge, Host, Network, SimConfig, network_from_dict
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
    "game int row label": lambda: make_game([1], ["c"], [[(0, 0)]]),
    "game none column label": lambda: BimatrixGame(("r",), (None,), (((0.0, 0.0),),)),
    "game no rows": lambda: make_game([], ["c"], []),
    "game no columns": lambda: make_game(["a", "b"], [], [[], []]),
    "game no rows or columns": lambda: BimatrixGame((), (), ()),
    "equilibrium nan mix": lambda: Equilibrium((math.nan, math.nan), (1.0,), 0.0, 0.0, "pure"),
    "profile document int name": lambda: ProfileDocument(name=5, profile=_PROFILE),
    "ranking nan weight": lambda: rank_strategies(default_catalog(), _PROFILE, (math.nan, 0.5, 0.25, 0.25)),
}


@pytest.mark.parametrize("build", BAD_CONSTRUCTIONS.values(), ids=BAD_CONSTRUCTIONS.keys())
def test_constructors_reject_bad_fields(build):
    with pytest.raises(ValidationError):
        build()


def test_list_built_values_equal_and_hash_like_tuple_built():
    step = Step(description="scan", complexity=1)

    def strategy(steps):
        return Strategy(name="x", steps=steps, overall_complexity=1, effectiveness=Level.LOW, reinfection_risk=Level.LOW)

    pairs = [
        (Network(hosts=[Host(id=0)], clouds=[], edges=[]), Network(hosts=(Host(id=0),), clouds=(), edges=())),
        (strategy([step]), strategy((step,))),
        (StrategyCatalog([strategy([step])]), StrategyCatalog((strategy((step,)),))),
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
}


@pytest.mark.parametrize("cell", BAD_CELLS.values(), ids=BAD_CELLS.keys())
def test_bad_game_cells_name_the_cell(cell):
    payoffs = [[(0, 0), (0, 0)], [(0, 0), cell]]
    with pytest.raises(ValidationError, match=r"\(1, 1\)"):
        make_game(["r0", "r1"], ["c0", "c1"], payoffs)
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
    assert make_game(["r"], ["c"], [[(1, 2.5)]]).payoffs == (((1.0, 2.5),),)
    with pytest.raises(ValidationError, match=r"\(0, 0\)"):
        BimatrixGame(("r",), ("c",), (((False, 2.5),),))


# -- shared helper and catalog -------------------------------------------------


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

