"""The record document codec behind the network, catalog and game documents.

Every document these types write reads back as the value that wrote it, after
a trip through JSON text, and a rejected document is named by the field or
element at fault.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simnet_kernel import networks

from ransomlab.errors import ValidationError
from ransomlab.games import BimatrixGame, game_from_dict, game_to_dict
from ransomlab.simnet import network_from_dict, network_to_dict
from ransomlab.strategies import Level, Step, Strategy, StrategyCatalog, catalog_from_dict, catalog_to_dict

notes = st.none() | st.text(max_size=12)
complexities = st.integers(0, 10) | st.floats(0, 10)
steps = st.builds(Step, description=st.text(max_size=12), complexity=complexities, note=notes)


@st.composite
def catalogs(draw) -> StrategyCatalog:
    names = draw(st.lists(st.text(max_size=8), unique=True, max_size=5))
    return StrategyCatalog(
        [
            Strategy(
                name=name,
                steps=draw(st.lists(steps, max_size=4)),
                overall_complexity=draw(complexities),
                effectiveness=draw(st.sampled_from(Level)),
                reinfection_risk=draw(st.sampled_from(Level)),
                note=draw(notes),
            )
            for name in names
        ]
    )


payoffs = st.integers(-(10**6), 10**6) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def games(draw) -> BimatrixGame:
    rows = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
    cols = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
    cells = [[(draw(payoffs), draw(payoffs)) for _ in cols] for _ in rows]
    return BimatrixGame(rows, cols, cells)


def _through_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


@settings(max_examples=150, deadline=None)
@given(net=networks())
def test_network_documents_round_trip(net):
    assert network_from_dict(_through_json(network_to_dict(net))) == net


@settings(max_examples=150, deadline=None)
@given(cat=catalogs())
def test_catalog_documents_round_trip(cat):
    doc = catalog_to_dict(cat)
    assert catalog_from_dict(_through_json(doc)) == cat
    # A note is written only when there is one.
    for strategy, entry in zip(cat.strategies, doc["strategies"]):
        assert ("note" in entry) == (strategy.note is not None)
        for step, step_entry in zip(strategy.steps, entry["steps"]):
            assert ("note" in step_entry) == (step.note is not None)


@settings(max_examples=150, deadline=None)
@given(game=games())
def test_game_documents_round_trip(game):
    assert game_from_dict(_through_json(game_to_dict(game))) == game


def test_documents_are_keyed_by_field_names_in_field_order():
    cat = StrategyCatalog([Strategy("x", [Step("scan", 1, note="n")], 2, Level.LOW, Level.HIGH, note="m")])
    assert catalog_to_dict(cat) == {
        "strategies": [
            {
                "name": "x",
                "steps": [{"description": "scan", "complexity": 1, "note": "n"}],
                "overall_complexity": 2,
                "effectiveness": "Low",
                "reinfection_risk": "High",
                "note": "m",
            }
        ]
    }
    assert list(catalog_to_dict(cat)["strategies"][0]) == [
        "name", "steps", "overall_complexity", "effectiveness", "reinfection_risk", "note",
    ]
    assert game_to_dict(BimatrixGame(["r"], ["c"], [[(1, 2)]])) == {
        "row_labels": ["r"], "col_labels": ["c"], "payoffs": [[[1.0, 2.0]]],
    }


_HOST = {"id": 0, "state": "Infected", "awareness": 0, "protection": 0}
_STEP = {"description": "scan", "complexity": 1}
_STRATEGY = {
    "name": "x", "steps": [_STEP, _STEP], "overall_complexity": 1, "effectiveness": "Low", "reinfection_risk": "Low",
}

BAD_DOCUMENTS = {
    "'hosts' must be a list, got dict": (network_from_dict, {"hosts": {}, "clouds": [], "edges": []}),
    "host 1 must be a JSON object, got int": (network_from_dict, {"hosts": [_HOST, 1], "clouds": [], "edges": []}),
    "cloud 0 missing keys: ['contaminated']": (network_from_dict, {"hosts": [], "clouds": [{"id": 0}], "edges": []}),
    "edge 0 has unknown keys: ['weight']": (
        network_from_dict,
        {"hosts": [], "clouds": [], "edges": [{"host": 0, "cloud": 0, "prob": 0.5, "weight": 1}]},
    ),
    "'strategies' must be a list, got NoneType": (catalog_from_dict, {"strategies": None}),
    "strategy 0 steps must be a list, got str": (catalog_from_dict, {"strategies": [{**_STRATEGY, "steps": "scan"}]}),
    "strategy 0 step 1 has unknown keys: ['x']": (
        catalog_from_dict, {"strategies": [{**_STRATEGY, "steps": [_STEP, {**_STEP, "x": 1}]}]},
    ),
    "strategy 0 reinfection_risk must be one of Low/Medium/High, got 'low'": (
        catalog_from_dict, {"strategies": [{**_STRATEGY, "reinfection_risk": "low"}]},
    ),
    "'col_labels' must be a list, got str": (game_from_dict, {"row_labels": ["r"], "col_labels": "c", "payoffs": []}),
    "game document missing keys: ['payoffs']": (game_from_dict, {"row_labels": ["r"], "col_labels": ["c"]}),
}


@pytest.mark.parametrize("message", BAD_DOCUMENTS, ids=range(len(BAD_DOCUMENTS)))
def test_rejections_name_the_field_or_element(message):
    parse, doc = BAD_DOCUMENTS[message]
    with pytest.raises(ValidationError) as err:
        parse(doc)
    assert str(err.value) == message


def test_parsing_leaves_the_document_unchanged():
    doc = {
        "hosts": [_HOST], "clouds": [{"id": 0, "contaminated": False}], "edges": [{"host": 0, "cloud": 0, "prob": 1}],
    }
    before = json.dumps(doc)
    network_from_dict(doc)
    assert json.dumps(doc) == before
