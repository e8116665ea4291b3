from __future__ import annotations

import json

import pytest

from ransomlab.errors import ValidationError
from ransomlab.ingest import (
    ProfileDocument,
    load_catalog,
    load_network,
    load_profile,
    load_profile_document,
    parse_profile_document,
    profile_document_to_dict,
)
from ransomlab.scoring import TraitProfile
from ransomlab.simnet import network_from_dict, network_to_dict
from ransomlab.strategies import catalog_to_dict, default_catalog


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def company_a_doc() -> dict:
    return {
        "name": "Company A",
        "variables": {"A": 20, "B": 25, "C": 25, "D": 100, "E": 80, "F": 90, "G": 25, "H": 60, "I": 15},
    }


def test_load_company_a_sample(sample_dir, company_a):
    assert load_profile(sample_dir / "company_a.json") == company_a


def test_load_company_b_sample(sample_dir, company_b):
    doc = load_profile_document(sample_dir / "company_b.json")
    assert doc.name == "Company B"
    assert doc.profile == company_b


def test_profile_document_round_trip(company_a):
    doc = ProfileDocument(name="Company A", profile=company_a)
    assert parse_profile_document(profile_document_to_dict(doc)) == doc


def test_missing_variable_names_the_key(tmp_path):
    payload = company_a_doc()
    del payload["variables"]["I"]
    with pytest.raises(ValidationError, match="I"):
        load_profile(write_json(tmp_path, "p.json", payload))


def test_unknown_variable_rejected(tmp_path):
    payload = company_a_doc()
    payload["variables"]["Z"] = 5
    with pytest.raises(ValidationError, match="Z"):
        load_profile(write_json(tmp_path, "p.json", payload))


def test_unknown_top_level_key_rejected(tmp_path):
    payload = company_a_doc()
    payload["comment"] = "hello"
    with pytest.raises(ValidationError, match="comment"):
        load_profile(write_json(tmp_path, "p.json", payload))


def test_out_of_range_variable_names_the_key(tmp_path):
    payload = company_a_doc()
    payload["variables"]["B"] = 140
    with pytest.raises(ValidationError, match="B"):
        load_profile(write_json(tmp_path, "p.json", payload))


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "variables": }', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        load_profile(path)


def test_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_profile(tmp_path / "nope.json")


def test_error_messages_carry_the_file_path(tmp_path):
    # Each loader, given a document with one bad value, names the file first.
    profile = company_a_doc()
    profile["variables"]["B"] = 140
    catalog = catalog_to_dict(default_catalog())
    catalog["strategies"][1]["overall_complexity"] = "high"
    network = network_to_dict(load_sample_star())
    network["edges"][0]["prob"] = 1.5
    for load, payload in ((load_profile_document, profile), (load_catalog, catalog), (load_network, network)):
        path = write_json(tmp_path, f"broken_{load.__name__}.json", payload)
        with pytest.raises(ValidationError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ")


def test_decimal_and_integer_values_both_accepted(tmp_path):
    payload = company_a_doc()
    payload["variables"]["A"] = 20.0
    profile = load_profile(write_json(tmp_path, "p.json", payload))
    assert profile == TraitProfile(a=20, b=25, c=25, d=100, e=80, f=90, g=25, h=60, i=15)


def test_packaged_catalog_file_matches_default_catalog():
    from importlib import resources

    resource = resources.files("ransomlab").joinpath("data/default_catalog.json")
    assert resource.is_file()
    with resources.as_file(resource) as path:
        assert load_catalog(path) == default_catalog()


def test_catalog_file_round_trip(tmp_path):
    path = write_json(tmp_path, "catalog.json", catalog_to_dict(default_catalog()))
    assert load_catalog(path) == default_catalog()


def test_network_sample_files_load_and_round_trip(sample_dir):
    for name in ("star4.json", "ring8.json"):
        net = load_network(sample_dir / name)
        assert network_from_dict(network_to_dict(net)) == net


def test_network_referential_error(tmp_path):
    net = network_to_dict(load_sample_star())
    net["edges"].append({"host": 0, "cloud": 42, "prob": 0.5})
    with pytest.raises(ValidationError, match="cloud id 42"):
        load_network(write_json(tmp_path, "net.json", net))


def test_network_probability_range_error(tmp_path):
    net = network_to_dict(load_sample_star())
    net["edges"][0]["prob"] = 1.5
    with pytest.raises(ValidationError, match="prob"):
        load_network(write_json(tmp_path, "net.json", net))


def test_network_duplicate_id_error(tmp_path):
    net = network_to_dict(load_sample_star())
    net["hosts"].append(dict(net["hosts"][0]))
    with pytest.raises(ValidationError, match="duplicate host"):
        load_network(write_json(tmp_path, "net.json", net))


def load_sample_star():
    from pathlib import Path

    return load_network(Path(__file__).resolve().parent.parent / "sample_data" / "star4.json")
