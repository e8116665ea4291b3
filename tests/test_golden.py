"""Golden sha256 digests of the sweep files, the score/compare output and the written documents.

The A=20 and C=90 digests were recorded from the implementation before sweep
rows carried a ``ScoreSet``, and the G=0 and I=55.5 digests from the
profile-per-point sweep before it became column-wise. The D=37.5 and E=0
digests were recorded from the sweep that formatted every value of every
column; with A, C, G and I they cover each set of score columns that a
sweep shares across calls because their formulas do not read the fixed
variable (D: all four; E: SPS and DC; A: DC; C: SPS and DP; G: SPS, DP and DC;
I: SPS, S and DC). The sliced A=20 digests
(t = 50 alone, and t = 10..39) were recorded from the row-based sweep result
before it stored columns; they cover the single-point chart and an axis other
than 0..100. Any byte change to the CSV, the SVG or the CLI lines fails here, not only a change in shape or in a
four-decimal spot value. The document digests were recorded from the
hand-written per-type writers before one codec wrote every document; the
catalog is hashed with sorted keys because its key order changed then.
The simulator digests (``simulate`` stdout and ``trajectory_csv`` of one
``run``) were recorded from the kernel that compared every phase's draws
each tick, before a phase that cannot change state skipped its comparisons.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ransomlab.cli import main
from ransomlab.games import game_to_dict, pd_game, ransom_game, snowdrift_game
from ransomlab.ingest import load_network
from ransomlab.report import SweepSpec, sweep, sweep_csv, sweep_svg
from ransomlab.simnet import SimConfig, network_to_dict, run, trajectory_csv
from ransomlab.strategies import catalog_to_dict, default_catalog

SWEEP_DIGESTS = {
    ("A", 20.0): (
        "4a4420b110bf99c5cd69a110f7243568a1931ea8fd2e7c9361f1bde7d13ebcb0",
        "c28416806239ff0237b545ea69401593ce2e2b30753a635816ac9395a68abdc0",
    ),
    ("C", 90.0): (
        "a42390a9cd9b21987411667f0e2e815938a45a6841f1b9e6aa75cfec2afe2aa9",
        "ac95069ef919fda970ec36b0cccba16f316b45052c753f23615f324e6c3dc182",
    ),
    ("G", 0.0): (
        "26c00b9e27144d41bec01fda8c2ea5a90063f13380c8e53b2384e028a45fd84b",
        "61e2c42363e13321d5ca8af7cb38b2cb11ad59cb109ceff4bc49c3e432fa612d",
    ),
    ("I", 55.5): (
        "5ddd56299636325a5002f0c61c19d3d654f378a0fa355fee02cfadcf3ec9c15c",
        "2276c3f20aff8ff7674e321af44c60cad77ddd203ea514b579856d6b4bd08061",
    ),
    ("D", 37.5): (
        "827e842a477b8219691cb01a20d246e26d271f8aa3dcdaf7ee9c32e0f8c3d0fa",
        "fcdc98211ed2f62b953ce519b5131a308ebfac23aeb3038f8cd7a50c136af67f",
    ),
    ("E", 0.0): (
        "5d249b65f84a8b19f864298a731f121d90ccbc8de5fa8567ba815ff35ef44b45",
        "205875fe7744f918b11ec24d2d6c89b08d5cddae666ec4774de9124d9cfe5f63",
    ),
}

CLI_DIGESTS = {
    ("score", "--profile", "company_a.json"): "0abab59be62fe1f4408758ccdb5a0c4ab1567b53b46e9e5199ef5678fa0b54a2",
    ("score", "--profile", "company_b.json"): "3554508ad9965049f5a416f6112ad48602fac879ae796a3676d0dd7040f5910e",
    ("score", "--profile", "company_a.json", "--json"): "f95427bade5350787cac01248731f708a4e3dc3efa0fdb734a7a834b0f66adeb",
    ("score", "--profile", "company_b.json", "--json"): "2782526d2778e053a62a9796357c58e78e1650b9b6883eaf1726f291d15314f9",
    ("compare", "--a", "company_a.json", "--b", "company_b.json"): (
        "665729ab91f7e0f94b08b8f397296ee2ce46ec4b071242128715764b2ba0aeed"
    ),
}

NETWORK_DIGESTS = {
    "ring8.json": "f9cd580dd2dd41d7b276c832d1dc01c377fec0a4bff8c95ab4256309908d1369",
    "star4.json": "8f6531b28a72ecaa76921bf4b216f87889a45d1bea46286742623e60e2a2d741",
}

GAME_DIGESTS = {
    "ransom": (ransom_game, "76ba4d11e300ebc8a39df4b1987aed98546bf3c96e7183aa6b9a6838685c4b0e"),
    "pd 5 3 1 0": (lambda: pd_game(5, 3, 1, 0), "4ebd6c1db86c851437dc6f41eb4037240711b0e910666a595ae7a34a02106c7e"),
    "snowdrift 4 2": (lambda: snowdrift_game(4, 2), "3118cc3e5c6d8604b722f326d3a00727917417973dcd54c99331d2bad8aec7d5"),
}

CATALOG_SORTED_DIGEST = "94962e714365902b15f942753b22d1a8f8d4950c93521650605a2c113fd5c1f7"

# (network, clean, reinfect) -> digests of `simulate --ticks 20 --p 0.3 --seed 7 --runs 200` stdout and of
# trajectory_csv(run(...)) with the same configuration.
SIMULATE_DIGESTS = {
    ("ring8.json", 0.0, False): (
        "01bd628862aadb25a93623ea8d0cb50a7af4636e920795df6702d9e290aff413",
        "ad0f160be20254cd3dd7c2636988e4b41426fbb63dd67723417b963395d4ebf9",
    ),
    ("ring8.json", 0.0, True): (
        "01bd628862aadb25a93623ea8d0cb50a7af4636e920795df6702d9e290aff413",
        "ad0f160be20254cd3dd7c2636988e4b41426fbb63dd67723417b963395d4ebf9",
    ),
    ("ring8.json", 0.2, False): (
        "06dc2eb5641e4b1df3129921aab334f92a1e99c34d8bd6701890fb5cff2102e3",
        "03359cda00ebb285c13bb394fda1dffb922881dfa693300e40505f7de4cba3aa",
    ),
    ("ring8.json", 0.2, True): (
        "0332dca6ba80272373301aebaaa22785fc7b06311d4f625ce473ea5981d0f703",
        "9124206fbae2f796f2c4a3499606289e0fe339b34f11fe8478637062e0b830f4",
    ),
    ("star4.json", 0.0, False): (
        "25eab7c81ace158636eee333f620496a0e88259d4b25babbd98b304a3d4540bb",
        "bd51b5718f654d91f2c796b7a389d6e4c5dd9fa13acf14f61e69ca8a5b9460ae",
    ),
    ("star4.json", 0.0, True): (
        "25eab7c81ace158636eee333f620496a0e88259d4b25babbd98b304a3d4540bb",
        "bd51b5718f654d91f2c796b7a389d6e4c5dd9fa13acf14f61e69ca8a5b9460ae",
    ),
    ("star4.json", 0.2, False): (
        "25eab7c81ace158636eee333f620496a0e88259d4b25babbd98b304a3d4540bb",
        "8565f43efb256bc6e0c04d40626042e5818b75695ea6bff7e06e410d73b55697",
    ),
    ("star4.json", 0.2, True): (
        "25eab7c81ace158636eee333f620496a0e88259d4b25babbd98b304a3d4540bb",
        "42375200cdcf3da3f87cef284236cb85f174495bdc4f1dabd3d36c77959d4808",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fixed", SWEEP_DIGESTS, ids=[f"{var}={value:g}" for var, value in SWEEP_DIGESTS])
def test_sweep_files_match_golden_digests(fixed):
    result = sweep(SweepSpec(*fixed))
    assert (_sha256(sweep_csv(result)), _sha256(sweep_svg(result))) == SWEEP_DIGESTS[fixed]


@pytest.mark.parametrize("argv", CLI_DIGESTS, ids=[" ".join(argv) for argv in CLI_DIGESTS])
def test_cli_output_matches_golden_digests(argv, capsys, sample_dir):
    args = [str(sample_dir / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha256(captured.out) == CLI_DIGESTS[argv]


@pytest.mark.parametrize("name", NETWORK_DIGESTS)
def test_network_documents_match_golden_digests(name, sample_dir):
    doc = network_to_dict(load_network(sample_dir / name))
    assert _sha256(json.dumps(doc, indent=2)) == NETWORK_DIGESTS[name]


@pytest.mark.parametrize("name", GAME_DIGESTS)
def test_game_documents_match_golden_digests(name):
    build, digest = GAME_DIGESTS[name]
    assert _sha256(json.dumps(game_to_dict(build()), indent=2)) == digest


def test_catalog_document_matches_golden_digest():
    doc = catalog_to_dict(default_catalog())
    assert _sha256(json.dumps(doc, indent=2, sort_keys=True)) == CATALOG_SORTED_DIGEST


@pytest.mark.parametrize(
    "case",
    SIMULATE_DIGESTS,
    ids=[f"{name} clean={clean} reinfect={reinfect}" for name, clean, reinfect in SIMULATE_DIGESTS],
)
def test_simulate_output_and_trajectory_match_golden_digests(case, capsys, sample_dir):
    name, clean, reinfect = case
    argv = ["simulate", "--network", str(sample_dir / name), "--ticks", "20", "--p", "0.3", "--seed", "7"]
    argv += ["--runs", "200", "--clean", str(clean)] + (["--reinfect"] if reinfect else [])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    cfg = SimConfig(ticks=20, base_infection_prob=0.3, clean_prob_per_tick=clean, reinfection_allowed=reinfect, seed=7)
    csv = trajectory_csv(run(load_network(sample_dir / name), cfg))
    assert (_sha256(captured.out), _sha256(csv)) == SIMULATE_DIGESTS[case]
