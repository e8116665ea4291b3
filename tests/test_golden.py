"""Golden sha256 digests of the sweep files and the score/compare output.

The A=20 and C=90 digests were recorded from the implementation before sweep
rows carried a ``ScoreSet``, and the G=0 and I=55.5 digests from the
profile-per-point sweep before it became column-wise; any byte change to the
CSV, the SVG or the CLI lines fails here, not only a change in shape or in a
four-decimal spot value.
"""

from __future__ import annotations

import hashlib

import pytest

from ransomlab.cli import main
from ransomlab.report import SweepSpec, sweep, sweep_csv, sweep_svg

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
