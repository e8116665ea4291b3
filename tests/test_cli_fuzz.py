"""The CLI contract under fuzzed arguments: every subcommand, edge-case values.

Whatever the arguments, ``main`` returns (or exits with) 0, 1 or 2, and a
failure writes exactly one stderr line starting with ``error:`` and never a
traceback. Values are drawn from pools of edge cases rather than arbitrary
text, so most examples reach validation instead of stopping in argparse.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomlab.cli import main

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_data"

# Each pool starts with two ordinary values; the rest are edge cases.
NUMBERS = ["0.5", "1", "0", "20", "100", "-1", "-0.5", "101", "nan", "inf", "-inf", "1e400", "", "x", "1,2"]
QUADS = ["0.25,0.25,0.25,0.25", "0.1,0.2,0.3,0.4", "1,0,0,0", "-1,1,0.5,0.5", "nan,0,0,1", "1e400,0,0,0", "1,2,3",
         "1,2,3,4,5", "", "a,b,c,d", "100,-100,50,0"]
FIXES = ["A=20", "C=90", "G=0", "I=100", "A=", "=20", "A", "Z=5", "a=20", "A=nan", "A=inf", "A=1e400", "A=-1", "A=101",
         "A=x", ""]
RUNS = ["1", "2", "0", "-1", "", "x", "1.5", "nan", "1e400"]
TICKS = [*RUNS, "3"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    directory = root / "a_directory"
    directory.mkdir()
    broken = [str(directory), str(root / "missing.json")]
    for name, text in (("not_json.json", "{not json"), ("empty.json", ""), ("array.json", "[1, 2]")):
        (root / name).write_text(text, encoding="utf-8")
        broken.append(str(root / name))
    samples = [str(SAMPLE_DIR / name) for name in ("company_a.json", "company_b.json", "ring8.json", "star4.json")]
    profiles = samples + broken
    networks = samples[2:] + samples[:2] + broken
    outputs = [str(root / "out.csv"), str(root / "out.svg"), str(directory), str(root / "no_dir" / "x.csv")]
    return profiles, networks, outputs


def _maybe(pool: list[str]) -> st.SearchStrategy:
    """One of the pool's two ordinary values half the time; otherwise any value, or None (flag left out)."""
    return st.sampled_from(pool[:2]) | st.sampled_from([None, *pool])


def _command(prefix: list[str], flags: dict[str, list[str]], switches: tuple[str, ...] = ()) -> st.SearchStrategy:
    """``prefix``, then each flag with a value from its pool (or left out), then each switch on or off."""

    def build(values: dict, on: tuple[bool, ...]) -> list[str]:
        pairs = [item for flag, value in values.items() if value is not None for item in (flag, value)]
        return prefix + pairs + [switch for switch, enabled in zip(switches, on) if enabled]

    return st.builds(
        build,
        st.fixed_dictionaries({flag: _maybe(pool) for flag, pool in flags.items()}),
        st.tuples(*(st.booleans() for _ in switches)),
    )


def _invocations(profiles: list[str], networks: list[str], outputs: list[str]) -> st.SearchStrategy:
    # simulate draws from TICKS and RUNS only: ticks <= 3 and runs <= 2 keep every example fast.
    simulate = {"--network": networks, "--ticks": TICKS, "--p": NUMBERS, "--seed": RUNS, "--runs": RUNS, "--clean": NUMBERS}
    return st.one_of(
        _command(["score"], {"--profile": profiles}, ("--json",)),
        _command(["compare"], {"--a": profiles, "--b": profiles}),
        _command(["sweep"], {"--fix": FIXES, "--out": outputs, "--svg": outputs}),
        _command(["game", "ransom"], {"--user": QUADS, "--virus": QUADS}, ("--solve",)),
        _command(["game", "pd"], dict.fromkeys(("--t", "--r", "--p", "--s"), NUMBERS), ("--solve",)),
        _command(["game", "snowdrift"], {"--b": NUMBERS, "--c": NUMBERS}, ("--solve",)),
        _command(["rank"], {"--profile": profiles, "--weights": QUADS}),
        _command(["simulate"], simulate, ("--reinfect",)),
    )


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stderr.getvalue()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_cli_fuzz_keeps_the_exit_and_stderr_contract(paths, data):
    argv = data.draw(_invocations(*paths), label="argv")
    code, err = _run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (code, err)
