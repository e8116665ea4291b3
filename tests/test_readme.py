"""The README's CLI examples run as written.

Each ``ransomlab`` line of the README's ``## CLI`` block runs through
:func:`ransomlab.cli.main` in a directory that holds a copy of
``sample_data``, and must exit 0. Where the next line is a ``# `` comment
that elides nothing with ``...``, it must be the first line printed.
"""

from __future__ import annotations

import shlex
import shutil
from pathlib import Path

import pytest

from ransomlab import cli

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli_examples() -> list[tuple[str, str | None]]:
    """Each command line of the README's CLI block, with the output comment under it or None."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.split("\n")
    return [
        (line, following[2:] if following.startswith("# ") and "..." not in following else None)
        for line, following in zip(lines, lines[1:])
        if line.startswith("ransomlab ")
    ]


EXAMPLES = _cli_examples()


def test_the_examples_cover_every_subcommand():
    assert {shlex.split(line)[1] for line, _ in EXAMPLES} == {"score", "compare", "sweep", "game", "rank", "simulate"}


@pytest.mark.parametrize(
    "line, shown", EXAMPLES, ids=[" ".join(shlex.split(line, comments=True)[1:]) for line, _ in EXAMPLES]
)
def test_readme_example_exits_0(line, shown, tmp_path, monkeypatch, capsys):
    shutil.copytree(REPO_ROOT / "sample_data", tmp_path / "sample_data")
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0
    if shown is not None:
        assert capsys.readouterr().out.split("\n")[0] == shown
