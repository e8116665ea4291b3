"""The import contract, checked in fresh interpreters.

``import ransomlab`` loads no submodule, and each ``ransomlab`` subcommand
loads only the modules it runs; every package name still resolves on first
use. None of them, and no package module imported alone, loads ``dataclasses``,
``inspect``, ``multiprocessing`` or ``concurrent.futures``. Each check runs in
a child process, because this one has already imported the whole package.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ransomlab

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
SAMPLE_DIR = REPO_ROOT / "sample_data"

# The package modules each subcommand loads, besides ``ransomlab`` and ``ransomlab.cli``.
SUBCOMMAND_MODULES = {
    "score": {"errors", "ingest", "scoring"},
    "compare": {"errors", "ingest", "report", "scoring"},
    "sweep": {"errors", "report", "scoring"},
    "rank": {"errors", "ingest", "scoring", "strategies"},
    "game": {"errors", "games"},
    "simulate": {"errors", "ingest", "scoring", "simnet"},
}

# Standard-library modules no package import may load: ``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and
# ``tokenize`` with it, about 10 ms of every ``ransomlab`` process. The simulator forks its own workers, so no process
# pool either: ``concurrent.futures.process`` alone imports in about 20 ms.
UNWANTED = {"dataclasses", "inspect", "multiprocessing", "concurrent.futures"}

PRINT_MODULES = f'print(*sorted(m for m in sys.modules if m.split(".")[0] == "ransomlab" or m in {UNWANTED!r}))'


def _child(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded(code: str) -> set[str]:
    """The package modules ``code`` loads; it must load none of ``UNWANTED``."""
    loaded = set(_child(f"import sys\n{code}\n{PRINT_MODULES}").split())
    assert not loaded & UNWANTED, sorted(loaded & UNWANTED)
    return loaded


def test_bare_import_loads_no_submodule():
    assert _loaded("import ransomlab") == {"ransomlab"}


def test_cli_import_loads_only_the_error_type():
    assert _loaded("import ransomlab.cli") == {"ransomlab", "ransomlab.cli", "ransomlab.errors"}


def _argv(command: str, tmp_path: Path) -> list[str]:
    a, b = str(SAMPLE_DIR / "company_a.json"), str(SAMPLE_DIR / "company_b.json")
    return {
        "score": ["score", "--profile", a, "--json"],
        "compare": ["compare", "--a", a, "--b", b],
        "sweep": ["sweep", "--fix", "A=20", "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg")],
        "rank": ["rank", "--profile", a, "--weights", "0.4,0.2,0.2,0.2"],
        "game": ["game", "ransom", "--solve"],
        "simulate": [
            "simulate", "--network", str(SAMPLE_DIR / "ring8.json"), "--ticks", "5", "--p", "0.3", "--seed", "1",
            "--runs", "3",
        ],
    }[command]


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_its_modules(command, tmp_path):
    code = f"""
        import contextlib, io
        from ransomlab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({_argv(command, tmp_path)!r}) == 0
    """
    expected = {"ransomlab", "ransomlab.cli"} | {f"ransomlab.{m}" for m in SUBCOMMAND_MODULES[command]}
    assert _loaded(textwrap.dedent(code)) == expected


def test_every_package_name_resolves_lazily_to_its_submodule_object():
    _child(
        """
        import importlib
        import ransomlab

        names = [name for name in ransomlab.__all__ if name != "__version__"]
        for name in names:
            value = getattr(ransomlab, name)
            assert value.__module__.startswith("ransomlab."), name
            assert value is getattr(importlib.import_module(value.__module__), name), name
        assert set(ransomlab.__all__) <= set(dir(ransomlab))
        try:
            ransomlab.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
        """
    )


def test_star_import_binds_every_exported_name():
    _child(
        """
        from ransomlab import *
        import ransomlab

        missing = [name for name in ransomlab.__all__ if name not in globals()]
        assert not missing, missing
        assert globals()["TraitProfile"] is ransomlab.scoring.TraitProfile
        """
    )


# One interpreter per submodule: loading one binds the submodules it imports too, so a shared one could not tell.
@pytest.mark.parametrize("module", ["errors", "games", "ingest", "report", "scoring", "simnet", "strategies"])
def test_each_submodule_resolves_as_a_package_attribute(module):
    _child(f"import ransomlab, sys\nassert ransomlab.{module} is sys.modules['ransomlab.{module}']")


# A function-level import must not hide a missing top-level import or a cycle.
@pytest.mark.parametrize("module", sorted(info.name for info in pkgutil.iter_modules(ransomlab.__path__)))
def test_each_submodule_imports_alone(module):
    assert f"ransomlab.{module}" in _loaded(f"import ransomlab.{module}")
