"""The installed surface: console scripts resolve and documented modules import.

The package docstring names each module at the head of a bullet; every
such name must import, and every ``[project.scripts]`` target in
``pyproject.toml`` must resolve to a callable.
"""

import importlib
import re
from pathlib import Path

import pytest

import koszulcat

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def documented_modules():
    names = []
    for line in koszulcat.__doc__.splitlines():
        if line.startswith("- "):
            head = line[2:].split(":", 1)[0]
            names += re.findall(r"``(\w+)``", head)
    return names


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_documented_modules_import():
    names = documented_modules()
    assert {"field", "quiver", "barcobar", "convmc"} <= set(names)
    for name in names:
        importlib.import_module(f"koszulcat.{name}")
