"""The dependency floors that ``pyproject.toml`` declares are the versions the
floor leg of CI installs, so the two cannot drift apart.

The files are read as text: the floor leg runs Python 3.10, which has no
``tomllib``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _only(pattern: str, text: str, where: str) -> str:
    found = re.findall(pattern, text)
    assert len(found) == 1, f"{where}: expected one match of {pattern!r}, got {found}"
    return found[0]


def test_declared_floors_are_the_floor_legs_pins():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    for package in ("numpy", "setuptools"):
        floor = _only(rf'"{package}>=([0-9][0-9.]*)"', project, "pyproject.toml")
        pin = _only(rf'"{package}==([0-9][0-9.]*)\.\*"', workflow, "tests.yml")
        assert floor == pin, f"{package}: pyproject.toml declares >={floor}, CI pins {pin}.*"
