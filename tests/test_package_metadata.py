"""The release version is declared once per file and both must agree."""

from __future__ import annotations

import pathlib
import re

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match is not None, "pyproject.toml declares no version"
    assert match.group(1) == repro.__version__
