"""The package's version is one value: ``repro.__version__`` is pyproject's."""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib: read the [project] table's version line.
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', project, flags=re.M)
    assert repro.__version__ == version
