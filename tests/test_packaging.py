"""Packaging metadata that is written in more than one place."""

import pathlib
import sys

import pytest

import cocain


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert cocain.__version__ == project["version"]
