"""Packaging metadata that is written in more than one place."""

import pathlib
import sys

import pytest

import cocain
from cocain import solvers


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert cocain.__version__ == project["version"]


def test_every_export_resolves():
    missing = [name for name in cocain.__all__ if not hasattr(cocain, name)]
    assert missing == []


def test_every_termination_is_exported():
    terms = {name for name in vars(solvers) if name.startswith("TERM_")}
    assert len(terms) == 4
    assert terms <= set(cocain.__all__)
