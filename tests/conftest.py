"""Session setup shared by every test module.

Hypothesis caches the constants it reads from local source files in its
home directory, `.hypothesis/` under the working directory, even when a
test keeps no example database.  The session points that home at a
temporary directory, removed at exit, so a test run writes nothing into
the checkout.

The report header names numpy's version and the dispatch targets its
compiled loops run on here (`log1p`, among others, has a different loop
per target), so that a log of byte-pinned results says which code path
produced them, and hypothesis's version, whose derandomized search draws
the property tests' cases.
"""

import tempfile

import numpy as np
import pytest

_HYPOTHESIS_HOME = pytest.StashKey()


def pytest_configure(config):
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        home.cleanup()


def pytest_report_header(config):
    try:
        from numpy._core import _multiarray_umath as umath
        live = [target for target in umath.__cpu_dispatch__
                if umath.__cpu_features__.get(target)]
    except (ImportError, AttributeError):
        live = ["unknown"]
    try:
        from hypothesis import __version__ as hypothesis_version
    except ImportError:
        hypothesis_version = "not installed"
    return (f"numpy {np.__version__}, dispatch targets: "
            f"{' '.join(live) or 'none'}; hypothesis {hypothesis_version}")
