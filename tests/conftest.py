"""Session setup shared by every test module.

Hypothesis caches the constants it reads from local source files in its
home directory, `.hypothesis/` under the working directory, even when a
test keeps no example database.  The session points that home at a
temporary directory, removed at exit, so a test run writes nothing into
the checkout.
"""

import tempfile

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
