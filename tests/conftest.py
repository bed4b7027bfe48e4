"""Test configuration: hypothesis runs the same examples on every run, keeps
no example database, and writes nothing into the checkout."""

import shutil
import tempfile

from hypothesis import configuration, settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

# hypothesis also caches the literals it finds in the package's sources on
# disk; that cache goes to a temporary directory removed when the run ends
_STORAGE = tempfile.mkdtemp(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_STORAGE)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_STORAGE, ignore_errors=True)
