"""Test-session settings shared by every test module.

Property tests draw their examples from a fixed derandomized stream and
keep no example database, so every run of the suite tests the same
examples and does not depend on a local ``.hypothesis/`` directory.

When a property test fails, hypothesis's pytest plugin imports its
patch writer, whose libcst import raises a ``DeprecationWarning`` from
mypy_extensions.  pyproject.toml turns warnings into errors, so that
import would abort the whole session; it is made here, once, with that
one warning ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
