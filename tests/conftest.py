"""Test-session settings shared by every test module.

Property tests draw their examples from a fixed derandomized stream and
keep no example database, so every run of the suite tests the same
examples and does not depend on a local ``.hypothesis/`` directory.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
