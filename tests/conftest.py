"""Test-suite settings shared by every test module."""

import os
import sys

from hypothesis import settings

# The golden tests name the numeric profile through scripts/numeric_profile.py.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))

# Property tests draw the same examples on every run, so they cannot
# pass on one run and fail on the next; no deadline, since timings on a
# shared machine vary.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
