"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so they cannot
# pass on one run and fail on the next; no deadline, since timings on a
# shared machine vary.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
