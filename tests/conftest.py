"""Shared test configuration.

Hypothesis runs derandomized with a bounded number of examples, so the
property tests are deterministic and quick.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile("hdw", derandomize=True, database=None,
                              max_examples=150, deadline=None)
    settings.load_profile("hdw")
