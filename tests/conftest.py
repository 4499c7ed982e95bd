"""Suite-wide settings: every run draws the same Hypothesis examples.

``derandomize`` draws each ``@given`` test's examples from a seed fixed by
the test itself, and with no example database no earlier failure is replayed
first, so a rerun of the suite runs exactly the examples of the first run.
Each test keeps its own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
