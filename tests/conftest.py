"""Shared test settings.

Every ``hypothesis`` test runs derandomized, without an example database
and without a deadline, so tier-1 runs are reproducible and leave no
``.hypothesis`` directory behind; each test sets only its example count
and the health checks it suppresses.
"""

from hypothesis import settings

settings.register_profile("convalg", derandomize=True, database=None, deadline=None)
settings.load_profile("convalg")
