"""Shared test settings.

Every ``hypothesis`` test runs derandomized, without an example database
and without a deadline, so tier-1 runs are reproducible and leave no
``.hypothesis`` directory behind; each test sets only its example count
and the health checks it suppresses.

Every verdict that ``check_equation`` reaches over the budget without a
search of the whole grid (on the generators, on 2^X or in the free
lattice) is audited.  The fixture below wraps ``check_equation`` in every
module that binds it, the package's and the tests' alike, and decides
each such law again over the whole grid of a fresh algebra, so that the
algebra under test builds no table for the audit.  A validity that differs
fails the test.  A grid of more than AUDIT_BOUND assignments is skipped;
the session's counts are printed at the end of the run.
"""

import sys
from collections import Counter

import pytest
from hypothesis import settings

from convalg import terms
from convalg.convolution import ConvAlgebra, SubsetAlgebra
from convalg.errors import BudgetExceeded

settings.register_profile("convalg", derandomize=True, database=None, deadline=None)
settings.load_profile("convalg")

AUDIT_BOUND = 200_000
_AUDITED = Counter()


def _fresh(algebra):
    """An algebra equal to ``algebra`` that shares none of its tables."""
    if isinstance(algebra, ConvAlgebra):
        return ConvAlgebra(algebra.lattice, algebra.structure, algebra.ordered)
    if isinstance(algebra, SubsetAlgebra):
        return SubsetAlgebra(algebra.structure)
    return algebra  # a bare lattice is decided on a one-point algebra built per call


def _audited(decide):
    def check_equation(eq, algebra, *args, **kwargs):
        verdict = decide(eq, algebra, *args, **kwargs)
        if verdict.path in ("generators", "two-valued", "free"):
            try:
                grid = decide(eq, _fresh(algebra), mode="exhaustive", budget=AUDIT_BOUND)
            except BudgetExceeded:
                _AUDITED["skipped"] += 1
                return verdict
            _AUDITED[f"{verdict.path} {verdict.status}"] += 1
            if grid.is_valid != verdict.is_valid:
                pytest.fail(f"{eq} on the {verdict.path} path reads {verdict.status}, "
                            f"the grid {grid.status}")
        return verdict
    return check_equation


@pytest.fixture(autouse=True)
def _audit_over_budget_verdicts(monkeypatch):
    # one wrapper for every module, as the benchmark's tracer rebinds each
    # name bound to the same function
    decide = terms.check_equation
    audited = _audited(decide)
    for module in list(sys.modules.values()):
        if getattr(module, "check_equation", None) is decide:
            monkeypatch.setattr(module, "check_equation", audited)


def pytest_terminal_summary(terminalreporter):
    if _AUDITED:
        counts = ", ".join(f"{key} {count}" for key, count in sorted(_AUDITED.items()))
        terminalreporter.write_line(
            f"over-budget verdicts audited against grids of at most {AUDIT_BOUND:,} "
            f"assignments: {counts}")
