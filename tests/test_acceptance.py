import itertools
import time

import pytest

from gmspde import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    assert result.passed, result.line(timed=True)
    assert result.within_budget, result.line(timed=True)


@pytest.mark.parametrize("jump", [3600.0, -3600.0])
def test_criteria_are_timed_on_a_monotonic_clock(monkeypatch, jump):
    # the wall clock steps by an hour, forward or back, at every read:
    # criterion 1 (limit 5 s) still passes in a time between 0 and it
    clock = itertools.count(time.time(), jump)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    result = acceptance.criterion_1_orthonormality()
    assert result.line(timed=True).startswith("PASS")
    assert 0.0 <= result.elapsed < result.runtime_limit
