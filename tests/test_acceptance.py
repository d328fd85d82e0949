import pytest

from gmspde import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    assert result.passed, result.line(timed=True)
    assert result.within_budget, result.line(timed=True)
