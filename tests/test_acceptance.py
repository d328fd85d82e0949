import pytest

from gmspde import acceptance

# 6, 7 and 9 take tens of seconds on the per-path stepper; selftest runs them
FAST = (
    acceptance.criterion_1_orthonormality,
    acceptance.criterion_2_noise_covariance,
    acceptance.criterion_3_exact_limits,
    acceptance.criterion_4_steady_state,
    acceptance.criterion_5_strong_convergence,
    acceptance.criterion_8_pathwise_uniqueness,
    acceptance.criterion_10_fixed_point,
)


@pytest.mark.parametrize("criterion", FAST, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    assert result.passed, result.line()
    assert result.within_budget, result.line()
