"""Every test starts with empty lambda-free caches of regularized_fit, those
of evaluate and lebesgue_constant, so a test that compares two computations
of one input computes both."""

import pytest

from tikbary import regularized_fit


@pytest.fixture(autouse=True)
def _empty_lambda_free_caches():
    regularized_fit._lebesgue_peak.cache_clear()
    regularized_fit._lambda_free_values.cache_clear()
