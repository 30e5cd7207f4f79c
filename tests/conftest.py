"""Every test starts with an empty lambda-free memo of regularized_fit, so
a test that compares two computations of one input computes both."""

import pytest

from tikbary import regularized_fit


@pytest.fixture(autouse=True)
def _empty_lambda_free_memo():
    regularized_fit._LAMBDA_FREE.clear()
