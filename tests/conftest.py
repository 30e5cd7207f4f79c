"""Every test starts with empty lambda-free caches of regularized_fit, those
of evaluate and lebesgue_constant, so a test that compares two computations
of one input computes both.

hypothesis reports a failing example through hypothesis.extra._patching,
which imports libcst, which imports mypy_extensions; some versions of the
last raise a DeprecationWarning there.  Under -W error that warning, raised
inside the report, stops the whole session at the first failing property
test, so the module is imported here, once, with that warning ignored.  No
warning filter on the package's own code changes.
"""

import contextlib
import warnings

import pytest

from tikbary import regularized_fit

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(autouse=True)
def _empty_lambda_free_caches():
    regularized_fit._lebesgue_peak.cache_clear()
    regularized_fit._lambda_free_values.cache_clear()
