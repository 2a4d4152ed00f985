"""Fixtures shared by every test module."""

import pytest

from eppspulley import spectral


@pytest.fixture(autouse=True)
def _fresh_spectrum_cache():
    """Start each test with no memoized spectrum, so that a test that
    patches the factorisation or the eigensolver runs them whatever ran
    before it."""
    spectral._sampled_runs.cache_clear()
