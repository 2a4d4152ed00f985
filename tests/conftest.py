"""Fixtures shared by every test module."""

import pytest

from eppspulley import spectral


@pytest.fixture(autouse=True)
def _fresh_spectrum_cache():
    """Start each test with no memoized operator spectrum and no kept
    Monte-Carlo draws, so that a test that patches the eigensolver runs
    it whatever ran before it, and a test of a memo sees only its own
    entries."""
    spectral._solved.cache_clear()
    spectral._kept_draws.cache_clear()
