"""Fixtures shared by every test module."""

import pytest

from eppspulley import spectral


@pytest.fixture(autouse=True)
def _fresh_spectrum_cache():
    """Start each test with no memoized spectrum, exact or sampled, and
    no kept Monte-Carlo draws, so that a test that patches the
    factorisation or the eigensolver runs them whatever ran before it,
    and a test of a memo sees only its own entries."""
    spectral._solved.cache_clear()
    spectral._sampled_runs.cache_clear()
    spectral._kept_draws.cache_clear()
