import pytest

from cold_caches import clear_all_caches


@pytest.fixture
def cold():
    """Run the test from empty lparams caches, and leave them empty."""
    clear_all_caches()
    yield
    clear_all_caches()
