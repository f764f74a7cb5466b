import pytest

from kdvcrit import pde


@pytest.fixture(autouse=True)
def _release_held_pde_system():
    """Empty pde's held system after each test, so no test reads another's."""
    yield
    pde._held.cache_clear()
