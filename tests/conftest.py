import pytest

from funcrelu import constructors


@pytest.fixture
def fresh_blocks():
    """The process's shared spike blocks cleared before and after the
    test: it builds and counts its own, and a block its patched builder
    made does not outlive it."""
    constructors.shared_block.cache_clear()
    yield
    constructors.shared_block.cache_clear()
