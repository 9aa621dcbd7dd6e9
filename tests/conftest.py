import pytest


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Build the compiled lane scan into a fresh cache for the session, not into the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
