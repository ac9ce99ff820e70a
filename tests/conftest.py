import pytest
from hypothesis import Phase, settings

from rakns.hierarchy import default_flow_table

# The explain phase re-runs a failing example under a line tracer, which
# can take minutes to report what the shrunk example alone shows in
# seconds; every property test here runs without it.
settings.register_profile("no_explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no_explain")


@pytest.fixture(scope="session")
def table5():
    """Flow table through order 5, shared across the suite (exact, cached)."""
    return default_flow_table(5)
