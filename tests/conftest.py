import pytest
from hypothesis import settings

from potts_sd.lattice import extraction_table

# fixed-seed property testing: runs are reproducible across machines
settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")

GATE_ORDER = 16


@pytest.fixture(scope="session")
def gate_logz_table():
    """series_logZ at the CI-gate order for all lattices the extraction needs.

    Shared across test modules; this is the expensive piece of the suite.
    """
    return extraction_table(GATE_ORDER)
