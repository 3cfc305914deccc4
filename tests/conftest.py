import pytest
from hypothesis import settings

from ntcodes import enumerators

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def forget_kept_passes():
    """Each test starts with no theorem 1 or residue pass kept from an
    earlier one."""
    enumerators._PASSES.clear()
