import os

import pytest
from hypothesis import HealthCheck, settings

from rostcalc import kunneth

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile("thorough", parent=settings.get_profile("default"), max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def fresh_word_rings():
    """Empty the per-process word-ring cache around each test, so a defect a
    test monkeypatches in reaches the build and no test sees another's rings."""
    kunneth._word_ring.cache_clear()
    yield
    kunneth._word_ring.cache_clear()
