import importlib
import os
import pkgutil

import pytest
from hypothesis import HealthCheck, settings

import rostcalc

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile("thorough", parent=settings.get_profile("default"), max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def package_caches() -> list:
    """Every per-process cache of the package: the functions and methods of
    the rostcalc modules that carry a `cache_clear`."""
    found = {}
    for info in pkgutil.iter_modules(rostcalc.__path__):
        mod = importlib.import_module(f"rostcalc.{info.name}")
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *members):
                if hasattr(f, "cache_clear"):
                    found[id(f)] = f
    return list(found.values())


CACHES = package_caches()


def clear_caches():
    for f in CACHES:
        f.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Empty every per-process cache (the catalog rings, the word rings, the
    slot tables, ...) around each test, so a defect a test monkeypatches in
    reaches the build and no test sees another's rings.  Requested by name,
    it gives the function that empties them."""
    clear_caches()
    yield clear_caches
    clear_caches()
