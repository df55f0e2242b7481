import numpy as np
import pytest
from hypothesis import settings

from monoenv import hulls

# Tier-1 stays reproducible: the same examples on every run, a bounded count,
# and no example database written next to the tests.
settings.register_profile("tier1", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture(params=["value", "parity"])
def faulty_maximizer(request, monkeypatch):
    """``hulls.constructive_maximizer`` patched to give a value 1 too high, or
    its point with the first sign flipped, of odd parity; returns which."""
    maximizer = hulls.constructive_maximizer

    def faulty(c):
        z, v = maximizer(c)
        if request.param == "value":
            return z, v + 1.0
        return np.concatenate([-z[:1], z[1:]]), v

    monkeypatch.setattr(hulls, "constructive_maximizer", faulty)
    return request.param
