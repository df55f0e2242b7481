from hypothesis import settings

# Tier-1 stays reproducible: the same examples on every run, a bounded count,
# and no example database written next to the tests.
settings.register_profile("tier1", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("tier1")
