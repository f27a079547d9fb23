from hypothesis import settings

# Deterministic property tests: the same examples on every run, no
# example database, and no per-example deadline (timings vary by host).
settings.register_profile("prismalab", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("prismalab")
