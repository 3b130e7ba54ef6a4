"""One Hypothesis profile for every property test: derandomized and bounded."""

from hypothesis import settings

settings.register_profile("etalloc", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("etalloc")
