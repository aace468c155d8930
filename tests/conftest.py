"""Suite-wide hypothesis settings: examples are derived from each test's
own definition rather than drawn at random, and no example database is
kept, so every run draws the same examples and passes or fails alike."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
