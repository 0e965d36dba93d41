"""Property tests draw the same examples on every run and keep no example
database, like the seeded random tests beside them; example counts are
set per test to keep the suite short."""

from hypothesis import settings

settings.register_profile("combanal", deadline=None, derandomize=True, database=None)
settings.load_profile("combanal")
