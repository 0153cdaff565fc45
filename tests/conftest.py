from hypothesis import settings

# every run draws the same examples and keeps no example database, and
# timing noise on a busy host never fails a property test
settings.register_profile("nsbl", derandomize=True, deadline=None, database=None)
settings.load_profile("nsbl")
