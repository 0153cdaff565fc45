import pytest
from hypothesis import settings

from nsbl import spectral

# every run draws the same examples and keeps no example database, and
# timing noise on a busy host never fails a property test
settings.register_profile("nsbl", derandomize=True, deadline=None, database=None)
settings.load_profile("nsbl")


@pytest.fixture
def snapshot_workers(monkeypatch):
    """``set_workers(n)`` makes ``over_snapshots`` split the snapshots into
    n chunks on a team of n threads, as on a machine with n usable CPUs.
    Every team it starts is closed after the test."""
    teams = []

    def set_workers(n):
        teams.append(spectral._Team(n))
        monkeypatch.setattr(spectral, "CPUS", n)
        monkeypatch.setattr(spectral, "_TEAM", teams[-1])

    yield set_workers
    for team in teams:
        team.close()
        for thread in team._threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
