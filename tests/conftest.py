from concurrent.futures import ThreadPoolExecutor

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
    n chunks on a pool of n threads, as on a machine with n usable CPUs."""
    pools = []

    def set_workers(n):
        pools.append(ThreadPoolExecutor(n))
        monkeypatch.setattr(spectral, "CPUS", n)
        monkeypatch.setattr(spectral, "_POOL", pools[-1])

    yield set_workers
    for pool in pools:
        pool.shutdown()
