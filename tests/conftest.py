import functools

import pytest

from tailmix import dists


@pytest.fixture(autouse=True)
def _no_kept_pareto_checkpoints():
    """Every test starts, and leaves, with an empty checkpoint store, so
    no test draws from or counts builds against another test's keys."""
    dists._pareto_checkpoints.cache_clear()
    yield
    dists._pareto_checkpoints.cache_clear()


@pytest.fixture
def table_builds(monkeypatch):
    """Every checkpoint build from here on, as (alpha, x_min), through a
    fresh store of the same size."""
    builds = []
    build = dists._pareto_checkpoints.__wrapped__

    @functools.lru_cache(maxsize=dists._KEPT_KEYS)
    def counted(alpha, x_min):
        builds.append((alpha, x_min))
        return build(alpha, x_min)

    monkeypatch.setattr(dists, "_pareto_checkpoints", counted)
    return builds
