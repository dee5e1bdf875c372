import pytest

from tailmix import dists


@pytest.fixture(autouse=True)
def _no_kept_pareto_table():
    """Every test starts, and leaves, without a kept sampling table, so
    no test draws from or counts builds against another test's table."""
    dists._kept_table.clear()
    yield
    dists._kept_table.clear()


@pytest.fixture
def table_builds(monkeypatch):
    """Every sampling-table build from here on, as (alpha, x_min, the
    number of tables kept when the build started)."""
    builds = []
    build = dists._build_pareto_table

    def counted(params):
        builds.append((params.alpha, params.x_min, len(dists._kept_table)))
        return build(params)

    monkeypatch.setattr(dists, "_build_pareto_table", counted)
    return builds
