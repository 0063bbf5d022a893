import pytest

from nilharm import catalog as cat
from nilharm import lie_core as lc
from nilharm import orbits as ob
from nilharm import pedersen as pe
from nilharm import twist as tw
from nilharm.grids import Grid


@pytest.fixture
def cold_caches():
    """Empty every per-process cache of seed-independent values, so that the
    test builds them again, as a fresh process would: the exact layer's
    catalog algebras, standard orbits, flags, derivation spaces and Engel
    certificates, and the grid engine's per-grid realization tables and gauge
    phase tables.  Series and compiled laws are cached on the algebra and
    orbit objects, which the emptied catalog and orbit caches hand out anew."""
    for cached in (cat._core, ob.standard_orbit, lc._central_flag, lc.derivation_space,
                   lc.is_characteristically_nilpotent, pe._grid_tables, tw._gauge_tables):
        cached.cache_clear()


@pytest.fixture(scope="session")
def h3():
    return cat.heisenberg3()


@pytest.fixture(scope="session")
def h3_orbit(h3):
    return ob.standard_orbit(h3)


@pytest.fixture(scope="session")
def h3_twist(h3_orbit):
    return tw.from_orbit(h3_orbit)


@pytest.fixture(scope="session")
def ext7_orbit():
    return ob.standard_orbit(cat.extended_g0st(1, 1))


@pytest.fixture(scope="session")
def grid64():
    return Grid(2, 8.0, 64)


@pytest.fixture(scope="session")
def engine64(h3_twist, grid64):
    return pe.HeisenbergRealization(h3_twist, grid64)


@pytest.fixture(scope="session")
def grid32():
    return Grid(2, 8.0, 32)


@pytest.fixture
def convolve_calls(monkeypatch):
    """Counter of twisted_convolve products and sweeps (calls), through the
    engine or directly."""
    calls = {"products": 0, "sweeps": 0}
    inner = tw.twisted_convolve

    def counted(*args, **kw):
        out = inner(*args, **kw)
        calls["products"] += len(out)
        calls["sweeps"] += 1
        return out

    monkeypatch.setattr(tw, "twisted_convolve", counted)
    monkeypatch.setattr(pe, "twisted_convolve", counted)
    return calls
