import functools

import pytest

from landauvar.graphs import sunrise_graph, symanzik_F
from landauvar.landau import eliminate_critical_values
from landauvar.poly import Polynomial


def _sunrise_family():
    """Sunrise F in unsquared masses m1, m2, m3."""
    m = {i: Polynomial.var(f"m{i}") for i in (1, 2, 3)}
    return symanzik_F(sunrise_graph()).substitute(
        {f"m{i}sq": m[i] * m[i] for i in (1, 2, 3)}
    )


@functools.lru_cache(maxsize=1)
def _sunrise_eliminant():
    """Sunrise critical-value eliminant in unsquared masses; computed once
    and shared between the unit and acceptance suites."""
    return eliminate_critical_values(_sunrise_family(), ["x1", "x2", "x3"], {"x3": 1})


@pytest.fixture(scope="session")
def sunrise_family():
    return _sunrise_family()


@pytest.fixture(scope="session")
def sunrise_eliminant():
    return _sunrise_eliminant()
