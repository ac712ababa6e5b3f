from functools import cache

import pytest

from qorder import build_tower, factor_xn_minus_1


@cache
def tower_and_factors(p, s, n):
    tower = build_tower(p, s, n)
    return tower, factor_xn_minus_1(n, tower.base)


@pytest.fixture(scope="session")
def f4():
    """F_4 over F_2 with the factorization of x^2 - 1."""
    return tower_and_factors(2, 1, 2)


@pytest.fixture(scope="session")
def f8():
    return tower_and_factors(2, 1, 3)


@pytest.fixture(scope="session")
def f9():
    """F_9 = F_{3^2} as a base-degree-2, n=1 tower."""
    return tower_and_factors(3, 2, 1)


@pytest.fixture(scope="session")
def f16_over_f4():
    return tower_and_factors(2, 2, 2)


@pytest.fixture(scope="session")
def small_grid():
    """Fields small enough for fully exhaustive cross-checks."""
    return [
        tower_and_factors(*psn)
        for psn in [
            (2, 1, 1),
            (2, 1, 2),
            (2, 1, 3),
            (2, 1, 4),
            (2, 1, 6),
            (3, 1, 2),
            (3, 1, 3),
            (2, 2, 2),
            (3, 2, 1),
            (5, 1, 2),
        ]
    ]
