import pytest

from maasslab import sieve


@pytest.fixture(scope="session")
def table_small():
    return sieve.build_table(10 ** 4)


@pytest.fixture(scope="session")
def table_medium():
    return sieve.build_table(10 ** 6)


@pytest.fixture(scope="session")
def table_large():
    return sieve.build_table(2 * 10 ** 7, allow_large=True)
