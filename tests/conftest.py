import pytest

from latkit import corpus, enumerate_lattices
from latkit.construct import dilate


@pytest.fixture(scope="session")
def engine_pool():
    """The census up to 8, a random corpus and the census dilations up to 7."""
    census = enumerate_lattices(8)
    dilations = [dilate(lat)[0] for lat in census if 2 <= lat.n <= 7]
    return census + corpus(7, 100, 12) + dilations
