import random

import pytest

from tropgeom import exactgeom as eg
from tropgeom.curves import build_moduli_complex


@pytest.fixture
def rng():
    return random.Random(20240815)


def random_cone(rng, rank, gens):
    """A random pointed cone (retrying past non-pointed draws)."""
    while True:
        vectors = [
            tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(gens)
        ]
        try:
            return eg.cone_from_generators(vectors, rank)
        except eg.NotPointed:
            continue


_base_cache = {}


def moduli_cached(g, n):
    if (g, n) not in _base_cache:
        _base_cache[(g, n)] = build_moduli_complex(g, n)
    return _base_cache[(g, n)]
