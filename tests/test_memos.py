"""Differential tests for the memo tables of the map-and-cone operations.

`image_cone`, `LinearMap.compose`, `RationalCone.contains_cone`,
`RationalCone.face_at` and `complexes.pull_back_cone` keep their results
under canonical keys.  Each is called twice on random maps and cones and must
give the direct computation both times; a call that raises must raise again.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cone
from tropgeom import complexes
from tropgeom import exactgeom as eg
from tropgeom import linalg as la
from tropgeom.complexes import preimage_in_span, pull_back_cone

seeds = st.integers(0, 2**32)


def _outcome(call):
    """The value of call(), or the type of the GeometryError it raises."""
    try:
        return call()
    except eg.GeometryError as e:
        return type(e)


def _twice(call, want):
    first = _outcome(call)
    assert first == want
    assert _outcome(call) == want
    if not isinstance(want, type):
        assert call() is first


# Each example draws a small pool of maps and cones with small entries and
# tries every combination, so that inputs which share part of a key occur
# side by side and a key missing a part would answer for the wrong input.


def _faces(rng, rank, count=2):
    pool = {}
    for _ in range(count):
        for f in random_cone(rng, rank, rng.randint(1, 4)).all_faces():
            pool[f.rays] = f
    return list(pool.values())


def _maps(rng, source, target, count=3):
    return [
        eg.LinearMap(
            tuple(
                tuple(rng.randint(-1, 1) for _ in range(source)) for _ in range(target)
            ),
            source,
            target,
        )
        for _ in range(count)
    ]


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_image_cone(seed):
    rng = random.Random(seed)
    rank, target = rng.randint(1, 3), rng.randint(1, 3)
    for f in _maps(rng, rank, target):
        for c in _faces(rng, rank):
            want = _outcome(
                lambda: eg.cone_from_generators([f.apply(r) for r in c.rays], target)
            )
            _twice(lambda: eg.image_cone(f, c), want)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compose(seed):
    rng = random.Random(seed)
    a, b, c = (rng.randint(1, 3) for _ in range(3))
    for f in _maps(rng, b, c):
        for g in _maps(rng, a, b):
            want = eg.LinearMap(la.mat_mul(f.matrix, g.matrix), a, c)
            _twice(lambda: f.compose(g), want)
    with pytest.raises(eg.RankMismatch):
        g.compose(g if a != b else eg.LinearMap.identity(b + 1))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_contains_cone(seed):
    rng = random.Random(seed)
    pool = _faces(rng, rng.randint(1, 3), 3)
    for a in pool:
        for b in pool:
            _twice(lambda: a.contains_cone(b), all(a.contains(r) for r in b.rays))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_face_at(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    for c in _faces(rng, rank):
        for _ in range(3):
            covectors = rng.sample(list(c.facets), rng.randint(0, len(c.facets)))
            if rng.random() < 0.3:
                covectors.append(tuple(rng.randint(-2, 2) for _ in range(rank)))
            want = eg.cone_from_generators(
                [r for r in c.rays if all(la.dot(w, r) == 0 for w in covectors)], rank
            )
            _twice(lambda: c.face_at(covectors), want)
            # lists and tuples of covectors are one key
            assert c.face_at([list(w) for w in covectors]) is c.face_at(tuple(covectors))


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_pull_back_cone(seed):
    rng = random.Random(seed)
    rank, target = rng.randint(1, 3), rng.randint(1, 3)
    for m in _maps(rng, rank, target, 2):
        for source in _faces(rng, rank):
            try:
                image = eg.image_cone(m, source)
            except eg.NotPointed:
                continue
            for cone in image.all_faces():
                want = _outcome(
                    lambda: eg.cone_from_generators(
                        [preimage_in_span(m, source, r) for r in cone.rays], rank
                    )
                )
                _twice(lambda: pull_back_cone(m, source, cone), want)


def test_failed_pull_back_is_not_cached():
    # (1) has no lattice preimage under x -> 7x
    m = eg.LinearMap(((7,),), 1, 1)
    ray = eg.cone_from_generators([(1,)], 1)
    for _ in range(2):
        with pytest.raises(eg.GeometryError, match="no lattice preimage"):
            pull_back_cone(m, ray, ray)
    assert (m.matrix, 1, ray.rays, ray.rays) not in complexes._pullback_cache
