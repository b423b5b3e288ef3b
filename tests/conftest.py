import random
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from oracles import check_subdivision_whole
from tropgeom import complexes, pipeline, subdivision
from tropgeom import exactgeom as eg
from tropgeom.curves import build_moduli_complex
from tropgeom.subdivision import SubdivisionOf, check_subdivision


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


def check_verdicts(sub):
    """Whether the local check (`check_subdivision`) and the whole check
    (`oracles.check_subdivision_whole`) pass the subdivision.  The local
    check runs on a fresh copy with the same touched cones, so a subdivision
    that was checked before is checked again."""
    fresh = SubdivisionOf(sub.original, sub.refined, sub.projection, sub.touched)
    try:
        check_subdivision(fresh)
        local = True
    except eg.GeometryError:
        local = False
    return local, check_subdivision_whole(sub) == []


_base_cache = {}


def moduli_cached(g, n):
    if (g, n) not in _base_cache:
        _base_cache[(g, n)] = build_moduli_complex(g, n)
    return _base_cache[(g, n)]


def _partitions(d):
    if d == 0:
        return [()]
    out = []

    def rec(rest, most, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, most), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(d, d, [])
    return out


def contact_vectors(n, max_degree):
    """Canonical contact vectors up to marking permutation, degree bounded."""
    seen = []
    for d in range(0, max_degree + 1):
        if d == 0:
            seen.append((0,) * n)
            continue
        for pos in _partitions(d):
            for neg in _partitions(d):
                if len(pos) + len(neg) > n:
                    continue
                vec = (
                    tuple(sorted(pos, reverse=True))
                    + (0,) * (n - len(pos) - len(neg))
                    + tuple(sorted((-x for x in neg), reverse=True))
                )
                if vec not in seen:
                    seen.append(vec)
    return seen


def lemma_inputs(n):
    """Criterion 2's contact data on n markings: each vector of contact
    degree at most three alone, then each unordered pair of total degree at
    most three (two factor data up to swapping the factors)."""
    vectors = contact_vectors(n, 3)
    degree = lambda a: sum(x for x in a if x > 0)
    return [(a,) for a in vectors] + [
        (a1, a2)
        for a1, a2 in combinations_with_replacement(vectors, 2)
        if degree(a1) + degree(a2) <= 3
    ]


@pytest.fixture(scope="session")
def ladder():
    """What the benchmark's four ladder inputs build, from fresh bases:
    criterion 2's sweeps on M_{0,5} and M_{1,3}, the worked example on
    M_{2,2} (graphs of at most three edges) and the single factor runs on
    M_{1,3}, both unimodularized, and M_{0,6}.  Holds every cone complex
    made on the way (`complexes`), the Γ of each run and the source
    subdivision of each pullback (`subdivisions`), each pullback as
    (morphism, Γ, result) (`pullbacks`), each hyperplane refinement as
    (complex, covectors, result) (`hyperplanes`), each unimodularization
    as (subdivision, result, steps), a step being (cone id, ray, stellar
    subdivision) (`chains`), each product run's superimposed chambers as
    (factor types, chambers) (`overlays`), and each cover check of a product
    run as (target, cells, answer) (`covers`)."""
    built, pullbacks, gammas, hyperplanes, chains, steps = [], [], [], [], [], []
    overlays, covers = [], []
    init = complexes.ConeComplex.__init__
    pull_back = pipeline.pullback_subdivision
    overlay = pipeline.superimpose
    cover = pipeline.cones_cover_exactly
    refine = subdivision.hyperplane_refine
    unimodularize = subdivision._unimodularize
    stellar = subdivision.stellar_subdivide

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recorded_pullback(phi, s):
        result = pull_back(phi, s)
        pullbacks.append((phi, s, result))
        return result

    def recorded_refine(cx, covectors):
        result = refine(cx, covectors)
        hyperplanes.append((cx, covectors, result))
        return result

    def recorded_stellar(cx, cid, ray):
        steps.append((cid, ray, stellar(cx, cid, ray)))
        return steps[-1][2]

    def recorded_overlay(*types):
        overlays.append((types, overlay(*types)))
        return overlays[-1][1]

    def recorded_cover(target, cells):
        covers.append((target, list(cells), cover(target, cells)))
        return covers[-1][2]

    def recorded_unimodularize(sub):
        steps.clear()
        result = unimodularize(sub)
        chains.append((sub, result, list(steps)))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes.ConeComplex, "__init__", recorded_init)
        mp.setattr(pipeline, "pullback_subdivision", recorded_pullback)
        mp.setattr(subdivision, "hyperplane_refine", recorded_refine)
        mp.setattr(subdivision, "_unimodularize", recorded_unimodularize)
        mp.setattr(subdivision, "stellar_subdivide", recorded_stellar)
        mp.setattr(pipeline, "superimpose", recorded_overlay)
        mp.setattr(pipeline, "cones_cover_exactly", recorded_cover)
        for g, n in ((0, 5), (1, 3)):
            base = build_moduli_complex(g, n)
            for vectors in lemma_inputs(n):
                gammas.append(pipeline.run_contacts(g, n, vectors, base=base).subdivision_data)
        base = build_moduli_complex(2, 2, 3)
        gammas.append(pipeline.single_factor_run(
            2, 2, (3, -3), unimodularize=True, base=base, max_edges=3
        ).subdivision_data)
        base = build_moduli_complex(1, 3)
        for a in contact_vectors(3, 3):
            gammas.append(pipeline.single_factor_run(
                1, 3, a, unimodularize=True, base=base
            ).subdivision_data)
        build_moduli_complex(0, 6)
    subdivisions = {id(s): s for s in gammas}
    subdivisions.update((id(r.subdivision), r.subdivision) for _, _, r in pullbacks)
    return SimpleNamespace(
        complexes=built,
        subdivisions=list(subdivisions.values()),
        pullbacks=pullbacks,
        hyperplanes=hyperplanes,
        chains=chains,
        overlays=overlays,
        covers=covers,
    )
