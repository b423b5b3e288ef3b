"""Differential tests for the memo tables.

`image_cone`, `LinearMap.compose`, `RationalCone.contains_cone`,
`RationalCone.face_at` and `complexes.pull_back_cone` keep their results
under canonical keys, and `exactgeom.lattice_surjective` in a bounded LRU
table, as do `exactgeom.inverse`, which `validate_complex` and the
assembler share, and `exactgeom.is_unimodular`, which unimodularization
asks of every refined cone after each stellar step; `LinearMap.identity` is
one map per rank.  Each is called twice on random maps and cones and must
give the direct computation both times; a call that raises must raise
again.
`exactgeom.intersect` keeps no table of its own: a repeat must find the
system table of `cone_from_inequalities` and run no double description.
`curves.canonical_labelling`, `curves.automorphism_pairs` and
`curves.stabilize` keep theirs in bounded LRU tables.  Each is called twice
on relabelled graphs and decorated types and must give the one-pass oracle,
or the unmemoized `stabilize`, both times, the second time as the same
object.  So are `curves.contraction_faces`, on every canonical pair the
moduli and map complexes reach, against the faces computed afresh, and
`curves.cycle_lattice` against the kernel of the incidence matrix; a map
complex built from cold tables and from warm ones is the same complex.
`DualGraph`, `RubberMapType`, `LinearMap` and `RationalCone` key these
tables and hash once, at construction, to the hash their dataclass would
generate.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lemma_inputs, moduli_cached, random_cone
from oracles import canonical_with_data_direct, contraction_faces_direct, is_unimodular_by_minors
from tropgeom import complexes, curves
from tropgeom import exactgeom as eg
from tropgeom import linalg as la
from tropgeom.complexes import preimage_in_span, pull_back_cone
from tropgeom.curves import (
    DualGraph,
    Unstable,
    automorphism_pairs,
    canonical_labelling,
    canonical_with_data,
    build_moduli_complex,
    contraction_faces,
    cycle_lattice,
    enumerate_stable_graphs,
    incidence_matrix,
    stabilize,
)
from tropgeom.pipeline import contact_types
from tropgeom.tropmaps import RubberMapType, build_map_complex

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


def test_repeated_intersect_runs_no_double_description(monkeypatch):
    rng = random.Random(3)
    met = []
    for _ in range(30):
        rank = rng.randint(1, 4)
        pool = _faces(rng, rank)
        a, b = rng.choice(pool), rng.choice(pool)
        lin, rays = eg.extreme_rays_of_system(
            a.facets + b.facets, a.span_eqs + b.span_eqs, rank
        )
        assert not lin
        first = eg.intersect(a, b)
        assert first == eg.cone_from_generators(rays, rank)
        met.append((a, b, first))

    def no_double_description(*args):
        raise AssertionError("a repeated intersect ran the double description")

    monkeypatch.setattr(eg, "extreme_rays_of_system", no_double_description)
    for a, b, first in met:
        assert eg.intersect(a, b) is first


def test_failed_pull_back_is_not_cached():
    # (1) has no lattice preimage under x -> 7x
    m = eg.LinearMap(((7,),), 1, 1)
    ray = eg.cone_from_generators([(1,)], 1)
    for _ in range(2):
        with pytest.raises(eg.GeometryError, match="no lattice preimage"):
            pull_back_cone(m, ray, ray)
    assert (m.matrix, 1, ray.rays, ray.rays) not in complexes._pullback_cache


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_lattice_surjective(seed):
    rng = random.Random(seed)
    rank, target = rng.randint(1, 3), rng.randint(1, 3)
    for f in _maps(rng, rank, target, 2):
        for c in _faces(rng, rank):
            # a cone whose image is not pointed raises, and must raise again
            want = _outcome(lambda: eg.lattice_surjective.__wrapped__(f, c))
            _twice(lambda: eg.lattice_surjective(f, c), want)


def test_failed_lattice_surjective_is_not_remembered():
    # the plane orthant folds onto the whole line: its image is not pointed
    f = eg.LinearMap(((1, -1),), 2, 1)
    orthant = eg.cone_from_generators([(1, 0), (0, 1)])
    before = eg.lattice_surjective.cache_info()
    for _ in range(2):
        with pytest.raises(eg.NotPointed):
            eg.lattice_surjective(f, orthant)
    after = eg.lattice_surjective.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
    ray = eg.cone_from_generators([(1,)], 1)
    assert eg.lattice_surjective(eg.LinearMap(((1,),), 1, 1), ray) is True
    assert eg.lattice_surjective.cache_info().maxsize == 4096


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_is_unimodular(seed):
    rng = random.Random(seed)
    for c in _faces(rng, rng.randint(1, 4), 3):
        _twice(lambda: eg.is_unimodular(c), is_unimodular_by_minors(c))
    info = eg.is_unimodular.cache_info()
    assert info.maxsize == 4096 and info.currsize <= info.maxsize


@pytest.mark.parametrize("seed", range(4))
def test_inverse_table(seed):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = eg.LinearMap(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)), n, n
        )
        try:
            want = la.invert_unimodular(m.matrix)
        except ValueError:
            # a map that is not invertible raises each time
            for _ in range(2):
                with pytest.raises(ValueError):
                    eg.inverse(m)
            continue
        first = eg.inverse(m)
        assert first.matrix == want and eg.inverse(m) is first
    assert eg.inverse.cache_info().maxsize == 4096


def test_validation_reads_the_inverse_table():
    # the swap of the plane orthant's rays is its one automorphism besides
    # the identity, and its own inverse
    swap = eg.LinearMap(((0, 1), (1, 0)), 2, 2)
    orthant = eg.cone_from_generators([(1, 0), (0, 1)])
    fan, ids = complexes.complex_from_fan([orthant], 2)
    cx = complexes.ConeComplex(fan.cones, fan.faces, {ids[orthant.rays]: [swap]})
    assert complexes.validate_complex(cx) == []
    before = eg.inverse.cache_info()
    assert complexes.validate_complex(cx, [ids[orthant.rays]]) == []
    after = eg.inverse.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


def test_one_identity_per_rank():
    for n in range(5):
        assert eg.LinearMap.identity(n) is eg.LinearMap.identity(n)
        assert eg.LinearMap.identity(n).matrix == la.identity_matrix(n)
    with pytest.raises(dataclasses.FrozenInstanceError):
        eg.LinearMap.identity(2).matrix = ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# canonical labelling, automorphisms and stabilization

CURVE_TABLES = (
    canonical_labelling,
    automorphism_pairs,
    stabilize,
    contraction_faces,
    cycle_lattice,
)


def _relabelled(graph, data, rng):
    """The graph and edge data under a random vertex permutation, with each
    class of parallel edges in a random order."""
    k = graph.num_vertices
    perm = list(range(k))
    rng.shuffle(perm)
    genera = [0] * k
    for v, g in enumerate(graph.genera):
        genera[perm[v]] = g
    rows = []
    for (u, v), d in zip(graph.edges, data):
        a, b = perm[u], perm[v]
        if a > b:
            a, b, d = b, a, tuple(-x for x in d)
        rows.append(((a, b), d))
    rng.shuffle(rows)
    rows.sort(key=lambda r: r[0])
    return (
        DualGraph(tuple(genera), tuple(e for e, _ in rows), tuple(perm[v] for v in graph.legs)),
        tuple(d for _, d in rows),
    )


def _subdivided(graph, data, j):
    """Edge j split in two by a new unmarked genus 0 vertex."""
    u, v = graph.edges[j]
    w = graph.num_vertices
    edges = graph.edges[:j] + graph.edges[j + 1 :] + ((u, w), (w, v))
    data = data[:j] + data[j + 1 :] + (data[j], data[j])
    return _relabelled(DualGraph(graph.genera + (0,), edges, graph.legs), data, random.Random(j))


def _same_twice(call):
    first = call()
    assert call() is first
    return first


def _check_labelling(graph, data):
    cgraph, cdata, vperm, eperm, auts = canonical_with_data_direct(graph, data)
    labelling = _same_twice(lambda: canonical_labelling(graph, data))
    assert labelling == (cgraph, cdata, vperm, eperm)
    assert _same_twice(lambda: automorphism_pairs(cgraph, cdata)) == tuple(auts)
    assert canonical_with_data(graph, data) == labelling + (tuple(auts),)


def _check_stabilize(graph):
    assert _same_twice(lambda: stabilize(graph)) == stabilize.__wrapped__(graph)


@pytest.mark.parametrize("g,n", [(0, 5), (1, 3), (2, 2)])
def test_labelling_and_stabilize_of_relabelled_graphs(g, n):
    rng = random.Random(g * 10 + n)
    for graph in enumerate_stable_graphs(g, n):
        bare = ((),) * graph.num_edges
        for _ in range(3):
            shuffled, _ = _relabelled(graph, bare, rng)
            _check_labelling(shuffled, None)
            _check_labelling(shuffled, bare)
            _check_stabilize(shuffled)
        for j in range(graph.num_edges):
            _check_stabilize(_subdivided(graph, bare, j)[0])


def test_labelling_of_decorated_types():
    _, types, _ = contact_types(2, 2, [(3, -3), (2, -2)])
    rng = random.Random(7)
    loops = parallel = 0
    aut_counts = {}  # canonical graph -> automorphism counts of its decorations
    for t in types["X"] + types["Y"] + types["Z"]:
        data = t.edge_data()
        edges = t.graph.edges
        loops += any(u == v for u, v in edges)
        parallel += any(
            edges[i] == edges[i - 1] and data[i] == data[i - 1] and any(data[i])
            for i in range(1, len(edges))
        )
        cgraph, cdata, _, _ = canonical_labelling(t.graph, data)
        aut_counts.setdefault(cgraph, set()).add(len(automorphism_pairs(cgraph, cdata)))
        for _ in range(3):
            _check_labelling(*_relabelled(t.graph, data, rng))
        for j in range(len(edges)):
            _check_labelling(*_subdivided(t.graph, data, j))
    # a table keyed by the graph alone would answer for the wrong decoration
    assert loops and parallel and any(len(c) > 1 for c in aut_counts.values())
    theta = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
    for data in (None, ((0,),) * 3):
        cgraph, cdata, _, _ = canonical_labelling(theta, data)
        assert len(automorphism_pairs(cgraph, cdata)) == 12


def _random_decorated(rng):
    """A random decorated graph, not always connected or stable: two to
    five vertices of genus 0 or 1, at most six edges (loops too), each
    repeated up to three times, up to two legs, and 0 to 2 slopes per edge
    in {-1, 0, 1}, or no data at all.  Loops, parallel edges with equal and
    with unequal data, and unmarked vertices of equal genus and valence all
    come up."""
    k = rng.randint(2, 5)
    edges = []
    for _ in range(rng.randint(0, 4)):
        edges += [(rng.randrange(k), rng.randrange(k))] * rng.randint(1, 3)
    del edges[6:]
    graph = DualGraph(
        tuple(rng.choice((0, 0, 1)) for _ in range(k)),
        tuple(edges),
        tuple(rng.randrange(k) for _ in range(rng.randint(0, 2))),
    )
    width = rng.randint(0, 2)
    slopes = [tuple(rng.randint(-1, 1) for _ in range(width)) for _ in range(2)]
    data = tuple(rng.choice(slopes) for _ in graph.edges)
    return graph, None if rng.random() < 0.2 else data


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_labelling_of_random_decorated_graphs(seed):
    # held to the oracle's own per-vertex invariant and one relabelled graph
    # per candidate: the same canonical form, vperm and eperm, and the same
    # automorphism pairs in the same order
    _check_labelling(*_random_decorated(random.Random(seed)))


def test_random_decorated_graphs_reach_ties():
    loops = parallel = ties = 0
    for seed in range(300):
        graph, _ = _random_decorated(random.Random(seed))
        edges = graph.edges
        loops += any(u == v for u, v in edges)
        parallel += any(edges[i] == edges[i - 1] for i in range(1, len(edges)))
        invariants = [
            (g, graph.valence(v), graph.legs_at(v)) for v, g in enumerate(graph.genera)
        ]
        ties += len(set(invariants)) < len(invariants)
    # of 300 draws, 130 have a loop, 218 parallel edges and 113 a tie
    assert min(loops, parallel, ties) > 100


def _criterion_two_type_lists(g, n):
    """The distinct type lists, factors' and superimposed alike, of
    criterion 2's contact data on M_{g,n}."""
    lists = {}
    for vectors in lemma_inputs(n):
        for ts in contact_types(g, n, vectors)[1].values():
            lists[tuple(ts)] = ts
    return list(lists.values())


def _reached_pairs(source):
    """The canonical (graph, edge data) pairs of the cones of a complex:
    every pair its contraction closure reaches."""
    if source == "maps-1-3":
        base = moduli_cached(1, 3)
        return {
            (t.graph, t.edge_data())
            for ts in _criterion_two_type_lists(1, 3)
            for t in build_map_complex(ts, base).types.values()
        }
    g, n, max_edges = source
    graphs = build_moduli_complex(g, n, max_edges).graphs.values()
    return {(h, ((),) * h.num_edges) for h in graphs}


@pytest.mark.parametrize(
    "source", [(0, 6, None), (1, 3, None), (2, 2, 3), "maps-1-3"], ids=str
)
def test_contraction_faces_and_cycle_lattice(source):
    pairs = _reached_pairs(source)
    decorated = 0
    for graph, data in pairs:
        faces = _same_twice(lambda: contraction_faces(graph, data))
        assert faces == contraction_faces_direct(graph, data)
        decorated += any(data)
        lattice = _same_twice(lambda: cycle_lattice(graph))
        assert lattice == tuple(la.kernel_basis(incidence_matrix(graph), graph.num_edges))
    assert (decorated > 0) == (source == "maps-1-3")


def test_cold_and_warm_tables_build_one_map_complex():
    base = moduli_cached(1, 3)
    for ts in _criterion_two_type_lists(1, 3):
        contraction_faces.cache_clear()
        cycle_lattice.cache_clear()
        cold = json.dumps(build_map_complex(ts, base).complex.to_json(), sort_keys=True)
        misses = [table.cache_info().misses for table in (contraction_faces, cycle_lattice)]
        warm = json.dumps(build_map_complex(ts, base).complex.to_json(), sort_keys=True)
        assert cold == warm
        # the warm build finds every pair and graph in the tables
        assert [table.cache_info().misses for table in (contraction_faces, cycle_lattice)] == misses
        assert misses[0] > 0


def test_unstable_graph_is_not_remembered():
    before = [table.cache_info().currsize for table in CURVE_TABLES]
    for graph in (DualGraph((0,), (), (0,)), DualGraph((0, 0), ((0, 1),), (0, 1))):
        for _ in range(2):
            with pytest.raises(Unstable):
                stabilize(graph)
    assert [table.cache_info().currsize for table in CURVE_TABLES] == before


def test_curve_tables_are_bounded():
    # (0, 7) labels more distinct split candidates than one table holds
    curves._enumeration_cache.pop((0, 7), None)
    assert len(enumerate_stable_graphs(0, 7)) == 2752
    for table in CURVE_TABLES:
        info = table.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    info = canonical_labelling.cache_info()
    assert info.currsize == info.maxsize


def _equal_values(monkeypatch):
    """Two equal and distinct objects of each hashed value class, built
    from differently ordered input."""
    t = contact_types(1, 3, ((2, 0, -2), (1, -1, 0)))[1]["Z"][-1]
    graph = t.graph
    shuffled = DualGraph(
        list(graph.genera), [e[::-1] for e in reversed(graph.edges)], list(graph.legs)
    )
    a, b, c = (
        eg.LinearMap(((1, 2), (0, 1)), 2, 2),
        eg.LinearMap(((0, 1), (1, 0)), 2, 2),
        eg.LinearMap(((1, 0), (3, 1)), 2, 2),
    )
    gens = [(1, 0, 2), (0, 1, 1), (1, 1, 3), (2, 1, 5)]
    monkeypatch.setattr(eg, "_cone_cache", {})
    cone = eg.cone_from_generators(gens)
    monkeypatch.setattr(eg, "_cone_cache", {})
    return [
        (graph, shuffled),
        (t, RubberMapType.from_edge_data(shuffled, list(t.edge_data()), t.contact)),
        (a.compose(b).compose(c), a.compose(b.compose(c))),
        (cone, eg.cone_from_generators(gens[::-1])),
    ]


def test_value_objects_hash_as_their_compared_fields(monkeypatch):
    for x, y in _equal_values(monkeypatch):
        assert x == y and x is not y
        fields = tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)
        assert hash(x) == hash(y) == hash(fields)
