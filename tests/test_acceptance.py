"""The acceptance gate.

Each criterion is a test; the suite prints one pass line per criterion (run
with -s to see them inline).  Contact vectors are taken up to permutation of
the markings, which the whole construction is equivariant under; two factor
data additionally up to swapping the factors.
"""

import random
import time
from itertools import combinations_with_replacement

import pytest

from conftest import (
    check_verdicts,
    contact_vectors,
    lemma_inputs,
    moduli_cached,
    random_cone,
)
from oracles import (
    enumerate_rubber_types_bruteforce,
    enumerate_stable_graphs_bruteforce,
    facets_bruteforce,
    verify_subdivision_pairwise,
)
from tropgeom import exactgeom as eg
from tropgeom import linalg as la
from tropgeom.complexes import is_union_of_cones
from tropgeom.curves import canonical_form, enumerate_stable_graphs
from tropgeom.pipeline import figure1_demo, product_run, run_contacts
from tropgeom.subdivision import soundness_sample, verify_subdivision
from tropgeom.tropmaps import (
    ContactData,
    canonical_type,
    cycle_equations,
    enumerate_rubber_types,
    is_balanced,
    moduli_cone,
)

STABLE_RANGE = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]


# the subdivisions of criteria 1 to 3, by criterion, set when a criterion
# passes; criterion 5 re-verifies them and builds those that are missing
criterion_subdivisions = {}


def _lemma_suite_runs():
    """Criterion 2's runs, as (input, report) pairs."""
    for g, n in STABLE_RANGE:
        base = moduli_cached(g, n)
        for vectors in lemma_inputs(n):
            yield (g, n, *vectors), run_contacts(g, n, vectors, base=base)


def _nu_runs():
    """Criterion 3's runs, as (input, report) pairs."""
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3)]:
        base = moduli_cached(g, n)
        vectors = contact_vectors(n, 2)
        for a1, a2 in combinations_with_replacement(vectors, 2):
            yield (g, n, a1, a2), product_run(g, n, a1, a2, base=base)


def test_criterion_1_figure_one_regression():
    t0 = time.time()
    report = figure1_demo()
    elapsed = time.time() - t0
    by_name = {c.name: c for c in report.checks}
    assert by_name["moduli cone is a ray"].passed
    assert by_name["edge lengths forced equal"].passed
    assert by_name["image is the diagonal ray"].passed
    assert by_name["host cone is three dimensional"].passed
    assert by_name["host graph occurs in the full moduli complex"].passed
    assert by_name["image union of cones before subdivision"].passed
    assert by_name["image union of cones after stellar subdivision"].passed
    cone_checks = [c for c in report.checks if c.name == "X cone onto cone"]
    lattice_checks = [c for c in report.checks if c.name == "X lattice surjective"]
    assert cone_checks and all(c.passed for c in cone_checks)
    assert lattice_checks and all(c.passed for c in lattice_checks)
    assert report.all_passed
    assert elapsed < 5.0
    criterion_subdivisions[1] = [report.subdivision_data]
    print(f"\n[criterion 1] PASS figure one regression ({elapsed:.2f}s)")


def test_criterion_2_lemma_suite():
    t0 = time.time()
    subs = []
    for key, report in _lemma_suite_runs():
        assert report.all_passed, key
        subs.append(report.subdivision_data)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    criterion_subdivisions[2] = subs
    print(f"\n[criterion 2] PASS lemma suite ({len(subs)} runs, {elapsed:.1f}s)")


def test_criterion_3_nu_subdivision_check():
    t0 = time.time()
    subs = []
    for key, report in _nu_runs():
        cover = [c for c in report.checks if "cover fiber product" in c.name]
        disjoint = [c for c in report.checks if "interiors disjoint" in c.name]
        inside = [c for c in report.checks if "inside fiber product" in c.name]
        assert all(c.passed for c in cover + disjoint + inside), key
        assert report.all_passed, key
        subs.append(report.subdivision_data)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    criterion_subdivisions[3] = subs
    print(f"\n[criterion 3] PASS nu subdivision check ({len(subs)} runs, {elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    for g, n in STABLE_RANGE:
        main = enumerate_stable_graphs(g, n)
        oracle = enumerate_stable_graphs_bruteforce(g, n)
        assert len(main) == len(oracle), (g, n)
        keys = {(h.genera, h.edges, h.legs) for h in main}
        for graph in oracle:
            c, _, _, _ = canonical_form(graph)
            assert (c.genera, c.edges, c.legs) in keys, (g, n)
    checked_types = 0
    for g, n in STABLE_RANGE:
        for a in contact_vectors(n, 3):
            contact = ContactData(g, (a,))
            main = enumerate_rubber_types(contact)
            oracle = enumerate_rubber_types_bruteforce(contact)
            assert len(main) == len(oracle), (g, n, a)
            keys = {
                (t.graph.genera, t.graph.edges, t.graph.legs, t.slopes)
                for t in main
            }
            for t in oracle:
                ct, _, _, _ = canonical_type(t)
                assert (
                    ct.graph.genera,
                    ct.graph.edges,
                    ct.graph.legs,
                    ct.slopes,
                ) in keys, (g, n, a)
            checked_types += len(main)
    elapsed = time.time() - t0
    print(
        f"\n[criterion 4] PASS oracle equivalence "
        f"({checked_types} types cross checked, {elapsed:.1f}s)"
    )


@pytest.fixture
def criteria_subdivisions():
    """Every subdivision criteria 1 to 3 produce, in that order.  A
    criterion that has not passed in this session has its runs made here."""
    runs = {
        1: lambda: [((), figure1_demo())],
        2: _lemma_suite_runs,
        3: _nu_runs,
    }
    for criterion, make in runs.items():
        if criterion not in criterion_subdivisions:
            subs = []
            for key, report in make():
                assert report.all_passed, key
                subs.append(report.subdivision_data)
            criterion_subdivisions[criterion] = subs
    return [sub for c in (1, 2, 3) for sub in criterion_subdivisions[c]]


def test_criterion_5_geometry_kernel_properties(criteria_subdivisions):
    t0 = time.time()
    rng = random.Random(515151)
    # double description against the subset enumeration oracle
    for _ in range(200):
        cone = random_cone(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert sorted(cone.facets) == facets_bruteforce(cone)
    # image, intersection, membership cross checks on sampled exact points
    for _ in range(40):
        rank = rng.randint(1, 4)
        a = random_cone(rng, rank, rng.randint(1, 4))
        b = random_cone(rng, rank, rng.randint(1, 4))
        cut = eg.intersect(a, b)
        target = rng.randint(1, 4)
        mat = tuple(
            tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(target)
        )
        f = eg.LinearMap(mat, rank, target)
        try:
            img = eg.image_cone(f, a)
        except eg.NotPointed:
            img = None
        for p in eg.sample_points(a, 50, rng):
            assert a.contains(p)
            assert cut.contains(p) == (a.contains(p) and b.contains(p))
            if img is not None:
                assert img.contains(f.apply(p))
        for p in eg.sample_points(cut, 50, rng):
            assert a.contains(p) and b.contains(p)
    # support partition property on every subdivision produced above: the
    # wall certificate and the all-pairs oracle once per object (both are
    # deterministic), the sampled check on every run's subdivision
    distinct = list({id(sub): sub for sub in criteria_subdivisions}.values())
    for sub in distinct:
        assert verify_subdivision(sub) == []
        assert verify_subdivision_pairwise(sub) == []
    for sub in criteria_subdivisions:
        soundness_sample(sub, rng, per_cone=4)
    elapsed = time.time() - t0
    print(
        f"\n[criterion 5] PASS geometry kernel properties "
        f"({len(distinct)} subdivisions re-verified, {elapsed:.1f}s)"
    )


def test_local_check_agrees_with_the_whole_check(criteria_subdivisions):
    """`check_subdivision`, which validates the original once and checks
    only the glued cones, passes each subdivision of criteria 1 to 3 as the
    whole check does."""
    for sub in {id(sub): sub for sub in criteria_subdivisions}.values():
        assert check_verdicts(sub) == (True, True)


def test_criterion_6_invariant_suite():
    t0 = time.time()
    from tropgeom.curves import contract_edge, genus, stabilize

    # genus preserved under contraction and stabilization
    for g, n in [(1, 2), (2, 0), (1, 3)]:
        for graph in enumerate_stable_graphs(g, n):
            for e in range(graph.num_edges):
                contracted, _ = contract_edge(graph, e)
                assert genus(contracted) == g
            stable, _, _ = stabilize(graph)
            assert genus(stable) == g

    # balancing and path independent heights for every enumerated type,
    # and the dimension formula for moduli cones
    from fractions import Fraction

    rng = random.Random(66)
    for g, n, a in [(1, 2, (2, -2)), (1, 3, (2, -1, -1)), (0, 5, (3, -2, -1, 0, 0))]:
        contact = ContactData(g, (a,))
        for t in enumerate_rubber_types(contact):
            assert is_balanced(t)
            cone = moduli_cone(t)
            assert cone.dim == t.graph.num_edges - la.rank(cycle_equations(t))
            for p in eg.sample_points(cone, 4, rng):
                assert _heights_consistent(t, p)

    # X <-> Y symmetry of product verdicts
    for g, n, a1, a2 in [(1, 2, (2, -2), (1, -1)), (0, 4, (2, -1, -1, 0), (1, -1, 0, 0))]:
        base = moduli_cached(g, n)
        fwd = product_run(g, n, a1, a2, base=base)
        rev = product_run(g, n, a2, a1, base=base)
        assert fwd.all_passed == rev.all_passed
    elapsed = time.time() - t0
    print(f"\n[criterion 6] PASS invariant suite ({elapsed:.1f}s)")


def _heights_consistent(t, lengths):
    heights = {0: 0}
    adj = {}
    for i, (u, v) in enumerate(t.graph.edges):
        adj.setdefault(u, []).append((v, i, 1))
        adj.setdefault(v, []).append((u, i, -1))
    queue = [0]
    while queue:
        x = queue.pop()
        for y, i, d in adj.get(x, ()):
            disp = d * t.slopes[0][i] * lengths[i]
            if y in heights:
                if heights[y] != heights[x] + disp:
                    return False
            else:
                heights[y] = heights[x] + disp
                queue.append(y)
    return True
