import gc
import random
import weakref
from itertools import combinations, combinations_with_replacement

import pytest
from conftest import check_verdicts, contact_vectors, lemma_inputs, moduli_cached, random_cone
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    glue_fans_whole,
    hyperplane_refine_by_fixpoint,
    is_identity,
    parallelepiped_interior_point_scan,
    pullback_assignments_fresh,
    relints_intersect,
    slices_by_dot,
    transport_by_scan,
    unimodularize_whole,
    validate_complex_loops,
    verify_subdivision_pairwise,
)

from tropgeom import exactgeom as eg
from tropgeom import linalg as la
from tropgeom.complexes import (
    ComplexMorphism,
    ConeComplex,
    ConicalSubset,
    check_weak_semistable,
    complex_from_fan,
    is_union_of_cones,
    validate_complex,
    validate_morphism,
)
from tropgeom import subdivision
from tropgeom.curves import build_moduli_complex
from tropgeom.pipeline import (
    contact_families,
    contact_types,
    figure1_demo,
    product_run,
    run_contacts,
    single_factor_run,
    soundness_verdict,
)
from tropgeom.subdivision import (
    RayOutside,
    SubdivisionOf,
    UnsoundSample,
    _assemble,
    _parallelepiped_interior_point,
    check_subdivision,
    closed_arrangement,
    cones_cover_exactly,
    common_refinement,
    compose_subdivisions,
    hyperplane_refine,
    prove_conical,
    pullback_subdivision,
    refine_until_conical,
    soundness_sample,
    stellar_subdivide,
    verify_subdivision,
)

# criterion 2's bases
STABLE_RANGE = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]


@pytest.fixture
def orthant2():
    cone = eg.cone_from_generators([(1, 0), (0, 1)])
    cx, ids = complex_from_fan([cone], 2)
    return cx, ids[cone.rays]


@pytest.fixture
def orthant3():
    cone = eg.cone_from_generators(la.identity_matrix(3), 3)
    cx, ids = complex_from_fan([cone], 3)
    return cx, ids[cone.rays]


class TestStellar:
    def test_barycentric_ray_in_orthant3(self, orthant3):
        cx, top = orthant3
        s = stellar_subdivide(cx, top, (1, 1, 1))
        maxima = s.max_cells_over(top)
        assert len(maxima) == 3
        for c in maxima:
            assert (1, 1, 1) in c.cone.rays
        assert validate_complex_loops(s.refined) == []
        assert verify_subdivision(s) == []

    def test_existing_ray_gives_identity(self, orthant3):
        cx, top = orthant3
        assert is_identity(stellar_subdivide(cx, top, (1, 0, 0)))

    def test_orthant2_split_unimodular(self, orthant2):
        cx, top = orthant2
        s = stellar_subdivide(cx, top, (1, 1))
        cells = [c.cone for c in s.max_cells_over(top)]
        assert len(cells) == 2
        assert all(eg.is_unimodular(c) for c in cells)

    def test_ray_outside(self, orthant2):
        cx, top = orthant2
        with pytest.raises(RayOutside):
            stellar_subdivide(cx, top, (1, -1))

    def test_face_ray_propagates(self, orthant3):
        cx, top = orthant3
        # insert inside a 2 dimensional face; the big cone must refine too
        s = stellar_subdivide(cx, top, (1, 1, 0))
        assert len(s.max_cells_over(top)) == 2
        assert verify_subdivision(s) == []


class TestHyperplaneRefine:
    def test_diagonal_split(self, orthant2):
        cx, top = orthant2
        s = hyperplane_refine(cx, {top: [(1, -1)]})
        assert len(s.max_cells_over(top)) == 2

    def test_closed_arrangement_is_canonical(self, orthant3):
        # each covector also slices one square face; the closed form lists
        # the cones with their covectors sorted, it is a fixpoint, and
        # scaled or negated covectors in another order give it
        cx, top = orthant3
        arrangement = closed_arrangement(cx, {top: [(1, -1, 0), (0, 1, -1)]})
        assert [(cx.cones[cid].rays, ws) for cid, ws in arrangement] == [
            (((0, 0, 1), (0, 1, 0)), ((0, 1, -1),)),
            (((0, 1, 0), (1, 0, 0)), ((1, -1, 0),)),
            (((0, 0, 1), (0, 1, 0), (1, 0, 0)), ((0, 1, -1), (1, -1, 0))),
        ]
        assert closed_arrangement(cx, dict(arrangement)) == arrangement
        assert closed_arrangement(cx, {top: [(0, -2, 2), (-1, 1, 0)]}) == arrangement
        assert closed_arrangement(cx, {top: [(1, 0, 0)]}) == ()

    def test_empty_covectors_identity(self, orthant2):
        cx, top = orthant2
        assert is_identity(hyperplane_refine(cx, {}))

    def test_braid_arrangement_in_orthant3(self, orthant3):
        cx, top = orthant3
        s = hyperplane_refine(
            cx, {top: [(1, -1, 0), (0, 1, -1), (1, 0, -1)]}
        )
        assert len(s.max_cells_over(top)) == 6
        owned_top = [
            rid
            for rid in s.refined.ids()
            if s.projection.assignments[rid][0] == top
        ]
        # chamber count oracle by sign vector enumeration: every sign pattern
        # over the three covectors that is realized inside the open orthant
        realized = set()
        rng = random.Random(0)
        cone = cx.cones[top]
        for p in eg.sample_points(cone, 4000, rng):
            if not cone.contains_in_relint(p):
                continue
            sig = tuple(
                (v > 0) - (v < 0)
                for v in (
                    la.dot((1, -1, 0), p),
                    la.dot((0, 1, -1), p),
                    la.dot((1, 0, -1), p),
                )
            )
            realized.add(sig)
        assert len(owned_top) == len(realized) == 13


class TestCommonRefinement:
    def test_with_identity(self, orthant2):
        cx, top = orthant2
        s = hyperplane_refine(cx, {top: [(1, -1)]})
        both = common_refinement(s, hyperplane_refine(cx, {}))
        assert [c.cone for c in both.max_cells_over(top)] == [
            c.cone for c in s.max_cells_over(top)
        ]

    def test_idempotent(self, orthant2):
        cx, top = orthant2
        s = hyperplane_refine(cx, {top: [(1, -1)]})
        again = common_refinement(s, s)
        assert len(again.max_cells_over(top)) == 2

    def test_two_diagonal_splits(self, orthant2):
        cx, top = orthant2
        s1 = hyperplane_refine(cx, {top: [(1, -1)]})
        s2 = hyperplane_refine(cx, {top: [(1, -2)]})
        both = common_refinement(s1, s2)
        assert len(both.max_cells_over(top)) == 3
        # refines both sides
        for cell in both.max_cells_over(top):
            assert any(
                c.cone.contains_cone(cell.cone) for c in s1.max_cells_over(top)
            )
            assert any(
                c.cone.contains_cone(cell.cone) for c in s2.max_cells_over(top)
            )


class TestPullback:
    def _diag_morphism(self, cx3, ids3, top):
        ray = eg.cone_from_generators([(1,)], 1)
        rcx, rids = complex_from_fan([ray], 1)
        incl = eg.LinearMap(((1,), (1,), (1,)), 1, 3)
        phi = ComplexMorphism(
            rcx, cx3, {rids[ray.rays]: (top, incl), rids[()]: (ids3[()], incl)}
        )
        return phi

    def test_identity_map_returns_subdivision(self, orthant3):
        cx, top = orthant3
        ident = ComplexMorphism(
            cx, cx, {cid: (cid, eg.LinearMap.identity(3)) for cid in cx.ids()}
        )
        s = stellar_subdivide(cx, top, (1, 1, 1))
        pb = pullback_subdivision(ident, s)
        assert len(pb.subdivision.refined.cones) == len(s.refined.cones)
        assert validate_morphism(pb.refined_map) == []

    def test_diagonal_ray_lands_in_ray_cell(self):
        cone = eg.cone_from_generators(la.identity_matrix(3), 3)
        cx3, ids3 = complex_from_fan([cone], 3)
        top = ids3[cone.rays]
        phi = self._diag_morphism(cx3, ids3, top)
        s = stellar_subdivide(cx3, top, (1, 1, 1))
        pb = pullback_subdivision(phi, s)
        assert is_identity(pb.subdivision)
        ray_id = [k for k in pb.refined_map.source.ids() if pb.refined_map.source.cones[k].dim == 1][0]
        tgt, _ = pb.refined_map.assignments[ray_id]
        assert pb.refined_map.target.cones[tgt].dim == 1
        assert all(r.image_is_cone and r.lattice_onto for r in check_weak_semistable(pb.refined_map))

    def test_uncut_target_cones_need_no_preimage(self, orthant3, monkeypatch):
        cx, top = orthant3
        ident = ComplexMorphism(
            cx, cx, {cid: (cid, eg.LinearMap.identity(3)) for cid in cx.ids()}
        )
        calls = []
        preimage = subdivision.preimage_cone
        monkeypatch.setattr(
            subdivision, "preimage_cone", lambda *a: calls.append(a) or preimage(*a)
        )
        pb = pullback_subdivision(ident, hyperplane_refine(cx, {}))
        assert is_identity(pb.subdivision) and calls == []
        # a cut target cone still pulls its cells back
        pullback_subdivision(ident, stellar_subdivide(cx, top, (1, 1, 1)))
        assert calls

    def test_morphism_off_an_uncut_target_fails(self, orthant2):
        cx, top = orthant2
        ray = eg.cone_from_generators([(1,)], 1)
        rcx, rids = complex_from_fan([ray], 1)
        off = eg.LinearMap(((1,), (-1,)), 1, 2)
        ids = {c.rays: cid for cid, c in cx.cones.items()}
        phi = ComplexMorphism(
            rcx, cx, {rids[ray.rays]: (top, off), rids[()]: (ids[()], off)}
        )
        with pytest.raises(eg.GeometryError, match="is not in a refined cell"):
            pullback_subdivision(phi, hyperplane_refine(cx, {}))

    def test_sum_map_identity_pullback(self, orthant3):
        cx, top = orthant3
        ray = eg.cone_from_generators([(1,)], 1)
        rcx, rids = complex_from_fan([ray], 1)
        phi = ComplexMorphism(
            cx,
            rcx,
            {cid: (rids[ray.rays], eg.LinearMap(((1, 1, 1),), 3, 1)) for cid in cx.ids()},
        )
        pb = pullback_subdivision(phi, hyperplane_refine(rcx, {}))
        assert is_identity(pb.subdivision)


def test_pullback_lifts_match_the_fresh_lift(ladder):
    """Every pullback the benchmark's inputs make assigns each refined cone
    the map that a lattice lift computed afresh gives."""
    assert ladder.pullbacks
    for phi, s, result in ladder.pullbacks:
        assert result.refined_map.assignments == pullback_assignments_fresh(
            phi, s, result.subdivision
        )


def test_pullbacks_lift_each_target_cell_once(monkeypatch):
    """A Γ keeps the lattice lift of each (refined id, cell map): the
    pullbacks of a run compute each once, and a repeat computes none."""
    calls = []
    projection = la.projection_to_lattice
    monkeypatch.setattr(
        la, "projection_to_lattice", lambda rows: calls.append(rows) or projection(rows)
    )
    report = run_contacts(1, 3, ((2, 0, -2), (1, -1, 0)), base=build_moduli_complex(1, 3))
    gamma = report.subdivision_data
    assert 0 < len(calls) == len(gamma._lifts)
    mx = contact_families(1, 3, ((2, 0, -2),), base=build_moduli_complex(1, 3)).map_complex("X")
    before = len(calls)
    first = pullback_subdivision(mx.forgetful, gamma)
    again = pullback_subdivision(mx.forgetful, gamma)
    assert len(calls) == before
    assert first.refined_map.assignments == again.refined_map.assignments


def test_extended_covectors_restrict_to_the_face():
    """On every face map of criterion 2's bases and of one unimodularized
    Γ, the lift of a covector restricts to it on the face's span, and it is
    the lift through the projection to the face's lattice."""
    rng = random.Random(17)
    gamma = single_factor_run(
        1, 3, (2, -1, -1), unimodularize=True, base=build_moduli_complex(1, 3)
    ).subdivision_data.refined
    complexes = [moduli_cached(g, n).complex for g, n in STABLE_RANGE] + [gamma]
    for cx in complexes:
        for f in cx.faces:
            sub = cx.cones[f.sub]
            basis = sub.span_basis
            if not basis:
                continue
            proj = la.projection_to_lattice(tuple(f.map.apply(b) for b in basis))
            for _ in range(2):
                w = tuple(rng.randint(-5, 5) for _ in range(sub.ambient_rank))
                lifted = subdivision._extend_covector(f.map, sub, w)
                pulled = la.mat_vec(la.transpose(f.map.matrix), lifted)
                assert [la.dot(pulled, b) for b in basis] == [la.dot(w, b) for b in basis]
                w_span = tuple(la.dot(w, b) for b in basis)
                assert lifted == la.mat_vec(la.transpose(proj), w_span)


class TestRefineUntilConical:
    def test_subfan_is_identity(self, orthant2):
        cx, top = orthant2
        face = eg.cone_from_generators([(1, 0)], 2)
        s = refine_until_conical(cx, ConicalSubset(cx, ((top, face),)))
        assert is_identity(s)

    def test_diagonal_ray_in_orthant3(self, orthant3):
        cx, top = orthant3
        diag = eg.cone_from_generators([(1, 1, 1)], 3)
        subset = ConicalSubset(cx, ((top, diag),))
        s = refine_until_conical(cx, subset)
        assert is_union_of_cones(s.refined, s.transport(subset)).ok

    def test_skew_ray_with_unimodularization(self, orthant2):
        cx, top = orthant2
        ray = eg.cone_from_generators([(1, 2)], 2)
        subset = ConicalSubset(cx, ((top, ray),))
        plain = refine_until_conical(cx, subset)
        assert len(plain.max_cells_over(top)) == 2
        uni = refine_until_conical(cx, subset, unimodularize=True)
        cells = [c.cone for c in uni.max_cells_over(top)]
        assert len(cells) == 3
        assert all(eg.is_unimodular(c) for c in cells)

    def test_idempotence_via_transport(self, orthant3):
        cx, top = orthant3
        diag = eg.cone_from_generators([(1, 1, 1)], 3)
        subset = ConicalSubset(cx, ((top, diag),))
        s1 = refine_until_conical(cx, subset)
        s2 = refine_until_conical(s1.refined, s1.transport(subset))
        assert is_identity(s2)

    def test_union_is_asked_once_after_the_check(self, monkeypatch):
        cf = contact_families(1, 3, [(3, 0, -3)], base=moduli_cached(1, 3))
        calls = []
        check, union = subdivision.check_subdivision, subdivision.is_union_of_cones
        monkeypatch.setattr(
            subdivision, "check_subdivision", lambda s: calls.append("check") or check(s)
        )
        monkeypatch.setattr(
            subdivision, "is_union_of_cones", lambda *a: calls.append("union") or union(*a)
        )
        sub = refine_until_conical(cf.base.complex, cf.families["X"], unimodularize=True)
        assert calls == ["check", "union"]
        # each cell over an original cone is the image of its refined cone
        for cid in sub.original.ids():
            for c in sub.cells_over(cid):
                assert eg.image_cone(c.map, sub.refined.cones[c.src]) == c.cone

    def test_prove_conical_adds_to_what_is_proved(self, orthant3, monkeypatch):
        # the braid arrangement that the diagonal cuts out has the wall
        # spanned by (1, 0, 0) and the diagonal as a cell too, but not the
        # ray (1, 2, 3)
        cx, top = orthant3
        cone = lambda *rays: ConicalSubset(cx, ((top, eg.cone_from_generators(rays, 3)),))
        diag, edge, skew = cone((1, 1, 1)), cone((1, 0, 0), (1, 1, 1)), cone((1, 2, 3))
        s = refine_until_conical(cx, diag)
        assert s.proved_conical(diag) and not s.proved_conical(edge)
        assert prove_conical(s, edge) is s
        assert s.proved_conical(diag) and s.proved_conical(edge)
        with pytest.raises(eg.GeometryError, match="failed to make the subset conical"):
            prove_conical(s, skew)
        assert not s.proved_conical(skew) and s.proved_conical(diag)
        # a proved subset is not asked again
        monkeypatch.setattr(subdivision, "is_union_of_cones", None)
        assert prove_conical(s, edge) is s

    @pytest.mark.parametrize("unimodularize", [False, True])
    def test_failed_union_raises_with_its_witness(self, monkeypatch, unimodularize):
        cf = contact_families(1, 3, [(2, 0, -2)], base=moduli_cached(1, 3))
        family = cf.families["X"]
        real = subdivision.hyperplane_refine
        monkeypatch.setattr(subdivision, "hyperplane_refine", lambda cx, covs: real(cx, {}))
        uncut = real(cf.base.complex, {})
        witnesses = is_union_of_cones(uncut.refined, uncut.transport(family)).witnesses
        assert witnesses
        with pytest.raises(eg.GeometryError, match="failed to make the subset conical") as err:
            refine_until_conical(cf.base.complex, family, unimodularize=unimodularize)
        assert str(witnesses) in str(err.value)


class TestSoundness:
    def test_sampled_points_land_in_one_interior(self, orthant3, rng):
        cx, top = orthant3
        s = hyperplane_refine(cx, {top: [(1, -1, 0), (0, 1, -1)]})
        assert soundness_sample(s, rng, per_cone=15)

    def test_compose_subdivisions(self, orthant2, rng):
        cx, top = orthant2
        s1 = hyperplane_refine(cx, {top: [(1, -1)]})
        # refine one of the refined cells again
        cell_id = [
            rid for rid in s1.refined.ids() if s1.refined.cones[rid].dim == 2
        ][0]
        s2 = stellar_subdivide(s1.refined, cell_id, tuple(
            la.vadd(*s1.refined.cones[cell_id].rays)
        ))
        total = compose_subdivisions(s1, s2)
        assert total.original is cx
        assert verify_subdivision(total) == []
        assert soundness_sample(total, rng, per_cone=10)

    @pytest.mark.parametrize(
        "fault, message",
        [("missing cell", "not covered"), ("overlapping cell", "two cell interiors")],
    )
    def test_a_faulty_cell_names_its_cone_and_point(self, orthant3, fault, message):
        cx, top = orthant3
        s = stellar_subdivide(cx, top, (1, 1, 1))
        cells = s.cells_over(top)
        first = s.max_cells_over(top)[0]
        if fault == "missing cell":
            s._cells_cache[top] = [c for c in cells if c is not first]
        else:
            s._cells_cache[top] = cells + [first._replace(cone=cx.cones[top])]
        with pytest.raises(UnsoundSample, match=message) as caught:
            soundness_sample(s, random.Random(0), per_cone=6)
        cone_id, point = caught.value.cone_id, caught.value.point
        assert cone_id == top
        holding = [c.cone for c in s.max_cells_over(top) if c.cone.contains(point)]
        if fault == "missing cell":
            assert holding == [] and first.cone.contains(point)
        else:
            assert sum(c.contains_in_relint(point) for c in holding) == 2
        # the report's check carries the point as its witness
        assert soundness_verdict(s, 0) == (False, point)

    def test_cover_checker(self):
        target = eg.cone_from_generators([(1, 0), (0, 1)])
        a = eg.cone_from_generators([(1, 0), (1, 1)])
        b = eg.cone_from_generators([(1, 1), (0, 1)])
        assert cones_cover_exactly(target, [a, b]) == (None, None)
        witness, _ = cones_cover_exactly(target, [a])
        assert target.contains(witness) and not a.contains(witness)


def test_a_single_cell_equal_to_its_target_is_answered_without_slicing(monkeypatch):
    target = eg.cone_from_generators([(1, 0), (0, 1)])
    outside = eg.cone_from_generators([(1, -1)])
    face = eg.cone_from_generators([(1, 0)])

    def sliced(target, cells):
        raise AssertionError("sliced")

    monkeypatch.setattr(subdivision, "_sliced_cover", sliced)
    assert cones_cover_exactly(target, [target]) == (None, None)
    # a cell outside the target takes no part; a face inside it does
    assert cones_cover_exactly(target, [target, outside]) == (None, None)
    with pytest.raises(AssertionError, match="sliced"):
        cones_cover_exactly(target, [target, face])


def test_cover_answers_match_the_slicing_path(ladder):
    """Every cover check of the ladder's product runs gets the slicing
    path's answer.  Factor types on stable graphs overlay to one chamber, so
    each fiber cell is tiled by itself alone."""
    assert ladder.covers
    for target, cells, answer in ladder.covers:
        inside = {c for c in cells if target.contains_cone(c)}
        assert inside == {target}
        assert subdivision._sliced_cover(target, inside) == answer == (None, None)


def _chamber_cases():
    g = eg.cone_from_generators
    orthant = [(1, 0), (0, 1)]
    plane = [(1, 0, 0), (0, 1, 0)]
    # target generators, cells (as generator lists), (ok, witness)
    return {
        "tiling": (orthant, [[(1, 0), (1, 1)], [(1, 1), (0, 1)]], (True, None)),
        "gap": (orthant, [[(1, 0), (1, 1)], [(1, 2), (0, 1)]], (False, (2, 3))),
        "overlap": (orthant, [[(1, 0), (1, 2)], [(1, 1), (0, 1)]], (True, None)),
        "a chamber given twice": (
            orthant,
            [[(1, 0), (1, 1)], [(1, 1), (0, 1)], [(1, 0), (1, 1)]],
            (True, None),
        ),
        "a gap beside an overlap": (
            orthant, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]], (False, (1, 4))
        ),
        # a target that spans a plane of rank 3: the cells' span equations
        # are hyperplanes of the arrangement too
        "overlap in a plane": (
            plane,
            [[(1, 0, 0), (1, 1, 0)], [(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 1, 0)]],
            (True, None),
        ),
        "gap in a plane": (
            plane, [[(1, 0, 0), (1, 1, 0)], [(1, 2, 0), (0, 1, 0)]], (False, (2, 3, 0))
        ),
    }


@pytest.mark.parametrize("case", list(_chamber_cases()))
def test_chamber_verdicts_against_the_pairwise_oracle(case):
    """One arrangement gives the cover verdict and its witness as before, and
    the overlap verdict of intersecting every pair of distinct cells, with a
    point interior to two of them."""
    gens, cell_gens, cover = _chamber_cases()[case]
    rank = len(gens[0])
    target = eg.cone_from_generators(gens, rank)
    cells = [eg.cone_from_generators(c, rank) for c in cell_gens]
    witness, overlap = cones_cover_exactly(target, cells)
    assert (witness is None, witness) == cover
    assert (overlap is None) == (
        not any(a != b and relints_intersect(a, b) for a, b in combinations(cells, 2))
    )
    if overlap is not None:
        assert sum(c.contains_in_relint(overlap) for c in set(cells)) >= 2


def _same_subdivision(a, b):
    return (
        a.refined.to_json() == b.refined.to_json()
        and a.projection.to_json() == b.projection.to_json()
    )


class TestUnrefined:
    @pytest.mark.parametrize(
        "g, n", [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]
    )
    def test_direct_builder_matches_general_path_on_bases(self, g, n):
        cx = moduli_cached(g, n).complex
        assert _same_subdivision(_assemble(cx, {}), glue_fans_whole(cx, {}))

    @pytest.mark.parametrize(
        "g, n, vectors",
        [
            (0, 5, ((1, 1, -1, -1, 0), (2, 0, -1, 0, -1))),
            (1, 2, ((2, -2), (1, -1))),
            (1, 3, ((2, -1, -1), (1, 0, -1))),
        ],
    )
    def test_direct_builder_matches_general_path_on_map_complexes(self, g, n, vectors):
        from tropgeom.tropmaps import build_map_complex

        base = moduli_cached(g, n)
        for k in (1, 2):
            _, types, _ = contact_types(g, n, vectors[:k])
            for ts in types.values():
                cx = build_map_complex(ts, base).complex
                assert _same_subdivision(_assemble(cx, {}), glue_fans_whole(cx, {}))

    def test_uncut_fans_take_the_direct_builder(self, orthant3):
        cx, top = orthant3
        direct = _assemble(cx, {top: [cx.cones[top]]})
        assert _same_subdivision(direct, glue_fans_whole(cx, {}))
        assert is_identity(direct)
        # one unrefined copy per complex, which touches no cone
        assert _assemble(cx, {}).refined is direct.refined is cx._uncut[0]
        assert direct.touched == frozenset()

    def test_overlapping_cells_are_rejected(self, orthant2):
        cx, top = orthant2
        fan = [
            eg.cone_from_generators([(1, 0), (1, 2)]),
            eg.cone_from_generators([(1, 1), (0, 1)]),
        ]
        sub = _assemble(cx, {top: fan})
        with pytest.raises(eg.GeometryError, match="not well glued"):
            check_subdivision(sub)

    def test_built_and_checked_once_per_complex(self, orthant3):
        cx, top = orthant3
        s = hyperplane_refine(cx, {})
        assert hyperplane_refine(cx, {}).refined is s.refined
        # a covector that does not slice its cone cuts nothing either
        assert hyperplane_refine(cx, {top: [(1, 0, 0)]}).refined is s.refined
        assert s.original is cx and is_identity(s)
        assert verify_subdivision(s) == []
        assert validate_complex(s.refined) == []

    def test_a_dropped_complex_is_freed_at_once(self):
        # the kept copy refers not back to its complex, so dropping the
        # complex frees it without the cycle collector
        cone = eg.cone_from_generators(la.identity_matrix(3), 3)
        cx, _ = complex_from_fan([cone], 3)
        gc.disable()
        try:
            check_subdivision(hyperplane_refine(cx, {}))
            assert cx._uncut is not None and cx._problems == []
            dropped = weakref.ref(cx)
            del cx
            assert dropped() is None
        finally:
            gc.enable()


class TestFixpointDiagnostics:
    def _face12(self):
        cone = eg.cone_from_generators(la.identity_matrix(3), 3)
        cx, ids = complex_from_fan([cone], 3)
        face = eg.cone_from_generators([(1, 0, 0), (0, 1, 0)], 3)
        return cx, ids[cone.rays], ids[face.rays]

    def test_covector_transport_names_cones_and_covectors(self, monkeypatch):
        # the covector reaches the face (e1, e2) in round one; round two
        # confirms that nothing changes
        cx, top, face = self._face12()
        monkeypatch.setattr(subdivision, "MAX_FIXPOINT_ROUNDS", 2)
        assert len(hyperplane_refine(cx, {top: [(1, -1, 0)]}).max_cells_over(top)) == 2
        monkeypatch.setattr(subdivision, "MAX_FIXPOINT_ROUNDS", 1)
        # the complex keeps the closed arrangement, so it runs no fixpoint
        # for the same covectors again; a fresh copy runs it
        assert len(hyperplane_refine(cx, {top: [(1, -1, 0)]}).max_cells_over(top)) == 2
        cx, top, face = self._face12()
        with pytest.raises(subdivision.CapReached) as info:
            hyperplane_refine(cx, {top: [(1, -1, 0)]})
        message = str(info.value)
        assert "in 1 rounds" in message
        assert f"{face}: [(1, -1, 0)]" in message

    def test_cell_closure_names_cones(self, monkeypatch):
        # only the top cone is given cells; the ray (1, 1, 0) is pulled back
        # into the face (e1, e2) in round one
        cx, top, face = self._face12()
        halves = [
            eg.cone_from_generators([(1, 0, 0), (1, 1, 0), (0, 0, 1)], 3),
            eg.cone_from_generators([(1, 1, 0), (0, 1, 0), (0, 0, 1)], 3),
        ]
        monkeypatch.setattr(subdivision, "MAX_FIXPOINT_ROUNDS", 2)
        cells = subdivision._closure_of_fans(cx, {top: halves})
        assert eg.cone_from_generators([(1, 1, 0)], 3) in cells[face]
        monkeypatch.setattr(subdivision, "MAX_FIXPOINT_ROUNDS", 1)
        with pytest.raises(subdivision.CapReached) as info:
            subdivision._closure_of_fans(cx, {top: halves})
        message = str(info.value)
        assert "in 1 rounds" in message
        assert f"cones ['{face}']" in message


def test_unimodularization_cap_names_the_cone(monkeypatch):
    # the cone on (1, 0), (1, 3) has index 3; the first stellar step at
    # (1, 1) leaves the half on (1, 1), (1, 3), of index 2
    cone = eg.cone_from_generators([(1, 0), (1, 3)], 2)
    cx, _ = complex_from_fan([cone], 2)
    # two steps, at (1, 1) and (1, 2), finish it: 4 rays, 3 cells, the apex
    assert len(subdivision._unimodularize(hyperplane_refine(cx, {})).refined.cones) == 8
    monkeypatch.setattr(subdivision, "MAX_UNIMODULAR_STEPS", 1)
    with pytest.raises(eg.GeometryError) as info:
        subdivision._unimodularize(hyperplane_refine(cx, {}))
    message = str(info.value)
    assert "did not finish in 1 stellar steps" in message
    assert "with rays [(1, 1), (1, 3)] is still not unimodular (lattice index 2)" in message


def _fan_cases():
    g = eg.cone_from_generators
    e1, e2, e3 = la.identity_matrix(3)
    d = (1, 1, 0)
    return {
        # the cells (e1, (1, 2)) and ((1, 1), e2) overlap between their inner rays
        "overlap": (
            [(1, 0), (0, 1)],
            {(): [g([(1, 0), (1, 2)]), g([(1, 1), (0, 1)])]},
            "lies in cells",
        ),
        "gap": (
            [(1, 0), (0, 1)],
            {(): [g([(1, 0), (1, 1)]), g([(1, 2), (0, 1)])]},
            "shared by 1 cells",
        ),
        # every wall is in two cells, but the middle cell folds back over
        # both neighbours: three cells cover the middle of the orthant
        "one side of a wall": (
            [(1, 0), (0, 1)],
            {(): [g([(1, 0), (1, 2)]), g([(2, 1), (1, 2)]), g([(2, 1), (0, 1)])]},
            "lie on one side of their wall",
        ),
        # the wall (d, e3) between x1 >= x2 and x2 >= x1 is split at (1, 1, 1)
        # on the second side only
        "T-junction": (
            [e1, e2, e3],
            {
                (): [
                    g([e1, d, e3]),
                    g([d, e2, (1, 1, 1)]),
                    g([(1, 1, 1), e2, e3]),
                ],
                (e1, e2): [g([e1, d]), g([d, e2])],
            },
            "shared by 1 cells",
        ),
    }


class TestBrokenFans:
    @pytest.mark.parametrize("case", list(_fan_cases()))
    def test_rejected_by_the_certificate_and_the_oracle(self, case):
        gens, fans_by_face, certificate_finds = _fan_cases()[case]
        cone = eg.cone_from_generators(gens, len(gens))
        cx, ids = complex_from_fan([cone], len(gens))
        # fans are keyed by the face's generators, () standing for the cone
        fans = {
            ids[eg.cone_from_generators(face or gens, len(gens)).rays]: fan
            for face, fan in fans_by_face.items()
        }
        sub = _assemble(cx, fans)
        assert _same_subdivision(sub, glue_fans_whole(cx, fans))
        assert any(certificate_finds in p for p in verify_subdivision(sub))
        assert verify_subdivision_pairwise(sub) != []
        assert check_verdicts(sub) == (False, False)
        with pytest.raises(eg.GeometryError, match="not well glued"):
            check_subdivision(sub)
        assert not sub._checked


def _random_covector(rng, r, bound=2):
    while True:
        w = tuple(rng.randint(-bound, bound) for _ in range(r))
        if any(w):
            return w


def _random_fan(rng, how):
    """An orthant of rank 2-4 and a fan of cells in it: the orthant sliced
    by one or two random covectors, then changed in one of three ways.
    "cut one" slices one cell by a covector (T-junctions where the cut meets
    a wall), "cut every" slices every cell by the same covector (a fan),
    "move" moves a ray of one cell by +-1 in one coordinate."""
    r = rng.choice((2, 3, 4))
    orthant = eg.cone_from_generators(la.identity_matrix(r), r)
    covectors = [_random_covector(rng, r) for _ in range(rng.randint(1, 2))]
    cells = subdivision._chambers(orthant, covectors)
    k = rng.randrange(len(cells))
    if how == "cut one":
        # a thin cell is sliced only by larger covectors
        bound = 2
        while not subdivision._slices(cells[k], w := _random_covector(rng, r, bound)):
            bound += 1
        cells[k : k + 1] = subdivision._chambers(cells[k], [w])
    elif how == "cut every":
        w = _random_covector(rng, r)
        cells = [p for c in cells for p in subdivision._chambers(c, [w])]
    else:
        rays = [list(x) for x in cells[k].rays]
        ray = rng.choice(rays)
        # a coordinate whose change does more than rescale the ray; the ray
        # stays in the orthant, since `_assemble` refuses a cell that leaves
        # its cone (see test_a_cell_that_leaves_its_cone_is_named)
        i = rng.choice([i for i in range(r) if any(ray[:i] + ray[i + 1 :])])
        ray[i] += 1 if ray[i] == 0 else rng.choice((-1, 1))
        cells[k] = eg.cone_from_generators([tuple(x) for x in rays], r)
    return orthant, cells


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_slices_matches_one_dot_per_ray(seed):
    """Whether a covector slices a cone, against one `la.dot` per ray; a
    covector of another width raises the ValueError `la.dot` raises on the
    pair, except on the zero cone, which has no rays."""
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    widths = [rank, rank, rank + 1] + ([rank - 1] if rank > 1 else [])
    for c in (random_cone(rng, rank, rng.randint(1, 4)), eg.zero_cone(rank)):
        for width in widths:
            w = tuple(rng.randint(-2, 2) for _ in range(width))
            try:
                want = slices_by_dot(c, w)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    subdivision._slices(c, w)
                assert str(got.value) == str(e)
            else:
                assert subdivision._slices(c, w) == want


def test_certificate_agrees_with_the_pairwise_oracle_on_random_fans():
    """Checks 2 and 3 of the wall certificate make maximal cells meet face
    to face, so the certificate passes a random fan exactly when the
    all-pairs oracle does."""
    rng = random.Random(2310)
    verdicts = []
    for k in range(150):
        orthant, cells = _random_fan(rng, ("cut one", "cut every", "move")[k % 3])
        cx, _ = complex_from_fan([orthant], orthant.ambient_rank)
        # every face of the orthant gets the cells that the fan puts on it
        closure = {f for c in cells for f in c.all_faces()}
        fans = {
            cid: [c for c in closure if c.dim == face.dim and face.contains_cone(c)]
            for cid, face in cx.cones.items()
        }
        sub = _assemble(cx, fans)
        passed = verify_subdivision(sub) == []
        assert passed == (verify_subdivision_pairwise(sub) == []), [c.rays for c in cells]
        verdicts.append(passed)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_a_cell_that_leaves_its_cone_is_named():
    """A fan cell poking out of its cone is a GeometryError naming both,
    not a KeyError from a face whose cells never held it."""
    g = eg.cone_from_generators
    cx, ids = complex_from_fan([g(la.identity_matrix(3), 3)], 3)
    top = ids[tuple(sorted(la.identity_matrix(3)))]
    cell = g([(1, 0, 0), (0, 1, 0), (0, -1, 1)])
    leaves = rf"cell .*\(0, -1, 1\).* cone {top} leaves"
    with pytest.raises(eg.GeometryError, match=leaves):
        _assemble(cx, {top: [cell]})


class TestTransportByRays:
    """`SubdivisionOf.transport` looks each part's owner up by the rays of
    the part's smallest face in its maximal cell; the scan it replaced
    (`oracles.transport_by_scan`) must find the same pieces."""

    @pytest.fixture
    def transports(self, monkeypatch):
        """Every (subdivision, subset, result) that transport gives while
        the test runs."""
        calls = []
        real = SubdivisionOf.transport

        def recording(sub, subset):
            calls.append((sub, subset, real(sub, subset)))
            return calls[-1][2]

        monkeypatch.setattr(SubdivisionOf, "transport", recording)
        return calls

    @staticmethod
    def _agree(calls):
        assert calls
        for sub, subset, got in calls:
            want = transport_by_scan(sub, subset)
            assert got.complex is want.complex is sub.refined
            assert got.pieces == want.pieces

    @staticmethod
    def _families(report, g, n, vectors, base, max_edges=None):
        # every family of the run, transported over its Γ: the run's own
        # union check reads the verdict refine_until_conical found
        assert report.all_passed
        cf = contact_families(g, n, vectors, max_edges, base)
        for family in cf.families.values():
            report.subdivision_data.transport(family)

    def test_worked_examples(self, transports):
        assert figure1_demo().all_passed
        base = build_moduli_complex(2, 2, 3)
        report = single_factor_run(2, 2, (3, -3), unimodularize=True, max_edges=3, base=base)
        self._families(report, 2, 2, [(3, -3)], base, max_edges=3)
        self._agree(transports)

    def test_criterion_three(self, transports):
        for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3)]:
            base = moduli_cached(g, n)
            for a1, a2 in combinations_with_replacement(contact_vectors(n, 2), 2):
                report = product_run(g, n, a1, a2, base=base)
                self._families(report, g, n, [a1, a2], base)
        self._agree(transports)

    def test_unimodular_m13(self, transports):
        base = moduli_cached(1, 3)
        for a in M13_VECTORS:
            report = single_factor_run(1, 3, a, unimodularize=True, base=base)
            self._families(report, 1, 3, [a], base)
        self._agree(transports)

    def test_a_part_on_no_cell_is_named(self, orthant3):
        cx, top = orthant3
        s = stellar_subdivide(cx, top, (1, 1, 1))
        diag = eg.cone_from_generators([(1, 1, 1)], 3)
        # the new ray is the owner of the diagonal; without it the scan
        # would settle for a larger cell
        s._cells_cache[top] = [c for c in s.cells_over(top) if c.cone != diag]
        with pytest.raises(eg.GeometryError, match=rf"part \(\(1, 1, 1\),\) of cone {top}"):
            s.transport(ConicalSubset(cx, ((top, diag),)))


class TestCheckedOnce:
    def test_a_checked_subdivision_is_not_checked_again(self, orthant3, monkeypatch):
        cx, top = orthant3
        step = stellar_subdivide(cx, top, (1, 1, 1))
        seen = []
        verify = subdivision.verify_subdivision
        monkeypatch.setattr(
            subdivision, "verify_subdivision", lambda s: seen.append(s) or verify(s)
        )
        assert check_subdivision(step) is step
        assert check_subdivision(step) is step
        assert seen == [step]

    def test_unimodular_run_checks_each_subdivision_once(self, monkeypatch):
        seen, steps = [], []
        verify = subdivision.verify_subdivision
        stellar = subdivision.stellar_subdivide
        monkeypatch.setattr(
            subdivision, "verify_subdivision", lambda s: seen.append(s) or verify(s)
        )
        monkeypatch.setattr(
            subdivision,
            "stellar_subdivide",
            lambda *a: steps.append(stellar(*a)) or steps[-1],
        )
        report = single_factor_run(1, 3, (3, 0, -3), unimodularize=True)
        assert report.all_passed
        assert steps, "the run unimodularizes by stellar steps"
        assert len({id(s) for s in seen}) == len(seen)
        assert not any(s is t for s in seen for t in steps)
        assert any(s is report.subdivision_data for s in seen)


def _two_quadrants():
    """The quadrants near, on e1 and e2, and beside, on e2 and -e1, with the
    fan that cuts near at (1, 1): beside is not touched."""
    g = eg.cone_from_generators
    near, beside = g([(1, 0), (0, 1)]), g([(0, 1), (-1, 0)])
    cx, ids = complex_from_fan([near, beside], 2)
    fans = {ids[near.rays]: [g([(1, 0), (1, 1)]), g([(1, 1), (0, 1)])]}
    return cx, ids, fans, ids[beside.rays]


def _broken_originals():
    """Subdivisions whose original is broken in the untouched cone beside,
    by name."""
    cx, ids, fans, beside = _two_quadrants()
    ray = lambda r: ids[(r,)]
    # a face map of the ray e1 that lands inside beside, on the ray (-1, 1),
    # which is no face of it
    inside = eg.LinearMap(((-1, 0), (1, 1)), 2, 2)
    misses = ConeComplex(cx.cones, cx.faces + ((ray((1, 0)), beside, inside),), cx.auts)
    # a shear fixing e2 that sends beside onto the cone on e2 and (-1, -1)
    shear = eg.LinearMap(((1, 0), (1, 1)), 2, 2)
    moves = ConeComplex(cx.cones, cx.faces, {**cx.auts, beside: cx.auts[beside] + (shear,)})
    out = {
        "face map misses its face": _assemble(misses, fans),
        "automorphism moves its cone": _assemble(moves, fans),
    }
    # _assemble refuses a cone with an unrepresented face, so the face map
    # of the ray -e1 into beside is taken from the original and its copy
    good = _assemble(cx, fans)
    dropped = [f for f in cx.faces if (f.sub, f.sup) == (ray((-1, 0)), beside)]
    copy_of = {rid: good.projection.assignments[rid][0] for rid in good.refined.ids()}
    kept = [
        f for f in good.refined.faces
        if (copy_of[f.sub], copy_of[f.sup]) != (ray((-1, 0)), beside)
    ]
    assert len(dropped) == 1 and len(kept) == len(good.refined.faces) - 1
    original = ConeComplex(cx.cones, [f for f in cx.faces if f not in dropped], cx.auts)
    refined = ConeComplex(good.refined.cones, kept, good.refined.auts)
    out["unrepresented face"] = SubdivisionOf(
        original,
        refined,
        ComplexMorphism(refined, original, good.projection.assignments),
        good.touched,
    )
    return beside, out


class TestBrokenOriginals:
    """An original that is broken in a cone the subdivision copies: the
    local check finds it in the original, the whole check in the copy or
    in the cells over it."""

    def test_the_unbroken_original_passes_both(self):
        cx, _, fans, beside = _two_quadrants()
        sub = _assemble(cx, fans)
        assert beside not in sub.touched
        assert check_verdicts(sub) == (True, True)

    @pytest.mark.parametrize(
        "case, problem",
        [
            ("face map misses its face", "does not land on a face"),
            ("automorphism moves its cone", "does not preserve the cone"),
            ("unrepresented face", "is not represented"),
        ],
    )
    def test_rejected_by_both_checks(self, case, problem):
        beside, subs = _broken_originals()
        sub = subs[case]
        assert beside not in sub.touched
        assert check_verdicts(sub) == (False, False)
        with pytest.raises(eg.GeometryError, match=problem):
            check_subdivision(sub)
        assert not sub._checked


class TestCheckedLocally:
    def test_a_composite_touches_what_its_steps_touch(self):
        # the first step cuts near; the second cuts the copy of beside, so
        # the composite touches beside, which the first step copied
        g = eg.cone_from_generators
        cx, ids, fans, beside = _two_quadrants()
        s1 = _assemble(cx, fans)
        copy = f"{beside}.0"
        s2 = stellar_subdivide(s1.refined, copy, (-1, 1))
        total = compose_subdivisions(s1, s2)
        owners = {s1.projection.assignments[rid][0] for rid in s2.touched}
        assert beside not in s1.touched and beside in owners
        assert total.touched == s1.touched | owners
        assert check_verdicts(total) == (True, True)
        # cells over beside that overlap are found by both checks
        overlap = [g([(0, 1), (-1, 1)]), g([(-1, 2), (-1, 0)])]
        broken = compose_subdivisions(s1, _assemble(s1.refined, {copy: overlap}))
        assert check_verdicts(broken) == (False, False)

    def test_a_sweep_validates_each_original_once(self, monkeypatch):
        # criterion 2's runs on a fresh M_{1,3}: every Γ subdivides the same
        # base, and every pullback a map complex of the sweep table
        base = build_moduli_complex(1, 3)
        checking, originals, scoped = [], [], []
        check, validate = subdivision.check_subdivision, subdivision.validate_complex

        def checked(sub):
            checking.append(sub)
            try:
                return check(sub)
            finally:
                checking.pop()

        def validated(cx, scope=None):
            sub = checking[-1]
            if scope is None:
                assert cx is sub.original
                originals.append(cx)
            else:
                assert cx is sub.refined
                scoped.append((sub, scope))
            return validate(cx, scope)

        monkeypatch.setattr(subdivision, "check_subdivision", checked)
        monkeypatch.setattr(subdivision, "validate_complex", validated)
        for vectors in lemma_inputs(3):
            assert run_contacts(1, 3, vectors, base=base).all_passed
        assert len({id(cx) for cx in originals}) == len(originals)
        assert any(cx is base.complex for cx in originals)
        for sub, scope in scoped:
            assert sorted(scope) == [
                rid for rid in sub.refined.ids()
                if sub.projection.assignments[rid][0] in sub.touched
            ]
        # most checks leave some cones out, and some check no refined cone
        assert sum(len(s.touched) < len(s.original.cones) for s, _ in scoped) > len(scoped) // 2
        assert any(not scope for _, scope in scoped)


# contact vectors of degree at most 3 on M_{1,3}, up to permuting the markings
M13_VECTORS = [
    (0, 0, 0), (1, 0, -1), (2, 0, -2), (2, -1, -1),
    (1, 1, -2), (3, 0, -3), (3, -1, -2), (2, 1, -3),
]


class TestCertificateAgainstOracle:
    """The wall certificate and the all-pairs oracle agree on the checked Γ
    and pullbacks of the unimodularized runs."""

    def _checked_in(self, monkeypatch, run):
        checked = []
        check = subdivision.check_subdivision
        monkeypatch.setattr(
            subdivision, "check_subdivision", lambda s: checked.append(s) or check(s)
        )
        report = run()
        assert report.all_passed
        assert any(s is report.subdivision_data for s in checked)
        return checked

    def _agree(self, subs):
        for sub in {id(s): s for s in subs}.values():
            assert verify_subdivision(sub) == []
            assert verify_subdivision_pairwise(sub) == []
            # the local check and the whole check pass it alike
            assert check_verdicts(sub) == (True, True)

    def test_genus_two_worked_example(self, monkeypatch):
        base = build_moduli_complex(2, 2, 3)
        checked = self._checked_in(
            monkeypatch,
            lambda: single_factor_run(
                2, 2, (3, -3), unimodularize=True, max_edges=3, base=base
            ),
        )
        assert len(checked) == 2  # Γ and the pullback of the map complex
        self._agree(checked)

    @pytest.mark.parametrize("a", M13_VECTORS)
    def test_unimodular_m13(self, a, monkeypatch):
        # a fresh base, so the run pulls its map complex back instead of
        # replaying verdicts that earlier tests left in a shared base's table
        base = build_moduli_complex(1, 3)
        self._agree(
            self._checked_in(
                monkeypatch,
                lambda: single_factor_run(1, 3, a, unimodularize=True, base=base),
            )
        )


def _orthant_quotient(maximal, group):
    """The coordinate subsets of the given maximal sets, as orthant cones,
    modulo a group of coordinate permutations (each a tuple, i -> p[i]).

    One cone per orbit, named by its smallest subset; automorphisms and
    face maps are the permutations that carry one subset into another.
    """
    subsets = {
        sub for top in maximal for k in range(len(top) + 1)
        for sub in combinations(top, k)
    }
    reps = sorted({min(tuple(sorted(p[i] for i in s)) for p in group) for s in subsets})
    name = lambda s: "s" + "".join(map(str, s))

    def inclusion(p, small, big):
        rows = [[0] * len(small) for _ in big]
        for j, i in enumerate(small):
            rows[big.index(p[i])][j] = 1
        return eg.LinearMap(tuple(map(tuple, rows)), len(small), len(big))

    cones, auts, faces = {}, {}, set()
    for big in reps:
        cones[name(big)] = eg.cone_from_generators(
            la.identity_matrix(len(big)), len(big)
        )
        for small in reps:
            for p in group:
                if not set(p[i] for i in small) <= set(big):
                    continue
                m = inclusion(p, small, big)
                if small == big:
                    auts.setdefault(name(big), []).append(m)
                else:
                    faces.add((name(small), name(big), m))
    return ConeComplex(cones, faces, auts)


class TestLocalAssembler:
    """The assembler, which glues only the touched cones, against the
    whole-complex glue of the oracle on every call a run makes: the glue of
    closed fans and of the chambers of closed arrangements alike."""

    def _calls(self, monkeypatch, run):
        calls = []
        glue = subdivision._glue

        def recorded(cx, cells):
            calls.append((cx, cells, glue(cx, cells)))
            return calls[-1][2]

        monkeypatch.setattr(subdivision, "_glue", recorded)
        run()
        assert calls
        return calls

    def _agree(self, calls):
        for cx, cells, sub in calls:
            assert _same_subdivision(sub, glue_fans_whole(cx, cells))

    def test_genus_two_worked_example(self, monkeypatch):
        base = build_moduli_complex(2, 2, 3)
        stellar, stars, runs = subdivision.stellar_subdivide, [], []
        monkeypatch.setattr(
            subdivision,
            "stellar_subdivide",
            lambda cx, cid, ray: stars.append(len(cx.cones)) or stellar(cx, cid, ray),
        )
        calls = self._calls(
            monkeypatch,
            lambda: runs.append(single_factor_run(
                2, 2, (3, -3), unimodularize=True, max_edges=3, base=base
            )),
        )
        self._agree(calls)
        # a stellar step of the chain is handed the star of its ray and the
        # star's faces, for most steps a small part of the refined complex
        size = len(runs[0].subdivision_data.refined.cones)
        assert len(stars) == 4 and max(stars) < size
        assert sum(n < size // 4 for n in stars) > len(stars) // 2

    @pytest.mark.parametrize("a", M13_VECTORS)
    def test_unimodular_m13(self, a, monkeypatch):
        base = build_moduli_complex(1, 3)
        self._agree(
            self._calls(
                monkeypatch,
                lambda: single_factor_run(1, 3, a, unimodularize=True, base=base),
            )
        )

    def test_criterion_two_m13(self, monkeypatch):
        # Γ and the pullbacks of criterion 2's inputs on M_{1,3}
        base = build_moduli_complex(1, 3)
        calls = self._calls(
            monkeypatch,
            lambda: [
                run_contacts(1, 3, vectors, base=base) for vectors in lemma_inputs(3)
            ],
        )
        self._agree(calls)

    def test_copies_beside_a_face_with_a_cyclic_group(self, monkeypatch):
        # two orthant cones on coordinates 0123 and 0124 modulo rotating
        # 0 -> 1 -> 2 -> 0: the face s012 has the automorphisms of Z/3, and
        # the first of them is a rotation, which is not its own inverse
        cycle = [(0, 1, 2, 3, 4), (1, 2, 0, 3, 4), (2, 0, 1, 3, 4)]
        cx = _orthant_quotient([(0, 1, 2, 3), (0, 1, 2, 4)], cycle)
        assert validate_complex(cx) == []
        first = cx.auts["s012"][0]
        assert first.compose(first) != eg.LinearMap.identity(3)
        assert _same_subdivision(_assemble(cx, {}), glue_fans_whole(cx, {}))
        # a stellar step at the centre of s0123 cuts s0123 alone; its face
        # s012 is touched, and s0124, which has the face s012, is copied
        fans_given = []
        assemble = subdivision._assemble
        monkeypatch.setattr(
            subdivision,
            "_assemble",
            lambda cx, fans: fans_given.append(fans) or assemble(cx, fans),
        )
        step = stellar_subdivide(cx, "s0123", (1, 1, 1, 1))
        touched = subdivision._closure_of_fans(cx, fans_given[0])
        assert "s012" in touched and "s0124" not in touched
        assert _same_subdivision(step, glue_fans_whole(cx, fans_given[0]))
        assert check_subdivision(step) is step

    def test_automorphisms_complete_a_fan(self):
        # the orthant modulo swapping its coordinates, given one half
        cx = _orthant_quotient([(0, 1)], [(0, 1), (1, 0)])
        fans = {"s01": [eg.cone_from_generators([(1, 0), (1, 1)])]}
        sub = _assemble(cx, fans)
        assert _same_subdivision(sub, glue_fans_whole(cx, fans))
        assert len(check_subdivision(sub).max_cells_over("s01")) == 2

    def test_a_cut_face_of_an_uncut_cone_is_refused(self):
        g = eg.cone_from_generators
        cone = g(la.identity_matrix(3), 3)
        face = g([(1, 0, 0), (0, 1, 0)], 3)
        cx, ids = complex_from_fan([cone], 3)
        halves = [g([(1, 0, 0), (1, 1, 0)], 3), g([(1, 1, 0), (0, 1, 0)], 3)]
        with pytest.raises(eg.GeometryError, match="is cut, but cone"):
            _assemble(cx, {ids[face.rays]: halves})
        # gluing every cone builds it, and the check refuses it
        with pytest.raises(eg.GeometryError, match="not well glued"):
            check_subdivision(glue_fans_whole(cx, {ids[face.rays]: halves}))

    def test_stellar_step_visits_only_the_star(self, monkeypatch):
        # three quadrants of the plane: the ray (1, 1) lies inside the first,
        # the second shares the ray (0, 1) with it and the third only the apex
        g = eg.cone_from_generators
        near, beside, far = (
            g([(1, 0), (0, 1)]), g([(0, 1), (-1, 0)]), g([(-1, 0), (0, -1)])
        )
        cx, ids = complex_from_fan([near, beside, far], 2)
        star_faces = {ids[c.rays] for c in near.all_faces()}
        searched, fans_given, pulled, closed = [], [], [], []
        embeddings_into = ConeComplex.embeddings_into
        assemble = subdivision._assemble
        pull = subdivision.pull_back_cone
        closure = subdivision._closure_of_fans

        def search(cx, cid):
            if not fans_given:
                searched.append(cid)
            return embeddings_into(cx, cid)

        monkeypatch.setattr(ConeComplex, "embeddings_into", search)
        monkeypatch.setattr(
            subdivision,
            "_assemble",
            lambda cx, fans: fans_given.append(fans) or assemble(cx, fans),
        )
        monkeypatch.setattr(
            subdivision,
            "pull_back_cone",
            lambda m, src, c: pulled.append(src) or pull(m, src, c),
        )
        monkeypatch.setattr(
            subdivision,
            "_closure_of_fans",
            lambda cx, fans: closed.append(closure(cx, fans)) or closed[-1],
        )
        step = stellar_subdivide(cx, ids[near.rays], (1, 1))
        # copies of the ray are looked for in the star of its host alone
        assert set(searched) == {ids[near.rays]}
        assert list(fans_given[0]) == [ids[near.rays]]
        # closure and ownership work on the star and its faces only
        assert set(closed[0]) == star_faces
        assert pulled and set(pulled) <= {cx.cones[c] for c in star_faces}
        # the other cones are copied, and only the glued ones are touched
        assert step.touched == star_faces
        assert step.refined.cones[ids[beside.rays] + ".0"] == beside
        assert step.refined.cones[ids[far.rays] + ".0"] == far
        assert len(step.max_cells_over(ids[near.rays])) == 2
        assert _same_subdivision(step, glue_fans_whole(cx, fans_given[0]))
        assert check_subdivision(step) is step


def _chain_input(monkeypatch, run):
    """The subdivision that a run hands to `_unimodularize`."""
    given = []
    unimodularize = subdivision._unimodularize
    monkeypatch.setattr(
        subdivision, "_unimodularize", lambda sub: given.append(sub) or unimodularize(sub)
    )
    run()
    assert len(given) == 1
    return given[0]


def _whole_cone_cell(step, cid):
    """The refined id over the original cone cid whose cone is all of cid."""
    cone = step.original.cones[cid]
    return next(r for r in step.refined_over(cid) if step.refined.cones[r] == cone)


class TestCopies:
    """A stellar step copies each untouched cone cid as cid.0."""

    def test_a_copy_takes_the_first_automorphism_of_each_face(self, monkeypatch):
        # the face map of a copy for the face F is the embedding that stands
        # for F composed with the inverse of the first automorphism of its
        # source, which is often not the identity
        sub = _chain_input(
            monkeypatch,
            lambda: single_factor_run(
                2, 2, (3, -3), unimodularize=True, max_edges=3,
                base=build_moduli_complex(2, 2, 3),
            ),
        )
        _, steps = unimodularize_whole(sub)
        assert len(steps) == 4
        twisted = 0
        for _, _, step in steps:
            cx = step.original
            for cid in cx.ids():
                if cid in step.touched:
                    continue
                expected = set()
                for face in cx.cones[cid].proper_faces():
                    emb = cx.embedding_onto(cid, face)
                    m = emb.map.compose(eg.inverse(cx.auts[emb.src][0]))
                    expected.add((_whole_cone_cell(step, emb.src), m.matrix))
                copy = step.refined.face_maps_into(f"{cid}.0")
                assert {(f.sub, f.map.matrix) for f in copy} == expected
                assert step.refined.auts[f"{cid}.0"] == cx.auts[cid]
                before = {f.map.matrix for f in cx.face_maps_into(cid)}
                twisted += any(f.map.matrix not in before for f in copy)
        assert twisted > 0

    @pytest.mark.parametrize(
        "bad, problems",
        [
            # twice the swap of the two rays fixes the cone but is no
            # lattice automorphism
            (((0, -2), (-2, 0)), ["is not invertible over the lattice"]),
            # a shear that moves the cone
            (((1, 0), (1, 1)), ["does not preserve the cone"]),
        ],
    )
    def test_a_bad_automorphism_of_an_untouched_cone(self, bad, problems):
        # the copy's group is the original's whenever its elements fix the
        # cone, and the refusal names the original's problems alone
        cx, _, fans, beside = _two_quadrants()
        g = eg.LinearMap(bad, 2, 2)
        broken = ConeComplex(cx.cones, cx.faces, {**cx.auts, beside: cx.auts[beside] + (g,)})
        sub = _assemble(broken, fans)
        assert beside not in sub.touched
        if eg.image_cone(g, cx.cones[beside]) == cx.cones[beside]:
            assert sub.refined.auts[f"{beside}.0"] == broken.auts[beside]
        found = validate_complex(broken)
        assert all(any(p in f for f in found) for p in problems)
        with pytest.raises(eg.GeometryError) as info:
            check_subdivision(sub)
        assert str(info.value) == "subdivision is not well glued: " + "; ".join(found)


_id_head = st.builds(
    lambda head, n: f"{head}{n}", st.sampled_from("GTcs"), st.integers(0, 120)
)
_assembled_id = st.builds(
    lambda head, tail: head + "".join(f".{k}" for k in tail),
    _id_head,
    st.lists(st.integers(0, 14), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), _assembled_id), max_size=40), st.integers(1, 4))
def test_copy_ids_keep_the_dimension_id_order(keys, steps):
    # a step renames every untouched cone cid to cid.0; on ids made of
    # letters, digits and dots, '.' sorts before every other character, so
    # the (dimension, id) order of the copies is the order of the originals
    suffix = ".0" * steps
    assert sorted((d, i + suffix) for d, i in keys) == [
        (d, i + suffix) for d, i in sorted(keys)
    ]


def test_closed_arrangements_need_no_closure_rounds(ladder):
    """Every hyperplane refinement the benchmark's inputs make, those of the
    unimodularized M_{1,3} runs among them, against the same chambers closed
    again by the automorphism and pullback rounds."""
    cut = 0
    for cx, covectors, sub in ladder.hyperplanes:
        again = hyperplane_refine_by_fixpoint(cx, covectors)
        assert _same_subdivision(sub, again) and sub.touched == again.touched
        cut += bool(sub.touched)
    assert cut > 10


def _frame(cone):
    """A cone with the frame its lattice lifts read."""
    return cone, cone.span_basis


def test_unimodularization_takes_the_whole_complex_steps(ladder):
    """Every unimodularization the benchmark's inputs make (the worked
    example and the M_{1,3} runs) against the whole-complex steps: the cone
    and ray of each step, the cells each step glues, and the composite."""
    taken = 0
    for sub, result, steps in ladder.chains:
        whole, whole_steps = unimodularize_whole(sub)
        assert [s[:2] for s in steps] == [s[:2] for s in whole_steps]
        for (_, _, star), (_, _, step) in zip(steps, whole_steps):
            # the step is handed every cone the whole step glues, and glues
            # each as the whole step does
            assert step.touched <= set(star.original.cones)
            for cid in star.original.ids():
                assert list(star.refined_over(cid)) == list(step.refined_over(cid))
                for rid in star.refined_over(cid):
                    assert _frame(star.refined.cones[rid]) == _frame(step.refined.cones[rid])
                    assert star.refined.auts[rid] == step.refined.auts[rid]
                    assert star.refined.face_maps_into(rid) == step.refined.face_maps_into(rid)
        assert result.refined.to_json() == whole.refined.to_json()
        assert all(
            _frame(cone) == _frame(whole.refined.cones[rid])
            for rid, cone in result.refined.cones.items()
        )
        assert result.projection.to_json() == whole.projection.to_json()
        assert result.original is whole.original and result.touched == whole.touched
        taken += len(steps)
    assert taken > 10


class TestBoxPoint:
    """The box point from one Smith factorisation against the scan of every
    rational combination."""

    def _random_simplicial(self, rng, max_index):
        while True:
            d = rng.randint(1, 3)
            ambient = rng.randint(d, 4)
            rays = [tuple(rng.randint(-4, 4) for _ in range(ambient)) for _ in range(d)]
            if la.rank(rays) < d:
                continue
            cone = eg.cone_from_generators(rays, ambient)
            if cone.is_simplicial() and cone.lattice_index() <= max_index:
                return cone

    def test_matches_the_scan(self):
        rng = random.Random(3030)
        indices = set()
        for _ in range(60):
            cone = self._random_simplicial(rng, 30)
            indices.add(cone.lattice_index())
            assert _parallelepiped_interior_point(cone) == (
                parallelepiped_interior_point_scan(cone)
            )
        assert max(indices) >= 20 and 1 in indices

    def test_index_thirty_is_fast(self):
        import time

        cone = eg.cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 2, 30)], 3)
        assert cone.lattice_index() == 30
        t0 = time.perf_counter()
        point = _parallelepiped_interior_point(cone)
        elapsed = time.perf_counter() - t0
        assert point == parallelepiped_interior_point_scan(cone)
        assert elapsed < 0.05
