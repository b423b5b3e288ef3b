import pytest
from conftest import lemma_inputs, moduli_cached
from oracles import (
    embedding_onto_scan,
    face_maps_into_scan,
    face_maps_out_of_scan,
    validate_complex_loops,
    validate_morphism_loops,
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
from tropgeom.curves import build_moduli_complex
from tropgeom.pipeline import run_contacts, single_factor_run


@pytest.fixture
def orthant3():
    cone = eg.cone_from_generators(la.identity_matrix(3), 3)
    cx, ids = complex_from_fan([cone], 3)
    return cx, ids, ids[cone.rays]


def test_single_orthant_with_faces_is_valid(orthant3):
    cx, _, _ = orthant3
    assert validate_complex_loops(cx) == []
    assert len(cx.cones) == 8


def test_missing_zero_cone_is_a_violation():
    cone = eg.cone_from_generators([(1,)], 1)
    cx = ConeComplex({"r": cone}, [])
    problems = validate_complex(cx)
    assert any("not represented" in p for p in problems)


def test_theta_fragment_with_symmetry_is_valid():
    from tropgeom.curves import DualGraph, build_complex_from_graphs

    theta = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
    frag = build_complex_from_graphs([theta])
    assert validate_complex_loops(frag.complex) == []
    tid = frag.id_of(theta)
    assert len(frag.complex.auts[tid]) == 6


def test_aut_group_closure_violation():
    cone = eg.cone_from_generators([(1, 0), (0, 1)])
    shear = eg.LinearMap(((1, 1), (0, 1)), 2, 2)
    cx, ids = complex_from_fan([cone], 2)
    bad = ConeComplex(cx.cones, cx.faces, {ids[cone.rays]: [shear]})
    problems = validate_complex(bad)
    assert any("does not preserve" in p for p in problems)


def test_symmetric_orthant_stores_one_ray_orbit():
    # with the swap automorphism the two axis rays are a single cone id
    top = eg.cone_from_generators([(1, 0), (0, 1)])
    ray = eg.cone_from_generators([(1,)], 1)
    zero = eg.zero_cone(0)
    swap = eg.LinearMap(((0, 1), (1, 0)), 2, 2)
    cx = ConeComplex(
        {"top": top, "ray": ray, "zero": zero},
        [
            ("ray", "top", eg.LinearMap(((1,), (0,)), 1, 2)),
            ("ray", "top", eg.LinearMap(((0,), (1,)), 1, 2)),
            ("zero", "top", eg.LinearMap(((), ()), 0, 2)),
            ("zero", "ray", eg.LinearMap(((),), 0, 1)),
        ],
        {"top": [swap]},
    )
    assert validate_complex_loops(cx) == []
    cells = cx.cells_inside("top")
    assert sorted(c.cone.rays for c in cells) == [
        (),
        ((0, 1),),
        ((1, 0),),
        ((1, 0), (0, 1)),
    ] or len(cells) == 4


def test_union_of_cones_trivial_face(orthant3):
    cx, ids, top = orthant3
    face = eg.cone_from_generators([(1, 0, 0), (0, 1, 0)], 3)
    subset = ConicalSubset(cx, ((top, face),))
    assert is_union_of_cones(cx, subset).ok


def test_union_of_cones_diagonal_fails_with_witness(orthant3):
    cx, ids, top = orthant3
    diag = eg.cone_from_generators([(1, 1, 1)], 3)
    subset = ConicalSubset(cx, ((top, diag),))
    chk = is_union_of_cones(cx, subset)
    assert not chk.ok
    host, piece, point = chk.witnesses[0]
    assert host == top
    assert piece.contains_in_relint(point)
    for emb in cx.cells_inside(top):
        if piece.contains_cone(emb.cone):
            assert not emb.cone.contains(point)


def test_morphism_validation_and_semistability(orthant3):
    cx, ids, top = orthant3
    ray = eg.cone_from_generators([(1,)], 1)
    rcx, rids = complex_from_fan([ray], 1)
    rtop = rids[ray.rays]
    incl = eg.LinearMap(((1,), (1,), (1,)), 1, 3)
    phi = ComplexMorphism(
        rcx, cx, {rtop: (top, incl), rids[()]: (ids[()], incl)}
    )
    assert validate_morphism(phi) == []
    results = {r.source: r for r in check_weak_semistable(phi)}
    assert not results[rtop].image_is_cone
    assert results[rtop].lattice_onto
    assert results[rtop].witness == (1, 1, 1)

    doubling = ComplexMorphism(
        rcx,
        rcx,
        {rtop: (rtop, eg.LinearMap(((2,),), 1, 1)), rids[()]: (rids[()], eg.LinearMap(((2,),), 1, 1))},
    )
    results = {r.source: r for r in check_weak_semistable(doubling)}
    assert results[rtop].image_is_cone
    assert not results[rtop].lattice_onto


def test_identity_morphism_passes(orthant3):
    cx, _, _ = orthant3
    phi = ComplexMorphism(
        cx, cx, {cid: (cid, eg.LinearMap.identity(3)) for cid in cx.ids()}
    )
    assert validate_morphism(phi) == []
    assert all(r.image_is_cone and r.lattice_onto for r in check_weak_semistable(phi))


def test_complex_json_roundtrip(orthant3):
    cx, _, _ = orthant3
    data = cx.to_json()
    back = ConeComplex.from_json(data)
    assert back.to_json() == data
    assert validate_complex(back) == []


# ---------------------------------------------------------------------------
# the face indexes and validators against the scans and loops they replaced

STABLE_RANGE = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]
M13_VECTORS = [
    (0, 0, 0), (1, 0, -1), (2, 0, -2), (2, -1, -1),
    (1, 1, -2), (3, 0, -3), (3, -1, -2), (2, 1, -3),
]


@pytest.fixture(scope="module")
def criterion_two_complexes():
    """The criterion 2 bases, their Γ and the unimodularized M_{1,3}
    refinements: (complexes, subdivisions)."""
    subs = {}
    for g, n in STABLE_RANGE:
        for vectors in lemma_inputs(n):
            sub = run_contacts(g, n, vectors, base=moduli_cached(g, n)).subdivision_data
            subs[id(sub)] = sub
    base = build_moduli_complex(1, 3)
    for a in M13_VECTORS:
        sub = single_factor_run(1, 3, a, unimodularize=True, base=base).subdivision_data
        subs[id(sub)] = sub
    subs = list(subs.values())
    complexes = [moduli_cached(g, n).complex for g, n in STABLE_RANGE]
    return complexes + [s.refined for s in subs], subs


def test_embedding_onto_is_the_first_scanned_embedding(criterion_two_complexes):
    complexes, _ = criterion_two_complexes
    for cx in complexes:
        for cid, cone in cx.cones.items():
            for face in cone.all_faces():
                assert cx.embedding_onto(cid, face) == embedding_onto_scan(cx, cid, face)
            assert cx.cells_inside(cid) == sorted(
                (e for e in cx.embeddings_into(cid)
                 if embedding_onto_scan(cx, cid, e.cone) == e),
                key=lambda e: (e.cone.dim, e.cone.rays),
            )


def test_face_map_indexes_match_the_scans(criterion_two_complexes):
    complexes, _ = criterion_two_complexes
    key = lambda f: (f.sub, f.sup, f.map.matrix)
    for cx in complexes:
        assert len(set(cx.faces)) == len(cx.faces)
        assert list(cx.faces) == sorted(cx.faces, key=key)
        assert cx.to_json()["faces"] == [
            [f.sub, f.sup, [list(r) for r in f.map.matrix]]
            for f in sorted(cx.faces, key=key)
        ]
        for cid in cx.ids():
            assert list(cx.face_maps_into(cid)) == face_maps_into_scan(cx, cid)
            assert list(cx.face_maps_out_of(cid)) == face_maps_out_of_scan(cx, cid)


def test_validators_match_the_loops(criterion_two_complexes):
    complexes, subs = criterion_two_complexes
    for cx in complexes:
        assert validate_complex(cx) == validate_complex_loops(cx) == []
    for sub in subs:
        phi = sub.projection
        assert validate_morphism(phi) == validate_morphism_loops(phi) == []


def _without_a_composite():
    # the orthant of the plane without the face map from the apex to the top
    top = eg.cone_from_generators([(1, 0), (0, 1)])
    cx, ids = complex_from_fan([top], 2)
    faces = [f for f in cx.faces if (f.sub, f.sup) != (ids[()], ids[top.rays])]
    return ConeComplex(cx.cones, faces, cx.auts), None


def _an_automorphism_moves_a_face_map():
    # the swap of the orthant's rays, with a face map onto one ray only
    swap = eg.LinearMap(((0, 1), (1, 0)), 2, 2)
    cx = ConeComplex(
        {
            "top": eg.cone_from_generators([(1, 0), (0, 1)]),
            "ray": eg.cone_from_generators([(1,)], 1),
            "zero": eg.zero_cone(0),
        },
        [
            ("ray", "top", eg.LinearMap(((1,), (0,)), 1, 2)),
            ("zero", "top", eg.LinearMap(((), ()), 0, 2)),
            ("zero", "ray", eg.LinearMap(((),), 0, 1)),
        ],
        {"top": [swap]},
    )
    return cx, None


def _a_face_map_from_an_unknown_cone():
    # a ray and its apex, with one more face map into the ray from an id that
    # is not a cone of the complex
    zero = eg.LinearMap(((),), 0, 1)
    cx = ConeComplex(
        {"a": eg.cone_from_generators([(1,)], 1), "z": eg.zero_cone(0)},
        [("z", "a", zero), ("q", "a", zero)],
    )
    return cx, None


def _a_face_map_of_the_wrong_shape():
    # a ray and its apex, with one more map from the ray into itself that
    # lands in the plane
    into_plane = eg.LinearMap(((1,), (0,)), 1, 2)
    cx = ConeComplex(
        {"a": eg.cone_from_generators([(1,)], 1), "z": eg.zero_cone(0)},
        [("z", "a", eg.LinearMap(((),), 0, 1)), ("a", "a", into_plane)],
    )
    return cx, None


def _a_morphism_breaks_a_face_map():
    # the identity of the plane's orthant, except that the swap sends one ray
    # onto the other, where the top cone's identity keeps it
    top = eg.cone_from_generators([(1, 0), (0, 1)])
    cx, ids = complex_from_fan([top], 2)
    ident, swap = eg.LinearMap.identity(2), eg.LinearMap(((0, 1), (1, 0)), 2, 2)
    assignments = {cid: (cid, ident) for cid in cx.ids()}
    assignments[ids[((1, 0),)]] = (ids[((0, 1),)], swap)
    return cx, ComplexMorphism(cx, cx, assignments)


@pytest.mark.parametrize(
    "make, problem",
    [
        (_without_a_composite, "composite face map"),
        (_an_automorphism_moves_a_face_map, "outside the face set"),
        (_a_face_map_from_an_unknown_cone, "references unknown cones"),
        (_a_face_map_of_the_wrong_shape, "wrong matrix shape"),
        (_a_morphism_breaks_a_face_map, "incompatible with the face map"),
    ],
    ids=[
        "missing composite",
        "automorphism moves a face map",
        "unknown cone",
        "wrong shape",
        "incompatible morphism",
    ],
)
def test_broken_complexes_are_flagged_by_both(make, problem):
    cx, phi = make()
    if phi is None:
        # the library checks a complex shallowly; the deep checks (composites
        # and automorphisms of face maps) are the oracle's alone
        assert validate_complex(cx) == validate_complex_loops(cx, deep=False)
        found = validate_complex_loops(cx)
    else:
        found = validate_morphism(phi)
        assert found == validate_morphism_loops(phi)
    assert any(problem in p for p in found)


@pytest.mark.parametrize(
    "make, problem",
    [
        (_a_face_map_from_an_unknown_cone, "face map q->a references unknown cones"),
        (_a_face_map_of_the_wrong_shape, "face map a->a has wrong matrix shape"),
    ],
    ids=["unknown cone", "wrong shape"],
)
def test_a_malformed_face_map_is_reported_at_both_depths(make, problem):
    cx, _ = make()
    assert validate_complex(cx) == validate_complex_loops(cx) == [problem]
