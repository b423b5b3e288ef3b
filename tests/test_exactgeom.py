import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cone
from oracles import (
    chambers_by_inequalities,
    compose_by_mat_mul,
    cone_from_generators_by_rank,
    cone_from_inequalities_by_generators,
    cone_frame_by_solves,
    contains_bruteforce,
    contains_by_dot,
    contains_in_relint_by_dot,
    face_at_by_dot,
    insert_halfspace_by_dot,
    is_face_of_by_minimal_face,
    minimal_face_containing_by_dot,
    extreme_rays_of_system_fraction,
    extreme_rays_of_system_pairs,
    face_at_by_generators,
    facets_bruteforce,
    pull_back_cone_by_generators,
    sample_points_fraction,
)
from tropgeom import complexes
from tropgeom import exactgeom as eg
from tropgeom import linalg as la
from tropgeom.complexes import complex_from_fan, pull_back_cone
from tropgeom.subdivision import _chambers, hyperplane_refine, soundness_sample


class TestConeFromGenerators:
    def test_gcd_reduction_of_orthant(self):
        c = eg.cone_from_generators([(2, 0), (0, 4)])
        assert c.rays == ((0, 1), (1, 0))

    def test_diagonal_ray_in_rank_3(self):
        c = eg.cone_from_generators([(1, 1, 1)], 3)
        assert c.rays == ((1, 1, 1),)
        assert c.dim == 1

    def test_redundant_middle_generator(self):
        c = eg.cone_from_generators([(1, 0), (1, 1), (0, 1)])
        assert c.rays == ((0, 1), (1, 0))

    def test_not_pointed(self):
        with pytest.raises(eg.NotPointed):
            eg.cone_from_generators([(1, 0), (-1, 0)])

    def test_rank_mismatch(self):
        with pytest.raises(eg.RankMismatch):
            eg.cone_from_generators([(1, 0), (1, 1, 0)])

    def test_roundtrip_random(self, rng):
        for _ in range(80):
            c = random_cone(rng, rng.randint(1, 4), rng.randint(1, 5))
            assert eg.cone_from_generators(c.rays, c.ambient_rank) == c


class TestDualDescription:
    def test_orthant(self):
        c = eg.cone_from_generators([(1, 0), (0, 1)])
        assert list(c.facets) == [(0, 1), (1, 0)]

    def test_one_dimensional_cone(self):
        c = eg.cone_from_generators([(1, 2)], 2)
        assert c.span_eqs == ((2, -1),)
        assert len(c.facets) == 1
        r = c.rays[0]
        assert la.dot(c.facets[0], r) > 0

    def test_three_dim_against_oracle(self):
        c = eg.cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1)])
        assert sorted(c.facets) == facets_bruteforce(c)

    def test_random_against_oracle(self, rng):
        for _ in range(60):
            c = random_cone(rng, rng.randint(1, 4), rng.randint(1, 5))
            assert sorted(c.facets) == facets_bruteforce(c)


class TestMembership:
    def test_duality_on_samples(self, rng):
        for _ in range(40):
            c = random_cone(rng, rng.randint(1, 4), rng.randint(1, 4))
            for p in eg.sample_points(c, 6, rng):
                assert c.contains(p)
            for _ in range(6):
                x = tuple(rng.randint(-5, 5) for _ in range(c.ambient_rank))
                assert c.contains(x) == contains_bruteforce(c, x)

    def test_zero_cone(self):
        z = eg.zero_cone(3)
        assert z.contains((0, 0, 0))
        assert not z.contains((1, 0, 0))
        assert z.is_face_of(eg.cone_from_generators([(1, 0, 0)], 3))
        # the zero cone of another rank is not a face
        for c in (eg.cone_from_generators([(1, 0)], 2), eg.cone_from_generators([(1, 0, 0, 0)], 4)):
            assert not z.is_face_of(c) and not is_face_of_by_minimal_face(z, c)

    @pytest.mark.parametrize(
        "gens, rank, inside, wrong",
        [([], 0, (), (1, 2)), ([(1, 0), (0, 1)], 2, (1, 1), (1, 1, 1))],
        ids=["rank zero cone", "plane cone"],
    )
    def test_relint_checks_the_point_rank(self, gens, rank, inside, wrong):
        c = eg.cone_from_generators(gens, rank)
        assert c.contains_in_relint(inside)
        for ask in (c.contains, c.contains_in_relint):
            with pytest.raises(eg.RankMismatch):
                ask(wrong)

    def test_covector_questions_match_one_dot_per_pair(self, rng):
        """Membership, relative interior, the face where covectors vanish and
        the smallest face holding a cone, against one `la.dot` per pair."""
        for _ in range(80):
            rank = rng.randint(1, 4)
            c = random_cone(rng, rank, rng.randint(1, 5))
            points = eg.sample_points(c, 3, rng) + [c.relint_point()]
            points += [
                tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(4)
            ]
            for x in points:
                assert c.contains(x) == contains_by_dot(c, x)
                assert c.contains_in_relint(x) == contains_in_relint_by_dot(c, x)
            for face in c.all_faces():
                assert c.minimal_face_containing(face) == face
                assert minimal_face_containing_by_dot(c, face) == face
                assert c.minimal_face_rays(face) == face.rays
                assert face.is_face_of(c)
            inside = rng.sample(c.rays, rng.randint(0, len(c.rays)))
            for sub in (
                eg.cone_from_generators(inside, rank),
                random_cone(rng, rank, rng.randint(1, 3)),
            ):
                want = minimal_face_containing_by_dot(c, sub)
                assert c.minimal_face_containing(sub) == want
                assert c.minimal_face_rays(sub) == want.rays
                assert sub.is_face_of(c) == is_face_of_by_minimal_face(sub, c)
            for covs in (
                rng.sample(c.facets, rng.randint(0, len(c.facets))),
                [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(2)],
            ):
                assert c.face_at(covs) == face_at_by_dot(c, covs)

    def test_covector_questions_keep_the_ragged_pair_error(self):
        """A covector or a cone of another rank raises the ValueError that
        `la.dot` raises on the pair, shorter and longer alike."""
        c = eg.cone_from_generators([(1, 0, 0), (0, 1, 0)], 3)
        g = eg.cone_from_generators
        smallest = c.minimal_face_containing
        cases = [
            (c.face_at, face_at_by_dot, [(1, 0)]),
            (c.face_at, face_at_by_dot, [(0, 0, 1), (1, 0, 0, 0)]),
            (smallest, minimal_face_containing_by_dot, g([(1, 1)])),
            (smallest, minimal_face_containing_by_dot, g([(1, 0, 0, 1)])),
            (c.minimal_face_rays, minimal_face_containing_by_dot, g([(1, 1)])),
            (c.minimal_face_rays, minimal_face_containing_by_dot, g([(1, 0, 0, 1)])),
        ]
        for ask, oracle, arg in cases:
            with pytest.raises(ValueError) as want:
                oracle(c, arg)
            with pytest.raises(ValueError) as got:
                ask(arg)
            assert str(got.value) == str(want.value)


def _value_or_message(call):
    """The value of call(), or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as e:
        return ("raised", str(e))


def _raised(outcome):
    return isinstance(outcome, tuple) and outcome[:1] == ("raised",)


def _other_width(rng, rank):
    """A width other than rank, shorter or longer."""
    return rng.choice([w for w in (rank - 1, rank + 1) if w > 0])


def _index_sets(state):
    """A double description state with its zero sets read as index sets:
    bit k of an integer zero set is index k of a frozenset one."""
    if _raised(state):
        return state
    lin, rays = state
    as_set = lambda zs: zs if isinstance(zs, frozenset) else frozenset(
        k for k in range(zs.bit_length()) if zs >> k & 1
    )
    return lin, [[r, as_set(zs)] for r, zs in rays]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_double_description_step_matches_one_dot_per_pair(seed):
    """Each insertion step against one `la.dot` per pair on frozenset zero
    sets, on the states the insertion itself reaches, the zero sets compared
    as index sets; a constraint of another width raises the ValueError
    `la.dot` raises on the first pair, or nothing on an empty state."""
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    vector = lambda width: tuple(rng.randint(-2, 2) for _ in range(width))
    eqns = tuple(vector(rank) for _ in range(rng.randint(0, 2)))
    ineqs = [vector(rank) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.4:
        ineqs.insert(rng.randint(0, len(ineqs)), vector(_other_width(rng, rank)))
    lin, rays = la.kernel_basis(eqns, rank), []
    old_rays = []
    for index, a in enumerate(ineqs):
        want = _value_or_message(lambda: insert_halfspace_by_dot(lin, old_rays, a, index))
        got = _value_or_message(lambda: eg._insert_halfspace(lin, rays, a, index))
        assert _index_sets(got) == want
        if _raised(want):
            break
        lin, rays = got
        old_rays = want[1]


def test_double_description_step_excludes_the_pair_by_position():
    """p and q lie on the same constraints; n lies on another.  Every ray
    vanishes on what p and n share (nothing), so q, at another position
    with p's zero set, makes the pair (p, n) non-adjacent, and p does the
    same for (q, n): the cut adds no ray.  Excluding by value would skip q
    along with p and combine p with n."""
    p, q, n = (1, 0, 0), (1, 1, 0), (-1, 0, 1)
    a = (1, 0, 0)
    rays = [[p, 0b01], [q, 0b01], [n, 0b10]]
    old_rays = [[p, frozenset({0})], [q, frozenset({0})], [n, frozenset({1})]]
    got = eg._insert_halfspace([], rays, a, 2)
    assert got == ([], [[p, 0b01], [q, 0b01]])
    assert _index_sets(got) == insert_halfspace_by_dot([], old_rays, a, 2)


def test_double_description_step_keeps_the_ragged_pair_error():
    lin = la.kernel_basis((), 3)
    rays = [[(1, 0, 0), 0]]
    for state in ((lin, []), ([], rays), (lin[1:], rays)):
        for a in ((1, 0), (1, 0, 0, 1)):
            with pytest.raises(ValueError) as want:
                insert_halfspace_by_dot(*state, a, 0)
            with pytest.raises(ValueError) as got:
                eg._insert_halfspace(*state, a, 0)
            assert str(got.value) == str(want.value)
    # an empty state has no pair to raise on
    assert eg._insert_halfspace([], [], (1, 0), 0) == ([], [])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_subcone_of_another_rank_keeps_the_ragged_pair_error(seed):
    """`minimal_face_containing` compares the two ranks: a subcone of
    another rank raises the ValueError of one `la.dot` per pair, and the
    zero cone, which has no facets, and a subcone without rays raise none."""
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    other = _other_width(rng, rank)

    def nonzero_cone(width):
        while not (c := random_cone(rng, width, rng.randint(1, 3))).rays:
            pass
        return c

    cones = [nonzero_cone(rank), eg.zero_cone(rank)]
    subs = [nonzero_cone(other), eg.zero_cone(other)]
    raised = 0
    for c in cones:
        for sub in subs:
            want = _value_or_message(lambda: minimal_face_containing_by_dot(c, sub))
            assert _value_or_message(lambda: c.minimal_face_containing(sub)) == want
            raised += _raised(want)
    assert raised == 1


class TestIntersect:
    def test_idempotent_on_orthant(self):
        c = eg.cone_from_generators([(1, 0), (0, 1)])
        assert eg.intersect(c, c) == c

    def test_diagonal_meets_face_in_zero(self):
        diag = eg.cone_from_generators([(1, 1, 1)], 3)
        face = eg.cone_from_generators([(1, 0, 0), (0, 1, 0)], 3)
        assert eg.intersect(diag, face).is_zero()

    def test_two_wedges_share_a_ray(self):
        a = eg.cone_from_generators([(1, 0), (1, 1)])
        b = eg.cone_from_generators([(1, 1), (0, 1)])
        assert eg.intersect(a, b).rays == ((1, 1),)

    def test_commutative_associative(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_cone(rng, n, rng.randint(1, 4))
            b = random_cone(rng, n, rng.randint(1, 4))
            c = random_cone(rng, n, rng.randint(1, 4))
            assert eg.intersect(a, b) == eg.intersect(b, a)
            assert eg.intersect(eg.intersect(a, b), c) == eg.intersect(
                a, eg.intersect(b, c)
            )


class TestImageCone:
    def test_identity(self):
        c = eg.cone_from_generators([(1, 0), (0, 1)])
        assert eg.image_cone(eg.LinearMap.identity(2), c) == c

    def test_projection_of_orthant(self):
        c = eg.cone_from_generators(la.identity_matrix(3), 3)
        f = eg.LinearMap(((1, 0, 0), (0, 1, 0)), 3, 2)
        assert eg.image_cone(f, c) == eg.cone_from_generators([(1, 0), (0, 1)])

    def test_chain_merge_map(self):
        f = eg.LinearMap(((1, 1),), 2, 1)
        c = eg.cone_from_generators([(1, 0), (0, 1)])
        assert eg.image_cone(f, c).rays == ((1,),)

    def test_set_image_on_samples(self, rng):
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            c = random_cone(rng, n, rng.randint(1, 4))
            mat = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m))
            f = eg.LinearMap(mat, n, m)
            try:
                img = eg.image_cone(f, c)
            except eg.NotPointed:
                continue
            for p in eg.sample_points(c, 5, rng):
                assert img.contains(f.apply(p))


class TestUnimodular:
    def test_orthant(self):
        assert eg.is_unimodular(eg.cone_from_generators(la.identity_matrix(3), 3))

    def test_index_two(self):
        assert not eg.is_unimodular(eg.cone_from_generators([(1, 0), (1, 2)]))

    def test_zero_cone(self):
        assert eg.is_unimodular(eg.zero_cone(4))

    def test_matches_determinant_on_full_rank_simplicial(self, rng):
        for _ in range(50):
            n = rng.randint(1, 4)
            c = random_cone(rng, n, n)
            if len(c.rays) != n or c.dim != n:
                continue
            index = abs(int(sympy.Matrix([list(r) for r in c.rays]).det()))
            assert c.lattice_index() == index
            assert eg.is_unimodular(c) == (index == 1)


class TestLatticeSurjective:
    def test_identity(self):
        c = eg.cone_from_generators([(1, 0), (0, 1)])
        assert eg.lattice_surjective(eg.LinearMap.identity(2), c)

    def test_multiplication_by_two(self):
        r = eg.cone_from_generators([(1,)], 1)
        assert not eg.lattice_surjective(eg.LinearMap(((2,),), 1, 1), r)

    def test_sum_map_on_orthant(self):
        c = eg.cone_from_generators(la.identity_matrix(3), 3)
        assert eg.lattice_surjective(eg.LinearMap(((1, 1, 1),), 3, 1), c)

    def test_against_smith_form_oracle(self, rng):
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        for _ in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            c = random_cone(rng, n, rng.randint(1, 3))
            mat = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m))
            f = eg.LinearMap(mat, n, m)
            try:
                img = eg.image_cone(f, c)
            except eg.NotPointed:
                continue
            got = eg.lattice_surjective(f, c)
            # oracle: the map between span lattices in sympy's smith form
            b1, b2 = c.span_basis, img.span_basis
            if not b2:
                assert got
                continue
            cols = [la.lattice_coords(b2, f.apply(v)) for v in b1]
            sm = sympy.Matrix([list(col) for col in cols]).T
            d = sympy_snf(sm)
            diag = [abs(d[i, i]) for i in range(min(d.shape))]
            nonzero = [x for x in diag if x != 0]
            assert got == (len(nonzero) == len(b2) and all(x == 1 for x in nonzero))


@st.composite
def small_cones(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=-3, max_value=3)] * rank),
            min_size=1,
            max_size=4,
        )
    )
    return rank, gens


@settings(max_examples=120, deadline=None)
@given(small_cones())
def test_duality_property(data):
    rank, gens = data
    try:
        c = eg.cone_from_generators(gens, rank)
    except eg.NotPointed:
        return
    assert sorted(c.facets) == facets_bruteforce(c)
    assert eg.cone_from_generators(c.rays, rank) == c
    for g in gens:
        assert c.contains(g)


def _frame(cone):
    return cone.span_basis, cone.span_eqs, cone.facets


def _fresh_cone(gens, rank):
    """cone_from_generators on an empty cone cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eg, "_cone_cache", {})
        return eg.cone_from_generators(gens, rank)


def test_frame_of_a_plane_in_rank_5_ignores_generator_order():
    gens = [(2, 3, 2, 1, 2), (0, 2, 3, 3, 1)]
    assert _frame(_fresh_cone(gens, 5)) == _frame(_fresh_cone(gens[::-1], 5))


@st.composite
def low_rank_generators(draw):
    """Up to four generators in rank 2..5 spanning fewer dimensions than the
    rank: combinations of at most rank - 1 random vectors."""
    rank = draw(st.integers(2, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * rank)
    spanning = draw(st.lists(vec, min_size=1, max_size=rank - 1))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(spanning), max_size=len(spanning))
    gens = [
        tuple(sum(c * v[i] for c, v in zip(cs, spanning)) for i in range(rank))
        for cs in draw(st.lists(coeffs, min_size=1, max_size=4))
    ]
    return rank, gens


@settings(max_examples=200, deadline=None)
@given(low_rank_generators(), st.randoms(use_true_random=False))
def test_frame_depends_on_the_generator_set_alone(data, rnd):
    rank, gens = data
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    try:
        c = _fresh_cone(gens, rank)
    except eg.NotPointed:
        return
    assert _frame(_fresh_cone(shuffled, rank)) == _frame(c)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_cones(), low_rank_generators()))
def test_frame_matches_one_factorisation_per_piece(data):
    """The frame from one Smith form against the span basis, coordinates,
    span equations and facet lifts each solved on its own."""
    rank, gens = data
    try:
        c = _fresh_cone(gens, rank)
    except eg.NotPointed:
        return
    prim = sorted({la.primitive(g) for g in gens if any(g)})
    assert (c.rays, c.span_basis, c.span_eqs, c.facets) == cone_frame_by_solves(prim, rank)


@st.composite
def inequality_systems(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.integers(min_value=-3, max_value=3)] * rank)
    ineqs = draw(st.lists(row, max_size=6))
    eqns = draw(st.lists(row, max_size=2))
    return ineqs, eqns, rank


@settings(max_examples=300, deadline=None)
@given(inequality_systems())
def test_integer_double_description_matches_fraction_projections(system):
    """The fraction-free insertion step gives the same lineality basis and
    the same rays, in the same order, as the Fraction one it replaced."""
    ineqs, eqns, rank = system
    assert eg.extreme_rays_of_system(ineqs, eqns, rank) == (
        extreme_rays_of_system_fraction(ineqs, eqns, rank)
    )


@settings(max_examples=300, deadline=None)
@given(inequality_systems())
def test_equation_lattice_start_matches_inserted_pairs(system):
    """Starting the insertion at the lattice of the equations describes the
    same cone as inserting each equation as two inequalities: the same
    pointedness, the same lineality rank and, when pointed, the same cone."""
    ineqs, eqns, rank = system
    lin, rays = eg.extreme_rays_of_system(ineqs, eqns, rank)
    pair_lin, pair_rays = extreme_rays_of_system_pairs(ineqs, eqns, rank)
    assert len(lin) == len(pair_lin)
    if not lin:
        assert eg.cone_from_generators(rays, rank) == eg.cone_from_generators(
            pair_rays, rank
        )


@settings(max_examples=150, deadline=None)
@given(inequality_systems())
def test_cone_from_inequalities_cache(system):
    ineqs, eqns, rank = system
    lin, rays = extreme_rays_of_system_fraction(ineqs, eqns, rank)
    if lin:
        for _ in range(2):
            with pytest.raises(eg.NotPointed):
                eg.cone_from_inequalities(ineqs, eqns, rank)
        return
    want = eg.cone_from_generators(rays, rank)
    first = eg.cone_from_inequalities(ineqs, eqns, rank)
    assert first == want
    assert eg.cone_from_inequalities(iter(ineqs), iter(eqns), rank) is first


@pytest.fixture
def fractions_made(monkeypatch):
    """The argument tuples of every Fraction built while the test runs."""
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_double_description_builds_no_fraction(fractions_made):
    # equations and inequalities, so both the lineality and the ray branch run
    lin, rays = eg.extreme_rays_of_system(
        [(1, 2, 0, -1), (0, 1, 3, 1), (2, -1, 1, 0)], [(1, 1, 1, 1)], 4
    )
    assert not lin and rays
    assert fractions_made == []


def test_soundness_sample_builds_no_fraction(fractions_made):
    assert "fractions" not in vars(eg)
    assert "Fraction" not in vars(eg)
    orthant = eg.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cx, ids = complex_from_fan([orthant], 3)
    sub = hyperplane_refine(cx, {ids[orthant.rays]: [(1, -1, 0), (0, 1, -1)]})
    assert soundness_sample(sub, random.Random(5), per_cone=12)
    assert fractions_made == []


def _inexact_arithmetic(tree):
    """The lines of a module that divide truly, call float or import the
    fractions or decimal modules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float call"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            if any(m and m.split(".")[0] in ("fractions", "decimal") for m in modules):
                found.append((node.lineno, "inexact import"))
    return found


def test_library_is_integer_arithmetic_only():
    """No floating point and no rational type anywhere in the library; a
    float annotation such as a timing field's is not arithmetic."""
    sample = "\n".join(
        ["import fractions", "from decimal import Decimal", "x = 1 / 2", "x /= 2"]
        + ["y = float(3)", "z: float = 0 // 2"]
    )
    assert [what for _, what in _inexact_arithmetic(ast.parse(sample))] == [
        "inexact import", "inexact import", "true division", "true division", "float call"
    ]
    found = {
        path.name: _inexact_arithmetic(ast.parse(path.read_text(), str(path)))
        for path in sorted(Path(eg.__file__).parent.glob("*.py"))
    }
    assert len(found) > 5
    assert {name: lines for name, lines in found.items() if lines} == {}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 5))
def test_integer_sample_points_scale_the_rational_ones(seed, rank, gens):
    """The integer points are positive multiples of the rational points the
    same draws gave, so every membership verdict is unchanged; both versions
    consume the same random numbers."""
    cone = random_cone(random.Random(seed), rank, gens)
    rng_int, rng_frac = random.Random(seed + 1), random.Random(seed + 1)
    points = eg.sample_points(cone, 6, rng_int)
    rational = sample_points_fraction(cone, 6, rng_frac)
    assert rng_int.getstate() == rng_frac.getstate()
    assert len(points) == len(rational)
    for p, q in zip(points, rational):
        assert all(type(x) is int for x in p)
        i = next((i for i, x in enumerate(q) if x != 0), None)
        if i is None:
            assert not any(p)
            continue
        scale = p[i] / q[i]
        assert scale > 0 and scale.denominator == 1
        assert p == tuple(scale * x for x in q)
        assert cone.contains(p) and cone.contains(q)
        assert cone.contains_in_relint(p) == cone.contains_in_relint(q)


# ---------------------------------------------------------------------------
# the identity and face shortcuts on what the benchmark's inputs build


def test_compose_matches_the_matrix_product(ladder):
    """Every automorphism after every embedding and automorphism of its cone,
    and every projection after the automorphisms of its refined cone, against
    the product of the matrices; an identity factor gives the other back."""
    pairs = []
    for cx in ladder.complexes:
        for cid in cx.ids():
            group = cx.auts[cid]
            pairs += [(g, h) for g in group for h in group]
            pairs += [(g, e.map) for g in group for e in cx.embeddings_into(cid)]
    for sub in ladder.subdivisions:
        for rid, (_, m) in sub.projection.assignments.items():
            pairs += [(m, h) for h in sub.refined.auts[rid]]
    identities = 0
    for a, b in pairs:
        got = a.compose(b)
        assert got == compose_by_mat_mul(a, b)
        if a.is_identity or b.is_identity:
            identities += 1
            assert got is (b if a.is_identity else a)
    assert 0 < identities < len(pairs)


def test_identity_is_decided_at_construction():
    for n in range(4):
        assert eg.LinearMap(la.identity_matrix(n), n, n).is_identity
        assert eg.LinearMap.identity(n).is_identity
    assert not eg.LinearMap(((0, 1), (1, 0)), 2, 2).is_identity
    assert not eg.LinearMap(((1, 0),), 2, 1).is_identity
    assert not eg.LinearMap(((1,), (0,)), 1, 2).is_identity
    with pytest.raises(eg.RankMismatch):
        eg.LinearMap.identity(2).compose(eg.LinearMap.identity(3))


def test_is_face_of_matches_the_minimal_face(ladder):
    """Each cell over an original cone, asked whether it is a face of the
    cone and of each maximal cell there, and each embedded cone of a complex,
    asked whether it is a face of its cone."""
    answers = set()
    for sub in ladder.subdivisions:
        for cid in sub.original.ids():
            cone = sub.original.cones[cid]
            cells = [c.cone for c in sub.cells_over(cid)]
            maxima = [c for c in cells if c.dim == cone.dim]
            for a in cells:
                for b in [cone] + maxima:
                    got = a.is_face_of(b)
                    assert got == is_face_of_by_minimal_face(a, b)
                    answers.add(got)
    for cx in ladder.complexes:
        for cid, cone in cx.cones.items():
            for e in cx.embeddings_into(cid):
                assert e.cone.is_face_of(cone) and is_face_of_by_minimal_face(e.cone, cone)
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# cones built from known rays and facet normals, against the double
# description per cone they replaced


def _fields(cone):
    return cone.rays, cone.dim, cone.facets, cone.span_eqs, cone.span_basis


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty cone, system, face and pullback tables, so that every cone a
    test asks for is built by the path under test."""

    def clear():
        for name in ("_cone_cache", "_system_cache", "_face_cache"):
            monkeypatch.setattr(eg, name, {})
        monkeypatch.setattr(complexes, "_pullback_cache", {})

    clear()
    return clear


def _system(rng):
    """An inequality system of rank 1..5, with equations in half the cases."""
    rank = rng.randint(1, 5)
    row = lambda: tuple(rng.randint(-3, 3) for _ in range(rank))
    ineqs = [row() for _ in range(rng.randint(rank, rank + 3))]
    eqns = [row() for _ in range(rng.randint(1, 2))] if rng.random() < 0.5 else []
    return ineqs, eqns, rank


def _pointed_cones(rng, count):
    """(system, cone) for `count` seeded systems whose cone is pointed and
    nonzero, through `cone_from_inequalities`."""
    found = []
    while len(found) < count:
        ineqs, eqns, rank = _system(rng)
        try:
            cone = eg.cone_from_inequalities(ineqs, eqns, rank)
        except eg.NotPointed:
            continue
        if cone.rays:
            found.append(((ineqs, eqns, rank), cone))
    return found


def test_inequality_cones_and_their_faces_match_the_generator_path(cold_tables):
    """150 seeded systems (rank <= 5, about half with equations): the cone
    and every face of it, field by field, against a second double
    description; and the face where a random set of its facets vanishes
    against the generated cone of the rays on it."""
    rng = random.Random(30)
    with_eqns = 0
    for (ineqs, eqns, rank), cone in _pointed_cones(rng, 150):
        with_eqns += bool(eqns)
        assert _fields(cone) == _fields(cone_from_inequalities_by_generators(ineqs, eqns, rank))
        for face in cone.all_faces():
            assert _fields(face) == _fields(cone_from_generators_by_rank(face.rays, rank))
        covectors = rng.sample(cone.facets, rng.randint(0, len(cone.facets)))
        assert _fields(cone.face_at(covectors)) == _fields(face_at_by_generators(cone, covectors))
    assert 30 < with_eqns < 120


def test_a_line_is_still_not_pointed():
    with pytest.raises(eg.NotPointed):
        eg.cone_from_inequalities([(1, 0)], [], 2)
    with pytest.raises(eg.NotPointed):
        eg.cone_from_inequalities([(1, 0, 0)], [(0, 0, 1)], 3)
    with pytest.raises(eg.NotPointed):
        eg.cone_from_generators([(1, 1), (-1, -1)], 2)


def test_slices_match_fresh_inequality_cones(cold_tables):
    """Both sides of a random slice, and the chambers of a few random cuts,
    against a fresh `cone_from_inequalities` per side on the parent's facets
    and span equations plus the cut; 150 slices."""
    rng = random.Random(31)
    sliced = 0
    for (_, _, rank), cone in _pointed_cones(rng, 400):
        if sliced >= 150:
            break
        ws = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 3))]
        w = ws[0]
        values = [la.dot(w, r) for r in cone.rays]
        if min(values) < 0 < max(values):
            sliced += 1
            want = [
                cone_from_inequalities_by_generators(
                    list(cone.facets) + [side], list(cone.span_eqs), rank
                )
                for side in (w, la.vscale(-1, w))
            ]
            assert [_fields(c) for c in eg.halves(cone, w)] == [_fields(c) for c in want]
        got = _chambers(cone, ws)
        assert [_fields(c) for c in got] == [_fields(c) for c in chambers_by_inequalities(cone, ws)]
    assert sliced == 150


def test_extremality_by_active_sets_matches_one_rank_per_generator(cold_tables):
    """Generator sets with redundant generators, full rank and not: the
    rays picked by maximal active sets against one `la.rank` per generator,
    with every other field; 200 cases."""
    rng = random.Random(32)
    cases = 0
    while cases < 200:
        rank = rng.randint(1, 5)
        spanning = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, rank))]
        gens = [
            tuple(sum(rng.randint(0, 2) * v[i] for v in spanning) for i in range(rank))
            for _ in range(rng.randint(1, 6))
        ]
        try:
            want = cone_from_generators_by_rank(gens, rank)
        except eg.NotPointed:
            with pytest.raises(eg.NotPointed):
                eg.cone_from_generators(gens, rank)
            continue
        cases += 1
        assert _fields(eg.cone_from_generators(gens, rank)) == _fields(want)


def test_pullbacks_through_face_maps_match_the_generator_path(ladder, cold_tables):
    """Every face of the image of a face map's source, pulled back through
    the map, for the face maps of the complexes the benchmark's inputs
    build (a seeded sample of 400 distinct pullbacks), against the
    generated cone of the preimages of its rays."""
    cases = {}
    for cx in ladder.complexes:
        for f in cx.faces:
            sub = cx.cones[f.sub]
            for q in eg.image_cone(f.map, sub).all_faces():
                cases.setdefault((f.map.matrix, sub.rays, q.rays), (f.map, sub, q))
    picked = random.Random(33).sample(sorted(cases), 400)
    cold_tables()
    for key in picked:
        m, sub, q = cases[key]
        got = pull_back_cone(m, sub, q)
        assert _fields(got) == _fields(pull_back_cone_by_generators(m, sub, q))
        assert eg.image_cone(m, got) == q


def test_the_first_builder_keeps_its_frame(cold_tables):
    """A cone reached first by the generator path keeps the frame of its
    generators, redundant ones included, when an inequality system, a
    pullback or a slice reaches it later; reached first from its rays and
    facets, it is the cone `cone_from_generators` of its rays returns.  200
    seeded cones with redundant generators in ranks 2..5, most of them of
    lower dimension, where the frames can differ."""
    rng = random.Random(34)
    differs = sliced = cases = 0
    while cases < 200:
        rank = rng.randint(2, 5)
        spanning = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, rank))]
        gens = [
            tuple(sum(rng.randint(0, 2) * v[i] for v in spanning) for i in range(rank))
            for _ in range(rng.randint(2, 6))
        ]
        cold_tables()
        try:
            first = eg.cone_from_generators(gens, rank)
        except eg.NotPointed:
            continue
        if not first.rays:
            continue
        cases += 1
        rays_frame = cone_from_generators_by_rank(first.rays, rank)
        differs += _fields(rays_frame) != _fields(first)
        assert eg.cone_from_inequalities(first.facets, first.span_eqs, rank) is first
        assert pull_back_cone(eg.LinearMap.identity(rank), first, first) is first
        w = tuple(rng.randint(-2, 2) for _ in range(rank))
        values = [la.dot(w, r) for r in first.rays]
        if min(values) < 0 < max(values):
            sliced += 1
            sides = [
                cone_from_inequalities_by_generators(
                    list(first.facets) + [side], list(first.span_eqs), rank
                )
                for side in (w, la.vscale(-1, w))
            ]
            # each side first reached through generators with an extra one inside
            made = [eg.cone_from_generators(list(c.rays) + [c.relint_point()], rank) for c in sides]
            assert [c.rays for c in made] == [c.rays for c in sides]
            assert list(eg.halves(first, w)) == made
            assert all(a is b for a, b in zip(eg.halves(first, w), made))
        cold_tables()
        later = eg.cone_from_inequalities(first.facets, first.span_eqs, rank)
        assert _fields(later) == _fields(rays_frame)
        assert eg.cone_from_generators(first.rays, rank) is later
    assert differs > 0 and sliced > 20

