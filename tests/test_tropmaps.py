import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from conftest import lemma_inputs, moduli_cached
from oracles import (
    contraction_complex_by_object,
    cycle_equations_spanning_tree,
    enumerate_rubber_types_bruteforce,
    has_consistent_heights_dfs,
    is_balanced_by_vertex_sums,
    relints_intersect,
    validate_complex_loops,
)
from tropgeom import exactgeom as eg
from tropgeom import linalg as la
from tropgeom.complexes import validate_morphism
from tropgeom.curves import (
    DualGraph,
    _orthant,
    build_moduli_complex,
    contract_subset,
    enumerate_stable_graphs,
)
from tropgeom.pipeline import contact_types
from tropgeom.tropmaps import (
    ContactData,
    IncompatibleStabilizations,
    RubberMapType,
    build_map_complex,
    canonical_type,
    cycle_equations,
    enumerate_rubber_types,
    fiber_product_cone,
    forgetful_image,
    has_consistent_heights,
    is_balanced,
    moduli_cone,
    superimpose,
    _paths,
)
from tropgeom.subdivision import cones_cover_exactly

THETA22 = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
FIG1 = RubberMapType(THETA22, ((-1, -1, -1),), ContactData(2, ((3, -3),)))


class TestContactData:
    def test_degree(self):
        c = ContactData(1, ((2, -1, -1), (1, -1, 0)))
        assert c.degree(0) == 2 and c.degree(1) == 1

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            ContactData(0, ((1, 1),))

    def test_rejects_ragged_vectors(self):
        with pytest.raises(ValueError, match="differ in length"):
            ContactData(1, ((2, -2), (1, 0, -1)))


class TestBalancingAndHeights:
    def test_figure_one_type_balanced(self):
        assert is_balanced(FIG1)
        assert has_consistent_heights(FIG1)

    def test_unbalanced(self):
        t = RubberMapType(THETA22, ((1, 1, -1),), ContactData(2, ((3, -3),)))
        assert not is_balanced(t)

    def test_positive_loop_is_inconsistent(self):
        loop = DualGraph((1,), ((0, 0),), (0, 0))
        t = RubberMapType(loop, ((1,),), ContactData(2, ((0, 0),)))
        assert not has_consistent_heights(t)
        assert moduli_cone(t).dim == 0 and t.graph.num_edges > 0

    def test_opposite_banana_cycle_is_inconsistent(self):
        banana = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 0))
        t = RubberMapType(banana, ((1, -1),), ContactData(1, ((1, -1),)))
        assert is_balanced(t)
        assert not has_consistent_heights(t)


class TestCycleEquations:
    def test_tree_has_no_equations(self):
        tree = DualGraph((1, 1), ((0, 1),), (0, 1))
        t = RubberMapType(tree, ((0,),), ContactData(2, ((0, 0),)))
        assert cycle_equations(t) == ()

    def test_theta_forces_equal_lengths(self):
        cone = moduli_cone(FIG1)
        assert cone.rays == ((1, 1, 1),)
        assert cone.dim == 1

    def test_banana_weighted_lengths(self):
        banana = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
        t = RubberMapType(banana, ((-1, -3),), ContactData(1, ((4, -4),)))
        assert is_balanced(t)
        rows = cycle_equations(t)
        assert len(rows) == 1
        cone = moduli_cone(t)
        assert cone.rays == ((3, 1),)

    def test_dimension_formula(self):
        for contact in [ContactData(1, ((2, -2),)), ContactData(1, ((1, -1, 0),))]:
            for t in enumerate_rubber_types(contact):
                cone = moduli_cone(t)
                assert cone.dim == t.graph.num_edges - la.rank(cycle_equations(t))

    def test_heights_path_independent_on_samples(self, rng):
        # rebuild heights from a root along two spanning trees and compare
        for t in enumerate_rubber_types(ContactData(1, ((2, -2),))):
            cone = moduli_cone(t)
            for p in eg.sample_points(cone, 5, rng):
                heights = _heights_from_lengths(t, p)
                assert heights is not None


def _all_slope_types(g, n, vectors, max_edges):
    """Every slope vector in [-d, d]^E per factor, balanced or not, on the
    stable graphs with at most max_edges edges."""
    contact = ContactData(g, vectors)
    for graph in enumerate_stable_graphs(g, n):
        if graph.num_edges > max_edges:
            continue
        ranges = [
            product(range(-d, d + 1), repeat=graph.num_edges)
            for d in map(contact.degree, range(contact.num_factors))
        ]
        for slopes in product(*ranges):
            yield RubberMapType(graph, slopes, contact)


class TestAgainstHandWrittenGraphWalks:
    """The incidence matrix and the topological sort against the spanning
    tree walk, the vertex sums and the depth-first search they replaced."""

    CASES = [
        (g, n, vectors, 3) for g, n in [(1, 2), (1, 3)] for vectors in lemma_inputs(n)
        if len(vectors) == 1
    ] + [
        (2, 2, ((2, -2),), 3),  # two independent cycles
        (1, 2, ((1, -1), (1, -1)), 2),
        (1, 2, ((1, -1), (2, -2)), 2),
        (1, 3, ((1, 0, -1), (2, -1, -1)), 2),
        (1, 3, ((1, 0, -1), (1, 1, -2)), 2),
    ]

    @pytest.mark.parametrize("g, n, vectors, max_edges", CASES)
    def test_same_verdicts_cones_and_ranks(self, g, n, vectors, max_edges):
        count = 0
        for t in _all_slope_types(g, n, vectors, max_edges):
            count += 1
            assert is_balanced(t) == is_balanced_by_vertex_sums(t), t
            assert has_consistent_heights(t) == has_consistent_heights_dfs(t), t
            old = cycle_equations_spanning_tree(t)
            ne = t.graph.num_edges
            cone = moduli_cone(t)
            assert la.rank(cycle_equations(t)) == la.rank(old), t
            assert cone == eg.cone_from_inequalities(la.identity_matrix(ne), old, ne), t
        assert count

    def test_loop_rows(self):
        # a loop is a cycle by itself: its row is its slope
        loop = DualGraph((1,), ((0, 0),), (0, 0))
        t = RubberMapType(loop, ((2,), (-1,)), ContactData(2, ((0, 0), (0, 0))))
        assert cycle_equations(t) == ((2,), (-1,))
        assert is_balanced(t)


def _heights_from_lengths(t, lengths):
    """BFS height reconstruction; None when any cycle disagrees."""
    k = t.graph.num_vertices
    heights = {0: Fraction(0)}
    queue = [0]
    adj = {}
    for i, (u, v) in enumerate(t.graph.edges):
        adj.setdefault(u, []).append((v, i, 1))
        adj.setdefault(v, []).append((u, i, -1))
    while queue:
        x = queue.pop()
        for y, i, d in adj.get(x, ()):  # displacement = slope * length
            disp = d * t.slopes[0][i] * lengths[i]
            if y in heights:
                if heights[y] != heights[x] + disp:
                    return None
            else:
                heights[y] = heights[x] + disp
                queue.append(y)
    return heights


class TestEnumeration:
    @pytest.mark.parametrize(
        "g,n,a",
        [
            (0, 3, (1, -1, 0)),
            (0, 4, (1, -1, 0, 0)),
            (0, 4, (2, -1, -1, 0)),
            (1, 1, (0,)),
            (1, 2, (1, -1)),
            (1, 2, (2, -2)),
            (1, 2, (3, -3)),
        ],
    )
    def test_matches_bruteforce_oracle(self, g, n, a):
        contact = ContactData(g, (a,))
        main = enumerate_rubber_types(contact)
        oracle = enumerate_rubber_types_bruteforce(contact)
        assert len(main) == len(oracle)
        keys = {
            (t.graph.genera, t.graph.edges, t.graph.legs, t.slopes) for t in main
        }
        for t in oracle:
            ct, _, _, _ = canonical_type(t)
            assert (ct.graph.genera, ct.graph.edges, ct.graph.legs, ct.slopes) in keys

    def test_smooth_only_on_minimal_marked_rational_curve(self):
        contact = ContactData(0, ((1, -1, 0),))
        types = enumerate_rubber_types(contact)
        assert len(types) == 1
        assert types[0].graph.num_edges == 0

    def test_figure_one_type_is_enumerated(self):
        contact = ContactData(2, ((3, -3),))
        from tropgeom.tropmaps import balanced_slope_assignments

        found = []
        for slopes in balanced_slope_assignments(THETA22, (3, -3), 3):
            t = RubberMapType(THETA22, (slopes,), contact)
            if has_consistent_heights(t):
                ct, _, _, _ = canonical_type(t)
                if ct not in found:
                    found.append(ct)
        assert len(found) == 1
        assert found[0].slopes == ((-1, -1, -1),)

    def test_balancing_holds_for_everything_enumerated(self):
        for contact in [ContactData(1, ((2, -2),)), ContactData(0, ((2, -1, -1, 0),))]:
            for t in enumerate_rubber_types(contact):
                assert is_balanced(t)
                assert has_consistent_heights(t)


class TestForgetfulImage:
    def test_figure_one_diagonal_ray(self):
        stable, img = forgetful_image(FIG1)
        assert stable == THETA22
        assert img.rays == ((1, 1, 1),)

    def test_smooth_type_zero_cone(self):
        smooth = RubberMapType(
            DualGraph((1,), (), (0, 0)), ((),), ContactData(1, ((1, -1),))
        )
        _, img = forgetful_image(smooth)
        assert img.is_zero()

    def test_banana_ray_in_banana_cone(self):
        banana = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
        t = RubberMapType(banana, ((-1, -3),), ContactData(1, ((4, -4),)))
        stable, img = forgetful_image(t)
        assert stable == banana
        assert img.rays == ((3, 1),)


class TestSuperimpose:
    EDGE = DualGraph((1, 1), ((0, 1),), (0, 1))
    CHAIN = DualGraph((1, 0, 1), ((0, 1), (1, 2)), (0, 2))
    A = ContactData(3, ((1, -1),))
    ZERO = ContactData(3, ((0, 0),))

    def test_trivial_second_factor(self):
        tx = RubberMapType(self.EDGE, ((-1,),), self.A)
        ty = RubberMapType(self.EDGE, ((0,),), self.ZERO)
        prods = superimpose(tx, ty)
        assert len(prods) == 1
        assert prods[0].map_type.graph == self.EDGE
        assert prods[0].map_type.slopes == ((-1,), (0,))

    def test_same_single_edge_type(self):
        tx = RubberMapType(self.EDGE, ((-1,),), self.A)
        prods = superimpose(tx, tx)
        assert len(prods) == 1
        assert prods[0].map_type.graph.num_vertices == 2

    def test_chain_against_edge_distributes_slope(self):
        tx = RubberMapType(self.CHAIN, ((-1, -1),), self.A)
        ty = RubberMapType(self.EDGE, ((-2,),), ContactData(3, ((2, -2),)))
        prods = superimpose(tx, ty)
        assert len(prods) == 1
        p = prods[0]
        assert p.map_type.graph.num_edges == 2
        assert sorted(map(abs, p.map_type.slopes[1])) == [2, 2]

    def test_union_is_fiber_product_with_disjoint_interiors(self, rng):
        tx = RubberMapType(self.CHAIN, ((-1, -1),), self.A)
        ty = RubberMapType(self.CHAIN, ((0, 0),), self.ZERO)
        prods = superimpose(tx, ty)
        assert len(prods) == 2
        fiber = fiber_product_cone(tx, ty)
        images = [eg.image_cone(p.embed, p.cone) for p in prods]
        for img in images:
            assert fiber.contains_cone(img)
        assert cones_cover_exactly(fiber, images) == (None, None)
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert not relints_intersect(images[i], images[j])

    def test_incompatible_stabilizations(self):
        tx = RubberMapType(self.EDGE, ((-1,),), self.A)
        other = RubberMapType(
            DualGraph((1, 2), ((0, 1),), (0, 1)), ((-1,),), self.A
        )
        with pytest.raises(IncompatibleStabilizations):
            superimpose(tx, other)

    @pytest.mark.parametrize("sizes", [(1,), (1, 1), (2, 3), (2, 2, 3), (3, 1, 2, 2)])
    def test_path_count_is_multinomial(self, sizes):
        steps = [s - 1 for s in sizes]
        paths = _paths(sizes)
        assert len(paths) == factorial(sum(steps)) // prod(map(factorial, steps))
        assert len({tuple(path) for path in paths}) == len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                assert sorted(y - x for x, y in zip(a, b)) == [0] * (len(sizes) - 1) + [1]

    def test_paths_try_axis_zero_first(self):
        assert _paths((2, 2)) == [[(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]]

    # three types over EDGE whose trails have 2, 2 and 3 pieces
    CHAIN3 = DualGraph((1, 0, 0, 1), ((0, 1), (1, 2), (2, 3)), (0, 3))

    def _three(self):
        return (
            RubberMapType(self.CHAIN, ((-1, -1),), self.A),
            RubberMapType(self.CHAIN, ((-2, -2),), ContactData(3, ((2, -2),))),
            RubberMapType(self.CHAIN3, ((0, 0, 0),), self.ZERO),
        )

    @staticmethod
    def _direct_sum(*maps):
        total = sum(m.source_rank for m in maps)
        rows, before = [], 0
        for m in maps:
            pad = total - before - m.source_rank
            rows += [(0,) * before + tuple(r) + (0,) * pad for r in m.matrix]
            before += m.source_rank
        return eg.LinearMap(tuple(rows), total, len(rows))

    def test_superimposition_is_associative(self):
        # the chamber images in the x + y + w edge coordinates agree whether
        # (x, y) is overlaid first, (y, w) first, or all three at once
        x, y, w = self._three()
        ident = lambda t: eg.LinearMap.identity(t.graph.num_edges)
        flat = superimpose(x, y, w)
        left = [
            (self._direct_sum(p.embed, ident(w)).compose(q.embed), q)
            for p in superimpose(x, y)
            for q in superimpose(p.map_type, w)
        ]
        right = [
            (self._direct_sum(ident(x), r.embed).compose(q.embed), q)
            for r in superimpose(y, w)
            for q in superimpose(x, r.map_type)
        ]
        chambers = {eg.image_cone(p.embed, p.cone) for p in flat}
        assert len(flat) == len(chambers) == 12
        for nested in (left, right):
            assert {eg.image_cone(m, q.cone) for m, q in nested} == chambers
            assert {q.map_type.contact for _, q in nested} == {flat[0].map_type.contact}
        assert flat[0].map_type.contact.slopes == ((1, -1), (2, -2), (0, 0))
        assert all(p.factors == (x, y, w) for p in flat)
        assert all(is_balanced(q.map_type) for q in flat + [q for _, q in left + right])

    def test_triple_fiber_product_is_tiled(self):
        x, y, w = self._three()
        fiber = fiber_product_cone(x, y, w)
        assert fiber.ambient_rank == 7 and fiber.dim == 5
        images = [eg.image_cone(p.embed, p.cone) for p in superimpose(x, y, w)]
        for img in images:
            assert img.dim == fiber.dim
            assert fiber.contains_cone(img)
        assert cones_cover_exactly(fiber, images) == (None, None)
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert not relints_intersect(images[i], images[j])


class TestMapComplex:
    def test_single_tree_type_orthant(self):
        base = moduli_cached(1, 2)
        contact = ContactData(1, ((0, 0),))
        bridge = DualGraph((0, 1), ((0, 1),), (0, 0))
        t = RubberMapType(bridge, ((0,),), contact)
        mx = build_map_complex([t], base)
        assert validate_complex_loops(mx.complex) == []
        top = [cid for cid in mx.complex.ids() if mx.complex.cones[cid].dim == 1]
        assert top

    def test_figure_one_closure(self):
        from tropgeom.curves import build_complex_from_graphs

        base = build_complex_from_graphs([THETA22])
        mx = build_map_complex([FIG1], base)
        assert validate_complex_loops(mx.complex) == []
        assert validate_morphism(mx.forgetful) == []
        ray_ids = [
            cid for cid in mx.complex.ids() if mx.complex.cones[cid].dim == 1
        ]
        assert any(
            mx.complex.cones[cid].rays == ((1, 1, 1),) for cid in ray_ids
        )

    def test_full_contact_family_validates(self):
        base = moduli_cached(1, 2)
        contact = ContactData(1, ((2, -2),))
        mx = build_map_complex(enumerate_rubber_types(contact), base)
        assert validate_complex_loops(mx.complex) == []
        assert validate_morphism(mx.forgetful) == []

    def test_face_compatible_with_contraction(self):
        # contracting an edge then taking the moduli cone equals the face
        contact = ContactData(1, ((2, -2),))
        for t in enumerate_rubber_types(contact):
            cone = moduli_cone(t)
            for e in range(t.graph.num_edges):
                raw, survivors = contract_subset(t.graph, [e])
                slopes = (tuple(sign * t.slopes[0][i] for i, sign in survivors),)
                contracted = RubberMapType(raw, slopes, t.contact)
                sub_cone = moduli_cone(contracted)
                face = cone.face_at(
                    [tuple(1 if i == e else 0 for i in range(t.graph.num_edges))]
                )
                rows = [[0] * contracted.graph.num_edges for _ in range(t.graph.num_edges)]
                for pos, (orig, _) in enumerate(survivors):
                    rows[orig][pos] = 1
                m = eg.LinearMap(
                    tuple(tuple(r) for r in rows),
                    contracted.graph.num_edges,
                    t.graph.num_edges,
                )
                assert eg.image_cone(m, sub_cone) == face

    def test_two_factor_complex_output_pinned(self):
        # T ids sort by per-factor slope rows; on this complex that order
        # differs from sorting by per-edge slope tuples, and the hash pins it
        from tropgeom.pipeline import contact_types

        products = contact_types(2, 2, ((2, -2), (3, -3)))[2]
        mx = build_map_complex([p.map_type for p in products], moduli_cached(2, 2))
        data = mx.complex.to_json()
        data["types"] = {tid: t.to_json() for tid, t in mx.types.items()}
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert len(mx.types) == 171
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "888b88ce6503654cf36469025456ffa14ec665ca5faee07c851cd6728e8bb973"
        )

    def test_inconsistent_contraction_closure_is_rejected(self):
        # loops with nonzero slopes are not identified with their reversal,
        # so contracting two edges at once can land on a type that single
        # contractions never reach; the build must fail, not return a
        # complex whose face maps do not compose
        from tropgeom.pipeline import contact_types

        types = [p.map_type for p in contact_types(2, 2, ((3, -3), (3, -3)))[2]]
        with pytest.raises(AssertionError, match="single edge contractions"):
            build_map_complex(types, moduli_cached(2, 2))


class TestContractionBuilder:
    """The builder keyed by canonical pair against the one that makes and
    hashes an object for every contracted edge subset: the same complex and
    the same object behind each cone id."""

    @pytest.mark.parametrize(
        "g, n", [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]
    )
    def test_map_complexes_of_criterion_two(self, g, n):
        base = moduli_cached(g, n)
        type_lists = {}
        for vectors in lemma_inputs(n):
            for ts in contact_types(g, n, vectors)[1].values():
                type_lists[tuple(ts)] = ts
        for ts in type_lists.values():
            mx = build_map_complex(ts, base)
            contact = ts[0].contact
            cx, types = contraction_complex_by_object(
                [(t.graph, t.edge_data()) for t in ts],
                "T",
                lambda graph, data: RubberMapType.from_edge_data(graph, data, contact),
                moduli_cone,
            )
            assert mx.complex.to_json() == cx.to_json()
            assert mx.types == types

    @pytest.mark.parametrize(
        "g, n, max_edges", [(0, 5, None), (1, 3, None), (0, 6, None), (2, 2, 3)]
    )
    def test_moduli_complexes(self, g, n, max_edges):
        base = build_moduli_complex(g, n, max_edges)
        seeds = [
            h for h in enumerate_stable_graphs(g, n)
            if max_edges is None or h.num_edges <= max_edges
        ]
        cx, graphs = contraction_complex_by_object(
            [(h, ((),) * h.num_edges) for h in seeds],
            "G",
            lambda graph, _: graph,
            lambda graph: _orthant(graph.num_edges),
        )
        assert base.complex.to_json() == cx.to_json()
        assert base.graphs == graphs
