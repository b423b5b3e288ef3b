import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lemma_inputs, moduli_cached
from oracles import enumerate_stable_graphs_bruteforce, validate_complex_loops
from tropgeom import exactgeom as eg
from tropgeom.curves import (
    Disconnected,
    DualGraph,
    NoSuchEdge,
    Unstable,
    _contracted_subsets,
    build_complex_from_graphs,
    build_moduli_complex,
    canonical_form,
    contract_edge,
    contract_subset,
    enumerate_stable_graphs,
    genus,
    stabilize,
)
from tropgeom.pipeline import contact_types

THETA = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())


class TestGenus:
    def test_theta(self):
        assert genus(THETA) == 2

    def test_isolated_vertex(self):
        assert genus(DualGraph((3,), (), ())) == 3

    def test_genus_one_vertex_with_loop(self):
        assert genus(DualGraph((1,), ((0, 0),), ())) == 2

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            genus(DualGraph((0, 0), (), ()))


class TestContraction:
    def test_theta_edge_contraction(self):
        contracted, m = contract_edge(THETA, 0)
        assert contracted.genera == (0,)
        assert contracted.edges == ((0, 0), (0, 0))
        assert genus(contracted) == 2
        assert m.source_rank == 2 and m.target_rank == 3
        # the map embeds the contracted orthant as the face length zero
        cols = list(zip(*m.matrix))
        assert all(sum(col) == 1 for col in cols)

    def test_loop_contraction_bumps_genus(self):
        contracted, _ = contract_edge(DualGraph((0,), ((0, 0),), ()), 0)
        assert contracted.genera == (1,)

    def test_bridge_contraction_adds_genera(self):
        contracted, _ = contract_edge(DualGraph((1, 1), ((0, 1),), ()), 0)
        assert contracted.genera == (2,)

    def test_genus_preserved_under_all_contractions(self):
        for g, n in [(1, 1), (1, 2), (2, 0)]:
            for graph in enumerate_stable_graphs(g, n):
                for e in range(graph.num_edges):
                    contracted, _ = contract_edge(graph, e)
                    assert genus(contracted) == g

    def test_no_such_edge(self):
        with pytest.raises(NoSuchEdge):
            contract_edge(THETA, 5)


class TestCanonicalForm:
    def test_theta_automorphisms(self):
        _, _, _, auts = canonical_form(THETA)
        assert len(auts) == 12

    def test_marked_theta_automorphisms(self):
        marked = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
        _, _, _, auts = canonical_form(marked)
        assert len(auts) == 6

    def test_asymmetric_tree(self):
        tree = DualGraph((1, 2), ((0, 1),), (0,))
        _, _, _, auts = canonical_form(tree)
        assert len(auts) == 1

    def test_invariance_under_relabeling(self, rng):
        for g, n in [(1, 2), (2, 0)]:
            for graph in enumerate_stable_graphs(g, n):
                k = graph.num_vertices
                perm = list(range(k))
                rng.shuffle(perm)
                shuffled = DualGraph(
                    tuple(graph.genera[perm.index(v)] for v in range(k)),
                    tuple((perm[u], perm[v]) for u, v in graph.edges),
                    tuple(perm[v] for v in graph.legs),
                )
                c1, _, _, _ = canonical_form(graph)
                c2, _, _, _ = canonical_form(shuffled)
                assert c1 == c2


class TestEnumeration:
    @pytest.mark.parametrize(
        "g,n,count", [(0, 4, 4), (1, 1, 2), (2, 0, 7)]
    )
    def test_known_counts_against_oracle(self, g, n, count):
        main = enumerate_stable_graphs(g, n)
        oracle = enumerate_stable_graphs_bruteforce(g, n)
        assert len(main) == len(oracle) == count

    def test_oracle_agreement_through_dim_three(self):
        for g, n in [(0, 5), (1, 2), (2, 1), (2, 2), (3, 0)]:
            main = enumerate_stable_graphs(g, n)
            oracle = enumerate_stable_graphs_bruteforce(g, n)
            assert len(main) == len(oracle)
            keys = {(h.genera, h.edges, h.legs) for h in main}
            for graph in oracle:
                c, _, _, _ = canonical_form(graph)
                assert (c.genera, c.edges, c.legs) in keys

    @pytest.mark.parametrize(
        "g,n,count", [(0, 6, 236), (0, 7, 2752), (1, 4, 163), (2, 3, 555)]
    )
    def test_known_counts_beyond_the_oracle(self, g, n, count):
        # (0, n): OEIS A000311; (1, 4) and (2, 3): the brute-force generator
        # that split generation replaced
        assert len(enumerate_stable_graphs(g, n)) == count

    def test_unstable_range_rejected(self):
        with pytest.raises(Unstable):
            enumerate_stable_graphs(0, 2)


class TestStabilize:
    def test_two_edge_chain(self):
        chain = DualGraph((0, 0, 0), ((0, 1), (1, 2)), (0, 0, 2, 2))
        stable, m, trails = stabilize(chain)
        assert stable.num_edges == 1
        assert m.matrix == ((1, 1),)
        assert len(trails[0]) == 2

    def test_already_stable_identity(self):
        theta_marked = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
        stable, m, _ = stabilize(theta_marked)
        assert stable == theta_marked
        assert m.matrix == tuple(tuple(r) for r in eg.LinearMap.identity(3).matrix)

    def test_subdivided_theta(self):
        sub = DualGraph(
            (0, 0, 0, 0, 0),
            ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)),
            (0, 1),
        )
        stable, m, _ = stabilize(sub)
        assert genus(stable) == 2
        assert stable.num_edges == 3
        assert all(sum(row) == 2 for row in m.matrix)
        assert all(x in (0, 1) for row in m.matrix for x in row)

    def test_idempotent(self):
        chain = DualGraph((1, 0, 1), ((0, 1), (1, 2)), (0, 2))
        stable, _, _ = stabilize(chain)
        again, m, _ = stabilize(stable)
        assert again == stable
        assert m.matrix == tuple(tuple(r) for r in eg.LinearMap.identity(stable.num_edges).matrix)

    def test_dangling_vertex_removed(self):
        dangle = DualGraph((1, 0, 1), ((0, 1), (0, 2)), (0, 2, 2))
        stable, m, _ = stabilize(dangle)
        assert stable.num_edges == 1
        # the dangling edge contributes to no stable length
        assert any(all(row[i] == 0 for row in m.matrix) for i in range(2))

    def test_unstable(self):
        with pytest.raises(Unstable):
            stabilize(DualGraph((0,), (), (0,)))


class TestModuliComplex:
    def test_m04_three_rays_at_origin(self):
        built = moduli_cached(0, 4)
        assert len(built.complex.cones) == 4
        dims = sorted(c.dim for c in built.complex.cones.values())
        assert dims == [0, 1, 1, 1]
        assert validate_complex_loops(built.complex) == []

    def test_m11_single_ray(self):
        built = moduli_cached(1, 1)
        assert len(built.complex.cones) == 2
        loop_id = [cid for cid in built.complex.ids() if built.complex.cones[cid].dim == 1][0]
        assert [g.matrix for g in built.complex.auts[loop_id]] == [((1,),)]
        assert validate_complex_loops(built.complex) == []

    def test_m22_contains_theta_cone_with_symmetry(self):
        theta_marked = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
        built = build_complex_from_graphs([theta_marked])
        tid = built.id_of(theta_marked)
        assert built.complex.cones[tid].dim == 3
        assert len(built.complex.auts[tid]) == 6
        in_full = any(h == built.graphs[tid] for h in enumerate_stable_graphs(2, 2))
        assert in_full

    def test_face_poset_matches_contraction_poset(self):
        built = moduli_cached(2, 0)
        for cid, graph in built.graphs.items():
            assert built.complex.cones[cid].dim == graph.num_edges
        for f in built.complex.faces:
            assert (
                built.graphs[f.sub].num_edges < built.graphs[f.sup].num_edges
            )

    def test_graph_json_roundtrip(self):
        for graph in enumerate_stable_graphs(1, 2):
            assert DualGraph.from_json(graph.to_json()) == graph


def test_one_merge_per_subset_matches_contract_subset():
    """The closure builder contracts each edge subset by one merge from the
    subset without its smallest edge; every raw graph and survivor list is
    the one contract_subset makes, on the graphs of M_{0,6}, M_{1,3} and
    M_{2,2} (at most three edges) and of the map types of criterion 2's
    (1,3) runs."""
    graphs = set()
    for g, n in [(0, 6), (1, 3)]:
        graphs.update(moduli_cached(g, n).graphs.values())
    graphs.update(build_moduli_complex(2, 2, max_edges=3).graphs.values())
    for vectors in lemma_inputs(3):
        for types in contact_types(1, 3, vectors)[1].values():
            graphs.update(t.graph for t in types)
    assert len(graphs) > 300
    for graph in graphs:
        ne = graph.num_edges
        got = list(_contracted_subsets(graph))
        assert [s for s, _, _ in got] == [
            s for k in range(1, ne + 1) for s in combinations(range(ne), k)
        ]
        for subset, raw, survivors in got:
            assert (raw, survivors) == contract_subset(graph, subset)
