"""Independent brute-force oracles for the enumerators.

They share no generation or canonical labelling code with the library:
graphs come from every genus tuple, edge multiset and leg placement, types
from every slope vector on those graphs, and classes are told apart by
trying every vertex bijection.  The tests compare the library against them.
"""

from itertools import combinations_with_replacement, permutations, product

from tropgeom.curves import DualGraph, check_stable_range, genus
from tropgeom.tropmaps import (
    ContactData,
    RubberMapType,
    has_consistent_heights,
    is_balanced,
)

_oracle_cache = {}


def enumerate_stable_graphs_bruteforce(g: int, n: int):
    """Independent oracle: raw generation with pairwise isomorphism dedup."""
    check_stable_range(g, n)
    if (g, n) in _oracle_cache:
        return list(_oracle_cache[(g, n)])
    classes = []
    max_vertices = max(1, 2 * g - 2 + n)
    for k in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        for genera in product(range(g + 1), repeat=k):
            e_count = g - sum(genera) + k - 1
            if e_count < 0:
                continue
            for edges in combinations_with_replacement(pairs, e_count):
                for legs in product(range(k), repeat=n):
                    graph = DualGraph(genera, edges, legs)
                    if not graph.is_stable():
                        continue
                    if genus(graph) != g:
                        continue
                    if not any(_isomorphic(graph, other) for other in classes):
                        classes.append(graph)
    _oracle_cache[(g, n)] = classes
    return list(classes)


def _isomorphic(a: DualGraph, b: DualGraph) -> bool:
    """Direct isomorphism test by trying all vertex bijections."""
    if (
        a.num_vertices != b.num_vertices
        or a.num_edges != b.num_edges
        or sorted(a.genera) != sorted(b.genera)
    ):
        return False
    for vperm in permutations(range(a.num_vertices)):
        if any(a.genera[v] != b.genera[vperm[v]] for v in range(a.num_vertices)):
            continue
        if tuple(vperm[v] for v in a.legs) != b.legs:
            continue
        mapped = sorted(tuple(sorted((vperm[u], vperm[v]))) for u, v in a.edges)
        if tuple(mapped) == b.edges:
            return True
    return False


def enumerate_rubber_types_bruteforce(contact: ContactData, factor: int = 0):
    """Independent oracle: every orientation and magnitude, pairwise iso dedup."""
    single = contact.factor(factor)
    a = single.slopes[0]
    d = single.degree(0)
    types = []
    for graph in enumerate_stable_graphs_bruteforce(contact.genus, contact.num_markings):
        ne = graph.num_edges
        for raw in product(range(-d, d + 1), repeat=ne):
            t = RubberMapType(graph, (raw,), single)
            if not is_balanced(t):
                continue
            if not has_consistent_heights(t):
                continue
            if not any(_isomorphic_types(t, s) for s in types):
                types.append(t)
    return types


def _isomorphic_types(a: RubberMapType, b: RubberMapType) -> bool:
    """Direct isomorphism test over vertex bijections (independent of the
    canonicalization machinery)."""
    if a.contact != b.contact or a.num_factors != b.num_factors:
        return False
    ga, gb = a.graph, b.graph
    if (
        ga.num_vertices != gb.num_vertices
        or ga.num_edges != gb.num_edges
        or sorted(ga.genera) != sorted(gb.genera)
    ):
        return False
    b_edges = {}
    for i, (u, v) in enumerate(gb.edges):
        key = (u, v)
        b_edges.setdefault(key, []).append(i)
    for vperm in permutations(range(ga.num_vertices)):
        if any(ga.genera[v] != gb.genera[vperm[v]] for v in range(ga.num_vertices)):
            continue
        if tuple(vperm[v] for v in ga.legs) != gb.legs:
            continue
        # multiset match of decorated edges
        need = {}
        for i, (u, v) in enumerate(ga.edges):
            x, y = vperm[u], vperm[v]
            data = tuple(a.slopes[f][i] for f in range(a.num_factors))
            if x > y:
                x, y = y, x
                data = tuple(-s for s in data)
            need.setdefault((x, y, data), 0)
            need[(x, y, data)] += 1
        have = {}
        for i, (u, v) in enumerate(gb.edges):
            data = tuple(b.slopes[f][i] for f in range(b.num_factors))
            have.setdefault((u, v, data), 0)
            have[(u, v, data)] += 1
        if need == have:
            return True
    return False
