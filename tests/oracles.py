"""Independent brute-force oracles for the library's fast paths.

The enumeration oracles share no generation or canonical labelling code with
the library: graphs come from every genus tuple, edge multiset and leg
placement, types from every slope vector on those graphs, and classes are
told apart by trying every vertex bijection.  The cone oracles find facets
by subset enumeration and membership by Caratheodory subsets of rays, and
the subdivision oracle intersects every pair of cells.  The tests compare
the library against them.
"""

from itertools import combinations, combinations_with_replacement, permutations, product

from tropgeom import linalg as la
from tropgeom.curves import DualGraph, check_stable_range, genus
from tropgeom.exactgeom import RationalCone, intersect
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


def facets_bruteforce(cone: RationalCone):
    """Facets by subset enumeration over rays (independent of the DD path)."""
    d = cone.dim
    if d == 0:
        return []
    smat = tuple(cone.span_basis)
    coords = [la.lattice_coords(cone.span_basis, r) for r in cone.rays]
    found = set()
    if d == 1:
        # single facet: the functional positive on the unique ray direction
        w = (1,)
        cands = [w]
    else:
        cands = []
        for sub in combinations(coords, d - 1):
            if la.rank(sub) != d - 1:
                continue
            ker = la.kernel_basis(tuple(sub), d)
            if len(ker) != 1:
                continue
            cands.append(la.primitive(ker[0]))
    for w in cands:
        for orient in (w, la.vscale(-1, w)):
            vals = [la.dot(orient, rc) for rc in coords]
            if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
                if la.rank([rc for rc, v in zip(coords, vals) if v == 0]) == d - 1 or d == 1:
                    found.add(tuple(orient))
    # lift to canonical ambient covectors exactly as the main path does
    ann = la.kernel_basis(cone.span_basis, cone.ambient_rank)
    hnf, pivots = la.hnf_rows(ann)
    lifted = set()
    for w in found:
        c = la.solve_integer(smat, w)
        lifted.add(tuple(la.reduce_mod_lattice(c, hnf, pivots)))
    return sorted(lifted)


def contains_bruteforce(cone: RationalCone, x) -> bool:
    """Membership via Caratheodory subsets of rays (independent of facets)."""
    if all(v == 0 for v in x):
        return True
    for size in range(1, cone.dim + 1):
        for sub in combinations(cone.rays, size):
            if la.rank(sub) != size:
                continue
            m = la.transpose(sub)
            sol = la.solve(m, x)
            if sol is None:
                continue
            if all(c >= 0 for c in sol):
                return True
    return False


def verify_subdivision_pairwise(sub):
    """Check that the refined cells partition every original cone.

    Every pair of cells over each original cone, faces included, is
    intersected and must meet in a common face; inside each original cone
    the maximal cells must form a fan whose internal walls are shared by
    exactly two cells, whose boundary walls lie on the boundary of the cone,
    and whose dual graph is connected.
    """
    out = []
    for cid in sub.original.ids():
        cone = sub.original.cones[cid]
        cells = [c.cone for c in sub.cells_over(cid)]
        for a in cells:
            if not cone.contains_cone(a):
                out.append(f"cell {a.rays} pokes out of cone {cid}")
        for i, a in enumerate(cells):
            for b in cells[i + 1 :]:
                cut = intersect(a, b)
                if not (cut.is_face_of(a) and cut.is_face_of(b)):
                    out.append(
                        f"cells {a.rays} and {b.rays} in {cid} do not meet in a common face"
                    )
        if cone.dim == 0:
            continue
        maxima = [c for c in cells if c.dim == cone.dim]
        if not maxima:
            out.append(f"no maximal cells over cone {cid}")
            continue
        walls = {}
        for idx, m in enumerate(maxima):
            for f in m.facets:
                w = m.face_at([f])
                walls.setdefault(w.rays, []).append(idx)
        adj = {i: set() for i in range(len(maxima))}
        for wrays, incident in walls.items():
            on_boundary = any(
                all(la.dot(g, r) == 0 for r in wrays) for g in cone.facets
            )
            if on_boundary:
                if len(incident) != 1:
                    out.append(f"boundary wall {wrays} in {cid} shared by {len(incident)} cells")
            else:
                if len(incident) != 2:
                    out.append(f"internal wall {wrays} in {cid} shared by {len(incident)} cells")
                else:
                    adj[incident[0]].add(incident[1])
                    adj[incident[1]].add(incident[0])
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(maxima):
            out.append(f"maximal cells over {cid} are not wall connected")
    return out
