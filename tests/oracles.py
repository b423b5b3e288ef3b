"""Independent brute-force oracles for the library's fast paths.

The enumeration oracles share no generation or canonical labelling code with
the library: graphs come from every genus tuple, edge multiset and leg
placement, types from every slope vector on those graphs, and classes are
told apart by trying every vertex bijection; the types are kept by the
hand-written graph walks the library replaced with its incidence matrix and
a topological sort (vertex sums for balancing, a depth-first search for the
heights, and the spanning-tree cycle equations).  The cone oracles find
facets by subset enumeration and membership by Caratheodory subsets of rays;
the covector questions of a cone (membership, relative interior, the face
where covectors vanish, the smallest face holding a cone) and the matrix
products keep one `dot` call per pair, as do a double description step and
the test of whether a covector slices a cone.  The subdivision oracle intersects
every pair of cells (`is_identity`, which only the tests ask, sits beside
it).  The contraction closure builder that makes and hashes an object for
every contracted edge subset is kept beside the library's, which keys by the
canonical pair, and so is each pair's faces and automorphism matrices
computed afresh, as every closure once did, through the one-pass labelling
and one contraction per subset, with no table.  The whole-complex assembler glues every cone, where the
library glues only the cones a step touches and copies the rest, and the
whole check of a subdivision validates every refined cone and certifies
every original cone, where the library checks only the cones a step glued.
The face lookups that a complex indexes (the embedding that stands for a
face, the face maps into and out of a cone) are scans here, and both
validators keep their nested loops over every face map and embedding.  The
paths that take an identity as it is keep their earlier form: a cone's
embeddings composed with every automorphism, the identity too, and applied
to each image; a composite as the product of the two matrices; whether a
cone is a face of another through the face `minimal_face_containing`
builds; and a pullback's lattice lift computed afresh for every refined
cone, where the library keeps one per target cell on the subdivision.  The
one-pass canonical labelling, which computes the automorphisms on every
call, is kept beside the library's memoized labelling and automorphism
tables, with its own copies of the per-vertex invariant (one scan of the
edges and legs per vertex) and of the relabelling that makes a graph of
every candidate to compare the whole (genera, edges, data, legs) key.  The
transport that finds each part's owner by scanning the cells over its host
for the first that contains it is kept, and so is a family's union verdict
asked afresh through it.  The exact kernel's earlier paths are kept as oracles too: rational
elimination, a Smith form per solve, column-by-column inversion, a cone's
frame from one factorisation per piece (`cone_frame_by_solves`), double
description through Fraction projections and with each equation inserted as
a pair of inequalities, the box point scan and the rational sample points.
Whether a cone is unimodular is asked of the gcd of its maximal minors.
The builders that ran a double description per cone are kept as well: the
generated cone with one `la.rank` per generator for extremality and no
cache, and through it an inequality cone, a face, the two sides of a slice
and a pullback, where the library reads the facets off the rays and
covectors it already holds.
The pairwise relative interior test, which the chamber count of
`cones_cover_exactly` replaced, is kept here too.  The tests compare the
library against them.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd

from tropgeom import linalg as la
from tropgeom.curves import (
    DualGraph,
    _face_matrix,
    _flip,
    automorphism_pairs,
    canonical_labelling,
    check_stable_range,
    contract_subset,
    edge_perm_matrices,
    genus,
    sort_key,
    union_find,
)
from tropgeom.complexes import (
    ComplexMorphism,
    ConeComplex,
    ConicalSubset,
    FaceMap,
    is_union_of_cones,
    maps_agree_on,
    preimage_in_span,
    pull_back_cone,
    validate_complex,
)
from tropgeom.exactgeom import (
    GeometryError,
    LinearMap,
    NotPointed,
    RankMismatch,
    RationalCone,
    _combine,
    _insert_halfspace,
    cone_from_generators,
    extreme_rays_of_system,
    image_cone,
    intersect,
    lattice_surjective,
    zero_cone,
)
from tropgeom.subdivision import MAX_FIXPOINT_ROUNDS, SubdivisionOf, verify_subdivision
from tropgeom.tropmaps import ContactData, RubberMapType

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


def _relabel_direct(graph: DualGraph, edge_data, vperm):
    """Apply a vertex permutation; returns (graph, data, eperm old->new)."""
    genera = [0] * graph.num_vertices
    for v, g in enumerate(graph.genera):
        genera[vperm[v]] = g
    legs = tuple(vperm[v] for v in graph.legs)
    rows = []
    for i, (u, v) in enumerate(graph.edges):
        a, b = vperm[u], vperm[v]
        d = edge_data[i]
        if a > b:
            a, b = b, a
            d = _flip(d)
        rows.append((a, b, d, i))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    eperm = [0] * len(rows)
    for new, (_, _, _, old) in enumerate(rows):
        eperm[old] = new
    new_graph = DualGraph(tuple(genera), tuple((a, b) for a, b, _, _ in rows), legs)
    return new_graph, tuple(d for _, _, d, _ in rows), tuple(eperm)


def _candidate_perms_direct(graph: DualGraph):
    """Vertex permutations respecting the basic vertex invariant, each
    vertex's valence and legs read by its own scan of the edges and legs."""
    k = graph.num_vertices
    inv = [
        (graph.genera[v], graph.valence(v), graph.legs_at(v)) for v in range(k)
    ]
    classes = {}
    for v in range(k):
        classes.setdefault(inv[v], []).append(v)
    ordered = sorted(classes)
    blocks = [classes[key] for key in ordered]
    starts = []
    pos = 0
    for b in blocks:
        starts.append(pos)
        pos += len(b)
    for arrangement in product(*[permutations(b) for b in blocks]):
        vperm = [0] * k
        for block, start in zip(arrangement, starts):
            for off, old in enumerate(block):
                vperm[old] = start + off
        yield tuple(vperm)


def canonical_with_data_direct(graph: DualGraph, edge_data=None):
    """Canonical relabeling of a (decorated) graph plus its automorphisms,
    in one pass and with nothing remembered.

    Returns (canonical graph, canonical data, vperm, eperm, aut_pairs) where
    vperm/eperm translate the input labeling to the canonical one and
    aut_pairs lists the (vertex perm, edge perm) automorphisms of the
    canonical object.  Parallel edges with equal decorations contribute all
    their matchings, so the theta graph has 2 x 3! = 12 pairs.
    """
    if edge_data is None:
        edge_data = ((),) * graph.num_edges
    best = None
    for vperm in _candidate_perms_direct(graph):
        g2, d2, eperm = _relabel_direct(graph, edge_data, vperm)
        key = (g2.genera, g2.edges, d2, g2.legs)
        if best is None or key < best[0]:
            best = (key, g2, d2, vperm, eperm)
    _, cgraph, cdata, vperm, eperm = best

    aut_pairs = []
    for vp in _candidate_perms_direct(cgraph):
        g2, d2, _ = _relabel_direct(cgraph, cdata, vp)
        if (g2, d2) != (cgraph, cdata):
            continue
        # all matchings within groups of indistinguishable parallel edges
        groups = {}
        for i in range(len(cgraph.edges)):
            u, v = cgraph.edges[i]
            a, b = vp[u], vp[v]
            d = cdata[i]
            if a > b:
                a, b = b, a
                d = _flip(d)
            groups.setdefault((a, b, d), []).append(i)
        slots = {}
        for i, (u, v) in enumerate(cgraph.edges):
            slots.setdefault((u, v, cdata[i]), []).append(i)
        keys = sorted(groups)
        choices = [permutations(slots[key]) for key in keys]
        for assignment in product(*choices):
            eperm2 = [0] * len(cgraph.edges)
            for key, targets in zip(keys, assignment):
                for src, dst in zip(groups[key], targets):
                    eperm2[src] = dst
            aut_pairs.append((vp, tuple(eperm2)))
    return cgraph, cdata, vperm, eperm, aut_pairs


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
            if not is_balanced_by_vertex_sums(t):
                continue
            if not has_consistent_heights_dfs(t):
                continue
            if not any(_isomorphic_types(t, s) for s in types):
                types.append(t)
    return types


def is_balanced_by_vertex_sums(t: RubberMapType) -> bool:
    """Signed slope sums vanish at every vertex, legs counted with their orders."""
    for f in range(t.num_factors):
        for v in range(t.graph.num_vertices):
            total = 0
            for i, (a, b) in enumerate(t.graph.edges):
                s = t.slopes[f][i]
                if a == v:
                    total += s
                if b == v:
                    total -= s
            for j, w in enumerate(t.graph.legs):
                if w == v:
                    total += t.contact.slopes[f][j]
            if total != 0:
                return False
    return True


def has_consistent_heights_dfs(t: RubberMapType) -> bool:
    """Slope zero edges identify heights; the strict relations from nonzero
    slopes must then be acyclic, tested by depth-first search."""
    k = t.graph.num_vertices
    for f in range(t.num_factors):
        flat = [e for i, e in enumerate(t.graph.edges) if t.slopes[f][i] == 0]
        find, _ = union_find(k, flat)
        arcs = set()
        for i, (a, b) in enumerate(t.graph.edges):
            s = t.slopes[f][i]
            if s > 0:
                arcs.add((find(a), find(b)))
            elif s < 0:
                arcs.add((find(b), find(a)))
        nodes = {x for arc in arcs for x in arc}
        out = {x: [] for x in nodes}
        for a, b in arcs:
            if a == b:
                return False
            out[a].append(b)
        state = {x: 0 for x in nodes}

        def dfs(x):
            state[x] = 1
            for y in out[x]:
                if state[y] == 1:
                    return False
                if state[y] == 0 and not dfs(y):
                    return False
            state[x] = 2
            return True

        for x in nodes:
            if state[x] == 0 and not dfs(x):
                return False
    return True


def cycle_equations_spanning_tree(t: RubberMapType):
    """One row per edge off the lexicographically least spanning tree per
    factor: the edge closes a cycle through the tree, whose total
    displacement vanishes."""
    k = t.graph.num_vertices
    _, merged = union_find(k, t.graph.edges)
    tree = [i for i, m in enumerate(merged) if m]
    back = [i for i, m in enumerate(merged) if not m]
    # BFS parents over tree edges
    adj = {v: [] for v in range(k)}
    for i in tree:
        u, v = t.graph.edges[i]
        adj[u].append((v, i, 1))
        adj[v].append((u, i, -1))
    parent = {0: None}
    order = [0]
    for x in order:
        for y, i, d in adj[x]:
            if y not in parent:
                parent[y] = (x, i, d)
                order.append(y)

    def path_from_root(v):
        out = []
        while parent[v] is not None:
            x, i, d = parent[v]
            out.append((i, d))
            v = x
        out.reverse()
        return out

    rows = []
    ne = t.graph.num_edges
    for f in range(t.num_factors):
        for i in back:
            u, v = t.graph.edges[i]
            row = [0] * ne
            row[i] += t.slopes[f][i]
            # walk from v back to u through the tree
            pu, pv = path_from_root(u), path_from_root(v)
            common = 0
            while (
                common < len(pu) and common < len(pv) and pu[common] == pv[common]
            ):
                common += 1
            for j, d in pv[common:]:
                row[j] -= d * t.slopes[f][j]
            for j, d in pu[common:]:
                row[j] += d * t.slopes[f][j]
            rows.append(tuple(row))
    return tuple(rows)


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
            sol = solve(m, x)
            if sol is None:
                continue
            if all(c >= 0 for c in sol):
                return True
    return False


def contains_by_dot(cone: RationalCone, x) -> bool:
    """`RationalCone.contains` through one `la.dot` per covector."""
    if len(x) != cone.ambient_rank:
        raise RankMismatch("point rank mismatch")
    return all(la.dot(e, x) == 0 for e in cone.span_eqs) and all(
        la.dot(f, x) >= 0 for f in cone.facets
    )


def contains_in_relint_by_dot(cone: RationalCone, x) -> bool:
    """`RationalCone.contains_in_relint` through one `la.dot` per covector."""
    if len(x) != cone.ambient_rank:
        raise RankMismatch("point rank mismatch")
    return all(la.dot(e, x) == 0 for e in cone.span_eqs) and all(
        la.dot(f, x) > 0 for f in cone.facets
    )


def face_at_by_dot(cone: RationalCone, covectors) -> RationalCone:
    """`RationalCone.face_at`, uncached, through one `la.dot` per pair."""
    kept = [r for r in cone.rays if all(la.dot(c, r) == 0 for c in covectors)]
    return cone_from_generators(kept, cone.ambient_rank)


def minimal_face_containing_by_dot(cone: RationalCone, sub: RationalCone):
    """`RationalCone.minimal_face_containing` through one `la.dot` per pair."""
    active = [
        f for f in cone.facets if all(la.dot(f, r) == 0 for r in sub.rays)
    ]
    return face_at_by_dot(cone, active)


def is_face_of_by_minimal_face(a: RationalCone, b: RationalCone) -> bool:
    """`RationalCone.is_face_of` through the face `minimal_face_containing`
    builds, compared as a cone."""
    if not b.contains_cone(a):
        return False
    return b.minimal_face_containing(a) == a


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


def transport_by_scan(sub: SubdivisionOf, subset: ConicalSubset) -> ConicalSubset:
    """`SubdivisionOf.transport` with each part's owner found by scanning the
    cells over its host, in (dim, rays) order, for the first that contains
    the part."""
    pieces = []
    seen = set()
    for host, p in subset.pieces:
        cells = sub.cells_over(host)
        if p.is_zero():
            zero_cell = next(c for c in cells if c.cone.is_zero())
            parts = [(zero_cell, p)]
        else:
            d = sub.original.cones[host].dim
            parts = []
            for c in cells:
                if c.cone.dim != d:
                    continue
                q = intersect(c.cone, p)
                if q.is_zero():
                    continue
                owner = next(cc for cc in cells if cc.cone.contains_cone(q))
                parts.append((owner, q))
        for owner, q in parts:
            back = pull_back_cone(owner.map, sub.refined.cones[owner.src], q)
            key = (owner.src, back.rays)
            if key not in seen:
                seen.add(key)
                pieces.append((owner.src, back))
    return ConicalSubset(sub.refined, tuple(pieces))


def union_verdict_by_transport(sub: SubdivisionOf, family: ConicalSubset):
    """`pipeline._union_verdict` asked afresh: the family transported by the
    scan and checked, with the point of the first witness when it fails."""
    chk = is_union_of_cones(sub.refined, transport_by_scan(sub, family))
    return chk.ok, chk.witnesses[0][2] if chk.witnesses else None


def is_identity(sub: SubdivisionOf) -> bool:
    """Whether the subdivision cuts nothing: one refined cone per original
    cone, each mapped onto its original cone."""
    if len(sub.refined.cones) != len(sub.original.cones):
        return False
    for rid in sub.refined.ids():
        tgt, m = sub.projection.assignments[rid]
        if image_cone(m, sub.refined.cones[rid]) != sub.original.cones[tgt]:
            return False
    return True


# ---------------------------------------------------------------------------
# the contraction-closure builder keyed by object


def contraction_complex_by_object(seeds, prefix: str, make, cone_of):
    """The cone complex of decorated graphs closed under edge contraction,
    keyed by the object that make builds for each canonical pair: make runs,
    and its object is hashed, for every contracted edge subset.

    seeds are (graph, edge data) pairs.  make(graph, data) builds the object
    that stands for a canonical pair, and cone_of(object) its cone in edge
    length coordinates.  Every subset of every object's edges is contracted
    once; that one canonicalization gives the face map and, for a single
    edge, finds new objects.  Contracting several edges at once must land on
    an object found that way.  Cone ids are prefix + rank in sort_key order.
    Automorphisms are computed once per object found.  Returns (complex,
    cone id -> object).
    """
    found = {}  # object -> (canonical graph, canonical data)
    contractions = {}  # object -> [(contracted edges, object, face matrix)]
    queue = []

    def canonical(graph, data, discover=True):
        cgraph, cdata, _, eperm = canonical_labelling(graph, data)
        obj = make(cgraph, cdata)
        if discover and obj not in found:
            found[obj] = (cgraph, cdata)
            queue.append(obj)
        return obj, eperm

    for graph, data in seeds:
        canonical(graph, data)
    while queue:
        obj = queue.pop()
        graph, data = found[obj]
        ne = graph.num_edges
        out = contractions[obj] = []
        for size in range(1, ne + 1):
            for subset in combinations(range(ne), size):
                raw, survivors = contract_subset(graph, subset)
                raw_data = tuple(
                    data[i] if sign > 0 else _flip(data[i]) for i, sign in survivors
                )
                sub, eperm = canonical(raw, raw_data, size == 1)
                out.append((subset, sub, _face_matrix(ne, survivors, eperm)))

    # sort_key takes per-factor slope rows, the transpose of the edge data
    ordered = sorted(
        found, key=lambda o: sort_key(found[o][0], tuple(zip(*found[o][1])))
    )
    ids = {obj: f"{prefix}{k}" for k, obj in enumerate(ordered)}
    cones = {ids[obj]: cone_of(obj) for obj in ordered}
    auts = {}
    faces = set()
    for obj in ordered:
        cid = ids[obj]
        cone = cones[cid]
        ne = found[obj][0].num_edges
        mats = edge_perm_matrices(ne, automorphism_pairs(*found[obj]))
        auts[cid] = [m for m in mats if image_cone(m, cone) == cone]
        for subset, sub, m in contractions[obj]:
            if sub not in ids:
                raise AssertionError(
                    f"contracting edges {subset} of {cid} at once reaches a "
                    "cone that single edge contractions do not"
                )
            face = cone.face_at(
                [tuple(1 if i == e else 0 for i in range(ne)) for e in subset]
            )
            if image_cone(m, cones[ids[sub]]) != face:
                raise AssertionError(
                    "contracted cone does not match the length zero face"
                )
            faces.add(FaceMap(ids[sub], cid, m))
    return ConeComplex(cones, faces, auts), {cid: obj for obj, cid in ids.items()}


def contraction_faces_direct(graph: DualGraph, data):
    """`curves.contraction_faces` with no table: every nonempty edge subset
    contracted on its own (`contract_subset`) and canonicalized by the
    one-pass labelling, which also gives the automorphisms."""
    ne = graph.num_edges
    faces = []
    for size in range(1, ne + 1):
        for subset in combinations(range(ne), size):
            raw, survivors = contract_subset(graph, subset)
            raw_data = tuple(
                data[i] if sign > 0 else _flip(data[i]) for i, sign in survivors
            )
            cgraph, cdata, _, eperm, _ = canonical_with_data_direct(raw, raw_data)
            faces.append((subset, (cgraph, cdata), _face_matrix(ne, survivors, eperm)))
    auts = canonical_with_data_direct(graph, data)[4]
    return tuple(faces), tuple(edge_perm_matrices(ne, auts))


# ---------------------------------------------------------------------------
# the whole-complex assembler


def closure_of_fans_whole(cx: ConeComplex, fans: dict):
    """Face-close the given cells, then close under automorphisms and
    pullback along face maps until stable."""
    cells = {}
    for cid, cone in cx.cones.items():
        given = list(fans[cid]) if cid in fans else [cone]
        got = set()
        for c in given:
            for f in c.all_faces():
                got.add(f)
        cells[cid] = got
    for _ in range(MAX_FIXPOINT_ROUNDS):
        changed = set()
        for cid in cx.ids():
            for g in cx.auts[cid]:
                for c in list(cells[cid]):
                    img = image_cone(g, c)
                    if img not in cells[cid]:
                        cells[cid].add(img)
                        changed.add(cid)
        for f in cx.faces:
            sub_cone = cx.cones[f.sub]
            fimg = image_cone(f.map, sub_cone)
            for c in list(cells[f.sup]):
                if fimg.contains_cone(c):
                    back = pull_back_cone(f.map, sub_cone, c)
                    if back not in cells[f.sub]:
                        cells[f.sub].add(back)
                        changed.add(f.sub)
        if not changed:
            return cells
    raise GeometryError(
        f"cell closure did not stabilize in {MAX_FIXPOINT_ROUNDS} rounds; "
        f"cells of cones {sorted(changed)} still changed in the last round"
    )


def glue_fans_whole(cx: ConeComplex, fans: dict) -> SubdivisionOf:
    """Glue per-cone fans of cells into a refined complex (unverified).

    Cells whose relative interior meets the relative interior of their host
    cone are owned by that host; every other cell is pulled back to the face
    that owns it.  One cone is stored per automorphism orbit of owned cells.
    """
    cells = closure_of_fans_whole(cx, fans)

    cell_info = {}
    owned = {cid: {} for cid in cx.cones}
    for cid in cx.ids():
        cone = cx.cones[cid]
        for c in sorted(cells[cid], key=lambda c: (c.dim, c.rays)):
            mf = cone.minimal_face_containing(c)
            if mf == cone:
                owner, emb_map, c_owner = cid, LinearMap.identity(cone.ambient_rank), c
            else:
                emb = next(
                    (e for e in cx.embeddings_into(cid) if e.cone == mf), None
                )
                if emb is None:
                    raise GeometryError(
                        f"face {mf.rays} of cone {cid} is not represented; "
                        "cannot resolve cell ownership"
                    )
                owner, emb_map = emb.src, emb.map
                c_owner = pull_back_cone(emb_map, cx.cones[owner], c)
            rep, h = min(
                ((image_cone(h, c_owner), h) for h in cx.auts[owner]),
                key=lambda t: t[0].rays,
            )
            hinv = LinearMap(
                la.invert_unimodular(h.matrix), h.source_rank, h.target_rank
            )
            cell_info[(cid, c.rays)] = (owner, rep, emb_map.compose(hinv))
            owned[owner][rep.rays] = rep

    ids = {}
    new_cones = {}
    for owner in cx.ids():
        reps = sorted(owned[owner].values(), key=lambda c: (c.dim, c.rays))
        for k, rep in enumerate(reps):
            nid = f"{owner}.{k}"
            ids[(owner, rep.rays)] = nid
            new_cones[nid] = rep

    new_auts = {}
    new_faces = set()
    assignments = {}
    for (owner, rays), nid in ids.items():
        rep = new_cones[nid]
        new_auts[nid] = [
            g for g in cx.auts[owner] if image_cone(g, rep) == rep
        ]
        assignments[nid] = (
            owner,
            LinearMap.identity(cx.cones[owner].ambient_rank),
        )
        for face in rep.proper_faces():
            sub_owner, sub_rep, sub_map = cell_info[(owner, face.rays)]
            sub_id = ids[(sub_owner, sub_rep.rays)]
            new_faces.add(FaceMap(sub_id, nid, sub_map))

    refined = ConeComplex(new_cones, new_faces, new_auts)
    return SubdivisionOf(
        cx, refined, ComplexMorphism(refined, cx, assignments), cx.cones
    )


def check_subdivision_whole(sub: SubdivisionOf):
    """The problems of a subdivision, found everywhere: `validate_complex` on
    the whole refined complex and the wall certificate over every original
    cone, touched or not."""
    whole = SubdivisionOf(sub.original, sub.refined, sub.projection, sub.original.cones)
    return validate_complex(sub.refined) + verify_subdivision(whole)


# ---------------------------------------------------------------------------
# the face lookups and validators as scans of the face maps and embeddings


def embedding_onto_scan(cx: ConeComplex, cid: str, face: RationalCone):
    """The first entry of `embeddings_into(cid)` whose image is the face."""
    return next((e for e in cx.embeddings_into(cid) if e.cone == face), None)


def embeddings_into_every_automorphism(cx: ConeComplex, cid: str):
    """`ConeComplex.embeddings_into` with every automorphism, the identity
    too, composed with every embedding and applied to its image."""
    cone = cx.cones[cid]
    base = [(cone, cid, LinearMap.identity(cone.ambient_rank))]
    for f in cx.faces:
        if f.sup == cid:
            base.append((image_cone(f.map, cx.cones[f.sub]), f.sub, f.map))
    out = {}
    for g in cx.auts[cid]:
        for img, src, m in base:
            gm = compose_by_mat_mul(g, m)
            key = (src, gm.matrix)
            if key not in out:
                out[key] = (image_cone(g, img), src, gm)
    return sorted(out.values(), key=lambda e: (e[0].dim, e[1], e[2].matrix))


def face_maps_into_scan(cx: ConeComplex, cid: str):
    return sorted(
        (f for f in cx.faces if f.sup == cid), key=lambda f: (f.sub, f.map.matrix)
    )


def face_maps_out_of_scan(cx: ConeComplex, cid: str):
    return sorted(
        (f for f in cx.faces if f.sub == cid), key=lambda f: (f.sup, f.map.matrix)
    )


def validate_complex_loops(cx: ConeComplex, deep: bool = True):
    """`validate_complex` with the representation test as a set of images per
    cone, then, when deep, the checks the library leaves to this oracle:
    composites of face maps and automorphisms permuting them, as nested
    loops over every face map."""
    out = []
    well_formed = []
    for f in cx.faces:
        if f.sub not in cx.cones or f.sup not in cx.cones:
            out.append(f"face map {f.sub}->{f.sup} references unknown cones")
            continue
        sub, sup = cx.cones[f.sub], cx.cones[f.sup]
        if f.map.source_rank != sub.ambient_rank or f.map.target_rank != sup.ambient_rank:
            out.append(f"face map {f.sub}->{f.sup} has wrong matrix shape")
            continue
        well_formed.append(f)
        img = image_cone(f.map, sub)
        if not img.is_face_of(sup):
            out.append(f"face map {f.sub}->{f.sup} does not land on a face")
            continue
        if img.dim != sub.dim or not lattice_surjective(f.map, sub):
            out.append(f"face map {f.sub}->{f.sup} is not a lattice isomorphism onto its image")
    cx = ConeComplex(cx.cones, well_formed, cx.auts)

    for cid, cone in sorted(cx.cones.items()):
        group = cx.auts[cid]
        mats = {g.matrix for g in group}
        for g in group:
            try:
                ginv = LinearMap(
                    la.invert_unimodular(g.matrix), cone.ambient_rank, cone.ambient_rank
                )
            except ValueError:
                out.append(f"automorphism of {cid} is not invertible over the lattice")
                continue
            if image_cone(g, cone) != cone:
                out.append(f"automorphism of {cid} does not preserve the cone")
            if ginv.matrix not in mats:
                out.append(f"automorphism group of {cid} is not closed under inverse")
            for h in group:
                if g.compose(h).matrix not in mats:
                    out.append(f"automorphism group of {cid} is not closed under composition")
                    break

    for cid, cone in sorted(cx.cones.items()):
        images = {e.cone.rays for e in cx.embeddings_into(cid)}
        for face in cone.proper_faces():
            if face.rays not in images:
                out.append(f"face {face.rays} of cone {cid} is not represented")

    if not deep:
        return out

    # composites of face maps are face maps, up to automorphisms on both sides
    by_sub = {}
    for f in cx.faces:
        by_sub.setdefault(f.sub, []).append(f)
    for f1 in cx.faces:
        for f2 in by_sub.get(f1.sup, []):
            comp = f2.map.compose(f1.map)
            sub_cone = cx.cones[f1.sub]
            ok = False
            for f3 in cx.faces:
                if f3.sub != f1.sub or f3.sup != f2.sup:
                    continue
                for g in cx.auts[f2.sup]:
                    for h in cx.auts[f1.sub]:
                        if maps_agree_on(sub_cone, g.compose(f3.map).compose(h), comp):
                            ok = True
                            break
                    if ok:
                        break
                if ok:
                    break
            if not ok:
                out.append(
                    f"composite face map {f1.sub}->{f1.sup}->{f2.sup} is not represented"
                )

    # automorphisms permute the face embeddings
    for f in cx.faces:
        sub_cone = cx.cones[f.sub]
        for g in cx.auts[f.sup]:
            moved = g.compose(f.map)
            ok = False
            for f2 in cx.faces:
                if f2.sub != f.sub or f2.sup != f.sup:
                    continue
                for h in cx.auts[f.sub]:
                    if maps_agree_on(sub_cone, f2.map.compose(h), moved):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                out.append(
                    f"automorphism of {f.sup} moves face map from {f.sub} outside the face set"
                )
    return sorted(set(out))


def validate_morphism_loops(phi: ComplexMorphism):
    """`validate_morphism` with the compatibility test as nested loops over
    the embeddings and automorphisms of the target."""
    out = []
    for cid in phi.source.ids():
        if cid not in phi.assignments:
            out.append(f"no assignment for source cone {cid}")
            continue
        tgt, m = phi.assignments[cid]
        if tgt not in phi.target.cones:
            out.append(f"assignment of {cid} targets unknown cone {tgt}")
            continue
        src_cone = phi.source.cones[cid]
        tgt_cone = phi.target.cones[tgt]
        if m.source_rank != src_cone.ambient_rank or m.target_rank != tgt_cone.ambient_rank:
            out.append(f"assignment of {cid} has wrong matrix shape")
            continue
        if not all(tgt_cone.contains(m.apply(r)) for r in src_cone.rays):
            out.append(f"assignment of {cid} does not map the cone into {tgt}")

    for f in phi.source.faces:
        if f.sub not in phi.assignments or f.sup not in phi.assignments:
            continue
        ta, ma = phi.assignments[f.sub]
        tb, mb = phi.assignments[f.sup]
        want = mb.compose(f.map)
        sub_cone = phi.source.cones[f.sub]
        ok = False
        for emb in phi.target.embeddings_into(tb):
            if emb.src != ta:
                continue
            for h in phi.target.auts[ta]:
                if maps_agree_on(sub_cone, emb.map.compose(h).compose(ma), want):
                    ok = True
                    break
            if ok:
                break
        if not ok:
            out.append(
                f"morphism is incompatible with the face map {f.sub}->{f.sup}"
            )
    return sorted(set(out))


# ---------------------------------------------------------------------------
# the exact kernel's earlier paths


def _rref(rows):
    """Reduced row echelon form over Q.  Returns (pivot columns, rref rows)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots, [tuple(row) for row in m[:r]]


def _det_leibniz(m) -> int:
    """The determinant of a small square integer matrix, by the Leibniz sum."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def is_unimodular_by_minors(cone: RationalCone) -> bool:
    """Whether the cone is simplicial and the gcd of the maximal minors of
    its rays is 1, which is its lattice index: the rays then extend to a
    basis of the lattice of the span."""
    d = len(cone.rays)
    if d != cone.dim:
        return False
    index = 0
    for cols in combinations(range(cone.ambient_rank), d):
        index = gcd(index, _det_leibniz([[r[c] for c in cols] for r in cone.rays]))
    return index == 1


def rank_rational(rows) -> int:
    """Rank by rational row reduction."""
    if not rows:
        return 0
    return len(_rref(rows)[0])


def solve(mat, target):
    """One rational solution x of mat * x = target, or None."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if nrows == 0:
        return (Fraction(0),) * ncols
    aug = [tuple(row) + (t,) for row, t in zip(mat, target, strict=True)]
    pivots, red = _rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for pc, row in zip(pivots, red):
        x[pc] = row[-1]
    return tuple(x)


def dot_zip(u, v):
    """The dot product through zip(strict=True)."""
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec_by_rows(m, v):
    """A matrix times a vector, one `dot_zip` per row."""
    return tuple(dot_zip(row, v) for row in m)


def mat_mul_by_rows(a, b):
    """A matrix product, one `dot_zip` per row of a and column of b."""
    bt = la.transpose(b)
    return tuple(tuple(dot_zip(ra, cb) for cb in bt) for ra in a)


def compose_by_mat_mul(a: LinearMap, b: LinearMap) -> LinearMap:
    """`LinearMap.compose` with no table and no identity shortcut: a after b
    as the product of the two matrices."""
    if b.target_rank != a.source_rank:
        raise RankMismatch("composition rank mismatch")
    return LinearMap(la.mat_mul(a.matrix, b.matrix), b.source_rank, a.target_rank)


def pullback_assignments_fresh(phi: ComplexMorphism, s: SubdivisionOf, sub_src: SubdivisionOf):
    """The assignments of `pullback_subdivision(phi, s).refined_map`, given
    its source subdivision sub_src, with each refined cone's lattice lift
    computed afresh, as basisᵀ · `la.projection_to_lattice` of the image of
    the target cell's span basis."""
    out = {}
    for rid in sub_src.refined.ids():
        owner, pm = sub_src.projection.assignments[rid]
        rep = sub_src.refined.cones[rid]
        _, m = phi.assignments[owner]
        full = compose_by_mat_mul(m, pm)
        img = image_cone(full, rep)
        best = next(c for c in s.cells_over(phi.assignments[owner][0])
                    if c.cone.contains_cone(img))
        t_rep = s.refined.cones[best.src]
        basis = t_rep.span_basis
        if basis:
            proj = la.projection_to_lattice(tuple(best.map.apply(b) for b in basis))
            rows = la.mat_mul(la.mat_mul(la.transpose(basis), proj), full.matrix)
        else:
            rows = tuple(la.zero_vec(full.source_rank) for _ in range(t_rep.ambient_rank))
        out[rid] = (best.src, LinearMap(rows, full.source_rank, t_rep.ambient_rank))
    return out


def solve_integer_fresh(mat, target):
    """One integer solution x of mat * x = target, or None, from a Smith
    form computed for this call alone."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if nrows == 0:
        return (0,) * ncols
    diag, u, v = la.smith_normal_form(mat)
    c = la.mat_vec(u, target)
    y = [0] * ncols
    for i in range(nrows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return la.mat_vec(v, tuple(y))


def invert_unimodular_by_columns(m):
    """Inverse of a unimodular integer matrix, one solve per column."""
    n = len(m)
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        x = solve_integer_fresh(m, e)
        if x is None:
            raise ValueError("matrix is not unimodular")
        cols.append(x)
    return la.transpose(tuple(cols)) if n else ()


def saturated_row_basis(rows):
    """Basis of (Q-span of rows) meet Z^n: the first r rows of v^-1 for the
    Smith form u*rows*v = D of rank r, v inverted column by column."""
    diag, _, v = la.smith_normal_form(tuple(rows))
    r = sum(1 for d in diag if d)
    return invert_unimodular_by_columns(v)[:r]


def cone_frame_by_solves(gens, ambient_rank: int):
    """(rays, span_basis, span_eqs, facets) of the cone the primitive
    generators span, each from its own factorisation: the saturated span
    basis of the generators in the order given, one `lattice_coords` per
    generator, the HNF of `kernel_basis(span_basis)` as span equations and
    one `solve_integer` per facet lift."""
    gens = [tuple(g) for g in gens]
    if la.rank(gens) == ambient_rank:
        basis = la.identity_matrix(ambient_rank)
    else:
        basis = saturated_row_basis(gens)
    d = len(basis)
    coords = [la.lattice_coords(basis, g) for g in gens]
    _, dual_rays = extreme_rays_of_system(coords, [], d)
    rays = sorted(
        g
        for g, gc in zip(gens, coords)
        if la.rank([w for w in dual_rays if la.dot(w, gc) == 0]) == d - 1
    )
    if d == ambient_rank:
        span_eqs, facets = [], dual_rays
    else:
        span_eqs, pivots = la.hnf_rows(la.kernel_basis(basis, ambient_rank))
        facets = [
            la.reduce_mod_lattice(la.solve_integer(basis, w), span_eqs, pivots)
            for w in dual_rays
        ]
    return tuple(rays), tuple(basis), tuple(span_eqs), tuple(sorted(facets))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    denom = 1
    for x in v:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    ints = tuple(int(Fraction(x) * denom) for x in v)
    return la.primitive(ints)


def _insert_halfspace_fraction(lin, rays, a, index, n_inserted):
    """One double description step, projecting the lineality space through
    Fraction arithmetic."""
    vals = [la.dot(a, b) for b in lin]
    pivot = next((i for i, v in enumerate(vals) if v != 0), None)
    if pivot is not None:
        b = lin[pivot]
        vb = vals[pivot]
        if vb < 0:
            b = la.vscale(-1, b)
            vb = -vb
        new_lin = []
        for i, l in enumerate(lin):
            if i == pivot:
                continue
            proj = tuple(Fraction(x) - Fraction(vals[i], vb) * y for x, y in zip(l, b))
            new_lin.append(clear_denominators(proj))
        new_rays = []
        for r, zs in rays:
            vr = la.dot(a, r)
            proj = tuple(Fraction(x) - Fraction(vr, vb) * y for x, y in zip(r, b))
            projv = clear_denominators(proj)
            if any(projv):
                new_rays.append([projv, zs | {index}])
        new_rays.append([la.primitive(b), frozenset(range(n_inserted))])
        return new_lin, new_rays

    pos, zero, neg = [], [], []
    for r, zs in rays:
        v = la.dot(a, r)
        if v > 0:
            pos.append([r, zs, v])
        elif v < 0:
            neg.append([r, zs, v])
        else:
            zero.append([r, zs | {index}])
    if not neg:
        return lin, [[r, zs] for r, zs, _ in pos] + zero
    if not pos and not zero and not lin:
        return lin, []
    kept = [[r, zs] for r, zs, _ in pos] + zero
    all_zerosets = [zs for _, zs, _ in pos] + [zs for _, zs in zero] + [
        zs for _, zs, _ in neg
    ]
    for (rp, zp, vp), (rn, zn, vn) in [(p, n) for p in pos for n in neg]:
        common = zp & zn
        adjacent = not any(
            zs >= common for zs in all_zerosets if zs is not zp and zs is not zn
        )
        if not adjacent:
            continue
        comb = la.primitive(_vsub(la.vscale(vp, rn), la.vscale(vn, rp)))
        if any(comb):
            kept.append([comb, common | {index}])
    seen = {}
    for r, zs in kept:
        if r in seen:
            seen[r] = seen[r] | zs
        else:
            seen[r] = zs
    return lin, [[r, zs] for r, zs in seen.items()]


def extreme_rays_of_system_fraction(ineqs, eqns, rank: int):
    """`exactgeom.extreme_rays_of_system` on the Fraction insertion step: the
    same start at the lattice of the equations, the same inequalities."""
    lin = la.kernel_basis(tuple(map(tuple, eqns)), rank)
    rays = []
    ineqs = [tuple(a) for a in ineqs if any(a)]
    for index, a in enumerate(ineqs):
        lin, rays = _insert_halfspace_fraction(lin, rays, a, index, index)
    return lin, [r for r, _ in rays]


def insert_halfspace_by_dot(lin, rays, a, index):
    """`exactgeom._insert_halfspace` through one `la.dot` per pair."""
    vals = [la.dot(a, b) for b in lin]
    pivot = next((i for i, v in enumerate(vals) if v != 0), None)
    if pivot is not None:
        b = lin[pivot]
        vb = vals[pivot]
        if vb < 0:
            b = la.vscale(-1, b)
            vb = -vb
        new_lin = [
            _combine(vb, l, vals[i], b) for i, l in enumerate(lin) if i != pivot
        ]
        new_rays = []
        for r, zs in rays:
            projv = _combine(vb, r, la.dot(a, r), b)
            if any(projv):
                new_rays.append([projv, zs | {index}])
        new_rays.append([la.primitive(b), frozenset(range(index))])
        return new_lin, new_rays

    pos, zero, neg = [], [], []
    for r, zs in rays:
        v = la.dot(a, r)
        if v > 0:
            pos.append([r, zs, v])
        elif v < 0:
            neg.append([r, zs, v])
        else:
            zero.append([r, zs | {index}])
    if not neg:
        return lin, [[r, zs] for r, zs, _ in pos] + zero
    if not pos and not zero and not lin:
        return lin, []
    kept = [[r, zs] for r, zs, _ in pos] + zero
    all_zerosets = [zs for _, zs, _ in pos] + [zs for _, zs in zero] + [
        zs for _, zs, _ in neg
    ]
    for (rp, zp, vp), (rn, zn, vn) in [(p, n) for p in pos for n in neg]:
        common = zp & zn
        adjacent = not any(
            zs >= common for zs in all_zerosets if zs is not zp and zs is not zn
        )
        if not adjacent:
            continue
        comb = _combine(vp, rn, vn, rp)
        if any(comb):
            kept.append([comb, common | {index}])
    seen = {}
    for r, zs in kept:
        if r in seen:
            seen[r] = seen[r] | zs
        else:
            seen[r] = zs
    return lin, [[r, zs] for r, zs in seen.items()]


def slices_by_dot(cone: RationalCone, w) -> bool:
    """`subdivision._slices` through one `la.dot` per ray."""
    vals = [la.dot(w, r) for r in cone.rays]
    return any(v > 0 for v in vals) and any(v < 0 for v in vals)


def extreme_rays_of_system_pairs(ineqs, eqns, rank: int):
    """`exactgeom.extreme_rays_of_system` as it was: the insertion starts at
    the whole lattice and inserts each equation as the two inequalities
    e >= 0 and -e >= 0 before the inequalities."""
    lin = [tuple(la.identity_matrix(rank)[i]) for i in range(rank)]
    rays = []
    constraints = []
    for e in eqns:
        constraints.append(tuple(e))
        constraints.append(tuple(-x for x in e))
    constraints.extend(tuple(a) for a in ineqs)
    inserted = 0
    for c in constraints:
        if not any(c):
            continue
        lin, rays = _insert_halfspace(lin, rays, c, inserted)
        inserted += 1
    return lin, [r for r, _ in rays]


def relints_intersect(a: RationalCone, b: RationalCone) -> bool:
    """Exact test for whether two cones have intersecting relative interiors."""
    i = intersect(a, b)
    p = i.relint_point()
    return a.contains_in_relint(p) and b.contains_in_relint(p)


def parallelepiped_interior_point_scan(cone: RationalCone):
    """A minimal interior lattice point of the fundamental cell of a
    simplicial cone, by scanning all (k-1)^d rational combinations."""
    k = cone.lattice_index()
    d = len(cone.rays)
    best = None
    for combo in product(range(1, k), repeat=d):
        coords = [Fraction(a, k) for a in combo]
        pt = tuple(
            sum(c * r[i] for c, r in zip(coords, cone.rays))
            for i in range(cone.ambient_rank)
        )
        if all(x.denominator == 1 for x in pt):
            ipt = tuple(int(x) for x in pt)
            key = (sum(combo), ipt)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def sample_points_fraction(cone: RationalCone, count: int, rng):
    """`exactgeom.sample_points` with the rational points it used to return:
    the same draws, combined with Fraction coefficients and not scaled."""
    pts = []
    if cone.is_zero():
        return [la.zero_vec(cone.ambient_rank)] * min(count, 1)
    for _ in range(count):
        coeffs = [Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in cone.rays]
        if not any(coeffs):
            coeffs[rng.randrange(len(coeffs))] = Fraction(1)
        pts.append(
            tuple(
                sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                for i in range(cone.ambient_rank)
            )
        )
    return pts


# ---------------------------------------------------------------------------
# the cone builders that ran a double description per cone


def cone_from_generators_by_rank(vectors, ambient_rank: int) -> RationalCone:
    """`exactgeom.cone_from_generators` as it was, with no cone cache: the
    facets from a double description of the dual cone in the frame of the
    sorted primitive generators, and a generator extreme when its active
    facets have rank d - 1 (one `la.rank` per generator)."""
    gens = sorted({la.primitive(tuple(v)) for v in vectors if any(v)})
    if not gens:
        return zero_cone(ambient_rank)
    if la.rank(gens) == ambient_rank:
        span_basis = tuple(la.identity_matrix(ambient_rank))
        d = ambient_rank
        coords = gens
    else:
        diag, u, v = la.smith_normal_form(tuple(gens))
        d = sum(1 for x in diag if x)
        span_basis = tuple(map(la.primitive, la.mat_mul(u[:d], tuple(gens))))
        lift = tuple(row[:d] for row in v)
        coords = la.mat_mul(gens, lift)
    lin, dual_rays = extreme_rays_of_system(coords, [], d)
    assert not lin
    if la.rank(dual_rays) < d:
        raise NotPointed("generated cone contains a line")
    rays = tuple(
        g
        for g, gc in zip(gens, coords)
        if la.rank([w for w in dual_rays if la.dot(w, gc) == 0]) == d - 1
    )
    if d == ambient_rank:
        span_eqs, facets = (), dual_rays
    else:
        span_eqs, pivots = la.hnf_rows(la.transpose(v)[d:])
        facets = [la.reduce_mod_lattice(la.mat_vec(lift, w), span_eqs, pivots) for w in dual_rays]
    return RationalCone(ambient_rank, rays, d, tuple(sorted(facets)), tuple(span_eqs), span_basis)


def cone_from_inequalities_by_generators(ineqs, eqns, ambient_rank: int) -> RationalCone:
    """`exactgeom.cone_from_inequalities` as it was, uncached: the rays of
    one double description, then a second one for the facets."""
    lin, rays = extreme_rays_of_system(ineqs, eqns, ambient_rank)
    if lin:
        raise NotPointed("inequality system has a nontrivial lineality space")
    return cone_from_generators_by_rank(rays, ambient_rank)


def face_at_by_generators(cone: RationalCone, covectors) -> RationalCone:
    """`RationalCone.face_at` as it was, uncached: the generated cone of the
    rays on the face."""
    kept = [r for r in cone.rays if all(la.dot(c, r) == 0 for c in covectors)]
    return cone_from_generators_by_rank(kept, cone.ambient_rank)


def chambers_by_inequalities(cone: RationalCone, covectors):
    """`subdivision._chambers` as it was: each side of a slice a fresh cone
    of the parent's facets and span equations plus the cut."""
    cells = [cone]
    for w in covectors:
        nxt = []
        for c in cells:
            if not slices_by_dot(c, w):
                nxt.append(c)
                continue
            for side in (w, la.vscale(-1, w)):
                nxt.append(
                    cone_from_inequalities_by_generators(
                        list(c.facets) + [side], list(c.span_eqs), c.ambient_rank
                    )
                )
        cells = nxt
    return sorted({c.rays: c for c in cells}.values(), key=lambda c: c.rays)


def pull_back_cone_by_generators(m: LinearMap, source_cone: RationalCone, cone: RationalCone):
    """`complexes.pull_back_cone` as it was, uncached: the generated cone of
    the preimages of the rays."""
    gens = [preimage_in_span(m, source_cone, r) for r in cone.rays]
    return cone_from_generators_by_rank(gens, source_cone.ambient_rank)
