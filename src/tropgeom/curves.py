"""Stable marked dual graphs and the tropical moduli complex of curves.

A dual graph records vertex genera, an edge multiset (loops allowed) and the
placement of the numbered markings.  The moduli complex has one cone per
isomorphism class, the orthant of edge lengths, with edge contractions as
face maps and graph automorphisms acting on edge coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product

from . import linalg as la
from .exactgeom import LinearMap, RationalCone, cone_from_generators, image_cone, zero_cone
from .complexes import ConeComplex, FaceMap


class Disconnected(Exception):
    pass


class NoSuchEdge(Exception):
    pass


class Unstable(Exception):
    pass


def union_find(k: int, pairs):
    """Join the pairs, in order, into disjoint sets over 0..k-1.

    Returns (find, merged): find maps a vertex to its set's root, and
    merged[i] says whether pair i joined two sets that were distinct.
    """
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = []
    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[ra] = rb
        merged.append(ra != rb)
    return find, merged


@dataclass(frozen=True)
class DualGraph:
    genera: tuple  # genus per vertex
    edges: tuple  # (u, v) pairs with u <= v, sorted
    legs: tuple  # legs[i] = vertex carrying marking i + 1
    # hash((genera, edges, legs)), the hash the dataclass would generate,
    # computed once: graphs key the labelling tables and the closure builder
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(sorted(tuple(sorted(e)) for e in self.edges))
        )
        object.__setattr__(self, "genera", tuple(self.genera))
        object.__setattr__(self, "legs", tuple(self.legs))
        object.__setattr__(self, "_hash", hash((self.genera, self.edges, self.legs)))

    def __hash__(self):
        return self._hash

    @property
    def num_vertices(self):
        return len(self.genera)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_legs(self):
        return len(self.legs)

    def valence(self, v) -> int:
        """Edge ends at v (loops count twice) plus legs at v."""
        ends = sum((e[0] == v) + (e[1] == v) for e in self.edges)
        return ends + sum(1 for w in self.legs if w == v)

    def legs_at(self, v):
        return tuple(i + 1 for i, w in enumerate(self.legs) if w == v)

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return False
        _, merged = union_find(self.num_vertices, self.edges)
        return sum(merged) == self.num_vertices - 1

    def is_stable(self) -> bool:
        return self.is_connected() and all(
            2 * g - 2 + self.valence(v) > 0 for v, g in enumerate(self.genera)
        )

    def to_json(self) -> dict:
        return {
            "vertices": [{"genus": g} for g in self.genera],
            "edges": [list(e) for e in self.edges],
            "legs": {str(i + 1): v for i, v in enumerate(self.legs)},
        }

    @staticmethod
    def from_json(data: dict) -> "DualGraph":
        n = len(data.get("legs", {}))
        legs = tuple(int(data["legs"][str(i + 1)]) for i in range(n))
        return DualGraph(
            tuple(int(v["genus"]) for v in data["vertices"]),
            tuple(tuple(int(x) for x in e) for e in data["edges"]),
            legs,
        )

    def to_dot(self, name: str = "graph0") -> str:
        return _dot(
            self,
            name,
            [f"e{i}" for i in range(self.num_edges)],
            [str(j + 1) for j in range(len(self.legs))],
        )


def incidence_matrix(graph: DualGraph):
    """The signed vertex-edge incidence matrix: the column of edge (u, v) is
    e_v - e_u, so a loop's column is zero.  Its kernel is the cycle lattice."""
    return tuple(
        tuple((v == x) - (u == x) for u, v in graph.edges)
        for x in range(graph.num_vertices)
    )


@lru_cache(maxsize=4096)
def cycle_lattice(graph: DualGraph):
    """A basis of the cycle lattice, the kernel of the incidence matrix, as a
    tuple; computed once per graph and kept in an LRU table of 4096 entries."""
    return tuple(la.kernel_basis(incidence_matrix(graph), graph.num_edges))


def _dot(graph: DualGraph, name: str, edge_labels, leg_labels) -> str:
    """The DOT drawing of a graph: vertices by genus, labelled edges and legs."""
    lines = [f"graph {name} {{"]
    for v, g in enumerate(graph.genera):
        lines.append(f'  v{v} [label="g={g}"];')
    for (u, v), label in zip(graph.edges, edge_labels):
        lines.append(f'  v{u} -- v{v} [label="{label}"];')
    for j, (v, label) in enumerate(zip(graph.legs, leg_labels)):
        lines.append(f'  leg{j + 1} [shape=none, label="{label}"];')
        lines.append(f"  v{v} -- leg{j + 1} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def genus(graph: DualGraph) -> int:
    """First Betti number of the graph plus the sum of vertex genera."""
    if not graph.is_connected():
        raise Disconnected("genus is only defined for connected graphs")
    h1 = graph.num_edges - graph.num_vertices + 1
    return h1 + sum(graph.genera)


# ---------------------------------------------------------------------------
# canonical labeling and automorphisms, with edge decorations
#
# A decorated graph carries one tuple of per-factor slopes per edge; a bare
# graph carries () on every edge.  Reversing an edge negates its slopes.


def _flip(d):
    return tuple([-x for x in d])


def _sorted_rows(edges, edge_data, vperm):
    """The edges and their data under a vertex permutation, as rows
    (a, b, d, i) with a <= b, sorted: i is the input position of the edge,
    d its data, flipped when the ends swap, so rows that tie on (a, b, d)
    keep their input order."""
    rows = []
    for i, (u, v) in enumerate(edges):
        a, b = vperm[u], vperm[v]
        if a > b:
            rows.append((b, a, _flip(edge_data[i]), i))
        else:
            rows.append((a, b, edge_data[i], i))
    rows.sort()
    return rows


def _key(rows):
    """The (edges, data) key of sorted rows."""
    return tuple([(a, b) for a, b, _, _ in rows]), tuple([d for _, _, d, _ in rows])


def _candidate_perms(graph: DualGraph):
    """Vertex permutations respecting the basic vertex invariant (genus,
    valence, legs), read off in one pass over the edges and the legs."""
    k = graph.num_vertices
    valence = [0] * k
    legs = [()] * k
    for u, v in graph.edges:
        valence[u] += 1
        valence[v] += 1
    for i, w in enumerate(graph.legs, 1):
        valence[w] += 1
        legs[w] += (i,)
    classes = {}
    for v, key in enumerate(zip(graph.genera, valence, legs)):
        classes.setdefault(key, []).append(v)
    blocks = [classes[key] for key in sorted(classes)]
    vperm = [0] * k
    for arrangement in product(*map(permutations, blocks)):
        pos = 0
        for block in arrangement:
            for old in block:
                vperm[old] = pos
                pos += 1
        yield tuple(vperm)


@lru_cache(maxsize=4096)
def canonical_labelling(graph: DualGraph, edge_data=None):
    """Canonical relabeling of a (decorated) graph, computed once per input.

    Returns (canonical graph, canonical data, vperm, eperm) where vperm and
    eperm translate the input labeling to the canonical one.  edge_data is a
    tuple with one slope tuple per edge; None stands for a bare graph.

    The canonical form is the relabelling with the least (genera, edges,
    data, legs) over the candidate vertex permutations, the first one found
    on a tie.  Candidates are compared by (edges, data) alone, and only the
    winner is made into a graph.  That is the same minimum.  The blocks of
    `_candidate_perms` are sorted by an invariant whose first entry is the
    genus, so every candidate puts the same genus at each position and the
    genera tuple is the same for all.  The legs at a vertex are part of the
    invariant, so every marked vertex is alone in its class and goes to the
    same position under every candidate, and the legs tuple is the same for
    all.  So (genera, edges, data, legs) and (edges, data) order the
    candidates alike, and a strict < keeps the same first minimum, with the
    same vperm and eperm.
    """
    if edge_data is None:
        edge_data = ((),) * graph.num_edges
    edges = graph.edges
    best = None
    for vperm in _candidate_perms(graph):
        rows = _sorted_rows(edges, edge_data, vperm)
        key = _key(rows)
        if best is None or key < best[0]:
            best = key, vperm, rows
    (cedges, cdata), vperm, rows = best
    genera = [0] * graph.num_vertices
    for v, g in enumerate(graph.genera):
        genera[vperm[v]] = g
    eperm = [0] * len(rows)
    for new, (_, _, _, old) in enumerate(rows):
        eperm[old] = new
    cgraph = DualGraph(tuple(genera), cedges, tuple(vperm[v] for v in graph.legs))
    return cgraph, cdata, vperm, tuple(eperm)


@lru_cache(maxsize=4096)
def automorphism_pairs(cgraph: DualGraph, cdata):
    """The (vertex perm, edge perm) automorphisms of a canonical decorated
    graph, as canonical_labelling returns it.

    A candidate vertex permutation is an automorphism when it leaves the
    (edges, data) key unchanged; genera and legs agree for every candidate
    (see `canonical_labelling`).  Parallel edges with equal decorations
    contribute all their matchings, so the theta graph has 2 x 3! = 12 pairs.
    """
    edges = cgraph.edges
    target = (edges, cdata)
    # the positions of each (edge, data) value, the slots an automorphism
    # may send the edges of that value to
    slots = {}
    for i, (u, v) in enumerate(edges):
        slots.setdefault((u, v, cdata[i]), []).append(i)
    aut_pairs = []
    for vp in _candidate_perms(cgraph):
        rows = _sorted_rows(edges, cdata, vp)
        if _key(rows) != target:
            continue
        # all matchings within groups of indistinguishable parallel edges;
        # the sorted rows list each group's edges in input order
        groups = {}
        for a, b, d, i in rows:
            groups.setdefault((a, b, d), []).append(i)
        keys = sorted(groups)
        choices = [permutations(slots[key]) for key in keys]
        for assignment in product(*choices):
            eperm2 = [0] * len(edges)
            for key, targets in zip(keys, assignment):
                for src, dst in zip(groups[key], targets):
                    eperm2[src] = dst
            aut_pairs.append((vp, tuple(eperm2)))
    return tuple(aut_pairs)


def canonical_with_data(graph: DualGraph, edge_data=None):
    """Canonical relabeling of a (decorated) graph plus its automorphisms.

    Returns (canonical graph, canonical data, vperm, eperm, aut_pairs): the
    canonical_labelling of the input and the automorphism_pairs of the
    canonical object.
    """
    cgraph, cdata, vperm, eperm = canonical_labelling(graph, edge_data)
    return cgraph, cdata, vperm, eperm, automorphism_pairs(cgraph, cdata)


def canonical_form(graph: DualGraph):
    """Canonical representative and automorphism pairs of a bare dual graph."""
    cgraph, _, vperm, eperm, auts = canonical_with_data(graph)
    return cgraph, vperm, eperm, auts


def edge_perm_matrices(n_edges: int, aut_pairs):
    """Deduplicated edge-coordinate permutation matrices of automorphism pairs."""
    mats = {}
    for _, eperm in aut_pairs:
        rows = tuple(
            tuple(1 if eperm[old] == new else 0 for old in range(n_edges))
            for new in range(n_edges)
        )
        mats[rows] = LinearMap(rows, n_edges, n_edges)
    return sorted(mats.values(), key=lambda m: m.matrix)


# ---------------------------------------------------------------------------
# contraction and stabilization


def _merge_vertices(graph: DualGraph, edge_index: int):
    """Contract a single edge (raw labels, no canonicalization)."""
    u, v = graph.edges[edge_index]
    genera = list(graph.genera)
    keep = list(range(len(genera)))  # vertex label before -> after
    if u == v:
        genera[u] += 1
    else:
        # merge v into u, relabel everything above v down by one
        genera[u] += genera[v]
        del genera[v]
        keep[v] = u
        for w in range(v + 1, len(keep)):
            keep[w] = w - 1

    items = []
    for i, (a, b) in enumerate(graph.edges):
        if i == edge_index:
            continue
        x, y = keep[a], keep[b]
        if x > y:
            items.append((y, x, i, True))
        else:
            items.append((x, y, i, False))
    # i breaks the ties of (x, y) in input order
    items.sort()
    legs = tuple([keep[w] for w in graph.legs])
    # presorted, so the constructor's sort leaves positions in place
    graph2 = DualGraph(tuple(genera), tuple((x, y) for x, y, _, _ in items), legs)
    return graph2, [(i, -1 if flip else 1) for _, _, i, flip in items]


def contract_subset(graph: DualGraph, edge_indices):
    """Contract a set of edges.

    Returns (raw graph, survivors) where survivors[j] = (original index,
    orientation sign) of the edge now at position j; the sign is -1 when the
    stored orientation flipped during vertex merging, which matters for any
    oriented edge decoration.
    """
    g = graph
    survivors = [(i, 1) for i in range(graph.num_edges)]
    for idx in sorted(edge_indices, reverse=True):
        g, survivors = _contract_survivor(g, survivors, idx)
    return g, survivors


def _contract_survivor(graph: DualGraph, survivors, idx):
    """Contract the edge whose original index is idx in a graph contracted
    as survivors says; returns the new (raw graph, survivors)."""
    pos = next((p for p, (i, _) in enumerate(survivors) if i == idx), None)
    if pos is None:
        raise NoSuchEdge(f"edge {idx} out of range")
    g, kept = _merge_vertices(graph, pos)
    return g, [(survivors[p][0], survivors[p][1] * sign) for p, sign in kept]


def _contracted_subsets(graph: DualGraph):
    """(subset, raw graph, survivors) for every nonempty edge subset, by size
    and then in combinations order, each as contract_subset(graph, subset)
    gives it.  contract_subset contracts the highest index first, so subset S
    is S minus its smallest edge, already contracted, merged at that edge:
    one merge per subset."""
    ne = graph.num_edges
    level = {(): (graph, [(i, 1) for i in range(ne)])}
    for size in range(1, ne + 1):
        prev, level = level, {}
        for subset in combinations(range(ne), size):
            raw, survivors = level[subset] = _contract_survivor(
                *prev[subset[1:]], subset[0]
            )
            yield subset, raw, survivors


def contract_edge(graph: DualGraph, edge_index: int):
    """Contract one edge; returns the canonical graph and the face embedding.

    The linear map includes the contracted graph's orthant as the face
    {length of the contracted edge = 0} of the original orthant.
    """
    if not 0 <= edge_index < graph.num_edges:
        raise NoSuchEdge(f"edge {edge_index} out of range")
    raw, survivors = contract_subset(graph, [edge_index])
    cgraph, _, _, eperm = canonical_labelling(raw)
    return cgraph, _face_matrix(graph.num_edges, survivors, eperm)


def _face_matrix(ne: int, survivors, eperm) -> LinearMap:
    """Inclusion of a contracted graph's edge lengths, canonically labelled
    by eperm, into the edge lengths of the graph it was contracted from."""
    nh = len(survivors)
    rows = [[0] * nh for _ in range(ne)]
    for raw_pos, (orig_idx, _) in enumerate(survivors):
        rows[orig_idx][eperm[raw_pos]] = 1
    return LinearMap(tuple(tuple(r) for r in rows), nh, ne)


@lru_cache(maxsize=4096)
def stabilize(graph: DualGraph):
    """Remove unmarked genus 0 vertices of valence at most 2.

    Valence 2 vertices concatenate their two edges; valence 1 vertices drop
    with their edge.  Returns (canonical stable graph, length map, chains)
    where the length map sends original edge lengths to the merged sums and
    chains[j] lists the (original edge, orientation) trail of stable edge j,
    oriented from the smaller canonical endpoint.  The result is computed
    once per graph; a graph that raises Unstable is not remembered.
    """
    genera = list(graph.genera)
    alive = [True] * graph.num_vertices
    # internal edges as [endpoint a, endpoint b, trail a->b]
    edges = [[u, v, [(i, 1)]] for i, (u, v) in enumerate(graph.edges)]
    changed = True
    while changed:
        changed = False
        for v in range(graph.num_vertices):
            if not alive[v] or genera[v] != 0 or v in graph.legs:
                continue
            inc = [k for k, (a, b, _) in enumerate(edges) if v in (a, b)]
            ends = sum((edges[k][0] == v) + (edges[k][1] == v) for k in inc)
            if ends == 1:
                edges.pop(inc[0])
                alive[v] = False
                changed = True
                break
            if ends == 2 and len(inc) == 2:
                k1, k2 = inc
                a1, b1, t1 = edges[k1]
                a2, b2, t2 = edges[k2]
                # orient both trails away from v
                if a1 == v:
                    start1, t1 = b1, [(i, -s) for i, s in reversed(t1)]
                else:
                    start1 = a1
                if a2 == v:
                    far2, t2 = b2, t2
                else:
                    far2, t2 = a2, [(i, -s) for i, s in reversed(t2)]
                merged = [start1, far2, t1 + t2]
                for k in sorted((k1, k2), reverse=True):
                    edges.pop(k)
                edges.append(merged)
                alive[v] = False
                changed = True
                break

    if not any(alive):
        raise Unstable("stabilization removed every vertex")
    mapping = {}
    for v in range(graph.num_vertices):
        if alive[v]:
            mapping[v] = len(mapping)
    items = []
    for a, b, trail in edges:
        x, y = mapping[a], mapping[b]
        if x > y:
            x, y = y, x
            trail = [(i, -s) for i, s in reversed(trail)]
        items.append((x, y, trail))
    items.sort(key=lambda r: (r[0], r[1]))
    raw = DualGraph(
        tuple(genera[v] for v in sorted(mapping)),
        tuple((x, y) for x, y, _ in items),
        tuple(mapping[v] for v in graph.legs),
    )
    if not raw.is_stable():
        raise Unstable("graph does not stabilize to a stable graph")
    cgraph, _, vperm, eperm = canonical_labelling(raw)
    trails = [None] * cgraph.num_edges
    for pos, (a, b, trail) in enumerate(items):
        na, nb = vperm[a], vperm[b]
        t = trail if na <= nb else [(i, -s) for i, s in reversed(trail)]
        trails[eperm[pos]] = tuple(t)
    rows = [[0] * graph.num_edges for _ in range(cgraph.num_edges)]
    for j, trail in enumerate(trails):
        for i, _ in trail:
            rows[j][i] = 1
    lmap = LinearMap(tuple(tuple(r) for r in rows), graph.num_edges, cgraph.num_edges)
    return cgraph, lmap, tuple(trails)


# ---------------------------------------------------------------------------
# enumeration


def sort_key(graph: DualGraph, slopes=()):
    """The order of enumerated graphs and types and of cone ids: edge count,
    then the graph, then the per-factor slopes of a map type."""
    return (graph.num_edges, graph.genera, graph.edges, graph.legs, slopes)


def check_stable_range(g: int, n: int):
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise Unstable(f"(g, n) = ({g}, {n}) is not in the stable range")


_enumeration_cache = {}


def enumerate_stable_graphs(g: int, n: int):
    """All isomorphism classes of stable genus g graphs with n legs.

    The graphs are generated by inverse contraction (Maggiolo-Pagani,
    "Generating stable modular graphs", J. Symbolic Comput. 46, 2011), one
    edge count at a time, from the single vertex of genus g carrying every
    leg: each graph with e edges yields its loop insertions and vertex
    splits (_splits), and their canonical forms are the graphs with e + 1
    edges.  This finds every class: contracting any edge of a stable graph
    with e + 1 edges gives a stable graph of the same (g, n) with e edges,
    and the loop insertion (for a loop) or vertex split (otherwise) that
    undoes the contraction is among that graph's _splits.  The canonical
    form is the one the cone ids rest on.  Results are sorted by sort_key
    and cached; graphs are immutable so sharing is safe.
    """
    check_stable_range(g, n)
    if (g, n) in _enumeration_cache:
        return list(_enumeration_cache[(g, n)])
    level = {DualGraph((g,), (), (0,) * n)}
    found = set(level)
    while level:
        level = {
            canonical_labelling(split)[0] for graph in level for split in _splits(graph)
        }
        found |= level
    result = sorted(found, key=sort_key)
    _enumeration_cache[(g, n)] = result
    return list(result)


def _splits(graph: DualGraph):
    """The stable graphs with one edge more that contract onto graph.

    At each vertex v: a loop, when v has positive genus, which takes one
    from it; and every split of v into v and a new vertex w joined by a new
    edge, with the genus of v shared out and each half edge and leg at v
    sent to one side, where both sides are stable.  Swapping the two sides
    gives the same graph, so only one of each swapped pair is yielded.
    """
    k = graph.num_vertices
    for v, gv in enumerate(graph.genera):
        if gv > 0:
            genera = list(graph.genera)
            genera[v] -= 1
            yield DualGraph(tuple(genera), graph.edges + ((v, v),), graph.legs)
        # the ends at v: (edge index, 0 or 1) per edge end, (None, i) per leg i
        ends = [(i, end) for i, e in enumerate(graph.edges) for end in (0, 1) if e[end] == v]
        ends += [(None, i) for i, u in enumerate(graph.legs) if u == v]
        full = (1 << len(ends)) - 1
        for g1 in range(gv + 1):
            g2 = gv - g1
            for mask in range(full + 1):
                if (g1, mask) > (g2, full ^ mask):
                    continue
                moved = bin(mask).count("1")
                if 2 * g1 + len(ends) - moved <= 1 or 2 * g2 + moved <= 1:
                    continue
                edges = [list(e) for e in graph.edges]
                legs = list(graph.legs)
                for bit, (i, end) in enumerate(ends):
                    if mask >> bit & 1:
                        if i is None:
                            legs[end] = k
                        else:
                            edges[i][end] = k
                genera = list(graph.genera) + [g2]
                genera[v] = g1
                yield DualGraph(tuple(genera), tuple(edges) + ((v, k),), tuple(legs))


# ---------------------------------------------------------------------------
# the moduli complex


@dataclass
class CurveModuliComplex:
    complex: ConeComplex
    graphs: dict  # cone id -> canonical DualGraph
    _ids: dict = field(init=False, repr=False, compare=False)
    # the pipeline's per-base table (map types, the factors' map complexes,
    # image families, covector arrangements, Γ subdivisions, check
    # verdicts); the runs of a sweep share a base, so
    # this is the sweep's memory, and it goes when the base goes
    _sweep: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ids = {h: cid for cid, h in self.graphs.items()}

    def id_of(self, graph: DualGraph) -> str:
        """The id of the graph's cone; the graph may be labelled arbitrarily."""
        if graph not in self._ids:
            graph = canonical_labelling(graph)[0]
        if graph not in self._ids:
            raise KeyError("graph is not a cone of this complex")
        return self._ids[graph]


def _orthant(n: int) -> RationalCone:
    if n == 0:
        return zero_cone(0)
    return cone_from_generators(la.identity_matrix(n), n)


@lru_cache(maxsize=4096)
def contraction_faces(graph: DualGraph, data):
    """What a canonical (graph, edge data) pair alone decides in the closure.

    Returns (faces, automorphisms): faces holds (contracted edges, canonical
    sub pair, face matrix) for every nonempty edge subset, by size and then
    in combinations order.  Each subset is contracted by one merge
    (`_contracted_subsets`) and canonicalized once.  automorphisms are the
    edge permutation matrices of the pair's automorphism_pairs.  Every
    closure in the process shares the LRU table of 4096 entries, so the
    entry holds tuples only.
    """
    ne = graph.num_edges
    faces = []
    for subset, raw, survivors in _contracted_subsets(graph):
        raw_data = tuple(
            data[i] if sign > 0 else _flip(data[i]) for i, sign in survivors
        )
        cgraph, cdata, _, eperm = canonical_labelling(raw, raw_data)
        faces.append((subset, (cgraph, cdata), _face_matrix(ne, survivors, eperm)))
    mats = edge_perm_matrices(ne, automorphism_pairs(graph, data))
    return tuple(faces), tuple(mats)


def _contraction_complex(seeds, prefix: str, make, cone_of):
    """The cone complex of decorated graphs closed under edge contraction.

    seeds are (graph, edge data) pairs.  make(graph, data) builds the object
    that stands for a canonical pair, and cone_of(object) its cone in edge
    length coordinates.  The canonical pair is the key: make runs once per
    new pair.  The pair's faces and automorphism matrices come from
    `contraction_faces`; its single edge contractions find new pairs, and
    contracting several edges at once must land on a pair found that way.
    Cone ids are prefix + rank in sort_key order.  The automorphisms kept
    are those that map the pair's cone onto itself.  Returns (complex, cone
    id -> object).
    """
    found = {}  # canonical (graph, data) -> object
    queue = []

    def discover(pair):
        if pair not in found:
            found[pair] = make(*pair)
            queue.append(pair)

    for graph, data in seeds:
        discover(canonical_labelling(graph, data)[:2])
    while queue:
        for subset, sub, _ in contraction_faces(*queue.pop())[0]:
            if len(subset) == 1:
                discover(sub)

    # sort_key takes per-factor slope rows, the transpose of the edge data
    ordered = sorted(found, key=lambda p: sort_key(p[0], tuple(zip(*p[1]))))
    ids = {pair: f"{prefix}{k}" for k, pair in enumerate(ordered)}
    cones = {ids[pair]: cone_of(found[pair]) for pair in ordered}
    auts = {}
    faces = set()
    for pair in ordered:
        cid = ids[pair]
        cone = cones[cid]
        ne = pair[0].num_edges
        contractions, mats = contraction_faces(*pair)
        auts[cid] = [m for m in mats if image_cone(m, cone) == cone]
        for subset, sub, m in contractions:
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
    return ConeComplex(cones, faces, auts), {cid: found[pair] for pair, cid in ids.items()}


def build_complex_from_graphs(seed_graphs) -> CurveModuliComplex:
    """The moduli complex generated by the given graphs under edge contraction."""
    cx, graphs = _contraction_complex(
        ((h, ((),) * h.num_edges) for h in seed_graphs),
        "G",
        lambda graph, _: graph,
        lambda graph: _orthant(graph.num_edges),
    )
    return CurveModuliComplex(cx, graphs)


def build_moduli_complex(g: int, n: int, max_edges: int | None = None) -> CurveModuliComplex:
    """The tropical moduli complex of stable genus g, n marked curves.

    With max_edges the complex is truncated to the contraction closed
    subcomplex of graphs with at most that many edges, which keeps large
    moduli spaces at desk scale.
    """
    graphs = enumerate_stable_graphs(g, n)
    if max_edges is not None:
        graphs = [h for h in graphs if h.num_edges <= max_edges]
    return build_complex_from_graphs(graphs)
