"""Combinatorial types of rubber tropical maps to lines and their moduli cones.

A map type decorates a dual graph with an integer slope per edge and factor;
legs carry the fixed contact orders.  Heights are never stored: translation
on the rubber target is eliminated by working in edge length coordinates,
and the continuity constraints around cycles cut out the moduli cone inside
the orthant of the underlying graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import product
from operator import mul

from . import linalg as la
from .exactgeom import LinearMap, RationalCone, cone_from_inequalities, image_cone
from .complexes import ComplexMorphism, ConeComplex
from .curves import (
    CurveModuliComplex,
    DualGraph,
    _contraction_complex,
    _dot,
    canonical_with_data,
    enumerate_stable_graphs,
    incidence_matrix,
    sort_key,
    stabilize,
    union_find,
)


class IncompatibleStabilizations(Exception):
    pass


@dataclass(frozen=True)
class ContactData:
    """Genus plus one slope vector per target factor; each vector sums to zero."""

    genus: int
    slopes: tuple  # per factor, a tuple of n integers

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(tuple(a) for a in self.slopes))
        for a in self.slopes:
            if sum(a) != 0:
                raise ValueError(f"contact orders {a} do not sum to zero")
        if len({len(a) for a in self.slopes}) > 1:
            raise ValueError(f"contact vectors {self.slopes} differ in length")

    @property
    def num_markings(self):
        return len(self.slopes[0]) if self.slopes else 0

    @property
    def num_factors(self):
        return len(self.slopes)

    def degree(self, factor: int) -> int:
        return sum(x for x in self.slopes[factor] if x > 0)

    def factor(self, i: int) -> "ContactData":
        return ContactData(self.genus, (self.slopes[i],))


@dataclass(frozen=True)
class RubberMapType:
    """A dual graph with a signed slope per edge per factor.

    The slope of edge (u, v) with u <= v is the height increase per unit
    length walking from u to v; legs carry the contact orders of their
    markings as asymptotic slopes.
    """

    graph: DualGraph
    slopes: tuple  # per factor, a tuple of signed ints, one per edge
    contact: ContactData

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(tuple(s) for s in self.slopes))
        if len(self.slopes) != self.contact.num_factors:
            raise ValueError("one slope vector per factor required")
        for s in self.slopes:
            if len(s) != self.graph.num_edges:
                raise ValueError("one slope per edge required")
        if self.graph.num_legs != self.contact.num_markings:
            raise ValueError("graph markings do not match the contact data")

    @property
    def num_factors(self):
        return len(self.slopes)

    def edge_data(self):
        return tuple(
            tuple(self.slopes[f][i] for f in range(self.num_factors))
            for i in range(self.graph.num_edges)
        )

    @staticmethod
    def from_edge_data(graph: DualGraph, data, contact: "ContactData") -> "RubberMapType":
        """The inverse of edge_data: per-edge slope tuples to per-factor rows."""
        slopes = tuple(
            tuple(d[f] for d in data) for f in range(contact.num_factors)
        )
        return RubberMapType(graph, slopes, contact)

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["slopes"] = {
            str(f): {
                str(i): [self.graph.edges[i][0], self.graph.edges[i][1], s]
                for i, s in enumerate(self.slopes[f])
            }
            for f in range(self.num_factors)
        }
        data["leg_slopes"] = {
            str(f): list(self.contact.slopes[f]) for f in range(self.num_factors)
        }
        return data

    def to_dot(self, name: str = "maptype0") -> str:
        legs = zip(*self.contact.slopes)
        return _dot(
            self.graph,
            name,
            [",".join(map(str, d)) for d in self.edge_data()],
            [f"{j + 1}:" + ",".join(map(str, d)) for j, d in enumerate(legs)],
        )

    @staticmethod
    def from_json(data: dict, genus: int) -> "RubberMapType":
        """Parse a hand written map type; slope entries are [tail, head, slope]."""
        graph = DualGraph.from_json(data)
        nf = len(data["leg_slopes"])
        slopes = []
        for f in range(nf):
            row = [0] * graph.num_edges
            for key, (tail, head, s) in data["slopes"][str(f)].items():
                i = int(key)
                u, v = graph.edges[i]
                if (tail, head) == (u, v):
                    row[i] = int(s)
                elif (tail, head) == (v, u):
                    row[i] = -int(s)
                else:
                    raise ValueError(f"slope entry {key} does not match edge {i}")
            slopes.append(tuple(row))
        contact = ContactData(
            genus, tuple(tuple(data["leg_slopes"][str(f)]) for f in range(nf))
        )
        return RubberMapType(graph, tuple(slopes), contact)


def _leg_orders(graph: DualGraph, contact_row):
    """The contact orders of the legs summed per vertex."""
    total = [0] * graph.num_vertices
    for v, a in zip(graph.legs, contact_row):
        total[v] += a
    return tuple(total)


def is_balanced(t: RubberMapType) -> bool:
    """The incidence matrix applied to each factor's slopes gives the
    contact orders of the legs at every vertex."""
    inc = incidence_matrix(t.graph)
    return all(
        la.mat_vec(inc, s) == _leg_orders(t.graph, a)
        for s, a in zip(t.slopes, t.contact.slopes)
    )


def has_consistent_heights(t: RubberMapType) -> bool:
    """Whether some height assignment orders the vertices consistently.

    Slope zero edges identify heights; the strict relations from nonzero
    slopes must then be acyclic.
    """
    for s in t.slopes:
        flat = [e for e, x in zip(t.graph.edges, s) if x == 0]
        find, _ = union_find(t.graph.num_vertices, flat)
        below = {}
        for (a, b), x in zip(t.graph.edges, s):
            if x:
                lo, hi = (a, b) if x > 0 else (b, a)
                below.setdefault(find(hi), set()).add(find(lo))
        try:
            TopologicalSorter(below).prepare()
        except CycleError:
            return False
    return True


def canonical_type(t: RubberMapType):
    """Canonical representative plus the automorphisms of the decorated graph."""
    cgraph, cdata, vperm, eperm, auts = canonical_with_data(t.graph, t.edge_data())
    return RubberMapType.from_edge_data(cgraph, cdata, t.contact), vperm, eperm, auts


# ---------------------------------------------------------------------------
# continuity equations and moduli cones


def cycle_equations(t: RubberMapType):
    """One row per cycle per factor: the total displacement vanishes.

    The cycles are a basis of the kernel of the incidence matrix; cycle z
    with slopes s has row z * s (entrywise), so equal types produce
    identical matrices.
    """
    cycles = la.kernel_basis(incidence_matrix(t.graph), t.graph.num_edges)
    return tuple(tuple(map(mul, z, s)) for s in t.slopes for z in cycles)


def moduli_cone(t: RubberMapType) -> RationalCone:
    """The solution cone of a map type inside the orthant of its graph."""
    ne = t.graph.num_edges
    return cone_from_inequalities(la.identity_matrix(ne), cycle_equations(t), ne)


# ---------------------------------------------------------------------------
# enumeration of map types


def balanced_slope_assignments(graph: DualGraph, contact_row, bound: int):
    """All slope vectors on the graph's edges balancing the given leg orders."""
    ne = graph.num_edges
    ends_left = [graph.valence(v) - len(graph.legs_at(v)) for v in range(graph.num_vertices)]
    balance = list(_leg_orders(graph, contact_row))
    out = []
    slopes = [0] * ne

    def rec(i):
        if i == ne:
            if all(b == 0 for b in balance):
                out.append(tuple(slopes))
            return
        u, v = graph.edges[i]
        for s in range(-bound, bound + 1):
            slopes[i] = s
            if u != v:
                balance[u] += s
                balance[v] -= s
                ends_left[u] -= 1
                ends_left[v] -= 1
                ok = abs(balance[u]) <= ends_left[u] * bound and abs(
                    balance[v]
                ) <= ends_left[v] * bound
                if ok:
                    rec(i + 1)
                ends_left[u] += 1
                ends_left[v] += 1
                balance[u] -= s
                balance[v] += s
            else:
                ends_left[u] -= 2
                if abs(balance[u]) <= ends_left[u] * bound:
                    rec(i + 1)
                ends_left[u] += 2
        slopes[i] = 0

    rec(0)
    return out


def enumerate_rubber_types(contact: ContactData, factor: int = 0, max_edges=None):
    """All single factor map types with stable underlying graph, balanced and
    with consistent heights; slopes are bounded by the degree.

    max_edges restricts the underlying graphs (useful for quick looks at big
    moduli spaces from the command line)."""
    single = contact.factor(factor)
    a = single.slopes[0]
    d = single.degree(0)
    found = set()
    for graph in enumerate_stable_graphs(contact.genus, contact.num_markings):
        if max_edges is not None and graph.num_edges > max_edges:
            continue
        for slopes in balanced_slope_assignments(graph, a, d):
            t = RubberMapType(graph, (slopes,), single)
            if has_consistent_heights(t):
                found.add(canonical_type(t)[0])
    return sorted(found, key=lambda t: sort_key(t.graph, t.slopes))


# ---------------------------------------------------------------------------
# forgetful images


def forgetful_image(t: RubberMapType):
    """Image of the moduli cone in the orthant of the stabilized graph.

    Returns (canonical stable graph, image cone); raises Unstable when the
    underlying graph has no stabilization.
    """
    stable, lmap, _ = stabilize(t.graph)
    return stable, image_cone(lmap, moduli_cone(t))


# ---------------------------------------------------------------------------
# superimposing map types over a shared stable curve


@dataclass
class ProductType:
    """One chamber of the overlay of several map structures on a common curve."""

    map_type: RubberMapType  # the factors' slope rows on the subdivided graph
    cone: RationalCone  # its moduli cone, in sub edge coordinates
    embed: LinearMap  # sub edge lengths -> the factors' edge lengths, in order
    factors: tuple  # the overlaid map types


def _paths(sizes):
    """Monotone lattice paths through a grid of piece tuples, one axis per
    trail; each step advances one axis, trying axis 0 first."""
    last = tuple(s - 1 for s in sizes)
    out = []

    def rec(point, acc):
        acc = acc + [point]
        if point == last:
            out.append(acc)
            return
        for axis in range(len(sizes)):
            if point[axis] < last[axis]:
                rec(point[:axis] + (point[axis] + 1,) + point[axis + 1 :], acc)

    rec((0,) * len(sizes), [])
    return out


def superimpose(*types: RubberMapType):
    """Overlay map structures whose curves share a stabilization.

    Each stable edge is subdivided at the break points of every input, one
    product type per monotone lattice path through the inputs' trails; its
    slope rows and contact vectors are the inputs' concatenated.  Together
    their cones cover the fiber product of the input moduli cones over the
    stable orthant with disjoint interiors.
    """
    genus, n = types[0].contact.genus, types[0].contact.num_markings
    if any(t.contact.genus != genus or t.contact.num_markings != n for t in types):
        raise IncompatibleStabilizations("contact data do not share genus and markings")
    stabs = [stabilize(t.graph) for t in types]
    stable = stabs[0][0]
    if any(s != stable for s, _, _ in stabs):
        raise IncompatibleStabilizations("the types stabilize to different graphs")
    trails = [tr for _, _, tr in stabs]
    if any(sum(len(x) for x in tr) != t.graph.num_edges for tr, t in zip(trails, types)):
        raise IncompatibleStabilizations(
            "stabilization dropped edges; only subdivision-type curves can be overlaid"
        )
    contact = ContactData(genus, tuple(a for t in types for a in t.contact.slopes))
    rows = [(k, row) for k, t in enumerate(types) for row in t.slopes]

    per_edge_paths = [
        _paths(tuple(len(tr[j]) for tr in trails)) for j in range(stable.num_edges)
    ]
    results = []
    for choice in product(*per_edge_paths):
        genera = list(stable.genera)
        edges = []
        slopes = [[] for _ in rows]
        cover = [[] for _ in types]  # per input, the edge each sub edge covers
        for j, path in enumerate(choice):
            u, v = stable.edges[j]
            prev = u
            for step, point in enumerate(path):
                if step == len(path) - 1:
                    nxt = v
                else:
                    genera.append(0)
                    nxt = len(genera) - 1
                pieces = [trails[k][j][i] for k, i in enumerate(point)]
                sign = 1 if prev <= nxt else -1
                for out, (k, row) in zip(slopes, rows):
                    e, d = pieces[k]
                    out.append(sign * row[e] * d)
                for out, (e, _) in zip(cover, pieces):
                    out.append(e)
                edges.append((min(prev, nxt), max(prev, nxt)))
                prev = nxt
        # sort sub edges the way DualGraph will and permute the data along
        order = sorted(range(len(edges)), key=lambda i: edges[i])
        graph = DualGraph(tuple(genera), tuple(edges[i] for i in order), stable.legs)
        rows_in_order = tuple(tuple(s[i] for i in order) for s in slopes)
        ptype = RubberMapType(graph, rows_in_order, contact)
        embed_rows = [
            tuple(1 if c[i] == e else 0 for i in order)
            for c, t in zip(cover, types)
            for e in range(t.graph.num_edges)
        ]
        embed = LinearMap(tuple(embed_rows), len(edges), len(embed_rows))
        results.append(ProductType(ptype, moduli_cone(ptype), embed, types))
    return results


def fiber_product_cone(*types: RubberMapType) -> RationalCone:
    """The fiber product of the moduli cones over the stable orthant.

    Lives in the direct sum of the edge coordinate spaces; the fiber
    condition equates each type's stabilized lengths with the first type's.
    """
    stabs = [stabilize(t.graph) for t in types]
    if any(s != stabs[0][0] for s, _, _ in stabs):
        raise IncompatibleStabilizations("the types stabilize to different graphs")
    sizes = [t.graph.num_edges for t in types]
    total = sum(sizes)

    def placed(k, w):
        """w in the coordinates of type k, zero elsewhere."""
        before = sum(sizes[:k])
        return la.zero_vec(before) + tuple(w) + la.zero_vec(total - before - sizes[k])

    cones = [moduli_cone(t) for t in types]
    ineqs = [placed(k, w) for k, c in enumerate(cones) for w in c.facets]
    eqns = [placed(k, w) for k, c in enumerate(cones) for w in c.span_eqs]
    first = stabs[0][1].matrix
    for k in range(1, len(types)):
        for j, row in enumerate(stabs[k][1].matrix):
            eqns.append(
                tuple(a - b for a, b in zip(placed(0, first[j]), placed(k, row)))
            )
    return cone_from_inequalities(ineqs, eqns, total)


# ---------------------------------------------------------------------------
# the map moduli complex


@dataclass
class MapModuliComplex:
    complex: ConeComplex
    types: dict  # cone id -> canonical RubberMapType
    forgetful: "ComplexMorphism"
    target: CurveModuliComplex


def build_map_complex(types, target: CurveModuliComplex) -> MapModuliComplex:
    """Complex of moduli cones closed under edge contraction, with the
    forgetful morphism to the curve moduli complex.  The types share one
    contact datum."""
    contact = types[0].contact if types else None
    cx, typemap = _contraction_complex(
        ((t.graph, t.edge_data()) for t in types),
        "T",
        lambda graph, data: RubberMapType.from_edge_data(graph, data, contact),
        moduli_cone,
    )
    assignments = {}
    for tid, t in typemap.items():
        stable, lmap, _ = stabilize(t.graph)
        cid = target.id_of(stable)
        assignments[tid] = (cid, lmap)
    phi = ComplexMorphism(cx, target.complex, assignments)
    return MapModuliComplex(cx, typemap, phi, target)
