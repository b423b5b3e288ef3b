"""Combinatorial types of rubber tropical maps to lines and their moduli cones.

A map type decorates a dual graph with an integer slope per edge and factor;
legs carry the fixed contact orders.  Heights are never stored: translation
on the rubber target is eliminated by working in edge length coordinates,
and the continuity constraints around cycles cut out the moduli cone inside
the orthant of the underlying graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import linalg as la
from .exactgeom import LinearMap, RationalCone, cone_from_inequalities, image_cone
from .complexes import ConeComplex
from .curves import (
    CurveModuliComplex,
    DualGraph,
    _contraction_complex,
    canonical_with_data,
    enumerate_stable_graphs,
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

    def restrict_factor(self, i: int) -> "RubberMapType":
        return RubberMapType(self.graph, (self.slopes[i],), self.contact.factor(i))

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
        lines = [f"graph {name} {{"]
        for v, g in enumerate(self.graph.genera):
            lines.append(f'  v{v} [label="g={g}"];')
        for i, (u, v) in enumerate(self.graph.edges):
            slopes = ",".join(str(self.slopes[f][i]) for f in range(self.num_factors))
            lines.append(f'  v{u} -- v{v} [label="{slopes}"];')
        for j, v in enumerate(self.graph.legs):
            slopes = ",".join(
                str(self.contact.slopes[f][j]) for f in range(self.num_factors)
            )
            lines.append(f'  leg{j + 1} [shape=none, label="{j + 1}:{slopes}"];')
            lines.append(f"  v{v} -- leg{j + 1} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)

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


def is_balanced(t: RubberMapType) -> bool:
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


def has_consistent_heights(t: RubberMapType) -> bool:
    """Whether some height assignment orders the vertices consistently.

    Slope zero edges identify heights; the strict relations from nonzero
    slopes must then be acyclic.
    """
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


def canonical_type(t: RubberMapType):
    """Canonical representative plus the automorphisms of the decorated graph."""
    cgraph, cdata, vperm, eperm, auts = canonical_with_data(t.graph, t.edge_data())
    return RubberMapType.from_edge_data(cgraph, cdata, t.contact), vperm, eperm, auts


# ---------------------------------------------------------------------------
# continuity equations and moduli cones


def cycle_equations(t: RubberMapType):
    """One row per independent cycle per factor: total displacement vanishes.

    The cycle basis comes from the lexicographically least spanning tree, so
    equal types produce identical matrices.
    """
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


@dataclass
class ModuliCone:
    """The solution cone of a map type inside the orthant of its graph."""

    map_type: RubberMapType
    cone: RationalCone
    equations: tuple

    @property
    def degenerate(self) -> bool:
        return self.cone.dim == 0 and self.map_type.graph.num_edges > 0


def moduli_cone(t: RubberMapType) -> ModuliCone:
    ne = t.graph.num_edges
    eqs = cycle_equations(t)
    orthant_facets = la.identity_matrix(ne)
    cone = cone_from_inequalities(orthant_facets, eqs, ne)
    return ModuliCone(t, cone, eqs)


# ---------------------------------------------------------------------------
# enumeration of map types


def balanced_slope_assignments(graph: DualGraph, contact_row, bound: int):
    """All slope vectors on the graph's edges balancing the given leg orders."""
    ne = graph.num_edges
    leg_sum = [0] * graph.num_vertices
    for j, v in enumerate(graph.legs):
        leg_sum[v] += contact_row[j]
    ends_left = [graph.valence(v) - len(graph.legs_at(v)) for v in range(graph.num_vertices)]
    balance = leg_sum[:]
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
    mc = moduli_cone(t)
    return stable, image_cone(lmap, mc.cone)


# ---------------------------------------------------------------------------
# superimposing two single factor types over a shared stable curve


@dataclass
class ProductType:
    """One chamber of the overlay of two map structures on a common curve."""

    map_type: RubberMapType  # two factor type on the subdivided graph
    cone: RationalCone  # its moduli cone, in sub edge coordinates
    embed: LinearMap  # sub edge lengths -> (x edge lengths, y edge lengths)
    x_type: RubberMapType
    y_type: RubberMapType


def _paths(p: int, q: int):
    """Monotone staircase paths through a p x q grid of piece pairs."""
    if p == 1 and q == 1:
        return [[(0, 0)]]
    out = []

    def rec(i, j, acc):
        if i == p - 1 and j == q - 1:
            out.append(acc + [(i, j)])
            return
        if i < p - 1:
            rec(i + 1, j, acc + [(i, j)])
        if j < q - 1:
            rec(i, j + 1, acc + [(i, j)])

    rec(0, 0, [])
    return out


def superimpose(tx: RubberMapType, ty: RubberMapType):
    """Overlay two single factor structures whose curves share a stabilization.

    Each stable edge is subdivided at the break points of either side, one
    product type per interleaving; together their cones cover the fiber
    product of the two moduli cones over the stable orthant with disjoint
    interiors.
    """
    if tx.num_factors != 1 or ty.num_factors != 1:
        raise IncompatibleStabilizations("superimpose expects single factor types")
    if tx.contact.genus != ty.contact.genus or tx.contact.num_markings != ty.contact.num_markings:
        raise IncompatibleStabilizations("contact data do not share genus and markings")
    sx, mx, trails_x = stabilize(tx.graph)
    sy, my, trails_y = stabilize(ty.graph)
    if sx != sy:
        raise IncompatibleStabilizations("the two types stabilize to different graphs")
    if sum(len(t) for t in trails_x) != tx.graph.num_edges or sum(
        len(t) for t in trails_y
    ) != ty.graph.num_edges:
        raise IncompatibleStabilizations(
            "stabilization dropped edges; only subdivision-type curves can be overlaid"
        )
    stable = sx
    contact = ContactData(tx.contact.genus, (tx.contact.slopes[0], ty.contact.slopes[0]))

    per_edge_paths = []
    for j in range(stable.num_edges):
        p, q = len(trails_x[j]), len(trails_y[j])
        per_edge_paths.append(_paths(p, q))

    results = []
    for choice in product(*per_edge_paths):
        genera = list(stable.genera)
        edges = []
        sx_slopes = []
        sy_slopes = []
        cover_x = []  # per sub edge, the original x edge it covers
        cover_y = []
        for j, path in enumerate(choice):
            u, v = stable.edges[j]
            prev = u
            for step, (i_x, i_y) in enumerate(path):
                ex, dx = trails_x[j][i_x]
                ey, dy = trails_y[j][i_y]
                last = step == len(path) - 1
                if last:
                    nxt = v
                else:
                    genera.append(0)
                    nxt = len(genera) - 1
                a, b = prev, nxt
                s_x = tx.slopes[0][ex] * dx
                s_y = ty.slopes[0][ey] * dy
                edges.append((a, b))
                sx_slopes.append(s_x if a <= b else -s_x)
                sy_slopes.append(s_y if a <= b else -s_y)
                if a > b:
                    a, b = b, a
                edges[-1] = (a, b)
                cover_x.append(ex)
                cover_y.append(ey)
                prev = nxt
        # sort sub edges the way DualGraph will and permute the data along
        order = sorted(range(len(edges)), key=lambda i: edges[i])
        graph = DualGraph(tuple(genera), tuple(edges[i] for i in order), stable.legs)
        slopes = (
            tuple(sx_slopes[i] for i in order),
            tuple(sy_slopes[i] for i in order),
        )
        ptype = RubberMapType(graph, slopes, contact)
        mc = moduli_cone(ptype)
        nx, ny = tx.graph.num_edges, ty.graph.num_edges
        rows = []
        for e in range(nx):
            rows.append(
                tuple(1 if cover_x[order[i]] == e else 0 for i in range(len(edges)))
            )
        for e in range(ny):
            rows.append(
                tuple(1 if cover_y[order[i]] == e else 0 for i in range(len(edges)))
            )
        embed = LinearMap(tuple(rows), len(edges), nx + ny)
        results.append(ProductType(ptype, mc.cone, embed, tx, ty))
    return results


def fiber_product_cone(tx: RubberMapType, ty: RubberMapType) -> RationalCone:
    """The fiber product of the two moduli cones over the stable orthant.

    Lives in the direct sum of the two edge coordinate spaces; the fiber
    condition identifies the stabilized lengths.
    """
    sx, mx, _ = stabilize(tx.graph)
    sy, my, _ = stabilize(ty.graph)
    if sx != sy:
        raise IncompatibleStabilizations("the two types stabilize to different graphs")
    cx = moduli_cone(tx).cone
    cy = moduli_cone(ty).cone
    nx, ny = tx.graph.num_edges, ty.graph.num_edges
    ineqs = [w + la.zero_vec(ny) for w in cx.facets]
    ineqs += [la.zero_vec(nx) + w for w in cy.facets]
    eqns = [w + la.zero_vec(ny) for w in cx.span_eqs]
    eqns += [la.zero_vec(nx) + w for w in cy.span_eqs]
    for j in range(sx.num_edges):
        eqns.append(tuple(mx.matrix[j]) + tuple(-x for x in my.matrix[j]))
    return cone_from_inequalities(ineqs, eqns, nx + ny)


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
    from .complexes import ComplexMorphism

    contact = types[0].contact if types else None
    cx, typemap = _contraction_complex(
        ((t.graph, t.edge_data()) for t in types),
        "T",
        lambda graph, data: RubberMapType.from_edge_data(graph, data, contact),
        lambda t: moduli_cone(t).cone,
    )
    assignments = {}
    for tid, t in typemap.items():
        stable, lmap, _ = stabilize(t.graph)
        cid = target.id_of(stable)
        assignments[tid] = (cid, lmap)
    phi = ComplexMorphism(cx, target.complex, assignments)
    return MapModuliComplex(cx, typemap, phi, target)
