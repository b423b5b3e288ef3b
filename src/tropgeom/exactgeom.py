"""Pointed rational polyhedral cones with exact dual descriptions.

Cones carry both extremal primitive rays and a canonical facet description,
computed by incremental double description (Motzkin style insertion with a
combinatorial adjacency test, on integers only: Bareiss, Math. Comp. 22,
1968; Fukuda-Prodon, LNCS 1120, 1996).  All values are immutable after
construction and all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm, prod

from . import linalg as la
from .linalg import Mat, Vec


class GeometryError(Exception):
    pass


class RankMismatch(GeometryError):
    pass


class NotPointed(GeometryError):
    pass


@dataclass(frozen=True)
class LinearMap:
    """Integer-linear map between lattices, rows indexed by target coordinates."""

    matrix: Mat
    source_rank: int
    target_rank: int

    def __post_init__(self):
        if len(self.matrix) != self.target_rank or any(
            len(row) != self.source_rank for row in self.matrix
        ):
            raise RankMismatch(
                f"matrix shape {len(self.matrix)} rows does not match "
                f"{self.target_rank}x{self.source_rank}"
            )

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(la.identity_matrix(n), n, n)

    def apply(self, v) -> Vec:
        if len(v) != self.source_rank:
            raise RankMismatch(f"vector rank {len(v)} != {self.source_rank}")
        return la.mat_vec(self.matrix, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (cached by the two matrices)."""
        if other.target_rank != self.source_rank:
            raise RankMismatch("composition rank mismatch")
        key = (self.matrix, other.matrix, other.source_rank)
        m = _compose_cache.get(key)
        if m is None:
            m = LinearMap(
                la.mat_mul(self.matrix, other.matrix), other.source_rank, self.target_rank
            )
            _compose_cache[key] = m
        return m

    def to_json(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix],
            "source_rank": self.source_rank,
            "target_rank": self.target_rank,
        }

    @staticmethod
    def from_json(data: dict) -> "LinearMap":
        return LinearMap(
            tuple(tuple(int(x) for x in r) for r in data["matrix"]),
            int(data["source_rank"]),
            int(data["target_rank"]),
        )


def _combine(s, x, t, y) -> Vec:
    """The primitive vector along s*x - t*y (fraction-free elimination)."""
    return la.primitive([s * p - t * q for p, q in zip(x, y)])


def _insert_halfspace(lin, rays, a, index):
    """One double description step: intersect (lin, rays) with {a >= 0}.

    lin is a list of lineality basis vectors, rays a list of [vector, zeroset]
    pairs, and a is the constraint numbered index, after the constraints
    numbered 0 .. index - 1.  Returns the updated pair.  All arithmetic is on integers: a
    vector x is projected along the pivot direction b onto {a = 0} as the
    primitive vector of (a.b) x - (a.x) b.
    """
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
        # the pivot lineality direction survives as an extreme ray on the >= 0 side
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
    # dedupe rays that coincide after combination
    seen = {}
    for r, zs in kept:
        if r in seen:
            seen[r] = seen[r] | zs
        else:
            seen[r] = zs
    return lin, [[r, zs] for r, zs in seen.items()]


def extreme_rays_of_system(ineqs, eqns, rank: int):
    """Extreme rays and lineality of {x : a.x >= 0, e.x = 0} in R^rank."""
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


@dataclass(frozen=True, slots=True)
class RationalCone:
    """A pointed rational polyhedral cone, canonically represented.

    Cones are equal exactly when their rank and rays are.

    Attributes:
        ambient_rank: dimension of the ambient lattice.
        rays: lex-sorted tuple of primitive extremal ray generators.
        dim: dimension of the linear span.
        facets: canonical primitive integer covectors, one per facet,
            nonnegative exactly on the cone within its span.
        span_eqs: HNF basis of the annihilator of the span (x is in the span
            iff all of these vanish).
        span_basis: saturated lattice basis of the linear span (rows).
    """

    ambient_rank: int
    rays: tuple
    dim: int = field(compare=False)
    facets: tuple = field(compare=False)
    span_eqs: tuple = field(compare=False)
    span_basis: tuple = field(compare=False)
    _faces: tuple | None = field(default=None, init=False, compare=False)

    def __repr__(self):
        return f"RationalCone(rank={self.ambient_rank}, dim={self.dim}, rays={list(self.rays)})"

    def is_zero(self) -> bool:
        return not self.rays

    def contains(self, x) -> bool:
        if len(x) != self.ambient_rank:
            raise RankMismatch("point rank mismatch")
        return all(la.dot(e, x) == 0 for e in self.span_eqs) and all(
            la.dot(f, x) >= 0 for f in self.facets
        )

    def contains_in_relint(self, x) -> bool:
        return (
            all(la.dot(e, x) == 0 for e in self.span_eqs)
            and all(la.dot(f, x) > 0 for f in self.facets)
        )

    def contains_cone(self, other: "RationalCone") -> bool:
        key = (self.ambient_rank, self.rays, other.rays)
        inside = _contains_cache.get(key)
        if inside is None:
            inside = all(self.contains(r) for r in other.rays)
            _contains_cache[key] = inside
        return inside

    def relint_point(self) -> Vec:
        """Deterministic integral point of the relative interior (0 for the zero cone)."""
        if not self.rays:
            return la.zero_vec(self.ambient_rank)
        p = la.zero_vec(self.ambient_rank)
        for r in self.rays:
            p = la.vadd(p, r)
        return p

    def face_at(self, covectors) -> "RationalCone":
        """The face where the given cone-nonnegative covectors vanish."""
        key = (self.ambient_rank, self.rays, tuple(map(tuple, covectors)))
        face = _face_cache.get(key)
        if face is None:
            kept = [
                r for r in self.rays if all(la.dot(c, r) == 0 for c in key[2])
            ]
            face = cone_from_generators(kept, self.ambient_rank)
            _face_cache[key] = face
        return face

    def minimal_face_containing(self, sub: "RationalCone") -> "RationalCone":
        active = [
            f for f in self.facets if all(la.dot(f, r) == 0 for r in sub.rays)
        ]
        return self.face_at(active)

    def all_faces(self):
        """Every face of the cone, including itself and the zero cone."""
        if self._faces is not None:
            return list(self._faces)
        seen = {self.rays: self}
        queue = [self]
        while queue:
            c = queue.pop()
            for f in c.facets:
                face = c.face_at([f])
                if face.rays not in seen:
                    seen[face.rays] = face
                    queue.append(face)
        if () not in seen:
            seen[()] = zero_cone(self.ambient_rank)
        result = sorted(seen.values(), key=lambda c: (c.dim, c.rays))
        object.__setattr__(self, "_faces", tuple(result))
        return result

    def proper_faces(self):
        return [f for f in self.all_faces() if f.rays != self.rays]

    def is_face_of(self, other: "RationalCone") -> bool:
        if not other.contains_cone(self):
            return False
        return other.minimal_face_containing(self) == self

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def lattice_index(self) -> int:
        """Index of the ray lattice inside the saturated span lattice (simplicial only)."""
        if not self.is_simplicial():
            raise GeometryError("lattice index is defined for simplicial cones")
        coords = tuple(la.lattice_coords(self.span_basis, r) for r in self.rays)
        # |det|: the Smith diagonal is nonnegative and u, v are unimodular; the
        # zero cone has an empty diagonal and index 1
        return prod(la.smith_factors(coords, self.dim)[0])

    def to_json(self) -> dict:
        return {"rank": self.ambient_rank, "rays": [list(r) for r in self.rays]}

    @staticmethod
    def from_json(data: dict) -> "RationalCone":
        return cone_from_generators(
            [tuple(int(x) for x in r) for r in data["rays"]], int(data["rank"])
        )


def zero_cone(ambient_rank: int) -> RationalCone:
    span_eqs = tuple(tuple(r) for r in la.identity_matrix(ambient_rank))
    return RationalCone(ambient_rank, (), 0, (), span_eqs, ())


# Memo tables of the pure map-and-cone operations.  Cones are canonical (one
# cone per ambient rank and rays) and maps are their matrices, so every key is
# canonical data; a call that raises stores nothing.
_compose_cache: dict = {}  # LinearMap.compose
_contains_cache: dict = {}  # RationalCone.contains_cone
_face_cache: dict = {}  # RationalCone.face_at
_image_cache: dict = {}  # image_cone

_cone_cache: dict = {}


def cone_from_generators(vectors, ambient_rank: int | None = None) -> RationalCone:
    """Canonical pointed cone spanned by the given integer vectors.

    Redundant generators are dropped and every ray is reduced to its primitive
    representative; raises NotPointed if the generators span a line.  Results
    are cached (cones are immutable).
    """
    vectors = [tuple(v) for v in vectors]
    if ambient_rank is None:
        if not vectors:
            raise RankMismatch("ambient rank required for the zero cone")
        ambient_rank = len(vectors[0])
    if any(len(v) != ambient_rank for v in vectors):
        raise RankMismatch("generators have inconsistent ranks")
    gens = []
    for v in vectors:
        p = la.primitive(v)
        if any(p) and p not in gens:
            gens.append(p)
    if not gens:
        return zero_cone(ambient_rank)
    key = (ambient_rank, tuple(sorted(gens)))
    cached = _cone_cache.get(key)
    if cached is not None:
        return cached

    if la.rank(gens) == ambient_rank:
        span_basis = tuple(la.identity_matrix(ambient_rank))
        d = ambient_rank
        coords = list(gens)
    else:
        span_basis = tuple(la.row_saturation_basis(gens, ambient_rank))
        d = len(span_basis)
        coords = [la.lattice_coords(span_basis, g) for g in gens]
    # facets of the cone = extreme rays of the dual cone inside the span
    lin, dual_rays = extreme_rays_of_system(coords, [], d)
    assert not lin, "dual cone of a spanning set is pointed"
    if la.rank(dual_rays) < d:
        raise NotPointed("generated cone contains a line")

    extremal = []
    for g, gc in zip(gens, coords):
        active = [w for w in dual_rays if la.dot(w, gc) == 0]
        if la.rank(active) == d - 1:
            extremal.append(g)
    rays = tuple(sorted(extremal))

    if d == ambient_rank:
        facets = list(dual_rays)
        span_eqs = []
    else:
        ann = la.kernel_basis(span_basis, ambient_rank)
        span_eqs, ann_pivots = la.hnf_rows(ann)
        facets = []
        smat = tuple(span_basis)
        for w in dual_rays:
            c = la.solve_integer(smat, w)
            c = la.reduce_mod_lattice(c, span_eqs, ann_pivots)
            facets.append(tuple(c))
    cone = RationalCone(
        ambient_rank,
        rays,
        d,
        tuple(sorted(facets)),
        tuple(span_eqs),
        span_basis,
    )
    _cone_cache[key] = cone
    _cone_cache[(ambient_rank, rays)] = cone
    return cone


_system_cache: dict = {}


def cone_from_inequalities(ineqs, eqns, ambient_rank: int) -> RationalCone:
    """The pointed cone {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqns}.

    Results are cached under the exact system, in the given order.
    """
    key = (ambient_rank, tuple(map(tuple, ineqs)), tuple(map(tuple, eqns)))
    cone = _system_cache.get(key)
    if cone is None:
        lin, rays = extreme_rays_of_system(key[1], key[2], ambient_rank)
        if lin:
            raise NotPointed("inequality system has a nontrivial lineality space")
        cone = cone_from_generators(rays, ambient_rank)
        _system_cache[key] = cone
    return cone


def intersect(a: RationalCone, b: RationalCone) -> RationalCone:
    """a meet b; a repeat hits the system table of `cone_from_inequalities`."""
    if a.ambient_rank != b.ambient_rank:
        raise RankMismatch("cones live in different ambient ranks")
    return cone_from_inequalities(
        a.facets + b.facets, a.span_eqs + b.span_eqs, a.ambient_rank
    )


def image_cone(f: LinearMap, c: RationalCone) -> RationalCone:
    if f.source_rank != c.ambient_rank:
        raise RankMismatch("map source does not match cone ambient")
    key = (f.matrix, f.target_rank, c.rays)
    img = _image_cache.get(key)
    if img is None:
        img = cone_from_generators([f.apply(r) for r in c.rays], f.target_rank)
        _image_cache[key] = img
    return img


def preimage_cone(f: LinearMap, c: RationalCone, domain: RationalCone) -> RationalCone:
    """The subcone of ``domain`` mapping into ``c`` under ``f``."""
    if f.source_rank != domain.ambient_rank or f.target_rank != c.ambient_rank:
        raise RankMismatch("preimage rank mismatch")
    ineqs = [la.mat_vec(la.transpose(f.matrix), w) for w in c.facets]
    eqns = [la.mat_vec(la.transpose(f.matrix), e) for e in c.span_eqs]
    ineqs += list(domain.facets)
    eqns += list(domain.span_eqs)
    return cone_from_inequalities(ineqs, eqns, domain.ambient_rank)


def is_unimodular(c: RationalCone) -> bool:
    """Whether c is simplicial with rays extending to a basis of its span lattice."""
    return c.is_simplicial() and c.lattice_index() == 1


@lru_cache(maxsize=4096)
def lattice_surjective(f: LinearMap, c: RationalCone, target: RationalCone) -> bool:
    """Whether f maps lattice points of span(c) onto lattice points of span(f(c)).

    The answers are kept in an LRU table of 4096 entries, like
    `linalg.smith_factors`; a call that raises stores nothing.
    """
    for r in c.rays:
        if not target.contains(f.apply(r)):
            raise GeometryError("map does not send the cone into the target")
    img = image_cone(f, c)
    if img.dim == 0:
        return True
    b1 = c.span_basis
    b2 = img.span_basis
    cols = []
    for v in b1:
        coords = la.lattice_coords(b2, f.apply(v))
        assert coords is not None
        cols.append(coords)
    m = la.transpose(tuple(cols))
    diag = la.smith_factors(m, len(b1))[0]
    nonzero = [d for d in diag if d != 0]
    return len(nonzero) == len(b2) and all(d == 1 for d in nonzero)


def relints_intersect(a: RationalCone, b: RationalCone) -> bool:
    """Exact test for whether two cones have intersecting relative interiors."""
    i = intersect(a, b)
    p = i.relint_point()
    return a.contains_in_relint(p) and b.contains_in_relint(p)


def sample_points(cone: RationalCone, count: int, rng):
    """Deterministic integer sample points of the cone.

    Each point is a random combination of the rays with coefficients n/d
    (0 <= n <= 12, 1 <= d <= 5, in lowest terms), multiplied by the lcm of
    the d.  Membership and relative interior membership do not change under
    positive scaling, so the integer point stands for the rational one.
    """
    pts = []
    if cone.is_zero():
        return [la.zero_vec(cone.ambient_rank)] * min(count, 1)
    for _ in range(count):
        coeffs = []
        for _ in cone.rays:
            n = rng.randint(0, 12)
            d = rng.randint(1, 5)
            g = gcd(n, d)
            coeffs.append((n // g, d // g))
        if not any(n for n, _ in coeffs):
            coeffs[rng.randrange(len(coeffs))] = (1, 1)
        scale = lcm(*(d for _, d in coeffs))
        weights = [n * (scale // d) for n, d in coeffs]
        p = tuple(
            sum(w * r[i] for w, r in zip(weights, cone.rays))
            for i in range(cone.ambient_rank)
        )
        pts.append(p)
    return pts
