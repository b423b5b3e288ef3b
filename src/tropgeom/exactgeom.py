"""Pointed rational polyhedral cones with exact dual descriptions.

Cones carry both extremal primitive rays and a canonical facet description.
Each cone runs at most one double description (Motzkin style insertion with
a combinatorial adjacency test on bit-set zero sets, on integers only:
Bareiss, Math. Comp. 22, 1968; Fukuda-Prodon, LNCS 1120, 1996):
- `cone_from_generators` (images, stellar cells, JSON) runs it on the dual
  cone for the facets and keeps the generators whose active facet sets are
  maximal as the rays;
- `cone_from_inequalities` (intersections, preimages, map cones) runs it on
  the system for the rays and reads the facets off the inequalities;
- faces (`RationalCone.face_at`, `all_faces`) and pullbacks
  (`complexes.pull_back_cone`) already hold their extreme rays and a set of
  covectors containing their facet normals, and run none;
- each side of a slice (`halves`) is one insertion step on the parent's
  rays and their zero sets.
All but the first build through `_cone_from_extreme`, which picks the
covectors with maximal zero sets on the rays as the facet normals
(Kaibel-Pfetsch, Comput. Geom. 23, 2002).  A cone's frame is one Smith form
of the generators that first reached it, and a cone built from its extreme
rays has every field `cone_from_generators` of those rays gives.  All values
are immutable after construction and all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

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
    # hash((matrix, source_rank, target_rank)), the hash the dataclass would
    # generate, computed once: maps key memo tables and sets
    _hash: int = field(init=False, repr=False, compare=False)
    # whether the map is the identity of its lattice, decided once: `compose`
    # and the complexes' automorphism loops take an identity as it is
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.matrix) != self.target_rank or any(
            len(row) != self.source_rank for row in self.matrix
        ):
            raise RankMismatch(
                f"matrix shape {len(self.matrix)} rows does not match "
                f"{self.target_rank}x{self.source_rank}"
            )
        object.__setattr__(
            self, "_hash", hash((self.matrix, self.source_rank, self.target_rank))
        )
        object.__setattr__(
            self,
            "is_identity",
            self.source_rank == self.target_rank
            and self.matrix == la.identity_matrix(self.source_rank),
        )

    def __hash__(self):
        return self._hash

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int) -> "LinearMap":
        """The identity of Z^n, one shared map per n."""
        return LinearMap(la.identity_matrix(n), n, n)

    def apply(self, v) -> Vec:
        if len(v) != self.source_rank:
            raise RankMismatch(f"vector rank {len(v)} != {self.source_rank}")
        return la.mat_vec(self.matrix, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (cached by the two matrices); when either is an
        identity the composite is the other one."""
        if other.target_rank != self.source_rank:
            raise RankMismatch("composition rank mismatch")
        if self.is_identity:
            return other
        if other.is_identity:
            return self
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


@lru_cache(maxsize=4096)
def inverse(m: LinearMap) -> LinearMap:
    """The inverse of a lattice automorphism, kept in an LRU table of 4096
    entries; ValueError (stored nowhere) when m is not invertible over the
    lattice."""
    return LinearMap(la.invert_unimodular(m.matrix), m.target_rank, m.source_rank)


def _combine(s, x, t, y) -> Vec:
    """The primitive vector along s*x - t*y (fraction-free elimination)."""
    return la.primitive([s * p - t * q for p, q in zip(x, y)])


def _insert_halfspace(lin, rays, a, index):
    """One double description step: intersect (lin, rays) with {a >= 0}.

    lin is a list of lineality basis vectors, rays a list of [vector, zeroset]
    pairs, and a is the constraint numbered index, after the constraints
    numbered 0 .. index - 1.  A zero set is an integer bit set: bit k is set
    when constraint k vanishes on the ray.  Returns the updated pair.  All
    arithmetic is on integers: a vector x is projected along the pivot
    direction b onto {a = 0} as the primitive vector of (a.b) x - (a.x) b.
    The vectors of (lin, rays) share one width, so a is checked against it
    once and each product is summed without a call to `la.dot`.
    """
    if lin or rays:
        la.check_width((a,), len(lin[0] if lin else rays[0][0]))
    bit = 1 << index
    vals = [sum(map(mul, a, b)) for b in lin]
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
            projv = _combine(vb, r, sum(map(mul, a, r)), b)
            if any(projv):
                new_rays.append([projv, zs | bit])
        # the pivot lineality direction survives as an extreme ray on the >= 0 side
        new_rays.append([la.primitive(b), bit - 1])
        return new_lin, new_rays

    pos, zero, neg = [], [], []
    for r, zs in rays:
        v = sum(map(mul, a, r))
        if v > 0:
            pos.append([r, zs, v])
        elif v < 0:
            neg.append([r, zs, v])
        else:
            zero.append([r, zs | bit])
    if not neg:
        return lin, [[r, zs] for r, zs, _ in pos] + zero
    if not pos and not zero and not lin:
        return lin, []
    kept = [[r, zs] for r, zs, _ in pos] + zero
    # the zero sets of every ray, by position: pos, then zero, then neg
    zsets = [zs for _, zs, _ in pos] + [zs for _, zs in zero] + [zs for _, zs, _ in neg]
    first_neg = len(zsets) - len(neg)
    for i, (rp, zp, vp) in enumerate(pos):
        for j, (rn, zn, vn) in enumerate(neg, first_neg):
            # adjacent when no third ray vanishes on every constraint both do
            common = zp & zn
            for k, zs in enumerate(zsets):
                if zs & common == common and k != i and k != j:
                    break
            else:
                comb = _combine(vp, rn, vn, rp)
                if any(comb):
                    kept.append([comb, common | bit])
    # dedupe rays that coincide after combination
    seen = {}
    for r, zs in kept:
        if r in seen:
            seen[r] = seen[r] | zs
        else:
            seen[r] = zs
    return lin, [[r, zs] for r, zs in seen.items()]


def extreme_rays_of_system(ineqs, eqns, rank: int):
    """Extreme rays and lineality of {x : a.x >= 0, e.x = 0} in R^rank.

    The insertion starts from the lattice of the equations, {x : e.x = 0},
    as its lineality basis (all of Z^rank when there are none), and inserts
    the nonzero inequalities only, numbered 0, 1, ... in the given order.
    """
    lin = la.kernel_basis(tuple(map(tuple, eqns)), rank)
    rays = []
    ineqs = [tuple(a) for a in ineqs if any(a)]
    for index, a in enumerate(ineqs):
        lin, rays = _insert_halfspace(lin, rays, a, index)
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
        span_basis: saturated lattice basis of the linear span (rows), from
            the Smith form of the sorted generators the cone was first built
            from: a function of that generator set, not of its order.  The
            cones built from their extreme rays (faces, slices, pullbacks,
            inequality systems) take it from their sorted rays, as
            `cone_from_generators` of the rays does; a cone the generator
            path reached first keeps that path's frame.
    """

    ambient_rank: int
    rays: tuple
    dim: int = field(compare=False)
    facets: tuple = field(compare=False)
    span_eqs: tuple = field(compare=False)
    span_basis: tuple = field(compare=False)
    _faces: tuple | None = field(default=None, init=False, compare=False)
    # hash((ambient_rank, rays)), the hash the dataclass would generate,
    # computed once
    _hash: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.ambient_rank, self.rays)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RationalCone(rank={self.ambient_rank}, dim={self.dim}, rays={list(self.rays)})"

    def is_zero(self) -> bool:
        return not self.rays

    # The covectors of a cone have its rank, so once a point's rank is checked
    # the questions below sum each product without a call to `la.dot`.

    def contains(self, x) -> bool:
        if len(x) != self.ambient_rank:
            raise RankMismatch("point rank mismatch")
        for e in self.span_eqs:
            if sum(map(mul, e, x)):
                return False
        for f in self.facets:
            if sum(map(mul, f, x)) < 0:
                return False
        return True

    def contains_in_relint(self, x) -> bool:
        if len(x) != self.ambient_rank:
            raise RankMismatch("point rank mismatch")
        for e in self.span_eqs:
            if sum(map(mul, e, x)):
                return False
        for f in self.facets:
            if sum(map(mul, f, x)) <= 0:
                return False
        return True

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
        """The face where the given cone-nonnegative covectors vanish: the
        cone's rays on it are its extreme rays, and the cone's facets hold
        its facet normals (`_cone_from_extreme`)."""
        key = (self.ambient_rank, self.rays, tuple(map(tuple, covectors)))
        face = _face_cache.get(key)
        if face is None:
            if self.rays:
                la.check_width(key[2], self.ambient_rank)
            kept = _orthogonal(self.rays, key[2])
            face = _cone_from_extreme(kept, self.facets, self.ambient_rank)
            _face_cache[key] = face
        return face

    def minimal_face_containing(self, sub: "RationalCone") -> "RationalCone":
        if sub.rays and self.ambient_rank != sub.ambient_rank:
            # every facet has the cone's rank: the first stands for them all
            la.check_width(self.facets[:1], sub.ambient_rank)
        return self.face_at(_orthogonal(self.facets, sub.rays))

    def minimal_face_rays(self, sub: "RationalCone") -> tuple:
        """The rays of `minimal_face_containing(sub)`, without making the
        face: a face of a pointed cone is spanned by the cone's rays on it,
        each extreme in the face, and these stay in the cone's sorted order."""
        if sub.rays and self.ambient_rank != sub.ambient_rank:
            la.check_width(self.facets[:1], sub.ambient_rank)
        return tuple(_orthogonal(self.rays, _orthogonal(self.facets, sub.rays)))

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
        """Whether self is a face of other: the smallest face of other
        holding self has self's rays (`minimal_face_rays`, no face built)."""
        if not other.contains_cone(self):
            return False
        return (
            self.ambient_rank == other.ambient_rank
            and other.minimal_face_rays(self) == self.rays
        )

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


def _orthogonal(xs, ys) -> list:
    """The entries of xs orthogonal to every entry of ys, in order; all the
    vectors have one length."""
    kept = []
    for x in xs:
        for y in ys:
            if sum(map(mul, x, y)):
                break
        else:
            kept.append(x)
    return kept


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


def _zeros(x, vectors) -> int:
    """The bit set of the positions k where vectors[k].x vanishes (one width)."""
    z = 0
    for k, y in enumerate(vectors):
        if not sum(map(mul, x, y)):
            z |= 1 << k
    return z


def _maximal(z: int, sets) -> bool:
    """Whether no bit set in sets strictly contains the bit set z."""
    return not any(y != z and y & z == z for y in sets)


def _frame(gens: tuple, ambient_rank: int):
    """(d, span_basis, lift, span_eqs, pivots) of the span of the sorted
    primitive generators.

    A spanning set gets the standard basis, no lift and no equations.
    Otherwise the frame is one Smith form u*G*v = D of G: row i of u*G is
    diag[i] times the primitive row i of v^-1, g*v[:, :d] the coordinates of
    g, v[:, :d] the lift and v[:, d:] the annihilator, whose HNF (with its
    pivots) gives the span equations.
    """
    if la.rank(gens) == ambient_rank:
        return ambient_rank, tuple(la.identity_matrix(ambient_rank)), None, (), ()
    diag, u, v = la.smith_normal_form(gens)
    d = sum(1 for x in diag if x)
    span_basis = tuple(map(la.primitive, la.mat_mul(u[:d], gens)))
    lift = tuple(row[:d] for row in v)
    span_eqs, pivots = la.hnf_rows(la.transpose(v)[d:])
    return d, span_basis, lift, tuple(span_eqs), pivots


def cone_from_generators(vectors, ambient_rank: int | None = None) -> RationalCone:
    """Canonical pointed cone spanned by the given integer vectors.

    Redundant generators are dropped and every ray is reduced to its primitive
    representative; raises NotPointed if the generators span a line.  Results
    are cached (cones are immutable).  The facets come from a double
    description of the dual cone inside the span; a generator is extreme when
    no other generator lies on a strict superset of its facets.
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

    d, span_basis, lift, span_eqs, pivots = _frame(key[1], ambient_rank)
    coords = gens if lift is None else la.mat_mul(gens, lift)
    # facets of the cone = extreme rays of the dual cone inside the span
    lin, dual_rays = extreme_rays_of_system(coords, [], d)
    assert not lin, "dual cone of a spanning set is pointed"
    if la.rank(dual_rays) < d:
        raise NotPointed("generated cone contains a line")

    # a generator spans a ray of the cone exactly when its active set (the
    # facets it lies on) is inclusion-maximal among the generators' active
    # sets; the dual rays and the coordinates have width d
    active = [_zeros(gc, dual_rays) for gc in coords]
    rays = tuple(sorted(g for g, z in zip(gens, active) if _maximal(z, active)))

    if lift is None:
        facets = dual_rays
    else:
        facets = [la.reduce_mod_lattice(la.mat_vec(lift, w), span_eqs, pivots) for w in dual_rays]
    cone = RationalCone(ambient_rank, rays, d, tuple(sorted(facets)), span_eqs, span_basis)
    _cone_cache[key] = cone
    _cone_cache[(ambient_rank, rays)] = cone
    return cone


def _cone_from_extreme(rays, normals, ambient_rank: int) -> RationalCone:
    """The canonical cone with the given extreme rays (primitive, distinct),
    from covectors nonnegative on it among which are all its facet normals.

    No double description is run.  The facets are the normals whose zero
    sets on the rays are proper and inclusion-maximal (one per zero set).
    Each is restricted to the coordinates of the span basis, made primitive,
    lifted and reduced as `cone_from_generators` does with a dual ray, and
    the frame is the one of the sorted rays; so every field is the one
    `cone_from_generators(rays)` gives.  The cone cache keeps the frame of
    whichever builder reached a cone first.
    """
    if not rays:
        return zero_cone(ambient_rank)
    key = (ambient_rank, tuple(sorted(rays)))
    cached = _cone_cache.get(key)
    if cached is not None:
        return cached
    full = (1 << len(key[1])) - 1
    by_zeros = {}
    for a in normals:
        z = _zeros(a, key[1])
        if z != full:
            by_zeros.setdefault(z, a)
    d, span_basis, lift, span_eqs, pivots = _frame(key[1], ambient_rank)
    facets = []
    for z, a in by_zeros.items():
        if not _maximal(z, by_zeros):
            continue
        if lift is None:
            facets.append(la.primitive(a))
        else:
            w = la.primitive([sum(map(mul, a, b)) for b in span_basis])
            facets.append(la.reduce_mod_lattice(la.mat_vec(lift, w), span_eqs, pivots))
    cone = RationalCone(ambient_rank, key[1], d, tuple(sorted(facets)), span_eqs, span_basis)
    _cone_cache[key] = cone
    return cone


_system_cache: dict = {}


def cone_from_inequalities(ineqs, eqns, ambient_rank: int) -> RationalCone:
    """The pointed cone {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqns}.

    One double description gives the extreme rays, and the facets are read
    from the inequalities (`_cone_from_extreme`).  Results are cached under
    the exact system, in the given order.
    """
    key = (ambient_rank, tuple(map(tuple, ineqs)), tuple(map(tuple, eqns)))
    cone = _system_cache.get(key)
    if cone is None:
        lin, rays = extreme_rays_of_system(key[1], key[2], ambient_rank)
        if lin:
            raise NotPointed("inequality system has a nontrivial lineality space")
        cone = _cone_from_extreme(rays, key[1], ambient_rank)
        _system_cache[key] = cone
    return cone


def halves(cone: RationalCone, w) -> tuple:
    """The two sides cone ∩ {w >= 0} and cone ∩ {w <= 0} of a cone that w
    slices (positive on one ray, negative on another).

    Each side is one double description step on the cone's rays, with their
    zero sets on its facets, and takes its facets from those of the cone and
    the cut (`_cone_from_extreme`).
    """
    facets = cone.facets
    rays = [[r, _zeros(r, facets)] for r in cone.rays]
    out = []
    for side in (tuple(w), la.vscale(-1, w)):
        _, piece = _insert_halfspace([], rays, side, len(facets))
        out.append(_cone_from_extreme([r for r, _ in piece], facets + (side,), cone.ambient_rank))
    return tuple(out)


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
        # the ranks are checked above, so the rays go to mat_vec directly
        rays = [la.mat_vec(f.matrix, r) for r in c.rays]
        img = cone_from_generators(rays, f.target_rank)
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


@lru_cache(maxsize=4096)
def is_unimodular(c: RationalCone) -> bool:
    """Whether c is simplicial with rays extending to a basis of its span lattice.

    The answers are kept in an LRU table of 4096 entries, like
    `lattice_surjective`, so a rescan of cones already asked reads the table.
    """
    return c.is_simplicial() and c.lattice_index() == 1


@lru_cache(maxsize=4096)
def lattice_surjective(f: LinearMap, c: RationalCone) -> bool:
    """Whether f maps lattice points of span(c) onto lattice points of span(f(c)).

    The answers are kept in an LRU table of 4096 entries, like
    `linalg.smith_factors`; a call that raises stores nothing.
    """
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
