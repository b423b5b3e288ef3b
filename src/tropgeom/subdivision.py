"""The subdivision engine for cone complexes.

All refinement operations (stellar, hyperplane arrangement, common
refinement, pullback) produce per-cone fans and hand them to a single
assembler that resolves cell ownership across face gluings, collapses
automorphism orbits, and rebuilds a glued complex together with the
projection morphism.

The work is local.  The assembler glues only the touched cones: the cones
whose fan is not the cone alone, and their faces.  It copies every other
cone unchanged.  A stellar step looks for copies of its ray only in the star
of the ray's host cone (De Loera, Rambau and Santos, *Triangulations*,
Springer 2010: a stellar step changes only the star of its ray), and does
not cut a simplex of the star that has each copy as a ray.  A chain of
stellar steps (`_unimodularize`) hands each step only the star and the
star's faces, and carries every other cone from step to step under the id
it was born with, so a step costs its star; the refined complex, its ids
and its projection are built once, when the chain ends.  The chambers of a
closed arrangement glue as they are (`hyperplane_refine`); the fans of the
other refinements are closed first (`_closure_of_fans`).

A step that cuts nothing returns a view of the one unrefined copy of its
complex, which is built on first use and kept on the complex.

The assembler does not check what it builds.  `check_subdivision` does, once
per subdivision object, where a subdivision leaves the engine: on the result
of `refine_until_conical` (after unimodularization), on the source
subdivision of `pullback_subdivision`, and on the stellar subdivision of the
worked example.  `stellar_subdivide`, `hyperplane_refine` and
`common_refinement` are steps that return unchecked subdivisions.  The check
is local as well.  A subdivision records the original cones that were glued
(`SubdivisionOf.touched`); the original complex is validated once, and only
the refined cones over the glued ones are checked, since a copied cone
passes whenever its original does.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import mul

from . import linalg as la
from .exactgeom import (
    GeometryError,
    LinearMap,
    RationalCone,
    cone_from_generators,
    halves,
    image_cone,
    intersect,
    inverse,
    is_unimodular,
    preimage_cone,
    sample_points,
)
from .complexes import (
    ComplexMorphism,
    ConeComplex,
    ConicalSubset,
    Embedded,
    FaceMap,
    is_union_of_cones,
    preimage_in_span,
    pull_back_cone,
    validate_complex,
)


class RayOutside(GeometryError):
    pass


class CapReached(GeometryError):
    """A refinement loop that reached its cap without finishing: a fixpoint
    after MAX_FIXPOINT_ROUNDS rounds, or unimodularization after
    MAX_UNIMODULAR_STEPS stellar steps."""


class UnsoundSample(GeometryError):
    """A sampled point of an original cone that no maximal cell covers, or
    that lies in the relative interiors of two."""

    def __init__(self, message: str, cone_id: str, point):
        super().__init__(message)
        self.cone_id = cone_id
        self.point = point


@dataclass
class SubdivisionOf:
    """A subdivision: a refined complex with a projection to the original.

    `touched` holds the ids of the original cones that were glued; every
    other original cone is copied unchanged (see `check_subdivision`).
    """

    original: ConeComplex
    refined: ConeComplex
    projection: ComplexMorphism
    touched: frozenset

    def __post_init__(self):
        self.touched = frozenset(self.touched)
        self._cells_cache = {}
        self._cells_index = {}  # original cone id -> cell rays -> cell
        # set by check_subdivision once the subdivision has passed its checks
        self._checked = False
        # the (host, rays) pieces prove_conical proved unions of cells
        self._conical = frozenset()
        self._owned = None  # original cone id -> the refined ids over it
        self._lifts = {}  # (refined id, cell map matrix) -> lattice_lift

    def refined_over(self, cid: str):
        """The refined ids over the original cone cid, in id order (indexed
        on first use)."""
        if self._owned is None:
            self._owned = {}
            for rid in self.refined.ids():
                self._owned.setdefault(self.projection.assignments[rid][0], []).append(rid)
        return self._owned.get(cid, ())

    def cells_over(self, cid: str):
        """All embedded refined cells inside the original cone cid (orbit
        expanded), sorted by (dim, rays): each `Embedded` holds the cell, the
        refined id and the map that sends the refined cone onto the cell."""
        if cid in self._cells_cache:
            return list(self._cells_cache[cid])
        out = {}
        for emb in self.original.embeddings_into(cid):
            for rid in self.refined_over(emb.src):
                _, pm = self.projection.assignments[rid]
                rep = self.refined.cones[rid]
                for h in self.original.auts[emb.src]:
                    full = emb.map.compose(h).compose(pm)
                    cell = image_cone(full, rep)
                    if cell.rays not in out:
                        out[cell.rays] = Embedded(cell, rid, full)
        result = sorted(out.values(), key=lambda c: (c.cone.dim, c.cone.rays))
        self._cells_cache[cid] = result
        return list(result)

    def max_cells_over(self, cid: str):
        d = self.original.cones[cid].dim
        return [c for c in self.cells_over(cid) if c.cone.dim == d]

    def _cell_on(self, cid: str, cell: Embedded, q: RationalCone) -> Embedded:
        """The owner of a part q of the maximal cell over cid: the cell on
        the smallest face of that cell holding q, looked up by the face's
        rays (`RationalCone.minimal_face_rays`).

        On a checked subdivision the cells over cid are closed under faces
        and meet face to face, so this is the unique smallest cell holding
        q: a cell holding q meets the maximal cell in a face of both that
        holds q, so it holds that smallest face.
        """
        index = self._cells_index.get(cid)
        if index is None:
            index = self._cells_index[cid] = {c.cone.rays: c for c in self.cells_over(cid)}
        owner = index.get(cell.cone.minimal_face_rays(q))
        if owner is None:
            raise GeometryError(
                f"part {q.rays} of cone {cid} lies on a face of the cell "
                f"{cell.cone.rays} that is not a cell over the cone"
            )
        return owner

    def lattice_lift(self, cell: Embedded):
        """The matrix basisᵀ · p that sends a lattice point y of the cell's
        span to the point of the refined cone cell.src that cell.map sends
        to y: basis is that cone's span basis (nonempty) and p is
        `la.projection_to_lattice` of its image under cell.map.  Kept per
        (refined id, cell map matrix) for the life of the subdivision: the
        basis belongs to the refined cone, not to its rays."""
        key = (cell.src, cell.map.matrix)
        lift = self._lifts.get(key)
        if lift is None:
            basis = self.refined.cones[cell.src].span_basis
            proj = la.projection_to_lattice(tuple(cell.map.apply(b) for b in basis))
            lift = self._lifts[key] = la.mat_mul(la.transpose(basis), proj)
        return lift

    def transport(self, subset: ConicalSubset) -> ConicalSubset:
        """Re-express a conical subset of the original complex in the refined one.

        Each piece is cut along the refined cells and every part is hosted at
        the smallest refined cell containing it (`_cell_on`).
        """
        pieces = []
        seen = set()
        for host, p in subset.pieces:
            cells = self.cells_over(host)
            if p.is_zero():
                zero_cell = next(c for c in cells if c.cone.is_zero())
                parts = [(zero_cell, p)]
            else:
                d = self.original.cones[host].dim
                parts = []
                for c in cells:
                    if c.cone.dim != d:
                        continue
                    q = intersect(c.cone, p)
                    if q.is_zero():
                        continue
                    parts.append((self._cell_on(host, c, q), q))
            for owner, q in parts:
                back = pull_back_cone(owner.map, self.refined.cones[owner.src], q)
                key = (owner.src, back.rays)
                if key not in seen:
                    seen.add(key)
                    pieces.append((owner.src, back))
        return ConicalSubset(self.refined, tuple(pieces))

    def proved_conical(self, subset: ConicalSubset) -> bool:
        """Whether `prove_conical` proved every piece of the subset a union
        of refined cones on this subdivision.  Transport and the union
        check treat each piece on its own, so the subset's check would pass."""
        return subset.complex is self.original and self._conical.issuperset(
            (host, p.rays) for host, p in subset.pieces
        )

    def summary(self) -> dict:
        return {
            "original_cones": len(self.original.cones),
            "refined_cones": len(self.refined.cones),
        }

    def to_json(self) -> dict:
        return {
            "refined": self.refined.to_json(),
            "projection": self.projection.to_json(),
        }


def compose_subdivisions(s1: SubdivisionOf, s2: SubdivisionOf) -> SubdivisionOf:
    """s2 must subdivide s1.refined; the composite subdivides s1.original.

    It touches the cones s1 touches and the cones under the refined cones s2
    touches: an original cone outside both is a copy of a copy.
    """
    proj = s1.projection.compose_subdivision(s2.projection)
    owners = s1.projection.assignments
    touched = s1.touched | {owners[rid][0] for rid in s2.touched}
    return SubdivisionOf(s1.original, s2.refined, proj, touched)


# ---------------------------------------------------------------------------
# the assembler

# rounds a fixpoint loop (cell closure, covector transport) may take before it
# is reported as not settling
MAX_FIXPOINT_ROUNDS = 64
# stellar steps unimodularization may take before it is reported as not
# finishing
MAX_UNIMODULAR_STEPS = 500


def _touched_cells(cx: ConeComplex, fans: dict):
    """The cells of the touched cones, closed under faces.

    A cone is cut when its fan is not the cone alone, and touched when it is
    cut or a face of a cut cone; the touched cones are found by walking the
    face maps downwards from the cut ones.  Each touched cone's cells are the
    faces of its given cells (a touched cone without a fan starts from its
    own faces), keyed by the touched cones.  An untouched cone's cells are
    its own faces (see `_unrefined`).  A given cell that leaves its cone
    raises a GeometryError.
    """
    touched = set()
    stack = [cid for cid, fan in fans.items() if list(fan) != [cx.cones[cid]]]
    while stack:
        cid = stack.pop()
        if cid not in touched:
            touched.add(cid)
            stack.extend(f.sub for f in cx.face_maps_into(cid))
    cells = {}
    for cid in sorted(touched):
        got = set()
        for c in fans.get(cid, (cx.cones[cid],)):
            # the closure keeps cells inside their cones; a given cell that
            # leaves its cone would be owned by a face whose cells never hold it
            if not cx.cones[cid].contains_cone(c):
                raise GeometryError(
                    f"cell {c.rays} of the fan of cone {cid} leaves the cone"
                )
            got.update(c.all_faces())
        cells[cid] = got
    return cells


def _closure_of_fans(cx: ConeComplex, fans: dict):
    """The cells of the touched cones (`_touched_cells`), closed under
    automorphisms and pullback along the face maps out of touched cones
    until stable.

    Pullback from an untouched cone adds only faces of a cone, which a
    subdivision already holds.  A fan that is not an arrangement's chambers
    needs the rounds: the faces of a stellar or pullback fan need not glue
    across a shared face or be closed under the automorphisms.
    """
    cells = _touched_cells(cx, fans)
    touched = sorted(cells)
    face_maps = [f for cid in touched for f in cx.face_maps_into(cid)]
    for _ in range(MAX_FIXPOINT_ROUNDS):
        changed = set()
        for cid in touched:
            for g in cx.auts[cid]:
                if g.is_identity:
                    continue
                for c in list(cells[cid]):
                    img = image_cone(g, c)
                    if img not in cells[cid]:
                        cells[cid].add(img)
                        changed.add(cid)
        for f in face_maps:
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
    raise CapReached(
        f"cell closure did not stabilize in {MAX_FIXPOINT_ROUNDS} rounds; "
        f"cells of cones {sorted(changed)} still changed in the last round"
    )


def _assemble(cx: ConeComplex, fans: dict) -> SubdivisionOf:
    """Build the refined complex from per-cone fans of cells (unchecked):
    close the fans (`_closure_of_fans`) and glue their cells (`_glue`)."""
    return _glue(cx, _closure_of_fans(cx, fans))


def _glue(cx: ConeComplex, cells: dict) -> SubdivisionOf:
    """Build the refined complex from the cells of the touched cones
    (unchecked).

    The cells are keyed by the touched cones and closed under faces,
    automorphisms and pullback along face maps: `_closure_of_fans` closes a
    fan, and the chambers of a closed arrangement are closed once their
    faces are (`hyperplane_refine`).  Only the touched cones are glued.  A
    cell whose relative interior meets the relative interior of its host
    cone is owned by that host; every other cell is pulled back to the face
    that owns it.  One cone is stored per automorphism orbit of owned cells,
    and the cells owned by cone cid get the ids cid.0, cid.1, ... in
    (dimension, rays) order.  Every untouched cone cid is copied as the
    single cone cid.0 with its whole group, which fixes the cone (see
    `_unrefined`).  A step that cuts no cone returns a view of the complex's
    one unrefined copy, which is built on first use (see `_uncut_view`).
    The ids, face maps, automorphisms and projection are those that gluing
    every cone gives; the glued cones are the result's `touched`.
    """
    if not cells and cx._uncut is not None:
        return _uncut_view(cx)

    cell_info = {}
    owned = {cid: {} for cid in cells}
    for cid in cells:
        cone = cx.cones[cid]
        for c in sorted(cells[cid], key=lambda c: (c.dim, c.rays)):
            mf = cone.minimal_face_containing(c)
            if mf == cone:
                owner, emb_map, c_owner = cid, LinearMap.identity(cone.ambient_rank), c
            else:
                emb = cx.embedding_onto(cid, mf)
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
            cell_info[(cid, c.rays)] = (owner, rep, emb_map.compose(inverse(h)))
            owned[owner][rep.rays] = rep

    ids = {}
    new_cones = {}
    for owner in cx.ids():
        if owner in owned:
            reps = sorted(owned[owner].values(), key=lambda c: (c.dim, c.rays))
        else:
            reps = [cx.cones[owner]]
        for k, rep in enumerate(reps):
            nid = f"{owner}.{k}"
            ids[(owner, rep.rays)] = nid
            new_cones[nid] = rep

    new_auts = {}
    new_faces = set()
    assignments = {}
    for (owner, _), nid in ids.items():
        rep = new_cones[nid]
        assignments[nid] = (
            owner,
            LinearMap.identity(cx.cones[owner].ambient_rank),
        )
        if owner not in owned:
            new_auts[nid] = cx.auts[owner]
            new_faces.update(_unrefined(cx, owner, nid, ids))
            continue
        new_auts[nid] = [
            g for g in cx.auts[owner] if g.is_identity or image_cone(g, rep) == rep
        ]
        for face in rep.proper_faces():
            sub_owner, sub_rep, sub_map = cell_info[(owner, face.rays)]
            sub_id = ids[(sub_owner, sub_rep.rays)]
            new_faces.add(FaceMap(sub_id, nid, sub_map))

    refined = ConeComplex(new_cones, new_faces, new_auts)
    if not cells:
        cx._uncut = (refined, assignments, {}, {}, {})
        return _uncut_view(cx)
    return SubdivisionOf(cx, refined, ComplexMorphism(refined, cx, assignments), cells)


def _uncut_view(cx: ConeComplex) -> SubdivisionOf:
    """The subdivision of cx that cuts nothing, over the copy kept on cx.

    The views share the refined copy and the cells found over each cone, so
    the copy is built once per complex, and its check, which has no touched
    cone, validates only the original, once per complex.  The complex keeps
    the parts without a reference back to it: keeping the subdivision itself
    would make every complex subdivided once, such as the superimposed map
    complex of one run, a reference cycle left for the cycle collector.
    """
    refined, assignments, cells, index, lifts = cx._uncut
    sub = SubdivisionOf(cx, refined, ComplexMorphism(refined, cx, assignments), ())
    sub._cells_cache, sub._cells_index, sub._lifts = cells, index, lifts
    return sub


def _unrefined(cx: ConeComplex, cid: str, nid: str, ids: dict):
    """The face maps into nid, the copy cid.0 of an untouched cone cid.

    Gluing the untouched cone would give the same cone and face maps.  Its
    cells are its own faces (`_closure_of_fans`), and the only one whose
    minimal face is the cone is the cone itself, so it owns one cell, cid.0.
    A proper face F is its own minimal face.  So F is owned by the source s of
    the embedding that stands for F (`ConeComplex.embedding_onto`: the first
    one onto F in `embeddings_into` order), and it pulls back to the whole
    cone of s.  Every automorphism of s fixes that cone, so the orbit minimum
    is taken at the first automorphism h of s, and the face map is the
    embedding composed with the inverse of h.  Its source is the id of the
    whole cone of s: s.0 when s is untouched too.  A touched s holds
    that cell whenever its subdivision glues to the uncut cone cid; when it
    does not, the face cannot be glued.
    """
    for face in cx.cones[cid].proper_faces():
        emb = cx.embedding_onto(cid, face)
        if emb is None:
            raise GeometryError(
                f"face {face.rays} of cone {cid} is not represented; "
                "cannot resolve cell ownership"
            )
        sub_id = ids.get((emb.src, cx.cones[emb.src].rays))
        if sub_id is None:
            raise GeometryError(
                f"face {face.rays} of cone {cid} is cut, but cone {cid} is not"
            )
        h = cx.auts[emb.src][0]
        yield FaceMap(sub_id, nid, emb.map if h.is_identity else emb.map.compose(inverse(h)))


def check_subdivision(sub: SubdivisionOf) -> SubdivisionOf:
    """Check a subdivision once and return it.

    Validates the original complex (once per complex: the problems found are
    kept on it), validates the refined cones over the touched original cones
    (`validate_complex` with a scope: the face maps into them, their
    automorphisms and their faces), and runs `verify_subdivision` over the
    touched cones.  Raises a GeometryError naming every problem.  A
    subdivision that passed is marked, so checking it again does nothing.

    An untouched cone c needs neither check.  `_assemble` copies it as the
    one cone c.0 with the group of c, whose elements all fix c once the
    original passes (an automorphism that moves its cone is a problem of the
    original, found there).  c.0 gets one face map per proper face F
    of c: the embedding s -> c that stands for F composed with the inverse
    of an automorphism of s (`_unrefined`).  `_unrefined` raises when a face
    of c is cut, so the source of that map is the whole cone of s, one cell.
    An automorphism of s is a lattice automorphism of its cone, so the face
    map sends that cell onto F as a lattice isomorphism exactly when the
    embedding does.  So the face maps, group and faces of c.0 pass whenever
    the original's do.  The cells over c are c itself and the images of the
    cells over its faces.  A touched face passes `verify_subdivision` with
    its whole cone as a cell, which is then its one maximal cell, every
    other cell being a face of it; an untouched face is the same case one
    dimension lower.  So the cells over c are the faces of c, and checks 1-3
    of `verify_subdivision` hold over c.  The same holds along a chain of
    steps (`compose_subdivisions`, `_unimodularize`): a cone that no step
    glued is a copy of a copy, and the copy rule keeps each face map an
    embedding of the face composed with an automorphism of its source.
    """
    if sub._checked:
        return sub
    original = sub.original
    if original._problems is None:
        original._problems = validate_complex(original)
    scope = [rid for cid in sorted(sub.touched) for rid in sub.refined_over(cid)]
    problems = original._problems + validate_complex(sub.refined, scope)
    problems += verify_subdivision(sub)
    if problems:
        raise GeometryError("subdivision is not well glued: " + "; ".join(problems))
    sub._checked = True
    return sub


# ---------------------------------------------------------------------------
# structural verification of a subdivision


def verify_subdivision(sub: SubdivisionOf):
    """Check that the refined cells subdivide every touched original cone.

    Returns a list of problems, empty when there are none.  The untouched
    cones are copies, which need no certificate (see `check_subdivision`).
    Over each touched cone C of dimension d it certifies, exactly:

    1. every cell lies in C and is a face of a maximal cell (a cell of
       dimension d);
    2. a wall (a facet of a maximal cell, keyed by its rays) in the boundary
       of C is a facet of exactly one maximal cell, and every other wall is
       a facet of exactly two, which lie on opposite sides of it;
    3. the relative interior point of the first maximal cell lies in no
       other maximal cell.

    Checks 2 and 3 make the maximal cells cover C once.  The covering number
    of a point, the number of maximal cells containing it, can only change
    across the hyperplane of a wall.  A generic point q of that hyperplane
    inside C lies in the interior of some cells and in the relative interior
    of exactly one facet of each other cell containing it; each such facet is
    an internal wall whose two cells lie on opposite sides, so as many of
    these cells lie on one side of q as on the other, and the covering
    number is the same on both sides.  It is therefore constant on the
    generic points of C, and check 3 makes it 1 next to the first cell's
    interior point: the maximal cells cover C and their interiors are
    disjoint.

    The cover is then a fan: any two maximal cells A and B meet in a common
    face.  Let x lie in both.  The cells containing x cover a neighbourhood
    of x in C, so a generic path near x from the interior of A to that of B
    crosses only relative interiors of internal walls W through x.  By check
    2 each such W is a facet of exactly one other cell, on the far side, and
    since interiors are disjoint that is the cell the path enters.  The
    smallest face of a cell containing x is the smallest face of W
    containing x, the same on both sides of every crossing, so the smallest
    faces F_A(x) of A and F_B(x) of B containing x are equal.  Take x in the
    relative interior of A ∩ B: every convex subset of A whose relative
    interior holds x lies in F_A(x), so A ∩ B lies in F_A(x) = F_B(x), which
    lies in A ∩ B, and the meet is a common face.  This is the
    pseudo-manifold characterisation of subdivisions (De Loera, Rambau and
    Santos, *Triangulations*, Springer 2010, §4.5).  The same path argument
    makes the maximal cells wall connected.  Faces of cells that meet in a
    common face meet in a common face too, so by check 1 the lower
    dimensional cells need no test of their own.
    """
    out = []
    for cid in sorted(sub.touched):
        cone = sub.original.cones[cid]
        cells = [c.cone for c in sub.cells_over(cid)]
        for a in cells:
            if not cone.contains_cone(a):
                out.append(f"cell {a.rays} pokes out of cone {cid}")
        if cone.dim == 0:
            continue
        maxima = [c for c in cells if c.dim == cone.dim]
        if not maxima:
            out.append(f"no maximal cells over cone {cid}")
            continue
        faces = {f.rays for m in maxima for f in m.all_faces()}
        for a in cells:
            if a.rays not in faces:
                out.append(f"cell {a.rays} in {cid} is not a face of a maximal cell")
        walls = {}
        for idx, m in enumerate(maxima):
            for f in m.facets:
                walls.setdefault(m.face_at([f]).rays, []).append((idx, f))
        # contains_cone has checked the rank of every cell's rays, so the
        # products below need no check of their own
        for wrays, incident in walls.items():
            on_boundary = any(
                not any(sum(map(mul, g, r)) for r in wrays) for g in cone.facets
            )
            if on_boundary:
                if len(incident) != 1:
                    out.append(f"boundary wall {wrays} in {cid} shared by {len(incident)} cells")
            elif len(incident) != 2:
                out.append(f"internal wall {wrays} in {cid} shared by {len(incident)} cells")
            else:
                (i, f), (j, _) = incident
                if not any(sum(map(mul, f, r)) < 0 for r in maxima[j].rays):
                    out.append(
                        f"cells {maxima[i].rays} and {maxima[j].rays} in {cid} "
                        f"lie on one side of their wall {wrays}"
                    )
        p = maxima[0].relint_point()
        for m in maxima[1:]:
            if m.contains(p):
                out.append(
                    f"point {p} of {cid} lies in cells {maxima[0].rays} and {m.rays}"
                )
    return out


def soundness_sample(sub: SubdivisionOf, rng, per_cone: int):
    """Sampled exact membership check: every sampled point of an original cone
    lies in some maximal cell and in the relative interior of at most one.
    Raises UnsoundSample, naming the cone and the point, when one does not."""
    for cid in sub.original.ids():
        cone = sub.original.cones[cid]
        maxima = [c.cone for c in sub.max_cells_over(cid)]
        for p in sample_points(cone, per_cone, rng):
            containing = [m for m in maxima if m.contains(p)]
            if not containing:
                raise UnsoundSample(f"sampled point {p} of {cid} not covered", cid, p)
            strict = [m for m in containing if m.contains_in_relint(p)]
            if len(strict) > 1:
                raise UnsoundSample(
                    f"sampled point {p} of {cid} in two cell interiors", cid, p
                )
    return True


# ---------------------------------------------------------------------------
# stellar subdivision


def _stellar_fan(cells, ray):
    """Insert a ray into a fan (list of cones, face closed)."""
    out = set()
    for c in cells:
        if not c.contains(ray):
            out.add(c)
            continue
        for f in c.all_faces():
            if not f.contains(ray):
                out.add(cone_from_generators(list(f.rays) + [ray], c.ambient_rank))
    return sorted(out, key=lambda c: (c.dim, c.rays))


def stellar_subdivide(cx: ConeComplex, cone_id: str, ray) -> SubdivisionOf:
    """Stellar subdivision at a ray given in the named cone's coordinates.

    The ray is inserted together with its automorphism orbit into the star
    of its host, the cone s owning the minimal face that holds the ray
    (`ConeComplex.embedding_onto`): s itself and every cone that a face map
    out of s reaches (`ConeComplex.face_maps_out_of`).  Those are the
    cones whose `embeddings_into` has an entry from s, so no other cone holds
    a copy of the ray and no other cone is visited.  A simplex of the star
    that has each copy as a ray keeps its faces, so it is not cut.
    `_assemble` then glues the cut cones and their faces, and copies the rest
    of the complex.  The result is a step, not checked; see
    `check_subdivision`.
    """
    cone = cx.cones[cone_id]
    ray = la.primitive(tuple(ray))
    if not any(ray) or not cone.contains(ray):
        raise RayOutside(f"ray {ray} is not in the support of cone {cone_id}")
    host_face = cone.minimal_face_containing(cone_from_generators([ray], cone.ambient_rank))
    emb = cx.embedding_onto(cone_id, host_face)
    ray_owner = preimage_in_span(emb.map, cx.cones[emb.src], ray)
    orbit = sorted(
        {la.primitive(g.apply(ray_owner)) for g in cx.auts[emb.src]}
    )

    star = {emb.src} | {f.sup for f in cx.face_maps_out_of(emb.src)}
    fans = {}
    for cid in sorted(star):
        copies = set()
        for e in cx.embeddings_into(cid):
            if e.src != emb.src:
                continue
            for r in orbit:
                copies.add(la.primitive(e.map.apply(r)))
        faces = cx.cones[cid].all_faces()
        cells = faces
        for r in sorted(copies):
            cells = _stellar_fan(cells, r)
        # a cone that has each copy as a ray and is simplicial is not cut:
        # pulling a vertex of a simplex gives its faces back
        if set(cells) != set(faces):
            fans[cid] = cells
    return _assemble(cx, fans)


# ---------------------------------------------------------------------------
# hyperplane (arrangement) refinement


def _canon_covector(w):
    w = la.primitive(w)
    for x in w:
        if x != 0:
            return w if x > 0 else la.vscale(-1, w)
    return w


def _slices(cone: RationalCone, w) -> bool:
    if cone.rays:
        la.check_width((w,), cone.ambient_rank)
    vals = [sum(map(mul, w, r)) for r in cone.rays]
    return any(v > 0 for v in vals) and any(v < 0 for v in vals)


def _chambers(cone: RationalCone, covectors):
    cells = [cone]
    for w in covectors:
        nxt = []
        for c in cells:
            if not _slices(c, w):
                nxt.append(c)
                continue
            nxt.extend(halves(c, w))
        cells = nxt
    seen = {}
    for c in cells:
        seen[c.rays] = c
    return sorted(seen.values(), key=lambda c: c.rays)


def closed_arrangement(cx: ConeComplex, covectors_by_cone: dict) -> tuple:
    """The covector arrangement that slices the complex so its fans glue.

    The given covectors of each cone that slice it are closed under
    automorphisms, restriction to faces, and transport across shared faces
    (fixpoint).  Returns the closed sets in a canonical, hashable form: a
    (cone id, sorted covectors) pair for each cone with any, in id order.
    Equal arrangements give equal fans (`hyperplane_refine`), so the
    arrangement stands for the refinement.

    The complex keeps the closed form of each given arrangement, in the same
    canonical form (`ConeComplex._arrangements`), so the fixpoint runs once
    per arrangement: a caller that asks for the closed form before it
    refines pays for one fixpoint, not two.
    """
    given = {}
    for cid, ws in covectors_by_cone.items():
        cone = cx.cones[cid]
        for w in ws:
            w = _canon_covector(tuple(w))
            if _slices(cone, w):
                given.setdefault(cid, set()).add(w)
    key = tuple((cid, tuple(sorted(given[cid]))) for cid in sorted(given))
    closed = cx._arrangements.get(key)
    if closed is None:
        closed = cx._arrangements[key] = _closed_covectors(cx, given)
    return closed


def _closed_covectors(cx: ConeComplex, given: dict) -> tuple:
    """The fixpoint of `closed_arrangement`, from the canonical covectors
    that slice each cone."""
    covs = {cid: set(given.get(cid, ())) for cid in cx.cones}
    added = {}  # cone id -> covectors added to it in the current round

    def add(cid, w):
        covs[cid].add(w)
        added.setdefault(cid, set()).add(w)

    for _ in range(MAX_FIXPOINT_ROUNDS):
        added.clear()
        for cid in cx.ids():
            if not covs[cid]:
                continue
            for g in cx.auts[cid]:
                gt = la.transpose(g.matrix)
                for w in list(covs[cid]):
                    w2 = _canon_covector(la.mat_vec(gt, w))
                    if _slices(cx.cones[cid], w2) and w2 not in covs[cid]:
                        add(cid, w2)
        # the faces in their canonical order: which covectors the fixpoint
        # lifts depends on the order
        for f in cx.faces:
            if not covs[f.sup] and not covs[f.sub]:
                continue
            mt = la.transpose(f.map.matrix)
            sub_cone = cx.cones[f.sub]
            # restrict covectors of the big cone to the face
            for w in list(covs[f.sup]):
                w2 = _canon_covector(la.mat_vec(mt, w))
                if _slices(sub_cone, w2) and w2 not in covs[f.sub]:
                    add(f.sub, w2)
            # extend covectors of the face to the big cone
            for w in list(covs[f.sub]):
                if any(
                    _canon_covector(la.mat_vec(mt, u)) == w for u in covs[f.sup]
                ):
                    continue
                lifted = _extend_covector(f.map, sub_cone, w)
                lifted = _canon_covector(lifted)
                if lifted not in covs[f.sup]:
                    add(f.sup, lifted)
        if not added:
            break
    else:
        still = "; ".join(
            f"{cid}: {sorted(ws)}" for cid, ws in sorted(added.items())
        )
        raise CapReached(
            f"covector transport did not stabilize in {MAX_FIXPOINT_ROUNDS} rounds; "
            f"covectors still added in the last round: {still}"
        )
    return tuple((cid, tuple(sorted(covs[cid]))) for cid in cx.ids() if covs[cid])


def hyperplane_refine(cx: ConeComplex, covectors_by_cone: dict) -> SubdivisionOf:
    """Slice each cone by its closed arrangement (`closed_arrangement`).

    The faces of the chambers are handed to `_assemble` as they are: the
    automorphism and pullback rounds of `_closure_of_fans` add nothing to
    the chambers of a closed arrangement.  Take a cone C with arrangement
    A_C, an automorphism g of C and a face map f from F onto a face of C.
    A_C holds g^T w for every covector w in it, so g permutes the
    hyperplanes and sends each chamber, and each face of one, to a chamber
    or a face of one.  A_F holds the restriction f^T w of every covector w
    of A_C that slices F, and every covector of A_F is such a restriction:
    the lift that `closed_arrangement` adds, unless a covector of A_C already
    restricts to it.  The cells of C inside the face f(F) are the cells of
    the arrangement that A_C cuts out on that face, so they are the images
    under f of F's cells, and pulling one back gives a cell F already has.
    A cone that no covector slices is cut by no restriction either, and its
    cells are its faces.  (Stellar, pullback and common-refinement fans are
    not arrangements; they keep the rounds.)

    When no covector slices its cone nothing is cut, and `_assemble` returns
    the complex's unrefined subdivision.  The result is a step, not checked.
    """
    arrangement = closed_arrangement(cx, covectors_by_cone)
    fans = {cid: _chambers(cx.cones[cid], ws) for cid, ws in arrangement}
    return _glue(cx, _touched_cells(cx, fans))


def _extend_covector(m: LinearMap, sub_cone: RationalCone, w):
    """A covector on the big cone restricting to w on the embedded face."""
    basis = sub_cone.span_basis
    image_basis = tuple(m.apply(b) for b in basis)
    return la.solve_integer(image_basis, tuple(la.dot(w, b) for b in basis))


def cones_cover_exactly(target: RationalCone, cells):
    """Exact test that the cells tile the target cone.

    Slices the target by every supporting covector (facet and span equation)
    of every cell inside it, and counts for each full dimensional chamber
    the distinct cells containing it.  Returns (witness, overlap): witness
    the relative interior point of the first chamber in no cell, and overlap
    that point of the first chamber in two cells, each None when there is no
    such chamber.  The cells cover the target exactly when witness is None.

    Every facet and span equation of every cell is a hyperplane of the
    arrangement, so each full dimensional chamber lies inside a cell or
    misses that cell's relative interior.  Hence two cells of full dimension
    in the target's span have meeting relative interiors exactly when some
    chamber lies in both, and then the chamber's relative interior point,
    overlap, lies in the relative interior of both: overlap is None exactly
    when the pairwise relative interior test on those cells passes.  Cells
    that do not lie in the target take part in neither verdict.

    When the cells inside the target are the target alone, it tiles itself
    and (None, None) is answered without slicing: no covector of the target
    slices it, so its one chamber is itself, held by one cell.
    """
    cells = {c for c in cells if target.contains_cone(c)}
    if cells == {target}:
        return None, None
    return _sliced_cover(target, cells)


def _sliced_cover(target: RationalCone, cells):
    """The verdicts of `cones_cover_exactly` from the chambers of the
    arrangement of the cells' covectors, given the cells inside the target."""
    covs = set()
    for c in cells:
        covs.update(map(_canon_covector, c.facets))
        covs.update(map(_canon_covector, c.span_eqs))
    covs = sorted(w for w in covs if _slices(target, w))
    witness = overlap = None
    for chamber in _chambers(target, covs):
        if chamber.dim != target.dim:
            continue
        holding = sum(1 for c in cells if c.contains_cone(chamber))
        if holding == 0 and witness is None:
            witness = chamber.relint_point()
        if holding > 1 and overlap is None:
            overlap = chamber.relint_point()
    return witness, overlap


# ---------------------------------------------------------------------------
# common refinement and pullback


def common_refinement(s1: SubdivisionOf, s2: SubdivisionOf) -> SubdivisionOf:
    """Coarsest subdivision refining both (cells are pairwise intersections).

    The result is a step, not checked; see `check_subdivision`.
    """
    if s1.original is not s2.original and s1.original.cones != s2.original.cones:
        raise GeometryError("subdivisions do not share an original complex")
    cx = s1.original
    fans = {}
    for cid in cx.ids():
        d = cx.cones[cid].dim
        cells = set()
        for a in s1.max_cells_over(cid):
            for b in s2.max_cells_over(cid):
                cut = intersect(a.cone, b.cone)
                if cut.dim == d:
                    cells.add(cut)
        fans[cid] = sorted(cells, key=lambda c: c.rays)
    return _assemble(cx, fans)


@dataclass
class PullbackResult:
    subdivision: SubdivisionOf  # of the morphism source
    refined_map: ComplexMorphism  # refined source -> refined target


def pullback_subdivision(phi: ComplexMorphism, s: SubdivisionOf) -> PullbackResult:
    """Refine the source of a morphism by preimages of refined target cells.

    The induced morphism from the refined source to the refined target maps
    each cone into a single cone.  The source subdivision is checked.  A
    source cone over a target cone that is not cut is its own fan.
    """
    if phi.target is not s.original and phi.target.cones != s.original.cones:
        raise GeometryError("subdivision does not refine the morphism target")
    cx = phi.source
    fans = {}
    for cid in cx.ids():
        tgt, m = phi.assignments[cid]
        dom = cx.cones[cid]
        maxima = s.max_cells_over(tgt)
        if [c.cone for c in maxima] == [s.original.cones[tgt]]:
            # a morphism that sends dom outside its target cone fails below,
            # where the image of a refined cone finds no refined cell
            fans[cid] = [dom]
            continue
        cells = set()
        for c in maxima:
            piece = preimage_cone(m, c.cone, dom)
            if piece.dim == dom.dim:
                cells.add(piece)
        fans[cid] = sorted(cells, key=lambda c: c.rays)
    sub_src = check_subdivision(_assemble(cx, fans))

    assignments = {}
    for rid in sub_src.refined.ids():
        owner, pm = sub_src.projection.assignments[rid]
        rep = sub_src.refined.cones[rid]
        tgt, m = phi.assignments[owner]
        full = m.compose(pm)
        img = image_cone(full, rep)
        # cells_over is sorted by (dim, rays): the first containing cell is a
        # minimal one
        best = next((c for c in s.cells_over(tgt) if c.cone.contains_cone(img)), None)
        if best is None:
            raise GeometryError(f"image of refined cone {rid} is not in a refined cell")
        t_rep = s.refined.cones[best.src]
        if t_rep.span_basis:
            rows = la.mat_mul(s.lattice_lift(best), full.matrix)
        else:
            rows = tuple(la.zero_vec(full.source_rank) for _ in range(t_rep.ambient_rank))
        n = LinearMap(rows, full.source_rank, t_rep.ambient_rank)
        if not all(t_rep.contains(n.apply(r)) for r in rep.rays):
            raise GeometryError(f"refined morphism does not land in its cell at {rid}")
        assignments[rid] = (best.src, n)
    refined_map = ComplexMorphism(sub_src.refined, s.refined, assignments)
    return PullbackResult(sub_src, refined_map)


# ---------------------------------------------------------------------------
# making a conical subset a union of cones


def supporting_covectors(subset: ConicalSubset) -> dict:
    """The supporting covectors (facets and span equations) of the subset's
    pieces, by host cone: the arrangement that makes the subset a union of
    cones."""
    covs = {}
    for host, piece in subset.pieces:
        ws = covs.setdefault(host, set())
        ws.update(piece.facets)
        ws.update(piece.span_eqs)
    return covs


def refine_until_conical(
    cx: ConeComplex, subset: ConicalSubset, unimodularize: bool = False
) -> SubdivisionOf:
    """A checked subdivision of the complex in which the subset is a union
    of cones.

    Slices the complex by the arrangement of the subset's supporting
    covectors (`supporting_covectors`); optionally unimodularizes afterwards
    by repeated stellar subdivision.  Only the final subdivision is checked,
    not the steps that compose it, and the subset is then proved conical on
    it (`prove_conical`).
    """
    sub = hyperplane_refine(cx, supporting_covectors(subset))
    if unimodularize:
        sub = _unimodularize(sub)
    return prove_conical(check_subdivision(sub), subset)


def prove_conical(sub: SubdivisionOf, subset: ConicalSubset) -> SubdivisionOf:
    """Ask once whether the subset is a union of cones of the checked
    subdivision, and return the subdivision.

    A subset whose pieces are already proved (`proved_conical`) is not asked
    again.  Otherwise it is transported and checked; a subset that is not a
    union of cones raises a GeometryError, and the pieces of one that is are
    added to those the subdivision records.
    """
    if not sub.proved_conical(subset):
        check = is_union_of_cones(sub.refined, sub.transport(subset))
        if not check.ok:
            raise GeometryError(f"refinement failed to make the subset conical: {check.witnesses}")
        sub._conical |= {(host, p.rays) for host, p in subset.pieces}
    return sub


def _parallelepiped_interior_point(cone: RationalCone):
    """A minimal interior lattice point of the fundamental cell of a simplicial cone.

    The lattice points sum(l_i r_i), 0 <= l_i < 1, of the cell are the k
    elements of Z^d / <rays>, where k is the lattice index.  With the rays'
    coordinates as the columns of R and u*R*v = diag(d_1, ..., d_d) its Smith
    form, k = d_1 * ... * d_d and the class of y (0 <= y_i < d_i) has
    k*l = v*(y_i*k/d_i) mod k.
    Returns the point with every l_i > 0 that minimises (k*sum(l), point),
    or None when there is none.
    """
    coords = tuple(la.lattice_coords(cone.span_basis, r) for r in cone.rays)
    diag, _, v = la.smith_factors(la.transpose(coords), len(coords))
    k = prod(diag)
    best = None
    for y in product(*(range(d) for d in diag)):
        scaled = tuple(yi * (k // d) for yi, d in zip(y, diag))
        combo = tuple(x % k for x in la.mat_vec(v, scaled))
        if 0 in combo:
            continue
        pt = tuple(
            sum(c * r[i] for c, r in zip(combo, cone.rays)) // k
            for i in range(cone.ambient_rank)
        )
        key = (sum(combo), pt)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def _unimodularize(sub: SubdivisionOf) -> SubdivisionOf:
    """Refine the subdivision by stellar steps until every refined cone is
    unimodular.

    Each step takes the first refined cone of positive dimension that is not
    unimodular, in (dimension, id) order.  A simplicial one is subdivided at
    its box point (`_parallelepiped_interior_point`), which lies in its
    relative interior; any other at its first ray, which pulls the cone into
    simplices.  A cone that still is not unimodular after
    MAX_UNIMODULAR_STEPS steps raises CapReached naming its id, its
    rays and why: not simplicial, or its lattice index.

    The result is the composite of the steps `stellar_subdivide` would take
    on the whole refined complex, one after another, but a step costs its
    star.  The chain keeps each cone under the id it was born with; a cone
    born k steps ago has that id with k suffixes ".0", which keeps the
    (dimension, id) order, so a queue in that order replaces the rescan: it
    asks `is_unimodular` of each cone once, when the rescan would first
    reach it, and drops the cones found unimodular.  A step hands
    `stellar_subdivide` only the star of its ray's host (the cone itself, or
    its first ray's cone) and the faces of the star, under their current
    ids, as a `ConeComplex` of their own: that is every cone a
    whole-complex step glues, and it glues them as it would.  The cones
    outside are copies, whose face maps each step changes by the copy rule
    of `_unrefined`; the chain applies the rule when a cone enters a star or
    the chain ends (`_copied`), and builds the refined complex and its
    projection once, at the end.
    """
    start = sub.refined
    cones, auts = dict(start.cones), dict(start.auts)
    born = dict.fromkeys(cones, 0)
    root = {cid: cid for cid in cones}  # the cone of start a cone lies in
    # a cone's face maps and the step they belong to; the cones with a face
    # map from each cone
    faces = {cid: (0, start.face_maps_into(cid)) for cid in cones}
    cofaces = {cid: {f.sup for f in start.face_maps_out_of(cid)} for cid in cones}
    touched = set()
    taken = 0

    def name(cid):
        return cid + ".0" * (taken - born[cid])

    def order(cid):
        return cones[cid].dim, name(cid)

    # the cones not yet found unimodular, in (dimension, id) order, which no
    # step changes; each is asked once, as the rescan reached it
    queue = sorted(cones, key=order)

    def first_bad():
        while queue:
            cone = cones[queue[0]]
            if cone.dim > 0 and not is_unimodular(cone):
                return queue[0]
            del queue[0]
        return None

    def current(cid):
        step, maps = faces[cid]
        if step < taken:
            maps = _copied(maps, taken - step, cones, auts)
            faces[cid] = (taken, maps)
        return maps

    while (worst := first_bad()) is not None:
        cone = cones[worst]
        if taken == MAX_UNIMODULAR_STEPS:
            why = "not simplicial"
            if cone.is_simplicial():
                why = f"lattice index {cone.lattice_index()}"
            raise CapReached(
                f"unimodularization did not finish in {MAX_UNIMODULAR_STEPS} stellar "
                f"steps; refined cone {name(worst)} with rays {list(cone.rays)} is "
                f"still not unimodular ({why})"
            )
        if cone.is_simplicial():
            ray = _parallelepiped_interior_point(cone)
            assert ray is not None, "minimal non-unimodular cell has an interior box point"
            host = worst
        else:
            ray = cone.rays[0]
            host = next(
                f.sub for f in faces[worst][1]
                if image_cone(f.map, cones[f.sub]).rays == (ray,)
            )
        closed = set()
        stack = [host, *cofaces[host]]
        while stack:
            cid = stack.pop()
            if cid not in closed:
                closed.add(cid)
                stack.extend(f.sub for f in faces[cid][1])
        names = {cid: name(cid) for cid in closed}
        star = ConeComplex(
            {names[c]: cones[c] for c in closed},
            [FaceMap(names[f.sub], names[c], f.map) for c in closed for f in current(c)],
            {names[c]: auts[c] for c in closed},
        )
        step = stellar_subdivide(star, names[worst], ray)
        taken += 1
        named = {names[c]: c for c in closed}
        touched.update(root[named[n]] for n in step.touched)

        # the star's cones out, their cells in; a cone whose one cell is the
        # whole cone keeps its id
        for c in closed:
            for f in faces[c][1]:
                cofaces[f.sub].discard(c)
        ids = {}
        for c in closed:
            cells = step.refined_over(names[c])
            if len(cells) == 1 and step.refined.cones[cells[0]] == cones[c]:
                ids[cells[0]] = c
                cones[c] = step.refined.cones[cells[0]]
                continue
            i = bisect_left(queue, order(c), key=order)
            if i < len(queue) and queue[i] == c:
                del queue[i]
            over = root.pop(c)
            for table in (cones, auts, born, faces, cofaces):
                del table[c]
            for rid in cells:
                ids[rid] = rid
                cones[rid], auts[rid] = step.refined.cones[rid], step.refined.auts[rid]
                born[rid], root[rid], cofaces[rid] = taken, over, set()
                insort(queue, rid, key=order)
        for rid, c in ids.items():
            maps = tuple(
                FaceMap(ids[f.sub], c, f.map) for f in step.refined.face_maps_into(rid)
            )
            faces[c] = (taken, maps)
            for f in maps:
                cofaces[f.sub].add(c)

    if not taken:
        return sub
    names = {cid: name(cid) for cid in sorted(cones, key=name)}
    refined = ConeComplex(
        {names[c]: cones[c] for c in names},
        [FaceMap(names[f.sub], names[c], f.map) for c in names for f in current(c)],
        {names[c]: auts[c] for c in names},
    )
    projection = ComplexMorphism(
        refined,
        start,
        {names[c]: (root[c], LinearMap.identity(cones[c].ambient_rank)) for c in names},
    )
    return compose_subdivisions(sub, SubdivisionOf(start, refined, projection, touched))


def _copied(maps, steps: int, cones: dict, auts: dict):
    """The face maps into a cone that `steps` more stellar steps copy, from
    its face maps `maps` (one per proper face, as `_assemble` makes them).

    The copy rule (`_unrefined`) sends a complex's face maps into the cone
    to those of its copy, with the same sources, and depends on nothing
    else the steps change.  So the face maps repeat with some period, and
    the rule runs until they first repeat.
    """
    seen, states = {}, []
    for k in range(steps):
        key = tuple(sorted((f.sub, f.map.matrix) for f in maps))
        if key in seen:
            first = seen[key]
            return states[first + (steps - first) % (k - first)]
        seen[key] = k
        states.append(maps)
        maps = _copy_once(maps, cones, auts)
    return maps


def _copy_once(maps, cones: dict, auts: dict):
    """One step's copy rule on the face maps into a cone (see `_copied`).

    With one face map per proper face, the embedding that stands for a face
    of a cone whose group is the identity alone is the face map onto it;
    for a larger group `_unrefined` finds it among the embeddings.
    """
    if not maps:
        return maps
    cid = maps[0].sup
    if len(auts[cid]) == 1:
        out = []
        for f in maps:
            h = auts[f.sub][0]
            out.append(f if h.is_identity else FaceMap(f.sub, cid, f.map.compose(inverse(h))))
        return tuple(out)
    near = {cid, *(f.sub for f in maps)}
    cx = ConeComplex({c: cones[c] for c in near}, maps, {c: auts[c] for c in near})
    return tuple(_unrefined(cx, cid, cid, {(c, cones[c].rays): c for c in near}))
