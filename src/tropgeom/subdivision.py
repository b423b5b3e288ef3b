"""The subdivision engine for cone complexes.

All refinement operations (stellar, hyperplane arrangement, common
refinement, pullback) produce per-cone fans and hand them to a single
assembler that resolves cell ownership across face gluings, collapses
automorphism orbits, and rebuilds a glued complex together with the
projection morphism.

The work is local.  The assembler glues only the touched cones: the cones
whose fan is not the cone alone, and their faces.  It copies every other
cone unchanged.  A stellar step looks for copies of its ray only in the star
of the ray's host cone, so a step costs the star and its faces plus a copy
of the rest of the complex (De Loera, Rambau and Santos, *Triangulations*,
Springer 2010: a stellar step changes only the star of its ray).

The assembler does not check what it builds.  `check_subdivision` does, once
per subdivision object, where a subdivision leaves the engine: on the result
of `refine_until_conical` (after unimodularization), on the source
subdivision of `pullback_subdivision`, and on the stellar subdivision of the
worked example.  `stellar_subdivide`, `hyperplane_refine` and
`common_refinement` are steps that return unchecked subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import linalg as la
from .exactgeom import (
    GeometryError,
    LinearMap,
    RationalCone,
    cone_from_generators,
    cone_from_inequalities,
    image_cone,
    intersect,
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


class UnsoundSample(GeometryError):
    """A sampled point of an original cone that no maximal cell covers, or
    that lies in the relative interiors of two."""

    def __init__(self, message: str, cone_id: str, point):
        super().__init__(message)
        self.cone_id = cone_id
        self.point = point


@dataclass
class SubdivisionOf:
    """A subdivision: a refined complex with a projection to the original."""

    original: ConeComplex
    refined: ConeComplex
    projection: ComplexMorphism

    def __post_init__(self):
        self._cells_cache = {}
        # set by check_subdivision once the subdivision has passed its checks
        self._checked = False
        self._owned = {}  # original cone id -> the refined ids over it
        for rid in self.refined.ids():
            self._owned.setdefault(self.projection.assignments[rid][0], []).append(rid)

    def cells_over(self, cid: str):
        """All embedded refined cells inside the original cone cid (orbit
        expanded), sorted by (dim, rays): each `Embedded` holds the cell, the
        refined id and the map that sends the refined cone onto the cell."""
        if cid in self._cells_cache:
            return list(self._cells_cache[cid])
        out = {}
        for emb in self.original.embeddings_into(cid):
            for rid in self._owned.get(emb.src, ()):
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

    def transport(self, subset: ConicalSubset) -> ConicalSubset:
        """Re-express a conical subset of the original complex in the refined one.

        Each piece is cut along the refined cells and every part is hosted at
        the smallest refined cell containing it.
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
                    if q.is_zero() and not p.is_zero():
                        continue
                    owner = next(cc for cc in cells if cc.cone.contains_cone(q))
                    parts.append((owner, q))
            for owner, q in parts:
                back = pull_back_cone(owner.map, self.refined.cones[owner.src], q)
                key = (owner.src, back.rays)
                if key not in seen:
                    seen.add(key)
                    pieces.append((owner.src, back))
        return ConicalSubset(self.refined, tuple(pieces))

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
    """s2 must subdivide s1.refined; the composite subdivides s1.original."""
    proj = s1.projection.compose_subdivision(s2.projection)
    return SubdivisionOf(s1.original, s2.refined, proj)


# ---------------------------------------------------------------------------
# the assembler

# rounds a fixpoint loop (cell closure, covector transport) may take before it
# is reported as not settling
MAX_FIXPOINT_ROUNDS = 64
# stellar steps unimodularization may take before it is reported as not
# finishing
MAX_UNIMODULAR_STEPS = 500


def _closure_of_fans(cx: ConeComplex, fans: dict):
    """The cells of the touched cones, closed under faces, automorphisms and
    pullback along face maps.

    A cone is cut when its fan is not the cone alone, and touched when it is
    cut or a face of a cut cone; the touched cones are found by walking the
    face maps downwards from the cut ones.  The given cells are face-closed
    (a touched cone without a fan starts from its own faces), then closed
    under automorphisms and pullback along the face maps out of touched cones
    until stable.  Returns the cells keyed by the touched cones.  An untouched
    cone's cells are its own faces: pullback from an untouched cone adds only
    faces of a cone, which a subdivision already holds (see `_unrefined`).
    """
    touched = set()
    stack = [cid for cid, fan in fans.items() if list(fan) != [cx.cones[cid]]]
    while stack:
        cid = stack.pop()
        if cid not in touched:
            touched.add(cid)
            stack.extend(f.sub for f in cx.face_maps_into(cid))
    touched = sorted(touched)
    face_maps = [f for cid in touched for f in cx.face_maps_into(cid)]
    cells = {}
    for cid in touched:
        got = set()
        for c in fans.get(cid, (cx.cones[cid],)):
            got.update(c.all_faces())
        cells[cid] = got
    for _ in range(MAX_FIXPOINT_ROUNDS):
        changed = set()
        for cid in touched:
            for g in cx.auts[cid]:
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
    raise GeometryError(
        f"cell closure did not stabilize in {MAX_FIXPOINT_ROUNDS} rounds; "
        f"cells of cones {sorted(changed)} still changed in the last round"
    )


@lru_cache(maxsize=4096)
def _inverse(h: LinearMap) -> LinearMap:
    return LinearMap(la.invert_unimodular(h.matrix), h.source_rank, h.target_rank)


def _assemble(cx: ConeComplex, fans: dict) -> SubdivisionOf:
    """Build the refined complex from per-cone fans of cells (unchecked).

    Only the touched cones, those a fan cuts and their faces, are glued (see
    `_closure_of_fans`).  A cell whose relative interior meets the relative
    interior of its host cone is owned by that host; every other cell is
    pulled back to the face that owns it.  One cone is stored per
    automorphism orbit of owned cells, and the cells owned by cone cid get
    the ids cid.0, cid.1, ... in (dimension, rays) order.  Every untouched
    cone cid is copied as the single cone cid.0 (see `_unrefined`), so a
    step that cuts no cone copies the complex.  The ids, face maps,
    automorphisms and projection are those that gluing every cone gives.
    """
    cells = _closure_of_fans(cx, fans)

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
            cell_info[(cid, c.rays)] = (owner, rep, emb_map.compose(_inverse(h)))
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
        new_auts[nid] = [
            g for g in cx.auts[owner] if image_cone(g, rep) == rep
        ]
        assignments[nid] = (
            owner,
            LinearMap.identity(cx.cones[owner].ambient_rank),
        )
        if owner not in owned:
            new_faces.update(_unrefined(cx, owner, ids))
            continue
        for face in rep.proper_faces():
            sub_owner, sub_rep, sub_map = cell_info[(owner, face.rays)]
            sub_id = ids[(sub_owner, sub_rep.rays)]
            new_faces.add(FaceMap(sub_id, nid, sub_map))

    refined = ConeComplex(new_cones, new_faces, new_auts)
    return SubdivisionOf(cx, refined, ComplexMorphism(refined, cx, assignments))


def _unrefined(cx: ConeComplex, cid: str, ids: dict):
    """The face maps into cid.0, the copy of an untouched cone cid.

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
        yield FaceMap(sub_id, f"{cid}.0", emb.map.compose(_inverse(cx.auts[emb.src][0])))


def check_subdivision(sub: SubdivisionOf) -> SubdivisionOf:
    """Check a subdivision once and return it.

    Runs the shallow complex invariants of the refined complex and
    `verify_subdivision`, and raises a GeometryError naming every problem.
    A subdivision that passed is marked, so checking it again does nothing.
    """
    if sub._checked:
        return sub
    problems = validate_complex(sub.refined)
    problems += verify_subdivision(sub)
    if problems:
        raise GeometryError("subdivision is not well glued: " + "; ".join(problems))
    sub._checked = True
    return sub


# ---------------------------------------------------------------------------
# structural verification of a subdivision


def verify_subdivision(sub: SubdivisionOf):
    """Check that the refined cells subdivide every original cone.

    Returns a list of problems, empty when there are none.  Over each
    original cone C of dimension d it certifies, exactly:

    1. every cell lies in C and is a face of a maximal cell (a cell of
       dimension d);
    2. a wall (a facet of a maximal cell, keyed by its rays) in the boundary
       of C is a facet of exactly one maximal cell, and every other wall is
       a facet of exactly two, which lie on opposite sides of it; the
       maximal cells are connected through their walls;
    3. the relative interior point of the first maximal cell lies in no
       other maximal cell;
    4. any two maximal cells meet in a common face.

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
    disjoint.  This is the pseudo-manifold characterisation of subdivisions
    (De Loera, Rambau and Santos, *Triangulations*, Springer 2010).  Check 4
    makes the cover a fan.  Faces of cells that meet in a common face meet
    in a common face too, so by check 1 the lower dimensional cells need no
    pairwise test.

    Check 4 runs on pairs of maximal cells only, and a pair that a facet of
    either cell separates is settled without double description (see
    `_meet_in_a_face`).
    """
    out = []
    for cid in sub.original.ids():
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
        adj = {i: set() for i in range(len(maxima))}
        for wrays, incident in walls.items():
            on_boundary = any(
                all(la.dot(g, r) == 0 for r in wrays) for g in cone.facets
            )
            if on_boundary:
                if len(incident) != 1:
                    out.append(f"boundary wall {wrays} in {cid} shared by {len(incident)} cells")
            elif len(incident) != 2:
                out.append(f"internal wall {wrays} in {cid} shared by {len(incident)} cells")
            else:
                (i, f), (j, _) = incident
                if not any(la.dot(f, r) < 0 for r in maxima[j].rays):
                    out.append(
                        f"cells {maxima[i].rays} and {maxima[j].rays} in {cid} "
                        f"lie on one side of their wall {wrays}"
                    )
                adj[i].add(j)
                adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(maxima):
            out.append(f"maximal cells over {cid} are not wall connected")
        p = maxima[0].relint_point()
        for m in maxima[1:]:
            if m.contains(p):
                out.append(
                    f"point {p} of {cid} lies in cells {maxima[0].rays} and {m.rays}"
                )
        for i, a in enumerate(maxima):
            for b in maxima[i + 1 :]:
                if not _meet_in_a_face(a, b):
                    out.append(
                        f"cells {a.rays} and {b.rays} in {cid} do not meet in a common face"
                    )
    return out


def _meet_in_a_face(a: RationalCone, b: RationalCone) -> bool:
    """Whether the cones a and b meet in a face of both.

    A facet covector f of one cone that is <= 0 on every ray of the other
    confines a and b to meet inside their faces on f = 0.  Those faces are
    accepted when they are equal or one is the zero cone, and are tested the
    same way otherwise (a face of a face is a face).  Only a pair that no
    facet of either separates is intersected.
    """
    while a.rays != b.rays and not a.is_zero() and not b.is_zero():
        f = _facet_beneath(a, b) or _facet_beneath(b, a)
        if f is None:
            cut = intersect(a, b)
            return cut.is_face_of(a) and cut.is_face_of(b)
        a, b = a.face_at([f]), b.face_at([f])
    return True


def _facet_beneath(a: RationalCone, b: RationalCone):
    """A facet covector of a that is <= 0 on every ray of b, or None."""
    return next(
        (f for f in a.facets if all(la.dot(f, r) <= 0 for r in b.rays)), None
    )


def soundness_sample(sub: SubdivisionOf, rng, per_cone: int = 12):
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
            strict = [m for m in maxima if m.contains_in_relint(p)]
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
    a copy of the ray and no other cone is visited.  `_assemble` then glues
    the star and the faces of its cones, and copies the rest of the complex.
    The result is a step, not checked; see `check_subdivision`.
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
        cells = cx.cones[cid].all_faces()
        for r in sorted(copies):
            cells = _stellar_fan(cells, r)
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
    vals = [la.dot(w, r) for r in cone.rays]
    return any(v > 0 for v in vals) and any(v < 0 for v in vals)


def _chambers(cone: RationalCone, covectors):
    cells = [cone]
    for w in covectors:
        nxt = []
        for c in cells:
            if not _slices(c, w):
                nxt.append(c)
                continue
            for side in (w, la.vscale(-1, w)):
                piece = cone_from_inequalities(
                    list(c.facets) + [side], list(c.span_eqs), c.ambient_rank
                )
                nxt.append(piece)
        cells = nxt
    seen = {}
    for c in cells:
        seen[c.rays] = c
    return sorted(seen.values(), key=lambda c: c.rays)


def hyperplane_refine(cx: ConeComplex, covectors_by_cone: dict) -> SubdivisionOf:
    """Slice each cone by an arrangement of covectors.

    Covector sets are first closed under automorphisms, restriction to faces,
    and transport across shared faces (fixpoint), so the sliced fans glue.
    When no covector slices its cone nothing is cut: the unrefined
    subdivision is built once per complex and returned on every such call,
    so `check_subdivision` checks it once per complex.  The result is a
    step, not checked.
    """
    covs = {cid: set() for cid in cx.cones}
    for cid, ws in covectors_by_cone.items():
        for w in ws:
            w = _canon_covector(tuple(w))
            if _slices(cx.cones[cid], w):
                covs[cid].add(w)
    if not any(covs.values()):
        if cx._unrefined is None:
            cx._unrefined = _assemble(cx, {})
        return cx._unrefined

    added = {}  # cone id -> covectors added to it in the current round

    def add(cid, w):
        covs[cid].add(w)
        added.setdefault(cid, set()).add(w)

    for _ in range(MAX_FIXPOINT_ROUNDS):
        added.clear()
        for cid in cx.ids():
            for g in cx.auts[cid]:
                gt = la.transpose(g.matrix)
                for w in list(covs[cid]):
                    w2 = _canon_covector(la.mat_vec(gt, w))
                    if _slices(cx.cones[cid], w2) and w2 not in covs[cid]:
                        add(cid, w2)
        # the faces in their canonical order: which covectors the fixpoint
        # lifts depends on the order
        for f in cx.faces:
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
        raise GeometryError(
            f"covector transport did not stabilize in {MAX_FIXPOINT_ROUNDS} rounds; "
            f"covectors still added in the last round: {still}"
        )

    fans = {
        cid: _chambers(cx.cones[cid], sorted(covs[cid]))
        for cid in cx.ids()
        if covs[cid]
    }
    return _assemble(cx, fans)


def _extend_covector(m: LinearMap, sub_cone: RationalCone, w):
    """A covector on the big cone restricting to w on the embedded face."""
    basis = sub_cone.span_basis
    image_basis = tuple(m.apply(b) for b in basis)
    return la.solve_integer(image_basis, tuple(la.dot(w, b) for b in basis))


def cones_cover_exactly(target: RationalCone, cells):
    """Exact test that the cells cover the target cone.

    Slices the target by every supporting covector of every cell; each full
    dimensional chamber must lie inside some cell.  Returns (ok, witness).
    """
    cells = [c for c in cells if target.contains_cone(c)]
    covs = set()
    for c in cells:
        covs.update(map(_canon_covector, c.facets))
        covs.update(map(_canon_covector, c.span_eqs))
    covs = sorted(w for w in covs if _slices(target, w))
    for chamber in _chambers(target, covs):
        if chamber.dim != target.dim:
            continue
        if not any(c.contains_cone(chamber) for c in cells):
            return False, chamber.relint_point()
    return True, None


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
        basis = t_rep.span_basis
        if basis:
            proj = la.projection_to_lattice(tuple(best.map.apply(b) for b in basis))
            rows = la.mat_mul(la.mat_mul(la.transpose(basis), proj), full.matrix)
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


def refine_until_conical(
    cx: ConeComplex, subset: ConicalSubset, unimodularize: bool = False
) -> SubdivisionOf:
    """A checked subdivision of the complex in which the subset is a union
    of cones.

    Uses the arrangement of all supporting covectors (facets and span
    equations) of the pieces; optionally unimodularizes afterwards by
    repeated stellar subdivision.  Only the final subdivision is checked,
    not the steps that compose it, and the subset is asked once, on the
    checked result, whether it is a union of cones.
    """
    covs = {}
    for host, piece in subset.pieces:
        ws = covs.setdefault(host, set())
        ws.update(piece.facets)
        ws.update(piece.span_eqs)
    sub = hyperplane_refine(cx, covs)
    if unimodularize:
        sub = _unimodularize(sub)
    check_subdivision(sub)
    check = is_union_of_cones(sub.refined, sub.transport(subset))
    if not check.ok:
        raise GeometryError(f"refinement failed to make the subset conical: {check.witnesses}")
    return sub


def _parallelepiped_interior_point(cone: RationalCone):
    """A minimal interior lattice point of the fundamental cell of a simplicial cone.

    The lattice points sum(l_i r_i), 0 <= l_i < 1, of the cell are the k
    elements of Z^d / <rays>, where k is the lattice index.  With the rays'
    coordinates as the columns of R and u*R*v = diag(d_1, ..., d_d) its Smith
    form, the class of y (0 <= y_i < d_i) has k*l = v*(y_i*k/d_i) mod k.
    Returns the point with every l_i > 0 that minimises (k*sum(l), point),
    or None when there is none.
    """
    k = cone.lattice_index()
    coords = tuple(la.lattice_coords(cone.span_basis, r) for r in cone.rays)
    diag, _, v = la.smith_factors(la.transpose(coords), len(coords))
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
    for taken in range(MAX_UNIMODULAR_STEPS + 1):
        bad = None
        for rid in sorted(
            sub.refined.ids(), key=lambda r: (sub.refined.cones[r].dim, r)
        ):
            cone = sub.refined.cones[rid]
            if cone.dim > 0 and not is_unimodular(cone):
                bad = rid
                break
        if bad is None:
            return sub
        cone = sub.refined.cones[bad]
        if taken == MAX_UNIMODULAR_STEPS:
            why = "not simplicial"
            if cone.is_simplicial():
                why = f"lattice index {cone.lattice_index()}"
            raise GeometryError(
                f"unimodularization did not finish in {MAX_UNIMODULAR_STEPS} stellar "
                f"steps; refined cone {bad} with rays {list(cone.rays)} is still "
                f"not unimodular ({why})"
            )
        if not cone.is_simplicial():
            ray = cone.rays[0]
        else:
            ray = _parallelepiped_interior_point(cone)
            assert ray is not None, "minimal non-unimodular cell has an interior box point"
        step = stellar_subdivide(sub.refined, bad, ray)
        sub = compose_subdivisions(sub, step)
