"""Cone complexes glued along faces, with per-cone automorphism groups.

A complex stores one cone per isomorphism class; self-gluings and symmetric
faces are encoded by the automorphism groups rather than by duplicating
cones.  Checks that speak about the geometry inside one cone therefore expand
cells by the relevant automorphism orbits first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from . import linalg as la
from .exactgeom import (
    GeometryError,
    LinearMap,
    RationalCone,
    RankMismatch,
    _cone_from_extreme,
    image_cone,
    intersect,
    inverse,
    lattice_surjective,
    zero_cone,
)


class FaceMap(NamedTuple):
    sub: str
    sup: str
    map: LinearMap


class Embedded(NamedTuple):
    """An embedded copy of a complex cone inside another cone's coordinates:
    `map` sends the cone `src` onto `cone`.  `ConeComplex.embeddings_into` and
    `SubdivisionOf.cells_over` return these."""

    cone: RationalCone
    src: str
    map: LinearMap


@lru_cache(maxsize=None)
def _trivial_group(n: int) -> tuple:
    """The group of the identity alone, one tuple per rank shared by every
    cone with no other automorphism."""
    return (LinearMap.identity(n),)


class ConeComplex:
    """Cones glued along faces, with automorphisms (spec: AbstractConeComplex)."""

    def __init__(self, cones: dict, faces, auts: dict | None = None):
        self.cones = dict(cones)
        # one canonical order, (sub, sup, matrix): serialisation and the
        # covector fixpoint (subdivision.closed_arrangement) read the faces
        # in it
        faces = {f if type(f) is FaceMap else FaceMap(*f) for f in faces}
        self.faces = tuple(sorted(faces, key=lambda f: (f.sub, f.sup, f.map.matrix)))
        # indexes by target and by source cone, built on first use: a refined
        # copy that is only pulled back never asks for them
        self._faces_into = self._faces_out_of = None
        full_auts = {}
        for cid, cone in self.cones.items():
            group = list((auts or {}).get(cid, ()))
            ident = LinearMap.identity(cone.ambient_rank)
            mats = {g.matrix: g for g in group}
            mats[ident.matrix] = ident
            if len(mats) == 1:
                full_auts[cid] = _trivial_group(cone.ambient_rank)
            else:
                full_auts[cid] = tuple(sorted(mats.values(), key=lambda g: g.matrix))
        self.auts = full_auts
        self._embeddings = {}
        self._onto = {}  # per cone: the first embedding onto each image
        # the subdivision that cuts nothing, as (refined copy, projection
        # assignments, cells over each cone, those cells by rays, lattice
        # lifts of the cells), built on first use by subdivision._assemble:
        # it holds nothing that refers back to this complex, so a complex
        # that is dropped is freed at once
        self._uncut = None
        # what validate_complex finds in the whole complex, kept by
        # subdivision.check_subdivision so an original is validated once
        self._problems = None
        # the closed covector arrangement of each given arrangement, kept by
        # subdivision.closed_arrangement so its fixpoint runs once per input
        self._arrangements = {}

    def ids(self):
        return sorted(self.cones)

    def face_maps_into(self, cid: str):
        """The face maps into the cone cid, sorted by source and matrix."""
        if self._faces_into is None:
            self._index_faces()
        return self._faces_into.get(cid, ())

    def face_maps_out_of(self, cid: str):
        """The face maps out of the cone cid, sorted by target and matrix."""
        if self._faces_out_of is None:
            self._index_faces()
        return self._faces_out_of.get(cid, ())

    def _index_faces(self):
        faces_into, faces_out_of = {}, {}
        for f in self.faces:
            faces_into.setdefault(f.sup, []).append(f)
            faces_out_of.setdefault(f.sub, []).append(f)
        self._faces_into = {cid: tuple(fs) for cid, fs in faces_into.items()}
        self._faces_out_of = {cid: tuple(fs) for cid, fs in faces_out_of.items()}

    def embeddings_into(self, cid: str):
        """All embedded copies of complex cones inside the cone cid.

        Includes the identity embedding and every automorphism composite;
        deduplicated by (source id, matrix).  The identity automorphism
        takes each embedding as it is.
        """
        if cid in self._embeddings:
            return self._embeddings[cid]
        cone = self.cones[cid]
        base = [Embedded(cone, cid, LinearMap.identity(cone.ambient_rank))]
        for f in self.face_maps_into(cid):
            base.append(Embedded(image_cone(f.map, self.cones[f.sub]), f.sub, f.map))
        out = {}
        for g in self.auts[cid]:
            for emb in base:
                if g.is_identity:
                    out.setdefault((emb.src, emb.map.matrix), emb)
                    continue
                m = g.compose(emb.map)
                key = (emb.src, m.matrix)
                if key not in out:
                    out[key] = Embedded(image_cone(g, emb.cone), emb.src, m)
        result = tuple(
            sorted(out.values(), key=lambda e: (e.cone.dim, e.src, e.map.matrix))
        )
        self._embeddings[cid] = result
        return result

    def _first_onto(self, cid: str):
        if cid not in self._onto:
            onto = {}
            for emb in self.embeddings_into(cid):
                onto.setdefault(emb.cone.rays, emb)
            self._onto[cid] = onto
        return self._onto[cid]

    def embedding_onto(self, cid: str, face: RationalCone):
        """The embedding that stands for a face of the cone cid, or None.

        It is the first entry of `embeddings_into(cid)` whose image is the
        face; the ids and face maps of every subdivision follow this rule.
        """
        return self._first_onto(cid).get(face.rays)

    def cells_inside(self, cid: str):
        """Distinct cones of the complex embedded in cid (deduplicated by image)."""
        return sorted(
            self._first_onto(cid).values(), key=lambda e: (e.cone.dim, e.cone.rays)
        )

    def to_json(self) -> dict:
        return {
            "cones": {cid: self.cones[cid].to_json() for cid in self.ids()},
            "faces": [
                [f.sub, f.sup, [list(r) for r in f.map.matrix]]
                for f in self.faces
            ],
            "auts": {
                cid: [[list(r) for r in g.matrix] for g in self.auts[cid]]
                for cid in self.ids()
            },
        }

    @staticmethod
    def from_json(data: dict) -> "ConeComplex":
        cones = {cid: RationalCone.from_json(c) for cid, c in data["cones"].items()}
        faces = []
        for sub, sup, matrix in data["faces"]:
            m = LinearMap(
                tuple(tuple(int(x) for x in row) for row in matrix),
                cones[sub].ambient_rank,
                cones[sup].ambient_rank,
            )
            faces.append(FaceMap(sub, sup, m))
        auts = {}
        for cid, mats in data.get("auts", {}).items():
            n = cones[cid].ambient_rank
            auts[cid] = [
                LinearMap(tuple(tuple(int(x) for x in row) for row in m), n, n)
                for m in mats
            ]
        return ConeComplex(cones, faces, auts)


@dataclass
class ComplexMorphism:
    """A map of cone complexes: each source cone lands inside one target cone."""

    source: ConeComplex
    target: ConeComplex
    assignments: dict  # source id -> (target id, LinearMap)

    def compose_subdivision(self, other: "ComplexMorphism") -> "ComplexMorphism":
        """self after other (other.target must be self.source)."""
        out = {}
        for cid, (mid, m1) in other.assignments.items():
            tid, m2 = self.assignments[mid]
            out[cid] = (tid, m2.compose(m1))
        return ComplexMorphism(other.source, self.target, out)

    def to_json(self) -> dict:
        return {
            "assignments": {
                cid: [tgt, [list(r) for r in m.matrix]]
                for cid, (tgt, m) in sorted(self.assignments.items())
            }
        }


@dataclass
class ConicalSubset:
    """A finite union of cones sitting inside cones of a complex."""

    complex: ConeComplex
    pieces: tuple  # of (host id, RationalCone)

    def __post_init__(self):
        self.pieces = tuple(
            sorted(self.pieces, key=lambda p: (p[0], p[1].rays))
        )

    def to_json(self) -> dict:
        return {
            "pieces": [
                {"host": host, "cone": cone.to_json()} for host, cone in self.pieces
            ]
        }

    @staticmethod
    def from_json(data: dict, cx: "ConeComplex") -> "ConicalSubset":
        pieces = tuple(
            (p["host"], RationalCone.from_json(p["cone"])) for p in data["pieces"]
        )
        return ConicalSubset(cx, pieces)


def preimage_in_span(m: LinearMap, source_cone: RationalCone, y):
    """The unique preimage of y in span(source_cone) under an embedding m."""
    rows = list(m.matrix) + list(source_cone.span_eqs)
    target = tuple(y) + la.zero_vec(len(source_cone.span_eqs))
    x = la.solve_integer(tuple(rows), target)
    if x is None:
        raise GeometryError("point has no lattice preimage in the span")
    return x


# memo table of pull_back_cone, keyed by the matrix and the two canonical cones
_pullback_cache: dict = {}


def pull_back_cone(m: LinearMap, source_cone: RationalCone, cone: RationalCone):
    """Pull a cone contained in m(source_cone) back through the embedding m.

    m is injective on the span of source_cone, so the preimages of the
    cone's rays are the extreme rays of the pullback, and the covectors
    f∘m of the cone's facets f are its facet normals (`_cone_from_extreme`).
    """
    key = (m.matrix, source_cone.ambient_rank, source_cone.rays, cone.rays)
    back = _pullback_cache.get(key)
    if back is None:
        rays = [preimage_in_span(m, source_cone, r) for r in cone.rays]
        cols = la.transpose(m.matrix)
        normals = [la.mat_vec(cols, f) for f in cone.facets]
        back = _cone_from_extreme(rays, normals, source_cone.ambient_rank)
        _pullback_cache[key] = back
    return back


def complex_from_fan(cones, ambient_rank: int):
    """The complex of a fan in a fixed ambient space (trivial automorphisms).

    Takes the maximal cones, adds all faces, and glues by identity maps.
    Returns the complex plus a lookup from ray tuples to cone ids.
    """
    all_cones = {}
    for c in cones:
        if c.ambient_rank != ambient_rank:
            raise RankMismatch("fan cones live in different ambient ranks")
        for f in c.all_faces():
            all_cones[f.rays] = f
    if () not in all_cones:
        all_cones[()] = zero_cone(ambient_rank)
    ordered = sorted(all_cones.values(), key=lambda c: (c.dim, c.rays))
    ids = {c.rays: f"c{k}" for k, c in enumerate(ordered)}
    faces = []
    ident = LinearMap.identity(ambient_rank)
    for c in ordered:
        for f in c.all_faces():
            if f.rays != c.rays:
                faces.append(FaceMap(ids[f.rays], ids[c.rays], ident))
    cx = ConeComplex({ids[c.rays]: c for c in ordered}, faces)
    return cx, ids


# ---------------------------------------------------------------------------
# validation


def maps_agree_on(cone: RationalCone, m1: LinearMap, m2: LinearMap) -> bool:
    """Whether two maps out of the cone's ambient agree on the cone's span."""
    return all(m1.apply(b) == m2.apply(b) for b in cone.span_basis)


def _represented(cx: ConeComplex, sub: str, sup: str, cone, want, pre) -> bool:
    """Whether `want` agrees on the span of `cone` with e∘h∘pre for some
    entry e of `embeddings_into(sup)` from `sub` and some automorphism h of
    `sub`.  For a proper face the entries from `sub` are g∘f for the
    automorphisms g of `sup` and the face maps f from `sub` to `sup`."""
    return any(
        maps_agree_on(cone, emb.map.compose(h).compose(pre), want)
        for emb in cx.embeddings_into(sup)
        if emb.src == sub
        for h in cx.auts[sub]
    )


def validate_complex(cx: ConeComplex, scope=None):
    """Check the complex invariants, returning a list of violation strings.

    With a scope, a collection of cone ids, only those cones are checked:
    the face maps into them, their automorphisms and the representation of
    their faces.  The problems found are those of the whole check that
    concern these cones, in the same order.
    """
    if scope is None:
        ids, faces = cx.ids(), cx.faces
    else:
        ids = sorted(scope)
        faces = sorted(
            (f for cid in ids for f in cx.face_maps_into(cid)),
            key=lambda f: (f.sub, f.sup, f.map.matrix),
        )
    out = []
    ill_formed = set()
    # the rays of each face of a target cone, from the face lattice that the
    # representation check below builds on every cone in scope
    face_rays = {}
    for f in faces:
        if f.sub not in cx.cones or f.sup not in cx.cones:
            out.append(f"face map {f.sub}->{f.sup} references unknown cones")
            ill_formed.add(f)
            continue
        sub, sup = cx.cones[f.sub], cx.cones[f.sup]
        if f.map.source_rank != sub.ambient_rank or f.map.target_rank != sup.ambient_rank:
            out.append(f"face map {f.sub}->{f.sup} has wrong matrix shape")
            ill_formed.add(f)
            continue
        img = image_cone(f.map, sub)
        lattice = face_rays.get(f.sup)
        if lattice is None:
            lattice = face_rays[f.sup] = {face.rays for face in sup.all_faces()}
        if img.rays not in lattice:
            out.append(f"face map {f.sub}->{f.sup} does not land on a face")
            continue
        if img.dim != sub.dim or not lattice_surjective(f.map, sub):
            out.append(f"face map {f.sub}->{f.sup} is not a lattice isomorphism onto its image")
    if ill_formed:
        # the checks below embed and compose along every face map, so they
        # run on the complex without the maps that reference unknown cones
        # or have the wrong shape
        cx = ConeComplex(cx.cones, [f for f in cx.faces if f not in ill_formed], cx.auts)

    for cid in ids:
        cone = cx.cones[cid]
        group = cx.auts[cid]
        mats = {g.matrix for g in group}
        for g in group:
            try:
                ginv = inverse(g)
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

    for cid in ids:
        for face in cx.cones[cid].proper_faces():
            if cx.embedding_onto(cid, face) is None:
                out.append(f"face {face.rays} of cone {cid} is not represented")

    return out


def validate_morphism(phi: ComplexMorphism):
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
        if not _represented(phi.target, ta, tb, phi.source.cones[f.sub], want, ma):
            out.append(
                f"morphism is incompatible with the face map {f.sub}->{f.sup}"
            )
    return sorted(set(out))


# ---------------------------------------------------------------------------
# union-of-cones and weak semistability checks


@dataclass
class UnionCheck:
    ok: bool
    witnesses: list = field(default_factory=list)  # (host, piece, point)


def is_union_of_cones(cx: ConeComplex, subset: ConicalSubset) -> UnionCheck:
    """Whether every piece of the subset is a union of cones of the complex.

    On failure the witnesses carry, per bad piece, a relative interior point
    of the piece that lies in no complex cone contained in the piece.
    """
    witnesses = []
    for host, piece in subset.pieces:
        if piece.is_zero():
            continue
        for emb in cx.cells_inside(host):
            if piece.contains_cone(emb.cone):
                continue
            cut = intersect(emb.cone, piece)
            p = cut.relint_point()
            if emb.cone.contains_in_relint(p) and piece.contains_in_relint(p):
                # the minimal cell through p pokes out of the piece, so no
                # union of cells can produce p's neighborhood inside the piece
                witnesses.append((host, piece, p))
                break
    return UnionCheck(not witnesses, witnesses)


@dataclass
class ConeCheck:
    source: str
    target: str
    image_is_cone: bool
    lattice_onto: bool
    witness: tuple | None = None


def check_weak_semistable(phi: ComplexMorphism):
    """Per source cone: does it map onto a cone of the target, with surjective lattice map.

    The two conditions are the polyhedral criteria for equidimensionality and
    reducedness of the induced toroidal morphism.
    """
    results = []
    for cid in phi.source.ids():
        tgt, m = phi.assignments[cid]
        src_cone = phi.source.cones[cid]
        tgt_cone = phi.target.cones[tgt]
        img = image_cone(m, src_cone)
        onto_cone = img.is_face_of(tgt_cone)
        lat = lattice_surjective(m, src_cone)
        witness = None if onto_cone else img.relint_point()
        results.append(ConeCheck(cid, tgt, onto_cone, lat, witness))
    return results
