"""End to end verification runs: subdivide the curve moduli complex along
forgetful images, pull the map complexes back, and check the polyhedral
hypotheses (cone onto cone, lattice surjectivity, and the degree one
comparison of the product complex with the fiber product).

The checks certify the combinatorial statements only; cycle level identities
on the algebraic moduli spaces are outside what a desk computation can see,
and every report says so.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import product

from . import linalg as la
from .exactgeom import (
    GeometryError,
    LinearMap,
    image_cone,
    preimage_cone,
    relints_intersect,
)
from .complexes import (
    ConicalSubset,
    check_weak_semistable,
    is_union_of_cones,
    validate_morphism,
)
from .curves import (
    CurveModuliComplex,
    DualGraph,
    build_complex_from_graphs,
    build_moduli_complex,
    enumerate_stable_graphs,
    stabilize,
)
from .subdivision import (
    PullbackResult,
    SubdivisionOf,
    UnsoundSample,
    check_subdivision,
    cones_cover_exactly,
    pullback_subdivision,
    refine_until_conical,
    soundness_sample,
    stellar_subdivide,
)
from .tropmaps import (
    ContactData,
    MapModuliComplex,
    RubberMapType,
    build_map_complex,
    enumerate_rubber_types,
    fiber_product_cone,
    forgetful_image,
    moduli_cone,
    superimpose,
)

BOUNDARY_NOTE = (
    "checks cover the polyhedral hypotheses only: image families become "
    "unions of cones, forgetful maps send cones onto cones with surjective "
    "lattice maps, and the two factor complex matches the fiber product as a "
    "subdivision; cycle level identities are out of scope"
)


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    witness: tuple | None = None

    def to_json(self):
        out = {"name": self.name, "scope": self.scope, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass
class Report:
    inputs: dict
    subdivision: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=lambda: [BOUNDARY_NOTE])
    elapsed: float = 0.0
    # the SubdivisionOf behind the run, for structural re-verification;
    # never serialized
    subdivision_data: object = field(default=None, repr=False, compare=False)

    def add(self, name, scope, passed, witness=None):
        self.checks.append(CheckResult(name, scope, bool(passed), witness))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "inputs": self.inputs,
            "subdivision": self.subdivision,
            "checks": [c.to_json() for c in self.checks],
            "notes": list(self.notes),
            "all_passed": self.all_passed,
        }
        if include_timing:
            out["elapsed_seconds"] = round(self.elapsed, 3)
        return out

    def to_text(self) -> str:
        lines = []
        lines.append(f"inputs: {json.dumps(self.inputs, sort_keys=True)}")
        if self.subdivision:
            lines.append(f"subdivision: {json.dumps(self.subdivision, sort_keys=True)}")
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = f"  witness={list(c.witness)}" if c.witness is not None else ""
            lines.append(f"[{mark}] {c.name} @ {c.scope}{extra}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"result: {'all checks passed' if self.all_passed else 'FAILURES'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# building blocks


def image_family(mx: MapModuliComplex) -> ConicalSubset:
    """Union of the forgetful images of all cones of a map complex."""
    pieces = {}
    for tid in mx.complex.ids():
        t = mx.types[tid]
        stable, img = forgetful_image(t)
        if img.is_zero():
            continue
        cid = mx.target.id_of(stable)
        pieces[(cid, img.rays)] = (cid, img)
    return ConicalSubset(mx.target.complex, tuple(pieces.values()))


def _merged_pieces(images) -> dict:
    """The pieces of all the families, each once, by (host, rays)."""
    merged = {}
    for fam in images:
        for host, cone in fam.pieces:
            merged[(host, cone.rays)] = (host, cone)
    return merged


def build_gamma_subdivision(
    base: CurveModuliComplex, images, unimodularize: bool = False
) -> SubdivisionOf:
    """Subdivide the curve moduli complex so every image family is conical.

    The union of all families drives the refinement. The union check and
    transport treat each piece on its own, so a conical union makes every
    family conical, which is what the simultaneous statement needs.
    """
    union = ConicalSubset(base.complex, tuple(_merged_pieces(images).values()))
    return refine_until_conical(base.complex, union, unimodularize=unimodularize)


def _gamma_key(images, unimodularize: bool):
    """What determines Γ over a given base: the merged pieces of the
    families, sorted, and the unimodularize flag.  The order of the families
    does not change Γ."""
    return tuple(sorted(_merged_pieces(images))), unimodularize


def pullback_map_complexes(complexes, sub: SubdivisionOf):
    """Pull the base refinement back to each map complex."""
    return {key: pullback_subdivision(mx.forgetful, sub) for key, mx in complexes.items()}


def two_factor_types(contact: ContactData, factor_types):
    """Product types for a contact datum of two or more factors: every tuple
    of single factor types on one graph, one per factor, superimposed.

    factor_types lists each factor's single factor types.  The tuples come in
    the order of nested loops over the factors, the first outermost.
    """
    if contact.num_factors < 2:
        raise ValueError("contact data with at least two factors required")
    first, *rest = factor_types
    on_graph = [{} for _ in rest]
    for by_graph, ts in zip(on_graph, rest):
        for t in ts:
            by_graph.setdefault(t.graph, []).append(t)
    products = []
    for t in first:
        for others in product(*(by_graph.get(t.graph, ()) for by_graph in on_graph)):
            products.extend(superimpose(t, *others))
    return products


def _contact_data(g: int, n: int, vectors) -> ContactData:
    vectors = tuple(tuple(a) for a in vectors)
    if not vectors:
        raise ValueError("at least one contact vector is required")
    for a in vectors:
        if len(a) != n:
            raise ValueError(f"contact vector {list(a)} must have length n = {n}")
    return ContactData(g, vectors)


def _kept(table: dict, key, make):
    """table[key], made by make() and kept there when it is missing."""
    if key not in table:
        table[key] = make()
    return table[key]


def _labelled_types(contact: ContactData, max_edges=None, base=None):
    """The map types of each factor by label (X, Y, then X3, X4, ...), and
    for two or more factors the superimposed Z; with the superimpose chambers
    behind Z, or None for one factor.  With a base, each factor's types are
    enumerated once per base."""
    labels = ["XY"[i] if i < 2 else f"X{i + 1}" for i in range(contact.num_factors)]
    table = {} if base is None else base._sweep
    types = {}
    for i, label in enumerate(labels):
        types[label] = _kept(
            table, ("types", contact.genus, contact.slopes[i], max_edges),
            lambda: enumerate_rubber_types(contact, i, max_edges=max_edges),
        )
    products = None
    if contact.num_factors > 1:
        products = two_factor_types(contact, list(types.values()))
        types["Z"] = [p.map_type for p in products]
    return types, products


def contact_types(g: int, n: int, vectors, max_edges: int | None = None):
    """Check the contact vectors and enumerate their map types by factor label.

    Returns (contact, types, products): types maps each factor's label (X, Y,
    then X3, X4, ...), and for two or more vectors the superimposed Z, to
    lists of map types; products are the superimpose chambers behind Z, or
    None for one vector.
    """
    contact = _contact_data(g, n, vectors)
    return (contact, *_labelled_types(contact, max_edges))


@dataclass
class ContactFamilies:
    """The map types of some contact vectors over one base, with each factor
    label's image family and the cone count of its map complex."""

    contact: ContactData
    base: CurveModuliComplex
    types: dict  # factor label -> map types
    products: list | None  # the superimpose chambers behind Z
    families: dict = field(default_factory=dict)  # factor label -> image family
    cones: dict = field(default_factory=dict)  # factor label -> map complex cones
    _built: dict = field(default_factory=dict, repr=False)  # Z's map complex

    def map_complex(self, label: str) -> MapModuliComplex:
        """The label's map complex.  A factor's (X, Y, X3, ...) is built once
        per base and kept in the base's table beside its types.  The
        superimposed Z's serves only the runs of these vectors, so it is
        built at most once per call and kept here."""
        return _kept(
            self._built if label == "Z" else self.base._sweep,
            ("complex", tuple(self.types[label])),
            lambda: build_map_complex(self.types[label], self.base),
        )


def contact_families(
    g: int, n: int, vectors, max_edges: int | None = None,
    base: CurveModuliComplex | None = None,
) -> ContactFamilies:
    """Check the contact vectors; enumerate their types and image families
    over base (built here when None).

    The base keeps each factor's types and map complex, and each tuple of
    types' family and cone count, so the runs of a sweep over one base make
    them once.  The superimposed Z's map complex is kept for this call only.
    """
    contact = _contact_data(g, n, vectors)
    base = base or build_moduli_complex(g, n, max_edges)
    out = ContactFamilies(contact, base, *_labelled_types(contact, max_edges, base))
    for label, ts in out.types.items():
        out.families[label], out.cones[label] = _kept(
            base._sweep, ("family", tuple(ts)),
            lambda: (image_family(mx := out.map_complex(label)), len(mx.types)),
        )
    return out


# ---------------------------------------------------------------------------
# the hypothesis checks


def semistability_verdict(pb: PullbackResult) -> tuple:
    """The checks of one refined map complex without its factor label:
    (name, scope, passed, witness) rows, the scope None where it is the
    label."""
    rows = [("refined morphism valid", None, not validate_morphism(pb.refined_map), None)]
    for r in check_weak_semistable(pb.refined_map):
        rows.append(("cone onto cone", r.source, r.image_is_cone, r.witness))
        rows.append(("lattice surjective", r.source, r.lattice_onto, None))
    return tuple(rows)


def _semistability_into(report: Report, label: str, verdict: tuple):
    for name, scope, passed, witness in verdict:
        report.add(f"{label} {name}", label if scope is None else scope, passed, witness)


def soundness_verdict(sub: SubdivisionOf, seed: int):
    """The sampled soundness check as (passed, witness).  A point it finds
    uncovered, or in two cell interiors, fails the check and is its witness;
    another GeometryError fails it without one, and any other error
    propagates."""
    try:
        soundness_sample(sub, random.Random(seed), per_cone=6)
    except UnsoundSample as exc:
        return False, exc.point
    except GeometryError:
        return False, None
    return True, None


def _soundness_into(report: Report, verdict):
    report.add("subdivision soundness sample", "base", *verdict)


def _union_verdict(sub: SubdivisionOf, family: ConicalSubset):
    """Whether the family is a union of refined cones, with the point of the
    first witness when it is not."""
    chk = is_union_of_cones(sub.refined, sub.transport(family))
    return chk.ok, chk.witnesses[0][2] if chk.witnesses else None


def _nu_check_pairs(report: Report, products, sub: SubdivisionOf, base: CurveModuliComplex):
    """Compare the product chambers with the fiber product, cell by cell.

    For each tuple of single factor types over a shared stable graph and each
    refined cell of the base cone, the chamber images must cover the fiber
    piece exactly, with pairwise disjoint relative interiors.
    """
    by_factors = {}
    for p in products:
        graph = p.factors[0].graph
        key = (graph.genera, graph.edges, graph.legs) + tuple(t.slopes for t in p.factors)
        by_factors.setdefault(key, []).append(p)

    for key in sorted(by_factors):
        group = by_factors[key]
        factors = group[0].factors
        stable, first_map, _ = stabilize(factors[0].graph)
        base_id = base.id_of(stable)
        fiber = fiber_product_cone(*factors)
        scope = f"{base_id}:" + "x".join(str(row) for t in factors for row in t.slopes)
        # stabilized lengths read off the first factor (the fiber condition
        # makes the others agree)
        pad = la.zero_vec(fiber.ambient_rank - factors[0].graph.num_edges)
        lift = LinearMap(
            tuple(tuple(row) + pad for row in first_map.matrix),
            fiber.ambient_rank,
            stable.num_edges,
        )
        for cell in sub.max_cells_over(base_id):
            fiber_cell = preimage_cone(lift, cell.cone, fiber)
            if fiber_cell.dim < fiber.dim:
                continue
            chambers = []
            for p in group:
                _, ms_p, _ = stabilize(p.map_type.graph)
                piece = preimage_cone(
                    ms_p, cell.cone, p.cone
                )
                img = image_cone(p.embed, piece)
                if img.dim == fiber_cell.dim:
                    chambers.append(img)
            for img in chambers:
                if not fiber_cell.contains_cone(img):
                    report.add("product chambers inside fiber product", scope, False, img.relint_point())
                    break
            ok, witness = cones_cover_exactly(fiber_cell, chambers)
            report.add("product chambers cover fiber product", scope, ok, witness)
            disjoint = True
            for i in range(len(chambers)):
                for j in range(i + 1, len(chambers)):
                    if chambers[i] != chambers[j] and relints_intersect(chambers[i], chambers[j]):
                        disjoint = False
            report.add("product chamber interiors disjoint", scope, disjoint)


def verify_theorem_hypotheses(
    verdicts: dict,
    soundness: tuple,
    sub: SubdivisionOf,
    contact: ContactData,
    products,
    base: CurveModuliComplex,
) -> Report:
    """The report of the hypothesis suite on Γ.

    verdicts maps factor labels (X, Y, ..., Z) to their semistability
    verdicts, soundness is the sampled check's (passed, witness); products
    are the superimpose chambers backing the Z factor (None for one factor),
    compared here with the fiber product over the base.
    """
    report = Report(
        inputs={
            "genus": contact.genus,
            "markings": contact.num_markings,
            "contacts": [list(a) for a in contact.slopes],
        },
        subdivision=sub.summary(),
    )
    for label in sorted(verdicts):
        _semistability_into(report, label, verdicts[label])
    if products is not None:
        _nu_check_pairs(report, products, sub, base)
    _soundness_into(report, soundness)
    report.subdivision_data = sub
    return report


# ---------------------------------------------------------------------------
# top level runs


def run_contacts(
    g: int, n: int, vectors, unimodularize: bool = False, seed: int = 0,
    base: CurveModuliComplex | None = None, max_edges: int | None = None,
) -> Report:
    """Subdivide along the image families of the contact vectors (and, for
    two or more, their superimposition) and verify the hypotheses on every
    factor.

    Γ is built on every run.  The base keeps the verdicts of its runs, keyed
    by what they depend on: the Γ key and a factor's types, or the Γ key and
    the seed.  A verdict it lacks is made here, from map complexes pulled
    back along Γ, and the report is assembled from the verdicts.
    """
    t0 = time.perf_counter()
    cf = contact_families(g, n, vectors, max_edges, base)
    table = cf.base._sweep
    sub = build_gamma_subdivision(cf.base, list(cf.families.values()), unimodularize)
    gamma = _gamma_key(cf.families.values(), unimodularize)
    keys = {label: ("semistable", gamma, tuple(ts)) for label, ts in cf.types.items()}
    missing = {label: cf.map_complex(label) for label, key in keys.items() if key not in table}
    for label, pb in pullback_map_complexes(missing, sub).items():
        table[keys[label]] = semistability_verdict(pb)
    report = verify_theorem_hypotheses(
        {label: table[key] for label, key in keys.items()},
        _kept(table, ("soundness", gamma, seed), lambda: soundness_verdict(sub, seed)),
        sub, cf.contact, cf.products, cf.base,
    )
    for label in sorted(cf.families):
        report.add("image family union of cones", label, *_kept(
            table, ("union", gamma, tuple(cf.types[label])),
            lambda: _union_verdict(sub, cf.families[label]),
        ))
    if cf.products is None:
        report.inputs["types"] = len(cf.types["X"])
    else:
        report.inputs["types"] = dict(sorted(cf.cones.items()))
    if max_edges is not None:
        report.inputs["max_edges"] = max_edges
    report.elapsed = time.perf_counter() - t0
    return report


def single_factor_run(g: int, n: int, a, *args, **kwargs) -> Report:
    """run_contacts for one contact vector."""
    return run_contacts(g, n, (a,), *args, **kwargs)


def product_run(g: int, n: int, a1, a2, *args, **kwargs) -> Report:
    """run_contacts for two contact vectors: X, Y and the superimposed Z."""
    return run_contacts(g, n, (a1, a2), *args, **kwargs)


@dataclass
class SupportResult:
    subset: ConicalSubset
    subdivision: SubdivisionOf
    strata: list  # per refined support cone: host, dims, codim
    report: Report


def dr_support(g: int, n: int, a, unimodularize: bool = False,
               base: CurveModuliComplex | None = None,
               max_edges: int | None = None) -> SupportResult:
    """The support of the ramification locus: union of all forgetful images,
    with a base subdivision making it a union of cones and a codimension
    table for the transverse intersection diagnostics."""
    t0 = time.perf_counter()
    cf = contact_families(g, n, (a,), max_edges, base)
    fam = cf.families["X"]
    sub = build_gamma_subdivision(cf.base, [fam], unimodularize)
    transported = sub.transport(fam)
    strata = []
    for host, piece in transported.pieces:
        host_dim = sub.refined.cones[host].dim
        strata.append(
            {
                "host": host,
                "support_dim": piece.dim,
                "host_dim": host_dim,
                "codim": host_dim - piece.dim,
            }
        )
    report = Report(
        inputs={"genus": g, "markings": n, "contacts": [list(a)], "types": len(cf.types["X"])},
        subdivision=sub.summary(),
    )
    chk = is_union_of_cones(sub.refined, transported)
    witness = chk.witnesses[0][2] if chk.witnesses else None
    report.add("support is a union of cones", "base", chk.ok, witness)
    report.elapsed = time.perf_counter() - t0
    return SupportResult(fam, sub, strata, report)


# ---------------------------------------------------------------------------
# the worked example: the degree three cover of the rubber line in genus two


def figure1_demo(seed: int = 0) -> Report:
    """The degree 3, genus 2, totally ramified cover over the three edge graph.

    Builds the unique balanced type on the two vertex graph with three
    parallel edges and one marking on each side, and follows it through the
    whole machinery: ray moduli cone, non conical image, stellar fix,
    pulled back morphism checks.
    """
    t0 = time.perf_counter()
    contact = ContactData(2, ((3, -3),))
    theta = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
    fig_type = RubberMapType(theta, ((-1, -1, -1),), contact)
    report = Report(
        inputs={"genus": 2, "markings": 2, "contacts": [[3, -3]], "degree": 3},
    )

    mc = moduli_cone(fig_type)
    report.add("moduli cone is a ray", "map type", mc.dim == 1)
    report.add(
        "edge lengths forced equal",
        "map type",
        mc.rays == ((1, 1, 1),),
    )

    base = build_complex_from_graphs([theta])
    host_id = base.id_of(theta)
    host_cone = base.complex.cones[host_id]
    report.add("host cone is three dimensional", host_id, host_cone.dim == 3)
    in_full = any(
        h == base.graphs[host_id] for h in enumerate_stable_graphs(2, 2)
    )
    report.add("host graph occurs in the full moduli complex", "(2,2)", in_full)

    _, img = forgetful_image(fig_type)
    report.add("image is the diagonal ray", host_id, img.rays == ((1, 1, 1),))
    fam = ConicalSubset(base.complex, ((host_id, img),))
    before = is_union_of_cones(base.complex, fam)
    report.add("image union of cones before subdivision", host_id, not before.ok)

    sub = check_subdivision(stellar_subdivide(base.complex, host_id, (1, 1, 1)))
    report.subdivision = sub.summary()
    after = is_union_of_cones(sub.refined, sub.transport(fam))
    report.add("image union of cones after stellar subdivision", host_id, after.ok)

    mx = build_map_complex([fig_type], base)
    pb = pullback_subdivision(mx.forgetful, sub)
    _semistability_into(report, "X", semistability_verdict(pb))
    report.subdivision_data = sub
    _soundness_into(report, soundness_verdict(sub, seed))
    report.elapsed = time.perf_counter() - t0
    return report
