#!/usr/bin/env python3
# Rubber map types: balanced slopes on dual graphs, the continuity equations
# around cycles, moduli cones, and the overlay of two structures on a shared
# curve.

from tropgeom import (
    ContactData,
    DualGraph,
    RubberMapType,
    cycle_equations,
    enumerate_rubber_types,
    forgetful_image,
    moduli_cone,
    superimpose,
)
from tropgeom.tropmaps import fiber_product_cone, is_balanced

# a degree two cover of the rubber line by a genus one curve: the two marked
# vertices are joined by two edges of slope one
banana = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
contact = ContactData(1, ((2, -2),))
cover = RubberMapType(banana, ((-1, -1),), contact)
print("balanced:", is_balanced(cover))

# continuity around the cycle forces equal lengths; the moduli cone is a ray
print("cycle equations:", cycle_equations(cover))
print("moduli cone rays:", moduli_cone(cover).rays)

# weighted version: slopes 1 and 3 force a 3:1 length ratio
weighted = RubberMapType(banana, ((-1, -3),), ContactData(1, ((4, -4),)))
print("weighted cone:", moduli_cone(weighted).rays)

# the forgetful image lives in the orthant of the stabilized graph; for the
# cover above it is the diagonal ray of the banana cone
stable, image = forgetful_image(cover)
print("image rays:", image.rays)

# enumeration lists every balanced type with consistent heights, slopes
# bounded by the degree, up to isomorphism
types = enumerate_rubber_types(contact)
print("types for genus 1 with contacts (2, -2):", len(types))
for t in types:
    print("  graph", t.graph.edges, "slopes", t.slopes[0])

# superimpose overlays two single factor structures over a common stable
# curve; with a subdivided chain against a plain edge the break point
# distributes the second slope across both pieces
chain = DualGraph((1, 0, 1), ((0, 1), (1, 2)), (0, 2))
tx = RubberMapType(chain, ((-1, -1),), ContactData(3, ((1, -1),)))
ty = RubberMapType(chain, ((0, 0),), ContactData(3, ((0, 0),)))
chambers = superimpose(tx, ty)
print("overlay chambers:", len(chambers))
fiber = fiber_product_cone(tx, ty)
print("fiber product dimension:", fiber.dim)
