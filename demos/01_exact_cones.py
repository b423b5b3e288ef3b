#!/usr/bin/env python3
# A tour of the exact cone kernel: every computation below is arbitrary
# precision integer arithmetic, there is no floating point anywhere.

from tropgeom import (
    LinearMap,
    cone_from_generators,
    image_cone,
    intersect,
    is_unimodular,
    lattice_surjective,
)

# build a cone from generators; redundant generators are dropped and rays
# are reduced to primitive vectors
c = cone_from_generators([(2, 0), (1, 1), (0, 4)])
print("rays:", c.rays)               # ((0, 1), (1, 0)); (1,1) was redundant

# the dual description is computed by incremental double description and
# cached on the cone: one primitive covector per facet
print("facets:", list(c.facets))

# membership is exact: a point is in the cone iff it is in the span and all
# facet covectors are nonnegative on it
print("contains (3, 5):", c.contains((3, 5)))
print("contains (-1, 2):", c.contains((-1, 2)))

# lower dimensional cones carry span equations next to their facets
ray = cone_from_generators([(1, 2)], 2)
print("ray span equations:", ray.span_eqs)   # 2x - y = 0 inside the plane

# intersections stay exact and canonical
wedge1 = cone_from_generators([(1, 0), (1, 1)])
wedge2 = cone_from_generators([(1, 1), (0, 1)])
print("wedge intersection:", intersect(wedge1, wedge2).rays)   # the shared ray

# linear images of cones: the stabilization map merging a two edge chain
merge = LinearMap(((1, 1),), 2, 1)
print("image of the quadrant under (l1, l2) -> l1 + l2:",
      image_cone(merge, c).rays)

# unimodularity = simplicial with multiplicity one; the skew cone below has
# lattice index 2
skew = cone_from_generators([(1, 0), (1, 2)])
print("skew cone unimodular:", is_unimodular(skew))
print("skew cone index:", skew.lattice_index())

# lattice surjectivity is the reducedness side of weak semistability: the
# doubling map on a ray hits only the even lattice points
r = cone_from_generators([(1,)], 1)
print("x2 lattice surjective:", lattice_surjective(LinearMap(((2,),), 1, 1), r))
print("sum map lattice surjective:",
      lattice_surjective(LinearMap(((1, 1),), 2, 1), c))
