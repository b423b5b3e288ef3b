#!/usr/bin/env python3
# Stable dual graphs and the tropical moduli complex of curves: enumeration,
# contraction faces, automorphisms, stabilization.

from tropgeom import (
    DualGraph,
    build_moduli_complex,
    canonical_form,
    contract_edge,
    enumerate_stable_graphs,
    genus,
    stabilize,
    validate_complex,
)

# the theta graph: two vertices joined by three parallel edges
theta = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
print("theta genus:", genus(theta))

# contracting one parallel edge merges the vertices and leaves two loops
contracted, face_map = contract_edge(theta, 0)
print("contracted:", contracted.genera, contracted.edges,
      "genus still", genus(contracted))
print("face embedding matrix:", face_map.matrix)

# automorphisms track both vertex and edge permutations: the unmarked theta
# has 2 x 3! of them, the marked one keeps only the edge symmetries
_, _, _, auts = canonical_form(theta)
print("theta automorphism pairs:", len(auts))
marked = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
_, _, _, auts = canonical_form(marked)
print("marked theta automorphism pairs:", len(auts))

# enumeration is isomorphism free and deterministic
for g, n in [(0, 4), (1, 1), (1, 2), (2, 0)]:
    graphs = enumerate_stable_graphs(g, n)
    print(f"stable graphs of genus {g} with {n} markings:", len(graphs))

# the moduli complex glues one orthant per graph along contraction faces,
# with the automorphisms acting on edge coordinates
built = build_moduli_complex(1, 2)
print("moduli complex of (1,2):", len(built.complex.cones), "cones")
print("violations:", validate_complex(built.complex))

# stabilization removes unmarked genus zero vertices of valence at most two
# and remembers how lengths merge
chain = DualGraph((0, 0, 0), ((0, 1), (1, 2)), (0, 0, 2, 2))
stable, lmap, trails = stabilize(chain)
print("stabilized edge count:", stable.num_edges)
print("length map:", lmap.matrix, "trail:", trails[0])

# DOT output mirrors the usual drawing conventions, legs dangling
print(marked.to_dot("theta"))
