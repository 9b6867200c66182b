"""
Harmonic matrices, exact arithmetic, and energy
===============================================

Build a few small graphs, look at their harmonic matrices with exact
rational entries, and compare the exact characteristic polynomial with
the numeric spectrum.
"""

from fractions import Fraction

from harmspec import (
    build_graph,
    graph_char_poly,
    factored_display,
    harmonic_energy,
    harmonic_index,
    harmonic_matrix,
    poly_text,
)
from harmspec.families import complete, friendship, path
from harmspec.harmonic import matrix_text
from harmspec.spectrum import eigenvalues_symmetric

# A triangle: every vertex has degree 2, so every edge weight is 2/(2+2).
triangle = complete(3)
print("harmonic matrix of the triangle:")
print(matrix_text(harmonic_matrix(triangle)))
print("harmonic index:", harmonic_index(triangle))

# The harmonic index of a path with 3 vertices: two edges with degree
# pair (1, 2), each contributing 2/3.
print("\nharmonic index of the 3-path:", harmonic_index(path(3)))
assert harmonic_index(path(3)) == Fraction(4, 3)

# Exact characteristic polynomial, expanded and factored. The factored
# form finds every rational root from the polynomial alone: roots modulo
# a small prime, lifted p-adically until a fraction can be rebuilt from
# each, and kept only when they divide the polynomial exactly.
p = graph_char_poly(triangle)
print("\ncharpoly of the triangle:", poly_text(p))
print("factored:", factored_display(p))

# The friendship graph with two blades: apex degree 4, spoke weights 1/3.
f2 = friendship(2)
print("\nfriendship graph with 2 blades:")
print(matrix_text(harmonic_matrix(f2)))

# Numeric spectrum from the Jacobi solver; the exact polynomial, factored
# over its rational roots, accounts for it.
spectrum = eigenvalues_symmetric(harmonic_matrix(f2))
print("eigenvalues:", [round(x, 6) for x in spectrum.eigenvalues])
print("factored charpoly:", factored_display(graph_char_poly(f2)))

# Harmonic energy: the absolute eigenvalue sum.
energy = harmonic_energy(f2)
print("\nHE of the 2-blade friendship graph:", f"{energy.he:.7f}")

# Energy is additive over disjoint unions.
from harmspec import disjoint_union

a, b = complete(4), build_graph(3, [(0, 1), (1, 2)])
combined = harmonic_energy(disjoint_union([a, b])).he
print("union additivity gap:",
      f"{abs(combined - harmonic_energy(a).he - harmonic_energy(b).he):.2e}")
