"""
Closed-form characteristic polynomials per graph family
=======================================================

Every named family ships with the published closed form for its harmonic
characteristic polynomial. Some of those formulas are exactly right, some
are not; comparing them against the exact characteristic polynomial over
the rationals is a one-liner.
"""

from harmspec import graph_char_poly, poly_text, tridiag_charpoly
from harmspec.charpoly import (
    closed_form_book,
    closed_form_cycle,
    closed_form_friendship,
    closed_form_path_proof,
    closed_form_path_statement,
    closed_form_windmill_product,
)
from harmspec.families import book, cycle, dutch_windmill, path

# The tridiagonal determinant sequence drives the path and cycle forms:
# D_k = x*D_{k-1} - (1/4)*D_{k-2}, D_0 = 1, D_1 = x.
for k in range(5):
    print(f"D_{k} =", poly_text(tridiag_charpoly(k)))

# Cycles: the closed form is exact for every n.
for n in (3, 6, 10):
    exact = graph_char_poly(cycle(n))
    assert closed_form_cycle(n) == exact
    print(f"\ncycle n={n}: closed form matches the oracle")
    print("  ", poly_text(exact))

# Paths: the two published variants disagree; only the one with the x^2
# leading term has the right degree.
n = 6
statement = closed_form_path_statement(n)
proof = closed_form_path_proof(n)
oracle = graph_char_poly(path(n))
print(f"\npath n={n}:")
print("  statement variant degree:", statement.degree, "->",
      "matches" if statement == oracle else "does NOT match")
print("  proof variant degree:    ", proof.degree, "->",
      "matches" if proof == oracle else "does NOT match")

# Windmills: the claimed factorization D_{m-1}^{n-1} * charpoly(C_m) drops
# the blade-count dependence of the spoke weights, so it only holds for a
# single blade.
for n in (1, 2):
    claimed = closed_form_windmill_product(5, n)
    oracle = graph_char_poly(dutch_windmill(5, n))
    verdict = "exact" if claimed == oracle else "mismatch"
    print(f"windmill m=5 n={n}: factorization is {verdict}")
    if claimed != oracle:
        print("   residual:", poly_text(claimed - oracle))

# Books: correct at n=1 (a single page is the 4-cycle), wrong after.
for n in (1, 2):
    verdict = "exact" if closed_form_book(n) == graph_char_poly(book(n)) else "mismatch"
    print(f"book n={n}: closed form is {verdict}")

# The friendship closed form, by contrast, is exact for every n tested.
from harmspec.families import friendship

for n in (1, 3, 5):
    assert closed_form_friendship(n) == graph_char_poly(friendship(n))
print("\nfriendship closed form: exact for n = 1, 3, 5")
