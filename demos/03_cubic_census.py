"""
Census of cubic graphs and their harmonic energies
==================================================

Enumerate all 3-regular graphs on 10 vertices up to isomorphism (including
the two disconnected ones), compute every harmonic energy, group the graphs
into equal-energy classes, and compare against the published reference
values.
"""

from harmspec import census_from_graphs, compare_reference_table, enumerate_regular
from harmspec.census import truncate3

records, classes = census_from_graphs(enumerate_regular(10, 3))

print(f"{len(records)} isomorphism classes, "
      f"{sum(1 for r in records if r.connected)} connected\n")

print(f"{'idx':>4} {'graph6':<14} {'connected':<10} {'HE':>12} {'display':>8}")
for r in records:
    print(f"{r.index:>4} {r.graph6:<14} {str(r.connected).lower():<10} "
          f"{r.he:>12.7f} {truncate3(r.he):>8.3f}")

print("\nenergy classes:")
for c in sorted(classes, key=lambda c: -c.he):
    tag = "shared" if len(c.members) > 1 else "unique"
    print(f"  HE {c.he:.7f} [{tag}]: members {list(c.members)}")
    for a, b, count in c.eigen_diffs:
        print(f"      records {a} and {b} differ in {count} eigenvalues")

comparison = compare_reference_table(records)
print(f"\nreference comparison: {comparison.match_count}/{comparison.total} entries matched")

# The largest energy in the family is 16/3, attained twice; one of the two
# graphs attaining it is the Petersen graph.
from harmspec import canonical_form
from harmspec.families import petersen

top = max(classes, key=lambda c: c.he)
pet = canonical_form(petersen())
members = {records[i - 1].graph6 for i in top.members}
print(f"max class HE = {top.he:.9f} (16/3 = {16/3:.9f})")
print("contains the Petersen graph:", pet in members)
