"""
Auditing published closed forms against the oracles
===================================================

Every quantitative claim about the named families is registered with a
stable id and a default parameter grid. Auditing a claim rebuilds the
graph, recomputes the exact or numeric ground truth, and attaches the
evidence to the verdict.
"""

from harmspec import audit_claim
from harmspec.audit import CLAIMS, audit_all, results_table

# A claim that holds exactly: the cycle closed form.
r = audit_claim("thm-cycle-charpoly", n=7)
print(r.claim_id, r.verdict, "residual:", r.evidence["residual"])

# A claim that fails: the friendship energy line. The evidence carries
# both the claimed value and what the spectrum actually sums to.
r = audit_claim("thm-friendship-energy", n=3)
print(r.claim_id, r.verdict)
print("  claimed:", r.evidence["claimed"])
print("  computed:", round(r.evidence["computed"], 9))
print("  the proof's own eigenvalue sum is right to",
      f"{r.evidence['proof_eigenvalue_sum_delta']:.1e}")

# An inequality audited with its margin.
for n in (1, 2, 3):
    r = audit_claim("thm-windmill5-energy-bound", n=n)
    margin = round(r.evidence["margin"], 6) + 0.0  # no sign on a rounded-off zero
    print(f"windmill5 bound at n={n}: {r.verdict}, margin {margin:+.6f}")

# The full registry, one claim per published theorem part.
print(f"\n{len(CLAIMS)} registered claims:")
for cid in sorted(CLAIMS):
    print("  ", cid, "-", CLAIMS[cid].description)

# Run a slice of the registry and render the standard table.
results = audit_all(["thm-star-charpoly", "thm-star-energy", "thm-book-charpoly"])
print()
print(results_table(results))
