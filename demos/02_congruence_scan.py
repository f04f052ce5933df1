"""
Scanning overpartition congruences mod powers of 2
==================================================

t-colored overpartition counts vanish to surprising depth on arithmetic
progressions: for example p-bar_{-5}(8n+7) == 0 mod 128 for every n.  The
package ships the 24 proved claims for t = 5, 7, 11, 13 and a conjectured
pattern for arbitrary primes; this script checks them to a desk-scale bound
and probes how sharp each modulus is.
"""

from qcongruence import (THEOREM_CLAIMS, CongruenceClaim, check_claims,
                         conjecture_claims, observed_two_adic_valuations)

# Every proved claim, checked for n <= 300 (a few seconds; the acceptance
# suite runs n <= 2000).
print("-- proved claims --")
for report in check_claims(THEOREM_CLAIMS, 300):
    print(" ", report.summary())

# How sharp are the moduli?  The observed minimal 2-adic valuation on each
# progression equals the claimed exponent everywhere: strengthening any
# claim by one power of 2 fails quickly.  The four t are read together.
print("-- sharpness --")
on_8n7 = [claim for claim in THEOREM_CLAIMS if claim.j == 7]
valuations = observed_two_adic_valuations([claim.t for claim in on_8n7], 8, 300)
for claim, observed in zip(on_8n7, valuations):
    v = observed[claim.j]
    [stronger] = check_claims(
        [CongruenceClaim(claim.t, claim.m, claim.j, claim.k + 1)], 300)
    print(f"  t={claim.t:2d} j=7: claimed 2^{claim.k}, observed min "
          f"valuation {v}, mod 2^{claim.k + 1} {stronger.verdict} "
          f"{stronger.counterexample or ''}")

# The conjectured pattern at a prime the theorems do not cover.  A failure
# here would be a counterexample record, not a crash.
print("-- conjecture at q=19 --")
for report in check_claims(conjecture_claims(19), 300):
    print(" ", report.summary())
