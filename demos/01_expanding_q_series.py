"""
Expanding q-series: Euler products, eta quotients and partition counts
======================================================================

Everything in this package is a truncated Laurent series: a window of
exactly-known coefficients over either the integers or Z/2^k.  This script
walks the basic building blocks.
"""

from qcongruence import (EXACT, EtaQuotient, colored_partition_gf,
                         euler_factor, expand, mod2k, overpartition_gf,
                         parse_eta_quotient, theta_f)

# The Euler product f1 = prod (1 - q^i) expands by the pentagonal number
# theorem: +-1 exactly at the exponents 0, 1, 2, 5, 7, 12, 15, ...
f1 = euler_factor(1, 1, EXACT, 16)
print("f1           ", f1.coeffs())

# Its inverse generates the partition numbers.
print("1/f1  -> p(n)", euler_factor(1, -1, EXACT, 10).coeffs())

# Overpartitions: each part may carry one overline on its first occurrence.
# The generating function is f2 / f1^2; with t colors it is f2^t / f1^(2t).
print("overpartitions      ", overpartition_gf(1, EXACT, 10).coeffs())
print("5-colored           ", overpartition_gf(5, EXACT, 10).coeffs())
print("2-colored partitions", colored_partition_gf(2, EXACT, 10).coeffs())

# Eta quotients combine several f_d with integer exponents and an explicit
# power of q.  This one appears as the prefactor of the shipped witness
# certificate; its expansion starts at q^-17 with leading coefficient 1.
prefactor = EtaQuotient(8, {1: 79, 2: -38, 4: 36, 8: -72}, qshift=-17)
series = expand(prefactor, EXACT, -10)
print("prefactor offset", series.offset, "leading", series.coefficient(-17))

# The same quotient in the textual grammar that certificate files use.
parsed = parse_eta_quotient("q^-17 * f1^79 * f2^-38 * f4^36 * f8^-72")
print("grammar round-trips:", parsed == prefactor)

# Ramanujan theta functions are sparse sums; f(-q, -q^2) recovers f1 by the
# triple product identity.
theta = theta_f(1, 2, 16)
print("f(-q,-q^2)   ", theta.coeffs())

# Arithmetic mod 2^k uses the same API with a different ring.  Mod 2, the
# cube of f1 is supported exactly on the triangular numbers.
print("f1^3 mod 2   ", euler_factor(1, 3, mod2k(1), 16).coeffs())
