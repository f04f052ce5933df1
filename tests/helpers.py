"""Checks that tests build from the package's own series arithmetic.

Unlike ``oracles.py``, these share code with what they check, so they pin
identities of the package's kernels rather than supply independent values.
"""

from __future__ import annotations

from qcongruence.dissect import IdentityReport, report_from_comparison
from qcongruence.series import euler_factor, mod2k


def check_lift_congruence(m: int, k: int, T: int) -> IdentityReport:
    """f_m^(2^k) == f_{2m}^(2^(k-1)) as series mod 2^k."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    ring = mod2k(k)
    lhs = euler_factor(m, 1, ring, T).pow(1 << k)
    rhs = euler_factor(2 * m, 1, ring, T).pow(1 << (k - 1))
    name = f"f{m}^{1 << k} = f{2 * m}^{1 << (k - 1)} (mod {1 << k})"
    return report_from_comparison(name, lhs, rhs, through=T)
