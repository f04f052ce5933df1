"""Checks that tests build from the package's own series arithmetic.

Unlike ``oracles.py``, these share code with what they check, so they pin
identities of the package's kernels rather than supply independent values.
"""

from __future__ import annotations

from qcongruence import dissect
from qcongruence.dissect import IdentityReport, report_from_comparison
from qcongruence.series import EXACT, LaurentSeries, euler_factor, mod2k, shifted_sum


def check_lift_congruence(m: int, k: int, T: int) -> IdentityReport:
    """f_m^(2^k) == f_{2m}^(2^(k-1)) as series mod 2^k."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    ring = mod2k(k)
    lhs = euler_factor(m, 1, ring, T).pow(1 << k)
    rhs = euler_factor(2 * m, 1, ring, T).pow(1 << (k - 1))
    name = f"f{m}^{1 << k} = f{2 * m}^{1 << (k - 1)} (mod {1 << k})"
    return report_from_comparison(name, lhs, rhs, through=T)


def dense_ramanathan(n: int, T: int) -> IdentityReport:
    """``dissect.ramanathan(n, T)`` in its dense form: f_{n^2} times the
    shifted sum of the bracket's theta quotients, each num times den^-1 by
    ``theta_power`` (``dissect._theta_quotient``), compared with f_1 through
    q^(T-1)."""
    g, eps = (n + 1) // 6, (-1 if n % 6 == 1 else 1)
    terms = [((-1) ** g, (n * n - 1) // 24, LaurentSeries.one(EXACT, T))]
    terms += [((-1) ** (k + g), (k - g) * (3 * k - 3 * g + eps) // 2,
               dissect._theta_quotient((2 * k, n - 2 * k), (k, n - k), n, T))
              for k in range(1, (n - 1) // 2 + 1)]
    rhs = euler_factor(n * n, 1, EXACT, T).mul(shifted_sum(terms, EXACT, T))
    case = f"n=6g{'+' if eps < 0 else '-'}1, g={g}"
    return report_from_comparison(f"{n}-dissection of f1", euler_factor(1, 1, EXACT, T),
                                  rhs, through=T, note=case)
