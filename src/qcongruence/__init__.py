"""qcongruence: truncated q-series arithmetic and a verification toolkit for
t-colored overpartition congruences modulo powers of 2.

The package expands eta-quotient products as exactly-truncated Laurent
series (over arbitrary-precision integers or Z/2^k), checks Ramanujan-type
congruence claims on arithmetic progressions, verifies classical dissection
identities of the Euler product, replays witness-certificate identities of
Ramanujan-Kolberg type, and validates infinite-family congruences together
with the finite induction-step identities behind them.
"""

from .congruences import (CONJECTURE_PATTERN, DEFAULT_N_MAX, THEOREM_CLAIMS,
                          ClaimReport, CongruenceClaim, check_claims,
                          conjecture_claims, enumerate_colored_overpartitions,
                          is_prime, observed_two_adic_valuations)
from .dissect import (IdentityReport, Progression, dissection3_f1cubed,
                      dissection5, dissection7, extract, ramanathan,
                      report_from_comparison, rogers_ramanujan)
from .eta import (EtaQuotient, colored_partition_gf, expand,
                  format_eta_quotient, overpartition_eta_quotient,
                  overpartition_gf, overpartition_residues, parse_eta_quotient)
from .families import (VARIANTS, FamilyInstance,
                       verify_eq1, verify_family_instance,
                       verify_induction_step)
from .series import (DEFAULT_BUDGET, EXACT, MAX_MOD2K_BITS, InsufficientTruncation,
                     LaurentSeries, NonInvertibleSeries, Ring, RingMismatch,
                     agree, euler_factor, first_difference, mod2k,
                     phi_power, shifted_sum, theta_f, theta_power)
from .witness import (WitnessCertificate, WitnessReport, builtin_certificate,
                      builtin_certificate_text, certificate_common_factor,
                      format_certificate, load_certificate, parse_certificate,
                      save_certificate, verify_witness)

__version__ = "0.1.0"

__all__ = [
    "CONJECTURE_PATTERN", "DEFAULT_BUDGET", "DEFAULT_N_MAX", "EXACT",
    "EtaQuotient", "FamilyInstance", "IdentityReport",
    "InsufficientTruncation", "LaurentSeries", "MAX_MOD2K_BITS",
    "NonInvertibleSeries", "Progression", "Ring", "RingMismatch",
    "THEOREM_CLAIMS", "VARIANTS", "WitnessCertificate", "WitnessReport",
    "agree", "builtin_certificate", "builtin_certificate_text",
    "certificate_common_factor", "check_claims", "ClaimReport",
    "colored_partition_gf", "CongruenceClaim",
    "conjecture_claims", "dissection3_f1cubed", "dissection5", "dissection7",
    "enumerate_colored_overpartitions", "euler_factor", "expand", "extract",
    "first_difference", "format_certificate", "format_eta_quotient", "is_prime",
    "load_certificate", "mod2k", "observed_two_adic_valuations",
    "overpartition_eta_quotient", "overpartition_gf", "overpartition_residues",
    "parse_certificate",
    "parse_eta_quotient", "phi_power", "ramanathan",
    "report_from_comparison", "rogers_ramanujan", "save_certificate",
    "shifted_sum", "theta_f", "theta_power", "verify_eq1",
    "verify_family_instance", "verify_induction_step", "verify_witness",
]
