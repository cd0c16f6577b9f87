"""maasslab: Satake coefficient algebra, sieve delay differential
equations and prime-density machinery for Maass forms."""

from . import bounds, dde, density, errors, ingest, satake, sieve
from .bounds import FormMeta, least_prime_bound, least_prime_exponent
from .dde import DdeSpec, PiecewiseSolution, analytic_segment, first_zero, solve
from .density import (DensityReport, FormFamily, chebyshev_weight,
                      density_lower_bound, exceptional_scan,
                      pigeonhole_intersection)
from .ingest import CoeffRecord, fetch, validate
from .satake import kim_sarnak_envelope
from .sieve import (MultFuncSpec, SieveTable, asymptotic_report, build_table,
                    dirichlet_convolve, euler_constant_c, h_sum,
                    local_factor_coeffs, log_weighted_sum, lower_bound_check)

__version__ = "0.1.0"
