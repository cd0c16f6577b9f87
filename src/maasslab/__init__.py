"""maasslab: Satake coefficient algebra, sieve delay differential
equations and prime-density machinery for Maass forms."""

from . import bounds, dde, density, errors, ingest, satake, sieve
from .bounds import FormMeta, conductor, least_prime_bound, least_prime_exponent
from .dde import DdeSpec, PiecewiseSolution, analytic_segment, first_zero, solve
from .density import (DensityReport, FormFamily, chebyshev_weight,
                      density_lower_bound, exceptional_scan,
                      expansion_residual, pigeonhole_intersection, pnt_trend)
from .ingest import CoeffRecord, fetch, validate
from .satake import (CoeffTriple, SatakeLocal, adjoint_coeff,
                     check_hecke_identities, is_ramanujan_local,
                     kim_sarnak_envelope, sample_satake, sym_coeffs)
from .sieve import (MultFuncSpec, SieveTable, asymptotic_report, build_table,
                    dirichlet_convolve, euler_constant_c, h_sum,
                    local_factor_coeffs, log_weighted_sum, lower_bound_check,
                    moebius_factor)

__version__ = "0.1.0"
