"""Exact-arithmetic engine for the correspondence between period polynomial
relations in the double shuffle Lie algebra and linear relations among
odd-component double zeta values."""

from .words import NcPoly, concat, pair, shuffle, stuffle
from .lie import ad_x_pow, bracket, derivation_apply, ds_solve, odot, poisson
from .linalg import (Mat, build_A, build_A_symbolic, build_B, build_D, build_S,
                     build_T, block_check, conjugate_M, kernel, symmetry_product)
from .periodpoly import ek_basis, ek_dim_formula, q_vector
from .regularization import (fz_quotient_dim, sh_basis_dim, shuffle_regularize,
                             star_regularize, stuffle_relation)
from .relations import Relation, correspondence_report, gkz_relations, ihara_relations
from .numzeta import verify_relation, zeta_double, zeta_single

__version__ = "0.1.0"
