"""Linear codes over F_q + uF_q + vF_q + uvF_q (u^2 = u, v^2 = v, uv = vu).

The ring splits through four orthogonal idempotents into a product of
fields, so a linear code over it is four codes over GF(q) in a trench
coat.  This package provides exact field and ring arithmetic, the
distance-preserving expansion into F_q^(4n), Galois duals and hulls,
complementary-dual (LCD) detection, constructive scalings that make any
code LCD without changing its parameters, Singleton-bound checks, and
brute-force oracles that cross-validate all of it at desk scale.
"""

from .construct import (
    FieldScalingCertificate,
    MinorCertificate,
    RingScalingCertificate,
    euclid_lcd_scaling,
    galois_lcd_scaling,
    lemma_det_check,
    minor_search,
    ring_lcd_equivalent,
)
from .errors import LcdringError
from .fqcode import FqCode
from .gf import GF
from .linalg import Matrix, det, gram, minor_det, rank, rref
from .rcode import RCode, RCodeParams
from .ring import RingElement, galois_inner, gamma_to_u, gray, lee_distance, lee_weight, u_to_gamma

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Matrix",
    "RingElement",
    "FqCode",
    "RCode",
    "RCodeParams",
    "MinorCertificate",
    "FieldScalingCertificate",
    "RingScalingCertificate",
    "LcdringError",
    "rref",
    "rank",
    "det",
    "gram",
    "minor_det",
    "u_to_gamma",
    "gamma_to_u",
    "gray",
    "lee_weight",
    "lee_distance",
    "galois_inner",
    "minor_search",
    "lemma_det_check",
    "euclid_lcd_scaling",
    "galois_lcd_scaling",
    "ring_lcd_equivalent",
    "__version__",
]
