"""Exact implicitization of bidegree-(m,n) parametrizations of P1 x P1.

Given four bihomogeneous polynomials a0..a3 of bidegree (m,n) over the
rationals, this package checks the base-point conditions B1..B6, builds the
moving planes and moving quadrics that follow the parametrization, and
returns the implicit equation of the image surface in P3 as the determinant
of an mn x mn matrix, of total degree 2mn - k where k is the total
multiplicity of the base points.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .basepoints import (BasePointSummary, CheckConfig, ConditionReport,
                         SaturationResult, base_point_summary, check_all,
                         check_independence, check_regularity, generic_change,
                         hilbert_dim, hilbert_values, saturation_member)
from .implicitize import (ConditionError, ImplicitResult, MMatrix,
                          PipelineConfig, VerificationError,
                          VerificationRecord, assemble_M, det_poly,
                          echelon_plane_basis, normalize, pipeline,
                          quadric_basis_via_projection, verify_polynomial)
from .linalg import KernelBasis, RatMatrix, det_bareiss, kernel_basis, rank
from .ring import (BihomPoly, MixedBidegreeError, ParseError, XPoly,
                   monomial_basis, parse, parse_xpoly)
from .syzygy import (Parametrization, SyzygyBasis, moving_planes,
                     moving_quadrics, mult_matrix, syz_dim_abc)
