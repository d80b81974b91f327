"""Difference sets, labelled projective planes, and exoticity certificates
for Singer cyclic lattice data."""

from .ball import (
    BallComplex, HjelmslevPlane, build_ball, complex_from_text,
    complex_to_text, extract_hjelmslev, h2_collineations_fixing_center,
    verify_ball,
)
from .diffsets import (
    DifferenceMatrix, DifferenceSet, DifferenceVector,
    canonical_difference_set, is_difference_set, matrix_from_text,
    matrix_to_text, set_from_text, set_to_text, singer_difference_set,
)
from .errors import CapExceeded, GluingError, InternalError, InvalidInput
from .exotic import (
    EquivClass, ExoticityVerdict, ExoticWitness, NormalizedMatrix, bound_B,
    candidate_count, census_from_text, census_summary, census_to_text,
    certify_exotic, classify, enumerate_normalized, lower_A, pencil_group,
    ratio_table,
)
from .plane import canonical_plane, plane_from_text, plane_to_text

__version__ = "0.1.0"
