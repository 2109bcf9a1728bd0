"""Exact arithmetic for non-alternating symmetric bilinear forms in characteristic two."""

from .errors import Char2FormsError, CheckFailed
from .fields import (GF2, GF2k, RationalFunctionField, FieldElement, FieldError,
                     DescriptorMismatch, DivisionByZero, ParseError, parse_field)
from .linalg import (Matrix, Vector, LinalgError, DimensionMismatch, SingularMatrix,
                     square_span_dimension, square_span_kernel, square_span_solve)
from .forms import (BilinearForm, QuadraticData, AlternatingForm, DegenerateForm,
                    ZeroForm, FormError, discriminant_class, orthogonalize,
                    orthonormalize, quadratic_data)
from .exterior import (ExteriorSpace, HodgeData, ZeroVolume, WrongDimension,
                       alt_matrix, compound_matrix, exterior_form_gram, hodge,
                       hodge_identities, index_sets, pfaffian_gram, pq, wedge)
from .kalgebra import (KAlgebra, KModule, KAlgebraError, NonInvertible, NotSplit,
                       build_module, normalize_split, wz_submodule)
from .groups import (ClassificationReport, GroupElement, SL2Word, GroupError,
                     HypothesisViolated, NotSimilitude, NotUnimodular, classify, eta,
                     eta_o, generate_closure, hat_l, hat_u, is_isometry,
                     o3_standard_form_group, similitude_multiplier, sl2_decompose, t_hat)
from .oracle import (EnumerationResult, NoConsistentScalar, OracleError, TooLarge,
                     brute_pq_scalar, compound_by_expansion, direct_g,
                     enumerate_isometries)

__version__ = "0.1.0"
