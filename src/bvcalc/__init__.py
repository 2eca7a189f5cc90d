"""Exact graded-commutative algebra with an odd Laplacian, antibracket,
master-equation checks and desk-scale gauge-independence experiments."""

from .scalars import Scalar
from .superalgebra import ANTIFIELD, Context, EVEN, FIELD, Generator, ODD, PLAIN, Poly
from .derivations import Derivation
from .lie import (LieModel, NotACochainComplex, brst_lie, brst_rep,
                  ce_cohomology_dims, ce_matrices, ghost_context, jacobi_check,
                  rep_check, rep_context, trace_condition)
from .bv import AntifieldReport, BVSpace
from .gauge import (ExpElement, GaugeFermion, NonGaussianIntegrand,
                    NonNormalizedDamping, NotDeltaClosed, berezin_integrate,
                    exp_delta, exact_boundary_integrals,
                    gauge_independence_experiment, gaussian_expectation,
                    lagrangian_integral, restrict_to_lagrangian,
                    standard_damping)
from .parser import OddPowerWarning, ParseError, parse_expression
from .modelfile import Model, ModelError, load_model, parse_model

__all__ = [
    "ANTIFIELD", "AntifieldReport", "BVSpace", "Context", "Derivation",
    "EVEN", "ExpElement", "FIELD", "GaugeFermion", "Generator", "LieModel",
    "Model", "ModelError", "NonGaussianIntegrand", "NonNormalizedDamping",
    "NotACochainComplex", "NotDeltaClosed", "ODD", "OddPowerWarning",
    "ParseError", "PLAIN", "Poly", "Scalar",
    "berezin_integrate", "brst_lie", "brst_rep", "ce_cohomology_dims",
    "ce_matrices", "exact_boundary_integrals", "exp_delta",
    "gauge_independence_experiment", "gaussian_expectation", "ghost_context",
    "jacobi_check", "lagrangian_integral", "load_model",
    "parse_expression", "parse_model", "rep_check", "rep_context",
    "restrict_to_lagrangian", "standard_damping", "trace_condition",
]
