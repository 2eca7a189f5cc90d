"""Exact graded-commutative algebra with an odd Laplacian, antibracket,
master-equation checks and desk-scale gauge-independence experiments.

Public names resolve on first use (PEP 562), so importing the package, or
one submodule such as ``bvcalc.cli``, loads only the modules that are run.
"""

from importlib import import_module as _import_module

# public name or submodule name -> the submodule that defines it
_HOME = {name: module for module, names in (
    ("scalars", "Scalar"), ("derivations", "Derivation"), ("bv", "AntifieldReport BVSpace"),
    ("superalgebra", "ANTIFIELD Context EVEN FIELD Generator ODD PLAIN Poly"),
    ("lie", "LieModel NotACochainComplex brst_lie brst_rep ce_cohomology_dims ce_matrices "
            "ghost_context jacobi_check rep_check rep_context trace_condition"),
    ("gauge", "ExpElement GaugeFermion NonGaussianIntegrand NonNormalizedDamping NotDeltaClosed "
              "exp_delta exact_boundary_integrals gauge_independence_experiment "
              "gaussian_expectation lagrangian_integral restrict_to_lagrangian standard_damping"),
    ("parser", "OddPowerWarning ParseError parse_expression"),
    ("modelfile", "Model ModelError load_model parse_model"),
    ("cli", ""), ("identities", ""), ("linalg", ""), ("randgen", ""),
) for name in [module, *names.split()]}
__all__ = sorted(name for name, module in _HOME.items() if name != module)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return list(__all__)
