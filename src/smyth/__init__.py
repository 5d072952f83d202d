"""Exact decision procedures and certificates for Smyth tuples.

The package decides whether a coefficient tuple admits balanced multisets
over F_q[t], the integers, or a quadratic number ring, and emits certificates
that can be re-verified independently of the search that produced them.

Importing the package loads errors, algebra, core and serialize, which every
command uses. bounds, heuristic, numfield and quadratic are registered as
lazy modules: their code runs on the first attribute access. The names in
__all__ resolve on first use (PEP 562).
"""
import importlib.util
import sys

# Each public name, grouped by the submodule that defines it.
_EXPORTS = {
    "algebra": ("FieldParams", "Poly", "parse_poly"),
    "bounds": ("ExtremalInstance", "OrderBoundCertificate", "construct_extremal_fqt",
               "construct_extremal_int", "min_balanced_search", "order_bound_fqt",
               "order_bound_int", "verify_extremal"),
    "core": ("DEFAULT_BUDGET", "BalancedMultiset", "CoeffTuple", "PermutationCertificate",
             "balanced_from_certificate", "balanced_multiset", "certificate_from_balanced",
             "check_criteria", "enumerate_solutions", "fiber_count", "verify_certificate"),
    "errors": ("BridgeError", "BudgetExceededError", "EqualityHypothesisError",
               "NonUnitError", "NoRelationError", "NotSmythTupleError", "ParseError",
               "PrecisionError", "RelationViolationError", "SmythError", "TupleArityError"),
    "heuristic": ("GroupFamily", "limit_scan", "monte_carlo", "p_n_closed_form"),
    "numfield": ("NumfieldCertificate", "birkhoff_decompose", "covering_radius_squared",
                 "lattice_rounding_step", "numfield_pipeline", "perron_bridge",
                 "rou_relation_search", "rou_twist", "strong_criteria_check",
                 "unimodular_extract", "verify_numfield_certificate"),
    "quadratic": ("CycInt", "QuadField", "QuadInt", "SqrtSum", "cyclotomic_poly"),
    "serialize": ("canonical_json", "extremal_doc", "multiset_doc", "numfield_doc",
                  "verify_doc"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy_submodule(name: str):
    """smyth.<name>, put in sys.modules unexecuted; it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# Registered before the eager imports below: serialize binds these modules.
bounds = _lazy_submodule("bounds")
heuristic = _lazy_submodule("heuristic")
numfield = _lazy_submodule("numfield")
quadratic = _lazy_submodule("quadratic")

from . import algebra, core, errors, serialize  # noqa: E402

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_SUBMODULE[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
