"""Exception hierarchy shared across the package."""
from __future__ import annotations


class SmythError(Exception):
    """Base class for all library-specific errors."""


class ParseError(SmythError, ValueError):
    """Malformed textual input (polynomial, coefficient list, certificate)."""


class TupleArityError(SmythError, ValueError):
    """Coefficient tuples of length 2 are outside the supported theory."""


class NonUnitError(SmythError, ArithmeticError):
    """An order bound or a multiplicative order was asked of a non-unit.

    Raised by bounds.order_bound_fqt and bounds.order_bound_int when b or
    -a/b is not a unit mod c, and by algebra.multiplicative_order_int. The
    gcd with the modulus is attached as ``witness``; over F_q[t], where c is
    irreducible, that is c itself.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(SmythError, RuntimeError):
    """A search or enumeration would exceed its explicit budget.

    ``required`` carries the number of candidates the call would need.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class NotSmythTupleError(SmythError, ValueError):
    """Balanced multisets were requested for a tuple failing the criteria."""


class RelationViolationError(SmythError, ValueError):
    """A multiset member does not satisfy the defining linear relation."""

    def __init__(self, message: str, member=None):
        super().__init__(message)
        self.member = member


class NoRelationError(SmythError, ValueError):
    """The given permutations admit no nonzero kernel vector."""


class EqualityHypothesisError(SmythError, ValueError):
    """Extraction requires an exact equality of place absolute values."""


class PrecisionError(SmythError, RuntimeError):
    """A bracket refinement hit its precision ceiling without a decision.

    Raised only by SqrtSum.sign and by the upper bound for |alpha| in
    lattice_rounding_step; the root-of-unity zero test is exact.
    """


class BridgeError(SmythError, RuntimeError):
    """No doubly regular rebalancing was found; carries the input matrix.

    ``matrix`` is always the rounding matrix the bridge was given, as sparse
    rows: one tuple of (column, entry) pairs per row. From numfield_pipeline
    it is the rounding matrix of the last attempt.
    """

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix
