"""Exception types shared across the package.

Every error carries a human-readable message; where a finite witness of the
failure exists (an offending pair, tuple, or axiom name) it is embedded in
the message and, when useful programmatically, in dedicated attributes.
"""


class ConvalgError(Exception):
    """Base class for all errors raised by this package."""


class NotAPoset(ConvalgError):
    """The declared order pairs close into a relation with a cycle."""


class NotALattice(ConvalgError):
    """Some pair of elements lacks a greatest lower or least upper bound."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class UnknownElement(ConvalgError):
    """An element index or label does not belong to the lattice."""


class NotHeyting(ConvalgError):
    """Heyting operations requested on a non-distributive lattice."""


class ArityMismatch(ConvalgError):
    """A relation tuple, term, or argument list has the wrong length."""


class IndexOutOfRange(ConvalgError):
    """A carrier index is not an integer (a bool, float or str is not one)
    or lies outside the declared carrier."""


class OrderNotClosed(ConvalgError):
    """A relation violates up/down-closure against the carrier order."""

    def __init__(self, message, relation=None, witness=None):
        super().__init__(message)
        self.relation = relation
        self.witness = witness


class SignatureMismatch(ConvalgError):
    """Two structures that must share a signature do not."""


class NotAGroup(ConvalgError):
    """A multiplication table fails one of the group axioms."""

    def __init__(self, message, axiom=None):
        super().__init__(message)
        self.axiom = axiom


class WrongMode(ConvalgError):
    """A join-convolved relation was used where a meet-convolved one is
    required, or vice versa."""


class NotTwoElement(ConvalgError):
    """The subset isomorphism is only defined over the 2-element lattice."""


class NotAMorphism(ConvalgError):
    """A claimed lattice morphism fails to preserve bounds, meets or joins."""


class NotAPMorphism(ConvalgError):
    """A claimed structure map fails the p-morphism condition."""


class NotAProductLattice(ConvalgError):
    """The operation needs a lattice built as a binary product."""


class BudgetExceeded(ConvalgError):
    """A search would exceed the ``budget``: it needs ``required``
    evaluations, unless ``message`` names another limit that ran out."""

    def __init__(self, required, budget, message=None):
        super().__init__(
            message or f"exhaustive check needs {required} evaluations, budget is {budget}")
        self.required = required
        self.budget = budget


class UnboundVariable(ConvalgError):
    """A term variable is missing from the assignment."""


class UnknownOperation(ConvalgError):
    """A term names an operation absent from the signature."""


class TermSyntaxError(ConvalgError):
    """The s-expression text cannot be parsed."""


class UnknownName(ConvalgError):
    """The catalog has no entry under the requested name."""


class InvalidGrid(ConvalgError):
    """A truth-value grid size below 2 was requested."""
