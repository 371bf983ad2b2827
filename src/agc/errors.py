"""Exception types shared across the package."""


class AgcError(Exception):
    """Base class for all errors raised by this package."""


class MalformedPermutation(AgcError):
    """An image array is not a bijection on {0..degree-1}."""


class FormatError(AgcError):
    """A group file is structurally invalid (bad JSON, wrong arity, bad types)."""


class GroupTooLarge(AgcError):
    """Closure enumeration exceeded the configured order cap."""


class NotNormal(AgcError):
    """A quotient was requested by a subgroup that is not normal."""


class InvalidAction(AgcError):
    """A semidirect-product action is not a homomorphism into Aut(base)."""


class NotSolvable(AgcError):
    """An operation restricted to solvable groups received a non-solvable one."""


class PrimeNotDividing(AgcError):
    """A Sylow subgroup was requested for a prime not dividing the order."""


class NotComplement(AgcError):
    """A subgroup pair (N, A) does not satisfy A·N = G with A ∩ N = 1."""
