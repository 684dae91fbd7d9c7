"""Exception types and the immutable value base shared across the package."""

from operator import attrgetter


class Value:
    """Immutable value whose fields are the attributes a subclass names in `_fields`,
    checked by its `__init__` and stored with `vars(self).update(...)`.  Values are
    equal when they share a class and their fields are equal; caches in `__dict__`
    take no part."""

    def __init_subclass__(cls):
        cls._key = staticmethod(attrgetter(*cls._fields))

    @classmethod
    def _trusted(cls, *values):
        """The value with these fields, in `_fields` order, stored without checks."""
        self = object.__new__(cls)
        vars(self).update(zip(cls._fields, values))
        return self

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")


class HypercError(Exception):
    """Base class of every refusal this package raises."""


class AlphabetMismatch(HypercError):
    """Operands do not share an alphabet, or a symbol set leaves the alphabet."""


class SignatureMismatch(HypercError):
    """An io-signature precondition is violated (shared outputs, I ⊄ I', ...)."""


class ValidationError(HypercError, ValueError):
    """A value or argument fails its invariant; the message names the fault.
    It is also a `ValueError`, so callers that catch that keep working."""


class QuotientUndefined(HypercError):
    """The receptive quotient's definedness condition L' ∩ I_r* ⊆ L fails."""


class LimitExceeded(HypercError):
    """A size bound refused `operation`: `measured`, a size with its unit or argument, is over
    `bound`, which `knob` sets: HYPERC_MAX_STATES, or the constant's name for a fixed bound."""

    def __init__(self, operation: str, measured: str, bound: int, knob: str):
        super().__init__(f"{operation}: {measured} over the bound {bound} ({knob})")
        self.operation, self.measured, self.bound, self.knob = operation, measured, bound, knob


class UniverseTooLarge(LimitExceeded):
    """A behavior universe exceeds a size bound: the bitset, general mode or antichain enumeration."""


class DocumentError(HypercError):
    """A JSON input document is malformed or violates its schema."""
