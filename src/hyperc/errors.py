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
    """Base class for all domain errors raised by this package."""


class AlphabetMismatch(HypercError):
    """Operands do not share an alphabet, or a symbol set leaves the alphabet."""


class SignatureMismatch(HypercError):
    """An io-signature precondition is violated (shared outputs, I ⊄ I', ...)."""


class ValidationError(HypercError):
    """A value fails its construction invariant; the message names a witness."""


class QuotientUndefined(HypercError):
    """The receptive quotient's definedness condition L' ∩ I_r* ⊆ L fails."""


class UniverseTooLarge(HypercError):
    """A behavior universe exceeds the bitset or general-mode bound."""


class LimitExceeded(HypercError):
    """A configured size cap (enumeration length, state count) was exceeded."""


class DocumentError(HypercError):
    """A JSON input document is malformed or violates its schema."""
