"""Interface hypercontracts.

A contract is determined by a prefix-closed closed-system language S and an
io signature.  The maximal environment E_S = S ∪ MissExt(S, S, O) and the
maximal implementation M_S = S ∪ MissExt(S, S, I) are derived at
construction; refinement, composition, mirror and quotient all reduce to
language algebra on these three languages.  E_S, M_S and the composite
closed system R are each one pass over one product (`S×S` or `S×S'`),
built by the marked-product helper of `receptive`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SignatureMismatch, ValidationError
from .lang import (
    IoSignature,
    RegularLanguage,
    counterexample,
    is_prefix_closed,
    is_receptive,
    is_subset,
    prefix_closure,
    star_of,
    word_str,
)
from .receptive import _marked_product


@dataclass(frozen=True)
class Incompatible:
    """Composition outcome when the joint closed-system language is empty."""

    reason: str = "empty closed-system language"


@dataclass(frozen=True)
class InterfaceHypercontract:
    """Contract (S, io) with derived maximal environment and implementation."""

    s: RegularLanguage
    io: IoSignature

    def __post_init__(self):
        if self.s.alphabet != self.io.alphabet:
            raise SignatureMismatch("S and signature use different alphabets")
        s = self.s.canonical()
        object.__setattr__(self, "s", s)
        w = counterexample(prefix_closure(s), s)
        if w is not None:
            raise ValidationError(f"S not prefix-closed at witness {word_str(w)}")
        if not s.accepts(()):
            raise ValidationError("S must contain the empty word")
        self._derive()

    @classmethod
    def _trusted(cls, s: RegularLanguage, io: IoSignature) -> "InterfaceHypercontract":
        """Trusted constructor for composition results, whose S is already
        prefix-closed and holds ε: canonicalizes S and derives E_S and M_S."""
        self = object.__new__(cls)
        object.__setattr__(self, "s", s.canonical())
        object.__setattr__(self, "io", io)
        self._derive()
        return self

    def _derive(self) -> None:
        s = self.s
        object.__setattr__(self, "_e", _marked_product(s, s, "E_S", lambda q, r: q, miss=self.io.outputs))
        object.__setattr__(self, "_m", _marked_product(s, s, "M_S", lambda q, r: q, miss=self.io.inputs))

    @property
    def e(self) -> RegularLanguage:
        """E_S, the largest admissible environment language."""
        return self._e  # type: ignore[attr-defined]

    @property
    def m(self) -> RegularLanguage:
        """M_S, the largest admissible implementation language."""
        return self._m  # type: ignore[attr-defined]


def from_s(s: RegularLanguage, io: IoSignature) -> InterfaceHypercontract:
    """Build the contract determined by a prefix-closed S and a signature."""
    return InterfaceHypercontract(s, io)


def is_environment(c: InterfaceHypercontract, lang: RegularLanguage) -> bool:
    """O-receptive, prefix-closed, and O* ⊆ E ⊆ E_S."""
    return _admissible(lang, c.io.outputs, c.e)


def is_implementation(c: InterfaceHypercontract, lang: RegularLanguage) -> bool:
    """I-receptive, prefix-closed, and I* ⊆ M ⊆ M_S."""
    return _admissible(lang, c.io.inputs, c.m)


def _admissible(lang: RegularLanguage, receptive_to: frozenset[str], bound: RegularLanguage) -> bool:
    if lang.alphabet != bound.alphabet:
        return False
    return (
        is_prefix_closed(lang)
        and is_receptive(lang, receptive_to)
        and is_subset(star_of(lang.alphabet, receptive_to), lang)
        and is_subset(lang, bound)
    )


def refines(c1: InterfaceHypercontract, c2: InterfaceHypercontract) -> bool:
    """c1 ≤ c2: every environment of c2 serves c1, every implementation of c1
    serves c2; equivalently E_{S2} ⊆ E_{S1} and M_{S1} ⊆ M_{S2}."""
    if c1.io != c2.io:
        raise SignatureMismatch("refinement needs identical io signatures")
    return is_subset(c2.e, c1.e) and is_subset(c1.m, c2.m)


def compose(
    c1: InterfaceHypercontract, c2: InterfaceHypercontract
) -> InterfaceHypercontract | Incompatible:
    """Parallel composition.

    The composite closed system is
    R = (S ∩ S') \\ [Unc(S', S, O, O') ∪ Unc(S, S', O', O)].  Both Unc terms
    mark pairs of the one product S×S' and close backwards over O ∪ O', so R
    is one marked product whose marked pairs go to a rejecting sink.  S and
    S' hold ε, so R is empty, and reported as Incompatible, exactly when
    ε ∉ R.
    """
    io = c1.io.compose(c2.io)
    o1, o2 = c1.io.outputs, c2.io.outputs
    r = _marked_product(
        c1.s, c2.s, "contract composition", lambda q, r: q and r, escape=o2, escape2=o1, follow=o1 | o2
    )
    if not r.accepts(()):
        return Incompatible()
    return InterfaceHypercontract._trusted(r, io)


def mirror(c: InterfaceHypercontract) -> InterfaceHypercontract:
    """Swap the environment and implementation roles: same S, swapped io."""
    return InterfaceHypercontract._trusted(c.s, c.io.swapped())


def quotient(
    c1: InterfaceHypercontract, c2: InterfaceHypercontract
) -> InterfaceHypercontract | Incompatible:
    """Residual of composition, via the mirror identity mirror(mirror(c1) ∥ c2)."""
    flipped = mirror(c1)
    shared = flipped.io.outputs & c2.io.outputs
    if shared:
        raise SignatureMismatch(
            f"quotient undefined for these signatures (shared outputs after mirror: {sorted(shared)})"
        )
    composed = compose(flipped, c2)
    if isinstance(composed, Incompatible):
        return composed
    return mirror(composed)
