"""Interface hypercontracts.

A contract is determined by a prefix-closed closed-system language S and an
io signature.  The maximal environment E_S = S ∪ MissExt(S, S, O) and the
maximal implementation M_S = S ∪ MissExt(S, S, I) are derived at
construction; refinement, composition, mirror and quotient all reduce to
language algebra on these three languages.
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
from .receptive import miss_ext, unc


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
        e = s.union(miss_ext(s, s, self.io.outputs))
        m = s.union(miss_ext(s, s, self.io.inputs))
        object.__setattr__(self, "_e", e)
        object.__setattr__(self, "_m", m)
        # Structural facts about the construction; cheap to keep honest.
        assert e.intersect(m) == s
        assert is_receptive(e, self.io.outputs) and is_prefix_closed(e)
        assert is_receptive(m, self.io.inputs) and is_prefix_closed(m)

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
    if lang.alphabet != c.io.alphabet:
        return False
    return (
        is_prefix_closed(lang)
        and is_receptive(lang, c.io.outputs)
        and is_subset(star_of(c.io.alphabet, c.io.outputs), lang)
        and is_subset(lang, c.e)
    )


def is_implementation(c: InterfaceHypercontract, lang: RegularLanguage) -> bool:
    """I-receptive, prefix-closed, and I* ⊆ M ⊆ M_S."""
    if lang.alphabet != c.io.alphabet:
        return False
    return (
        is_prefix_closed(lang)
        and is_receptive(lang, c.io.inputs)
        and is_subset(star_of(c.io.alphabet, c.io.inputs), lang)
        and is_subset(lang, c.m)
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
    R = (S ∩ S') \\ [Unc(S', S, O, O') ∪ Unc(S, S', O', O)];
    an empty R cannot carry a contract (ε ∉ R) and is reported as
    Incompatible.
    """
    if c1.io.alphabet != c2.io.alphabet:
        raise SignatureMismatch("operands use different alphabets")
    shared = c1.io.outputs & c2.io.outputs
    if shared:
        raise SignatureMismatch(f"shared outputs: {sorted(shared)}")
    o1, o2 = c1.io.outputs, c2.io.outputs
    # Each Unc term is extended by Σ*, so it holds ε only when it is all of
    # Σ*; S and S' both hold ε.  Hence R is empty exactly when one of the
    # terms holds ε, and otherwise ε ∈ R.
    unc1 = unc(c2.s, c1.s, o1, o2)
    if unc1.accepts(()):
        return Incompatible()
    unc2 = unc(c1.s, c2.s, o2, o1)
    if unc2.accepts(()):
        return Incompatible()
    r = c1.s.intersect(c2.s).difference(unc1.union(unc2))
    return InterfaceHypercontract(r, IoSignature(c1.io.alphabet, c1.io.inputs & c2.io.inputs))


def mirror(c: InterfaceHypercontract) -> InterfaceHypercontract:
    """Swap the environment and implementation roles: same S, swapped io."""
    return InterfaceHypercontract(c.s, c.io.swapped())


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
