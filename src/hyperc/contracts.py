"""Interface hypercontracts.

A contract is determined by a prefix-closed closed-system language S and an
io signature.  The maximal environment E_S = S ∪ MissExt(S, S, O) and the
maximal implementation M_S = S ∪ MissExt(S, S, I) are each one pass over S's
own canonical rows, made on first read; refinement, composition, mirror and
quotient reduce to language algebra on these three languages.  The composite
closed system R is one marked product S×S' (see `receptive`).
"""

from __future__ import annotations

from functools import cached_property

from .errors import LimitExceeded, SignatureMismatch, ValidationError, Value
from .lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    _ENV_MAX_STATES,
    _canonicalize,
    is_prefix_closed,
    is_receptive,
    is_subset,
    prefix_closure_witness,
    state_cap,
    word_str,
)
from .receptive import _marked_product


class Incompatible(Value):
    """Composition outcome when the joint closed-system language is empty."""

    _fields = ("reason",)

    def __init__(self, reason: str = "empty closed-system language"):
        vars(self).update(reason=reason)


class InterfaceHypercontract(Value):
    """Contract (S, io) with derived maximal environment and implementation.  Operators
    build theirs with `_trusted`, from a canonical S that is prefix-closed and holds ε."""

    _fields = ("s", "io")

    def __init__(self, s: RegularLanguage, io: IoSignature):
        if s.alphabet != io.alphabet:
            raise SignatureMismatch("S and signature use different alphabets")
        s = s.canonical()
        w = prefix_closure_witness(s)
        if w is not None:
            raise ValidationError(f"S not prefix-closed at witness {word_str(w)}")
        if not s.accepts(()):
            raise ValidationError("S must contain the empty word")
        vars(self).update(s=s, io=io)

    def _maximal(self, gamma: frozenset[str], op: str) -> RegularLanguage:
        """S ∪ MissExt(S, S, Γ) in one pass over S's rows: S is prefix-closed, so a Γ-edge
        from accepting to rejecting is a missing extension and goes to ⊤ (accepts Σ*)."""
        s, top, cap = self.s, self.s.n_states, state_cap()
        if top > cap:
            raise LimitExceeded(op, f"{top} states", cap, _ENV_MAX_STATES)
        idx, acc = {s.alphabet.index(x) for x in gamma}, s.accepting
        delta = [
            tuple(top if k in idx and q in acc and t not in acc else t for k, t in enumerate(row))
            for q, row in enumerate(s.delta)
        ] + [(top,) * len(s.alphabet)]
        return _canonicalize(s.alphabet, s.initial, acc | {top}, delta)

    @cached_property
    def e(self) -> RegularLanguage:
        """E_S, the largest admissible environment language."""
        return self._maximal(self.io.outputs, "E_S")

    @cached_property
    def m(self) -> RegularLanguage:
        """M_S, the largest admissible implementation language."""
        return self._maximal(self.io.inputs, "M_S")


def from_s(s: RegularLanguage, io: IoSignature) -> InterfaceHypercontract:
    """Build the contract determined by a prefix-closed S and a signature."""
    return InterfaceHypercontract(s, io)


def is_environment(c: InterfaceHypercontract, lang: RegularLanguage) -> bool:
    """O-receptive, prefix-closed, and O* ⊆ E ⊆ E_S."""
    return _admissible(lang, c.io.alphabet, c.io.outputs) and is_subset(lang, c.e)


def is_implementation(c: InterfaceHypercontract, lang: RegularLanguage) -> bool:
    """I-receptive, prefix-closed, and I* ⊆ M ⊆ M_S."""
    return _admissible(lang, c.io.alphabet, c.io.inputs) and is_subset(lang, c.m)


def _admissible(lang: RegularLanguage, alphabet: Alphabet, receptive_to: frozenset[str]) -> bool:
    """All but the bound, which callers test last, so E_S or M_S is derived only if needed."""
    return (
        lang.alphabet == alphabet
        and is_prefix_closed(lang)
        and is_receptive(lang, receptive_to)
        and lang.accepts(())  # receptive, so receptive_to* ⊆ L exactly when ε ∈ L
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
