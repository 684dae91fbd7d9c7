"""The Heyting algebra of receptive languages, with cross-signature
composition and quotient.

A language is I-receptive when it is prefix-closed and closed under
extension by input words.  Within one signature the receptive languages
form a Heyting algebra (meet/join/exponential); across signatures they
compose by intersection and divide by the residual of composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import QuotientUndefined, SignatureMismatch, ValidationError
from .lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    check_same_alphabet,
    concat_sigma_star,
    concat_symbol_class,
    counterexample,
    is_subset,
    prefix_closure,
    product_map,
    star_of,
    word_str,
)


@dataclass(frozen=True)
class ReceptiveLanguage:
    """A prefix-closed, input-receptive language together with its signature."""

    lang: RegularLanguage
    io: IoSignature

    def __post_init__(self):
        if self.lang.alphabet != self.io.alphabet:
            raise SignatureMismatch("language and signature use different alphabets")
        object.__setattr__(self, "lang", self.lang.canonical())
        w = counterexample(prefix_closure(self.lang), self.lang)
        if w is not None:
            raise ValidationError(f"not prefix-closed at witness {word_str(w)}")
        w = counterexample(concat_symbol_class(self.lang, self.io.inputs), self.lang)
        if w is not None:
            raise ValidationError(f"not receptive at witness {word_str(w)}")
        if not is_subset(star_of(self.io.alphabet, self.io.inputs), self.lang):
            raise ValidationError("language does not contain the bottom language I*")

    @property
    def alphabet(self) -> Alphabet:
        return self.io.alphabet

    def accepts(self, word) -> bool:
        return self.lang.accepts(word)


def bottom(io: IoSignature) -> ReceptiveLanguage:
    """Least element of the lattice: I*."""
    return ReceptiveLanguage(star_of(io.alphabet, io.inputs), io)


def top(io: IoSignature) -> ReceptiveLanguage:
    """Greatest element of the lattice: Σ*."""
    return ReceptiveLanguage(star_of(io.alphabet, io.alphabet.symbols), io)


def _require_same_io(a: ReceptiveLanguage, b: ReceptiveLanguage) -> None:
    if a.io != b.io:
        raise SignatureMismatch(f"signature mismatch: {a.io} vs {b.io}")


def meet(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    _require_same_io(a, b)
    return ReceptiveLanguage(a.lang.intersect(b.lang), a.io)


def join(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    _require_same_io(a, b)
    return ReceptiveLanguage(a.lang.union(b.lang), a.io)


def leq(a: ReceptiveLanguage, b: ReceptiveLanguage) -> bool:
    _require_same_io(a, b)
    return is_subset(a.lang, b.lang)


# -- the two workhorse operators ---------------------------------------------


def miss_ext(lang: RegularLanguage, lang2: RegularLanguage, gamma: Iterable[str]) -> RegularLanguage:
    """Missing Γ-extensions of L' with respect to L: (((L ∩ L') ∘ Γ) \\ L') ∘ Σ*."""
    check_same_alphabet(lang, lang2)
    stepped = concat_symbol_class(lang.intersect(lang2), gamma)
    return concat_sigma_star(stepped.difference(lang2))


def unc(
    lang: RegularLanguage,
    lang2: RegularLanguage,
    gamma: Iterable[str],
    delta: Iterable[str],
) -> RegularLanguage:
    """Uncontrollable extensions of L ∩ L'.

    Words w of L ∩ L' from which some continuation w' ∈ (Γ∪Δ)* followed by a
    symbol of Γ lands in L' \\ L, extended by Σ*.  Computed on the product
    automaton: mark states with a Γ-successor in L' \\ L, close backwards over
    (Γ∪Δ)-labeled edges, keep the L ∩ L' states, then append Σ*.
    """
    check_same_alphabet(lang, lang2)
    gset = {lang.alphabet.index(s) for s in lang.alphabet.subset(gamma)}
    dset = {lang.alphabet.index(s) for s in lang.alphabet.subset(delta)}
    pairs, rows = product_map(lang, lang2)
    n = len(pairs)
    both = [q in lang.accepting and r in lang2.accepting for q, r in pairs]
    escape = [r in lang2.accepting and q not in lang.accepting for q, r in pairs]
    marked = {
        i
        for i in range(n)
        if both[i] and any(escape[rows[i][k]] for k in gset)
    }
    follow = gset | dset
    rev: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for k in follow:
            rev[rows[i][k]].append(i)
    stack = list(marked)
    while stack:
        j = stack.pop()
        for i in rev[j]:
            if i not in marked:
                marked.add(i)
                stack.append(i)
    accepting = frozenset(i for i in marked if both[i])
    core = RegularLanguage(lang.alphabet, 0, accepting, tuple(rows))
    return concat_sigma_star(core)


# -- Heyting structure ---------------------------------------------------------


def exponential(target: ReceptiveLanguage, other: ReceptiveLanguage) -> ReceptiveLanguage:
    """The exponential L' → L: right adjoint of the meet, in closed form
    L ∪ MissExt(L, L', O)."""
    _require_same_io(target, other)
    closed = target.lang.union(miss_ext(target.lang, other.lang, target.io.outputs))
    return ReceptiveLanguage(closed, target.io)


def exponential_definitional(target: ReceptiveLanguage, other: ReceptiveLanguage) -> RegularLanguage:
    """Defining set of the exponential, computed directly: the words none of
    whose prefixes lie in L' \\ L.  Independent cross-check of `exponential`."""
    _require_same_io(target, other)
    lang, lang2 = target.lang, other.lang
    pairs, rows = product_map(lang, lang2)
    n = len(pairs)
    bad = [r in lang2.accepting and q not in lang.accepting for q, r in pairs]
    nsym = len(lang.alphabet)
    dead = n
    delta = tuple(
        tuple(dead if bad[rows[i][k]] else rows[i][k] for k in range(nsym)) for i in range(n)
    ) + ((dead,) * nsym,)
    accepting = frozenset(i for i in range(n) if not bad[i]) if not bad[0] else frozenset()
    initial = dead if bad[0] else 0
    return RegularLanguage(lang.alphabet, initial, accepting, delta).canonical()


# -- composition and quotient ---------------------------------------------------


def compose(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    """Cross-signature composition: intersection re-signed to (I∩I', O∪O')."""
    if a.alphabet != b.alphabet:
        raise SignatureMismatch("operands use different alphabets")
    if a.io.outputs & b.io.outputs:
        raise SignatureMismatch(
            f"shared outputs: {sorted(a.io.outputs & b.io.outputs)}"
        )
    io = IoSignature(a.alphabet, a.io.inputs & b.io.inputs)
    return ReceptiveLanguage(a.lang.intersect(b.lang), io)


def quotient_signature(io: IoSignature, io2: IoSignature) -> IoSignature:
    """Signature of L / L': inputs I_r = I ∪ O', defined when I ⊆ I'."""
    if io.alphabet != io2.alphabet:
        raise SignatureMismatch("operands use different alphabets")
    if not io.inputs <= io2.inputs:
        raise SignatureMismatch(
            f"quotient requires the dividend's inputs inside the divisor's: {io} vs {io2}"
        )
    return IoSignature(io.alphabet, io.inputs | io2.outputs)


def quotient(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    """Residual of composition: the largest L'' with L'' × L' ⊆ L.

    Closed form (L ∩ L' ∪ MissExt(L, L', O')) \\ Unc(L, L', O', I), defined
    when L' ∩ I_r* ⊆ L.
    """
    io_r = quotient_signature(a.io, b.io)
    w = counterexample(b.lang.intersect(star_of(a.alphabet, io_r.inputs)), a.lang)
    if w is not None:
        raise QuotientUndefined(f"quotient undefined: L' ∩ I_r* ⊄ L at witness {word_str(w)}")
    kept = a.lang.intersect(b.lang).union(miss_ext(a.lang, b.lang, b.io.outputs))
    result = kept.difference(unc(a.lang, b.lang, b.io.outputs, a.io.inputs))
    return ReceptiveLanguage(result, io_r)


def embed(a: ReceptiveLanguage, inputs: Iterable[str]) -> ReceptiveLanguage:
    """Reinterpret under a smaller input set (the embedding ι)."""
    new = a.alphabet.subset(inputs)
    if not new <= a.io.inputs:
        raise SignatureMismatch("embedding must shrink the input set")
    return ReceptiveLanguage(a.lang, IoSignature(a.alphabet, new))
