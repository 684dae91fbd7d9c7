"""The Heyting algebra of receptive languages, with cross-signature
composition and quotient.

A language is I-receptive when it is prefix-closed and closed under
extension by input words.  Within one signature the receptive languages
form a Heyting algebra (meet/join/exponential); across signatures they
compose by intersection and divide by the residual of composition.
MissExt, Unc and the closed forms built from them (the exponential, the
quotient, and R in `contracts`) are one pass over one product.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import QuotientUndefined, SignatureMismatch, ValidationError, Value
from .lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    _canonicalize,
    close_backward,
    concat_symbol_class,
    counterexample,
    is_receptive,
    prefix_closure_witness,
    product_map,
    star_of,
    word_str,
)


class ReceptiveLanguage(Value):
    """A prefix-closed, input-receptive language together with its signature.  Operators
    build theirs with `_trusted`, from a canonical language receptive by construction."""

    _fields = ("lang", "io")

    def __init__(self, lang: RegularLanguage, io: IoSignature):
        if lang.alphabet != io.alphabet:
            raise SignatureMismatch("language and signature use different alphabets")
        lang = lang.canonical()
        w = prefix_closure_witness(lang)
        if w is not None:
            raise ValidationError(f"not prefix-closed at witness {word_str(w)}")
        if not is_receptive(lang, io.inputs):
            w = counterexample(concat_symbol_class(lang, io.inputs), lang)
            raise ValidationError(f"not receptive at witness {word_str(w)}")
        if not lang.accepts(()):  # L is I-receptive, so I* ⊆ L exactly when ε ∈ L
            raise ValidationError("language does not contain the bottom language I*")
        vars(self).update(lang=lang, io=io)

    @property
    def alphabet(self) -> Alphabet:
        return self.io.alphabet

    def accepts(self, word) -> bool:
        return self.lang.accepts(word)


def bottom(io: IoSignature) -> ReceptiveLanguage:
    """Least element of the lattice: I*."""
    return ReceptiveLanguage._trusted(star_of(io.alphabet, io.inputs), io)


def top(io: IoSignature) -> ReceptiveLanguage:
    """Greatest element of the lattice: Σ*."""
    return ReceptiveLanguage._trusted(star_of(io.alphabet, io.alphabet.symbols), io)


def _require_same_io(a: ReceptiveLanguage, b: ReceptiveLanguage) -> None:
    if a.io != b.io:
        raise SignatureMismatch(f"signature mismatch: {a.io} vs {b.io}")


def meet(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    _require_same_io(a, b)
    return ReceptiveLanguage._trusted(a.lang.intersect(b.lang), a.io)


def join(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    _require_same_io(a, b)
    return ReceptiveLanguage._trusted(a.lang.union(b.lang), a.io)


# -- the one-pass closed forms -------------------------------------------------


def _marked_product(
    lang: RegularLanguage, lang2: RegularLanguage, op: str, accept: Callable[[bool, bool], bool], *,
    miss: Iterable[str] = (), escape: Iterable[str] = (), escape2: Iterable[str] = (),
    follow: Iterable[str] = (),
) -> RegularLanguage:
    """One product L×L′ plus ⊤ (accepting, loops on Σ).

    A pair is marked when it lies in L∩L′ and reaches, over `follow` edges
    through any pairs, an L∩L′ pair with an `escape` edge into L′\\L or an
    `escape2` edge into L\\L′.  A marked pair rejects and has no transitions,
    so it is ⊥, the rejecting sink of a missing transition; the `miss` edges
    from an L∩L′ pair into a pair outside L′ go to ⊤, and every other pair
    (q, r) accepts by `accept(q ∈ L, r ∈ L′)`.  `op` names the operation.
    """
    alphabet = lang.alphabet
    pairs, rows = product_map(lang, lang2, op)
    n, nsym = len(pairs), len(alphabet)
    kind = [(q in lang.accepting, r in lang2.accepting) for q, r in pairs]
    both = [k == (True, True) for k in kind]
    escapes = [(alphabet.index(s), (False, True)) for s in escape]
    escapes += [(alphabet.index(s), (True, False)) for s in escape2]
    seeds = [i for i, row in enumerate(rows) if both[i] and any(kind[row[k]] == to for k, to in escapes)]
    marked = {i for i in close_backward(rows, seeds, map(alphabet.index, follow)) if both[i]}
    miss_idx = {alphabet.index(s) for s in miss}
    top = n
    delta = [
        (None,) * nsym if i in marked
        else tuple(top if both[i] and k in miss_idx and not kind[t][1] else t for k, t in enumerate(row))
        for i, row in enumerate(rows)
    ] + [(top,) * nsym]
    accepting = {i for i in range(n) if i not in marked and accept(*kind[i])} | {top}
    return _canonicalize(alphabet, 0, accepting, delta)


def miss_ext(lang: RegularLanguage, lang2: RegularLanguage, gamma: Iterable[str]) -> RegularLanguage:
    """Missing Γ-extensions of L' with respect to L: (((L ∩ L') ∘ Γ) \\ L') ∘ Σ*.

    On the product, a Γ-edge from an L ∩ L' pair into a pair outside L' goes
    to ⊤, the only accepting state."""
    return _marked_product(lang, lang2, "MissExt", lambda q, r: False, miss=gamma)


def unc(
    lang: RegularLanguage,
    lang2: RegularLanguage,
    gamma: Iterable[str],
    delta: Iterable[str],
) -> RegularLanguage:
    """Uncontrollable extensions of L ∩ L'.

    Words w of L ∩ L' from which some continuation w' ∈ (Γ∪Δ)* followed by a
    symbol of Γ lands in L' \\ L, extended by Σ*.  Computed on the product
    automaton: mark states with a Γ-successor in L' \\ L and close backwards
    over (Γ∪Δ)-labeled edges.  The product whose marked L ∩ L' states are ⊥
    and whose every other state accepts holds the words that never reach a
    marked state, so Unc is its complement.
    """
    gamma = tuple(gamma)
    never_marked = _marked_product(lang, lang2, "Unc", lambda q, r: True, escape=gamma, follow=gamma + tuple(delta))
    return never_marked.complement()


# -- Heyting structure ---------------------------------------------------------


def exponential(target: ReceptiveLanguage, other: ReceptiveLanguage) -> ReceptiveLanguage:
    """The exponential L' → L: right adjoint of the meet, in closed form
    L ∪ MissExt(L, L', O)."""
    _require_same_io(target, other)
    closed = _marked_product(target.lang, other.lang, "exponential", lambda q, r: q, miss=target.io.outputs)
    return ReceptiveLanguage._trusted(closed, target.io)


def exponential_definitional(target: ReceptiveLanguage, other: ReceptiveLanguage) -> RegularLanguage:
    """Defining set of the exponential, computed directly: the words none of
    whose prefixes lie in L' \\ L.  Independent cross-check of `exponential`."""
    _require_same_io(target, other)
    lang, lang2 = target.lang, other.lang
    pairs, rows = product_map(lang, lang2)
    # A bad pair rejects and has no transitions: it is the rejecting sink.
    bad = [r in lang2.accepting and q not in lang.accepting for q, r in pairs]
    delta = [(None,) * len(row) if bad[i] else row for i, row in enumerate(rows)]
    return _canonicalize(lang.alphabet, 0, {i for i, b in enumerate(bad) if not b}, delta)


# -- composition and quotient ---------------------------------------------------


def compose(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    """Cross-signature composition: intersection re-signed to (I∩I', O∪O')."""
    io = a.io.compose(b.io)
    return ReceptiveLanguage._trusted(a.lang.intersect(b.lang), io)


def quotient_signature(io: IoSignature, io2: IoSignature) -> IoSignature:
    """Signature of L / L': inputs I_r = I ∪ O', defined when I ⊆ I'."""
    if io.alphabet != io2.alphabet:
        raise SignatureMismatch("operands use different alphabets")
    if not io.inputs <= io2.inputs:
        raise SignatureMismatch(
            f"quotient requires the dividend's inputs inside the divisor's: {io} vs {io2}"
        )
    return IoSignature._trusted(io.alphabet, io.inputs | io2.outputs)


def quotient(a: ReceptiveLanguage, b: ReceptiveLanguage) -> ReceptiveLanguage:
    """Residual of composition: the largest L'' with L'' × L' ⊆ L.

    Closed form (L ∩ L' ∪ MissExt(L, L', O')) \\ Unc(L, L', O', I), defined
    when L' ∩ I_r* ⊆ L.
    """
    io_r = quotient_signature(a.io, b.io)
    w = counterexample(b.lang, a.lang, over=io_r.inputs)
    if w is not None:
        raise QuotientUndefined(f"quotient undefined: L' ∩ I_r* ⊄ L at witness {word_str(w)}")
    # L' is prefix-closed, so no word past a MissExt edge is back in L ∩ L'
    # and ⊤ may absorb it.
    o2 = b.io.outputs
    result = _marked_product(
        a.lang, b.lang, "receptive quotient", lambda q, r: q and r, miss=o2, escape=o2, follow=o2 | a.io.inputs
    )
    return ReceptiveLanguage._trusted(result, io_r)


def embed(a: ReceptiveLanguage, inputs: Iterable[str]) -> ReceptiveLanguage:
    """Reinterpret under a smaller input set (the embedding ι)."""
    new = a.alphabet.subset(inputs)
    if not new <= a.io.inputs:
        raise SignatureMismatch("embedding must shrink the input set")
    return ReceptiveLanguage._trusted(a.lang, IoSignature._trusted(a.alphabet, new))
