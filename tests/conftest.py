"""Shared fixtures: the two-symbol i/o world used across the suite, and the
compositional MissExt/Unc chains the one-pass closed forms are checked
against."""

from __future__ import annotations

import itertools

import pytest

from hyperc.lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    Word,
    check_same_alphabet,
    concat_sigma_star,
    concat_symbol_class,
    from_words,
    product_map,
    sigma_star,
    star_of,
)


@pytest.fixture
def ab() -> Alphabet:
    return Alphabet(("i", "o"))


@pytest.fixture
def io_i(ab) -> IoSignature:
    return IoSignature(ab, frozenset({"i"}))


@pytest.fixture
def istar(ab) -> RegularLanguage:
    return star_of(ab, {"i"})


@pytest.fixture
def top(ab) -> RegularLanguage:
    return sigma_star(ab)


@pytest.fixture
def iostar(istar) -> RegularLanguage:
    """i* o Σ*: all words containing at least one 'o'."""
    return concat_sigma_star(concat_symbol_class(istar, {"o"}))


def all_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """Every word up to max_len in length-then-lexicographic order."""
    out: list[Word] = []
    for length in range(max_len + 1):
        out.extend(itertools.product(alphabet.symbols, repeat=length))
    return out


def words_of(alphabet: Alphabet, *texts: str) -> list[Word]:
    """Words given as plain strings of single-character symbols."""
    return [tuple(t) for t in texts]


def lang_of(alphabet: Alphabet, *texts: str) -> RegularLanguage:
    return from_words(alphabet, words_of(alphabet, *texts))


# -- references: the compositional chains, independent of the marked product ---


def reference_miss_ext(lang: RegularLanguage, lang2: RegularLanguage, gamma) -> RegularLanguage:
    """(((L ∩ L') ∘ Γ) \\ L') ∘ Σ*, one generic operator at a time."""
    check_same_alphabet(lang, lang2)
    stepped = concat_symbol_class(lang.intersect(lang2), gamma)
    return concat_sigma_star(stepped.difference(lang2))


def reference_unc(lang: RegularLanguage, lang2: RegularLanguage, gamma, delta) -> RegularLanguage:
    """Unc on the product: mark the L ∩ L' pairs with a Γ-successor in L' \\ L,
    close backwards over (Γ∪Δ)-edges by a hand-written search, keep the
    L ∩ L' pairs, then append Σ*."""
    check_same_alphabet(lang, lang2)
    gset = {lang.alphabet.index(s) for s in lang.alphabet.subset(gamma)}
    follow = gset | {lang.alphabet.index(s) for s in lang.alphabet.subset(delta)}
    pairs, rows = product_map(lang, lang2)
    both = [q in lang.accepting and r in lang2.accepting for q, r in pairs]
    escape = [r in lang2.accepting and q not in lang.accepting for q, r in pairs]
    marked = {i for i in range(len(pairs)) if both[i] and any(escape[rows[i][k]] for k in gset)}
    stack = list(marked)
    while stack:
        j = stack.pop()
        for i in range(len(pairs)):
            if i not in marked and any(rows[i][k] == j for k in follow):
                marked.add(i)
                stack.append(i)
    core = RegularLanguage(lang.alphabet, 0, frozenset(i for i in marked if both[i]), rows)
    return concat_sigma_star(core)
