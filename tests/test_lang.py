"""Regular-language substrate: boolean algebra, concatenations, canonical forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_words, lang_of
from hyperc.errors import AlphabetMismatch, HypercError, LimitExceeded
from hyperc.lang import (
    Alphabet,
    RegularLanguage,
    _canonicalize,
    boolean_op,
    concat_sigma_star,
    concat_symbol_class,
    counterexample,
    empty_language,
    enumerate_words,
    from_words,
    is_prefix_closed,
    is_receptive,
    is_subset,
    prefix_closure,
    product_map,
    sigma_star,
    star_of,
    state_cap,
    word_str,
)


@st.composite
def dfas(draw, alphabet: Alphabet, max_states: int = 5) -> RegularLanguage:
    n = draw(st.integers(1, max_states))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet.symbols) for _ in range(n)
    )
    accepting = frozenset(q for q in range(n) if draw(st.booleans()))
    return RegularLanguage(alphabet, 0, accepting, delta)


AB2 = Alphabet(("i", "o"))
AB3 = Alphabet(("a", "b", "c"))
ALPHABETS = [Alphabet(tuple("abcd"[:k])) for k in range(1, 5)]


@st.composite
def raw_dfas(draw, alphabet: Alphabet, max_states: int = 40) -> RegularLanguage:
    """Unminimized DFAs: a random initial state leaves some states
    unreachable, and up to three copies of the automaton, with each edge
    led into a random copy, give many equivalent states."""
    n = draw(st.integers(1, max_states))
    k = len(alphabet)
    targets = draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    initial = draw(st.integers(0, n - 1))
    copies = draw(st.integers(1, 3))
    edges = n * k * copies
    into = draw(st.lists(st.integers(0, copies - 1), min_size=edges, max_size=edges))
    delta = [
        [into[(c * n + q) * k + j] * n + targets[q * k + j] for j in range(k)]
        for c in range(copies)
        for q in range(n)
    ]
    return RegularLanguage(
        alphabet, initial, frozenset(c * n + q for c in range(copies) for q in accepting), delta
    )


@st.composite
def raw_dfa_pairs(draw) -> tuple[RegularLanguage, RegularLanguage]:
    alphabet = draw(st.sampled_from(ALPHABETS))
    return draw(raw_dfas(alphabet)), draw(raw_dfas(alphabet))


def reference_moore(lang: RegularLanguage) -> tuple[frozenset[int], tuple[tuple[int, ...], ...]]:
    """Straightforward Moore refinement over state dicts: the reference the
    column-wise `_canonicalize` must reproduce exactly."""
    nsym = len(lang.alphabet)
    order = [lang.initial]
    seen = {lang.initial}
    for q in order:
        for k in range(nsym):
            t = lang.delta[q][k]
            if t not in seen:
                seen.add(t)
                order.append(t)
    block = {q: (1 if q in lang.accepting else 0) for q in order}
    nblocks = len(set(block.values()))
    while True:
        sigs: dict[tuple, int] = {}
        nxt: dict[int, int] = {}
        for q in order:
            sig = (block[q],) + tuple(block[lang.delta[q][k]] for k in range(nsym))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt[q] = sigs[sig]
        block = nxt
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    rep: dict[int, int] = {}
    for q in order:
        rep.setdefault(block[q], q)
    bfs = [block[lang.initial]]
    idx = {block[lang.initial]: 0}
    for b in bfs:
        q = rep[b]
        for k in range(nsym):
            tb = block[lang.delta[q][k]]
            if tb not in idx:
                idx[tb] = len(bfs)
                bfs.append(tb)
    delta = tuple(tuple(idx[block[lang.delta[rep[b]][k]]] for k in range(nsym)) for b in bfs)
    accepting = frozenset(idx[b] for b in bfs if rep[b] in lang.accepting)
    return accepting, delta


class TestBooleanOps:
    def test_intersect_with_top_is_identity(self, istar, top):
        assert istar.intersect(top) == istar

    def test_excluded_middle(self, istar, top):
        assert istar.union(istar.complement()) == top

    def test_difference_top_istar_is_contains_o(self, ab, istar, top, iostar):
        diff = top.difference(istar)
        expected = [w for w in all_words(ab, 4) if "o" in w]
        assert [w for w in all_words(ab, 4) if diff.accepts(w)] == expected
        assert diff == iostar

    def test_alphabet_mismatch(self, istar):
        other = sigma_star(AB3)
        with pytest.raises(AlphabetMismatch, match="alphabet mismatch"):
            istar.union(other)

    def test_dispatch(self, istar, top):
        assert boolean_op("union", istar, top) == top
        assert boolean_op("complement", istar) == top.difference(istar)
        with pytest.raises(ValueError):
            boolean_op("complement", istar, top)
        with pytest.raises(ValueError):
            boolean_op("union", istar)

    @settings(max_examples=60, deadline=None)
    @given(a=dfas(AB3), b=dfas(AB3), data=st.data())
    def test_membership_matches_set_operation(self, a, b, data):
        kind = data.draw(st.sampled_from(["union", "intersect", "difference"]))
        result = boolean_op(kind, a, b)
        pick = {"union": lambda x, y: x or y,
                "intersect": lambda x, y: x and y,
                "difference": lambda x, y: x and not y}[kind]
        for w in all_words(AB3, 4):
            assert result.accepts(w) == pick(a.accepts(w), b.accepts(w))

    @settings(max_examples=40, deadline=None)
    @given(a=dfas(AB2))
    def test_complement_membership(self, a):
        c = a.complement()
        for w in all_words(AB2, 5):
            assert c.accepts(w) != a.accepts(w)


class TestConcatSymbolClass:
    def test_epsilon_concat(self, ab):
        assert concat_symbol_class(lang_of(ab, ""), {"i"}) == lang_of(ab, "i")

    def test_istar_concat_o(self, ab, istar):
        result = concat_symbol_class(istar, {"o"})
        assert enumerate_words(result, 4) == [tuple("i" * k) + ("o",) for k in range(4)]

    def test_empty_class(self, ab, istar):
        assert concat_symbol_class(istar, ()) == empty_language(ab)

    def test_unknown_symbol_rejected(self, istar):
        with pytest.raises(AlphabetMismatch):
            concat_symbol_class(istar, {"z"})


class TestConcatSigmaStar:
    def test_empty(self, ab):
        assert concat_sigma_star(empty_language(ab)) == empty_language(ab)

    def test_epsilon(self, ab, top):
        assert concat_sigma_star(lang_of(ab, "")) == top

    def test_single_word(self, ab, iostar):
        result = concat_sigma_star(lang_of(ab, "io"))
        expected = [w for w in all_words(ab, 4) if w[:2] == ("i", "o")]
        assert [w for w in all_words(ab, 4) if result.accepts(w)] == expected

    def test_smallest_suffix_closed_superset(self, ab, istar, iostar):
        # contains the base language and is closed under one-symbol extension
        result = concat_sigma_star(iostar)
        assert is_subset(iostar, result)
        for w in all_words(ab, 3):
            if result.accepts(w):
                assert result.accepts(w + ("i",)) and result.accepts(w + ("o",))


class TestPrefixClosure:
    def test_single_word(self, ab):
        assert prefix_closure(lang_of(ab, "io")) == lang_of(ab, "", "i", "io")

    def test_already_closed(self, istar):
        assert prefix_closure(istar) == istar

    def test_iostar_closes_to_top(self, iostar, top):
        assert prefix_closure(iostar) == top


class TestDecisions:
    def test_subset_basics(self, istar, top):
        assert is_subset(istar, top)
        assert not is_subset(top, istar)

    def test_subset_derived(self, ab, istar):
        small = lang_of(ab, "", "o")
        big = istar.union(lang_of(ab, "o"))
        assert is_subset(small, big)

    def test_prefix_closed(self, ab, istar):
        assert is_prefix_closed(istar)
        assert not is_prefix_closed(lang_of(ab, "io"))
        assert is_prefix_closed(istar.union(lang_of(ab, "o")))

    def test_receptive(self, ab, istar, top):
        assert is_receptive(istar, {"i"})
        assert not is_receptive(lang_of(ab, "", "o"), {"i"})
        assert is_receptive(top, {"i", "o"})

    @settings(max_examples=40, deadline=None)
    @given(a=dfas(AB2), b=dfas(AB2), c=dfas(AB2))
    def test_subset_transitive(self, a, b, c):
        if is_subset(a, b) and is_subset(b, c):
            assert is_subset(a, c)


class TestCanonical:
    def test_two_dfas_for_istar_agree(self, ab, istar):
        verbose = RegularLanguage(
            ab, 0, frozenset({0, 1}),
            ((1, 2), (0, 2), (2, 2)),
        )
        assert verbose.canonical().canonical_key() == istar.canonical_key()

    def test_unreachable_states_dropped(self, ab):
        noisy = RegularLanguage(ab, 0, frozenset({0, 2}), ((0, 0), (2, 2), (1, 1)))
        assert noisy.canonical().n_states == 1

    def test_top_product_is_one_state(self, top):
        c = top.intersect(top).canonical()
        assert c.n_states == 1 and c.accepting == frozenset({0})

    @settings(max_examples=60, deadline=None)
    @given(a=dfas(AB3))
    def test_idempotent_and_language_preserving(self, a):
        c = a.canonical()
        assert c.canonical() is c
        for w in all_words(AB3, 4):
            assert c.accepts(w) == a.accepts(w)


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference_moore(self, data):
        a = data.draw(raw_dfas(data.draw(st.sampled_from(ALPHABETS))))
        c = _canonicalize(a)
        assert c.initial == 0
        assert (c.accepting, c.delta) == reference_moore(a)

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_one_state_and_empty(self, alphabet):
        k = len(alphabet)
        for accepting in (frozenset(), frozenset({0})):
            c = _canonicalize(RegularLanguage(alphabet, 0, accepting, ((0,) * k,)))
            assert (c.accepting, c.delta) == (accepting, ((0,) * k,))
        # A 3-state automaton with no accepting state is the 1-state empty language.
        empty = RegularLanguage(alphabet, 2, frozenset(), ((1,) * k, (2,) * k, (0,) * k))
        c = _canonicalize(empty)
        assert (c.accepting, c.delta) == reference_moore(empty) == (frozenset(), ((0,) * k,))


class TestCounterexample:
    @settings(max_examples=200, deadline=None)
    @given(pair=raw_dfa_pairs())
    def test_matches_full_product_and_difference(self, pair):
        a, b = pair
        pairs, _rows = product_map(a, b)
        bad = any(q in a.accepting and r not in b.accepting for q, r in pairs)
        w = counterexample(a, b)
        assert (w is None) == (not bad) == is_subset(a, b)
        assert w == a.difference(b).shortest_member()
        if w is not None:
            assert a.accepts(w) and not b.accepts(w)

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_one_state_and_empty(self, alphabet):
        top, empty = sigma_star(alphabet), empty_language(alphabet)
        assert counterexample(top, empty) == ()
        assert counterexample(empty, top) is None
        assert counterexample(empty, empty) is None
        assert counterexample(top, top) is None
        last = alphabet.symbols[-1]
        assert counterexample(top, star_of(alphabet, alphabet.symbols[:-1])) == (last,)

    def test_alphabet_mismatch(self, istar):
        with pytest.raises(AlphabetMismatch):
            counterexample(istar, sigma_star(AB3))


class TestStateCap:
    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("HYPERC_MAX_STATES", raising=False)
        assert state_cap() == 10_000
        monkeypatch.setenv("HYPERC_MAX_STATES", "")
        assert state_cap() == 10_000
        monkeypatch.setenv("HYPERC_MAX_STATES", "7")
        assert state_cap() == 7

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "1.5"])
    def test_malformed_value_rejected(self, monkeypatch, istar, top, raw):
        monkeypatch.setenv("HYPERC_MAX_STATES", raw)
        with pytest.raises(HypercError, match=f"HYPERC_MAX_STATES .*{raw!r}"):
            state_cap()
        with pytest.raises(HypercError, match="HYPERC_MAX_STATES"):
            is_subset(istar, top)

    def test_cap_bounds_exploration(self, monkeypatch, ab, istar, iostar):
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        with pytest.raises(LimitExceeded, match="state cap 1"):
            product_map(istar, iostar)
        with pytest.raises(LimitExceeded, match="state cap 1"):
            counterexample(istar, sigma_star(ab))
        # The witness ε lies at the initial pair, before any pair is added.
        assert counterexample(istar, iostar) == ()


class TestEnumerate:
    def test_istar(self, istar):
        assert enumerate_words(istar, 2) == [(), ("i",), ("i", "i")]

    def test_empty(self, ab):
        assert enumerate_words(empty_language(ab), 3) == []

    def test_iostar(self, iostar):
        assert enumerate_words(iostar, 2) == [("o",), ("i", "o"), ("o", "i"), ("o", "o")]

    def test_limit(self, istar):
        with pytest.raises(LimitExceeded):
            enumerate_words(istar, 9)
        with pytest.raises(ValueError):
            enumerate_words(istar, -1)


class TestHelpers:
    def test_word_str(self):
        assert word_str(()) == "ε"
        assert word_str(("i", "o")) == "io"
        assert word_str(("in", "out")) == "in.out"

    def test_star_of_empty_subset(self, ab):
        assert star_of(ab, ()) == from_words(ab, [()])

    def test_shortest_member(self, ab, iostar):
        assert iostar.shortest_member() == ("o",)
        assert empty_language(ab).shortest_member() is None

    def test_alphabet_validation(self):
        with pytest.raises(AlphabetMismatch):
            Alphabet(())
        with pytest.raises(AlphabetMismatch):
            Alphabet(("a", "a"))
