"""Regular-language substrate: boolean algebra, concatenations, canonical forms."""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import hyperc.lang
import hyperc.receptive
from conftest import all_words, lang_of
from hyperc.contracts import from_s, is_environment, is_implementation
from hyperc.errors import AlphabetMismatch, HypercError, LimitExceeded, ValidationError
from hyperc.lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    _canonicalize,
    close_backward,
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
from hyperc.receptive import ReceptiveLanguage, miss_ext


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
def raw_dfa_pairs(draw, max_states: int = 40) -> tuple[RegularLanguage, RegularLanguage]:
    alphabet = draw(st.sampled_from(ALPHABETS))
    return draw(raw_dfas(alphabet, max_states)), draw(raw_dfas(alphabet, max_states))


@st.composite
def mostly_closed_dfas(draw, alphabet: Alphabet | None = None) -> tuple[RegularLanguage, frozenset[str]]:
    """A raw DFA (see raw_dfas) and an input set I.  The DFA is kept as drawn,
    or some of its edges (never its I-edges, in the receptive mode) are led
    to a new rejecting sink and every other state accepts, so that L is
    prefix-closed (and I-receptive); then one more state other than the
    initial one may reject, which breaks both unless it is unreachable."""
    alphabet = alphabet or draw(st.sampled_from(ALPHABETS))
    lang = draw(raw_dfas(alphabet, max_states=12))
    inputs = frozenset(draw(st.sets(st.sampled_from(alphabet.symbols))))
    mode = draw(st.sampled_from(("raw", "prefix-closed", "receptive")))
    if mode == "raw":
        return lang, inputs
    n, k = lang.n_states, len(alphabet)
    keep = [mode == "receptive" and s in inputs for s in alphabet.symbols]
    cut = draw(st.lists(st.integers(0, 3), min_size=n * k, max_size=n * k))
    delta = [
        [n if cut[q * k + j] == 0 and not keep[j] else t for j, t in enumerate(row)]
        for q, row in enumerate(lang.delta)
    ] + [[n] * k]
    rejecting = {n} | draw(st.sets(st.integers(0, n - 1), max_size=1)) - {lang.initial}
    return RegularLanguage(alphabet, lang.initial, frozenset(range(n + 1)) - rejecting, delta), inputs


def reference_receptive_error(lang: RegularLanguage, io: IoSignature) -> str | None:
    """The ReceptiveLanguage checks as product chains, with their messages."""
    lang = lang.canonical()
    w = counterexample(prefix_closure(lang), lang)
    if w is not None:
        return f"not prefix-closed at witness {word_str(w)}"
    w = counterexample(concat_symbol_class(lang, io.inputs), lang)
    if w is not None:
        return f"not receptive at witness {word_str(w)}"
    if not is_subset(star_of(io.alphabet, io.inputs), lang):
        return "language does not contain the bottom language I*"
    return None


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


def completed(alphabet: Alphabet, initial: int, accepting, rows) -> RegularLanguage:
    """The complete DFA of rows with None for a missing transition, built
    here: every None goes to one appended rejecting sink."""
    sink = len(rows)
    delta = [[sink if t is None else t for t in row] for row in rows] + [[sink] * len(alphabet)]
    return RegularLanguage(alphabet, initial, accepting, delta)


def canonicalize_dfa(lang: RegularLanguage) -> RegularLanguage:
    return _canonicalize(lang.alphabet, lang.initial, lang.accepting, lang.delta)


@st.composite
def partial_rows(draw) -> tuple:
    """(alphabet, initial, accepting, rows) of a raw DFA (see raw_dfas: a
    random initial state, unreachable and equivalent states) with about a
    quarter of its transitions missing."""
    lang = draw(raw_dfas(draw(st.sampled_from(ALPHABETS)), max_states=15))
    k = len(lang.alphabet)
    cut = draw(st.lists(st.integers(0, 3), min_size=lang.n_states * k, max_size=lang.n_states * k))
    rows = [tuple(None if cut[q * k + j] == 0 else t for j, t in enumerate(row)) for q, row in enumerate(lang.delta)]
    return lang.alphabet, lang.initial, lang.accepting, rows


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

    @settings(max_examples=60, deadline=None)
    @given(a=dfas(AB3), b=dfas(AB3), data=st.data())
    def test_membership_matches_set_operation(self, a, b, data):
        kind = data.draw(st.sampled_from(["union", "intersect", "difference"]))
        result = getattr(a, kind)(b)
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


class TestValidityScans:
    """The one-scan checks decide what the product chains they replace decide,
    on raw DFAs with unreachable and duplicate states."""

    @settings(max_examples=300, deadline=None)
    @given(case=mostly_closed_dfas())
    def test_prefix_closed_matches_chain(self, case):
        lang, _inputs = case
        assert is_prefix_closed(lang) == is_subset(prefix_closure(lang), lang)

    @settings(max_examples=300, deadline=None)
    @given(case=mostly_closed_dfas())
    def test_receptive_matches_chain(self, case):
        lang, inputs = case
        assert is_receptive(lang, inputs) == is_subset(concat_symbol_class(lang, inputs), lang)

    @settings(max_examples=300, deadline=None)
    @given(case=mostly_closed_dfas())
    def test_star_containment_is_epsilon_when_receptive(self, case):
        # The constructors test I* ⊆ L only once L∘I ⊆ L holds, and then it
        # is exactly ε ∈ L.
        lang, inputs = case
        if is_subset(concat_symbol_class(lang, inputs), lang):
            assert lang.accepts(()) == is_subset(star_of(lang.alphabet, inputs), lang)

    @settings(max_examples=300, deadline=None)
    @given(case=mostly_closed_dfas())
    def test_receptive_language_verdict_and_message(self, case):
        lang, inputs = case
        io = IoSignature(lang.alphabet, inputs)
        try:
            ReceptiveLanguage(lang, io)
            found = None
        except ValidationError as e:
            found = str(e)
        assert found == reference_receptive_error(lang, io)

    @settings(max_examples=300, deadline=None)
    @given(case=mostly_closed_dfas())
    def test_contract_verdict_and_message(self, case):
        lang, inputs = case
        c = lang.canonical()
        w = counterexample(prefix_closure(c), c)
        if w is not None:
            expected = f"S not prefix-closed at witness {word_str(w)}"
        else:
            expected = None if c.accepts(()) else "S must contain the empty word"
        try:
            from_s(lang, IoSignature(lang.alphabet, inputs))
            found = None
        except ValidationError as e:
            found = str(e)
        assert found == expected

    @settings(max_examples=200, deadline=None)
    @given(case=mostly_closed_dfas(), data=st.data())
    def test_admissibility_matches_chain(self, case, data):
        lang, inputs = case
        io = IoSignature(lang.alphabet, inputs)
        s = data.draw(mostly_closed_dfas(lang.alphabet))[0]
        if not (is_prefix_closed(s) and s.accepts(())):
            return
        c = from_s(s, io)
        for verdict, gamma, bound in ((is_environment, io.outputs, c.e), (is_implementation, io.inputs, c.m)):
            expected = (
                is_subset(prefix_closure(lang), lang)
                and is_subset(concat_symbol_class(lang, gamma), lang)
                and is_subset(star_of(lang.alphabet, gamma), lang)
                and is_subset(lang, bound)
            )
            assert verdict(c, lang) == expected

    def test_unknown_symbol_rejected(self, istar):
        with pytest.raises(AlphabetMismatch):
            is_receptive(istar, {"z"})


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
        c = canonicalize_dfa(a)
        assert c.initial == 0
        assert (c.accepting, c.delta) == reference_moore(a)

    @settings(max_examples=200, deadline=None)
    @given(case=partial_rows())
    def test_missing_transitions_match_reference_moore(self, case):
        # None is a missing transition into the rejecting sink; unreachable
        # states are dropped and a nonzero initial state is renumbered 0.
        c = _canonicalize(*case)
        assert c.initial == 0
        assert (c.accepting, c.delta) == reference_moore(completed(*case))
        assert c.canonical() is c

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_one_state_and_empty(self, alphabet):
        k = len(alphabet)
        for accepting in (frozenset(), frozenset({0})):
            c = canonicalize_dfa(RegularLanguage(alphabet, 0, accepting, ((0,) * k,)))
            assert (c.accepting, c.delta) == (accepting, ((0,) * k,))
        # A 3-state automaton with no accepting state is the 1-state empty language.
        empty = RegularLanguage(alphabet, 2, frozenset(), ((1,) * k, (2,) * k, (0,) * k))
        c = canonicalize_dfa(empty)
        assert (c.accepting, c.delta) == reference_moore(empty) == (frozenset(), ((0,) * k,))


def raw_product(a: RegularLanguage, b: RegularLanguage, keep) -> RegularLanguage:
    """The full n1·n2 product table, pair (q, r) numbered q·n2 + r, with no
    reachability or numbering work: the reference input of a boolean op."""
    n2 = b.n_states
    delta = [[t * n2 + u for t, u in zip(a.delta[q], b.delta[r])] for q in range(a.n_states) for r in range(n2)]
    accepting = {q * n2 + r for q in range(a.n_states) for r in range(n2) if keep(q in a.accepting, r in b.accepting)}
    return RegularLanguage(a.alphabet, a.initial * n2 + b.initial, accepting, delta)


def raw_flagged(lang: RegularLanguage, start_flag: bool, step) -> RegularLanguage:
    """States (q, flag) numbered 2q + flag, accepting when flagged, starting
    at (initial, start_flag); step(q, k, t, flag) is the flag after q's k-edge
    to t."""
    delta = [
        [2 * t + step(q, k, t, flag) for k, t in enumerate(lang.delta[q])]
        for q in range(lang.n_states)
        for flag in (False, True)
    ]
    return RegularLanguage(lang.alphabet, 2 * lang.initial + start_flag, range(1, 2 * lang.n_states, 2), delta)


def explored_cases(a: RegularLanguage, b: RegularLanguage, gamma: frozenset[str]):
    """(op, its result through the explored entry, the same raw automaton built here)."""
    keeps = {"union": lambda x, y: x or y, "intersect": lambda x, y: x and y, "difference": lambda x, y: x and not y}
    for kind, keep in keeps.items():
        yield kind, getattr(a, kind)(b), raw_product(a, b, keep)
    in_class = [s in gamma for s in a.alphabet.symbols]
    yield "concat_symbol_class", concat_symbol_class(a, gamma), raw_flagged(
        a, False, lambda q, k, t, flag: q in a.accepting and in_class[k]
    )
    yield "concat_sigma_star", concat_sigma_star(a), raw_flagged(
        a, a.initial in a.accepting, lambda q, k, t, flag: flag or t in a.accepting
    )


class TestExploredEntry:
    """The explored entry of `_canonicalize` (products numbered by `_explore`)
    must give exactly what reference Moore refinement gives on the same raw
    automaton, built here independently of `_explore`."""

    @settings(max_examples=150, deadline=None)
    @given(pair=raw_dfa_pairs(max_states=10), data=st.data())
    def test_matches_reference_moore(self, pair, data):
        a, b = pair
        gamma = frozenset(data.draw(st.sets(st.sampled_from(a.alphabet.symbols))))
        for kind, result, raw in explored_cases(a, b, gamma):
            assert result.initial == 0, kind
            assert (result.accepting, result.delta) == reference_moore(raw), kind
            assert result.canonical() is result, kind

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    def test_one_state_results(self, alphabet):
        # One state: itemgetter of one index returns a scalar, not a tuple.
        top, empty = sigma_star(alphabet), empty_language(alphabet)
        gamma = frozenset(alphabet.symbols[:1])
        for a, b in ((top, top), (empty, empty), (top, empty)):
            for kind, result, raw in explored_cases(a, b, gamma):
                assert (result.accepting, result.delta) == reference_moore(raw), kind
        assert top.intersect(top).n_states == empty.union(empty).n_states == 1
        assert concat_sigma_star(empty).n_states == concat_symbol_class(empty, gamma).n_states == 1

    @settings(max_examples=150, deadline=None)
    @given(a=raw_dfas(AB3, max_states=12))
    def test_complement_matches_reference_moore(self, a):
        c = a.complement()
        flipped = RegularLanguage(a.alphabet, a.initial, frozenset(range(a.n_states)) - a.accepting, a.delta)
        assert c.initial == 0
        assert (c.accepting, c.delta) == reference_moore(flipped)
        assert c.canonical() is c

    def test_canonical_forms_are_not_reference_cycles(self):
        # A canonical form is marked by a flag, not by a self-reference, so
        # reference counting frees it without waiting for the cyclic collector.
        def made():
            a, b = star_of(AB3, "a"), from_words(AB3, [("a", "b"), ("c",)])
            return [
                a,  # the general path, through canonical()
                a.union(a),  # explored, discrete: the product itself
                a.intersect(a.complement()),  # explored, rebuilt
                a.union(b),
                b.complement(),
                concat_sigma_star(b),
                empty_language(AB3),
                sigma_star(AB3),
            ]

        gc.disable()
        try:
            gc.collect()
            refs = [weakref.ref(x) for x in made()]
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_non_bfs_input_is_caught(self, monkeypatch):
        """Mutants: a caller that claims the entry for a state-permuted product,
        or for `_marked_product`'s raw rows with their ⊤ redirects, must give
        a result that differs from reference_moore on some drawn case.  Each
        mutant gives the (alphabet, initial, accepting, rows) it would pass."""

        def permuted(a, b, gamma):
            pairs, rows = product_map(a, b)
            n = len(rows)
            perm = [0] + list(range(n - 1, 0, -1))
            delta = [None] * n
            for i, row in enumerate(rows):
                delta[perm[i]] = tuple(perm[t] for t in row)
            accepting = frozenset(perm[i] for i, (q, r) in enumerate(pairs) if q in a.accepting)
            return a.alphabet, 0, accepting, delta

        def marked(a, b, gamma):
            with monkeypatch.context() as m:
                m.setattr(hyperc.receptive, "_canonicalize", lambda *raw: raw)
                return miss_ext(a, b, gamma)

        cases = st.tuples(raw_dfa_pairs(max_states=10), st.sets(st.sampled_from("abcd")))
        for mutant in (permuted, marked):

            def caught(case, mutant=mutant):
                (a, b), gamma = case
                raw = mutant(a, b, gamma & set(a.alphabet.symbols))
                c = _canonicalize(*raw, explored=True)
                return (c.accepting, c.delta) != reference_moore(completed(*raw))

            # No shrinking: any case found is enough.
            quick = settings(max_examples=500, database=None, derandomize=True, phases=[Phase.generate])
            find(cases, caught, settings=quick)


def reference_counterexample(a: RegularLanguage, b: RegularLanguage, over=None):
    """The earlier hand-written search: a queue of product pairs with parent
    pointers, stopping at the first pair that accepts in a and rejects in b."""
    symbols = a.alphabet.symbols
    allowed = range(len(symbols)) if over is None else {a.alphabet.index(s) for s in over}
    start = (a.initial, b.initial)
    parent = {start: None}
    queue = [start]
    for pair in queue:
        q, r = pair
        if q in a.accepting and r not in b.accepting:
            word = []
            step = parent[pair]
            while step is not None:
                pair, k = step
                word.append(symbols[k])
                step = parent[pair]
            return tuple(reversed(word))
        for k, t in enumerate(zip(a.delta[q], b.delta[r])):
            if t not in parent and k in allowed:
                parent[t] = (pair, k)
                queue.append(t)
    return None


class TestCounterexample:
    @settings(max_examples=300, deadline=None)
    @given(pair=raw_dfa_pairs(), data=st.data())
    def test_matches_reference_search(self, pair, data):
        # The same word, not only a word of the same length: witnesses are printed.
        a, b = pair
        assert counterexample(a, b) == reference_counterexample(a, b)
        assert counterexample(b, a) == reference_counterexample(b, a)
        over = data.draw(st.sets(st.sampled_from(a.alphabet.symbols)))
        assert counterexample(a, b, over=over) == reference_counterexample(a, b, over)

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

    @settings(max_examples=200, deadline=None)
    @given(pair=raw_dfa_pairs(), data=st.data())
    def test_over_symbol_subset(self, pair, data):
        # Restricting the search to words over S is a ∩ S* searched in full.
        a, b = pair
        over = data.draw(st.sets(st.sampled_from(a.alphabet.symbols)))
        assert counterexample(a, b, over=over) == counterexample(a.intersect(star_of(a.alphabet, over)), b)

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
        with pytest.raises(AlphabetMismatch, match="unknown symbol 'z'"):
            counterexample(istar, istar, over=["z"])


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
        with pytest.raises(ValidationError, match=f"HYPERC_MAX_STATES .*{raw!r}"):
            state_cap()
        with pytest.raises(HypercError, match="HYPERC_MAX_STATES"):
            is_subset(istar, top)

    def test_cap_bounds_exploration(self, monkeypatch, ab, istar, iostar):
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        with pytest.raises(LimitExceeded, match=r"over the bound 1 \(HYPERC_MAX_STATES\)"):
            product_map(istar, iostar)
        with pytest.raises(LimitExceeded, match=r"over the bound 1 \(HYPERC_MAX_STATES\)"):
            counterexample(istar, sigma_star(ab))
        # The witness ε lies at the initial pair, before any pair is added.
        assert counterexample(istar, iostar) == ()


def _random_dfa(rng: random.Random, alphabet: Alphabet, n: int) -> RegularLanguage:
    return RegularLanguage(
        alphabet, 0, [q for q in range(n) if rng.random() < 0.5], [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    )


def _cycle(n: int) -> RegularLanguage:
    """a^(kn): a one-symbol cycle of n states, minimal as given."""
    return RegularLanguage(Alphabet("a"), 0, [0], [[(q + 1) % n] for q in range(n)])


class TestSharedNumbers:
    """Every automaton the package builds numbers its states with the int
    objects of one table, `lang._NUMBERS`, so state numbers above 256 are not
    held once per automaton (nor twice, in its rows and its accepting set)."""

    @staticmethod
    def _products(seed: int) -> list[RegularLanguage]:
        rng = random.Random(seed)
        ops = [(_random_dfa(rng, AB3, 60), _random_dfa(rng, AB3, 60)) for _ in range(6)]
        return [a.intersect(b) if k % 2 else a.union(b) for k, (a, b) in enumerate(ops)]

    def test_held_products_retain_few_bytes_per_state(self):
        self._products(5)  # grows the table, so only the held results are traced
        gc.collect()
        tracemalloc.start()
        try:
            held = self._products(5)
            gc.collect()
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        states = sum(h.n_states for h in held)
        assert min(h.n_states for h in held) > 256
        # Measured on Python 3.11: 104 bytes per state (an 80-byte row tuple, its
        # slot in delta and the accepting set's share), 143 when each state
        # number is a private 28-byte int and each accepting number another.
        assert size / states < 124

    def test_equal_numbers_are_one_object_across_automata(self):
        rng = random.Random(7)
        a, b, c, d = (_random_dfa(rng, AB3, 60) for _ in range(4))
        built = [
            a.intersect(b), a.union(b).complement(), c.difference(d), concat_symbol_class(a.union(c), {"a"}),
            _cycle(300).canonical(), concat_sigma_star(from_words(AB3, [("a",) * 400])),
        ]
        assert all(x.n_states > 256 for x in built)
        objects: dict[int, set[int]] = {}
        for x in built:
            for t in (*x.accepting, *(t for row in x.delta for t in row)):
                objects.setdefault(t, set()).add(id(t))
        assert max(objects) > 2000
        assert all(len(ids) == 1 for ids in objects.values())

    def test_table_is_a_tuple(self, monkeypatch):
        # Readers index the table they took without a lock, which holds only
        # while no table can change in place: growth rebinds to a longer tuple.
        assert type(hyperc.lang._NUMBERS) is tuple
        monkeypatch.setattr(hyperc.lang, "_NUMBERS", tuple(range(10)))
        grown = hyperc.lang._numbers(11)
        assert type(grown) is tuple and grown is hyperc.lang._NUMBERS

    def test_growth_leaves_a_taken_table_unchanged(self, monkeypatch):
        monkeypatch.setattr(hyperc.lang, "_NUMBERS", tuple(range(257)))
        taken = hyperc.lang._NUMBERS
        rng = random.Random(5)
        product = _random_dfa(rng, AB3, 60).intersect(_random_dfa(rng, AB3, 60))
        assert product.n_states > 257
        grown = hyperc.lang._NUMBERS
        assert grown is not taken and taken == tuple(range(257))
        assert grown == tuple(range(len(grown))) and len(grown) >= product.n_states

    def test_table_stays_within_the_state_cap(self, monkeypatch):
        monkeypatch.setattr(hyperc.lang, "_NUMBERS", tuple(range(10)))
        monkeypatch.setenv("HYPERC_MAX_STATES", "20")
        # Only the public constructor builds an automaton over the cap; its
        # numbers past the table are fresh ints.
        c = _cycle(60).canonical()
        assert c.delta == tuple(((q + 1) % 60,) for q in range(60)) and c.accepting == {0}
        assert c.complement().accepting == frozenset(range(1, 60))
        assert c.accepts(("a",) * 120) and not c.accepts(("a",) * 61)
        assert len(hyperc.lang._NUMBERS) <= 21


class TestEnumerate:
    def test_istar(self, istar):
        assert enumerate_words(istar, 2) == [(), ("i",), ("i", "i")]

    def test_empty(self, ab):
        assert enumerate_words(empty_language(ab), 3) == []

    def test_iostar(self, iostar):
        assert enumerate_words(iostar, 2) == [("o",), ("i", "o"), ("o", "i"), ("o", "o")]

    def test_limit(self, istar):
        with pytest.raises(LimitExceeded, match=r"^enumeration: max_len \(--max-len\) 9 over the bound 8 \(MAX_ENUM_LEN\)$"):
            enumerate_words(istar, 9)
        with pytest.raises(ValueError):
            enumerate_words(istar, -1)

    def test_word_bound(self, monkeypatch, ab, top):
        # Σ* over {i, o} has 1 + 2 + 4 = 7 words up to length 2.
        monkeypatch.setattr(hyperc.lang, "MAX_ENUM_WORDS", 7)
        assert len(enumerate_words(top, 2)) == 7
        monkeypatch.setattr(hyperc.lang, "MAX_ENUM_WORDS", 6)
        with pytest.raises(LimitExceeded, match=r"^enumeration: 7 words over the bound 6 \(MAX_ENUM_WORDS\)$"):
            enumerate_words(top, 2)

    def test_default_word_bound(self):
        # 1 + 12 + … + 12⁶ words; refused from the counts, before any walk.
        sigma12 = sigma_star(Alphabet(tuple("abcdefghijkl")))
        message = r"^enumeration: 3257437 words over the bound 1000000 \(MAX_ENUM_WORDS\)$"
        with pytest.raises(LimitExceeded, match=message):
            enumerate_words(sigma12, 6)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        alphabet = data.draw(st.sampled_from(ALPHABETS[:3]))
        lang = data.draw(raw_dfas(alphabet, max_states=8))
        max_len = data.draw(st.integers(0, 4))
        expected = [w for w in all_words(alphabet, max_len) if lang.accepts(w)]
        assert enumerate_words(lang, max_len) == expected

    def test_one_word_over_twelve_symbols(self, tmp_path):
        # Without pruning, this walks all 12^8 words (about two minutes).
        symbols = list("abcdefghijkl")
        word = "lkjihgfe"
        states = [f"w{k}" for k in range(len(word) + 1)]
        doc = {
            "alphabet": symbols,
            "states": states,
            "initial": states[0],
            "accepting": [states[-1]],
            "transitions": [[states[k], s, states[k + 1]] for k, s in enumerate(word)],
        }
        path = tmp_path / "one_word.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "hyperc", "lang", "enumerate", str(path), "--max-len", "8"],
            capture_output=True,
            check=True,
            timeout=20,
        )
        assert proc.stdout == f"{word}\n".encode()


class TestCloseBackward:
    def test_partial_rows(self):
        # 0 -a-> 1 -b-> 2, 3 -a-> 2; None marks a missing transition.
        rows = [(1, None), (None, 2), (None, None), (2, None)]
        assert close_backward(rows, [2], [0, 1]) == {0, 1, 2, 3}
        assert close_backward(rows, [1], [0, 1]) == {0, 1}

    def test_empty_seeds(self):
        assert close_backward([(0, 1), (1, 0)], [], [0, 1]) == set()

    def test_label_subset(self):
        # Only a-edges (index 0) count: 1 reaches 2 by b only.
        rows = [(2, 0), (1, 2), (2, 2)]
        assert close_backward(rows, [2], [0]) == {0, 2}
        assert close_backward(rows, [2], [1]) == {1, 2}
        assert close_backward(rows, [2], []) == {2}


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

    @settings(max_examples=200, deadline=None)
    @given(a=dfas(AB3))
    def test_shortest_member_is_first_accepted_word(self, a):
        # A member exists iff one of length < 5 (the state bound) does.
        first = next((w for w in all_words(AB3, 4) if a.accepts(w)), None)
        assert a.shortest_member() == first

    def test_alphabet_validation(self):
        with pytest.raises(AlphabetMismatch):
            Alphabet(())
        with pytest.raises(AlphabetMismatch):
            Alphabet(("a", "a"))
