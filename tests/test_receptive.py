"""Receptive-language algebra: validators, MissExt/Unc, Heyting structure,
composition and quotient."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_words, lang_of, reference_miss_ext, reference_unc
from hyperc.errors import QuotientUndefined, SignatureMismatch, ValidationError
from hyperc.lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    concat_sigma_star,
    empty_language,
    is_subset,
    sigma_star,
    star_of,
)
from hyperc.oracle import (
    BoundedCheckConfig,
    _quotient_operands,
    random_alphabet,
    random_dfa,
    random_receptive,
    random_signature,
)
from hyperc.receptive import (
    ReceptiveLanguage,
    bottom,
    compose,
    embed,
    exponential,
    exponential_definitional,
    join,
    meet,
    miss_ext,
    quotient,
    quotient_signature,
    unc,
)
from hyperc.receptive import top as receptive_top

AB1 = Alphabet(("a",))


@pytest.fixture
def r_istar(istar, io_i):
    return ReceptiveLanguage(istar, io_i)


@pytest.fixture
def r_top(top, io_i):
    return ReceptiveLanguage(top, io_i)


class TestValidation:
    def test_rejects_non_prefix_closed_with_witness(self, ab, io_i):
        with pytest.raises(ValidationError, match="not prefix-closed at witness ε"):
            ReceptiveLanguage(lang_of(ab, "io"), io_i)

    def test_rejects_non_receptive_with_witness(self, ab, io_i):
        with pytest.raises(ValidationError, match="not receptive at witness i"):
            ReceptiveLanguage(lang_of(ab, "", "o"), io_i)

    def test_rejects_empty(self, ab, io_i):
        with pytest.raises(ValidationError, match="bottom"):
            ReceptiveLanguage(empty_language(ab), io_i)

    def test_bottom_and_top(self, ab, io_i, istar, top):
        assert bottom(io_i).lang == istar
        assert receptive_top(io_i).lang == top


class TestLattice:
    def test_meet_with_top(self, r_istar, r_top, istar):
        assert meet(r_istar, r_top).lang == istar

    def test_join_idempotent(self, r_istar, istar):
        assert join(r_istar, r_istar).lang == istar

    def test_meet_derived(self, ab, io_i, istar, r_istar):
        # L1 = i* ∪ o·i*, L2 = i*: the meet drops the o-branch.
        oi = RegularLanguage(ab, 0, frozenset({0, 1}), ((2, 1), (1, 2), (2, 2)))
        l1 = ReceptiveLanguage(istar.union(oi), io_i)
        got = meet(l1, r_istar)
        assert got.lang == istar
        for w in all_words(ab, 4):
            assert got.lang.accepts(w) == (l1.lang.accepts(w) and istar.accepts(w))

    def test_signature_mismatch(self, ab, istar, top):
        a = ReceptiveLanguage(istar, IoSignature(ab, frozenset({"i"})))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset({"o"})))
        with pytest.raises(SignatureMismatch):
            meet(a, b)


class TestMissExt:
    def test_istar_o(self, istar, iostar):
        assert miss_ext(istar, istar, {"o"}) == iostar

    def test_istar_i_empty(self, ab, istar):
        assert miss_ext(istar, istar, {"i"}) == empty_language(ab)

    def test_eps_o_by_i(self, ab):
        eps_o = lang_of(ab, "", "o")
        expected = concat_sigma_star(lang_of(ab, "i", "oi"))
        assert miss_ext(eps_o, eps_o, {"i"}) == expected

    def test_matches_set_formula(self, ab, istar, top):
        # (((L ∩ L') ∘ Γ) \ L') ∘ Σ* evaluated word by word
        for lng, lng2, gamma in [(istar, top, {"o"}), (top, istar, {"i"}), (istar, istar, {"i", "o"})]:
            result = miss_ext(lng, lng2, gamma)
            for w in all_words(ab, 4):
                expected = any(
                    lng.accepts(w[:k]) and lng2.accepts(w[:k]) and w[k] in gamma
                    and not lng2.accepts(w[: k + 1])
                    for k in range(len(w))
                )
                assert result.accepts(w) == expected, w


class TestUnc:
    def test_empty_gamma(self, ab, istar, top):
        assert unc(istar, top, (), {"i"}) == empty_language(ab)

    def test_quantifier_example(self, ab, istar, top):
        l1 = istar.union(lang_of(ab, "o"))
        assert unc(l1, top, {"i"}, {"i"}) == concat_sigma_star(lang_of(ab, "o"))

    def test_epsilon_uncontrollable(self):
        small, big = lang_of(AB1, ""), lang_of(AB1, "", "a")
        assert unc(small, big, {"a"}, ()) == sigma_star(AB1)

    def test_matches_quantifier_definition(self, ab, istar, top):
        l1 = istar.union(lang_of(ab, "o"))
        result = unc(l1, top, {"i"}, {"i"})
        words = all_words(ab, 4)
        follow = [w for w in all_words(ab, 6) if all(s == "i" for s in w)]
        for w in words:
            expected = any(
                l1.accepts(w[:k]) and top.accepts(w[:k]) and any(
                    l1.accepts(w[:k] + u) and not l1.accepts(w[:k] + u + ("i",))
                    and top.accepts(w[:k] + u + ("i",))
                    for u in follow
                )
                for k in range(len(w) + 1)
            )
            assert result.accepts(w) == expected, w


class TestExponential:
    def test_istar_by_top(self, r_istar, r_top, istar):
        assert exponential(r_istar, r_top).lang == istar

    def test_self_is_top(self, r_istar, top):
        assert exponential(r_istar, r_istar).lang == top

    def test_top_absorbing(self, r_top, r_istar, top):
        assert exponential(r_top, r_istar).lang == top

    def test_definitional_agrees(self, ab, io_i, r_istar, r_top):
        for a, b in [(r_istar, r_top), (r_top, r_istar), (r_istar, r_istar)]:
            assert exponential(a, b).lang == exponential_definitional(a, b)

    def test_definitional_bottom_case(self, io_i, top):
        b = bottom(io_i)
        assert exponential_definitional(b, b) == top

    def test_contains_target(self, r_istar, r_top):
        assert is_subset(r_istar.lang, exponential(r_istar, r_top).lang)

    def test_adjunction_seeded(self):
        cfg = BoundedCheckConfig(random_seed=11, num_cases=60, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            io = random_signature(rng, Alphabet(("a", "b")))
            l1 = random_receptive(rng, io, cfg.max_states)
            l2 = random_receptive(rng, io, cfg.max_states)
            l3 = random_receptive(rng, io, cfg.max_states)
            exp = exponential(l1, l2)
            assert exp.lang == exponential_definitional(l1, l2)
            assert is_subset(meet(l3, l2).lang, l1.lang) == is_subset(l3.lang, exp.lang)


class TestCompose:
    def test_top_identity(self, ab, istar, top):
        a = ReceptiveLanguage(istar, IoSignature(ab, frozenset({"i"})))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset({"o"})))
        got = compose(a, b)
        assert got.lang == istar and got.io.inputs == frozenset()

    def test_tops(self, ab, top):
        a = ReceptiveLanguage(top, IoSignature(ab, frozenset({"i"})))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset({"o"})))
        assert compose(a, b).lang == top

    def test_single_symbol_world(self):
        # {ε,a} with O={a} composed against the only {a}-receptive partner a*
        eps_a = lang_of(AB1, "", "a")
        producer = ReceptiveLanguage(eps_a, IoSignature(AB1, frozenset()))
        consumer = ReceptiveLanguage(sigma_star(AB1), IoSignature(AB1, frozenset({"a"})))
        got = compose(producer, consumer)
        assert got.lang == eps_a
        assert got.io.inputs == frozenset() and got.io.outputs == frozenset({"a"})
        for w in all_words(AB1, 3):
            assert got.lang.accepts(w) == (eps_a.accepts(w) and True)

    def test_shared_outputs_rejected(self, ab, top):
        a = ReceptiveLanguage(top, IoSignature(ab, frozenset({"i"})))
        with pytest.raises(SignatureMismatch, match="shared outputs"):
            compose(a, a)


class TestQuotient:
    def test_trivial_top(self, ab, top):
        a = ReceptiveLanguage(top, IoSignature(ab, frozenset()))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset({"o"})))
        got = quotient(a, b)
        assert got.lang == top and got.io.inputs == frozenset({"i"})

    def test_derived_example(self, ab, istar, top):
        lq = istar.union(lang_of(ab, "o"))
        a = ReceptiveLanguage(lq, IoSignature(ab, frozenset()))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset({"o"})))
        got = quotient(a, b)
        assert got.lang == istar and got.io.inputs == frozenset({"i"})
        # adjunction spot-check by bounded enumeration over small third operands
        io_r = got.io
        for third in [bottom(io_r), got, top_third(io_r)]:
            lhs = is_subset(compose(third, b).lang, a.lang)
            rhs = is_subset(third.lang, got.lang)
            assert lhs == rhs

    def test_empty_divisor_outputs(self, ab, istar, top):
        a = ReceptiveLanguage(istar, IoSignature(ab, frozenset({"i"})))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset({"i", "o"})))
        got = quotient(a, b)
        assert got.lang == istar and got.io.inputs == frozenset({"i"})

    def test_signature_precondition(self, ab, istar, top):
        a = ReceptiveLanguage(top, IoSignature(ab, frozenset({"i"})))
        b = ReceptiveLanguage(top, IoSignature(ab, frozenset()))
        with pytest.raises(SignatureMismatch):
            quotient(a, b)

    def test_undefined_names_witness(self, ab, io_i, top):
        with pytest.raises(QuotientUndefined, match="witness o"):
            quotient(bottom(io_i), ReceptiveLanguage(top, io_i))

    def test_signature_helper(self, ab):
        io = IoSignature(ab, frozenset())
        io2 = IoSignature(ab, frozenset({"o"}))
        assert quotient_signature(io, io2).inputs == frozenset({"i"})


def top_third(io_r):
    return ReceptiveLanguage(sigma_star(io_r.alphabet), io_r)


class TestEmbed:
    def test_shrinks_inputs(self, r_istar, istar):
        got = embed(r_istar, ())
        assert got.io.inputs == frozenset() and got.lang == istar

    def test_top_keeps_language(self, ab, top):
        a = ReceptiveLanguage(top, IoSignature(ab, frozenset({"i", "o"})))
        assert embed(a, {"i"}).lang == top

    def test_transitive(self, ab, top):
        a = ReceptiveLanguage(top, IoSignature(ab, frozenset({"i", "o"})))
        assert embed(embed(a, {"i"}), ()) == embed(a, ())

    def test_cannot_grow(self, r_istar):
        with pytest.raises(SignatureMismatch):
            embed(r_istar, {"i", "o"})


class TestQuotientLaws:
    """Seeded sweeps for the order-theoretic facts about the quotient."""

    def _operands(self, rng, cfg):
        ab = Alphabet(("a", "b"))
        i1 = frozenset(s for s in ab.symbols if rng.random() < 0.4)
        io = IoSignature(ab, i1)
        io2 = IoSignature(ab, i1 | frozenset(s for s in ab.symbols if rng.random() < 0.5))
        io_r = quotient_signature(io, io2)
        divisor = random_receptive(rng, io2, cfg.max_states)
        floor = divisor.lang.intersect(star_of(ab, io_r.inputs))
        raw = random_receptive(rng, io, cfg.max_states)
        dividend = ReceptiveLanguage(raw.lang.union(floor), io)
        return dividend, divisor

    def test_quotient_times_divisor_below_dividend(self):
        cfg = BoundedCheckConfig(random_seed=5, num_cases=60, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            dividend, divisor = self._operands(rng, cfg)
            q = quotient(dividend, divisor)
            assert is_subset(compose(q, divisor).lang, dividend.lang)

    def test_monotone_in_dividend_antitone_in_divisor(self):
        cfg = BoundedCheckConfig(random_seed=6, num_cases=60, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            dividend, divisor = self._operands(rng, cfg)
            bigger = ReceptiveLanguage(
                dividend.lang.union(random_receptive(rng, dividend.io, cfg.max_states).lang),
                dividend.io,
            )
            assert is_subset(quotient(dividend, divisor).lang, quotient(bigger, divisor).lang)
            smaller_divisor = meet(divisor, random_receptive(rng, divisor.io, cfg.max_states))
            assert is_subset(
                quotient(dividend, divisor).lang, quotient(dividend, smaller_divisor).lang
            )

    def test_outputs_validate_receptive(self):
        # Closure: every operation's output passes the validators (a fresh
        # ReceptiveLanguage is revalidated on construction).
        cfg = BoundedCheckConfig(random_seed=9, num_cases=40, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            dividend, divisor = self._operands(rng, cfg)
            q = quotient(dividend, divisor)
            ReceptiveLanguage(q.lang, q.io)
            e = exponential(dividend, dividend)
            ReceptiveLanguage(e.lang, e.io)


class TestOnePassMatchesChains:
    """Each one-pass closed form equals the compositional chain it replaces:
    the references are built from generic operators only."""

    @staticmethod
    def _symbols(rng, alphabet):
        return frozenset(s for s in alphabet.symbols if rng.random() < 0.5)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_miss_ext(self, seed):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng)
        a, b = random_dfa(rng, alphabet, 8), random_dfa(rng, alphabet, 8)
        gamma = self._symbols(rng, alphabet)
        assert miss_ext(a, b, gamma) == reference_miss_ext(a, b, gamma)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unc(self, seed):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng)
        a, b = random_dfa(rng, alphabet, 8), random_dfa(rng, alphabet, 8)
        gamma, delta = self._symbols(rng, alphabet), self._symbols(rng, alphabet)
        assert unc(a, b, gamma, delta) == reference_unc(a, b, gamma, delta)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_exponential(self, seed):
        rng = random.Random(seed)
        io = random_signature(rng, random_alphabet(rng))
        target, other = random_receptive(rng, io, 6), random_receptive(rng, io, 6)
        chain = target.lang.union(reference_miss_ext(target.lang, other.lang, io.outputs))
        assert exponential(target, other).lang == chain

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_quotient(self, seed):
        a, b, io_r = _quotient_operands(random.Random(seed), BoundedCheckConfig(max_states=6))
        kept = a.lang.intersect(b.lang).union(reference_miss_ext(a.lang, b.lang, b.io.outputs))
        chain = kept.difference(reference_unc(a.lang, b.lang, b.io.outputs, a.io.inputs))
        result = quotient(a, b)
        assert result.lang == chain and result.io == io_r
