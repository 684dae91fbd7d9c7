"""Interface hypercontracts: derivation of E/M, refinement, composition,
mirror, and the mirror-based quotient."""

from __future__ import annotations

import random

import pytest

from conftest import lang_of
from hyperc.contracts import (
    Incompatible,
    InterfaceHypercontract,
    compose,
    from_s,
    is_environment,
    is_implementation,
    mirror,
    quotient,
    refines,
)
from hyperc.errors import SignatureMismatch, ValidationError
from hyperc.lang import Alphabet, IoSignature, is_subset, sigma_star, star_of
from hyperc.oracle import BoundedCheckConfig, random_prefix_closed
from hyperc.receptive import unc

AB1 = Alphabet(("a",))


def _contract_pair(rng, cfg, alphabet):
    i1 = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
    i2 = (frozenset(alphabet.symbols) - i1) | frozenset(s for s in i1 if rng.random() < 0.5)
    c1 = from_s(random_prefix_closed(rng, alphabet, cfg.max_states), IoSignature(alphabet, i1))
    c2 = from_s(random_prefix_closed(rng, alphabet, cfg.max_states), IoSignature(alphabet, i2))
    return c1, c2


class TestFromS:
    def test_istar_derivations(self, ab, io_i, istar, top, iostar):
        c = from_s(istar, io_i)
        assert c.e == top and c.m == istar
        assert istar.union(iostar) == top  # the MissExt pieces recombine to Σ*

    def test_top(self, ab, io_i, top):
        c = from_s(top, io_i)
        assert c.e == top and c.m == top

    def test_epsilon_all_outputs(self, ab, top):
        c = from_s(lang_of(ab, ""), IoSignature(ab, frozenset()))
        assert c.e == top and c.m == lang_of(ab, "")

    def test_rejects_non_prefix_closed(self, ab, io_i):
        with pytest.raises(ValidationError, match="not prefix-closed"):
            from_s(lang_of(ab, "io"), io_i)

    def test_rejects_missing_epsilon(self, ab, io_i):
        from hyperc.lang import empty_language

        with pytest.raises(ValidationError, match="empty word"):
            from_s(empty_language(ab), io_i)

    def test_roundtrip_and_meet_invariant(self, ab, io_i):
        cfg = BoundedCheckConfig(random_seed=3, num_cases=40, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            s = random_prefix_closed(rng, ab, cfg.max_states)
            c = from_s(s, io_i)
            assert c.s == s.canonical()
            assert c.e.intersect(c.m) == c.s


class TestMembership:
    def test_m_s_itself(self, io_i, istar):
        c = from_s(istar, io_i)
        assert is_implementation(c, istar)

    def test_top_not_implementation(self, io_i, istar, top):
        assert not is_implementation(from_s(istar, io_i), top)

    def test_top_environment(self, io_i, istar, top):
        assert is_environment(from_s(istar, io_i), top)

    def test_floor_requirements(self, ab, io_i, istar):
        c = from_s(istar, io_i)
        assert not is_environment(c, star_of(ab, {"i"}))  # misses O*
        assert is_environment(c, star_of(ab, {"o"}))


class TestRefines:
    def test_reflexive(self, io_i, istar):
        c = from_s(istar, io_i)
        assert refines(c, c)

    def test_istar_below_top(self, io_i, istar, top):
        assert refines(from_s(istar, io_i), from_s(top, io_i))
        assert not refines(from_s(top, io_i), from_s(istar, io_i))

    def test_signature_checked(self, ab, istar, top):
        with pytest.raises(SignatureMismatch):
            refines(
                from_s(istar, IoSignature(ab, frozenset({"i"}))),
                from_s(top, IoSignature(ab, frozenset({"o"}))),
            )

    def test_preorder_on_random_contracts(self, ab, io_i):
        cfg = BoundedCheckConfig(random_seed=13, num_cases=40, max_states=4)
        rng = random.Random(cfg.random_seed)
        pool = [from_s(random_prefix_closed(rng, ab, cfg.max_states), io_i) for _ in range(12)]
        for a in pool:
            assert refines(a, a)
        for a in pool[:6]:
            for b in pool[:6]:
                for c in pool[:6]:
                    if refines(a, b) and refines(b, c):
                        assert refines(a, c)


class TestCompose:
    def test_single_symbol_pair(self):
        eps_a = lang_of(AB1, "", "a")
        c1 = from_s(eps_a, IoSignature(AB1, frozenset()))
        c2 = from_s(eps_a, IoSignature(AB1, frozenset({"a"})))
        r = compose(c1, c2)
        assert isinstance(r, InterfaceHypercontract)
        assert r.s == eps_a and r.io.inputs == frozenset()

    def test_incompatible_pair(self):
        c1 = from_s(lang_of(AB1, "", "a"), IoSignature(AB1, frozenset()))
        c2 = from_s(lang_of(AB1, ""), IoSignature(AB1, frozenset({"a"})))
        assert isinstance(compose(c1, c2), Incompatible)

    def test_matches_closed_form(self):
        # R = (S ∩ S') \ [Unc(S', S, O, O') ∪ Unc(S, S', O', O)] in full; the
        # composition is Incompatible exactly when R is empty.
        cfg = BoundedCheckConfig(max_states=4)
        rng = random.Random(11)
        outcomes = set()
        for _ in range(40):
            c1, c2 = _contract_pair(rng, cfg, Alphabet(("a", "b", "c")))
            o1, o2 = c1.io.outputs, c2.io.outputs
            removed = unc(c2.s, c1.s, o1, o2).union(unc(c1.s, c2.s, o2, o1))
            r = c1.s.intersect(c2.s).difference(removed)
            composed = compose(c1, c2)
            outcomes.add(isinstance(composed, Incompatible))
            if r.is_empty():
                assert composed == Incompatible()
            else:
                assert composed.s == r
                assert composed.io.inputs == c1.io.inputs & c2.io.inputs
        assert outcomes == {True, False}

    def test_tops_compatible(self, ab, top):
        r = compose(
            from_s(top, IoSignature(ab, frozenset({"i"}))),
            from_s(top, IoSignature(ab, frozenset({"o"}))),
        )
        assert isinstance(r, InterfaceHypercontract) and r.s == top

    def test_shared_outputs_error(self, ab, io_i, top):
        with pytest.raises(SignatureMismatch, match="shared outputs"):
            compose(from_s(top, io_i), from_s(top, io_i))

    def test_abadi_lamport_soundness(self, ab):
        cfg = BoundedCheckConfig(random_seed=21, num_cases=60, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            c1, c2 = _contract_pair(rng, cfg, ab)
            r = compose(c1, c2)
            if isinstance(r, Incompatible):
                continue
            assert is_subset(c1.m.intersect(c2.m), r.m)
            assert is_subset(r.e.intersect(c1.m), c2.e)
            assert is_subset(r.e.intersect(c2.m), c1.e)

    def test_commutative_and_associative(self, ab):
        cfg = BoundedCheckConfig(random_seed=22, num_cases=40, max_states=3)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            c1, c2 = _contract_pair(rng, cfg, ab)
            r12 = compose(c1, c2)
            r21 = compose(c2, c1)
            assert isinstance(r12, Incompatible) == isinstance(r21, Incompatible)
            if not isinstance(r12, Incompatible):
                assert r12 == r21
        # associativity needs three pairwise-composable signatures; over a
        # two-symbol alphabet use ({i},{o}) / ({o},{i}) / (Σ,∅)
        ios = [
            IoSignature(ab, frozenset({"i"})),
            IoSignature(ab, frozenset({"o"})),
            IoSignature(ab, frozenset({"i", "o"})),
        ]
        for _ in range(cfg.num_cases):
            cs = [from_s(random_prefix_closed(rng, ab, cfg.max_states), io) for io in ios]
            left = compose(cs[0], cs[1])
            right = compose(cs[1], cs[2])
            lhs = left if isinstance(left, Incompatible) else compose(left, cs[2])
            rhs = right if isinstance(right, Incompatible) else compose(cs[0], right)
            assert isinstance(lhs, Incompatible) == isinstance(rhs, Incompatible)
            if not isinstance(lhs, Incompatible):
                assert lhs == rhs

    def test_monotone_with_refinement(self, ab):
        cfg = BoundedCheckConfig(random_seed=23, num_cases=120, max_states=4)
        rng = random.Random(cfg.random_seed)
        checked = 0
        for _ in range(cfg.num_cases):
            c1, d = _contract_pair(rng, cfg, ab)
            c1b = from_s(random_prefix_closed(rng, ab, cfg.max_states), c1.io)
            small, big = (c1, c1b) if refines(c1, c1b) else (c1b, c1)
            if not refines(small, big):
                continue
            checked += 1
            r_small, r_big = compose(small, d), compose(big, d)
            # refining an operand can only make composition more compatible
            if isinstance(r_small, Incompatible):
                assert isinstance(r_big, Incompatible)
            elif not isinstance(r_big, Incompatible):
                assert refines(r_small, r_big)
        assert checked >= 10


class TestMirror:
    def test_swaps_roles(self, ab, io_i, istar, top):
        m = mirror(from_s(istar, io_i))
        assert m.io.inputs == frozenset({"o"})
        assert m.m == top and m.e == istar

    def test_involution(self, ab, io_i):
        cfg = BoundedCheckConfig(random_seed=31, num_cases=100, max_states=4)
        rng = random.Random(cfg.random_seed)
        for _ in range(cfg.num_cases):
            c = from_s(random_prefix_closed(rng, ab, cfg.max_states), io_i)
            assert mirror(mirror(c)) == c

    def test_top(self, ab, io_i, top):
        assert mirror(from_s(top, io_i)).s == top


class TestQuotient:
    def test_identity_divisor(self, ab, io_i, istar):
        c = from_s(istar, io_i)
        ident = from_s(sigma_star(ab), IoSignature(ab, frozenset({"i", "o"})))
        q = quotient(c, ident)
        assert isinstance(q, InterfaceHypercontract) and q == c

    def test_matches_receptive_quotient_example(self, ab, istar, top):
        lq = istar.union(lang_of(ab, "o"))
        c1 = from_s(lq, IoSignature(ab, frozenset()))
        c2 = from_s(top, IoSignature(ab, frozenset({"o"})))
        q = quotient(c1, c2)
        assert isinstance(q, InterfaceHypercontract)
        assert q.s == istar and q.io.inputs == frozenset({"i"})

    def test_quotient_then_compose_refines(self, ab):
        cfg = BoundedCheckConfig(random_seed=33, num_cases=80, max_states=4)
        rng = random.Random(cfg.random_seed)
        checked = 0
        for _ in range(cfg.num_cases):
            c1, c2 = _contract_pair(rng, cfg, ab)
            if mirror(c1).io.outputs & c2.io.outputs:
                continue
            q = quotient(c1, c2)
            if isinstance(q, Incompatible):
                continue
            back = compose(c2, q)
            if isinstance(back, Incompatible):
                continue
            checked += 1
            assert refines(back, c1)
        assert checked >= 10

    def test_signature_guard(self, ab, io_i, top):
        c = from_s(top, io_i)
        with pytest.raises(SignatureMismatch):
            quotient(c, mirror(c))
