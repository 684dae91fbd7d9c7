"""Finite-universe component/compset/contract algebra, the AG bridge, and
the structural facts (convexity, saturation, mirror identity)."""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperc import behavioral
from hyperc.behavioral import (
    _CLOSURE_FROM,
    _PACKED_FROM,
    AgContract,
    BehavioralHypercontract,
    Component,
    ConicCompset,
    GeneralCompset,
    Universe,
    _closed,
    ag_compose,
    ag_merge_strong,
    ag_merge_weak,
    ag_to_contract,
    all_antichains,
    component_quotient,
    contract_compose,
    contract_join,
    contract_meet,
    contract_quotient,
    contract_refines,
    convexity,
    is_saturated,
    normalize_masks,
    strong_merge_general,
)
from hyperc.errors import LimitExceeded, UniverseTooLarge, ValidationError
from hyperc.jsonio import parse_behavioral

U4 = Universe(("0", "1", "2", "3"))
U3 = Universe(("x", "y", "z"))
U64 = Universe(tuple(str(k) for k in range(64)))


def wide_antichain(seed: int, shift: int) -> tuple[int, ...]:
    """1001 distinct masks of popcount 30 on bits shift to shift + 59: a sorted antichain."""
    rng = random.Random(seed)
    ms = set()
    while len(ms) < 1001:
        ms.add(sum(1 << b + shift for b in rng.sample(range(60), 30)))
    return tuple(sorted(ms))


def scattered_antichain(seed: int, count: int) -> tuple[int, ...]:
    """A sorted antichain of count masks of popcount 8-56 over 64 behaviors, so
    that in decreasing popcount order the narrow ones come after the wide ones'
    submasks."""
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        m = sum(1 << b for b in rng.sample(range(64), rng.randint(8, 56)))
        if all(m & ~o and o & ~m for o in out):
            out.append(m)
    return tuple(sorted(out))


def comp(*behaviors: int) -> Component:
    return Component.from_behaviors(U4, [str(b) for b in behaviors])


def conic(*masks: int) -> ConicCompset:
    return ConicCompset.from_components(U4, list(masks))


def is_downward_closed(h: GeneralCompset) -> bool:
    return all(
        (m & ~(1 << k)) in h.members
        for m in h.members
        for k in range(h.universe.size)
        if m >> k & 1
    )


def general(c: BehavioralHypercontract) -> BehavioralHypercontract:
    """The same contract over the explicit (general) compsets of its downward closures."""
    return BehavioralHypercontract(c.env.to_general(), c.impl.to_general())


class TestUniverseAndComponents:
    def test_universe_bounds(self):
        with pytest.raises(UniverseTooLarge):
            Universe(tuple(f"b{k}" for k in range(65)))
        with pytest.raises(ValidationError):
            Universe(())

    def test_component_quotient_examples(self):
        assert component_quotient(comp(0, 1, 2), comp(0, 1)).mask == U4.full_mask
        assert component_quotient(comp(0), comp(0, 1)) == comp(0, 2, 3)

    def test_component_quotient_adjunction_exhaustive(self):
        c, c2 = comp(0, 2), comp(1, 2)
        q = component_quotient(c, c2)
        for x in range(16):
            assert ((c2.mask & x) & ~c.mask == 0) == (x & ~q.mask == 0)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="universe mismatch"):
            comp(0) & Component.from_behaviors(U3, ["x"])


class TestGeneralOps:
    def test_compose_singletons(self):
        u = U3
        h = GeneralCompset(u, frozenset({0b011}))
        h2 = GeneralCompset(u, frozenset({0b110}))
        assert h.compose(h2).members == {0b010}

    def test_quotient_by_top_on_downward_closed(self):
        # exhaustive over all compsets of a 3-behavior universe
        u = U3
        top = GeneralCompset(u, frozenset({u.full_mask}))
        for bits in range(256):
            h = GeneralCompset(u, frozenset(m for m in range(8) if bits >> m & 1))
            if is_downward_closed(h):
                assert h.quotient(top).members == h.members

    def test_meet_join_are_set_ops(self):
        rng = random.Random(1)
        for _ in range(50):
            a = frozenset(rng.randrange(8) for _ in range(rng.randint(0, 5)))
            b = frozenset(rng.randrange(8) for _ in range(rng.randint(0, 5)))
            ha, hb = GeneralCompset(U3, a), GeneralCompset(U3, b)
            assert ha.meet(hb).members == a & b
            assert ha.join(hb).members == a | b

    def test_general_mode_guard(self):
        big = Universe(tuple(f"b{k}" for k in range(9)))
        with pytest.raises(UniverseTooLarge, match="general mode"):
            GeneralCompset(big, frozenset())

    def test_contract_over_general_compsets(self):
        h = GeneralCompset(U4, frozenset({0b0011}))
        empty = GeneralCompset(U4, frozenset())
        assert BehavioralHypercontract(empty, h).is_consistent()
        assert not BehavioralHypercontract(h, empty).is_consistent()
        with pytest.raises(ValueError, match="one compset representation"):
            BehavioralHypercontract(conic(0b0011), h)


class TestOneOperandRule:
    """Operands of two compset representations are refused with ValidationError,
    in either order, by every binary operation, before any result is built."""

    conic_h = ConicCompset.from_components(U4, [0b0011, 0b0110])
    general_h = GeneralCompset(U4, frozenset({0b0001, 0b0011}))
    conic_c = BehavioralHypercontract(conic_h, ConicCompset.full(U4))
    general_c = BehavioralHypercontract(general_h, GeneralCompset(U4, frozenset({0b1111})))

    @pytest.mark.parametrize("method", ["leq", "compose", "meet", "join", "quotient"])
    def test_compset_methods(self, method):
        for h, h2 in ((self.conic_h, self.general_h), (self.general_h, self.conic_h)):
            with pytest.raises(ValidationError, match="one compset representation: "):
                getattr(h, method)(h2)

    @pytest.mark.parametrize(
        "op",
        [contract_compose, contract_quotient, contract_meet, contract_join, contract_refines, strong_merge_general],
    )
    def test_contract_operations(self, op):
        for c, c2 in ((self.conic_c, self.general_c), (self.general_c, self.conic_c)):
            with pytest.raises(ValidationError, match="one compset representation"):
                op(c, c2)

    def test_is_saturated(self):
        for env, closed in ((self.conic_h, self.general_h), (self.general_h, self.conic_h)):
            with pytest.raises(ValidationError, match="ConicCompset, GeneralCompset|GeneralCompset, ConicCompset"):
                is_saturated(env, closed)

    def test_component_with_compset(self):
        message = "^operands must share one compset representation: Component, ConicCompset$"
        with pytest.raises(ValidationError, match=message):
            comp(0) & self.conic_h

    def test_contract_representation_round_trip(self):
        assert self.conic_c.to_general() == general(self.conic_c)
        assert self.conic_c.to_general().to_conic() == self.conic_c
        assert self.general_c.to_conic() == BehavioralHypercontract(
            self.general_h.to_conic(), ConicCompset.full(U4)
        )


class TestConicRepresentation:
    def test_normalize_drops_dominated(self):
        assert ConicCompset.from_components(U4, [comp(0), comp(0, 1)]).maximals == (comp(0, 1).mask,)

    def test_normalize_empty(self):
        assert ConicCompset.from_components(U4, []).maximals == ()

    @pytest.mark.parametrize("masks", [[0b10000], [0b0011, 0b10011], [-1], [0b0001, -2]])
    def test_components_outside_universe_rejected(self, masks):
        with pytest.raises(ValueError, match="leaves its universe"):
            ConicCompset.from_components(U4, masks)

    def test_public_constructor_checks(self):
        with pytest.raises(ValueError, match="leaves its universe"):
            ConicCompset(U4, (0b10000,))
        for maximals in ((0b0011, 0b0001), (0b0010, 0b0001), (0b0001, 0b0001)):
            with pytest.raises(ValueError, match="sorted antichain"):
                ConicCompset(U4, maximals)

    def test_denotation_matches_downward_closure(self):
        rng = random.Random(2)
        for _ in range(40):
            h = ConicCompset.from_components(U4, [rng.randrange(16) for _ in range(rng.randint(0, 3))])
            dc = h.to_general()
            for m in range(16):
                assert h.contains(m) == dc.contains(m)

    def test_leq_examples(self):
        assert conic(0b0001).leq(conic(0b0011))
        assert not conic(0b0001, 0b0100).leq(conic(0b0011))

    def test_leq_matches_denotation_order_exhaustive(self):
        chains = all_antichains(U4)
        sample = chains[::7]
        for ms in sample:
            for ms2 in sample:
                h, h2 = ConicCompset(U4, ms), ConicCompset(U4, ms2)
                assert h.leq(h2) == (h.to_general().members <= h2.to_general().members)


class TestConicOps:
    def test_compose_examples(self):
        assert conic(0b0011).compose(conic(0b0110)).maximals == (0b0010,)
        got = conic(0b0011, 0b1100).compose(conic(0b0101))
        assert got.maximals == (0b0001, 0b0100)

    def test_compose_size_bound(self):
        rng = random.Random(3)
        for _ in range(50):
            h = ConicCompset.from_components(U4, [rng.randrange(16) for _ in range(3)])
            h2 = ConicCompset.from_components(U4, [rng.randrange(16) for _ in range(3)])
            assert h.compose(h2).k <= h.k * h2.k

    def test_quotient_examples(self):
        assert conic(0b0111).quotient(conic(0b0011)).maximals == (0b1111,)
        got = conic(0b0011, 0b1100).quotient(conic(0b0101))
        assert got.maximals == (0b1011, 0b1110)
        # the certified inclusions from the worked example
        assert 0b0101 & 0b1011 == 0b0001 and 0b0001 & ~0b0011 == 0
        assert 0b0101 & 0b1110 == 0b0100 and 0b0100 & ~0b1100 == 0

    def test_quotient_edges(self):
        assert conic(0b0011).quotient(ConicCompset.empty(U4)).maximals == (0b1111,)
        assert ConicCompset.empty(U4).quotient(conic(0b1)).maximals == ()

    def test_quotient_size_bound(self):
        rng = random.Random(4)
        for _ in range(50):
            h = ConicCompset.from_components(U4, [rng.randrange(16) for _ in range(3)])
            h2 = ConicCompset.from_components(U4, [rng.randrange(16) for _ in range(2)])
            if h2.k:
                assert h.quotient(h2).k <= h.k ** h2.k

    def test_quotient_adjunction_exhaustive_small(self):
        chains = all_antichains(U4)
        rng = random.Random(5)
        for _ in range(30):
            h = ConicCompset(U4, rng.choice(chains))
            h2 = ConicCompset(U4, rng.choice(chains))
            q = h.quotient(h2)
            for ms in chains:
                x = ConicCompset(U4, ms)
                assert x.compose(h2).leq(h) == x.leq(q)

    def test_agreement_with_general_engine(self):
        chains = all_antichains(U4)
        rng = random.Random(6)
        for _ in range(60):
            h = ConicCompset(U4, rng.choice(chains))
            h2 = ConicCompset(U4, rng.choice(chains))
            hg, hg2 = h.to_general(), h2.to_general()
            assert h.compose(h2).to_general().members == hg.compose(hg2).members
            assert h.meet(h2).to_general().members == hg.meet(hg2).members
            assert h.join(h2).to_general().members == hg.join(hg2).members
            assert h.quotient(h2).to_general().members == hg.quotient(hg2).members


def reference_normalize(masks) -> tuple[int, ...]:
    """The pairwise filter: keep each mask no other distinct mask contains."""
    uniq = sorted(set(masks))
    return tuple(m for m in uniq if not any(m != o and m & ~o == 0 for o in uniq))


def sliced_normalize(masks) -> tuple[int, ...]:
    """The same filter by a per-bit index, fast enough for 10⁴ masks: bit k of
    holders[b] says that distinct mask k holds behavior b, so the masks holding
    all of m's behaviors are the ∧ of its bits' holders, and m is kept iff that
    is m alone."""
    uniq = sorted(set(masks))
    holders: dict[int, int] = {}
    for k, m in enumerate(uniq):
        for b in range(m.bit_length()):
            if m >> b & 1:
                holders[b] = holders.get(b, 0) | 1 << k
    everyone = (1 << len(uniq)) - 1
    return tuple(
        m
        for k, m in enumerate(uniq)
        if functools.reduce(operator.and_, (holders[b] for b in range(m.bit_length()) if m >> b & 1), everyone) == 1 << k
    )


def reference_quotient(ms, ms2, full: int) -> tuple[int, ...]:
    """One meet  ⋀_{M'∈ms2} M(M')/M'  per choice function M(·): ms2 → ms."""
    if not ms2:
        return (full,)
    out = []
    for choice in itertools.product(ms, repeat=len(ms2)):
        acc = full
        for picked, m2 in zip(choice, ms2):
            acc &= (full & ~m2) | picked
        out.append(acc)
    return reference_normalize(out)


@st.composite
def raw_masks(draw, bits: int, max_tops: int = 5) -> tuple[int, ...]:
    """Up to max_tops masks over `bits` behaviors, some of them dominated by
    or equal to another one in the list."""
    mask = st.integers(0, (1 << bits) - 1)
    out = draw(st.lists(mask, max_size=max_tops))
    for k in range(len(out)):
        kind = draw(st.sampled_from(("keep", "sub", "dup")))
        if k and kind == "sub":
            out[k] = out[draw(st.integers(0, k - 1))] & draw(mask)
        elif k and kind == "dup":
            out[k] = out[draw(st.integers(0, k - 1))]
    return tuple(out)


@st.composite
def many_masks(draw) -> tuple[int, ...]:
    """Up to about 200 masks over 1-64 behaviors, often with more than
    _PACKED_FROM maximals: repeats, dominated submasks, and the empty and
    full masks among them."""
    bits = draw(st.integers(1, 64))
    full = (1 << bits) - 1
    mask = st.integers(0, full)
    rng = random.Random(draw(st.integers(0, 2**32)))  # uniform tops: Hypothesis favours small ints
    tops = [rng.getrandbits(bits) for _ in range(draw(st.integers(0, 120)))]
    out = tops + [0] * draw(st.booleans())
    if draw(st.integers(0, 9)) == 0:  # the full mask leaves one maximal, so only now and then
        out.append(full)
    if tops:
        out += draw(st.lists(st.sampled_from(tops), max_size=40))
        out += [top & sub for top, sub in draw(st.lists(st.tuples(st.sampled_from(tops), mask), max_size=40))]
    return tuple(draw(st.permutations(out)))


@st.composite
def quotient_operands(draw):
    bits = draw(st.integers(1, 64))
    return bits, draw(raw_masks(bits)), draw(raw_masks(bits))


class TestConicKernel:
    @settings(max_examples=300, deadline=None)
    @given(quotient_operands())
    def test_normalize_matches_pairwise_filter(self, operands):
        _, ms, ms2 = operands
        assert normalize_masks(ms) == reference_normalize(ms)
        assert normalize_masks(ms + ms2) == reference_normalize(ms + ms2)

    @settings(max_examples=300, deadline=None)
    @given(quotient_operands())
    def test_quotient_matches_choice_enumeration(self, operands):
        bits, ms, ms2 = operands
        u = Universe(tuple(f"b{k}" for k in range(bits)))
        q = ConicCompset(u, normalize_masks(ms)).quotient(ConicCompset(u, normalize_masks(ms2)))
        assert q.maximals == reference_quotient(ms, ms2, u.full_mask)

    def test_quotient_beyond_choice_count(self):
        # 8**7 choice functions, more than the cap, but every fold step stays
        # below it because a 12-behavior antichain has at most 924 masks.
        u = Universe(tuple(f"b{k}" for k in range(12)))
        rng = random.Random(8)

        def compset(k: int) -> ConicCompset:
            h = ConicCompset.empty(u)
            while h.k < k:
                h = h.join(ConicCompset(u, (rng.getrandbits(12),)))
            return h

        h, h2 = compset(8), compset(7)
        assert len(h.maximals) ** len(h2.maximals) > 1_000_000
        q = h.quotient(h2)
        assert ConicCompset(u, q.maximals) == q
        for m in range(u.full_mask + 1):
            assert q.contains(m) == all(h.contains(m & b) for b in h2.maximals)
        for _ in range(40):
            x = compset(rng.randint(1, 4))
            assert x.compose(h2).leq(h) == x.leq(q)

    def test_step_over_cap_raises(self):
        # 1001 dividend maximals of popcount 30 on bits 0-59; the first
        # divisor maximal keeps them all apart, so the second step would
        # build 1001 × 1001 candidates.
        h = ConicCompset(U64, wide_antichain(9, 0))
        low = (1 << 60) - 1
        h2 = ConicCompset(U64, (low | 1 << 60, low | 1 << 61))
        message = (
            "conic quotient step 2 of 2: 1001 × 1001 = 1002001 candidates over the bound 1000000 (MAX_MEET_CANDIDATES)"
        )
        with pytest.raises(LimitExceeded, match=f"^{re.escape(message)}$"):
            h.quotient(h2)
        assert h.quotient(ConicCompset(U64, h2.maximals[:1])).k == 1001

    @pytest.mark.parametrize(
        "operation, name",
        [
            (ConicCompset.compose, "conic composition"),
            (ConicCompset.meet, "conic meet"),
            (lambda h, h2: contract_compose(*(BehavioralHypercontract(ConicCompset.full(U64), x) for x in (h, h2))),
             "conic composition"),
        ],
        ids=["compose", "meet", "contract_compose"],
    )
    def test_meet_over_cap_raises(self, operation, name):
        # Two 1001-maximal antichains: 1001 × 1001 candidates, refused before any is built.
        h, h2 = ConicCompset(U64, wide_antichain(1, 0)), ConicCompset(U64, wide_antichain(2, 4))
        message = f"{name}: 1001 × 1001 = 1002001 candidates over the bound 1000000 (MAX_MEET_CANDIDATES)"
        with pytest.raises(LimitExceeded, match=f"^{re.escape(message)}$"):
            operation(h, h2)


class TestPackedNormalize:
    """normalize_masks past _PACKED_FROM kept maximals, where one lane test
    covers all of them."""

    @settings(max_examples=200, deadline=None)
    @given(many_masks())
    def test_normalize_matches_pairwise_filter(self, masks):
        assert normalize_masks(masks) == reference_normalize(masks)

    @pytest.mark.parametrize("count", [_PACKED_FROM - 1, _PACKED_FROM, _PACKED_FROM + 1])
    def test_threshold_counts(self, count):
        rng = random.Random(count)
        tops = scattered_antichain(count, count)
        masks = [*tops, *(rng.choice(tops) & rng.getrandbits(64) for _ in range(3 * count)), *tops[:5], 0]
        rng.shuffle(masks)
        assert normalize_masks(masks) == reference_normalize(masks) == tops

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda ks: ks[0] ** ks[1] <= 1024),
           st.randoms(use_true_random=False))
    def test_quotient_matches_choice_enumeration_64(self, ks, rng):
        # 64 behaviors keep nearly every candidate distinct, so the steps reach the lane test.
        k, k2 = ks
        ms, ms2 = scattered_antichain(rng.getrandbits(32), k), scattered_antichain(rng.getrandbits(32), k2)
        q = ConicCompset(U64, ms).quotient(ConicCompset(U64, ms2))
        assert q.maximals == reference_quotient(ms, ms2, U64.full_mask)

    def test_wide_compose(self):
        h, h2 = ConicCompset(U64, wide_antichain(1, 0)[:40]), ConicCompset(U64, wide_antichain(2, 4)[:40])
        got = h.compose(h2)
        assert got.k > 4 * _PACKED_FROM
        assert got.maximals == reference_normalize(a & b for a in h.maximals for b in h2.maximals)

    def test_wide_from_components(self):
        rng = random.Random(11)
        masks = [sum(1 << b for b in rng.sample(range(64), 32)) for _ in range(1000)]
        masks += [m & rng.getrandbits(64) for m in masks[:200]]
        assert ConicCompset.from_components(U64, masks).maximals == reference_normalize(masks)

    @pytest.mark.parametrize("count", [_PACKED_FROM - 6, _PACKED_FROM + 4])
    @pytest.mark.parametrize("bad", [-1, -(1 << 20), 1 << 16, (1 << 70) | 1])
    def test_outside_universe_refused_on_both_sides_of_the_threshold(self, bad, count):
        # Distinct popcount-8 masks form an antichain, all visited before the narrow bad mask.
        u = Universe(tuple(str(k) for k in range(16)))
        rng = random.Random(count)
        masks: set[int] = set()
        while len(masks) < count:
            masks.add(sum(1 << b for b in rng.sample(range(16), 8)))
        with pytest.raises(ValidationError, match="^maximal component leaves its universe$"):
            ConicCompset.from_components(u, [*masks, bad])


def all_meets(families) -> list[int]:
    """⋀_j q_j for every choice of one q_j from each family."""
    return [functools.reduce(operator.and_, choice) for choice in itertools.product(*families)]


@st.composite
def meet_families(draw):
    """1-6 families of 1-40 masks over w behaviors, w one of the lane widths
    that straddle a byte, with at most 600 meets.  A family may repeat a mask,
    hold a mask below another, or (now and then) be empty.  Masks are drawn
    uniformly, so that wide meets stay incomparable and often pass the switch,
    and every nonempty family's first mask holds bit w - 1, so the widest meet
    is w bits wide."""
    w = draw(st.sampled_from((1, 7, 8, 9, 15, 16, 17, 63, 64)))
    rng = random.Random(draw(st.integers(0, 2**32)))  # Hypothesis's own randoms favour small ints
    families, meets = [], 1
    for _ in range(draw(st.integers(1, 6))):
        most = max(1, min(40, 600 // meets))
        size = draw(st.one_of(st.just(most), st.integers(1, most)))  # often the most, to pass the switch
        family = [rng.getrandbits(w) | 1 << w - 1]
        for k in range(1, size):
            kind = rng.choice(("keep", "keep", "keep", "sub", "dup"))
            other = rng.choice(family)
            family.append(rng.getrandbits(w) if kind == "keep" else other & rng.getrandbits(w) if kind == "sub" else other)
        families.append(family)
        meets *= size
    if draw(st.integers(0, 19)) == 0:
        families.insert(draw(st.integers(0, len(families))), [])
    return w, families


def closure_spy(monkeypatch) -> list[tuple[int, int]]:
    """Record (masks tested, masks kept) of every call to behavioral._closed."""
    calls: list[tuple[int, int]] = []

    def spy(masks, families, w):
        kept = list(_closed(masks, families, w))
        calls.append((len(masks), len(kept)))
        return kept

    monkeypatch.setattr(behavioral, "_closed", spy)
    return calls


def block_families(sizes, extras: int = 0):
    """Families over disjoint blocks of behaviors, one block per family, and a
    block of `extras` behaviors that every mask holds: family j holds each mask
    that lacks one behavior of its block, so the ∏ sizes meets form an antichain.
    Family 0 also holds its first mask less each extra behavior, which adds
    extras · ∏ sizes[1:] distinct meets, each below one of the antichain's."""
    starts = list(itertools.accumulate(sizes, initial=0))
    full = (1 << starts[-1] + extras) - 1
    families = [[full & ~(1 << starts[j] + i) for i in range(size)] for j, size in enumerate(sizes)]
    families[0] += [families[0][0] & ~(1 << starts[-1] + t) for t in range(extras)]
    return families


class TestClosureNormalize:
    """normalize_masks given the families whose meets the masks are: past
    _CLOSURE_FROM × the family masks kept, the masks left are decided by closure."""

    @settings(max_examples=300, deadline=None)
    @given(meet_families())
    def test_closure_matches_pairwise_filter(self, drawn):
        w, families = drawn
        meets = all_meets(families)
        expected = reference_normalize(meets)
        assert normalize_masks(meets, families=families) == expected
        assert tuple(sorted(_closed(sorted(set(meets)), families, w))) == expected
        assert sliced_normalize(meets) == expected

    @pytest.mark.parametrize(
        "sizes, extras, over, closure",
        [
            ((3, 9), 2, -1, None),  # 27 maximals, switch at 2 × 14 = 28: never reached
            ((4, 8), 4, 0, (32, 0)),  # 32 maximals, switch at 32: the 32 dominated are left
            ((5, 9), 8, 1, (73, 1)),  # 45 maximals, switch at 44: one maximal and 72 dominated left
            ((5, 5), 2, 1, None),  # 25 maximals, switch at 24: 11 masks left are fewer than 24
            ((4, 4), 0, 0, None),  # 16 maximals, switch at 16 = _PACKED_FROM: nothing left
            ((3, 3, 3), 4, 1, (37, 1)),  # 27 maximals, switch at 26: one maximal and 36 dominated left
        ],
        ids=["below", "at", "above", "few-left", "at-packed-from", "three-families"],
    )
    def test_switch_point(self, sizes, extras, over, closure, monkeypatch):
        calls = closure_spy(monkeypatch)
        families = block_families(sizes, extras)
        meets = all_meets(families)
        maximals = reference_normalize(meets)
        assert len(maximals) == _CLOSURE_FROM * sum(map(len, families)) + over
        assert normalize_masks(meets, families=families) == maximals
        assert calls == ([] if closure is None else [closure])

    def test_switch_needs_room_in_the_work_bound(self, monkeypatch):
        # 117 distinct meets, 22 family masks: the switch at 44 maximals leaves
        # 73 masks, whose closure counts 73 × 22 × 5 beside the 117 × 44 done.
        calls = closure_spy(monkeypatch)
        families = block_families((5, 9), 8)
        meets = all_meets(families)
        assert (len(set(meets)), sum(map(len, families))) == (117, 22)
        monkeypatch.setattr(behavioral, "MAX_NORMALIZE_WORK", 117 * 44 + 73 * 22 * 5 - 1)
        assert normalize_masks(meets, families=families) == reference_normalize(meets)
        assert calls == []
        monkeypatch.setattr(behavioral, "MAX_NORMALIZE_WORK", 117 * 44 + 73 * 22 * 5)
        assert normalize_masks(meets, families=families) == reference_normalize(meets)
        assert calls == [(73, 1)]

    def test_wide_compose_100(self, monkeypatch):
        calls = closure_spy(monkeypatch)
        h, h2 = ConicCompset(U64, wide_antichain(1, 0)[:100]), ConicCompset(U64, wide_antichain(2, 4)[:100])
        meets = [a & b for a in h.maximals for b in h2.maximals]
        assert len(meets) == 10_000
        assert h.compose(h2).maximals == sliced_normalize(meets) == normalize_masks(meets)
        assert calls and calls[0][0] > calls[0][1] > 0

    def test_golden_bundle_reaches_the_closure(self, monkeypatch):
        # The compose and the quotient pinned by the golden corpus take the closure path.
        raw = json.loads((Path(__file__).parent / "data" / "beh_wide.json").read_text(encoding="utf-8"))
        doc = parse_behavioral(raw)
        calls = closure_spy(monkeypatch)
        composed = doc.compsets["wa"].compose(doc.compsets["wb"])
        assert len(calls) == 1 and calls[0][0] > calls[0][1] > 0
        meets = [a & b for a in doc.compsets["wa"].maximals for b in doc.compsets["wb"].maximals]
        assert composed.maximals == sliced_normalize(meets)
        h, h2 = doc.compsets["q5"], doc.compsets["q4"]
        assert h.quotient(h2).maximals == reference_quotient(h.maximals, h2.maximals, U64.full_mask)
        assert len(calls) > 1


class TestContracts:
    def _ag_pair(self):
        return AgContract(comp(0, 1), comp(0, 2)), AgContract(comp(0, 2), comp(0, 1))

    def test_ag_running_example(self):
        ag1, ag2 = self._ag_pair()
        c1, c2 = ag_to_contract(ag1), ag_to_contract(ag2)
        assert c1.env.maximals == (comp(0, 1).mask,)
        assert c1.impl.maximals == (comp(0, 2, 3).mask,)
        composite = contract_compose(c1, c2)
        assert composite.env.maximals == (comp(0, 1, 2).mask,)
        assert composite.impl.maximals == (comp(0, 3).mask,)

    def test_compose_with_identity(self):
        c1 = ag_to_contract(self._ag_pair()[0])
        ident = BehavioralHypercontract(ConicCompset.full(U4), ConicCompset.full(U4))
        assert contract_compose(c1, ident).impl.maximals == c1.impl.maximals

    def test_quotient_then_compose_refines_target(self):
        rng = random.Random(7)
        u = Universe(tuple("abcdef"[:6]))
        for _ in range(60):
            def rand_conic():
                k = rng.randint(1, 3)
                return ConicCompset.from_components(u, [rng.randrange(64) for _ in range(k)])
            target = BehavioralHypercontract(rand_conic(), rand_conic())
            part = BehavioralHypercontract(rand_conic(), rand_conic())
            q = contract_quotient(target, part)
            back = contract_compose(part, q)
            assert contract_refines(back, target)

    def test_meet_is_glb_join_is_lub_exhaustive_b3(self):
        u = Universe(("x", "y", "z"))
        chains = all_antichains(u)[::3]
        contracts = [
            BehavioralHypercontract(ConicCompset(u, e), ConicCompset(u, i))
            for e, i in itertools.product(chains, chains)
        ]
        rng = random.Random(8)
        sample = rng.sample(contracts, 25)
        for c1, c2 in itertools.combinations(sample, 2):
            m = contract_meet(c1, c2)
            j = contract_join(c1, c2)
            assert contract_refines(m, c1) and contract_refines(m, c2)
            assert contract_refines(c1, j) and contract_refines(c2, j)
        for c1, c2 in zip(sample[:12], sample[12:]):
            m = contract_meet(c1, c2)
            j = contract_join(c1, c2)
            for x in rng.sample(contracts, 30):
                if contract_refines(x, c1) and contract_refines(x, c2):
                    assert contract_refines(x, m)
                if contract_refines(c1, x) and contract_refines(c2, x):
                    assert contract_refines(j, x)

    def test_meet_idempotent(self):
        c = ag_to_contract(self._ag_pair()[0])
        m = contract_meet(c, c)
        assert m.env.maximals == c.env.maximals and m.impl.maximals == c.impl.maximals


class TestAgBridge:
    def test_bridge_values(self):
        c = ag_to_contract(AgContract(comp(0, 1), comp(0, 2)))
        assert c.env.maximals == (comp(0, 1).mask,)
        assert c.impl.maximals == (comp(0, 2, 3).mask,)

    def test_ag_compose_matches_contract_compose(self):
        rng = random.Random(9)
        for _ in range(80):
            ag1 = AgContract(Component(U4, rng.randrange(16)), Component(U4, rng.randrange(16)))
            ag2 = AgContract(Component(U4, rng.randrange(16)), Component(U4, rng.randrange(16)))
            bridged = contract_compose(ag_to_contract(ag1), ag_to_contract(ag2))
            direct = ag_to_contract(ag_compose(ag1, ag2))
            assert direct.env.maximals == bridged.env.maximals
            assert direct.impl.maximals == bridged.impl.maximals

    def test_merge_strong_example(self):
        ag1 = AgContract(comp(0, 1), comp(0, 2))
        ag2 = AgContract(comp(0, 2), comp(0, 1))
        merged = ag_merge_strong(ag1, ag2)
        assert merged.assumptions == comp(0) and merged.guarantees == comp(0)
        bridged = ag_to_contract(merged)
        assert bridged.env.maximals == (comp(0).mask,)
        assert bridged.impl.maximals == (U4.full_mask,)

    def test_merge_strong_matches_general_search(self):
        rng = random.Random(10)
        for _ in range(60):
            ag1 = AgContract(Component(U4, rng.randrange(16)), Component(U4, rng.randrange(16)))
            ag2 = AgContract(Component(U4, rng.randrange(16)), Component(U4, rng.randrange(16)))
            c1, c2 = (general(ag_to_contract(ag)) for ag in (ag1, ag2))
            merged = ag_to_contract(ag_merge_strong(ag1, ag2))
            assert general(merged) == strong_merge_general(c1, c2)

    def test_merge_weak_is_meet(self):
        ag1 = AgContract(comp(0, 1), comp(0, 2))
        ag2 = AgContract(comp(0, 2), comp(0, 1))
        weak = ag_merge_weak(ag1, ag2)
        meet = contract_meet(ag_to_contract(ag1), ag_to_contract(ag2))
        assert weak.env.maximals == meet.env.maximals
        assert weak.impl.maximals == meet.impl.maximals

    def test_bridge_is_saturated_exhaustive(self):
        for a_mask in range(16):
            for g_mask in range(16):
                c = ag_to_contract(AgContract(Component(U4, a_mask), Component(U4, g_mask)))
                env = c.env.to_general()
                closed = env.compose(c.impl.to_general())
                assert is_saturated(env, closed)


class TestStructuralFacts:
    def test_all_compsets_coconvex_exhaustive_b3(self):
        for bits in range(256):
            h = GeneralCompset(U3, frozenset(m for m in range(8) if bits >> m & 1))
            assert convexity(h).coconvex

    def test_convexity_preserved_by_composition(self):
        convex_sets = [
            GeneralCompset(U3, frozenset(m for m in range(8) if bits >> m & 1))
            for bits in range(256)
        ]
        convex_sets = [h for h in convex_sets if convexity(h).convex]
        rng = random.Random(11)
        for h in rng.sample(convex_sets, 20):
            for h2 in rng.sample(convex_sets, 20):
                assert convexity(h.compose(h2)).convex

    def test_downward_closed_are_flat(self):
        for bits in range(256):
            h = GeneralCompset(U3, frozenset(m for m in range(8) if bits >> m & 1))
            if is_downward_closed(h):
                assert convexity(h).flat

    def test_mirror_identity_general_b3(self):
        rng = random.Random(12)
        for _ in range(60):
            def rand_general():
                return GeneralCompset(U3, frozenset(rng.randrange(8) for _ in range(rng.randint(0, 5))))
            # Arbitrary explicit sets, not only downward-closed ones.
            c1 = BehavioralHypercontract(rand_general(), rand_general())
            c2 = BehavioralHypercontract(rand_general(), rand_general())
            assert contract_meet(c1, c2).mirror() == contract_join(c1.mirror(), c2.mirror())

    def test_general_mode_compose_matches_conic_on_closures(self):
        chains = all_antichains(U4)
        rng = random.Random(13)
        for _ in range(40):
            def rand_contract():
                return BehavioralHypercontract(
                    ConicCompset(U4, rng.choice(chains)), ConicCompset(U4, rng.choice(chains))
                )
            c1, c2 = rand_contract(), rand_contract()
            assert general(contract_compose(c1, c2)) == contract_compose(general(c1), general(c2))


class TestConicAgainstGeneralEngine:
    """The structural checks and the strong merge give on conic operands what the
    general (reference) engine gives on their downward closures."""

    chains = all_antichains(U4)[::7]

    def test_convexity(self):
        for ms in self.chains:
            h = ConicCompset(U4, ms)
            assert convexity(h) == convexity(h.to_general())

    def test_is_saturated(self):
        for e, s in itertools.product(self.chains, self.chains):
            env, closed = ConicCompset(U4, e), ConicCompset(U4, s)
            assert is_saturated(env, closed) == is_saturated(env.to_general(), closed.to_general())

    def test_strong_merge(self):
        contracts = [
            BehavioralHypercontract(ConicCompset(U4, e), ConicCompset(U4, i))
            for e, i in itertools.product(self.chains[::3], self.chains[1::3])
        ]
        for c1, c2 in itertools.product(contracts, contracts):
            reference = strong_merge_general(general(c1), general(c2))
            expected = BehavioralHypercontract(reference.env.to_conic(), reference.impl.to_conic())
            assert strong_merge_general(c1, c2) == expected


class TestNonInterference:
    def test_one_bit_compset_is_four_conic(self):
        # behaviors are (public input, public output) pairs of one bit each
        universe = Universe(tuple(f"p{p}o{o}" for p in (0, 1) for o in (0, 1)))

        def respects_noninterference(mask: int) -> bool:
            picked = [universe.behaviors[k] for k in range(4) if mask >> k & 1]
            return all(
                not (a[1] == b[1] and a[3] != b[3]) for a in picked for b in picked
            )

        ni = [m for m in range(16) if respects_noninterference(m)]
        maxi = ConicCompset.from_components(universe, ni)
        graphs = {
            universe.mask_of([f"p0o{f0}", f"p1o{f1}"]) for f0 in (0, 1) for f1 in (0, 1)
        }
        assert set(maxi.maximals) == graphs and maxi.k == 4
