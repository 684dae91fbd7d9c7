"""Interface automata: refinement, composition with pruning, and the
equivalence with interface hypercontracts."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lang_of
from hyperc.automata import (
    InterfaceAutomaton,
    compose,
    compose_detailed,
    language,
    make,
    refines,
    to_contract,
)
from hyperc.contracts import Incompatible, from_s
from hyperc.contracts import compose as contract_compose
from hyperc.contracts import refines as contract_refines
from hyperc.errors import LimitExceeded, SignatureMismatch, ValidationError
from hyperc.lang import Alphabet, IoSignature, is_subset
from hyperc.oracle import BoundedCheckConfig, random_alphabet, random_ia, random_signature

AB1 = Alphabet(("a",))
IO_OUT_A = IoSignature(AB1, frozenset())
IO_IN_A = IoSignature(AB1, frozenset({"a"}))


def reference_refines(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> bool:
    """Greatest alternating simulation by whole-relation rescans until nothing
    changes; the answer is whether the initial pair stays related."""
    alphabet = a1.io.alphabet
    out_idx = [alphabet.index(s) for s in alphabet.symbols if s not in a1.io.inputs]
    in_idx = [alphabet.index(s) for s in alphabet.symbols if s in a1.io.inputs]
    related = {(q1, q2) for q1 in range(a1.n_states) for q2 in range(a2.n_states)}
    changed = True
    while changed:
        changed = False
        for q1, q2 in list(related):
            moves = [(a1.trans[q1][k], a2.trans[q2][k], a1.trans[q1][k]) for k in out_idx]
            moves += [(a1.trans[q1][k], a2.trans[q2][k], a2.trans[q2][k]) for k in in_idx]
            if any(lead is not None and (t1, t2) not in related for t1, t2, lead in moves):
                related.discard((q1, q2))
                changed = True
    return (a1.initial, a2.initial) in related


def _fewer_outputs_more_inputs(rng: random.Random, a: InterfaceAutomaton) -> InterfaceAutomaton:
    """A copy of `a` with some output edges dropped and some input edges added
    (often a refinement of `a` in the other direction, so both answers occur)."""
    alphabet, n = a.io.alphabet, a.n_states
    rows = [list(row) for row in a.trans]
    for row in rows:
        for k, s in enumerate(alphabet.symbols):
            if s not in a.io.inputs and row[k] is not None and rng.random() < 0.3:
                row[k] = None
            elif s in a.io.inputs and row[k] is None and rng.random() < 0.3:
                row[k] = rng.randrange(n)
    return InterfaceAutomaton(a.io, a.state_names, a.initial, tuple(tuple(row) for row in rows))


@pytest.fixture
def io_i(ab):
    return IoSignature(ab, frozenset({"i"}))


@pytest.fixture
def iloop(io_i):
    return make(io_i, ["p"], "p", {("p", "i"): "p"})


@pytest.fixture
def ioloop(io_i):
    return make(io_i, ["q"], "q", {("q", "i"): "q", ("q", "o"): "q"})


class TestConstruction:
    def test_rejects_nondeterminism(self, io_i):
        with pytest.raises(ValidationError, match="nondeterministic"):
            make(io_i, ["p", "q"], "p", [("p", "i", "p"), ("p", "i", "q")])

    def test_unknown_state_named_as_given(self, io_i):
        with pytest.raises(ValidationError, match=r"^unknown state in transition \('p', 'i', 'zz'\)$"):
            make(io_i, ["p"], "p", [("p", "i", "zz")])
        with pytest.raises(ValidationError, match=r"^unknown state in transition \('p', 'i', 'zz'\)$"):
            make(io_i, ["p"], "p", {("p", "i"): "zz"})

    def test_unreachable_states_trimmed(self, io_i):
        a = make(io_i, ["p", "stray"], "p", {})
        assert a.state_names == ("p",)

    def test_unknown_initial(self, io_i):
        with pytest.raises(ValidationError, match="unknown initial"):
            make(io_i, ["p"], "zz", {})

    def test_state_cap_bounds_ingestion(self, monkeypatch):
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        # Only reachable states count: the stray state is trimmed, not explored.
        assert make(IO_OUT_A, ["p0", "stray"], "p0", {}).state_names == ("p0",)
        message = r"interface-automaton ingestion: 2 states over the bound 1 \(HYPERC_MAX_STATES\)"
        with pytest.raises(LimitExceeded, match=message):
            make(IO_OUT_A, ["p0", "p1"], "p0", {("p0", "a"): "p1"})


class TestLanguage:
    def test_single_state_no_transitions(self, ab, io_i):
        assert language(make(io_i, ["p"], "p", {})) == lang_of(ab, "")

    def test_one_step(self, ab, io_i):
        a = make(io_i, ["p0", "p1"], "p0", {("p0", "i"): "p1"})
        assert language(a) == lang_of(ab, "", "i")

    def test_self_loop(self, ab, io_i, iloop, istar):
        assert language(iloop) == istar

    def test_prefix_closed_always(self, ab, io_i):
        cfg = BoundedCheckConfig(random_seed=41, num_cases=60, max_states=5)
        rng = random.Random(cfg.random_seed)
        from hyperc.lang import is_prefix_closed

        for _ in range(cfg.num_cases):
            assert is_prefix_closed(language(random_ia(rng, io_i, cfg.max_states)))


class TestRefines:
    def test_reflexive(self, iloop):
        assert refines(iloop, iloop)

    def test_iloop_vs_ioloop(self, iloop, ioloop):
        assert refines(iloop, ioloop)
        assert not refines(ioloop, iloop)

    def test_failing_pair_at_the_cap(self, monkeypatch):
        # The follower's missing move ends the search at the initial pair; it
        # is no search state, so the 1×1 relation fits a cap of 1.
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        lead = make(IO_OUT_A, ["p"], "p", {("p", "a"): "p"})
        assert refines(lead, make(IO_OUT_A, ["q"], "q", {})) is False

    def test_signature_mismatch(self, ab, iloop):
        other = make(IoSignature(ab, frozenset({"o"})), ["p"], "p", {})
        with pytest.raises(SignatureMismatch):
            refines(iloop, other)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_fixpoint(self, seed):
        rng = random.Random(seed)
        io = random_signature(rng, random_alphabet(rng))
        a1 = random_ia(rng, io, 6)
        a2 = random_ia(rng, io, 6)
        a3 = _fewer_outputs_more_inputs(rng, a1)
        for x, y in ((a1, a2), (a2, a1), (a3, a1), (a1, a3), (a1, a1)):
            assert refines(x, y) == reference_refines(x, y)

    def test_transitive_spot(self, ab, io_i):
        cfg = BoundedCheckConfig(random_seed=43, num_cases=80, max_states=4)
        rng = random.Random(cfg.random_seed)
        hits = 0
        for _ in range(cfg.num_cases):
            a1 = random_ia(rng, io_i, cfg.max_states)
            a2 = random_ia(rng, io_i, cfg.max_states)
            a3 = random_ia(rng, io_i, cfg.max_states)
            if refines(a1, a2) and refines(a2, a3):
                hits += 1
                assert refines(a1, a3)
        assert hits >= 3


class TestCompose:
    def test_benign_handshake(self):
        a1 = make(IO_OUT_A, ["p0", "p1"], "p0", {("p0", "a"): "p1"})
        a2 = make(IO_IN_A, ["q0"], "q0", {("q0", "a"): "q0"})
        result, pruned = compose_detailed(a1, a2)
        assert not isinstance(result, Incompatible)
        assert language(result) == lang_of(AB1, "", "a")
        assert result.state_names == ("(p0,q0)", "(p1,q0)")
        assert pruned == ()

    def test_unaccepted_output_is_incompatible(self):
        a1 = make(IO_OUT_A, ["p0", "p1"], "p0", {("p0", "a"): "p1"})
        a2 = make(IO_IN_A, ["q0"], "q0", {})
        result, pruned = compose_detailed(a1, a2)
        assert isinstance(result, Incompatible)
        assert pruned == ("(p0,q0)",)

    def test_universal_receiver_preserves_contract(self):
        a1 = make(IO_OUT_A, ["p0", "p1"], "p0", {("p0", "a"): "p1"})
        receiver = make(IO_IN_A, ["u"], "u", {("u", "a"): "u"})
        composite = compose(a1, receiver)
        assert to_contract(composite) == from_s(language(a1), IoSignature(AB1, frozenset()))

    def test_state_cap_bounds_product(self, monkeypatch):
        a1 = make(IO_OUT_A, ["p0", "p1"], "p0", {("p0", "a"): "p1"})
        a2 = make(IO_IN_A, ["q0"], "q0", {("q0", "a"): "q0"})
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        with pytest.raises(LimitExceeded, match=r"composition: 2×1 states over the bound 1 \(HYPERC_MAX_STATES\)"):
            compose_detailed(a1, a2)

    def test_signature_precondition(self, ab):
        io1 = IoSignature(ab, frozenset({"i"}))
        a1 = make(io1, ["p"], "p", {})
        a2 = make(io1, ["q"], "q", {})
        with pytest.raises(SignatureMismatch, match="shared outputs"):
            compose(a1, a2)

    def test_backward_pruning_cascades(self, ab):
        # r0 -o!-> r1 -o!-> r2 where the partner only accepts the first o:
        # the failure at (r1,s1) invalidates (r0,s0) through the output edge.
        sender = make(
            IoSignature(ab, frozenset({"i"})), ["r0", "r1", "r2"], "r0",
            {("r0", "o"): "r1", ("r1", "o"): "r2"},
        )
        listener = make(
            IoSignature(ab, frozenset({"o"})), ["s0", "s1"], "s0", {("s0", "o"): "s1"}
        )
        result, pruned = compose_detailed(sender, listener)
        assert isinstance(result, Incompatible)
        assert pruned == ("(r0,s0)", "(r1,s1)")


class TestContractEquivalence:
    def test_refinement_biconditional(self, ab):
        cfg = BoundedCheckConfig(random_seed=47, num_cases=80, max_states=4)
        rng = random.Random(cfg.random_seed)
        io = IoSignature(ab, frozenset({"i"}))
        for _ in range(cfg.num_cases):
            a1 = random_ia(rng, io, cfg.max_states)
            a2 = random_ia(rng, io, cfg.max_states)
            assert refines(a1, a2) == contract_refines(to_contract(a1), to_contract(a2))

    def test_composition_commutes_with_semantics(self, ab):
        cfg = BoundedCheckConfig(random_seed=48, num_cases=80, max_states=4)
        rng = random.Random(cfg.random_seed)
        io1 = IoSignature(ab, frozenset({"i"}))
        io2 = IoSignature(ab, frozenset({"o"}))
        agree = 0
        for _ in range(cfg.num_cases):
            a1 = random_ia(rng, io1, cfg.max_states)
            a2 = random_ia(rng, io2, cfg.max_states)
            via_ia = compose(a1, a2)
            via_contract = contract_compose(to_contract(a1), to_contract(a2))
            assert isinstance(via_ia, Incompatible) == isinstance(via_contract, Incompatible)
            if not isinstance(via_ia, Incompatible):
                agree += 1
                assert to_contract(via_ia) == via_contract
        assert agree >= 10

    def test_refinement_gives_language_inclusions(self, ab):
        cfg = BoundedCheckConfig(random_seed=49, num_cases=60, max_states=4)
        rng = random.Random(cfg.random_seed)
        io = IoSignature(ab, frozenset({"i"}))
        for _ in range(cfg.num_cases):
            a1 = random_ia(rng, io, cfg.max_states)
            a2 = random_ia(rng, io, cfg.max_states)
            if refines(a1, a2):
                c1, c2 = to_contract(a1), to_contract(a2)
                assert is_subset(c1.m, c2.m) and is_subset(c2.e, c1.e)
