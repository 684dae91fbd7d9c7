"""Value semantics of every immutable value type: a field can be neither
assigned nor deleted, whether the value came from its constructor or from an
operator; values are equal exactly when they share a class and their fields
are equal (a language by its canonical form); fields can be passed by
keyword.  Every check a value or a public operation makes refuses with a
`HypercError`."""

from __future__ import annotations

import os
from unittest import mock

import pytest

from hyperc import automata, contracts, oracle, receptive
from hyperc.behavioral import (
    AgContract,
    BehavioralHypercontract,
    Component,
    ConicCompset,
    ConvexityReport,
    GeneralCompset,
    Universe,
    ag_compose,
    ag_merge_strong,
    contract_compose,
    convexity,
)
from hyperc.contracts import Incompatible, InterfaceHypercontract
from hyperc.errors import HypercError, SignatureMismatch, UniverseTooLarge, ValidationError
from hyperc.jsonio import parse_behavioral, parse_language
from hyperc.lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    enumerate_words,
    from_words,
    sigma_star,
    star_of,
    state_cap,
)
from hyperc.receptive import ReceptiveLanguage

AB = Alphabet(("i", "o"))
IO = IoSignature(AB, frozenset({"i"}))
U = Universe(("x", "y", "z"))


def _ia(out_first: bool) -> automata.InterfaceAutomaton:
    """A state looping on i, plus an o-step to a second such state when `out_first`."""
    moves = [("s", "i", "s")] + ([("s", "o", "t"), ("t", "i", "t")] if out_first else [])
    return automata.make(IO, ("s", "t") if out_first else ("s",), "s", moves)


def _contract(s: RegularLanguage) -> InterfaceHypercontract:
    return InterfaceHypercontract(s, IO)


# Each row: the class, its fields, a value from the constructor, a value from an
# operator (or a document parser, for the types no operator builds), and a value
# of the same class with other fields.
ROWS = {
    "Alphabet": (
        Alphabet, ("symbols",), lambda: Alphabet(("i", "o")),
        lambda: parse_language({"alphabet": ["i", "o"], "states": ["q"], "initial": "q",
                                "accepting": ["q"], "transitions": []}).alphabet,
        lambda: Alphabet(("o", "i")),
    ),
    "IoSignature": (
        IoSignature, ("alphabet", "inputs"), lambda: IoSignature(AB, frozenset({"i"})),
        lambda: IoSignature(AB, frozenset({"o"})).swapped(),
        lambda: IoSignature(AB, frozenset({"o"})),
    ),
    "RegularLanguage": (
        RegularLanguage, ("alphabet", "initial", "accepting", "delta"),
        lambda: RegularLanguage(AB, 0, frozenset({0}), ((0, 1), (1, 1))),
        lambda: star_of(AB, {"o"}).complement().complement(),
        lambda: sigma_star(AB),
    ),
    "Universe": (
        Universe, ("behaviors",), lambda: Universe(("x", "y", "z")),
        lambda: parse_behavioral({"universe": ["x", "y", "z"]}).universe,
        lambda: Universe(("x", "y")),
    ),
    "Component": (
        Component, ("universe", "mask"), lambda: Component(U, 0b011),
        lambda: Component(U, 0b111) & Component(U, 0b011),
        lambda: Component(U, 0b101),
    ),
    "ConicCompset": (
        ConicCompset, ("universe", "maximals"), lambda: ConicCompset(U, (0b011, 0b101)),
        lambda: ConicCompset(U, (0b011, 0b101)).compose(ConicCompset.full(U)),
        lambda: ConicCompset(U, (0b011,)),
    ),
    "GeneralCompset": (
        GeneralCompset, ("universe", "members"), lambda: GeneralCompset(U, frozenset({0, 1})),
        lambda: GeneralCompset(U, frozenset({0, 1, 2})).meet(GeneralCompset(U, frozenset({0, 1}))),
        lambda: GeneralCompset(U, frozenset({0})),
    ),
    "ConvexityReport": (
        ConvexityReport, ("convex", "coconvex"), lambda: ConvexityReport(True, True),
        lambda: convexity(ConicCompset.full(U)),
        lambda: ConvexityReport(True, False),
    ),
    "BehavioralHypercontract": (
        BehavioralHypercontract, ("env", "impl"),
        lambda: BehavioralHypercontract(ConicCompset.full(U), ConicCompset(U, (0b011,))),
        lambda: contract_compose(
            BehavioralHypercontract(ConicCompset.full(U), ConicCompset(U, (0b011,))),
            BehavioralHypercontract(ConicCompset.full(U), ConicCompset.full(U)),
        ),
        lambda: BehavioralHypercontract(ConicCompset.full(U), ConicCompset.full(U)),
    ),
    "AgContract": (
        AgContract, ("assumptions", "guarantees"), lambda: AgContract(Component(U, 0b111), Component(U, 0b011)),
        lambda: ag_compose(
            AgContract(Component(U, 0b111), Component(U, 0b011)),
            AgContract(Component(U, 0b111), Component(U, 0b111)),
        ),
        lambda: AgContract(Component(U, 0b011), Component(U, 0b011)),
    ),
    "Incompatible": (
        Incompatible, ("reason",), lambda: Incompatible(),
        lambda: contracts.compose(
            _contract(from_words(AB, ["", "o"])), contracts.mirror(_contract(star_of(AB, {"i"})))
        ),
        lambda: Incompatible("other reason"),
    ),
    "InterfaceHypercontract": (
        InterfaceHypercontract, ("s", "io"), lambda: _contract(star_of(AB, {"i"})),
        lambda: contracts.mirror(contracts.mirror(_contract(star_of(AB, {"i"})))),
        lambda: _contract(sigma_star(AB)),
    ),
    "ReceptiveLanguage": (
        ReceptiveLanguage, ("lang", "io"), lambda: ReceptiveLanguage(star_of(AB, {"i"}), IO),
        lambda: receptive.meet(receptive.top(IO), receptive.bottom(IO)),
        lambda: receptive.top(IO),
    ),
    "InterfaceAutomaton": (
        automata.InterfaceAutomaton, ("io", "state_names", "initial", "trans"), lambda: _ia(True),
        lambda: automata.compose(
            _ia(True), automata.make(IO.swapped(), ("u",), "u", [("u", "i", "u"), ("u", "o", "u")])
        ),
        lambda: _ia(False),
    ),
}


def test_every_value_type_has_a_row():
    assert len(ROWS) == 14
    assert all(cls.__name__ == name for name, (cls, *_rest) in ROWS.items())


@pytest.mark.parametrize("name", sorted(ROWS))
@pytest.mark.parametrize("origin", ["constructor", "operator"])
def test_fields_cannot_be_assigned_or_deleted(name, origin):
    cls, fields, make, operate, _other = ROWS[name]
    value = make() if origin == "constructor" else operate()
    assert type(value) is cls
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", sorted(ROWS))
def test_equal_exactly_by_class_and_fields(name):
    cls, fields, make, _operate, other = ROWS[name]
    value, copy = make(), make()
    assert value is not copy
    assert value == copy and hash(value) == hash(copy)
    assert not value != copy
    assert value != other() and not value == other()
    assert value != tuple(getattr(value, field) for field in fields)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_keyword_construction(name):
    cls, fields, make, _operate, _other = ROWS[name]
    value = make()
    rebuilt = cls(**{field: getattr(value, field) for field in reversed(fields)})
    assert rebuilt == value
    assert all(getattr(rebuilt, field) == getattr(value, field) for field in fields)


def test_classes_with_equal_fields_differ():
    assert Universe(("a",)) != Alphabet(("a",))
    assert Alphabet(("a",)) != Universe(("a",))
    assert ConicCompset(U, (0b011,)) != GeneralCompset(U, frozenset({0b011}))
    assert Incompatible() != "empty closed-system language"


def test_language_equality_is_by_canonical_form():
    lang = RegularLanguage(AB, 0, frozenset({0}), ((0, 1), (1, 1)))
    bloated = RegularLanguage(AB, 0, frozenset({0, 2}), ((2, 1), (1, 1), (0, 1)))
    assert lang == bloated and hash(lang) == hash(bloated)
    assert lang.delta != bloated.delta


def test_contract_equality_ignores_derived_languages():
    c, fresh = _contract(star_of(AB, {"i"})), _contract(star_of(AB, {"i"}))
    assert c == fresh and hash(c) == hash(fresh)
    assert c.e == sigma_star(AB) and c.m == star_of(AB, {"i"})
    assert "e" in vars(c) and "m" in vars(c)
    assert c == fresh and fresh == c and hash(c) == hash(fresh)
    assert c == _contract(star_of(AB, {"i"})) and hash(c) == hash(_contract(star_of(AB, {"i"})))


V = Universe(("x", "y"))
ABX = Alphabet(("i", "o", "x"))

#: Two automata over {x, y} whose composite names "(a,b" + "," + "c)" and "(a" + "," + "b,c)" are equal.
_COLLIDING = (
    automata.make(
        IoSignature(Alphabet(("x", "y")), {"x"}), ["a,b", "a"], "a,b",
        [("a,b", "x", "a,b"), ("a,b", "y", "a"), ("a", "x", "a"), ("a", "y", "a,b")],
    ),
    automata.make(
        IoSignature(Alphabet(("x", "y")), {"y"}), ["c", "b,c"], "c",
        [("c", "x", "c"), ("c", "y", "b,c"), ("b,c", "x", "b,c"), ("b,c", "y", "c")],
    ),
)


def _state_cap_from(raw: str) -> int:
    """state_cap() with HYPERC_MAX_STATES set to `raw`."""
    with mock.patch.dict(os.environ, {"HYPERC_MAX_STATES": raw}):
        return state_cap()


#: Each row: a refused call, the HypercError subclass it raises and its message.
REFUSALS = {
    "language-without-states": (lambda: RegularLanguage(AB, 0, (), ()), ValidationError, "at least one state"),
    "language-partial-delta": (lambda: RegularLanguage(AB, 0, (), ((0,),)), ValidationError, "must be total"),
    # A state number must be an int: 0.5 and 0.0 pass a range test, then fail as
    # list indices; 0.0 == 0, so each is given beside an int 0 it equals or follows.
    "language-float-target": (
        lambda: RegularLanguage(AB, 0, [0], [[0.5, 0]]), ValidationError, "^delta must be total with targets in range$",
    ),
    "language-float-equal-target": (
        lambda: RegularLanguage(AB, 0, [0], [[0, 0.0]]), ValidationError, "^delta must be total with targets in range$",
    ),
    "language-float-initial": (
        lambda: RegularLanguage(AB, 0.0, [0], [[0, 0]]), ValidationError, "^initial state out of range$",
    ),
    "language-float-accepting": (
        lambda: RegularLanguage(AB, 0, [0.0], [[0, 0]]), ValidationError, "^accepting state out of range$",
    ),
    "language-bool-initial": (
        lambda: RegularLanguage(AB, True, [0], [[0, 0], [1, 1]]), ValidationError, "^initial state out of range$",
    ),
    "language-text-target": (
        lambda: RegularLanguage(AB, 0, [0], [["0", 0]]), ValidationError, "^delta must be total with targets in range$",
    ),
    "ia-float-target": (
        lambda: automata.InterfaceAutomaton(IO, ["q0"], 0, [[0.5, None]]),
        ValidationError, "^transition targets out of range$",
    ),
    "ia-float-initial": (
        lambda: automata.InterfaceAutomaton(IO, ["q0"], 0.0, [[0, None]]),
        ValidationError, "^initial state out of range$",
    ),
    "ia-partial-row": (
        lambda: automata.InterfaceAutomaton(IO, ["q0"], 0, [[0]]), ValidationError, "^transition targets out of range$",
    ),
    "ia-without-states": (
        lambda: automata.InterfaceAutomaton(IO, [], 0, []), ValidationError, "^automaton needs at least one state$",
    ),
    "ia-duplicate-names": (
        lambda: automata.InterfaceAutomaton(IO, ["q", "q"], 0, [[0, 1], [1, None]]),
        ValidationError, "^state names must be distinct$",
    ),
    "ia-row-count": (
        lambda: automata.InterfaceAutomaton(IO, ["q0", "q1"], 0, [[0, 1]]),
        ValidationError, "^one transition row per state required$",
    ),
    "ia-composite-names-collide": (
        lambda: automata.compose(*_COLLIDING),
        ValidationError, r"^composite state name '\(a,b,c\)' names two state pairs$",
    ),
    "contract-alphabets": (
        lambda: InterfaceHypercontract(star_of(ABX, {"i"}), IO), SignatureMismatch,
        "^S and signature use different alphabets$",
    ),
    "receptive-alphabets": (
        lambda: ReceptiveLanguage(star_of(ABX, {"i"}), IO), SignatureMismatch,
        "^language and signature use different alphabets$",
    ),
    "quotient-signature-alphabets": (
        lambda: receptive.quotient_signature(IO, IoSignature(ABX, {"i"})), SignatureMismatch,
        "^operands use different alphabets$",
    ),
    "universe-empty": (lambda: Universe(()), ValidationError, "nonempty"),
    "universe-duplicate": (lambda: Universe(("x", "x")), ValidationError, "distinct"),
    "universe-over-64": (
        lambda: Universe(f"b{k}" for k in range(65)),
        UniverseTooLarge, r"universe: 65 behaviors over the bound 64 \(MAX_UNIVERSE\)",
    ),
    "universe-index": (lambda: U.index("w"), ValidationError, "unknown behavior 'w'"),
    "component-outside": (lambda: Component(U, 0b1000), ValidationError, "leaves its universe"),
    "component-and-across": (lambda: Component(U, 1) & Component(V, 1), ValidationError, "universe mismatch"),
    "conic-unsorted": (lambda: ConicCompset(U, (0b101, 0b011)), ValidationError, "sorted antichain"),
    "conic-outside": (lambda: ConicCompset(U, (0b1000,)), ValidationError, "leaves its universe"),
    "general-outside": (lambda: GeneralCompset(U, {0b1000}), ValidationError, "leaves its universe"),
    "contract-mixed": (
        lambda: BehavioralHypercontract(ConicCompset.full(U), GeneralCompset(U, {0})),
        ValidationError, "one compset representation",
    ),
    "compsets-mixed": (
        lambda: ConicCompset.full(U).meet(GeneralCompset(U, {0})),
        ValidationError, "^operands must share one compset representation: ConicCompset, GeneralCompset$",
    ),
    "ag-across": (lambda: AgContract(Component(U, 1), Component(V, 1)), ValidationError, "universe mismatch"),
    "ag-compose-across": (
        lambda: ag_compose(AgContract(Component(U, 1), Component(U, 1)), AgContract(Component(V, 1), Component(V, 1))),
        ValidationError, "universe mismatch",
    ),
    "ag-merge-strong-across": (
        lambda: ag_merge_strong(AgContract(Component(U, 1), Component(U, 1)), AgContract(Component(V, 1), Component(V, 1))),
        ValidationError, "universe mismatch",
    ),
    "enumerate-negative": (
        lambda: enumerate_words(sigma_star(AB), -1),
        ValidationError, r"max_len \(--max-len\) must be nonnegative, got -1",
    ),
    "oracle-max-len-negative": (
        lambda: oracle.BoundedCheckConfig(max_word_len=-1),
        ValidationError, r"^max_word_len \(--max-len\) must be nonnegative, got -1$",
    ),
    "state-cap-malformed": (
        lambda: _state_cap_from("abc"), ValidationError, "^HYPERC_MAX_STATES must be a positive integer, got 'abc'$",
    ),
    "oracle-unknown-kind": (
        lambda: oracle.run_check("nope", oracle.BoundedCheckConfig()), ValidationError, "unknown oracle kind 'nope'",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal_is_a_hyperc_error(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message) as raised:
        call()
    assert isinstance(raised.value, HypercError)
    assert isinstance(raised.value, ValueError) == (error is ValidationError)
