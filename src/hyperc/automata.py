"""Interface automata: alternating-simulation refinement, composition with
invalid-state pruning, and the semantic map to interface hypercontracts."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

from .contracts import Incompatible, InterfaceHypercontract
from .errors import SignatureMismatch, ValidationError, Value
from .lang import IoSignature, RegularLanguage, _are_states, _canonicalize, _explore, _table_rows, close_backward

#: A transition target is a state number or None, for a missing transition.
_TARGET_TYPES = frozenset({int, type(None)})


class InterfaceAutomaton(Value):
    """Deterministic partial transition system with input/output actions.

    trans[state][symbol_index] is the successor or None; all states are
    reachable from the initial state (enforce via `make`).  `make` and
    `compose_detailed` build theirs with `_trusted`, from explored rows.
    """

    _fields = ("io", "state_names", "initial", "trans")

    def __init__(
        self, io: IoSignature, state_names: Iterable[str], initial: int, trans: Iterable[Iterable[int | None]]
    ):
        state_names = tuple(state_names)
        trans = tuple(map(tuple, trans))
        n = len(state_names)
        nsym = len(io.alphabet)
        if n == 0:
            raise ValidationError("automaton needs at least one state")
        if len(set(state_names)) != n:
            raise ValidationError("state names must be distinct")
        if not _are_states([initial], n):
            raise ValidationError("initial state out of range")
        if len(trans) != n:
            raise ValidationError("one transition row per state required")
        if set(map(len, trans)) != {nsym} or not _are_states(chain.from_iterable(trans), n, _TARGET_TYPES):
            raise ValidationError("transition targets out of range")
        vars(self).update(io=io, state_names=state_names, initial=initial, trans=trans)

    @property
    def n_states(self) -> int:
        return len(self.state_names)


def make(
    io: IoSignature,
    state_names: list[str] | tuple[str, ...],
    initial: str,
    transitions: Mapping[tuple[str, str], str] | Iterable[tuple[str, str, str]],
) -> InterfaceAutomaton:
    """Build from named states and partial (state, symbol) → state triples, read
    by `lang._table_rows` as a document's are, keeping only states reachable
    from the initial one (BFS order)."""
    names = list(state_names)
    if initial not in names:
        raise ValidationError(f"unknown initial state {initial!r}")
    pos = {s: k for k, s in enumerate(names)}
    if len(pos) != len(names):
        raise ValidationError("state names must be distinct")
    if isinstance(transitions, Mapping):
        transitions = [(src, sym, dst) for (src, sym), dst in transitions.items()]
    rows = _table_rows(io.alphabet, pos, transitions)
    order, trans = _explore(pos[initial], rows.__getitem__, "interface-automaton ingestion", (len(names),))
    return InterfaceAutomaton._trusted(io, tuple(names[q] for q in order), 0, tuple(trans))


def language(a: InterfaceAutomaton) -> RegularLanguage:
    """ℓ(A): the prefix-closed language of playable words.  The automaton's
    rows are the language's rows: every state accepts, and a missing
    transition goes to the rejecting sink."""
    return _canonicalize(a.io.alphabet, a.initial, range(a.n_states), a.trans)


def to_contract(a: InterfaceAutomaton) -> InterfaceHypercontract:
    """The contract (ℓ(A), io); ℓ(A) is prefix-closed and holds ε by construction."""
    return InterfaceHypercontract._trusted(language(a), a.io)


def _joint_moves(a1: InterfaceAutomaton, a2: InterfaceAutomaton):
    """Successors of a state pair: a symbol moves the pair where both sides enable it."""
    t1s, t2s = a1.trans, a2.trans
    return lambda pair: [
        None if t1 is None or t2 is None else (t1, t2) for t1, t2 in zip(t1s[pair[0]], t2s[pair[1]])
    ]


def refines(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> bool:
    """Alternating simulation: a2 matches a1's outputs and a1 matches a2's inputs.
    Both are deterministic, so it holds at the initial pair exactly when no pair
    where the leader moves and the follower cannot (a1 leads on outputs, a2 on
    inputs) is reachable over the moves both enable; the search stops at one."""
    if a1.io != a2.io:
        raise SignatureMismatch("refinement needs identical io signatures")
    is_input = [s in a1.io.inputs for s in a1.io.alphabet.symbols]
    t1s, t2s = a1.trans, a2.trans

    def stuck(pair) -> bool:
        for t1, t2, is_in in zip(t1s[pair[0]], t2s[pair[1]], is_input):
            # a1 leads on outputs and a2 on inputs; the other side must follow.
            if (t2 if is_in else t1) is not None and (t1 if is_in else t2) is None:
                return True
        return False

    pairs, rows = _explore(
        (a1.initial, a2.initial), _joint_moves(a1, a2),
        "interface-automaton refinement", (a1.n_states, a2.n_states), stop=stuck,
    )
    return len(rows) == len(pairs)


def compose_detailed(
    a1: InterfaceAutomaton, a2: InterfaceAutomaton
) -> tuple[InterfaceAutomaton | Incompatible, tuple[str, ...]]:
    """Composition with the pruned product states reported alongside.

    Product over shared symbols; a state is invalid when one side has an
    enabled output the other does not accept; invalid states are closed
    backwards over output-labeled product transitions and removed.
    """
    io = a1.io.compose(a2.io)
    alphabet = io.alphabet
    o1 = {alphabet.index(s) for s in a1.io.outputs}
    o2 = {alphabet.index(s) for s in a2.io.outputs}
    # Reachable product; a symbol is enabled where both sides enable it.
    t1s, t2s = a1.trans, a2.trans
    label = ("interface-automaton composition", (a1.n_states, a2.n_states))
    pairs, rows = _explore((a1.initial, a2.initial), _joint_moves(a1, a2), *label)

    def pair_name(i: int) -> str:
        q1, q2 = pairs[i]
        return f"({a1.state_names[q1]},{a2.state_names[q2]})"

    # Invalid: an enabled output on one side that the other side rejects,
    # closed backwards over output-labeled product transitions.
    seeds = [
        i
        for i, (q1, q2) in enumerate(pairs)
        if any(t1s[q1][k] is not None and t2s[q2][k] is None for k in o1)
        or any(t2s[q2][k] is not None and t1s[q1][k] is None for k in o2)
    ]
    invalid = close_backward(rows, seeds, o1 | o2)
    pruned = tuple(pair_name(i) for i in sorted(invalid))
    if 0 in invalid:
        return Incompatible(), pruned
    # Remove invalid states and the transitions touching them, then re-trim.
    order, trans = _explore(0, lambda i: [None if t is None or t in invalid else t for t in rows[i]], *label)
    names = tuple(pair_name(i) for i in order)
    if len(set(names)) < len(names):  # a "," inside a name can make two pairs' names equal
        clash = next(name for name in names if names.count(name) > 1)
        raise ValidationError(f"composite state name {clash!r} names two state pairs")
    return InterfaceAutomaton._trusted(io, names, 0, tuple(trans)), pruned


def compose(
    a1: InterfaceAutomaton, a2: InterfaceAutomaton
) -> InterfaceAutomaton | Incompatible:
    return compose_detailed(a1, a2)[0]
