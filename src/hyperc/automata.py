"""Interface automata: alternating-simulation refinement, composition with
invalid-state pruning, and the semantic map to interface hypercontracts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .contracts import Incompatible, InterfaceHypercontract, from_s
from .errors import SignatureMismatch, ValidationError
from .lang import IoSignature, RegularLanguage


@dataclass(frozen=True)
class InterfaceAutomaton:
    """Deterministic partial transition system with input/output actions.

    trans[state][symbol_index] is the successor or None; all states are
    reachable from the initial state (enforce via `make`).
    """

    io: IoSignature
    state_names: tuple[str, ...]
    initial: int
    trans: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(self, "trans", tuple(tuple(row) for row in self.trans))
        n = len(self.state_names)
        nsym = len(self.io.alphabet)
        if n == 0:
            raise ValidationError("automaton needs at least one state")
        if len(set(self.state_names)) != n:
            raise ValidationError("state names must be distinct")
        if not 0 <= self.initial < n:
            raise ValidationError("initial state out of range")
        if len(self.trans) != n:
            raise ValidationError("one transition row per state required")
        for row in self.trans:
            if len(row) != nsym or not all(t is None or 0 <= t < n for t in row):
                raise ValidationError("transition targets out of range")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def successor(self, state: int, symbol: str) -> int | None:
        return self.trans[state][self.io.alphabet.index(symbol)]


def make(
    io: IoSignature,
    state_names: list[str] | tuple[str, ...],
    initial: str,
    transitions: Mapping[tuple[str, str], str] | Iterable[tuple[str, str, str]],
) -> InterfaceAutomaton:
    """Build from named states and partial (state, symbol) → state triples,
    keeping only states reachable from the initial one (BFS order)."""
    names = list(state_names)
    if initial not in names:
        raise ValidationError(f"unknown initial state {initial!r}")
    pos = {s: k for k, s in enumerate(names)}
    if len(pos) != len(names):
        raise ValidationError("state names must be distinct")
    nsym = len(io.alphabet)
    if isinstance(transitions, Mapping):
        triples = [(src, sym, dst) for (src, sym), dst in transitions.items()]
    else:
        triples = list(transitions)
    rows: dict[str, list[str | None]] = {s: [None] * nsym for s in names}
    for src, sym, dst in triples:
        if src not in pos or dst not in pos:
            raise ValidationError(f"unknown state in transition {(src, sym, dst)!r}")
        k = io.alphabet.index(sym)
        if rows[src][k] is not None:
            raise ValidationError(f"nondeterministic transitions from {src!r} on {sym!r}")
        rows[src][k] = dst
    order = [initial]
    seen = {initial}
    for s in order:
        for k in range(nsym):
            t = rows[s][k]
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    idx = {s: k for k, s in enumerate(order)}
    trans = tuple(
        tuple(None if rows[s][k] is None else idx[rows[s][k]] for k in range(nsym))
        for s in order
    )
    return InterfaceAutomaton(io, tuple(order), 0, trans)


def language(a: InterfaceAutomaton) -> RegularLanguage:
    """ℓ(A): the prefix-closed language of playable words (complete with a
    rejecting sink, all original states accepting)."""
    nsym = len(a.io.alphabet)
    sink = a.n_states
    delta = tuple(
        tuple(sink if t is None else t for t in row) for row in a.trans
    ) + ((sink,) * nsym,)
    return RegularLanguage(
        a.io.alphabet, a.initial, frozenset(range(a.n_states)), delta
    ).canonical()


def to_contract(a: InterfaceAutomaton) -> InterfaceHypercontract:
    return from_s(language(a), a.io)


def refines(a1: InterfaceAutomaton, a2: InterfaceAutomaton) -> bool:
    """Greatest alternating simulation: outputs of a1 must be matched by a2,
    inputs of a2 must be matched by a1; answer is whether the initial states
    stay related at the fixpoint."""
    if a1.io != a2.io:
        raise SignatureMismatch("refinement needs identical io signatures")
    alphabet = a1.io.alphabet
    out_idx = [alphabet.index(s) for s in alphabet.symbols if s not in a1.io.inputs]
    in_idx = [alphabet.index(s) for s in alphabet.symbols if s in a1.io.inputs]
    related = {(q1, q2) for q1 in range(a1.n_states) for q2 in range(a2.n_states)}
    changed = True
    while changed:
        changed = False
        for pair in list(related):
            q1, q2 = pair
            ok = True
            for k in out_idx:
                t1 = a1.trans[q1][k]
                if t1 is not None:
                    t2 = a2.trans[q2][k]
                    if t2 is None or (t1, t2) not in related:
                        ok = False
                        break
            if ok:
                for k in in_idx:
                    t2 = a2.trans[q2][k]
                    if t2 is not None:
                        t1 = a1.trans[q1][k]
                        if t1 is None or (t1, t2) not in related:
                            ok = False
                            break
            if not ok:
                related.discard(pair)
                changed = True
    return (a1.initial, a2.initial) in related


def compose_detailed(
    a1: InterfaceAutomaton, a2: InterfaceAutomaton
) -> tuple[InterfaceAutomaton | Incompatible, tuple[str, ...]]:
    """Composition with the pruned product states reported alongside.

    Product over shared symbols; a state is invalid when one side has an
    enabled output the other does not accept; invalid states are closed
    backwards over output-labeled product transitions and removed.
    """
    if a1.io.alphabet != a2.io.alphabet:
        raise SignatureMismatch("operands use different alphabets")
    alphabet = a1.io.alphabet
    if a1.io.inputs | a2.io.inputs != frozenset(alphabet.symbols):
        shared = a1.io.outputs & a2.io.outputs
        raise SignatureMismatch(f"shared outputs: {sorted(shared)}")
    nsym = len(alphabet)
    o1 = {alphabet.index(s) for s in a1.io.outputs}
    o2 = {alphabet.index(s) for s in a2.io.outputs}
    out_idx = o1 | o2
    # Reachable product.
    pairs: list[tuple[int, int]] = [(a1.initial, a2.initial)]
    index = {pairs[0]: 0}
    rows: list[list[int | None]] = []
    for q1, q2 in pairs:
        row: list[int | None] = []
        for k in range(nsym):
            t1, t2 = a1.trans[q1][k], a2.trans[q2][k]
            if t1 is None or t2 is None:
                row.append(None)
                continue
            t = (t1, t2)
            j = index.get(t)
            if j is None:
                j = len(pairs)
                index[t] = j
                pairs.append(t)
            row.append(j)
        rows.append(row)

    def pair_name(i: int) -> str:
        q1, q2 = pairs[i]
        return f"({a1.state_names[q1]},{a2.state_names[q2]})"

    # Invalid: an enabled output on one side that the other side rejects.
    invalid: set[int] = set()
    for i, (q1, q2) in enumerate(pairs):
        bad = any(a1.trans[q1][k] is not None and a2.trans[q2][k] is None for k in o1)
        bad = bad or any(a2.trans[q2][k] is not None and a1.trans[q1][k] is None for k in o2)
        if bad:
            invalid.add(i)
    # Close backwards over output-labeled product transitions.
    rev: list[list[int]] = [[] for _ in pairs]
    for i, row in enumerate(rows):
        for k in out_idx:
            t = row[k]
            if t is not None:
                rev[t].append(i)
    stack = list(invalid)
    while stack:
        j = stack.pop()
        for i in rev[j]:
            if i not in invalid:
                invalid.add(i)
                stack.append(i)
    pruned = tuple(pair_name(i) for i in sorted(invalid))
    if 0 in invalid:
        return Incompatible(), pruned
    # Remove invalid states and the transitions touching them, then re-trim.
    order = [0]
    seen = {0}
    for i in order:
        for k in range(nsym):
            t = rows[i][k]
            if t is not None and t not in invalid and t not in seen:
                seen.add(t)
                order.append(t)
    new_idx = {i: k for k, i in enumerate(order)}
    trans = tuple(
        tuple(
            None if rows[i][k] is None or rows[i][k] in invalid else new_idx[rows[i][k]]
            for k in range(nsym)
        )
        for i in order
    )
    io = IoSignature(alphabet, a1.io.inputs & a2.io.inputs)
    names = tuple(pair_name(i) for i in order)
    return InterfaceAutomaton(io, names, 0, trans), pruned


def compose(
    a1: InterfaceAutomaton, a2: InterfaceAutomaton
) -> InterfaceAutomaton | Incompatible:
    return compose_detailed(a1, a2)[0]
