"""Seeded input generators and small independent reference definitions.

Everything here is plain Python over plain data (tuples of ints), with no
call into ``hyperc``, so the gate can compare the library against it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

SYMBOLS = ("a", "b", "c", "d")


class Dfa(NamedTuple):
    """Complete DFA with initial state 0: accepting states and delta[q][k]."""

    accepting: tuple[int, ...]
    delta: tuple[tuple[int, ...], ...]


def strata(rng, count: int) -> list[float]:
    """count values in [0, 1), one in each of count equal strata, shuffled."""
    values = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(values)
    return values


def dfa(rng, nsym: int, n: int) -> Dfa:
    delta = tuple(tuple(rng.randrange(n) for _ in range(nsym)) for _ in range(n))
    return Dfa(tuple(q for q in range(n) if rng.random() < 0.5), delta)


def inflated_dfa(rng, nsym: int, m: int, copies: int) -> Dfa:
    """A random m-state DFA blown up to m * copies states; each copy of a
    state keeps its language, so minimization has real merging to do."""
    base = dfa(rng, nsym, m)
    delta = tuple(
        tuple(base.delta[q][k] * copies + rng.randrange(copies) for k in range(nsym))
        for q in range(m)
        for _ in range(copies)
    )
    acc = set(base.accepting)
    return Dfa(tuple(q * copies + c for q in range(m) if q in acc for c in range(copies)), delta)


def union_product(a: Dfa, c: Dfa) -> Dfa:
    """Reachable product accepting L(a) ∪ L(c), left unminimized."""
    nsym = len(a.delta[0])
    acc_a, acc_c = set(a.accepting), set(c.accepting)
    pairs = [(0, 0)]
    index = {(0, 0): 0}
    rows = []
    for q, r in pairs:
        row = []
        for k in range(nsym):
            t = (a.delta[q][k], c.delta[r][k])
            if t not in index:
                index[t] = len(pairs)
                pairs.append(t)
            row.append(index[t])
        rows.append(tuple(row))
    accepting = tuple(i for i, (q, r) in enumerate(pairs) if q in acc_a or r in acc_c)
    return Dfa(accepting, tuple(rows))


def symbols(rng, nsym: int) -> tuple[str, ...]:
    """A nonempty subset of the first nsym symbols, in alphabet order."""
    chosen = tuple(s for s in SYMBOLS[:nsym] if rng.random() < 0.5)
    return chosen or (rng.choice(SYMBOLS[:nsym]),)


def raw_subset(a: Dfa, b: Dfa) -> bool:
    """L(a) ⊆ L(b) by search over the reachable product."""
    acc_a, acc_b = set(a.accepting), set(b.accepting)
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        q, r = stack.pop()
        if q in acc_a and r not in acc_b:
            return False
        for k in range(len(a.delta[0])):
            t = (a.delta[q][k], b.delta[r][k])
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return True


def coreachable(a: Dfa) -> set[int]:
    """States from which an accepting state can be reached."""
    rev: list[list[int]] = [[] for _ in a.delta]
    for q, row in enumerate(a.delta):
        for t in row:
            rev[t].append(q)
    live = set(a.accepting)
    stack = list(live)
    while stack:
        for q in rev[stack.pop()]:
            if q not in live:
                live.add(q)
                stack.append(q)
    return live


def words_with_membership(
    raws: list[Dfa], cand: Dfa, symbols: tuple[str, ...], max_len: int
) -> Iterator[tuple[tuple[str, ...], list[list[bool]], bool]]:
    """Every word up to max_len, with each raw operand's membership of every
    prefix (indexed by prefix length) and the candidate's verdict."""
    accs = [set(r.accepting) for r in raws]
    cand_acc = set(cand.accepting)

    def walk(word, states, history, cstate):
        yield word, history, cstate in cand_acc
        if len(word) == max_len:
            return
        for k, sym in enumerate(symbols):
            nxt = [r.delta[q][k] for r, q in zip(raws, states)]
            yield from walk(
                word + (sym,),
                nxt,
                [h + [q in acc] for h, q, acc in zip(history, nxt, accs)],
                cand.delta[cstate][k],
            )

    yield from walk((), [0] * len(raws), [[0 in acc] for acc in accs], 0)
