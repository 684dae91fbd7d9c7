"""Exact regular-language algebra over a fixed finite alphabet.

Languages are stored as complete DFAs.  Every public operation returns a
canonical automaton (minimal, states renumbered by breadth-first order over
the alphabet's symbol ordering), so two values denote the same language iff
their canonical forms are structurally identical.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from .errors import AlphabetMismatch, HypercError, LimitExceeded, SignatureMismatch, ValidationError, Value

Word = tuple[str, ...]

#: Hard bound on enumeration length (see enumerate_words).
MAX_ENUM_LEN = 8

#: Hard bound on the number of words one enumeration may list.
MAX_ENUM_WORDS = 1_000_000

#: Default cap on intermediate automaton sizes; override with HYPERC_MAX_STATES.
DEFAULT_MAX_STATES = 10_000

_ENV_MAX_STATES = "HYPERC_MAX_STATES"


def state_cap() -> int:
    """Current cap on product/subset construction sizes.

    An unset or empty HYPERC_MAX_STATES means the default; any other value
    must be a positive integer.
    """
    raw = os.environ.get(_ENV_MAX_STATES)
    if not raw:
        return DEFAULT_MAX_STATES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise HypercError(f"{_ENV_MAX_STATES} must be a positive integer, got {raw!r}")
    return cap


def word_str(word: Word) -> str:
    """Human-readable rendering of a word; the empty word prints as ε."""
    if not word:
        return "ε"
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return ".".join(word)


class Alphabet(Value):
    """Ordered list of distinct symbol names; the ordering is canonical."""

    _fields = ("symbols",)

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if not symbols:
            raise AlphabetMismatch("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise AlphabetMismatch("alphabet symbols must be distinct")
        vars(self).update(symbols=symbols, _pos={s: k for k, s in enumerate(symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._pos[symbol]
        except KeyError:
            raise AlphabetMismatch(f"unknown symbol {symbol!r}") from None

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._pos

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def subset(self, symbols: Iterable[str]) -> frozenset[str]:
        """Validate that `symbols` all belong to this alphabet."""
        out = frozenset(symbols)
        for s in out:
            self.index(s)
        return out


class IoSignature(Value):
    """Partition of the alphabet into input symbols I and output symbols O."""

    _fields = ("alphabet", "inputs")

    def __init__(self, alphabet: Alphabet, inputs: Iterable[str]):
        vars(self).update(alphabet=alphabet, inputs=alphabet.subset(inputs))

    @property
    def outputs(self) -> frozenset[str]:
        return frozenset(self.alphabet.symbols) - self.inputs

    def swapped(self) -> "IoSignature":
        return IoSignature(self.alphabet, self.outputs)

    def compose(self, other: "IoSignature") -> "IoSignature":
        """Signature (I∩I', O∪O') of a parallel composition; outputs must be disjoint."""
        if self.alphabet != other.alphabet:
            raise SignatureMismatch("operands use different alphabets")
        shared = self.outputs & other.outputs
        if shared:
            raise SignatureMismatch(f"shared outputs: {sorted(shared)}")
        return IoSignature(self.alphabet, self.inputs & other.inputs)

    def __str__(self) -> str:
        ins = ",".join(s for s in self.alphabet.symbols if s in self.inputs)
        outs = ",".join(s for s in self.alphabet.symbols if s not in self.inputs)
        return f"(I={{{ins}}}, O={{{outs}}})"


class RegularLanguage(Value):
    """Complete DFA: delta[state][symbol_index] is total, states are 0..n-1.

    Instances may be non-minimal; `canonical()` gives the unique minimal
    BFS-numbered form, and equality/hashing go through it.
    """

    _fields = ("alphabet", "initial", "accepting", "delta")

    def __init__(self, alphabet: Alphabet, initial: int, accepting: Iterable[int], delta: Iterable[Iterable[int]]):
        accepting = frozenset(accepting)
        delta = tuple(tuple(row) for row in delta)
        n = len(delta)
        nsym = len(alphabet)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if not 0 <= initial < n:
            raise ValueError("initial state out of range")
        if not all(0 <= q < n for q in accepting):
            raise ValueError("accepting state out of range")
        for row in delta:
            if len(row) != nsym or not all(0 <= t < n for t in row):
                raise ValueError("delta must be total with targets in range")
        vars(self).update(alphabet=alphabet, initial=initial, accepting=accepting, delta=delta)

    @classmethod
    def _trusted(
        cls, alphabet: Alphabet, accepting: frozenset[int], delta: tuple[tuple[int, ...], ...]
    ) -> "RegularLanguage":
        """Trusted constructor of a canonical form built in this module: the
        fields are stored as given (a frozenset and a tuple of tuples, minimal,
        in canonical numbering from the initial state 0), without the copies
        and checks of the public constructor, and the result is marked as its
        own canonical form (a flag, as a self-reference is a cycle).  Other
        modules hand their rows to `_canonicalize` instead."""
        self = object.__new__(cls)
        vars(self).update(alphabet=alphabet, initial=0, accepting=accepting, delta=delta, _canon=True)
        return self

    # -- basic queries ----------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def run(self, word: Word) -> int:
        q = self.initial
        for s in word:
            q = self.delta[q][self.alphabet.index(s)]
        return q

    def accepts(self, word: Word) -> bool:
        return self.run(tuple(word)) in self.accepting

    def is_empty(self) -> bool:
        return not self.canonical().accepting

    def shortest_member(self) -> Word | None:
        """Shortest accepted word (lexicographically least among ties)."""
        return counterexample(self, empty_language(self.alphabet))

    # -- canonical form and equality ---------------------------------------

    def canonical(self) -> "RegularLanguage":
        cached = getattr(self, "_canon", None)
        if cached is None:
            cached = _canonicalize(self.alphabet, self.initial, self.accepting, self.delta)
            vars(self)["_canon"] = cached
        return self if cached is True else cached

    def canonical_key(self) -> tuple:
        c = self.canonical()
        return (c.alphabet.symbols, tuple(sorted(c.accepting)), c.delta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegularLanguage):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        c = self.canonical()
        return (
            f"RegularLanguage(|Q|={c.n_states}, "
            f"Σ={','.join(c.alphabet.symbols)}, "
            f"F={sorted(c.accepting)})"
        )

    # -- boolean algebra ----------------------------------------------------

    def complement(self) -> "RegularLanguage":
        """Flipping F keeps the canonical form minimal and its numbering canonical."""
        c = self.canonical()
        flipped = frozenset(range(c.n_states)) - c.accepting
        return RegularLanguage._trusted(c.alphabet, flipped, c.delta)

    def union(self, other: "RegularLanguage") -> "RegularLanguage":
        return _binary(self, other, lambda a, b: a or b, "union")

    def intersect(self, other: "RegularLanguage") -> "RegularLanguage":
        return _binary(self, other, lambda a, b: a and b, "intersection")

    def difference(self, other: "RegularLanguage") -> "RegularLanguage":
        return _binary(self, other, lambda a, b: a and not b, "difference")


# -- construction helpers ---------------------------------------------------


def empty_language(alphabet: Alphabet) -> RegularLanguage:
    return RegularLanguage._trusted(alphabet, frozenset(), ((0,) * len(alphabet),))


def sigma_star(alphabet: Alphabet) -> RegularLanguage:
    return RegularLanguage._trusted(alphabet, frozenset({0}), ((0,) * len(alphabet),))


def star_of(alphabet: Alphabet, symbols: Iterable[str]) -> RegularLanguage:
    """The language `symbols*` (all words over the given symbol subset)."""
    keep = alphabet.subset(symbols)
    return _canonicalize(alphabet, 0, (0,), [tuple(0 if s in keep else None for s in alphabet.symbols)])


def from_words(alphabet: Alphabet, words: Iterable[Word]) -> RegularLanguage:
    """The finite language consisting of exactly the given words (as a trie)."""
    children: list[dict[int, int]] = [{}]
    accepting: set[int] = set()
    for w in words:
        q = 0
        for s in w:
            k = alphabet.index(s)
            if k not in children[q]:
                children.append({})
                children[q][k] = len(children) - 1
            q = children[q][k]
        accepting.add(q)
    symbols = range(len(alphabet))
    return _canonicalize(alphabet, 0, accepting, [tuple(map(row.get, symbols)) for row in children])


def _table_rows(alphabet: Alphabet, pos: dict[str, int], entries: Iterable) -> list[list[int | None]]:
    """rows[state][symbol], by position, from a transition table's (state,
    symbol, state) entries over the named states `pos`; None where none is given.
    The one check of a table's entries, for documents and `automata.make`: an
    unknown state or nondeterminism raises ValidationError naming the entry as
    given, an unknown symbol AlphabetMismatch."""
    rows: list[list[int | None]] = [[None] * len(alphabet) for _ in pos]
    for entry in entries:
        src, sym, dst = entry
        if src not in pos or dst not in pos:
            raise ValidationError(f"unknown state in transition {entry!r}")
        row, k = rows[pos[src]], alphabet.index(sym)
        if row[k] is not None:
            raise ValidationError(f"nondeterministic transitions from {src!r} on {sym!r}")
        row[k] = pos[dst]
    return rows


# -- canonicalization ---------------------------------------------------------


def canonicalize(lang: RegularLanguage) -> RegularLanguage:
    """Minimal complete DFA, renumbered breadth-first in symbol order."""
    return lang.canonical()


def _canonicalize(
    alphabet: Alphabet, initial: int, accepting: Collection[int], rows: Sequence[Sequence[int | None]], *,
    explored: bool = False,
) -> RegularLanguage:
    """The canonical form of the DFA with transition rows `rows` (states
    0..n-1), by column-wise Moore refinement.

    rows[q][k] is None for a missing transition, which goes to a rejecting
    sink: rows holding None get one sink state appended.  States that
    `initial` does not reach are refined with the others and then dropped by
    the breadth-first numbering of the blocks.

    `explored=True` is only for rows that `_explore` built and nothing edited
    after (complete, reachable, numbered breadth-first in symbol order from
    0, `accepting` a frozenset), from `_binary`, `concat_symbol_class` and
    `concat_sigma_star`: the scan for None is skipped, and a discrete
    partition returns the rows as they are.

    Each O(k·n) round splits blocks by (own block, successor block per
    symbol), gathered by one `itemgetter` per column; a block's id is the
    index of its first state.  Rounds stop when the block count stops growing
    or reaches n: over one seed-1 lang-large pass (669 calls) after 3 at the
    median and 12 at most.  185 of its 225 boolean results are minimal as built.
    """
    n = len(rows)
    # Not zip(*rows): its one GC-tracked iterator per state set off full collections.
    cols = [list(map(itemgetter(k), rows)) for k in range(len(alphabet))]
    if not explored and any(None in col for col in cols):
        cols = [[n if t is None else t for t in col] + [n] for col in cols]
        n += 1
    block = [1 if q in accepting else 0 for q in range(n)]
    nblocks = len(set(block))
    gets = [itemgetter(*col) for col in cols]
    while nblocks < n:
        ids: dict[tuple, int] = {}
        block = list(map(ids.setdefault, zip(block, *[get(block) for get in gets]), range(n)))
        if len(ids) == nblocks:
            break
        nblocks = len(ids)
    if explored and nblocks == n:
        return RegularLanguage._trusted(alphabet, accepting, tuple(rows))
    # The stable partition is a congruence, so any member represents its block;
    # BFS over blocks from the initial one drops the unreachable states and
    # fixes the canonical numbering, reps[j] the block numbered j.
    rep = dict(zip(block, range(n)))
    idx = {block[initial]: 0}
    reps = [rep[block[initial]]]
    for i in reps:
        for col in cols:
            tb = block[col[i]]
            if tb not in idx:
                idx[tb] = len(reps)
                reps.append(rep[tb])
    delta = tuple(zip(*[[idx[block[col[i]]] for i in reps] for col in cols]))
    # Numbers taken from idx are the int objects the rows already hold.
    final = frozenset(j for b, j in idx.items() if rep[b] in accepting)
    return RegularLanguage._trusted(alphabet, final, delta)


# -- products ---------------------------------------------------------------


def check_same_alphabet(a: RegularLanguage, b: RegularLanguage) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("alphabet mismatch")


def _explore(
    start, successors: Callable, op: str, sizes: tuple[int, ...], stop: Callable | None = None
) -> tuple[list, list[tuple]]:
    """Breadth-first exploration of the states reachable from `start`.

    `successors(state)` gives a state's successor keys in symbol order, None
    for a missing transition.  States are numbered in discovery order, so
    `start` is 0; rows[i] lists the numbers of states[i]'s successors, with
    None passed through.  Raises LimitExceeded, naming the operation `op` and
    its operand sizes, when the states reached would exceed `state_cap()`.

    With `stop`, the search ends before it expands the first state, in
    discovery order, for which `stop(state)` is true: that state is then
    states[len(rows)], so len(rows) < len(states) exactly when one was found.
    """
    cap = state_cap()
    states = [start]
    index = {start: 0}
    rows = []
    for state in states:
        if stop is not None and stop(state):
            break
        row = []
        for t in successors(state):
            if t is None:
                row.append(None)
                continue
            j = index.get(t)
            if j is None:
                j = len(states)
                if j >= cap:
                    raise _cap_exceeded(cap, op, sizes)
                index[t] = j
                states.append(t)
            row.append(j)
        rows.append(tuple(row))
    return states, rows


def _cap_exceeded(cap: int, op: str, sizes: tuple[int, ...]) -> LimitExceeded:
    shape = "×".join(map(str, sizes))
    return LimitExceeded(f"product exceeds state cap {cap} ({_ENV_MAX_STATES}) in {op} of {shape} states")


def product_map(a: RegularLanguage, b: RegularLanguage, op: str = "product") -> tuple[list[tuple], list[tuple]]:
    """Reachable product automaton; pair 0 is the joint initial state.  `op`
    names the operation in a state-cap error."""
    check_same_alphabet(a, b)
    da, db = a.delta, b.delta
    return _explore((a.initial, b.initial), lambda p: zip(da[p[0]], db[p[1]]), op, (a.n_states, b.n_states))


def _binary(a: RegularLanguage, b: RegularLanguage, keep: Callable, op: str) -> RegularLanguage:
    pairs, rows = product_map(a, b, op)
    accepting = frozenset(
        i for i, (q, r) in enumerate(pairs) if keep(q in a.accepting, r in b.accepting)
    )
    return _canonicalize(a.alphabet, 0, accepting, rows, explored=True)


# -- concatenation-shaped operators ------------------------------------------


def concat_symbol_class(lang: RegularLanguage, symbols: Iterable[str]) -> RegularLanguage:
    """{ w∘σ | w ∈ L, σ ∈ Γ }: one-symbol extensions of L by the class Γ."""
    keep = lang.alphabet.subset(symbols)
    in_class = tuple(s in keep for s in lang.alphabet.symbols)
    no_class = (False,) * len(in_class)
    delta, accepting = lang.delta, lang.accepting
    # Deterministic directly: track (state, last-step-was-a-Γ-jump-from-accepting).
    pairs, rows = _explore(
        (lang.initial, False),
        lambda pair: zip(delta[pair[0]], in_class if pair[0] in accepting else no_class),
        "symbol-class concatenation", (lang.n_states,),
    )
    flagged = frozenset(i for i, (_q, flag) in enumerate(pairs) if flag)
    return _canonicalize(lang.alphabet, 0, flagged, rows, explored=True)


def concat_sigma_star(lang: RegularLanguage) -> RegularLanguage:
    """{ w∘w' | w ∈ L, w' ∈ Σ* }: words having a prefix in L."""
    delta, accepting = lang.delta, lang.accepting
    # Track (state, some-prefix-so-far-is-in-L).
    pairs, rows = _explore(
        (lang.initial, lang.initial in accepting),
        lambda pair: [(t, pair[1] or t in accepting) for t in delta[pair[0]]],
        "Σ* concatenation", (lang.n_states,),
    )
    flagged = frozenset(i for i, (_q, flag) in enumerate(pairs) if flag)
    return _canonicalize(lang.alphabet, 0, flagged, rows, explored=True)


def close_backward(rows: Sequence[Sequence], seeds: Iterable[int], labels: Iterable[int]) -> set[int]:
    """The states that reach a seed along edges whose symbol index is in
    `labels`; rows[i][k] is state i's successor on symbol k, or None for a
    missing transition (interface-automaton rows)."""
    labels = tuple(labels)
    rev: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for k in labels:
            t = row[k]
            if t is not None:
                rev[t].append(i)
    closed = set(seeds)
    stack = list(closed)
    while stack:
        for i in rev[stack.pop()]:
            if i not in closed:
                closed.add(i)
                stack.append(i)
    return closed


def prefix_closure(lang: RegularLanguage) -> RegularLanguage:
    """Pre(L): every prefix of every member of L."""
    live = close_backward(lang.delta, lang.accepting, range(len(lang.alphabet)))
    return _canonicalize(lang.alphabet, lang.initial, live, lang.delta)


# -- decision procedures -------------------------------------------------------


def counterexample(a: RegularLanguage, b: RegularLanguage, over: Iterable[str] | None = None) -> Word | None:
    """Shortest (then lexicographically least) word of a \\ b, or None if a ⊆ b;
    with `over`, the same for the words over that symbol subset only.

    Breadth-first search over the reachable product pairs in symbol order,
    stopping at the first pair that accepts in a and rejects in b (early-exit
    inclusion, as in Bonchi & Pous, POPL 2013).  The word is read back along
    the first edge that reached each pair: lowest row first, then lowest
    symbol.  With b empty this is `a.shortest_member()`.
    """
    check_same_alphabet(a, b)
    da, db, fa, fb = a.delta, b.delta, a.accepting, b.accepting
    successors = lambda p: zip(da[p[0]], db[p[1]])
    if over is not None:
        keep = a.alphabet.subset(over)
        successors = lambda p: [t if s in keep else None for t, s in zip(zip(da[p[0]], db[p[1]]), a.alphabet.symbols)]
    pairs, rows = _explore(
        (a.initial, b.initial), successors, "inclusion check", (a.n_states, b.n_states),
        stop=lambda p: p[0] in fa and p[1] not in fb,
    )
    if len(rows) == len(pairs):
        return None
    first = {t: i for i in reversed(range(len(rows))) for t in rows[i]}
    word, j = [], len(rows)
    while j:
        word.append(a.alphabet.symbols[rows[first[j]].index(j)])
        j = first[j]
    return tuple(reversed(word))


def is_subset(a: RegularLanguage, b: RegularLanguage) -> bool:
    """Exact inclusion: no reachable product state accepts a and rejects b."""
    return counterexample(a, b) is None


def is_prefix_closed(lang: RegularLanguage) -> bool:
    """One scan of the canonical rows: no edge leads from rejecting to accepting."""
    c = lang.canonical()
    return not any(t in c.accepting for q, row in enumerate(c.delta) if q not in c.accepting for t in row)


def prefix_closure_witness(lang: RegularLanguage) -> Word | None:
    """None if L is prefix-closed, else the shortest word of Pre(L) \\ L."""
    return None if is_prefix_closed(lang) else counterexample(prefix_closure(lang), lang)


def is_receptive(lang: RegularLanguage, inputs: Iterable[str]) -> bool:
    """L∘I ⊆ L only (not prefix closure), by one scan: I-edges from accepting canonical states accept."""
    c = lang.canonical()
    idx = [c.alphabet.index(s) for s in inputs]
    return all(c.delta[q][k] in c.accepting for q in c.accepting for k in idx)


def enumerate_words(lang: RegularLanguage, max_len: int) -> list[Word]:
    """Members of L up to max_len, in length-then-lexicographic order; more
    than MAX_ENUM_WORDS members raise LimitExceeded before any is listed."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len > MAX_ENUM_LEN:
        raise LimitExceeded(f"enumeration length {max_len} exceeds limit {MAX_ENUM_LEN}")
    symbols = lang.alphabet.symbols
    delta = lang.delta
    # count[r][q]: the number of words of length exactly r accepted from q.
    # The walk enters a state only if it accepts some word of the remaining
    # length, so every branch walked ends in an output word and the walk
    # costs O(output · k · max_len) instead of O(k^max_len).
    count = [[1 if q in lang.accepting else 0 for q in range(len(delta))]]
    for _ in range(max_len):
        prev = count[-1]
        count.append([sum(prev[t] for t in row) for row in delta])
    total = sum(c[lang.initial] for c in count)
    if total > MAX_ENUM_WORDS:
        raise LimitExceeded(f"enumeration of {total} words exceeds limit {MAX_ENUM_WORDS}")
    out: list[Word] = []

    def walk(q: int, word: tuple[str, ...], remaining: int) -> None:
        if remaining == 0:
            out.append(word)
            return
        ahead = count[remaining - 1]
        for k, t in enumerate(delta[q]):
            if ahead[t]:
                walk(t, word + (symbols[k],), remaining - 1)

    for length in range(max_len + 1):
        if count[length][lang.initial]:
            walk(lang.initial, (), length)
    return out
