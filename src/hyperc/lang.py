"""Exact regular-language algebra over a fixed finite alphabet.

Languages are stored as complete DFAs.  Every public operation returns a
canonical automaton (minimal, states renumbered by breadth-first order over
the alphabet's symbol ordering), so two values denote the same language iff
their canonical forms are structurally identical.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import AlphabetMismatch, HypercError, LimitExceeded

Word = tuple[str, ...]

#: Hard bound on enumeration length (see enumerate_words).
MAX_ENUM_LEN = 8

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


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct symbol names; the ordering is canonical."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise AlphabetMismatch("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise AlphabetMismatch("alphabet symbols must be distinct")
        object.__setattr__(self, "_pos", {s: k for k, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._pos[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise AlphabetMismatch(f"unknown symbol {symbol!r}") from None

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._pos  # type: ignore[attr-defined]

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


@dataclass(frozen=True)
class IoSignature:
    """Partition of the alphabet into input symbols I and output symbols O."""

    alphabet: Alphabet
    inputs: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "inputs", self.alphabet.subset(self.inputs))

    @property
    def outputs(self) -> frozenset[str]:
        return frozenset(self.alphabet.symbols) - self.inputs

    def swapped(self) -> "IoSignature":
        return IoSignature(self.alphabet, self.outputs)

    def __str__(self) -> str:
        ins = ",".join(s for s in self.alphabet.symbols if s in self.inputs)
        outs = ",".join(s for s in self.alphabet.symbols if s not in self.inputs)
        return f"(I={{{ins}}}, O={{{outs}}})"


@dataclass(frozen=True, eq=False)
class RegularLanguage:
    """Complete DFA: delta[state][symbol_index] is total, states are 0..n-1.

    Instances may be non-minimal; `canonical()` gives the unique minimal
    BFS-numbered form, and equality/hashing go through it.
    """

    alphabet: Alphabet
    initial: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        n = len(self.delta)
        nsym = len(self.alphabet)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise ValueError("accepting state out of range")
        for row in self.delta:
            if len(row) != nsym or not all(0 <= t < n for t in row):
                raise ValueError("delta must be total with targets in range")

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
        c = self.canonical()
        return not c.accepting

    def shortest_member(self) -> Word | None:
        """Shortest accepted word (lexicographically least among ties)."""
        seen = {self.initial}
        frontier: list[tuple[int, Word]] = [(self.initial, ())]
        while frontier:
            nxt: list[tuple[int, Word]] = []
            for q, w in frontier:
                if q in self.accepting:
                    return w
                for k, s in enumerate(self.alphabet.symbols):
                    t = self.delta[q][k]
                    if t not in seen:
                        seen.add(t)
                        nxt.append((t, w + (s,)))
            frontier = nxt
        return None

    # -- canonical form and equality ---------------------------------------

    def canonical(self) -> "RegularLanguage":
        cached = getattr(self, "_canon", None)
        if cached is None:
            cached = _canonicalize(self)
            object.__setattr__(self, "_canon", cached)
            object.__setattr__(cached, "_canon", cached)
        return cached

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
        flipped = frozenset(range(self.n_states)) - self.accepting
        return RegularLanguage(self.alphabet, self.initial, flipped, self.delta).canonical()

    def union(self, other: "RegularLanguage") -> "RegularLanguage":
        return _binary(self, other, lambda a, b: a or b)

    def intersect(self, other: "RegularLanguage") -> "RegularLanguage":
        return _binary(self, other, lambda a, b: a and b)

    def difference(self, other: "RegularLanguage") -> "RegularLanguage":
        return _binary(self, other, lambda a, b: a and not b)


def boolean_op(kind: str, lang: RegularLanguage, other: RegularLanguage | None = None) -> RegularLanguage:
    """Dispatch by name; complement takes one operand, the rest take two."""
    if kind == "complement":
        if other is not None:
            raise ValueError("complement takes a single operand")
        return lang.complement()
    if other is None:
        raise ValueError(f"{kind} takes two operands")
    try:
        return {"union": lang.union, "intersect": lang.intersect, "difference": lang.difference}[kind](other)
    except KeyError:
        raise ValueError(f"unknown boolean operation {kind!r}") from None


def union(a: RegularLanguage, b: RegularLanguage) -> RegularLanguage:
    return a.union(b)


def intersect(a: RegularLanguage, b: RegularLanguage) -> RegularLanguage:
    return a.intersect(b)


def difference(a: RegularLanguage, b: RegularLanguage) -> RegularLanguage:
    return a.difference(b)


def complement(a: RegularLanguage) -> RegularLanguage:
    return a.complement()


# -- construction helpers ---------------------------------------------------


def empty_language(alphabet: Alphabet) -> RegularLanguage:
    n = len(alphabet)
    return RegularLanguage(alphabet, 0, frozenset(), ((0,) * n,)).canonical()


def sigma_star(alphabet: Alphabet) -> RegularLanguage:
    n = len(alphabet)
    return RegularLanguage(alphabet, 0, frozenset({0}), ((0,) * n,)).canonical()


def star_of(alphabet: Alphabet, symbols: Iterable[str]) -> RegularLanguage:
    """The language `symbols*` (all words over the given symbol subset)."""
    keep = alphabet.subset(symbols)
    row0 = tuple(0 if s in keep else 1 for s in alphabet.symbols)
    row1 = (1,) * len(alphabet)
    return RegularLanguage(alphabet, 0, frozenset({0}), (row0, row1)).canonical()


def from_words(alphabet: Alphabet, words: Iterable[Word]) -> RegularLanguage:
    """The finite language consisting of exactly the given words (as a trie)."""
    norm = [tuple(w) for w in words]
    for w in norm:
        for s in w:
            alphabet.index(s)
    children: list[dict[int, int]] = [{}]
    accepting: set[int] = set()
    for w in norm:
        q = 0
        for s in w:
            k = alphabet.index(s)
            if k not in children[q]:
                children.append({})
                children[q][k] = len(children) - 1
            q = children[q][k]
        accepting.add(q)
    sink = len(children)
    delta = tuple(
        tuple(children[q].get(k, sink) for k in range(len(alphabet))) for q in range(len(children))
    ) + ((sink,) * len(alphabet),)
    return RegularLanguage(alphabet, 0, frozenset(accepting), delta).canonical()


# -- canonicalization ---------------------------------------------------------


def canonicalize(lang: RegularLanguage) -> RegularLanguage:
    """Minimal complete DFA, renumbered breadth-first in symbol order."""
    return lang.canonical()


def _canonicalize(lang: RegularLanguage) -> RegularLanguage:
    """Minimal complete DFA by column-wise Moore refinement.

    The reachable part is renumbered densely in discovery order and its
    transitions are stored as one successor list per symbol.  Each round
    splits every block by the signature (own block, successor block per
    symbol) and costs O(k·n) for k symbols and n reachable states; refinement
    stops when the block count stops growing or reaches n.  The number of
    rounds is bounded by n but small in practice: over one pass of the
    benchmark's lang-large workload (777 canonicalizations of about 716k
    reachable states in all) it is 4 at the median and at most 12.
    """
    delta = lang.delta
    # Dense renumbering of the reachable part, in discovery order.
    order = [lang.initial]
    num = {lang.initial: 0}
    for q in order:
        for t in delta[q]:
            if t not in num:
                num[t] = len(order)
                order.append(t)
    n = len(order)
    cols = [[num[delta[q][k]] for q in order] for k in range(len(lang.alphabet))]
    block = [1 if q in lang.accepting else 0 for q in order]
    nblocks = len(set(block))
    while nblocks < n:
        sigs: dict[tuple, int] = {}
        block = [
            sigs.setdefault(sig, len(sigs))
            for sig in zip(block, *[[block[t] for t in col] for col in cols])
        ]
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    # The stable partition is a congruence, so any member represents its block.
    rep = dict(zip(block, range(n)))
    # BFS over blocks fixes the canonical numbering; reps[j] represents the
    # block numbered j.
    idx = {block[0]: 0}
    reps = [rep[block[0]]]
    for i in reps:
        for col in cols:
            tb = block[col[i]]
            if tb not in idx:
                idx[tb] = len(reps)
                reps.append(rep[tb])
    rows = tuple(zip(*[[idx[block[col[i]]] for i in reps] for col in cols]))
    # Numbers taken from idx are the int objects the rows already hold.
    accepting = frozenset(j for b, j in idx.items() if order[rep[b]] in lang.accepting)
    return RegularLanguage(lang.alphabet, 0, accepting, rows)


# -- products ---------------------------------------------------------------


def check_same_alphabet(a: RegularLanguage, b: RegularLanguage) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("alphabet mismatch")


def product_map(a: RegularLanguage, b: RegularLanguage) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """Reachable product automaton; pair 0 is the joint initial state."""
    check_same_alphabet(a, b)
    nsym = len(a.alphabet)
    cap = state_cap()
    pairs: list[tuple[int, int]] = [(a.initial, b.initial)]
    index = {pairs[0]: 0}
    rows: list[tuple[int, ...]] = []
    for q, r in pairs:
        row = []
        for k in range(nsym):
            t = (a.delta[q][k], b.delta[r][k])
            j = index.get(t)
            if j is None:
                j = len(pairs)
                if j >= cap:
                    raise LimitExceeded(f"product exceeds state cap {cap} ({_ENV_MAX_STATES})")
                index[t] = j
                pairs.append(t)
            row.append(j)
        rows.append(tuple(row))
    return pairs, rows


def _binary(a: RegularLanguage, b: RegularLanguage, keep: Callable[[bool, bool], bool]) -> RegularLanguage:
    pairs, rows = product_map(a, b)
    accepting = frozenset(
        i for i, (q, r) in enumerate(pairs) if keep(q in a.accepting, r in b.accepting)
    )
    return RegularLanguage(a.alphabet, 0, accepting, tuple(rows)).canonical()


# -- concatenation-shaped operators ------------------------------------------


def concat_symbol_class(lang: RegularLanguage, symbols: Iterable[str]) -> RegularLanguage:
    """{ w∘σ | w ∈ L, σ ∈ Γ }: one-symbol extensions of L by the class Γ."""
    keep = lang.alphabet.subset(symbols)
    nsym = len(lang.alphabet)
    gset = {lang.alphabet.index(s) for s in keep}
    # Deterministic directly: track (state, last-step-was-a-Γ-jump-from-accepting).
    pairs: list[tuple[int, bool]] = [(lang.initial, False)]
    index = {pairs[0]: 0}
    rows: list[tuple[int, ...]] = []
    for q, _flag in pairs:
        row = []
        for k in range(nsym):
            t = (lang.delta[q][k], q in lang.accepting and k in gset)
            j = index.get(t)
            if j is None:
                j = len(pairs)
                index[t] = j
                pairs.append(t)
            row.append(j)
        rows.append(tuple(row))
    accepting = frozenset(i for i, (_q, flag) in enumerate(pairs) if flag)
    return RegularLanguage(lang.alphabet, 0, accepting, tuple(rows)).canonical()


def concat_sigma_star(lang: RegularLanguage) -> RegularLanguage:
    """{ w∘w' | w ∈ L, w' ∈ Σ* }: words having a prefix in L."""
    nsym = len(lang.alphabet)
    start = (lang.initial, lang.initial in lang.accepting)
    pairs: list[tuple[int, bool]] = [start]
    index = {start: 0}
    rows: list[tuple[int, ...]] = []
    for q, flag in pairs:
        row = []
        for k in range(nsym):
            tq = lang.delta[q][k]
            t = (tq, flag or tq in lang.accepting)
            j = index.get(t)
            if j is None:
                j = len(pairs)
                index[t] = j
                pairs.append(t)
            row.append(j)
        rows.append(tuple(row))
    accepting = frozenset(i for i, (_q, flag) in enumerate(pairs) if flag)
    return RegularLanguage(lang.alphabet, 0, accepting, tuple(rows)).canonical()


def prefix_closure(lang: RegularLanguage) -> RegularLanguage:
    """Pre(L): every prefix of every member of L."""
    nsym = len(lang.alphabet)
    n = lang.n_states
    rev: list[list[int]] = [[] for _ in range(n)]
    for q in range(n):
        for k in range(nsym):
            rev[lang.delta[q][k]].append(q)
    live = set(lang.accepting)
    stack = list(live)
    while stack:
        t = stack.pop()
        for q in rev[t]:
            if q not in live:
                live.add(q)
                stack.append(q)
    return RegularLanguage(lang.alphabet, lang.initial, frozenset(live), lang.delta).canonical()


# -- decision procedures -------------------------------------------------------


def counterexample(a: RegularLanguage, b: RegularLanguage) -> Word | None:
    """Shortest (then lexicographically least) word of a \\ b, or None if a ⊆ b.

    Breadth-first search over the reachable product pairs in symbol order,
    stopping at the first pair that accepts in a and rejects in b (early-exit
    inclusion, as in Bonchi & Pous, POPL 2013).  Only parent pointers are
    kept; the word is read back along them.  The result equals
    `a.difference(b).shortest_member()`.
    """
    check_same_alphabet(a, b)
    cap = state_cap()
    symbols = a.alphabet.symbols
    start = (a.initial, b.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = [start]
    for pair in queue:
        q, r = pair
        if q in a.accepting and r not in b.accepting:
            word: list[str] = []
            step = parent[pair]
            while step is not None:
                pair, k = step
                word.append(symbols[k])
                step = parent[pair]
            return tuple(reversed(word))
        for k, t in enumerate(zip(a.delta[q], b.delta[r])):
            if t not in parent:
                if len(queue) >= cap:
                    raise LimitExceeded(f"product exceeds state cap {cap} ({_ENV_MAX_STATES})")
                parent[t] = (pair, k)
                queue.append(t)
    return None


def is_subset(a: RegularLanguage, b: RegularLanguage) -> bool:
    """Exact inclusion: no reachable product state accepts a and rejects b."""
    return counterexample(a, b) is None


def is_prefix_closed(lang: RegularLanguage) -> bool:
    return is_subset(prefix_closure(lang), lang)


def is_receptive(lang: RegularLanguage, inputs: Iterable[str]) -> bool:
    """Extension clause only: L∘I ⊆ L (callers combine with is_prefix_closed)."""
    return is_subset(concat_symbol_class(lang, inputs), lang)


def enumerate_words(lang: RegularLanguage, max_len: int, limit: int = MAX_ENUM_LEN) -> list[Word]:
    """Members of L up to max_len, in length-then-lexicographic order."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len > limit:
        raise LimitExceeded(f"enumeration length {max_len} exceeds limit {limit}")
    symbols = lang.alphabet.symbols
    nsym = len(symbols)
    out: list[Word] = []

    def walk(q: int, word: tuple[str, ...], remaining: int) -> None:
        if remaining == 0:
            if q in lang.accepting:
                out.append(word)
            return
        for k in range(nsym):
            walk(lang.delta[q][k], word + (symbols[k],), remaining - 1)

    for length in range(max_len + 1):
        walk(lang.initial, (), length)
    return out
