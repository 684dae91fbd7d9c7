"""Brute-force definitional checkers.

Every closed-form operator in the package is validated here against its
quantifier-level definition, evaluated by bounded enumeration on the word
tree or by exhaustive sweeps over tiny behavior universes.  The checkers
are deterministic given the seed and report line-oriented results.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from . import automata, contracts
from .behavioral import ConicCompset, Universe, all_antichains
from .errors import HypercError, LimitExceeded, ValidationError
from .lang import (
    Alphabet,
    IoSignature,
    MAX_ENUM_LEN,
    RegularLanguage,
    Word,
    _ENV_MAX_STATES,
    _canonicalize,
    close_backward,
    is_subset,
    star_of,
    state_cap,
    word_str,
)
from .receptive import (
    ReceptiveLanguage,
    compose,
    exponential,
    exponential_definitional,
    meet,
    miss_ext,
    quotient,
    quotient_signature,
    unc,
)


class BoundedCheckConfig:
    """Knobs for the bounded checks; word lengths are bounded by lang.MAX_ENUM_LEN."""

    def __init__(self, max_word_len: int = 6, random_seed: int = 0, num_cases: int = 200, max_states: int = 5):
        if max_word_len < 0:
            raise ValidationError(f"max_word_len (--max-len) must be nonnegative, got {max_word_len}")
        if max_word_len > MAX_ENUM_LEN:
            raise LimitExceeded("oracle", f"max_word_len (--max-len) {max_word_len}", MAX_ENUM_LEN, "MAX_ENUM_LEN")
        if num_cases < 0:
            raise ValidationError(f"num_cases (--cases) must be nonnegative, got {num_cases}")
        if max_states < 1:
            raise ValidationError(f"max_states (--max-states) must be at least 1, got {max_states}")
        # The generators allocate up to max_states rows before any capped product.
        if max_states > (cap := state_cap()):
            raise LimitExceeded("oracle", f"max_states (--max-states) {max_states}", cap, _ENV_MAX_STATES)
        self.max_word_len, self.random_seed = max_word_len, random_seed
        self.num_cases, self.max_states = num_cases, max_states

    def rng(self) -> random.Random:
        return random.Random(self.random_seed)


class CheckReport:
    """One sweep's outcome: its fault lines, and the counts in `notes`."""

    def __init__(self, kind: str, cases: int, notes: dict[str, object]):
        self.kind, self.cases, self.notes = kind, cases, notes
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        if self.ok:
            return [f"PASS {self.kind} cases={self.cases}"]
        return list(self.failures)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cases": self.cases,
            "ok": self.ok,
            "failures": list(self.failures),
            "notes": dict(sorted(self.notes.items())),
        }


# -- random generators ----------------------------------------------------------


_ALPHABETS = (("a", "b"), ("a", "b", "c"))


def random_alphabet(rng: random.Random) -> Alphabet:
    return Alphabet(rng.choice(_ALPHABETS))


def random_signature(rng: random.Random, alphabet: Alphabet) -> IoSignature:
    return IoSignature(
        alphabet, frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
    )


def random_dfa(rng: random.Random, alphabet: Alphabet, max_states: int) -> RegularLanguage:
    n = rng.randint(1, max_states)
    delta = tuple(
        tuple(rng.randrange(n) for _ in alphabet.symbols) for _ in range(n)
    )
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return RegularLanguage(alphabet, 0, accepting, delta)


def random_receptive(
    rng: random.Random, io: IoSignature, max_states: int
) -> ReceptiveLanguage:
    """Random member of L_I: draw a DFA, keep the largest sublanguage that is
    prefix-closed and I-receptive (greatest fixpoint over accepting states)."""
    alphabet = io.alphabet
    in_idx = [alphabet.index(s) for s in io.inputs]
    for _ in range(200):
        dfa = random_dfa(rng, alphabet, max_states)
        # The accepting states that reach no rejecting state over inputs alone.
        states = set(range(dfa.n_states))
        good = states - close_backward(dfa.delta, states - dfa.accepting, in_idx)
        if dfa.initial not in good:
            continue
        # Words whose whole path stays in the surviving set.
        rows = [tuple(t if q in good and t in good else None for t in row) for q, row in enumerate(dfa.delta)]
        return ReceptiveLanguage(_canonicalize(alphabet, dfa.initial, good, rows), io)
    return ReceptiveLanguage(star_of(alphabet, io.inputs), io)


def random_prefix_closed(rng: random.Random, alphabet: Alphabet, max_states: int) -> RegularLanguage:
    return random_receptive(rng, IoSignature(alphabet, frozenset()), max_states).lang


def random_ia(rng: random.Random, io: IoSignature, max_states: int) -> automata.InterfaceAutomaton:
    n = rng.randint(1, max_states)
    names = [f"q{k}" for k in range(n)]
    transitions = {
        (names[q], s): names[rng.randrange(n)]
        for q in range(n)
        for s in io.alphabet.symbols
        if rng.random() < 0.65
    }
    return automata.make(io, names, names[0], transitions)


# -- word-tree membership tables ---------------------------------------------------


def _word_tables(
    langs: list[RegularLanguage], alphabet: Alphabet, max_len: int
) -> tuple[list[Word], dict[Word, tuple[bool, ...]], dict[Word, tuple[int, ...]]]:
    """All words up to max_len (length-major, lexicographic) with per-language
    membership and reached-state tables for O(1) prefix queries."""
    members: dict[Word, tuple[bool, ...]] = {}
    states: dict[Word, tuple[int, ...]] = {}
    start = tuple(l.initial for l in langs)
    states[()] = start
    members[()] = tuple(q in l.accepting for l, q in zip(langs, start))
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            qs = states[w]
            for k, sym in enumerate(alphabet.symbols):
                w2 = w + (sym,)
                q2 = tuple(l.delta[q][k] for l, q in zip(langs, qs))
                states[w2] = q2
                members[w2] = tuple(q in l.accepting for l, q in zip(langs, q2))
                nxt.append(w2)
        words.extend(nxt)
        frontier = nxt
    return words, members, states


# -- definitional checkers ----------------------------------------------------------


def check_missext_definition(
    lang: RegularLanguage,
    lang2: RegularLanguage,
    gamma: Iterable[str],
    cfg: BoundedCheckConfig,
    candidate: RegularLanguage | None = None,
) -> list[str]:
    """Compare `candidate` (default: the closed form) against the literal
    reading of MissExt: w = u∘σ∘v with u ∈ L∩L', σ ∈ Γ, u∘σ ∉ L'.  One fault
    text per word on which they differ."""
    gset = lang.alphabet.subset(gamma)
    cand = candidate if candidate is not None else miss_ext(lang, lang2, gamma)
    words, members, _ = _word_tables([lang, lang2, cand], lang.alphabet, cfg.max_word_len)
    failures = []
    for w in words:
        expected = any(
            members[w[:i]][0] and members[w[:i]][1] and w[i] in gset and not members[w[: i + 1]][1]
            for i in range(len(w))
        )
        got = members[w][2]
        if expected != got:
            failures.append(f"word={word_str(w)} expected={expected} got={got}")
    return failures


def check_unc_definition(
    lang: RegularLanguage,
    lang2: RegularLanguage,
    gamma: Iterable[str],
    delta: Iterable[str],
    cfg: BoundedCheckConfig,
    candidate: RegularLanguage | None = None,
) -> list[str]:
    """Compare `candidate` (default: the closed form) against the quantifier
    definition of Unc; the existential over w' ∈ (Γ∪Δ)* is sound because
    witness paths are explored up to the product state count.  Faults as in
    `check_missext_definition`."""
    alphabet = lang.alphabet
    gset = alphabet.subset(gamma)
    dset = alphabet.subset(delta)
    g_idx = [alphabet.index(s) for s in alphabet.symbols if s in gset]
    gd_idx = [alphabet.index(s) for s in alphabet.symbols if s in gset | dset]
    cand = candidate if candidate is not None else unc(lang, lang2, gamma, delta)
    words, members, states = _word_tables([lang, lang2, cand], alphabet, cfg.max_word_len)

    core_memo: dict[tuple[int, int], bool] = {}

    def core(q: int, r: int) -> bool:
        key = (q, r)
        if key in core_memo:
            return core_memo[key]
        # Bounded search for w' ∈ (Γ∪Δ)* and σ ∈ Γ with u∘w' ∈ L∩L' and
        # u∘w'∘σ ∈ L'\L; state dedup keeps witnesses within the product size.
        seen = {key}
        stack = [key]
        found = False
        while stack and not found:
            a, b = stack.pop()
            if a in lang.accepting and b in lang2.accepting:
                for k in g_idx:
                    a2, b2 = lang.delta[a][k], lang2.delta[b][k]
                    if b2 in lang2.accepting and a2 not in lang.accepting:
                        found = True
                        break
            if found:
                break
            for k in gd_idx:
                t = (lang.delta[a][k], lang2.delta[b][k])
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        core_memo[key] = found
        return found

    failures = []
    for w in words:
        expected = any(
            members[w[:i]][0] and members[w[:i]][1] and core(states[w[:i]][0], states[w[:i]][1])
            for i in range(len(w) + 1)
        )
        got = members[w][2]
        if expected != got:
            failures.append(f"word={word_str(w)} expected={expected} got={got}")
    return failures


# -- sweeps ---------------------------------------------------------------------------


def _sweep(
    kind: str, cfg: BoundedCheckConfig, case_faults: Callable[[random.Random, dict], Iterator[str]], **notes: int
) -> CheckReport:
    """Run `case_faults(rng, notes)` once per case on one seeded generator,
    giving each fault text it yields the prefix `FAIL <kind> case=<n>`; the
    cases update `notes` in place."""
    rng = cfg.rng()
    report = CheckReport(kind, cfg.num_cases, notes=notes)
    for case in range(cfg.num_cases):
        report.failures.extend(f"FAIL {kind} case={case} {fault}" for fault in case_faults(rng, notes))
    return report


def sweep_missext(cfg: BoundedCheckConfig) -> CheckReport:
    def case_faults(rng, notes):
        alphabet = random_alphabet(rng)
        lang = random_dfa(rng, alphabet, cfg.max_states)
        lang2 = random_dfa(rng, alphabet, cfg.max_states)
        gamma = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        yield from check_missext_definition(lang, lang2, gamma, cfg)

    return _sweep("missext", cfg, case_faults)


def sweep_unc(cfg: BoundedCheckConfig) -> CheckReport:
    def case_faults(rng, notes):
        alphabet = random_alphabet(rng)
        lang = random_dfa(rng, alphabet, cfg.max_states)
        lang2 = random_dfa(rng, alphabet, cfg.max_states)
        gamma = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        delta = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        notes["witness_state_bound"] = max(notes["witness_state_bound"], lang.n_states * lang2.n_states)
        yield from check_unc_definition(lang, lang2, gamma, delta, cfg)

    return _sweep("unc", cfg, case_faults, witness_state_bound=0)


def sweep_exponential(cfg: BoundedCheckConfig) -> CheckReport:
    """Heyting laws: adjunction both ways, closed form = definitional form,
    L ⊆ L'→L, and closure of the result under the validators."""

    def case_faults(rng, notes):
        io = random_signature(rng, random_alphabet(rng))
        target = random_receptive(rng, io, cfg.max_states)
        other = random_receptive(rng, io, cfg.max_states)
        probe = random_receptive(rng, io, cfg.max_states)
        try:
            exp = exponential(target, other)
            if exp.lang != exponential_definitional(target, other):
                yield "expected=definitional-form got=closed-form"
                return
            if not is_subset(target.lang, exp.lang):
                yield "expected=L⊆(L'→L) got=violation"
                return
            for name, third in (("probe", probe), ("exp", exp), ("target", target)):
                lhs = is_subset(meet(third, other).lang, target.lang)
                rhs = is_subset(third.lang, exp.lang)
                if lhs != rhs:
                    yield f"word={name} expected={lhs} got={rhs}"
        except HypercError as err:
            yield f"error={err}"

    return _sweep("exponential", cfg, case_faults)


def _quotient_operands(
    rng: random.Random, cfg: BoundedCheckConfig
) -> tuple[ReceptiveLanguage, ReceptiveLanguage, IoSignature]:
    alphabet = random_alphabet(rng)
    i1 = frozenset(s for s in alphabet.symbols if rng.random() < 0.4)
    extra = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
    io = IoSignature(alphabet, i1)
    io2 = IoSignature(alphabet, i1 | extra)
    io_r = quotient_signature(io, io2)
    divisor = random_receptive(rng, io2, cfg.max_states)
    raw = random_receptive(rng, io, cfg.max_states)
    # Union with L' ∩ I_r* keeps the draw I-receptive and makes the quotient defined.
    floor = divisor.lang.intersect(star_of(alphabet, io_r.inputs))
    dividend = ReceptiveLanguage(raw.lang.union(floor), io)
    return dividend, divisor, io_r


def sweep_receptive_quotient(cfg: BoundedCheckConfig, samples_per_case: int = 10) -> CheckReport:
    """(L/L') × L' ⊆ L, and the biconditional against sampled third operands."""

    def case_faults(rng, notes):
        dividend, divisor, io_r = _quotient_operands(rng, cfg)
        try:
            q = quotient(dividend, divisor)
            if not is_subset(compose(q, divisor).lang, dividend.lang):
                yield "expected=(L/L')×L'⊆L got=violation"
                return
            for s in range(samples_per_case):
                third = random_receptive(rng, io_r, cfg.max_states)
                lhs = is_subset(compose(third, divisor).lang, dividend.lang)
                rhs = is_subset(third.lang, q.lang)
                if lhs != rhs:
                    yield f"word=sample{s} expected={lhs} got={rhs}"
        except HypercError as err:
            yield f"error={err}"

    return _sweep("receptive-quotient", cfg, case_faults)


def _compatible_signatures(rng: random.Random, alphabet: Alphabet) -> tuple[IoSignature, IoSignature]:
    i1 = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
    rest = frozenset(alphabet.symbols) - i1
    # Draw in symbol order: iterating the frozenset would tie the draws to
    # PYTHONHASHSEED.
    i2 = rest | frozenset(s for s in alphabet.symbols if s in i1 and rng.random() < 0.5)
    return IoSignature(alphabet, i1), IoSignature(alphabet, i2)


def sweep_interface_compose(cfg: BoundedCheckConfig) -> CheckReport:
    """Abadi–Lamport soundness of interface composition, commutativity, and the
    reconstruction of E_R as the meet of the two receptive quotients."""

    def case_faults(rng, notes):
        alphabet = random_alphabet(rng)
        io1, io2 = _compatible_signatures(rng, alphabet)
        c1 = contracts.from_s(random_prefix_closed(rng, alphabet, cfg.max_states), io1)
        c2 = contracts.from_s(random_prefix_closed(rng, alphabet, cfg.max_states), io2)
        r = contracts.compose(c1, c2)
        swapped = contracts.compose(c2, c1)
        if isinstance(r, contracts.Incompatible) != isinstance(swapped, contracts.Incompatible):
            yield "expected=commutative got=asymmetric"
            return
        if isinstance(r, contracts.Incompatible):
            notes["incompatible_cases"] += 1
            return
        if r != swapped:
            yield "expected=commutative got=different-composites"
            return
        checks = (
            ("M×M'⊆M_R", c1.m.intersect(c2.m), r.m),
            ("E_R×M⊆E'", r.e.intersect(c1.m), c2.e),
            ("E_R×M'⊆E", r.e.intersect(c2.m), c1.e),
        )
        for name, small, big in checks:
            if not is_subset(small, big):
                yield f"expected={name} got=violation"
        # E_R = (E_{S'}/M_S) ∧ (E_S/M_{S'}) whenever both quotients are defined.
        try:
            q1 = quotient(
                ReceptiveLanguage(c2.e, IoSignature(alphabet, io2.outputs)),
                ReceptiveLanguage(c1.m, io1),
            )
            q2 = quotient(
                ReceptiveLanguage(c1.e, IoSignature(alphabet, io1.outputs)),
                ReceptiveLanguage(c2.m, io2),
            )
            if q1.lang.intersect(q2.lang) != r.e:
                yield "expected=E_R=quotient-meet got=mismatch"
        except HypercError:
            notes["quotient_cross_check_skips"] += 1

    return _sweep("interface-compose", cfg, case_faults, incompatible_cases=0, quotient_cross_check_skips=0)


def sweep_ia_equivalence(cfg: BoundedCheckConfig) -> CheckReport:
    """Interface automata agree with their contracts: the refinement
    biconditional and the commutation of composition with the semantic map."""

    def case_faults(rng, notes):
        alphabet = random_alphabet(rng)
        io = random_signature(rng, alphabet)
        a1 = random_ia(rng, io, cfg.max_states)
        a2 = random_ia(rng, io, cfg.max_states)
        lhs = automata.refines(a1, a2)
        rhs = contracts.refines(automata.to_contract(a1), automata.to_contract(a2))
        if lhs != rhs:
            yield f"word=refinement expected={lhs} got={rhs}"
            return
        io1, io2 = _compatible_signatures(rng, alphabet)
        b1 = random_ia(rng, io1, cfg.max_states)
        b2 = random_ia(rng, io2, cfg.max_states)
        via_ia = automata.compose(b1, b2)
        via_contract = contracts.compose(automata.to_contract(b1), automata.to_contract(b2))
        ia_incompatible = isinstance(via_ia, contracts.Incompatible)
        contract_incompatible = isinstance(via_contract, contracts.Incompatible)
        if ia_incompatible != contract_incompatible:
            yield f"word=incompatibility expected={contract_incompatible} got={ia_incompatible}"
            return
        if ia_incompatible:
            notes["incompatible_cases"] += 1
            return
        if automata.to_contract(via_ia) != via_contract:
            yield "word=composition expected=equal-contracts got=mismatch"

    return _sweep("ia-equivalence", cfg, case_faults, incompatible_cases=0)


def sweep_conic_quotient(cfg: BoundedCheckConfig) -> CheckReport:
    """Adjunction of the conic quotient, exhaustive over every conic third
    operand of a 4-behavior universe."""
    universe = Universe(("0", "1", "2", "3"))
    chains = all_antichains(universe)
    thirds = [(ms, ConicCompset(universe, ms)) for ms in chains]

    def case_faults(rng, notes):
        h = ConicCompset(universe, rng.choice(chains))
        h2 = ConicCompset(universe, rng.choice(chains))
        q = h.quotient(h2)
        for ms, x in thirds:
            lhs = x.compose(h2).leq(h)
            rhs = x.leq(q)
            if lhs != rhs:
                yield f"word={ms} expected={lhs} got={rhs}"
                return

    return _sweep("conic-quotient", cfg, case_faults, third_operands=len(chains))


def sweep_conic_ops(cfg: BoundedCheckConfig) -> CheckReport:
    """Conic compose/meet/join/quotient agree with the general-mode engine on
    downward closures over a 4-behavior universe."""
    universe = Universe(("0", "1", "2", "3"))
    chains = all_antichains(universe)

    def case_faults(rng, notes):
        h = ConicCompset(universe, rng.choice(chains))
        h2 = ConicCompset(universe, rng.choice(chains))
        hg, hg2 = h.to_general(), h2.to_general()
        pairs = (
            ("compose", h.compose(h2), hg.compose(hg2)),
            ("meet", h.meet(h2), hg.meet(hg2)),
            ("join", h.join(h2), hg.join(hg2)),
            ("quotient", h.quotient(h2), hg.quotient(hg2)),
        )
        for name, conic, general in pairs:
            if conic.to_general() != general:
                yield f"word={name} expected=general-engine got=conic"

    return _sweep("conic-ops", cfg, case_faults)


ORACLE_KINDS: dict[str, Callable[[BoundedCheckConfig], CheckReport]] = {
    "missext": sweep_missext,
    "unc": sweep_unc,
    "exponential": sweep_exponential,
    "receptive-quotient": sweep_receptive_quotient,
    "interface-compose": sweep_interface_compose,
    "ia-equivalence": sweep_ia_equivalence,
    "conic-quotient": sweep_conic_quotient,
    "conic-ops": sweep_conic_ops,
}


def run_check(kind: str, cfg: BoundedCheckConfig) -> CheckReport:
    try:
        sweep = ORACLE_KINDS[kind]
    except KeyError:
        raise ValidationError(f"unknown oracle kind {kind!r}") from None
    return sweep(cfg)


def run_all(cfg: BoundedCheckConfig) -> list[CheckReport]:
    return [sweep(cfg) for sweep in ORACLE_KINDS.values()]
