"""Brute-force definitional checkers.

Every closed-form operator in the package is validated here against its
quantifier-level definition, evaluated by bounded enumeration on the word
tree or by exhaustive sweeps over tiny behavior universes.  The checkers
are deterministic given the seed and report line-oriented results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import automata, contracts
from .behavioral import ConicCompset, Universe, all_antichains
from .errors import HypercError, LimitExceeded, ValidationError
from .lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    Word,
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

MAX_WORD_LEN = 8


@dataclass
class BoundedCheckConfig:
    """Knobs for the bounded checks; word lengths are capped at 8."""

    max_word_len: int = 6
    random_seed: int = 0
    num_cases: int = 200
    max_states: int = 5

    def __post_init__(self):
        if not 0 <= self.max_word_len <= MAX_WORD_LEN:
            raise LimitExceeded(
                f"max_word_len (--max-len) must lie in [0, {MAX_WORD_LEN}], got {self.max_word_len}"
            )
        if self.num_cases < 0:
            raise ValidationError(f"num_cases (--cases) must be nonnegative, got {self.num_cases}")
        if self.max_states < 1:
            raise ValidationError(f"max_states (--max-states) must be at least 1, got {self.max_states}")
        # The generators allocate up to max_states rows before any capped product.
        cap = state_cap()
        if self.max_states > cap:
            raise ValidationError(
                f"max_states (--max-states) must be at most the state cap {cap}, got {self.max_states}"
            )

    def rng(self) -> random.Random:
        return random.Random(self.random_seed)


@dataclass
class CheckReport:
    kind: str
    cases: int
    failures: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

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
        good = set(dfa.accepting)
        changed = True
        while changed:
            changed = False
            for q in sorted(good):
                if any(dfa.delta[q][k] not in good for k in in_idx):
                    good.discard(q)
                    changed = True
        if dfa.initial not in good:
            continue
        # Words whose whole path stays in the surviving set.
        sink = dfa.n_states
        delta = tuple(
            tuple(
                dfa.delta[q][k] if q in good and dfa.delta[q][k] in good else sink
                for k in range(len(alphabet))
            )
            for q in range(dfa.n_states)
        ) + ((sink,) * len(alphabet),)
        lang = RegularLanguage(alphabet, dfa.initial, frozenset(good), delta)
        return ReceptiveLanguage(lang, io)
    return ReceptiveLanguage(star_of(alphabet, io.inputs), io)


def random_prefix_closed(rng: random.Random, alphabet: Alphabet, max_states: int) -> RegularLanguage:
    return random_receptive(rng, IoSignature(alphabet, frozenset()), max_states).lang


def random_ia(
    rng: random.Random, io: IoSignature, max_states: int, density: float = 0.65
) -> automata.InterfaceAutomaton:
    n = rng.randint(1, max_states)
    names = [f"q{k}" for k in range(n)]
    transitions = {
        (names[q], s): names[rng.randrange(n)]
        for q in range(n)
        for s in io.alphabet.symbols
        if rng.random() < density
    }
    return automata.make(io, names, names[0], transitions)


def random_conic(rng: random.Random, universe: Universe, max_k: int = 3) -> ConicCompset:
    k = rng.randint(0, max_k)
    masks = [rng.randrange(universe.full_mask + 1) for _ in range(k)]
    return ConicCompset.from_components(universe, masks)


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
    case: int = 0,
) -> list[str]:
    """Compare `candidate` (default: the closed form) against the literal
    reading of MissExt: w = u∘σ∘v with u ∈ L∩L', σ ∈ Γ, u∘σ ∉ L'."""
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
            failures.append(
                f"FAIL missext case={case} word={word_str(w)} expected={expected} got={got}"
            )
    return failures


def check_unc_definition(
    lang: RegularLanguage,
    lang2: RegularLanguage,
    gamma: Iterable[str],
    delta: Iterable[str],
    cfg: BoundedCheckConfig,
    candidate: RegularLanguage | None = None,
    case: int = 0,
) -> list[str]:
    """Compare `candidate` (default: the closed form) against the quantifier
    definition of Unc; the existential over w' ∈ (Γ∪Δ)* is sound because
    witness paths are explored up to the product state count."""
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
            failures.append(
                f"FAIL unc case={case} word={word_str(w)} expected={expected} got={got}"
            )
    return failures


# -- sweeps ---------------------------------------------------------------------------


def sweep_missext(cfg: BoundedCheckConfig) -> CheckReport:
    rng = cfg.rng()
    report = CheckReport("missext", cfg.num_cases)
    for case in range(cfg.num_cases):
        alphabet = random_alphabet(rng)
        lang = random_dfa(rng, alphabet, cfg.max_states)
        lang2 = random_dfa(rng, alphabet, cfg.max_states)
        gamma = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        report.failures.extend(check_missext_definition(lang, lang2, gamma, cfg, case=case))
    return report


def sweep_unc(cfg: BoundedCheckConfig) -> CheckReport:
    rng = cfg.rng()
    report = CheckReport("unc", cfg.num_cases)
    bound = 0
    for case in range(cfg.num_cases):
        alphabet = random_alphabet(rng)
        lang = random_dfa(rng, alphabet, cfg.max_states)
        lang2 = random_dfa(rng, alphabet, cfg.max_states)
        gamma = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        delta = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        bound = max(bound, lang.n_states * lang2.n_states)
        report.failures.extend(check_unc_definition(lang, lang2, gamma, delta, cfg, case=case))
    report.notes["witness_state_bound"] = bound
    return report


def sweep_exponential(cfg: BoundedCheckConfig) -> CheckReport:
    """Heyting laws: adjunction both ways, closed form = definitional form,
    L ⊆ L'→L, and closure of the result under the validators."""
    rng = cfg.rng()
    report = CheckReport("exponential", cfg.num_cases)
    for case in range(cfg.num_cases):
        io = random_signature(rng, random_alphabet(rng))
        target = random_receptive(rng, io, cfg.max_states)
        other = random_receptive(rng, io, cfg.max_states)
        probe = random_receptive(rng, io, cfg.max_states)
        try:
            exp = exponential(target, other)
            if exp.lang != exponential_definitional(target, other):
                report.failures.append(
                    f"FAIL exponential case={case} expected=definitional-form got=closed-form"
                )
                continue
            if not is_subset(target.lang, exp.lang):
                report.failures.append(
                    f"FAIL exponential case={case} expected=L⊆(L'→L) got=violation"
                )
                continue
            for name, third in (("probe", probe), ("exp", exp), ("target", target)):
                lhs = is_subset(meet(third, other).lang, target.lang)
                rhs = is_subset(third.lang, exp.lang)
                if lhs != rhs:
                    report.failures.append(
                        f"FAIL exponential case={case} word={name} expected={lhs} got={rhs}"
                    )
        except HypercError as err:
            report.failures.append(f"FAIL exponential case={case} error={err}")
    return report


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
    rng = cfg.rng()
    report = CheckReport("receptive-quotient", cfg.num_cases)
    for case in range(cfg.num_cases):
        dividend, divisor, io_r = _quotient_operands(rng, cfg)
        try:
            q = quotient(dividend, divisor)
            if not is_subset(compose(q, divisor).lang, dividend.lang):
                report.failures.append(
                    f"FAIL receptive-quotient case={case} expected=(L/L')×L'⊆L got=violation"
                )
                continue
            for s in range(samples_per_case):
                third = random_receptive(rng, io_r, cfg.max_states)
                lhs = is_subset(compose(third, divisor).lang, dividend.lang)
                rhs = is_subset(third.lang, q.lang)
                if lhs != rhs:
                    report.failures.append(
                        f"FAIL receptive-quotient case={case} word=sample{s} expected={lhs} got={rhs}"
                    )
        except HypercError as err:
            report.failures.append(f"FAIL receptive-quotient case={case} error={err}")
    return report


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
    rng = cfg.rng()
    report = CheckReport("interface-compose", cfg.num_cases)
    skips = 0
    incompatible = 0
    for case in range(cfg.num_cases):
        alphabet = random_alphabet(rng)
        io1, io2 = _compatible_signatures(rng, alphabet)
        c1 = contracts.from_s(random_prefix_closed(rng, alphabet, cfg.max_states), io1)
        c2 = contracts.from_s(random_prefix_closed(rng, alphabet, cfg.max_states), io2)
        r = contracts.compose(c1, c2)
        swapped = contracts.compose(c2, c1)
        if isinstance(r, contracts.Incompatible) != isinstance(swapped, contracts.Incompatible):
            report.failures.append(
                f"FAIL interface-compose case={case} expected=commutative got=asymmetric"
            )
            continue
        if isinstance(r, contracts.Incompatible):
            incompatible += 1
            continue
        if not (r.s == swapped.s and r.io == swapped.io):
            report.failures.append(
                f"FAIL interface-compose case={case} expected=commutative got=different-composites"
            )
            continue
        checks = (
            ("M×M'⊆M_R", c1.m.intersect(c2.m), r.m),
            ("E_R×M⊆E'", r.e.intersect(c1.m), c2.e),
            ("E_R×M'⊆E", r.e.intersect(c2.m), c1.e),
        )
        for name, small, big in checks:
            if not is_subset(small, big):
                report.failures.append(
                    f"FAIL interface-compose case={case} expected={name} got=violation"
                )
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
                report.failures.append(
                    f"FAIL interface-compose case={case} expected=E_R=quotient-meet got=mismatch"
                )
        except HypercError:
            skips += 1
    report.notes["incompatible_cases"] = incompatible
    report.notes["quotient_cross_check_skips"] = skips
    return report


def sweep_ia_equivalence(cfg: BoundedCheckConfig) -> CheckReport:
    """Interface automata agree with their contracts: the refinement
    biconditional and the commutation of composition with the semantic map."""
    rng = cfg.rng()
    report = CheckReport("ia-equivalence", cfg.num_cases)
    incompatible = 0
    for case in range(cfg.num_cases):
        alphabet = random_alphabet(rng)
        io = random_signature(rng, alphabet)
        a1 = random_ia(rng, io, cfg.max_states)
        a2 = random_ia(rng, io, cfg.max_states)
        lhs = automata.refines(a1, a2)
        rhs = contracts.refines(automata.to_contract(a1), automata.to_contract(a2))
        if lhs != rhs:
            report.failures.append(
                f"FAIL ia-equivalence case={case} word=refinement expected={lhs} got={rhs}"
            )
            continue
        io1, io2 = _compatible_signatures(rng, alphabet)
        b1 = random_ia(rng, io1, cfg.max_states)
        b2 = random_ia(rng, io2, cfg.max_states)
        via_ia = automata.compose(b1, b2)
        via_contract = contracts.compose(automata.to_contract(b1), automata.to_contract(b2))
        if isinstance(via_ia, contracts.Incompatible) != isinstance(
            via_contract, contracts.Incompatible
        ):
            report.failures.append(
                f"FAIL ia-equivalence case={case} word=incompatibility "
                f"expected={isinstance(via_contract, contracts.Incompatible)} "
                f"got={isinstance(via_ia, contracts.Incompatible)}"
            )
            continue
        if isinstance(via_ia, contracts.Incompatible):
            incompatible += 1
            continue
        mapped = automata.to_contract(via_ia)
        if not (
            mapped.s == via_contract.s
            and mapped.e == via_contract.e
            and mapped.m == via_contract.m
            and mapped.io == via_contract.io
        ):
            report.failures.append(
                f"FAIL ia-equivalence case={case} word=composition expected=equal-contracts got=mismatch"
            )
    report.notes["incompatible_cases"] = incompatible
    return report


def sweep_conic_quotient(cfg: BoundedCheckConfig) -> CheckReport:
    """Adjunction of the conic quotient, exhaustive over every conic third
    operand of a 4-behavior universe."""
    rng = cfg.rng()
    universe = Universe(("0", "1", "2", "3"))
    chains = all_antichains(universe)
    report = CheckReport("conic-quotient", cfg.num_cases)
    report.notes["third_operands"] = len(chains)
    for case in range(cfg.num_cases):
        h = ConicCompset(universe, rng.choice(chains))
        h2 = ConicCompset(universe, rng.choice(chains))
        q = h.quotient(h2)
        for ms in chains:
            x = ConicCompset(universe, ms)
            lhs = x.compose(h2).leq(h)
            rhs = x.leq(q)
            if lhs != rhs:
                report.failures.append(
                    f"FAIL conic-quotient case={case} word={ms} expected={lhs} got={rhs}"
                )
                break
    return report


def sweep_conic_ops(cfg: BoundedCheckConfig) -> CheckReport:
    """Conic compose/meet/join/quotient agree with the general-mode engine on
    downward closures over a 4-behavior universe."""
    rng = cfg.rng()
    universe = Universe(("0", "1", "2", "3"))
    chains = all_antichains(universe)
    report = CheckReport("conic-ops", cfg.num_cases)
    for case in range(cfg.num_cases):
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
            if conic.to_general().members != general.members:
                report.failures.append(
                    f"FAIL conic-ops case={case} word={name} expected=general-engine got=conic"
                )
    return report


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

_ADJUNCTION_KINDS = (
    "exponential",
    "receptive-quotient",
    "interface-compose",
    "conic-quotient",
)


def check_adjunction(kind: str, cfg: BoundedCheckConfig) -> CheckReport:
    """Adjunction-style sweeps; `kind` is one of the residuated operators."""
    if kind not in _ADJUNCTION_KINDS:
        raise ValueError(f"unknown adjunction kind {kind!r}; pick one of {_ADJUNCTION_KINDS}")
    return ORACLE_KINDS[kind](cfg)


def run_check(kind: str, cfg: BoundedCheckConfig) -> CheckReport:
    try:
        sweep = ORACLE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown oracle kind {kind!r}") from None
    return sweep(cfg)


def run_all(cfg: BoundedCheckConfig) -> list[CheckReport]:
    return [sweep(cfg) for sweep in ORACLE_KINDS.values()]
