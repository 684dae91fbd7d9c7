"""iface-design: many medium-sized contracts and interface automata.

Each op is one design step of a contract designer: a parent span whose
children are the library calls, so the step's self time is the glue.
Contracts are built as ``from_s(automata.language(A), io)`` from seeded
input-enabled interface automata of 15-40 states over 3-4 symbols with
complementary signatures.  A few input transitions are dropped, so that a
real share of compositions is ``Incompatible``.
"""

from __future__ import annotations

from hyperc import automata, contracts, jsonio, lang, receptive
from hyperc.contracts import Incompatible
from hyperc.lang import Alphabet, IoSignature
from hyperc.receptive import ReceptiveLanguage

import gen

#: Share of input transitions dropped from half of the automata that enter
#: compose and quotient steps (the other half stay input-enabled, and
#: input-enabled automata always compose).
DROP = 0.05
OUTPUT_DENSITY = 0.5

# (step, ops per pass, smallest and largest state count), drawn log-uniformly
# one per stratum.  About two thirds of the steps are verdicts (refine,
# validate: 4-20 ms), so the median falls among them; the rest are
# constructions (compose, quotient, receptive: 10-100 ms), where p90 falls.
# Constructions use automata of at most 20 states, which keeps their cost
# in a narrow band, so p90 moves little from seed to seed.
MIX = (
    ("refine", 208, 15, 40),
    ("validate", 168, 15, 40),
    ("compose", 120, 15, 20),
    ("quotient", 40, 15, 20),
    ("receptive", 40, 15, 20),
)


def complementary_signatures(rng, alphabet: Alphabet) -> tuple[IoSignature, IoSignature]:
    """Two signatures with no shared output: O2 ⊆ I1 and O1 ⊆ I2."""
    syms = list(alphabet.symbols)
    i1 = frozenset(rng.sample(syms, rng.randint(1, len(syms) - 1)))
    o1 = frozenset(syms) - i1
    i2 = o1 | frozenset(s for s in syms if s in i1 and rng.random() < 0.3)
    return IoSignature(alphabet, i1), IoSignature(alphabet, i2)


def random_ia(rng, io: IoSignature, n: int, drop: float = 0.0, outputs_enabled: bool = False):
    """Random interface automaton; inputs are enabled everywhere except a
    `drop` share, outputs appear with OUTPUT_DENSITY (or everywhere)."""
    names = [f"q{k}" for k in range(n)]
    transitions = {}
    for q in names:
        for s in io.alphabet.symbols:
            if s in io.inputs:
                keep = rng.random() >= drop
            else:
                keep = outputs_enabled or rng.random() < OUTPUT_DENSITY
            if keep:
                transitions[(q, s)] = names[rng.randrange(n)]
    return automata.make(io, names, names[0], transitions)


def _without_some_outputs(rng, a):
    """A copy of `a` with about a third of its output transitions removed;
    it refines `a` (same inputs, fewer outputs)."""
    alphabet = a.io.alphabet
    transitions = {
        (a.state_names[q], s): a.state_names[t]
        for q, row in enumerate(a.trans)
        for s, t in zip(alphabet.symbols, row)
        if t is not None and (s in a.io.inputs or rng.random() >= 1 / 3)
    }
    return automata.make(a.io, a.state_names, a.state_names[0], transitions)


def _product_states(a1, a2) -> int:
    """Reachable pairs of the synchronous product explored by IA composition."""
    seen = {(a1.initial, a2.initial)}
    stack = list(seen)
    while stack:
        q1, q2 = stack.pop()
        for t1, t2 in zip(a1.trans[q1], a2.trans[q2]):
            if t1 is not None and t2 is not None and (t1, t2) not in seen:
                seen.add((t1, t2))
                stack.append((t1, t2))
    return len(seen)


class IfaceDesign:
    name = "iface-design"
    warmup_ops = 4
    spot_checks = 24
    rss_of_children = False

    def __init__(self, root: str):
        self._alphabets = {k: Alphabet(gen.SYMBOLS[:k]) for k in (3, 4)}

    def close(self) -> None:
        pass

    def generate(self, rng, limit: int | None = None) -> list[tuple]:
        # Interface automata carry no caches, so the specs hold them directly.
        pool = []
        for step, count, lo, hi in MIX:
            if limit is not None and len(pool) >= limit:
                break
            # Sizes are stratified within each alphabet size, so which sizes
            # meet which alphabets does not vary with the seed.
            for j, (nsym, u) in enumerate((nsym, u) for nsym in (3, 4) for u in gen.strata(rng, count // 2)):
                alphabet = self._alphabets[nsym]
                n = round(lo * (hi / lo) ** u)
                m = rng.randint(lo, hi)
                io1, io2 = complementary_signatures(rng, alphabet)
                drop = DROP if j % 2 else 0.0
                if step == "compose":
                    pool.append((step, random_ia(rng, io1, n, drop), random_ia(rng, io2, m, drop)))
                elif step == "refine":
                    a = random_ia(rng, io1, n)
                    b = _without_some_outputs(rng, a) if j % 2 else random_ia(rng, io1, n)
                    pool.append((step, b, a, bool(j % 2)))
                elif step == "quotient":
                    # The part's outputs lie inside the specification's.
                    part_outputs = frozenset(s for s in alphabet.symbols if s in io1.outputs and rng.random() < 0.6)
                    part_io = IoSignature(alphabet, frozenset(alphabet.symbols) - part_outputs)
                    pool.append((step, random_ia(rng, io1, n, DROP), random_ia(rng, part_io, m, DROP)))
                elif step == "receptive":
                    pool.append((step, random_ia(rng, io1, n), random_ia(rng, io1, m)))
                else:
                    pool.append(
                        (step, random_ia(rng, io1, n), random_ia(rng, io1, m), random_ia(rng, io1, m, outputs_enabled=True))
                    )
        rng.shuffle(pool)
        return pool[:limit]

    def prepare(self, spec: tuple) -> tuple:
        return spec[1:]

    def _contract(self, a, call):
        s = call("automata.language", automata.language, a)
        return call("contracts.from_s", contracts.from_s, s, a.io)

    def execute(self, spec: tuple, args: tuple, call):
        step = spec[0]
        if step == "compose":
            a1, a2 = args
            c1, c2 = self._contract(a1, call), self._contract(a2, call)
            composed = call("contracts.compose", contracts.compose, c1, c2)
            ia, pruned = call("automata.compose", automata.compose_detailed, a1, a2)
            return composed, ia, pruned
        if step == "refine":
            b, a, _derived = args
            by_ia = call("automata.refines", automata.refines, b, a)
            cb = call("automata.to_contract", automata.to_contract, b)
            ca = call("automata.to_contract", automata.to_contract, a)
            return by_ia, call("contracts.refines", contracts.refines, cb, ca)
        if step == "quotient":
            spec_c, part = self._contract(args[0], call), self._contract(args[1], call)
            q = call("contracts.quotient", contracts.quotient, spec_c, part)
            if isinstance(q, Incompatible):
                return q, None
            return q, call("contracts.mirror", contracts.mirror, q)
        if step == "receptive":
            c1, c2 = self._contract(args[0], call), self._contract(args[1], call)
            io = c1.io
            m1 = call("receptive.construct", ReceptiveLanguage, c1.m, io)
            m2 = call("receptive.construct", ReceptiveLanguage, c2.m, io)
            e2 = call("receptive.construct", ReceptiveLanguage, c2.e, io.swapped())
            meet = call("receptive.lattice", receptive.meet, m1, m2)
            join = call("receptive.lattice", receptive.join, m1, m2)
            exp = call("receptive.exponential", receptive.exponential, m1, m2)
            # (M1 × E2) / E2 is always defined: E2 ∩ I* ⊆ I* ⊆ M1.
            system = call("receptive.lattice", receptive.compose, m1, e2)
            q = call("receptive.quotient", receptive.quotient, system, e2)
            return meet, join, exp, system, q
        c = self._contract(args[0], call)
        impl = call("automata.language", automata.language, args[1])
        env = call("automata.language", automata.language, args[2])
        return (
            call("contracts.validate", contracts.is_implementation, c, impl),
            call("contracts.validate", contracts.is_environment, c, env),
        )

    def outcome_ok(self, spec: tuple, result) -> bool:
        step = spec[0]
        if step == "compose":
            # Incompatible is an answer, but both views must give the same one.
            return isinstance(result[0], Incompatible) == isinstance(result[1], Incompatible)
        if step == "refine":
            # Alternating simulation agrees with contract refinement, and a
            # copy with fewer outputs always refines.
            return result[0] == result[1] and (result[0] or not spec[3])
        return True

    def encode(self, spec: tuple, result) -> bytes:
        parts = []
        for value in result:
            if isinstance(value, bool):
                parts.append("true\n" if value else "false\n")
            elif value is None:
                parts.append("none\n")
            elif isinstance(value, Incompatible):
                parts.append("incompatible\n")
            elif isinstance(value, contracts.InterfaceHypercontract):
                parts.append(jsonio.dumps(jsonio.contract_doc(value)))
            elif isinstance(value, automata.InterfaceAutomaton):
                parts.append(jsonio.dumps(jsonio.ia_doc(value)))
            elif isinstance(value, ReceptiveLanguage):
                parts.append(jsonio.dumps(jsonio.receptive_doc(value)))
            else:  # pruned product states
                parts.append(jsonio.dumps({"pruned_states": list(value)}))
        return "".join(parts).encode()

    def spot_check(self, spec: tuple, result, rng, call) -> list[str]:
        step = spec[0]
        if step == "compose":
            composed, ia, _pruned = result
            if isinstance(ia, Incompatible) or isinstance(composed, Incompatible):
                return []  # a disagreement is already a failed outcome
            mapped = automata.to_contract(ia)
            if (mapped.s, mapped.e, mapped.m, mapped.io) != (composed.s, composed.e, composed.m, composed.io):
                return ["IA composition does not map onto the contract composition"]
            return []
        if step == "quotient":
            q = result[0]
            if isinstance(q, Incompatible):
                return []
            spec_c = automata.to_contract(spec[1])
            part = automata.to_contract(spec[2])
            back = contracts.compose(q, part)
            if not isinstance(back, Incompatible) and not contracts.refines(back, spec_c):
                return ["(C / C') ∥ C' does not refine C"]
            return []
        if step == "receptive":
            meet, join, exp, system, q = result
            m1 = ReceptiveLanguage(automata.to_contract(spec[1]).m, spec[1].io)
            m2 = ReceptiveLanguage(automata.to_contract(spec[2]).m, spec[1].io)
            e2 = ReceptiveLanguage(automata.to_contract(spec[2]).e, spec[1].io.swapped())
            found = []
            if meet.lang != m1.lang.intersect(m2.lang) or join.lang != m1.lang.union(m2.lang):
                found.append("meet/join differ from intersection/union")
            if exp.lang != receptive.exponential_definitional(m1, m2):
                found.append("exponential differs from its definitional form")
            if not lang.is_subset(receptive.compose(q, e2).lang, system.lang):
                found.append("(L/L') × L' ⊄ L")
            if not lang.is_subset(m1.lang, q.lang):
                found.append("M1 × E2 ⊆ M1 × E2 but M1 ⊄ (M1 × E2) / E2 (adjunction)")
            return found
        if step == "validate":
            c = automata.to_contract(spec[1])
            if not (contracts.is_implementation(c, c.m) and contracts.is_environment(c, c.e)):
                return ["M_S / E_S are not an implementation / environment of their own contract"]
        return []

    def counters(self, pool: list, results: list) -> dict[str, float]:
        composed = incompatible = product = pruned = 0
        for spec, result in zip(pool, results):
            if spec[0] in ("compose", "quotient") and result is not None:
                composed += 1
                incompatible += isinstance(result[0], Incompatible)
            if spec[0] == "compose":
                product += _product_states(spec[1], spec[2])
                pruned += len(result[2]) if result is not None else 0
        return {
            "contracts.incompatible_share": incompatible / composed if composed else 0.0,
            "automata.product_states": product,
            "automata.pruned_states": pruned,
        }
