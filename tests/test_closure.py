"""Operator results stay inside their class.

Operators build their results through trusted constructors that skip the
checks the public constructors run on outside input.  Here every such result
is passed back through the public, validating constructor, so the structural
facts those checks enforced are still verified, once, by the test suite.
"""

from __future__ import annotations

import random

from hyperc import automata, behavioral, contracts, receptive
from hyperc.automata import InterfaceAutomaton
from hyperc.behavioral import (
    AgContract,
    BehavioralHypercontract,
    Component,
    ConicCompset,
    GeneralCompset,
    Universe,
)
from hyperc.contracts import Incompatible, InterfaceHypercontract
from hyperc.lang import (
    IoSignature,
    RegularLanguage,
    concat_sigma_star,
    concat_symbol_class,
    empty_language,
    from_words,
    is_prefix_closed,
    is_receptive,
    prefix_closure,
    sigma_star,
    star_of,
)
from hyperc.oracle import (
    BoundedCheckConfig,
    _compatible_signatures,
    _quotient_operands,
    random_alphabet,
    random_dfa,
    random_ia,
    random_prefix_closed,
    random_receptive,
    random_signature,
)
from hyperc.receptive import ReceptiveLanguage

CASES = 60
MAX_STATES = 4


def random_conic(rng: random.Random, universe: Universe, max_k: int = 3) -> ConicCompset:
    k = rng.randint(0, max_k)
    masks = [rng.randrange(universe.full_mask + 1) for _ in range(k)]
    return ConicCompset.from_components(universe, masks)


def _some(rng: random.Random, symbols) -> frozenset[str]:
    return frozenset(s for s in symbols if rng.random() < 0.5)


def check_language(lang: RegularLanguage) -> None:
    assert type(lang.accepting) is frozenset
    assert type(lang.delta) is tuple and all(type(row) is tuple for row in lang.delta)
    again = RegularLanguage(lang.alphabet, lang.initial, lang.accepting, lang.delta)
    assert again.delta == lang.delta and again.accepting == lang.accepting


def check_conic(h: ConicCompset) -> None:
    assert type(h.maximals) is tuple
    assert ConicCompset(h.universe, h.maximals) == h


def check_general(h: GeneralCompset) -> None:
    assert type(h.members) is frozenset
    assert GeneralCompset(h.universe, h.members) == h


def check_compset(h: ConicCompset | GeneralCompset) -> None:
    (check_conic if type(h) is ConicCompset else check_general)(h)


def check_behavioral(c: BehavioralHypercontract) -> None:
    check_compset(c.env)
    check_compset(c.impl)
    assert BehavioralHypercontract(c.env, c.impl) == c


def check_component(c: Component) -> None:
    assert type(c.mask) is int
    assert Component(c.universe, c.mask) == c


def check_ag(ag: AgContract) -> None:
    check_component(ag.assumptions)
    check_component(ag.guarantees)
    assert AgContract(ag.assumptions, ag.guarantees) == ag


def check_io(io: IoSignature) -> None:
    assert type(io.inputs) is frozenset
    assert IoSignature(io.alphabet, io.inputs) == io


def check_ia(a: InterfaceAutomaton) -> None:
    """The public constructor accepts it, and `make` on its own triples, which
    keeps the states reachable from the initial one in BFS order, rebuilds it."""
    check_io(a.io)
    assert type(a.state_names) is tuple and all(type(name) is str for name in a.state_names)
    assert type(a.trans) is tuple and all(type(row) is tuple for row in a.trans)
    assert InterfaceAutomaton(a.io, a.state_names, a.initial, a.trans) == a
    names, symbols = a.state_names, a.io.alphabet.symbols
    triples = [(names[q], s, names[t]) for q, row in enumerate(a.trans) for s, t in zip(symbols, row) if t is not None]
    assert automata.make(a.io, names, names[a.initial], triples) == a


def check_receptive(r: ReceptiveLanguage) -> None:
    check_language(r.lang)
    assert r.lang.canonical() is r.lang
    assert ReceptiveLanguage(r.lang, r.io) == r


def check_contract(c: InterfaceHypercontract) -> None:
    for lang in (c.s, c.e, c.m):
        check_language(lang)
    again = InterfaceHypercontract(c.s, c.io)
    assert (again.s, again.e, again.m) == (c.s, c.e, c.m)
    assert c.e.intersect(c.m) == c.s
    assert is_receptive(c.e, c.io.outputs) and is_prefix_closed(c.e)
    assert is_receptive(c.m, c.io.inputs) and is_prefix_closed(c.m)


def test_regular_results():
    rng = random.Random(11)
    for _ in range(CASES):
        alphabet = random_alphabet(rng)
        a = random_dfa(rng, alphabet, MAX_STATES)
        b = random_dfa(rng, alphabet, MAX_STATES)
        gamma, delta = _some(rng, alphabet.symbols), _some(rng, alphabet.symbols)
        io = random_signature(rng, alphabet)
        ra = random_receptive(rng, io, MAX_STATES)
        rb = random_receptive(rng, io, MAX_STATES)
        for result in (
            a.canonical(),
            a.complement(),
            a.union(b),
            a.intersect(b),
            a.difference(b),
            concat_symbol_class(a, gamma),
            concat_sigma_star(a),
            prefix_closure(a),
            receptive.miss_ext(a, b, gamma),
            receptive.unc(a, b, gamma, delta),
            receptive.exponential_definitional(ra, rb),
            automata.language(random_ia(rng, io, MAX_STATES)),
            star_of(alphabet, gamma),
            from_words(alphabet, [tuple(gamma), tuple(delta)]),
            empty_language(alphabet),
            sigma_star(alphabet),
        ):
            check_language(result)


def test_receptive_results():
    rng = random.Random(12)
    cfg = BoundedCheckConfig(max_states=MAX_STATES)
    for _ in range(CASES):
        alphabet = random_alphabet(rng)
        io = random_signature(rng, alphabet)
        a = random_receptive(rng, io, MAX_STATES)
        b = random_receptive(rng, io, MAX_STATES)
        io1, io2 = _compatible_signatures(rng, alphabet)
        x = random_receptive(rng, io1, MAX_STATES)
        y = random_receptive(rng, io2, MAX_STATES)
        composite = receptive.compose(x, y)
        assert composite.io == IoSignature(alphabet, io1.inputs & io2.inputs)
        dividend, divisor, io_r = _quotient_operands(rng, cfg)
        q = receptive.quotient(dividend, divisor)
        assert q.io == io_r
        check_io(io_r)
        for result in (
            receptive.bottom(io),
            receptive.top(io),
            receptive.meet(a, b),
            receptive.join(a, b),
            receptive.exponential(a, b),
            receptive.embed(a, _some(rng, [s for s in alphabet.symbols if s in io.inputs])),
            composite,
            q,
        ):
            check_receptive(result)


def test_contract_results():
    rng = random.Random(13)
    checked = 0
    for _ in range(CASES):
        alphabet = random_alphabet(rng)
        io1, io2 = _compatible_signatures(rng, alphabet)
        c1 = contracts.from_s(random_prefix_closed(rng, alphabet, MAX_STATES), io1)
        c2 = contracts.from_s(random_prefix_closed(rng, alphabet, MAX_STATES), io2)
        # A divisor whose outputs lie inside c1's, so the quotient is defined.
        io3 = IoSignature(alphabet, io1.inputs | _some(rng, alphabet.symbols))
        c3 = contracts.from_s(random_prefix_closed(rng, alphabet, MAX_STATES), io3)
        for result in (
            contracts.mirror(c1),
            contracts.compose(c1, c2),
            contracts.quotient(c1, c3),
        ):
            if not isinstance(result, Incompatible):
                check_contract(result)
                checked += 1
    assert checked > 2 * CASES


def test_conic_results():
    rng = random.Random(14)
    universes = [Universe(tuple(f"b{k}" for k in range(n))) for n in (1, 3, 4, 8, 16, 64)]
    contract_ops = (
        behavioral.contract_compose,
        behavioral.contract_quotient,
        behavioral.contract_meet,
        behavioral.contract_join,
    )
    for _ in range(CASES):
        u = rng.choice(universes)
        h, h2 = random_conic(rng, u, 4), random_conic(rng, u, 4)
        c = BehavioralHypercontract(random_conic(rng, u), random_conic(rng, u))
        c2 = BehavioralHypercontract(random_conic(rng, u), random_conic(rng, u))
        ag = AgContract(Component(u, rng.getrandbits(u.size)), Component(u, rng.getrandbits(u.size)))
        bridged = behavioral.ag_to_contract(ag)
        results = [
            h,
            h.compose(h2),
            h.meet(h2),
            h.join(h2),
            h.quotient(h2),
            ConicCompset.from_components(u, [rng.getrandbits(u.size) for _ in range(rng.randint(0, 6))]),
            ConicCompset.empty(u),
            ConicCompset.full(u),
            bridged.env,
            bridged.impl,
        ]
        if u.size <= behavioral.GENERAL_MODE_MAX:
            members = frozenset(rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 6)))
            results.append(GeneralCompset(u, members).to_conic())
        for op in contract_ops:
            result = op(c, c2)
            results += [result.env, result.impl]
        for result in results:
            check_conic(result)


def test_interface_automaton_results():
    rng = random.Random(15)
    composed = 0
    for _ in range(CASES):
        alphabet = random_alphabet(rng)
        a = random_ia(rng, random_signature(rng, alphabet), MAX_STATES)
        check_ia(a)
        io1, io2 = _compatible_signatures(rng, alphabet)
        result, _pruned = automata.compose_detailed(random_ia(rng, io1, MAX_STATES), random_ia(rng, io2, MAX_STATES))
        if not isinstance(result, Incompatible):
            check_ia(result)
            composed += 1
    assert composed > CASES // 4


def test_signature_results():
    rng = random.Random(16)
    for _ in range(CASES):
        alphabet = random_alphabet(rng)
        io = random_signature(rng, alphabet)
        io1, io2 = _compatible_signatures(rng, alphabet)
        wider = IoSignature(alphabet, io.inputs | _some(rng, alphabet.symbols))
        embedded = receptive.embed(random_receptive(rng, io, MAX_STATES), _some(rng, sorted(io.inputs)))
        for result in (
            io.swapped(),
            io1.compose(io2),
            receptive.quotient_signature(io, wider),
            embedded.io,
        ):
            check_io(result)


def test_component_and_ag_results():
    rng = random.Random(17)
    universes = [Universe(tuple(f"b{k}" for k in range(n))) for n in (1, 3, 8, 64)]
    for _ in range(CASES):
        u = rng.choice(universes)
        c, c2 = Component(u, rng.getrandbits(u.size)), Component(u, rng.getrandbits(u.size))
        for result in (c & c2, c | c2, c.complement(), behavioral.component_quotient(c, c2)):
            check_component(result)
        ag = AgContract(c, c2)
        ag2 = AgContract(Component(u, rng.getrandbits(u.size)), c.complement())
        check_ag(behavioral.ag_compose(ag, ag2))
        check_ag(behavioral.ag_merge_strong(ag, ag2))
        for result in (behavioral.ag_to_contract(ag), behavioral.ag_merge_weak(ag, ag2)):
            check_behavioral(result)


def test_general_and_behavioral_results():
    rng = random.Random(18)
    universes = [Universe(tuple(f"b{k}" for k in range(n))) for n in (1, 3, 4)]
    contract_ops = (
        behavioral.contract_compose,
        behavioral.contract_quotient,
        behavioral.contract_meet,
        behavioral.contract_join,
        behavioral.strong_merge_general,
    )
    for _ in range(CASES):
        u = rng.choice(universes)

        def general() -> GeneralCompset:
            return GeneralCompset(u, frozenset(rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 5))))

        h, h2 = general(), general()
        for result in (h.compose(h2), h.meet(h2), h.join(h2), h.quotient(h2), random_conic(rng, u, 4).to_general()):
            check_general(result)
        conic = BehavioralHypercontract(random_conic(rng, u), random_conic(rng, u))
        conic2 = BehavioralHypercontract(random_conic(rng, u), random_conic(rng, u))
        pairs = [(conic, conic2), (conic.to_general(), conic2.to_general())]
        pairs.append((BehavioralHypercontract(general(), general()), BehavioralHypercontract(general(), general())))
        results = [conic.mirror(), conic.to_general(), pairs[2][0].mirror(), pairs[2][0].to_conic()]
        results += [op(c, c2) for c, c2 in pairs for op in contract_ops]
        for result in results:
            check_behavioral(result)
