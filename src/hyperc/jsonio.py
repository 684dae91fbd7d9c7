"""JSON document formats for every value kind, with canonical emission.

Emitted documents are fully canonical: automata are minimized and
BFS-renumbered, keys are sorted, and list orders are fixed, so identical
inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .errors import DocumentError, HypercError, LimitExceeded

# Each parser imports the value modules it builds when it runs, so that reading
# one kind of document loads none of the others' modules.
if TYPE_CHECKING:
    from .automata import InterfaceAutomaton
    from .behavioral import AgContract, BehavioralHypercontract, Component, ConicCompset, GeneralCompset, Universe
    from .contracts import InterfaceHypercontract
    from .lang import Alphabet, IoSignature, RegularLanguage
    from .receptive import ReceptiveLanguage


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def doc_hash(doc: dict) -> str:
    import hashlib

    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


def _require(doc: dict, key: str, kind: type, what: str):
    if key not in doc:
        raise DocumentError(f"{what} document lacks {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(f"{what} {key!r} must be a {kind.__name__}")
    return value


def _string_list(doc: dict, key: str, what: str) -> list[str]:
    value = _require(doc, key, list, what)
    if not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{what} {key!r} must list strings")
    return value


# -- languages -----------------------------------------------------------------


def parse_alphabet(doc: dict, what: str = "language") -> Alphabet:
    from .lang import Alphabet

    try:
        return Alphabet(tuple(_string_list(doc, "alphabet", what)))
    except HypercError as err:
        raise DocumentError(str(err)) from None


def _states(doc: dict, what: str) -> tuple[list[str], dict[str, int], str]:
    """The state names of a transition-table document, their positions and its initial state."""
    states = _string_list(doc, "states", what)
    if not states or len(set(states)) != len(states):
        raise DocumentError("states must be a nonempty list of distinct names")
    initial = _require(doc, "initial", str, what)
    pos = {s: k for k, s in enumerate(states)}
    if initial not in pos:
        raise DocumentError(f"unknown initial state {initial!r}")
    return states, pos, initial


def _triples(doc: dict, what: str):
    """The entries of a transition-table document's transitions, each checked
    to be a [state, symbol, state] triple of strings as it is reached."""
    for entry in _require(doc, "transitions", list, what):
        if not (isinstance(entry, list) and len(entry) == 3 and all(isinstance(x, str) for x in entry)):
            raise DocumentError(f"transition {entry!r} must be the triple [state, symbol, state]")
        yield entry


def parse_language(doc: dict, auto_trap: bool = True) -> RegularLanguage:
    """The canonical form of a language document; with auto_trap, a missing
    transition goes to a rejecting sink."""
    from .lang import _ENV_MAX_STATES, _canonicalize, _table_rows, state_cap

    alphabet = parse_alphabet(doc)
    _, pos, initial = _states(doc, "language")
    if len(pos) > (cap := state_cap()):
        raise LimitExceeded("language ingestion", f"{len(pos)} states", cap, _ENV_MAX_STATES)
    accepting = _string_list(doc, "accepting", "language")
    for s in accepting:
        if s not in pos:
            raise DocumentError(f"unknown accepting state {s!r}")
    try:
        rows = _table_rows(alphabet, pos, _triples(doc, "language"))
    except HypercError as err:
        raise DocumentError(str(err)) from None
    if not auto_trap and any(None in row for row in rows):
        raise DocumentError("partial transition function (auto-trap disabled)")
    return _canonicalize(alphabet, pos[initial], {pos[s] for s in accepting}, rows)


def _table_doc(alphabet: Alphabet, names: Sequence[str], initial: int, rows: Sequence[Sequence[int | None]]) -> dict:
    """The transition-table document of rows[state][symbol] over the state
    `names`: one [state, symbol, state] entry per transition that is not None."""
    return {
        "alphabet": list(alphabet.symbols),
        "states": list(names),
        "initial": names[initial],
        "transitions": [
            [names[q], sym, names[t]]
            for q, row in enumerate(rows)
            for sym, t in zip(alphabet.symbols, row)
            if t is not None
        ],
    }


def language_doc(lang: RegularLanguage) -> dict:
    c = lang.canonical()
    names = [f"s{k}" for k in range(c.n_states)]
    return {**_table_doc(c.alphabet, names, c.initial, c.delta), "accepting": [names[q] for q in sorted(c.accepting)]}


def _inputs_of(doc: dict, alphabet: Alphabet, what: str) -> frozenset[str]:
    inputs = _string_list(doc, "inputs", what)
    for s in inputs:
        if s not in alphabet:
            raise DocumentError(f"unknown input symbol {s!r}")
    return frozenset(inputs)


def parse_receptive(doc: dict, auto_trap: bool = True) -> ReceptiveLanguage:
    from .lang import IoSignature
    from .receptive import ReceptiveLanguage

    lang = parse_language(doc, auto_trap)
    io = IoSignature(lang.alphabet, _inputs_of(doc, lang.alphabet, "receptive language"))
    return ReceptiveLanguage(lang, io)


def _sorted_symbols(io: IoSignature, symbols: frozenset[str]) -> list[str]:
    return [s for s in io.alphabet.symbols if s in symbols]


def receptive_doc(r: ReceptiveLanguage) -> dict:
    doc = language_doc(r.lang)
    doc["inputs"] = _sorted_symbols(r.io, r.io.inputs)
    return doc


# -- interface hypercontracts ------------------------------------------------------


def parse_contract(doc: dict, auto_trap: bool = True) -> InterfaceHypercontract:
    from .contracts import InterfaceHypercontract
    from .lang import IoSignature

    s_doc = _require(doc, "S", dict, "contract")
    s = parse_language(s_doc, auto_trap)
    io = IoSignature(s.alphabet, _inputs_of(doc, s.alphabet, "contract"))
    return InterfaceHypercontract(s, io)


def contract_doc(c: InterfaceHypercontract, derived: bool = True) -> dict:
    doc = {
        "S": language_doc(c.s),
        "inputs": _sorted_symbols(c.io, c.io.inputs),
    }
    if derived:
        doc["E"] = language_doc(c.e)
        doc["M"] = language_doc(c.m)
    return doc


# -- interface automata --------------------------------------------------------------


def parse_ia(doc: dict) -> InterfaceAutomaton:
    from .automata import make
    from .lang import IoSignature

    what = "interface automaton"
    alphabet = parse_alphabet(doc, what)
    io = IoSignature(alphabet, _inputs_of(doc, alphabet, what))
    states, _, initial = _states(doc, what)
    try:
        return make(io, states, initial, _triples(doc, what))
    except HypercError as err:  # a size bound keeps its class and attributes
        raise (err if isinstance(err, LimitExceeded) else DocumentError(str(err))) from None


def ia_doc(a: InterfaceAutomaton) -> dict:
    doc = _table_doc(a.io.alphabet, a.state_names, a.initial, a.trans)
    return {**doc, "inputs": _sorted_symbols(a.io, a.io.inputs)}


# -- behavioral bundles -----------------------------------------------------------------


class BehavioralDocument:
    """Named definitions shared by the behavioral subcommands."""

    def __init__(self, universe: Universe):
        self.universe = universe
        self.components: dict[str, Component] = {}
        self.compsets: dict[str, ConicCompset] = {}
        self.contracts: dict[str, BehavioralHypercontract] = {}
        self.ag: dict[str, AgContract] = {}


def _component_from(doc: BehavioralDocument, ref, what: str) -> Component:
    from .behavioral import Component

    if isinstance(ref, str):
        if ref not in doc.components:
            raise DocumentError(f"{what} references unknown component {ref!r}")
        return doc.components[ref]
    if isinstance(ref, list) and all(isinstance(x, str) for x in ref):
        try:
            return Component.from_behaviors(doc.universe, ref)
        except HypercError as err:
            raise DocumentError(f"{what}: {err}") from None
    raise DocumentError(f"{what} must be a component name or a list of behaviors")


def _compset_from(doc: BehavioralDocument, ref, what: str) -> ConicCompset:
    from .behavioral import ConicCompset

    if isinstance(ref, str):
        if ref not in doc.compsets:
            raise DocumentError(f"{what} references unknown compset {ref!r}")
        return doc.compsets[ref]
    if isinstance(ref, list):
        return ConicCompset.from_components(
            doc.universe, [_component_from(doc, entry, what) for entry in ref]
        )
    raise DocumentError(f"{what} must be a compset name or a list of components")


def _section(raw: dict, key: str) -> dict:
    """An optional name-to-entry section of a behavioral document."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise DocumentError(f"behavioral {key!r} must be a JSON object")
    return value


def parse_behavioral(raw: dict) -> BehavioralDocument:
    from .behavioral import AgContract, BehavioralHypercontract, ConicCompset, Universe

    if not isinstance(raw, dict):
        raise DocumentError("behavioral document must be a JSON object")
    try:
        universe = Universe(tuple(_string_list(raw, "universe", "behavioral")))
    except HypercError as err:  # a size bound keeps its class and attributes
        raise (err if isinstance(err, LimitExceeded) else DocumentError(str(err))) from None
    doc = BehavioralDocument(universe)
    for name, behaviors in _section(raw, "components").items():
        doc.components[name] = _component_from(doc, behaviors, f"component {name!r}")
    for name, entries in _section(raw, "compsets").items():
        if not isinstance(entries, list):
            raise DocumentError(f"compset {name!r} must list component names")
        doc.compsets[name] = ConicCompset.from_components(
            doc.universe,
            [_component_from(doc, entry, f"compset {name!r}") for entry in entries],
        )
    for name, pair in _section(raw, "contracts").items():
        if not isinstance(pair, dict):
            raise DocumentError(f"contract {name!r} must map 'env' and 'impl'")
        env = _compset_from(doc, pair.get("env"), f"contract {name!r} env")
        impl = _compset_from(doc, pair.get("impl"), f"contract {name!r} impl")
        doc.contracts[name] = BehavioralHypercontract(env, impl)
    for name, pair in _section(raw, "ag").items():
        if not isinstance(pair, dict):
            raise DocumentError(f"ag contract {name!r} must map 'A' and 'G'")
        doc.ag[name] = AgContract(
            _component_from(doc, pair.get("A"), f"ag contract {name!r} A"),
            _component_from(doc, pair.get("G"), f"ag contract {name!r} G"),
        )
    return doc


def compset_doc(h: ConicCompset | GeneralCompset) -> list[list[str]]:
    """The antichain of maximal components; a general compset gives its conic form's."""
    from .behavioral import GeneralCompset

    if isinstance(h, GeneralCompset):
        h = h.to_conic()
    return [list(h.universe.names_of(m)) for m in h.maximals]


def behavioral_contract_doc(c: BehavioralHypercontract) -> dict:
    return {
        "universe": list(c.universe.behaviors),
        "env": compset_doc(c.env),
        "impl": compset_doc(c.impl),
    }


def ag_contract_doc(ag: AgContract) -> dict:
    return {
        "universe": list(ag.universe.behaviors),
        "A": list(ag.assumptions.behaviors()),
        "G": list(ag.guarantees.behaviors()),
    }
