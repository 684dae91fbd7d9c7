"""Command-line front-end: every algebra operation on JSON documents.

Output is canonical and diff-stable.  Predicates print true/false and exit
0/1; incompatibility is a computed answer (printed as "incompatible", exit
0); violated preconditions and malformed documents exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial, reduce
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

from . import jsonio
from .errors import HypercError


def _lib(path: str):
    """The library object at `path` ("module.name...", below hyperc), importing
    its module on first use: a call loads only the modules its verb needs."""
    module, *names = path.split(".")
    return reduce(getattr, names, import_module(f"{__package__}.{module}"))


def _symbols(arg: str | None) -> list[str]:
    return [s for s in (arg or "").split(",") if s]


def _load(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise HypercError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise HypercError(f"{path}: not UTF-8 ({err})") from None
    except (ValueError, RecursionError) as err:  # JSONDecodeError, too many digits, too deep
        raise HypercError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise HypercError(f"{path}: document must be a JSON object")
    return doc


#: Document kinds (L language, R receptive, C contract, A interface automaton, B behavioral
#: bundle): the parser, and the canonical document whose sha256 the json echo carries (a
#: bundle is hashed as read).  A verb's "?" documents are R if all carry "inputs", else L.
_KINDS: dict[str, tuple[Callable, Callable | None]] = {
    "L": (jsonio.parse_language, jsonio.language_doc),
    "R": (jsonio.parse_receptive, jsonio.receptive_doc),
    "C": (jsonio.parse_contract, partial(jsonio.contract_doc, derived=False)),
    "A": (lambda raw, _auto_trap: jsonio.parse_ia(raw), jsonio.ia_doc),
    "B": (lambda raw, _auto_trap: jsonio.parse_behavioral(raw), None),
}


class _Outcome(NamedTuple):
    """A rendered result: the json `result`, the text output and the exit code."""

    result: object
    text: str
    code: int = 0


_VALID = _Outcome({"valid": True}, "valid\n")

#: The canonical document of a library value, by the name of its class (no value class is imported).
_DOCUMENTS: dict[str, Callable[..., dict]] = {
    "RegularLanguage": jsonio.language_doc,
    "ReceptiveLanguage": jsonio.receptive_doc,
    "InterfaceHypercontract": jsonio.contract_doc,
    "InterfaceAutomaton": jsonio.ia_doc,
    "BehavioralHypercontract": jsonio.behavioral_contract_doc,
    "AgContract": jsonio.ag_contract_doc,
    "ConicCompset": lambda h: {"universe": h.universe.behaviors, "maximals": jsonio.compset_doc(h)},
    "Component": lambda c: {"universe": c.universe.behaviors, "behaviors": c.behaviors()},
    "ConvexityReport": lambda r: {"convex": r.convex, "coconvex": r.coconvex, "flat": r.flat},
}


def _outcome(result) -> _Outcome:
    """Render a handler's result: a bool is a predicate (exit 0/1), a value
    its canonical document, and a document marked `"compatible": false` prints
    as "incompatible" (exit 0)."""
    if isinstance(result, _Outcome):
        return result
    if isinstance(result, bool):
        return _Outcome(result, "true\n" if result else "false\n", 0 if result else 1)
    doc = result if isinstance(result, dict) else _DOCUMENTS[type(result).__name__](result)
    return _Outcome(doc, "incompatible\n" if doc.get("compatible") is False else jsonio.dumps(doc))


def _composition(result, pruned: tuple[str, ...] | None = None) -> dict:
    """A composition's document marked compatible, or `{"compatible": false}`;
    an interface-automaton composition also lists its pruned states."""
    compatible = not isinstance(result, _lib("contracts.Incompatible"))
    doc = {**(_DOCUMENTS[type(result).__name__](result) if compatible else {}), "compatible": compatible}
    return doc if pruned is None else {**doc, "pruned_states": list(pruned)}


def _enumerate(value, max_len: int) -> _Outcome:
    lang = _lib("lang")
    words = lang.enumerate_words(value, max_len)
    return _Outcome({"words": [list(w) for w in words]}, "".join(lang.word_str(w) + "\n" for w in words))


def _iface_validate(c, environment, implementation):
    contracts = _lib("contracts")
    if environment is not None:
        return contracts.is_environment(c, environment)
    return _VALID if implementation is None else contracts.is_implementation(c, implementation)


def _oracle(kind: str, seed: int, cases: int, max_len: int, max_states: int) -> _Outcome:
    oracle = _lib("oracle")
    cfg = oracle.BoundedCheckConfig(max_len, seed, cases, max_states)
    reports = oracle.run_all(cfg) if kind == "all" else [oracle.run_check(kind, cfg)]
    text = "".join(line + "\n" for r in reports for line in r.lines())
    return _Outcome({"reports": [r.to_dict() for r in reports]}, text, 0 if all(r.ok for r in reports) else 1)


class _Named(NamedTuple):
    """A NAME argument resolved in the behavioral bundle."""

    name: str
    kind: str  # contract, compset, component or ag
    value: object


def _resolve(doc: jsonio.BehavioralDocument, name: str) -> _Named:
    tables = {"contract": doc.contracts, "compset": doc.compsets, "component": doc.components, "ag": doc.ag}
    hits = [_Named(name, kind, table[name]) for kind, table in tables.items() if name in table]
    if not hits:
        raise HypercError(f"unknown name {name!r} in behavioral document")
    if len(hits) > 1:
        raise HypercError(f"ambiguous name {name!r} ({', '.join(hit.kind for hit in hits)})")
    return hits[0]


def _expect(named: _Named, kind: str, label: str):
    if named.kind != kind:
        raise HypercError(f"{named.name!r} is a {named.kind}, not {label}")
    return named.value


def _as_contract(named: _Named):
    if named.kind == "ag":
        return _lib("behavioral.ag_to_contract")(named.value)
    return _expect(named, "contract", "a contract")


def _general(op: Callable, *operands):
    """A contract operation run on the general (explicit) form of conic contracts, brought back to conic form."""
    contract = _lib("behavioral.BehavioralHypercontract")
    result = op(*(contract(c.env.to_general(), c.impl.to_general()) for c in operands))
    return contract(result.env.to_conic(), result.impl.to_conic())


def _beh_lattice(op: str, a: _Named, b: _Named, general: bool):
    """compose, quotient, meet or join of two compsets or two contracts; the
    quotient of two components is the implication quotient."""
    behavioral = _lib("behavioral")
    if op == "quotient" and a.kind == b.kind == "component":
        return behavioral.component_quotient(a.value, b.value)
    if a.kind == b.kind == "compset":
        if general:
            return getattr(a.value.to_general(), op)(b.value.to_general()).to_conic()
        return getattr(a.value, op)(b.value)
    ca, cb = _as_contract(a), _as_contract(b)
    if general and op == "quotient":
        raise HypercError("general mode does not expose a contract quotient")
    contract_op = getattr(behavioral, f"contract_{op}")
    return _general(contract_op, ca, cb) if general else contract_op(ca, cb)


def _beh_pair(kind: str, same_op: str, contract_op: str | None, a: _Named, b: _Named):
    """`same_op` on two values of `kind`, else `contract_op` on both names read as contracts."""
    if a.kind == b.kind == kind:
        return _lib(same_op)(a.value, b.value)
    if contract_op is None:
        raise HypercError("ag-compose expects two assume-guarantee contract names")
    return _lib(contract_op)(_as_contract(a), _as_contract(b))


def _beh_saturated(named: _Named) -> bool:
    c = _as_contract(named)
    return _lib("behavioral.is_saturated")(c.env, c.env.compose(c.impl))


# -- the verb table -------------------------------------------------------------------------


class Flag(NamedTuple):
    """One option of a verb, passed to its handler by keyword."""

    option: str
    kwargs: dict  # for add_argument
    echo: bool = True  # carried by the json echo
    doc: str = ""  # the kind of document the value names, read and recorded like a positional one
    nonnegative: bool = False  # a negative value is refused before any document is read

    @property
    def dest(self) -> str:
        return self.option.lstrip("-").replace("-", "_")


class Verb(NamedTuple):
    """One `group verb` subcommand.  The handler is called with the parsed
    positional documents (for a bundle, the NAME arguments resolved in it) and
    each flag by keyword; it returns a bool, a value, a document or an `_Outcome`.
    Without one, the verb runs its first operation, or on "?" documents read as
    receptive its second."""

    operations: tuple[str, ...]  # the library operations it exposes
    docs: str  # the kind of each positional document
    handler: Callable | None = None
    flags: tuple[Flag, ...] = ()
    names: int = 0  # NAME arguments after a behavioral bundle
    exclusive: bool = False  # its flags are mutually exclusive


_GAMMA = Flag("--gamma", {"required": True})
_GENERAL = (Flag("--general", {"action": "store_true", "help": "use the general-mode engine"}),)
_ORACLE_FLAGS = (
    Flag("--seed", {"type": int, "default": 0}),
    Flag("--cases", {"type": int, "default": 200}),
    Flag("--max-len", {"type": int, "default": 6}),
    Flag("--max-states", {"type": int, "default": 5}, echo=False),
)


def _beh_lattice_verb(op: str) -> Verb:
    owners = ("ConicCompset.", "contract_", "GeneralCompset.")
    operations = ("behavioral.component_quotient",) * (op == "quotient")
    operations += tuple(f"behavioral.{owner}{op}" for owner in owners)
    return Verb(operations, "B", partial(_beh_lattice, op), _GENERAL, 2)


#: Every subcommand, in the order `--help` lists them.  Each library
#: operation appears under exactly one verb.
VERBS: dict[str, Verb] = {
    "lang union": Verb(("lang.RegularLanguage.union", "receptive.join"), "??"),
    "lang intersect": Verb(("lang.RegularLanguage.intersect", "receptive.meet"), "??"),
    "lang difference": Verb(("lang.RegularLanguage.difference",), "LL"),
    "lang complement": Verb(("lang.RegularLanguage.complement",), "L"),
    "lang concat-star": Verb(("lang.concat_sigma_star",), "L"),
    "lang prefix-closure": Verb(("lang.prefix_closure",), "L"),
    "lang canon": Verb(("lang.canonicalize",), "?", lambda a: a),
    "lang refines": Verb(("lang.is_subset",), "LL"),
    "lang validate": Verb(("lang.is_prefix_closed", "lang.is_receptive"), "R", lambda a: _VALID),
    "lang compose": Verb(("receptive.compose",), "RR"),
    "lang quotient": Verb(("receptive.quotient",), "RR"),
    "lang concat-class": Verb(
        ("lang.concat_symbol_class",), "L",
        lambda a, gamma: _lib("lang.concat_symbol_class")(a, _symbols(gamma)),
        (Flag("--gamma", {"required": True, "help": "comma-separated symbol class"}),),
    ),
    "lang enumerate": Verb(
        ("lang.enumerate_words",), "L", _enumerate,
        (Flag("--max-len", {"type": int, "default": 4}, nonnegative=True),),
    ),
    "lang embed": Verb(
        ("receptive.embed",), "R", lambda a, inputs: _lib("receptive.embed")(a, _symbols(inputs)),
        (Flag("--inputs", {"required": True, "help": "comma-separated new input set"}),),
    ),
    "lang missext": Verb(
        ("receptive.miss_ext",), "LL",
        lambda a, b, gamma: _lib("receptive.miss_ext")(a, b, _symbols(gamma)),
        (_GAMMA,),
    ),
    "lang unc": Verb(
        ("receptive.unc",), "LL",
        lambda a, b, gamma, delta: _lib("receptive.unc")(a, b, _symbols(gamma), _symbols(delta)),
        (_GAMMA, Flag("--delta", {"default": ""})),
    ),
    "lang exponential": Verb(
        ("receptive.exponential", "receptive.exponential_definitional"), "RR",
        lambda a, b, definitional: _lib(
            "receptive.exponential_definitional" if definitional else "receptive.exponential"
        )(a, b),
        (Flag("--definitional", {"action": "store_true"}),),
    ),
    "iface from-s": Verb(("contracts.from_s",), "C", lambda c: c),
    "iface compose": Verb(
        ("contracts.compose",), "CC", lambda *cs: _composition(_lib("contracts.compose")(*cs))
    ),
    "iface quotient": Verb(
        ("contracts.quotient",), "CC", lambda *cs: _composition(_lib("contracts.quotient")(*cs))
    ),
    "iface mirror": Verb(("contracts.mirror",), "C"),
    "iface refines": Verb(("contracts.refines",), "CC"),
    "iface validate": Verb(
        ("contracts.is_environment", "contracts.is_implementation"), "C", _iface_validate,
        tuple(
            Flag(option, {"metavar": "LANG_DOC"}, echo=False, doc="L")
            for option in ("--environment", "--implementation")
        ),
        exclusive=True,
    ),
    "ia compose": Verb(
        ("automata.compose",), "AA", lambda *a: _composition(*_lib("automata.compose_detailed")(*a))
    ),
    "ia refines": Verb(("automata.refines",), "AA"),
    "ia language": Verb(("automata.language",), "A"),
    "ia to-contract": Verb(("automata.to_contract",), "A"),
    **{f"beh {op}": _beh_lattice_verb(op) for op in ("compose", "quotient", "meet", "join")},
    "beh refines": Verb(
        ("behavioral.ConicCompset.leq", "behavioral.contract_refines"), "B",
        partial(_beh_pair, "compset", "behavioral.ConicCompset.leq", "behavioral.contract_refines"), names=2,
    ),
    "beh merge-weak": Verb(
        ("behavioral.ag_merge_weak",), "B",
        partial(_beh_pair, "ag", "behavioral.ag_merge_weak", "behavioral.contract_meet"), names=2,
    ),
    # The strong merge on raw hypercontracts has no closed form;
    # strong_merge_general runs on either representation, here the conic one.
    "beh merge-strong": Verb(
        ("behavioral.ag_merge_strong", "behavioral.strong_merge_general"), "B",
        partial(_beh_pair, "ag", "behavioral.ag_merge_strong", "behavioral.strong_merge_general"), names=2,
    ),
    "beh ag-compose": Verb(
        ("behavioral.ag_compose",), "B", partial(_beh_pair, "ag", "behavioral.ag_compose", None), names=2
    ),
    "beh normalize": Verb(
        ("behavioral.ConicCompset.from_components",), "B", lambda h: _expect(h, "compset", "a compset"),
        names=1,
    ),
    "beh saturated": Verb(("behavioral.is_saturated",), "B", _beh_saturated, names=1),
    "beh convexity": Verb(
        ("behavioral.convexity",), "B",
        lambda h: _lib("behavioral.convexity")(_expect(h, "compset", "a compset")), names=1,
    ),
    "beh ag-contract": Verb(
        ("behavioral.ag_to_contract",), "B",
        lambda ag: _lib("behavioral.ag_to_contract")(_expect(ag, "ag", "an assume-guarantee contract")),
        names=1,
    ),
    **{
        f"oracle {kind}": Verb(tuple(f"oracle.{fn}" for fn in fns), "", partial(_oracle, kind), _ORACLE_FLAGS)
        for kind, *fns in (
            ("all",), ("missext", "check_missext_definition"), ("unc", "check_unc_definition"),
            ("exponential", "sweep_exponential"), ("receptive-quotient", "sweep_receptive_quotient"),
            ("interface-compose", "sweep_interface_compose"), ("ia-equivalence", "sweep_ia_equivalence"),
            ("conic-quotient", "sweep_conic_quotient"), ("conic-ops", "sweep_conic_ops"),
        )
    },
}

_GROUPS = {
    "lang": "regular/receptive language algebra",
    "iface": "interface hypercontracts",
    "ia": "interface automata",
    "beh": "behavioral hypercontracts",
    "oracle": "brute-force definitional checks",
}


class Command:
    """One parsed invocation: reads and records its documents, calls the
    verb's handler and renders the result."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.name = f"{args.group} {args.verb}"
        self.verb = VERBS[self.name]
        self.inputs: list[tuple[str, Callable[[], dict]]] = []  # path, and the document its hash is of

    def read(self, kind: str, path: str, raw: dict | None = None):
        """Parse the document at `path` as `kind` and record it for the json echo."""
        raw = _load(path) if raw is None else raw
        parse, canonical = _KINDS[kind]
        value = parse(raw, self.args.auto_trap)
        self.inputs.append((path, (lambda: raw) if canonical is None else partial(canonical, value)))
        return value

    def run(self) -> tuple[str, int]:
        verb, args = self.verb, self.args
        flags = {flag.dest: getattr(args, flag.dest) for flag in verb.flags}
        for flag in verb.flags:
            if flag.nonnegative and flags[flag.dest] < 0:
                raise HypercError(f"{flag.option} must be nonnegative, got {flags[flag.dest]}")
        kinds, paths, receptive = verb.docs, getattr(args, "files", []), False
        raws: list[dict | None] = [None] * len(paths)
        if "?" in kinds:
            raws = [_load(path) for path in paths]
            receptive = all("inputs" in raw for raw in raws)
            kinds = "LR"[receptive] * len(paths)
        values = [self.read(kind, path, raw) for kind, path, raw in zip(kinds, paths, raws)]
        if verb.names:  # the handler takes the names resolved in the behavioral bundle
            values = [_resolve(values[0], name) for name in args.names]
        for flag in verb.flags:
            if flag.doc:
                flags[flag.dest] = self.read(flag.doc, flags[flag.dest]) if flags[flag.dest] else None
        handler = verb.handler or _lib(verb.operations[receptive])
        result = _outcome(handler(*values, **flags))
        if args.format == "json":
            return self._wrap(result.result), result.code
        return result.text, result.code

    def _wrap(self, result) -> str:
        inputs = [{"path": path, "sha256": jsonio.doc_hash(hashed())} for path, hashed in self.inputs]
        echo = {"name": self.name, "inputs": inputs}
        keys = ["names"] * bool(self.verb.names) + [f.dest for f in self.verb.flags if f.echo]
        extra = {k: v for k in sorted(keys) if (v := getattr(self.args, k)) is not None and v is not False}
        if extra:
            echo["args"] = extra
        return jsonio.dumps({"operation": echo, "result": result})


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """Every group parser, but the verb parsers only of the groups named in
    `argv` (of all groups if it is None): argparse enters no other group, so
    no usage, help or error text depends on the ones left out."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="write the result to this file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--auto-trap", action=argparse.BooleanOptionalAction, default=True,
        help="complete partial DFAs with a rejecting sink on ingestion",
    )

    parser = argparse.ArgumentParser(prog="hyperc", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    verbs = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="verb", required=True)
        for group, text in _GROUPS.items()
    }
    for key, verb in VERBS.items():
        group, name = key.split()
        if argv is not None and group not in argv:
            continue
        sp = verbs[group].add_parser(name, parents=[common])
        if verb.docs:
            sp.add_argument("files", nargs=len(verb.docs), metavar="DOC")
        if verb.names:
            sp.add_argument("names", nargs=verb.names, metavar="NAME")
        options = sp.add_mutually_exclusive_group() if verb.exclusive else sp
        for flag in verb.flags:
            options.add_argument(flag.option, **flag.kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        payload, code = Command(args).run()
        if args.output:
            try:
                Path(args.output).write_text(payload, encoding="utf-8")
            except OSError as err:
                raise HypercError(f"cannot write {args.output}: {err}") from None
        else:
            sys.stdout.write(payload)
    except HypercError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
