"""Command-line front-end: every algebra operation on JSON documents.

Output is canonical and diff-stable.  Predicates print true/false and exit
0/1; incompatibility is a computed answer (printed as "incompatible", exit
0); violated preconditions and malformed documents exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import automata, behavioral, contracts, jsonio, lang, oracle, receptive
from .contracts import Incompatible
from .errors import HypercError
from .lang import word_str

#: Which library operations each subcommand exposes (the coverage test keys
#: off this table; every public operation appears under exactly one verb).
OPERATIONS: dict[str, tuple[str, ...]] = {
    "lang union": ("lang.RegularLanguage.union", "receptive.join"),
    "lang intersect": ("lang.RegularLanguage.intersect", "receptive.meet"),
    "lang difference": ("lang.RegularLanguage.difference",),
    "lang complement": ("lang.RegularLanguage.complement",),
    "lang concat-class": ("lang.concat_symbol_class",),
    "lang concat-star": ("lang.concat_sigma_star",),
    "lang prefix-closure": ("lang.prefix_closure",),
    "lang canon": ("lang.canonicalize",),
    "lang enumerate": ("lang.enumerate_words",),
    "lang refines": ("lang.is_subset",),
    "lang validate": ("lang.is_prefix_closed", "lang.is_receptive"),
    "lang embed": ("receptive.embed",),
    "lang missext": ("receptive.miss_ext",),
    "lang unc": ("receptive.unc",),
    "lang exponential": ("receptive.exponential", "receptive.exponential_definitional"),
    "lang compose": ("receptive.compose",),
    "lang quotient": ("receptive.quotient",),
    "iface from-s": ("contracts.from_s",),
    "iface compose": ("contracts.compose",),
    "iface quotient": ("contracts.quotient",),
    "iface mirror": ("contracts.mirror",),
    "iface refines": ("contracts.refines",),
    "iface validate": ("contracts.is_environment", "contracts.is_implementation"),
    "ia compose": ("automata.compose",),
    "ia refines": ("automata.refines",),
    "ia language": ("automata.language",),
    "ia to-contract": ("automata.to_contract",),
    "beh compose": (
        "behavioral.ConicCompset.compose",
        "behavioral.contract_compose",
        "behavioral.GeneralCompset.compose",
    ),
    "beh quotient": (
        "behavioral.component_quotient",
        "behavioral.ConicCompset.quotient",
        "behavioral.contract_quotient",
        "behavioral.GeneralCompset.quotient",
    ),
    "beh meet": (
        "behavioral.ConicCompset.meet",
        "behavioral.contract_meet",
        "behavioral.GeneralCompset.meet",
    ),
    "beh join": (
        "behavioral.ConicCompset.join",
        "behavioral.contract_join",
        "behavioral.GeneralCompset.join",
    ),
    "beh refines": ("behavioral.ConicCompset.leq", "behavioral.contract_refines"),
    "beh normalize": ("behavioral.ConicCompset.from_components",),
    "beh saturated": ("behavioral.is_saturated",),
    "beh convexity": ("behavioral.convexity",),
    "beh merge-weak": ("behavioral.ag_merge_weak",),
    "beh merge-strong": ("behavioral.ag_merge_strong", "behavioral.strong_merge_general"),
    "beh ag-compose": ("behavioral.ag_compose",),
    "beh ag-contract": ("behavioral.ag_to_contract",),
    "oracle missext": ("oracle.check_missext_definition",),
    "oracle unc": ("oracle.check_unc_definition",),
    "oracle exponential": ("oracle.sweep_exponential",),
    "oracle receptive-quotient": ("oracle.sweep_receptive_quotient",),
    "oracle interface-compose": ("oracle.sweep_interface_compose",),
    "oracle ia-equivalence": ("oracle.sweep_ia_equivalence",),
    "oracle conic-quotient": ("oracle.sweep_conic_quotient",),
    "oracle conic-ops": ("oracle.sweep_conic_ops",),
}


def _symbols(arg: str | None) -> list[str]:
    if not arg:
        return []
    return [s for s in arg.split(",") if s]


def _load(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise HypercError(f"cannot read {path}: {err}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise HypercError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise HypercError(f"{path}: document must be a JSON object")
    return doc


class Command:
    """Parsed inputs plus rendering helpers shared by the handlers."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.name = f"{args.group} {args.verb}"
        self.inputs: list[dict] = []

    def record_input(self, path: str, canonical_doc: dict) -> None:
        self.inputs.append({"path": path, "sha256": jsonio.doc_hash(canonical_doc)})

    def language(self, path: str) -> lang.RegularLanguage:
        value = jsonio.parse_language(_load(path), self.args.auto_trap)
        self.record_input(path, jsonio.language_doc(value))
        return value

    def receptive(self, path: str) -> receptive.ReceptiveLanguage:
        value = jsonio.parse_receptive(_load(path), self.args.auto_trap)
        self.record_input(path, jsonio.receptive_doc(value))
        return value

    def contract(self, path: str) -> contracts.InterfaceHypercontract:
        value = jsonio.parse_contract(_load(path), self.args.auto_trap)
        self.record_input(path, jsonio.contract_doc(value, derived=False))
        return value

    def ia(self, path: str) -> automata.InterfaceAutomaton:
        value = jsonio.parse_ia(_load(path))
        self.record_input(path, jsonio.ia_doc(value))
        return value

    def behavioral(self, path: str) -> jsonio.BehavioralDocument:
        raw = _load(path)
        value = jsonio.parse_behavioral(raw)
        self.record_input(path, raw)
        return value

    # -- rendering ------------------------------------------------------------

    def _wrap(self, result) -> str:
        echo = {"name": self.name, "inputs": self.inputs}
        extra = {
            k: v
            for k, v in vars(self.args).items()
            if k in ("gamma", "delta", "inputs", "names", "max_len", "seed", "cases", "general", "definitional")
            and v not in (None, False)
        }
        if extra:
            echo["args"] = {k: v for k, v in sorted(extra.items())}
        return jsonio.dumps({"operation": echo, "result": result})

    def doc(self, result: dict) -> tuple[str, int]:
        if self.args.format == "json":
            return self._wrap(result), 0
        return jsonio.dumps(result), 0

    def predicate(self, value: bool) -> tuple[str, int]:
        code = 0 if value else 1
        if self.args.format == "json":
            return self._wrap(bool(value)), code
        return ("true\n" if value else "false\n"), code

    def incompatible(self, extra: dict | None = None) -> tuple[str, int]:
        if self.args.format == "json":
            result = {"compatible": False}
            if extra:
                result.update(extra)
            return self._wrap(result), 0
        return "incompatible\n", 0


# -- lang handlers -----------------------------------------------------------------


def _lang_boolean(cmd: Command, kind: str) -> tuple[str, int]:
    paths = cmd.args.files
    first_raw, second_raw = _load(paths[0]), _load(paths[1])
    if "inputs" in first_raw and "inputs" in second_raw and kind in ("union", "intersect"):
        a = jsonio.parse_receptive(first_raw, cmd.args.auto_trap)
        b = jsonio.parse_receptive(second_raw, cmd.args.auto_trap)
        cmd.record_input(paths[0], jsonio.receptive_doc(a))
        cmd.record_input(paths[1], jsonio.receptive_doc(b))
        out = receptive.join(a, b) if kind == "union" else receptive.meet(a, b)
        return cmd.doc(jsonio.receptive_doc(out))
    a = jsonio.parse_language(first_raw, cmd.args.auto_trap)
    b = jsonio.parse_language(second_raw, cmd.args.auto_trap)
    cmd.record_input(paths[0], jsonio.language_doc(a))
    cmd.record_input(paths[1], jsonio.language_doc(b))
    return cmd.doc(jsonio.language_doc(lang.boolean_op(kind, a, b)))


def run_lang(cmd: Command) -> tuple[str, int]:
    args = cmd.args
    verb = args.verb
    if verb in ("union", "intersect", "difference"):
        return _lang_boolean(cmd, verb)
    if verb == "complement":
        return cmd.doc(jsonio.language_doc(cmd.language(args.files[0]).complement()))
    if verb == "concat-class":
        value = cmd.language(args.files[0])
        return cmd.doc(jsonio.language_doc(lang.concat_symbol_class(value, _symbols(args.gamma))))
    if verb == "concat-star":
        return cmd.doc(jsonio.language_doc(lang.concat_sigma_star(cmd.language(args.files[0]))))
    if verb == "prefix-closure":
        return cmd.doc(jsonio.language_doc(lang.prefix_closure(cmd.language(args.files[0]))))
    if verb == "canon":
        raw = _load(args.files[0])
        if "inputs" in raw:
            value = jsonio.parse_receptive(raw, args.auto_trap)
            cmd.record_input(args.files[0], jsonio.receptive_doc(value))
            return cmd.doc(jsonio.receptive_doc(value))
        return cmd.doc(jsonio.language_doc(cmd.language(args.files[0])))
    if verb == "enumerate":
        if args.max_len < 0:
            raise HypercError(f"--max-len must be nonnegative, got {args.max_len}")
        value = cmd.language(args.files[0])
        words = lang.enumerate_words(value, args.max_len)
        if args.format == "json":
            return cmd.doc({"words": [list(w) for w in words]})
        return "".join(word_str(w) + "\n" for w in words), 0
    if verb == "refines":
        a, b = cmd.language(args.files[0]), cmd.language(args.files[1])
        return cmd.predicate(lang.is_subset(a, b))
    if verb == "validate":
        cmd.receptive(args.files[0])  # raises with a witness when invalid
        if args.format == "json":
            return cmd._wrap({"valid": True}), 0
        return "valid\n", 0
    if verb == "embed":
        value = cmd.receptive(args.files[0])
        return cmd.doc(jsonio.receptive_doc(receptive.embed(value, _symbols(args.inputs))))
    if verb == "missext":
        a, b = cmd.language(args.files[0]), cmd.language(args.files[1])
        return cmd.doc(jsonio.language_doc(receptive.miss_ext(a, b, _symbols(args.gamma))))
    if verb == "unc":
        a, b = cmd.language(args.files[0]), cmd.language(args.files[1])
        return cmd.doc(
            jsonio.language_doc(receptive.unc(a, b, _symbols(args.gamma), _symbols(args.delta)))
        )
    if verb == "exponential":
        a, b = cmd.receptive(args.files[0]), cmd.receptive(args.files[1])
        if args.definitional:
            return cmd.doc(jsonio.language_doc(receptive.exponential_definitional(a, b)))
        return cmd.doc(jsonio.receptive_doc(receptive.exponential(a, b)))
    if verb == "compose":
        a, b = cmd.receptive(args.files[0]), cmd.receptive(args.files[1])
        return cmd.doc(jsonio.receptive_doc(receptive.compose(a, b)))
    if verb == "quotient":
        a, b = cmd.receptive(args.files[0]), cmd.receptive(args.files[1])
        return cmd.doc(jsonio.receptive_doc(receptive.quotient(a, b)))
    raise HypercError(f"unknown lang verb {verb!r}")


# -- iface handlers ------------------------------------------------------------------


def run_iface(cmd: Command) -> tuple[str, int]:
    args = cmd.args
    verb = args.verb
    if verb == "from-s":
        return cmd.doc(jsonio.contract_doc(cmd.contract(args.files[0])))
    if verb == "mirror":
        return cmd.doc(jsonio.contract_doc(contracts.mirror(cmd.contract(args.files[0]))))
    if verb == "refines":
        a, b = cmd.contract(args.files[0]), cmd.contract(args.files[1])
        return cmd.predicate(contracts.refines(a, b))
    if verb in ("compose", "quotient"):
        a, b = cmd.contract(args.files[0]), cmd.contract(args.files[1])
        op = contracts.compose if verb == "compose" else contracts.quotient
        result = op(a, b)
        if isinstance(result, Incompatible):
            return cmd.incompatible()
        doc = jsonio.contract_doc(result)
        doc["compatible"] = True
        return cmd.doc(doc)
    if verb == "validate":
        c = cmd.contract(args.files[0])
        if args.environment:
            return cmd.predicate(contracts.is_environment(c, cmd.language(args.environment)))
        if args.implementation:
            return cmd.predicate(contracts.is_implementation(c, cmd.language(args.implementation)))
        if args.format == "json":
            return cmd._wrap({"valid": True}), 0
        return "valid\n", 0
    raise HypercError(f"unknown iface verb {verb!r}")


# -- ia handlers ----------------------------------------------------------------------


def run_ia(cmd: Command) -> tuple[str, int]:
    args = cmd.args
    verb = args.verb
    if verb == "refines":
        a, b = cmd.ia(args.files[0]), cmd.ia(args.files[1])
        return cmd.predicate(automata.refines(a, b))
    if verb == "language":
        return cmd.doc(jsonio.language_doc(automata.language(cmd.ia(args.files[0]))))
    if verb == "to-contract":
        return cmd.doc(jsonio.contract_doc(automata.to_contract(cmd.ia(args.files[0]))))
    if verb == "compose":
        a, b = cmd.ia(args.files[0]), cmd.ia(args.files[1])
        result, pruned = automata.compose_detailed(a, b)
        if isinstance(result, Incompatible):
            return cmd.incompatible({"pruned_states": list(pruned)})
        doc = jsonio.ia_doc(result)
        doc["pruned_states"] = list(pruned)
        doc["compatible"] = True
        return cmd.doc(doc)
    raise HypercError(f"unknown ia verb {verb!r}")


# -- beh handlers ------------------------------------------------------------------------


def _resolve(doc: jsonio.BehavioralDocument, name: str):
    hits = [
        (kind, table[name])
        for kind, table in (
            ("contract", doc.contracts),
            ("compset", doc.compsets),
            ("component", doc.components),
            ("ag", doc.ag),
        )
        if name in table
    ]
    if not hits:
        raise HypercError(f"unknown name {name!r} in behavioral document")
    if len(hits) > 1:
        raise HypercError(f"ambiguous name {name!r} ({', '.join(k for k, _ in hits)})")
    return hits[0]


def _as_contract(doc: jsonio.BehavioralDocument, name: str) -> behavioral.BehavioralHypercontract:
    kind, value = _resolve(doc, name)
    if kind == "contract":
        return value
    if kind == "ag":
        return behavioral.ag_to_contract(value)
    raise HypercError(f"{name!r} is a {kind}, not a contract")


def _general_pair(c: behavioral.BehavioralHypercontract):
    return c.env.to_general(), c.impl.to_general()


def _contract_from_general(pair) -> behavioral.BehavioralHypercontract:
    env, impl = pair
    return behavioral.BehavioralHypercontract(env.maximals(), impl.maximals())


def run_beh(cmd: Command) -> tuple[str, int]:
    args = cmd.args
    verb = args.verb
    doc = cmd.behavioral(args.file)
    names = args.names

    def compset_result(h: behavioral.ConicCompset) -> tuple[str, int]:
        return cmd.doc({"universe": list(h.universe.behaviors), "maximals": jsonio.compset_doc(h)})

    if verb in ("compose", "quotient", "meet", "join"):
        kinds = [_resolve(doc, n) for n in names]
        if verb == "quotient" and all(k == "component" for k, _ in kinds):
            out = behavioral.component_quotient(kinds[0][1], kinds[1][1])
            return cmd.doc(
                {"universe": list(out.universe.behaviors), "behaviors": jsonio.component_names(out)}
            )
        if all(k == "compset" for k, _ in kinds):
            a, b = kinds[0][1], kinds[1][1]
            if args.general:
                return compset_result(getattr(a.to_general(), verb)(b.to_general()).maximals())
            return compset_result(getattr(a, verb)(b))
        a, b = _as_contract(doc, names[0]), _as_contract(doc, names[1])
        if args.general:
            general_op = {
                "compose": behavioral.general_contract_compose,
                "meet": behavioral.general_contract_meet,
                "join": behavioral.general_contract_join,
            }.get(verb)
            if general_op is None:
                raise HypercError("general mode does not expose a contract quotient")
            pair = general_op(_general_pair(a), _general_pair(b))
            return cmd.doc(
                jsonio.behavioral_contract_doc(_contract_from_general(pair))
            )
        op = getattr(behavioral, f"contract_{verb}")
        return cmd.doc(jsonio.behavioral_contract_doc(op(a, b)))
    if verb == "refines":
        kinds = [_resolve(doc, n) for n in names]
        if all(k == "compset" for k, _ in kinds):
            return cmd.predicate(kinds[0][1].leq(kinds[1][1]))
        a, b = _as_contract(doc, names[0]), _as_contract(doc, names[1])
        return cmd.predicate(behavioral.contract_refines(a, b))
    if verb == "normalize":
        kind, value = _resolve(doc, names[0])
        if kind != "compset":
            raise HypercError(f"{names[0]!r} is a {kind}, not a compset")
        return compset_result(value)
    if verb == "saturated":
        c = _as_contract(doc, names[0])
        env = c.env.to_general()
        closed = env.compose(c.impl.to_general())
        return cmd.predicate(behavioral.is_saturated(env, closed))
    if verb == "convexity":
        kind, value = _resolve(doc, names[0])
        if kind != "compset":
            raise HypercError(f"{names[0]!r} is a {kind}, not a compset")
        report = behavioral.convexity(value.to_general())
        return cmd.doc(
            {"convex": report.convex, "coconvex": report.coconvex, "flat": report.flat}
        )
    if verb in ("ag-compose", "merge-strong"):
        kinds = [_resolve(doc, n) for n in names]
        if all(k == "ag" for k, _ in kinds):
            op = behavioral.ag_compose if verb == "ag-compose" else behavioral.ag_merge_strong
            return cmd.doc(jsonio.ag_contract_doc(op(kinds[0][1], kinds[1][1])))
        if verb == "merge-strong":
            # The strong merge on raw hypercontracts has no closed form; it is
            # evaluated by the general-mode engine on tiny universes.
            a, b = _as_contract(doc, names[0]), _as_contract(doc, names[1])
            pair = behavioral.strong_merge_general(_general_pair(a), _general_pair(b))
            return cmd.doc(
                jsonio.behavioral_contract_doc(_contract_from_general(pair))
            )
        raise HypercError("ag-compose expects two assume-guarantee contract names")
    if verb == "merge-weak":
        kinds = [_resolve(doc, n) for n in names]
        if all(k == "ag" for k, _ in kinds):
            return cmd.doc(
                jsonio.behavioral_contract_doc(
                    behavioral.ag_merge_weak(kinds[0][1], kinds[1][1])
                )
            )
        a, b = _as_contract(doc, names[0]), _as_contract(doc, names[1])
        return cmd.doc(jsonio.behavioral_contract_doc(behavioral.contract_meet(a, b)))
    if verb == "ag-contract":
        kind, value = _resolve(doc, names[0])
        if kind != "ag":
            raise HypercError(f"{names[0]!r} is a {kind}, not an assume-guarantee contract")
        return cmd.doc(jsonio.behavioral_contract_doc(behavioral.ag_to_contract(value)))
    raise HypercError(f"unknown beh verb {verb!r}")


# -- oracle handler -------------------------------------------------------------------------


def run_oracle(cmd: Command) -> tuple[str, int]:
    args = cmd.args
    cfg = oracle.BoundedCheckConfig(
        max_word_len=args.max_len,
        random_seed=args.seed,
        num_cases=args.cases,
        max_states=args.max_states,
    )
    if args.verb == "all":
        reports = oracle.run_all(cfg)
    else:
        reports = [oracle.run_check(args.verb, cfg)]
    code = 0 if all(r.ok for r in reports) else 1
    if args.format == "json":
        return cmd._wrap({"reports": [r.to_dict() for r in reports]}), code
    lines = [line for r in reports for line in r.lines()]
    return "".join(line + "\n" for line in lines), code


# -- parser ----------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="write the result to this file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--auto-trap",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="complete partial DFAs with a rejecting sink on ingestion",
    )

    parser = argparse.ArgumentParser(prog="hyperc", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)

    lang_group = groups.add_parser("lang", help="regular/receptive language algebra")
    lang_sub = lang_group.add_subparsers(dest="verb", required=True)
    for verb, nargs in (
        ("union", 2),
        ("intersect", 2),
        ("difference", 2),
        ("complement", 1),
        ("concat-star", 1),
        ("prefix-closure", 1),
        ("canon", 1),
        ("refines", 2),
        ("validate", 1),
        ("compose", 2),
        ("quotient", 2),
    ):
        sp = lang_sub.add_parser(verb, parents=[common])
        sp.add_argument("files", nargs=nargs, metavar="DOC")
    sp = lang_sub.add_parser("concat-class", parents=[common])
    sp.add_argument("files", nargs=1, metavar="DOC")
    sp.add_argument("--gamma", required=True, help="comma-separated symbol class")
    sp = lang_sub.add_parser("enumerate", parents=[common])
    sp.add_argument("files", nargs=1, metavar="DOC")
    sp.add_argument("--max-len", type=int, default=4)
    sp = lang_sub.add_parser("embed", parents=[common])
    sp.add_argument("files", nargs=1, metavar="DOC")
    sp.add_argument("--inputs", required=True, help="comma-separated new input set")
    sp = lang_sub.add_parser("missext", parents=[common])
    sp.add_argument("files", nargs=2, metavar="DOC")
    sp.add_argument("--gamma", required=True)
    sp = lang_sub.add_parser("unc", parents=[common])
    sp.add_argument("files", nargs=2, metavar="DOC")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--delta", default="")
    sp = lang_sub.add_parser("exponential", parents=[common])
    sp.add_argument("files", nargs=2, metavar="DOC")
    sp.add_argument("--definitional", action="store_true")

    iface_group = groups.add_parser("iface", help="interface hypercontracts")
    iface_sub = iface_group.add_subparsers(dest="verb", required=True)
    for verb, nargs in (("from-s", 1), ("compose", 2), ("quotient", 2), ("mirror", 1), ("refines", 2)):
        sp = iface_sub.add_parser(verb, parents=[common])
        sp.add_argument("files", nargs=nargs, metavar="DOC")
    sp = iface_sub.add_parser("validate", parents=[common])
    sp.add_argument("files", nargs=1, metavar="DOC")
    sp.add_argument("--environment", metavar="LANG_DOC")
    sp.add_argument("--implementation", metavar="LANG_DOC")

    ia_group = groups.add_parser("ia", help="interface automata")
    ia_sub = ia_group.add_subparsers(dest="verb", required=True)
    for verb, nargs in (("compose", 2), ("refines", 2), ("language", 1), ("to-contract", 1)):
        sp = ia_sub.add_parser(verb, parents=[common])
        sp.add_argument("files", nargs=nargs, metavar="DOC")

    beh_group = groups.add_parser("beh", help="behavioral hypercontracts")
    beh_sub = beh_group.add_subparsers(dest="verb", required=True)
    for verb, n_names in (
        ("compose", 2),
        ("quotient", 2),
        ("meet", 2),
        ("join", 2),
        ("refines", 2),
        ("merge-weak", 2),
        ("merge-strong", 2),
        ("ag-compose", 2),
        ("normalize", 1),
        ("saturated", 1),
        ("convexity", 1),
        ("ag-contract", 1),
    ):
        sp = beh_sub.add_parser(verb, parents=[common])
        sp.add_argument("file", metavar="DOC")
        sp.add_argument("names", nargs=n_names, metavar="NAME")
        sp.add_argument("--general", action="store_true", help="use the general-mode engine")

    oracle_group = groups.add_parser("oracle", help="brute-force definitional checks")
    oracle_sub = oracle_group.add_subparsers(dest="verb", required=True)
    for verb in ("all", *oracle.ORACLE_KINDS):
        sp = oracle_sub.add_parser(verb, parents=[common])
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cases", type=int, default=200)
        sp.add_argument("--max-len", type=int, default=6)
        sp.add_argument("--max-states", type=int, default=5)

    return parser


_RUNNERS = {
    "lang": run_lang,
    "iface": run_iface,
    "ia": run_ia,
    "beh": run_beh,
    "oracle": run_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = Command(args)
    try:
        payload, code = _RUNNERS[args.group](cmd)
    except HypercError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
