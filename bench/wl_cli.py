"""cli-verify: one ``python -m hyperc`` process per op.

The benchmark writes seeded documents (small-to-medium languages, receptive
languages, contracts, interface automata and a behavioral bundle) and runs
each template below under ``--format text`` and ``--format json``, plus every
``oracle <kind>`` verb at a fixed seed.  An op's latency is the whole
process: interpreter start, import, parsing, the algebra and the canonical
output.  The gate recomputes every output in-process and requires the CLI's
bytes to match ``jsonio.dumps`` of the in-process result.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hyperc import automata, behavioral, contracts, jsonio, lang, oracle, receptive
from hyperc.contracts import Incompatible
from hyperc.lang import Alphabet, IoSignature

import gen
from wl_iface import complementary_signatures, random_ia

ORACLE_SEED = 7
ORACLE_ARGS = ("--seed", str(ORACLE_SEED), "--cases", "6", "--max-len", "5")
CALL_TIMEOUT_S = 60
STARTUP_LAUNCHES = 5
FORMATS = ("text", "json")

_PARSERS = {
    "L": jsonio.parse_language,
    "R": jsonio.parse_receptive,
    "C": jsonio.parse_contract,
    "A": jsonio.parse_ia,
}
_CANONICAL = {
    "L": jsonio.language_doc,
    "R": jsonio.receptive_doc,
    "C": lambda c: jsonio.contract_doc(c, derived=False),
    "A": jsonio.ia_doc,
}


def _compset(h):
    return ("doc", {"universe": list(h.universe.behaviors), "maximals": jsonio.compset_doc(h)})


def _contract_result(c):
    if isinstance(c, Incompatible):
        return ("incompatible", None)
    doc = jsonio.contract_doc(c)
    doc["compatible"] = True
    return ("doc", doc)


def _ia_compose(a1, a2):
    result, pruned = automata.compose_detailed(a1, a2)
    if isinstance(result, Incompatible):
        return ("incompatible", {"pruned_states": list(pruned)})
    doc = jsonio.ia_doc(result)
    doc["pruned_states"] = list(pruned)
    doc["compatible"] = True
    return ("doc", doc)


def _saturated(c):
    env = c.env.to_general()
    return ("pred", behavioral.is_saturated(env, env.compose(c.impl.to_general())))


def _convexity(h):
    report = behavioral.convexity(h.to_general())
    return ("doc", {"convex": report.convex, "coconvex": report.coconvex, "flat": report.flat})


# (group, verb, documents, names or flags, in-process expectation).  Document
# names start with their kind: L language, R receptive, C contract, A
# interface automaton, B the behavioral bundle (whose named values follow).
TEMPLATES = (
    ("lang", "union", ("L1", "L2"), (), lambda a, b: ("doc", jsonio.language_doc(a.union(b)))),
    ("lang", "intersect", ("L1", "L2"), (), lambda a, b: ("doc", jsonio.language_doc(a.intersect(b)))),
    ("lang", "difference", ("L2", "L1"), (), lambda a, b: ("doc", jsonio.language_doc(a.difference(b)))),
    ("lang", "complement", ("L1",), (), lambda a: ("doc", jsonio.language_doc(a.complement()))),
    ("lang", "concat-class", ("L1",), ("--gamma", "a"),
     lambda a: ("doc", jsonio.language_doc(lang.concat_symbol_class(a, ["a"])))),
    ("lang", "concat-star", ("L2",), (), lambda a: ("doc", jsonio.language_doc(lang.concat_sigma_star(a)))),
    ("lang", "prefix-closure", ("L1",), (), lambda a: ("doc", jsonio.language_doc(lang.prefix_closure(a)))),
    ("lang", "canon", ("L3",), (), lambda a: ("doc", jsonio.language_doc(a))),
    ("lang", "refines", ("L1", "L2"), (), lambda a, b: ("pred", lang.is_subset(a, b))),
    ("lang", "missext", ("L1", "L2"), ("--gamma", "a,b"),
     lambda a, b: ("doc", jsonio.language_doc(receptive.miss_ext(a, b, ["a", "b"])))),
    ("lang", "unc", ("L1", "L2"), ("--gamma", "a", "--delta", "b"),
     lambda a, b: ("doc", jsonio.language_doc(receptive.unc(a, b, ["a"], ["b"])))),
    ("lang", "exponential", ("R1", "R2"), (),
     lambda a, b: ("doc", jsonio.receptive_doc(receptive.exponential(a, b)))),
    ("lang", "compose", ("R1", "R3"), (), lambda a, b: ("doc", jsonio.receptive_doc(receptive.compose(a, b)))),
    ("iface", "from-s", ("C1",), (), lambda c: ("doc", jsonio.contract_doc(c))),
    ("iface", "compose", ("C1", "C2"), (), lambda a, b: _contract_result(contracts.compose(a, b))),
    ("iface", "quotient", ("C1", "C4"), (), lambda a, b: _contract_result(contracts.quotient(a, b))),
    ("iface", "mirror", ("C2",), (), lambda c: ("doc", jsonio.contract_doc(contracts.mirror(c)))),
    ("iface", "refines", ("C1", "C5"), (), lambda a, b: ("pred", contracts.refines(a, b))),
    ("ia", "compose", ("A1", "A2"), (), _ia_compose),
    ("ia", "refines", ("A3", "A1"), (), lambda a, b: ("pred", automata.refines(a, b))),
    ("ia", "language", ("A2",), (), lambda a: ("doc", jsonio.language_doc(automata.language(a)))),
    ("ia", "to-contract", ("A1",), (), lambda a: ("doc", jsonio.contract_doc(automata.to_contract(a)))),
    ("beh", "compose", ("B",), ("h0", "h1"), lambda d: _compset(d.compsets["h0"].compose(d.compsets["h1"]))),
    ("beh", "quotient", ("B",), ("h1", "h2"), lambda d: _compset(d.compsets["h1"].quotient(d.compsets["h2"]))),
    ("beh", "join", ("B",), ("k0", "k1"),
     lambda d: ("doc", jsonio.behavioral_contract_doc(behavioral.contract_join(d.contracts["k0"], d.contracts["k1"])))),
    ("beh", "refines", ("B",), ("k0", "k1"),
     lambda d: ("pred", behavioral.contract_refines(d.contracts["k0"], d.contracts["k1"]))),
    ("beh", "normalize", ("B",), ("h3",), lambda d: _compset(d.compsets["h3"])),
    ("beh", "convexity", ("B",), ("h2",), lambda d: _convexity(d.compsets["h2"])),
    ("beh", "saturated", ("B",), ("k1",), lambda d: _saturated(d.contracts["k1"])),
    ("beh", "ag-compose", ("B",), ("g0", "g1"),
     lambda d: ("doc", jsonio.ag_contract_doc(behavioral.ag_compose(d.ag["g0"], d.ag["g1"])))),
    ("beh", "merge-strong", ("B",), ("g0", "g1"),
     lambda d: ("doc", jsonio.ag_contract_doc(behavioral.ag_merge_strong(d.ag["g0"], d.ag["g1"])))),
    ("beh", "ag-contract", ("B",), ("g1",),
     lambda d: ("doc", jsonio.behavioral_contract_doc(behavioral.ag_to_contract(d.ag["g1"])))),
) + tuple(("oracle", kind, (), ORACLE_ARGS, None) for kind in oracle.ORACLE_KINDS)

_PREDICATE_VERBS = {("lang", "refines"), ("iface", "refines"), ("ia", "refines"), ("beh", "refines"),
                    ("beh", "saturated")}


def _language_doc_raw(alphabet: Alphabet, raw: gen.Dfa) -> dict:
    names = [f"q{k}" for k in range(len(raw.delta))]
    return {
        "alphabet": list(alphabet.symbols),
        "states": names,
        "initial": names[0],
        "accepting": [names[q] for q in raw.accepting],
        "transitions": [
            [names[q], s, names[t]] for q, row in enumerate(raw.delta) for s, t in zip(alphabet.symbols, row)
        ],
    }


def _behavioral_bundle(rng) -> dict:
    universe = [f"b{i}" for i in range(8)]

    def behaviors():
        return [b for b in universe if rng.random() < 0.5]

    comps = {f"c{i}": behaviors() for i in range(10)}
    names = sorted(comps)

    def compset(k):
        return rng.sample(names, k)

    return {
        "universe": universe,
        "components": comps,
        "compsets": {"h0": compset(3), "h1": compset(3), "h2": compset(2), "h3": compset(6)},
        "contracts": {
            "k0": {"env": compset(2), "impl": compset(2)},
            "k1": {"env": compset(2), "impl": compset(3)},
        },
        "ag": {
            "g0": {"A": rng.choice(names), "G": rng.choice(names)},
            "g1": {"A": rng.choice(names), "G": rng.choice(names)},
        },
    }


class CliVerify:
    name = "cli-verify"
    warmup_ops = 2
    spot_checks = 10**6  # every op
    rss_of_children = True

    def __init__(self, root: str):
        self._root = root
        os.makedirs(os.path.join(root, ".bench_results"), exist_ok=True)
        self._work = tempfile.mkdtemp(prefix="cli-work-", dir=os.path.join(root, ".bench_results"))
        self._env = {k: v for k, v in os.environ.items() if k not in ("HYPERC_MAX_STATES", "PYTHONPATH")}
        self._env["PYTHONPATH"] = os.path.join(root, "src")
        self._expected: dict[tuple, tuple] = {}
        self._sets = 0

    def close(self) -> None:
        shutil.rmtree(self._work, ignore_errors=True)

    # -- generation -----------------------------------------------------------

    def _write_documents(self, rng) -> str:
        folder = os.path.join(self._work, f"set{self._sets}")
        self._sets += 1
        os.makedirs(folder)
        alphabet = Alphabet(gen.SYMBOLS[:3])
        io1, io2 = complementary_signatures(rng, alphabet)
        first_output = next(s for s in alphabet.symbols if s in io1.outputs)
        part_io = IoSignature(alphabet, frozenset(alphabet.symbols) - {first_output})
        docs = {
            "L1": _language_doc_raw(alphabet, gen.dfa(rng, 3, rng.randint(8, 16))),
            "L2": _language_doc_raw(alphabet, gen.dfa(rng, 3, rng.randint(8, 16))),
            "L3": _language_doc_raw(alphabet, gen.inflated_dfa(rng, 3, rng.randint(6, 10), 3)),
            "B": _behavioral_bundle(rng),
        }
        # Receptive languages and contracts are languages of interface automata.
        for name, io, n in (("R1", io1, 10), ("R2", io1, 10), ("R3", io1.swapped(), 10)):
            doc = jsonio.language_doc(automata.language(random_ia(rng, io, rng.randint(n - 4, n))))
            doc["inputs"] = sorted(io.inputs)
            docs[name] = doc
        for name, io in (("C1", io1), ("C2", io2), ("C4", part_io), ("C5", io1)):
            s = automata.language(random_ia(rng, io, rng.randint(6, 12), drop=0.05))
            docs[name] = {"S": jsonio.language_doc(s), "inputs": sorted(io.inputs)}
        docs["A1"] = jsonio.ia_doc(random_ia(rng, io1, rng.randint(6, 12), drop=0.05))
        docs["A2"] = jsonio.ia_doc(random_ia(rng, io2, rng.randint(6, 12), drop=0.05))
        docs["A3"] = jsonio.ia_doc(random_ia(rng, io1, rng.randint(6, 12)))
        for name, doc in docs.items():
            with open(os.path.join(folder, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return folder

    def generate(self, rng, limit: int | None = None) -> list[tuple]:
        folder = self._write_documents(rng)
        pool = []
        for t, (group, verb, docs, extra, _expect) in enumerate(TEMPLATES):
            # Bare file names, run from the documents' folder: the json
            # output echoes the paths, and they must not vary between runs.
            files = tuple(f"{d}.json" for d in docs)
            for fmt in FORMATS:
                pool.append((f"{group}-{verb}", t, fmt, (group, verb, *files, *extra, "--format", fmt), folder))
        rng.shuffle(pool)
        return pool[:limit]

    # -- execution ---------------------------------------------------------------

    def prepare(self, spec: tuple) -> tuple:
        return spec[3:]

    def _run(self, argv: tuple, folder: str) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperc", *argv],
            cwd=folder,
            env=self._env,
            capture_output=True,
            encoding="utf-8",
            timeout=CALL_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def execute(self, spec: tuple, args: tuple, call):
        return call("cli.call", self._run, *args)

    def outcome_ok(self, spec: tuple, result) -> bool:
        group, verb = TEMPLATES[spec[1]][:2]
        allowed = (0, 1) if (group, verb) in _PREDICATE_VERBS else (0,)
        return result[0] in allowed

    def encode(self, spec: tuple, result) -> bytes:
        code, stdout = result
        return f"exit={code}\n{stdout}".encode()

    # -- correctness gate ----------------------------------------------------------

    def _expectation(self, t: int, folder: str, call) -> tuple:
        """In-process (kind, value, input hashes, text) for template t on the
        documents in folder, computed once per run."""
        key = (t, folder)
        if key in self._expected:
            return self._expected[key]
        group, verb, docs, _extra, expect = TEMPLATES[t]
        if group == "oracle":
            cfg = oracle.BoundedCheckConfig(max_word_len=5, random_seed=ORACLE_SEED, num_cases=6)
            report = call(f"oracle.{verb}", oracle.run_check, verb, cfg)
            entry = ("oracle", report, [], "".join(line + "\n" for line in report.lines()))
        else:
            values, hashes = [], []
            for name in docs:
                with open(os.path.join(folder, f"{name}.json"), encoding="utf-8") as fh:
                    raw = json.load(fh)
                if name == "B":
                    value = call("jsonio.parse", jsonio.parse_behavioral, raw)
                    hashes.append(jsonio.doc_hash(raw))
                else:
                    value = call("jsonio.parse", _PARSERS[name[0]], raw)
                    hashes.append(jsonio.doc_hash(_CANONICAL[name[0]](value)))
                values.append(value)
            kind, value = expect(*values)
            if kind == "pred":
                text = "true\n" if value else "false\n"
            elif kind == "incompatible":
                text = "incompatible\n"
            else:
                text = call("jsonio.emit", jsonio.dumps, value)
            entry = (kind, value, hashes, text)
        self._expected[key] = entry
        return entry

    def spot_check(self, spec: tuple, result, rng, call) -> list[str]:
        _name, t, fmt, _argv, folder = spec
        group, verb = TEMPLATES[t][:2]
        code, stdout = result
        kind, value, hashes, text = self._expectation(t, folder, call)
        if kind == "oracle":
            want_code = 0 if value.ok else 1
            payload = {"reports": [value.to_dict()]}
        elif kind == "pred":
            want_code = 0 if value else 1
            payload = value
        elif kind == "incompatible":
            want_code = 0
            payload = {"compatible": False, **(value or {})}
        else:
            want_code = 0
            payload = value
        found = []
        if code != want_code:
            found.append(f"exit code {code}, expected {want_code}")
        if fmt == "text":
            if stdout != text:
                found.append("text output differs from the in-process rendering")
            return found
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return found + ["json output does not parse"]
        if stdout != jsonio.dumps(doc):
            found.append("json output is not in canonical form")
        if doc.get("result") != json.loads(json.dumps(payload)):
            found.append("json result differs from the in-process result")
        operation = doc.get("operation", {})
        if operation.get("name") != f"{group} {verb}":
            found.append("json operation name is wrong")
        if [entry.get("sha256") for entry in operation.get("inputs", [])] != hashes:
            found.append("json input hashes differ from the canonical documents' hashes")
        return found

    def counters(self, pool: list, results: list) -> dict[str, float]:
        startup = []
        for _ in range(STARTUP_LAUNCHES):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import hyperc.cli"], cwd=self._root, env=self._env,
                check=True, timeout=CALL_TIMEOUT_S,
            )
            startup.append((time.perf_counter() - start) * 1e3)
        cases = sum(entry[1].cases for entry in self._expected.values() if entry[0] == "oracle")
        return {
            "cli.startup_ms": statistics.median(startup),
            "oracle.cases": cases,
            "jsonio.bytes_out": sum(len(r[1].encode()) for r in results if r is not None),
        }
