"""Document ingestion and canonical emission."""

from __future__ import annotations

import pytest

from conftest import lang_of
from hyperc import jsonio
from hyperc.automata import make
from hyperc.behavioral import BehavioralHypercontract, ConicCompset, Universe
from hyperc.errors import AlphabetMismatch, DocumentError, ValidationError
from hyperc.lang import Alphabet, IoSignature


def istar_doc(partial: bool = False) -> dict:
    transitions = [["a", "i", "a"]]
    if not partial:
        transitions += [["a", "o", "b"], ["b", "i", "b"], ["b", "o", "b"]]
    return {
        "alphabet": ["i", "o"],
        "states": ["a", "b"] if not partial else ["a"],
        "initial": "a",
        "accepting": ["a"],
        "transitions": transitions,
    }


class TestLanguageDocs:
    def test_roundtrip(self, ab, istar):
        assert jsonio.parse_language(istar_doc()) == istar
        doc = jsonio.language_doc(istar)
        assert jsonio.parse_language(doc) == istar
        assert doc["states"] == ["s0", "s1"] and doc["initial"] == "s0"

    def test_partial_completed_with_sink(self, istar):
        assert jsonio.parse_language(istar_doc(partial=True)) == istar

    def test_partial_rejected_without_auto_trap(self):
        with pytest.raises(DocumentError, match="partial"):
            jsonio.parse_language(istar_doc(partial=True), auto_trap=False)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["transitions"].append(["a", "z", "a"]), "unknown symbol"),
            (lambda d: d["transitions"].append(["a", "i", "b"]), "nondeterministic"),
            (lambda d: d.update(initial="zz"), "unknown initial"),
            (lambda d: d.update(accepting=["zz"]), "unknown accepting"),
            (lambda d: d.update(states=["a", "a"]), "distinct"),
            (lambda d: d.update(alphabet=[]), "nonempty"),
        ],
    )
    def test_rejections(self, mutate, message):
        doc = istar_doc()
        mutate(doc)
        with pytest.raises(DocumentError, match=message):
            jsonio.parse_language(doc)

    def test_emission_is_byte_stable(self, istar):
        assert jsonio.dumps(jsonio.language_doc(istar)) == jsonio.dumps(
            jsonio.language_doc(istar.intersect(istar))
        )


class TestReceptiveDocs:
    def test_roundtrip(self, ab, istar):
        doc = istar_doc()
        doc["inputs"] = ["i"]
        r = jsonio.parse_receptive(doc)
        assert r.lang == istar and r.io.inputs == frozenset({"i"})
        assert jsonio.receptive_doc(r)["inputs"] == ["i"]

    def test_validation_witness_surfaces(self, ab):
        doc = jsonio.language_doc(lang_of(ab, "", "o"))
        doc["inputs"] = ["i"]
        with pytest.raises(ValidationError, match="not receptive at witness i"):
            jsonio.parse_receptive(doc)

    def test_unknown_input_symbol(self):
        doc = istar_doc()
        doc["inputs"] = ["z"]
        with pytest.raises(DocumentError, match="unknown input symbol"):
            jsonio.parse_receptive(doc)


class TestContractDocs:
    def test_roundtrip_with_derived(self, ab, istar, top):
        doc = {"S": istar_doc(), "inputs": ["i"]}
        c = jsonio.parse_contract(doc)
        out = jsonio.contract_doc(c)
        assert jsonio.parse_language(out["E"]) == top
        assert jsonio.parse_language(out["M"]) == istar
        again = jsonio.parse_contract(out)
        assert again == c


class TestIaDocs:
    def test_roundtrip(self, ab):
        doc = {
            "alphabet": ["i", "o"],
            "inputs": ["i"],
            "states": ["p", "q"],
            "initial": "p",
            "transitions": [["p", "i", "q"]],
        }
        a = jsonio.parse_ia(doc)
        assert a.state_names == ("p", "q")
        out = jsonio.ia_doc(a)
        assert out["transitions"] == [["p", "i", "q"]]

    def test_nondeterminism_rejected(self):
        doc = {
            "alphabet": ["i", "o"],
            "inputs": ["i"],
            "states": ["p", "q"],
            "initial": "p",
            "transitions": [["p", "i", "q"], ["p", "i", "p"]],
        }
        with pytest.raises(DocumentError, match="nondeterministic"):
            jsonio.parse_ia(doc)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (["p", "i", "zz"], "unknown state in transition ['p', 'i', 'zz']"),
            (["zz", "o", "q"], "unknown state in transition ['zz', 'o', 'q']"),
            (["p", "x", "q"], "unknown symbol 'x'"),
            (["p", "i", "p"], "nondeterministic transitions from 'p' on 'i'"),
        ],
    )
    def test_fault_messages(self, entry, message):
        # One reader checks the entries of every transition table, so a
        # language document, an interface-automaton document and `make` name
        # a bad entry alike, as it was given: a list, or a tuple from Python.
        table = {
            "alphabet": ["i", "o"],
            "states": ["p", "q"],
            "initial": "p",
            "transitions": [["p", "i", "q"], entry, ["q", "o", "p"]],
        }
        for parse, doc in [
            (jsonio.parse_language, {**table, "accepting": ["p"]}),
            (jsonio.parse_ia, {**table, "inputs": ["i"]}),
        ]:
            with pytest.raises(DocumentError) as info:
                parse(doc)
            assert str(info.value) == message
        io = IoSignature(Alphabet(("i", "o")), frozenset({"i"}))
        error = AlphabetMismatch if message.startswith("unknown symbol") else ValidationError
        with pytest.raises(error) as info:
            make(io, table["states"], "p", [tuple(t) for t in table["transitions"]])
        assert str(info.value) == message.replace(repr(entry), repr(tuple(entry)))


class TestBehavioralDocs:
    def test_bundle(self):
        raw = {
            "universe": ["0", "1", "2", "3"],
            "components": {"a1": ["0", "1"], "g1": ["0", "2"]},
            "compsets": {"h": ["a1", "g1"]},
            "contracts": {"c": {"env": "h", "impl": ["a1"]}},
            "ag": {"agc": {"A": "a1", "G": "g1"}},
        }
        doc = jsonio.parse_behavioral(raw)
        assert doc.universe == Universe(("0", "1", "2", "3"))
        assert doc.compsets["h"].k == 2
        assert doc.contracts["c"].impl.maximals == (doc.components["a1"].mask,)
        assert doc.ag["agc"].assumptions == doc.components["a1"]

    def test_general_contract_doc_is_its_conic_form(self):
        u = Universe(("0", "1", "2"))
        env, impl = ConicCompset.from_components(u, [0b011, 0b110]), ConicCompset.from_components(u, [0b001])
        general = BehavioralHypercontract(env.to_general(), impl.to_general())
        expected = {"universe": ["0", "1", "2"], "env": [["0", "1"], ["1", "2"]], "impl": [["0"]]}
        assert jsonio.behavioral_contract_doc(general) == expected
        assert jsonio.behavioral_contract_doc(BehavioralHypercontract(env, impl)) == expected
        assert jsonio.compset_doc(general.env) == jsonio.compset_doc(env)

    def test_unknown_component_reference(self):
        raw = {"universe": ["0"], "compsets": {"h": ["nope"]}}
        with pytest.raises(DocumentError, match="unknown component"):
            jsonio.parse_behavioral(raw)

    def test_unknown_behavior(self):
        raw = {"universe": ["0"], "components": {"c": ["1"]}}
        with pytest.raises(DocumentError, match="unknown behavior"):
            jsonio.parse_behavioral(raw)

    def test_document_not_object(self):
        with pytest.raises(DocumentError, match="behavioral document must be a JSON object"):
            jsonio.parse_behavioral(["0", "1"])
