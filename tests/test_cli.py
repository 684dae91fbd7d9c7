"""CLI behavior: exit codes, canonical output, provenance echo, coverage of
the command table."""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperc.behavioral
import hyperc.contracts
import hyperc.jsonio
import hyperc.lang
import hyperc.oracle
import hyperc.receptive
from hyperc.cli import VERBS, build_parser, main
from test_behavioral import wide_antichain

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def fx(name: str) -> str:
    return str(DATA / name)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredicates:
    def test_lang_refines_true(self, capsys):
        code, out, _ = run(capsys, "lang", "refines", fx("istar.json"), fx("sigma.json"))
        assert (code, out) == (0, "true\n")

    def test_lang_refines_false(self, capsys):
        code, out, _ = run(capsys, "lang", "refines", fx("sigma.json"), fx("istar.json"))
        assert (code, out) == (1, "false\n")

    def test_ia_refines(self, capsys):
        code, out, _ = run(capsys, "ia", "refines", fx("ia_iloop.json"), fx("ia_ioloop.json"))
        assert (code, out) == (0, "true\n")

    def test_iface_refines_json_format(self, capsys):
        code, out, _ = run(
            capsys, "iface", "refines", fx("c_istar.json"), fx("c_top.json"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] is True
        assert doc["operation"]["name"] == "iface refines"
        assert len(doc["operation"]["inputs"]) == 2
        assert all(len(entry["sha256"]) == 64 for entry in doc["operation"]["inputs"])

    def test_beh_refines_compsets(self, capsys):
        code, out, _ = run(capsys, "beh", "refines", fx("beh.json"), "hlo", "htop")
        assert (code, out) == (0, "true\n")


class TestDocuments:
    def test_union_of_partial_equals_istar(self, capsys):
        code, out, _ = run(capsys, "lang", "union", fx("istar_partial.json"), fx("istar.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["accepting"] == ["s0"] and len(doc["states"]) == 2

    def test_no_auto_trap_rejects_partial(self, capsys):
        code, _, err = run(
            capsys, "lang", "canon", fx("istar_partial.json"), "--no-auto-trap"
        )
        assert code == 2 and "partial" in err

    def test_receptive_union_keeps_inputs(self, capsys):
        code, out, _ = run(capsys, "lang", "union", fx("rec_istar.json"), fx("rec_sigma.json"))
        assert code == 0 and json.loads(out)["inputs"] == ["i"]

    def test_missext(self, capsys):
        code, out, _ = run(
            capsys, "lang", "missext", fx("istar.json"), fx("istar.json"), "--gamma", "o"
        )
        assert code == 0
        code2, out2, _ = run(capsys, "lang", "canon", fx("contains_o.json"))
        assert out == out2

    def test_unc(self, capsys):
        code, out, _ = run(
            capsys, "lang", "unc", fx("l_union.json"), fx("sigma.json"),
            "--gamma", "i", "--delta", "i",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["accepting"] != []

    def test_exponential_modes_agree(self, capsys):
        _, closed, _ = run(capsys, "lang", "exponential", fx("rec_istar.json"), fx("rec_sigma.json"))
        _, definitional, _ = run(
            capsys, "lang", "exponential", fx("rec_istar.json"), fx("rec_sigma.json"),
            "--definitional",
        )
        closed_doc = json.loads(closed)
        closed_doc.pop("inputs")
        assert closed_doc == json.loads(definitional)

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "lang", "quotient", fx("rec_l.json"), fx("rec_sigma_in_o.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"] == ["i"]
        _, istar_out, _ = run(capsys, "lang", "canon", fx("istar.json"))
        doc.pop("inputs")
        assert doc == json.loads(istar_out)

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "lang", "enumerate", fx("contains_o.json"), "--max-len", "2")
        assert code == 0 and out == "o\nio\noi\noo\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "lang", "canon", fx("istar.json"), "-o", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["initial"] == "s0"

    @pytest.mark.parametrize("target", ["missing_dir/out.json", "."])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "lang", "canon", fx("istar.json"), "-o", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, echoed",
        [
            (("lang", "enumerate", "istar.json", "--max-len", "0"), {"max_len": 0}),
            (("oracle", "missext", "--seed", "0", "--cases", "0"), {"seed": 0, "cases": 0, "max_len": 6}),
        ],
    )
    def test_json_echo_keeps_zero_flags(self, capsys, argv, echoed):
        argv = [fx(a) if a.endswith(".json") else a for a in argv]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["operation"]["args"] == echoed


class TestContractsAndAutomata:
    def test_from_s_emits_derived(self, capsys):
        code, out, _ = run(capsys, "iface", "from-s", fx("c_istar.json"))
        doc = json.loads(out)
        assert set(doc) == {"S", "inputs", "E", "M"}

    def test_compose_compatible(self, capsys):
        code, out, _ = run(capsys, "iface", "compose", fx("c_eps_a_out.json"), fx("c_eps_a_in.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["compatible"] is True and doc["inputs"] == []

    def test_compose_incompatible_text_and_json(self, capsys):
        code, out, _ = run(
            capsys, "iface", "compose", fx("c_eps_a_out.json"), fx("c_eps_only_in.json")
        )
        assert (code, out) == (0, "incompatible\n")
        code, out, _ = run(
            capsys, "iface", "compose", fx("c_eps_a_out.json"), fx("c_eps_only_in.json"),
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["result"] == {"compatible": False}

    def test_quotient_via_identity(self, capsys):
        _, out, _ = run(capsys, "iface", "quotient", fx("c_istar.json"), fx("c_ident.json"))
        doc = json.loads(out)
        _, direct, _ = run(capsys, "iface", "from-s", fx("c_istar.json"))
        assert doc.pop("compatible") is True
        assert doc == json.loads(direct)

    def test_mirror(self, capsys):
        _, out, _ = run(capsys, "iface", "mirror", fx("c_istar.json"))
        assert json.loads(out)["inputs"] == ["o"]

    def test_validate_witness_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"S": json.loads(Path(fx("contains_o.json")).read_text()), "inputs": ["i"]})
        )
        code, _, err = run(capsys, "iface", "validate", str(bad))
        assert code == 2 and "not prefix-closed" in err

    def test_validate_membership_flags_are_exclusive(self, capsys):
        argv = ["iface", "validate", fx("c_istar.json"), "--implementation", fx("sigma.json")]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--environment", fx("sigma.json")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --environment: not allowed with argument --implementation" in err

    def test_validate_membership_flags(self, capsys):
        code, out, _ = run(
            capsys, "iface", "validate", fx("c_istar.json"), "--implementation", fx("istar.json")
        )
        assert (code, out) == (0, "true\n")
        code, out, _ = run(
            capsys, "iface", "validate", fx("c_istar.json"), "--implementation", fx("sigma.json")
        )
        assert (code, out) == (1, "false\n")

    def test_ia_compose_reports_pruned(self, capsys):
        code, out, _ = run(capsys, "ia", "compose", fx("ia_aout.json"), fx("ia_ain.json"))
        doc = json.loads(out)
        assert doc["compatible"] is True and doc["pruned_states"] == []
        assert doc["states"] == ["(p0,q0)", "(p1,q0)"]

    def test_ia_compose_incompatible(self, capsys):
        code, out, _ = run(
            capsys, "ia", "compose", fx("ia_aout.json"), fx("ia_ain_empty.json"),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["compatible"] is False
        assert doc["result"]["pruned_states"] == ["(p0,q0)"]

    def test_ia_language_and_contract(self, capsys):
        _, out, _ = run(capsys, "ia", "language", fx("ia_iloop.json"))
        _, istar_out, _ = run(capsys, "lang", "canon", fx("istar.json"))
        assert out == istar_out
        _, out, _ = run(capsys, "ia", "to-contract", fx("ia_iloop.json"))
        _, from_s_out, _ = run(capsys, "iface", "from-s", fx("c_istar.json"))
        assert out == from_s_out


class TestBehavioral:
    def test_ag_compose_matches_contract_compose(self, capsys):
        _, via_contract, _ = run(capsys, "beh", "compose", fx("beh.json"), "agc1", "agc2")
        doc = json.loads(via_contract)
        assert doc["env"] == [["0", "1", "2"]] and doc["impl"] == [["0", "3"]]
        _, via_ag, _ = run(capsys, "beh", "ag-compose", fx("beh.json"), "agc1", "agc2")
        ag_doc = json.loads(via_ag)
        assert ag_doc["A"] == ["0", "1", "2"] and ag_doc["G"] == ["0", "3"]

    def test_general_flag_agrees(self, capsys):
        _, conic_out, _ = run(capsys, "beh", "compose", fx("beh.json"), "cmix", "ctop")
        _, general_out, _ = run(
            capsys, "beh", "compose", fx("beh.json"), "cmix", "ctop", "--general"
        )
        assert conic_out == general_out

    def test_quotient_of_components(self, capsys):
        _, out, _ = run(capsys, "beh", "quotient", fx("beh.json"), "g1", "a1")
        assert json.loads(out)["behaviors"] == ["0", "2", "3"]

    def test_compset_ops_and_normalize(self, capsys):
        _, out, _ = run(capsys, "beh", "normalize", fx("beh.json"), "redundant")
        assert json.loads(out)["maximals"] == [["0", "1"]]
        _, meet_out, _ = run(capsys, "beh", "meet", fx("beh.json"), "h12", "htop")
        assert json.loads(meet_out)["maximals"] == [["0", "1"], ["0", "2"]]

    def test_saturated_and_convexity(self, capsys):
        code, out, _ = run(capsys, "beh", "saturated", fx("beh.json"), "agc1")
        assert (code, out) == (0, "true\n")
        _, out, _ = run(capsys, "beh", "convexity", fx("beh.json"), "h12")
        doc = json.loads(out)
        assert doc["coconvex"] is True

    def test_merges(self, capsys):
        _, strong, _ = run(capsys, "beh", "merge-strong", fx("beh.json"), "agc1", "agc2")
        assert json.loads(strong) == {"A": ["0"], "G": ["0"], "universe": ["0", "1", "2", "3"]}
        _, weak, _ = run(capsys, "beh", "merge-weak", fx("beh.json"), "agc1", "agc2")
        doc = json.loads(weak)
        assert doc["env"] == [["0", "1"], ["0", "2"]]

    def test_ag_contract_bridge(self, capsys):
        _, out, _ = run(capsys, "beh", "ag-contract", fx("beh.json"), "agc1")
        doc = json.loads(out)
        assert doc["env"] == [["0", "1"]] and doc["impl"] == [["0", "2", "3"]]

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "beh", "meet", fx("beh.json"), "nope", "htop")
        assert code == 2 and "unknown name" in err


def wide_bundle(n: int) -> dict:
    """A bundle over n behaviors: two contracts, two AG contracts, and the
    bridge of the second AG contract written out as the contract "bridged2"."""
    universe = [f"b{k}" for k in range(n)]
    a2, g2 = universe[::2], universe[1::2] + universe[:1]
    return {
        "universe": universe,
        "components": {
            "a1": universe[: n // 2], "a2": a2, "g1": [universe[0], universe[1], universe[-1]], "g2": g2,
            "g2_a2": [b for b in universe if b not in a2 or b in g2],
        },
        "compsets": {"h": ["a1", "a2"], "hg": ["g1", "g2"]},
        "contracts": {
            "c1": {"env": "h", "impl": ["g1"]},
            "c2": {"env": ["a1"], "impl": "hg"},
            "bridged2": {"env": ["a2"], "impl": ["g2_a2"]},
        },
        "ag": {"agc1": {"A": "a1", "G": "g1"}, "agc2": {"A": "a2", "G": "g2"}},
    }


def general_contract(c: hyperc.behavioral.BehavioralHypercontract) -> hyperc.behavioral.BehavioralHypercontract:
    return hyperc.behavioral.BehavioralHypercontract(c.env.to_general(), c.impl.to_general())


class TestBehavioralUniverses:
    """Every `beh` verb but --general takes universes of up to 64 behaviors."""

    @pytest.fixture(params=[9, 64])
    def bundle(self, request, tmp_path):
        path = tmp_path / f"beh{request.param}.json"
        path.write_text(json.dumps(wide_bundle(request.param)), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ("saturated", "c1"), ("saturated", "c2"), ("saturated", "agc1"),
            ("convexity", "h"), ("convexity", "hg"),
            ("merge-strong", "c1", "c2"), ("merge-strong", "agc1", "c2"), ("merge-strong", "c1", "agc2"),
        ],
    )
    def test_answers_past_general_mode(self, capsys, bundle, argv):
        code, out, err = run(capsys, "beh", argv[0], str(bundle), *argv[1:])
        assert code in (0, 1) and out and not err

    def test_known_answers(self, capsys, bundle):
        doc = hyperc.jsonio.parse_behavioral(json.loads(bundle.read_text(encoding="utf-8")))
        # A conic compset is downward closed, so flat.
        _, out, _ = run(capsys, "beh", "convexity", str(bundle), "h")
        assert json.loads(out) == {"convex": True, "coconvex": True, "flat": True}
        # Bridged AG contracts are saturated, and their strong merge is the bridge of the AG strong merge.
        assert run(capsys, "beh", "saturated", str(bundle), "agc1")[:2] == (0, "true\n")
        _, out, _ = run(capsys, "beh", "merge-strong", str(bundle), "agc1", "bridged2")
        merged = hyperc.behavioral.ag_merge_strong(doc.ag["agc1"], doc.ag["agc2"])
        assert json.loads(out) == hyperc.jsonio.behavioral_contract_doc(hyperc.behavioral.ag_to_contract(merged))

    def test_nine_behaviors_match_the_general_engine(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "beh9.json"
        path.write_text(json.dumps(wide_bundle(9)), encoding="utf-8")
        doc = hyperc.jsonio.parse_behavioral(wide_bundle(9))
        monkeypatch.setattr(hyperc.behavioral, "GENERAL_MODE_MAX", 9)  # the reference engine, one size up
        c1, c2 = (general_contract(doc.contracts[name]) for name in ("c1", "c2"))
        for name, c in (("c1", c1), ("c2", c2)):
            expected = hyperc.behavioral.is_saturated(c.env, c.env.compose(c.impl))
            assert run(capsys, "beh", "saturated", str(path), name)[0] == (0 if expected else 1)
        for name in ("h", "hg"):
            report = hyperc.behavioral.convexity(doc.compsets[name].to_general())
            _, out, _ = run(capsys, "beh", "convexity", str(path), name)
            assert json.loads(out) == {"convex": report.convex, "coconvex": report.coconvex, "flat": report.flat}
        _, out, _ = run(capsys, "beh", "merge-strong", str(path), "c1", "c2")
        expected = hyperc.behavioral.strong_merge_general(c1, c2)
        assert json.loads(out) == hyperc.jsonio.behavioral_contract_doc(expected)

    def test_general_flag_still_capped(self, capsys, bundle):
        # Refused before the 2^32 members of a 32-behavior maximal are listed.
        code, out, err = run(capsys, "beh", "compose", str(bundle), "c1", "c2", "--general")
        assert (code, out) == (2, "")
        size = len(json.loads(bundle.read_text(encoding="utf-8"))["universe"])
        assert err == f"error: general mode: {size} behaviors over the bound 8 (GENERAL_MODE_MAX)\n"

    def test_pairwise_meet_over_cap_exits_2(self, capsys, tmp_path):
        # Two 1001-maximal antichains over 64 behaviors: 1001 × 1001 candidates,
        # refused before any is built.
        universe = [str(k) for k in range(64)]
        compsets = {
            name: [[b for k, b in enumerate(universe) if m >> k & 1] for m in wide_antichain(seed, shift)]
            for name, seed, shift in (("h", 1, 0), ("g", 2, 4))
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"universe": universe, "compsets": compsets}), encoding="utf-8")
        for verb, operation in (("compose", "conic composition"), ("meet", "conic meet")):
            code, out, err = run(capsys, "beh", verb, str(path), "h", "g")
            assert (code, out) == (2, "")
            assert err == (
                f"error: {operation}: 1001 × 1001 = 1002001 candidates over the bound 1000000 (MAX_MEET_CANDIDATES)\n"
            )

    def test_general_flag_only_on_lattice_verbs(self, capsys):
        general = {name for name, verb in VERBS.items() if any(f.option == "--general" for f in verb.flags)}
        assert general == {"beh compose", "beh quotient", "beh meet", "beh join"}
        with pytest.raises(SystemExit) as exit_info:
            main(["beh", "saturated", fx("beh.json"), "agc1", "--general"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --general" in capsys.readouterr().err


class TestOracleCommand:
    def test_single_kind(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "missext", "--seed", "7", "--cases", "5", "--max-len", "4"
        )
        assert (code, out) == (0, "PASS missext cases=5\n")

    def test_all_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "all", "--seed", "7", "--cases", "3", "--max-len", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        kinds = [r["kind"] for r in doc["result"]["reports"]]
        assert kinds == list(hyperc.oracle.ORACLE_KINDS)


class TestErrors:
    def test_document_error_exit_2(self, capsys):
        code, _, err = run(capsys, "lang", "canon", fx("bad_nondet.json"))
        assert code == 2 and "nondeterministic" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lang", "canon", "no-such-file.json")
        assert code == 2 and "cannot read" in err

    def test_precondition_violation(self, capsys):
        code, _, err = run(capsys, "iface", "compose", fx("c_istar.json"), fx("c_top.json"))
        assert code == 2 and "shared outputs" in err

    @pytest.mark.parametrize("section", ["components", "compsets", "contracts", "ag"])
    def test_behavioral_section_not_object(self, capsys, tmp_path, section):
        doc = tmp_path / "beh.json"
        doc.write_text(json.dumps({"universe": ["0", "1"], section: []}), encoding="utf-8")
        code, _, err = run(capsys, "beh", "normalize", str(doc), "x")
        assert code == 2 and f"'{section}' must be a JSON object" in err

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("contracts", {"c": ["h"]}, "contract 'c' must map 'env' and 'impl'"),
            ("ag", {"c": "a"}, "ag contract 'c' must map 'A' and 'G'"),
        ],
    )
    def test_behavioral_entry_not_object(self, capsys, tmp_path, section, entry, message):
        doc = tmp_path / "beh.json"
        doc.write_text(json.dumps({"universe": ["0", "1"], section: entry}), encoding="utf-8")
        code, out, err = run(capsys, "beh", "normalize", str(doc), "c")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bundle_name_in_two_sections_is_ambiguous(self, capsys, tmp_path):
        doc = tmp_path / "beh.json"
        doc.write_text(json.dumps({"universe": ["0"], "components": {"n": ["0"]}, "compsets": {"n": ["n"]}}))
        code, out, err = run(capsys, "beh", "normalize", str(doc), "n")
        assert (code, out, err) == (2, "", "error: ambiguous name 'n' (compset, component)\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("normalize", "a1"), "'a1' is a component, not a compset"),
            (("convexity", "cmix"), "'cmix' is a contract, not a compset"),
            (("ag-contract", "h12"), "'h12' is a compset, not an assume-guarantee contract"),
            (("compose", "h12", "a1"), "'h12' is a compset, not a contract"),
            (("ag-compose", "cmix", "ctop"), "ag-compose expects two assume-guarantee contract names"),
            (("ag-compose", "agc1", "cmix"), "ag-compose expects two assume-guarantee contract names"),
        ],
    )
    def test_bundle_name_of_the_wrong_kind(self, capsys, argv, message):
        verb, *names = argv
        code, out, err = run(capsys, "beh", verb, fx("beh.json"), *names)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_document_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]", encoding="utf-8")
        code, out, err = run(capsys, "lang", "canon", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: document must be a JSON object\n")

    def test_ia_compose_colliding_composite_names_exits_2(self, capsys, tmp_path):
        """A "," inside state names can give two state pairs one composite name."""
        docs = []
        for name, inputs, states, moves in (
            ("a1", ["x"], ["a,b", "a"], [["a,b", "x", "a,b"], ["a,b", "y", "a"], ["a", "x", "a"], ["a", "y", "a,b"]]),
            ("a2", ["y"], ["c", "b,c"], [["c", "x", "c"], ["c", "y", "b,c"], ["b,c", "x", "b,c"], ["b,c", "y", "c"]]),
        ):
            path = tmp_path / f"{name}.json"
            doc = {"alphabet": ["x", "y"], "inputs": inputs, "states": states, "initial": states[0]}
            path.write_text(json.dumps({**doc, "transitions": moves}), encoding="utf-8")
            docs.append(str(path))
        code, out, err = run(capsys, "ia", "compose", *docs)
        assert (code, out, err) == (2, "", "error: composite state name '(a,b,c)' names two state pairs\n")

    def test_document_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        code, out, err = run(capsys, "lang", "canon", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 (") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, '{"n": ' + "7" * 5000 + "}"],
        ids=["nested-200000-deep", "integer-5000-digits"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("lang", "refines", "{doc}", fx("sigma.json")), ("beh", "compose", "{doc}", "agc1", "agc2")],
        ids=["lang-refines", "beh-compose"],
    )
    def test_document_past_the_json_reader_exits_2(self, capsys, tmp_path, text, argv):
        """Not a JSONDecodeError: the reader's recursion bound and CPython's limit on integer digits."""
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *(str(path) if arg == "{doc}" else arg for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON (") and err.count("\n") == 1

    def test_negative_max_len(self, capsys):
        code, out, err = run(capsys, "lang", "enumerate", fx("istar.json"), "--max-len", "-1")
        assert (code, out, err) == (2, "", "error: max_len (--max-len) must be nonnegative, got -1\n")

    def test_negative_max_len_after_the_document_read(self, capsys):
        code, out, err = run(capsys, "lang", "enumerate", "no-such.json", "--max-len", "-1")
        assert (code, out) == (2, "") and err.startswith("error: cannot read no-such.json")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("all", "--cases", "-1"), "num_cases (--cases) must be nonnegative, got -1"),
            (("unc", "--cases", "2", "--max-states", "0"), "max_states (--max-states) must be at least 1, got 0"),
            pytest.param(
                ("missext", "--cases", "1", "--max-states", "10001"),
                "oracle: max_states (--max-states) 10001 over the bound 10000 (HYPERC_MAX_STATES)",
                id="max-states-over-the-state-cap",
            ),
            pytest.param(
                ("all", "--max-len", "9"), "oracle: max_word_len (--max-len) 9 over the bound 8 (MAX_ENUM_LEN)",
                id="max-len-over-the-bound",
            ),
            (("all", "--max-len", "-1"), "max_word_len (--max-len) must be nonnegative, got -1"),
        ],
    )
    def test_oracle_numeric_flags(self, capsys, flags, message):
        code, out, err = run(capsys, "oracle", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_malformed_state_cap(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("HYPERC_MAX_STATES", raw)
        code, out, err = run(capsys, "lang", "refines", fx("sigma.json"), fx("istar.json"))
        assert (code, out) == (2, "")
        assert err == f"error: HYPERC_MAX_STATES must be a positive integer, got {raw!r}\n"


#: One verb per document kind, on a fixture whose mutants it reads.
MUTATED_DOCUMENTS = {
    "L": ("istar.json", ("lang", "complement")),
    "R": ("rec_istar.json", ("lang", "validate")),
    "C": ("c_l.json", ("iface", "from-s")),
    "A": ("ia_aout.json", ("ia", "language")),
    "B": ("beh.json", ("beh", "compose", "cmix", "ctop")),
}

_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.sampled_from(["", "a", "i", "o", "p0", "zz", "0", "9", "a1"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["S", "env", "A", "x"]), kids, max_size=2),
    max_leaves=5,
)


def _slots(node, out: list) -> list:
    """Every (container, key) slot of a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def mutated(draw, doc: dict) -> dict:
    """`doc` after one to three edits: a slot deleted, given a new JSON value
    or a copy of another slot's value, or a list entry repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(("delete", "replace", "copy", "repeat")))
        if action == "delete":
            del node[key]
        elif action == "replace":
            node[key] = draw(_JSON_VALUES)
        elif action == "copy":
            other, other_key = draw(st.sampled_from(slots))
            node[key] = copy.deepcopy(other[other_key])
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    return doc


class TestRobustness:
    @pytest.mark.parametrize("kind", MUTATED_DOCUMENTS)
    def test_mutated_documents_exit_cleanly(self, kind, tmp_path, capsys):
        """Any document gives an answer (exit 0 or 1) or exit 2 with a one-line
        `error: ...`, never a traceback."""
        name, (group, verb, *names) = MUTATED_DOCUMENTS[kind]
        path = tmp_path / name

        base = json.loads((DATA / name).read_text(encoding="utf-8"))

        @settings(max_examples=40, deadline=None, database=None)
        @given(doc=mutated(base), fmt=st.sampled_from(["text", "json"]))
        def check(doc, fmt):
            path.write_text(json.dumps(doc), encoding="utf-8")
            code = main([group, verb, str(path), *names, "--format", fmt])
            err = capsys.readouterr().err
            assert code in (0, 1) or (code == 2 and err.startswith("error: ") and err.count("\n") == 1), err

        check()


#: The verbs whose flags name symbols, with the documents they read.
SYMBOL_FLAG_VERBS = {
    "concat-class": (("istar.json",), ("--gamma",)),
    "missext": (("istar.json", "contains_o.json"), ("--gamma",)),
    "unc": (("l_union.json", "sigma.json"), ("--gamma", "--delta")),
    "embed": (("rec_istar.json",), ("--inputs",)),
}
#: Comma-separated symbol lists with unknown symbols, empty items and stray commas.
_SYMBOL_TEXT = st.lists(st.sampled_from(["i", "o", "z", "", " i", "i,,o"]), max_size=4).map(",".join)
_ORACLE_FLAG_VALUES = {"--cases": (-1, 0, 1, 2), "--max-len": (-1, 0, 3, 9), "--max-states": (-1, 0, 1, 3, 10001)}


@st.composite
def flag_argv(draw) -> list[str]:
    """A CLI call whose flag values come from fixed sets, invalid values included."""
    family = draw(st.sampled_from(("symbols", "enumerate", "oracle")))
    if family == "symbols":
        verb = draw(st.sampled_from(sorted(SYMBOL_FLAG_VERBS)))
        docs, flags = SYMBOL_FLAG_VERBS[verb]
        return ["lang", verb, *map(fx, docs), *(x for flag in flags for x in (flag, draw(_SYMBOL_TEXT)))]
    if family == "enumerate":
        return ["lang", "enumerate", fx("contains_o.json"), "--max-len", str(draw(st.sampled_from((-1, 0, 4, 8, 9))))]
    argv = ["oracle", draw(st.sampled_from(sorted(hyperc.oracle.ORACLE_KINDS)))]
    for flag, values in _ORACLE_FLAG_VALUES.items():
        argv += [flag, str(draw(st.sampled_from(values)))]
    return argv


class TestFlagValues:
    def test_flag_values_exit_cleanly(self, capsys):
        """Any flag value gives an answer (exit 0 or 1) or exit 2 with
        `error: ...`, never a traceback."""

        @settings(max_examples=50, deadline=None, database=None)
        @given(argv=flag_argv())
        def check(argv):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1) or (code == 2 and err.startswith("error:")), (argv, err)

        check()


class TestStateCap:
    # The language documents have one state each, so the cap trips in the
    # concatenation rather than at ingestion.
    @pytest.mark.parametrize(
        "argv",
        [
            ("lang", "concat-class", "sigma.json", "--gamma", "o"),
            ("lang", "concat-star", "istar_partial.json"),
            ("ia", "compose", "ia_aout.json", "ia_ain.json"),
            ("ia", "refines", "ia_aout.json", "ia_aout.json"),
        ],
    )
    def test_construction_over_cap_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        code, out, err = run(capsys, *(fx(a) if a.endswith(".json") else a for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(" states over the bound 1 (HYPERC_MAX_STATES)\n")

    def test_interface_automaton_ingestion_over_cap_exits_2(self, capsys, monkeypatch):
        # ia_aout has two reachable states.
        monkeypatch.setenv("HYPERC_MAX_STATES", "1")
        code, out, err = run(capsys, "ia", "language", fx("ia_aout.json"))
        assert (code, out) == (2, "")
        assert err == "error: interface-automaton ingestion: 2 states over the bound 1 (HYPERC_MAX_STATES)\n"

    @pytest.mark.parametrize(
        "argv, wrap",
        [
            (("lang", "canon"), lambda doc: doc),
            (("lang", "validate"), lambda doc: {**doc, "inputs": []}),
            (("iface", "validate"), lambda doc: {"S": doc, "inputs": []}),
        ],
        ids=["language", "receptive", "contract"],
    )
    def test_language_ingestion_over_cap_exits_2(self, capsys, monkeypatch, tmp_path, argv, wrap):
        monkeypatch.setenv("HYPERC_MAX_STATES", "3")
        for n in (3, 4):
            states = [f"s{k}" for k in range(n)]
            doc = {"alphabet": ["i"], "states": states, "initial": "s0", "accepting": states,
                   "transitions": [[s, "i", states[min(k + 1, n - 1)]] for k, s in enumerate(states)]}
            path = tmp_path / f"chain{n}.json"
            path.write_text(json.dumps(wrap(doc)), encoding="utf-8")
            code, out, err = run(capsys, *argv, str(path))
            if n == 3:
                assert (code, err) == (0, "")
            else:
                assert (code, out) == (2, "")
                assert err == "error: language ingestion: 4 states over the bound 3 (HYPERC_MAX_STATES)\n"

    def test_enumeration_over_word_bound_exits_2(self, capsys, tmp_path):
        # Σ* over 12 symbols has 1 + 12 + … + 12⁶ = 3257437 words up to length 6.
        path = tmp_path / "sigma12.json"
        symbols = list("abcdefghijkl")
        doc = {"alphabet": symbols, "states": ["q"], "initial": "q", "accepting": ["q"],
               "transitions": [["q", s, "q"] for s in symbols]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "lang", "enumerate", str(path), "--max-len", "6")
        assert (code, out) == (2, "")
        assert err == "error: enumeration: 3257437 words over the bound 1000000 (MAX_ENUM_WORDS)\n"
        code, out, _ = run(capsys, "lang", "enumerate", str(path), "--max-len", "1")
        assert (code, out.split()) == (0, ["ε", *symbols])

    def test_refinement_relation_at_cap(self, capsys, monkeypatch):
        # The search from (p0, p0) reaches two of the 2×2 state pairs, under the cap.
        monkeypatch.setenv("HYPERC_MAX_STATES", "3")
        assert run(capsys, "ia", "refines", fx("ia_aout.json"), fx("ia_aout.json"))[:2] == (0, "true\n")

    def test_refinement_search_over_cap_exits_2(self, capsys, monkeypatch, tmp_path):
        # Output cycles of 2 and 3 states fit the cap alone; together they reach all 6 pairs.
        paths = []
        for n in (2, 3):
            states = [f"s{k}" for k in range(n)]
            doc = {"alphabet": ["a"], "inputs": [], "states": states, "initial": "s0",
                   "transitions": [[s, "a", states[(k + 1) % n]] for k, s in enumerate(states)]}
            paths.append(tmp_path / f"cycle{n}.json")
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setenv("HYPERC_MAX_STATES", "6")
        assert run(capsys, "ia", "refines", *map(str, paths))[:2] == (0, "true\n")
        monkeypatch.setenv("HYPERC_MAX_STATES", "3")
        code, out, err = run(capsys, "ia", "refines", *map(str, paths))
        assert (code, out) == (2, "")
        assert err == (
            "error: interface-automaton refinement: 2×3 states over the bound 3 (HYPERC_MAX_STATES)\n"
        )


class TestHashSeed:
    @pytest.mark.parametrize("kind", ["interface-compose", "ia-equivalence"])
    def test_oracle_output_independent_of_hash_seed(self, kind):
        argv = [sys.executable, "-m", "hyperc", "oracle", kind, "--seed", "3", "--cases", "40"]
        argv += ["--max-len", "5", "--format", "json"]
        outputs = [
            subprocess.run(
                argv, capture_output=True, check=True, env={**os.environ, "PYTHONHASHSEED": seed}
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]


class TestCommandTable:
    def test_every_operation_under_exactly_one_subcommand(self):
        inventory = [op for verb in VERBS.values() for op in verb.operations]
        assert len(inventory) == len(set(inventory))
        documented = {
            "lang": (
                "RegularLanguage.union RegularLanguage.intersect RegularLanguage.difference "
                "RegularLanguage.complement concat_symbol_class "
                "concat_sigma_star prefix_closure canonicalize enumerate_words "
                "is_subset is_prefix_closed is_receptive"
            ),
            "receptive": (
                "meet join miss_ext unc exponential exponential_definitional "
                "compose quotient embed"
            ),
            "contracts": (
                "from_s is_environment is_implementation refines compose mirror quotient"
            ),
            "automata": "refines compose language to_contract",
            "behavioral": (
                "component_quotient GeneralCompset.compose GeneralCompset.quotient "
                "GeneralCompset.meet GeneralCompset.join ConicCompset.from_components "
                "ConicCompset.leq ConicCompset.compose ConicCompset.meet "
                "ConicCompset.join ConicCompset.quotient contract_compose contract_quotient "
                "contract_meet contract_join contract_refines ag_to_contract "
                "ag_compose ag_merge_strong ag_merge_weak is_saturated convexity "
                "strong_merge_general"
            ),
            "oracle": (
                "check_missext_definition check_unc_definition sweep_exponential "
                "sweep_receptive_quotient sweep_interface_compose sweep_ia_equivalence "
                "sweep_conic_quotient sweep_conic_ops"
            ),
        }
        expected = {
            f"{module}.{name}" for module, names in documented.items() for name in names.split()
        }
        assert set(inventory) == expected
        # and each table target really exists, resolved attribute by attribute
        for entry in inventory:
            target = hyperc
            for name in entry.split("."):
                assert hasattr(target, name), entry
                target = getattr(target, name)
            assert callable(target), entry

    @staticmethod
    def registered(parser) -> list[str]:
        """The `group verb` subcommands a parser has built, in order."""
        groups = parser._subparsers._group_actions[0].choices  # noqa: SLF001
        registered = []
        for group_name, group_parser in groups.items():
            verbs = group_parser._subparsers._group_actions[0].choices  # noqa: SLF001
            registered.extend(f"{group_name} {verb}" for verb in verbs)
        return registered

    def test_table_matches_registered_subcommands(self):
        assert self.registered(build_parser()) == list(VERBS)
        assert {name for name, verb in VERBS.items() if not verb.operations} == {"oracle all"}

    def test_parser_builds_only_the_named_groups_verbs(self):
        parser = build_parser(["iface", "compose", "a.json", "b.json"])
        assert self.registered(parser) == [name for name in VERBS if name.startswith("iface ")]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["nope"],
            ["lang"],
            ["lang", "nope"],
            ["iface", "compose", "a.json"],
            ["ia", "refines", "--help"],
            ["beh", "compose", "beh.json", "h12", "htop", "--format", "xml"],
            ["oracle", "all", "--max-len", "x"],
            ["oracle", "all", "extra"],
        ],
    )
    def test_usage_and_help_match_the_full_parser(self, capsys, argv):
        """A parser built for argv prints what the parser of every verb prints."""
        outcomes = []
        for parser in (build_parser(argv), build_parser()):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(argv)
            outcomes.append((exit_info.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    def test_readme_lists_the_registered_verbs(self):
        text = README.read_text(encoding="utf-8")
        table = text[text.index("Groups and verbs:"):]
        rows = re.findall(r"^\| `([a-z]+)` *\| `([^`]*)` \|$", table, flags=re.MULTILINE)
        listed = {f"{group} {verb}" for group, verbs in rows for verb in verbs.split()}
        assert listed == set(VERBS)
