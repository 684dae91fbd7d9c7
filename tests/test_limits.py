"""Every size bound: each bound site tripped once through the library and once
through the CLI, and the README's Bounds table checked against the constants."""

from __future__ import annotations

import importlib
import json
import re

import pytest

from hyperc import behavioral
from hyperc.behavioral import ConicCompset, Universe, all_antichains
from hyperc.errors import LimitExceeded, UniverseTooLarge
from hyperc.jsonio import parse_behavioral, parse_contract, parse_ia, parse_language
from hyperc.lang import enumerate_words
from hyperc.oracle import BoundedCheckConfig
from test_behavioral import U64, scattered_antichain, wide_antichain
from test_cli import README, fx, run

#: The one message shape of a limit error, filled from its four attributes.
MODEL = "{}: {} over the bound {} ({})"


def _cycle(n: int) -> dict:
    states = [f"s{k}" for k in range(n)]
    return {"alphabet": ["a"], "states": states, "initial": "s0", "accepting": ["s0"],
            "transitions": [[s, "a", states[(k + 1) % n]] for k, s in enumerate(states)]}


def _chain(n: int, partial: bool = False) -> dict:
    """s0 -a-> s1 -a-> … all accepting; the last state loops unless `partial`."""
    states = [f"s{k}" for k in range(n)]
    transitions = [[s, "a", states[k + 1]] for k, s in enumerate(states[:-1])]
    return {"alphabet": ["a"], "states": states, "initial": "s0", "accepting": states,
            "transitions": transitions if partial else transitions + [[states[-1], "a", states[-1]]]}


def _bundle(universe: list[str], compsets: dict[str, tuple[int, ...]]) -> dict:
    masks = {name: [[b for k, b in enumerate(universe) if m >> k & 1] for m in ms] for name, ms in compsets.items()}
    return {"universe": universe, "compsets": masks}


SIGMA12 = list("abcdefghijkl")

#: Input documents by name; an argv item that names one is replaced by its file.
DOCS = {
    "cycle2": lambda: _cycle(2),
    "cycle3": lambda: _cycle(3),
    "chain4": lambda: _chain(4),
    # Two listed states; auto-trap adds the sink, so S has three canonical states.
    "s2": lambda: {"S": _chain(2, partial=True), "inputs": []},
    "sigma12": lambda: {"alphabet": SIGMA12, "states": ["q"], "initial": "q", "accepting": ["q"],
                        "transitions": [["q", s, "q"] for s in SIGMA12]},
    "u65": lambda: _bundle([f"b{k}" for k in range(65)], {"h": (0,)}),
    "u9": lambda: _bundle([f"b{k}" for k in range(9)], {"h": (0b11,), "g": (0b110,)}),
    "wide": lambda: _bundle([str(k) for k in range(64)], {"h": wide_antichain(1, 0), "g": wide_antichain(2, 4)}),
    # 1000 × 1000 = 10⁶ candidates: at the meet's bound, over the normalization's.
    "wide1000": lambda: _bundle(
        [str(k) for k in range(64)], {"h": wide_antichain(1, 0)[:1000], "g": wide_antichain(2, 4)[:1000]}
    ),
}


def _doc(name: str) -> dict:
    return DOCS[name]()


def _compose_h_g(doc):
    return doc.compsets["h"].compose(doc.compsets["g"])


def _ia_aout() -> dict:
    with open(fx("ia_aout.json"), encoding="utf-8") as f:
        return json.load(f)


#: Each bound site: HYPERC_MAX_STATES for the run (None: unset), the library call
#: that trips it, the CLI call that trips it on the same input (None: no verb
#: reaches it), the class raised and its (operation, measured, bound, knob).
#: `lang._explore` is reached from the language engine and from interface-automaton
#: ingestion.
LIMITS = {
    "explore-product": (
        3, lambda: parse_language(_doc("cycle2")).intersect(parse_language(_doc("cycle3"))),
        ("lang", "intersect", "cycle2", "cycle3"),
        LimitExceeded, ("intersection", "2×3 states", 3, "HYPERC_MAX_STATES"),
    ),
    "explore-ia-ingestion": (
        1, lambda: parse_ia(_ia_aout()), ("ia", "language", fx("ia_aout.json")),
        LimitExceeded, ("interface-automaton ingestion", "2 states", 1, "HYPERC_MAX_STATES"),
    ),
    "language-ingestion": (
        3, lambda: parse_language(_doc("chain4")), ("lang", "canon", "chain4"),
        LimitExceeded, ("language ingestion", "4 states", 3, "HYPERC_MAX_STATES"),
    ),
    "maximal-environment": (
        2, lambda: parse_contract(_doc("s2")).e, ("iface", "from-s", "s2"),
        LimitExceeded, ("E_S", "3 states", 2, "HYPERC_MAX_STATES"),
    ),
    "enumeration-length": (
        None, lambda: enumerate_words(parse_language(_doc("cycle2")), 9),
        ("lang", "enumerate", "cycle2", "--max-len", "9"),
        LimitExceeded, ("enumeration", "max_len (--max-len) 9", 8, "MAX_ENUM_LEN"),
    ),
    "enumeration-words": (
        None, lambda: enumerate_words(parse_language(_doc("sigma12")), 6),
        ("lang", "enumerate", "sigma12", "--max-len", "6"),
        LimitExceeded, ("enumeration", "3257437 words", 1_000_000, "MAX_ENUM_WORDS"),
    ),
    "oracle-max-len": (
        None, lambda: BoundedCheckConfig(max_word_len=9), ("oracle", "all", "--max-len", "9"),
        LimitExceeded, ("oracle", "max_word_len (--max-len) 9", 8, "MAX_ENUM_LEN"),
    ),
    "oracle-max-states": (
        None, lambda: BoundedCheckConfig(max_states=10_001), ("oracle", "missext", "--max-states", "10001"),
        LimitExceeded, ("oracle", "max_states (--max-states) 10001", 10_000, "HYPERC_MAX_STATES"),
    ),
    "universe": (
        None, lambda: parse_behavioral(_doc("u65")), ("beh", "normalize", "u65", "h"),
        UniverseTooLarge, ("universe", "65 behaviors", 64, "MAX_UNIVERSE"),
    ),
    "general-mode": (
        None, lambda: parse_behavioral(_doc("u9")).compsets["h"].to_general(),
        ("beh", "compose", "u9", "h", "g", "--general"),
        UniverseTooLarge, ("general mode", "9 behaviors", 8, "GENERAL_MODE_MAX"),
    ),
    "antichains": (
        None, lambda: all_antichains(Universe("abcde")), None,
        UniverseTooLarge, ("antichain enumeration", "5 behaviors", 4, "MAX_ANTICHAIN_UNIVERSE"),
    ),
    "meet": (
        None, lambda: _compose_h_g(parse_behavioral(_doc("wide"))),
        ("beh", "compose", "wide", "h", "g"),
        LimitExceeded, ("conic composition", "1001 × 1001 = 1002001 candidates", 1_000_000, "MAX_MEET_CANDIDATES"),
    ),
    "normalize-work": (
        None, lambda: _compose_h_g(parse_behavioral(_doc("wide1000"))),
        ("beh", "compose", "wide1000", "h", "g"),
        LimitExceeded, (
            "conic composition", "999995 distinct masks × 1001 maximals kept = 1000994995 domination tests",
            1_000_000_000, "MAX_NORMALIZE_WORK",
        ),
    ),
}


@pytest.mark.parametrize("name", LIMITS)
def test_every_bound_site_raises_the_one_model(name, monkeypatch, capsys, tmp_path):
    cap, call, argv, error, model = LIMITS[name]
    if cap is None:
        monkeypatch.delenv("HYPERC_MAX_STATES", raising=False)
    else:
        monkeypatch.setenv("HYPERC_MAX_STATES", str(cap))
    with pytest.raises(LimitExceeded) as raised:
        call()
    err = raised.value
    assert type(err) is error
    assert (err.operation, err.measured, err.bound, err.knob) == model
    assert str(err) == MODEL.format(*model)
    if argv is not None:
        paths = {}
        for item in argv:
            if item in DOCS:
                paths[item] = tmp_path / f"{item}.json"
                paths[item].write_text(json.dumps(_doc(item)), encoding="utf-8")
        code, out, stderr = run(capsys, *(str(paths.get(item, item)) for item in argv))
        assert (code, out, stderr) == (2, "", f"error: {err}\n")


#: Each caller of the normalization, on two 10-maximal compsets, and the operation its refusal names.
NORMALIZERS = {
    "compose": (ConicCompset.compose, "conic composition"),
    "meet": (ConicCompset.meet, "conic meet"),
    "quotient": (ConicCompset.quotient, "conic quotient step 1 of 10"),
    "join": (ConicCompset.join, "conic join"),
    "from-components": (lambda h, _: ConicCompset.from_components(U64, h.maximals), "conic normalization"),
    "constructor": (lambda h, _: ConicCompset(U64, h.maximals), "conic normalization"),
}


@pytest.mark.parametrize("name", NORMALIZERS)
def test_normalization_work_bound_names_its_caller(name, monkeypatch):
    call, operation = NORMALIZERS[name]
    h, g = (ConicCompset(U64, scattered_antichain(seed, 10)) for seed in (1, 2))
    call(h, g)
    monkeypatch.setattr(behavioral, "MAX_NORMALIZE_WORK", 40)
    with pytest.raises(LimitExceeded) as raised:
        call(h, g)
    err = raised.value
    assert (err.operation, err.bound, err.knob) == (operation, 40, "MAX_NORMALIZE_WORK")
    masks, kept = map(int, re.fullmatch(r"(\d+) distinct masks × (\d+) maximals kept = \d+ domination tests", err.measured).groups())
    # Refused at the first maximal kept past the bound, not after the scan.
    assert masks * (kept - 1) <= 40 < masks * kept


#: One row of the README's Bounds table: bound, default, knob, guards, raises.
BOUNDS_ROW = r"\| `(\w+)\.(\w+)` \| (\d+) \| (`HYPERC_MAX_STATES`|fixed) \| [^|]+ \| `(\w+)` \|"


def test_readme_bounds_table_matches_the_constants():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("Bounds:"):]
    body = table[table.index("|--"): table.index("\n\n", table.index("|"))].splitlines()[1:]
    assert body
    knobs = {}
    for line in body:
        module, constant, default, knob, raises = re.fullmatch(BOUNDS_ROW, line).groups()
        assert getattr(importlib.import_module(f"hyperc.{module}"), constant) == int(default)
        knob = knob.strip("`") if knob != "fixed" else constant
        knobs[knob] = (int(default), raises)
    # Every knob a bound site reports is a row, with that site's class; a site run
    # without HYPERC_MAX_STATES reports the row's default.
    assert set(knobs) == {model[3] for *_, model in LIMITS.values()}
    for cap, _, _, error, (_, _, bound, knob) in LIMITS.values():
        default, raises = knobs[knob]
        assert raises == error.__name__
        assert cap is not None or bound == default
