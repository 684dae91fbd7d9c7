"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (no tolerances).  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they are produced.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from pathlib import Path

from hyperc import contracts
from hyperc.behavioral import (
    AgContract,
    BehavioralHypercontract,
    Component,
    ConicCompset,
    GeneralCompset,
    Universe,
    ag_merge_strong,
    ag_to_contract,
    all_antichains,
    contract_compose,
    contract_refines,
    convexity,
)
from hyperc.lang import IoSignature, is_subset
from hyperc.oracle import (
    BoundedCheckConfig,
    random_alphabet,
    random_prefix_closed,
    sweep_exponential,
    sweep_ia_equivalence,
    sweep_receptive_quotient,
)

DATA = Path(__file__).parent / "data"


def conclude(name: str, failures: list[str], cases: str) -> None:
    if failures:
        print(f"FAIL {name} {cases} first={failures[0]}")
    else:
        print(f"PASS {name} {cases}")
    assert not failures, f"{name}: {failures[:5]}"


def test_criterion_1_heyting_laws():
    cfg = BoundedCheckConfig(random_seed=101, num_cases=200, max_states=4)
    report = sweep_exponential(cfg)
    conclude("criterion-1 heyting-laws", report.failures, "cases=200")


def test_criterion_2_receptive_quotient():
    cfg = BoundedCheckConfig(random_seed=102, num_cases=200, max_states=4)
    report = sweep_receptive_quotient(cfg, samples_per_case=50)
    conclude("criterion-2 receptive-quotient", report.failures, "cases=200 samples=50")


def test_criterion_3_ia_contract_equivalence():
    cfg = BoundedCheckConfig(random_seed=103, num_cases=200, max_states=5)
    report = sweep_ia_equivalence(cfg)
    conclude("criterion-3 ia-contract-equivalence", report.failures, "cases=200")


def test_criterion_4_interface_composition_soundness():
    rng = random.Random(104)
    failures: list[str] = []
    checked = 0
    while checked < 200:
        alphabet = random_alphabet(rng)
        i1 = frozenset(s for s in alphabet.symbols if rng.random() < 0.5)
        i2 = (frozenset(alphabet.symbols) - i1) | frozenset(s for s in i1 if rng.random() < 0.5)
        c1 = contracts.from_s(random_prefix_closed(rng, alphabet, 4), IoSignature(alphabet, i1))
        c2 = contracts.from_s(random_prefix_closed(rng, alphabet, 4), IoSignature(alphabet, i2))
        r = contracts.compose(c1, c2)
        if isinstance(r, contracts.Incompatible):
            continue
        checked += 1
        for name, small, big in (
            ("E_R×M_S⊆E_S'", r.e.intersect(c1.m), c2.e),
            ("E_R×M_S'⊆E_S", r.e.intersect(c2.m), c1.e),
            ("M_S×M_S'⊆M_R", c1.m.intersect(c2.m), r.m),
        ):
            if not is_subset(small, big):
                failures.append(f"case={checked} {name}")
    conclude("criterion-4 interface-composition-soundness", failures, "compatible-pairs=200")


def test_criterion_5_conic_algebra_exhaustive():
    universe = Universe(("0", "1", "2", "3"))
    chains = all_antichains(universe)
    small = [ms for ms in chains if len(ms) <= 2]
    failures: list[str] = []
    compsets = {ms: ConicCompset(universe, ms) for ms in chains}
    general = {ms: compsets[ms].to_general() for ms in small}
    for ms1, ms2 in itertools.product(small, small):
        h1, h2 = compsets[ms1], compsets[ms2]
        g1, g2 = general[ms1], general[ms2]
        for name, conic, general_result in (
            ("compose", h1.compose(h2), g1.compose(g2)),
            ("meet", h1.meet(h2), g1.meet(g2)),
            ("join", h1.join(h2), g1.join(g2)),
            ("quotient", h1.quotient(h2), g1.quotient(g2)),
        ):
            if conic.to_general().members != general_result.members:
                failures.append(f"{name} {ms1} {ms2}")
    for ms1, ms2 in itertools.product(small, small):
        h1, h2 = compsets[ms1], compsets[ms2]
        q = h1.quotient(h2)
        for x, hx in compsets.items():
            if hx.compose(h2).leq(h1) != hx.leq(q):
                failures.append(f"adjunction {ms1} {ms2} x={x}")
                break
    conclude(
        "criterion-5 conic-algebra",
        failures,
        f"operand-pairs={len(small) ** 2} third-operands={len(chains)}",
    )


def test_criterion_6_ag_running_example():
    universe = Universe(("0", "1", "2", "3"))

    def comp(*bs: int) -> Component:
        return Component.from_behaviors(universe, [str(b) for b in bs])

    failures: list[str] = []
    ag1 = AgContract(comp(0, 1), comp(0, 2))
    ag2 = AgContract(comp(0, 2), comp(0, 1))
    c1, c2 = ag_to_contract(ag1), ag_to_contract(ag2)
    composite = contract_compose(c1, c2)
    if composite.env.maximals != (comp(0, 1, 2).mask,):
        failures.append(f"env={composite.env.maximals}")
    if composite.impl.maximals != (comp(0, 3).mask,):
        failures.append(f"impl={composite.impl.maximals}")
    general = contract_compose(
        BehavioralHypercontract(c1.env.to_general(), c1.impl.to_general()),
        BehavioralHypercontract(c2.env.to_general(), c2.impl.to_general()),
    )
    if composite.env.to_general() != general.env:
        failures.append("general-engine env disagrees")
    if composite.impl.to_general() != general.impl:
        failures.append("general-engine impl disagrees")
    merged = ag_merge_strong(ag1, ag2)
    if (merged.assumptions, merged.guarantees) != (comp(0), comp(0)):
        failures.append(f"merge-strong=({merged.assumptions}, {merged.guarantees})")
    bridged = ag_to_contract(merged)
    if bridged.env.maximals != (comp(0).mask,) or bridged.impl.maximals != (universe.full_mask,):
        failures.append("merge-strong bridge disagrees with the closed form")
    conclude("criterion-6 ag-running-example", failures, "universe=4")


def test_criterion_7_secure_information_flow():
    bits = [(h, s, p, o1, o2, o) for h in (0, 1) for s in (0, 1) for p in (0, 1)
            for o1 in (0, 1) for o2 in (0, 1) for o in (0, 1)]
    universe = Universe(tuple("".join(map(str, b)) for b in bits))

    def where(pred) -> Component:
        return Component.from_behaviors(
            universe, [name for name in universe.behaviors if pred(*(int(ch) for ch in name))]
        )

    failures: list[str] = []
    top = ConicCompset.full(universe)
    # top-level spec: with H low, the output is a function of the public input
    c_spec = BehavioralHypercontract(
        ConicCompset.from_components(universe, [where(lambda h, s, p, o1, o2, o: h == 0)]),
        ConicCompset.from_components(
            universe,
            [
                where(lambda h, s, p, o1, o2, o, f0=f0, f1=f1: o == (f1 if p else f0))
                for f0 in (0, 1)
                for f1 in (0, 1)
            ],
        ),
    )
    if c_spec.impl.k != 4:
        failures.append(f"spec implementations are {c_spec.impl.k}-conic, not 4")
    # component viewpoints implement f* (identity) on one privilege level each
    c1 = BehavioralHypercontract(
        top,
        ConicCompset.from_components(
            universe, [where(lambda h, s, p, o1, o2, o: (s == 1 and o1 == p) or s == 0)]
        ),
    )
    c2 = BehavioralHypercontract(
        top,
        ConicCompset.from_components(
            universe, [where(lambda h, s, p, o1, o2, o: (s == 0 and o2 == p) or s == 1)]
        ),
    )
    cc = contract_compose(c1, c2)
    expected_cc = where(lambda h, s, p, o1, o2, o: (s == 1 and o1 == p) or (s == 0 and o2 == p))
    if cc.impl.maximals != (expected_cc.mask,):
        failures.append("composite of the two viewpoints disagrees")
    # the glue knows nothing about f*: it only routes o1/o2 to o
    cr = BehavioralHypercontract(
        top,
        ConicCompset.from_components(
            universe, [where(lambda h, s, p, o1, o2, o: (s == 1 and o == o1) or (s == 0 and o == o2))]
        ),
    )
    if not cr.is_consistent():
        failures.append("router contract has no implementations")
    if not contract_refines(contract_compose(cr, cc), c_spec):
        failures.append("Cr ∥ Cc does not refine the non-interference spec")
    conclude("criterion-7 secure-information-flow", failures, "universe=64")


def test_criterion_8_convexity_suite():
    universe = Universe(("x", "y", "z"))
    failures: list[str] = []
    compsets = [
        GeneralCompset(universe, frozenset(m for m in range(8) if bits >> m & 1))
        for bits in range(256)
    ]
    for h in compsets:
        if not convexity(h).coconvex:
            failures.append(f"not co-convex: {sorted(h.members)}")
    convex_sets = [h for h in compsets if convexity(h).convex]
    for h1, h2 in itertools.product(convex_sets, repeat=2):
        if not convexity(h1.compose(h2)).convex:
            failures.append(f"convexity lost: {sorted(h1.members)} × {sorted(h2.members)}")
            break
    conclude(
        "criterion-8 convexity-suite",
        failures,
        f"compsets=256 convex-pairs={len(convex_sets) ** 2}",
    )


CLI_CORPUS: tuple[tuple[str, ...], ...] = (
    ("lang", "union", "rec_istar.json", "rec_sigma.json"),
    ("lang", "intersect", "istar.json", "sigma.json"),
    ("lang", "difference", "sigma.json", "istar.json"),
    ("lang", "complement", "istar.json"),
    ("lang", "concat-class", "istar.json", "--gamma", "o"),
    ("lang", "concat-star", "contains_o.json"),
    ("lang", "prefix-closure", "contains_o.json"),
    ("lang", "canon", "istar_partial.json"),
    ("lang", "enumerate", "contains_o.json", "--max-len", "3"),
    ("lang", "refines", "istar.json", "sigma.json"),
    ("lang", "validate", "rec_istar.json"),
    ("lang", "embed", "rec_istar.json", "--inputs", ""),
    ("lang", "missext", "istar.json", "istar.json", "--gamma", "o"),
    ("lang", "unc", "l_union.json", "sigma.json", "--gamma", "i", "--delta", "i"),
    ("lang", "exponential", "rec_istar.json", "rec_sigma.json"),
    ("lang", "exponential", "rec_istar.json", "rec_sigma.json", "--definitional"),
    ("lang", "compose", "rec_eps_a.json", "rec_astar.json"),
    ("lang", "quotient", "rec_l.json", "rec_sigma_in_o.json"),
    ("iface", "from-s", "c_istar.json"),
    ("iface", "compose", "c_eps_a_out.json", "c_eps_a_in.json"),
    ("iface", "compose", "c_eps_a_out.json", "c_eps_only_in.json"),
    ("iface", "quotient", "c_istar.json", "c_ident.json"),
    ("iface", "mirror", "c_istar.json"),
    ("iface", "refines", "c_istar.json", "c_top.json"),
    ("iface", "validate", "c_istar.json", "--implementation", "istar.json"),
    ("ia", "compose", "ia_aout.json", "ia_ain.json"),
    ("ia", "compose", "ia_aout.json", "ia_ain_empty.json"),
    ("ia", "refines", "ia_iloop.json", "ia_ioloop.json"),
    ("ia", "language", "ia_iloop.json"),
    ("ia", "to-contract", "ia_iloop.json"),
    ("beh", "compose", "beh.json", "agc1", "agc2"),
    ("beh", "compose", "beh.json", "h12", "htop", "--general"),
    ("beh", "quotient", "beh.json", "g1", "a1"),
    ("beh", "meet", "beh.json", "h12", "htop"),
    ("beh", "join", "beh.json", "h12", "hlo"),
    ("beh", "refines", "beh.json", "hlo", "htop"),
    ("beh", "normalize", "beh.json", "redundant"),
    ("beh", "saturated", "beh.json", "agc1"),
    ("beh", "convexity", "beh.json", "h12"),
    ("beh", "merge-weak", "beh.json", "agc1", "agc2"),
    ("beh", "merge-strong", "beh.json", "agc1", "agc2"),
    ("beh", "merge-strong", "beh.json", "cmix", "ctop"),
    ("beh", "ag-compose", "beh.json", "agc1", "agc2"),
    ("beh", "ag-contract", "beh.json", "agc1"),
    ("oracle", "all", "--seed", "7", "--cases", "3", "--max-len", "3"),
)


def _run_corpus() -> list[tuple[int, bytes, bytes]]:
    outcomes = []
    for argv in CLI_CORPUS:
        resolved = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        for fmt in ("text", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "hyperc", *resolved, "--format", fmt],
                capture_output=True,
                check=False,
            )
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
    return outcomes


def test_criterion_9_cli_determinism():
    first = _run_corpus()
    second = _run_corpus()
    failures = [
        f"command #{k // 2} format={'text' if k % 2 == 0 else 'json'}"
        for k, (a, b) in enumerate(zip(first, second))
        if a != b
    ]
    # the corpus must genuinely exercise the CLI: no unexpected usage errors
    failures.extend(
        f"command #{k // 2} exit=2 stderr={err[:80]!r}"
        for k, (code, _out, err) in enumerate(first)
        if code == 2
    )
    conclude("criterion-9 cli-determinism", failures, f"commands={len(first)}")
