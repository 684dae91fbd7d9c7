"""The checkers themselves: they pass on the real operators and catch
deliberately corrupted formulas with a shortest counterexample."""

from __future__ import annotations

import pytest

from conftest import lang_of
from hyperc import automata, contracts, oracle, receptive
from hyperc.behavioral import ConicCompset
from hyperc.errors import HypercError, LimitExceeded
from hyperc.lang import Alphabet, IoSignature, concat_symbol_class, sigma_star, star_of
from hyperc.oracle import (
    ORACLE_KINDS,
    BoundedCheckConfig,
    check_missext_definition,
    check_unc_definition,
    random_receptive,
    run_all,
    run_check,
    sweep_interface_compose,
    sweep_receptive_quotient,
)

FAST = BoundedCheckConfig(max_word_len=4, random_seed=3, num_cases=20, max_states=4)


class TestConfig:
    def test_word_len_cap(self):
        with pytest.raises(LimitExceeded):
            BoundedCheckConfig(max_word_len=9)

    def test_defaults(self):
        cfg = BoundedCheckConfig()
        assert (cfg.max_word_len, cfg.num_cases, cfg.max_states) == (6, 200, 5)


class TestPerInstanceCheckers:
    def test_missext_passes_on_closed_form(self, ab, istar):
        assert check_missext_definition(istar, istar, {"o"}, FAST) == []

    def test_unc_empty_gamma_passes(self, ab, istar, top):
        assert check_unc_definition(istar, top, (), {"i"}, FAST) == []

    def test_missext_mutation_caught_with_shortest_witness(self, ab, istar):
        # Drop the trailing ∘Σ* from the formula: the first divergence is the
        # shortest genuinely-extended word, here i o i ... actually o i? The
        # mutated set misses every proper extension; first failing word: "oi".
        mutated = concat_symbol_class(istar.intersect(istar), {"o"}).difference(istar)
        failures = check_missext_definition(istar, istar, {"o"}, FAST, candidate=mutated)
        assert failures
        first = failures[0]
        assert "word=oi" in first and "expected=True" in first and "got=False" in first

    def test_unc_mutation_caught(self, ab, istar, top):
        l1 = istar.union(lang_of(ab, "o"))
        # Forgetting the Σ*-closure leaves only the uncontrollable core.
        from hyperc.receptive import unc

        good = unc(l1, top, {"i"}, {"i"})
        mutated = lang_of(ab, "o")
        failures = check_unc_definition(l1, top, {"i"}, {"i"}, FAST, candidate=mutated)
        assert failures and "word=oi" in failures[0]
        assert check_unc_definition(l1, top, {"i"}, {"i"}, FAST, candidate=good) == []

    def test_unc_definition_handles_non_prefix_closed_operands(self, ab):
        # The operator is defined for arbitrary languages; feed it one whose
        # endpoint-only quantifier differs from a stay-inside reading.
        hole = lang_of(ab, "", "ii", "iii")  # 'i' missing: paths leave and re-enter
        other = sigma_star(ab)
        from hyperc.receptive import unc

        assert check_unc_definition(other, hole, {"i"}, {"i"}, FAST) == []
        assert check_unc_definition(hole, other, {"o"}, {"i"}, FAST) == []


class TestSweeps:
    @pytest.mark.parametrize("kind", sorted(ORACLE_KINDS))
    def test_kind_passes(self, kind):
        report = run_check(kind, FAST)
        assert report.ok, report.failures[:3]
        assert report.lines() == [f"PASS {kind} cases={FAST.num_cases}"]

    def test_run_all_covers_every_kind(self):
        reports = run_all(FAST)
        assert [r.kind for r in reports] == list(ORACLE_KINDS)
        assert all(r.ok for r in reports)

    def test_full_suite_passes_at_default_config(self):
        reports = run_all(BoundedCheckConfig())
        bad = [line for r in reports if not r.ok for line in r.failures[:2]]
        assert not bad, bad

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            run_check("nope", FAST)

    def test_reports_are_seed_deterministic(self):
        a = sweep_receptive_quotient(FAST)
        b = sweep_receptive_quotient(FAST)
        assert a.to_dict() == b.to_dict()

    def test_interface_compose_notes(self):
        report = sweep_interface_compose(FAST)
        assert "incompatible_cases" in report.notes
        assert "quotient_cross_check_skips" in report.notes

    def test_notes_without_cases(self):
        reports = run_all(BoundedCheckConfig(num_cases=0))
        assert {r.kind: r.notes for r in reports} == {
            "missext": {},
            "unc": {"witness_state_bound": 0},
            "exponential": {},
            "receptive-quotient": {},
            "interface-compose": {"incompatible_cases": 0, "quotient_cross_check_skips": 0},
            "ia-equivalence": {"incompatible_cases": 0},
            "conic-quotient": {"third_operands": 168},
            "conic-ops": {},
        }
        assert all(r.lines() == [f"PASS {r.kind} cases=0"] for r in reports)


def _boom(*_):
    raise HypercError("boom")


def _asymmetric_compose(c1, c2):
    if sorted(c1.io.inputs) < sorted(c2.io.inputs):
        return contracts.Incompatible()
    return _REAL_COMPOSE(c1, c2)


_REAL_COMPOSE = contracts.compose
_REAL_REFINES = automata.refines
_PINNED = BoundedCheckConfig(max_word_len=4, random_seed=5, num_cases=12, max_states=4)
_IFACE_NOTES = {"incompatible_cases": 4, "quotient_cross_check_skips": 0}

#: Per corrupted operator, the pinned report summary (first failure line, number
#: of failures, notes) of every kind that fails, and of the kinds listed with
#: no failure whose notes the corruption moves.
_CORRUPTIONS = {
    "none": (
        None, None, None,
        {
            "unc": (None, 0, {"witness_state_bound": 16}),
            "interface-compose": (None, 0, _IFACE_NOTES),
            "ia-equivalence": (None, 0, {"incompatible_cases": 10}),
            "conic-quotient": (None, 0, {"third_operands": 168}),
        },
    ),
    "miss_ext": (
        oracle, "miss_ext", lambda l, l2, g: receptive.miss_ext(l, l2, ()),
        {"missext": ("FAIL missext case=2 word=aba expected=True got=False", 112, {})},
    ),
    "unc": (
        oracle, "unc", lambda l, l2, g, d: receptive.unc(l, l2, (), d),
        {"unc": ("FAIL unc case=4 word=ε expected=True got=False", 180, {"witness_state_bound": 16})},
    ),
    "exponential-wrong": (
        oracle, "exponential", lambda t, o: receptive.bottom(t.io),
        {"exponential": ("FAIL exponential case=0 expected=definitional-form got=closed-form", 9, {})},
    ),
    "exponential-raises": (
        oracle, "exponential", _boom,
        {"exponential": ("FAIL exponential case=0 error=boom", 12, {})},
    ),
    "quotient-wrong": (
        oracle, "quotient", lambda a, b: receptive.bottom(receptive.quotient_signature(a.io, b.io)),
        {
            "receptive-quotient": ("FAIL receptive-quotient case=0 word=sample0 expected=True got=False", 48, {}),
            "interface-compose": ("FAIL interface-compose case=5 expected=E_R=quotient-meet got=mismatch", 2, _IFACE_NOTES),
        },
    ),
    "quotient-raises": (
        oracle, "quotient", _boom,
        {
            "receptive-quotient": ("FAIL receptive-quotient case=0 error=boom", 12, {}),
            "interface-compose": (None, 0, {"incompatible_cases": 4, "quotient_cross_check_skips": 8}),
        },
    ),
    "contracts.compose": (
        contracts, "compose", _asymmetric_compose,
        {
            "interface-compose": ("FAIL interface-compose case=0 expected=commutative got=asymmetric", 8, _IFACE_NOTES),
            "ia-equivalence": (
                "FAIL ia-equivalence case=2 word=incompatibility expected=True got=False", 2, {"incompatible_cases": 10}
            ),
        },
    ),
    "automata.refines": (
        automata, "refines", lambda a1, a2: not _REAL_REFINES(a1, a2),
        {
            "ia-equivalence": (
                "FAIL ia-equivalence case=0 word=refinement expected=False got=True", 12, {"incompatible_cases": 0}
            ),
        },
    ),
    "ConicCompset.quotient": (
        ConicCompset, "quotient", lambda self, other: self,
        {
            "conic-quotient": (
                "FAIL conic-quotient case=0 word=(2, 5) expected=True got=False", 8, {"third_operands": 168}
            ),
            "conic-ops": ("FAIL conic-ops case=0 word=quotient expected=general-engine got=conic", 8, {}),
        },
    ),
}


@pytest.mark.parametrize("name", list(_CORRUPTIONS))
def test_sweep_reports_pinned(monkeypatch, name):
    """Each sweep's failure format, the case it first fails on (so its draw
    order) and its notes, one corrupted operator at a time."""
    target, attr, corrupt, expected = _CORRUPTIONS[name]
    if target is not None:
        monkeypatch.setattr(target, attr, corrupt)
    got = {
        r.kind: (r.failures[0] if r.failures else None, len(r.failures), r.notes)
        for r in run_all(_PINNED)
        if not r.ok or r.kind in expected
    }
    assert got == expected


class TestGenerators:
    def test_random_receptive_is_valid_by_construction(self):
        import random

        rng = random.Random(0)
        ab = Alphabet(("a", "b"))
        for _ in range(50):
            io = IoSignature(ab, frozenset({"a"}))
            r = random_receptive(rng, io, 5)
            # construction re-validates; also the floor must be present
            from hyperc.lang import is_subset

            assert is_subset(star_of(ab, {"a"}), r.lang)
