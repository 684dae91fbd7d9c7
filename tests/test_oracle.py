"""The checkers themselves: they pass on the real operators and catch
deliberately corrupted formulas with a shortest counterexample."""

from __future__ import annotations

import pytest

from conftest import lang_of
from hyperc.errors import LimitExceeded
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
