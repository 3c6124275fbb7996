"""The two comparison engines: grounding, parity with the fused rule."""

import random

from fourlqs import parse_kb, saturate
from fourlqs.bench import BenchConfig, gen_family, gen_random_kb
from fourlqs.core import atom_vars
from fourlqs.engine import CompiledKb

from conftest import CONTRADICTION_KB


def _grounding(kb):
    """The up-front grounding ke runs on, decoded: one tuple of ground
    disjuncts per instance, clause order first."""
    comp = CompiledKb(kb)
    return [tuple(comp.decode(l) for l in inst) for inst in comp.instances]


class TestGroundExpand:
    def test_reflexive_clause_two_individuals(self, italy_kb):
        instances = _grounding(italy_kb)
        assert len(instances) == 6
        ref = [(g[0].atom.first.name, g[0].atom.second.name,
                g[0].atom.set3.name) for g in instances[:2]]
        assert ref == [("Italy", "Italy", "isPartOf"),
                       ("Rome", "Rome", "isPartOf")]
        incl = instances[2:]
        assert len(incl) == 4 and all(len(g) == 2 for g in incl)

    def test_tau_order_is_lexicographic(self, italy_kb):
        incl = _grounding(italy_kb)[2:]
        firsts = [(g[0].atom.first.name, g[0].atom.second.name)
                  for g in incl]
        assert firsts == [("Italy", "Italy"), ("Italy", "Rome"),
                          ("Rome", "Italy"), ("Rome", "Rome")]

    def test_benchmark_clause_sixteen_instances(self):
        kb = parse_kb(gen_family(BenchConfig(individuals=4, clauses=1)))
        assert len(_grounding(kb)) == 16

    def test_no_quantified_variables_remain(self, italy_kb):
        for g in _grounding(italy_kb):
            for d in g:
                assert not any(v.quantified for v in atom_vars(d.atom))


def _branch_multiset(result):
    return sorted(sorted(map(repr, br.literals))
                  for br, _ in result.open_complete)


class TestParity:
    def test_worked_example(self, italy_kb, italy_result):
        ke = saturate(italy_kb, engine="ke")
        foke = saturate(italy_kb, engine="foke")
        assert ke.open_count == foke.open_count == italy_result.open_count == 2
        assert _branch_multiset(ke) == _branch_multiset(foke) == \
            _branch_multiset(italy_result)

    def test_contradiction(self):
        kb = parse_kb(CONTRADICTION_KB)
        for run in (saturate(kb, engine="ke"), saturate(kb, engine="foke")):
            assert not run.consistent
            assert run.closed_count == 1

    def test_random_corpus_counts_and_literal_sets(self):
        rng = random.Random(2718)
        for _ in range(40):
            kb = parse_kb(gen_random_kb(rng))
            keg = saturate(kb)
            ke = saturate(kb, engine="ke")
            foke = saturate(kb, engine="foke")
            assert keg.open_count == ke.open_count == foke.open_count
            assert keg.closed_count == ke.closed_count == foke.closed_count
            assert _branch_multiset(keg) == _branch_multiset(ke) == \
                _branch_multiset(foke)
            assert keg.consistent == ke.consistent == foke.consistent

    def test_product_family_small_sizes(self):
        for n in (1, 2):
            kb = parse_kb(gen_family(BenchConfig(individuals=n, clauses=1)))
            keg = saturate(kb)
            ke = saturate(kb, engine="ke")
            foke = saturate(kb, engine="foke")
            assert keg.open_count == ke.open_count == foke.open_count
            assert keg.closed_count == ke.closed_count == foke.closed_count

    def test_rule_application_counts_agree_between_keg_and_ke(self, italy_kb):
        # Same decision tree, so the elimination/split step counts match;
        # foke additionally counts its instantiation steps.
        keg = saturate(italy_kb)
        ke = saturate(italy_kb, engine="ke")
        foke = saturate(italy_kb, engine="foke")
        assert keg.stats.rule_apps == ke.stats.rule_apps == foke.stats.rule_apps
        assert keg.stats.pb_apps == ke.stats.pb_apps == foke.stats.pb_apps
        assert foke.stats.gamma_apps > 0 and keg.stats.gamma_apps == 0

    def test_memory_ordering(self, italy_kb):
        keg = saturate(italy_kb)
        foke = saturate(italy_kb, engine="foke")
        assert keg.stats.peak_resident_formulae <= \
            foke.stats.peak_resident_formulae
