"""Ground-truth machinery: model checking, enumeration, extraction."""

import itertools
import random

import pytest

from fourlqs import parse_kb, parse_query, saturate, var0, var1, var3
from fourlqs.bench import gen_random_kb
from fourlqs.core import PreconditionError, substitution0
from fourlqs.oracle import (BoundsExceededError, Interpretation, OracleBounds,
                            brute_answers, enumerate_models, extract_model,
                            has_model_over_quotient, is_consistent,
                            model_check, partitions, reference_saturate)

from conftest import MERGE_KB


def interp(domain, a0=None, a1=None, a3=None):
    return Interpretation(domain=tuple(domain),
                          assign0=dict(a0 or {}),
                          assign1={k: frozenset(v) for k, v in (a1 or {}).items()},
                          assign3={k: frozenset(v) for k, v in (a3 or {}).items()})


class TestModelCheck:
    def test_reflexive_clause_on_full_diagonal(self, italy_kb):
        m = interp(["Italy", "Rome"],
                   a0={var0("Italy"): "Italy", var0("Rome"): "Rome"},
                   a3={var3("isPartOf"): {("Italy", "Italy"), ("Rome", "Rome")},
                       var3("locatedIn"): set()})
        ref_clause = italy_kb.clauses[0]
        assert model_check(m, ref_clause)
        assert model_check(m, italy_kb)

    def test_inclusion_clause_with_witness(self, italy_kb):
        m = interp(["Italy", "Rome"],
                   a0={var0("Italy"): "Italy", var0("Rome"): "Rome"},
                   a3={var3("locatedIn"): {("Rome", "Italy")},
                       var3("isPartOf"): set()})
        incl = italy_kb.clauses[1]
        assert not model_check(m, incl)

    def test_unassigned_variable(self):
        kb = parse_kb("lit (in a A)")
        m = interp(["a"], a0={}, a1={var1("A"): {"a"}})
        from fourlqs.oracle import UnassignedVariableError
        with pytest.raises(UnassignedVariableError):
            model_check(m, kb)


class TestExtractModel:
    def test_worked_example_branches(self, italy_kb, italy_result):
        extents = []
        for br, sigma in italy_result.open_complete:
            m = extract_model(br, sigma, italy_kb)
            assert model_check(m, italy_kb)
            for lit in br.literals:
                assert model_check(m, lit)
            extents.append((sorted(m.assign3[var3("locatedIn")]),
                            sorted(m.assign3[var3("isPartOf")])))
        assert ([], [("Italy", "Italy"), ("Rome", "Rome")]) in extents
        assert ([("Rome", "Italy")],
                [("Italy", "Italy"), ("Rome", "Italy"), ("Rome", "Rome")]) in extents

    def test_merged_domain(self):
        kb = parse_kb("lit (eq a b)\nlit (in a A)")
        res = saturate(kb)
        assert res.open_count == 1
        br, sigma = res.open_complete[0]
        m = extract_model(br, sigma, kb)
        assert m.domain == ("a",)
        assert m.assign1[var1("A")] == frozenset({"a"})
        assert model_check(m, kb)

    def test_closed_branch_rejected(self):
        kb = parse_kb("lit (in a A)")
        lits = [kb.literals[0],
                kb.literals[0].__class__(False, kb.literals[0].atom)]
        with pytest.raises(PreconditionError):
            extract_model(lits, substitution0({}), kb)


class TestEnumerateModels:
    def test_single_membership(self):
        kb = parse_kb("lit (in a A)")
        models = list(enumerate_models(kb))
        assert len(models) == 1
        assert models[0].assign1[var1("A")] == frozenset({"a"})

    def test_unsatisfiable(self):
        kb = parse_kb("lit (not (eq a a))")
        assert list(enumerate_models(kb)) == []

    def test_worked_example_has_models(self, italy_kb):
        models = list(enumerate_models(italy_kb))
        assert models
        for m in models:
            assert model_check(m, italy_kb)

    def test_bounds_refusal(self):
        kb = parse_kb("ind a b c d e\nlit (in a A)")
        with pytest.raises(BoundsExceededError):
            list(enumerate_models(kb, OracleBounds(max_individuals=4)))

    def test_matches_naive_product_enumeration(self):
        # Cross-check the pruned backtracking against the obvious
        # product-space filter on small instances.
        rng = random.Random(31337)
        for _ in range(25):
            text = gen_random_kb(rng, max_individuals=2, max_set1=2,
                                 max_set3=1, max_clauses=2, max_disjuncts=3)
            kb = parse_kb(text)
            got = {self.fingerprint(m) for m in enumerate_models(kb)}
            want = {self.fingerprint(m) for m in self.naive_models(kb)}
            assert got == want, text

    @staticmethod
    def fingerprint(m):
        return (m.domain,
                tuple(sorted((v.name, tuple(sorted(e)))
                             for v, e in m.assign1.items())),
                tuple(sorted((v.name, tuple(sorted(e)))
                             for v, e in m.assign3.items())))

    @staticmethod
    def naive_models(kb):
        for blocks in partitions(kb.var0_order):
            rep = {}
            for block in blocks:
                for v in block:
                    rep[v] = block[0].name
            domain = []
            for v in kb.var0_order:
                if rep[v] not in domain:
                    domain.append(rep[v])
            cells1 = [(s, d) for s in kb.var1_order for d in domain]
            cells3 = [(r, a, b) for r in kb.var3_order
                      for a in domain for b in domain]
            for bits1 in itertools.product([False, True], repeat=len(cells1)):
                for bits3 in itertools.product([False, True],
                                               repeat=len(cells3)):
                    a1 = {s: frozenset(d for (s2, d), v in zip(cells1, bits1)
                                       if s2 is s and v)
                          for s in kb.var1_order}
                    a3 = {r: frozenset((a, b) for (r2, a, b), v
                                       in zip(cells3, bits3) if r2 is r and v)
                          for r in kb.var3_order}
                    m = Interpretation(domain=tuple(domain),
                                       assign0={v: rep[v] for v in kb.var0_order},
                                       assign1=a1, assign3=a3)
                    if model_check(m, kb):
                        yield m


class TestReferenceSaturate:
    def test_worked_example(self, italy_kb, italy_result):
        branches, closed = reference_saturate(italy_kb)
        assert len(branches) == 2 and closed == 0
        ref_sets = sorted(sorted(map(repr, b.literal_set())) for b in branches)
        eng_sets = sorted(sorted(map(repr, br.literals))
                          for br, _ in italy_result.open_complete)
        assert ref_sets == eng_sets

    def test_merge_kb_inconsistent(self):
        kb = parse_kb(MERGE_KB)
        branches, closed = reference_saturate(kb)
        assert branches == [] and closed == 1


class TestBruteAnswers:
    def test_worked_example_role_instance(self, italy_kb):
        q = parse_query("(rel Rome Italy ?r)", italy_kb)
        keys = brute_answers(italy_kb, q)
        assert keys == {((("?r", "isPartOf"),), ()),
                        ((("?r", "locatedIn"),), ())}

    def test_lambda_on_consistent(self, italy_kb):
        q = parse_query("", italy_kb)
        assert brute_answers(italy_kb, q) == {((), ())}

    def test_any_query_on_inconsistent(self):
        kb = parse_kb(MERGE_KB)
        q = parse_query("(in ?v A)", kb)
        assert brute_answers(kb, q) == set()

    def test_no_matching_set(self, italy_kb):
        q = parse_query("(in ?v ?c)", italy_kb)
        assert brute_answers(italy_kb, q) == set()


class TestSemanticSideChecks:
    def test_answers_have_witnessing_models(self, italy_kb):
        from fourlqs.core import Literal, Member3
        q = parse_query("(rel Rome Italy ?r)", italy_kb)
        for (binding, merges) in brute_answers(italy_kb, q):
            lit = Literal(True, Member3(var0("Rome"), var0("Italy"),
                                        var3(dict(binding)["?r"])))
            assert has_model_over_quotient(italy_kb, substitution0({}), [lit])

    def test_quotient_respected(self):
        kb = parse_kb("lit (not (eq a b))")
        merged = substitution0({var0("b"): var0("a")})
        assert not has_model_over_quotient(kb, merged)
        assert has_model_over_quotient(kb, substitution0({}))


class TestConsistencyAgreementSample:
    def test_random_sample(self):
        rng = random.Random(99)
        for _ in range(40):
            kb = parse_kb(gen_random_kb(rng))
            assert saturate(kb).consistent == is_consistent(kb)
