"""Query answering: matching, the decision-tree search, retrieval tasks."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fourlqs import parse_kb, parse_query, saturate, var0, var1, var3
from fourlqs.bench import (BenchConfig, gen_family, gen_random_kb,
                           gen_random_query)
from fourlqs.core import Literal, Member1, Member3
from fourlqs.hocqa import (StaleBranchError, TaskArityError, _Plan, answer,
                           task_query)
from fourlqs.oracle import OracleBounds, brute_answers
from fourlqs.syntax import Query

from conftest import MERGE_KB
from test_engine import _ontology_kb


def _pos_branch(result):
    for br, _ in result.open_complete:
        if Literal(True, Member3(var0("Rome"), var0("Italy"),
                                 var3("locatedIn"))) in br.literals:
            return br
    raise AssertionError("positive branch not found")


def _neg_branch(result):
    for br, _ in result.open_complete:
        if Literal(False, Member3(var0("Rome"), var0("Italy"),
                                  var3("locatedIn"))) in br.literals:
            return br
    raise AssertionError("negative branch not found")


def _on_branch(result, br):
    """The saturation result narrowed to one of its branches."""
    return dataclasses.replace(
        result, packed=[p for p in result.packed if p[0] == br.lit_ints])


class TestAnswerOnOneBranch:
    """Single-conjunct queries against one Italy branch: what the packed
    matcher binds, slot by slot."""

    def test_positive_branch_two_matches(self, italy_kb, italy_result):
        q = parse_query("(rel Rome Italy ?r)", italy_kb)
        ans = answer(q, _on_branch(italy_result, _pos_branch(italy_result)))
        values = {a.binding.map3[var3("?r")].name for a in ans}
        assert values == {"locatedIn", "isPartOf"}

    def test_negative_branch_no_match(self, italy_kb, italy_result):
        q = parse_query("(rel Rome Italy ?r)", italy_kb)
        ans = answer(q, _on_branch(italy_result, _neg_branch(italy_result)))
        assert len(ans) == 0

    def test_ground_conjunct_matches_with_epsilon(self, italy_kb, italy_result):
        q = parse_query("(rel Rome Rome isPartOf)", italy_kb)
        ans = answer(q, _on_branch(italy_result, _pos_branch(italy_result)))
        assert len(ans) == 1 and ans.answers[0].binding.is_empty()

    def test_repeated_variable_within_literal(self, italy_kb, italy_result):
        q = parse_query("(rel ?v ?v isPartOf)", italy_kb)
        ans = answer(q, _on_branch(italy_result, _pos_branch(italy_result)))
        values = {a.binding.map0[var0("?v")].name for a in ans}
        assert values == {"Italy", "Rome"}

    def test_polarity_respected(self, italy_kb, italy_result):
        q = parse_query("(not (rel ?a ?b locatedIn))", italy_kb)
        ans = answer(q, _on_branch(italy_result, _neg_branch(italy_result)))
        pairs = {(a.binding.map0[var0("?a")].name,
                  a.binding.map0[var0("?b")].name) for a in ans}
        assert pairs == {("Italy", "Rome"), ("Rome", "Italy")}


class TestAnswer:
    def test_worked_example(self, italy_kb, italy_result):
        q = task_query("role-instance", ["Rome", "Italy"], italy_kb)
        ans = answer(q, italy_result)
        assert ans.keys() == {((("?r", "isPartOf"),), ()),
                              ((("?r", "locatedIn"),), ())}

    def test_lambda_query(self, italy_kb, italy_result):
        q = parse_query("", italy_kb)
        ans = answer(q, italy_result)
        assert ans.keys() == {((), ())}

    def test_no_match_empty(self, italy_kb, italy_result):
        q = parse_query("(in ?v ?c)", italy_kb)
        assert answer(q, italy_result).keys() == set()

    def test_conjunct_join(self, italy_kb, italy_result):
        q = parse_query("(rel Rome ?v locatedIn) (rel Italy ?v isPartOf)",
                        italy_kb)
        ans = answer(q, italy_result)
        assert ans.keys() == {((("?v", "Italy"),), ())}

    def test_conjunct_order_irrelevant(self, italy_kb, italy_result):
        base = parse_query("(rel Rome ?v locatedIn) (rel ?w ?v isPartOf)",
                           italy_kb)
        expected = answer(base, italy_result).keys()
        for perm in itertools.permutations(base.conjuncts):
            q = Query(tuple(perm), base.qvars0, base.qvars1, base.qvars3,
                      kb=italy_kb)
            assert answer(q, italy_result).keys() == expected

    def test_engine_independence(self, italy_kb):
        q = task_query("role-instance", ["Rome", "Italy"], italy_kb)
        keys = answer(q, saturate(italy_kb)).keys()
        assert answer(q, saturate(italy_kb, engine="ke")).keys() == keys
        assert answer(q, saturate(italy_kb, engine="foke")).keys() == keys

    def test_merges_reported(self):
        kb = parse_kb("ind a b\nlit (eq a b)\nlit (in a A)")
        res = saturate(kb)
        q = parse_query("(in ?v A)", kb)
        ans = answer(q, res)
        assert ans.keys() == {((("?v", "a"),), (("b", "a"),))}

    def test_long_query_is_not_bounded_by_recursion(self):
        """The search keeps one stack entry per conjunct, so a query far
        longer than the recursion limit is answered, as the oracle
        answers it."""
        kb = parse_kb("ind a b c\nlit (in a A)\nlit (in b A)\n"
                      "lit (not (in c A))\n")
        q = parse_query("(in ?x A) (in ?y A) " * 1000, kb)
        keys = answer(q, saturate(kb)).keys()
        assert len(keys) == 4
        assert keys == brute_answers(kb, q)

    def test_stale_branch_error(self, italy_kb, italy_result):
        other = parse_kb("lit (in a A)")
        q = parse_query("(in ?v A)", other)
        with pytest.raises(StaleBranchError):
            answer(q, italy_result)

    def test_uncollected_result_rejected(self, italy_kb):
        from fourlqs import EngineOptions
        res = saturate(italy_kb, EngineOptions(collect_branches=False))
        q = parse_query("", italy_kb)
        with pytest.raises(StaleBranchError):
            answer(q, res)

    def test_constant_unknown_to_the_kb_matches_nothing(self, italy_kb,
                                                         italy_result):
        q = Query((Literal(True, Member1(var0("Paris"), var1("?c"))),),
                  (), (var1("?c"),), (), kb=italy_kb)
        assert len(answer(q, italy_result)) == 0

    def test_inconsistent_kb_has_no_answers(self):
        kb = parse_kb(MERGE_KB)
        res = saturate(kb)
        q = parse_query("(in ?v A)", kb)
        assert answer(q, res).keys() == set()


class TestTaskQuery:
    def test_role_filler(self, italy_kb):
        q = task_query("role-filler", ["Rome", "isPartOf"], italy_kb)
        assert len(q.conjuncts) == 1 and q.qvars0[0].name == "?x"

    def test_role_filler_values(self, italy_kb, italy_result):
        q = task_query("role-filler", ["Rome", "isPartOf"], italy_kb)
        ans = answer(q, italy_result)
        got = {dict(binding)["?x"] for binding, _ in ans.keys()}
        assert got == {"Rome", "Italy"}

    def test_concept_retrieval_shape(self, italy_kb):
        q = task_query("concept-retrieval", ["Rome"], italy_kb)
        assert isinstance(q.conjuncts[0].atom, Member1)
        assert q.qvars1[0].name == "?c"

    def test_arity_errors(self, italy_kb):
        with pytest.raises(TaskArityError):
            task_query("role-filler", ["Rome"], italy_kb)
        with pytest.raises(TaskArityError):
            task_query("role-instance", ["Rome"], italy_kb)
        with pytest.raises(TaskArityError):
            task_query("concept-retrieval", ["Nowhere"], italy_kb)
        with pytest.raises(TaskArityError):
            task_query("nonsense", [], italy_kb)


class TestAgreementSample:
    def test_random_pairs_agree_with_brute_force(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(40):
            kb = parse_kb(gen_random_kb(rng))
            res = saturate(kb)
            q = parse_query(gen_random_query(rng, kb), kb)
            assert answer(q, res).keys() == brute_answers(kb, q)
            checked += 1
        assert checked == 40

    def test_wide_kb_agrees_with_brute_force(self):
        # Six individuals and few literals per branch: a conjunct with
        # two free individual slots has more candidate literals than the
        # branch has literals, so the matcher scans the branch instead of
        # probing candidates.
        kb = parse_kb("ind a b c d e f\nlit (rel a b R)\nlit (eq c d)\n"
                      "clause (forall z1) (or (in z1 A) (rel z1 a R))\n")
        res = saturate(kb)
        bounds = OracleBounds(max_individuals=6, max_set1=1, max_set3=1,
                              max_candidates=10 ** 6)
        for text in ("(rel ?x ?y R)", "(rel ?x ?y ?r) (not (in ?y A))",
                     "(rel ?x ?x ?r)", "(not (eq ?x ?y)) (in ?x ?c)"):
            q = parse_query(text, kb)
            assert answer(q, res).keys() == brute_answers(kb, q, bounds)


def _reordered(result, rnd):
    """The saturation result with its branch list shuffled and some
    branches listed twice."""
    packed = list(result.packed)
    packed += rnd.sample(packed, len(packed) // 3)
    rnd.shuffle(packed)
    return dataclasses.replace(result, packed=packed)


def _assert_matches_brute_force(kb, result, q, rnd):
    got = answer(q, result)
    assert got.keys() == brute_answers(kb, q)
    keys = [a.key() for a in got]
    assert [a.key() for a in answer(q, _reordered(result, rnd))] == keys


# Tasks A, B and C and the two-conjunct query of the ontology-query
# benchmark, on its KB.
ONTOLOGY_QUERIES = ("(rel a ?x R)", "(in a ?c)", "(rel a b ?r)",
                    "(rel a ?y R) (in ?y ?c)")


class TestMatcherProperties:
    """The projection matcher against ``oracle.brute_answers``, and its
    independence of branch order and repetition."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.randoms(use_true_random=False))
    def test_random_equality_kbs(self, seed, rnd):
        rng = random.Random(seed)
        text = next(t for t in (gen_random_kb(rng) for _ in range(100))
                    if "eq" in t)
        kb = parse_kb(text)
        q = parse_query(gen_random_query(rng, kb), kb)
        _assert_matches_brute_force(kb, saturate(kb), q, rnd)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32), st.randoms(use_true_random=False))
    def test_merge_kb(self, seed, rnd):
        kb = parse_kb(MERGE_KB)
        q = parse_query(gen_random_query(random.Random(seed), kb), kb)
        _assert_matches_brute_force(kb, saturate(kb), q, rnd)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 32), st.randoms(use_true_random=False))
    def test_ontology_query_shape(self, seed, rnd):
        kb = _ontology_kb()
        result = saturate(kb)
        assert any(sigma for _, sigma in result.packed)
        text = gen_random_query(random.Random(seed), kb)
        for t in (text, rnd.choice(ONTOLOGY_QUERIES)):
            _assert_matches_brute_force(kb, result, parse_query(t, kb), rnd)

    def test_one_search_per_distinct_projection(self, monkeypatch):
        kb = parse_kb(gen_family(BenchConfig(individuals=3, clauses=1))
                      + "lit (not (in a A))\n")
        result = saturate(kb)
        assert result.open_count == 850
        calls = []
        real_search = _Plan.search

        def counting_search(plan, patterns, lits, out):
            calls.append(lits)
            return real_search(plan, patterns, lits, out)

        monkeypatch.setattr(_Plan, "search", counting_search)
        for text in ("(rel a ?x P)", "(in a ?c)", "(rel a b ?r)",
                     "(rel a ?y P) (in ?y ?c)"):
            calls.clear()
            q = parse_query(text, kb)
            assert answer(q, result).keys() == brute_answers(kb, q)
            # 1, 3, 1 and 82 distinct projections of the 850 branches.
            assert 0 < len(calls) <= 850 // 8, text
            assert len(set(calls)) == len(calls), text
