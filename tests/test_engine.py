"""Saturation engine: rule operations, the worked example, equality
phase, determinism, bounds and limits."""

import json
import os
import random
import sys

import pytest

from fourlqs import (EngineOptions, Instantiation, Literal, Member3,
                     ResourceLimitError, UniversalClause, complement, egamma,
                     equality_normalize, is_closed, is_fulfilled, parse_kb,
                     qvar0, saturate, select_pb_literal, substitution0, var0,
                     var3)
from fourlqs.bench import gen_random_kb
from fourlqs.core import Eq, Member1, PreconditionError, var1
from fourlqs.engine import Branch, ModelBuilder
from fourlqs.oracle import is_consistent, reference_saturate

from conftest import CONTRADICTION_KB, DEEP_KB, MERGE_KB


def rel(a, b, r, positive=True):
    return Literal(positive, Member3(var0(a), var0(b), var3(r)))


class TestSaturateExamples:
    def test_immediate_contradiction(self):
        res = saturate(parse_kb(CONTRADICTION_KB))
        assert not res.consistent
        assert res.open_count == 0 and res.closed_count == 1

    def test_worked_example_branches(self, italy_result):
        assert italy_result.consistent
        assert italy_result.open_count == 2
        sets = [br.literal_set() for br, _ in italy_result.open_complete]
        common = {rel("Italy", "Italy", "isPartOf"),
                  rel("Rome", "Rome", "isPartOf"),
                  rel("Italy", "Rome", "locatedIn", positive=False)}
        assert all(common <= s for s in sets)
        with_pos = [s for s in sets if rel("Rome", "Italy", "locatedIn") in s]
        assert len(with_pos) == 1
        assert rel("Rome", "Italy", "isPartOf") in with_pos[0]
        without = [s for s in sets if s is not with_pos[0]][0]
        assert rel("Rome", "Italy", "locatedIn", positive=False) in without

    def test_equality_closes_after_substitution(self):
        res = saturate(parse_kb(MERGE_KB))
        assert not res.consistent
        assert res.open_count == 0 and res.closed_count == 1

    def test_returned_branches_are_equality_free(self):
        kb = parse_kb("ind a b\nlit (eq b a)\nlit (in b A)")
        res = saturate(kb)
        assert res.open_count == 1
        br, sigma = res.open_complete[0]
        for lit in br.literals:
            if isinstance(lit.atom, Eq) and lit.positive:
                assert lit.atom.left is lit.atom.right
        assert sigma.get(var0("b")) is var0("a")


class TestEgamma:
    def setup_method(self):
        z1, z2 = qvar0("z1"), qvar0("z2")
        self.incl = UniversalClause(
            (z1, z2), (Literal(False, Member3(z1, z2, var3("loc"))),
                       Literal(True, Member3(z1, z2, var3("iPO")))))
        self.tau = substitution0({z1: var0("R"), z2: var0("I")})

    def test_example_left_branch_step(self):
        inst = Instantiation(self.incl, self.tau)
        branch = [rel("R", "I", "loc")]
        assert egamma(inst, branch) == rel("R", "I", "iPO")

    def test_unary_clause_needs_no_complements(self):
        z1 = qvar0("z1")
        ref = UniversalClause((z1,), (Literal(True, Member3(z1, z1, var3("iPO"))),))
        inst = Instantiation(ref, substitution0({z1: var0("x")}))
        assert egamma(inst, []) == rel("x", "x", "iPO")

    def test_too_many_unresolved(self):
        z1 = qvar0("z1")
        tri = UniversalClause((z1,), (
            Literal(True, Member1(z1, var1("A"))),
            Literal(True, Member1(z1, var1("B"))),
            Literal(True, Member1(z1, var1("C")))))
        inst = Instantiation(tri, substitution0({z1: var0("a")}))
        branch = [Literal(False, Member1(var0("a"), var1("A")))]
        with pytest.raises(PreconditionError):
            egamma(inst, branch)

    def test_discharged_instance_rejected(self):
        inst = Instantiation(self.incl, self.tau)
        branch = [rel("R", "I", "iPO")]
        with pytest.raises(PreconditionError):
            egamma(inst, branch)


class TestSelectPbLiteral:
    def setup_method(self):
        z1 = qvar0("z1")
        self.cl = UniversalClause((z1,), (
            Literal(True, Member1(z1, var1("A"))),
            Literal(True, Member1(z1, var1("B")))))
        self.inst = Instantiation(self.cl, substitution0({z1: var0("a")}))

    def test_lowest_index_first(self):
        assert select_pb_literal(self.inst, []) == \
            Literal(False, Member1(var0("a"), var1("A")))

    def test_skips_present_complement(self):
        branch = [Literal(False, Member1(var0("a"), var1("A")))]
        # One complement present leaves one unresolved: elimination applies,
        # so the split is refused.
        with pytest.raises(PreconditionError):
            select_pb_literal(self.inst, branch)

    def test_three_disjuncts_second_pick(self):
        z1 = qvar0("z1")
        cl = UniversalClause((z1,), (
            Literal(True, Member1(z1, var1("A"))),
            Literal(True, Member1(z1, var1("B"))),
            Literal(True, Member1(z1, var1("C")))))
        inst = Instantiation(cl, substitution0({z1: var0("a")}))
        branch = [Literal(False, Member1(var0("a"), var1("A")))]
        assert select_pb_literal(inst, branch) == \
            Literal(False, Member1(var0("a"), var1("B")))

    def test_egamma_fires_after_enough_splits(self):
        # Five-disjunct benchmark clause: after n-1 complements are on the
        # branch the elimination rule takes over.
        z1 = qvar0("z1")
        names = ["A", "B", "C", "D", "E"]
        cl = UniversalClause((z1,), tuple(
            Literal(True, Member1(z1, var1(n))) for n in names))
        inst = Instantiation(cl, substitution0({z1: var0("a")}))
        branch = []
        for _ in range(len(names) - 1):
            pb = select_pb_literal(inst, branch)
            branch.append(pb)
        assert egamma(inst, branch) == Literal(True, Member1(var0("a"),
                                                             var1("E")))


class TestEqualityNormalize:
    def test_no_equalities(self, italy_kb, italy_result):
        br, _ = italy_result.open_complete[0]
        assert equality_normalize(br, italy_kb).is_empty()

    def test_min_rule(self):
        kb = parse_kb("ind a b\nlit (eq b a)")
        sigma = equality_normalize(list(kb.literals), kb)
        assert sigma.get(var0("b")) is var0("a")
        assert sigma.get(var0("a")) is var0("a")

    def test_chain_collapses_to_minimum(self):
        kb = parse_kb("ind a b c\nlit (eq b c)\nlit (eq c a)")
        sigma = equality_normalize(list(kb.literals), kb)
        assert sigma.get(var0("b")) is var0("a")
        assert sigma.get(var0("c")) is var0("a")
        # x sigma = y sigma for every equality on the branch
        for lit in kb.literals:
            assert sigma.get(lit.atom.left) is sigma.get(lit.atom.right)
        # idempotent
        for v in kb.var0_order:
            assert sigma.get(sigma.get(v)) is sigma.get(v)


class TestIsFulfilled:
    def test_reflexive_clause(self, italy_kb):
        ref = italy_kb.clauses[0]
        both = [rel("Italy", "Italy", "isPartOf"),
                rel("Rome", "Rome", "isPartOf")]
        assert is_fulfilled(ref, both, italy_kb)
        assert not is_fulfilled(ref, both[:1], italy_kb)

    def test_vacuous_without_individuals(self):
        kb = parse_kb("clause (forall z) (or (in z A))")
        assert is_fulfilled(kb.clauses[0], [], kb)


class TestIsClosed:
    def test_complementary_pair(self):
        l = Literal(True, Member1(var0("x"), var1("A")))
        assert is_closed([l, complement(l)])

    def test_negated_trivial_equality(self):
        assert is_closed([Literal(False, Eq(var0("x"), var0("x")))])

    def test_symmetric_equality_is_not_syntactic_closure(self):
        lits = [Literal(True, Eq(var0("x"), var0("y"))),
                Literal(False, Eq(var0("y"), var0("x")))]
        assert not is_closed(lits)
        # ... but saturation still rejects the KB via the equality phase.
        kb = parse_kb("lit (eq x y)\nlit (not (eq y x))")
        assert not saturate(kb).consistent
        assert not is_consistent(kb)


class TestDeterminismAndLimits:
    def test_identical_runs_identical_branches(self):
        rng = random.Random(5)
        text = gen_random_kb(rng)
        kb = parse_kb(text)
        r1 = saturate(kb)
        r2 = saturate(kb)
        assert [br.lit_ints for br, _ in r1.open_complete] == \
            [br.lit_ints for br, _ in r2.open_complete]
        assert r1.stats.rule_apps == r2.stats.rule_apps
        assert r1.stats.pb_apps == r2.stats.pb_apps

    def test_branch_limit(self, italy_kb):
        with pytest.raises(ResourceLimitError) as err:
            saturate(italy_kb, EngineOptions(max_branches=1))
        partial = err.value.partial
        assert partial.open_count + partial.closed_count == 1

    def test_time_limit_zero(self):
        # A zero-second budget trips on the first deadline check of a
        # large exploration.
        from fourlqs.bench import BenchConfig, gen_family
        kb = parse_kb(gen_family(BenchConfig(individuals=4, clauses=1)))
        with pytest.raises(ResourceLimitError):
            saturate(kb, EngineOptions(max_seconds=0.0,
                                       collect_branches=False))

    def test_height_bound_tracked(self, italy_result):
        # p + sum of disjuncts * k^quantifiers = 1 + 1*2 + 2*4 = 11
        assert italy_result.stats.peak_branch_literals <= 11

    def test_parallel_equals_serial(self):
        rng = random.Random(17)
        for _ in range(5):
            kb = parse_kb(gen_random_kb(rng))
            serial = saturate(kb)
            parallel = saturate(kb, EngineOptions(workers=2))
            assert serial.open_count == parallel.open_count
            assert serial.closed_count == parallel.closed_count
            assert serial.stats.rule_apps == parallel.stats.rule_apps
            assert serial.stats.pb_apps == parallel.stats.pb_apps
            assert [br.lit_ints for br, _ in serial.open_complete] == \
                [br.lit_ints for br, _ in parallel.open_complete]

    def test_engine_matches_reference_on_random_corpus(self):
        rng = random.Random(4242)
        for _ in range(30):
            kb = parse_kb(gen_random_kb(rng))
            res = saturate(kb)
            ref_branches, ref_closed = reference_saturate(kb)
            assert res.open_count == len(ref_branches)
            assert res.closed_count == ref_closed
            eng = sorted(sorted(map(repr, br.literal_set()))
                         for br, _ in res.open_complete)
            ref = sorted(sorted(map(repr, b.literal_set()))
                         for b in ref_branches)
            assert eng == ref

    def test_returned_branches_open_and_fulfilled(self):
        # Open always; fulfillment over the original individuals is
        # checkable directly whenever the branch merged nothing.
        rng = random.Random(918)
        checked = 0
        for _ in range(25):
            kb = parse_kb(gen_random_kb(rng))
            for br, sigma in saturate(kb).open_complete:
                assert not is_closed(br)
                if sigma.is_empty():
                    for cl in kb.clauses:
                        assert is_fulfilled(cl, br, kb)
                    checked += 1
        assert checked > 10

    def test_parallel_branch_limit_is_run_wide(self):
        from fourlqs.bench import BenchConfig, gen_family
        kb = parse_kb(gen_family(BenchConfig(individuals=4, clauses=1)))
        with pytest.raises(ResourceLimitError) as err:
            saturate(kb, EngineOptions(max_branches=1000, workers=2,
                                       collect_branches=False))
        partial = err.value.partial
        assert 1000 <= partial.open_count + partial.closed_count < 2000

    def test_parallel_time_limit_is_run_wide(self):
        import time
        from fourlqs.bench import BenchConfig, gen_family
        kb = parse_kb(gen_family(BenchConfig(individuals=4, clauses=1)))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="time limit"):
            saturate(kb, EngineOptions(max_seconds=1.0, workers=2,
                                       collect_branches=False))
        assert time.perf_counter() - start < 2.0

    def test_recursion_limit_is_a_resource_limit(self):
        # One split per (z1, z2) pair on a single branch: 320 individuals
        # go deeper than the interpreter's recursion limit allows.
        kb = parse_kb(DEEP_KB)
        with pytest.raises(ResourceLimitError, match="recursion limit"):
            saturate(kb, EngineOptions(collect_branches=False))

    def test_worker_cap_from_environment(self, monkeypatch):
        from fourlqs.engine import _effective_workers
        monkeypatch.setenv("REASONER_THREADS", "1")
        assert _effective_workers(EngineOptions(workers=8)) == 1
        monkeypatch.setenv("REASONER_THREADS", "junk")
        assert _effective_workers(EngineOptions(workers=3)) == 3
        monkeypatch.delenv("REASONER_THREADS")
        assert _effective_workers(EngineOptions(workers=2)) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recursion_limit_restored(self, workers):
        # 60 individuals need a recursion limit of about 9,200.
        kb = parse_kb("ind " + " ".join(f"i{j}" for j in range(60)) + "\n"
                      "clause (forall z1 z2) (or (rel z1 z2 R) (rel z2 z1 S))\n")
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # an earlier run may have raised it
        try:
            with pytest.raises(ResourceLimitError, match="branch limit"):
                saturate(kb, EngineOptions(max_branches=10, workers=workers,
                                           collect_branches=False))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(before)


# Literals for the product family at 4 individuals: with neither it has
# 1,948,324 branches, with the first 124,755 and with both 7,058.
NOT_A = "lit (not (in a A))\n"
NOT_AB = NOT_A + "lit (not (in b A))\n"


def _paper_kb(literals):
    from fourlqs.bench import BenchConfig, gen_family
    return parse_kb(gen_family(BenchConfig(individuals=4, clauses=1))
                    + literals)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of helpers forked while the test runs."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


class TestForkedParallel:
    """KBs that outlast the serial probe, so helpers are forked."""

    def _assert_same(self, serial, parallel):
        assert (serial.open_count, serial.closed_count) == \
            (parallel.open_count, parallel.closed_count)
        for name in ("rule_apps", "pb_apps", "peak_stack_depth"):
            assert getattr(serial.stats, name) == \
                getattr(parallel.stats, name), name
        assert [(br.lit_ints, br.sigma_map) for br, _ in serial.open_complete] \
            == [(br.lit_ints, br.sigma_map)
                for br, _ in parallel.open_complete]

    def test_product_family_equals_serial(self, forks):
        kb = _paper_kb(NOT_A)
        serial = saturate(kb)
        parallel = saturate(kb, EngineOptions(workers=2))
        assert forks and serial.open_count == 124_755
        self._assert_same(serial, parallel)
        _assert_no_children()

    def test_translated_ontology_equals_serial(self, forks):
        from fourlqs.dlfront import parse_dl, translate_kb
        from fourlqs.syntax import render_kb
        kb = parse_kb(render_kb(translate_kb(parse_dl(
            "fun R\nirref S\nsome R A B\nall B S A\n"
            "role a b R\nrole b c S\nassert c A\nassert a B\n"))))
        serial = saturate(kb)
        parallel = saturate(kb, EngineOptions(workers=2))
        assert forks
        assert serial.closed_count > 0
        assert any(br.sigma_map for br, _ in serial.open_complete)
        self._assert_same(serial, parallel)

    def test_small_kb_never_forks(self, italy_kb, monkeypatch):
        def no_fork():
            raise OSError("fork unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        serial = saturate(italy_kb)
        self._assert_same(serial, saturate(italy_kb, EngineOptions(workers=2)))

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_parent_alone_without_fork(self, monkeypatch, fork):
        kb = _paper_kb(NOT_AB)
        serial = saturate(kb)
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            def failing_fork():
                raise BlockingIOError("Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", failing_fork)
        self._assert_same(serial, saturate(kb, EngineOptions(workers=2)))

    @pytest.mark.parametrize("limits", [
        {"max_seconds": 0.2}, {"max_branches": 20_000}, {}])
    def test_no_helper_outlives_the_run(self, forks, limits):
        kb = _paper_kb("" if limits else NOT_AB)
        opts = EngineOptions(workers=2, collect_branches=False, **limits)
        if limits:
            with pytest.raises(ResourceLimitError):
                saturate(kb, opts)
        else:
            saturate(kb, opts)
        assert forks
        _assert_no_children()

    def test_lost_helper_raises(self, forks, monkeypatch):
        from fourlqs import parallel
        parent = os.getpid()
        real_run = parallel._run

        def dying_run(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(0)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(parallel, "_run", dying_run)
        with pytest.raises(parallel.HelperLostError):
            saturate(_paper_kb(NOT_AB), EngineOptions(workers=2,
                                                      collect_branches=False))
        assert forks
        _assert_no_children()


class TestModelLevelSoundness:
    def test_extracted_models_satisfy_everything_on_random_corpus(self):
        """Every open complete branch yields a model of the whole KB and
        of each of its own literals (the completeness construction)."""
        from fourlqs.oracle import extract_model, model_check
        rng = random.Random(60601)
        branches_seen = 0
        for _ in range(25):
            kb = parse_kb(gen_random_kb(rng))
            res = saturate(kb)
            for br, sigma in res.open_complete:
                m = extract_model(br, sigma, kb)
                assert model_check(m, kb)
                for lit in br.literals:
                    assert model_check(m, lit)
                branches_seen += 1
        assert branches_seen > 20

    def test_elimination_step_is_sound(self):
        """Whenever the fused rule fires, every model of the premise
        branch and clause also satisfies the derived literal."""
        from fourlqs.core import KbBuilder
        from fourlqs.oracle import enumerate_models, model_check
        rng = random.Random(808)
        fired = 0
        for _ in range(60):
            kb = parse_kb(gen_random_kb(rng, max_individuals=2, max_set1=2,
                                        max_set3=1, max_clauses=1,
                                        max_disjuncts=3, max_ground=3))
            if not kb.clauses or not kb.var0_order:
                continue
            clause = kb.clauses[0]
            combo = tuple(rng.choice(kb.var0_order)
                          for _ in clause.quantified)
            tau = substitution0(dict(zip(clause.quantified, combo)))
            inst = Instantiation(clause, tau)
            ground = inst.ground_disjuncts()
            # Premise branch: the complements of all disjuncts but the
            # last, as the rule's side condition demands.
            premise = [complement(l) for l in ground[:-1]]
            try:
                derived = egamma(inst, premise)
            except PreconditionError:
                continue
            builder = KbBuilder()
            for v in kb.var0_order:
                builder.individual(v.name)
            for l in premise:
                builder.add_literal(l)
            builder.add_clause(clause)
            premise_kb = builder.build()
            for m in enumerate_models(premise_kb):
                assert model_check(m, derived)
            fired += 1
        assert fired >= 10


def _reference_reports(result, kb):
    from fourlqs.oracle import extract_model
    from fourlqs.syntax import render_model_report
    return [json.loads(render_model_report(extract_model(br, sigma, kb)))
            for br, sigma in result.open_complete]


def _packed_reports(result):
    build = ModelBuilder(result.compiled)
    return [build.report(br) for br, _ in result.open_complete]


class TestModelBuilder:
    """The packed model builder against ``oracle.extract_model``."""

    def test_random_corpus_matches_reference(self):
        rng = random.Random(7301)
        merged = models = 0
        for _ in range(100):
            kb = parse_kb(gen_random_kb(rng))
            res = saturate(kb)
            assert _packed_reports(res) == _reference_reports(res, kb)
            models += res.open_count
            merged += sum(1 for br, _ in res.open_complete if br.sigma_map)
        assert models > 100 and merged > 0

    @pytest.mark.parametrize("individuals", [1, 2, 3])
    def test_product_family_matches_reference(self, individuals):
        from fourlqs.bench import BenchConfig, gen_family
        kb = parse_kb(gen_family(BenchConfig(individuals=individuals,
                                             clauses=1)))
        res = saturate(kb)
        assert _packed_reports(res) == _reference_reports(res, kb)

    @pytest.mark.parametrize("text", [MERGE_KB,
                                      "ind a b\nlit (eq a b)\nlit (in a A)"])
    def test_merge_kbs_match_reference(self, text):
        kb = parse_kb(text)
        res = saturate(kb)
        assert _packed_reports(res) == _reference_reports(res, kb)

    def test_translated_functional_ontology_matches_reference(self):
        from fourlqs.dlfront import parse_dl, translate_kb
        from fourlqs.syntax import render_kb
        kb = parse_kb(render_kb(translate_kb(parse_dl(
            "fun R\nrole a b R\nrole a c R\nrole c a S\nassert b A\n"
            "subsume A B\n"))))
        res = saturate(kb)
        assert any(br.sigma_map for br, _ in res.open_complete)
        assert _packed_reports(res) == _reference_reports(res, kb)

    def _branch(self, text, lits, sigma_map=None):
        from fourlqs.engine import CompiledKb
        kb = parse_kb(text)
        comp = CompiledKb(kb)
        return ModelBuilder(comp), Branch(comp, tuple(comp.encode(l)
                                                       for l in lits),
                                          sigma_map or {})

    def test_complementary_pair_rejected(self):
        a_in = Literal(True, Member1(var0("a"), var1("A")))
        build, br = self._branch("lit (in a A)", [a_in, complement(a_in)])
        with pytest.raises(PreconditionError, match="complementary"):
            build.report(br)

    def test_negated_trivial_equality_rejected(self):
        build, br = self._branch("lit (not (eq a a))",
                                 [Literal(False, Eq(var0("a"), var0("a")))])
        with pytest.raises(PreconditionError, match="x=x"):
            build.report(br)

    def test_equality_between_distinct_individuals_rejected(self):
        build, br = self._branch("lit (eq a b)",
                                 [Literal(True, Eq(var0("a"), var0("b")))])
        with pytest.raises(PreconditionError, match="equality"):
            build.report(br)

    def test_unfulfilled_instance_rejected(self):
        text = "ind a b\nclause (forall z1) (or (in z1 A))"
        a_in = Literal(True, Member1(var0("a"), var1("A")))
        build, br = self._branch(text, [a_in])
        with pytest.raises(PreconditionError, match="does not fulfill"):
            build.report(br)
        # Merging b into a leaves a single instance, which a_in fulfils.
        build, br = self._branch(text, [a_in], {1: 0})
        assert build.report(br) == {"domain": ["a"], "sets1": {"A": ["a"]},
                                    "sets3": {}}
