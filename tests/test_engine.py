"""Saturation engine: rule operations, the worked example, equality
phase, determinism, bounds and limits."""

import json
import os
import random
import sys

import pytest
from hypothesis import given, strategies as st

from fourlqs import (EngineOptions, Literal, Member3, ResourceLimitError,
                     parse_kb, saturate, substitution0, var0, var3)
from fourlqs.bench import gen_random_kb
from fourlqs.core import Eq, Member1, PreconditionError, var1
from fourlqs import engine as engine_module
from fourlqs.engine import ModelBuilder, _normalize_eqs
from fourlqs.oracle import (apply_substitution, complement, extract_model,
                            is_consistent, reference_saturate)

from conftest import CONTRADICTION_KB, DEEP_KB, ITALY_KB, MERGE_KB


def rel(a, b, r, positive=True):
    return Literal(positive, Member3(var0(a), var0(b), var3(r)))


def mem(a, s, positive=True):
    return Literal(positive, Member1(var0(a), var1(s)))


class TestSaturateExamples:
    def test_immediate_contradiction(self):
        res = saturate(parse_kb(CONTRADICTION_KB))
        assert not res.consistent
        assert res.open_count == 0 and res.closed_count == 1

    def test_worked_example_branches(self, italy_result):
        assert italy_result.consistent
        assert italy_result.open_count == 2
        sets = [frozenset(br.literals) for br, _ in italy_result.open_complete]
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


def _assert_engines_match_reference(text):
    """Saturate ``text``'s KB with every engine and compare its open and
    closed counts, its open branches' literal sets with their merge maps,
    and its rule counts with ``oracle.reference_saturate`` and with each
    other.  Returns keg's result."""
    kb = parse_kb(text)
    ref_branches, ref_closed = reference_saturate(kb)
    ref = sorted(_named_branch(b.literals, b.sigma) for b in ref_branches)
    results = {}
    for engine in ("keg", "ke", "foke"):
        res = results[engine] = saturate(kb, engine=engine)
        assert (res.open_count, res.closed_count) == \
            (len(ref_branches), ref_closed), engine
        assert sorted(_named_branch(br.literals, sigma)
                      for br, sigma in res.open_complete) == ref, engine
        assert (res.stats.rule_apps, res.stats.pb_apps) == \
            (results["keg"].stats.rule_apps,
             results["keg"].stats.pb_apps), engine
    return results["keg"]


def _literal_sets(result):
    return {frozenset(br.literals) for br, _ in result.open_complete}


PAIR_CLAUSE = "clause (forall z) (or (in z A) (in z B))\n"
THREE_DISJUNCTS_KB = ("ind a\nlit (not (in a A))\n"
                      "clause (forall z) (or (in z A) (in z B) (in z C))\n")


class TestEgamma:
    """The fused elimination step, through every engine."""

    def test_example_left_branch_step(self):
        res = _assert_engines_match_reference(
            "ind R I\nlit (rel R I loc)\n"
            "clause (forall z1 z2) (or (not (rel z1 z2 loc)) "
            "(rel z1 z2 iPO))\n")
        assert res.open_count > 0
        assert all(rel("R", "I", "iPO") in s for s in _literal_sets(res))

    def test_unary_clause_needs_no_complements(self):
        res = _assert_engines_match_reference(
            "ind x\nclause (forall z1) (or (rel z1 z1 iPO))\n")
        assert _literal_sets(res) == {frozenset({rel("x", "x", "iPO")})}
        assert (res.stats.rule_apps, res.stats.pb_apps) == (1, 0)

    def test_too_many_unresolved(self):
        # Two disjuncts unresolved: a split, then elimination in the
        # complement child.
        res = _assert_engines_match_reference(THREE_DISJUNCTS_KB)
        assert (res.stats.rule_apps, res.stats.pb_apps) == (1, 1)

    def test_discharged_instance_rejected(self):
        res = _assert_engines_match_reference("ind a\nlit (in a B)\n"
                                              + PAIR_CLAUSE)
        assert _literal_sets(res) == {frozenset({mem("a", "B")})}
        assert (res.stats.rule_apps, res.stats.pb_apps) == (0, 0)


class TestSelectPbLiteral:
    """The split takes the lowest-index disjunct whose complement is not
    on the branch; its fulfilling child comes first."""

    def test_lowest_index_first(self):
        res = _assert_engines_match_reference("ind a\n" + PAIR_CLAUSE)
        assert _literal_sets(res) == {
            frozenset({mem("a", "A")}),
            frozenset({mem("a", "A", False), mem("a", "B")})}

    def test_skips_present_complement(self):
        # One complement present leaves one unresolved: elimination
        # applies, so there is no split.
        res = _assert_engines_match_reference(
            "ind a\nlit (not (in a A))\n" + PAIR_CLAUSE)
        assert _literal_sets(res) == {
            frozenset({mem("a", "A", False), mem("a", "B")})}
        assert (res.stats.rule_apps, res.stats.pb_apps) == (1, 0)

    def test_three_disjuncts_second_pick(self):
        res = _assert_engines_match_reference(THREE_DISJUNCTS_KB)
        assert _literal_sets(res) == {
            frozenset({mem("a", "A", False), mem("a", "B")}),
            frozenset({mem("a", "A", False), mem("a", "B", False),
                       mem("a", "C")})}

    def test_egamma_fires_after_enough_splits(self):
        # Five-disjunct benchmark clause: after n-1 complements are on the
        # branch the elimination rule takes over.
        names = ["A", "B", "C", "D", "E"]
        res = _assert_engines_match_reference(
            "ind a\nclause (forall z) (or "
            + " ".join(f"(in z {n})" for n in names) + ")\n")
        assert (res.stats.rule_apps, res.stats.pb_apps) == (1, 4)
        assert frozenset([mem("a", n, False) for n in names[:-1]]
                         + [mem("a", "E")]) in _literal_sets(res)


class TestEqualityNormalize:
    def test_no_equalities(self, italy_result):
        _assert_engines_match_reference(ITALY_KB)
        assert all(not br.sigma_map for br, _ in italy_result.open_complete)

    def test_min_rule(self):
        res = _assert_engines_match_reference("ind a b\nlit (eq b a)\n")
        [(_, sigma)] = res.open_complete
        assert sigma.get(var0("b")) is var0("a")
        assert sigma.get(var0("a")) is var0("a")

    def test_chain_collapses_to_minimum(self):
        res = _assert_engines_match_reference(
            "ind a b c\nlit (eq b c)\nlit (eq c a)\n")
        [(_, sigma)] = res.open_complete
        assert sigma.get(var0("b")) is var0("a")
        assert sigma.get(var0("c")) is var0("a")
        # x sigma = y sigma for every equality on the branch
        for lit in res.kb.literals:
            assert sigma.get(lit.atom.left) is sigma.get(lit.atom.right)
        # idempotent
        for v in res.kb.var0_order:
            assert sigma.get(sigma.get(v)) is sigma.get(v)


class TestIsFulfilled:
    """``extract_model`` refuses a hand-built branch that leaves a clause
    instance unfulfilled."""

    def test_reflexive_clause(self):
        kb = parse_kb("ind Italy Rome\n"
                      "clause (forall z1) (or (rel z1 z1 isPartOf))\n")
        both = [rel("Italy", "Italy", "isPartOf"),
                rel("Rome", "Rome", "isPartOf")]
        extract_model(both, substitution0({}), kb)
        with pytest.raises(PreconditionError, match="does not fulfill"):
            extract_model(both[:1], substitution0({}), kb)

    def test_vacuous_without_individuals(self):
        text = "clause (forall z) (or (in z A))\n"
        assert _assert_engines_match_reference(text).open_count == 1
        extract_model([], substitution0({}), parse_kb(text))


class TestIsClosed:
    def test_complementary_pair(self):
        res = _assert_engines_match_reference(
            "lit (in x A)\nlit (not (in x A))\n")
        assert (res.open_count, res.closed_count) == (0, 1)

    def test_negated_trivial_equality(self):
        res = _assert_engines_match_reference("lit (not (eq x x))\n")
        assert (res.open_count, res.closed_count) == (0, 1)

    def test_symmetric_equality_is_not_syntactic_closure(self):
        # Not a complementary pair, but the equality phase rewrites it
        # into one.
        text = "lit (eq x y)\nlit (not (eq y x))\n"
        res = _assert_engines_match_reference(text)
        assert (res.open_count, res.closed_count) == (0, 1)
        assert not is_consistent(parse_kb(text))


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
            eng = sorted(sorted(map(repr, br.literals))
                         for br, _ in res.open_complete)
            ref = sorted(sorted(map(repr, b.literal_set()))
                         for b in ref_branches)
            assert eng == ref

    def test_returned_branches_open_and_fulfilled(self):
        # extract_model raises on a branch that is closed or leaves a
        # clause instance over the merged individuals unfulfilled.
        rng = random.Random(918)
        checked = merged = 0
        for _ in range(25):
            kb = parse_kb(gen_random_kb(rng))
            for br, sigma in saturate(kb).open_complete:
                extract_model(br, sigma, kb)
                checked += 1
                merged += not sigma.is_empty()
        assert checked > 10 and merged > 0

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

    def test_time_limit_trips_at_first_late_read(self, monkeypatch):
        # The engine's clock reads 0 for its first 50 readings, then jumps
        # past the deadline.  The run must stop at that 51st reading: the
        # only reading after it is the wall time taken once the run ends.
        readings = []

        def clock():
            readings.append(1)
            return 0.0 if len(readings) <= 50 else 1e9

        monkeypatch.setattr(engine_module, "perf_counter", clock)
        with pytest.raises(ResourceLimitError, match="time limit") as err:
            saturate(_paper_kb(NOT_AB), EngineOptions(max_seconds=10.0,
                                                      collect_branches=False))
        assert len(readings) == 52
        partial = err.value.partial
        assert 0 < partial.open_count + partial.closed_count < 50

    def test_time_limit_checked_at_splits(self, monkeypatch):
        # Every engine clock reading is one second later than the last.
        # DEEP_KB's first leaf lies 102,400 splits deep, so only the
        # readings at splits can trip a ten-second budget.
        now = [0.0]

        def clock():
            now[0] += 1.0
            return now[0]

        monkeypatch.setattr(engine_module, "perf_counter", clock)
        with pytest.raises(ResourceLimitError, match="time limit") as err:
            saturate(parse_kb(DEEP_KB), EngineOptions(max_seconds=10.0,
                                                      collect_branches=False))
        partial = err.value.partial
        assert partial.open_count + partial.closed_count == 0
        assert partial.stats.peak_stack_depth < 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_time_limit_covers_compile(self, italy_kb, monkeypatch, workers):
        now = [0.0]

        class SlowCompile(engine_module.CompiledKb):
            def __init__(self, kb):
                super().__init__(kb)
                now[0] += 5.0

        monkeypatch.setattr(engine_module, "perf_counter", lambda: now[0])
        monkeypatch.setattr(engine_module, "CompiledKb", SlowCompile)
        with pytest.raises(ResourceLimitError, match="time limit") as err:
            saturate(italy_kb, EngineOptions(max_seconds=1.0, workers=workers))
        partial = err.value.partial
        assert partial.open_count + partial.closed_count == 0

    def test_deep_kb_needs_no_recursion_limit(self):
        # One split per (z1, z2) pair on a single branch: the first leaf
        # of DEEP_KB lies 102,400 splits deep.  The explorer reaches it
        # and trips the branch limit at the second leaf, leaving the
        # interpreter's recursion limit alone.
        before = sys.getrecursionlimit()
        with pytest.raises(ResourceLimitError, match="branch limit") as err:
            saturate(parse_kb(DEEP_KB), EngineOptions(max_branches=1,
                                                      collect_branches=False))
        assert err.value.partial.stats.peak_stack_depth == 102_400
        assert sys.getrecursionlimit() == before

    def test_worker_cap_from_environment(self, monkeypatch):
        from fourlqs.engine import _effective_workers
        monkeypatch.setenv("REASONER_THREADS", "1")
        assert _effective_workers(EngineOptions(workers=8)) == 1
        monkeypatch.setenv("REASONER_THREADS", "junk")
        with pytest.raises(PreconditionError, match="REASONER_THREADS"):
            _effective_workers(EngineOptions(workers=3))
        monkeypatch.delenv("REASONER_THREADS")
        assert _effective_workers(EngineOptions(workers=2)) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recursion_limit_restored(self, workers):
        # 60 individuals: 3,600 nested splits on one branch.
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


def _ontology_kb():
    """The ontology-query benchmark shape: 196 open branches (14 merged)
    and 1,276 closed."""
    from fourlqs.dlfront import parse_dl, translate_kb
    from fourlqs.syntax import render_kb
    return parse_kb(render_kb(translate_kb(parse_dl(
        "fun R\nirref S\nsome R A B\nall B S A\n"
        "role a b R\nrole b c S\nassert c A\nassert a B\n"))))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of helpers forked while the test runs.  The probe
    expires at once, so a run forks at its first poll with work pending."""
    from fourlqs import parallel
    monkeypatch.setattr(parallel, "PROBE_SECONDS", 0)
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
        kb = _ontology_kb()
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

    @pytest.mark.parametrize("engine", ["keg", "foke"])
    def test_only_ke_grounds_up_front(self, forks, monkeypatch, engine):
        """keg and foke never build ``CompiledKb.instances``, serially
        or in a forked helper: a helper that read it would die, and the
        parent would raise ``HelperLostError``."""
        from fourlqs.engine import CompiledKb

        def no_grounding(comp):
            raise AssertionError(f"{engine} built the up-front grounding")

        monkeypatch.setattr(CompiledKb, "instances", property(no_grounding))
        kb = _paper_kb(NOT_AB)
        for workers in (1, 2):
            res = saturate(kb, EngineOptions(workers=workers,
                                             collect_branches=False),
                           engine=engine)
            assert res.open_count == 7_058
        assert forks
        _assert_no_children()

    def test_ke_grounds_before_forking(self, forks, monkeypatch):
        from fourlqs.engine import CompiledKb
        parent = os.getpid()
        real = CompiledKb.instances

        def parent_only(comp):
            if comp._instances is None and os.getpid() != parent:
                raise AssertionError("a helper built the grounding")
            return real.fget(comp)

        monkeypatch.setattr(CompiledKb, "instances", property(parent_only))
        res = saturate(_paper_kb(NOT_AB), EngineOptions(
            workers=2, collect_branches=False), engine="ke")
        assert forks and res.open_count == 7_058
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


class TestProbeHandOver:
    """When the probe expires, its pending stack becomes guiding paths:
    nothing it counted is counted again, and no run replays from the
    root."""

    @staticmethod
    def _fields(res):
        s = res.stats
        return (res.open_count, res.closed_count, s.rule_apps, s.pb_apps,
                s.gamma_apps, s.peak_stack_depth, s.peak_branch_literals,
                s.peak_resident_formulae, res.packed)

    def test_paths_follow_the_stack(self):
        from fourlqs.engine import _guiding_paths
        # Entries at depths 2, 3 and 6: the path took the complement child
        # at depths 1, 4 and 5 and the fulfilling child at 2, 3 and 6.
        stack = [(0, 0, 0, 0, 0, depth, None) for depth in (2, 3, 6)]
        assert _guiding_paths(stack, 2) == [(1, 1), (1, 0, 1)]
        assert [entry[5] for entry in stack] == [6]
        stack = [(0, 0, 0, 0, 0, depth, None) for depth in (2, 3, 6)]
        assert _guiding_paths(stack, 8)[-1] == (1, 0, 0, 1, 1, 1)
        assert stack == []

    @pytest.mark.parametrize("engine", ["keg", "ke", "foke"])
    @pytest.mark.parametrize("kb", ["product", "ontology"])
    def test_probe_work_is_kept(self, forks, monkeypatch, tmp_path, engine,
                                kb):
        """Every ``_run`` of the parent and of its helpers logs its script
        length (-1 for none) and counts.  The probe's run counts at least
        a poll's worth of leaves, every other run replays a non-empty
        path, and together they count the serial run's leaves once; the
        merged result equals serial in every field."""
        from fourlqs import parallel
        from fourlqs.engine import POLL_LEAVES
        log = tmp_path / "runs.txt"
        log.write_text("")
        real_run = parallel._run

        def logged_run(*args, script=None, **kwargs):
            result = real_run(*args, script=script, **kwargs)
            counts = result[0]
            line = (f"{-1 if script is None else len(script)} "
                    f"{counts['open']} {counts['closed']}\n")
            fd = os.open(log, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
            return result

        monkeypatch.setattr(parallel, "_run", logged_run)
        kb = _paper_kb(NOT_AB) if kb == "product" else _ontology_kb()
        serial = saturate(kb, engine=engine)
        res = saturate(kb, EngineOptions(workers=2), engine=engine)
        runs = [tuple(map(int, line.split()))
                for line in log.read_text().splitlines()]
        probe = [run for run in runs if run[0] < 0]
        assert forks and len(probe) == 1
        assert probe[0][1] + probe[0][2] >= POLL_LEAVES
        assert len(runs) > 1 and all(run[0] != 0 for run in runs)
        assert sum(run[1] for run in runs) == serial.open_count
        assert sum(run[2] for run in runs) == serial.closed_count
        assert self._fields(res) == self._fields(serial)
        _assert_no_children()

    def test_deep_stack_hands_over_its_shallowest_entries(self, forks,
                                                          monkeypatch):
        """60 individuals: the probe's first poll finds a stack thousands
        deep, and only ``8 * workers`` entries of it become paths."""
        from fourlqs import parallel
        seen = []
        real = parallel._guiding_paths

        def recording(stack, most):
            depth = len(stack)
            paths = real(stack, most)
            seen.append((depth, len(stack), len(paths)))
            return paths

        monkeypatch.setattr(parallel, "_guiding_paths", recording)
        kb = parse_kb("ind " + " ".join(f"i{j}" for j in range(60)) + "\n"
                      "clause (forall z1 z2) (or (rel z1 z2 R) "
                      "(rel z2 z1 S))\n")
        with pytest.raises(ResourceLimitError, match="branch limit") as err:
            saturate(kb, EngineOptions(workers=2, max_branches=1000,
                                       collect_branches=False))
        [(depth, left, paths)] = seen
        assert depth > 1000 and paths == 16 and left == depth - 16
        partial = err.value.partial
        assert 1000 <= partial.open_count + partial.closed_count <= 2000
        assert forks
        _assert_no_children()

    def test_probe_reads_the_clock_once_per_poll(self, monkeypatch):
        """A probe that does not expire reads the clock once at its start
        and at most once per poll; ``max_seconds`` still reads it at every
        split and every leaf."""
        from fourlqs import parallel
        from fourlqs.engine import POLL_LEAVES
        real = engine_module.perf_counter
        reads = []

        def clock():
            reads.append(1)
            return real()

        monkeypatch.setattr(engine_module, "perf_counter", clock)
        monkeypatch.setattr(parallel, "perf_counter", clock)
        monkeypatch.setattr(parallel, "PROBE_SECONDS", 3600.0)
        kb = _paper_kb(NOT_AB)
        res = saturate(kb, EngineOptions(workers=2, collect_branches=False))
        leaves = res.open_count + res.closed_count
        # saturate's start and wall time, the probe's start, the polls.
        assert 3 < len(reads) <= 3 + leaves // POLL_LEAVES
        for workers in (1, 2):
            reads.clear()
            res = saturate(kb, EngineOptions(workers=workers,
                                             max_seconds=3600.0,
                                             collect_branches=False))
            splits_and_leaves = res.stats.pb_apps + leaves
            if workers == 1:
                # Also the deadline's start.
                assert len(reads) == 3 + splits_and_leaves
            else:
                assert len(reads) > 4 + splits_and_leaves


# Merging b and c into a turns (not (eq b c)) into a negated x=x, which
# closes only the branches that merge all three.
MERGED_DIAGONAL_KB = """\
ind a b c
lit (eq a c)
lit (not (eq b c))
clause (forall z) (or (eq z a) (in z A))
"""


# Each leaf merges b into a with the same rewrite table and closes at the
# root's third literal, so after the first leaf each closes without a
# walk.
REUSED_CLOSE_KB = """\
ind a b
lit (eq a b)
lit (in a A)
lit (not (in b A))
clause (forall z) (or (in z C) (in z D))
"""

# (eq a b) on some branches, (eq b a) on others and both on some: three
# equality sequences with one merge map, so one rewrite table.
SHARED_MAP_KB = """\
ind a b c
clause (forall z) (or (in z A) (eq a b))
clause (forall z) (or (not (in z A)) (eq b a))
clause (forall z) (or (in z C) (in z D))
"""

# (eq a b) on some branches, (eq a c) on others and both on some: three
# merge maps, met in turn, so consecutive merged leaves change table and
# change back.
TABLE_CHANGE_KB = """\
ind a b c
clause (forall z) (or (in z A) (eq a b))
clause (forall z) (or (in z B) (eq a c))
"""


def _equality_kbs():
    rng = random.Random(3131)
    texts = [t for t in (gen_random_kb(rng) for _ in range(60)) if "eq" in t]
    texts[25:] = [MERGE_KB, MERGED_DIAGONAL_KB]
    return [parse_kb(t) for t in texts] + [_ontology_kb()]


def _named_branch(literals, sigma):
    return (sorted(map(repr, literals)),
            sorted((k.name, v.name) for k, v in sigma.map0.items()))


def _assert_phase_matches_reference(kb):
    """Every engine, serially and with two workers, gives
    ``reference_saturate``'s counts and branches, and all give the same
    packed branches, which are returned."""
    ref_branches, ref_closed = reference_saturate(kb)
    ref = sorted(_named_branch(b.literals, b.sigma) for b in ref_branches)
    packed = None
    for engine in ("keg", "ke", "foke"):
        for workers in (1, 2):
            res = saturate(kb, EngineOptions(workers=workers), engine=engine)
            assert (res.open_count, res.closed_count) == \
                (len(ref_branches), ref_closed), (engine, workers)
            assert sorted(_named_branch(br.literals, sigma)
                          for br, sigma in res.open_complete) == ref
            got = [(br.lit_ints, br.sigma_map) for br, _ in res.open_complete]
            assert packed is None or got == packed, (engine, workers)
            packed = got
    return packed


@pytest.fixture
def lookups(monkeypatch):
    """The rewrite table of every equality-phase lookup, in order."""
    tables = []

    class RecordingTable(engine_module._RewriteTable):
        __slots__ = ()

        def __getitem__(self, lit_int):
            tables.append(self)
            return super().__getitem__(lit_int)

    monkeypatch.setattr(engine_module, "_RewriteTable", RecordingTable)
    return tables


class TestEqualityPhase:
    def test_engines_match_reference_on_equality_kbs(self):
        merged = 0
        for kb in _equality_kbs():
            packed = _assert_phase_matches_reference(kb)
            merged += sum(1 for _, sigma_map in packed if sigma_map)
        assert merged > 20

    @pytest.mark.parametrize("collect", [True, False],
                             ids=["collect", "count"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("engine", ["keg", "ke", "foke"])
    def test_cache_cap_changes_nothing(self, monkeypatch, engine, workers,
                                       collect):
        """Clearing the caches makes new rewrite tables, so the phase
        walks from the start at the next merged leaf; counts, statistics
        and branches stay as they are."""
        kb = _ontology_kb()
        opts = EngineOptions(workers=workers, collect_branches=collect)

        def run():
            res = saturate(kb, opts, engine=engine)
            res.stats.wall_seconds = 0.0
            return res.open_count, res.closed_count, res.stats, res.packed

        expected = run()
        monkeypatch.setattr(engine_module, "EQ_CACHE_CAP", 3)
        assert run() == expected

    def test_leaf_closed_by_reuse(self, lookups):
        kb = parse_kb(REUSED_CLOSE_KB)
        res = saturate(kb, EngineOptions(collect_branches=False))
        # The first leaf looks up the root's three literals; the other
        # three close without a lookup.
        assert res.closed_count == 4 and len(lookups) == 3
        _assert_phase_matches_reference(kb)

    def test_sequences_sharing_a_merge_map(self, lookups):
        kb = parse_kb(SHARED_MAP_KB)
        saturate(kb, EngineOptions(collect_branches=False))
        table = lookups[0]
        assert all(t is table for t in lookups)
        assert len(table.cache.by_eqs) == 3
        assert _assert_phase_matches_reference(kb)

    def test_table_change_between_merged_leaves(self, lookups):
        kb = parse_kb(TABLE_CHANGE_KB)
        saturate(kb, EngineOptions(collect_branches=False))
        runs = [t for i, t in enumerate(lookups)
                if i == 0 or t is not lookups[i - 1]]
        # A table comes back after another one.
        assert len(set(map(id, runs))) < len(runs)
        assert _assert_phase_matches_reference(kb)

    def test_ontology_lookups_below_a_thousand(self, lookups):
        """The phase resumes rather than rewriting each merged leaf's
        trail from the start: one keg saturation of the ontology-query
        KB makes 487 rewrite-table lookups, where walks from the start
        make 13,992."""
        res = saturate(_ontology_kb(), EngineOptions(collect_branches=False))
        assert (res.open_count, res.closed_count) == (196, 1276)
        assert len(lookups) < 1000

    def test_no_cache_without_equality(self, italy_kb, monkeypatch):
        def no_cache(comp):
            raise AssertionError("merge cache built for a KB without eq")

        monkeypatch.setattr(engine_module, "_MergeCache", no_cache)
        assert saturate(italy_kb).open_count == 2

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=10),
           st.randoms(use_true_random=False))
    def test_merge_map_is_canonical(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        sigma = _normalize_eqs(pairs)
        assert _normalize_eqs(shuffled) == sigma
        classes = {x: {x} for pair in pairs for x in pair}
        for a, b in pairs:
            joined = classes[a] | classes[b]
            for x in joined:
                classes[x] = joined
        for x, cls in classes.items():
            assert sigma.get(x, x) == min(cls)
        assert all(x in classes and x != y for x, y in sigma.items())


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
            ground = [apply_substitution(d, tau) for d in clause.disjuncts]
            # Premise branch: the complements of all disjuncts but the
            # last, as the rule's side condition demands.  The rule never
            # fires on an instance that is already discharged.
            premise = [complement(l) for l in ground[:-1]]
            if any(l in premise for l in ground):
                continue
            derived = ground[-1]
            builder = KbBuilder()
            for v in kb.var0_order:
                builder.individual(v.name)
            for l in premise:
                builder.add_literal(l)
            builder.add_clause(clause)
            premise_kb = builder.build()
            for br, sigma in saturate(premise_kb).open_complete:
                assert apply_substitution(derived, sigma) in br.literals
            for m in enumerate_models(premise_kb):
                assert model_check(m, derived)
            fired += 1
        assert fired >= 10


def _reference_texts(result, kb):
    """``syntax.render_model_report`` of ``oracle.extract_model``'s model
    of every open branch."""
    from fourlqs.oracle import extract_model
    from fourlqs.syntax import render_model_report
    return [render_model_report(extract_model(br, sigma, kb))
            for br, sigma in result.open_complete]


def _rendered_texts(result):
    render = ModelBuilder(result.compiled).render
    return [render(*branch) for branch in result.packed]


def _assert_models_match_reference(text, tmp_path, capsys):
    """Every branch of ``text``'s KB renders to the reference text byte
    for byte, and ``fourlqs models`` prints those reports as one JSON
    document.  Returns the saturation result."""
    from fourlqs.cli import main
    kb = parse_kb(text)
    res = saturate(kb)
    expected = _reference_texts(res, kb)
    assert _rendered_texts(res) == expected
    path = tmp_path / "kb.4lqs"
    path.write_text(text)
    capsys.readouterr()
    assert main(["models", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps({"models": [json.loads(t) for t in expected]},
                             sort_keys=True) + "\n"
    return res


_GOLDEN_KB = "ind a b\nlit (eq a a)\nclause (forall z1) (or (in z1 A))"
_GOLDEN_FULFIL = "branch does not fulfill (∀z1)(z1∈A) at "

# (id, KB text, branch literals in branch order, merge map items, the
# exact PreconditionError text).  Rows with two faults pin which check
# wins: the literal checks, in branch order, before any clause instance,
# and the instances in clause-then-tau order.
_ERROR_GOLDEN = [
    ("complementary", _GOLDEN_KB,
     ["(in a A)", "(in b A)", "(not (in a A))"], (),
     "branch is closed (complementary pair)"),
    ("negated-x=x", _GOLDEN_KB,
     ["(not (eq a a))", "(in a A)", "(in b A)"], (),
     "branch is closed (negated x=x)"),
    ("distinct-equality", _GOLDEN_KB,
     ["(eq a b)", "(in a A)", "(in b A)"], (),
     "branch still carries an equality between distinct variables"),
    ("unfulfilled", _GOLDEN_KB, ["(in a A)"], (), _GOLDEN_FULFIL + "['b']"),
    ("unfulfilled-twice", _GOLDEN_KB, [], (), _GOLDEN_FULFIL + "['a']"),
    ("unfulfilled-merged", _GOLDEN_KB, [], ((1, 0),),
     _GOLDEN_FULFIL + "['a']"),
    ("unfulfilled-two-quantifiers",
     "ind a b\nclause (forall z1 z2) (or (rel z1 z2 R))",
     ["(rel a a R)", "(rel a b R)"], (),
     "branch does not fulfill (∀z1)(∀z2)(⟨z1,z2⟩∈R) at ['b', 'a']"),
    ("complementary-then-negated-x=x", _GOLDEN_KB,
     ["(in a A)", "(not (in a A))", "(not (eq a a))", "(in b A)"], (),
     "branch is closed (complementary pair)"),
    ("negated-x=x-then-complementary", _GOLDEN_KB,
     ["(not (eq a a))", "(in a A)", "(not (in a A))", "(in b A)"], (),
     "branch is closed (negated x=x)"),
    ("complementary-and-unfulfilled", _GOLDEN_KB,
     ["(in a A)", "(not (in a A))"], (),
     "branch is closed (complementary pair)"),
    ("complementary-after-unfulfilled-instance", _GOLDEN_KB,
     ["(not (in b A))", "(in b A)"], (),
     "branch is closed (complementary pair)"),
    ("distinct-equality-and-unfulfilled", _GOLDEN_KB,
     ["(eq a b)", "(in a A)"], (),
     "branch still carries an equality between distinct variables"),
    ("complementary-equalities", _GOLDEN_KB,
     ["(eq a b)", "(not (eq a b))", "(in a A)", "(in b A)"], (),
     "branch is closed (complementary pair)"),
    ("distinct-equality-then-negated-x=x", _GOLDEN_KB,
     ["(eq a b)", "(not (eq a a))", "(in a A)", "(in b A)"], (),
     "branch still carries an equality between distinct variables"),
    ("negated-x=x-then-distinct-equality", _GOLDEN_KB,
     ["(not (eq a a))", "(eq a b)", "(in a A)", "(in b A)"], (),
     "branch is closed (negated x=x)"),
]


class TestModelBuilder:
    """The packed model builder against ``oracle.extract_model``."""

    def test_random_corpus_matches_reference(self, tmp_path, capsys):
        rng = random.Random(7301)
        merged = models = 0
        for _ in range(100):
            res = _assert_models_match_reference(gen_random_kb(rng),
                                                 tmp_path, capsys)
            models += res.open_count
            merged += sum(1 for br, _ in res.open_complete if br.sigma_map)
        assert models > 100 and merged > 0

    @pytest.mark.parametrize("individuals", [1, 2, 3])
    def test_product_family_matches_reference(self, individuals, tmp_path,
                                              capsys):
        from fourlqs.bench import BenchConfig, gen_family
        _assert_models_match_reference(
            gen_family(BenchConfig(individuals=individuals, clauses=1)),
            tmp_path, capsys)

    @pytest.mark.parametrize("text", [MERGE_KB,
                                      "ind a b\nlit (eq a b)\nlit (in a A)"])
    def test_merge_kbs_match_reference(self, text, tmp_path, capsys):
        _assert_models_match_reference(text, tmp_path, capsys)

    def test_names_out_of_order_match_reference(self, tmp_path, capsys):
        """Individuals and sets declared out of name order: extents and
        set keys must still come out in sorted name order."""
        _assert_models_match_reference(
            "ind c a b\nlit (in c Z)\nlit (in a Z)\nlit (rel c a R)\n"
            "lit (rel a b R)\nlit (rel b a Q)\n"
            "clause (forall z1) (or (in z1 Y) (in z1 B))", tmp_path, capsys)

    def test_translated_functional_ontology_matches_reference(self, tmp_path,
                                                              capsys):
        from fourlqs.dlfront import parse_dl, translate_kb
        from fourlqs.syntax import render_kb
        res = _assert_models_match_reference(render_kb(translate_kb(parse_dl(
            "fun R\nrole a b R\nrole a c R\nrole c a S\nassert b A\n"
            "subsume A B\n"))), tmp_path, capsys)
        assert any(br.sigma_map for br, _ in res.open_complete)

    def _branch(self, text, lits, sigma_items=()):
        """A model builder and one hand-built packed branch."""
        from fourlqs.engine import KIND_EQ, KIND_IN1, KIND_IN3, CompiledKb
        comp = CompiledKb(parse_kb(text))
        ind = comp.inds.index

        def pack(lit):
            a, neg = lit.atom, 0 if lit.positive else 1
            if isinstance(a, Eq):
                return comp.pack(KIND_EQ, 0, ind(a.left), ind(a.right), neg)
            if isinstance(a, Member1):
                return comp.pack(KIND_IN1, 1 + comp.set1s.index(a.set1),
                                 ind(a.elem), 0, neg)
            return comp.pack(KIND_IN3, 1 + comp.n1 + comp.set3s.index(a.set3),
                             ind(a.first), ind(a.second), neg)

        return ModelBuilder(comp), (tuple(map(pack, lits)), sigma_items)

    def test_complementary_pair_rejected(self):
        a_in = Literal(True, Member1(var0("a"), var1("A")))
        build, br = self._branch("lit (in a A)", [a_in, complement(a_in)])
        with pytest.raises(PreconditionError, match="complementary"):
            build.render(*br)

    def test_negated_trivial_equality_rejected(self):
        build, br = self._branch("lit (not (eq a a))",
                                 [Literal(False, Eq(var0("a"), var0("a")))])
        with pytest.raises(PreconditionError, match="x=x"):
            build.render(*br)

    def test_equality_between_distinct_individuals_rejected(self):
        build, br = self._branch("lit (eq a b)",
                                 [Literal(True, Eq(var0("a"), var0("b")))])
        with pytest.raises(PreconditionError, match="equality"):
            build.render(*br)

    def test_unfulfilled_instance_rejected(self):
        text = "ind a b\nclause (forall z1) (or (in z1 A))"
        a_in = Literal(True, Member1(var0("a"), var1("A")))
        build, br = self._branch(text, [a_in])
        with pytest.raises(PreconditionError, match="does not fulfill"):
            build.render(*br)
        # Merging b into a leaves a single instance, which a_in fulfils.
        build, br = self._branch(text, [a_in], ((1, 0),))
        assert build.render(*br) == (
            '{"domain": ["a"], "sets1": {"A": ["a"]}, "sets3": {}}')

    @pytest.mark.parametrize("text,lits,sigma_items,message",
                             [row[1:] for row in _ERROR_GOLDEN],
                             ids=[row[0] for row in _ERROR_GOLDEN])
    def test_error_golden(self, text, lits, sigma_items, message):
        build, br = self._branch(
            text, [parse_kb("ind a b\nlit " + t).literals[0] for t in lits],
            sigma_items)
        with pytest.raises(PreconditionError) as err:
            build.render(*br)
        assert str(err.value) == message


# keg's complement child resumes with the rest of its split's unresolved
# disjuncts.  At z = z1 these clauses ground to an instance that holds the
# complement literal itself, so the child discharges it, or that holds one
# disjunct twice, so the child's remaining disjuncts can run out.  With
# four disjuncts a resumed child has at least two left and splits again,
# and at z = z1 a copy of the split literal can come after it with
# another disjunct in between.  In ``stale-watch`` (in b A) discharges
# the second clause's job at b in the fulfilling subtree, and the
# complement child, which holds (not (in b A)), must ground that job
# again rather than trust the literal keg last watched it with.  In
# ``top-literal`` the ground literal is 29, the largest the encoding gives
# (4*nkeys - 3, with nkeys = 2*k + k*k = 8 keys for two set1 symbols and
# one set3 symbol at k = 2): the explorer's mark list must hold it, and a
# job's first watch, -1, must not read its mark.
RESUME_KBS = {
    "tautologous": "ind a b\nlit (in b B)\n"
                   "clause (forall z z1) (or (in z A) (not (in z1 A)) (in z B))\n",
    "duplicate": "ind a b\nlit (not (in b B))\n"
                 "clause (forall z z1) (or (in z A) (in z1 A) (in z B))\n",
    "eq-tautologous": "ind a b\nlit (in b B)\n"
                      "clause (forall z z1) (or (eq z b) (not (eq z1 b)) (in z B))\n",
    "eq-duplicate": "ind a b c\nlit (not (in c B))\n"
                    "clause (forall z z1) (or (eq z a) (eq z1 a) (in z1 B))\n",
    "eq-both": "ind a b c\nlit (not (in c B))\n"
               "clause (forall z z1) (or (eq z z1) (not (eq z z1)) (in z B))\n"
               "clause (forall z z1) (or (eq z a) (eq z1 a) (in z1 A))\n",
    "nested": "ind a b\nlit (not (in b D))\n"
              "clause (forall z z1) (or (in z A) (in z1 B) (in z C) (in z1 D))\n",
    "nested-duplicate": "ind a b\nlit (not (in b C))\n"
                        "clause (forall z z1) "
                        "(or (in z A) (in z B) (in z1 A) (in z C))\n",
    "eq-nested-duplicate": "ind a b c\nlit (not (in c B))\n"
                           "clause (forall z z1) "
                           "(or (eq z a) (in z B) (eq z1 a) (in z1 A))\n",
    "stale-watch": "ind a b\n"
                   "clause (forall z) (or (in z A) (in z B))\n"
                   "clause (forall z) (or (in z A) (in z C))\n",
    "top-literal": "ind a b\nlit (not (rel b b S))\n"
                   "clause (forall z) (or (in z A) (in z B))\n",
}


class TestSparseMarks:
    def test_sparse_marks_match_list(self, monkeypatch):
        """A KB whose literal space is over ``MARKS_CAP`` has keg mark its
        branch, and the equality phase each rewritten branch, in a dict
        rather than a list; every engine's counts, statistics and
        branches stay those the list gives, serially and with two
        workers."""
        texts = list(RESUME_KBS.values()) + [MERGE_KB, ITALY_KB]
        for i in range(40):
            texts.append(gen_random_kb(random.Random(f"sparse-marks:{i}")))
        kbs = [parse_kb(t) for t in texts]
        assert sum(engine_module.CompiledKb(kb).has_eq for kb in kbs) >= 10

        def runs():
            out = []
            for kb in kbs:
                for engine in ("keg", "ke", "foke"):
                    res = saturate(kb, EngineOptions(), engine=engine)
                    res.stats.wall_seconds = 0.0
                    out.append((res.open_count, res.closed_count,
                                res.stats, res.packed))
                res = saturate(kb, EngineOptions(workers=2))
                res.stats.wall_seconds = 0.0
                out.append((res.open_count, res.stats, res.packed))
            return out

        listed = runs()
        monkeypatch.setattr(engine_module, "MARKS_CAP", 0)
        comp = engine_module.CompiledKb(kbs[0])
        assert isinstance(engine_module._marks(comp), engine_module._SparseMarks)
        assert runs() == listed


class TestKegResume:
    @pytest.mark.parametrize("name", sorted(RESUME_KBS))
    def test_engines_match_reference(self, name):
        kb = parse_kb(RESUME_KBS[name])
        ref_branches, ref_closed = reference_saturate(kb)
        ref = sorted(_named_branch(b.literals, b.sigma) for b in ref_branches)
        signatures = set()
        for engine in ("keg", "ke", "foke"):
            for workers in (1, 2):
                res = saturate(kb, EngineOptions(workers=workers),
                               engine=engine)
                assert (res.open_count, res.closed_count) == \
                    (len(ref_branches), ref_closed), (engine, workers)
                assert sorted(_named_branch(br.literals, sigma)
                              for br, sigma in res.open_complete) == ref
                s = res.stats
                signatures.add((res.open_count, res.closed_count, s.rule_apps,
                                s.pb_apps, s.peak_stack_depth))
        assert len(signatures) == 1 and s.pb_apps > 0

    @pytest.mark.parametrize("name", sorted(RESUME_KBS))
    def test_replayed_complement_child_matches_serial(self, name):
        """A script of a two-worker partition replays its split prefix
        from the root, so each complement child on that prefix is entered
        with no stack entry and selects its job again.  Run over every
        script and merged, the runs give the serial run's counts,
        statistics and branches, for every engine."""
        from fourlqs.engine import CompiledKb, _run
        from fourlqs.parallel import _Merge, _scripts
        comp = CompiledKb(parse_kb(RESUME_KBS[name]))
        opts = EngineOptions()
        for engine in ("keg", "ke", "foke"):
            merge = _Merge(None)
            for script in _scripts([()], 2):
                merge.add(_run(comp, opts, engine, script=script))
            counts, stats, packed, limited = merge.result()
            serial = _run(comp, opts, engine)
            assert (counts, stats, sorted(packed), limited) == \
                (serial[0], serial[1], sorted(serial[2]), serial[3]), engine
            assert stats.pb_apps > 0, engine  # scripts from 1 replay a child

    def test_complement_child_builds_no_instance(self, forks, monkeypatch):
        """keg grounds each disjunct inside its scan and never calls
        ``CompiledKb.instantiate``, for a complement child or any other
        selection, serially or in a forked helper: a helper that called
        it would die, and the parent would raise ``HelperLostError``.
        foke instantiates exactly the instances it parks."""
        from fourlqs.engine import CompiledKb
        kb = _paper_kb(NOT_AB)
        opts = EngineOptions(collect_branches=False)
        real = CompiledKb.instantiate

        def no_instance(comp, specs, tau):
            raise AssertionError("keg built an instance")

        monkeypatch.setattr(CompiledKb, "instantiate", no_instance)
        for workers in (1, 2):
            res = saturate(kb, EngineOptions(workers=workers,
                                             collect_branches=False))
            assert res.open_count == 7_058
        assert forks
        _assert_no_children()

        built = []

        def counting(comp, specs, tau):
            built.append(tau)
            return real(comp, specs, tau)

        monkeypatch.setattr(CompiledKb, "instantiate", counting)
        stats = saturate(kb, opts, engine="foke").stats
        assert len(built) == stats.gamma_apps > 0

    def test_keg_peak_bytes_below_ke(self):
        """The kept instances leave keg's traced peak, compile included,
        below ke's on the 7,058-branch KB.  Each engine is traced afresh
        with one frame: ``start`` leaves a tracer that is already running
        (``PYTHONTRACEMALLOC``, ``-X tracemalloc``) at its own depth and
        with its own peak, so any such tracer is stopped first."""
        import tracemalloc
        kb = _paper_kb(NOT_AB)
        opts = EngineOptions(collect_branches=False)
        peaks = {}
        for engine in ("keg", "ke"):
            saturate(kb, opts, engine=engine)
            tracemalloc.stop()
            tracemalloc.start(1)
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert saturate(kb, opts, engine=engine).open_count == 7_058
                peaks[engine] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks["keg"] < peaks["ke"], peaks


# Shapes the random KBs rarely or never draw, each named by what it has.
ENCODING_EDGE_KBS = {
    "no-individuals": "clause (forall z) (or (in z A) (rel z z R) "
                      "(not (eq z z)))\n",
    "empty": "",
    "free-individual": "ind a b\nlit (in b A)\n"
                       "clause (forall z) (or (rel a z R) (in z A) (eq z b))\n",
    "rel-z-z": "ind a b\nclause (forall z) (or (rel z z R))\n",
    "eq-only-in-clause": "ind a b c\nlit (in a A)\n"
                         "clause (forall z1 z2) (or (eq z1 z2) (not (in z2 A)))\n",
    "unused-quantifier": "ind a b\nclause (forall z1 z2 z3) (or (in z2 A))\n",
}


def _encoding_kbs():
    from fourlqs.bench import BenchConfig, gen_family
    rng = random.Random("encoding")
    texts = [gen_random_kb(rng, max_individuals=3, max_clauses=5,
                           max_quantifiers=2, max_ground=6)
             for _ in range(300)]
    texts += [gen_family(BenchConfig(individuals=n, clauses=1))
              for n in (1, 2, 3)]
    texts += ENCODING_EDGE_KBS.values()
    return [parse_kb(t) for t in texts] + [_ontology_kb()]


class TestEncoding:
    def test_fields_match_their_definitions(self):
        """Every field of ``CompiledKb`` that the engines read, against a
        derivation from the KB's literals and clauses that shares no
        code with the compile: ``decode`` is the encoding's inverse and
        ``apply_substitution`` the reference grounding."""
        from fourlqs.engine import CompiledKb
        kbs = _encoding_kbs()
        assert sum(any(isinstance(d.atom, Eq) for d in cl.disjuncts)
                   and not any(isinstance(l.atom, Eq) for l in kb.literals)
                   for kb in kbs for cl in kb.clauses) >= 10
        for kb in kbs:
            comp = CompiledKb(kb)
            inds = kb.var0_order
            nind = len(inds)
            assert [comp.decode(l) for l in comp.ground_lits] == \
                list(kb.literals)

            # Jobs run through the clauses in KB order and, per clause,
            # through every tau over the individual positions, ascending.
            at = 0
            for ci, cl in enumerate(kb.clauses):
                m = len(cl.quantified)
                specs = comp.clause_specs[ci]
                assert specs[0] == m
                taus = [tau for s, tau in comp.jobs[at:at + nind ** m]]
                assert all(s is specs[1]
                           for s, _ in comp.jobs[at:at + nind ** m])
                assert len(taus) == nind ** m
                assert all(len(tau) == m and all(0 <= t < nind for t in tau)
                           for tau in taus)
                assert all(x < y for x, y in zip(taus, taus[1:]))
                for tau in taus:
                    s = substitution0({z: inds[t]
                                       for z, t in zip(cl.quantified, tau)})
                    assert [comp.decode(l)
                            for l in comp.instantiate(specs[1], tau)] == \
                        [apply_substitution(d, s) for d in cl.disjuncts]
                at += nind ** m
            assert at == len(comp.jobs)

            has_eq = any(isinstance(l.atom, Eq) for l in kb.literals) or any(
                isinstance(d.atom, Eq)
                for cl in kb.clauses for d in cl.disjuncts)
            assert comp.has_eq is has_eq
            k = max(nind, 1)
            nkeys = (k * k if has_eq else 0) + (len(kb.var1_order) * k
                                                + len(kb.var3_order) * k * k)
            assert comp.nmarks == 4 * nkeys - 1
            # With no individual there is no literal to decode.
            eqs = [(l, comp.decode(l).atom) for l in range(0, 4 * nkeys, 4)
                   if nind and isinstance(comp.decode(l).atom, Eq)]
            assert len(eqs) == (nind * nind if has_eq else 0)
            assert type(comp.eq_pos) is frozenset
            assert comp.eq_pos == {l for l, a in eqs if a.left is not a.right}
            assert type(comp.neg_eq_diag) is frozenset
            assert comp.neg_eq_diag == {l + 1 for l, a in eqs
                                        if a.left is a.right}
            assert comp.eq_marked == comp.eq_pos | comp.neg_eq_diag
            assert comp.length_bound == len(kb.literals) + sum(
                len(cl.disjuncts) * nind ** len(cl.quantified)
                for cl in kb.clauses)


class TestPaperOrdering:
    def test_keg_executes_fewest_opcodes(self):
        """The paper's ordering in a count that does not depend on the
        host: on the 850-branch KB, one count-mode ``saturate`` of keg
        executes fewer Python opcodes than one of ke or of foke, compile
        included."""
        from fourlqs.bench import BenchConfig, gen_family
        kb = parse_kb(gen_family(BenchConfig(individuals=3, clauses=1))
                      + NOT_A)
        opts = EngineOptions(collect_branches=False)
        opcodes = {}
        for engine in ("keg", "ke", "foke"):
            count = 0

            def trace(frame, event, arg):
                nonlocal count
                frame.f_trace_opcodes = True
                if event == "opcode":
                    count += 1
                return trace

            sys.settrace(trace)
            try:
                res = saturate(kb, opts, engine=engine)
            finally:
                sys.settrace(None)
            assert res.open_count == 850
            opcodes[engine] = count
        assert opcodes["keg"] < opcodes["ke"], opcodes
        assert opcodes["keg"] < opcodes["foke"], opcodes
