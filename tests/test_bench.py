"""Benchmark family generation and the comparison harness."""

import csv
import io
import random

import pytest

from fourlqs import parse_kb
from fourlqs.bench import (CSV_COLUMNS, BenchConfig, InvalidConfigError,
                           gen_family, gen_random_kb, gen_random_query,
                           run_bench)


class TestGenFamily:
    def test_paper_shape_at_four_individuals(self):
        text = gen_family(BenchConfig(individuals=4, clauses=1))
        kb = parse_kb(text)
        assert len(kb.literals) == 4
        assert len(kb.clauses) == 1
        cl = kb.clauses[0]
        assert len(cl.quantified) == 2
        assert len(cl.disjuncts) == 5
        polarities = [d.positive for d in cl.disjuncts]
        assert polarities == [False, False, False, False, True]
        assert len(kb.var0_order) ** len(cl.quantified) == 16

    def test_degenerate_single_individual(self):
        kb = parse_kb(gen_family(BenchConfig(individuals=1, clauses=1)))
        assert len(kb.literals) == 1
        assert len(kb.var0_order) ** 2 == 1

    def test_multiple_clauses_use_distinct_symbols(self):
        kb = parse_kb(gen_family(BenchConfig(individuals=2, clauses=2)))
        assert len(kb.clauses) == 2
        syms = [frozenset(d.atom.set1.name for d in cl.disjuncts
                          if hasattr(d.atom, "set1"))
                for cl in kb.clauses]
        assert syms[0] != syms[1]

    def test_random_family_deterministic(self):
        cfg = BenchConfig(family="random", individuals=3, clauses=3, seed=9)
        assert gen_family(cfg) == gen_family(cfg)
        other = BenchConfig(family="random", individuals=3, clauses=3, seed=10)
        assert gen_family(cfg) != gen_family(other)

    def test_random_family_needs_seed(self):
        with pytest.raises(InvalidConfigError):
            gen_family(BenchConfig(family="random", seed=None))

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            gen_family(BenchConfig(individuals=0))
        with pytest.raises(InvalidConfigError):
            BenchConfig(engines=("keg", "nope")).validate()
        with pytest.raises(InvalidConfigError, match="no engine"):
            BenchConfig(engines=()).validate()
        with pytest.raises(InvalidConfigError, match="repeated"):
            BenchConfig(engines=("keg", "ke", "keg")).validate()

    @pytest.mark.parametrize("family", ["product-rule", "random"])
    def test_at_most_eight_individuals(self, family):
        """The random family draws from the same 8 names, so it is capped
        where the product-rule family is, before any CSV row says 9."""
        BenchConfig(family=family, individuals=8, seed=1).validate()
        with pytest.raises(InvalidConfigError) as err:
            BenchConfig(family=family, individuals=9, seed=1).validate()
        assert str(err.value) == f"{family} family supports up to 8 individuals"


class TestRandomGenerators:
    def test_kb_within_bounds(self):
        rng = random.Random(0)
        for _ in range(50):
            kb = parse_kb(gen_random_kb(rng))
            assert 1 <= len(kb.var0_order) <= 3
            assert len(kb.var1_order) <= 3
            assert len(kb.var3_order) <= 2
            assert len(kb.clauses) <= 3
            for cl in kb.clauses:
                assert 1 <= len(cl.quantified) <= 2
                assert 1 <= len(cl.disjuncts) <= 4

    def test_kb_at_most_eight_individuals(self):
        """The generator draws from 8 names, so a larger bound is refused
        rather than met with a smaller KB than asked for."""
        rng = random.Random(2)
        sizes = {len(parse_kb(gen_random_kb(rng, max_individuals=8))
                     .var0_order) for _ in range(60)}
        assert max(sizes) == 8
        with pytest.raises(InvalidConfigError) as err:
            gen_random_kb(rng, max_individuals=9)
        assert str(err.value) == "random KBs support up to 8 individuals"

    def test_query_within_bounds(self):
        rng = random.Random(1)
        from fourlqs.syntax import parse_query
        for _ in range(50):
            kb = parse_kb(gen_random_kb(rng))
            q = parse_query(gen_random_query(rng, kb), kb)
            assert len(q.conjuncts) <= 3
            assert len(q.query_vars()) <= 2


class TestRunBench:
    def test_tiny_run_rows_and_parity(self):
        cfg = BenchConfig(individuals=2, clauses=1, repetitions=2)
        report = run_bench(cfg)
        assert len(report.rows) == 3 * 2
        opens = {r.open_branches for r in report.rows}
        assert len(opens) == 1
        closed = {r.closed_branches for r in report.rows}
        assert len(closed) == 1

    def test_csv_schema(self):
        cfg = BenchConfig(individuals=1, clauses=1)
        report = run_bench(cfg)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + 3
        for row in rows[1:]:
            assert len(row) == len(CSV_COLUMNS)

    def test_memory_claim_on_family(self):
        cfg = BenchConfig(individuals=2, clauses=1)
        report = run_bench(cfg)
        peaks = {r.engine: r.peak_formulae for r in report.rows}
        assert peaks["keg"] <= peaks["foke"]
