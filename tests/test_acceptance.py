"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The paper-scale benchmark (criteria 5 and 7) saturates a
two-million-branch tableau three times and dominates the runtime.
"""

import functools
import random
import time

import pytest

from fourlqs import EngineOptions, parse_kb, parse_query, saturate
from fourlqs.bench import BenchConfig, gen_family, gen_random_kb, gen_random_query
from fourlqs.engine import CompiledKb
from fourlqs.hocqa import answer, task_query
from fourlqs.oracle import (brute_answers, extract_model,
                            has_model_over_quotient, is_consistent,
                            model_check)
from fourlqs.syntax import render_kb

from conftest import ITALY_KB

SEED = 0xC0FFEE
ENGINES = {e: functools.partial(saturate, engine=e)
           for e in ("keg", "ke", "foke")}


def _report(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def paper_scale_runs():
    """One saturation per engine on the individuals=4 family KB, shared
    by the benchmark-direction and memory criteria."""
    kb = parse_kb(gen_family(BenchConfig(individuals=4, clauses=1)))
    opts = EngineOptions(collect_branches=False)
    runs = {}
    for name, sat in ENGINES.items():
        start = time.perf_counter()
        result = sat(kb, opts)
        wall = time.perf_counter() - start
        runs[name] = (result, wall)
    return runs


def test_criterion_1_consistency_agreement():
    """300 random KBs: engine verdict equals finite-model existence."""
    rng = random.Random(SEED)
    start = time.perf_counter()
    agreements = 0
    for _ in range(300):
        kb = parse_kb(gen_random_kb(rng))
        assert saturate(kb).consistent == is_consistent(kb), render_kb(kb)
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 300
    assert elapsed < 120.0
    _report(f"criterion 1 PASS: consistency agreement 300/300 in "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_2_answer_agreement():
    """150 random (KB, query) pairs: the stack search equals exhaustive
    substitution enumeration over an independently derived branch set;
    every reported answer also has a witnessing model over exactly its
    merge quotient."""
    rng = random.Random(SEED + 1)
    agreements = 0
    semantic_checks = 0
    while agreements < 150:
        kb = parse_kb(gen_random_kb(rng))
        qtext = gen_random_query(rng, kb)
        q = parse_query(qtext, kb)
        result = saturate(kb)
        got = answer(q, result)
        assert got.keys() == brute_answers(kb, q), (render_kb(kb), qtext)
        agreements += 1
        for ans in got:
            if semantic_checks >= 300:
                break
            from fourlqs.core import apply_substitution
            conj = [apply_substitution(apply_substitution(c, ans.merges),
                                       ans.binding) for c in q.conjuncts]
            # The source branch's model satisfies the KB and every
            # instantiated conjunct (negatives included: their positive
            # twin cannot be on an open branch), so a model over exactly
            # this merge quotient must exist.
            assert has_model_over_quotient(kb, ans.merges, conj), \
                (render_kb(kb), qtext, ans)
            semantic_checks += 1
    _report(f"criterion 2 PASS: answer agreement 150/150 "
            f"(+{semantic_checks} semantic witness checks)")


def test_criterion_3_worked_example():
    """The worked geography example end to end."""
    kb = parse_kb(ITALY_KB)
    result = saturate(kb)
    assert result.consistent and result.open_count == 2
    q = task_query("role-instance", ["Rome", "Italy"], kb)
    ans = answer(q, result)
    assert ans.keys() == {((("?r", "locatedIn"),), ()),
                          ((("?r", "isPartOf"),), ())}
    for br, sigma in result.open_complete:
        interp = extract_model(br, sigma, kb)
        for conjunct in kb.conjuncts():
            assert model_check(interp, conjunct)
    _report("criterion 3 PASS: worked example (2 branches, both role "
            "answers, extracted models satisfy all conjuncts)")


def test_criterion_4_branch_parity():
    """Open and closed branch counts agree across the three engines on
    the scaling family and on 50 random KBs."""
    cases = 0
    for n in (1, 2, 3):
        kb = parse_kb(gen_family(BenchConfig(individuals=n, clauses=1)))
        counts = {(r.open_count, r.closed_count)
                  for r in (sat(kb) for sat in ENGINES.values())}
        assert len(counts) == 1, f"family n={n}: {counts}"
        cases += 1
    rng = random.Random(SEED + 2)
    for _ in range(50):
        kb = parse_kb(gen_random_kb(rng))
        counts = {(r.open_count, r.closed_count)
                  for r in (sat(kb) for sat in ENGINES.values())}
        assert len(counts) == 1, render_kb(kb)
        cases += 1
    _report(f"criterion 4 PASS: branch parity on {cases} KBs "
            f"(family sizes 1-3 plus 50 random)")


def test_criterion_5_paper_scale_benchmark(paper_scale_runs):
    """The individuals=4 family: more than a million open branches on
    every engine, the fused rule finishing within 60 s and at least 1.2x
    faster than both baselines."""
    walls = {}
    for name, (result, wall) in paper_scale_runs.items():
        assert result.open_count > 10 ** 6, \
            f"{name}: {result.open_count} open branches"
        walls[name] = wall
    assert walls["keg"] < 60.0
    assert walls["keg"] < walls["ke"] and walls["keg"] < walls["foke"]
    assert walls["ke"] >= 1.2 * walls["keg"]
    assert walls["foke"] >= 1.2 * walls["keg"]
    opens = {r.open_count for r, _ in paper_scale_runs.values()}
    assert len(opens) == 1
    _report("criterion 5 PASS: open={:,} keg={:.1f}s ke={:.1f}s ({:.2f}x) "
            "foke={:.1f}s ({:.2f}x)".format(
                opens.pop(), walls["keg"], walls["ke"],
                walls["ke"] / walls["keg"], walls["foke"],
                walls["foke"] / walls["keg"]))


def test_criterion_6_height_bound():
    """Every branch stays within p + sum(l * k^r) literals.  The engines
    assert this at every leaf; re-checked here against the recorded peak
    on a corpus."""
    corpus = [parse_kb(ITALY_KB)]
    for n in (1, 2, 3):
        corpus.append(parse_kb(gen_family(BenchConfig(individuals=n,
                                                      clauses=1))))
    rng = random.Random(SEED + 3)
    for _ in range(50):
        corpus.append(parse_kb(gen_random_kb(rng)))
    for kb in corpus:
        bound = CompiledKb(kb).length_bound
        for sat in ENGINES.values():
            result = sat(kb)
            assert result.stats.peak_branch_literals <= bound, render_kb(kb)
    _report(f"criterion 6 PASS: height bound held on {len(corpus)} KBs x 3 "
            "engines")


def test_criterion_7_memory_claim(paper_scale_runs):
    """Peak resident formula count: the fused rule never exceeds the
    instance-storing baseline, on every family size."""
    for n in (1, 2, 3):
        kb = parse_kb(gen_family(BenchConfig(individuals=n, clauses=1)))
        keg = saturate(kb).stats.peak_resident_formulae
        foke = saturate(kb, engine="foke").stats.peak_resident_formulae
        assert keg <= foke, f"family n={n}"
    keg4 = paper_scale_runs["keg"][0].stats.peak_resident_formulae
    foke4 = paper_scale_runs["foke"][0].stats.peak_resident_formulae
    assert keg4 <= foke4
    _report(f"criterion 7 PASS: peak resident formulae keg={keg4} <= "
            f"foke={foke4} at individuals=4 (and at 1-3)")


def test_criterion_8_determinism_and_round_trip():
    """Byte-identical repeated runs; parse o render identity on 500
    generated KBs."""
    kb = parse_kb(ITALY_KB)
    q = task_query("role-instance", ["Rome", "Italy"], kb)
    from fourlqs.syntax import render_answer_set
    outs = set()
    branch_encodings = set()
    for _ in range(3):
        result = saturate(kb)
        branch_encodings.add(tuple(br.lit_ints
                                   for br, _ in result.open_complete))
        ans = answer(q, result)
        outs.add(render_answer_set([(a.binding, a.merges) for a in ans]))
    assert len(outs) == 1 and len(branch_encodings) == 1

    rng = random.Random(SEED + 4)
    for _ in range(500):
        kb = parse_kb(gen_random_kb(rng))
        assert parse_kb(render_kb(kb)) == kb
    _report("criterion 8 PASS: byte-identical repeat runs; 500/500 "
            "parse-render round-trips")
