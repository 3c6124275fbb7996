"""The three workloads: seeded input generators, the operations a round
times, and the reference checks every output must pass.

Every workload times the same operations, so every metric means the
same thing on each of them; what differs is the input family:

* ``check``   text -> ``parse_kb`` -> ``saturate(engine="keg")`` in
  count mode; gives ``check_s`` (both calls) and ``keg_s`` (saturate).
* ``ke``, ``foke``  one count-mode ``saturate`` on the parsed KB.
* ``keg_w2``  the same with ``workers=2`` (the ``check --workers`` path).
* ``query``   ``cli.main(["query", kb, ... "--json"])``, stdout captured.
* ``models``  ``cli.main(["models", kb])``, stdout captured.

Each ``saturate`` time includes the ``CompiledKb`` compile step.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from fourlqs import oracle
from fourlqs.bench import BenchConfig, gen_family, gen_random_kb, gen_random_query
from fourlqs.engine import EngineOptions, saturate
from fourlqs.oracle import (BoundsExceededError, OracleBounds, brute_answers,
                            extract_model, is_consistent, model_check)
from fourlqs.syntax import (parse_kb, parse_query, render_kb,
                            render_model_report)

from harness import Layers, Results, perf_counter

ENGINES = ("keg", "ke", "foke")
COUNT = EngineOptions(collect_branches=False)
PARALLEL = EngineOptions(collect_branches=False, workers=2)
ENGINE_OPS = ("check", "ke", "foke", "keg_w2")

@dataclass
class Query:
    label: str          # task letter: A, B, C, or D for a --q query file
    argv: List[str]     # cli arguments after "query <kb>"
    reference: str      # the same query as query text, for the oracle


@dataclass
class Item:
    key: str
    text: str
    path: Optional[Path] = None
    kb: object = None
    queries: List[Query] = field(default_factory=list)


def engine_signature(result) -> Tuple[int, ...]:
    """What every engine, serial or parallel, must agree on."""
    s = result.stats
    return (result.open_count, result.closed_count, s.rule_apps, s.pb_apps,
            s.peak_stack_depth)


def _fresh_names(rng: random.Random, prefix: str, count: int,
                 taken: Set[str]) -> List[str]:
    out = []
    while len(out) < count:
        name = f"{prefix}{rng.randrange(10 ** 6)}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _rename(text: str, mapping: Dict[str, str]) -> str:
    return re.sub(r"[A-Za-z0-9_]+", lambda m: mapping.get(m.group(), m.group()),
                  text)


def _task_queries(first: str, second: str, relation: str,
                  qfile: Path) -> List[Query]:
    """Tasks A, B, C and one two-conjunct query, with their query text."""
    return [
        Query("A", ["--task", "A", first, relation],
              f"(rel {first} ?x {relation})"),
        Query("B", ["--task", "B", first], f"(in {first} ?c)"),
        Query("C", ["--task", "C", first, second],
              f"(rel {first} {second} ?r)"),
        Query("D", ["--q", str(qfile)],
              f"(rel {first} ?y {relation}) (in ?y ?c)"),
    ]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def op_check(L: Layers, res: Results, key: str, text: str) -> bool:
    op = ("check", key)
    try:
        with L.request(*op):
            t0 = perf_counter()
            kb = L.parse_kb(text)
            t1 = perf_counter()
            r = L.saturate(kb, COUNT, engine="keg")
            t2 = perf_counter()
    except Exception as err:  # counted as a failed operation; the run goes on
        res.error(op, err)
        return False
    res.time("check_s", key, t0, t2 - t0)
    res.time("keg_s", key, t1, t2 - t1)
    res.output(op, engine_signature(r), r.stats)
    return True


def op_engine(L: Layers, res: Results, key: str, text: str,
              name: str) -> None:
    """One saturate on a KB parsed, untimed, for this op alone, so every
    engine starts from a fresh KB as keg does in ``op_check``."""
    engine, opts = ("keg", PARALLEL) if name == "keg_w2" else (name, COUNT)
    op = (name, key)
    try:
        kb = parse_kb(text)
        with L.request(*op):
            t0 = perf_counter()
            r = L.saturate(kb, opts, engine=engine)
            t1 = perf_counter()
    except Exception as err:
        res.error(op, err)
        return
    res.time(f"{name}_s", key, t0, t1 - t0)
    res.output(op, engine_signature(r), r.stats)


def op_cli(L: Layers, res: Results, metric: str, op: Tuple[str, str],
           argv: List[str]) -> None:
    out, err_out = io.StringIO(), io.StringIO()
    try:
        with L.request(*op), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err_out):
            t0 = perf_counter()
            rc = L.cli_main(argv)
            t1 = perf_counter()
    except Exception as err:
        res.error(op, err)
        return
    if rc != 0:
        res.error(op, RuntimeError(f"exit code {rc}: "
                                   f"{err_out.getvalue().strip()}"))
        return
    res.time(metric, op[1], t0, t1 - t0)
    res.output(op, out.getvalue())


def item_ops(L: Layers, res: Results, item: Item, turn: int,
             heavy: bool = True) -> Iterator[None]:
    """One visit to an input: check, then ke and foke (and keg_w2 when
    ``heavy``) in an order rotated by ``turn`` so no engine always runs
    first, then the item's queries and models.  Yields after each op."""
    if not op_check(L, res, item.key, item.text):
        return
    yield
    others = ["ke", "foke"] + (["keg_w2"] if heavy else [])
    shift = turn % len(others)
    for name in others[shift:] + others[:shift]:
        op_engine(L, res, item.key, item.text, name)
        yield
    if item.path is not None:
        yield from cli_ops(L, res, item)


def cli_ops(L: Layers, res: Results, item: Item) -> Iterator[None]:
    """The item's queries, then ``models``, through ``cli.main``."""
    for q in item.queries:
        op_cli(L, res, "query_s", ("query", f"{item.key}/{q.label}"),
               ["query", str(item.path), *q.argv, "--json"])
        yield
    op_cli(L, res, "models_s", ("models", item.key),
           ["models", str(item.path)])
    yield


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------

class Reference:
    """Expected outputs, from fourlqs.oracle and never from the engine
    under test.  ``oracle.reference_saturate`` runs once per KB (KBs are
    compared by value): while ``installed()`` is active the oracle's own
    ``brute_answers`` sees the cached result."""

    def __init__(self):
        self._saturations: Dict[object, tuple] = {}
        self._original = oracle.reference_saturate

    def saturation(self, kb):
        hit = self._saturations.get(kb)
        if hit is None:
            hit = self._saturations[kb] = self._original(kb)
        return hit

    @contextlib.contextmanager
    def installed(self):
        oracle.reference_saturate = lambda kb, *a, **k: self.saturation(kb)
        try:
            yield self
        finally:
            oracle.reference_saturate = self._original

    def counts(self, kb) -> Tuple[int, int]:
        opens, closed = self.saturation(kb)
        return len(opens), closed


def answer_keys(stdout: str):
    """The answer keys of a ``query --json`` output, in the form
    ``oracle.brute_answers`` returns."""
    out = set()
    for row in json.loads(stdout)["answers"]:
        binding = {**row["map0"], **row["map1"], **row["map3"]}
        out.add((tuple(sorted(binding.items())),
                 tuple(sorted(row["merges"].items()))))
    return out


class Checks:
    """Collects the ops whose first output is wrong, with a reason."""

    def __init__(self, res: Results):
        self.res = res
        self.wrong: Dict[Tuple[str, str], str] = {}
        self.collected: Dict[str, Tuple[int, int]] = {}  # open, merged

    def flag(self, op, reason: str) -> None:
        self.wrong.setdefault(op, reason)

    def engines(self, key: str, expected: Optional[Tuple[int, int]] = None,
                verdict: Optional[bool] = None) -> None:
        ops = [(name, key) for name in ENGINE_OPS
               if (name, key) in self.res.first]
        sigs = {op: self.res.first[op] for op in ops}
        if len(set(sigs.values())) > 1:
            for op in ops:
                self.flag(op, f"engines disagree on {key}: {sigs}")
        for op, sig in sigs.items():
            if expected is not None and sig[:2] != tuple(expected):
                self.flag(op, f"{op} counts {sig[:2]} != reference {expected}")
            if verdict is not None and (sig[0] > 0) != verdict:
                self.flag(op, f"{op} verdict {sig[0] > 0} != oracle {verdict}")

    def queries(self, item: Item, kb) -> None:
        for q in item.queries:
            op = ("query", f"{item.key}/{q.label}")
            if op not in self.res.first:
                continue
            expected = brute_answers(kb, parse_query(q.reference, kb))
            try:
                got = answer_keys(self.res.first[op])
            except (ValueError, KeyError, TypeError) as err:
                self.flag(op, f"unreadable query output: {err}")
                continue
            if got != expected:
                self.flag(op, f"{op}: {len(got)} answers, oracle has "
                              f"{len(expected)}")

    def models(self, item: Item, kb, ref: Reference) -> None:
        op = ("models", item.key)
        result = saturate(kb)
        merged = sum(1 for br, _s in result.open_complete if br.sigma_map)
        self.collected[item.key] = (result.open_count, merged)
        if op not in self.res.first:
            return
        reports = []
        for br, sigma in result.open_complete:
            interp = extract_model(br, sigma, kb)
            if not all(model_check(interp, c) for c in kb.conjuncts()):
                self.flag(op, f"{item.key}: an extracted model fails a "
                              "KB conjunct")
                return
            reports.append(json.loads(render_model_report(interp)))
        if len(reports) != ref.counts(kb)[0]:
            self.flag(op, f"{item.key}: {len(reports)} models, oracle has "
                          f"{ref.counts(kb)[0]} open branches")
        elif self.res.first[op].strip() != json.dumps({"models": reports},
                                                      sort_keys=True):
            self.flag(op, f"{item.key}: models output differs from the "
                          "checked models")

    def failed(self) -> int:
        res = self.res
        total = sum(res.errors.values()) + sum(res.repeat_mismatch.values())
        for op in self.wrong:
            total += res.calls[op] - res.errors[op] - res.repeat_mismatch[op]
        return total

    def messages(self) -> List[str]:
        out = [f"{op}: {text}" for op, text in self.res.error_text.items()]
        out += [f"{op}: {n} repeats differ from the first output"
                for op, n in self.res.repeat_mismatch.items()]
        return out + list(self.wrong.values())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.minimum_done = False
        self.reference = Reference()

    def setup(self, L: Layers) -> None:
        raise NotImplementedError

    def schedule(self, L: Layers, res: Results) -> Iterator[None]:
        raise NotImplementedError

    def check(self, res: Results) -> Checks:
        raise NotImplementedError

    def count_keys(self, res: Results) -> List[str]:
        """Inputs whose deterministic counts are recorded."""
        raise NotImplementedError

    def memory_kb(self, res: Results):
        raise NotImplementedError

    def warm_up(self, L: Layers) -> None:
        """Every operation once on a 17-branch KB, and one DL translation,
        so lazy imports, the worker pool's first start and first-call
        costs stay out of the measured phase, and every traced run has
        spans for every layer."""
        L.translate_kb(L.parse_dl("\n".join(ONTOLOGY_TBOX) + "\n"))
        text = gen_family(BenchConfig(individuals=2)) + "lit (not (in a A))\n"
        path = self.workdir / "warm-up.4lqs"
        path.write_text(text)
        qfile = self.workdir / "warm-up.q"
        item = Item("warm-up", text, path,
                    queries=_task_queries("a", "b", "P", qfile))
        qfile.write_text(item.queries[-1].reference + "\n")
        for _ in item_ops(L, Results(), item, 0):
            pass


class PaperEngines(Workload):
    """The paper's experiment: keg, ke and foke (and keg with two
    workers) on the product-rule KB at 4 individuals, kept small by
    ``(not (in a A))`` and ``(not (in b A))``: 7,058 branches, about 0.05 s
    a call.  With only the first literal (124,755 branches, 1-2.4 s a
    call) a 30 s run held three or four calls per engine, which caught
    the host's slow and fast phases unevenly: over ten seeds foke's
    figure spread 27% and keg_w2's 25%.  Queries and models run on the
    family one individual smaller with the first literal (850 branches)."""

    name = "paper-engines"
    BIG_LITERALS = "lit (not (in a A))\nlit (not (in b A))\n"
    SMALL_LITERALS = "lit (not (in a A))\n"

    def __init__(self, seed: int, workdir: Path, individuals: int = 4):
        super().__init__(seed, workdir)
        self.individuals = individuals

    def texts(self) -> Tuple[str, str, Dict[str, str]]:
        rng = random.Random(f"{self.name}:{self.seed}")
        taken = {"z", "z1"}
        inds = _fresh_names(rng, "x", 8, taken)
        sets = _fresh_names(rng, "K", 4, taken)
        rels = _fresh_names(rng, "R", 2, taken)
        mapping = dict(zip("abcdefgh", inds))
        mapping.update(zip(("A", "B", "C", "D"), sets))
        mapping.update(zip(("P", "P1"), rels))

        def family(n: int, literals: str) -> str:
            return _rename(gen_family(BenchConfig(individuals=n, clauses=1))
                           + literals, mapping)

        return (family(self.individuals, self.BIG_LITERALS),
                family(self.individuals - 1, self.SMALL_LITERALS), mapping)

    def setup(self, L: Layers) -> None:
        big, small, names = self.texts()
        qfile = self.workdir / "paper-small.q"
        path = self.workdir / "paper-small.4lqs"
        path.write_text(small)
        self.big = Item(f"paper{self.individuals}", big, kb=L.parse_kb(big))
        self.small = Item(f"paper{self.individuals - 1}", small, path,
                          L.parse_kb(small),
                          _task_queries(names["a"], names["b"], names["P"],
                                        qfile))
        qfile.write_text(self.small.queries[-1].reference + "\n")
        self.warm_up(L)

    def schedule(self, L: Layers, res: Results) -> Iterator[None]:
        turn = 0
        while True:
            yield from item_ops(L, res, self.big, turn)
            yield from cli_ops(L, res, self.small)
            self.minimum_done = True
            yield
            turn += 1

    def check(self, res: Results) -> Checks:
        checks = Checks(res)
        with self.reference.installed() as ref:
            checks.engines(self.big.key, expected=ref.counts(self.big.kb))
            checks.queries(self.small, self.small.kb)
            checks.models(self.small, self.small.kb, ref)
        return checks

    def count_keys(self, res: Results) -> List[str]:
        return [self.big.key, self.small.key]

    def memory_kb(self, res: Results):
        return self.big.kb


STREAM_BOUNDS = dict(max_individuals=3, max_clauses=5, max_quantifiers=2,
                     max_ground=6)


class KbStream(Workload):
    """A pool of small random KBs, visited round-robin, each visit a new
    request: text to verdict with every engine.  Every ``QUERY_EVERY``-th
    KB also runs keg with two workers, tasks A (when the KB has a
    relation), B and C, one random query and ``models``.

    A pool rather than an endless stream keeps the bookkeeping, the
    checks and the counts to a fixed size: with an endless stream, peak
    RSS grew with the number of KBs a run got through."""

    name = "kb-stream"
    KBS = 2048
    QUERY_EVERY = 16

    def pool_input(self, i: int) -> Tuple[str, Optional[str]]:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        text = gen_random_kb(rng, **STREAM_BOUNDS)
        if i % self.QUERY_EVERY:
            return text, None
        return text, gen_random_query(rng, parse_kb(text))

    def setup(self, L: Layers) -> None:
        self.items = []
        for i in range(self.KBS):
            text, query = self.pool_input(i)
            item = Item(f"kb{i}", text)
            if query is not None:
                item.path = self.workdir / f"kb{i}.4lqs"
                item.path.write_text(text)
                qfile = self.workdir / f"kb{i}.q"
                qfile.write_text(query)
                kb = parse_kb(text)
                inds = [v.name for v in kb.var0_order]
                rels = [v.name for v in kb.var3_order]
                tasks = _task_queries(inds[0], inds[-1], (rels or ["-"])[0],
                                      qfile)[:3]
                item.queries = tasks[0 if rels else 1:] + [
                    Query("D", ["--q", str(qfile)], query)]
            self.items.append(item)
        self.warm_up(L)

    def schedule(self, L: Layers, res: Results) -> Iterator[None]:
        turn = 0
        while True:
            for item in self.items:
                yield from item_ops(L, res, item, turn,
                                    heavy=item.path is not None)
                turn += 1
            self.minimum_done = True
            yield               # lets the caller stop at a round's end

    def check(self, res: Results) -> Checks:
        checks = Checks(res)
        bounds = OracleBounds()
        with self.reference.installed() as ref:
            for item in self.items:
                kb = parse_kb(item.text)
                try:
                    verdict = is_consistent(kb, bounds)
                except BoundsExceededError:
                    verdict = None      # engine parity is the check left
                expected = None
                if item.path is not None:
                    expected = ref.counts(kb)
                    checks.queries(item, kb)
                    checks.models(item, kb, ref)
                checks.engines(item.key, expected, verdict)
        return checks

    def count_keys(self, res: Results) -> List[str]:
        return [item.key for item in self.items]

    def memory_kb(self, res: Results):
        """The pool KB with the most leaves."""
        def leaves(item: Item) -> int:
            sig = res.first.get(("check", item.key), (0, 0))
            return sig[0] + sig[1]

        return parse_kb(max(self.items, key=leaves).text)


# Every ontology is this TBox plus this ABox with every name drawn from
# the seed.  Names do not change the branch counts (196 open, 14 of them
# merged, and 1,276 closed), so seeds differ in text but not in work;
# shuffling the ABox lines as well moved the counts by 1.4x between KBs
# and the run's figures with them.  With four individuals ``fun`` over
# two roles exceeds 5 s per saturation.  The TBox ``all A S C`` (656
# open, 6,160 closed) made calls of 0.3-0.8 s, nine per engine in a
# 30 s run, and the host's speed changed within single calls, so their
# scaled times spread 5-12% between seeds.
ONTOLOGY_TBOX = ("fun R", "irref S", "some R A B", "all B S A")
ONTOLOGY_ABOX = ("role 0 1 R", "role 1 2 S", "assert 2 A", "assert 0 B")
ONTOLOGY_INDIVIDUALS = 3


class OntologyQuery(Workload):
    """DL ontologies translated once in set-up; then every engine, the
    four query kinds and ``models`` on each, through ``cli.main``."""

    name = "ontology-query"
    KBS = 2

    def dl_text(self, rng: random.Random) -> str:
        taken: Set[str] = set()
        mapping = dict(zip("012", _fresh_names(rng, "o", ONTOLOGY_INDIVIDUALS,
                                               taken)))
        mapping.update(zip(("A", "B"), _fresh_names(rng, "K", 2, taken)))
        mapping.update(zip(("R", "S"), _fresh_names(rng, "r", 2, taken)))
        return _rename("\n".join(ONTOLOGY_TBOX + ONTOLOGY_ABOX) + "\n",
                       mapping)

    def dl_texts(self) -> List[str]:
        rng = random.Random(f"{self.name}:{self.seed}")
        return [self.dl_text(rng) for _ in range(self.KBS)]

    def setup(self, L: Layers) -> None:
        self.items = []
        for j, dl in enumerate(self.dl_texts()):
            kb = L.translate_kb(L.parse_dl(dl))
            text = render_kb(kb)
            kb = L.parse_kb(text)
            first, second = (v.name for v in kb.var0_order[:2])
            fun_role = re.search(r"^fun (\S+)$", dl, re.M).group(1)
            path = self.workdir / f"onto{j}.4lqs"
            path.write_text(text)
            qfile = self.workdir / f"onto{j}.q"
            queries = _task_queries(first, second, fun_role, qfile)
            qfile.write_text(queries[-1].reference + "\n")
            self.items.append(Item(f"onto{j}", text, path, kb, queries))
        self.warm_up(L)

    def schedule(self, L: Layers, res: Results) -> Iterator[None]:
        turn = 0
        while True:
            for item in self.items:
                yield from item_ops(L, res, item, turn)
            self.minimum_done = True
            yield               # lets the caller stop at a round's end
            turn += 1

    def check(self, res: Results) -> Checks:
        checks = Checks(res)
        with self.reference.installed() as ref:
            for item in self.items:
                checks.engines(item.key, expected=ref.counts(item.kb))
                checks.queries(item, item.kb)
                checks.models(item, item.kb, ref)
        return checks

    def count_keys(self, res: Results) -> List[str]:
        return [item.key for item in self.items]

    def memory_kb(self, res: Results):
        return self.items[0].kb


WORKLOADS = {w.name: w for w in (PaperEngines, KbStream, OntologyQuery)}
