"""Benchmark knowledge-base generation and the three-engine harness.

The ``product-rule`` family is the scaling family used for engine
comparison: N individuals asserted into one set plus copies of a
two-quantifier five-disjunct rule clause; at N=4 it already produces
millions of open branches.  The ``random`` family draws small KBs from a
fixed symbol pool within configurable shape bounds and is what the
agreement test corpora use.

``run_bench`` runs the selected engines on the generated KB with
identical orderings, asserts branch parity before reporting any timing
(a parity difference is a correctness bug, not a data point), and emits
CSV and JSON rows.  Timings cover saturation plus the equality phase
only; parsing is excluded.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .core import FourlqsError, KnowledgeBase
from .engine import EngineOptions, saturate
from .syntax import parse_kb

CSV_COLUMNS = ["engine", "family", "individuals", "clauses", "run",
               "open_branches", "closed_branches", "wall_ms", "rule_apps",
               "pb_apps", "peak_formulae"]

_INDIVIDUALS = "abcdefgh"
_SET1_POOL = ("A", "B", "C")
_SET3_POOL = ("R", "S")


class InvalidConfigError(FourlqsError):
    pass


class ParityViolationError(FourlqsError):
    """Engines disagreed on branch counts; the report is aborted."""


@dataclass(slots=True)
class BenchConfig:
    engines: Sequence[str] = ("keg", "ke", "foke")
    family: str = "product-rule"
    individuals: int = 4
    clauses: int = 1
    disjuncts: int = 4
    quantifiers: int = 2
    repetitions: int = 1
    seed: Optional[int] = None
    ground: int = 4
    workers: int = 1

    def validate(self) -> None:
        if self.family not in ("product-rule", "random"):
            raise InvalidConfigError(f"unknown family {self.family!r}")
        if min(self.individuals, self.clauses, self.repetitions,
               self.workers) < 1:
            raise InvalidConfigError("individuals, clauses, repetitions and "
                                     "workers must be at least 1")
        if self.disjuncts < 1 or self.quantifiers < 1:
            raise InvalidConfigError("disjuncts and quantifiers must be at "
                                     "least 1")
        if self.family == "random" and self.seed is None:
            raise InvalidConfigError("the random family needs a seed")
        for e in self.engines:
            if e not in ("keg", "ke", "foke"):
                raise InvalidConfigError(f"unknown engine {e!r}")
        if not self.engines:
            raise InvalidConfigError("no engine selected")
        if len(set(self.engines)) < len(self.engines):
            raise InvalidConfigError(f"engines repeated in "
                                     f"{','.join(self.engines)!r}")
        if self.individuals > len(_INDIVIDUALS):
            raise InvalidConfigError(f"{self.family} family supports up to "
                                     f"{len(_INDIVIDUALS)} individuals")


def gen_family(cfg: BenchConfig) -> str:
    """Deterministic KB text for the configured family."""
    cfg.validate()
    if cfg.family == "product-rule":
        return _gen_product_rule(cfg.individuals, cfg.clauses)
    rng = random.Random(cfg.seed)
    return gen_random_kb(rng, max_individuals=cfg.individuals,
                         max_clauses=cfg.clauses,
                         max_quantifiers=cfg.quantifiers,
                         max_disjuncts=cfg.disjuncts,
                         max_ground=cfg.ground)


def _gen_product_rule(individuals: int, clauses: int) -> str:
    lines = [f"lit (in {_INDIVIDUALS[i]} D)" for i in range(individuals)]
    for j in range(clauses):
        sfx = "" if clauses == 1 else str(j + 1)
        lines.append(
            f"clause (forall z z1) (or (not (in z A{sfx})) "
            f"(not (rel z z1 P{sfx})) (not (in z1 B{sfx})) "
            f"(not (rel z z1 P1{sfx})) (in z1 C{sfx}))")
    return "\n".join(lines) + "\n"


def gen_random_kb(rng: random.Random, max_individuals: int = 3,
                  max_set1: int = 3, max_set3: int = 2, max_clauses: int = 3,
                  max_quantifiers: int = 2, max_disjuncts: int = 4,
                  max_ground: int = 4, allow_equality: bool = True) -> str:
    """One random KB as text, a pure function of the generator state.

    Shapes stay within the oracle's exhaustive-checking bounds.  Equality
    atoms (both polarities, including trivially true and trivially false
    ones) are drawn when allowed, so the merge machinery gets exercised.
    """
    if max_individuals > len(_INDIVIDUALS):
        raise InvalidConfigError(f"random KBs support up to "
                                 f"{len(_INDIVIDUALS)} individuals")
    inds = list(_INDIVIDUALS[:rng.randint(1, max_individuals)])
    sets1 = list(_SET1_POOL[:rng.randint(1, max_set1)])
    sets3 = list(_SET3_POOL[:rng.randint(0, max_set3)])

    def atom(slots: Sequence[str]) -> str:
        choices = ["in"]
        if sets3:
            choices.append("rel")
        if allow_equality:
            choices.append("eq")
        shape = rng.choice(choices)
        if shape == "in":
            return f"(in {rng.choice(slots)} {rng.choice(sets1)})"
        if shape == "rel":
            return f"(rel {rng.choice(slots)} {rng.choice(slots)} {rng.choice(sets3)})"
        return f"(eq {rng.choice(slots)} {rng.choice(slots)})"

    def literal(slots: Sequence[str]) -> str:
        a = atom(slots)
        return a if rng.random() < 0.6 else f"(not {a})"

    lines = ["ind " + " ".join(inds)]
    for _ in range(rng.randint(0, max_ground)):
        lines.append(f"lit {literal(inds)}")
    for _ in range(rng.randint(0, max_clauses)):
        m = rng.randint(1, max_quantifiers)
        zs = [f"qz{i + 1}" for i in range(m)]
        slots = zs + inds
        body = " ".join(literal(slots)
                        for _ in range(rng.randint(1, max_disjuncts)))
        lines.append(f"clause (forall {' '.join(zs)}) (or {body})")
    return "\n".join(lines) + "\n"


def gen_random_query(rng: random.Random, kb: KnowledgeBase,
                     max_conjuncts: int = 3, max_qvars: int = 2,
                     allow_negative: bool = True) -> str:
    """A random query over the KB's symbols with at most ``max_qvars``
    distinct query variables (named per sort, so reuse means a join)."""
    inds = [v.name for v in kb.var0_order]
    sets1 = [v.name for v in kb.var1_order]
    sets3 = [v.name for v in kb.var3_order]
    budget = rng.randint(0, max_qvars)
    used: List[str] = []

    def slot(pool: List[str], prefix: str) -> Optional[str]:
        mine = [u for u in used if u.startswith("?" + prefix)]
        roll = rng.random()
        if mine and roll < 0.25:
            return rng.choice(mine)
        if len(used) < budget and roll < 0.55:
            name = f"?{prefix}{len(mine) + 1}"
            used.append(name)
            return name
        if pool:
            return rng.choice(pool)
        if mine:
            return rng.choice(mine)
        if len(used) < budget:
            name = f"?{prefix}{len(mine) + 1}"
            used.append(name)
            return name
        return None

    conjuncts = []
    for _ in range(rng.randint(1, max_conjuncts)):
        kinds = []
        if sets1:
            kinds.append("in")
        if sets3 or budget:
            kinds.append("rel")
        if inds:
            kinds.append("eq")
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "in":
            parts = [slot(inds, "v"), slot(sets1, "c")]
            a = "(in {} {})".format(*parts) if all(parts) else None
        elif kind == "rel":
            parts = [slot(inds, "v"), slot(inds, "v"), slot(sets3, "r")]
            a = "(rel {} {} {})".format(*parts) if all(parts) else None
        else:
            parts = [slot(inds, "v"), slot(inds, "v")]
            a = "(eq {} {})".format(*parts) if all(parts) else None
        if a is None:
            continue
        if allow_negative and rng.random() < 0.3:
            a = f"(not {a})"
        conjuncts.append(a)
    return "\n".join(conjuncts) + ("\n" if conjuncts else "")


@dataclass(slots=True)
class BenchRow:
    engine: str
    family: str
    individuals: int
    clauses: int
    run: int
    open_branches: int
    closed_branches: int
    wall_ms: float
    rule_apps: int
    pb_apps: int
    peak_formulae: int

    def as_list(self):
        return [self.engine, self.family, self.individuals, self.clauses,
                self.run, self.open_branches, self.closed_branches,
                f"{self.wall_ms:.3f}", self.rule_apps, self.pb_apps,
                self.peak_formulae]


@dataclass(slots=True)
class BenchReport:
    config: BenchConfig
    rows: List[BenchRow] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(row.as_list())
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {"rows": [dict(zip(CSV_COLUMNS, r.as_list())) for r in self.rows]},
            sort_keys=True)

    def wall_ms(self, engine: str) -> List[float]:
        return [r.wall_ms for r in self.rows if r.engine == engine]


def run_bench(cfg: BenchConfig, progress=None) -> BenchReport:
    """Generate the KB, run every engine ``repetitions`` times, assert
    branch parity, and collect the report rows."""
    cfg.validate()
    text = gen_family(cfg)
    kb = parse_kb(text)
    opts = EngineOptions(collect_branches=False, workers=cfg.workers)
    report = BenchReport(config=cfg)
    counts: Dict[str, tuple] = {}
    for engine in cfg.engines:
        for rep in range(cfg.repetitions):
            if progress:
                progress(f"{engine} run {rep + 1}/{cfg.repetitions}")
            result = saturate(kb, opts, engine=engine)
            counts.setdefault(engine, (result.open_count, result.closed_count))
            if counts[engine] != (result.open_count, result.closed_count):
                raise ParityViolationError(
                    f"{engine} changed branch counts between repetitions")
            report.rows.append(BenchRow(
                engine=engine, family=cfg.family,
                individuals=cfg.individuals, clauses=cfg.clauses, run=rep,
                open_branches=result.open_count,
                closed_branches=result.closed_count,
                wall_ms=result.stats.wall_seconds * 1000.0,
                rule_apps=result.stats.rule_apps,
                pb_apps=result.stats.pb_apps,
                peak_formulae=result.stats.peak_resident_formulae))
    distinct = set(counts.values())
    if len(distinct) > 1:
        raise ParityViolationError(
            f"branch counts differ across engines: {counts}")
    return report
