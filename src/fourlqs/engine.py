"""Tableau saturation engines.

Three engines share one depth-first explorer and differ only in how they
expand universal clauses, which is exactly the comparison the benchmark
harness isolates:

* ``keg``  -- the fused elimination rule: each (clause, instantiation)
  pair is ground-instantiated on the fly when the explorer's clause/tau
  cursor reaches it and the instance is discarded immediately afterwards;
  nothing instance-shaped is ever stored, and the cursor position itself
  witnesses fulfillment, so there is no per-instance branch state at all.
* ``ke``   -- classic elimination over an up-front grounding: every
  instance is materialised before exploration and lives on the branch as
  a formula.  Each expansion step re-selects the first not-yet-fulfilled
  stored instance by checking the stored list against the branch.
* ``foke`` -- first-order style: an instance is materialised when first
  needed and parked on the branch as a resident formula before the
  elimination/split step runs on it; selection scans the residents the
  same way ke scans its grounding, and residents pop on backtrack.

Re-inspecting stored instances at every step is the cost of keeping
them around and is what the fused rule avoids; scan-based selection for
the baselines and cursor-based for keg mirrors how the respective
calculi drive their loops, and the benchmark quantifies the difference.

All three use the same split rule, the same closure test, the same
instantiation order (clauses in KB order, tuples lexicographic in
individual order) and the same equality-normalisation phase, so branch
counts and branch literal sets agree across engines.

Internally literals are packed into integers: atom ids are assigned at
compile time in a fixed order shared by all engines (so branch encodings
are comparable), and the low bit carries polarity, making complement a
single xor.  The explorer keeps one mutable branch (a set plus an
insertion-order trail) and undoes to a saved trail length on backtrack.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (Eq, FourlqsError, KnowledgeBase, Literal, Member1,
                   Member3, PreconditionError, Substitution, UniversalClause,
                   apply_substitution, complement, substitution0)

KIND_EQ = 0
KIND_IN1 = 1
KIND_IN3 = 2


class ResourceLimitError(FourlqsError):
    """A configured branch or time budget was exceeded.

    ``partial`` holds a SaturationResult with the statistics gathered up
    to the point the limit tripped (branches collected so far are kept).
    """

    def __init__(self, message: str, partial: "SaturationResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(slots=True)
class EngineOptions:
    """Knobs shared by every engine.

    ``collect_branches`` off keeps only counts and statistics, which is
    what the benchmark harness uses: at paper scale the open-branch set
    does not fit in memory comfortably.
    """

    max_branches: Optional[int] = None
    max_seconds: Optional[float] = None
    workers: int = 1
    collect_branches: bool = True


@dataclass(slots=True)
class EngineStats:
    rule_apps: int = 0          # E^gamma (keg) or E-rule (ke, foke) uses
    pb_apps: int = 0
    gamma_apps: int = 0         # foke only: instances parked on branches
    peak_stack_depth: int = 0
    peak_branch_literals: int = 0
    peak_resident_formulae: int = 0
    wall_seconds: float = 0.0


class CompiledKb:
    """Integer encoding of a knowledge base, shared by all engines.

    A literal is the integer ``2 * (((kind*nsym + sym)*k + a)*k + b) + neg``
    with ``kind`` the atom shape, ``sym`` the set symbol (0 for equality),
    ``a``/``b`` individual positions in ``var0_order`` and ``neg`` the
    polarity bit.  The encoding is pure arithmetic both ways; grounding a
    disjunct under an instantiation tuple costs a couple of integer
    operations and no allocation beyond the literal itself, and the
    complement is one xor.  All engines speak the same integers, so their
    branch encodings are directly comparable.
    """

    __slots__ = ("kb", "inds", "set1s", "set3s", "nsym", "k", "kk", "twok",
                 "ground_lits", "clause_specs", "jobs", "instances",
                 "eq_pos", "neg_eq_diag", "has_eq", "length_bound")

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.inds = list(kb.var0_order)
        self.set1s = list(kb.var1_order)
        self.set3s = list(kb.var3_order)
        self.k = max(len(self.inds), 1)
        self.kk = self.k * self.k
        self.twok = 2 * self.k
        self.nsym = 1 + len(self.set1s) + len(self.set3s)
        ind_ix = {v: i for i, v in enumerate(self.inds)}
        sym1_ix = {v: 1 + i for i, v in enumerate(self.set1s)}
        sym3_ix = {v: 1 + len(self.set1s) + i for i, v in enumerate(self.set3s)}

        self.ground_lits = [self.encode(lit, ind_ix, sym1_ix, sym3_ix)
                            for lit in kb.literals]

        # A disjunct spec is (const, ia, ib): the literal is const plus
        # 2k*tau[ia] plus 2*tau[ib]; a slot holding a free individual is
        # folded into const and flagged with index -1.
        self.clause_specs = []
        for cl in kb.clauses:
            bound_ix = {z: i for i, z in enumerate(cl.quantified)}
            specs = []
            for d in cl.disjuncts:
                neg = 0 if d.positive else 1
                a = d.atom
                if isinstance(a, Eq):
                    kind, sym, va, vb = KIND_EQ, 0, a.left, a.right
                elif isinstance(a, Member1):
                    kind, sym, va, vb = KIND_IN1, sym1_ix[a.set1], a.elem, None
                else:
                    kind, sym, va, vb = (KIND_IN3, sym3_ix[a.set3],
                                         a.first, a.second)
                const = (kind * self.nsym + sym) * self.kk * 2 + neg
                ia = ib = -1
                if va.quantified:
                    ia = bound_ix[va]
                else:
                    const += ind_ix[va] * self.twok
                if vb is not None:
                    if vb.quantified:
                        ib = bound_ix[vb]
                    else:
                        const += ind_ix[vb] * 2
                specs.append((const, ia, ib))
            self.clause_specs.append((len(cl.quantified), tuple(specs)))

        # Jobs: (clause, tau) pairs in clause order then lexicographic tau
        # order over var0_order -- the shared instantiation discipline.
        nind = len(self.inds)
        self.jobs: List[Tuple[Tuple, Tuple[int, ...]]] = []
        self.instances: List[Tuple[int, ...]] = []
        for m, specs in self.clause_specs:
            for tau in itertools.product(range(nind), repeat=m):
                self.jobs.append((specs, tau))
                self.instances.append(tuple(self.instantiate(specs, tau)))

        self.has_eq = self._mentions_equality(kb)
        if self.has_eq:
            self.eq_pos = frozenset(
                (a * self.k + b) * 2
                for a in range(nind) for b in range(nind) if a != b)
            self.neg_eq_diag = frozenset(
                (a * self.k + a) * 2 + 1 for a in range(nind))
        else:
            self.eq_pos = frozenset()
            self.neg_eq_diag = frozenset()

        # Height bound: ground conjuncts plus, per clause, disjuncts times
        # instantiation count.  Asserted at every leaf.
        self.length_bound = len(self.ground_lits) + sum(
            len(specs) * nind ** m for m, specs in self.clause_specs)

    @staticmethod
    def _mentions_equality(kb: KnowledgeBase) -> bool:
        if any(isinstance(l.atom, Eq) for l in kb.literals):
            return True
        return any(isinstance(d.atom, Eq)
                   for cl in kb.clauses for d in cl.disjuncts)

    def encode(self, lit: Literal, ind_ix=None, sym1_ix=None, sym3_ix=None) -> int:
        if ind_ix is None:
            ind_ix = {v: i for i, v in enumerate(self.inds)}
            sym1_ix = {v: 1 + i for i, v in enumerate(self.set1s)}
            sym3_ix = {v: 1 + len(self.set1s) + i for i, v in enumerate(self.set3s)}
        a = lit.atom
        neg = 0 if lit.positive else 1
        if isinstance(a, Eq):
            kind, sym, ai, bi = KIND_EQ, 0, ind_ix[a.left], ind_ix[a.right]
        elif isinstance(a, Member1):
            kind, sym, ai, bi = KIND_IN1, sym1_ix[a.set1], ind_ix[a.elem], 0
        else:
            kind, sym, ai, bi = (KIND_IN3, sym3_ix[a.set3], ind_ix[a.first],
                                 ind_ix[a.second])
        return self.pack(kind, sym, ai, bi, neg)

    def pack(self, kind: int, sym: int, a: int, b: int, neg: int) -> int:
        """The literal integer of ``(kind, sym, a, b)`` with polarity bit
        ``neg``; :meth:`fields` is its inverse."""
        return (((kind * self.nsym + sym) * self.k + a) * self.k + b) * 2 + neg

    def instantiate(self, specs, tau) -> List[int]:
        """Ground one clause body under one instantiation tuple."""
        twok = self.twok
        out = []
        for const, ia, ib in specs:
            v = const
            if ia >= 0:
                v += tau[ia] * twok
            if ib >= 0:
                v += tau[ib] * 2
            out.append(v)
        return out

    def fields(self, lit_int: int) -> Tuple[int, int, int, int]:
        """(kind, sym, a, b) of a literal integer."""
        key = lit_int >> 1
        key, b = divmod(key, self.k)
        key, a = divmod(key, self.k)
        kind, sym = divmod(key, self.nsym)
        return kind, sym, a, b

    def decode(self, lit_int: int) -> Literal:
        kind, sym, a, b = self.fields(lit_int)
        positive = not (lit_int & 1)
        if kind == KIND_EQ:
            return Literal(positive, Eq(self.inds[a], self.inds[b]))
        if kind == KIND_IN1:
            return Literal(positive, Member1(self.inds[a], self.set1s[sym - 1]))
        return Literal(positive, Member3(self.inds[a], self.inds[b],
                                         self.set3s[sym - 1 - len(self.set1s)]))

    def rewrite(self, lit_int: int, sigma: Dict[int, int]) -> int:
        kind, sym, a, b = self.fields(lit_int)
        a2 = sigma.get(a, a)
        b2 = sigma.get(b, b) if kind != KIND_IN1 else b
        if a2 == a and b2 == b:
            return lit_int
        return (((kind * self.nsym + sym) * self.k + a2) * self.k + b2) * 2 \
            + (lit_int & 1)


class Branch:
    """An open complete branch: its literal sequence after equality
    normalisation, plus the normalising substitution."""

    __slots__ = ("_comp", "lit_ints", "sigma_map", "_literals")

    def __init__(self, comp: CompiledKb, lit_ints: Tuple[int, ...],
                 sigma_map: Dict[int, int]):
        self._comp = comp
        self.lit_ints = lit_ints
        self.sigma_map = sigma_map
        self._literals: Optional[Tuple[Literal, ...]] = None

    @property
    def literals(self) -> Tuple[Literal, ...]:
        if self._literals is None:
            self._literals = tuple(self._comp.decode(l) for l in self.lit_ints)
        return self._literals

    @property
    def sigma(self) -> Substitution:
        inds = self._comp.inds
        return substitution0({inds[a]: inds[b] for a, b in self.sigma_map.items()})

    def literal_set(self) -> frozenset:
        return frozenset(self.literals)

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literal_set()

    def __eq__(self, other):
        return isinstance(other, Branch) and self.lit_ints == other.lit_ints

    def __hash__(self):
        return hash(self.lit_ints)

    def __repr__(self):
        return f"Branch({', '.join(map(repr, self.literals))})"


class ModelBuilder:
    """Model reports read straight off packed branches.

    ``report(branch)`` makes every check ``oracle.extract_model`` makes --
    no complementary pair, no negated x=x, no equality between distinct
    individuals, every clause instance over the merged individuals
    fulfilled -- and returns the dict ``syntax.render_model_report``
    renders for the same model: the merged individuals as domain, the
    positive membership literals as extents.  Only the names it prints
    are decoded; ground instances are built once per distinct merge map.
    """

    __slots__ = ("comp", "_names1", "_names3", "_fields", "_by_sigma")

    def __init__(self, comp: CompiledKb):
        self.comp = comp
        self._names1 = [v.name for v in comp.set1s]
        self._names3 = [v.name for v in comp.set3s]
        self._fields: Dict[int, Tuple[int, int, int, int]] = {}
        self._by_sigma: Dict[Tuple, Tuple[List[str], List[str], List]] = {}

    def _merged(self, sigma_map: Dict[int, int]):
        """Individual names under the merge map, the domain, and every
        clause instance over the merged individuals."""
        key = tuple(sorted(sigma_map.items()))
        hit = self._by_sigma.get(key)
        if hit is not None:
            return hit
        comp = self.comp
        names = [comp.inds[sigma_map.get(i, i)].name
                 for i in range(len(comp.inds))]
        canon = list(dict.fromkeys(sigma_map.get(i, i)
                                   for i in range(len(comp.inds))))
        instances = []
        for cl, (m, specs) in zip(comp.kb.clauses, comp.clause_specs):
            merged = []
            for const, ia, ib in specs:
                kind, sym, a, b = comp.fields(const)
                if ia < 0:
                    a = sigma_map.get(a, a)
                if ib < 0 and kind != KIND_IN1:
                    b = sigma_map.get(b, b)
                merged.append((comp.pack(kind, sym, a, b, const & 1), ia, ib))
            for tau in itertools.product(canon, repeat=m):
                instances.append((cl, tau, comp.instantiate(merged, tau)))
        hit = self._by_sigma[key] = (names, [comp.inds[c].name for c in canon],
                                     instances)
        return hit

    def report(self, branch: Branch) -> dict:
        comp = self.comp
        names, domain, instances = self._merged(branch.sigma_map)
        lits = set(branch.lit_ints)
        fields = self._fields
        n1 = len(self._names1)
        sets1 = {name: set() for name in self._names1}
        sets3 = {name: set() for name in self._names3}
        for l in branch.lit_ints:
            if (l ^ 1) in lits:
                raise PreconditionError("branch is closed (complementary pair)")
            f = fields.get(l)
            if f is None:
                f = fields[l] = comp.fields(l)
            kind, sym, a, b = f
            if kind == KIND_EQ:
                if a == b and l & 1:
                    raise PreconditionError("branch is closed (negated x=x)")
                if a != b and not l & 1:
                    raise PreconditionError("branch still carries an equality "
                                            "between distinct variables")
            elif l & 1:
                continue
            elif kind == KIND_IN1:
                sets1[self._names1[sym - 1]].add(names[a])
            else:
                sets3[self._names3[sym - 1 - n1]].add((names[a], names[b]))
        for cl, tau, inst in instances:
            if lits.isdisjoint(inst):
                raise PreconditionError(
                    f"branch does not fulfill {cl!r} at "
                    f"{[comp.inds[t].name for t in tau]}")
        return {"domain": domain,
                "sets1": {s: sorted(e) for s, e in sets1.items()},
                "sets3": {r: [list(p) for p in sorted(e)]
                          for r, e in sets3.items()}}


@dataclass(slots=True)
class SaturationResult:
    """Outcome of a saturation run: the branch set and its statistics.

    ``open_complete`` pairs every open complete branch with its equality
    substitution; it is empty when ``collect_branches`` was off, in which
    case only the counts survive.  ``consistent`` is open_count > 0.
    """

    kb: KnowledgeBase
    engine: str
    open_complete: List[Tuple[Branch, Substitution]]
    open_count: int
    closed_count: int
    consistent: bool
    stats: EngineStats
    collected: bool
    compiled: CompiledKb = field(repr=False, default=None)


def _normalize_eqs(pairs: List[Tuple[int, int]]) -> Dict[int, int]:
    """The equality loop: repeatedly merge one x=y with distinct sides to
    the order-minimal representative, composing the substitution and
    rewriting the remaining equalities, until none are left."""
    sigma: Dict[int, int] = {}
    work = list(pairs)
    while True:
        found = None
        for a, b in work:
            if a != b:
                found = (a, b)
                break
        if found is None:
            return sigma
        a, b = found
        z = a if a < b else b
        step = {a: z, b: z}
        merged = dict(step)
        for kk, vv in sigma.items():
            merged[kk] = step.get(vv, vv)
        sigma = {kk: vv for kk, vv in merged.items() if kk != vv}
        work = [(sigma.get(x, x), sigma.get(y, y)) for x, y in work]


class ProbeExpired(Exception):
    """Raised by :func:`_run` at the first leaf after its ``probe``
    deadline; what the run gathered until then is discarded."""


def _run(comp: CompiledKb, opts: EngineOptions, engine: str,
         script: Optional[Sequence[int]] = None,
         deadline: Optional[float] = None,
         probe: Optional[float] = None):
    """Depth-first saturation.  Returns raw counts, stats and collected
    branch encodings; wrapped by :func:`saturate` and :mod:`.parallel`.

    ``script`` replays a fixed prefix of split decisions (0 = fulfilling
    child, 1 = complement child); while replaying, counters and leaves
    are only attributed to this run if the remaining script is all zeros,
    so a partitioned parallel run counts every node exactly once.

    ``deadline`` is an absolute ``time.perf_counter`` reading; without
    one, ``opts.max_seconds`` counts from the start of this call.
    ``probe``, also absolute, makes the first counted leaf past it raise
    :class:`ProbeExpired`.
    """
    jobs = comp.jobs
    njobs = len(jobs)
    instances = comp.instances
    bset = set()
    order: List[int] = []
    eqlits: List[Tuple[int, int]] = []
    collect = opts.collect_branches
    has_eq = comp.has_eq
    eq_pos = comp.eq_pos
    neg_eq_diag = comp.neg_eq_diag
    kdim = comp.k
    length_bound = comp.length_bound

    stats = EngineStats()
    counts = {"open": 0, "closed": 0}
    collected: List[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]] = []

    slen = len(script) if script else 0
    suffix_zero = [True] * (slen + 1)
    for i in range(slen - 1, -1, -1):
        suffix_zero[i] = suffix_zero[i + 1] and script[i] == 0
    state = {"sp": 0, "counting": suffix_zero[0]}

    if deadline is None and opts.max_seconds is not None:
        deadline = time.perf_counter() + opts.max_seconds
    max_branches = opts.max_branches
    leaf_tick = [0]

    class _Limit(Exception):
        pass

    def leaf_budget():
        leaf_tick[0] += 1
        if max_branches is not None and counts["open"] + counts["closed"] >= max_branches:
            raise _Limit(f"branch limit {max_branches} reached")
        if deadline is not None and leaf_tick[0] % 1024 == 0 \
                and time.perf_counter() > deadline:
            raise _Limit(f"time limit {opts.max_seconds}s exceeded")
        if probe is not None and time.perf_counter() > probe:
            raise ProbeExpired

    def closed_leaf():
        if state["counting"]:
            leaf_budget()
            counts["closed"] += 1
            n = len(order)
            if n > stats.peak_branch_literals:
                stats.peak_branch_literals = n
            res = n + base_resident + (len(resident) if engine == "foke" else 0)
            if res > stats.peak_resident_formulae:
                stats.peak_resident_formulae = res

    def open_leaf(resident_count: int):
        if not state["counting"]:
            return
        leaf_budget()
        n = len(order)
        if n > length_bound:
            raise AssertionError(
                f"branch grew to {n} literals, above the height bound "
                f"{length_bound}")
        if n > stats.peak_branch_literals:
            stats.peak_branch_literals = n
        res = n + resident_count
        if res > stats.peak_resident_formulae:
            stats.peak_resident_formulae = res
        if eqlits:
            sigma = _normalize_eqs(eqlits)
            if sigma:
                rewritten = []
                seen = set()
                for l in order:
                    r = comp.rewrite(l, sigma)
                    if r not in seen:
                        seen.add(r)
                        rewritten.append(r)
                for r in seen:
                    if (r ^ 1) in seen or r in neg_eq_diag:
                        counts["closed"] += 1
                        return
                counts["open"] += 1
                if collect:
                    collected.append((tuple(rewritten), tuple(sorted(sigma.items()))))
                return
        counts["open"] += 1
        if collect:
            collected.append((tuple(order), ()))

    # Root: the ground conjuncts.  A contradictory pair or a negated
    # trivial equality closes the single starting branch outright.
    root_closed = False
    for l in comp.ground_lits:
        if (l ^ 1) in bset or (has_eq and l in neg_eq_diag):
            root_closed = True
        if l not in bset:
            bset.add(l)
            order.append(l)
            if has_eq and l in eq_pos:
                eqlits.append(divmod(l >> 1, kdim))

    base_resident = len(comp.clause_specs)  # universal clauses on the branch
    if engine == "ke":
        base_resident = njobs  # the up-front grounding replaces them

    def note_depth(depth: int):
        if depth > stats.peak_stack_depth:
            stats.peak_stack_depth = depth

    # ------------------------------------------------------------------
    # keg: fused rule, instances built per activation and never stored.
    # Fulfillment needs no per-instance state: the job cursor is the
    # witness that every earlier (clause, tau) pair is discharged.
    # ------------------------------------------------------------------
    def explore_keg(j: int, depth: int):
        note_depth(depth)
        while j < njobs:
            specs, tau = jobs[j]
            lits = comp.instantiate(specs, tau)
            hit = False
            for l in lits:
                if l in bset:
                    hit = True
                    break
            if hit:
                j += 1
                continue
            missing = [l for l in lits if (l ^ 1) not in bset]
            if len(missing) < 2:
                l = missing[0] if missing else lits[0]
                if state["counting"]:
                    stats.rule_apps += 1
                if (l ^ 1) in bset or (has_eq and l in neg_eq_diag):
                    closed_leaf()
                    return
                bset.add(l)
                order.append(l)
                if has_eq and l in eq_pos:
                    eqlits.append(divmod(l >> 1, kdim))
                j += 1
                continue
            _split(missing[0], j, depth, explore_keg)
            return
        open_leaf(base_resident)

    # ------------------------------------------------------------------
    # ke: classic elimination over the stored grounding.  The stored
    # instances are branch formulae, so every expansion step re-selects
    # "the first not yet fulfilled formula" by checking the stored list
    # against the branch content; the branch itself is the only state.
    # Re-inspecting every stored instance at every step is the price of
    # keeping the grounding around, and is what the fused rule avoids.
    # ------------------------------------------------------------------
    def explore_ke(depth: int):
        note_depth(depth)
        while True:
            picked = -1
            for i in range(njobs):
                lits = instances[i]
                hit = False
                for l in lits:
                    if l in bset:
                        hit = True
                        break
                if not hit:
                    picked = i
                    break
            if picked < 0:
                open_leaf(base_resident)
                return
            lits = instances[picked]
            missing = [l for l in lits if (l ^ 1) not in bset]
            if len(missing) < 2:
                l = missing[0] if missing else lits[0]
                if state["counting"]:
                    stats.rule_apps += 1
                if (l ^ 1) in bset or (has_eq and l in neg_eq_diag):
                    closed_leaf()
                    return
                _push(l)
                continue
            bh = missing[0]
            if state["counting"]:
                stats.pb_apps += 1
            follow = None
            if state["sp"] < slen:
                follow = script[state["sp"]]
                state["sp"] += 1
                state["counting"] = suffix_zero[state["sp"]]
            so, se = len(order), len(eqlits)
            if follow is None or follow == 0:
                if _push_checked(bh):
                    closed_leaf()
                else:
                    explore_ke(depth + 1)
                _undo(so, se)
            if follow is None or follow == 1:
                if _push_checked(bh ^ 1):
                    closed_leaf()
                else:
                    explore_ke(depth + 1)
                _undo(so, se)
            return

    # ------------------------------------------------------------------
    # foke: the instantiation rule parks each ground disjunction on the
    # branch before elimination touches it.  Selection scans the parked
    # instances like ke scans its grounding; when all residents are
    # fulfilled the next job is instantiated and parked.  Residents pop
    # on backtrack and their count is what the memory statistics show.
    # ------------------------------------------------------------------
    resident: List[Tuple[int, ...]] = []

    def explore_foke(depth: int):
        note_depth(depth)
        while True:
            picked = -1
            for i in range(len(resident)):
                lits = resident[i]
                hit = False
                for l in lits:
                    if l in bset:
                        hit = True
                        break
                if not hit:
                    picked = i
                    break
            if picked < 0:
                nres = len(resident)
                if nres < njobs:
                    specs, tau = jobs[nres]
                    resident.append(tuple(comp.instantiate(specs, tau)))
                    if state["counting"]:
                        stats.gamma_apps += 1
                    cur = len(order) + base_resident + nres + 1
                    if cur > stats.peak_resident_formulae:
                        stats.peak_resident_formulae = cur
                    continue
                open_leaf(base_resident + nres)
                return
            lits = resident[picked]
            missing = [l for l in lits if (l ^ 1) not in bset]
            if len(missing) < 2:
                l = missing[0] if missing else lits[0]
                if state["counting"]:
                    stats.rule_apps += 1
                if (l ^ 1) in bset or (has_eq and l in neg_eq_diag):
                    closed_leaf()
                    return
                _push(l)
                continue
            bh = missing[0]
            if state["counting"]:
                stats.pb_apps += 1
            follow = None
            if state["sp"] < slen:
                follow = script[state["sp"]]
                state["sp"] += 1
                state["counting"] = suffix_zero[state["sp"]]
            so, se = len(order), len(eqlits)
            sr = len(resident)
            if follow is None or follow == 0:
                if _push_checked(bh):
                    closed_leaf()
                else:
                    explore_foke(depth + 1)
                _undo_foke(so, se, sr)
            if follow is None or follow == 1:
                if _push_checked(bh ^ 1):
                    closed_leaf()
                else:
                    explore_foke(depth + 1)
                _undo_foke(so, se, sr)
            return

    # Split helper for keg: the fulfilling child (the disjunct itself)
    # is explored first, then the complement child, which keeps working
    # on the same job.
    def _split(bh: int, j: int, depth: int, cont):
        if state["counting"]:
            stats.pb_apps += 1
        follow = None
        if state["sp"] < slen:
            follow = script[state["sp"]]
            state["sp"] += 1
            state["counting"] = suffix_zero[state["sp"]]
        so, se = len(order), len(eqlits)
        if follow is None or follow == 0:
            if _push_checked(bh):
                closed_leaf()
            else:
                cont(j + 1, depth + 1)
            _undo(so, se)
        if follow is None or follow == 1:
            if _push_checked(bh ^ 1):
                closed_leaf()
            else:
                cont(j, depth + 1)
            _undo(so, se)

    def _push(l: int):
        bset.add(l)
        order.append(l)
        if has_eq and l in eq_pos:
            eqlits.append(divmod(l >> 1, kdim))

    def _push_checked(l: int) -> bool:
        """Add a split literal; returns True if it closes the branch.
        Split literals never meet their complement (the split chose them
        for that) but a negated trivial equality still closes."""
        if has_eq and l in neg_eq_diag:
            return True
        _push(l)
        return False

    def _undo(so: int, se: int):
        while len(order) > so:
            bset.discard(order.pop())
        del eqlits[se:]

    def _undo_foke(so: int, se: int, sr: int):
        while len(order) > so:
            bset.discard(order.pop())
        del eqlits[se:]
        del resident[sr:]

    # Split recursion depth is bounded by the branch length bound; leave
    # generous headroom but never lower the limit, and cap the raise so a
    # pathological bound cannot ask for an unservable C stack (resource
    # limits trip long before such depths are reachable).  The caller's
    # limit comes back when the run ends.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit,
                              min(comp.length_bound + 2000, 100_000)))
    limited = None
    try:
        if root_closed:
            closed_leaf()
        elif engine == "keg":
            explore_keg(0, 0)
        elif engine == "ke":
            explore_ke(0)
        elif engine == "foke":
            explore_foke(0)
        else:
            raise ValueError(f"unknown engine {engine!r}")
    except _Limit as lim:
        limited = str(lim)
    except RecursionError:
        # The explorer recurses once per split; a KB deeper than the
        # interpreter allows is a resource limit, not a verdict.
        limited = (f"recursion limit {sys.getrecursionlimit()} reached "
                   f"after {counts['open'] + counts['closed']} leaves")
    finally:
        sys.setrecursionlimit(old_limit)

    if stats.peak_resident_formulae == 0:
        stats.peak_resident_formulae = len(order) + base_resident
    return counts, stats, collected, limited


def _assemble(kb: KnowledgeBase, comp: CompiledKb, engine: str,
              opts: EngineOptions, counts, stats, collected, limited,
              wall: float) -> SaturationResult:
    stats.wall_seconds = wall
    collected.sort()
    branches = []
    sigmas: Dict[Tuple, Substitution] = {}  # most branches share a merge map
    for lit_ints, sigma_items in collected:
        br = Branch(comp, lit_ints, dict(sigma_items))
        sigma = sigmas.get(sigma_items)
        if sigma is None:
            sigma = sigmas[sigma_items] = br.sigma
        branches.append((br, sigma))
    result = SaturationResult(
        kb=kb, engine=engine, open_complete=branches,
        open_count=counts["open"], closed_count=counts["closed"],
        consistent=counts["open"] > 0, stats=stats,
        collected=opts.collect_branches, compiled=comp)
    if limited:
        raise ResourceLimitError(limited, result)
    return result


def _effective_workers(opts: EngineOptions) -> int:
    workers = max(1, opts.workers)
    cap = os.environ.get("REASONER_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            pass
    return workers


def saturate(kb: KnowledgeBase, opts: Optional[EngineOptions] = None,
             engine: str = "keg") -> SaturationResult:
    """Saturate ``kb`` and return its open complete branches.

    Deterministic given identical options: exploration order is fixed and
    the returned branch list is normalised, so it is also independent of
    the worker count.
    """
    opts = opts or EngineOptions()
    comp = CompiledKb(kb)
    start = time.perf_counter()
    workers = _effective_workers(opts)
    if workers > 1:
        from .parallel import run_parallel
        counts, stats, collected, limited = run_parallel(
            comp, engine, opts, workers)
    else:
        counts, stats, collected, limited = _run(comp, opts, engine)
    wall = time.perf_counter() - start
    return _assemble(kb, comp, engine, opts, counts, stats, collected,
                     limited, wall)


# ---------------------------------------------------------------------------
# Rule-level operations, exposed for direct testing and reuse.  These work
# on plain core structures rather than the packed encoding.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Instantiation:
    """A clause together with one grounding of its quantified prefix."""

    clause: UniversalClause
    tau: Substitution

    def __post_init__(self):
        dom = set(self.tau.map0)
        if dom != set(self.clause.quantified):
            raise PreconditionError(
                "tau must ground exactly the quantified variables")

    def ground_disjuncts(self) -> Tuple[Literal, ...]:
        return tuple(apply_substitution(d, self.tau)
                     for d in self.clause.disjuncts)


def _branch_literals(branch) -> frozenset:
    if isinstance(branch, Branch):
        return branch.literal_set()
    return frozenset(branch)


def egamma(inst: Instantiation, branch) -> Literal:
    """The fused elimination step: with the complements of all disjuncts
    but one on the branch, return that remaining instantiated disjunct."""
    lits = inst.ground_disjuncts()
    on_branch = _branch_literals(branch)
    if any(l in on_branch for l in lits):
        raise PreconditionError("some instantiated disjunct is already "
                                "on the branch")
    missing = [l for l in lits if complement(l) not in on_branch]
    if len(missing) > 1:
        raise PreconditionError(
            f"{len(missing)} disjuncts unresolved; the elimination rule "
            "needs all complements but one")
    return missing[0] if missing else lits[0]


def select_pb_literal(inst: Instantiation, branch) -> Literal:
    """The split literal: the complement of the lowest-index disjunct
    whose complement is not yet on the branch."""
    lits = inst.ground_disjuncts()
    on_branch = _branch_literals(branch)
    if any(l in on_branch for l in lits):
        raise PreconditionError("instance already discharged on this branch")
    missing = [l for l in lits if complement(l) not in on_branch]
    if len(missing) < 2:
        raise PreconditionError("the elimination rule applies; no split "
                                "is needed")
    return complement(missing[0])


def is_closed(branch) -> bool:
    """Syntactic closure: a complementary pair, or a negated x=x."""
    lits = _branch_literals(branch)
    for l in lits:
        if complement(l) in lits:
            return True
        if not l.positive and isinstance(l.atom, Eq) \
                and l.atom.left is l.atom.right:
            return True
    return False


def is_fulfilled(clause: UniversalClause, branch, kb: KnowledgeBase) -> bool:
    """Whether every instantiation over the KB individuals has some
    disjunct on the branch.  Vacuously true without individuals."""
    on_branch = _branch_literals(branch)
    m = len(clause.quantified)
    for combo in itertools.product(kb.var0_order, repeat=m):
        tau = substitution0(dict(zip(clause.quantified, combo)))
        if not any(apply_substitution(d, tau) in on_branch
                   for d in clause.disjuncts):
            return False
    return True


def equality_normalize(branch, kb: KnowledgeBase) -> Substitution:
    """Collapse the branch's x=y literals to order-minimal representatives
    and return the resulting idempotent substitution."""
    index = {v: i for i, v in enumerate(kb.var0_order)}
    pairs = []
    # Insertion order matters for determinism when branch is a sequence.
    lits = branch.literals if isinstance(branch, Branch) else list(branch)
    for l in lits:
        if l.positive and isinstance(l.atom, Eq) \
                and l.atom.left is not l.atom.right:
            pairs.append((index[l.atom.left], index[l.atom.right]))
    sigma = _normalize_eqs(pairs)
    inds = kb.var0_order
    return substitution0({inds[a]: inds[b] for a, b in sigma.items()})
