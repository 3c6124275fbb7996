"""Tableau saturation engines.

Three engines share one depth-first explorer and differ only in how they
select the next universal-clause instance for the elimination rule,
which is exactly the comparison the benchmark harness isolates:

* ``keg``  -- the fused elimination rule: the explorer's clause/tau
  cursor scans each (clause, instantiation) pair in one pass per job,
  grounding one disjunct at a time against the branch; it stops at the
  first discharging disjunct and builds no instance.  No instance lives
  on the branch, and the cursor position itself witnesses fulfillment,
  so there is no per-instance branch state.  A pending complement child
  carries its unresolved disjuncts on its stack entry, next to the trail
  length, equality count, resident count, literal, cursor and depth.
  They are the rest of its split's list, so the child acts on them
  without selecting or scanning the job again: one list per entry of the
  explicit stack, never a grounding.  keg also keeps one watched literal
  per job, the disjunct that last discharged it, and skips the job while
  that literal is on the branch: 8 bytes per job for the list plus the
  literal integers it keeps alive, never an instance.
  ``peak_resident_formulae`` still counts the current branch only.
* ``ke``   -- classic elimination over an up-front grounding: every
  instance is materialised before exploration and lives on the branch as
  a formula.  Each expansion step re-selects the first not-yet-fulfilled
  stored instance by checking the stored list against the branch.
* ``foke`` -- first-order style: an instance is materialised when first
  needed and parked on the branch as a resident formula before the
  elimination/split step runs on it; selection scans the residents the
  same way ke scans its grounding, and residents pop on backtrack.

Every policy returns the selected instance's unresolved disjuncts, those
whose complement is not on the branch, and the explorer acts on that
list without looking at the instance again.  ke and foke filter a stored
instance for that list; keg gathers it in the same pass that tests the
job for a discharging disjunct, one pass per job, stopping at the first
discharging disjunct and building no instance.  Re-inspecting stored
instances at every step is the cost of keeping them around and is what
the fused rule avoids; scan-based selection for the baselines and
cursor-based for keg mirrors how the respective calculi drive their
loops, and the benchmark quantifies the difference.

The explorer is one loop over an explicit stack of pending complement
children, so the split rule, the closure test, elimination, leaf
accounting and undo are written once.  All three engines also share the
instantiation order (clauses in KB order, tuples lexicographic in
individual order) and the equality-normalisation phase, so branch
counts and branch literal sets agree across engines.  A KB's depth is
bounded by memory, not by the interpreter's recursion limit.

The equality phase runs at every complete branch that holds an x=y
literal: the equalities collapse to order-minimal representatives (the
merge map) and the branch is rewritten through it, closing at its first
complementary pair or negated x=x.  Many leaves share an equality
sequence, so one run memoises, per sequence, the merge map and one
rewrite table per distinct map (literal integer to rewritten integer,
filled on first use).  The caches exist only for KBs that mention
equality and are cleared when they reach ``EQ_CACHE_CAP`` entries.  The
phase resumes from the last merged leaf that used the same rewrite table,
as a DPLL(T) theory solver keeps its state on the trail: the trail below
the lowest length popped to since that leaf is unchanged, so its rewrite
is kept and only the rest is walked, and a leaf whose last closing
literal lies in that prefix closes without a walk.  A different table,
including a fresh one after the caches were cleared, walks from the
start.

``max_seconds`` is a deadline taken when :func:`saturate` starts, before
the KB is compiled, and read at every split and every leaf, so a tree
whose first leaf is far away still stops on time.

Internally literals are packed into integers: atom ids are assigned at
compile time in a fixed order shared by all engines (so branch encodings
are comparable), and the low bit carries polarity, making complement a
single xor.  A symbol takes only the k or k*k keys its atoms can use,
so the literals of a KB are dense from 0.  The explorer keeps one
mutable branch, an insertion-order trail plus one membership structure,
and undoes to a saved trail length on backtrack.  keg tests literals one
at a time, so its branch is a list of flags indexed by literal integer
(a dict of the marked ones past ``MARKS_CAP`` literals) and each test is
one index; ke and foke test a whole stored instance with one
``set.isdisjoint`` call, so theirs is a set.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import xor
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (Eq, FourlqsError, KnowledgeBase, Literal, Member1,
                   Member3, PreconditionError, Substitution, substitution0)

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

    def validate(self) -> None:
        """Reject limits no run can honour; 0 is a limit that trips at
        the first check.  ``not >=`` also catches NaN."""
        if self.max_branches is not None and self.max_branches < 0:
            raise PreconditionError(f"branch limit must be at least 0, "
                                    f"got {self.max_branches}")
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise PreconditionError(f"time limit must be at least 0 s, "
                                    f"got {self.max_seconds}")
        if self.workers < 1:
            raise PreconditionError(f"workers must be at least 1, "
                                    f"got {self.workers}")


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

    A literal is the integer ``4 * key + neg``, with ``neg`` the polarity
    bit and ``key`` dense over the atoms the KB's symbols can form, ``a``
    and ``b`` being individual positions in ``var0_order``, ``n1`` and
    ``n3`` the numbers of set1 and set3 symbols:

    * ``a = b``: ``a*k + b``;
    * membership ``a in`` the ``u``-th set1 symbol: ``base1 + u*k + a``;
    * the ``v``-th set3 symbol holding ``(a, b)``: ``base3 + (v*k + a)*k
      + b``, where ``base3 = base1 + n1*k``.

    ``base1`` is ``k*k`` when the KB mentions equality and 0 otherwise;
    a KB without equality puts ``a = b`` past its last key instead,
    where a query may still name it but no branch holds it.  A symbol
    thus takes k or k*k keys, the symbol fixes the atom's kind, and keys
    follow (kind, symbol, a, b) order, which is the order branches are
    sorted in.  Bit 1 is always clear: a set of literals that is filled
    and emptied many times over, like ke's and foke's branch, otherwise
    leaves its hash table with long runs of used slots, which every
    missed lookup walks.  The encoding is pure arithmetic both ways;
    grounding a disjunct under an instantiation tuple costs a couple of
    integer operations and no allocation beyond the literal itself, and
    the complement is one xor.  All engines speak the same integers, so
    their branch encodings are directly comparable.

    The constructor reads the KB once, in this order:

    1. the sizes, and per set1 and set3 symbol the integer of its first
       literal and per individual its two steps (``4k*i`` in the first
       slot, ``4*i`` in the second), laid out as if the KB mentioned
       equality;
    2. ``ground_lits``, then each clause's disjunct specs, each literal
       with one test of its atom's type and a few additions; an
       equality atom is what sets ``has_eq``;
    3. when no atom was an equality, every literal read so far is a
       membership, so each moves down by the ``k*k`` equality keys, and
       the bases and ``symkey`` follow from ``has_eq``;
    4. ``clause_specs``, ``jobs`` and ``length_bound`` in one loop over
       the clauses, with one ``itertools.product`` list per arity;
    5. ``eq_pos``, ``neg_eq_diag`` and ``eq_marked`` as ``range`` steps
       over the equality keys.
    """

    __slots__ = ("kb", "inds", "set1s", "set3s", "nsym", "k", "kk", "astep",
                 "n1", "base1", "base3", "nkeys", "baseq", "symkey", "nmarks",
                 "ground_lits", "clause_specs", "jobs", "_instances",
                 "eq_pos", "neg_eq_diag", "eq_marked", "has_eq",
                 "length_bound")

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.inds = inds = list(kb.var0_order)
        self.set1s = set1s = list(kb.var1_order)
        self.set3s = set3s = list(kb.var3_order)
        nind = len(inds)
        self.k = k = nind or 1
        self.kk = kk = k * k
        self.astep = astep = 4 * k
        self.n1 = n1 = len(set1s)
        self.nsym = 1 + n1 + len(set3s)
        # The keys as if the KB mentioned equality: k*k equality keys
        # first, at 0, then the set1 and the set3 symbols'.
        base3 = kk + n1 * k
        nkeys = base3 + len(set3s) * kk
        first1 = {v: 4 * key for v, key in zip(set1s, range(kk, base3, k))}
        first3 = {v: 4 * key for v, key in zip(set3s, range(base3, nkeys, kk))}
        # An individual's step in a pair's first slot and in the second
        # slot, which a membership's individual also takes.
        step1, step2 = {}, {}
        for i, v in enumerate(inds):
            step1[v] = astep * i
            step2[v] = 4 * i

        has_eq = False
        ground = []
        for lit in kb.literals:
            a = lit.atom
            t = type(a)
            if t is Member1:
                l = first1[a.set1] + step2[a.elem]
            elif t is Member3:
                l = first3[a.set3] + step1[a.first] + step2[a.second]
            else:
                has_eq = True
                l = step1[a.left] + step2[a.right]
            ground.append(l if lit.positive else l + 1)

        # A disjunct spec is (const, ia, ib): the literal is const plus
        # 4k*tau[ia] plus 4*tau[ib]; a slot holding a free individual is
        # folded into const and flagged with index -1.
        body_specs = []
        for cl in kb.clauses:
            slot = cl.quantified.index
            specs = []
            for d in cl.disjuncts:
                a = d.atom
                t = type(a)
                ia = ib = -1
                if t is Member1:
                    const = first1[a.set1]
                    vb = a.elem
                else:
                    if t is Member3:
                        const = first3[a.set3]
                        va, vb = a.first, a.second
                    else:
                        has_eq = True
                        const = 0
                        va, vb = a.left, a.right
                    if va.quantified:
                        ia = slot(va)
                    else:
                        const += step1[va]
                if vb.quantified:
                    ib = slot(vb)
                else:
                    const += step2[vb]
                specs.append((const if d.positive else const + 1, ia, ib))
            body_specs.append(specs)

        if has_eq:
            base1 = kk
            baseq = 0
        else:
            # No literal is an equality: drop the equality keys, and put
            # x = y past the last key, where no branch holds it.
            shift = 4 * kk
            ground = [l - shift for l in ground]
            body_specs = [[(const - shift, ia, ib) for const, ia, ib in specs]
                          for specs in body_specs]
            base1 = 0
            base3 -= kk
            nkeys -= kk
            baseq = nkeys
        self.has_eq = has_eq
        self.base1 = base1
        self.base3 = base3
        self.nkeys = nkeys
        self.baseq = baseq
        # symkey[sym] is the symbol's first key.
        self.symkey = [baseq, *range(base1, base3, k),
                       *range(base3, nkeys, kk)]
        # The length of a list indexed by literal integer.  The largest
        # literal a branch can hold is 4*nkeys - 3; the one slot past it
        # is never set, so index -1 reads it and finds no literal there.
        self.nmarks = 4 * nkeys - 1
        self.ground_lits = ground

        # Jobs: (clause, tau) pairs in clause order then lexicographic tau
        # order over var0_order -- the shared instantiation discipline.
        # Height bound: ground conjuncts plus, per clause, disjuncts times
        # instantiation count.  Asserted at every leaf.
        clause_specs = []
        jobs: List[Tuple[Tuple, Tuple[int, ...]]] = []
        bound = len(ground)
        taus_of: Dict[int, List[Tuple[int, ...]]] = {}
        for cl, specs in zip(kb.clauses, body_specs):
            m = len(cl.quantified)
            specs = tuple(specs)
            clause_specs.append((m, specs))
            taus = taus_of.get(m)
            if taus is None:
                taus = taus_of[m] = list(itertools.product(range(nind),
                                                           repeat=m))
            jobs += zip(itertools.repeat(specs), taus)
            bound += len(specs) * len(taus)
        self.clause_specs = clause_specs
        self.jobs = jobs
        self.length_bound = bound
        self._instances: Optional[List[Tuple[int, ...]]] = None

        # The literals an added literal is tested against: it extends
        # the equality sequence (eq_pos, x = y with x, y distinct) or
        # closes the branch (neg_eq_diag, the negated x = x).  The
        # equality keys are 0 to k*k - 1 and x = x steps by k + 1.
        if has_eq and nind:
            diagonal = 4 * (k + 1)
            self.neg_eq_diag = frozenset(range(1, 4 * kk, diagonal))
            self.eq_pos = frozenset(range(0, 4 * kk, 4)).difference(
                range(0, 4 * kk, diagonal))
        else:
            self.eq_pos = frozenset()
            self.neg_eq_diag = frozenset()
        self.eq_marked = self.eq_pos | self.neg_eq_diag

    @property
    def instances(self) -> List[Tuple[int, ...]]:
        """The up-front grounding: every job's instance, in job order.
        Only ke reads it, so it is built on first read."""
        if self._instances is None:
            instantiate = self.instantiate
            self._instances = [tuple(instantiate(specs, tau))
                               for specs, tau in self.jobs]
        return self._instances

    def pack(self, kind: int, sym: int, a: int, b: int, neg: int) -> int:
        """The literal integer of ``(kind, sym, a, b)`` with polarity bit
        ``neg`` (``b`` is 0 for a membership); :meth:`fields` is its
        inverse."""
        if kind == KIND_IN1:
            return (self.symkey[sym] + a) * 4 + neg
        return (self.symkey[sym] + a * self.k + b) * 4 + neg

    def instantiate(self, specs, tau) -> List[int]:
        """Ground one clause body under one instantiation tuple."""
        astep = self.astep
        out = []
        for const, ia, ib in specs:
            v = const
            if ia >= 0:
                v += tau[ia] * astep
            if ib >= 0:
                v += tau[ib] * 4
            out.append(v)
        return out

    def fields(self, lit_int: int) -> Tuple[int, int, int, int]:
        """(kind, sym, a, b) of a literal integer."""
        key = lit_int >> 2
        if self.base1 <= key < self.base3:
            sym, a = divmod(key - self.base1, self.k)
            return KIND_IN1, 1 + sym, a, 0
        if self.base3 <= key < self.nkeys:
            key, b = divmod(key - self.base3, self.k)
            sym, a = divmod(key, self.k)
            return KIND_IN3, 1 + self.n1 + sym, a, b
        a, b = divmod(key - self.baseq, self.k)
        return KIND_EQ, 0, a, b

    def decode(self, lit_int: int) -> Literal:
        kind, sym, a, b = self.fields(lit_int)
        positive = not (lit_int & 1)
        if kind == KIND_EQ:
            return Literal(positive, Eq(self.inds[a], self.inds[b]))
        if kind == KIND_IN1:
            return Literal(positive, Member1(self.inds[a], self.set1s[sym - 1]))
        return Literal(positive, Member3(self.inds[a], self.inds[b],
                                         self.set3s[sym - 1 - len(self.set1s)]))

    def merges(self, sigma_items) -> Substitution:
        """The substitution of a merge map given as (individual position,
        representative position) pairs."""
        inds = self.inds
        return substitution0({inds[a]: inds[b] for a, b in sigma_items})

    def rewrite(self, lit_int: int, sigma: Dict[int, int]) -> int:
        kind, sym, a, b = self.fields(lit_int)
        a2 = sigma.get(a, a)
        b2 = sigma.get(b, b) if kind != KIND_IN1 else b
        if a2 == a and b2 == b:
            return lit_int
        return self.pack(kind, sym, a2, b2, lit_int & 1)


class Branch:
    """An open complete branch: its literal sequence after equality
    normalisation, plus its merge map as individual positions
    (``open_complete`` pairs it with the substitution)."""

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

    def __eq__(self, other):
        return isinstance(other, Branch) and self.lit_ints == other.lit_ints

    def __hash__(self):
        return hash(self.lit_ints)

    def __repr__(self):
        return f"Branch({', '.join(map(repr, self.literals))})"


class ModelBuilder:
    """Model reports rendered straight from packed branches as JSON text.

    ``render(lit_ints, sigma_items)`` returns, byte for byte, the text
    ``syntax.render_model_report`` gives for ``oracle.extract_model``'s
    model of the same branch: the merged individuals as domain, and per
    set variable (keys sorted) the sorted, deduplicated extent read off
    the positive membership literals.  It makes every check
    ``extract_model`` makes, as set operations over the branch:

    * no complementary pair;
    * when the KB mentions equality, no negated x=x and no equality
      between distinct individuals (a branch of any other KB holds no
      equality literal);
    * every clause instance over the merged individuals is fulfilled.

    When a literal check fails, the literals are walked in branch order
    and the first one at fault names the error, its complementary-pair
    test before its equality tests.  The literal checks all run before
    the instances, which are tried in clause-then-tau order, so the
    first unfulfilled one names the error.

    The text is the domain prefix, then the text of a model with every
    extent empty, with each extent's members inserted just inside its
    ``[``.  An extent member's key is that insertion offset, then the
    name ranks of its individuals, so one sort of a branch's keys lays
    out every extent; its JSON fragment is quoted once per builder.  Per
    distinct merge map, the domain prefix and the clause instances are
    built once, and a table from literal integer to key is filled as
    literals are first seen.
    """

    __slots__ = ("comp", "_names", "_quoted", "_rank", "_kk", "_pos",
                 "_empty", "_frag", "_more_frag", "_by_sigma")

    def __init__(self, comp: CompiledKb):
        self.comp = comp
        self._names = names = [v.name for v in comp.inds]
        # encode_basestring_ascii is what json.dumps applies to a str.
        self._quoted = list(map(encode_basestring_ascii, names))
        # _rank[i] is the place of individual i's name in sorted order.
        order = sorted(range(len(names)), key=names.__getitem__)
        self._rank = sorted(range(len(names)), key=order.__getitem__)
        self._kk = comp.kk
        # The text of a model after its domain prefix, with every extent
        # empty: sets1 then sets3, each in sorted name order.  A set's
        # position is the offset just inside its extent's "[", where its
        # members go.
        self._pos: List[int] = [0] * comp.nsym
        parts, size = [], 0
        n1 = len(comp.set1s)
        for group, offset, close in ((comp.set1s, 1, '}, "sets3": {'),
                                     (comp.set3s, 1 + n1, "}}")):
            sep = ""
            for name, sym in sorted([(v.name, offset + i)
                                     for i, v in enumerate(group)]):
                head = sep + encode_basestring_ascii(name) + ": ["
                self._pos[sym] = size + len(head)
                parts.append(head + "]")
                size += len(head) + 1
                sep = ", "
            parts.append(close)
            size += len(close)
        self._empty = "".join(parts)
        self._frag: Dict[int, str] = {}
        self._more_frag: Dict[int, str] = {}
        self._by_sigma: Dict[Tuple, Tuple[str, List, List, Dict[int, int],
                                         Dict[int, int]]] = {}

    def _key(self, sigma: Dict[int, int], lit_int: int) -> int:
        """A literal's extent key under a merge map, or -1 for a negated
        or equality literal.  The member's JSON fragment is recorded on
        first sight."""
        kind, sym, a, b = self.comp.fields(lit_int)
        if lit_int & 1 or kind == KIND_EQ:
            return -1
        rank, quoted = self._rank, self._quoted
        a = sigma.get(a, a)
        key = self._pos[sym] * self._kk
        if kind == KIND_IN1:
            key += rank[a]
            frag = quoted[a]
        else:
            b = sigma.get(b, b)
            key += rank[a] * self.comp.k + rank[b]
            frag = f"[{quoted[a]}, {quoted[b]}]"
        if key not in self._frag:
            self._frag[key] = frag
            self._more_frag[key] = ", " + frag
        return key

    def _merged(self, sigma_items: Tuple[Tuple[int, int], ...]):
        """The domain prefix, every clause instance over the merged
        individuals with its (clause, tau) label, the merge map as a
        dict, and the table from literal integer to extent key, for one
        merge map."""
        hit = self._by_sigma.get(sigma_items)
        if hit is not None:
            return hit
        sigma_map = dict(sigma_items)
        comp = self.comp
        canon = list(dict.fromkeys(sigma_map.get(i, i)
                                   for i in range(len(comp.inds))))
        instances, labels = [], []
        for cl, (m, specs) in zip(comp.kb.clauses, comp.clause_specs):
            merged = specs  # with no merges, the clause's own disjuncts
            if sigma_map:
                merged = []
                for const, ia, ib in specs:
                    kind, sym, a, b = comp.fields(const)
                    if kind == KIND_IN1:  # its individual is the 2nd slot
                        if ib < 0:
                            a = sigma_map.get(a, a)
                    else:
                        if ia < 0:
                            a = sigma_map.get(a, a)
                        if ib < 0:
                            b = sigma_map.get(b, b)
                    merged.append((comp.pack(kind, sym, a, b, const & 1),
                                   ia, ib))
            for tau in itertools.product(canon, repeat=m):
                instances.append(comp.instantiate(merged, tau))
                labels.append((cl, tau))
        prefix = ('{"domain": [' + ", ".join([self._quoted[c] for c in canon])
                  + '], "sets1": {')
        hit = self._by_sigma[sigma_items] = (
            prefix, instances, labels, sigma_map, {})
        return hit

    def render(self, lit_ints: Tuple[int, ...],
               sigma_items: Tuple[Tuple[int, int], ...]) -> str:
        """The model report text of one packed branch: its literal
        integers and its merge map's sorted items."""
        comp = self.comp
        prefix, instances, labels, sigma_map, table = \
            self._merged(sigma_items)
        lits = set(lit_ints)
        if not lits.isdisjoint(map(xor, lit_ints, itertools.repeat(1))) or (
                comp.has_eq and not (lits.isdisjoint(comp.eq_pos)
                                     and lits.isdisjoint(comp.neg_eq_diag))):
            self._literal_fault(lit_ints, lits)
        if any(map(lits.isdisjoint, instances)):
            for (cl, tau), inst in zip(labels, instances):
                if lits.isdisjoint(inst):
                    raise PreconditionError(
                        f"branch does not fulfill {cl!r} at "
                        f"{[self._names[t] for t in tau]}")
        keys = set(map(table.get, lit_ints))
        if None in keys:  # a literal not yet seen under this merge map
            for l in lit_ints:
                if l not in table:
                    table[l] = self._key(sigma_map, l)
            keys = set(map(table.__getitem__, lit_ints))
        keys.discard(-1)
        kk, empty, frag, more_frag = (self._kk, self._empty, self._frag,
                                      self._more_frag)
        text = [prefix]
        at = 0
        for key in sorted(keys):
            pos = key // kk
            if pos == at:
                text.append(more_frag[key])
            else:
                text.append(empty[at:pos])
                text.append(frag[key])
                at = pos
        text.append(empty[at:])
        return "".join(text)

    def _literal_fault(self, lit_ints: Tuple[int, ...], lits: set) -> None:
        """Raise for the first literal, in branch order, that closes the
        branch or still equates distinct individuals."""
        for l in lit_ints:
            if (l ^ 1) in lits:
                raise PreconditionError("branch is closed (complementary pair)")
            kind, sym, a, b = self.comp.fields(l)
            if kind == KIND_EQ:
                if a == b and l & 1:
                    raise PreconditionError("branch is closed (negated x=x)")
                if a != b and not l & 1:
                    raise PreconditionError("branch still carries an equality "
                                            "between distinct variables")


@dataclass(slots=True)
class SaturationResult:
    """Outcome of a saturation run: the branch set and its statistics.

    ``packed`` holds every open complete branch as its sorted pair
    ``(lit_ints, sigma_items)``: the literal integers after equality
    normalisation and the merge map as sorted (individual,
    representative) position pairs.  It is empty when
    ``collect_branches`` was off, in which case only the counts survive.
    ``open_complete`` pairs each of those branches, as a :class:`Branch`,
    with its equality substitution; it is built on first read and kept.
    ``consistent`` is open_count > 0.
    """

    kb: KnowledgeBase
    engine: str
    packed: List[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]]
    open_count: int
    closed_count: int
    consistent: bool
    stats: EngineStats
    collected: bool
    compiled: CompiledKb = field(repr=False, default=None)
    _open_complete: Optional[List[Tuple[Branch, Substitution]]] = field(
        init=False, repr=False, compare=False, default=None)

    @property
    def open_complete(self) -> List[Tuple[Branch, Substitution]]:
        if self._open_complete is None:
            comp = self.compiled
            sigmas: Dict[Tuple, Substitution] = {}  # most branches share one
            branches = []
            for lit_ints, sigma_items in self.packed:
                sigma = sigmas.get(sigma_items)
                if sigma is None:
                    sigma = sigmas[sigma_items] = comp.merges(sigma_items)
                branches.append((Branch(comp, lit_ints, dict(sigma_items)),
                                 sigma))
            self._open_complete = branches
        return self._open_complete


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


# Entries the equality phase may cache in one run (equality sequences
# plus rewrite-table entries) before it starts afresh.  A keg saturation
# of the ontology-query KB (1,290 merged leaves) fills 131: 17 sequences
# and 114 rewrites.  The cap only keeps a wide KB's caches from growing
# with its tree.
EQ_CACHE_CAP = 1 << 16

# The most flags a run keeps in a list indexed by literal integer (8 MB
# of list).  A KB with a larger literal space -- a relation, or equality,
# takes k*k keys -- gets _SparseMarks instead, whose memory grows only
# with the literals that were ever marked.
MARKS_CAP = 1 << 20


class _SparseMarks(dict):
    """Flags indexed by literal integer for a literal space too large for
    a list: a literal never marked reads False."""

    __slots__ = ()

    def __missing__(self, lit_int: int) -> bool:
        return False


def _marks(comp: "CompiledKb"):
    """All-clear flags for every literal integer of ``comp``, and index -1."""
    if comp.nmarks <= MARKS_CAP:
        return [False] * comp.nmarks
    return _SparseMarks()


class _RewriteTable(dict):
    """Literal integer -> its image under one merge map, filled on first
    use."""

    __slots__ = ("cache", "sigma")

    def __init__(self, cache: "_MergeCache", sigma: Dict[int, int]):
        super().__init__()
        self.cache = cache
        self.sigma = sigma

    def __missing__(self, lit_int: int) -> int:
        self.cache.grow()
        r = self[lit_int] = self.cache.comp.rewrite(lit_int, self.sigma)
        return r


class _MergeCache:
    """The equality phase's memo for one run.

    ``by_eqs`` maps a branch's equality sequence to its merge map's sorted
    items and rewrite table.  :func:`_normalize_eqs` sends every class to
    its minimum, so the map depends only on the classes, and sequences
    with the same classes share one table (``by_map``).
    """

    __slots__ = ("comp", "by_eqs", "by_map", "size")

    def __init__(self, comp: "CompiledKb"):
        self.comp = comp
        self.by_eqs: Dict[Tuple, Tuple[Tuple, _RewriteTable]] = {}
        self.by_map: Dict[Tuple, Tuple[Tuple, _RewriteTable]] = {}
        self.size = 0

    def grow(self) -> None:
        if self.size >= EQ_CACHE_CAP:
            self.by_eqs.clear()
            self.by_map.clear()
            self.size = 0
        self.size += 1

    def add(self, eqs: Tuple[Tuple[int, int], ...]):
        self.grow()
        sigma = _normalize_eqs(eqs)
        items = tuple(sorted(sigma.items()))
        hit = self.by_map.get(items)
        if hit is None:
            hit = self.by_map[items] = (items, _RewriteTable(self, sigma))
        self.by_eqs[eqs] = hit
        return hit


# A run with a ``poll`` calls it once per this many counted leaves.
POLL_LEAVES = 128


def _guiding_paths(stack, most: int) -> List[Tuple[int, ...]]:
    """Take up to ``most`` of the shallowest entries off :func:`_run`'s
    ``stack`` and return each as a guiding path: the script that replays
    the splits from the root to the entry's split and enters its
    complement child (see ``script`` in :func:`_run`).

    Every entry is the complement child of a split on the current path,
    and an entry is on the stack exactly while the path is in that
    split's fulfilling child.  So the path of an entry at depth ``d`` has
    a 0 at each depth below ``d`` that has an entry and a 1 at every
    other, then a final 1.  Depths rise strictly from the bottom of the
    stack, so the shallowest entries are its first and each path extends
    the one before.
    """
    paths = []
    prefix: List[int] = []
    for entry in stack[:most]:
        depth = entry[5]
        prefix += [1] * (depth - len(prefix) - 1)
        paths.append(tuple(prefix) + (1,))
        prefix.append(0)
    del stack[:most]
    return paths


def _keg_select(comp: CompiledKb, on):
    """keg's selection policy for one :func:`_run`: the first job at or
    after the cursor whose instance no branch literal discharges, and
    that instance's unresolved disjuncts.  The cursor witnesses that
    every earlier job is discharged, so no instance has to stay on the
    branch.  The scan takes one pass per job: it grounds each disjunct
    with :meth:`CompiledKb.instantiate`'s arithmetic, stops at the first
    one on the branch, and otherwise keeps those whose complement is not
    on it, in disjunct order.  It builds no instance.  ``on`` is the
    explorer's flags (see :func:`_marks`), so each of those tests is one
    index.

    ``watch[j]`` is the disjunct that last stopped job ``j``'s scan, or
    -1, whose flag is never set.  It is a disjunct of job ``j``'s own
    instance, so while it is on the branch the job is discharged and is
    passed over without being ground; once backtracking has removed it,
    the job is ground again.  The watch list takes 8 bytes per job, plus the literal integers it
    keeps alive; it holds no instance.

    A complement child whose split carried its list on the stack entry
    does not call this (see :func:`_run`).  A replayed complement child,
    which has no entry, grounds its split's job again and gets the same
    list, since the scan drops every disjunct whose complement is on the
    branch and the split literal's complement now is.
    """
    jobs = comp.jobs
    njobs = len(jobs)
    astep = comp.astep
    watch = [-1] * njobs

    def select(j):
        while j < njobs:
            if on[watch[j]]:
                j += 1
                continue
            specs, tau = jobs[j]
            # Ground each disjunct as CompiledKb.instantiate does: lit
            # starts as the spec's constant.
            missing = []
            for lit, ia, ib in specs:
                if ia >= 0:
                    lit += tau[ia] * astep
                if ib >= 0:
                    lit += tau[ib] * 4
                if on[lit]:
                    watch[j] = lit
                    break
                if not on[lit ^ 1]:
                    missing.append(lit)
            else:
                return j, missing
            j += 1
        return None
    return select


def _run(comp: CompiledKb, opts: EngineOptions, engine: str,
         script: Optional[Sequence[int]] = None,
         deadline: Optional[float] = None,
         poll: Optional[Callable[[list, int], bool]] = None):
    """Depth-first saturation.  Returns raw counts, stats and collected
    branch encodings; wrapped by :func:`saturate` and :mod:`.parallel`.

    One loop explores the tree for every engine.  The branch is the trail
    ``order`` plus one membership structure, chosen by the policy: for
    one that ``marks`` (keg), ``on``, flags indexed by literal integer
    (see :func:`_marks`); otherwise the set ``bset``.  Adding a
    literal appends it to the trail and sets its flag or adds it to the
    set; undoing pops the trail and clears it.  At a split the loop
    enters the fulfilling child and pushes the complement child on an
    explicit stack as (trail length, equality count, resident count,
    literal, cursor, depth, carried list); at a leaf it pops the next
    entry, undoes the branch to the saved lengths and enters it.  An
    engine is only its ``select`` policy: for the first instance (at or
    after keg's cursor) that no branch literal discharges, its job index
    and its unresolved disjuncts, those whose complement is not on the
    branch; or ``None`` when every instance is discharged.  One
    unresolved disjunct is eliminated, none closes the branch, and more
    split on the first.

    A policy that ``resumes`` (keg) has its split carry the complement
    child's unresolved list in the entry: the rest of the split's list
    without any copy of the split literal, whose complement the child
    adds.  The popped child acts on that list and does not select.  When
    the added complement is itself a disjunct, the child discharges the
    job, so the entry carries ``None`` and the next job as its cursor.
    The other policies carry ``None`` and re-select in the child.

    ``script`` replays a fixed prefix of split decisions (0 = fulfilling
    child, 1 = complement child), such as a guiding path taken off
    another run's stack (see :func:`_guiding_paths`); while replaying,
    counters and leaves are only attributed to this run if the remaining
    script is all zeros, so a partitioned parallel run counts every node
    exactly once.  A replayed complement child has no entry and selects.

    A complete branch with an equality goes through the equality phase.
    It keeps the last merged leaf's rewrite of the trail, with the
    rewrite's length before each trail position, and a pop lowers
    ``low``, the trail length below which nothing changed since that
    leaf.  When
    the next merged leaf's rewrite table is the same object, the phase
    keeps the rewrite of the first ``low`` positions and walks on from
    there, or counts the leaf closed at once when the last leaf closed
    below ``low``; otherwise it walks the whole trail.  Either way the
    rewritten literals come out in first-occurrence order, as a walk
    from the start gives them.

    ``deadline`` is the absolute ``perf_counter`` reading at which
    ``opts.max_seconds`` runs out; every split and every counted leaf
    reads it.  ``poll`` is called at every ``POLL_LEAVES``-th counted
    leaf, before the leaf is counted, with the stack and the leaves
    counted so far; no clock is read for it.  It may take entries off the
    stack (see :func:`_guiding_paths`), and a true return stops the run
    there, with that leaf uncounted and no limit named: :mod:`.parallel`
    uses it for its serial probe and, past the probe, to merge what its
    helpers send and to stop on a run-wide limit.  Like the limits, it
    costs a serial run nothing.
    """
    jobs = comp.jobs
    njobs = len(jobs)
    instantiate = comp.instantiate
    # The branch: the trail ``order`` in insertion order, plus keg's
    # marks ``on`` or ke's and foke's set ``bset`` (see the policies).
    on = None
    bset: Optional[set] = None
    order: List[int] = []
    eqlits: List[Tuple[int, int]] = []
    resident: List[Tuple[int, ...]] = []  # foke's parked instances
    collect = opts.collect_branches
    has_eq = comp.has_eq
    eq_pos = comp.eq_pos
    neg_eq_diag = comp.neg_eq_diag
    eq_marked = comp.eq_marked
    kdim = comp.k
    length_bound = comp.length_bound
    merges = _MergeCache(comp) if has_eq else None
    by_eqs = merges.by_eqs if has_eq else None
    # The equality phase's state, kept from one merged leaf to the next.
    # ``rewritten`` is the last phase's rewrite of the trail through
    # ``prev_table``, in first-occurrence order, and ``seen`` marks
    # exactly its literals; ``seen`` is made at the first merged leaf, and
    # every rewritten literal keeps its symbol and polarity and takes
    # individuals below k, so it fits.  ``rpos[i]`` is the length
    # ``rewritten`` had before trail position i was walked, so the walk
    # covered the first ``len(rpos) - 1`` positions.  ``closed_at`` is the
    # position whose literal closed the last merged leaf, or -1, and
    # ``low`` the lowest trail length popped to since that leaf.
    seen = None
    prev_table = None
    rewritten: List[int] = []
    rpos = [0]
    closed_at = -1
    low = 0

    # The loop's counters live in locals and reach ``stats`` when it
    # ends; foke's policy writes its own two fields.
    stats = EngineStats()
    rule_apps = pb_apps = 0
    peak_depth = peak_lits = peak_res = 0
    nopen = nclosed = 0
    collected: List[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]] = []

    slen = len(script) if script else 0
    suffix_zero = [True] * (slen + 1)
    for i in range(slen - 1, -1, -1):
        suffix_zero[i] = suffix_zero[i + 1] and script[i] == 0
    sp = 0
    counting = suffix_zero[0]

    max_branches = opts.max_branches
    timed = deadline is not None
    limits = timed or max_branches is not None or poll is not None
    time_limit = f"time limit {opts.max_seconds}s exceeded"
    countdown = POLL_LEAVES

    # Universal clauses on the branch; ke's up-front grounding replaces
    # them.
    base_resident = njobs if engine == "ke" else len(comp.clause_specs)

    # Selection policies.  keg scans the job at the cursor one disjunct
    # at a time, stops at the first discharging one, builds no instance
    # and stores none on the branch: the cursor witnesses that every
    # earlier job is discharged.  It resumes: a complement child's
    # unresolved list rides on its stack entry, and per job keg keeps the
    # literal that last discharged it, never a grounding (see
    # _keg_select).  It tests literals one at a time, so it ``marks``
    # the branch in ``on``, flags indexed by literal integer (a list of
    # ``comp.nmarks``, or _SparseMarks past MARKS_CAP), and keeps no set.  ke and foke keep their
    # instances as branch formulae and re-inspect them from the first at
    # every step, a complement child included, filtering the selected one
    # against the branch again: the cost the fused rule avoids.  They test
    # a whole instance with one ``set.isdisjoint`` call, so the branch is
    # the set ``bset`` for them.  Their cursor is never read.  foke parks
    # the next job's instance on the branch when every resident is
    # discharged, and residents pop on backtrack.
    stack: List[Tuple[int, int, int, int, int, int, Optional[List[int]]]] = []
    if engine == "keg":
        on = _marks(comp)
        select = _keg_select(comp, on)
        resumes = True
        marks = True
    elif engine == "ke":
        instances = comp.instances
        resumes = False
        marks = False

        def select(j):
            for lits in instances:
                if bset.isdisjoint(lits):
                    return j, [l for l in lits if (l ^ 1) not in bset]
            return None
    elif engine == "foke":
        resumes = False
        marks = False

        def select(j):
            while True:
                for lits in resident:
                    if bset.isdisjoint(lits):
                        return j, [l for l in lits if (l ^ 1) not in bset]
                nres = len(resident)
                if nres == njobs:
                    return None
                specs, tau = jobs[nres]
                resident.append(tuple(instantiate(specs, tau)))
                if counting:
                    stats.gamma_apps += 1
                cur = len(order) + base_resident + nres + 1
                if cur > stats.peak_resident_formulae:
                    stats.peak_resident_formulae = cur
    else:
        raise ValueError(f"unknown engine {engine!r}")

    # Root: the ground conjuncts.  A contradictory pair or a negated
    # trivial equality closes the single starting branch outright.
    # keg marks each literal on its flags as it reads it.
    root_closed = False
    if marks:
        for l in comp.ground_lits:
            if on[l ^ 1] or (has_eq and l in neg_eq_diag):
                root_closed = True
            if not on[l]:
                on[l] = True
                order.append(l)
    else:
        bset = set()
        for l in comp.ground_lits:
            if (l ^ 1) in bset or (has_eq and l in neg_eq_diag):
                root_closed = True
            if l not in bset:
                bset.add(l)
                order.append(l)
    if has_eq:
        eqlits += [divmod(l >> 2, kdim) for l in order if l in eq_pos]

    limited = None
    leaf = True if root_closed else None  # True closed, False open
    lit, j, depth = -1, 0, 0              # lit: the literal to add next
    carried = None                        # a popped child's unresolved list
    while True:
        if leaf is not None:
            if counting:
                if limits:
                    if (max_branches is not None
                            and nopen + nclosed >= max_branches):
                        limited = f"branch limit {max_branches} reached"
                        break
                    if timed and perf_counter() > deadline:
                        limited = time_limit
                        break
                    if poll is not None:
                        countdown -= 1
                        if not countdown:
                            countdown = POLL_LEAVES
                            if poll(stack, nopen + nclosed):
                                break
                n = len(order)
                if n > peak_lits:
                    peak_lits = n
                res = n + base_resident + len(resident)
                if res > peak_res:
                    peak_res = res
                if leaf:
                    nclosed += 1
                elif n > length_bound:
                    raise AssertionError(
                        f"branch grew to {n} literals, above the height "
                        f"bound {length_bound}")
                elif eqlits:
                    # The equality phase: rewrite the branch through its
                    # merge map and close it at the first complementary
                    # pair or negated x=x.  With the last merged leaf's
                    # table, the trail below ``low`` is unchanged, so its
                    # rewrite is kept and the walk resumes there; a new
                    # table walks from 0.
                    key = tuple(eqlits)
                    sigma_items, table = by_eqs.get(key) or merges.add(key)
                    if table is not prev_table:
                        prev_table = table
                        low = 0
                        if seen is None:
                            seen = _marks(comp)
                    if 0 <= closed_at < low:
                        # The same closing pair, rewritten the same way.
                        nclosed += 1
                    else:
                        del rpos[low + 1:]
                        keep = rpos[-1]
                        for r in rewritten[keep:]:
                            seen[r] = False
                        del rewritten[keep:]
                        closed_at = -1
                        for l in order[len(rpos) - 1:]:
                            r = table[l]
                            if not seen[r]:
                                if seen[r ^ 1] or r in neg_eq_diag:
                                    closed_at = len(rpos) - 1
                                    nclosed += 1
                                    break
                                seen[r] = True
                                rewritten.append(r)
                            rpos.append(len(rewritten))
                        else:
                            nopen += 1
                            if collect:
                                collected.append((tuple(rewritten),
                                                  sigma_items))
                    low = len(order)
                else:
                    nopen += 1
                    if collect:
                        collected.append((tuple(order), ()))
            if not stack:
                break
            so, se, sr, lit, j, depth, carried = stack.pop()
            if marks:
                while len(order) > so:
                    on[order.pop()] = False
            else:
                while len(order) > so:
                    bset.discard(order.pop())
            if has_eq:
                del eqlits[se:]
                if so < low:
                    low = so
            del resident[sr:]
            leaf = None
        if lit >= 0:
            # A split or elimination literal.  It never meets its
            # complement (the step checked that) but a negated trivial
            # equality still closes; eq_marked holds exactly those and
            # the equalities between distinct individuals.
            if has_eq and lit in eq_marked:
                if lit & 1:
                    leaf = True
                    continue
                eqlits.append(divmod(lit >> 2, kdim))
            if marks:
                on[lit] = True
            else:
                bset.add(lit)
            order.append(lit)
            lit = -1
            if depth > peak_depth:
                peak_depth = depth
        if carried is None:
            selected = select(j)
            if selected is None:
                leaf = False
                continue
            j, missing = selected
        else:
            missing = carried
            carried = None
        if len(missing) < 2:
            if counting:
                rule_apps += 1
            if not missing:
                leaf = True
                continue
            lit = missing[0]
            j += 1
            continue
        # Split: enter the fulfilling child (the disjunct itself, next
        # job) and leave the complement child (same job) on the stack.
        if timed and perf_counter() > deadline:
            limited = time_limit
            break
        if counting:
            pb_apps += 1
        bh = missing[0]
        depth += 1
        if sp < slen:
            follow = script[sp]
            sp += 1
            counting = suffix_zero[sp]
            if follow:
                lit = bh ^ 1
                continue
        elif resumes:
            rest = missing[1:]
            if (bh ^ 1) in rest:
                stack.append((len(order), len(eqlits), len(resident), bh ^ 1,
                              j + 1, depth, None))
            else:
                if bh in rest:
                    rest = [l for l in rest if l != bh]
                stack.append((len(order), len(eqlits), len(resident), bh ^ 1,
                              j, depth, rest))
        else:
            stack.append((len(order), len(eqlits), len(resident), bh ^ 1, j,
                          depth, None))
        lit = bh
        j += 1

    stats.rule_apps = rule_apps
    stats.pb_apps = pb_apps
    stats.peak_stack_depth = peak_depth
    stats.peak_branch_literals = peak_lits
    stats.peak_resident_formulae = max(stats.peak_resident_formulae, peak_res)
    if stats.peak_resident_formulae == 0:
        stats.peak_resident_formulae = len(order) + base_resident
    return {"open": nopen, "closed": nclosed}, stats, collected, limited


def _assemble(kb: KnowledgeBase, comp: CompiledKb, engine: str,
              opts: EngineOptions, counts, stats, collected, limited,
              wall: float) -> SaturationResult:
    stats.wall_seconds = wall
    collected.sort()
    result = SaturationResult(
        kb=kb, engine=engine, packed=collected,
        open_count=counts["open"], closed_count=counts["closed"],
        consistent=counts["open"] > 0, stats=stats,
        collected=opts.collect_branches, compiled=comp)
    if limited:
        raise ResourceLimitError(limited, result)
    return result


def _effective_workers(opts: EngineOptions) -> int:
    """``opts.workers`` capped by ``REASONER_THREADS`` when that is set;
    a cap that is not a positive integer is a usage error, as a
    ``workers`` below 1 is."""
    cap = os.environ.get("REASONER_THREADS")
    if not cap:
        return opts.workers
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        raise PreconditionError(f"REASONER_THREADS must be a positive "
                                f"integer, got {cap!r}")
    return min(opts.workers, limit)


def saturate(kb: KnowledgeBase, opts: Optional[EngineOptions] = None,
             engine: str = "keg") -> SaturationResult:
    """Saturate ``kb`` and return its open complete branches.

    Deterministic given identical options: exploration order is fixed and
    the returned branch list is normalised, so it is also independent of
    the worker count.  ``opts.max_seconds`` counts from the start of this
    call, compile included; ``stats.wall_seconds`` excludes compile.
    Options that ``EngineOptions.validate`` rejects raise
    ``PreconditionError`` before any work.
    """
    opts = opts or EngineOptions()
    opts.validate()
    deadline = (perf_counter() + opts.max_seconds
                if opts.max_seconds is not None else None)
    comp = CompiledKb(kb)
    if engine == "ke":
        comp.instances  # ke's up-front grounding, timed as compile
    start = perf_counter()
    workers = _effective_workers(opts)
    if workers > 1:
        from .parallel import run_parallel
        counts, stats, collected, limited = run_parallel(
            comp, engine, opts, workers, deadline)
    else:
        counts, stats, collected, limited = _run(comp, opts, engine,
                                                 deadline=deadline)
    wall = perf_counter() - start
    return _assemble(kb, comp, engine, opts, counts, stats, collected,
                     limited, wall)
