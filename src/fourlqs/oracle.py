"""Ground-truth machinery the engines are checked against.

Three independent instruments live here:

* ``model_check`` / ``enumerate_models`` -- plain finite-model semantics.
  Candidate domains are quotients of the KB's individuals (set
  partitions); by the branch-model construction, if the KB has any model
  it has one of this shape, so exhausting them decides consistency.
  Enumeration is a transparent backtracking search over membership atoms
  that prunes only on an already-falsified clause instance; it streams
  every satisfying interpretation.

* ``extract_model`` -- the interpretation read off an open complete
  branch: the domain is the merged individuals, and the positive branch
  literals are the set extents.

* ``reference_saturate`` / ``brute_answers`` -- a deliberately naive
  re-derivation of the branch set (a few dozen lines over plain literal
  sets, no trail, no cursors, no statistics) and query answering by
  exhaustive enumeration of all sort-respecting substitutions against
  it.  This is the oracle for everything branch-shaped: the optimised
  engines and the packed query matcher must reproduce it exactly.

None of this is built for speed; it exists to be checked by eye.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .core import (SORT0, SORT1, SORT3, Atom, Eq, FourlqsError,
                   KnowledgeBase, Literal, Member1, Member3, PreconditionError,
                   Substitution, UniversalClause, Variable, answer_key,
                   substitution0)
from .syntax import Query


def complement(lit: Literal) -> Literal:
    """Flip the polarity; the atom payload is shared, so this is an involution."""
    return Literal(not lit.positive, lit.atom)


def _apply_atom(atom: Atom, lookup) -> Atom:
    if isinstance(atom, Eq):
        return Eq(lookup(atom.left), lookup(atom.right))
    if isinstance(atom, Member1):
        return Member1(lookup(atom.elem), lookup(atom.set1))
    return Member3(lookup(atom.first), lookup(atom.second), lookup(atom.set3))


def apply_substitution(f, s: Substitution):
    """Replace free occurrences of variables in the literal or clause
    ``f`` according to ``s``.

    Quantified occurrences inside a clause are never touched; since
    placeholders are interned apart from free names, any substitution is
    free for any clause by construction.
    """
    if isinstance(f, Literal):
        if s.is_empty():
            return f
        return Literal(f.positive, _apply_atom(f.atom, s.get))
    if isinstance(f, UniversalClause):
        if s.is_empty():
            return f
        bound = set(f.quantified)

        def lookup(v: Variable) -> Variable:
            return v if v in bound else s.get(v)

        return UniversalClause(
            f.quantified,
            tuple(Literal(d.positive, _apply_atom(d.atom, lookup))
                  for d in f.disjuncts))
    raise TypeError(f"cannot apply a substitution to {type(f).__name__}")


class BoundsExceededError(FourlqsError):
    """The instance is too large for exhaustive checking; the oracle
    refuses rather than silently truncating."""


class UnassignedVariableError(FourlqsError):
    """model_check met a variable the interpretation does not assign."""


@dataclass(slots=True)
class OracleBounds:
    max_individuals: int = 4
    max_set1: int = 3
    max_set3: int = 2
    max_states: int = 2 ** 30
    max_candidates: int = 200_000

    def check_sizes(self, kb: KnowledgeBase) -> None:
        """Refuse a KB with more individuals, set or relation variables
        than the bounds allow.  A negative bound is a usage error, as a
        negative limit is in ``EngineOptions.validate``."""
        for name, bound in (("individual", self.max_individuals),
                            ("set", self.max_set1),
                            ("relation", self.max_set3)):
            if bound < 0:
                raise PreconditionError(f"{name} bound must be at least 0, "
                                        f"got {bound}")
        k = len(kb.var0_order)
        n1 = len(kb.var1_order)
        n3 = len(kb.var3_order)
        if k > self.max_individuals:
            raise BoundsExceededError(
                f"{k} individuals exceed the bound {self.max_individuals}")
        if n1 > self.max_set1 or n3 > self.max_set3:
            raise BoundsExceededError(
                f"{n1} set and {n3} relation variables exceed the bounds "
                f"{self.max_set1}/{self.max_set3}")

    def check_kb(self, kb: KnowledgeBase) -> None:
        """:meth:`check_sizes`, then the assignment space."""
        self.check_sizes(kb)
        k = len(kb.var0_order)
        cells = k * len(kb.var1_order) + k * k * len(kb.var3_order)
        if 2 ** cells > self.max_states:
            raise BoundsExceededError(
                f"assignment space 2^{cells} exceeds max_states")


DEFAULT_BOUNDS = OracleBounds()


@dataclass(frozen=True, slots=True)
class Interpretation:
    """A finite interpretation: a domain of individual names, one element
    per individual variable, a subset of the domain per set variable and
    a set of ordered pairs per relation variable."""

    domain: Tuple[str, ...]
    assign0: Dict["Variable", str] = field(default_factory=dict)
    assign1: Dict["Variable", FrozenSet[str]] = field(default_factory=dict)
    assign3: Dict["Variable", FrozenSet[Tuple[str, str]]] = field(default_factory=dict)

    def vars1(self):
        return list(self.assign1)

    def vars3(self):
        return list(self.assign3)


def _element(interp: Interpretation, v, env) -> str:
    if env is not None and v in env:
        return env[v]
    try:
        return interp.assign0[v]
    except KeyError:
        raise UnassignedVariableError(f"no element assigned to {v!r}") from None


def _check_literal(interp: Interpretation, lit: Literal, env=None) -> bool:
    a = lit.atom
    if isinstance(a, Eq):
        value = _element(interp, a.left, env) == _element(interp, a.right, env)
    elif isinstance(a, Member1):
        if a.set1 not in interp.assign1:
            raise UnassignedVariableError(f"no extent assigned to {a.set1!r}")
        value = _element(interp, a.elem, env) in interp.assign1[a.set1]
    else:
        if a.set3 not in interp.assign3:
            raise UnassignedVariableError(f"no extent assigned to {a.set3!r}")
        pair = (_element(interp, a.first, env), _element(interp, a.second, env))
        value = pair in interp.assign3[a.set3]
    return value if lit.positive else not value


def model_check(interp: Interpretation, f) -> bool:
    """Standard satisfaction: universal clauses range over every tuple of
    domain elements."""
    if isinstance(f, Literal):
        return _check_literal(interp, f)
    if isinstance(f, UniversalClause):
        m = len(f.quantified)
        for combo in itertools.product(interp.domain, repeat=m):
            env = dict(zip(f.quantified, combo))
            if not any(_check_literal(interp, d, env) for d in f.disjuncts):
                return False
        return True
    if isinstance(f, KnowledgeBase):
        return (all(_check_literal(interp, l) for l in f.literals)
                and all(model_check(interp, c) for c in f.clauses))
    raise TypeError(f"model_check not defined on {type(f).__name__}")


# ---------------------------------------------------------------------------
# Model extraction from branches
# ---------------------------------------------------------------------------

def _branch_literal_list(branch) -> List[Literal]:
    lits = getattr(branch, "literals", branch)
    return list(lits)


def extract_model(branch, sigma: Substitution, kb: KnowledgeBase) -> Interpretation:
    """The branch model: domain = merged individuals, extents = the
    positive membership literals on the branch."""
    lits = _branch_literal_list(branch)
    litset = frozenset(lits)
    for l in lits:
        if complement(l) in litset:
            raise PreconditionError("branch is closed (complementary pair)")
        if not l.positive and isinstance(l.atom, Eq) and l.atom.left is l.atom.right:
            raise PreconditionError("branch is closed (negated x=x)")
        if l.positive and isinstance(l.atom, Eq) and l.atom.left is not l.atom.right:
            raise PreconditionError("branch still carries an equality "
                                    "between distinct variables")

    canon = [sigma.get(v) for v in kb.var0_order]
    canon_set = []
    for v in canon:
        if v not in canon_set:
            canon_set.append(v)
    for cl in kb.clauses:
        merged = apply_substitution(cl, sigma)
        for combo in itertools.product(canon_set, repeat=len(merged.quantified)):
            tau = substitution0(dict(zip(merged.quantified, combo)))
            if not any(apply_substitution(d, tau) in litset
                       for d in merged.disjuncts):
                raise PreconditionError(
                    f"branch does not fulfill {merged!r} at {tau!r}")
    domain: List[str] = []
    for v in canon:
        if v.name not in domain:
            domain.append(v.name)
    assign0 = {v: sigma.get(v).name for v in kb.var0_order}
    assign1 = {s: set() for s in kb.var1_order}
    assign3 = {r: set() for r in kb.var3_order}
    for l in lits:
        if not l.positive:
            continue
        a = l.atom
        if isinstance(a, Member1):
            assign1[a.set1].add(sigma.get(a.elem).name)
        elif isinstance(a, Member3):
            assign3[a.set3].add((sigma.get(a.first).name,
                                 sigma.get(a.second).name))
    return Interpretation(
        domain=tuple(domain),
        assign0=assign0,
        assign1={s: frozenset(e) for s, e in assign1.items()},
        assign3={r: frozenset(e) for r, e in assign3.items()},
    )


# ---------------------------------------------------------------------------
# Finite-model enumeration
# ---------------------------------------------------------------------------

def partitions(items: Sequence) -> Iterator[List[List]]:
    """Set partitions in restricted-growth order (deterministic)."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(i: int, blocks: List[List]):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[items[0]]])


def _ground_problem(kb: KnowledgeBase, rep: Dict, extra: Sequence[Literal]):
    """Translate KB plus extra ground literals over a fixed quotient into
    unit constraints and disjunctions over membership cells.

    A cell is ("1", set_var, elem_name) or ("3", rel_var, a_name, b_name).
    Returns (units, clauses, feasible): units force cell truth values,
    clauses are lists of (cell, wanted_truth).  Equality atoms evaluate
    against the quotient immediately.
    """
    units: Dict[Tuple, bool] = {}
    clauses: List[List[Tuple[Tuple, bool]]] = []

    def cell_of(lit: Literal, env):
        a = lit.atom
        if isinstance(a, Member1):
            name = env[a.elem] if a.elem in env else rep[a.elem]
            return ("1", a.set1, name)
        first = env[a.first] if a.first in env else rep[a.first]
        second = env[a.second] if a.second in env else rep[a.second]
        return ("3", a.set3, first, second)

    def eval_eq(lit: Literal, env) -> bool:
        left = env[lit.atom.left] if lit.atom.left in env else rep[lit.atom.left]
        right = env[lit.atom.right] if lit.atom.right in env else rep[lit.atom.right]
        return (left == right) == lit.positive

    for lit in list(kb.literals) + list(extra):
        if isinstance(lit.atom, Eq):
            if not eval_eq(lit, {}):
                return None
            continue
        cell = cell_of(lit, {})
        if units.get(cell, lit.positive) != lit.positive:
            return None
        units[cell] = lit.positive

    domain = sorted({rep[v] for v in kb.var0_order}) if kb.var0_order else []
    for cl in kb.clauses:
        for combo in itertools.product(domain, repeat=len(cl.quantified)):
            env = dict(zip(cl.quantified, combo))
            satisfied = False
            body = []
            for d in cl.disjuncts:
                if isinstance(d.atom, Eq):
                    if eval_eq(d, env):
                        satisfied = True
                        break
                    continue
                body.append((cell_of(d, env), d.positive))
            if satisfied:
                continue
            # Fold unit-determined cells into the instance.
            reduced = []
            for cell, want in body:
                if cell in units:
                    if units[cell] == want:
                        satisfied = True
                        break
                    continue
                reduced.append((cell, want))
            if satisfied:
                continue
            if not reduced:
                return None
            clauses.append(reduced)
    return units, clauses, domain


def _assignments(kb: KnowledgeBase, rep: Dict, extra: Sequence[Literal] = ()):
    """Stream all satisfying cell assignments over the quotient ``rep``."""
    problem = _ground_problem(kb, rep, extra)
    if problem is None:
        return
    units, clauses, domain = problem

    cells = []
    for s in kb.var1_order:
        for d in domain:
            cells.append(("1", s, d))
    for r in kb.var3_order:
        for a in domain:
            for b in domain:
                cells.append(("3", r, a, b))
    free = [c for c in cells if c not in units]
    index = {c: i for i, c in enumerate(free)}

    watch: List[List[int]] = [[] for _ in free]
    compiled = []
    for body in clauses:
        lits = [(index[c], want) for c, want in body]
        compiled.append(lits)
        for i, _ in lits:
            watch[i].append(len(compiled) - 1)

    assign: List[Optional[bool]] = [None] * len(free)

    def falsified(ci: int) -> bool:
        for i, want in compiled[ci]:
            v = assign[i]
            if v is None or v == want:
                return False
        return True

    def rec(i: int) -> Iterator[Dict[Tuple, bool]]:
        if i == len(free):
            values = dict(units)
            for c, v in zip(free, assign):
                values[c] = v
            yield values
            return
        for value in (False, True):
            assign[i] = value
            if not any(falsified(ci) for ci in watch[i]):
                yield from rec(i + 1)
        assign[i] = None

    yield from rec(0)


def _interp_from(kb: KnowledgeBase, rep: Dict, values: Dict[Tuple, bool],
                 domain: Sequence[str]) -> Interpretation:
    assign1 = {s: frozenset(d for d in domain if values.get(("1", s, d), False))
               for s in kb.var1_order}
    assign3 = {r: frozenset((a, b) for a in domain for b in domain
                            if values.get(("3", r, a, b), False))
               for r in kb.var3_order}
    return Interpretation(domain=tuple(domain),
                          assign0={v: rep[v] for v in kb.var0_order},
                          assign1=assign1, assign3=assign3)


def _quotients(kb: KnowledgeBase) -> Iterator[Dict]:
    """Quotient maps individual -> representative name, one per set
    partition of the individuals; the representative is the block's
    first individual in appearance order."""
    for blocks in partitions(kb.var0_order):
        rep = {}
        for block in blocks:
            name = block[0].name
            for v in block:
                rep[v] = name
        yield rep


def enumerate_models(kb: KnowledgeBase,
                     bounds: OracleBounds = DEFAULT_BOUNDS) -> Iterator[Interpretation]:
    """Stream every model of ``kb`` whose domain is a quotient of its
    individuals.  Sufficient for consistency: branch models have this
    shape."""
    bounds.check_kb(kb)
    for rep in _quotients(kb):
        domain = []
        for v in kb.var0_order:
            if rep[v] not in domain:
                domain.append(rep[v])
        for values in _assignments(kb, rep):
            yield _interp_from(kb, rep, values, domain)


def is_consistent(kb: KnowledgeBase, bounds: OracleBounds = DEFAULT_BOUNDS) -> bool:
    return next(enumerate_models(kb, bounds), None) is not None


def has_model_over_quotient(kb: KnowledgeBase, merges: Substitution,
                            extra: Sequence[Literal] = (),
                            bounds: OracleBounds = DEFAULT_BOUNDS) -> bool:
    """Does some model with exactly this merge pattern satisfy the KB and
    the extra ground literals?  Used to certify answers semantically."""
    bounds.check_kb(kb)
    rep = {v: merges.get(v).name for v in kb.var0_order}
    return next(iter(_assignments(kb, rep, extra)), None) is not None


# ---------------------------------------------------------------------------
# Reference saturation and brute-force answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReferenceBranch:
    literals: Tuple[Literal, ...]
    sigma: Substitution

    def literal_set(self) -> FrozenSet[Literal]:
        return frozenset(self.literals)


def _collapse(lits: List[Literal], kb: KnowledgeBase):
    """The equality phase, re-derived naively: merge to the order-minimal
    representative, rewrite, and report closure after rewriting."""
    index = {v: i for i, v in enumerate(kb.var0_order)}
    pairs = [(index[l.atom.left], index[l.atom.right]) for l in lits
             if l.positive and isinstance(l.atom, Eq)
             and l.atom.left is not l.atom.right]
    sigma: Dict[int, int] = {}
    work = list(pairs)
    while True:
        pick = next(((a, b) for a, b in work if a != b), None)
        if pick is None:
            break
        a, b = pick
        z = min(a, b)
        step = {a: z, b: z}
        merged = dict(step)
        for k, v in sigma.items():
            merged[k] = step.get(v, v)
        sigma = {k: v for k, v in merged.items() if k != v}
        work = [(sigma.get(x, x), sigma.get(y, y)) for x, y in work]
    inds = kb.var0_order
    subst = substitution0({inds[a]: inds[b] for a, b in sigma.items()})
    rewritten: List[Literal] = []
    seen = set()
    for l in lits:
        r = apply_substitution(l, subst)
        if r not in seen:
            seen.add(r)
            rewritten.append(r)
    closed = any(complement(l) in seen for l in rewritten) or any(
        not l.positive and isinstance(l.atom, Eq)
        and l.atom.left is l.atom.right for l in rewritten)
    return rewritten, subst, closed


def reference_saturate(kb: KnowledgeBase,
                       max_branches: int = 200_000) -> Tuple[List[ReferenceBranch], int]:
    """Naive re-derivation of the open complete branch set.

    Instances are processed in clause order and lexicographic tuple
    order; an instance with a disjunct on the branch is skipped, the
    elimination step fires when one disjunct remains unresolved, and
    otherwise the branch splits on the first unresolved disjunct (its
    complement on one side, the disjunct on the other).  Open fulfilled
    branches then go through the equality collapse.  Returns the open
    complete branches and the closed-branch count.
    """
    instances: List[Tuple[Literal, ...]] = []
    for cl in kb.clauses:
        for combo in itertools.product(kb.var0_order, repeat=len(cl.quantified)):
            tau = substitution0(dict(zip(cl.quantified, combo)))
            instances.append(tuple(apply_substitution(d, tau)
                                   for d in cl.disjuncts))

    opens: List[ReferenceBranch] = []
    closed = [0]

    root: List[Literal] = []
    root_set = set()
    root_closed = False
    for l in kb.literals:
        if complement(l) in root_set:
            root_closed = True
        if not l.positive and isinstance(l.atom, Eq) and l.atom.left is l.atom.right:
            root_closed = True
        if l not in root_set:
            root_set.add(l)
            root.append(l)

    def too_big():
        if len(opens) + closed[0] > max_branches:
            raise BoundsExceededError(
                f"reference saturation exceeded {max_branches} branches")

    def leaf(lits: List[Literal]):
        too_big()
        rewritten, subst, was_closed = _collapse(lits, kb)
        if was_closed:
            closed[0] += 1
        else:
            opens.append(ReferenceBranch(tuple(rewritten), subst))

    def explore(lits: List[Literal], litset: set, i: int):
        if i == len(instances):
            leaf(lits)
            return
        inst = instances[i]
        if any(b in litset for b in inst):
            explore(lits, litset, i + 1)
            return
        missing = [b for b in inst if complement(b) not in litset]
        if len(missing) < 2:
            b = missing[0] if missing else inst[0]
            closes = complement(b) in litset or (
                not b.positive and isinstance(b.atom, Eq)
                and b.atom.left is b.atom.right)
            if closes:
                too_big()
                closed[0] += 1
                return
            explore(lits + [b], litset | {b}, i + 1)
            return
        b = missing[0]
        for child in (b, complement(b)):
            closes = (not child.positive and isinstance(child.atom, Eq)
                      and child.atom.left is child.atom.right)
            if closes:
                too_big()
                closed[0] += 1
            else:
                explore(lits + [child], litset | {child},
                        i + 1 if child is b else i)

    if root_closed:
        closed[0] = 1
    else:
        explore(root, set(root_set), 0)
    return opens, closed[0]


def _candidate_values(q: Query, kb: KnowledgeBase, sigma: Substitution):
    """Per query variable, the pool of values it may take: canonical
    individuals for sort 0, the KB's set symbols otherwise."""
    canon = []
    for v in kb.var0_order:
        w = sigma.get(v)
        if w not in canon:
            canon.append(w)
    pools = []
    for qv in q.qvars0:
        pools.append([(qv, c) for c in canon])
    for qv in q.qvars1:
        pools.append([(qv, s) for s in kb.var1_order])
    for qv in q.qvars3:
        pools.append([(qv, r) for r in kb.var3_order])
    return pools


def brute_answers(kb: KnowledgeBase, q: Query,
                  bounds: OracleBounds = DEFAULT_BOUNDS):
    """Answer a query by brute force: independently re-derive the branch
    set, then try every sort-respecting substitution of the query
    variables on every branch and keep those whose instantiated conjuncts
    all lie on the branch.  Answers carry the branch's merge map, like
    the engine's.  Returns a set of (binding, merges) pairs where each
    part is a canonical tuple of (variable, value) items.
    """
    branches, _closed = reference_saturate(kb)
    out = set()
    for br in branches:
        litset = br.literal_set()
        conj = [apply_substitution(c, br.sigma) for c in q.conjuncts]
        pools = _candidate_values(q, kb, br.sigma)
        total = 1
        for p in pools:
            total *= max(len(p), 1)
        if total > bounds.max_candidates:
            raise BoundsExceededError(
                f"{total} candidate substitutions exceed the bound")
        if any(not p for p in pools):
            continue
        for combo in itertools.product(*pools):
            m0 = {qv: val for qv, val in combo if qv.sort == SORT0}
            m1 = {qv: val for qv, val in combo if qv.sort == SORT1}
            m3 = {qv: val for qv, val in combo if qv.sort == SORT3}
            binding = Substitution(map0=m0, map1=m1, map3=m3)
            if all(apply_substitution(c, binding) in litset for c in conj):
                out.add(answer_key(binding, br.sigma))
    return out
