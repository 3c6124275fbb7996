"""Higher-order conjunctive query answering over saturated branch sets.

A query is a conjunction of literals whose slots may hold query variables
of any sort (individual, set, relation).  Answering is homomorphism
search on the packed encoding: each conjunct is compiled once against the
branch set's CompiledKb into an integer pattern (kind, polarity, and per
slot a symbol, an individual or a query variable).

The open branches are grouped by merge map, and each group's patterns
have their individual constants rewritten through it.  The union of the
group's literal integers is filtered once into the relevant literals:
those that match some pattern on their own.  Only these can take part in
a binding, so a branch's bindings depend only on its projection, the
relevant literals it holds.  Each branch costs one set intersection, and
a depth-first search runs once per distinct projection: it matches the
leftmost remaining pattern -- building the candidate literals and testing
membership when they are few, scanning the projection otherwise -- and a
node with no remaining pattern records its binding.  Bindings are
deduplicated as integer tuples per merge map, and only the unique answers
are decoded.

The answer set is the deduplicated union over branches.  It depends only
on the branch literal sets, so any of the three engines feeds it equally
well, the order and repetition of the branches do not matter, and
permuting the conjuncts changes the search shape but not the set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (SORT0, SORT1, SORT3, Eq, FourlqsError, KnowledgeBase,
                   Literal, Member1, Member3, Substitution, Variable,
                   answer_key)
from .engine import KIND_EQ, KIND_IN1, KIND_IN3, CompiledKb, SaturationResult
from .syntax import Query, parse_query


class StaleBranchError(FourlqsError):
    """The query and the branch set come from different knowledge bases."""


class TaskArityError(FourlqsError):
    """A retrieval task was given the wrong number of arguments."""


@dataclass(frozen=True, slots=True)
class Answer:
    """One element of an answer set: the query-variable binding plus the
    branch's individual merges that the binding was computed under."""

    binding: Substitution
    merges: Substitution

    def key(self):
        return answer_key(self.binding, self.merges)


@dataclass(frozen=True, slots=True)
class AnswerSet:
    answers: Tuple[Answer, ...]

    def keys(self):
        return {a.key() for a in self.answers}

    def __len__(self):
        return len(self.answers)

    def __iter__(self):
        return iter(self.answers)


def _slots(atom) -> Tuple[int, Optional[Variable], Variable,
                          Optional[Variable]]:
    """(kind, set symbol or None, first individual, second individual or
    None) of an atom, in the order the packed encoding lays them out."""
    if isinstance(atom, Eq):
        return KIND_EQ, None, atom.left, atom.right
    if isinstance(atom, Member1):
        return KIND_IN1, atom.set1, atom.elem, None
    return KIND_IN3, atom.set3, atom.first, atom.second


class _Plan:
    """A query compiled against one CompiledKb.

    Query variables are numbered by first appearance (conjunct order,
    then slot order); a conjunct becomes a pattern ``(kind, neg, sym, a,
    b)`` whose slots hold a symbol or individual position, or ``~i`` for
    query variable ``i``.  ``impossible`` marks a constant the KB does
    not know, which no branch literal can match.
    """

    def __init__(self, q: Query, comp: CompiledKb):
        self.comp = comp
        qvars = q.query_vars()
        n1 = len(comp.set1s)
        ind_ix = {v: i for i, v in enumerate(comp.inds)}
        sym_ix = {v: 1 + i for i, v in enumerate(comp.set1s)}
        sym_ix.update({v: 1 + n1 + i for i, v in enumerate(comp.set3s)})
        self.vars: List[Variable] = []
        var_ix: Dict[Variable, int] = {}
        self.impossible = False

        def slot(v: Optional[Variable], table) -> int:
            if v is None:
                return 0
            if v in qvars:
                if v not in var_ix:
                    var_ix[v] = len(self.vars)
                    self.vars.append(v)
                return ~var_ix[v]
            if v not in table:
                self.impossible = True
                return 0
            return table[v]

        self.patterns = []
        for c in q.conjuncts:
            kind, sym, a, b = _slots(c.atom)
            a_slot = slot(a, ind_ix)
            b_slot = slot(b, ind_ix)
            sym_slot = slot(sym, sym_ix)
            self.patterns.append((kind, 0 if c.positive else 1, sym_slot,
                                  a_slot, b_slot))
        inds = range(len(comp.inds))
        self.domains = [inds if v.sort == SORT0
                        else range(1, 1 + n1) if v.sort == SORT1
                        else range(1 + n1, comp.nsym) for v in self.vars]

    def merged(self, sigma_items: Tuple) -> List[Tuple]:
        """The patterns with their individual constants rewritten through
        a branch's merge map."""
        if not sigma_items:
            return self.patterns
        sigma = dict(sigma_items)
        return [(kind, neg, sym,
                 a if a < 0 else sigma.get(a, a),
                 b if b < 0 or kind == KIND_IN1 else sigma.get(b, b))
                for kind, neg, sym, a, b in self.patterns]

    def relevant(self, patterns: List[Tuple], lits) -> frozenset:
        """The literals among ``lits`` that match some pattern on their
        own: same polarity and kind, every constant slot equal, and one
        value for a variable the pattern repeats.  No other literal can
        take part in a binding."""
        fields = self.comp.fields
        keep = []
        for l in lits:
            lkind, *lvals = fields(l)
            neg = l & 1
            for kind, pneg, *slots in patterns:
                if kind != lkind or pneg != neg:
                    continue
                env = {}
                for s, v in zip(slots, lvals):
                    if (s != v) if s >= 0 else (env.setdefault(s, v) != v):
                        break
                else:
                    keep.append(l)
                    break
        return frozenset(keep)

    def search(self, patterns: List[Tuple], lits: frozenset,
               out: set) -> None:
        """Add to ``out`` every binding, as a tuple of values in variable
        order, under which all patterns occur among ``lits``.

        The search is depth first over an explicit stack whose entry
        ``i`` is pattern ``i``'s candidate iterator, so a query's length
        is bounded by memory, not by the recursion limit.  Each step of
        an iterator binds the pattern's free variables to its next match;
        an exhausted iterator has unbound them again."""
        comp = self.comp
        pack = comp.pack
        domains = self.domains
        env: List[Optional[int]] = [None] * len(self.vars)
        npat = len(patterns)

        def matches(i: int):
            kind, neg, *slots = patterns[i]
            values = [s if s >= 0 else env[~s] for s in slots]
            free = list(dict.fromkeys(~s for s, v in zip(slots, values)
                                      if v is None))
            if not free:
                if pack(kind, *values, neg) in lits:
                    yield True
                return
            probes = 1
            for x in free:
                probes *= len(domains[x])
            if probes <= len(lits):
                # Few candidate literals: build each and test membership.
                for combo in itertools.product(*(domains[x] for x in free)):
                    for x, v in zip(free, combo):
                        env[x] = v
                    if pack(kind, *(s if s >= 0 else env[~s] for s in slots),
                            neg) in lits:
                        yield True
            else:
                # Many candidates: scan the literals instead.
                for l in lits:
                    if l & 1 != neg:
                        continue
                    lkind, *lvals = comp.fields(l)
                    if lkind != kind:
                        continue
                    for x in free:
                        env[x] = None
                    for s, v in zip(slots, lvals):
                        want = s if s >= 0 else env[~s]
                        if want is None:
                            env[~s] = v
                        elif want != v:
                            break
                    else:
                        yield True
            for x in free:
                env[x] = None

        if not npat:
            out.add(tuple(env))
            return
        stack = [matches(0)]
        while stack:
            if not next(stack[-1], False):
                stack.pop()
            elif len(stack) == npat:
                out.add(tuple(env))
            else:
                stack.append(matches(len(stack)))

    def decode(self, values: Tuple[int, ...]) -> Substitution:
        comp = self.comp
        n1 = len(comp.set1s)
        maps = {SORT0: {}, SORT1: {}, SORT3: {}}
        for v, x in zip(self.vars, values):
            maps[v.sort][v] = (comp.inds[x] if v.sort == SORT0
                               else comp.set1s[x - 1] if v.sort == SORT1
                               else comp.set3s[x - 1 - n1])
        return Substitution(map0=maps[SORT0], map1=maps[SORT1],
                            map3=maps[SORT3])


def answer(q: Query, result: SaturationResult) -> AnswerSet:
    """Match the query against every branch in the saturation result and
    return the deduplicated answer set."""
    if q.kb is not None and q.kb is not result.kb:
        raise StaleBranchError("query was parsed against a different "
                               "knowledge base than the branch set")
    if not result.collected:
        raise StaleBranchError("the saturation result did not collect "
                               "branches (collect_branches was off)")
    comp = result.compiled
    plan = _Plan(q, comp)
    if plan.impossible:
        return AnswerSet(())
    groups: Dict[Tuple, List[Tuple[int, ...]]] = {}  # by merge map
    for lit_ints, sigma_items in result.packed:
        groups.setdefault(sigma_items, []).append(lit_ints)
    answers = []
    for sigma_items, branches in groups.items():
        patterns = plan.merged(sigma_items)
        relevant = plan.relevant(patterns, set().union(*branches))
        if patterns and not relevant:
            continue  # no literal of the group matches a conjunct
        found = set()
        # Bindings depend only on the literals that match a pattern, so
        # one search per distinct projection finds them all.
        for projection in set(map(relevant.intersection, branches)):
            plan.search(patterns, projection, found)
        merges = comp.merges(sigma_items)
        answers.extend(Answer(binding=plan.decode(values), merges=merges)
                       for values in found)
    answers.sort(key=Answer.key)
    return AnswerSet(tuple(answers))


TASK_KINDS = ("role-filler", "concept-retrieval", "role-instance", "cqa")


def task_query(kind: str, args: Sequence[str], kb: KnowledgeBase,
               text: Optional[str] = None) -> Query:
    """Build the query for one of the retrieval tasks.

    role-filler(a, R) asks for every x with (a, x) in R;
    concept-retrieval(a) for every set containing a;
    role-instance(a, b) for every relation containing (a, b);
    cqa passes a user-written query text through.
    """
    def ind(name: str) -> Variable:
        v = kb.lookup(SORT0, name)
        if v is None:
            raise TaskArityError(f"unknown individual {name!r}")
        return v

    if kind == "role-filler":
        if len(args) != 2:
            raise TaskArityError("role-filler needs an individual and a "
                                 "relation name")
        r = kb.lookup(SORT3, args[1])
        if r is None:
            raise TaskArityError(f"unknown relation {args[1]!r}")
        x = Variable(SORT0, "?x")
        lit = Literal(True, Member3(ind(args[0]), x, r))
        return Query((lit,), (x,), (), (), kb=kb)
    if kind == "concept-retrieval":
        if len(args) != 1:
            raise TaskArityError("concept-retrieval needs one individual")
        c = Variable(SORT1, "?c")
        lit = Literal(True, Member1(ind(args[0]), c))
        return Query((lit,), (), (c,), (), kb=kb)
    if kind == "role-instance":
        if len(args) != 2:
            raise TaskArityError("role-instance needs two individuals")
        r = Variable(SORT3, "?r")
        lit = Literal(True, Member3(ind(args[0]), ind(args[1]), r))
        return Query((lit,), (), (), (r,), kb=kb)
    if kind == "cqa":
        if text is None:
            raise TaskArityError("cqa needs a query text")
        return parse_query(text, kb)
    raise TaskArityError(f"unknown task kind {kind!r}; expected one of "
                         f"{', '.join(TASK_KINDS)}")
