"""Higher-order conjunctive query answering over saturated branch sets.

A query is a conjunction of literals whose slots may hold query variables
of any sort (individual, set, relation).  Answering is homomorphism
search on the packed encoding: each conjunct is compiled once against the
branch set's CompiledKb into an integer pattern (kind, polarity, and per
slot a symbol, an individual or a query variable).

The open branches are grouped by merge map, and each group's patterns
have their individual constants rewritten through it.  Matching is
monotone in the literal set (Chandra & Merlin 1977): a binding under
which every pattern occurs on a branch also has every pattern occur on
any superset of the branch.  So a group is searched once, over the union
of its branches' literals.  One pass over the union files each literal
under every pattern it matches on its own, and a depth-first join over
these candidates records each complete binding with its *image*: the
literal each pattern takes under it.  A binding is an answer exactly
when its image lies inside one branch, so one pass over the group's
branches confirms the bindings whose image a branch contains, and stops
once none is pending.  Bindings are integer tuples per merge map, and
only the confirmed ones are decoded.

The answer set is the deduplicated union over branches.  It depends only
on the branch literal sets, so any of the three engines feeds it equally
well, the order and repetition of the branches do not matter, and
permuting the conjuncts changes the search shape but not the set.
"""

from __future__ import annotations

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
    query variable ``i``.  Its entry in ``joins`` holds the variables an
    earlier pattern binds and the range of those it binds first.
    ``impossible`` marks a constant the KB does not know, which no branch
    literal can match.
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
        self.joins = []
        for c in q.conjuncts:
            first = len(self.vars)
            kind, sym, a, b = _slots(c.atom)
            a_slot = slot(a, ind_ix)
            b_slot = slot(b, ind_ix)
            sym_slot = slot(sym, sym_ix)
            self.patterns.append((kind, 0 if c.positive else 1, sym_slot,
                                  a_slot, b_slot))
            bound = {~s for s in (sym_slot, a_slot, b_slot) if 0 <= ~s < first}
            self.joins.append((sorted(bound), range(first, len(self.vars))))

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

    def search(self, patterns: List[Tuple],
               lits) -> Dict[Tuple[int, ...], frozenset]:
        """Every binding, as a tuple of values in variable order, under
        which all patterns occur among ``lits``, mapped to its image.

        One pass over ``lits`` files each literal under every pattern it
        matches on its own (same polarity and kind, every constant slot
        equal, one value for a variable the pattern repeats), keyed by
        the values it gives the variables an earlier pattern binds.  The
        join is depth first over an explicit stack whose entry ``i``
        walks pattern ``i``'s candidates that agree with the bindings so
        far, so a query's length is bounded by memory, not by the
        recursion limit."""
        if not patterns:
            return {(): frozenset()}
        fields = self.comp.fields
        joins = self.joins
        candidates: List[Dict] = [{} for _ in patterns]
        for l in lits:
            lkind, *values = fields(l)
            for i, (kind, neg, *slots) in enumerate(patterns):
                if kind != lkind or neg != l & 1:
                    continue
                env = {}
                for s, v in zip(slots, values):
                    if (s != v) if s >= 0 else (env.setdefault(~s, v) != v):
                        break
                else:
                    bound, fresh = joins[i]
                    candidates[i].setdefault(
                        tuple(env[x] for x in bound), []).append(
                        (l, tuple(env[x] for x in fresh)))
        out = {}
        npat = len(patterns)
        stack = [(iter(candidates[0].get((), ())), (), ())]
        while stack:
            it, env, image = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                continue
            l, fresh = step
            env += fresh
            image += (l,)
            i = len(stack)
            if i == npat:
                out[env] = frozenset(image)
            else:
                key = tuple(env[x] for x in joins[i][0])
                stack.append((iter(candidates[i].get(key, ())), env, image))
        return out

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
        pending = plan.search(plan.merged(sigma_items),
                              set().union(*branches))
        merges = comp.merges(sigma_items)
        for branch in branches:
            if not pending:
                break
            lits = set(branch)
            for values in [values for values, image in pending.items()
                           if image <= lits]:
                del pending[values]
                answers.append(Answer(binding=plan.decode(values),
                                      merges=merges))
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
