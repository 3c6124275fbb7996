"""Description-logic frontend.

Translates a documented subset of RBox/TBox/ABox axioms into the clause
language the engines consume.  One axiom per line, ``#`` comments:

    assert a C          a is an instance of concept C
    nassert a C         negated concept assertion
    role a b R          (a, b) is an instance of role R
    nrole a b R         negated role assertion
    eq a b / neq a b    individual (dis)agreement
    subsume C D         concept inclusion; C, D are Boolean concept
                        expressions: name | top | bot | (not C)
                        | (and C C ...) | (or C C ...)
    rsub R S            role inclusion
    chain R1 .. Rn S    role chain inclusion (composition on the left)
    sym R  asym R  ref R  irref R  tra R  dis R S  fun R
    product R C D       R is exactly the product of concepts C and D
    some R C D          "something R-related to a C is a D"
    all C R D           "everything R-related to a C is a D"

Boolean inclusions are put into clause form by distribution, without
auxiliary names: the expressions stay small and fresh symbols would
change the answer space of set-variable queries.  Quantified variables
are freshly named across the whole translation.  Datatypes, cardinality
bounds, nominals and Self are recognised and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .core import (FourlqsError, KbBuilder, KnowledgeBase, Literal, Member1,
                   Member3, Eq, UniversalClause, Variable, SORT0, SORT1, SORT3)
from .syntax import LineParser


class UnsupportedAxiomError(FourlqsError):
    """The construct is recognised but outside the supported subset."""


# Boolean concept expressions: ("name", n) | ("top",) | ("bot",)
# | ("not", e) | ("and", (e, ...)) | ("or", (e, ...))
Cexpr = Tuple


KINDS = ("ConceptAssertion", "RoleAssertion", "Agreement", "Disagreement",
         "ConceptInclusion", "RoleInclusion", "RoleChainInclusion", "Sym",
         "Asym", "Ref", "Irref", "Tra", "Dis", "Fun", "ConceptProduct",
         "ExistsLhsInclusion", "ValueRestriction")

_REJECTED = {"datatype", "drange", "crole", "mincard", "maxcard", "nominal",
             "self", "inverse", "urole", "equiv"}


@dataclass(frozen=True, slots=True)
class DlAxiom:
    kind: str
    individuals: Tuple[str, ...] = ()
    roles: Tuple[str, ...] = ()
    concepts: Tuple[str, ...] = ()
    lhs: Optional[Cexpr] = None
    rhs: Optional[Cexpr] = None
    negated: bool = False


class _FreshNamer:
    """Names quantified variables z1, z2, ... pairwise distinct across a
    translation, stepping over any name already used freely."""

    def __init__(self, taken=()):
        self.counter = 0
        self.taken = set(taken)

    def fresh(self) -> Variable:
        while True:
            self.counter += 1
            name = f"z{self.counter}"
            if name not in self.taken:
                return Variable(SORT0, name, quantified=True)


def _stackless(call):
    """The return value of ``call``, a generator that yields the
    generator of each sub-call and is sent back its result.  The pending
    calls wait on an explicit stack, so a concept expression's nesting is
    bounded by memory, not by the interpreter's recursion limit."""
    stack = [call]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


def _parse_cexpr(p: LineParser):
    """One concept expression from ``p``; a recursive generator, run by
    :func:`_stackless`."""
    tok = p.take()
    if tok != "(":
        if tok == "top":
            return ("top",)
        if tok == "bot":
            return ("bot",)
        if tok == ")":
            raise p.fail("expected a concept expression", at=p.pos - 1)
        return ("name", tok)
    head = p.take()
    at = p.pos - 1
    if head == "not":
        e = yield _parse_cexpr(p)
        p.expect(")")
        return ("not", e)
    if head in ("and", "or"):
        parts = []
        while p.peek() != ")":
            parts.append((yield _parse_cexpr(p)))
        p.expect(")")
        if len(parts) < 2:
            raise p.fail(f"{head} needs at least two operands", at=at)
        return (head, tuple(parts))
    raise p.fail(f"expected not, and or or, got {head!r}", at=at)


def parse_dl(text: str) -> List[DlAxiom]:
    """Parse the axiom file format into a list of axioms."""
    axioms: List[DlAxiom] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p = LineParser(raw, lineno)
        if not p.toks:
            continue
        kw = p.take()

        def names(n: int) -> List[str]:
            out = [p.name() for _ in range(n)]
            if not p.done():
                raise p.fail("trailing tokens after axiom", "arity")
            return out

        if kw in _REJECTED:
            raise UnsupportedAxiomError(
                f"line {lineno}: {kw!r} is outside the supported subset")
        if kw in ("assert", "nassert"):
            a, c = names(2)
            axioms.append(DlAxiom("ConceptAssertion", individuals=(a,),
                                  concepts=(c,), negated=kw == "nassert"))
        elif kw in ("role", "nrole"):
            a, b, r = names(3)
            axioms.append(DlAxiom("RoleAssertion", individuals=(a, b),
                                  roles=(r,), negated=kw == "nrole"))
        elif kw == "eq":
            a, b = names(2)
            axioms.append(DlAxiom("Agreement", individuals=(a, b)))
        elif kw == "neq":
            a, b = names(2)
            axioms.append(DlAxiom("Disagreement", individuals=(a, b)))
        elif kw == "subsume":
            lhs = _stackless(_parse_cexpr(p))
            rhs = _stackless(_parse_cexpr(p))
            if not p.done():
                raise p.fail("trailing tokens after subsume", "arity")
            axioms.append(DlAxiom("ConceptInclusion", lhs=lhs, rhs=rhs))
        elif kw == "rsub":
            r, s = names(2)
            axioms.append(DlAxiom("RoleInclusion", roles=(r, s)))
        elif kw == "chain":
            rs = []
            while not p.done():
                rs.append(p.name())
            if len(rs) < 3:
                raise p.fail("chain needs at least two left-hand roles and "
                             "a right-hand role", "arity")
            axioms.append(DlAxiom("RoleChainInclusion", roles=tuple(rs)))
        elif kw in ("sym", "asym", "ref", "irref", "tra", "fun"):
            (r,) = names(1)
            kind = {"sym": "Sym", "asym": "Asym", "ref": "Ref",
                    "irref": "Irref", "tra": "Tra", "fun": "Fun"}[kw]
            axioms.append(DlAxiom(kind, roles=(r,)))
        elif kw == "dis":
            r, s = names(2)
            axioms.append(DlAxiom("Dis", roles=(r, s)))
        elif kw == "product":
            r, c1, c2 = names(3)
            axioms.append(DlAxiom("ConceptProduct", roles=(r,),
                                  concepts=(c1, c2)))
        elif kw == "some":
            r, c1, c2 = names(3)
            axioms.append(DlAxiom("ExistsLhsInclusion", roles=(r,),
                                  concepts=(c1, c2)))
        elif kw == "all":
            c1, r, c2 = names(3)
            axioms.append(DlAxiom("ValueRestriction", roles=(r,),
                                  concepts=(c1, c2)))
        else:
            raise p.fail(f"unknown axiom keyword {kw!r}", at=0)
    return axioms


# ---------------------------------------------------------------------------
# Clause-form conversion for Boolean concept expressions
# ---------------------------------------------------------------------------

def _nnf(e: Cexpr, positive: bool):
    """Negation normal form of ``e`` (negated when not ``positive``); a
    recursive generator, run by :func:`_stackless`."""
    tag = e[0]
    if tag == "name":
        return e if positive else ("not", e)
    if tag == "top":
        return ("top",) if positive else ("bot",)
    if tag == "bot":
        return ("bot",) if positive else ("top",)
    if tag == "not":
        return (yield _nnf(e[1], not positive))
    if tag in ("and", "or"):
        parts = []
        for x in e[1]:
            parts.append((yield _nnf(x, positive)))
        if not positive:
            tag = "or" if tag == "and" else "and"
        return (tag, tuple(parts))
    raise ValueError(f"bad concept expression {e!r}")


def _cnf(e: Cexpr):
    """Clause list of an NNF expression; literals are (name, positive).
    None encodes the constantly-false expression; an empty list, true.
    A recursive generator, run by :func:`_stackless`."""
    tag = e[0]
    if tag == "top":
        return []
    if tag == "bot":
        return None
    if tag == "name":
        return [[(e[1], True)]]
    if tag == "not":
        return [[(e[1][1], False)]]
    if tag == "and":
        clauses: List[List[Tuple[str, bool]]] = []
        for part in e[1]:
            sub = yield _cnf(part)
            if sub is None:
                return None
            clauses.extend(sub)
        return clauses
    if tag == "or":
        subs = []
        for part in e[1]:
            sub = yield _cnf(part)
            if sub is None:
                continue  # false disjunct drops out
            if not sub:
                return []  # true disjunct makes the whole thing true
            subs.append(sub)
        if not subs:
            return None
        out = subs[0]
        for sub in subs[1:]:
            out = [c1 + c2 for c1 in out for c2 in sub]
        return out
    raise ValueError(f"bad concept expression {e!r}")


def _simplify(clauses: List[List[Tuple[str, bool]]]):
    """Drop duplicate literals and tautological clauses."""
    out = []
    for clause in clauses:
        lits = []
        seen = set()
        taut = False
        for name, pos in clause:
            if (name, not pos) in seen:
                taut = True
                break
            if (name, pos) not in seen:
                seen.add((name, pos))
                lits.append((name, pos))
        if not taut:
            out.append(lits)
    return out


def _names_in(e: Cexpr) -> List[str]:
    """The concept names of ``e``, left to right."""
    names = []
    todo = [e]
    while todo:
        e = todo.pop()
        tag = e[0]
        if tag == "name":
            names.append(e[1])
        elif tag == "not":
            todo.append(e[1])
        elif tag not in ("top", "bot"):
            todo.extend(reversed(e[1]))
    return names


def translate_axiom(ax: DlAxiom, namer: Optional[_FreshNamer] = None
                    ) -> List[Union[Literal, UniversalClause]]:
    """Emit the conjuncts for one axiom.

    Concept and role names become set and relation variables; individual
    names become individual variables.  Concept inclusions are clausified
    by distribution over one fresh quantified variable; every other kind
    follows a fixed clause pattern with fresh quantified variables.
    """
    namer = namer or _FreshNamer()
    ind = lambda n: Variable(SORT0, n)
    con = lambda n: Variable(SORT1, n)
    rol = lambda n: Variable(SORT3, n)

    def member(z, c, pos=True):
        return Literal(pos, Member1(z, con(c)))

    def rel(za, zb, r, pos=True):
        return Literal(pos, Member3(za, zb, rol(r)))

    k = ax.kind
    if k == "ConceptAssertion":
        return [Literal(not ax.negated,
                        Member1(ind(ax.individuals[0]), con(ax.concepts[0])))]
    if k == "RoleAssertion":
        return [Literal(not ax.negated,
                        Member3(ind(ax.individuals[0]), ind(ax.individuals[1]),
                                rol(ax.roles[0])))]
    if k == "Agreement":
        return [Literal(True, Eq(ind(ax.individuals[0]), ind(ax.individuals[1])))]
    if k == "Disagreement":
        return [Literal(False, Eq(ind(ax.individuals[0]), ind(ax.individuals[1])))]
    if k == "ConceptInclusion":
        body = _stackless(_nnf(("or", (("not", ax.lhs), ax.rhs)), True))
        clauses = _stackless(_cnf(body))
        if clauses is None:
            # The inclusion is unsatisfiable over a nonempty domain; the
            # clause form of falsity is (forall z) not (z = z).
            z = namer.fresh()
            return [UniversalClause((z,), (Literal(False, Eq(z, z)),))]
        out = []
        for clause in _simplify(clauses):
            z = namer.fresh()
            disjuncts = tuple(member(z, name, pos) for name, pos in clause)
            if disjuncts:
                out.append(UniversalClause((z,), disjuncts))
        return out
    if k == "RoleInclusion":
        z1, z2 = namer.fresh(), namer.fresh()
        return [UniversalClause((z1, z2), (rel(z1, z2, ax.roles[0], False),
                                           rel(z1, z2, ax.roles[1])))]
    if k == "RoleChainInclusion":
        *body, sup = ax.roles
        zs = [namer.fresh() for _ in range(len(body) + 1)]
        disjuncts = [rel(zs[i], zs[i + 1], r, False) for i, r in enumerate(body)]
        disjuncts.append(rel(zs[0], zs[-1], sup))
        return [UniversalClause(tuple(zs), tuple(disjuncts))]
    if k == "Sym":
        z1, z2 = namer.fresh(), namer.fresh()
        return [UniversalClause((z1, z2), (rel(z1, z2, ax.roles[0], False),
                                           rel(z2, z1, ax.roles[0])))]
    if k == "Asym":
        z1, z2 = namer.fresh(), namer.fresh()
        return [UniversalClause((z1, z2), (rel(z1, z2, ax.roles[0], False),
                                           rel(z2, z1, ax.roles[0], False)))]
    if k == "Ref":
        z = namer.fresh()
        return [UniversalClause((z,), (rel(z, z, ax.roles[0]),))]
    if k == "Irref":
        z = namer.fresh()
        return [UniversalClause((z,), (rel(z, z, ax.roles[0], False),))]
    if k == "Tra":
        z1, z2, z3 = namer.fresh(), namer.fresh(), namer.fresh()
        r = ax.roles[0]
        return [UniversalClause((z1, z2, z3), (rel(z1, z2, r, False),
                                               rel(z2, z3, r, False),
                                               rel(z1, z3, r)))]
    if k == "Dis":
        z1, z2 = namer.fresh(), namer.fresh()
        return [UniversalClause((z1, z2), (rel(z1, z2, ax.roles[0], False),
                                           rel(z1, z2, ax.roles[1], False)))]
    if k == "Fun":
        z1, z2, z3 = namer.fresh(), namer.fresh(), namer.fresh()
        r = ax.roles[0]
        return [UniversalClause((z1, z2, z3), (rel(z1, z2, r, False),
                                               rel(z1, z3, r, False),
                                               Literal(True, Eq(z2, z3))))]
    if k == "ConceptProduct":
        r = ax.roles[0]
        c1, c2 = ax.concepts
        out = []
        z1, z2 = namer.fresh(), namer.fresh()
        out.append(UniversalClause((z1, z2), (rel(z1, z2, r, False),
                                              member(z1, c1))))
        z1, z2 = namer.fresh(), namer.fresh()
        out.append(UniversalClause((z1, z2), (rel(z1, z2, r, False),
                                              member(z2, c2))))
        z1, z2 = namer.fresh(), namer.fresh()
        out.append(UniversalClause((z1, z2), (member(z1, c1, False),
                                              member(z2, c2, False),
                                              rel(z1, z2, r))))
        return out
    if k == "ExistsLhsInclusion":
        z1, z2 = namer.fresh(), namer.fresh()
        r = ax.roles[0]
        c1, c2 = ax.concepts
        return [UniversalClause((z1, z2), (rel(z1, z2, r, False),
                                           member(z2, c1, False),
                                           member(z1, c2)))]
    if k == "ValueRestriction":
        z1, z2 = namer.fresh(), namer.fresh()
        r = ax.roles[0]
        c1, c2 = ax.concepts
        return [UniversalClause((z1, z2), (member(z1, c1, False),
                                           rel(z1, z2, r, False),
                                           member(z2, c2)))]
    raise UnsupportedAxiomError(f"axiom kind {k!r} is not supported")


def translate_kb(axioms: Sequence[DlAxiom]) -> KnowledgeBase:
    """Union of the per-axiom translations, with individuals entering the
    symbol table in axiom order."""
    taken = set()
    for ax in axioms:
        taken.update(ax.individuals)
        taken.update(ax.roles)
        taken.update(ax.concepts)
        for e in (ax.lhs, ax.rhs):
            if e is not None:
                taken.update(_names_in(e))
    namer = _FreshNamer(taken)
    builder = KbBuilder()
    for ax in axioms:
        for conjunct in translate_axiom(ax, namer):
            if isinstance(conjunct, Literal):
                builder.add_literal(conjunct)
            else:
                builder.add_clause(conjunct)
    return builder.build()
