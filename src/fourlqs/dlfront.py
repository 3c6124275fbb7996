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

A line is read through ``syntax``'s token layer, as KB and query lines
are: its tokens are walked by index, every individual, role and concept
name (inside concept expressions too) follows the KB name rules and
keeps one sort across the file, and a mistake is a ``ParseError`` at
its token.  Datatypes, cardinality bounds, nominals and Self are
recognised and rejected.

Boolean inclusions are put into clause form by distribution, without
auxiliary names: the expressions stay small and fresh symbols would
change the answer space of set-variable queries.  Quantified variables
are freshly named across the whole translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (FourlqsError, KbBuilder, KnowledgeBase, Literal, Member1,
                   Member3, Eq, UniversalClause, Variable, SORT0, SORT1, SORT3)
from .syntax import _error, _name_problem, _tokens


class UnsupportedAxiomError(FourlqsError):
    """The construct is recognised but outside the supported subset."""


# Boolean concept expressions: ("name", n) | ("top",) | ("bot",)
# | ("not", e) | ("and", (e, ...)) | ("or", (e, ...))
Cexpr = Tuple


_REJECTED = {"datatype", "drange", "crole", "mincard", "maxcard", "nominal",
             "self", "inverse", "urole", "equiv"}

# Keyword -> (axiom kind, what each operand names: an individual, a role
# or a concept), for the axioms whose operands are plain names.
_NAMED = {
    "assert": ("ConceptAssertion", "ic"), "nassert": ("ConceptAssertion", "ic"),
    "role": ("RoleAssertion", "iir"), "nrole": ("RoleAssertion", "iir"),
    "eq": ("Agreement", "ii"), "neq": ("Disagreement", "ii"),
    "rsub": ("RoleInclusion", "rr"), "dis": ("Dis", "rr"),
    "sym": ("Sym", "r"), "asym": ("Asym", "r"), "ref": ("Ref", "r"),
    "irref": ("Irref", "r"), "tra": ("Tra", "r"), "fun": ("Fun", "r"),
    "product": ("ConceptProduct", "rcc"),
    "some": ("ExistsLhsInclusion", "rcc"), "all": ("ValueRestriction", "crc"),
}
# The sort of each kind of operand in _NAMED.
_SLOT_SORTS = {"i": SORT0, "r": SORT3, "c": SORT1}


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


class _Misread(Exception):
    """A diagnostic at token ``args[0]`` of the line being read, with
    message ``args[1]`` and, if given, kind ``args[2]``."""


def _name(toks: List[str], at: int, sort: int, sorts: Dict[str, int]) -> str:
    """The name at token ``at``, used at ``sort``; ``sorts`` holds the
    sort of every name read so far, so a second sort is a mistake at
    this token, as in a KB."""
    tok = toks[at]
    problem = _name_problem(tok)
    if problem:
        raise _Misread(at, problem)
    known = sorts.setdefault(tok, sort)
    if known != sort:
        raise _Misread(at, f"name {tok!r} used at sort {known} and sort "
                       f"{sort}", "sort")
    return tok


def _parse_cexpr(toks: List[str], i: int, sorts: Dict[str, int]):
    """The concept expression that starts at token ``i``, and the index
    past it; a recursive generator, run by :func:`_stackless`."""
    tok = toks[i]
    if tok != "(":
        if tok == "top":
            return ("top",), i + 1
        if tok == "bot":
            return ("bot",), i + 1
        if tok == ")":
            raise _Misread(i, "expected a concept expression")
        return ("name", _name(toks, i, SORT1, sorts)), i + 1
    at = i + 1
    head = toks[at]
    i = at + 1
    if head == "not":
        e, i = yield _parse_cexpr(toks, i, sorts)
        if toks[i] != ")":
            raise _Misread(i, f"expected ')', got {toks[i]!r}")
        return ("not", e), i + 1
    if head in ("and", "or"):
        parts = []
        while toks[i] != ")":
            part, i = yield _parse_cexpr(toks, i, sorts)
            parts.append(part)
        if len(parts) < 2:
            raise _Misread(at, f"{head} needs at least two operands")
        return (head, tuple(parts)), i + 1
    raise _Misread(at, f"expected not, and or or, got {head!r}")


def _axiom(toks: List[str], sorts: Dict[str, int]) -> DlAxiom:
    """The axiom of one line's tokens; see :func:`_name` for ``sorts``."""
    kw = toks[0]
    if kw == "subsume":
        lhs, i = _stackless(_parse_cexpr(toks, 1, sorts))
        rhs, i = _stackless(_parse_cexpr(toks, i, sorts))
        if i != len(toks):
            raise _Misread(i, "trailing tokens after subsume", "arity")
        return DlAxiom("ConceptInclusion", lhs=lhs, rhs=rhs)
    if kw == "chain":
        roles = tuple(_name(toks, at, SORT3, sorts)
                      for at in range(1, len(toks)))
        if len(roles) < 3:
            raise _Misread(len(toks), "chain needs at least two left-hand "
                           "roles and a right-hand role", "arity")
        return DlAxiom("RoleChainInclusion", roles=roles)
    shape = _NAMED.get(kw)
    if shape is None:
        raise _Misread(0, f"unknown axiom keyword {kw!r}")
    kind, slots = shape
    operands = {"i": [], "r": [], "c": []}
    for at, slot in enumerate(slots, start=1):
        operands[slot].append(_name(toks, at, _SLOT_SORTS[slot], sorts))
    if len(toks) > len(slots) + 1:
        raise _Misread(len(slots) + 1, "trailing tokens after axiom", "arity")
    return DlAxiom(kind, tuple(operands["i"]), tuple(operands["r"]),
                   tuple(operands["c"]), negated=kw in ("nassert", "nrole"))


def parse_dl(text: str) -> List[DlAxiom]:
    """Parse the axiom file format into a list of axioms."""
    axioms: List[DlAxiom] = []
    sorts: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = _tokens(body)
        if not toks:
            continue
        if toks[0] in _REJECTED:
            raise UnsupportedAxiomError(
                f"line {lineno}: {toks[0]!r} is outside the supported subset")
        try:
            axioms.append(_axiom(toks, sorts))
        except IndexError:
            raise _error(body, lineno, len(toks),
                         "unexpected end of line") from None
        except _Misread as bad:
            raise _error(body, lineno, *bad.args) from None
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
