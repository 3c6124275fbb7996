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

Every kind of axiom but a concept inclusion and a role chain reads its
clause forms from one table, ``_CLAUSES``, and one loop instantiates
them; a role chain's form is built from its length.  A Boolean
inclusion is put into clause form in one pass that carries a polarity
down the expression, by distribution, without auxiliary names: the
expressions stay small and fresh symbols would change the answer space
of set-variable queries.  Quantified variables are freshly named across
the whole translation.
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
# Clause forms
# ---------------------------------------------------------------------------

def _cnf(e: Cexpr, positive: bool):
    """Clause list of ``e`` (negated when not ``positive``); literals are
    (name, positive).  None encodes the constantly-false expression; an
    empty list, true.  Negation is pushed to the names on the way down,
    so one walk does the work of a negation normal form and a clause
    form.  A recursive generator, run by :func:`_stackless`."""
    tag = e[0]
    if tag == "name":
        return [[(e[1], positive)]]
    if tag in ("top", "bot"):
        return [] if (tag == "top") == positive else None
    if tag == "not":
        return (yield _cnf(e[1], not positive))
    if tag not in ("and", "or"):
        raise ValueError(f"bad concept expression {e!r}")
    if (tag == "and") == positive:
        clauses: List[List[Tuple[str, bool]]] = []
        for part in e[1]:
            sub = yield _cnf(part, positive)
            if sub is None:
                return None
            clauses.extend(sub)
        return clauses
    subs = []
    for part in e[1]:
        sub = yield _cnf(part, positive)
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


# Axiom kind -> its clause forms.  A literal of a form is (polarity,
# operand, slots).  The polarity None is the axiom's own: false for
# nassert and nrole.  The operand is a concept ("c0", "c1"), a role
# ("r0", "r1") or "=".  A slot is an individual operand ("i0", "i1") or
# the index of a fresh variable of its clause; a form with no fresh
# variable is a ground literal.
_CLAUSES = {
    "ConceptAssertion": (((None, "c0", ("i0",)),),),
    "RoleAssertion": (((None, "r0", ("i0", "i1")),),),
    "Agreement": (((True, "=", ("i0", "i1")),),),
    "Disagreement": (((False, "=", ("i0", "i1")),),),
    "RoleInclusion": (((False, "r0", (0, 1)), (True, "r1", (0, 1))),),
    "Sym": (((False, "r0", (0, 1)), (True, "r0", (1, 0))),),
    "Asym": (((False, "r0", (0, 1)), (False, "r0", (1, 0))),),
    "Ref": (((True, "r0", (0, 0)),),),
    "Irref": (((False, "r0", (0, 0)),),),
    "Tra": (((False, "r0", (0, 1)), (False, "r0", (1, 2)),
             (True, "r0", (0, 2))),),
    "Dis": (((False, "r0", (0, 1)), (False, "r1", (0, 1))),),
    "Fun": (((False, "r0", (0, 1)), (False, "r0", (0, 2)),
             (True, "=", (1, 2))),),
    "ConceptProduct": (((False, "r0", (0, 1)), (True, "c0", (0,))),
                       ((False, "r0", (0, 1)), (True, "c1", (1,))),
                       ((False, "c0", (0,)), (False, "c1", (1,)),
                        (True, "r0", (0, 1)))),
    "ExistsLhsInclusion": (((False, "r0", (0, 1)), (False, "c0", (1,)),
                            (True, "c1", (0,))),),
    "ValueRestriction": (((False, "c0", (0,)), (False, "r0", (0, 1)),
                          (True, "c1", (1,))),),
}


def _inclusion(ax: DlAxiom, namer: _FreshNamer) -> List[UniversalClause]:
    """A concept inclusion's clauses, by distribution over one fresh
    quantified variable each; duplicate literals and tautologies drop
    out."""
    clauses = _stackless(_cnf(("or", (("not", ax.lhs), ax.rhs)), True))
    if clauses is None:
        # The inclusion is unsatisfiable over a nonempty domain; the
        # clause form of falsity is (forall z) not (z = z).
        z = namer.fresh()
        return [UniversalClause((z,), (Literal(False, Eq(z, z)),))]
    out = []
    for clause in clauses:
        lits = dict.fromkeys(clause)
        if any((name, not pos) in lits for name, pos in lits):
            continue
        z = namer.fresh()
        out.append(UniversalClause((z,), tuple(
            Literal(pos, Member1(z, Variable(SORT1, name)))
            for name, pos in lits)))
    return out


def translate_axiom(ax: DlAxiom, namer: Optional[_FreshNamer] = None
                    ) -> List[Union[Literal, UniversalClause]]:
    """Emit the conjuncts for one axiom.

    Concept and role names become set and relation variables; individual
    names become individual variables.  Concept inclusions are clausified
    by :func:`_inclusion`; a role chain's form is built from its length,
    and every other kind instantiates its forms in ``_CLAUSES``, each
    with fresh quantified variables.
    """
    namer = namer or _FreshNamer()
    if ax.kind == "ConceptInclusion":
        return _inclusion(ax, namer)
    names = {f"{slot}{n}": name for slot, group in
             (("i", ax.individuals), ("r", ax.roles), ("c", ax.concepts))
             for n, name in enumerate(group)}
    if ax.kind == "RoleChainInclusion":
        last = len(ax.roles) - 1
        forms = ((*((False, f"r{i}", (i, i + 1)) for i in range(last)),
                  (True, f"r{last}", (0, last))),)
    else:
        forms = _CLAUSES.get(ax.kind)
    if forms is None:
        raise UnsupportedAxiomError(f"axiom kind {ax.kind!r} is not supported")
    out = []
    for form in forms:
        width = max((s + 1 for *_, slots in form for s in slots
                     if isinstance(s, int)), default=0)
        zs = [namer.fresh() for _ in range(width)]
        lits = []
        for pos, op, slots in form:
            args = [zs[s] if isinstance(s, int) else Variable(SORT0, names[s])
                    for s in slots]
            if op == "=":
                atom = Eq(*args)
            elif op[0] == "c":
                atom = Member1(*args, Variable(SORT1, names[op]))
            else:
                atom = Member3(*args, Variable(SORT3, names[op]))
            lits.append(Literal(not ax.negated if pos is None else pos, atom))
        out.append(UniversalClause(tuple(zs), tuple(lits)) if zs else lits[0])
    return out


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
