"""Text and JSON formats: the sole owner of every byte-level surface.

Knowledge bases use a line-oriented s-expression grammar, one form per
line, ``#`` starting a comment:

    ind a b                              # pre-declare individuals
    lit (rel a b locatedIn)              # ground literal
    lit (not (in a Region))
    clause (forall z1 z2) (or (not (rel z1 z2 R)) (rel z1 z2 S))

Atoms are ``(eq x y)``, ``(in x C)`` and ``(rel x y R)``; sort is inferred
from the slot (element vs set position) and must be globally consistent.
Queries are a plain sequence of literals where any slot may hold a
``?``-prefixed query variable; the empty file is the empty query.

KB, query and DL text share one token layer: a line, its comment
dropped, is split into plain strings by ``_tokens`` and read by index;
``_name_problem`` says what keeps a token from being a name, and
``_error`` builds the diagnostic at a token index.  No position is kept
per token; a span is computed only for the diagnostic that is raised, by
matching its one line against ``_TOKEN``.  ``dlfront`` reads its axiom
lines with these three functions.  KB and query lines share one atom
reader, which resolves a name once per parse and looks it up in a dict
after that; a KB line whose tokens were already read is dropped before
anything is built.

Answers and extracted models are rendered as JSON with a fixed schema so
repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import (SORT0, SORT1, SORT3, Eq, FourlqsError, KbBuilder,
                   KnowledgeBase, Literal, Member1, Member3, NamespaceError,
                   Substitution, UniversalClause, Variable, atom_vars,
                   unbound_placeholder)


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int
    length: int = 0


class ParseError(FourlqsError):
    """A grammar or naming violation, with its position in the input.

    ``kind`` is one of ``lex``, ``sort``, ``arity``, ``duplicate``,
    ``unknown-symbol``.  Identical input always produces the identical
    diagnostic.
    """

    def __init__(self, span: SourceSpan, message: str, kind: str = "lex"):
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.span = span
        self.message = message
        self.kind = kind


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_NAME = re.compile(r"\??[A-Za-z0-9_][A-Za-z0-9_.'-]*$")


def _tokens(body: str) -> List[str]:
    """``_TOKEN.findall(body)``, by ``str`` methods: ``str.split`` and the
    pattern's ``\\s`` share one whitespace test."""
    return body.replace("(", " ( ").replace(")", " ) ").split()


def _name_problem(tok: str, allow_query: bool = False) -> Optional[str]:
    """What keeps ``tok`` from being a name here, if anything."""
    if not _NAME.match(tok):
        return f"expected a name, got {tok!r}"
    if tok[0] == "?" and not allow_query:
        return "query variables are not allowed here"
    return None


def _error(body: str, lineno: int, at: int, message: str,
           kind: str = "lex") -> ParseError:
    """A diagnostic at token ``at`` of ``body``, or just past its last
    token."""
    spans = [m.span() for m in _TOKEN.finditer(body)]
    if at < len(spans):
        start, end = spans[at]
    else:
        start = end = spans[-1][1] if spans else 0
    return ParseError(SourceSpan(lineno, start + 1, end - start), message, kind)


# Atom head -> (constructor, slot sorts).
_ATOMS = {"eq": (Eq, (SORT0, SORT0)), "in": (Member1, (SORT0, SORT1)),
          "rel": (Member3, (SORT0, SORT0, SORT3))}


class _Reader:
    """Reads the lines of one KB, or of one query against ``kb``.

    A line is a list of tokens, walked by index.  A name is checked and
    resolved the first time it fills a slot of its sort; ``names`` then
    maps it to its variable, so a later occurrence costs one dict lookup.
    In a KB, names go through the naming discipline of ``builder``, and
    while a clause line is read ``names`` also holds that clause's
    placeholders.  In a query, ``?``-names are query variables, tracked
    in ``qvars``, and plain names must be symbols of ``kb`` at the slot's
    sort.
    """

    __slots__ = ("builder", "kb", "names", "qvars", "unbound", "body", "lineno")

    def __init__(self, kb: Optional[KnowledgeBase] = None):
        self.builder = KbBuilder() if kb is None else None
        self.kb = kb
        self.names: Dict[str, Variable] = {}
        self.qvars: List[Variable] = []
        self.unbound: Optional[Variable] = None
        self.body = ""
        self.lineno = 0

    def line(self, raw: str, lineno: int) -> List[str]:
        """The tokens of ``raw``, comment dropped; diagnostics point into
        this line until the next call."""
        self.body = body = raw.split("#", 1)[0]
        self.lineno = lineno
        return _tokens(body)

    def fail(self, message: str, at: int, kind: str = "lex") -> ParseError:
        return _error(self.body, self.lineno, at, message, kind)

    def name(self, toks: List[str], at: int, sort: int,
             in_clause: bool = False) -> Variable:
        """The variable that token ``at`` names in a slot of ``sort``,
        when ``names`` does not already give it."""
        tok = toks[at]
        problem = _name_problem(tok, allow_query=self.kb is not None)
        if problem:
            raise self.fail(problem, at)
        try:
            if self.kb is not None:
                v = self._query_name(tok, sort)
            else:
                if in_clause and sort == SORT0:
                    z = self.builder.lookup_quantified(tok)
                    if z is not None:
                        # Another clause's placeholder: this clause fails
                        # once the rest of its line has been read.
                        if self.unbound is None:
                            self.unbound = z
                        return z
                v = self.builder.free(sort, tok)
        except NamespaceError as err:
            raise self.fail(str(err), at, err.kind) from None
        self.names[tok] = v
        return v

    def _query_name(self, tok: str, sort: int) -> Variable:
        if tok[0] == "?":
            if tok in self.names:
                raise NamespaceError(
                    f"query variable {tok!r} used at two sorts", "sort")
            v = Variable(sort, tok)
            self.qvars.append(v)
            return v
        v = self.kb.lookup(sort, tok)
        if v is None:
            for other in (SORT0, SORT1, SORT3):
                if other != sort and self.kb.lookup(other, tok):
                    raise NamespaceError(
                        f"name {tok!r} has a different sort in the KB", "sort")
            raise NamespaceError(f"unknown symbol {tok!r}", "unknown-symbol")
        return v

    def atom(self, toks: List[str], i: int,
             in_clause: bool = False) -> Tuple[Literal, int]:
        """The literal that starts at token ``i``, and the index past it."""
        names = self.names
        try:
            if toks[i] != "(":
                raise self.fail(f"expected '(', got {toks[i]!r}", i)
            head = toks[i + 1]
            outer = inner = 0   # the two innermost nots' indices; 0 is none
            while head == "not":
                outer, inner = inner, i + 1
                i += 2
                if toks[i] != "(":
                    raise self.fail(f"expected '(', got {toks[i]!r}", i)
                head = toks[i + 1]
            shape = _ATOMS.get(head)
            if shape is None:
                raise self.fail(
                    f"expected eq, in, rel or not, got {head!r}", i + 1)
            make, sorts = shape
            args = []
            i += 2
            for sort in sorts:
                v = names.get(toks[i])
                if v is None or v.sort != sort:
                    v = self.name(toks, i, sort, in_clause)
                args.append(v)
                i += 1
            if toks[i] != ")":
                raise self.fail(f"expected ')', got {toks[i]!r}", i)
            i += 1
            if inner:
                if toks[i] != ")":
                    raise self.fail(f"expected ')', got {toks[i]!r}", i)
                i += 1
                if outer:
                    raise self.fail("nested negation is not allowed", outer)
        except IndexError:
            raise self.fail("unexpected end of line", len(toks)) from None
        return Literal(not inner, make(*args)), i

    def individuals(self, toks: List[str]) -> None:
        """The names of an ``ind`` line, each entered as an individual."""
        if len(toks) == 1:
            raise self.fail("ind needs at least one name", 1, "arity")
        names = self.names
        for at in range(1, len(toks)):
            v = names.get(toks[at])
            if v is None or v.sort != SORT0:
                self.name(toks, at, SORT0)

    def clause(self, toks: List[str]) -> UniversalClause:
        """The clause of a ``clause`` line."""
        names = self.names
        try:
            if toks[1] != "(":
                raise self.fail(f"expected '(', got {toks[1]!r}", 1)
            if toks[2] != "forall":
                raise self.fail(f"expected 'forall', got {toks[2]!r}", 2)
            zs = []
            i = 3
            while toks[i] != ")":
                zs.append(self._placeholder(toks, i))
                i += 1
            i += 1
            if not zs:
                raise self.fail("forall needs at least one variable", i,
                                "arity")
            if len(set(zs)) != len(zs):
                raise self.fail("quantified variables must be distinct", i,
                                "duplicate")
            if toks[i] != "(":
                raise self.fail(f"expected '(', got {toks[i]!r}", i)
            if toks[i + 1] != "or":
                raise self.fail(f"expected 'or', got {toks[i + 1]!r}", i + 1)
            i += 2
            for z in zs:
                names[z.name] = z
            disjuncts = []
            while toks[i] == "(":
                lit, i = self.atom(toks, i, in_clause=True)
                disjuncts.append(lit)
            if toks[i] != ")":
                raise self.fail(f"expected ')', got {toks[i]!r}", i)
        except IndexError:
            raise self.fail("unexpected end of line", len(toks)) from None
        i += 1
        if not disjuncts:
            raise self.fail("or needs at least one literal", i, "arity")
        if i != len(toks):
            raise self.fail("trailing tokens after clause", i)
        if self.unbound is not None:
            err = unbound_placeholder(self.unbound)
            raise ParseError(SourceSpan(self.lineno, 1), str(err), err.kind)
        for z in zs:
            del names[z.name]
        return UniversalClause(tuple(zs), tuple(disjuncts))

    def _placeholder(self, toks: List[str], at: int) -> Variable:
        tok = toks[at]
        z = self.builder.lookup_quantified(tok)
        if z is not None:
            return z
        problem = _name_problem(tok)
        if problem:
            raise self.fail(problem, at)
        try:
            return self.builder.quantified(tok)
        except NamespaceError as err:
            raise self.fail(str(err), at, err.kind) from None


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the KB text format.

    Individuals enter ``var0_order`` in order of first appearance and
    duplicate conjuncts are dropped.  Within one KB a line's tokens fix
    its conjunct and the conjunct fixes the tokens, and a line read once
    stays valid, since the namespace only grows consistently with it.
    So a line whose tokens were read before is dropped unread.
    """
    r = _Reader()
    literals: List[Literal] = []
    clauses: List[UniversalClause] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = r.line(raw, lineno)
        if not toks:
            continue
        key = tuple(toks)
        if key in seen:
            continue
        seen.add(key)
        head = toks[0]
        if head == "lit":
            lit, i = r.atom(toks, 1)
            if i != len(toks):
                raise r.fail("trailing tokens after literal", i)
            literals.append(lit)
        elif head == "clause":
            clauses.append(r.clause(toks))
        elif head == "ind":
            r.individuals(toks)
        else:
            raise r.fail(f"expected ind, lit or clause, got {head!r}", 0)
    return r.builder.knowledge_base(literals, clauses)


@dataclass(frozen=True, slots=True)
class Query:
    """An ordered conjunction of literals, possibly with query variables.

    ``qvars0/1/3`` list the query variables per sort in order of first
    appearance; the empty query (no conjuncts) is allowed and denoted
    lambda.  A query is tied to the knowledge base it was parsed against.
    """

    conjuncts: Tuple[Literal, ...]
    qvars0: Tuple[Variable, ...]
    qvars1: Tuple[Variable, ...]
    qvars3: Tuple[Variable, ...]
    kb: Optional[KnowledgeBase] = None

    @property
    def is_empty(self) -> bool:
        return not self.conjuncts

    def query_vars(self) -> frozenset:
        return frozenset(self.qvars0) | frozenset(self.qvars1) | frozenset(self.qvars3)


def parse_query(text: str, kb: KnowledgeBase) -> Query:
    """Parse a query against ``kb``; plain names must be KB symbols."""
    r = _Reader(kb)
    conjuncts: List[Literal] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = r.line(raw, lineno)
        i = 0
        while i < len(toks):
            lit, i = r.atom(toks, i)
            conjuncts.append(lit)
    q0 = tuple(v for v in r.qvars if v.sort == SORT0)
    q1 = tuple(v for v in r.qvars if v.sort == SORT1)
    q3 = tuple(v for v in r.qvars if v.sort == SORT3)
    return Query(tuple(conjuncts), q0, q1, q3, kb=kb)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_literal(lit: Literal) -> str:
    a = lit.atom
    if isinstance(a, Eq):
        body = f"(eq {a.left.name} {a.right.name})"
    elif isinstance(a, Member1):
        body = f"(in {a.elem.name} {a.set1.name})"
    else:
        body = f"(rel {a.first.name} {a.second.name} {a.set3.name})"
    return body if lit.positive else f"(not {body})"


def _render_clause(cl: UniversalClause) -> str:
    zs = " ".join(z.name for z in cl.quantified)
    body = " ".join(_render_literal(d) for d in cl.disjuncts)
    return f"clause (forall {zs}) (or {body})"


def render_kb(kb: KnowledgeBase) -> str:
    """The text of ``kb``, which ``parse_kb`` reads back as ``kb``.

    Individuals come first, on one ``ind`` line, then literals before
    clauses, except that the next clause goes first whenever the next
    literal would name a set or relation before its turn in
    ``var1_order`` or ``var3_order``.
    """
    lines = []
    if kb.var0_order:
        lines.append("ind " + " ".join(v.name for v in kb.var0_order))
    turn = {v: k for order in (kb.var1_order, kb.var3_order)
            for k, v in enumerate(order)}
    named = {SORT0: 0, SORT1: 0, SORT3: 0}  # the named prefix of each order

    def name(lits) -> None:
        for lit in lits:
            v = atom_vars(lit.atom)[-1]  # the set or relation, if any
            named[v.sort] = max(named[v.sort], turn.get(v, -1) + 1)

    clauses = kb.clauses
    j = 0
    for lit in kb.literals:
        v = atom_vars(lit.atom)[-1]
        while turn.get(v, -1) > named[v.sort] and j < len(clauses):
            lines.append(_render_clause(clauses[j]))
            name(clauses[j].disjuncts)
            j += 1
        lines.append(f"lit {_render_literal(lit)}")
        name((lit,))
    lines.extend(_render_clause(cl) for cl in clauses[j:])
    return "\n".join(lines) + ("\n" if lines else "")


def render_query(q: Query) -> str:
    if q.is_empty:
        return ""
    return "\n".join(_render_literal(c) for c in q.conjuncts) + "\n"


def answer_to_jsonable(binding: Substitution, merges: Substitution) -> dict:
    """One answer as {"map0": .., "map1": .., "map3": .., "merges": ..}."""
    return {"map0": {k.name: v.name for k, v in binding.map0.items()},
            "map1": {k.name: v.name for k, v in binding.map1.items()},
            "map3": {k.name: v.name for k, v in binding.map3.items()},
            "merges": {k.name: v.name for k, v in merges.map0.items()}}


def render_answer_set(answers) -> str:
    """AnswerSet JSON; each row is dumped once with sorted keys, and the
    rows are sorted by that text for determinism."""
    rows = sorted([json.dumps(answer_to_jsonable(b, m), sort_keys=True)
                   for b, m in answers])
    return '{"answers": [' + ", ".join(rows) + "]}"


def render_model_report(interp) -> str:
    """ModelReport JSON: domain plus the extents of every set variable."""
    sets1 = {v.name: sorted(interp.assign1.get(v, frozenset()))
             for v in interp.vars1()}
    sets3 = {v.name: sorted(list(p) for p in interp.assign3.get(v, frozenset()))
             for v in interp.vars3()}
    return json.dumps(
        {"domain": list(interp.domain), "sets1": sets1, "sets3": sets3},
        sort_keys=True)
