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

KB, query and DL text (``dlfront``) share one token layer: a line is one
``findall`` into plain strings, read by index.  No position is kept per
token; a span is computed only for the diagnostic that is raised, by
scanning its one line again.

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
                   Substitution, UniversalClause, Variable)


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


class LineParser:
    """Reader over one line's tokens, comment dropped."""

    __slots__ = ("body", "toks", "pos", "lineno")

    def __init__(self, line: str, lineno: int):
        self.body = line.split("#", 1)[0]
        self.toks: List[str] = _TOKEN.findall(self.body)
        self.pos = 0
        self.lineno = lineno

    def fail(self, message: str, kind: str = "lex",
             at: Optional[int] = None) -> ParseError:
        """A diagnostic at token ``at`` (default ``pos``) or past the end."""
        spans = [m.span() for m in _TOKEN.finditer(self.body)]
        at = self.pos if at is None else at
        if at < len(spans):
            start, end = spans[at]
        else:
            start = end = spans[-1][1] if spans else 0
        return ParseError(SourceSpan(self.lineno, start + 1, end - start),
                          message, kind)

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        if self.pos >= len(self.toks):
            raise self.fail("unexpected end of line")
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok != text:
            raise self.fail(f"expected {text!r}, got {tok!r}", at=self.pos - 1)

    def name(self, allow_query: bool = False) -> str:
        tok = self.take()
        self.check_name(self.pos - 1, allow_query)
        return tok

    def check_name(self, at: int, allow_query: bool) -> None:
        tok = self.toks[at]
        if not _NAME.match(tok):
            raise self.fail(f"expected a name, got {tok!r}", at=at)
        if tok[0] == "?" and not allow_query:
            raise self.fail("query variables are not allowed here", at=at)


class _Names:
    """Shared name resolution for KB and query parsing.

    Wraps a ``KbBuilder`` so namespace violations surface as positioned
    parse errors.  For queries, ``?``-names intern as ordinary free
    variables of the slot's sort and are tracked separately; a query
    variable reused at two sorts is a ``sort`` error.
    """

    def __init__(self, builder: KbBuilder, kb: Optional[KnowledgeBase] = None):
        self.builder = builder
        self.kb = kb
        self.qvars: Dict[str, Variable] = {}
        self.qvar_order: List[Variable] = []

    def resolve(self, p: LineParser, at: int, sort: int,
                quantified: bool = False) -> Variable:
        """The variable that token ``at`` of ``p`` names at ``sort``."""
        name = p.toks[at]
        try:
            if name[0] == "?":
                known = self.qvars.get(name)
                if known is not None:
                    if known.sort != sort:
                        raise NamespaceError(
                            f"query variable {name!r} used at two sorts", "sort")
                    return known
                v = Variable(sort, name)
                self.qvars[name] = v
                self.qvar_order.append(v)
                return v
            if self.kb is not None:
                # Query mode: plain names must come from the KB, same sort.
                v = self.kb.lookup(sort, name)
                if v is None:
                    for other in (SORT0, SORT1, SORT3):
                        if other != sort and self.kb.lookup(other, name):
                            raise NamespaceError(
                                f"name {name!r} has a different sort in the KB",
                                "sort")
                    raise NamespaceError(f"unknown symbol {name!r}",
                                         "unknown-symbol")
                return v
            if quantified:
                return self.builder.quantified(name)
            return self.builder.free(sort, name)
        except NamespaceError as err:
            raise p.fail(str(err), err.kind, at=at) from None


# Atom head -> (constructor, slot sorts).
_ATOMS = {"eq": (Eq, (SORT0, SORT0)), "in": (Member1, (SORT0, SORT1)),
          "rel": (Member3, (SORT0, SORT0, SORT3))}


def _parse_atom(p: LineParser, names: _Names, quantified_ok: bool,
                allow_query: bool) -> Literal:
    toks, i = p.toks, p.pos
    try:
        if toks[i] != "(":
            raise p.fail(f"expected '(', got {toks[i]!r}", at=i)
        head = toks[i + 1]
        if head == "not":
            p.pos = i + 2
            inner = _parse_atom(p, names, quantified_ok, allow_query)
            if not inner.positive:
                raise p.fail("nested negation is not allowed", at=i + 1)
            p.expect(")")
            return Literal(False, inner.atom)
        shape = _ATOMS.get(head)
        if shape is None:
            raise p.fail(f"expected eq, in, rel or not, got {head!r}", at=i + 1)
        make, sorts = shape
        args = []
        for i, sort in enumerate(sorts, start=i + 2):
            tok = toks[i]     # inline test; check_name raises the diagnostic
            if not _NAME.match(tok) or (tok[0] == "?" and not allow_query):
                p.check_name(i, allow_query)
            q = None
            if quantified_ok and sort == SORT0 and tok[0] != "?":
                q = names.builder.lookup_quantified(tok)
            args.append(q or names.resolve(p, i, sort))
        i += 1
        if toks[i] != ")":
            raise p.fail(f"expected ')', got {toks[i]!r}", at=i)
    except IndexError:
        raise p.fail("unexpected end of line", at=len(toks)) from None
    p.pos = i + 1
    return Literal(True, make(*args))


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the KB text format.

    Individuals enter ``var0_order`` in order of first appearance and
    duplicate conjuncts are dropped.
    """
    builder = KbBuilder()
    names = _Names(builder)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p = LineParser(raw, lineno)
        if not p.toks:
            continue
        head = p.take()
        if head == "ind":
            if p.done():
                raise p.fail("ind needs at least one name", "arity")
            while not p.done():
                p.name()
                names.resolve(p, p.pos - 1, SORT0)
        elif head == "lit":
            lit = _parse_atom(p, names, quantified_ok=False, allow_query=False)
            if not p.done():
                raise p.fail("trailing tokens after literal")
            builder.append_literal(lit)
        elif head == "clause":
            p.expect("(")
            p.expect("forall")
            zs = []
            while p.peek() != ")":
                p.name()
                zs.append(names.resolve(p, p.pos - 1, SORT0, quantified=True))
            p.expect(")")
            if not zs:
                raise p.fail("forall needs at least one variable", "arity")
            if len(set(zs)) != len(zs):
                raise p.fail("quantified variables must be distinct",
                             "duplicate")
            p.expect("(")
            p.expect("or")
            disjuncts = []
            while p.peek() == "(":
                disjuncts.append(
                    _parse_atom(p, names, quantified_ok=True, allow_query=False))
            p.expect(")")
            if not disjuncts:
                raise p.fail("or needs at least one literal", "arity")
            if not p.done():
                raise p.fail("trailing tokens after clause")
            try:
                builder.append_clause(UniversalClause(tuple(zs), tuple(disjuncts)))
            except NamespaceError as err:
                raise ParseError(SourceSpan(lineno, 1), str(err), err.kind) from None
        else:
            raise p.fail(f"expected ind, lit or clause, got {head!r}", at=0)
    return builder.build()


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
    names = _Names(KbBuilder(), kb=kb)
    conjuncts: List[Literal] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p = LineParser(raw, lineno)
        while not p.done():
            conjuncts.append(
                _parse_atom(p, names, quantified_ok=False, allow_query=True))
    q0 = tuple(v for v in names.qvar_order if v.sort == SORT0)
    q1 = tuple(v for v in names.qvar_order if v.sort == SORT1)
    q3 = tuple(v for v in names.qvar_order if v.sort == SORT3)
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


def render_kb(kb: KnowledgeBase) -> str:
    lines = []
    if kb.var0_order:
        lines.append("ind " + " ".join(v.name for v in kb.var0_order))
    for lit in kb.literals:
        lines.append(f"lit {_render_literal(lit)}")
    for cl in kb.clauses:
        zs = " ".join(z.name for z in cl.quantified)
        body = " ".join(_render_literal(d) for d in cl.disjuncts)
        lines.append(f"clause (forall {zs}) (or {body})")
    return "\n".join(lines) + ("\n" if lines else "")


def render_query(q: Query) -> str:
    if q.is_empty:
        return ""
    return "\n".join(_render_literal(c) for c in q.conjuncts) + "\n"


def answer_to_jsonable(binding: Substitution, merges: Substitution) -> dict:
    """One answer as {"map0": .., "map1": .., "map3": .., "merges": ..}."""
    return {
        "map0": {k.name: v.name for k, v in sorted(
            binding.map0.items(), key=lambda kv: kv[0].name)},
        "map1": {k.name: v.name for k, v in sorted(
            binding.map1.items(), key=lambda kv: kv[0].name)},
        "map3": {k.name: v.name for k, v in sorted(
            binding.map3.items(), key=lambda kv: kv[0].name)},
        "merges": {k.name: v.name for k, v in sorted(
            merges.map0.items(), key=lambda kv: kv[0].name)},
    }


def render_answer_set(answers) -> str:
    """AnswerSet JSON; answers sorted canonically for determinism."""
    rows = [answer_to_jsonable(b, m) for b, m in answers]
    rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return json.dumps({"answers": rows}, sort_keys=True)


def render_model_report(interp) -> str:
    """ModelReport JSON: domain plus the extents of every set variable."""
    sets1 = {v.name: sorted(interp.assign1.get(v, frozenset()))
             for v in interp.vars1()}
    sets3 = {v.name: sorted(list(p) for p in interp.assign3.get(v, frozenset()))
             for v in interp.vars3()}
    return json.dumps(
        {"domain": list(interp.domain), "sets1": sets1, "sets3": sets3},
        sort_keys=True)


def render(entity) -> str:
    """Single rendering entry point; dispatches on the entity type.

    Knowledge bases and queries render to their text formats; answer
    sets and model reports to their JSON schemas.  The latter two are
    recognised structurally to keep this module import-light.
    """
    if isinstance(entity, KnowledgeBase):
        return render_kb(entity)
    if isinstance(entity, Query):
        return render_query(entity)
    if hasattr(entity, "answers"):
        return render_answer_set([(a.binding, a.merges) for a in entity])
    if hasattr(entity, "domain") and hasattr(entity, "assign1"):
        return render_model_report(entity)
    raise TypeError(f"cannot render {type(entity).__name__}")
