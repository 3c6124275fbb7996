"""Abstract syntax for the stratified set fragment the reasoner works on.

The language has three kinds of variables -- individuals (sort 0), sets of
individuals (sort 1), and sets of pairs (sort 3; sort 2 is never used) --
three atom shapes (x=y, x in X1, <x,y> in X3), and purely universal clauses
quantifying sort-0 variables over a disjunction of literals.  Everything a
knowledge base can contain is built from these pieces.

Variables are interned: constructing the same (sort, name, quantified)
triple twice yields the same object, so all comparisons downstream are
identity checks and literals are cheap dictionary/set keys.  Quantified
placeholders live in a namespace disjoint from free names, which makes
every instantiating substitution trivially free for its clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

SORT0 = 0
SORT1 = 1
SORT3 = 3

_SORT_TAGS = {SORT0: "x", SORT1: "X1", SORT3: "X3"}


class FourlqsError(Exception):
    """Base class for all errors raised by this package."""


class MalformedSubstitutionError(FourlqsError):
    """A substitution entry does not respect variable sorts."""


class NamespaceError(FourlqsError):
    """A name is used inconsistently across sorts or namespaces.

    ``kind`` is ``"sort"`` for a free name reused at two sorts and
    ``"duplicate"`` for a clash between the free and the quantified
    namespace.  The syntax layer turns these into positioned parse errors.
    """

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class PreconditionError(FourlqsError):
    """An operation was invoked outside its stated precondition."""


class Variable:
    """An interned variable of sort 0, 1 or 3.

    ``quantified`` marks clause placeholders; they never appear free in a
    knowledge base.  Interning means equality is object identity.
    """

    __slots__ = ("sort", "name", "quantified")

    _interned: Dict[Tuple[int, str, bool], "Variable"] = {}

    def __new__(cls, sort: int, name: str, quantified: bool = False) -> "Variable":
        key = (sort, name, quantified)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        if sort not in (SORT0, SORT1, SORT3):
            raise ValueError(f"unsupported sort {sort!r} (sort 2 does not occur)")
        if quantified and sort != SORT0:
            raise ValueError("only sort-0 variables can be quantified")
        obj = object.__new__(cls)
        object.__setattr__(obj, "sort", sort)
        object.__setattr__(obj, "name", name)
        object.__setattr__(obj, "quantified", quantified)
        cls._interned[key] = obj
        return obj

    def __setattr__(self, *_):
        raise AttributeError("Variable is immutable")

    def __repr__(self) -> str:
        mark = "!" if self.quantified else ""
        return f"{_SORT_TAGS[self.sort]}_{self.name}{mark}"


def var0(name: str) -> Variable:
    return Variable(SORT0, name)


def var1(name: str) -> Variable:
    return Variable(SORT1, name)


def var3(name: str) -> Variable:
    return Variable(SORT3, name)


def qvar0(name: str) -> Variable:
    """A quantified sort-0 placeholder, distinct from any free variable."""
    return Variable(SORT0, name, quantified=True)


@dataclass(frozen=True, slots=True)
class Eq:
    left: Variable
    right: Variable


@dataclass(frozen=True, slots=True)
class Member1:
    elem: Variable
    set1: Variable


@dataclass(frozen=True, slots=True)
class Member3:
    first: Variable
    second: Variable
    set3: Variable


Atom = Union[Eq, Member1, Member3]


def _check_atom(atom: Atom) -> None:
    if isinstance(atom, Eq):
        ok = atom.left.sort == SORT0 and atom.right.sort == SORT0
    elif isinstance(atom, Member1):
        ok = atom.elem.sort == SORT0 and atom.set1.sort == SORT1
    elif isinstance(atom, Member3):
        ok = (atom.first.sort == SORT0 and atom.second.sort == SORT0
              and atom.set3.sort == SORT3)
    else:
        raise TypeError(f"not an atom: {atom!r}")
    if not ok:
        raise MalformedSubstitutionError(f"atom {atom!r} mixes up sorts")


@dataclass(frozen=True, slots=True)
class Literal:
    """A signed atom.  The only formulae of level 0."""

    positive: bool
    atom: Atom

    def __post_init__(self):
        _check_atom(self.atom)

    def __repr__(self) -> str:
        a = self.atom
        if isinstance(a, Eq):
            body = f"{a.left.name}={a.right.name}"
        elif isinstance(a, Member1):
            body = f"{a.elem.name}∈{a.set1.name}"
        else:
            body = f"⟨{a.first.name},{a.second.name}⟩∈{a.set3.name}"
        return body if self.positive else f"¬({body})"


def atom_vars(atom: Atom) -> Tuple[Variable, ...]:
    if isinstance(atom, Eq):
        return (atom.left, atom.right)
    if isinstance(atom, Member1):
        return (atom.elem, atom.set1)
    return (atom.first, atom.second, atom.set3)


@dataclass(frozen=True, slots=True)
class UniversalClause:
    """(forall z1)...(forall zm)(b1 or ... or bn) with literal disjuncts.

    Quantified variables are pairwise-distinct placeholders; disjuncts may
    also mention free variables of the knowledge base.
    """

    quantified: Tuple[Variable, ...]
    disjuncts: Tuple[Literal, ...]

    def __post_init__(self):
        if not self.quantified:
            raise ValueError("a universal clause needs at least one quantifier")
        if len(set(self.quantified)) != len(self.quantified):
            raise ValueError("quantified variables must be pairwise distinct")
        for z in self.quantified:
            if not (z.sort == SORT0 and z.quantified):
                raise ValueError(f"{z!r} cannot be quantified over")
        if not self.disjuncts:
            raise ValueError("a universal clause needs at least one disjunct")

    def __repr__(self) -> str:
        prefix = "".join(f"(∀{z.name})" for z in self.quantified)
        return prefix + "(" + " ∨ ".join(map(repr, self.disjuncts)) + ")"


Formula = Union[Literal, UniversalClause]


@dataclass(frozen=True, slots=True)
class KnowledgeBase:
    """The conjunct set of a knowledge base plus its symbol tables.

    ``var0_order`` lists every free sort-0 variable exactly once, in order
    of first appearance; instantiation order everywhere in the engines is
    derived from it.
    """

    literals: Tuple[Literal, ...]
    clauses: Tuple[UniversalClause, ...]
    var0_order: Tuple[Variable, ...]
    var1_order: Tuple[Variable, ...]
    var3_order: Tuple[Variable, ...]

    def conjuncts(self) -> Iterator[Formula]:
        yield from self.literals
        yield from self.clauses

    def lookup(self, sort: int, name: str) -> Optional[Variable]:
        order = {SORT0: self.var0_order, SORT1: self.var1_order,
                 SORT3: self.var3_order}[sort]
        for v in order:
            if v.name == name:
                return v
        return None


def unbound_placeholder(v: Variable) -> NamespaceError:
    """The error for placeholder ``v`` in a clause that does not quantify it."""
    return NamespaceError(f"placeholder {v.name!r} is not bound by this clause",
                          "duplicate")


class KbBuilder:
    """Accumulates conjuncts while enforcing the naming discipline.

    One name, one sort: using a name at two sorts raises a ``sort``
    namespace error; reusing a quantified placeholder name as a free
    individual (or vice versa) raises a ``duplicate`` one.  Duplicate
    conjuncts are silently dropped, keeping first positions.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, Variable] = {}
        self._quantified: Dict[str, Variable] = {}
        self._order = {SORT0: [], SORT1: [], SORT3: []}
        self._literals = []
        self._literal_set = set()
        self._clauses = []
        self._clause_set = set()

    def free(self, sort: int, name: str) -> Variable:
        if name in self._quantified:
            raise NamespaceError(
                f"name {name!r} is already a quantified variable", "duplicate")
        known = self._by_name.get(name)
        if known is not None:
            if known.sort != sort:
                raise NamespaceError(
                    f"name {name!r} used at sort {known.sort} and sort {sort}",
                    "sort")
            return known
        v = Variable(sort, name)
        self._by_name[name] = v
        self._order[sort].append(v)
        return v

    def individual(self, name: str) -> Variable:
        return self.free(SORT0, name)

    def quantified(self, name: str) -> Variable:
        if name in self._by_name:
            raise NamespaceError(
                f"quantified variable {name!r} is already a free name",
                "duplicate")
        v = qvar0(name)
        self._quantified[name] = v
        return v

    def lookup_quantified(self, name: str) -> Optional[Variable]:
        return self._quantified.get(name)

    def _register(self, v: Variable) -> None:
        if v.quantified:
            self.quantified(v.name)
        else:
            self.free(v.sort, v.name)

    def add_literal(self, lit: Literal) -> None:
        for v in atom_vars(lit.atom):
            if v.quantified:
                raise ValueError("ground literals cannot contain placeholders")
            self._register(v)
        if lit not in self._literal_set:
            self._literal_set.add(lit)
            self._literals.append(lit)

    def add_clause(self, clause: UniversalClause) -> None:
        for z in clause.quantified:
            self._register(z)
        bound = set(clause.quantified)
        for d in clause.disjuncts:
            for v in atom_vars(d.atom):
                if v.quantified and v not in bound:
                    raise unbound_placeholder(v)
                if not v.quantified:
                    self._register(v)
        if clause not in self._clause_set:
            self._clause_set.add(clause)
            self._clauses.append(clause)

    def build(self) -> KnowledgeBase:
        return self.knowledge_base(self._literals, self._clauses)

    def knowledge_base(self, literals, clauses) -> KnowledgeBase:
        """``literals`` and ``clauses`` with this builder's symbol tables.

        The parser resolves every name through ``free`` and ``quantified``
        as it reads it and drops a repeated line, which is exactly a
        repeated conjunct, so it collects its conjuncts itself and skips
        the registration and the hashing of ``add_literal`` and
        ``add_clause``."""
        return KnowledgeBase(
            literals=tuple(literals),
            clauses=tuple(clauses),
            var0_order=tuple(self._order[SORT0]),
            var1_order=tuple(self._order[SORT1]),
            var3_order=tuple(self._order[SORT3]),
        )


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

def _clean_map(m: Mapping[Variable, Variable], sort: int) -> Dict[Variable, Variable]:
    out = {}
    for k, v in m.items():
        if k.sort != sort or v.sort != sort:
            raise MalformedSubstitutionError(
                f"entry {k!r}/{v!r} does not stay within sort {sort}")
        if k is not v:
            out[k] = v
    return out


@dataclass(frozen=True, slots=True)
class Substitution:
    """A sort-respecting finite map on variables.

    Identity entries are dropped on construction, so two substitutions are
    equal exactly when they act the same way.  The empty substitution is
    ``EPSILON``.
    """

    map0: Dict[Variable, Variable] = field(default_factory=dict)
    map1: Dict[Variable, Variable] = field(default_factory=dict)
    map3: Dict[Variable, Variable] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "map0", _clean_map(self.map0, SORT0))
        object.__setattr__(self, "map1", _clean_map(self.map1, SORT1))
        object.__setattr__(self, "map3", _clean_map(self.map3, SORT3))

    def get(self, v: Variable) -> Variable:
        if v.sort == SORT0:
            return self.map0.get(v, v)
        if v.sort == SORT1:
            return self.map1.get(v, v)
        return self.map3.get(v, v)

    def is_empty(self) -> bool:
        return not (self.map0 or self.map1 or self.map3)

    def items(self) -> Iterator[Tuple[Variable, Variable]]:
        yield from self.map0.items()
        yield from self.map1.items()
        yield from self.map3.items()

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k.name}/{v.name}" for k, v in self.items())
        return "{" + pairs + "}" if pairs else "ε"


EPSILON = Substitution()


def substitution0(pairs: Mapping[Variable, Variable]) -> Substitution:
    return Substitution(map0=dict(pairs))


def answer_key(binding: Substitution, merges: Substitution):
    """Canonical hashable form of one answer: sorted (name, name) items
    of the query bindings and of the merge map."""
    b = tuple(sorted((k.name, v.name) for k, v in binding.items()))
    m = tuple(sorted((k.name, v.name) for k, v in merges.map0.items()))
    return b, m
