"""DL axiom translation, checked against the axioms' own semantics.

``dl_holds`` below evaluates each axiom's defining condition directly on
a finite interpretation (subset inclusion, relation composition, and so
on); the property tests assert that an interpretation satisfies the
condition exactly when it satisfies every translated conjunct, for every
interpretation over small domains.
"""

import itertools

import pytest

from fourlqs import parse_kb, saturate, var1, var3
from fourlqs.core import Eq, Literal, Member3, NamespaceError, UniversalClause
from fourlqs.dlfront import (DlAxiom, UnsupportedAxiomError, parse_dl,
                             translate_axiom, translate_kb)
from fourlqs.oracle import Interpretation, model_check
from fourlqs.syntax import ParseError, render_kb

from conftest import ITALY_DL, ITALY_KB


# ---------------------------------------------------------------------------
# Direct semantics of the supported axioms
# ---------------------------------------------------------------------------

def _compose(r1, r2):
    return {(a, c) for a, b in r1 for b2, c in r2 if b == b2}


def _cval(e, C, domain):
    tag = e[0]
    if tag == "name":
        return C[e[1]]
    if tag == "top":
        return frozenset(domain)
    if tag == "bot":
        return frozenset()
    if tag == "not":
        return frozenset(domain) - _cval(e[1], C, domain)
    if tag == "and":
        out = frozenset(domain)
        for p in e[1]:
            out &= _cval(p, C, domain)
        return out
    out = frozenset()
    for p in e[1]:
        out |= _cval(p, C, domain)
    return out


def dl_holds(ax: DlAxiom, domain, C, R) -> bool:
    diag = {(d, d) for d in domain}
    k = ax.kind
    if k == "ConceptInclusion":
        return _cval(ax.lhs, C, domain) <= _cval(ax.rhs, C, domain)
    if k == "RoleInclusion":
        return R[ax.roles[0]] <= R[ax.roles[1]]
    if k == "RoleChainInclusion":
        *body, sup = ax.roles
        rel = R[body[0]]
        for r in body[1:]:
            rel = _compose(rel, R[r])
        return rel <= R[sup]
    if k == "Sym":
        return {(b, a) for a, b in R[ax.roles[0]]} <= R[ax.roles[0]]
    if k == "Asym":
        return not (R[ax.roles[0]] & {(b, a) for a, b in R[ax.roles[0]]})
    if k == "Ref":
        return diag <= R[ax.roles[0]]
    if k == "Irref":
        return not (R[ax.roles[0]] & diag)
    if k == "Tra":
        return _compose(R[ax.roles[0]], R[ax.roles[0]]) <= R[ax.roles[0]]
    if k == "Dis":
        return not (R[ax.roles[0]] & R[ax.roles[1]])
    if k == "Fun":
        return all(b == c for a, b in R[ax.roles[0]]
                   for a2, c in R[ax.roles[0]] if a == a2)
    if k == "ConceptProduct":
        c1, c2 = (C[n] for n in ax.concepts)
        return R[ax.roles[0]] == {(a, b) for a in c1 for b in c2}
    if k == "ExistsLhsInclusion":
        c1, c2 = (C[n] for n in ax.concepts)
        return {a for a, b in R[ax.roles[0]] if b in c1} <= c2
    if k == "ValueRestriction":
        c1, c2 = (C[n] for n in ax.concepts)
        return all(b in c2 for a, b in R[ax.roles[0]] if a in c1)
    raise ValueError(k)


def interpretations(domain, concepts, roles):
    subsets = list(map(frozenset,
                       itertools.chain.from_iterable(
                           itertools.combinations(domain, n)
                           for n in range(len(domain) + 1))))
    pairs = [(a, b) for a in domain for b in domain]
    relations = list(map(frozenset,
                         itertools.chain.from_iterable(
                             itertools.combinations(pairs, n)
                             for n in range(len(pairs) + 1))))
    for cvals in itertools.product(subsets, repeat=len(concepts)):
        for rvals in itertools.product(relations, repeat=len(roles)):
            yield dict(zip(concepts, cvals)), dict(zip(roles, rvals))


def check_axiom_semantics(ax: DlAxiom, concepts, roles, max_domain):
    conjuncts = translate_axiom(ax)
    assert all(isinstance(c, UniversalClause) for c in conjuncts)
    for size in range(1, max_domain + 1):
        domain = tuple(f"e{i}" for i in range(size))
        for C, R in interpretations(domain, concepts, roles):
            interp = Interpretation(
                domain=domain, assign0={},
                assign1={var1(n): C[n] for n in concepts},
                assign3={var3(n): R[n] for n in roles})
            want = dl_holds(ax, domain, C, R)
            got = all(model_check(interp, c) for c in conjuncts)
            assert got == want, (ax, domain, C, R)


class TestTranslationSemantics:
    def test_ref(self):
        check_axiom_semantics(DlAxiom("Ref", roles=("R",)), (), ("R",), 3)

    def test_irref(self):
        check_axiom_semantics(DlAxiom("Irref", roles=("R",)), (), ("R",), 3)

    def test_sym(self):
        check_axiom_semantics(DlAxiom("Sym", roles=("R",)), (), ("R",), 3)

    def test_asym(self):
        check_axiom_semantics(DlAxiom("Asym", roles=("R",)), (), ("R",), 3)

    def test_tra(self):
        check_axiom_semantics(DlAxiom("Tra", roles=("R",)), (), ("R",), 3)

    def test_fun(self):
        check_axiom_semantics(DlAxiom("Fun", roles=("R",)), (), ("R",), 3)

    def test_role_inclusion(self):
        check_axiom_semantics(DlAxiom("RoleInclusion", roles=("R", "S")),
                              (), ("R", "S"), 3)

    def test_dis(self):
        check_axiom_semantics(DlAxiom("Dis", roles=("R", "S")),
                              (), ("R", "S"), 3)

    def test_chain(self):
        check_axiom_semantics(
            DlAxiom("RoleChainInclusion", roles=("R", "S", "T")),
            (), ("R", "S", "T"), 2)

    def test_product(self):
        check_axiom_semantics(
            DlAxiom("ConceptProduct", roles=("R",), concepts=("A", "B")),
            ("A", "B"), ("R",), 3)

    def test_exists_lhs(self):
        check_axiom_semantics(
            DlAxiom("ExistsLhsInclusion", roles=("R",), concepts=("A", "B")),
            ("A", "B"), ("R",), 3)

    def test_value_restriction(self):
        check_axiom_semantics(
            DlAxiom("ValueRestriction", roles=("R",), concepts=("A", "B")),
            ("A", "B"), ("R",), 3)

    @pytest.mark.parametrize("lhs,rhs", [
        (("name", "A"), ("name", "B")),
        (("and", (("name", "A"), ("name", "B"))), ("bot",)),
        (("name", "A"), ("or", (("name", "B"), ("not", ("name", "A"))))),
        (("or", (("name", "A"), ("name", "B"))), ("name", "B")),
        (("top",), ("name", "A")),
        (("name", "A"), ("top",)),
        (("not", ("name", "A")), ("and", (("name", "B"), ("name", "A")))),
    ])
    def test_concept_inclusions(self, lhs, rhs):
        check_axiom_semantics(DlAxiom("ConceptInclusion", lhs=lhs, rhs=rhs),
                              ("A", "B"), (), 3)

    def test_top_bot_inclusion_needs_nonempty_domain(self):
        # top below bot: unsatisfiable over any nonempty domain; encoded
        # as the clause form of falsity.
        (clause,) = translate_axiom(DlAxiom("ConceptInclusion", lhs=("top",),
                                            rhs=("bot",)))
        lit = clause.disjuncts[0]
        assert not lit.positive and isinstance(lit.atom, Eq)


class TestWorkedExampleTranslation:
    def test_axiom_file_matches_handwritten_kb(self):
        kb = translate_kb(parse_dl(ITALY_DL))
        assert len(kb.literals) == 1 and len(kb.clauses) == 2
        assert not kb.literals[0].positive
        assert [v.name for v in kb.var0_order] == ["Italy", "Rome"]
        # the reflexivity clause
        ref = kb.clauses[0]
        assert len(ref.quantified) == 1 and len(ref.disjuncts) == 1
        d = ref.disjuncts[0]
        assert d.positive and d.atom.set3 is var3("isPartOf")
        assert d.atom.first is d.atom.second is ref.quantified[0]
        # same verdicts and branch count as the handwritten file
        res = saturate(kb)
        hand = saturate(parse_kb(ITALY_KB))
        assert res.open_count == hand.open_count == 2

    def test_ref_example(self):
        (clause,) = translate_axiom(DlAxiom("Ref", roles=("isPartOf",)))
        z = clause.quantified[0]
        assert clause.disjuncts == (
            Literal(True, Member3(z, z, var3("isPartOf"))),)

    def test_assert_and_subsume_compose(self):
        kb = translate_kb(parse_dl("assert a A\nsubsume A B"))
        assert len(kb.literals) == 1 and len(kb.clauses) == 1
        cl = kb.clauses[0]
        assert len(cl.disjuncts) == 2
        polarity = sorted((d.positive, d.atom.set1.name) for d in cl.disjuncts)
        assert polarity == [(False, "A"), (True, "B")]

    def test_empty_axiom_list(self):
        kb = translate_kb([])
        assert not kb.literals and not kb.clauses
        assert saturate(kb).consistent

    def test_fresh_variables_pairwise_distinct(self):
        kb = translate_kb(parse_dl("tra R\nsym R\nfun S"))
        names = [z.name for cl in kb.clauses for z in cl.quantified]
        assert len(names) == len(set(names))

    def test_fresh_variables_avoid_taken_names(self):
        kb = translate_kb(parse_dl("role z1 z2 R\nref R"))
        clause_names = {z.name for cl in kb.clauses for z in cl.quantified}
        assert not clause_names & {"z1", "z2"}


class TestDlParsing:
    def test_unsupported_constructs_rejected(self):
        for line in ("mincard 2 R A B", "nominal a", "self R", "datatype d",
                     "equiv A B"):
            with pytest.raises(UnsupportedAxiomError):
                parse_dl(line)

    def test_unknown_keyword(self):
        with pytest.raises(ParseError):
            parse_dl("frobnicate A B")

    def test_arity_violation(self):
        with pytest.raises(ParseError):
            parse_dl("rsub R")

    def test_negative_assertions(self):
        axioms = parse_dl("nassert a A\nnrole a b R\nneq a b")
        lits = [translate_axiom(ax)[0] for ax in axioms]
        assert all(not l.positive for l in lits)

    def test_chain_needs_three_roles(self):
        with pytest.raises(ParseError):
            parse_dl("chain R S")

    def test_translated_kb_runs_end_to_end(self):
        text = """
        assert rome City
        role rome italy locatedIn
        tra locatedIn
        subsume City (or Settlement Region)
        dis locatedIn disjointFrom
        """
        kb = translate_kb(parse_dl(text))
        res = saturate(kb)
        assert res.consistent
        rendered = render_kb(kb)
        assert parse_kb(rendered) == kb


# DL text -> its diagnostic: ``str(err)``, ``err.kind`` and the span's
# (line, column, length) for a ``ParseError``, or the message of an
# ``UnsupportedAxiomError``.
DL_GOLDEN = [
    ("frobnicate A B",
     ("1:1: unknown axiom keyword 'frobnicate'", "lex", (1, 1, 10))),
    ("assert a", ("1:9: unexpected end of line", "lex", (1, 9, 0))),
    ("assert a ?x",
     ("1:10: query variables are not allowed here", "lex", (1, 10, 2))),
    ("assert a (", ("1:10: expected a name, got '('", "lex", (1, 10, 1))),
    ("rsub R S T",
     ("1:10: trailing tokens after axiom", "arity", (1, 10, 1))),
    ("subsume A", ("1:10: unexpected end of line", "lex", (1, 10, 0))),
    ("subsume A B C",
     ("1:13: trailing tokens after subsume", "arity", (1, 13, 1))),
    ("subsume ) B",
     ("1:9: expected a concept expression", "lex", (1, 9, 1))),
    ("subsume (and A) B",
     ("1:10: and needs at least two operands", "lex", (1, 10, 3))),
    ("subsume (xor A B) C",
     ("1:10: expected not, and or or, got 'xor'", "lex", (1, 10, 3))),
    ("subsume (not A B", ("1:16: expected ')', got 'B'", "lex", (1, 16, 1))),
    ("chain R S",
     ("1:10: chain needs at least two left-hand roles and a right-hand role",
      "arity", (1, 10, 0))),
    ("assert a A\nrole a", ("2:7: unexpected end of line", "lex", (2, 7, 0))),
    ("mincard 2 R A B", "line 1: 'mincard' is outside the supported subset"),
    # Names inside concept expressions follow the KB name rules, so
    # ``translate`` never prints a KB that ``check`` rejects.
    ("subsume ?x B\nassert a B",
     ("1:9: query variables are not allowed here", "lex", (1, 9, 2))),
    ("subsume (and é top) B",
     ("1:14: expected a name, got 'é'", "lex", (1, 14, 1))),
    # A name keeps its sort across lines.
    ("assert a A\nassert A b",
     ("2:8: name 'A' used at sort 1 and sort 0", "sort", (2, 8, 1))),
    ("role a b R\nsubsume R B",
     ("2:9: name 'R' used at sort 3 and sort 1", "sort", (2, 9, 1))),
]


class TestDlDiagnostics:
    @pytest.mark.parametrize("text,expected", DL_GOLDEN)
    def test_golden(self, text, expected):
        try:
            parse_dl(text)
        except ParseError as err:
            span = err.span
            got = (str(err), err.kind, (span.line, span.column, span.length))
        except UnsupportedAxiomError as err:
            got = str(err)
        else:
            got = None
        assert got == expected

    def test_hand_built_axioms_at_two_sorts(self):
        """``parse_dl`` reports a name at two sorts at its token; a
        hand-built axiom list still meets the KB builder's check."""
        axioms = [DlAxiom("ConceptAssertion", ("a",), concepts=("A",)),
                  DlAxiom("ConceptAssertion", ("A",), concepts=("b",))]
        with pytest.raises(NamespaceError, match="used at sort 1 and sort 0"):
            translate_kb(axioms)


class TestDeepNesting:
    """Parsing and clause conversion keep their pending work on explicit
    stacks, so nesting is bounded by memory, not by the recursion limit."""

    DEPTH = 2000

    def test_deep_double_negation(self):
        n = self.DEPTH
        kb = translate_kb(parse_dl(
            "subsume " + "(not " * n + "A" + ")" * n + " B"))
        assert kb == translate_kb(parse_dl("subsume A B"))

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_deep_and_or_match_flat(self, op):
        n = self.DEPTH
        names = [f"A{i}" for i in range(n + 1)]
        nested = names[-1]
        for name in reversed(names[:-1]):
            nested = f"({op} {name} {nested})"
        flat = f"({op} {' '.join(names)})"
        for template in ("subsume {} B", "subsume B {}"):
            deep = translate_kb(parse_dl(template.format(nested)))
            assert deep == translate_kb(parse_dl(template.format(flat)))
            assert len(deep.clauses) == (n + 1 if (op == "and") ==
                                         template.endswith("{}") else 1)

    def test_deep_unclosed_expression_is_a_parse_error(self):
        n = self.DEPTH
        with pytest.raises(ParseError, match="unexpected end of line"):
            parse_dl("subsume " + "(not " * n + "A" + ")" * (n - 1))
