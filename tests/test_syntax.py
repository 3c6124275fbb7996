"""KB and query text formats: grammar, diagnostics, round-trips."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fourlqs import parse_kb, parse_query, var0, var3
from fourlqs.bench import gen_random_kb, gen_random_query
from fourlqs.core import Member3
from fourlqs.dlfront import UnsupportedAxiomError, parse_dl, translate_kb
from fourlqs.syntax import (_TOKEN, ParseError, _tokens, render_answer_set,
                            render_kb, render_query)
from fourlqs import substitution0

from conftest import ITALY_DL, ITALY_KB


class TestParseKb:
    def test_single_literal(self):
        kb = parse_kb("lit (rel a a isPartOf)")
        assert len(kb.literals) == 1
        lit = kb.literals[0]
        assert lit.positive and isinstance(lit.atom, Member3)
        assert lit.atom.first is var0("a") and lit.atom.second is var0("a")
        assert [v.name for v in kb.var0_order] == ["a"]

    def test_worked_example_file(self):
        kb = parse_kb(ITALY_KB)
        assert len(kb.literals) == 1 and len(kb.clauses) == 2
        assert [v.name for v in kb.var0_order] == ["Italy", "Rome"]
        assert not kb.literals[0].positive

    def test_quantified_name_clashing_with_individual(self):
        text = "ind z1\nclause (forall z1) (or (rel z1 z1 P))"
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert err.value.kind == "duplicate"

    def test_name_at_two_sorts(self):
        with pytest.raises(ParseError) as err:
            parse_kb("lit (in a A)\nlit (in A B)")
        assert err.value.kind == "sort"

    def test_duplicate_conjuncts_dedup(self):
        kb = parse_kb("lit (in a A)\nlit (in a A)\nlit (in a B)")
        assert len(kb.literals) == 2

    def test_comments_and_blank_lines(self):
        kb = parse_kb("# a comment\n\nlit (in a A)  # trailing\n")
        assert len(kb.literals) == 1

    def test_ind_preregisters_order(self):
        kb = parse_kb("ind b a\nlit (in a A)")
        assert [v.name for v in kb.var0_order] == ["b", "a"]

    def test_lex_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_kb("lit (member a A)")
        assert err.value.kind == "lex"
        assert err.value.span.line == 1

    def test_arity_errors(self):
        with pytest.raises(ParseError) as err:
            parse_kb("ind")
        assert err.value.kind == "arity"
        with pytest.raises(ParseError) as err:
            parse_kb("clause (forall z) (or)")
        assert err.value.kind == "arity"

    def test_query_variable_rejected_in_kb(self):
        with pytest.raises(ParseError):
            parse_kb("lit (in ?v A)")

    def test_clause_body_must_be_literals(self):
        with pytest.raises(ParseError):
            parse_kb("clause (forall z) (or (and (in z A) (in z B)))")

    def test_repeated_lines_with_other_spacing(self):
        text = ("ind b a\n"
                "lit (not (in a A))\n"
                "clause (forall z) (or (in z A) (rel z b R))\n"
                "lit\t(not(in a A))  # again\n"
                "clause(forall z)(or(in z A) (rel z  b R)) # again\n"
                "lit (not (in a A))\n")
        kb = parse_kb(text)
        assert len(kb.literals) == 1 and len(kb.clauses) == 1
        assert [v.name for v in kb.var0_order] == ["b", "a"]
        assert kb == parse_kb(text.split("lit\t")[0])

    def test_deep_negation_is_a_diagnostic(self):
        # Nested negation is refused at the second innermost not, after
        # the atom inside it has been read; no depth is too deep for that.
        n = 2000
        text = "lit " + "(not " * n + "(in a A)" + ")" * n
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        column = len("lit ") + len("(not ") * (n - 2) + len("(") + 1
        assert str(err.value) == (
            f"1:{column}: nested negation is not allowed")


# (id, grammar, text, str(err), kind, span.line, span.column).  Queries
# are read against ITALY_KB.  Every diagnostic is pinned byte for byte.
GOLDEN = [
    ("deterministic", "kb", "lit (in a A)\nlit (rel a b)",
     "2:13: expected a name, got ')'", "lex", 2, 13),
    ("unknown-atom-head", "kb", "lit (member a A)",
     "1:6: expected eq, in, rel or not, got 'member'", "lex", 1, 6),
    ("ind-without-names", "kb", "ind",
     "1:4: ind needs at least one name", "arity", 1, 4),
    ("paren-as-name", "kb", "ind a (",
     "1:7: expected a name, got '('", "lex", 1, 7),
    ("unknown-keyword", "kb", "frob a b",
     "1:1: expected ind, lit or clause, got 'frob'", "lex", 1, 1),
    ("lone-close-paren", "kb", ")",
     "1:1: expected ind, lit or clause, got ')'", "lex", 1, 1),
    ("lit-at-end-of-line", "kb", "lit",
     "1:4: unexpected end of line", "lex", 1, 4),
    ("atom-cut-after-name", "kb", "lit (in a",
     "1:10: unexpected end of line", "lex", 1, 10),
    ("atom-missing-close", "kb", "lit (in a A",
     "1:12: unexpected end of line", "lex", 1, 12),
    ("trailing-name", "kb", "lit (in a A) extra",
     "1:14: trailing tokens after literal", "lex", 1, 14),
    ("trailing-atom", "kb", "lit (in a A) (in b B)",
     "1:14: trailing tokens after literal", "lex", 1, 14),
    ("atom-without-parens", "kb", "lit in a A",
     "1:5: expected '(', got 'in'", "lex", 1, 5),
    ("query-variable-in-kb", "kb", "lit (in ?v A)",
     "1:9: query variables are not allowed here", "lex", 1, 9),
    ("nested-not", "kb", "lit (not (not (in a A)))",
     "1:6: nested negation is not allowed", "lex", 1, 6),
    ("comment-after-bad-token", "kb", "lit (in a A) bad # comment (in b B)",
     "1:14: trailing tokens after literal", "lex", 1, 14),
    ("bad-name-then-comment", "kb", "lit (in a! A) # trailing comment",
     "1:9: expected a name, got 'a!'", "lex", 1, 9),
    ("name-at-two-sorts", "kb", "lit (in a A)\nlit (in A B)",
     "2:9: name 'A' used at sort 1 and sort 0", "sort", 2, 9),
    ("eq-with-three-names", "kb", "lit (eq a b c)",
     "1:13: expected ')', got 'c'", "lex", 1, 13),
    ("empty-or", "kb", "clause (forall z) (or)",
     "1:23: or needs at least one literal", "arity", 1, 23),
    ("empty-forall", "kb", "clause (forall) (or (in a A))",
     "1:17: forall needs at least one variable", "arity", 1, 17),
    ("repeated-quantifier", "kb", "clause (forall z z) (or (in z A))",
     "1:21: quantified variables must be distinct", "duplicate", 1, 21),
    ("quantifier-is-individual", "kb",
     "ind z1\nclause (forall z1) (or (rel z1 z1 P))",
     "2:16: quantified variable 'z1' is already a free name", "duplicate",
     2, 16),
    ("and-in-clause-body", "kb",
     "clause (forall z) (or (and (in z A) (in z B)))",
     "1:24: expected eq, in, rel or not, got 'and'", "lex", 1, 24),
    ("trailing-after-clause", "kb", "clause (forall z) (or (in z A)) trailing",
     "1:33: trailing tokens after clause", "lex", 1, 33),
    ("clause-cut-at-end", "kb", "clause (forall z) (or (in z A)",
     "1:31: unexpected end of line", "lex", 1, 31),
    ("exists-not-forall", "kb", "clause (exists z) (or (in z A))",
     "1:9: expected 'forall', got 'exists'", "lex", 1, 9),
    ("forall-unclosed", "kb", "clause (forall z (or (in z A))",
     "1:18: expected a name, got '('", "lex", 1, 18),
    ("blank-line-and-indent", "kb", "lit (in a A)\n\n   lit   (rel a b R) )",
     "3:22: trailing tokens after literal", "lex", 3, 22),
    ("tabs-count-one-column", "kb", "lit\t(in a A)\t)",
     "1:14: trailing tokens after literal", "lex", 1, 14),
    ("quantifier-at-set-slot", "kb", "clause (forall z) (or (in z z))",
     "1:29: name 'z' is already a quantified variable", "duplicate", 1, 29),
    ("unbound-placeholder", "kb",
     "clause (forall z1) (or (in z1 A))\nclause (forall z2) (or (in z1 A))",
     "2:1: placeholder 'z1' is not bound by this clause", "duplicate", 2, 1),
    ("lex-error-after-unbound-placeholder", "kb",
     "clause (forall z1) (or (in z1 A))\n"
     "clause (forall z2) (or (in z1 A) (in z2 !))",
     "2:41: expected a name, got '!'", "lex", 2, 41),
    ("trailing-after-unbound-placeholder", "kb",
     "clause (forall z1) (or (in z1 A))\n"
     "clause (forall z2) (or (in z1 A) (in z2 B)) extra",
     "2:45: trailing tokens after clause", "lex", 2, 45),
    ("placeholder-in-later-literal", "kb",
     "clause (forall z) (or (in z A))\nlit (in z A)",
     "2:9: name 'z' is already a quantified variable", "duplicate", 2, 9),
    ("placeholder-in-later-ind", "kb",
     "clause (forall z) (or (in z A))\nind z",
     "2:5: name 'z' is already a quantified variable", "duplicate", 2, 5),
    ("not-without-parens", "kb", "lit (not in a A)",
     "1:10: expected '(', got 'in'", "lex", 1, 10),
    ("unknown-head-under-not", "kb", "lit (not (member a A))",
     "1:11: expected eq, in, rel or not, got 'member'", "lex", 1, 11),
    ("not-cut-at-end", "kb", "lit (not (in a A)",
     "1:18: unexpected end of line", "lex", 1, 18),
    ("q-unknown-symbol", "query", "(in Nowhere ?c)",
     "1:5: unknown symbol 'Nowhere'", "unknown-symbol", 1, 5),
    ("q-variable-at-two-sorts", "query", "(in ?x isPartOf) (rel Rome Italy ?x)",
     "1:8: name 'isPartOf' has a different sort in the KB", "sort", 1, 8),
    ("q-kb-name-at-wrong-sort", "query", "(in isPartOf ?c)",
     "1:5: name 'isPartOf' has a different sort in the KB", "sort", 1, 5),
    ("q-atom-cut", "query", "(in Rome ?c",
     "1:12: unexpected end of line", "lex", 1, 12),
    ("q-stray-close-paren", "query", "(in Rome ?c) )",
     "1:14: expected '(', got ')'", "lex", 1, 14),
    ("q-bare-question-mark", "query", "(in Rome ?c)\n(rel Rome ?",
     "2:11: expected a name, got '?'", "lex", 2, 11),
    ("q-nested-not", "query", "(not (not (in Rome ?c)))",
     "1:2: nested negation is not allowed", "lex", 1, 2),
    ("q-atom-without-parens", "query", "in Rome ?c",
     "1:1: expected '(', got 'in'", "lex", 1, 1),
    ("q-comment-then-bad-head", "query", "(in Rome ?c) # fine\n(nope Rome)",
     "2:2: expected eq, in, rel or not, got 'nope'", "lex", 2, 2),
    ("dl-and-with-one-operand", "dl", "subsume (and A) B",
     "1:10: and needs at least two operands", "lex", 1, 10),
    ("dl-close-paren-as-concept", "dl", "subsume ) B",
     "1:9: expected a concept expression", "lex", 1, 9),
    ("dl-trailing-after-axiom", "dl", "assert a C extra",
     "1:12: trailing tokens after axiom", "arity", 1, 12),
    ("dl-unknown-connective", "dl", "subsume (xor A B) C",
     "1:10: expected not, and or or, got 'xor'", "lex", 1, 10),
    ("dl-unknown-keyword", "dl", "wibble a",
     "1:1: unknown axiom keyword 'wibble'", "lex", 1, 1),
    ("dl-trailing-after-subsume", "dl", "subsume A B C",
     "1:13: trailing tokens after subsume", "arity", 1, 13),
    ("dl-short-chain", "dl", "chain R S",
     "1:10: chain needs at least two left-hand roles and a right-hand "
     "role", "arity", 1, 10),
    ("dl-role-cut", "dl", "role a b",
     "1:9: unexpected end of line", "lex", 1, 9),
    ("dl-paren-as-name", "dl", "assert a (C) # comment",
     "1:10: expected a name, got '('", "lex", 1, 10),
]


def _parse(grammar: str, text: str, kb=None):
    if grammar == "kb":
        return parse_kb(text)
    if grammar == "query":
        return parse_query(text, kb if kb is not None else parse_kb(ITALY_KB))
    return parse_dl(text)


class TestDiagnostics:
    @pytest.mark.parametrize("grammar,text,message,kind,line,column",
                             [pytest.param(*row[1:], id=row[0])
                              for row in GOLDEN])
    def test_golden(self, grammar, text, message, kind, line, column):
        for _ in range(2):      # the same input, the same diagnostic
            with pytest.raises(ParseError) as err:
                _parse(grammar, text)
            got = err.value
            assert (str(got), got.kind, got.span.line, got.span.column) == (
                message, kind, line, column)


class TestTokens:
    # ``\x1c``, ``\x85`` and ``\u2028`` also end a line for ``splitlines``;
    # the tokenizer itself must still treat them as whitespace.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ("(", ")", "#", "?", "?x", "a", "B_1", "it's", "n-1.2", " ", "\t",
         "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")),
        max_size=30).map("".join))
    def test_tokens_are_the_patterns_matches(self, body):
        # A diagnostic maps a token index to a ``_TOKEN.finditer`` span,
        # so the two must agree token for token.
        assert _tokens(body) == _TOKEN.findall(body)


# Token-level mutations: delete, insert or replace one token from this
# vocabulary ("" deletes in effect; "#" comments out the rest of a line),
# or copy one line to another position.
_VOCAB = ("ind", "lit", "clause", "forall", "or", "not", "eq", "in", "rel",
          "and", "subsume", "assert", "top", "(", ")", "a", "b", "A", "R",
          "qz1", "?x", "#", "", "\n", "\t", "\u00a0")
_EDITS = st.lists(st.tuples(st.sampled_from("dirc"), st.integers(0, 999),
                            st.integers(0, 999), st.sampled_from(_VOCAB)),
                  max_size=4)


def _mutate(text: str, edits) -> str:
    toks = re.findall(r"\n|\(|\)|[^\s()]+", text)
    for op, at, to, word in edits:
        at %= len(toks) + 1
        if op == "d":
            del toks[at:at + 1]
        elif op == "i":
            toks.insert(at, word)
        elif op == "r":
            toks[at:at + 1] = [word]
        else:
            ends = [k for k, tok in enumerate(toks) if tok == "\n"]
            starts = [0] + [k + 1 for k in ends]
            line = at % len(starts)
            copy = toks[starts[line]:(ends + [len(toks)])[line]] + ["\n"]
            dest = starts[to % len(starts)]
            toks[dest:dest] = copy
    return " ".join(toks)


class TestParserFuzz:
    """Every mutant either parses or raises ``ParseError`` (DL input may
    also name an unsupported construct), with a span that points into
    the input and a message that starts with it.  A KB mutant that
    parses, or the translation of a DL mutant that parses, renders to
    text that parses back to the same KB."""

    @staticmethod
    def _check(grammar: str, text: str, kb=None):
        try:
            return _parse(grammar, text, kb)
        except ParseError as err:
            span = err.span
            assert 1 <= span.line <= max(1, len(text.splitlines()))
            assert span.column >= 1
            assert str(err).startswith(f"{span.line}:{span.column}: ")
        except UnsupportedAxiomError:
            assert grammar == "dl"
        return None

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), kb_edits=_EDITS, q_edits=_EDITS)
    def test_kb_and_query_mutants(self, seed, kb_edits, q_edits):
        rng = random.Random(seed)
        text = gen_random_kb(rng)
        query = gen_random_query(rng, parse_kb(text))
        kb = self._check("kb", _mutate(text, kb_edits))
        if kb is not None:
            assert parse_kb(render_kb(kb)) == kb
        self._check("query", _mutate(query, q_edits), parse_kb(text))

    @settings(max_examples=100, deadline=None)
    @given(edits=_EDITS)
    def test_dl_mutants(self, edits):
        # The last line names a concept after the TBox has named others.
        text = (ITALY_DL + "subsume (and A (not B)) (or C top)\nchain R S T\n"
                "subsume A B\nassert a C\n")
        axioms = self._check("dl", _mutate(text, edits))
        if axioms is not None:
            kb = translate_kb(axioms)
            assert parse_kb(render_kb(kb)) == kb


class TestParseQuery:
    def test_role_instance_query(self, italy_kb):
        q = parse_query("(rel Rome Italy ?r)", italy_kb)
        assert len(q.conjuncts) == 1
        atom = q.conjuncts[0].atom
        assert atom.first.name == "Rome" and atom.second.name == "Italy"
        assert q.qvars3 and q.qvars3[0].name == "?r"

    def test_empty_query(self, italy_kb):
        q = parse_query("", italy_kb)
        assert q.is_empty

    def test_two_conjuncts_one_variable(self):
        kb = parse_kb("lit (in b A)")
        q = parse_query("(in ?v A) (not (eq ?v b))", kb)
        assert len(q.conjuncts) == 2
        assert len(q.qvars0) == 1
        assert not q.conjuncts[1].positive

    def test_query_var_at_two_sorts(self, italy_kb):
        with pytest.raises(ParseError) as err:
            parse_query("(in ?x isPartOf) (rel Rome Italy ?x)", italy_kb)
        assert err.value.kind == "sort"

    def test_unknown_symbol(self, italy_kb):
        with pytest.raises(ParseError) as err:
            parse_query("(in Nowhere ?c)", italy_kb)
        assert err.value.kind == "unknown-symbol"

    def test_kb_symbol_at_wrong_sort(self, italy_kb):
        with pytest.raises(ParseError) as err:
            parse_query("(in isPartOf ?c)", italy_kb)
        assert err.value.kind == "sort"


class TestRendering:
    def test_round_trip_worked_example(self, italy_kb):
        assert parse_kb(render_kb(italy_kb)) == italy_kb

    def test_render_empty_query(self, italy_kb):
        assert render_query(parse_query("", italy_kb)) == ""

    def test_query_round_trip(self, italy_kb):
        q = parse_query("(rel Rome Italy ?r)\n(not (eq Rome Italy))", italy_kb)
        assert parse_query(render_query(q), italy_kb) == q

    def test_round_trip_random_sample(self):
        rng = random.Random(20240)
        for _ in range(100):
            text = gen_random_kb(rng)
            kb = parse_kb(text)
            assert parse_kb(render_kb(kb)) == kb

    def test_round_trip_keeps_symbol_order(self):
        # A clause names B before the literal names A.
        kb = parse_kb("clause (forall z) (or (in z B))\nlit (in a A)")
        assert [v.name for v in kb.var1_order] == ["B", "A"]
        assert parse_kb(render_kb(kb)) == kb

    def test_round_trip_shuffled_sample(self):
        rng = random.Random(20241)
        for _ in range(100):
            lines = gen_random_kb(rng).splitlines()
            rng.shuffle(lines)
            kb = parse_kb("\n".join(lines))
            assert parse_kb(render_kb(kb)) == kb

    def test_answer_set_json_schema(self):
        binding = substitution0({var0("?v"): var0("a")})
        merges = substitution0({var0("y"): var0("x")})
        from fourlqs.core import Substitution
        b2 = Substitution(map3={var3("?r"): var3("R")})
        out = json.loads(render_answer_set([(binding, merges),
                                            (b2, substitution0({}))]))
        assert set(out) == {"answers"}
        assert len(out["answers"]) == 2
        for row in out["answers"]:
            assert set(row) == {"map0", "map1", "map3", "merges"}
        assert {"?v": "a"} in [r["map0"] for r in out["answers"]]
        assert {"y": "x"} in [r["merges"] for r in out["answers"]]

    def test_parse_is_deterministic(self):
        rng = random.Random(7)
        text = gen_random_kb(rng)
        assert parse_kb(text) == parse_kb(text)
        assert render_kb(parse_kb(text)) == render_kb(parse_kb(text))
