"""Formula core: substitutions and complement."""

import pytest
from hypothesis import given, settings, strategies as st

from fourlqs import (EPSILON, Eq, KbBuilder, Literal, MalformedSubstitutionError,
                     Member1, Member3, NamespaceError, Substitution,
                     UniversalClause, Variable, apply_substitution, complement,
                     qvar0, substitution0, var0, var1, var3)


def lit_rel(a, b, r, positive=True):
    return Literal(positive, Member3(var0(a), var0(b), var3(r)))


def lit_in(a, s, positive=True):
    return Literal(positive, Member1(var0(a), var1(s)))


def lit_eq(a, b, positive=True):
    return Literal(positive, Eq(var0(a), var0(b)))


class TestVariables:
    def test_interning_is_identity(self):
        assert var0("a") is var0("a")
        assert var0("a") is not var1("a")
        assert qvar0("z1") is not var0("z1")

    def test_sort_2_rejected(self):
        with pytest.raises(ValueError):
            Variable(2, "bad")


class TestSubstitution:
    def test_sort_mismatch_rejected(self):
        with pytest.raises(MalformedSubstitutionError):
            Substitution(map0={var0("x"): var0("y"), var1("A"): var1("B")})

    def test_identity_entries_dropped(self):
        s = substitution0({var0("x"): var0("x"), var0("y"): var0("z")})
        assert var0("x") not in s.map0
        assert s.map0[var0("y")] is var0("z")

    def test_apply_replaces_pair_term_slots(self):
        # <z1,z2> in R under {z1/a, z2/b}
        z1, z2 = qvar0("z1"), qvar0("z2")
        lit = Literal(True, Member3(z1, z2, var3("R")))
        s = substitution0({z1: var0("a"), z2: var0("b")})
        assert apply_substitution(lit, s) == lit_rel("a", "b", "R")

    def test_epsilon_is_neutral(self):
        for f in (lit_rel("a", "b", "R"), lit_eq("a", "b", positive=False)):
            assert apply_substitution(f, EPSILON) is f

    def test_quantified_occurrences_untouched(self):
        z1 = qvar0("z1")
        cl = UniversalClause((z1,), (Literal(True, Member1(z1, var1("A"))),
                                     lit_in("x", "B")))
        s = substitution0({var0("x"): var0("y"), z1: var0("y")})
        out = apply_substitution(cl, s)
        assert out.disjuncts[0].atom.elem is z1
        assert out.disjuncts[1].atom.elem is var0("y")


class TestComplement:
    def test_flip(self):
        assert complement(lit_in("x", "A")) == lit_in("x", "A", positive=False)
        assert complement(lit_eq("x", "y", positive=False)) == lit_eq("x", "y")

    def test_atom_shared(self):
        l = lit_rel("a", "b", "R")
        assert complement(l).atom is l.atom


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

names0 = st.sampled_from(["a", "b", "c", "d"])
names1 = st.sampled_from(["A", "B"])
names3 = st.sampled_from(["R", "S"])


@st.composite
def literals(draw):
    shape = draw(st.integers(0, 2))
    positive = draw(st.booleans())
    if shape == 0:
        atom = Eq(var0(draw(names0)), var0(draw(names0)))
    elif shape == 1:
        atom = Member1(var0(draw(names0)), var1(draw(names1)))
    else:
        atom = Member3(var0(draw(names0)), var0(draw(names0)),
                       var3(draw(names3)))
    return Literal(positive, atom)


@st.composite
def substitutions(draw):
    pairs = draw(st.dictionaries(names0, names0, max_size=3))
    return substitution0({var0(k): var0(v) for k, v in pairs.items()})


@given(literals())
@settings(max_examples=1000)
def test_complement_is_involution(l):
    assert complement(complement(l)) == l
    assert complement(l).atom is l.atom


@given(st.lists(literals(), min_size=1, max_size=4), substitutions())
@settings(max_examples=300)
def test_substitution_homomorphic_over_disjuncts(lits, s):
    z = qvar0("zq")
    body = tuple(lits) + (Literal(True, Member1(z, var1("A"))),)
    cl = UniversalClause((z,), body)
    out = apply_substitution(cl, s)
    for i, d in enumerate(cl.disjuncts):
        assert out.disjuncts[i] == apply_substitution(d, s)


class TestKbBuilder:
    def test_one_name_one_sort(self):
        b = KbBuilder()
        b.add_literal(lit_in("a", "A"))
        with pytest.raises(NamespaceError) as err:
            b.free(3, "A")
        assert err.value.kind == "sort"

    def test_quantified_free_clash(self):
        b = KbBuilder()
        b.individual("z1")
        with pytest.raises(NamespaceError) as err:
            b.quantified("z1")
        assert err.value.kind == "duplicate"

    def test_duplicate_conjuncts_dropped(self):
        b = KbBuilder()
        b.add_literal(lit_in("a", "A"))
        b.add_literal(lit_in("a", "A"))
        kb = b.build()
        assert len(kb.literals) == 1

    def test_first_appearance_order(self):
        b = KbBuilder()
        b.add_literal(lit_rel("b", "a", "R"))
        b.add_literal(lit_in("a", "A"))
        kb = b.build()
        assert [v.name for v in kb.var0_order] == ["b", "a"]
