import pytest

from fourlqs import parse_kb, saturate

ITALY_KB = """\
lit (not (rel Italy Rome locatedIn))
clause (forall z1) (or (rel z1 z1 isPartOf))
clause (forall z1 z2) (or (not (rel z1 z2 locatedIn)) (rel z1 z2 isPartOf))
"""

ITALY_DL = """\
nrole Italy Rome locatedIn
ref isPartOf
rsub locatedIn isPartOf
"""

CONTRADICTION_KB = """\
lit (in a A)
lit (not (in a A))
"""

MERGE_KB = """\
lit (eq x y)
lit (in x A)
lit (not (in y A))
"""

# 320 individuals and one two-quantifier clause: a single branch needs
# 102,400 nested splits, so its first leaf lies that deep.
DEEP_KB = ("ind " + " ".join(f"i{j}" for j in range(320)) + "\n"
           "clause (forall z1 z2) (or (rel z1 z2 R) (rel z2 z1 S))\n")


@pytest.fixture(scope="session")
def italy_kb():
    return parse_kb(ITALY_KB)


@pytest.fixture(scope="session")
def italy_result(italy_kb):
    return saturate(italy_kb)
