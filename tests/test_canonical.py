"""Every Q scalar the pipelines store is in canonical form.

An integer value is an int and any other value a Fraction with denominator
> 1, so each rational has one representation.  The algebras are
``scaled_pair``, whose unit coefficient 1/2 brings fractions into its
change to the unit-adapted basis, and ``mat2``, whose structure constants
are integers.
Builders that need a commutative algebra run on ``scaled_pair`` only.
"""

from fractions import Fraction

import pytest

from hhx import cobar as cobar_mod
from hhx.bar import circle_bar
from hhx.catalog import mat2
from hhx.chains import sseq_pages, total_complex
from hhx.cobar import hochschild_cohomology
from hhx.fields import QQ
from hhx.loday import cyclic_bar_oracle, loday_complex
from hhx.matrix import SMat
from hhx.simplicial import circle_min, sphere_min

from helpers import canonical, scaled_pair

ALGEBRAS = {"scaled_pair": scaled_pair, "mat2": mat2}


def noncanonical(values) -> list:
    return [v for v in values if not canonical(v)]


def entries(m: SMat) -> list:
    return [v for col in m.cols for v in col.values()]


def vectors(vs) -> list:
    return [v for vec in vs if vec is not None for v in vec.values()]


def differentials(A) -> dict:
    """name -> the stored differentials of each builder that takes A."""
    out = {"cyclic_bar_oracle": cyclic_bar_oracle(A, 3).diffs[1:]}
    built = []
    build = cobar_mod.cobar_complex

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cobar_mod, "cobar_complex", spy)
        hochschild_cohomology(A, 3)
    out["hochschild_cohomology"] = [d for C in built for d in C.deltas]
    if A.commutative:
        for label, X in (("circle", circle_min()), ("sphere:2", sphere_min(2))):
            out[f"loday_complex {label}"] = loday_complex(A, X, 3).complex.diffs[1:]
        D = circle_bar(A, 4)
        out["total_complex(circle_bar)"] = total_complex(D).diffs[1:]
        out["sseq_pages"] = [m for page in sseq_pages(D, 3) for m in page.d.values()]
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_differentials_are_canonical(name):
    A = ALGEBRAS[name]()
    assert noncanonical(v for c in A.table for row in c for v in row) == []
    for what, mats in differentials(A).items():
        assert mats, what
        for m in mats:
            assert noncanonical(entries(m)) == [], what


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_matrix_outputs_are_canonical(name):
    mats = [m for ms in differentials(ALGEBRAS[name]()).values() for m in ms if m.nnz]
    for m in mats:
        _, rows = m.rref()
        assert noncanonical(vectors(rows)) == []
        assert noncanonical(vectors(m.nullspace())) == []
        bs = [m.cols[j] for j in range(min(m.ncols, 3))] + [{0: Fraction(1, 3)}]
        assert noncanonical(vectors(m.solve_many(bs))) == []
        for a in (2, Fraction(1, 2), Fraction(-3, 2)):
            assert noncanonical(entries(m.scale(a))) == []
        half = SMat.identity(m.ncols, QQ).scale(Fraction(1, 2))
        assert noncanonical(entries(m @ half)) == []
        assert noncanonical(entries(m.scale(Fraction(1, 2)) @ m.scale(2).transpose())) == []


def test_products_that_cancel_a_denominator_are_ints():
    # 1/2 * 2 and 1/3 + 2/3 are integers; stored, they are ints
    m = SMat.from_dense([[Fraction(1, 2), Fraction(1, 3)], [3, Fraction(2, 3)]], QQ)
    n = SMat.from_dense([[2, 0], [0, 3]], QQ)
    prod = m @ n
    assert prod.cols == [{0: 1, 1: 6}, {0: 1, 1: 2}]
    assert noncanonical(entries(prod)) == []
    assert noncanonical(entries(m + m)) == []
    assert noncanonical(entries(m.scale(6))) == []
    _, rows = SMat.from_dense([[2, 4, 3], [0, 0, 6]], QQ).rref()
    assert rows == [{0: 1, 1: 2}, {2: 1}]
    assert noncanonical(vectors(rows)) == []


def test_fractions_with_denominator_one_reach_the_kernel_as_ints():
    # a caller may hand SMat or solve_many Fraction(2) for 2: the kernel
    # still gets rows of ints, and the results are canonical
    m = SMat(2, 2, QQ, [{0: Fraction(2), 1: Fraction(3)}, {0: Fraction(4), 1: Fraction(1)}])
    assert m.rank() == 2
    xs = m.solve_many([{0: Fraction(2), 1: Fraction(6, 3)}])
    assert xs == [{0: Fraction(3, 5), 1: Fraction(1, 5)}]
    assert noncanonical(vectors(xs)) == []
