"""Fixtures and oracles shared by several test modules."""

from fractions import Fraction

from hhx.algebra import make_algebra
from hhx.chains import BettiTable, ChainError
from hhx.fields import QQ
from hhx.matrix import SMat
from hhx.simplicial import Simp, SimplicialMap, SimplicialSet, disjoint_union


def fold_map(X: SimplicialSet, copies: int) -> SimplicialMap:
    """The fold from a disjoint union of copies of X back onto X."""
    U = disjoint_union(*([X] * copies))
    assignment = {name: Simp((), name.split(".", 1)[1]) for name in U.cells}
    return SimplicialMap(U, X, assignment)


def simplicial_chains(X: SimplicialSet, field):
    """Ordinary normalized chains on the cell basis, as level data.

    Returns (levels, diffs): levels[n] lists cell names of dimension n and
    diffs[n] maps level n to level n - 1 with alternating signs, degenerate
    faces dropped.
    """
    cells = sorted(X.cells.values(), key=lambda c: (c.dim, c.name))
    levels = [[c.name for c in cells if c.dim == n] for n in range(X.max_dim + 1)]
    index = [{name: i for i, name in enumerate(lv)} for lv in levels]
    diffs = [None]
    for n in range(1, X.max_dim + 1):
        m = SMat(len(levels[n - 1]), len(levels[n]), field)
        for j, name in enumerate(levels[n]):
            for i in range(n + 1):
                f = X.face(Simp((), name), i)
                if not f.degenerate:
                    m.add_at(index[n - 1][f.base], j, field(-1) if i % 2 else field.one)
        diffs.append(m)
    return levels, diffs


def column_pairs(d: SMat) -> dict:
    """{column: pivot row} of the left-to-right column reduction of d.

    The pivot of a column is its last nonzero row.  A column whose pivot an
    earlier reduced column holds takes a multiple of that column away until
    its pivot is free or it is zero, so the earliest column keeps a pivot.
    Reduced columns are stored scaled to pivot one.  The textbook reduction
    of persistent homology, kept as the oracle for the pairs of
    ``chains._pairs``.
    """
    field = d.field
    add = field.add_into
    reduced: dict = {}
    pivots = {}
    for j, col in enumerate(d.cols):
        col = dict(col)
        while col:
            low = max(col)
            red = reduced.get(low)
            if red is None:
                a = field.inv(col[low])
                reduced[low] = {i: field(v * a) for i, v in col.items()}
                pivots[j] = low
                break
            c = -col[low]
            for i, v in red.items():
                add(col, i, c * v)
    return pivots


def scaled_pair():
    # k x k on f1 = 2 e1, f2 = e2: the unit 1/2 f1 + f2 has a coefficient
    # other than 1, so the unit-adapted basis change is seen
    h, o, z = Fraction(1, 2), 1, 0
    return make_algebra(
        QQ,
        [("f1", 0), ("f2", 0)],
        [h, o],
        [[[2, z], [z, z]], [[z, z], [z, o]]],
        True,
    )


def canonical(v) -> bool:
    """The one form of a rational: an int for an integer value, else a
    Fraction with denominator > 1 (never a float)."""
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def window_equal(a: BettiTable, b: BettiTable, s_max: int) -> bool:
    """Entrywise equality of two tables for s <= s_max, a window both trust."""
    if s_max > min(a.s_valid, b.s_valid):
        raise ChainError("comparison window exceeds a validity bound")
    return {k: v for k, v in a.entries.items() if k[0] <= s_max} == {
        k: v for k, v in b.entries.items() if k[0] <= s_max
    }


def convolve(a: BettiTable, b: BettiTable) -> BettiTable:
    """Kunneth product: graded convolution over both gradings."""
    out: dict = {}
    bound = min(a.s_valid, b.s_valid)
    for (s1, t1), v1 in a.entries.items():
        for (s2, t2), v2 in b.entries.items():
            if s1 + s2 <= bound:
                key = (s1 + s2, t1 + t2)
                out[key] = out.get(key, 0) + v1 * v2
    return BettiTable(out, bound, "convolution")
