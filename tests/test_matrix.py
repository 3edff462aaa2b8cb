from __future__ import annotations

import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import column_pairs
from hhx import _kernel
from hhx.fields import GF, QQ
from hhx.matrix import SMat


def dense_rref(rows, field):
    """Plain dense Gauss-Jordan elimination, written independently as an oracle.

    Returns (pivot columns, reduced rows as {column: value} dicts).
    """
    rows = [[field(v) for v in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    zero = field.zero
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [v * inv for v in rows[rank]]
        if field.char:
            rows[rank] = [v % field.char for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != zero:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
                if field.char:
                    rows[i] = [v % field.char for v in rows[i]]
        pivots.append(col)
    reduced = [{j: v for j, v in enumerate(r) if v != zero} for r in rows[: len(pivots)]]
    return pivots, reduced


small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(small_int, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


def test_basic_shape_ops():
    m = SMat.from_dense([[1, 2], [3, 4]], QQ)
    assert m.entry(0, 1) == 2
    assert m.transpose().entry(1, 0) == 2
    assert m + m.scale(-1) == SMat(2, 2, QQ)
    assert m.matmul(SMat.identity(2, QQ)) == m
    with pytest.raises(ValueError):
        m.matmul(SMat.identity(3, QQ))


def test_add_at_cancels():
    m = SMat(2, 2, QQ)
    m.add_at(0, 0, Fraction(1, 2))
    m.add_at(0, 0, Fraction(-1, 2))
    assert m == SMat(2, 2, QQ)


def test_add_block_shifts_negates_and_sums():
    block = SMat.from_dense([[1, 0], [2, 3]], QQ)
    m = SMat(3, 4, QQ)
    m.add_at(1, 2, 5)
    m.add_block(block, 1, 2)
    m.add_block(block, 0, 0, neg=True)
    assert m == SMat.from_dense([[-1, 0, 0, 0], [-2, -3, 6, 0], [0, 0, 2, 3]], QQ)
    # over F_p a negated entry comes back in [0, p)
    f = SMat(1, 2, GF(3))
    f.add_block(SMat.from_dense([[1, 2]], GF(3)), 0, 0, neg=True)
    assert f.cols == [{0: 2}, {0: 1}]


@pytest.mark.parametrize(
    "write",
    [
        lambda m: m.add_at(2, 0, 1),
        lambda m: m.add_at(0, -1, 1),
        lambda m: m.add_block(SMat.identity(2, QQ), 1, 1),
        lambda m: m.add_block(SMat.identity(1, QQ), 0, 2),
    ],
    ids=["add_at-row", "add_at-negative-column", "add_block-corner", "add_block-column"],
)
def test_writes_outside_the_matrix_refused(write):
    m = SMat(2, 2, QQ)
    with pytest.raises(IndexError, match="outside 2x2"):
        write(m)


def test_sum_refuses_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch in matrix sum"):
        SMat(2, 2, QQ) + SMat(2, 3, QQ)


def test_rank_examples():
    assert SMat.from_dense([[1, 2], [2, 4]], QQ).rank() == 1
    assert SMat.from_dense([[1, 2], [2, 4]], GF(2)).rank() == 1
    assert SMat.from_dense([[2, 0], [0, 3]], QQ).rank() == 2
    # rank drops mod 2
    assert SMat.from_dense([[2, 0], [0, 3]], GF(2)).rank() == 1
    assert SMat(4, 5, QQ).rank() == 0
    assert SMat(0, 3, QQ).rank() == 0
    assert SMat(3, 0, QQ).rank() == 0


def test_rref_canonical_q():
    m = SMat.from_dense([[0, 2, 4], [1, 1, 1]], QQ)
    pivots, rows = m.rref()
    assert pivots == [0, 1]
    assert rows[0] == {0: 1, 2: -1}
    assert rows[1] == {1: 1, 2: 2}


def test_rref_canonical_fp():
    m = SMat.from_dense([[0, 2, 4], [1, 1, 1]], GF(5))
    pivots, rows = m.rref()
    assert pivots == [0, 1]
    assert rows[0] == {0: 1, 2: 4}
    assert rows[1] == {1: 1, 2: 2}


def test_rref_fractional_entries():
    m = SMat.from_dense([[Fraction(1, 2), Fraction(1, 3)]], QQ)
    pivots, rows = m.rref()
    assert pivots == [0]
    assert rows[0] == {0: 1, 1: Fraction(2, 3)}


def test_nullspace_examples():
    m = SMat.from_dense([[1, 2, 3], [0, 1, 1]], QQ)
    basis = m.nullspace()
    assert len(basis) == 1
    v = basis[0]
    assert m.mul_vec(v) == {}
    assert v[2] == 1  # free column normalized to one
    full = SMat.identity(3, QQ)
    assert full.nullspace() == []


def test_solve_examples():
    m = SMat.from_dense([[1, 1], [0, 1]], QQ)
    x = m.solve({0: QQ(3), 1: QQ(1)})
    assert m.mul_vec(x) == {0: 3, 1: 1}
    # inconsistent system
    m2 = SMat.from_dense([[1, 1], [1, 1]], QQ)
    assert m2.solve({0: QQ(1), 1: QQ(2)}) is None
    # zero right side has the zero solution
    assert m2.solve({}) == {}


def dense_solve(rows, b, field):
    """Oracle for solve: free coordinates zero, None when [A | b] pivots on b."""
    ncols = len(rows[0])
    pivots, reduced = dense_rref([r + [v] for r, v in zip(rows, b)], field)
    if ncols in pivots:
        return None
    return {c: row[ncols] for c, row in zip(pivots, reduced) if ncols in row}


@st.composite
def solve_batches(draw, max_n=5):
    """A matrix (possibly with no columns) and a batch of right-hand sides:
    zero, in the column span, or arbitrary (often inconsistent)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_n))
    one_row = st.lists(small_int, min_size=m, max_size=m)
    rows = draw(st.lists(one_row, min_size=n, max_size=n))
    bs = []
    kinds = st.lists(st.sampled_from(["zero", "image", "any"]), min_size=1, max_size=5)
    for kind in draw(kinds):
        if kind == "zero":
            bs.append([0] * n)
        elif kind == "image":
            x = draw(st.lists(small_int, min_size=m, max_size=m))
            bs.append([sum(a * c for a, c in zip(row, x)) for row in rows])
        else:
            bs.append(draw(st.lists(small_int, min_size=n, max_size=n)))
    return rows, bs


@settings(max_examples=60, deadline=None)
@given(solve_batches())
@example(([[], []], [[0, 0], [1, 0], [0, 0]]))
@example(([[1, 1], [1, 1]], [[1, 2], [2, 2], [0, 0]]))
def test_solve_many_matches_dense_oracle(batch):
    rows, bs = batch
    for field in (QQ, GF(2), GF(3)):
        vecs = [{i: field(v) for i, v in enumerate(b) if field(v)} for b in bs]
        got = SMat.from_dense(rows, field).solve_many(vecs)
        assert got == [dense_solve(rows, b, field) for b in bs]


fractions = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 12)
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(st.lists(fractions, min_size=m, max_size=m), min_size=1, max_size=5)
    )
)
@example([[Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5, 9)]])
def test_kernel_rows_scale_each_row_by_its_denominators(rows):
    # each Q row becomes integers by one lcm of its denominators, equal to
    # scaling by Fraction products; F_p rows pass through unchanged
    m = SMat.from_dense(rows, QQ)
    want = []
    for r in m.transpose().cols:
        mult = lcm(*(v.denominator for v in r.values())) if r else 1
        want.append({c: int(v * mult) for c, v in r.items()})
    got = m._kernel_rows()
    assert got == want
    assert all(type(v) is int for r in got for v in r.values())
    ints = [[v.numerator for v in r] for r in rows]
    for p in (2, 3, 7):
        mp = SMat.from_dense(ints, GF(p))
        assert mp._kernel_rows() == mp.transpose().cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle_q(rows):
    assert SMat.from_dense(rows, QQ).rank() == len(dense_rref(rows, QQ)[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle_fp(rows):
    for p in (2, 3, 7):
        assert SMat.from_dense(rows, GF(p)).rank() == len(dense_rref(rows, GF(p))[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
@example([[1, 0], [1, 1], [1, 0]])
def test_rank_pairs_match_column_reduction(rows):
    # reducing the rows from the last one up, pivots at first nonzero
    # columns, pairs what the left-to-right column reduction with last-row
    # pivots pairs: both mark where the ranks of lower-left blocks jump
    for field in (QQ, GF(2), GF(3)):
        m = SMat.from_dense(rows, field)
        pairs = m.rank(pairs=True)
        assert pairs == column_pairs(m)
        assert len(pairs) == m.rank()


@settings(max_examples=60, deadline=None)
@given(matrices(), st.sets(st.integers(0, 5)))
@example([[1, 2], [2, 4], [1, 0]], {2})
def test_online_rank_grows_exactly_on_new_columns(rows, skip):
    # columns inserted one at a time, the rows in skip dropped: a column
    # grows the rank exactly when the rank of the columns so far jumps;
    # over Q the entries carry denominators, which the kernel scales away
    ncols = len(rows[0])
    thirds = [[Fraction(v, 1 + (i + j) % 3) for j, v in enumerate(r)] for i, r in enumerate(rows)]
    for field, dense in ((QQ, thirds), (GF(2), rows), (GF(3), rows)):
        m = SMat.from_dense(dense, field)
        kept = m.restrict([i for i in range(m.nrows) if i not in skip])
        ranks = [kept.restrict(None, range(j)).rank() for j in range(ncols + 1)]
        insert = SMat(m.nrows, 0, field).rank(skip, online=True)
        assert [insert(col) for col in m.cols] == [b > a for a, b in zip(ranks, ranks[1:])]
        # a basis started from m's own columns holds every one of them
        again = m.rank(online=True)
        assert not any(again(col) for col in m.cols)


@st.composite
def graded_matrices(draw, max_n=6):
    """(dense rows, row t labels, column t labels, rows to skip), with
    entries only where the row and the column carry the same t."""
    labels = st.integers(0, 2)
    row_t = draw(st.lists(labels, min_size=1, max_size=max_n))
    col_t = draw(st.lists(labels, min_size=1, max_size=max_n))
    rows = [[draw(small_int) if a == b else 0 for b in col_t] for a in row_t]
    skip = draw(st.sets(st.integers(0, len(row_t) - 1)))
    return rows, row_t, col_t, skip


@settings(max_examples=60, deadline=None)
@given(graded_matrices())
@example(([[1, 0, 1], [0, 2, 0], [1, 0, 0]], [0, 1, 0], [0, 1, 0], {0}))
def test_rank_pairs_are_the_union_of_block_pairs(graded):
    # a matrix joining only equal t is its t blocks side by side, on
    # disjoint rows and columns, and reducing it whole pairs what reducing
    # each block alone pairs, rows left out included
    rows, row_t, col_t, skip = graded
    for field in (QQ, GF(2), GF(3)):
        m = SMat.from_dense(rows, field)
        union = {}
        for t in set(row_t) | set(col_t):
            r = [i for i, a in enumerate(row_t) if a == t]
            c = [j for j, b in enumerate(col_t) if b == t]
            block_skip = {k for k, i in enumerate(r) if i in skip}
            pairs = m.restrict(r, c).rank(block_skip, pairs=True)
            union.update({c[j]: r[i] for j, i in pairs.items()})
        assert m.rank(skip, pairs=True) == union


@settings(max_examples=40, deadline=None)
@given(matrices(5))
def test_rref_reproduces_row_space(rows):
    m = SMat.from_dense(rows, QQ)
    pivots, rrows = m.rref()
    assert len(pivots) == m.rank()
    # every original row solves against the echelon rows: stack and re-rank
    stacked = rrows + [
        {j: QQ(v) for j, v in enumerate(r) if v} for r in rows
    ]
    mm = SMat(len(stacked), m.ncols, QQ)
    for i, r in enumerate(stacked):
        for j, v in r.items():
            mm.cols[j][i] = v
    assert mm.rank() == len(pivots)


@settings(max_examples=40, deadline=None)
@given(matrices(5))
def test_nullspace_property(rows):
    for field in (QQ, GF(3)):
        m = SMat.from_dense(rows, field)
        basis = m.nullspace()
        assert len(basis) == m.ncols - m.rank()
        for v in basis:
            assert m.mul_vec(v) == {}


@settings(max_examples=60, deadline=None)
@given(matrices())
@example([[2, 4, 0, -2], [0, 2, 6, 0], [1, 0, 3, 5], [0, 0, 0, 1]])
def test_rref_matches_dense_oracle(rows):
    # the reduced echelon form is unique, so it must agree entry for entry
    for field in (QQ, GF(2), GF(3), GF(7)):
        assert SMat.from_dense(rows, field).rref() == dense_rref(rows, field)


KERNEL_COLS = 7
int_rows = st.lists(
    st.dictionaries(
        st.integers(0, KERNEL_COLS - 1),
        st.integers(-30, 30).filter(bool),
        max_size=KERNEL_COLS,
    ),
    max_size=7,
)


def _assert_echelon(cols, rows):
    # sorted by pivot, each pivot the row's first entry and alone in its column
    assert cols == sorted(set(cols))
    assert len(rows) == len(cols)
    for c, row in zip(cols, rows):
        assert min(row) == c
        assert set(row) & set(cols) == {c}


@settings(max_examples=80, deadline=None)
@given(int_rows)
@example([{0: 2, 1: 4}, {0: 3, 1: 1, 2: 6}])
@example([{0: 6}])
def test_kernel_rref_int_contract(rows):
    cols, out = _kernel.rref_int(rows)
    _assert_echelon(cols, out)
    for c, row in zip(cols, out):
        assert row[c] > 0
        assert gcd(*row.values()) == 1
    assert _kernel.rank_int(rows)[0] == cols


@settings(max_examples=80, deadline=None)
@given(int_rows)
def test_kernel_rref_fp_contract(rows):
    for p in (2, 3, 7):
        reduced = [{j: v % p for j, v in r.items() if v % p} for r in rows]
        cols, out = _kernel.rref_fp(reduced, p)
        _assert_echelon(cols, out)
        for c, row in zip(cols, out):
            assert row[c] == 1
            assert all(type(v) is int and 1 <= v < p for v in row.values())
        assert _kernel.rank_fp(reduced, p)[0] == cols


@pytest.mark.parametrize(
    "rows, want",
    [
        ([{0: 2, 1: 4}, {0: 3, 1: 1, 2: 6}], ([0, 1], [{0: 5, 2: 12}, {1: 5, 2: -6}])),
        (
            [{1: 6, 3: -4}, {0: 2, 1: 3}, {0: -4, 3: 8, 4: 2}, {1: 9, 3: -6}],
            ([0, 1, 3], [{0: 6, 4: -1}, {1: 9, 4: 1}, {3: 6, 4: 1}]),
        ),
        ([{2: -3, 0: 6}, {0: 4, 1: 10, 2: 5}], ([0, 1], [{2: -1, 0: 2}, {1: 10, 2: 7}])),
        # the last row wins column 0 and is never cleared: it still leaves
        # with content 1
        ([{0: 4, 1: 10, 2: 5}, {2: -3, 0: 6}], ([0, 1], [{2: -1, 0: 2}, {1: 10, 2: 7}])),
    ],
)
def test_kernel_rref_int_fixed(rows, want):
    assert _kernel.rref_int(rows) == want
    assert _kernel.rank_int(rows)[0] == want[0]


@pytest.mark.parametrize(
    "rows, p, want",
    [
        ([{0: 1, 2: 1}, {0: 1, 1: 1}, {1: 1, 2: 1}], 2, ([0, 1], [{0: 1, 2: 1}, {1: 1, 2: 1}])),
        ([{0: 2, 1: 1}, {0: 1, 2: 2}, {1: 2, 2: 1}], 3, ([0, 1], [{0: 1, 2: 2}, {1: 1, 2: 2}])),
        (
            [{0: 3, 1: 5, 3: 6}, {1: 4, 2: 2}, {0: 6, 2: 1, 3: 5}],
            7,
            ([0, 1, 2], [{0: 1, 3: 2}, {1: 1}, {2: 1}]),
        ),
        # a lone pivot row clears nothing and still leaves with pivot 1
        ([{0: 2, 1: 1}], 3, ([0], [{0: 1, 1: 2}])),
    ],
)
def test_kernel_rref_fp_fixed(rows, p, want):
    assert _kernel.rref_fp(rows, p) == want
    assert _kernel.rank_fp(rows, p)[0] == want[0]


def test_block_copies_go_through_add_block():
    """Outside matrix.py no code copies a matrix entry by entry: an add_at
    call inside a loop over some matrix's .cols is such a copy, and
    SMat.add_block is the one that stays.  The double complexes of src/ are
    built with anticommuting squares, so from_commuting, the sign twist of
    commuting ones, lives in the tests only."""
    found = set()
    for path in sorted(Path(_kernel.__file__).parent.glob("*.py")):
        if path.name == "matrix.py":
            continue
        text = path.read_text()
        if "from_commuting" in text:
            found.add(f"{path.name}: from_commuting")
        for loop in ast.walk(ast.parse(text, str(path))):
            if isinstance(loop, ast.For) and any(
                isinstance(n, ast.Attribute) and n.attr == "cols" for n in ast.walk(loop.iter)
            ):
                found |= {
                    f"{path.name}:{call.lineno}"
                    for call in ast.walk(loop)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "add_at"
                }
    assert sorted(found) == []


def test_kernel_has_one_elimination_loop():
    """Every rank, pairing and echelon form grows its basis through
    ``_kernel.insert``: the kernel's one while loop sits in insert,
    ``_forward`` calls insert, and no heapq is imported.

    A regime differs only in its row-clearing step; a second forward
    reduction, such as a column heap with buckets of candidate rows, would
    show up as a second while loop or a heapq import.
    """
    path = Path(_kernel.__file__)
    tree = ast.parse(path.read_text(), str(path))
    loops = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.While)
    ]
    assert loops == ["insert"], loops
    forward = next(f for f in tree.body if getattr(f, "name", None) == "_forward")
    assert any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "insert"
        for n in ast.walk(forward)
    )
    assert not any(
        isinstance(n, (ast.Import, ast.ImportFrom)) and "heapq" in ast.unparse(n)
        for n in ast.walk(tree)
    )
