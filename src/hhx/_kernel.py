"""The sparse elimination kernel behind every rank and echelon form.

Rows are dicts {column: value}; zeros are never stored.  Two scalar regimes:
F_p with values in [1, p), and integer rows standing in for rational ones
(scaling a row by a common denominator changes neither the row space nor the
pivot columns, and the reduced echelon form is recovered by dividing each
final row by its pivot).

Both regimes share one pivot order and one back-substitution.  Columns are
processed left to right, which pins the canonical staircase pivot set;
inside a column the candidate row that comes last wins.  A row is then only
ever changed by a multiple of itself plus later rows, so the (column, row)
pivots are those of reducing the rows from the last one up with the pivot
at the first nonzero column: row i holds the pivot of column c exactly when
the rank of the rows from i on, over the columns up to c, jumps there (the
pairing of persistent cohomology, de Silva, Morozov & Vejdemo-Johansson).
The regimes differ only in how a pivot row clears its column from another
row:

- over the integers, by fraction-free cross-multiplication (Bareiss)
  followed by content reduction, so every intermediate value is an integer
  and no gcd churn from fraction normalization occurs; the reduced echelon
  form returned is the unique primitive one;
- over F_p, by subtracting rc times the pivot row mod p, after the pivot
  row has been scaled to pivot 1.

``insert`` grows an echelon basis one row at a time with the same clearing
steps, for rows that are built on demand and ranked without being stored.
"""

from __future__ import annotations

import heapq
from math import gcd

# pipebench/worker.py refuses to measure unless this matches reference.json.
KERNEL_TAG = "py"


def _reduce_content(row) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for ci in row:
            row[ci] //= g


def _clear_int(row, c, others) -> None:
    """Clear column c of each of others with the pivot row, over Z."""
    pv = row[c]
    for other in others:
        rc = other.pop(c)
        g = gcd(pv, rc)
        mult_self = pv // g
        mult_piv = rc // g
        if mult_self != 1:
            for ci in other:
                other[ci] *= mult_self
        for ci, v in row.items():
            if ci == c:
                continue
            nv = other.get(ci, 0) - mult_piv * v
            if nv:
                other[ci] = nv
            else:
                other.pop(ci, None)
        _reduce_content(other)


def _clear_fp(p: int):
    """The clearing step mod p; it first scales the pivot row to pivot 1."""

    def clear(row, c, others) -> None:
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            for ci in row:
                row[ci] = row[ci] * inv % p
        for other in others:
            rc = other.pop(c)
            for ci, v in row.items():
                if ci == c:
                    continue
                nv = (other.get(ci, 0) - rc * v) % p
                if nv:
                    other[ci] = nv
                else:
                    other.pop(ci, None)

    return clear


def _forward(rows, clear):
    """Forward elimination: (rows, pivot columns, pivot rows), the pivot
    rows given by their index in rows and listed by ascending column.
    Empty rows are left alone."""
    rows = [dict(r) for r in rows]
    buckets: dict[int, list[int]] = {}
    heap: list[int] = []
    for i, r in enumerate(rows):
        if not r:
            continue
        c = min(r)
        if c not in buckets:
            buckets[c] = []
            heapq.heappush(heap, c)
        buckets[c].append(i)
    cols: list[int] = []
    owners: list[int] = []
    while heap:
        c = heapq.heappop(heap)
        cand = buckets.pop(c)
        ri = max(cand)
        rest = [j for j in cand if j != ri]
        clear(rows[ri], c, [rows[j] for j in rest])
        for j in rest:
            other = rows[j]
            if other:
                c2 = min(other)
                if c2 not in buckets:
                    buckets[c2] = []
                    heapq.heappush(heap, c2)
                buckets[c2].append(j)
        cols.append(c)
        owners.append(ri)
    return rows, cols, owners


def insert(pivots: dict, row: dict, clear) -> bool:
    """Add one row to an echelon basis kept as pivots {column: pivot row}.

    row is reduced in place by the same clearing step as ``_forward``, at
    its first column while that column has a pivot row.  What is left, if
    anything, becomes the pivot row of its first column.  Returns whether
    the rank grew.
    """
    while row:
        c = min(row)
        pivot = pivots.get(c)
        if pivot is None:
            pivots[c] = row
            return True
        clear(pivot, c, [row])
    return False


def _reduced(rows, clear):
    """Forward elimination, then back-substitution: (pivot_cols, rows)."""
    rows, cols, owners = _forward(rows, clear)
    pivot_cols = set(cols)
    # for each pivot column, the pivot rows holding a stray entry there
    fix: dict[int, list[dict]] = {}
    for c, ri in zip(cols, owners):
        for ci in rows[ri]:
            if ci != c and ci in pivot_cols:
                fix.setdefault(ci, []).append(rows[ri])
    for c, ri in zip(reversed(cols), reversed(owners)):
        if c in fix:
            clear(rows[ri], c, fix[c])
    return cols, [rows[ri] for ri in owners]


def rank_int(rows):
    """(pivot columns, pivot rows) of the forward elimination; the rank is
    the number of pivots, and each pivot row is an index into rows."""
    return _forward(rows, _clear_int)[1:]


def rank_fp(rows, p: int):
    """``rank_int`` mod p."""
    return _forward(rows, _clear_fp(p))[1:]


def rref_int(rows):
    """Primitive integer echelon form.

    Returns (pivot_cols, rows) sorted by pivot column.  Each row is the
    integer vector proportional to the reduced echelon row, content-reduced,
    with positive pivot entry; dividing by the pivot recovers the canonical
    rational form.
    """
    cols, out = _reduced(rows, _clear_int)
    for c, prow in zip(cols, out):
        # a pivot row never cleared keeps the content it came in with
        _reduce_content(prow)
        if prow[c] < 0:
            for ci in prow:
                prow[ci] = -prow[ci]
    return cols, out


def rref_fp(rows, p: int):
    """Reduced echelon form mod p: (pivot_cols, rows), pivot entries 1."""
    return _reduced(rows, _clear_fp(p))
