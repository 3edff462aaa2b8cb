"""The sparse elimination kernel behind every rank and echelon form.

Rows are dicts {column: value}; zeros are never stored.  Two scalar regimes:
F_p with values in [1, p), and integer rows standing in for rational ones
(scaling a row by a common denominator changes neither the row space nor the
pivot columns, and the reduced echelon form is recovered by dividing each
final row by its pivot).

Rational elimination works by cross-multiplication followed by content
reduction, so every intermediate value is an integer and no gcd churn from
fraction normalization occurs.  Columns are processed left to right, which
pins the canonical staircase pivot set; inside a column the sparsest
candidate row wins (Markowitz-style).  The reduced echelon form returned is
the unique primitive one.
"""

from __future__ import annotations

import heapq
from math import gcd

# pipebench/worker.py refuses to measure unless this matches reference.json.
KERNEL_TAG = "py"


def _row_content(row) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


def _reduce_content(row) -> None:
    content = _row_content(row)
    if content > 1:
        for ci in row:
            row[ci] //= content


def _forward_int(rows):
    """Forward elimination over the integers.

    Returns (rows, pivots) with pivots a list of (col, row_index) in
    ascending column order; pivot rows are content-reduced and live in
    ``rows`` untouched afterwards.
    """
    rows = [dict(r) for r in rows if r]
    buckets: dict[int, list[int]] = {}
    heap: list[int] = []
    for i, r in enumerate(rows):
        c = min(r)
        if c not in buckets:
            buckets[c] = []
            heapq.heappush(heap, c)
        buckets[c].append(i)
    pivots = []
    while heap:
        c = heapq.heappop(heap)
        cand = buckets.pop(c, None)
        if not cand:
            continue
        ri = min(cand, key=lambda i: (len(rows[i]), i))
        row = rows[ri]
        pv = row[c]
        for j in cand:
            if j == ri:
                continue
            other = rows[j]
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
            if other:
                _reduce_content(other)
                c2 = min(other)
                if c2 not in buckets:
                    buckets[c2] = []
                    heapq.heappush(heap, c2)
                buckets[c2].append(j)
        pivots.append((c, ri))
    return rows, pivots


def _forward_fp(rows, p):
    """Forward elimination mod p; retired pivot rows are scaled to pivot 1."""
    rows = [dict(r) for r in rows if r]
    buckets: dict[int, list[int]] = {}
    heap: list[int] = []
    for i, r in enumerate(rows):
        c = min(r)
        if c not in buckets:
            buckets[c] = []
            heapq.heappush(heap, c)
        buckets[c].append(i)
    pivots = []
    while heap:
        c = heapq.heappop(heap)
        cand = buckets.pop(c, None)
        if not cand:
            continue
        ri = min(cand, key=lambda i: (len(rows[i]), i))
        row = rows[ri]
        inv = pow(row[c], p - 2, p)
        for ci in row:
            row[ci] = row[ci] * inv % p
        for j in cand:
            if j == ri:
                continue
            other = rows[j]
            rc = other.pop(c)
            for ci, v in row.items():
                if ci == c:
                    continue
                nv = (other.get(ci, 0) - rc * v) % p
                if nv:
                    other[ci] = nv
                else:
                    other.pop(ci, None)
            if other:
                c2 = min(other)
                if c2 not in buckets:
                    buckets[c2] = []
                    heapq.heappush(heap, c2)
                buckets[c2].append(j)
        pivots.append((c, ri))
    return rows, pivots


def rank_int(rows) -> int:
    _, pivots = _forward_int(rows)
    return len(pivots)


def rank_fp(rows, p: int) -> int:
    _, pivots = _forward_fp(rows, p)
    return len(pivots)


def _fix_lists(rows, pivots):
    """For each pivot column, the pivot rows holding a stray entry there."""
    pivot_cols = {c for c, _ in pivots}
    fix: dict[int, list[int]] = {}
    for k, (c, ri) in enumerate(pivots):
        for ci in rows[ri]:
            if ci != c and ci in pivot_cols:
                fix.setdefault(ci, []).append(k)
    return fix


def rref_int(rows):
    """Primitive integer echelon form.

    Returns (pivot_cols, rows) sorted by pivot column.  Each row is the
    integer vector proportional to the reduced echelon row, content-reduced,
    with positive pivot entry; dividing by the pivot recovers the canonical
    rational form.
    """
    rows, pivots = _forward_int(rows)
    fix = _fix_lists(rows, pivots)
    for k in range(len(pivots) - 1, -1, -1):
        c, ri = pivots[k]
        prow = rows[ri]
        pv = prow[c]
        for k2 in fix.get(c, ()):
            other = rows[pivots[k2][1]]
            rc = other.pop(c)
            g = gcd(pv, rc)
            mult_self = pv // g
            mult_piv = rc // g
            if mult_self != 1:
                for ci in other:
                    other[ci] *= mult_self
            for ci, v in prow.items():
                if ci == c:
                    continue
                nv = other.get(ci, 0) - mult_piv * v
                if nv:
                    other[ci] = nv
                else:
                    other.pop(ci, None)
            _reduce_content(other)
    out_cols, out_rows = [], []
    for c, ri in pivots:
        prow = rows[ri]
        if prow[c] < 0:
            for ci in prow:
                prow[ci] = -prow[ci]
        out_cols.append(c)
        out_rows.append(prow)
    return out_cols, out_rows


def rref_fp(rows, p: int):
    """Reduced echelon form mod p: (pivot_cols, rows), pivot entries 1."""
    rows, pivots = _forward_fp(rows, p)
    fix = _fix_lists(rows, pivots)
    for k in range(len(pivots) - 1, -1, -1):
        c, ri = pivots[k]
        prow = rows[ri]
        for k2 in fix.get(c, ()):
            other = rows[pivots[k2][1]]
            rc = other.pop(c)
            for ci, v in prow.items():
                if ci == c:
                    continue
                nv = (other.get(ci, 0) - rc * v) % p
                if nv:
                    other[ci] = nv
                else:
                    other.pop(ci, None)
    return [c for c, _ in pivots], [rows[ri] for _, ri in pivots]
