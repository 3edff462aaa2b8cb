"""Sparse exact matrices.

Columns are dicts {row: value} holding field elements (Fraction over Q,
int over F_p); zero entries are never stored.  Rank, echelon form,
nullspace and solving go through the elimination kernel ``hhx._kernel``;
everything here is plumbing and stays deterministic: echelon forms are
canonical, nullspace bases are enumerated by ascending free column.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _kernel
from .fields import Field


class SMat:
    """A sparse nrows-by-ncols matrix over an exact field."""

    __slots__ = ("nrows", "ncols", "field", "cols", "_rank")

    def __init__(self, nrows: int, ncols: int, field: Field, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.cols: list[dict] = cols if cols is not None else [{} for _ in range(ncols)]
        self._rank = None

    @classmethod
    def from_entries(cls, nrows, ncols, field, entries) -> "SMat":
        m = cls(nrows, ncols, field)
        for i, j, v in entries:
            m.add_at(i, j, v)
        return m

    @classmethod
    def from_dense(cls, rows, field) -> "SMat":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols, field)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                fv = field(v)
                if fv != field.zero:
                    m.cols[j][i] = fv
        return m

    @classmethod
    def identity(cls, n, field) -> "SMat":
        return cls(n, n, field, [{i: field.one} for i in range(n)])

    def add_at(self, i: int, j: int, v) -> None:
        """Accumulate v into entry (i, j)."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        self.field.add_into(self.cols[j], i, v)
        self._rank = None

    def entry(self, i: int, j: int):
        return self.cols[j].get(i, self.field.zero)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def transpose(self) -> "SMat":
        t = SMat(self.ncols, self.nrows, self.field)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                t.cols[i][j] = v
        return t

    def mul_vec(self, vec: dict) -> dict:
        """Apply to a sparse column vector {index: value}."""
        add = self.field.add_into
        out: dict = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, v in self.cols[j].items():
                add(out, i, v * x)
        return out

    def matmul(self, other: "SMat") -> "SMat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        out = SMat(self.nrows, other.ncols, self.field)
        for j, col in enumerate(other.cols):
            if col:
                out.cols[j] = self.mul_vec(col)
        return out

    __matmul__ = matmul

    def __add__(self, other: "SMat") -> "SMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        out = SMat(self.nrows, self.ncols, self.field)
        add = self.field.add_into
        for j in range(self.ncols):
            col = dict(self.cols[j])
            for i, v in other.cols[j].items():
                add(col, i, v)
            out.cols[j] = col
        return out

    def scale(self, a) -> "SMat":
        field = self.field
        a = field(a)
        if a == field.zero:
            return SMat(self.nrows, self.ncols, field)
        # a product of two nonzero field elements is nonzero
        cols = [{i: field(v * a) for i, v in col.items()} for col in self.cols]
        return SMat(self.nrows, self.ncols, field, cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.field == other.field
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"SMat({self.nrows}x{self.ncols} over {self.field}, nnz={self.nnz})"

    def restrict(self, rows=None, cols=None) -> "SMat":
        """Submatrix on the given row/column index lists, reindexed in order."""
        rows = list(range(self.nrows)) if rows is None else list(rows)
        cols = list(range(self.ncols)) if cols is None else list(cols)
        rowpos = {r: k for k, r in enumerate(rows)}
        out = SMat(len(rows), len(cols), self.field)
        for k, j in enumerate(cols):
            col = {}
            for i, v in self.cols[j].items():
                if i in rowpos:
                    col[rowpos[i]] = v
            out.cols[k] = col
        return out

    def to_rows(self) -> list[dict]:
        rows: list[dict] = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    # -- elimination-backed queries ------------------------------------

    def _kernel_rows(self) -> list[dict]:
        """Rows in kernel form: integer dicts (rationals get scaled per row)."""
        rows = self.to_rows()
        if self.field.char == 0:
            out = []
            for r in rows:
                if not r:
                    out.append({})
                    continue
                mult = lcm(*(v.denominator for v in r.values()))
                # the denominator divides mult, so this is v * mult without
                # building a Fraction per entry
                out.append({c: v.numerator * (mult // v.denominator) for c, v in r.items()})
            return out
        return rows

    def rank(self) -> int:
        if self._rank is None:
            rows = [r for r in self._kernel_rows() if r]
            if self.field.char == 0:
                self._rank = _kernel.rank_int(rows)
            else:
                self._rank = _kernel.rank_fp(rows, self.field.char)
        return self._rank

    def rref(self):
        """Canonical reduced echelon form: (pivot_cols, rows as dicts).

        Rows come back over the field with pivot entries equal to one and are
        sorted by pivot column, so the output is unique for the row space.
        """
        rows = [r for r in self._kernel_rows() if r]
        if self.field.char == 0:
            pivots, raw = _kernel.rref_int(rows)
            out = []
            for c, r in zip(pivots, raw):
                pv = Fraction(r[c])
                out.append({j: Fraction(v) / pv for j, v in r.items()})
            self._rank = len(pivots)
            return pivots, out
        pivots, raw = _kernel.rref_fp(rows, self.field.char)
        self._rank = len(pivots)
        return pivots, raw

    def nullspace(self) -> list[dict]:
        """Canonical basis of the right kernel, one vector per free column."""
        pivots, rows = self.rref()
        pivot_set = set(pivots)
        add = self.field.add_into
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = {f: self.field.one}
            for c, row in zip(pivots, rows):
                coeff = row.get(f)
                if coeff:
                    add(v, c, -coeff)
            basis.append(v)
        return basis

    def solve(self, b: dict):
        """One solution of self @ x = b with free coordinates zero, or None."""
        return self.solve_many([b])[0]

    def solve_many(self, bs) -> list:
        """``solve`` for every b in bs, from one echelon form of [self | bs].

        b_j is inconsistent exactly when an echelon row with its pivot past
        the last column of self has an entry in b_j's column; otherwise the
        rows pivoting inside self carry the solution with free coordinates
        zero, the same one a separate echelon form of [self | b_j] gives.
        """
        zero = self.field.zero
        n = self.ncols
        rhs = [{i: v for i, v in b.items() if v != zero} for b in bs]
        aug = SMat(self.nrows, n + len(rhs), self.field, self.cols + rhs)
        pivots, rows = aug.rref()
        xs: list = [{} for _ in rhs]
        # rows come sorted by pivot, so every row pivoting past self comes
        # after the rows that fill in solutions
        for c, row in zip(pivots, rows):
            for j, v in row.items():
                if j < n:
                    continue
                if c < n:
                    xs[j - n][c] = v
                else:
                    xs[j - n] = None
        # exact re-check of every solution against its right-hand side
        return [
            x if x is not None and self.mul_vec(x) == b else None
            for x, b in zip(xs, rhs)
        ]


def echelon_quotient(rows, dim: int, field: Field):
    """Quotient of the coordinate space field^dim by the span of rows.

    rows are sparse {coordinate: value} dicts with normalized nonzero
    values.  Returns (free, pi): free lists the non-pivot coordinates of
    the canonical echelon form of rows, pi rewrites every coordinate as
    {position in free: coeff}.
    """
    pivots, rrows = SMat(dim, len(rows), field, list(rows)).transpose().rref()
    pivot_set = set(pivots)
    free = [c for c in range(dim) if c not in pivot_set]
    pos = {c: k for k, c in enumerate(free)}
    pi: list[dict] = [None] * dim
    for c in free:
        pi[c] = {pos[c]: field.one}
    add = field.add_into
    for c, row in zip(pivots, rrows):
        out: dict = {}
        for f, v in row.items():
            if f != c:
                add(out, pos[f], -v)
        pi[c] = out
    return free, pi
