"""Sparse exact matrices.

Columns are dicts {row: value} holding field elements (over Q an int, or
a Fraction when the value is not an integer; over F_p an int); zero entries
are never stored.  Rank, echelon form, nullspace and solving go through the
elimination kernel ``hhx._kernel``; everything here is plumbing and stays
deterministic: echelon forms are canonical, nullspace bases are enumerated
by ascending free column.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _kernel
from .fields import Field


def _integral(row):
    """A row of rationals as integers: scaled by the common denominator when
    some entry is a Fraction, else the row itself.  None stays None."""
    if row and any(type(v) is not int for v in row.values()):
        mult = lcm(*(v.denominator for v in row.values()))
        # the denominator divides mult, so this is v * mult without building
        # a Fraction per entry
        return {c: v.numerator * (mult // v.denominator) for c, v in row.items()}
    return row


class SMat:
    """A sparse nrows-by-ncols matrix over an exact field."""

    __slots__ = ("nrows", "ncols", "field", "cols")

    def __init__(self, nrows: int, ncols: int, field: Field, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.cols: list[dict] = cols if cols is not None else [{} for _ in range(ncols)]

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

    def add_block(self, block: "SMat", r0: int, c0: int, neg: bool = False) -> None:
        """Accumulate block (negated when neg) with its (0, 0) entry at (r0, c0)."""
        for j, col in enumerate(block.cols):
            for i, v in col.items():
                self.add_at(r0 + i, c0 + j, -v if neg else v)

    def entry(self, i: int, j: int):
        return self.cols[j].get(i, self.field.zero)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

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

    # -- elimination-backed queries ------------------------------------

    def _kernel_rows(self, skip=()) -> list:
        """Rows in kernel form: integer dicts (a row holding a Fraction gets
        scaled by its common denominator; a row of ints is kept as it is).
        A row in skip is not built and comes back as None."""
        rows: list = [None if i in skip else {} for i in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                r = rows[i]
                if r is not None:
                    r[j] = v
        if self.field.char == 0:
            rows = [_integral(r) for r in rows]
        return rows

    def rank(self, skip=(), pairs=False, online=False):
        """The rank, or with pairs the pivots {column: row}, one per unit
        of rank, or with online a function that grows the rank.

        The kernel reduces the rows from the last one up, each pivot at
        the row's first nonzero column, so the pairs depend only on the
        ranks of the lower-left submatrices.  The rows in skip are left out:
        the caller vouches that each is a combination of the rows after it,
        which changes neither the rank nor any pair.

        With online the columns are taken one at a time, so a caller can
        build each column when it needs it and drop it after.  The return
        value is insert(col): it puts one more column, without the rows in
        skip, into an echelon basis of the columns so far (``_kernel.insert``,
        the columns read as kernel rows), starting with those of self, and
        returns whether the rank grew.
        """
        if online:
            pivots: dict = {}
            rational = self.field.char == 0
            clear = _kernel._clear_int if rational else _kernel._clear_fp(self.field.char)

            def insert(col) -> bool:
                row = {i: v for i, v in col.items() if i not in skip}
                row = _integral(row) if rational else row
                return _kernel.insert(pivots, row, clear) is not None

            for col in self.cols:
                insert(col)
            return insert
        rows = self._kernel_rows(skip)
        found = [i for i, r in enumerate(rows) if r]
        rows = [rows[i] for i in found]
        if self.field.char == 0:
            cols, owners = _kernel.rank_int(rows)
        else:
            cols, owners = _kernel.rank_fp(rows, self.field.char)
        if pairs:
            return {c: found[k] for c, k in zip(cols, owners)}
        return len(cols)

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
                pv = r[c]
                out.append(
                    {j: v // pv if v % pv == 0 else Fraction(v, pv) for j, v in r.items()}
                )
            return pivots, out
        return _kernel.rref_fp(rows, self.field.char)

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

