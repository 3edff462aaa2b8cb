"""Bigraded chain complexes with exact sparse linear algebra.

A complex lives in homological degrees 0..top; every generator carries an
internal degree t which all differentials preserve, so homology splits
into (s, t) blocks.  Levels beyond the construction window are unknown,
which the validity bound s_valid makes explicit: homology is only handed
out for s <= s_valid, and every construction (cones, tensors, total
complexes) propagates the bound.  A complex is exact, trusted in every
degree, exactly when s_valid equals its top level.  ``ChainComplex.validate``
is the one d^2 = 0 check: it applies d_{s-1} to each column of d_s.

Every differential is reduced once, going up the levels with clearing
(``_pairs``), and both homology and spectral sequences read that one
reduction.  A Betti number counts the generators of its (s, t) block that
no pair touches.  A cochain complex is stored as the chain complex of the
transposes of its coboundaries, so cohomology is ranked by
``ChainComplex.homology`` like every other homology, and only this module
knows how a complex is ranked.

Double complexes are stored with anticommuting differentials.  Their own
check is of block shapes only; d^2 = 0 and t are checked on the total
complex, which every consumer reads and ``total_complex`` returns
validated.  Their spectral sequence filters the same reduction of the
total complex by the column index p, as in persistent homology: a
generator survives to E^r unless the reduction pairs it with a generator
at most r - 1 columns away, so a page is the count of the survivors in
each (p, q, t) block.
"""

from __future__ import annotations

from .fields import Field
from .matrix import SMat

__all__ = [
    "ChainError",
    "BettiTable",
    "ChainComplex",
    "ChainMap",
    "cone",
    "DoubleComplex",
    "total_complex",
    "SpectralSequencePage",
    "sseq_pages",
    "r_stable",
    "e_infinity",
]


class ChainError(ValueError):
    pass


class BettiTable:
    """Dimensions of homology indexed by (s, t), with a validity bound."""

    __slots__ = ("entries", "s_valid", "provenance")

    def __init__(self, entries: dict, s_valid: int, provenance: str):
        if s_valid < 0:
            raise ChainError(f"s_valid must be at least 0, got {s_valid}")
        if not isinstance(provenance, str):
            raise ChainError(f"provenance must be a string, got {provenance!r}")
        self.entries = {k: v for k, v in entries.items() if v}
        for (s, t), v in self.entries.items():
            if v < 0:
                raise ChainError(f"negative dimension at ({s}, {t})")
            if not 0 <= s <= s_valid:
                raise ChainError(f"entry at s={s} beyond the validity range 0..{s_valid}")
        self.s_valid = s_valid
        self.provenance = provenance

    def dim(self, s: int, t: int) -> int:
        return self.entries.get((s, t), 0)

    def total(self, s: int) -> int:
        return sum(v for (a, _), v in self.entries.items() if a == s)

    def t_range(self):
        return sorted({t for (_, t) in self.entries})

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "s_valid": self.s_valid,
            "entries": [
                {"s": s, "t": t, "dim": v}
                for (s, t), v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BettiTable":
        if not isinstance(obj, dict) or {"provenance", "s_valid", "entries"} - set(obj):
            raise ChainError("betti table file lacks provenance/s_valid/entries")
        if type(obj["s_valid"]) is not int:
            raise ChainError(f"s_valid must be an integer, got {obj['s_valid']!r}")
        if not isinstance(obj["entries"], list):
            raise ChainError("betti table entries must be a list")
        entries = {}
        for e in obj["entries"]:
            if not isinstance(e, dict) or any(
                type(e.get(k)) is not int for k in ("s", "t", "dim")
            ):
                raise ChainError(f"betti table entry {e!r} needs integer s, t and dim")
            key = (e["s"], e["t"])
            if key in entries:
                raise ChainError(f"betti table entry at {key} is duplicated")
            entries[key] = e["dim"]
        return cls(entries, obj["s_valid"], obj["provenance"])

    def render(self) -> str:
        """Small human-readable table: rows s descending, columns t."""
        if not self.entries:
            return f"(empty, s_valid={self.s_valid})"
        ss = sorted({s for (s, _) in self.entries})
        ts = self.t_range()
        head = "s\\t " + " ".join(f"{t:>4}" for t in ts)
        lines = [head]
        for s in reversed(range(0, max(ss) + 1)):
            row = [f"{self.dim(s, t):>4}" if self.dim(s, t) else "   ." for t in ts]
            lines.append(f"{s:>3} " + " ".join(row))
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable({dict(sorted(self.entries.items()))}, s_valid={self.s_valid})"


def _check_degrees(m: SMat, src, tgt, what: str, error=ChainError) -> None:
    """Raise error unless every entry of m joins generators of the same t.

    src and tgt list the (name, t) generators of the columns and the rows.
    """
    for j, col in enumerate(m.cols):
        name, t = src[j]
        for i, v in col.items():
            if v and tgt[i][1] != t:
                raise error(
                    f"{what} mixes internal degrees: generator {name!r} "
                    f"(t={t}) hits {tgt[i][0]!r} (t={tgt[i][1]})"
                )


class ChainComplex:
    """Levels of (name, t) generators with differentials d_s: s -> s-1.

    diffs[0] is None; diffs[s] has shape len(levels[s-1]) x len(levels[s]).
    s_valid is the highest trusted degree, top - 1 by default; a complex
    that genuinely stops at its top level is exact, and passes s_valid=top.
    """

    __slots__ = ("field", "levels", "diffs", "s_valid")

    def __init__(self, field: Field, levels, diffs, s_valid=None):
        self.field = field
        self.levels = [tuple(lv) for lv in levels]
        self.diffs = list(diffs)
        if len(self.diffs) != len(self.levels):
            raise ChainError("need one differential slot per level")
        top = len(self.levels) - 1
        if s_valid is None:
            self.s_valid = top - 1
        else:
            if s_valid > top:
                raise ChainError(f"s_valid {s_valid} beyond top level {top}")
            self.s_valid = s_valid
        self._check_shapes()
        if self.s_valid < 0:
            raise ChainError(f"s_valid must be at least 0, got {self.s_valid}")

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level_dim(self, s: int) -> int:
        return len(self.levels[s]) if 0 <= s <= self.top else 0

    def _check_shapes(self):
        if self.top < 0:
            raise ChainError("a complex needs at least one level")
        if self.diffs[0] is not None:
            raise ChainError("diffs[0] must be None")
        for s in range(1, self.top + 1):
            d = self.diffs[s]
            if (d.nrows, d.ncols) != (self.level_dim(s - 1), self.level_dim(s)):
                raise ChainError(
                    f"differential at level {s} has shape {d.nrows}x{d.ncols}, "
                    f"expected {self.level_dim(s - 1)}x{self.level_dim(s)}"
                )
            if d.field != self.field:
                raise ChainError(f"differential at level {s} is over the wrong field")

    def validate(self):
        """d^2 = 0 and internal-degree preservation, checked exactly.

        d_{s-1} is applied to one column of d_s at a time, so no product
        matrix is built, and a failure names the first generator whose d^2
        is nonzero.
        """
        for s in range(2, self.top + 1):
            below = self.diffs[s - 1]
            for j, col in enumerate(self.diffs[s].cols):
                if col and below.mul_vec(col):
                    raise ChainError(
                        f"d^2 != 0 between levels {s} and {s - 2} "
                        f"at generator {self.levels[s][j][0]!r}"
                    )
        for s in range(1, self.top + 1):
            what = f"differential at level {s}"
            _check_degrees(self.diffs[s], self.levels[s], self.levels[s - 1], what)
        return self

    def homology(self, s_max: int | None = None, provenance: str = "chain") -> BettiTable:
        """Betti table for s <= s_max, refusing windows beyond s_valid.

        The table reads the same reduction as the spectral sequence pages
        (``_pairs``): a level-s generator is a homology class exactly when
        no pair touches it, neither as a pivot column of d_s nor as a pivot
        row of d_{s+1}, so H_s at t counts the unpaired generators of t.
        """
        if s_max is None:
            s_max = self.s_valid
        if s_max > self.s_valid:
            raise ChainError(
                f"homology requested to s={s_max} but trusted only to {self.s_valid}"
            )
        pairs = _pairs(self, min(s_max + 1, self.top)) + [{}]
        out: dict = {}
        for s in range(s_max + 1):
            paired = pairs[s].keys() | pairs[s + 1].values()
            for k, (_, t) in enumerate(self.levels[s]):
                out[(s, t)] = out.get((s, t), 0) + (k not in paired)
        return BettiTable(out, s_max, provenance)

    def __repr__(self):
        dims = "/".join(str(self.level_dim(s)) for s in range(self.top + 1))
        return f"ChainComplex(dims={dims}, s_valid={self.s_valid})"


class ChainMap:
    """Level matrices f_s commuting with d and preserving t."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: ChainComplex, target: ChainComplex, mats):
        if source.field != target.field:
            raise ChainError("chain map needs a common field")
        if len(mats) != source.top + 1 or source.top != target.top:
            raise ChainError("chain map needs one matrix per level on both sides")
        self.source = source
        self.target = target
        self.mats = list(mats)
        for s, m in enumerate(self.mats):
            if (m.nrows, m.ncols) != (target.level_dim(s), source.level_dim(s)):
                raise ChainError(f"level {s} matrix has the wrong shape")
        self._validate()

    def _validate(self):
        for s in range(0, self.source.top + 1):
            src, tgt = self.source.levels[s], self.target.levels[s]
            _check_degrees(self.mats[s], src, tgt, f"chain map at level {s}")
        for s in range(1, self.source.top + 1):
            left = self.target.diffs[s] @ self.mats[s]
            right = self.mats[s - 1] @ self.source.diffs[s]
            if left != right:
                raise ChainError(f"chain map does not commute with d at level {s}")


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: level s = target_s + source_{s-1}, d = [[d_tgt, f], [0, -d_src]]."""
    src, tgt = f.source, f.target
    field = src.field
    top = max(src.top + 1, tgt.top)
    levels = []
    for s in range(top + 1):
        gens = [(("tgt", name), t) for name, t in (tgt.levels[s] if s <= tgt.top else ())]
        if 1 <= s <= src.top + 1:
            gens += [(("src", name), t) for name, t in src.levels[s - 1]]
        levels.append(gens)
    diffs: list = [None]
    for s in range(1, top + 1):
        nt = tgt.level_dim(s)
        ns = src.level_dim(s - 1)
        mt = tgt.level_dim(s - 1)
        ms = src.level_dim(s - 2) if s >= 2 else 0
        d = SMat(mt + ms, nt + ns, field)
        if s <= tgt.top:
            d.add_block(tgt.diffs[s], 0, 0)
        d.add_block(f.mats[s - 1], 0, nt)
        if s >= 2 and s - 1 <= src.top:
            d.add_block(src.diffs[s - 1], mt, nt, neg=True)
        diffs.append(d)
    exact = src.s_valid == src.top and tgt.s_valid == tgt.top
    s_valid = top if exact else min(src.s_valid + 1, tgt.s_valid)
    return ChainComplex(field, levels, diffs, s_valid=s_valid)


# ------------------------------------------------------------- double side


class DoubleComplex:
    """Anticommuting bigraded complex, columns indexed by p, rows by q.

    gens[(p, q)] lists (name, t); d_h[(p, q)] maps to (p-1, q) and
    d_v[(p, q)] to (p, q-1), with d_h d_v + d_v d_h = 0 as stored: every
    builder here writes anticommuting squares.  validate checks only the
    block shapes; d^2 = 0 and t are checked on the total complex, where
    D^2 from block (p, q) lands in (p-2, q) as d_h^2, in (p, q-2) as d_v^2
    and in (p-1, q-1) as d_h d_v + d_v d_h (see total_complex).
    s_valid is the highest total degree a totalization is trusted in;
    None means nothing was truncated.
    """

    __slots__ = ("field", "gens", "d_h", "d_v", "s_valid")

    def __init__(self, field, gens, d_h, d_v, s_valid=None):
        self.field = field
        self.gens = {k: tuple(v) for k, v in gens.items() if v}
        self.d_h = d_h
        self.d_v = d_v
        self.s_valid = s_valid

    def dim(self, p: int, q: int) -> int:
        return len(self.gens.get((p, q), ()))

    def validate(self):
        for (p, q) in self.gens:
            for table, which, tgt in (
                (self.d_h, "horizontal", (p - 1, q)),
                (self.d_v, "vertical", (p, q - 1)),
            ):
                m = table.get((p, q))
                if m is not None and (m.nrows, m.ncols) != (self.dim(*tgt), self.dim(p, q)):
                    raise ChainError(f"{which} map at ({p}, {q}) has the wrong shape")
        return self


def total_complex(D: DoubleComplex) -> ChainComplex:
    """Levels n = sum of blocks (p, q) with p + q = n, blocks by ascending p;
    exact when D.s_valid is None, else trusted to min(D.s_valid, top - 1).

    The block shapes are checked first (``DoubleComplex.validate``), and the
    total comes back validated: its d^2 = 0 is d_h^2 = 0, d_v^2 = 0 and
    anticommutation on every block, and its t check reads every block entry.
    """
    D.validate()
    field = D.field
    keys = sorted(D.gens)
    top = max(p + q for (p, q) in keys)
    levels = []
    offsets: list[dict] = []
    for n in range(top + 1):
        gens = []
        offs = {}
        for (p, q) in keys:
            if p + q == n:
                offs[(p, q)] = len(gens)
                gens.extend(((p, q, name), t) for name, t in D.gens[(p, q)])
        levels.append(gens)
        offsets.append(offs)
    diffs: list = [None]
    for n in range(1, top + 1):
        d = SMat(len(levels[n - 1]), len(levels[n]), field)
        for (p, q), base in offsets[n].items():
            for table, tgt in ((D.d_h, (p - 1, q)), (D.d_v, (p, q - 1))):
                m = table.get((p, q))
                if m is not None and tgt in offsets[n - 1]:
                    d.add_block(m, offsets[n - 1][tgt], base)
        diffs.append(d)
    s_valid = top if D.s_valid is None else min(D.s_valid, top - 1)
    return ChainComplex(field, levels, diffs, s_valid=s_valid).validate()


class SpectralSequencePage:
    """One page: dimensions per (p, q, t), plus the trusted total range.

    entries[(p, q, t)] is the dimension of E^r there; blocks with p + q
    beyond n_valid, the trusted range of the total complex, are omitted.
    """

    __slots__ = ("r", "entries", "n_valid")

    def __init__(self, r, entries, n_valid):
        self.r = r
        self.entries = {k: v for k, v in entries.items() if v}
        self.n_valid = n_valid

    def total(self, n: int) -> int:
        return sum(v for (p, q, _), v in self.entries.items() if p + q == n)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n_valid": self.n_valid,
            "entries": [
                {"p": p, "q": q, "t": t, "dim": v}
                for (p, q, t), v in sorted(self.entries.items())
            ],
        }

    def __repr__(self):
        return f"SpectralSequencePage(r={self.r}, entries={dict(sorted(self.entries.items()))})"


def _pairs(T: ChainComplex, top: int) -> list:
    """[{column: row} pairs of D_n for n <= top], D_n the differentials of T
    (entry 0 is empty): the one reduction Betti tables and pages read.

    Each D_n has its rows reduced from the last one up, each pivot at the
    row's first nonzero column (``SMat.rank``), and the reduction goes up
    the levels.  Clearing (Chen & Kerber): the level n - 1 rows that
    D_{n-1} paired as columns are left out of D_n, so no generator is
    paired twice.  Clearing lemma: such a column is the last entry of no
    kernel vector and D_n lands in that kernel, so its row is a combination
    of the rows after it, and leaving it out changes no rank and no pair.
    Pair lemma: this gives the pairs of the left-to-right column reduction
    with last-row pivots, since both mark where the ranks of the lower-left
    submatrices jump.  D_n preserves t, so its pairs are those of its
    t-blocks side by side.
    """
    pairs: list = [{}]
    for n in range(1, top + 1):
        pairs.append(T.diffs[n].rank(pairs[n - 1].keys(), pairs=True))
    return pairs


def sseq_pages(D: DoubleComplex, r_max: int) -> list:
    """Pages E^0..E^{r_max} of the column filtration, split by internal t.

    Each differential of the total complex is reduced once (``_pairs``), as
    in persistent homology: the coordinates of a level are sorted by p, so
    F_p of a level is a prefix of them.  A pair joins column j (level n)
    and row i (level n - 1) at the gap g = p_j - p_i.  A generator survives
    to E^r when it is unpaired or its pair has gap >= r; E^r at (p, q, t)
    has one dimension per survivor of that block.  Levels past the trusted
    range of the total complex are omitted.
    """
    T = total_complex(D)
    n_valid = T.s_valid
    # a generator of a trusted level is paired by D_n or D_{n+1}
    top = min(n_valid + 1, T.top)
    gaps: list = [{} for _ in range(top + 1)]
    pairs = _pairs(T, top)
    for n in range(1, top + 1):
        lower, upper = T.levels[n - 1], T.levels[n]
        for j, i in pairs[n].items():
            gaps[n][j] = gaps[n - 1][i] = upper[j][0][0] - lower[i][0][0]
    pages = []
    for r in range(r_max + 1):
        entries: dict = {}
        for n in range(n_valid + 1):
            for k, ((p, q, _), t) in enumerate(T.levels[n]):
                if gaps[n].get(k, r) >= r:
                    entries[(p, q, t)] = entries.get((p, q, t), 0) + 1
        pages.append(SpectralSequencePage(r, entries, n_valid))
    return pages


def r_stable(D: DoubleComplex) -> int:
    """Index of the first page past every possible differential."""
    keys = sorted(D.gens)
    p_span = max(p for (p, _) in keys) + 1
    q_span = max(q for (_, q) in keys) + 1
    return max(p_span, q_span) + 1


def e_infinity(D: DoubleComplex):
    """(page, r_stab): the first page past every possible differential."""
    r_stab = r_stable(D)
    return sseq_pages(D, r_stab)[r_stab], r_stab
