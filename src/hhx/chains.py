"""Bigraded chain complexes with exact sparse linear algebra.

A complex lives in homological degrees 0..top; every generator carries an
internal degree t which all differentials preserve, so homology splits
into (s, t) blocks.  Levels beyond the construction window are unknown,
which the validity bound s_valid makes explicit: homology is only handed
out for s <= s_valid, and every construction (cones, tensors, total
complexes) propagates the bound.

Double complexes are stored with anticommuting differentials.  Their
spectral sequence comes from one column reduction of each differential of
the total complex, filtered by the column index p, as in persistent
homology: a generator survives to E^r unless the reduction pairs it with
a generator at most r - 1 columns away, and d_r matches the pairs exactly
r columns apart.
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
        self.entries = {k: v for k, v in entries.items() if v}
        for (s, t), v in self.entries.items():
            if v < 0:
                raise ChainError(f"negative dimension at ({s}, {t})")
            if s > s_valid:
                raise ChainError(f"entry at s={s} beyond validity bound {s_valid}")
            del t
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
        entries = {}
        for e in obj["entries"]:
            entries[(e["s"], e["t"])] = e["dim"]
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


def _t_blocks(gens) -> dict:
    out: dict = {}
    for i, (_, t) in enumerate(gens):
        out.setdefault(t, []).append(i)
    return out


def _betti(levels, n_max: int, block_rank) -> dict:
    """{(n, t): dimension of (co)homology} at each level n <= n_max.

    The maps join consecutive levels, in either direction, and preserve t.
    block_rank(n, idx, up) is the rank of the t block between levels n and
    n + 1, given its generator indices idx at level n and up at level n + 1
    (up nonempty); a t missing at either end has a block of rank 0.  Each
    block is ranked once and its rank is taken off both of its levels: at
    one it is the rank of the image, at the other that of the coimage.
    """
    blocks = [_t_blocks(lv) for lv in levels[: n_max + 2]]
    out = {}
    r_prev: dict = {}
    for n in range(n_max + 1):
        r_here = {}
        for t, idx in blocks[n].items():
            up = blocks[n + 1].get(t) if n + 1 < len(blocks) else None
            r_here[t] = r = block_rank(n, idx, up) if up else 0
            h = len(idx) - r_prev.get(t, 0) - r
            if h:
                out[(n, t)] = h
        r_prev = r_here
    return out


def _block_rank(d: SMat, rows, cols) -> int:
    """Rank of d on the given ascending row and column indices.  A block
    that spans all of d ranks d itself: no copy, and the rank is cached."""
    if len(rows) == d.nrows and len(cols) == d.ncols:
        return d.rank()
    return d.restrict(rows, cols).rank()


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
    exact_top means the complex genuinely stops at the top level, so every
    degree is trusted; otherwise s_valid defaults to top - 1.
    """

    __slots__ = ("field", "levels", "diffs", "s_valid", "exact_top")

    def __init__(self, field: Field, levels, diffs, s_valid=None, exact_top=False):
        self.field = field
        self.levels = [tuple(lv) for lv in levels]
        self.diffs = list(diffs)
        if len(self.diffs) != len(self.levels):
            raise ChainError("need one differential slot per level")
        self.exact_top = bool(exact_top)
        top = len(self.levels) - 1
        if self.exact_top:
            self.s_valid = top
        elif s_valid is None:
            self.s_valid = top - 1
        else:
            if s_valid > top:
                raise ChainError(f"s_valid {s_valid} beyond top level {top}")
            self.s_valid = s_valid
        self._check_shapes()

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
        """d^2 = 0 and internal-degree preservation, checked exactly."""
        for s in range(2, self.top + 1):
            if not (self.diffs[s - 1] @ self.diffs[s]).is_zero():
                raise ChainError(f"d^2 != 0 between levels {s} and {s - 2}")
        for s in range(1, self.top + 1):
            what = f"differential at level {s}"
            _check_degrees(self.diffs[s], self.levels[s], self.levels[s - 1], what)
        return self

    def homology(self, s_max: int | None = None, provenance: str = "chain") -> BettiTable:
        """Betti table for s <= s_max, refusing windows beyond s_valid."""
        if s_max is None:
            s_max = self.s_valid
        if s_max > self.s_valid:
            raise ChainError(
                f"homology requested to s={s_max} but trusted only to {self.s_valid}"
            )
        out = _betti(
            self.levels, s_max,
            lambda s, idx, up: _block_rank(self.diffs[s + 1], idx, up),
        )
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
            for j, col in enumerate(tgt.diffs[s].cols):
                for i, v in col.items():
                    d.add_at(i, j, v)
        for j, col in enumerate(f.mats[s - 1].cols):
            for i, v in col.items():
                d.add_at(i, nt + j, v)
        if s >= 2 and s - 1 <= src.top:
            for j, col in enumerate(src.diffs[s - 1].cols):
                for i, v in col.items():
                    d.add_at(mt + i, nt + j, -v)
        diffs.append(d)
    exact = src.exact_top and tgt.exact_top
    s_valid = top if exact else min(src.s_valid + 1, tgt.s_valid)
    return ChainComplex(field, levels, diffs, s_valid=s_valid, exact_top=exact)


# ------------------------------------------------------------- double side


class DoubleComplex:
    """Anticommuting bigraded complex, columns indexed by p, rows by q.

    gens[(p, q)] lists (name, t); d_h[(p, q)] maps to (p-1, q) and
    d_v[(p, q)] to (p, q-1), with d_h d_v + d_v d_h = 0 as stored.
    Validity: p_exact means no column truncation on the right; q_valid[p]
    bounds the trustworthy internal levels of column p (None = exact).
    """

    __slots__ = ("field", "gens", "d_h", "d_v", "p_exact", "q_valid")

    def __init__(self, field, gens, d_h, d_v, p_exact=True, q_valid=None):
        self.field = field
        self.gens = {k: tuple(v) for k, v in gens.items() if v}
        self.d_h = d_h
        self.d_v = d_v
        self.p_exact = bool(p_exact)
        self.q_valid = dict(q_valid or {})

    @classmethod
    def from_commuting(cls, field, gens, d_h, d_v, p_exact=True, q_valid=None):
        """Build from commuting squares; the vertical maps at column p get
        multiplied by (-1)^p so squares anticommute."""
        twisted = {}
        for (p, q), m in d_v.items():
            twisted[(p, q)] = m.scale(field(-1)) if p % 2 else m
        return cls(field, gens, d_h, twisted, p_exact=p_exact, q_valid=q_valid)

    def dim(self, p: int, q: int) -> int:
        return len(self.gens.get((p, q), ()))

    @property
    def p_range(self):
        return sorted({p for (p, _) in self.gens})

    def _mat(self, table, p, q, tp, tq) -> SMat:
        m = table.get((p, q))
        if m is None:
            return SMat(self.dim(tp, tq), self.dim(p, q), self.field)
        return m

    def h(self, p, q) -> SMat:
        return self._mat(self.d_h, p, q, p - 1, q)

    def v(self, p, q) -> SMat:
        return self._mat(self.d_v, p, q, p, q - 1)

    def validate(self):
        for (p, q) in self.gens:
            hm = self.h(p, q)
            vm = self.v(p, q)
            if (hm.nrows, hm.ncols) != (self.dim(p - 1, q), self.dim(p, q)):
                raise ChainError(f"horizontal map at ({p}, {q}) has the wrong shape")
            if (vm.nrows, vm.ncols) != (self.dim(p, q - 1), self.dim(p, q)):
                raise ChainError(f"vertical map at ({p}, {q}) has the wrong shape")
            if not (self.h(p - 1, q) @ hm).is_zero():
                raise ChainError(f"d_h^2 != 0 at ({p}, {q})")
            if not (self.v(p, q - 1) @ vm).is_zero():
                raise ChainError(f"d_v^2 != 0 at ({p}, {q})")
            anti = (self.h(p, q - 1) @ vm) + (self.v(p - 1, q) @ hm)
            if not anti.is_zero():
                raise ChainError(f"squares do not anticommute at ({p}, {q})")
            for table, which, tgt in (
                (self.d_h, "horizontal", (p - 1, q)),
                (self.d_v, "vertical", (p, q - 1)),
            ):
                m = table.get((p, q))
                if m is not None:
                    what = f"{which} map at ({p}, {q})"
                    _check_degrees(m, self.gens[(p, q)], self.gens.get(tgt, ()), what)
        return self

    def s_bound(self):
        """(s_valid, exact) for anything totalized out of this data."""
        bounds = []
        if not self.p_exact:
            bounds.append(max(self.p_range, default=0) - 1)
        for qv in self.q_valid.values():
            if qv is not None:
                bounds.append(qv)
        if not bounds:
            top = max((p + q for (p, q) in self.gens), default=0)
            return top, True
        return min(bounds), False


def total_complex(D: DoubleComplex) -> ChainComplex:
    """Levels n = sum of blocks (p, q) with p + q = n, blocks by ascending p."""
    field = D.field
    keys = sorted(D.gens)
    if not keys:
        return ChainComplex(field, [()], [None], exact_top=True)
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
            hm = D.h(p, q)
            if (p - 1, q) in offsets[n - 1]:
                tb = offsets[n - 1][(p - 1, q)]
                for j, col in enumerate(hm.cols):
                    for i, v in col.items():
                        d.add_at(tb + i, base + j, v)
            vm = D.v(p, q)
            if (p, q - 1) in offsets[n - 1]:
                tb = offsets[n - 1][(p, q - 1)]
                for j, col in enumerate(vm.cols):
                    for i, v in col.items():
                        d.add_at(tb + i, base + j, v)
        diffs.append(d)
    s_valid, exact = D.s_bound()
    if exact:
        return ChainComplex(field, levels, diffs, exact_top=True)
    return ChainComplex(field, levels, diffs, s_valid=min(s_valid, top - 1))


class SpectralSequencePage:
    """One page: dimensions and differentials per (p, q, t), plus trust data.

    The basis of E^r at (p, q, t) is the pair basis of ``sseq_pages``: the
    generators of that block that are unpaired or paired at a gap >= r, in
    total-complex order.  d[(p, q, t)] is d_r into (p - r, q + r - 1, t) on
    these bases, a 0/1 matrix with one entry per pair at gap exactly r (a
    0-row matrix when that target is zero).  Entries outside the trusted
    total range are omitted entirely.
    """

    __slots__ = ("r", "entries", "d", "n_valid")

    def __init__(self, r, entries, d, n_valid):
        self.r = r
        self.entries = {k: v for k, v in entries.items() if v}
        self.d = d
        self.n_valid = n_valid

    def dim(self, p: int, q: int) -> int:
        return sum(v for (pp, qq, _), v in self.entries.items() if (pp, qq) == (p, q))

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


def _pivots(d: SMat) -> dict:
    """{column: pivot row} of the left-to-right column reduction of d.

    The pivot of a column is its last nonzero row.  A column whose pivot an
    earlier reduced column holds takes a multiple of that column away until
    its pivot is free or it is zero, so the earliest column keeps a pivot.
    Reduced columns are stored scaled to pivot one.
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


def sseq_pages(D: DoubleComplex, r_max: int) -> list:
    """Pages E^0..E^{r_max} of the column filtration, split by internal t.

    Each differential of the total complex goes through one column
    reduction (``_pivots``), as in persistent homology: the coordinates of
    a level are sorted by p, so F_p of a level is a prefix of them.  The
    differential preserves t, so reducing a whole level reduces its t-blocks
    side by side.  A pivot pairs column j (level n) with row i (level n - 1)
    at the gap g = p_j - p_i.  A generator survives to E^r when it is
    unpaired or its pair has gap >= r; the survivors of a block (p, q, t),
    in total-complex order, are the basis of E^r there.  A column j stands
    for the class of V_j (R_j = D V_j in the reduction) scaled so that R_j
    has pivot one, a row i paired with j for the class of that R_j; on
    these classes d_r is the 0/1 matching of the pairs at gap exactly r.
    Entries with p + q beyond the trusted total range are refused (omitted).
    """
    field = D.field
    n_valid, exact = D.s_bound()
    if not D.gens:
        return [SpectralSequencePage(r, {}, {}, 0) for r in range(r_max + 1)]
    T = total_complex(D)
    if exact:
        n_valid = T.top
    # a generator of a trusted level is paired by D_n or D_{n+1}
    top = min(n_valid + 1, T.top)
    pivots = [{}] + [_pivots(T.diffs[n]) for n in range(1, top + 1)]
    gaps: list = [{} for _ in range(top + 1)]
    for n in range(1, top + 1):
        lower, upper = T.levels[n - 1], T.levels[n]
        for j, i in pivots[n].items():
            gaps[n][j] = gaps[n - 1][i] = upper[j][0][0] - lower[i][0][0]
    pages = []
    for r in range(r_max + 1):
        basis: dict = {}
        for n in range(min(n_valid, T.top) + 1):
            for k, ((p, q, _), t) in enumerate(T.levels[n]):
                if gaps[n].get(k, r) >= r:
                    basis.setdefault((p, q, t), []).append(k)
        d = {}
        for (p, q, t), ks in basis.items():
            tgt = basis.get((p - r, q + r - 1, t))
            if tgt is None:
                if p - r >= 0:
                    # target is zero: record the zero matrix for shape fidelity
                    d[(p, q, t)] = SMat(0, len(ks), field)
                continue
            row = {i: pos for pos, i in enumerate(tgt)}
            low, gap = pivots[p + q], gaps[p + q]
            d[(p, q, t)] = SMat(len(tgt), len(ks), field, [
                {row[low[j]]: field.one} if j in low and gap[j] == r else {}
                for j in ks
            ])
        entries = {key: len(ks) for key, ks in basis.items()}
        pages.append(SpectralSequencePage(r, entries, d, n_valid))
    return pages


def r_stable(D: DoubleComplex) -> int:
    """Index of the first page past every possible differential (0 if empty)."""
    keys = sorted(D.gens)
    if not keys:
        return 0
    p_span = max(p for (p, _) in keys) + 1
    q_span = max(q for (_, q) in keys) + 1
    return max(p_span, q_span) + 1


def e_infinity(D: DoubleComplex):
    """(page, r_stab): the first page past every possible differential."""
    r_stab = r_stable(D)
    return sseq_pages(D, r_stab)[r_stab], r_stab
