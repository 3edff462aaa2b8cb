"""Fixtures and oracles shared by several test modules."""

from fractions import Fraction

from hhx.algebra import make_algebra
from hhx.chains import BettiTable, ChainError, DoubleComplex
from hhx.fields import QQ
from hhx.matrix import SMat
from hhx.simplicial import Simp, SimplicialMap, SimplicialSet, disjoint_union


def from_commuting(field, gens, d_h, d_v, s_valid=None) -> DoubleComplex:
    """A double complex from commuting squares: the vertical maps at column
    p are multiplied by (-1)^p so the stored squares anticommute."""
    twisted = {(p, q): m.scale(-1) if p % 2 else m for (p, q), m in d_v.items()}
    return DoubleComplex(field, gens, d_h, twisted, s_valid=s_valid)


def block_square_faults(D: DoubleComplex) -> set:
    """The blocks (p, q) where d_h^2, d_v^2 or d_h d_v + d_v d_h is nonzero,
    from products of whole blocks: the oracle for the d^2 check of the
    total complex.  A missing block is a zero map of its shape."""

    def block(table, p, q, tgt):
        m = table.get((p, q))
        return SMat(D.dim(*tgt), D.dim(p, q), D.field) if m is None else m

    def h(p, q):
        return block(D.d_h, p, q, (p - 1, q))

    def v(p, q):
        return block(D.d_v, p, q, (p, q - 1))

    faults = set()
    for p, q in D.gens:
        squares = (h(p - 1, q) @ h(p, q), v(p, q - 1) @ v(p, q))
        anti = h(p, q - 1) @ v(p, q) + v(p - 1, q) @ h(p, q)
        if any(m.nnz for m in squares + (anti,)):
            faults.add((p, q))
    return faults


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
    top = max((c.dim for c in cells), default=-1)
    levels = [[c.name for c in cells if c.dim == n] for n in range(top + 1)]
    index = [{name: i for i, name in enumerate(lv)} for lv in levels]
    diffs = [None]
    for n in range(1, top + 1):
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


def functorial_on_all_triples(F) -> bool:
    """F(a, c) = F(b, c) F(a, b) on every chain a < b < c of the poset."""
    return all(
        F.maps[(a, c)] == F.maps[(b, c)] @ F.maps[(a, b)] for a, b, c in F.poset.chains(2)
    )


def two_sided_bar_oracle(M, B, N, p_max) -> DoubleComplex:
    """``bar.two_sided_bar`` assembled one generator at a time.

    Every generator (i_m, word, k_n) gets its own row index and works out
    its faces and inner differentials afresh, so nothing is shared between
    generators with the same word.  The module checks and validate are left
    to ``two_sided_bar``.
    """
    field = B.field
    C = B.complex
    flat = [(q, j) for q in range(C.top + 1) for j in range(C.level_dim(q))]
    tB = {(q, j): C.levels[q][j][1] for (q, j) in flat}

    def words(p, budget):
        if p == 0:
            yield ()
            return
        for w in flat:
            if w[0] > budget:
                break
            yield from ((w, *rest) for rest in words(p - 1, budget - w[0]))

    gens: dict = {}
    index: dict = {}
    for p in range(p_max + 1):
        for i_m in range(len(M.gens)):
            for word in words(p, min(C.top, p_max - p)):
                q = sum(w[0] for w in word)
                for k_n in range(len(N.gens)):
                    t = M.gens[i_m][1] + sum(tB[w] for w in word) + N.gens[k_n][1]
                    bucket = gens.setdefault((p, q), [])
                    index.setdefault((p, q), {})[(i_m, word, k_n)] = len(bucket)
                    bucket.append(((i_m, word, k_n), t))
    d_h: dict = {}
    d_v: dict = {}
    for (p, q), bucket in sorted(gens.items()):
        if q >= 1 and (p, q - 1) in gens:
            rows = index[(p, q - 1)]
            m = d_v[(p, q)] = SMat(len(rows), len(bucket), field)
            for cpos, ((i_m, word, k_n), _t) in enumerate(bucket):
                pref = M.gens[i_m][1]
                for l, (ql, jl) in enumerate(word):
                    for j2, c in C.diffs[ql].cols[jl].items() if ql else ():
                        w2 = word[:l] + ((ql - 1, j2),) + word[l + 1 :]
                        m.add_at(rows[(i_m, w2, k_n)], cpos, -c if pref % 2 else c)
                    pref += ql + tB[(ql, jl)]
        if p >= 1:
            rows = index.get((p - 1, q), {})
            m = d_h[(p, q)] = SMat(len(rows), len(bucket), field)
            for cpos, ((i_m, word, k_n), _t) in enumerate(bucket):
                (q1, j1), (qp, jp) = word[0], word[-1]
                for i2, c in M.act.get((i_m, j1), {}).items() if q1 == 0 else ():
                    m.add_at(rows[(i2, word[1:], k_n)], cpos, c)
                for f in range(1, p):
                    (qa, ja), (qb, jb) = word[f - 1 : f + 1]
                    for j2, c in B.mul(qa, ja, qb, jb).items():
                        w2 = word[: f - 1] + ((qa + qb, j2),) + word[f + 1 :]
                        m.add_at(rows[(i_m, w2, k_n)], cpos, -c if f % 2 else c)
                for k2, c in N.act.get((k_n, jp), {}).items() if qp == 0 else ():
                    m.add_at(rows[(i_m, word[:-1], k2)], cpos, -c if p % 2 else c)
    s_valid = p_max - 1 if C.s_valid == C.top else min(p_max - 1, C.top)
    return from_commuting(field, gens, d_h, d_v, s_valid)
