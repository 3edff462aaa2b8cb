"""Two-sided bar constructions over chain-level algebra models.

The pieces here glue the tensor-power machinery to resolutions: a model is
a chain complex with a compatible product, a module is its coefficients
concentrated in chain degree zero, and the two-sided bar of a pair of
modules produces a double complex whose total homology is the payoff.

HH over the d-sphere comes from the (d-1)-sphere by one such bar
(suspension_bar): for d = 1 it is A over A (x) A (circle_bar); for d >= 2
it is A over the normalized shuffle model of the (d-1)-sphere, with A as
coefficients on both sides.

Block (p, q) of the bar lists (i_m, word, k_n), the words W_pq being the
p-tuples of model basis elements whose levels sum to q, in product order;
(i_m, the w-th word, k_n) sits at (i_m |W_pq| + w) dim N + k_n.
d_h = mu_M (x) 1 (x) 1 + 1 (x) b' (x) 1 + (-1)^p 1 (x) 1 (x) mu_N, where b'
merges letters f - 1 and f with sign (-1)^f, and d_v = 1 (x) d (x) 1, d on
letter l with sign (-1)^(p + t(m) + levels and degrees of the letters before
l); with the (-1)^p the squares anticommute as built.
"""

from __future__ import annotations

import itertools

from .algebra import GradedAlgebra, tensor_algebras, unit_adapted
from .chains import (
    BettiTable,
    ChainComplex,
    ChainError,
    DoubleComplex,
    total_complex,
)
from .loday import _shuffle_chain, loday_complex
from .matrix import SMat
from .simplicial import sphere_min

__all__ = [
    "DGAlgebraModel",
    "DGModule",
    "algebra_model",
    "loday_model",
    "augmentation_module",
    "circle_bar",
    "two_sided_bar",
    "suspension_bar",
    "hh_via_suspension",
]


class DGAlgebraModel:
    """A chain complex carrying a chain-level product and a unit cycle.

    ``mul(p, i, q, j)`` expands the product of the i-th level-p and j-th
    level-q basis elements in level p + q coordinates; it is only defined
    while p + q stays inside the stored range.  ``unit`` is a sparse
    level-zero vector acting as a two-sided identity.  Signs follow total
    degree, chain level plus internal degree.
    """

    __slots__ = ("complex", "unit", "commutative", "_mul", "_cache")

    def __init__(self, complex: ChainComplex, mul, unit: dict, commutative: bool):
        self.complex = complex
        self.unit = dict(unit)
        self.commutative = bool(commutative)
        self._mul = mul
        self._cache: dict = {}

    @property
    def field(self):
        return self.complex.field

    def mul(self, p: int, i: int, q: int, j: int) -> dict:
        if p + q > self.complex.top:
            raise ChainError(
                f"product at levels ({p}, {q}) falls outside the stored range"
            )
        key = (p, i, q, j)
        out = self._cache.get(key)
        if out is None:
            out = self._mul(p, i, q, j)
            self._cache[key] = out
        return out

    def validate(self) -> "DGAlgebraModel":
        """Unit identity, Leibniz in total degree, and commutativity if flagged."""
        C = self.complex
        field = C.field
        add = field.add_into
        one = field.one
        for p in range(C.top + 1):
            for i in range(C.level_dim(p)):
                for swap in (False, True):
                    acc: dict = {}
                    for u, cu in self.unit.items():
                        prod = self.mul(p, i, 0, u) if swap else self.mul(0, u, p, i)
                        for k, c in prod.items():
                            add(acc, k, cu * c)
                    if acc != {i: one}:
                        side = "right" if swap else "left"
                        raise ChainError(
                            f"unit fails on the {side} at level {p}, index {i}"
                        )
        for p in range(C.top + 1):
            for q in range(C.top + 1 - p):
                n = p + q
                if n == 0:
                    continue
                d_n = C.diffs[n]
                for i in range(C.level_dim(p)):
                    t_i = C.levels[p][i][1]
                    x_odd = (p + t_i) % 2
                    for j in range(C.level_dim(q)):
                        lhs: dict = {}
                        for k, c in self.mul(p, i, q, j).items():
                            for r, v in d_n.cols[k].items():
                                add(lhs, r, c * v)
                        rhs: dict = {}
                        if p >= 1:
                            for i2, c in C.diffs[p].cols[i].items():
                                for k, v in self.mul(p - 1, i2, q, j).items():
                                    add(rhs, k, c * v)
                        if q >= 1:
                            for j2, c in C.diffs[q].cols[j].items():
                                cc = -c if x_odd else c
                                for k, v in self.mul(p, i, q - 1, j2).items():
                                    add(rhs, k, cc * v)
                        if lhs != rhs:
                            raise ChainError(
                                f"Leibniz fails at levels ({p}, {q}), "
                                f"indices ({i}, {j})"
                            )
        if self.commutative:
            for p in range(C.top + 1):
                for q in range(p, C.top + 1 - p):
                    for i in range(C.level_dim(p)):
                        t_i = C.levels[p][i][1]
                        for j in range(C.level_dim(q)):
                            t_j = C.levels[q][j][1]
                            flip = ((p + t_i) * (q + t_j)) % 2
                            ba = self.mul(q, j, p, i)
                            if flip:
                                ba = {k: field(-v) for k, v in ba.items()}
                            if self.mul(p, i, q, j) != ba:
                                raise ChainError(
                                    f"commutativity fails at levels ({p}, {q})"
                                )
        return self


class DGModule:
    """Coefficients concentrated in chain degree zero, acted on by a model.

    ``gens`` lists (name, internal degree) pairs and ``act`` maps pairs
    (generator index, level-zero basis index) to sparse expansions over the
    generators.  ``side`` records whether the action is written m.b or b.n,
    which fixes the composition order checked by validate.
    """

    __slots__ = ("model", "gens", "act", "side")

    def __init__(self, model: DGAlgebraModel, gens, act: dict, side: str):
        if side not in ("right", "left"):
            raise ChainError(f"unknown module side {side!r}")
        self.model = model
        self.gens = tuple(gens)
        self.act = dict(act)
        self.side = side

    def _act_on(self, i: int, vec: dict) -> dict:
        """Generator i acted on by a sparse level-zero vector."""
        add = self.model.field.add_into
        acc: dict = {}
        for u, cu in vec.items():
            for k, c in self.act.get((i, u), {}).items():
                add(acc, k, cu * c)
        return acc

    def validate(self) -> "DGModule":
        B = self.model
        add = B.field.add_into
        dim0 = B.complex.level_dim(0)
        nm = len(self.gens)
        for i in range(nm):
            if self._act_on(i, B.unit) != {i: B.field.one}:
                raise ChainError("module action does not respect the unit")
        for u in range(dim0):
            for v in range(dim0):
                prod = B.mul(0, u, 0, v)
                for i in range(nm):
                    via = self._act_on(i, prod)
                    # apply one factor after the other, in the order the
                    # side dictates: (m.u).v against m.(uv), or u.(v.n)
                    # against (uv).n
                    first, second = (u, v) if self.side == "right" else (v, u)
                    steps: dict = {}
                    for k, c in self.act.get((i, first), {}).items():
                        for k2, c2 in self.act.get((k, second), {}).items():
                            add(steps, k2, c * c2)
                    if steps != via:
                        raise ChainError("module action fails associativity")
        for col in B.complex.diffs[1].cols if B.complex.top >= 1 else ():
            if any(self._act_on(i, col) for i in range(nm)):
                raise ChainError("module action does not kill level-one boundaries")
        return self


def algebra_model(A: GradedAlgebra) -> DGAlgebraModel:
    """A graded algebra viewed as a one-level chain model."""
    levels = [list(zip(A.names, A.degrees))]
    C = ChainComplex(A.field, levels, [None], s_valid=0)

    def mul(p, i, q, j, _A=A):
        return dict(_A.mul_basis(i, j))

    return DGAlgebraModel(C, mul, A.unit, A.commutative)


def loday_model(A: GradedAlgebra, X, q_top: int) -> DGAlgebraModel:
    """Normalized tensor-power model of a space with the shuffle product.

    Levels and products are stored up to level q_top, so anything consuming
    the model should stay inside that window; every stored pair is
    validated.  The generators are monomials in the unit-adapted basis of A
    (see loday_complex).
    """
    L = loday_complex(A, X, q_top)
    C, _frees, _pis = L.normalized_data()
    one = A.field.one

    def mul(p, i, q, j, _L=L):
        return _shuffle_chain(_L, (p, {i: one}), (q, {j: one}))

    (u,) = L.algebra.unit
    unit = {L.index[0][(u,) * len(L.simps[0])]: one}
    return DGAlgebraModel(C, mul, unit, True).validate()


def augmentation_module(B: DGAlgebraModel, A: GradedAlgebra, side: str) -> DGModule:
    """A as coefficients of a model, acted on by multiplying out level zero.

    Needs the level-zero basis to be named by tuples of basis indices of
    the unit-adapted copy of A (see algebra.unit_adapted), which is what
    loday_model produces.  The module is written in that basis as well.
    """
    A = unit_adapted(A).source
    gens = list(zip(A.names, A.degrees))
    act: dict = {}
    for j, (phi, _t) in enumerate(B.complex.levels[0]):
        if not isinstance(phi, tuple):
            raise ChainError("level-zero names must be index tuples")
        for i in range(A.dim):
            word = (i, *phi) if side == "right" else (*phi, i)
            vec = A.product_chain(word)
            if vec:
                act[(i, j)] = vec
    return DGModule(B, gens, act, side)


def two_sided_bar(
    M: DGModule, B: DGAlgebraModel, N: DGModule, p_max: int
) -> DoubleComplex:
    """Double complex M (x) B^p (x) N: bar faces across, inner differential down.

    d_h = mu_M (x) 1 (x) 1 + 1 (x) b' (x) 1 + (-1)^p 1 (x) 1 (x) mu_N and
    d_v = 1 (x) d (x) 1 with sign (-1)^(p + t(m) + levels and degrees of the
    letters before the one d acts on), so the squares anticommute as built;
    (i_m, w-th word of W_pq, k_n) sits at (i_m |W_pq| + w) dim N + k_n (see
    the module docstring).  Only the outer faces act on i_m and k_n, so the
    terms of each word are worked out once and copied to every (i_m, k_n).

    Only blocks with p + q <= p_max inside the stored top of the model are
    built, as totals read no level above p_max.  Totals through degree
    p_max read model levels <= p_max - 1 only, so s_valid is p_max - 1, or
    min(p_max - 1, top of B) when B is not exact.  The unit, associativity
    and boundary checks of the module actions run first; the bar itself is
    checked once, on the total complex (``total_complex``).
    """
    if p_max < 1:
        raise ChainError(f"column bound must be at least 1, got {p_max}")
    if M.model is not B or N.model is not B:
        raise ChainError("modules must be defined over the given model")
    if M.side != "right" or N.side != "left":
        raise ChainError("need a right module on the left and a left module on the right")
    M.validate()
    N.validate()
    field = B.field
    C = B.complex
    flat = [(q, j) for q in range(C.top + 1) for j in range(C.level_dim(q))]
    tB = {(q, j): C.levels[q][j][1] for (q, j) in flat}
    nM, nN = len(M.gens), len(N.gens)
    pairs = list(itertools.product(range(nM), range(nN)))
    # W[(p, q)]: words of p letters from flat with levels summing to q, in
    # product order; dropping the last letter of one leaves a word of p - 1
    W: dict = {}
    level = [((), 0)]
    for p in range(p_max + 1):
        budget = min(C.top, p_max - p)
        if p:
            level = [
                (u + (w,), s + w[0]) for u, s in level for w in flat if s + w[0] <= budget
            ]
        for word, s in level:
            W.setdefault((p, s), []).append(word)
    gens: dict = {}
    for key, ws in W.items():
        tw = [sum(tB[w] for w in word) for word in ws]
        gens[key] = [
            ((i_m, word, k_n), t_m + t + t_n)
            for i_m, (_m, t_m) in enumerate(M.gens)
            for word, t in zip(ws, tw)
            for k_n, (_n, t_n) in enumerate(N.gens)
        ]

    def spread(m, w, nw, nr, terms, by_tm):
        # word-level terms (row word, coefficient) into each column
        # (i_m, w, k_n), negated for odd t(m) when by_tm
        for i_m, (_m, t_m) in enumerate(M.gens):
            neg = by_tm and t_m % 2
            rows = [((i_m * nr + r) * nN, -c if neg else c) for r, c in terms]
            col = (i_m * nw + w) * nN
            for k_n in range(nN):
                for row, c in rows:
                    m.add_at(row + k_n, col + k_n, c)

    d_h: dict = {}
    d_v: dict = {}
    for (p, q), ws in sorted(W.items()):
        nw = len(ws)
        if q >= 1 and (p, q - 1) in W:
            rows = {word: r for r, word in enumerate(W[(p, q - 1)])}
            m = d_v[(p, q)] = SMat(nM * len(rows) * nN, nM * nw * nN, field)
            for w, word in enumerate(ws):
                terms, pref = [], p
                for l, (ql, jl) in enumerate(word):
                    for j2, c in C.diffs[ql].cols[jl].items() if ql else ():
                        w2 = word[:l] + ((ql - 1, j2),) + word[l + 1 :]
                        terms.append((rows[w2], -c if pref % 2 else c))
                    pref += ql + tB[(ql, jl)]
                spread(m, w, nw, len(rows), terms, True)
        if p >= 1:
            rows = {word: r for r, word in enumerate(W.get((p - 1, q), ()))}
            nr = len(rows)
            m = d_h[(p, q)] = SMat(nM * nr * nN, nM * nw * nN, field)
            for w, word in enumerate(ws):
                (q1, j1), (qp, jp) = word[0], word[-1]
                for i_m, k_n in pairs if q1 == 0 else ():
                    for i2, c in M.act.get((i_m, j1), {}).items():
                        row = (i2 * nr + rows[word[1:]]) * nN + k_n
                        m.add_at(row, (i_m * nw + w) * nN + k_n, c)
                inner = []
                for f in range(1, p):
                    (qa, ja), (qb, jb) = word[f - 1 : f + 1]
                    for j2, c in B.mul(qa, ja, qb, jb).items():
                        w2 = word[: f - 1] + ((qa + qb, j2),) + word[f + 1 :]
                        inner.append((rows[w2], -c if f % 2 else c))
                spread(m, w, nw, nr, inner, False)
                for i_m, k_n in pairs if qp == 0 else ():
                    for k2, c in N.act.get((k_n, jp), {}).items():
                        row = (i_m * nr + rows[word[:-1]]) * nN + k2
                        m.add_at(row, (i_m * nw + w) * nN + k_n, -c if p % 2 else c)
    s_valid = p_max - 1 if C.s_valid == C.top else min(p_max - 1, C.top)
    return DoubleComplex(field, gens, d_h, d_v, s_valid)


def circle_bar(A: GradedAlgebra, p_max: int) -> DoubleComplex:
    """Two-sided bar of A over A (x) A.

    The total complex carries the homology of A over the circle; columns
    run to p_max, so totalization is trusted for s <= p_max - 1.
    """
    if not A.commutative:
        raise ChainError("the two-sided bar over A (x) A needs a commutative algebra")
    E = tensor_algebras(A, A)
    B = algebra_model(E).validate()
    dA = A.dim
    gens = list(zip(A.names, A.degrees))
    abi = list(itertools.product(range(dA), repeat=3))
    act_r = {(i, a * dA + b): A.product_chain((i, a, b)) for a, b, i in abi}
    act_l = {(i, a * dA + b): A.product_chain((a, b, i)) for a, b, i in abi}
    M = DGModule(B, gens, act_r, "right")
    N = DGModule(B, gens, act_l, "left")
    return two_sided_bar(M, B, N, p_max)


def suspension_bar(A: GradedAlgebra, d: int, p_max: int) -> DoubleComplex:
    """The bar double complex whose total homology is A over the d-sphere.

    For d = 1 it is circle_bar; for d >= 2 the two-sided bar of A over the
    normalized model of the (d-1)-sphere, stored up to level p_max - 1 (at
    least 1): blocks stop at p + q <= p_max, the levels any trusted total
    reads, and those hold model levels <= p_max - 1 only.
    """
    if d < 1:
        raise ChainError(f"sphere dimension must be at least 1, got {d}")
    if d == 1:
        return circle_bar(A, p_max)
    B = loday_model(A, sphere_min(d - 1), max(p_max - 1, 1))
    M = augmentation_module(B, A, "right")
    N = augmentation_module(B, A, "left")
    return two_sided_bar(M, B, N, p_max)


def hh_via_suspension(A: GradedAlgebra, d: int, s_max: int) -> BettiTable:
    """Homology over the d-sphere through the two-sided bar construction.

    The total complex of suspension_bar with columns to s_max + 1: the base
    model is A (x) A when d = 1; for d >= 2 it is the normalized model of
    the (d-1)-sphere with the shuffle product, stored up to level s_max (at
    least 1).  Blocks stop at p + q <= s_max + 1, the window the requested
    range needs.
    """
    if s_max < 0:
        raise ChainError(f"window bound must be nonnegative, got {s_max}")
    T = total_complex(suspension_bar(A, d, s_max + 1))
    return T.homology(s_max, provenance="bar-suspension")
