"""Chain models built from tensor powers of an algebra over a space.

For a commutative graded algebra A and a finite space X, level n of the
unnormalized model is spanned by the monomials: functions from the
n-simplices of X to the basis of A.  A face map of X regroups tensor factors
and multiplies the ones that collide; the alternating sum of these gives the
differential, and homology is higher Hochschild homology of A over X.

The normalized model divides out the images of the degeneracies.  It is
built directly, in a unit-adapted basis of A: a copy of A whose unit is a
basis vector e_u (see algebra.unit_adapted).  A degeneracy s_j is injective
on simplices and sends a monomial to the one that holds e_u at every
position outside the image of s_j, up to sign.  So the degenerate part is
spanned by the monomials whose non-unit positions all lie in the image of a
single s_j; the other monomials, in lexicographic order, are the normalized
basis, and the normalized differential drops degenerate monomials from its
targets.

An optional base T, a commutative algebra mapping into A, turns every tensor
product into one over T (Hochschild's relative setting).  A must be free over
T; its module basis is taken with the unit g_0 = 1 first, so A = T (x) V with
V spanned by the g_j, and the tensor power over T on m positions is
T (x) V^(x)m, with basis (t_tau, g_j1, ..., g_jm): tau runs over a
unit-adapted basis of T and acts as one global coefficient.  A face
multiplies the g's fibre by fibre, writes each product in A as a sum of
t * g, and moves the t's to the front, where they multiply into t_tau, with
the Koszul sign for the g's they pass; an empty fibre gets g_0.  A
degeneracy puts g_0 outside its image and leaves t_tau alone, so the
normalized basis is the same test as above, run on the j's with g_0 as the
unit, and tau free.

cyclic_bar_oracle builds the circle's normalized model on its own, with no
space: the Hochschild complex A (x) Abar^(x)n, Abar = A / k.1, in the
unit-adapted basis, so level n has dim A * (dim A - 1)^n generators.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .algebra import AlgebraError, AlgebraMap, GradedAlgebra, change_basis, unit_adapted
from .chains import BettiTable, ChainComplex, ChainMap
from .matrix import SMat
from .simplicial import SimplicialMap, SimplicialSet

__all__ = [
    "LodayComplex",
    "loday_complex",
    "unnormalized_complex",
    "hh",
    "induced_map",
    "cyclic_bar_oracle",
    "oracle_hh",
]


def _add_level(acc: dict, vec: dict, c0, index: dict, add) -> None:
    """acc += c0 * vec, with the monomials of vec rewritten as coordinates.

    index sends a monomial to its coordinate; a monomial it lacks is zero in
    the level (a degenerate one, in a normalized level).  add is the
    field's add_into.
    """
    for psi, c in vec.items():
        g = index.get(psi)
        if g is not None:
            add(acc, g, c0 * c)


def _positions(names) -> dict:
    return {phi: k for k, phi in enumerate(names)}


def _no_factors(phi) -> tuple:
    return ()


class _Push:
    """Linear map A^(x)m -> A^(x)m' induced by a map of position sets.

    tp[k] is the target position of source position k.  Each target fiber
    multiplies in source order, empty fibers receive the unit, and moving
    odd factors past each other while regrouping contributes the usual
    sign.

    column works in this order: the colliding and empty fibers multiply
    first, and a zero product ends the column; only a nonzero image then
    copies the lone factors, counts the sign and expands the products that
    are not basis vectors.
    """

    __slots__ = ("A", "m", "lone", "multi", "odd", "pairs", "signs", "products")

    def __init__(self, A: GradedAlgebra, tp, m_tgt: int):
        self.A = A
        self.m = m_tgt
        tp = list(tp)
        fibers = [[] for _ in range(m_tgt)]
        for k, p in enumerate(tp):
            fibers[p].append(k)
        # by the unit law a lone factor is its own product; an empty fiber
        # multiplies to the unit, which branches when it is not a basis
        # vector, so it goes with the colliding fibers
        self.lone, self.multi = [], []
        for p, fib in enumerate(fibers):
            if len(fib) == 1:
                self.lone.append((p, fib[0]))
            else:
                self.multi.append((p, itemgetter(*fib) if fib else _no_factors))
        self.odd = [d % 2 == 1 for d in A.degrees]
        self.signs = (A.field.one, A.field(-1))
        self.products: dict = {}
        if any(self.odd):
            n = len(tp)
            self.pairs = [(k, l) for k in range(n) for l in range(k + 1, n) if tp[k] > tp[l]]
        else:
            self.pairs = None

    def _product(self, factors):
        """The basis index when the product is a basis vector, else its terms."""
        exp = self.A.product_chain(factors)
        if len(exp) == 1:
            (i, c), = exp.items()
            if c == self.A.field.one:
                return i
        return list(exp.items())

    def column(self, phi) -> dict:
        """Image of a basis function, keyed by target tuple."""
        products = self.products
        psi = [0] * self.m
        branch = []
        for p, get in self.multi:
            key = get(phi)
            prod = products.get(key)
            if prod is None:
                prod = products[key] = self._product(key)
            if isinstance(prod, int):
                psi[p] = prod
            elif not prod:
                return {}
            else:
                branch.append((p, prod))
        for p, k in self.lone:
            psi[p] = phi[k]
        flips = 0
        if self.pairs is not None:
            odd = self.odd
            for k, l in self.pairs:
                if odd[phi[k]] and odd[phi[l]]:
                    flips += 1
        sign = self.signs[flips % 2]
        if not branch:
            return {tuple(psi): sign}
        # distinct choices at the branching fibers give distinct targets
        field = self.A.field
        out: dict = {}
        for combo in itertools.product(*(terms for _, terms in branch)):
            c = sign
            for (p, _), (i, cv) in zip(branch, combo):
                psi[p] = i
                c = c * cv
            out[tuple(psi)] = field(c)
        return out


class _RelativePush(_Push):
    """The push of _Push, read in A^(x)_T m' = T (x) V^(x)m'.

    A is written in a base-adapted basis (see _base_adapted): index
    k * dim T + s holds base(t_s) * g_k.  A relative monomial holds t_tau at
    position 0 and the unit t_u of T everywhere else.  The push multiplies
    in A; every t of the result then moves to position 0, paying the Koszul
    sign of the g's it passes, and the t's multiply in T.
    """

    __slots__ = ("T", "u", "tdeg", "gdeg", "gathered")

    def __init__(self, A: GradedAlgebra, T: GradedAlgebra, tp, m_tgt: int):
        super().__init__(A, tp, m_tgt)
        self.T = T
        (self.u,) = T.unit
        self.tdeg = [d % 2 for d in T.degrees]
        self.gdeg = [d % 2 for d in A.degrees[self.u :: T.dim]]
        self.gathered: dict = {}

    def _gather(self, psi) -> dict:
        """A monomial of the push, as {relative monomial: coeff}."""
        dT, u = self.T.dim, self.u
        ks = [i // dT for i in psi]
        ts = [i % dT for i in psi]
        flips = 0
        passed = 0
        for k, t in zip(ks, ts):
            if self.tdeg[t]:
                flips += passed
            passed += self.gdeg[k]
        sign = self.signs[flips % 2]
        rest = tuple(k * dT + u for k in ks[1:])
        prod = self.T.product_chain([t for t in ts if t != u])
        return {(ks[0] * dT + r,) + rest: sign * c for r, c in prod.items()}

    def column(self, phi) -> dict:
        add = self.A.field.add_into
        out: dict = {}
        for psi, c in super().column(phi).items():
            moved = self.gathered.get(psi)
            if moved is None:
                moved = self.gathered[psi] = self._gather(psi)
            for chi, cc in moved.items():
                add(out, chi, c * cc)
        return out


def _module_basis(A: GradedAlgebra, ts) -> list[dict]:
    """t * g for t in ts and g in a free basis of A over their span, unit first.

    ts are the images of a basis of the base.  The unit comes first; it
    spans a full copy of the base exactly when the base map is injective,
    which freeness of positive rank forces.  Further candidates are
    homogeneous: basis elements and sums of two of the same degree.  Each
    step keeps the first candidate whose base-span grows the running span
    by a full copy of the base.  A successful run proves freeness (the
    evaluation map is onto and the dimensions match); failure means not
    free, or free in a way this search cannot see, which does not happen
    for the shipped algebras.
    """
    field = A.field
    dT = len(ts)
    if A.dim % dT:
        raise AlgebraError(
            f"algebra is not free over the base: dimension {A.dim} is not a "
            f"multiple of the base dimension {dT}"
        )
    one = field.one
    cands = [{i: one} for i in range(A.dim)]
    cands += [
        {i: one, j: one}
        for i in range(A.dim)
        for j in range(i + 1, A.dim)
        if A.degrees[i] == A.degrees[j]
    ]
    basis: list[dict] = []
    pool = [A.unit]
    while len(basis) < A.dim:
        for cand in pool:
            grown = basis + [A.multiply(t, cand) for t in ts]
            if SMat(A.dim, len(grown), field, grown).rank() == len(grown):
                basis = grown
                break
        else:
            raise AlgebraError(
                "algebra is not free over the base: no generator spans a "
                "full copy of the base over the current span"
            )
        pool = cands
    return basis


def _base_adapted(A: GradedAlgebra, base: AlgebraMap):
    """(B, T): A in a basis adapted to the base, and the base it is adapted to.

    T is the unit-adapted copy of the base algebra (algebra.unit_adapted),
    with basis t_s and unit t_u, and g_0 = 1, g_1, ... is the module basis.
    Index k * dim T + s of B is base(t_s) * g_k, so A = T (x) V with V the
    span of the g_k, and the unit of B is the index u of g_0.
    """
    Tu = unit_adapted(base.source)
    T = Tu.source
    basis = _module_basis(A, (base.matrix @ Tu.matrix).cols)
    B = change_basis(A, basis, [A.show_element(b) for b in basis]).source
    return B, T


def _check_base(A: GradedAlgebra, base) -> None:
    if not isinstance(base, AlgebraMap):
        raise AlgebraError("base must be an algebra map into the coefficients")
    if base.target != A:
        raise AlgebraError("base map target differs from the coefficient algebra")
    if not base.source.commutative:
        raise AlgebraError("base algebra must be commutative")


def _check_inputs(A: GradedAlgebra, N: int) -> None:
    if not A.commutative:
        raise AlgebraError(
            "tensor-power chains need a commutative algebra; use the cyclic "
            "oracle for associative ones"
        )
    if N < 1:
        raise ValueError(f"level bound must be at least 1, got {N}")


def _nondegenerate(dim: int, u: int, X: SimplicialSet, simps, n: int) -> list:
    """Level-n index tuples outside every degeneracy image, in lexicographic order.

    Each position holds one of dim basis indices, u the one of the unit.  A
    tuple is degenerate exactly when its non-unit positions all lie in the
    image of one s_j.  Positions are fixed left to right, and a prefix is
    dropped as soon as one image holds its non-unit positions and every
    later position, since then all its completions are degenerate.
    """
    m = len(simps[n])
    # inside[k]: bit j is set when position k lies in the image of s_j
    inside = [0] * m
    if n:
        where = _positions(simps[n])
        for j in range(n):
            for s in simps[n - 1]:
                inside[where[X.degenerate(s, j)]] |= 1 << j
    every = (1 << n) - 1
    # reach[k]: the images that some position at k or later lies outside of
    reach = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        reach[k] = reach[k + 1] | (every & ~inside[k])
    out: list = []
    # prefixes with the images holding all their non-unit positions; the
    # smallest prefix is popped first
    stack = [((), every)]
    while stack:
        prefix, alive = stack.pop()
        k = len(prefix)
        if alive & ~reach[k]:
            continue
        if k == m:
            out.append(prefix)
            continue
        for i in reversed(range(dim)):
            stack.append((prefix + (i,), alive if i == u else alive & inside[k]))
    return out


def _assemble(A: GradedAlgebra, X: SimplicialSet, simps, names, index, push=_Push):
    """The tensor-power differential on the given monomials of each level.

    names[n] lists the level-n generators and index[n] sends a monomial to
    its coordinate (see _add_level); push(A, tp, m) builds a face push.  An
    empty face image adds nothing, so it is not handed to _add_level.  Run
    over every monomial this is the unnormalized model; run over the
    non-degenerate ones in a unit-adapted basis it is the normalized one.
    """
    field = A.field
    add = field.add_into
    levels = [[(phi, sum(A.degrees[i] for i in phi)) for phi in nm] for nm in names]
    diffs: list = [None]
    for n in range(1, len(names)):
        tindex = _positions(simps[n - 1])
        pushes = [
            push(A, [tindex[X.face(s, i)] for s in simps[n]], len(simps[n - 1]))
            for i in range(n + 1)
        ]
        idx = index[n - 1]
        cols = []
        for phi in names[n]:
            acc: dict = {}
            for i, face in enumerate(pushes):
                if image := face.column(phi):
                    _add_level(acc, image, -1 if i % 2 else 1, idx, add)
            cols.append(acc)
        diffs.append(SMat(len(names[n - 1]), len(names[n]), field, cols))
    return ChainComplex(field, levels, diffs)


class LodayComplex:
    """Normalized tensor-power chain model of an algebra over a space.

    complex is built on the non-degenerate monomials of a basis of
    algebra, a copy of the given algebra: the unit-adapted one without a
    base, the base-adapted one (see _base_adapted) with.  index[n] sends a
    level-n monomial (a tuple of basis indices of algebra) to its
    coordinate in complex.
    """

    __slots__ = ("complex", "algebra", "space", "simps", "index", "_norm")

    def __init__(self, complex: ChainComplex, algebra, space, simps, index):
        self.complex = complex
        self.algebra = algebra
        self.space = space
        self.simps = simps
        self.index = index
        self._norm = None

    def normalized_data(self):
        """(normalized complex, free coords per level, projections per level).

        complex is normalized already, so every coordinate is free and every
        projection is the identity (None).
        """
        if self._norm is None:
            C = self.complex
            frees = [list(range(len(lv))) for lv in C.levels]
            self._norm = (C, frees, [None] * len(C.levels))
        return self._norm


def loday_complex(
    A: GradedAlgebra, X: SimplicialSet, N: int, base: AlgebraMap | None = None
) -> LodayComplex:
    """Levels 0..N of the normalized model; homology trusted to N - 1.

    Without a base the complex is built on the non-degenerate monomials of
    the unit-adapted copy of A.  With a base T it is built on the basis
    (t_tau, g_j1, ..., g_jm) of A^(x)_T m = T (x) V^(x)m, in the
    base-adapted copy of A (see _base_adapted), keeping the tuples j that
    are non-degenerate with g_0 = 1 as the unit; tau is free.
    """
    _check_inputs(A, N)
    simps = [X.level(n) for n in range(N + 1)]
    if base is None:
        A = unit_adapted(A).source
        (u,) = A.unit
        names = [_nondegenerate(A.dim, u, X, simps, n) for n in range(N + 1)]
        push = _Push
    else:
        _check_base(A, base)
        A, T = _base_adapted(A, base)
        dT = T.dim
        (u,) = T.unit
        names = [
            [
                (ks[0] * dT + tau,) + tuple(k * dT + u for k in ks[1:])
                for ks in _nondegenerate(A.dim // dT, 0, X, simps, n)
                for tau in range(dT)
            ]
            for n in range(N + 1)
        ]

        def push(B, tp, m):
            return _RelativePush(B, T, tp, m)

    index = [_positions(nm) for nm in names]
    C = _assemble(A, X, simps, names, index, push)
    return LodayComplex(C, A, X, simps, index)


def unnormalized_complex(A: GradedAlgebra, X: SimplicialSet, N: int) -> ChainComplex:
    """Levels 0..N on every monomial, in the basis A comes with."""
    _check_inputs(A, N)
    simps = [X.level(n) for n in range(N + 1)]
    names = [list(itertools.product(range(A.dim), repeat=len(s))) for s in simps]
    return _assemble(A, X, simps, names, [_positions(nm) for nm in names])


def hh(
    A: GradedAlgebra,
    X: SimplicialSet,
    s_max: int,
    base: AlgebraMap | None = None,
) -> BettiTable:
    """Higher Hochschild homology of A over X up to level s_max."""
    if s_max < 0:
        raise ValueError(f"s_max must be at least 0, got {s_max}")
    L = loday_complex(A, X, s_max + 1, base)
    return L.normalized_data()[0].homology(s_max, provenance="loday")


def induced_map(f: SimplicialMap, A: GradedAlgebra, N: int) -> ChainMap:
    """Chain map of normalized tensor-power models along a map of spaces.

    Both models are written in the unit-adapted basis of A (see
    loday_complex).
    """
    LX = loday_complex(A, f.source, N)
    LY = loday_complex(A, f.target, N)
    A, CX, CY, index = LX.algebra, LX.complex, LY.complex, LY.index
    field = A.field
    add = field.add_into
    mats = []
    for n in range(N + 1):
        tgt_level = f.target.level(n)
        tindex = _positions(tgt_level)
        push = _Push(A, [tindex[f.apply(s)] for s in f.source.level(n)], len(tgt_level))
        cols = []
        for phi, _ in CX.levels[n]:
            col: dict = {}
            if image := push.column(phi):
                _add_level(col, image, 1, index[n], add)
            cols.append(col)
        mats.append(SMat(len(CY.levels[n]), len(CX.levels[n]), field, cols))
    return ChainMap(CX, CY, mats)


def _shuffle_sign(mu, nu) -> int:
    return -1 if sum(a > b for a in mu for b in nu) % 2 else 1


def _degeneracy_push(L: LodayComplex, level: int, js) -> _Push:
    """Composite degeneracy positions map, innermost first."""
    X = L.space
    src = L.simps[level]
    tgt = L.simps[level + len(js)]
    tindex = _positions(tgt)
    tp = []
    for s in src:
        t = s
        for j in js:
            t = X.degenerate(t, j)
        tp.append(tindex[t])
    return _Push(L.algebra, tp, len(tgt))


def _shuffle_chain(L: LodayComplex, z1, z2) -> dict:
    """Chain-level shuffle product on normalized coordinates.

    L must be built without a base.  Carries the extra sign (-1)^(s2 * t1)
    on top of the shuffle signs, so that both the Leibniz rule and
    commutativity read off the total degree s + t.
    """
    s1, v1 = z1
    s2, v2 = z2
    A = L.algebra
    add = A.field.add_into
    C = L.complex
    index = L.index[s1 + s2]
    # the slotwise product is the push along the fold of two copies of the
    # level's simplices onto one, applied to the concatenation phi + psi
    m = len(L.simps[s1 + s2])
    fold = _Push(A, list(range(m)) * 2, m)
    out: dict = {}
    for mu_set in itertools.combinations(range(s1 + s2), s1):
        mu = list(mu_set)
        nu = [k for k in range(s1 + s2) if k not in mu_set]
        eps = _shuffle_sign(mu, nu)
        pu = _degeneracy_push(L, s1, nu)
        pv = _degeneracy_push(L, s2, mu)
        left: dict = {}
        for c, a in v1.items():
            phi, t1 = C.levels[s1][c]
            if (s2 * t1) % 2:
                a = -a
            for tup, cv in pu.column(phi).items():
                add(left, tup, a * cv)
        right: dict = {}
        for c, a in v2.items():
            phi = C.levels[s2][c][0]
            for tup, cv in pv.column(phi).items():
                add(right, tup, a * cv)
        for phi, ca in left.items():
            for psi, cb in right.items():
                if image := fold.column(phi + psi):
                    _add_level(out, image, ca * cb * eps, index, add)
    return out


def cyclic_bar_oracle(A: GradedAlgebra, N: int) -> ChainComplex:
    """Normalized cyclic complex A (x) Abar^(x)n on slots 0..n, built without any space.

    Independent of the simplicial machinery on purpose; works for any
    associative algebra.  In the unit-adapted basis, with unit e_u, level n
    lists the dim A * (dim A - 1)^n tuples with slots 1..n not u.  Face 0 and
    the wrap-around face, which multiplies the last factor onto the first
    and pays the sign for carrying it past the rest, land in slot 0; the
    inner faces drop the e_u term of their product.
    """
    if N < 1:
        raise ValueError(f"level bound must be at least 1, got {N}")
    A = unit_adapted(A).source
    field = A.field
    add = field.add_into
    dA = A.dim
    (u,) = A.unit
    bar = [i for i in range(dA) if i != u]
    # prod[sign][i][j]: the expansion of e_i * e_j, negated for sign 1; cut
    # drops its e_u term and writes index k as its digit k - (k > u) in bar
    plus = [[list(A.mul_basis(i, j).items()) for j in range(dA)] for i in range(dA)]
    prod = (plus, [[[(k, -c) for k, c in v] for v in row] for row in plus])
    cut = [[[[(k - (k > u), c) for k, c in v if k != u] for v in r] for r in p] for p in prod]
    levels = [
        [(phi, sum(A.degrees[i] for i in phi))
         for phi in itertools.product(range(dA), *[bar] * n)]
        for n in range(N + 1)
    ]
    diffs: list = [None]
    # column j of level n is phi with slot 0 most significant and slots
    # 1..n as digits in base dA - 1, so a face image is ranked by cutting j
    m = dA - 1
    pw = [m ** e for e in range(N + 1)]
    for n in range(1, N + 1):
        top = pw[n - 1]
        cols = []
        for j, (phi, t) in enumerate(levels[n]):
            acc: dict = {}
            # slots 0 and 1 merge into slot 0, slots 2..n stay as digits
            for k, c in plus[phi[0]][phi[1]]:
                add(acc, k * top + j % top, c)
            for i in range(1, n):
                # slots i and i + 1 merge into k: keep the i digits above
                # and the n - 1 - i digits below
                step = pw[n - 1 - i]
                rest = j // pw[n + 1 - i] * pw[n - i] + j % step
                for k, c in cut[i % 2][phi[i]][phi[i + 1]]:
                    add(acc, rest + k * step, c)
            # slot n multiplies onto slot 0, and slots 1..n - 1 move down one
            wrap = n + A.degrees[phi[n]] * (t - A.degrees[phi[n]])
            for k, c in prod[wrap % 2][phi[n]][phi[0]]:
                add(acc, k * top + j // m % top, c)
            cols.append(acc)
        diffs.append(SMat(dA * top, dA * pw[n], field, cols))
    return ChainComplex(field, levels, diffs)


def oracle_hh(A: GradedAlgebra, s_max: int) -> BettiTable:
    """Homology of the cyclic complex up to s_max, tagged as the oracle path."""
    if s_max < 0:
        raise ValueError(f"s_max must be at least 0, got {s_max}")
    return cyclic_bar_oracle(A, s_max + 1).homology(s_max, provenance="oracle")
