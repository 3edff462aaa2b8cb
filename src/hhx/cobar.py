"""Cochain complexes of multilinear maps over an associative algebra.

One builder, ``cobar_complex``, makes two complexes.  Given a left module
M, level n collects the maps A(x)...(x)A(x)M -> N, and the coboundary feeds
one more algebra slot through the left action on N, the multiplication of
adjacent slots, and the action on M.  ``cobar`` (the ``rhom`` command)
runs it.  Over the enveloping algebra E = A (x) A-op with M = N = A it is
Hom over E out of the bar resolution of A, which computes HH*(A, A); the
tests keep it as the oracle for the second complex.

Without M, N is an A-bimodule and level n is the normalized Hochschild
cochains Hom(Ā^(x)n, N), Ā = A/k: A is written in a basis holding the
unit (see algebra.unit_adapted), maps with a unit slot are left out, and
the last term of the coboundary is the right action on N.  Level n then
has (dim A - 1)^n dim N generators where the complex over E has
dim(A)^(2n+2).  ``hochschild_cohomology`` computes on it.  Cohomology of
the regular bimodule starts at the center and measures how far the algebra
is from being separable.

Both complexes are a ``CobarComplex``: a ``ChainComplex`` that stores the
transpose of each coboundary as its differential, so their shapes, degrees
and d d = 0 are checked and their cohomology is ranked by
``ChainComplex.homology``, as for every other complex.
"""

from __future__ import annotations

import itertools

from .algebra import GradedAlgebra, center, opposite, tensor_algebras, unit_adapted
from .chains import BettiTable, ChainComplex, ChainError
from .matrix import SMat

__all__ = [
    "AModule",
    "regular_module",
    "envelope_bimodule",
    "CobarComplex",
    "cobar_complex",
    "cobar",
    "hochschild_cohomology",
]


class AModule:
    """A left module over a graded algebra, on a chosen basis.

    ``act`` maps (algebra basis index, module basis index) pairs to sparse
    expansions over the module basis; missing keys mean the product is
    zero.  ``right``, when given, makes the module a bimodule: it maps
    (module basis index, algebra basis index) pairs to the expansion of
    m * a, with no sign.
    """

    __slots__ = ("algebra", "gens", "act", "right")

    def __init__(
        self, algebra: GradedAlgebra, gens, act: dict, right: dict | None = None
    ):
        self.algebra = algebra
        self.gens = tuple(gens)
        self.act = dict(act)
        self.right = None if right is None else dict(right)

    @property
    def dim(self) -> int:
        return len(self.gens)

    def validate(self) -> "AModule":
        A = self.algebra
        field = A.field
        add = field.add_into
        one = field.one
        act, right = self.act, self.right

        def lmul(a: dict, vec: dict) -> dict:
            out: dict = {}
            for i, ca in a.items():
                for j, cj in vec.items():
                    for k, c in act.get((i, j), {}).items():
                        add(out, k, ca * cj * c)
            return out

        def rmul(vec: dict, b: dict) -> dict:
            out: dict = {}
            for j, cj in vec.items():
                for i, cb in b.items():
                    for k, c in right.get((j, i), {}).items():
                        add(out, k, cj * cb * c)
            return out

        basis = [{a: one} for a in range(A.dim)]
        for j in range(self.dim):
            m = {j: one}
            if lmul(A.unit, m) != m or (right is not None and rmul(m, A.unit) != m):
                raise ChainError("module action does not respect the unit")
            for a in range(A.dim):
                for b in range(A.dim):
                    ab = A.mul_basis(a, b)
                    if lmul(ab, m) != lmul(basis[a], lmul(basis[b], m)):
                        raise ChainError("module action fails associativity")
                    if right is None:
                        continue
                    if rmul(m, ab) != rmul(rmul(m, basis[a]), basis[b]):
                        raise ChainError("right action fails associativity")
                    if rmul(lmul(basis[a], m), basis[b]) != lmul(
                        basis[a], rmul(m, basis[b])
                    ):
                        raise ChainError("left and right actions do not commute")
        return self


def regular_module(A: GradedAlgebra) -> AModule:
    """A acting on itself by left and right multiplication."""
    act = {}
    right = {}
    for i in range(A.dim):
        for j in range(A.dim):
            vec = A.mul_basis(i, j)
            if vec:
                act[(i, j)] = dict(vec)
                right[(i, j)] = dict(vec)
    return AModule(A, list(zip(A.names, A.degrees)), act, right)


def envelope_bimodule(A: GradedAlgebra):
    """(E, M): the enveloping algebra A (x) A-op with A as a left E-module.

    The action is (a (x) b).m = (-1)^(|b||m|) a m b, multiplication taken
    in A.
    """
    E = tensor_algebras(A, opposite(A))
    field = A.field
    dA = A.dim
    act: dict = {}
    for a in range(dA):
        for b in range(dA):
            jE = a * dA + b
            for m in range(dA):
                vec = dict(A.product_chain((a, m, b)))
                if (A.degrees[b] * A.degrees[m]) % 2:
                    vec = {k: field(-v) for k, v in vec.items()}
                if vec:
                    act[(jE, m)] = vec
    return E, AModule(E, list(zip(A.names, A.degrees)), act)


class CobarComplex(ChainComplex):
    """Multilinear-map cochains, stored as the chain complex of transposes.

    ``levels[n]`` lists ((slots, source, target), t) generators, where the
    map sends the named basis element of A^n (x) M to the named target
    basis element of N (source 0 when there is no M).  ``diffs[n + 1]`` is
    the transpose of the coboundary from level n to level n + 1, so the
    cohomology at level n is the homology of the transposes there, trusted
    strictly below the top level.
    """

    __slots__ = ()

    # in the class body, so pipebench/tracer.py times the cobar checks apart
    validate = ChainComplex.validate

    def cohomology(self, n_max: int, provenance: str = "cobar") -> BettiTable:
        """Betti table of ker/im per internal degree, for n <= n_max."""
        return self.homology(n_max, provenance)


def cobar_complex(
    M: AModule | None, A: GradedAlgebra, N: AModule, n_max: int
) -> CobarComplex:
    """Levels Hom(A^n (x) M, N) for n <= n_max, with their coboundaries.

    The modules are validated against A first.  The coboundary of a map f
    at level n follows the left action on N, with the Koszul sign
    (-1)^(|a||f|) for carrying the new slot a past f, then the merges of
    adjacent slots with alternating signs, then the tail term with sign
    (-1)^(n+1): the action of the last slot on M.

    With M None, N must be a bimodule and the levels are the normalized
    Hochschild cochains Hom(Ā^n, N): the unit of A must be a basis vector,
    maps with a unit slot are left out, and the tail term is
    f(a_1..a_n) * a_(n+1), the right action on N.
    """
    if n_max < 1:
        raise ChainError(f"level bound must be at least 1, got {n_max}")
    if N.algebra is not A or (M is not None and M.algebra is not A):
        raise ChainError("modules must be defined over the given algebra")
    field = A.field
    dA = A.dim
    deg = A.degrees
    if M is None:
        if N.right is None:
            raise ChainError("Hochschild cochains need a bimodule as target")
        if list(A.unit.values()) != [field.one]:
            raise ChainError("normalized cochains need the unit as a basis vector")
        slots = [i for i in range(dA) if i not in A.unit]
        src = (0,)
    else:
        M.validate()
        slots = range(dA)
        src = [g[1] for g in M.gens]
    N.validate()
    levels = []
    indexes = []
    for n in range(n_max + 1):
        lv = []
        idx = {}
        for phi in itertools.product(slots, repeat=n):
            base = sum(deg[i] for i in phi)
            for m, tm in enumerate(src):
                tm += base
                for k in range(N.dim):
                    name = (phi, m, k)
                    idx[name] = len(lv)
                    lv.append((name, N.gens[k][1] - tm))
        levels.append(lv)
        indexes.append(idx)
    rev_mul: dict = {}
    for u in slots:
        for v in slots:
            for kk, c in A.mul_basis(u, v).items():
                rev_mul.setdefault(kk, []).append((u, v, c))
    # tail[(m, k)] lists (u, m2, k2, c): the tail term of the coboundary of
    # the generator (phi, m, k) has coefficient +-c at ((*phi, u), m2, k2)
    tail: dict = {}
    if M is None:
        for (k, u), vec in N.right.items():
            if u not in A.unit:
                for k2, c in vec.items():
                    tail.setdefault((0, k), []).append((u, 0, k2, c))
    else:
        for (u, ms), vec in M.act.items():
            for mt, c in vec.items():
                for k in range(N.dim):
                    tail.setdefault((mt, k), []).append((u, ms, k, c))
    # diffs[n + 1] is the transpose of the coboundary of level n: the entry
    # at (cpos, rows[name]) is the coefficient of that level n + 1 generator
    # in the coboundary of generator cpos
    diffs: list = [None]
    for n in range(n_max):
        rows = indexes[n + 1]
        d = SMat(len(levels[n]), len(levels[n + 1]), field)
        for cpos, ((phi, m, k), t) in enumerate(levels[n]):
            t_odd = t % 2 == 1
            for b1 in slots:
                vec = N.act.get((b1, k))
                if not vec:
                    continue
                neg = t_odd and deg[b1] % 2 == 1
                psi = (b1, *phi)
                for k2, c in vec.items():
                    d.add_at(cpos, rows[(psi, m, k2)], -c if neg else c)
            for i in range(1, n + 1):
                neg = i % 2 == 1
                for u, v, c in rev_mul.get(phi[i - 1], ()):
                    psi = phi[: i - 1] + (u, v) + phi[i:]
                    d.add_at(cpos, rows[(psi, m, k)], -c if neg else c)
            neg = (n + 1) % 2 == 1
            for u, m2, k2, c in tail.get((m, k), ()):
                d.add_at(cpos, rows[((*phi, u), m2, k2)], -c if neg else c)
        diffs.append(d)
    return CobarComplex(field, levels, diffs).validate()


def cobar(M: AModule, A: GradedAlgebra, N: AModule, n_max: int) -> BettiTable:
    """Cohomology of the multilinear-map complex, trusted for n < n_max."""
    return cobar_complex(M, A, N, n_max).cohomology(n_max - 1, provenance="cobar")


def _coefficients(A: GradedAlgebra, module: AModule, f) -> AModule:
    """The A-bimodule ``module`` as a bimodule over f.source, acting through f.

    f is an algebra map onto A.
    """
    add = A.field.add_into
    if module.right is None or module.algebra != A:
        raise ChainError("coefficients must be a bimodule over the given algebra")
    pulled: dict = {}
    pulled_right: dict = {}
    for i, col in enumerate(f.matrix.cols):
        for m in range(module.dim):
            lv: dict = {}
            rv: dict = {}
            for a, ca in col.items():
                for k, c in module.act.get((a, m), {}).items():
                    add(lv, k, ca * c)
                for k, c in module.right.get((m, a), {}).items():
                    add(rv, k, ca * c)
            if lv:
                pulled[(i, m)] = lv
            if rv:
                pulled_right[(m, i)] = rv
    return AModule(f.source, module.gens, pulled, pulled_right)


def hochschild_cohomology(
    A: GradedAlgebra, n_max: int, module: AModule | None = None
) -> BettiTable:
    """Hochschild cohomology of A, trusted for n < n_max.

    Computed on the normalized cochains Hom(Ā^n, M) that ``cobar_complex``
    builds in the unit-adapted basis of A.  The coefficients M are A
    itself by default; ``module`` gives others, as an A-bimodule.
    With the default coefficients the zeroth level is the graded center,
    and that identity is asserted before the table is returned.
    """
    f = unit_adapted(A)
    if module is None:
        mod = regular_module(f.source)
    else:
        mod = _coefficients(A, module, f)
    table = cobar_complex(None, f.source, mod, n_max).cohomology(
        n_max - 1, provenance="hochschild-cohomology"
    )
    if module is None:
        hist: dict = {}
        for z in center(A):
            dg = A.element_degree(z)
            hist[dg] = hist.get(dg, 0) + 1
        got = {t: v for (n, t), v in table.entries.items() if n == 0}
        if got != hist:
            raise ChainError(
                f"level zero {got} does not match the center profile {hist}"
            )
    return table
