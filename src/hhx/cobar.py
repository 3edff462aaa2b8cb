"""Cochain complexes of multilinear maps over an associative algebra.

The n-th level collects maps A(x)...(x)A(x)M -> N; the coboundary feeds one
more algebra slot through the left action on N, the multiplication of
adjacent slots, and the action on M.  Cohomology of the regular bimodule
over the enveloping algebra starts at the center and measures how far the
algebra is from being separable.
"""

from __future__ import annotations

import itertools

from .algebra import GradedAlgebra, center, opposite, tensor_algebras
from .chains import BettiTable, ChainError, _check_degrees, _t_blocks
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
    zero.
    """

    __slots__ = ("algebra", "gens", "act")

    def __init__(self, algebra: GradedAlgebra, gens, act: dict):
        self.algebra = algebra
        self.gens = tuple(gens)
        self.act = dict(act)

    @property
    def dim(self) -> int:
        return len(self.gens)

    def validate(self) -> "AModule":
        A = self.algebra
        field = A.field
        add = field.add_into
        one = field.one
        for j in range(self.dim):
            acc: dict = {}
            for u, cu in enumerate(A.unit):
                if cu == field.zero:
                    continue
                for k, c in self.act.get((u, j), {}).items():
                    add(acc, k, cu * c)
            if acc != {j: one}:
                raise ChainError("module action does not respect the unit")
        for a in range(A.dim):
            for b in range(A.dim):
                prod = A.mul_basis(a, b)
                for j in range(self.dim):
                    via: dict = {}
                    for k, c in prod.items():
                        for m, cm in self.act.get((k, j), {}).items():
                            add(via, m, c * cm)
                    steps: dict = {}
                    for m, cm in self.act.get((b, j), {}).items():
                        for m2, c2 in self.act.get((a, m), {}).items():
                            add(steps, m2, cm * c2)
                    if steps != via:
                        raise ChainError("module action fails associativity")
        return self


def regular_module(A: GradedAlgebra) -> AModule:
    """A acting on itself by left multiplication."""
    act = {}
    for i in range(A.dim):
        for j in range(A.dim):
            vec = A.mul_basis(i, j)
            if vec:
                act[(i, j)] = dict(vec)
    return AModule(A, list(zip(A.names, A.degrees)), act)


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


class CobarComplex:
    """Levels of multilinear-map generators with coboundaries going up.

    ``levels[n]`` lists ((slots, source, target), t) generators, where the
    map sends the named basis element of A^n (x) M to the named target
    basis element of N; ``deltas[n]`` maps level n to level n + 1 and stops
    one short of the top, so cohomology is trusted strictly below it.
    """

    __slots__ = ("field", "levels", "deltas")

    def __init__(self, field, levels, deltas):
        self.field = field
        self.levels = [tuple(lv) for lv in levels]
        self.deltas = list(deltas)
        if len(self.deltas) != len(self.levels) - 1:
            raise ChainError("need one coboundary per consecutive level pair")

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level_dim(self, n: int) -> int:
        return len(self.levels[n]) if 0 <= n <= self.top else 0

    def validate(self) -> "CobarComplex":
        for n, d in enumerate(self.deltas):
            if (d.nrows, d.ncols) != (self.level_dim(n + 1), self.level_dim(n)):
                raise ChainError(f"coboundary at level {n} has the wrong shape")
            _check_degrees(
                d, self.levels[n], self.levels[n + 1], f"coboundary at level {n}"
            )
        for n in range(len(self.deltas) - 1):
            if not (self.deltas[n + 1] @ self.deltas[n]).is_zero():
                raise ChainError(f"coboundary squared is nonzero at level {n}")
        return self

    def cohomology(self, n_max: int | None = None, provenance: str = "cobar") -> BettiTable:
        """Betti table of ker/im per internal degree, for n <= n_max.

        Refuses windows that reach the top level, where the next coboundary
        is not stored.
        """
        bound = self.top - 1
        if n_max is None:
            n_max = bound
        if n_max > bound:
            raise ChainError(
                f"cohomology requested to n={n_max} but trusted only to {bound}"
            )
        out = {}
        blocks = [_t_blocks(lv) for lv in self.levels]
        # rank of each t block of delta_{n-1}, found as r_out at level n - 1;
        # a t missing there has no columns, so its block has rank 0
        r_prev: dict = {}
        for n in range(0, n_max + 1):
            r_here = {}
            for t, idx in blocks[n].items():
                rows = blocks[n + 1].get(t)
                r_out = self.deltas[n].restrict(rows, idx).rank() if rows else 0
                r_here[t] = r_out
                h = len(idx) - r_out - r_prev.get(t, 0)
                if h:
                    out[(n, t)] = h
            r_prev = r_here
        return BettiTable(out, n_max, provenance)


def cobar_complex(M: AModule, A: GradedAlgebra, N: AModule, n_max: int) -> CobarComplex:
    """Levels Hom(A^n (x) M, N) for n <= n_max, with their coboundaries.

    Both modules are validated against A first; the coboundary follows the
    left action on N with a Koszul sign for carrying the new slot past the
    map, then the slot merges, then the action on M with the alternating
    tail sign.
    """
    if n_max < 1:
        raise ChainError(f"level bound must be at least 1, got {n_max}")
    if M.algebra is not A or N.algebra is not A:
        raise ChainError("modules must be defined over the given algebra")
    M.validate()
    N.validate()
    field = A.field
    dA = A.dim
    deg = A.degrees
    levels = []
    indexes = []
    for n in range(n_max + 1):
        lv = []
        idx = {}
        for phi in itertools.product(range(dA), repeat=n):
            base = sum(deg[i] for i in phi)
            for m in range(M.dim):
                tm = base + M.gens[m][1]
                for k in range(N.dim):
                    name = (phi, m, k)
                    idx[name] = len(lv)
                    lv.append((name, N.gens[k][1] - tm))
        levels.append(lv)
        indexes.append(idx)
    rev_mul: dict = {}
    for u in range(dA):
        for v in range(dA):
            for kk, c in A.mul_basis(u, v).items():
                rev_mul.setdefault(kk, []).append((u, v, c))
    rev_act: dict = {}
    for (u, ms), vec in M.act.items():
        for mt, c in vec.items():
            rev_act.setdefault(mt, []).append((u, ms, c))
    deltas = []
    for n in range(n_max):
        rows = indexes[n + 1]
        d = SMat(len(levels[n + 1]), len(levels[n]), field)
        for cpos, ((phi, m, k), t) in enumerate(levels[n]):
            t_odd = t % 2 == 1
            for b1 in range(dA):
                vec = N.act.get((b1, k))
                if not vec:
                    continue
                neg = t_odd and deg[b1] % 2 == 1
                psi = (b1, *phi)
                for k2, c in vec.items():
                    d.add_at(rows[(psi, m, k2)], cpos, -c if neg else c)
            for i in range(1, n + 1):
                neg = i % 2 == 1
                for u, v, c in rev_mul.get(phi[i - 1], ()):
                    psi = phi[: i - 1] + (u, v) + phi[i:]
                    d.add_at(rows[(psi, m, k)], cpos, -c if neg else c)
            neg = (n + 1) % 2 == 1
            for u, ms, c in rev_act.get(m, ()):
                psi = (*phi, u)
                d.add_at(rows[(psi, ms, k)], cpos, -c if neg else c)
        deltas.append(d)
    return CobarComplex(field, levels, deltas).validate()


def cobar(M: AModule, A: GradedAlgebra, N: AModule, n_max: int) -> BettiTable:
    """Cohomology of the multilinear-map complex, trusted for n < n_max."""
    return cobar_complex(M, A, N, n_max).cohomology(n_max - 1, provenance="cobar")


def hochschild_cohomology(
    A: GradedAlgebra, n_max: int, module: AModule | None = None
) -> BettiTable:
    """Cohomology of A over its enveloping algebra, trusted for n < n_max.

    With the default coefficients the zeroth level is the graded center,
    and that identity is asserted before the table is returned.
    """
    E, reg = envelope_bimodule(A)
    if module is None:
        mod = reg
    else:
        if module.algebra.names != E.names or module.algebra.degrees != E.degrees:
            raise ChainError(
                "coefficients must be a module over the enveloping algebra"
            )
        E, mod = module.algebra, module
    table = cobar_complex(mod, E, mod, n_max).cohomology(
        n_max - 1, provenance="hochschild-cohomology"
    )
    if module is None:
        hist: dict = {}
        for z in center(A):
            dg = next(A.degrees[i] for i, c in enumerate(z) if c != A.field.zero)
            hist[dg] = hist.get(dg, 0) + 1
        got = {t: v for (n, t), v in table.entries.items() if n == 0}
        if got != hist:
            raise ChainError(
                f"level zero {got} does not match the center profile {hist}"
            )
    return table
