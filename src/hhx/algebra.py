"""Finite-dimensional graded algebras presented by structure constants.

An algebra is a named basis with non-negative integer degrees, a unit
vector, and a full multiplication table.  Validation is exhaustive: unit
laws, associativity on all basis triples, degree additivity, and the sign
rule a*b = (-1)^{|a||b|} b*a whenever the commutative flag is set.  All
coefficients live in an exact field.

Elements are dense coefficient tuples; sparse {index: coeff} expansions are
used where products branch (tensor powers downstream).
"""

from __future__ import annotations

from .fields import Field, FieldError, field_to_json, parse_field
from .matrix import SMat

__all__ = [
    "AlgebraError",
    "GradedAlgebra",
    "AlgebraMap",
    "make_algebra",
    "tensor_algebras",
    "opposite",
    "change_basis",
    "unit_adapted",
    "is_etale",
    "center",
    "algebra_to_json",
    "algebra_from_json",
    "map_to_json",
    "map_from_json",
]


class AlgebraError(ValueError):
    pass


class GradedAlgebra:
    """A unital graded algebra with chosen basis.

    Construct through :func:`make_algebra`, which validates the axioms;
    the constructor itself only stores normalized data.
    """

    __slots__ = ("field", "names", "degrees", "unit", "table", "commutative", "_mul")

    def __init__(self, field, names, degrees, unit, table, commutative):
        self.field = field
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.unit = tuple(unit)
        self.table = table
        self.commutative = bool(commutative)
        self._mul: dict = {}

    @property
    def dim(self) -> int:
        return len(self.names)

    def basis_vector(self, i: int) -> tuple:
        zero = self.field.zero
        return tuple(self.field.one if j == i else zero for j in range(self.dim))

    def mul_basis(self, i: int, j: int) -> dict:
        """Sparse expansion of e_i * e_j as {k: coeff}."""
        key = (i, j)
        out = self._mul.get(key)
        if out is None:
            zero = self.field.zero
            out = {k: v for k, v in enumerate(self.table[i][j]) if v != zero}
            self._mul[key] = out
        return out

    def multiply(self, u, v) -> tuple:
        """Bilinear product of two dense coefficient vectors."""
        zero = self.field.zero
        add = self.field.add_into
        out: dict = {}
        for i, a in enumerate(u):
            if a == zero:
                continue
            for j, b in enumerate(v):
                if b == zero:
                    continue
                ab = a * b
                for k, ck in self.mul_basis(i, j).items():
                    add(out, k, ab * ck)
        return tuple(out.get(k, zero) for k in range(self.dim))

    def product_chain(self, indices) -> dict:
        """Left-to-right product of basis elements, as a sparse expansion.

        An empty chain gives the unit.
        """
        zero = self.field.zero
        add = self.field.add_into
        acc = {k: v for k, v in enumerate(self.unit) if v != zero}
        for idx in indices:
            nxt: dict = {}
            for k, a in acc.items():
                for m, c in self.mul_basis(k, idx).items():
                    add(nxt, m, a * c)
            acc = nxt
            if not acc:
                break
        return acc

    def element_degree(self, vec) -> int | None:
        """Degree of a homogeneous dense vector, None for zero, error if mixed."""
        degs = {self.degrees[i] for i, v in enumerate(vec) if v != self.field.zero}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(f"vector {vec} is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def show_element(self, vec) -> str:
        terms = []
        for i, v in enumerate(vec):
            if v != self.field.zero:
                terms.append(f"{self.field.show(v)}*{self.names[i]}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        kind = "graded-commutative" if self.commutative else "associative"
        return f"GradedAlgebra(dim={self.dim}, {kind}, field={self.field!r})"

    def __eq__(self, other):
        return (
            isinstance(other, GradedAlgebra)
            and self.field == other.field
            and self.names == other.names
            and self.degrees == other.degrees
            and self.unit == other.unit
            and self.table == other.table
            and self.commutative == other.commutative
        )


def make_algebra(field: Field, basis, unit, table, commutative: bool) -> GradedAlgebra:
    """Build and validate a graded algebra.

    basis: sequence of (name, degree) pairs.
    unit: coefficient vector of the unit element.
    table: table[i][j] is the coefficient vector of e_i * e_j.

    Raises AlgebraError naming the first offending law and basis elements.
    """
    names = []
    degrees = []
    for entry in basis:
        name, degree = entry
        if not isinstance(name, str) or not name:
            raise AlgebraError(f"basis name {name!r} must be a nonempty string")
        if not isinstance(degree, int) or degree < 0:
            raise AlgebraError(f"degree of {name!r} must be a non-negative integer")
        names.append(name)
        degrees.append(degree)
    if len(set(names)) != len(names):
        raise AlgebraError("basis names must be distinct")
    d = len(names)
    if d == 0:
        raise AlgebraError("empty basis")

    def coerce_vec(vec, what):
        if len(vec) != d:
            raise AlgebraError(f"{what} has length {len(vec)}, expected {d}")
        try:
            return tuple(field(v) for v in vec)
        except FieldError as exc:
            raise AlgebraError(f"{what}: {exc}") from exc

    unit_t = coerce_vec(unit, "unit vector")
    if len(table) != d or any(len(row) != d for row in table):
        raise AlgebraError(f"multiplication table must be {d}x{d}")
    table_t = tuple(
        tuple(coerce_vec(table[i][j], f"table entry ({names[i]}, {names[j]})") for j in range(d))
        for i in range(d)
    )

    alg = GradedAlgebra(field, names, degrees, unit_t, table_t, commutative)
    zero = field.zero

    # degree additivity
    for i in range(d):
        for j in range(d):
            want = degrees[i] + degrees[j]
            for k, v in enumerate(table_t[i][j]):
                if v != zero and degrees[k] != want:
                    raise AlgebraError(
                        f"degree violation: {names[i]}*{names[j]} has a component at "
                        f"{names[k]} of degree {degrees[k]}, expected degree {want}"
                    )

    # unit absorbs on both sides
    for i in range(d):
        e = alg.basis_vector(i)
        left = alg.multiply(unit_t, e)
        right = alg.multiply(e, unit_t)
        if left != e:
            raise AlgebraError(
                f"unit law fails on the left at {names[i]}: "
                f"1*{names[i]} = {alg.show_element(left)}"
            )
        if right != e:
            raise AlgebraError(
                f"unit law fails on the right at {names[i]}: "
                f"{names[i]}*1 = {alg.show_element(right)}"
            )

    # associativity on every basis triple
    for i in range(d):
        for j in range(d):
            ij = table_t[i][j]
            for k in range(d):
                left = alg.multiply(ij, alg.basis_vector(k))
                right = alg.multiply(alg.basis_vector(i), table_t[j][k])
                if left != right:
                    raise AlgebraError(
                        f"associativity fails at triple ({names[i]}, {names[j]}, {names[k]}): "
                        f"({names[i]}*{names[j]})*{names[k]} = {alg.show_element(left)} but "
                        f"{names[i]}*({names[j]}*{names[k]}) = {alg.show_element(right)}"
                    )

    if commutative:
        for i in range(d):
            for j in range(d):
                sign = -1 if (degrees[i] * degrees[j]) % 2 else 1
                flipped = tuple(field(sign * v) for v in table_t[j][i])
                if table_t[i][j] != flipped:
                    raise AlgebraError(
                        f"sign rule fails at pair ({names[i]}, {names[j]}): "
                        f"{names[i]}*{names[j]} != "
                        f"(-1)^({degrees[i]}*{degrees[j]}) {names[j]}*{names[i]}"
                    )
    return alg


def tensor_algebras(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Tensor product with the sign rule (a@b)(a'@b') = (-1)^{|b||a'|} aa'@bb'.

    The result is flagged commutative exactly when both inputs are.
    """
    if A.field != B.field:
        raise AlgebraError("tensor factors must share a field")
    field = A.field
    zero = field.zero
    names = []
    degrees = []
    for i, na in enumerate(A.names):
        for j, nb in enumerate(B.names):
            names.append(f"{na}⊗{nb}")
            degrees.append(A.degrees[i] + B.degrees[j])
    dB = B.dim
    dim = A.dim * dB
    unit = [zero] * dim
    for i, a in enumerate(A.unit):
        if a == zero:
            continue
        for j, b in enumerate(B.unit):
            if b != zero:
                unit[i * dB + j] = field(a * b)
    table = []
    for i1 in range(A.dim):
        for j1 in range(dB):
            row = []
            for i2 in range(A.dim):
                for j2 in range(dB):
                    vec = [zero] * dim
                    sign = -1 if (B.degrees[j1] * A.degrees[i2]) % 2 else 1
                    for k1, ca in A.mul_basis(i1, i2).items():
                        for k2, cb in B.mul_basis(j1, j2).items():
                            vec[k1 * dB + k2] = field(sign * ca * cb)
                    row.append(vec)
            table.append(row)
    # reshape flat rows into the dim x dim table
    nested = [[table[i][j] for j in range(dim)] for i in range(dim)]
    return make_algebra(
        field,
        list(zip(names, degrees)),
        unit,
        nested,
        A.commutative and B.commutative,
    )


def opposite(A: GradedAlgebra) -> GradedAlgebra:
    """The opposite algebra: a *op b = (-1)^{|a||b|} b * a."""
    field = A.field
    d = A.dim
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            if (A.degrees[i] * A.degrees[j]) % 2:
                vec = [field(-v) for v in A.table[j][i]]
            else:
                vec = list(A.table[j][i])
            row.append(vec)
        table.append(row)
    return make_algebra(
        field, list(zip(A.names, A.degrees)), A.unit, table, A.commutative
    )


def change_basis(A: GradedAlgebra, basis, names) -> "AlgebraMap":
    """Isomorphism onto A from the copy of A with the given basis.

    basis lists dense homogeneous vectors of A that form a basis, names
    their names in the copy.  The unit and every product of the copy are
    read off one solve against the basis.
    """
    field = A.field
    zero = field.zero
    d = A.dim
    M = SMat.from_dense(basis, field).transpose()
    coords = M.solve_many(
        [dict(enumerate(A.unit))]
        + [dict(enumerate(A.multiply(x, y))) for x in basis for y in basis]
    )

    def dense(k):
        return [coords[k].get(i, zero) for i in range(d)]

    B = make_algebra(
        field,
        [(n, A.element_degree(b)) for n, b in zip(names, basis)],
        dense(0),
        [[dense(1 + i * d + j) for j in range(d)] for i in range(d)],
        A.commutative,
    )
    return AlgebraMap(B, A, M)


def unit_adapted(A: GradedAlgebra) -> "AlgebraMap":
    """Isomorphism onto A from a copy of A whose unit is a basis vector.

    When the unit of A already is a basis vector, the copy is A itself and
    the map is the identity.  Otherwise the first basis vector with a
    nonzero unit coefficient is swapped for the unit.  That vector has
    degree zero, because the unit has.  Every other basis vector and name
    stays.
    """
    field = A.field
    d = A.dim
    support = [k for k, c in enumerate(A.unit) if c != field.zero]
    if len(support) == 1 and A.unit[support[0]] == field.one:
        return AlgebraMap(A, A, SMat.identity(d, field))
    u = support[0]
    basis = [A.unit if k == u else A.basis_vector(k) for k in range(d)]
    names = list(A.names)
    names[u] = A.show_element(A.unit)
    return change_basis(A, basis, names)


def is_etale(A: GradedAlgebra) -> bool:
    """Nondegeneracy of the trace pairing (a, b) -> trace(L_{ab}).

    Only defined for commutative algebras concentrated in degree zero;
    anything else raises AlgebraError.
    """
    if not A.commutative:
        raise AlgebraError("trace-form test needs a commutative algebra")
    if any(dg != 0 for dg in A.degrees):
        raise AlgebraError("trace-form test needs everything in degree zero")
    field = A.field
    d = A.dim
    # trace of left multiplication by each basis element
    tr = []
    for k in range(d):
        tr.append(field(sum(A.table[k][m][m] for m in range(d))))
    gram = SMat(d, d, field)
    for i in range(d):
        for j in range(d):
            s = field(sum(c * tr[k] for k, c in A.mul_basis(i, j).items()))
            if s != field.zero:
                gram.cols[j][i] = s
    return gram.rank() == d


def center(A: GradedAlgebra) -> list[tuple]:
    """Basis of the graded center: z with z*u = (-1)^{|z||u|} u*z for all u.

    Solved degree by degree; returns dense homogeneous vectors.
    """
    field = A.field
    d = A.dim
    out = []
    for delta in sorted(set(A.degrees)):
        idxs = [i for i in range(d) if A.degrees[i] == delta]
        # rows indexed by (u, target basis element), columns by candidate index
        m = SMat(d * d, len(idxs), field)
        for col, i in enumerate(idxs):
            for j in range(d):
                sign_flip = (delta * A.degrees[j]) % 2
                for k, c in A.mul_basis(i, j).items():
                    m.add_at(j * d + k, col, c)
                for k, c in A.mul_basis(j, i).items():
                    m.add_at(j * d + k, col, c if sign_flip else -c)
        for v in m.nullspace():
            dense = [field.zero] * d
            for col, coeff in v.items():
                dense[idxs[col]] = coeff
            out.append(tuple(dense))
    return out


class AlgebraMap:
    """A unital degree-preserving algebra homomorphism given on basis vectors.

    matrix has shape (target.dim, source.dim): column i is the image of the
    i-th source basis vector.
    """

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, matrix: SMat):
        if source.field != target.field:
            raise AlgebraError("algebra map needs a common field")
        if (matrix.nrows, matrix.ncols) != (target.dim, source.dim):
            raise AlgebraError(
                f"matrix shape {matrix.nrows}x{matrix.ncols} does not match "
                f"target dim {target.dim} x source dim {source.dim}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self._validate()

    def _validate(self):
        S, T, M = self.source, self.target, self.matrix
        field = S.field
        # degree preservation
        for i in range(S.dim):
            for k, v in M.cols[i].items():
                if v != field.zero and T.degrees[k] != S.degrees[i]:
                    raise AlgebraError(
                        f"map does not preserve degree: image of {S.names[i]} "
                        f"meets {T.names[k]}"
                    )
        unit_img = M.mul_vec({k: v for k, v in enumerate(S.unit) if v != field.zero})
        if unit_img != {k: v for k, v in enumerate(T.unit) if v != field.zero}:
            raise AlgebraError("map does not preserve the unit")
        for i in range(S.dim):
            for j in range(S.dim):
                lhs = M.mul_vec(S.mul_basis(i, j))
                fi = [field.zero] * T.dim
                for k, v in M.cols[i].items():
                    fi[k] = v
                fj = [field.zero] * T.dim
                for k, v in M.cols[j].items():
                    fj[k] = v
                prod = T.multiply(fi, fj)
                rhs = {k: v for k, v in enumerate(prod) if v != field.zero}
                if lhs != rhs:
                    raise AlgebraError(
                        f"map is not multiplicative at ({S.names[i]}, {S.names[j]})"
                    )

    def apply(self, vec) -> tuple:
        """Image of a dense source vector as a dense target vector."""
        field = self.source.field
        out = [field.zero] * self.target.dim
        img = self.matrix.mul_vec(
            {i: v for i, v in enumerate(vec) if v != field.zero}
        )
        for k, v in img.items():
            out[k] = v
        return tuple(out)


def algebra_to_json(A: GradedAlgebra) -> dict:
    """JSON form with scalars as exact strings, suitable for stable output."""
    show = A.field.show
    return {
        "field": field_to_json(A.field),
        "basis": [
            {"name": n, "degree": g} for n, g in zip(A.names, A.degrees)
        ],
        "unit": [show(v) for v in A.unit],
        "table": [
            [[show(v) for v in A.table[i][j]] for j in range(A.dim)]
            for i in range(A.dim)
        ],
        "commutative": A.commutative,
    }


def algebra_from_json(obj: dict, field: Field | None = None) -> GradedAlgebra:
    """Decode and validate an algebra; field overrides the file's scalars."""
    if not isinstance(obj, dict):
        raise AlgebraError("algebra file must hold a JSON object")
    missing = {"field", "basis", "unit", "table", "commutative"} - set(obj)
    if missing:
        raise AlgebraError(f"algebra file lacks keys: {sorted(missing)}")
    fld = field if field is not None else parse_field(obj["field"])
    basis = []
    for entry in obj["basis"]:
        if not isinstance(entry, dict) or set(entry) != {"name", "degree"}:
            raise AlgebraError(f"bad basis entry {entry!r}")
        basis.append((entry["name"], entry["degree"]))
    if not isinstance(obj["commutative"], bool):
        raise AlgebraError("commutative flag must be a boolean")
    return make_algebra(fld, basis, obj["unit"], obj["table"], obj["commutative"])


def map_to_json(f: AlgebraMap) -> dict:
    """JSON form of an algebra map with both endpoints embedded."""
    show = f.source.field.show
    rows = [
        [show(f.matrix.cols[j].get(i, f.source.field.zero)) for j in range(f.source.dim)]
        for i in range(f.target.dim)
    ]
    return {
        "source": algebra_to_json(f.source),
        "target": algebra_to_json(f.target),
        "matrix": rows,
    }


def map_from_json(obj: dict, field: Field | None = None) -> AlgebraMap:
    """Decode and validate an algebra map file."""
    if not isinstance(obj, dict):
        raise AlgebraError("map file must hold a JSON object")
    missing = {"source", "target", "matrix"} - set(obj)
    if missing:
        raise AlgebraError(f"map file lacks keys: {sorted(missing)}")
    src = algebra_from_json(obj["source"], field)
    tgt = algebra_from_json(obj["target"], field)
    rows = obj["matrix"]
    if len(rows) != tgt.dim or any(len(r) != src.dim for r in rows):
        raise AlgebraError(
            f"map matrix must be {tgt.dim}x{src.dim} (target dim x source dim)"
        )
    try:
        m = SMat.from_dense(rows, src.field)
    except FieldError as exc:
        raise AlgebraError(f"map matrix: {exc}") from exc
    return AlgebraMap(src, tgt, m)
