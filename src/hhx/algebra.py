"""Finite-dimensional graded algebras presented by structure constants.

An algebra is a named basis with non-negative integer degrees, a unit and
a multiplication table over an exact field.  Every element, the unit too,
is a sparse dict {basis index: coeff} with no zero coefficients, and
table[i][j] is e_i * e_j in that form, the dict mul_basis returns.  Files
and make_algebra give the dense presentation (coefficient lists), which
make_algebra coerces; tensor_algebras, opposite and change_basis build
sparse tables directly.  All four go through one exhaustive check: names,
degrees and their additivity, the two-sided unit, associativity on all
basis triples, and a*b = (-1)^{|a||b|} b*a when flagged commutative.
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

    Construct through :func:`make_algebra` or the constructors built on
    the same check; the constructor itself only stores sparse data.
    """

    __slots__ = ("field", "names", "degrees", "unit", "table", "commutative")

    def __init__(self, field, names, degrees, unit, table, commutative):
        self.field = field
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.unit = dict(unit)
        self.table = tuple(tuple(row) for row in table)
        self.commutative = bool(commutative)

    @property
    def dim(self) -> int:
        return len(self.names)

    def mul_basis(self, i: int, j: int) -> dict:
        """e_i * e_j as the stored {k: coeff}; callers do not change it."""
        return self.table[i][j]

    def multiply(self, u: dict, v: dict) -> dict:
        """Bilinear product of two elements."""
        add = self.field.add_into
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                ab = a * b
                for k, ck in self.mul_basis(i, j).items():
                    add(out, k, ab * ck)
        return out

    def product_chain(self, indices) -> dict:
        """Left-to-right product of basis elements, as a sparse expansion.

        An empty chain gives the unit.
        """
        add = self.field.add_into
        acc = dict(self.unit)
        for idx in indices:
            nxt: dict = {}
            for k, a in acc.items():
                for m, c in self.mul_basis(k, idx).items():
                    add(nxt, m, a * c)
            acc = nxt
            if not acc:
                break
        return acc

    def element_degree(self, vec: dict) -> int | None:
        """Degree of a homogeneous element, None for zero, error if mixed."""
        degs = {self.degrees[i] for i in vec}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(
                f"element {self.show_element(vec)} is not homogeneous: "
                f"degrees {sorted(degs)}"
            )
        return degs.pop()

    def show_element(self, vec: dict) -> str:
        terms = [f"{self.field.show(v)}*{self.names[i]}" for i, v in sorted(vec.items())]
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
    """Build and validate a graded algebra from its dense presentation.

    basis: sequence of (name, degree) pairs.
    unit: coefficient list of the unit element.
    table: table[i][j] is the coefficient list of e_i * e_j.

    Raises AlgebraError naming the first offending law and basis elements.
    """
    names, degrees = _basis(basis)
    d = len(names)

    def coerce_vec(vec, what) -> dict:
        if len(vec) != d:
            raise AlgebraError(f"{what} has length {len(vec)}, expected {d}")
        try:
            return {k: c for k, v in enumerate(vec) if (c := field(v)) != field.zero}
        except FieldError as exc:
            raise AlgebraError(f"{what}: {exc}") from exc

    unit_s = coerce_vec(unit, "unit vector")
    if len(table) != d or any(len(row) != d for row in table):
        raise AlgebraError(f"multiplication table must be {d}x{d}")
    table_s = [
        [coerce_vec(table[i][j], f"table entry ({names[i]}, {names[j]})") for j in range(d)]
        for i in range(d)
    ]
    return _checked(field, names, degrees, unit_s, table_s, commutative)


def _basis(basis) -> tuple[list, list]:
    """Names and degrees of (name, degree) pairs, refused unless the names
    are distinct nonempty strings and the degrees non-negative integers."""
    names, degrees = [], []
    for name, degree in basis:
        if not isinstance(name, str) or not name:
            raise AlgebraError(f"basis name {name!r} must be a nonempty string")
        if type(degree) is not int or degree < 0:
            raise AlgebraError(f"degree of {name!r} must be a non-negative integer")
        names.append(name)
        degrees.append(degree)
    if len(set(names)) != len(names):
        raise AlgebraError("basis names must be distinct")
    if not names:
        raise AlgebraError("empty basis")
    return names, degrees


def _checked(field, names, degrees, unit: dict, table, commutative) -> GradedAlgebra:
    """The algebra on _basis's names and degrees, a sparse unit and table,
    refused unless degrees add, the unit is two-sided, the product
    associates and, when flagged commutative, the sign rule holds."""
    d = len(names)
    one = field.one
    alg = GradedAlgebra(field, names, degrees, unit, table, commutative)

    # degree additivity
    for i in range(d):
        for j in range(d):
            want = degrees[i] + degrees[j]
            for k in alg.mul_basis(i, j):
                if degrees[k] != want:
                    raise AlgebraError(
                        f"degree violation: {names[i]}*{names[j]} has a component at "
                        f"{names[k]} of degree {degrees[k]}, expected degree {want}"
                    )

    # unit absorbs on both sides
    for i in range(d):
        e = {i: one}
        left = alg.multiply(alg.unit, e)
        right = alg.multiply(e, alg.unit)
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
            ij = alg.mul_basis(i, j)
            for k in range(d):
                left = alg.multiply(ij, {k: one})
                right = alg.multiply({i: one}, alg.mul_basis(j, k))
                if left != right:
                    raise AlgebraError(
                        f"associativity fails at triple ({names[i]}, {names[j]}, {names[k]}): "
                        f"({names[i]}*{names[j]})*{names[k]} = {alg.show_element(left)} but "
                        f"{names[i]}*({names[j]}*{names[k]}) = {alg.show_element(right)}"
                    )

    if commutative:
        for i in range(d):
            for j in range(d):
                if alg.mul_basis(i, j) != _op_product(alg, i, j):
                    raise AlgebraError(
                        f"sign rule fails at pair ({names[i]}, {names[j]}): "
                        f"{names[i]}*{names[j]} != "
                        f"(-1)^({degrees[i]}*{degrees[j]}) {names[j]}*{names[i]}"
                    )
    return alg


def tensor_algebras(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Tensor product with the sign rule (a@b)(a'@b') = (-1)^{|b||a'|} aa'@bb'.

    The result is flagged commutative exactly when both inputs are.  Basis
    element a_i@b_j has index i * dim B + j.
    """
    if A.field != B.field:
        raise AlgebraError("tensor factors must share a field")
    field, dB = A.field, B.dim
    names, degrees = _basis(
        (f"{na}⊗{nb}", da + db)
        for na, da in zip(A.names, A.degrees)
        for nb, db in zip(B.names, B.degrees)
    )
    unit = {i * dB + j: field(a * b) for i, a in A.unit.items() for j, b in B.unit.items()}

    def product(p: int, q: int) -> dict:
        (i1, j1), (i2, j2) = divmod(p, dB), divmod(q, dB)
        sign = -1 if (B.degrees[j1] * A.degrees[i2]) % 2 else 1
        # a product of two nonzero scalars is nonzero, so no zero is stored
        return {
            k1 * dB + k2: field(sign * ca * cb)
            for k1, ca in A.mul_basis(i1, i2).items()
            for k2, cb in B.mul_basis(j1, j2).items()
        }

    table = [[product(p, q) for q in range(len(names))] for p in range(len(names))]
    return _checked(field, names, degrees, unit, table, A.commutative and B.commutative)


def _op_product(A: GradedAlgebra, i: int, j: int) -> dict:
    """(-1)^{|e_i||e_j|} e_j * e_i, the product e_i * e_j in the opposite."""
    ji = A.mul_basis(j, i)
    if (A.degrees[i] * A.degrees[j]) % 2:
        return {k: A.field(-v) for k, v in ji.items()}
    return ji


def opposite(A: GradedAlgebra) -> GradedAlgebra:
    """The opposite algebra: a *op b = (-1)^{|a||b|} b * a."""
    names, degrees = _basis(zip(A.names, A.degrees))
    table = [[_op_product(A, i, j) for j in range(A.dim)] for i in range(A.dim)]
    return _checked(A.field, names, degrees, A.unit, table, A.commutative)


def change_basis(A: GradedAlgebra, basis, names) -> "AlgebraMap":
    """Isomorphism onto A from the copy of A with the given basis.

    basis lists homogeneous elements of A that form a basis, names their
    names in the copy.  The unit and every product of the copy are read off
    one solve against the basis.
    """
    field = A.field
    d = A.dim
    M = SMat(d, d, field, list(basis))
    coords = M.solve_many([A.unit] + [A.multiply(x, y) for x in basis for y in basis])
    B = _checked(
        field,
        *_basis([(n, A.element_degree(b)) for n, b in zip(names, basis)]),
        coords[0],
        [coords[1 + i * d : 1 + (i + 1) * d] for i in range(d)],
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
    if list(A.unit.values()) == [field.one]:
        return AlgebraMap(A, A, SMat.identity(d, field))
    u = min(A.unit)
    basis = [dict(A.unit) if k == u else {k: field.one} for k in range(d)]
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
    tr = [field(sum(A.mul_basis(k, m).get(m, field.zero) for m in range(d))) for k in range(d)]
    gram = SMat.from_dense(
        [[sum(c * tr[k] for k, c in A.mul_basis(i, j).items()) for j in range(d)]
         for i in range(d)],
        field,
    )
    return gram.rank() == d


def center(A: GradedAlgebra) -> list[dict]:
    """Basis of the graded center: z with z*u = (-1)^{|z||u|} u*z for all u.

    Solved degree by degree; returns homogeneous elements.
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
                for k, c in A.mul_basis(i, j).items():
                    m.add_at(j * d + k, col, c)
                for k, c in _op_product(A, i, j).items():
                    m.add_at(j * d + k, col, -c)
        out += [{idxs[col]: c for col, c in v.items()} for v in m.nullspace()]
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
        if M.mul_vec(S.unit) != T.unit:
            raise AlgebraError("map does not preserve the unit")
        for i in range(S.dim):
            for j in range(S.dim):
                if M.mul_vec(S.mul_basis(i, j)) != T.multiply(M.cols[i], M.cols[j]):
                    raise AlgebraError(
                        f"map is not multiplicative at ({S.names[i]}, {S.names[j]})"
                    )


def algebra_to_json(A: GradedAlgebra) -> dict:
    """JSON form with scalars as exact strings, suitable for stable output."""
    show = A.field.show
    return {
        "field": field_to_json(A.field),
        "basis": [
            {"name": n, "degree": g} for n, g in zip(A.names, A.degrees)
        ],
        "unit": [show(v) for v in _dense(A, A.unit)],
        "table": [
            [[show(v) for v in _dense(A, A.table[i][j])] for j in range(A.dim)]
            for i in range(A.dim)
        ],
        "commutative": A.commutative,
    }


def _dense(A: GradedAlgebra, vec: dict) -> list:
    """An element as the coefficient list of the dense presentation."""
    return [vec.get(k, A.field.zero) for k in range(A.dim)]


def _nested_lists(value, depth: int) -> bool:
    """True when value is a list whose items are nested lists depth - 1 deep."""
    return isinstance(value, list) and (
        depth == 1 or all(_nested_lists(v, depth - 1) for v in value)
    )


def algebra_from_json(obj: dict, field: Field | None = None) -> GradedAlgebra:
    """Decode and validate an algebra; field overrides the file's scalars."""
    if not isinstance(obj, dict):
        raise AlgebraError("algebra file must hold a JSON object")
    missing = {"field", "basis", "unit", "table", "commutative"} - set(obj)
    if missing:
        raise AlgebraError(f"algebra file lacks keys: {sorted(missing)}")
    fld = field if field is not None else parse_field(obj["field"])
    for key, depth, what in (
        ("basis", 1, "a list"),
        ("unit", 1, "a list of scalars"),
        ("table", 3, "a list of rows of coefficient lists"),
    ):
        if not _nested_lists(obj[key], depth):
            raise AlgebraError(f"{key} must be {what}")
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
    if not _nested_lists(rows, 2):
        raise AlgebraError("map matrix must be a list of rows")
    if len(rows) != tgt.dim or any(len(r) != src.dim for r in rows):
        raise AlgebraError(
            f"map matrix must be {tgt.dim}x{src.dim} (target dim x source dim)"
        )
    try:
        m = SMat.from_dense(rows, src.field)
    except FieldError as exc:
        raise AlgebraError(f"map matrix: {exc}") from exc
    return AlgebraMap(src, tgt, m)
